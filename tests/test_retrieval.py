import copy
import math
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rare.errors import CorpusError, ValidationError
from rare.retrieval import (
    Document,
    build_index,
    load_corpus,
    load_index,
    make_snippet,
    save_index,
    search,
    tokenize,
)


def brute_force_bm25(docs, query, k1, b, top_k):
    """Exhaustive BM25 oracle: scores every document directly from the raw
    corpus, no inverted index."""
    def tok(text):
        return re.findall(r"[a-z0-9]+", text.lower())

    body_tokens = [tok(d.body) for d in docs]
    lengths = [len(t) for t in body_tokens]
    avgdl = sum(lengths) / len(docs)
    n = len(docs)
    df = Counter()
    for tokens in body_tokens:
        df.update(set(tokens))
    q_tokens = tok(query)
    scored = []
    for i, doc in enumerate(docs):
        counts = Counter(body_tokens[i])
        score = 0.0
        matched = False
        for t in q_tokens:
            tf = counts.get(t, 0)
            if tf == 0:
                continue
            matched = True
            idf = math.log(1.0 + (n - df[t] + 0.5) / (df[t] + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * lengths[i] / avgdl))
        if matched:
            scored.append((doc.doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:top_k]


def synthetic_corpus(n_docs=100, seed=13):
    rng = random.Random(seed)
    vocab = [f"term{i}" for i in range(40)] + [
        "alpha", "beta", "gamma", "delta", "mechanism",
        "therapy", "clinical", "study", "evidence", "trial",
    ]
    docs = []
    for i in range(n_docs):
        words = [rng.choice(vocab) for _ in range(rng.randint(5, 40))]
        docs.append(Document(f"d{i:03d}", f"Doc {i}", " ".join(words)))
    return docs


def synthetic_queries():
    return [
        "alpha", "beta therapy", "gamma mechanism evidence", "delta",
        "clinical study", "term0", "term1 term2", "term3 term3 term3",
        "alpha beta gamma delta", "therapy trial evidence",
        "term10 term20 term30", "mechanism", "study study",
        "term39 alpha", "nosuchword", "nosuchword alpha",
        "trial term5", "evidence term7 beta", "term12 therapy clinical",
        "delta delta mechanism",
    ]


class TestBuildIndex:
    def test_average_doc_length(self):
        docs = [
            Document("a", "", "one two three four"),
            Document("b", "", "one two three four five six"),
            Document("c", "", "a b c d e f g h"),
        ]
        index = build_index(docs)
        assert index.avg_doc_length == 6.0
        assert len(index.documents) == 3
        assert index.doc_lengths == [4, 6, 8]

    def test_duplicate_doc_id_rejected(self):
        docs = [Document("a", "", "x"), Document("a", "", "y")]
        with pytest.raises(CorpusError, match="duplicate"):
            build_index(docs)

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            build_index([])

    def test_parameter_ranges(self):
        docs = [Document("a", "", "x")]
        with pytest.raises(ValidationError):
            build_index(docs, k1=0.0)
        with pytest.raises(ValidationError):
            build_index(docs, b=1.5)
        for k1 in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="k1 must be finite"):
                build_index(docs, k1=k1)

    def test_vocabulary_matches_brute_force_tokenizer(self):
        docs = synthetic_corpus()
        index = build_index(docs)
        vocab = {t for d in docs for t in re.findall(r"[a-z0-9]+", d.body.lower())}
        assert index.vocabulary_size() == len(vocab)
        assert set(index.postings) == vocab

    def test_tokenization_is_lowercase_alphanumeric(self):
        assert tokenize("Alpha-Beta 2.5mg, X!") == ["alpha", "beta", "2", "5mg", "x"]


class TestSearch:
    def test_unknown_term_gives_empty(self):
        index = build_index([Document("a", "", "alpha beta")])
        assert search(index, "nosuchterm", 5) == []
        assert search(index, "", 5) == []

    def test_single_doc_unique_term_ranks_first(self):
        index = build_index([Document("only", "", "zebra stripes pattern")])
        hits = search(index, "zebra", 3)
        assert [h.doc_id for h in hits] == ["only"]
        assert hits[0].score > 0

    def test_hits_carry_their_document_title(self):
        index = build_index([Document("t", "Zebra facts", "zebra stripes"),
                             Document("u", "", "zebra herds")])
        assert {h.doc_id: h.title for h in search(index, "zebra", 5)} == {
            "t": "Zebra facts", "u": ""}

    def test_matches_brute_force_oracle_on_fixture(self):
        docs = synthetic_corpus()
        index = build_index(docs)
        for query in synthetic_queries():
            expected = brute_force_bm25(docs, query, 1.2, 0.75, 10)
            got = search(index, query, 10)
            assert [h.doc_id for h in got] == [d for d, _ in expected]
            for hit, (_, score) in zip(got, expected):
                assert hit.score == pytest.approx(score, abs=1e-9)

    def test_unrelated_document_shifts_apply_identically(self):
        # N and avg_doc_length change for every document when an unrelated one
        # arrives; the check is oracle equality under the shift, plus stable
        # membership for a query sharing no terms with the newcomer.
        docs = synthetic_corpus(n_docs=30, seed=5)
        extra = docs + [Document("zzz", "", "unrelatedword anotherunrelated")]
        for query in ("alpha beta", "term1 term2 therapy"):
            before = brute_force_bm25(docs, query, 1.2, 0.75, 30)
            after_hits = search(build_index(extra), query, 31)
            after_oracle = brute_force_bm25(extra, query, 1.2, 0.75, 31)
            assert [h.doc_id for h in after_hits] == [d for d, _ in after_oracle]
            assert {d for d, _ in before} == {h.doc_id for h in after_hits}

    def test_deterministic_across_runs(self):
        def run():
            index = build_index(synthetic_corpus())
            return [(h.doc_id, h.score) for h in search(index, "alpha therapy", 10)]

        assert run() == run()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_random_corpora(self, data):
        words = st.sampled_from(["cat", "dog", "fish", "bird", "tree", "rock"])
        n_docs = data.draw(st.integers(min_value=1, max_value=25))
        docs = [
            Document(f"d{i}", "", " ".join(data.draw(
                st.lists(words, min_size=1, max_size=12))))
            for i in range(n_docs)
        ]
        query = " ".join(data.draw(st.lists(words, min_size=1, max_size=4)))
        index = build_index(docs)
        got = search(index, query, n_docs)
        expected = brute_force_bm25(docs, query, 1.2, 0.75, n_docs)
        assert [h.doc_id for h in got] == [d for d, _ in expected]
        for hit, (_, score) in zip(got, expected):
            assert hit.score == pytest.approx(score, abs=1e-9)


class TestSearchMemo:
    """A question's searches pass its memo to ``search``; the shared index is
    never changed."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(synthetic_queries()),
                              st.integers(min_value=1, max_value=4)),
                    min_size=1, max_size=12))
    def test_memo_searches_return_exactly_search_without_one(self, calls):
        index = build_index(synthetic_corpus(n_docs=30, seed=7))
        state = dict(vars(index))
        first, second = {}, {}
        for query, top_k in calls:
            expected = search(index, query, top_k)
            hits = search(index, query, top_k, first)
            assert hits == expected
            hits.append("junk")  # a caller's list is its own
            hits.clear()
            assert search(index, query, top_k, first) == expected
            assert search(index, query, top_k, second) == expected
        assert all(a is not b for a in first.values() for b in second.values())
        assert vars(index) == state

    def test_memo_keeps_only_its_own_searches(self):
        index = build_index(synthetic_corpus(n_docs=30, seed=7))
        first, second = {}, {}
        search(index, "alpha therapy", 3, first)
        assert list(first) == [("alpha therapy", 3)]
        assert second == {}

    def test_memo_search_still_rejects_bad_top_k(self):
        memo = {}
        with pytest.raises(ValidationError):
            search(build_index(synthetic_corpus(n_docs=5)), "alpha", 0, memo)
        assert memo == {}


class TestSnippet:
    def test_short_body_unchanged(self):
        assert make_snippet("short body") == "short body"

    def test_long_body_cut_at_word_boundary(self):
        body = " ".join(f"word{i}" for i in range(200))
        snippet = make_snippet(body)
        assert len(snippet) <= 600
        assert not body[len(snippet):len(snippet) + 1].isalnum() or snippet.endswith(
            body[len(snippet) - 1]
        )
        assert body.startswith(snippet)
        # no mid-word cut: the character after the cut is a separator
        assert body[len(snippet)] == " "


_ran = []  # what a crafted index file's code left behind


def _run_code():
    _ran.append("code ran")
    return 5


class _Exploit:
    """Pickles as a call of ``_run_code``, as a file that runs code on load does."""

    def __reduce__(self):
        return _run_code, ()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        docs = synthetic_corpus(n_docs=20, seed=3)
        index = build_index(docs)
        path = tmp_path / "idx.bin"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.documents == index.documents
        assert loaded.postings == index.postings
        before = [(h.doc_id, h.score) for h in search(index, "alpha therapy", 5)]
        after = [(h.doc_id, h.score) for h in search(loaded, "alpha therapy", 5)]
        assert before == after

    def test_a_file_with_the_former_hash_and_count_fields_loads(self, tmp_path):
        index = build_index(synthetic_corpus(n_docs=20, seed=3))
        former = copy.copy(index)
        former.__dict__.update(doc_count=len(index.documents), corpus_hash="x")
        path = tmp_path / "idx.bin"
        path.write_bytes(pickle.dumps({"format": 1, "corpus_hash": "x", "index": former}))
        loaded = load_index(str(path))
        assert search(loaded, "alpha therapy", 5) == search(index, "alpha therapy", 5)

    @pytest.mark.parametrize("content", [
        b"",
        b'{"id": "a", "title": "T", "text": "body text"}\n',
        pickle.dumps({"format": 1, "corpus_hash": "x"})[:-3],
        pickle.dumps({"format": 1, "corpus_hash": "x", "index": 5}),
        # a protocol-5 BYTEARRAY8 opcode whose length overflows a C ssize_t
        b"\x80\x05\x96" + (2**63).to_bytes(8, "little"),
        # files that would run code as they load, alone or beside an index
        pickle.dumps({"format": 1, "index": _Exploit()}),
        pickle.dumps({"format": 1, "index": build_index([Document("d", "", "body")]),
                      "extra": _Exploit()}),
    ], ids=["empty", "jsonl", "truncated", "not_an_index", "length_overflow", "runs_code",
            "runs_code_beside_an_index"])
    def test_load_rejects_malformed_file(self, tmp_path, content):
        path = tmp_path / "bad.bin"
        path.write_bytes(content)
        with pytest.raises(CorpusError, match="bad.bin"):
            load_index(str(path))
        assert _ran == []

    def test_load_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(pickle.dumps({"format": 999}))
        with pytest.raises(CorpusError):
            load_index(str(path))


class TestCorpusFile:
    def test_load_corpus_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "title": "T", "text": "body text", "source": "pubmed"}\n'
            '{"id": "b", "text": "more text", "source": "mystery"}\n',
            encoding="utf-8",
        )
        docs = load_corpus(str(path))
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert docs[0].source == "pubmed"
        assert docs[1].source == "other"  # unknown source folded to other

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(str(path))

    @pytest.mark.parametrize("line", ["5", '["id", "text"]', '"id text"', "null"])
    def test_non_object_line_rejected(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "body"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="corpus line 2"):
            load_corpus(str(path))

    @pytest.mark.parametrize("value", ["null", '{"t": "x"}', '["x"]'])
    @pytest.mark.parametrize("field", ["id", "text"])
    def test_null_or_structured_id_or_text_rejected(self, tmp_path, field, value):
        path = tmp_path / "corpus.jsonl"
        fields = {"id": '"b"', "text": '"body"', field: value}
        path.write_text('{"id": "a", "text": "body"}\n'
                        f'{{"id": {fields["id"]}, "text": {fields["text"]}}}\n',
                        encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=f"corpus line 2: '{field}' must be a string or a number"):
            load_corpus(str(path))

    def test_numeric_id_and_text_are_written_as_text(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 7, "text": 2.5, "title": 3}\n'
                        '{"id": 8, "text": "t", "title": null}\n', encoding="utf-8")
        docs = load_corpus(str(path))
        assert [(d.doc_id, d.body, d.title) for d in docs] == [("7", "2.5", "3"), ("8", "t", "")]

    @pytest.mark.parametrize("title", ['{"x": 1}', '["x"]'])
    def test_structured_title_rejected(self, tmp_path, title):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "body"}\n'
                        f'{{"id": "b", "text": "body", "title": {title}}}\n', encoding="utf-8")
        with pytest.raises(ValidationError,
                           match="corpus line 2: 'title' must be a string or a number"):
            load_corpus(str(path))

    @pytest.mark.parametrize("source", ['{"x": 1}', '["pubmed"]'])
    def test_structured_source_rejected(self, tmp_path, source):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "body"}\n'
                        f'{{"id": "b", "text": "body", "source": {source}}}\n', encoding="utf-8")
        with pytest.raises(CorpusError,
                           match="corpus line 2: 'source' must be a string or a number"):
            load_corpus(str(path))

    def test_absent_null_or_empty_source_is_other(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "t"}\n{"id": "b", "text": "t", "source": null}\n'
                        '{"id": "c", "text": "t", "source": ""}\n', encoding="utf-8")
        assert [d.source for d in load_corpus(str(path))] == ["other"] * 3

    def test_empty_body_rejected(self):
        with pytest.raises(ValidationError):
            Document("a", "t", "")
