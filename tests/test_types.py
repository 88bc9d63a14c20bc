import dataclasses
import functools
import math

import pytest
from hypothesis import example, given, strategies as st

from conftest import option_text, question_to_record
from rare.errors import CorpusError, DatasetError, ValidationError
from rare.harness import load_dataset
from rare.lm import load_script
from rare.retrieval import load_corpus
from rare.types import (
    ActionKind,
    ActionStep,
    DocumentRef,
    Question,
    SearchConfig,
    Trajectory,
    derive_seed,
    document_ref_to_record,
    question_from_record,
    trajectory_to_record,
)

FIVE_OPTIONS = {
    "A": "Ampicillin",
    "B": "Ceftriaxone",
    "C": "Ciprofloxacin",
    "D": "Doxycycline",
    "E": "Nitrofurantoin",
}


class TestValidateQuestion:
    def test_five_options_gold_e_ok(self):
        Question("medqa-uti", "Which of the following is the best treatment?",
                 FIVE_OPTIONS, gold_label="E")

    def test_zero_options_rejected(self):
        with pytest.raises(ValidationError, match="empty options"):
            Question("q", "stem?", {})

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValidationError, match="duplicate label"):
            Question("q", "stem?", [("A", "one"), ("A", "two")])
        # in a record, keys that name one letter or one number are one label
        for options, answer in (({"a": "x", "A": "y"}, "A"), ({"1": "x", " 1": "y"}, "1"),
                                ({"1": "x", "01": "y"}, "01")):
            with pytest.raises(ValidationError, match="duplicate label"):
                question_from_record({"id": "x", "question": "pick", "options": options,
                                      "answer": answer})

    def test_gold_not_among_options_rejected(self):
        with pytest.raises(ValidationError, match="gold label"):
            Question("q", "stem?", {"A": "x", "B": "y"}, gold_label="C")

    def test_empty_stem_rejected(self):
        with pytest.raises(ValidationError, match="empty stem"):
            Question("q", "   ", {"A": "x", "B": "y"})

    def test_noncontiguous_labels_rejected(self):
        with pytest.raises(ValidationError, match="contiguous"):
            Question("q", "stem?", {"A": "x", "C": "y"})

    def test_single_option_rejected(self):
        with pytest.raises(ValidationError):
            Question("q", "stem?", {"A": "x"})


class TestActionStepInvariants:
    def test_retrieval_payload_only_on_retrieval_actions(self):
        ref = DocumentRef("d1", 1.0, "snippet")
        with pytest.raises(ValidationError):
            ActionStep(ActionKind.A1, "out", retrieved=(ref,))
        step = ActionStep(ActionKind.A6, "out", retrieved=(ref,))
        assert step.retrieved == (ref,)

    def test_record_keeps_the_title(self):
        ref = DocumentRef("d1", 1.0, "snippet", title="Title")
        assert document_ref_to_record(ref) == {"doc_id": "d1", "score": 1.0,
                                               "snippet": "snippet", "title": "Title"}

    def test_sub_question_only_on_subquestion_actions(self):
        with pytest.raises(ValidationError):
            ActionStep(ActionKind.A2, "out", sub_question="What?")
        step = ActionStep(ActionKind.A3, "out", sub_question="What?")
        assert step.sub_question == "What?"


option_texts = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" "),
    min_size=1, max_size=30,
).map(str.strip).filter(bool)


@st.composite
def questions(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    labels = "ABCDE"[:n]
    options = {label: draw(option_texts) for label in labels}
    gold = draw(st.sampled_from([None] + list(labels)))
    return Question(
        id=draw(st.uuids()).hex,
        stem=draw(option_texts),
        options=options,
        gold_label=gold,
        domain_tag=draw(st.sampled_from(["", "medical", "commonsense"])),
    )


class TestSerialization:
    @given(questions())
    def test_question_round_trip(self, q):
        assert question_from_record(question_to_record(q)) == q


class TestDatasetNormalization:
    def test_numeric_keys_relabelled(self):
        q = question_from_record({
            "id": "x", "question": "pick one",
            "options": {"1": "first", "2": "second", "3": "third"},
            "answer": "2",
        })
        assert q.labels == ("A", "B", "C")
        assert q.gold_label == "B"
        assert option_text(q, "B") == "second"

    def test_numeric_answer_matches_a_key_by_value(self):
        for answer, gold in (("1", "A"), (2, "B"), (" 02 ", "B"), ("\u0661", "A"), ("b", "B")):
            q = question_from_record({"id": "x", "question": "pick one",
                                      "options": {"02": "second", "01": "first"},
                                      "answer": answer})
            assert q.options == (("A", "first"), ("B", "second"))
            assert q.gold_label == gold

    @pytest.mark.parametrize("options", [{"\u00b2": "x", "\u00b3": "y"},
                                         {str(i): "x" for i in range(1, 7)}])
    def test_keys_that_name_no_label_are_refused(self, options):
        # a superscript digit is a digit but not a decimal; six numbers are
        # more options than there are labels
        with pytest.raises(ValidationError):
            question_from_record({"id": "x", "question": "pick", "options": options,
                                  "answer": "1"})

    def test_yes_no_answer_becomes_two_options(self):
        q = question_from_record({"id": "s1", "question": "Is it so?", "answer": "no"})
        assert q.options == (("A", "yes"), ("B", "no"))
        assert q.gold_label == "B"

    def test_lowercase_labels_uppercased(self):
        q = question_from_record({
            "id": "x", "question": "pick", "options": {"a": "x", "b": "y"}, "answer": "a",
        })
        assert q.labels == ("A", "B")
        assert q.gold_label == "A"

    def test_list_of_pairs_accepted(self):
        q = question_from_record({
            "id": "x", "question": "pick", "options": [["a", "x"], ["b", "y"]],
        })
        assert q.options == (("A", "x"), ("B", "y"))

    @pytest.mark.parametrize("options", [[1, 2], [["A", "x"], ["B"]], 5, "AB"])
    def test_options_not_pairs_rejected(self, options):
        with pytest.raises(ValidationError, match="options must be"):
            question_from_record({"id": "x", "question": "pick", "options": options,
                                  "answer": "A"})

    def test_missing_fields_rejected(self):
        with pytest.raises(ValidationError):
            question_from_record({"question": "no id"})

    @pytest.mark.parametrize("value", [None, {"text": "x"}, ["x"]])
    @pytest.mark.parametrize("field", ["id", "question", "option"])
    def test_null_or_structured_text_rejected(self, field, value):
        record = {"id": "x", "question": "pick", "options": {"A": "a", "B": "b"}}
        if field == "option":
            record["options"]["A"] = value
        else:
            record[field] = value
        with pytest.raises(ValidationError, match="must be a string or a number"):
            question_from_record(record)
        if field == "option":  # the list form too, and a question built directly
            record["options"] = [["A", value], ["B", "b"]]
            with pytest.raises(ValidationError, match="must be a string or a number"):
                question_from_record(record)
            with pytest.raises(ValidationError, match="option text must be a string"):
                Question("q", "stem", {"A": value, "B": "x"})

    @pytest.mark.parametrize("value", [{"x": 1}, ["x"]])
    def test_structured_domain_rejected(self, value):
        with pytest.raises(ValidationError, match="'domain' must be a string or a number"):
            question_from_record({"id": "x", "question": "pick",
                                  "options": {"A": "a", "B": "b"}, "domain": value})

    @pytest.mark.parametrize("record, tag", [({}, ""), ({"domain": None}, ""),
                                             ({"domain": "medical"}, "medical")])
    def test_absent_or_null_domain_is_empty(self, record, tag):
        record.update({"id": "x", "question": "pick", "options": {"A": "a", "B": "b"}})
        assert question_from_record(record).domain_tag == tag

    def test_numbers_are_written_as_text(self):
        q = question_from_record({"id": 7, "question": 12, "options": {"A": 1, "B": 2.5},
                                  "domain": 0})
        assert (q.id, q.stem, q.options, q.domain_tag) == (
            "7", "12", (("A", "1"), ("B", "2.5")), "0")

    @pytest.mark.parametrize("record", [7, ["id", "question"], "question", None])
    def test_non_object_record_rejected(self, record):
        with pytest.raises(ValidationError, match="not a JSON object"):
            question_from_record(record)


# decimal digits of other scripts: Arabic-Indic, Devanagari and fullwidth zeros
_ZEROS = (0x0660, 0x0966, 0xFF10)


@st.composite
def number_spellings(draw, value):
    """``value`` as a record may write it: a JSON number, or text with zero
    padding, surrounding spaces and the digits of any script."""
    if draw(st.booleans()):
        return value
    text = "0" * draw(st.integers(0, 3)) + str(value)
    zero = draw(st.sampled_from((ord("0"),) + _ZEROS))
    text = "".join(chr(zero + int(d)) for d in text)
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def letter_spellings(draw, letter):
    text = draw(st.sampled_from([letter, letter.lower()]))
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def option_sets(draw):
    """(options as a record writes them, each key's number or letter)."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        names = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
        keys = [str(draw(number_spellings(v))) for v in names]
    else:
        names = list("ABCDE"[:n])
        if draw(st.booleans()):
            names = draw(st.permutations(names))
        keys = [draw(letter_spellings(letter)) for letter in names]
    options = [[key, f"text {i}"] for i, key in enumerate(keys)]
    return (options if draw(st.booleans()) else dict(options)), names


_KEYS = st.sampled_from(["1", "01", " 1", "2", "02", "7", "\u00b2", "\u0663", "\uff11", "a",
                         "A", "b", "B", "", "1.5", "-1", "\u216b", "yes"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
_TEXT = st.text(max_size=4) | st.integers()


class TestDatasetProperties:
    @given(option_sets(), st.data())
    def test_every_spelling_of_a_key_names_that_key(self, option_set, data):
        options, names = option_set
        record = {"id": "x", "question": "pick", "options": options}
        try:
            question_from_record(record)
        except ValidationError:
            return  # a set the loader refuses
        numeric = isinstance(names[0], int)
        for i, name in enumerate(names):
            spellings = [data.draw(number_spellings(name) if numeric else letter_spellings(name))]
            if numeric:  # and the letter a number becomes, "A" for the least
                spellings.append(data.draw(letter_spellings("ABCDE"[sorted(names).index(name)])))
            for answer in spellings:
                q = question_from_record({**record, "answer": answer})
                assert dict(q.options)[q.gold_label] == f"text {i}"

    @given(st.fixed_dictionaries(
        {"id": _TEXT, "question": _TEXT},
        optional={"options": st.dictionaries(_KEYS, _TEXT, max_size=7)
                  | st.lists(st.tuples(_KEYS, _TEXT).map(list), max_size=7) | _JSON,
                  "answer": _KEYS | _JSON, "domain": _JSON}) | _JSON)
    @example({"id": "x", "question": "q?", "options": {"\u00b2": "x", "\u00b3": "y"},
              "answer": "\u00b2"})
    def test_a_record_is_accepted_or_refused_with_a_validation_error(self, record):
        try:
            question_from_record(record)
        except (ValidationError, DatasetError):
            pass


# (records loaded from a path, error class, line prefix, a good line, a line
# repeating a top-level key, a line repeating a nested key)
LOADERS = {
    "dataset": (load_dataset, DatasetError, "line",
                '{"id": "q", "question": "pick", "options": {"A": "x", "B": "y"}}',
                '{"id": "q", "question": "pick", "question": "p", '
                '"options": {"A": "x", "B": "y"}}',
                '{"id": "q", "question": "pick", "options": {"A": "x", "A": "y"}}'),
    "corpus": (load_corpus, CorpusError, "corpus line",
               '{"id": "a", "text": "body"}',
               '{"id": "b", "text": "one", "text": "two"}',
               '{"id": "b", "text": "one", "meta": {"k": 1, "k": 2}}'),
    "script": (lambda path: load_script(path).entries, ValidationError, "script line",
               '{"purpose": "rating", "completions": ["Supported"]}',
               '{"purpose": "rating", "completions": ["a"], "completions": ["b"]}',
               '{"purpose": "rating", "match": {"substring": "a", "substring": "b"}, '
               '"completions": ["x"]}'),
}


class TestReadRecords:
    """The dataset, corpus and script loaders share one line reader."""

    @pytest.mark.parametrize("kind", LOADERS)
    def test_blank_lines_are_skipped(self, tmp_path, kind):
        load, _, _, good, _, _ = LOADERS[kind]
        path = tmp_path / "input.jsonl"
        path.write_text(f"\n{good}\n  \t\n\n", encoding="utf-8")
        assert len(load(str(path))) == 1

    @pytest.mark.parametrize("case", ["not_utf8", "bad_json", "extra_data", "too_deep",
                                      "bom", "not_an_object", "duplicate_key",
                                      "nested_duplicate_key"])
    @pytest.mark.parametrize("kind", LOADERS)
    def test_a_bad_line_raises_the_loaders_error_naming_it(self, tmp_path, kind, case):
        load, error, prefix, good, duplicate, nested = LOADERS[kind]
        bad, message = {
            "not_utf8": (b'{"id": "\xff"}', "can't decode byte 0xff"),
            "bad_json": (b'{"id": ', "Expecting value"),
            "extra_data": (good.encode() + b" " + good.encode(), "Extra data"),
            "too_deep": (b"[" * 200_000, "maximum recursion depth exceeded"),
            "bom": (b"\xef\xbb\xbf" + good.encode(), "Unexpected UTF-8 BOM"),
            "not_an_object": (b"[1, 2]", "JSON object"),
            "duplicate_key": (duplicate.encode(), "duplicate key"),
            "nested_duplicate_key": (nested.encode(), "duplicate key"),
        }[case]
        path = tmp_path / "input.jsonl"
        path.write_bytes(good.encode() + b"\n\n" + bad + b"\n" + good.encode() + b"\n")
        with pytest.raises(error, match=f"^{prefix} 3: ") as raised:
            load(str(path))
        assert raised.type is error
        assert message in str(raised.value)

    @pytest.mark.parametrize("kind", LOADERS)
    def test_an_unreadable_file_raises_the_loaders_error(self, tmp_path, kind):
        load, error, _, _, _, _ = LOADERS[kind]
        with pytest.raises(error, match="cannot read") as raised:
            load(str(tmp_path / "absent.jsonl"))
        assert raised.type is error


class TestPerInstanceMemos:
    """``Question.labels``, ``Trajectory.content_hash()`` and
    ``Trajectory.question_text()`` are computed once per instance. Nothing
    outside the instance can tell."""

    @staticmethod
    def question(qid="q"):
        return Question(qid, f"Which one in {qid}?", {"A": "x", "B": "y"})

    @staticmethod
    def path(question):
        return Trajectory(question, (
            ActionStep(ActionKind.A5, "Which one, x or y?"),
            ActionStep(ActionKind.A2, "So the answer is B."),
        ), "B", terminal_reward=0.5)

    def test_a_read_trajectory_equals_a_fresh_copy(self):
        read = self.path(self.question())
        read.content_hash(), read.question_text(), read.question.labels
        fresh = self.path(self.question())
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert (read.question, hash(read.question)) == (fresh.question, hash(fresh.question))
        assert trajectory_to_record(read) == trajectory_to_record(fresh)

    def test_memos_are_plain_values_outside_the_fields(self):
        traj = self.path(self.question())
        names = {field.name for field in dataclasses.fields(Trajectory)}
        assert names == {"question", "steps", "final_answer", "terminal_reward",
                         "factuality"}
        assert set(vars(traj)) == names  # nothing is computed before first use
        values = [traj.content_hash(), traj.question_text()]
        memos = [value for name, value in vars(traj).items() if name not in names]
        assert sorted(memos) == sorted(values)
        # cached_property would take a lock per descriptor on Python 3.11
        for cls in (Question, Trajectory):
            assert not any(isinstance(attr, functools.cached_property)
                           for attr in vars(cls).values())

    def test_a_memo_never_crosses_instances(self):
        first, second = self.question("q1"), self.question("q2")
        root = Trajectory(first)
        assert root.question_text() == first.render()
        moved = dataclasses.replace(root, question=second)
        assert moved.question_text() == second.render() != root.question_text()
        answered = self.path(first)
        unanswered = dataclasses.replace(answered, steps=answered.steps[:1])
        assert answered.content_hash() != unanswered.content_hash()
        assert unanswered.content_hash() == Trajectory(first, answered.steps[:1]).content_hash()


class TestSearchConfig:
    def test_defaults_valid(self):
        SearchConfig()

    def test_a4_requires_a3(self):
        with pytest.raises(ValidationError, match="A4"):
            SearchConfig(enabled_actions=frozenset({ActionKind.A1, ActionKind.A4}))

    def test_a7_requires_a3(self):
        with pytest.raises(ValidationError, match="A7"):
            SearchConfig(enabled_actions=frozenset({ActionKind.A2, ActionKind.A7}))

    def test_nonpositive_exploration_rejected(self):
        with pytest.raises(ValidationError):
            SearchConfig(exploration_c=0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_exploration_rejected(self, c):
        with pytest.raises(ValidationError, match="exploration_c"):
            SearchConfig(exploration_c=c)

    def test_replace_rechecks_the_config(self):
        with pytest.raises(ValidationError, match="rollouts"):
            dataclasses.replace(SearchConfig(), rollouts=0)

    def test_derive_seed_depends_on_key_not_order(self):
        assert derive_seed(7, "q01") == derive_seed(7, "q01")
        assert derive_seed(7, "q01") != derive_seed(7, "q02")
        assert derive_seed(7, "q01") != derive_seed(8, "q01")
