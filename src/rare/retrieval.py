"""Lexical passage retrieval over an in-memory corpus.

Scoring is Okapi BM25 over an inverted index. Tokenization is lowercased
alphanumeric word splitting with no stemming or stopword removal, which keeps
the scorer easy to cross-check against a brute-force implementation.

For a document D with term frequency tf, length dl, and a corpus of N
documents with average length avgdl:

    idf(t)      = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5))
    score(D, Q) = sum over query tokens t of
                  idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

Repeated query tokens contribute once per repetition. Only documents sharing
at least one token with the query are candidates; results order by
(score desc, doc_id asc).

The index is shared and never changes once built. A question's searches pass
``search`` that question's memo (``Scope.hits``), so each distinct query of
a question is scored once.
"""

from __future__ import annotations

import math
import pickle
import re
from dataclasses import dataclass
from typing import Iterable

from .errors import CorpusError, ValidationError
from .types import DocumentRef, read_records, text_of

SOURCES = ("wikipedia", "pubmed", "textbook", "statpearls", "other")

SNIPPET_CHARS = 600

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_PICKLE_FORMAT = 1


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def make_snippet(body: str, limit: int = SNIPPET_CHARS) -> str:
    """First ``limit`` characters of the body, cut back to a word boundary."""
    if len(body) <= limit:
        return body
    cut = body[:limit]
    if body[limit].isspace():
        return cut.rstrip()
    if " " in cut:
        cut = cut[: cut.rfind(" ")]
    return cut.rstrip()


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    body: str
    source: str = "other"

    def __post_init__(self) -> None:
        if not self.body:
            raise ValidationError(f"document {self.doc_id!r}: empty body")
        if self.source not in SOURCES:
            raise ValidationError(f"document {self.doc_id!r}: bad source {self.source!r}")


@dataclass
class RetrievalIndex:
    """Inverted index over a fixed corpus. Immutable once built."""

    documents: tuple[Document, ...]
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc position, tf)]
    doc_lengths: list[int]
    avg_doc_length: float
    k1: float
    b: float

    def vocabulary_size(self) -> int:
        return len(self.postings)


def build_index(corpus: Iterable[Document], k1: float = 1.2, b: float = 0.75) -> RetrievalIndex:
    """Index a corpus. Raises on duplicate doc ids, an empty corpus, or
    out-of-range BM25 parameters."""
    if not 0 < k1 < math.inf:  # NaN fails every comparison
        raise ValidationError("k1 must be finite and > 0")
    if not 0 <= b <= 1:
        raise ValidationError("b must be in [0, 1]")
    documents = tuple(corpus)
    if not documents:
        raise CorpusError("empty corpus")
    seen: set[str] = set()
    for doc in documents:
        if doc.doc_id in seen:
            raise CorpusError(f"duplicate doc_id: {doc.doc_id!r}")
        seen.add(doc.doc_id)

    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    for position, doc in enumerate(documents):
        tokens = tokenize(doc.body)
        doc_lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((position, tf))

    return RetrievalIndex(
        documents=documents,
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=sum(doc_lengths) / len(documents),
        k1=k1,
        b=b,
    )


def search(index: RetrievalIndex, query: str, top_k: int,
           memo: dict[tuple[str, int], list[DocumentRef]] | None = None) -> list[DocumentRef]:
    """Rank documents by BM25 against ``query``; empty query gives [].

    With a ``memo``, a ``(query, top_k)`` already in it is answered from it
    without scoring again, and a new one is added. Every call returns a new
    list."""
    if top_k < 1:
        raise ValidationError("top_k must be >= 1")
    if memo is None:
        return _rank(index, query, top_k)
    hits = memo.get((query, top_k))
    if hits is None:
        hits = memo[query, top_k] = _rank(index, query, top_k)
    return list(hits)


def _rank(index: RetrievalIndex, query: str, top_k: int) -> list[DocumentRef]:
    tokens = tokenize(query)
    if not tokens:
        return []
    scores: dict[int, float] = {}
    n = len(index.documents)
    for token in tokens:
        plist = index.postings.get(token)
        if plist is None:
            continue
        df = len(plist)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for position, tf in plist:
            dl = index.doc_lengths[position]
            denom = tf + index.k1 * (1.0 - index.b + index.b * dl / index.avg_doc_length)
            scores[position] = scores.get(position, 0.0) + idf * tf * (index.k1 + 1.0) / denom

    ranked = sorted(
        scores.items(), key=lambda item: (-item[1], index.documents[item[0]].doc_id)
    )
    hits = []
    for position, score in ranked[:top_k]:
        doc = index.documents[position]
        hits.append(DocumentRef(doc.doc_id, score, make_snippet(doc.body), doc.title))
    return hits


def document_from_record(record: dict) -> Document:
    if not isinstance(record, dict):
        raise ValidationError("not a JSON object")
    if "id" not in record or "text" not in record:
        raise ValidationError("missing 'id' or 'text'")
    source = text_of(record.get("source"), "'source'", optional=True)
    if source not in SOURCES:
        source = "other"
    return Document(
        doc_id=text_of(record["id"], "'id'"),
        title=text_of(record.get("title"), "'title'", optional=True),
        body=text_of(record["text"], "'text'"),
        source=source,
    )


def load_corpus(path: str) -> list[Document]:
    """Read a JSONL corpus: {"id", "title", "text", "source"} per line."""
    return list(read_records(path, "corpus ", document_from_record, CorpusError))


def save_index(index: RetrievalIndex, path: str) -> None:
    payload = {"format": _PICKLE_FORMAT, "index": index}
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


class _IndexUnpickler(pickle.Unpickler):
    """Refuses every global but the two classes a saved index holds."""

    def find_class(self, module: str, name: str) -> type:
        if module == __name__ and name in ("RetrievalIndex", "Document"):
            return super().find_class(module, name)
        raise pickle.UnpicklingError(f"global {module}.{name} is not part of an index")


def load_index(path: str) -> RetrievalIndex:
    """Read an index written by ``save_index``; a file that is not one
    raises ``CorpusError`` naming the path."""
    with open(path, "rb") as fh:
        try:
            payload = _IndexUnpickler(fh).load()
        # what pickle documents for malformed data, plus what a byte stream
        # that is not a pickle at all can hit
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CorpusError(f"unrecognized index file: {path}: {exc}") from None
    if (not isinstance(payload, dict) or payload.get("format") != _PICKLE_FORMAT
            or not isinstance(payload.get("index"), RetrievalIndex)):
        raise CorpusError(f"unrecognized index file: {path}")
    return payload["index"]
