"""Seeded input generator for the benchmark.

Everything the program reads comes from here and depends only on the seed
and the workload's sizes: a synthetic corpus whose word frequencies follow a
Zipf law, a pool of multiple-choice questions whose stems are drawn from the
same vocabulary, and a reply script in the shape of the test fixtures (one
entry per action and question, keyed on a template scaffold phrase plus a
``[qid]`` marker, followed by catch-alls for the factuality scorer).

Two of every three questions are steered to their gold label and the third
to another label, so the expected prediction of every question is known in
advance.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

LABELS = "ABCD"
SOURCES = ("wikipedia", "pubmed", "textbook", "statpearls")

# scaffold phrases unique to each template file, as the test fixtures use
A1_MARK = "46-year-old woman"
A2_MARK = "1-year-old boy"
A3_MARK = "decompose it into sub-questions"
A5_MARK = "rephrase questions"
A6_MARK = "formulate a query"
DOCS_MARK = "### Relevant Documents"

# an A1 step rated Not Supported, so factuality scores differ between paths
UNSUPPORTED_PHRASE = "responds to targeted therapy"

VOCAB_SEED = 0

_ONSETS = "b c d f g h k l m n p r s t v z br cl dr gr pl st tr".split()
_VOWELS = "a e i o u ai ea io".split()


@dataclass(frozen=True)
class Inputs:
    corpus: list[dict]     # JSONL corpus records
    questions: list[dict]  # JSONL dataset records
    script: list[dict]     # JSONL script records
    expected: dict[str, str]  # question id -> label the script steers it to


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class ZipfSampler:
    """Draws words with probability proportional to 1 / rank**exponent."""

    def __init__(self, rng: random.Random, words: list[str], exponent: float = 1.07):
        self.rng = rng
        self.words = words
        self.cum = list(itertools.accumulate(1.0 / (r ** exponent)
                                             for r in range(1, len(words) + 1)))

    def draw(self, k: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum, k=k)


def _sentences(words: list[str], rng: random.Random) -> str:
    out: list[str] = []
    i = 0
    while i < len(words):
        n = rng.randint(8, 16)
        chunk = words[i: i + n]
        out.append(chunk[0].capitalize() + " " + " ".join(chunk[1:]) + ".")
        i += n
    return " ".join(out)


def _question_entries(qid: str, options: dict[str, str], answer: str,
                      topic: str, queries: list[str]) -> list[dict]:
    """Eight entries driving every action for one question toward ``answer``;
    most specific first, since the first matching entry wins."""
    marker = f"[{qid}]"
    text = options[answer]
    other = "C" if answer != "C" else "B"
    sub_answer = f"The condition relates to the core mechanism {marker}."
    return [
        {"purpose": "action_gen",
         "match": {"substring": [A3_MARK, f"relates to the core mechanism {marker}"]},
         "completions": [
             f"Question 2.2: Now we can answer the question: which therapy suits the "
             f"presentation {marker}?\n"
             f"Answer 2.2: Combining the findings, the answer is {answer}: {text}."]},
        {"purpose": "action_gen", "match": {"substring": [A3_MARK, marker]},
         "completions": [
             f"Question 2.1: How does {topic} apply to {marker}?\n"
             f"Answer 2.1: {sub_answer}"]},
        {"purpose": "query_gen", "match": {"substring": [A6_MARK, marker]},
         "completions": ["\n".join(f"Query 2.{i}: {q}"
                                   for i, q in enumerate(queries, start=1))]},
        {"purpose": "action_gen", "match": {"substring": [DOCS_MARK, marker]},
         "completions": [f"From the retrieved evidence, the answer is {answer}: {text}."]},
        {"purpose": "action_gen", "match": {"substring": [A1_MARK, marker]},
         "completions": [f"Step 1: The condition described in {marker} "
                         f"{UNSUPPORTED_PHRASE}."]},
        {"purpose": "action_gen", "match": {"substring": [A2_MARK, marker]},
         "completions": [f"Weighing the evidence on the core mechanism, the answer is "
                         f"{answer}: {text}."]},
        {"purpose": "action_gen", "match": {"substring": [A5_MARK, marker]},
         "completions": [f"Rephrased presentation {marker}: which therapy is most "
                         f"suitable? " + ", ".join(f"{k}: {v}" for k, v in options.items())]},
        {"purpose": "consistency", "match": {"substring": [marker]},
         "completions": [f"The answer is {answer}: {text}.",
                         f"The answer is {answer}: {text}.",
                         f"The answer is {other}: {options[other]}."]},
    ]


def generate(seed: int, n_docs: int, n_questions: int, stem_words: int = 24,
             vocab_size: int = 8000) -> Inputs:
    """All inputs of one workload, a pure function of the arguments.

    The vocabulary and the question ids do not depend on the seed, so every
    seed runs the same per-question search trees over different text; a
    seed-wide draw of long or common words would otherwise shift a whole
    run's costs."""
    vocab = _vocabulary(random.Random(VOCAB_SEED), vocab_size)
    rng = random.Random(seed)
    zipf = ZipfSampler(rng, vocab)

    corpus = []
    present: set[str] = set()
    for i in range(n_docs):
        words = zipf.draw(rng.randint(40, 120))
        present.update(words)
        corpus.append({
            "id": f"d{i:05d}",
            "title": " ".join(zipf.draw(2)).title(),
            "text": _sentences(words, rng),
            "source": rng.choice(SOURCES),
        })
    # queries use words the corpus holds, each distinct word equally likely,
    # as content words rather than the most frequent ones
    corpus_vocab = sorted(present)

    def query() -> str:
        return " ".join(rng.choice(corpus_vocab) for _ in range(3))

    questions: list[dict] = []
    script: list[dict] = []
    expected: dict[str, str] = {}
    for i in range(n_questions):
        qid = f"q{i:03d}"
        options = {label: " ".join(zipf.draw(2)) for label in LABELS}
        gold = rng.choice(LABELS)
        answer = gold if i % 3 != 2 else LABELS[(LABELS.index(gold) + 1) % len(LABELS)]
        stem = " ".join(zipf.draw(stem_words)).capitalize() + f" [{qid}]?"
        questions.append({"id": qid, "question": stem, "options": options,
                          "answer": gold, "domain": "synthetic"})
        expected[qid] = answer
        queries = [query() for _ in range(3)]
        script.extend(_question_entries(qid, options, answer, query(), queries))

    # catch-alls for the factuality scorer: three corpus queries per statement
    # and a rating that marks A1 steps unsupported and everything else supported
    rafs_queries = [query() for _ in range(3)]
    script.extend([
        {"purpose": "query_gen",
         "completions": ["\n".join(f"Query {i}: {q}"
                                   for i, q in enumerate(rafs_queries, start=1))]},
        {"purpose": "rating", "match": {"substring": UNSUPPORTED_PHRASE},
         "completions": ["Not Supported"]},
        {"purpose": "rating", "completions": ["Supported"]},
    ])
    return Inputs(corpus, questions, script, expected)


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record))
            fh.write("\n")


def document_frequencies(corpus: list[dict], tokenize) -> dict[str, int]:
    """Number of documents containing each token, under ``tokenize``."""
    df: dict[str, int] = {}
    for record in corpus:
        for token in set(tokenize(record["text"])):
            df[token] = df.get(token, 0) + 1
    return df


def mean_stem_tokens(questions: list[dict], tokenize) -> float:
    return sum(len(tokenize(q["question"])) for q in questions) / len(questions)

