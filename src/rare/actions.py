"""The seven reasoning actions: prompts, execution, and output parsing.

Every action acts at the end of a ``Trajectory`` and returns it extended by
one step. ``ACTION_SPECS`` holds one spec per action (template, prompt
fields, parser, stop sequences, terminal rule). ``action_request`` turns any
of them into the request that actions, consistency rewards and baselines
send; A6 and A7 first retrieve documents. ``action_requests`` runs an
action as a generator of its requests, so that the search can send several
actions' requests as one wave; ``execute_action`` sends them in turn.
``_NEXT_ACTIONS`` is the transition table: the actions legal after each
kind of last step (``None`` for the root), always intersected with the
enabled-action set. A5's rephrased question is used from then on. A2 and A6
end a trajectory by construction; an A3 whose sub-question begins with the
answer-now marker ends it too; any other step ends it when its output
contains an extractable final answer. Once the sub-question chain reaches
the configured cap, only A2 remains, which bounds trajectory depth.
"""

from __future__ import annotations

import functools
import re
import string
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Generator, Literal, Sequence

from .errors import NoViableChildError, ValidationError
from .lm import Ledger, LmBackend, LmRequest, LmResponse, request_for
from .retrieval import RetrievalIndex, search
from .types import (RETRIEVAL_ACTIONS, ActionKind, ActionStep, DocumentRef, Question,
                    SearchConfig, Trajectory, derive_seed)

ANSWER_NOW_MARKER = "now we can answer"

_ANSWER_RE = re.compile(
    r"the answer is\s*:?\s*\(?([A-Za-z])\)?(?![A-Za-z])", re.IGNORECASE
)
_STEP_SPLIT_RE = re.compile(r"\n(?=Step\s*\d)")
_QUESTION_LABEL_RE = re.compile(r"(?:^|\n)\s*Question[^:\n]*:\s*", re.IGNORECASE)
_ANSWER_LABEL_RE = re.compile(r"(?:^|\n)\s*Answer[^:\n]*:\s*", re.IGNORECASE)
_QUERY_LINE_RE = re.compile(r"^\s*Query[^:\n]*:\s*(.*)$", re.IGNORECASE)
_DOCUMENT_LINE_RE = re.compile(r"^\s*Document", re.IGNORECASE)
_REPHRASED_PREFIX_RE = re.compile(r"^\s*Rephrased Question\s*:\s*", re.IGNORECASE)


class PromptLibrary:
    """Loads the per-action template files and renders prompts.

    Templates are plain text with ``{question}``, ``{steps}``,
    ``{sub_question}`` and ``{documents}`` placeholders; everything else
    passes through verbatim, so few-shot scaffolds stay intact. Each template
    is split once, at load, into literal text and one format string per
    field; the templates ``str.format`` accepts are accepted and rendered
    byte for byte as ``str.format`` renders them.
    """

    def __init__(self, templates: dict[ActionKind, str]):
        missing = set(ActionKind) - set(templates)
        if missing:
            raise ValidationError(f"missing templates for {sorted(k.value for k in missing)}")
        self.templates = dict(templates)
        self._pieces: dict[ActionKind, tuple[tuple[str, str], ...]] = {}
        for kind in ActionKind:
            try:
                self._pieces[kind] = _split_template(self.templates[kind])
                self.render(kind)
            except (KeyError, IndexError, ValueError, AttributeError) as exc:
                raise ValidationError(
                    f"template for {kind.value} cannot render: {type(exc).__name__}: {exc}"
                ) from None

    @classmethod
    def from_dir(cls, path: str | Path | None = None) -> "PromptLibrary":
        """Load ``a1.txt`` ... ``a7.txt`` from ``path``, or the packaged
        templates when no path is given."""
        base = Path(path) if path is not None else resources.files(__package__) / "templates"
        templates = {}
        for kind in ActionKind:
            file = base / f"{kind.value.lower()}.txt"
            if not file.is_file():
                raise ValidationError(f"template file not found: {file}")
            try:
                templates[kind] = file.read_text("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"template file {file} is not UTF-8: {exc}") from None
        return cls(templates)

    def render(self, kind: ActionKind, question: str = "", steps: str = "",
               sub_question: str = "", documents: str = "") -> str:
        fields = {"question": question, "steps": steps, "sub_question": sub_question,
                  "documents": documents}
        parts = []
        for literal, field in self._pieces[kind]:
            parts.append(literal)
            if field:
                parts.append(field.format(**fields))
        return "".join(parts)


def _split_template(template: str) -> tuple[tuple[str, str], ...]:
    """``(literal text, format string of the field that follows or "")``
    pairs, as ``str.format`` reads the template."""
    return tuple(
        (literal, "" if name is None else
         "{" + name + ("!" + conv if conv else "") + (":" + spec if spec else "") + "}")
        for literal, name, spec, conv in string.Formatter().parse(template))


@functools.cache
def default_prompts() -> PromptLibrary:
    return PromptLibrary.from_dir()


class Scope(Ledger):
    """One question's state: the question, its config seeded from its id,
    the shared backend and index, the prompts (the packaged ones by default),
    its own ledger, memos of its greedy requests and its searches (``hits``,
    which it hands to ``search``), its votes and its spare steps.
    Nothing crosses questions.

    A temperature-0 request equal to one already completed gets that
    response back, reaches no backend and counts in no ledger. A request
    that raised is not remembered; sampled requests always go through.

    ``votes`` maps an A2 prompt to its context's self-consistency vote: the
    answer labels (or None) of ``n_consistency_samples`` samples of it, drawn
    at most once per question, by ``action_requests`` or ``terminal_reward``,
    and counted by every reward at that context. ``steps``
    maps an action prompt to the step samples of it that simulations drew
    and no expansion has taken yet, oldest first; ``action_requests`` adds
    to it and takes from its front. A sample of a prompt is one whoever drew
    it, so both maps are keyed by prompt alone."""

    def __init__(self, question: Question, cfg: SearchConfig, backend: LmBackend,
                 index: RetrievalIndex | None = None, prompts: PromptLibrary | None = None):
        super().__init__()
        self.question = question
        self.cfg = replace(cfg, rng_seed=derive_seed(cfg.rng_seed, question.id))
        self.backend = backend
        self.index = index
        self.prompts = prompts if prompts is not None else default_prompts()
        self.hits: dict[tuple[str, int], list[DocumentRef]] = {}
        self.votes: dict[str, tuple[str | None, ...]] = {}
        self.steps: dict[str, list[str]] = {}
        self._greedy: dict[LmRequest, LmResponse] = {}

    def complete(self, req: LmRequest) -> LmResponse:
        return self.complete_many([req])[0]

    def complete_many(self, reqs: Sequence[LmRequest]) -> list[LmResponse]:
        """The responses to ``reqs``, in order, from the memo or from one wave
        (the backend's ``settle_many``) that sends each distinct miss once.
        Every arrival is booked here; then the first failure, if any, is raised."""
        misses: list[LmRequest] = []
        slots: list[LmResponse | int] = []  # each request's memo hit, or its miss
        for req in reqs:
            hit = self._greedy.get(req)  # only greedy requests are remembered
            if hit is None and (req.temperature or req not in misses):
                misses.append(req)
            slots.append(hit or (len(misses) - 1 if req.temperature else misses.index(req)))
        outcomes = self.backend.settle_many(misses) if misses else []
        for req, outcome in zip(misses, outcomes):
            if isinstance(outcome, LmResponse):
                self.book(req, outcome)
                if req.temperature == 0:
                    self._greedy[req] = outcome
        resps = [outcomes[s] if isinstance(s, int) else s for s in slots]
        for resp in resps:
            if isinstance(resp, Exception):
                raise resp
        return resps

    def keep_vote(self, prompt: str, samples: Sequence[str]) -> tuple[str | None, ...]:
        """Keep the answer labels of ``samples`` of ``prompt`` as its vote."""
        vote = self.votes[prompt] = tuple(extract_answer(t, self.question) for t in samples)
        return vote


def extract_answer(text: str, q: Question) -> str | None:
    """Label from the last ``the answer is <label>`` occurrence, or None.

    The label must be one of the question's option keys; a letter that merely
    starts a longer word does not count.
    """
    labels = q.labels
    found = None
    for match in _ANSWER_RE.finditer(text):
        label = match.group(1).upper()
        if label in labels:
            found = label
    return found


_AFTER_REASONING = frozenset({ActionKind.A1, ActionKind.A2, ActionKind.A3, ActionKind.A6})
_NEXT_ACTIONS: dict[ActionKind | None, frozenset[ActionKind]] = {
    None: _AFTER_REASONING | {ActionKind.A5},
    ActionKind.A1: _AFTER_REASONING,
    ActionKind.A5: _AFTER_REASONING,
    ActionKind.A3: frozenset({ActionKind.A3, ActionKind.A4, ActionKind.A7}),
    ActionKind.A4: frozenset({ActionKind.A3}),
    ActionKind.A7: frozenset({ActionKind.A3}),
    # A2/A6 steps are terminal; a consistent context cannot continue them
    ActionKind.A2: frozenset(),
    ActionKind.A6: frozenset(),
}


def valid_actions(ctx: Trajectory, cfg: SearchConfig) -> frozenset[ActionKind]:
    """Subset of enabled actions legal at this context."""
    if ctx.final_answer is not None:
        return frozenset()
    if sum(step.kind == ActionKind.A3 for step in ctx.steps) >= cfg.max_subquestion_chain:
        base = frozenset({ActionKind.A2})
    else:
        base = _NEXT_ACTIONS[ctx.steps[-1].kind if ctx.steps else None]
    return base & cfg.enabled_actions


# --- output parsing ----------------------------------------------------------

def parse_first_step(text: str) -> str:
    """First reasoning step from an A1 completion (cut before a second Step)."""
    parts = _STEP_SPLIT_RE.split(text.strip(), maxsplit=1)
    return parts[0].strip()


def parse_sub_qa(text: str) -> tuple[str, str] | None:
    """(sub-question, answer) from an A3 completion, or None if unparseable.

    Accepts ``Question x.y: ... Answer x.y: ...`` labelled pairs and the
    unlabelled form where the completion opens with the answer-now marker.
    Only the first pair is kept when the model over-generates.
    """
    qm = _QUESTION_LABEL_RE.search(text)
    if qm:
        rest = text[qm.end():]
    else:
        stripped = text.strip()
        if not stripped.lower().startswith(ANSWER_NOW_MARKER):
            return None
        rest = stripped
    am = _ANSWER_LABEL_RE.search(rest)
    if am:
        sub_question = rest[: am.start()].strip()
        answer = rest[am.end():]
    else:
        first, _, remainder = rest.partition("\n")
        sub_question = first.strip()
        answer = remainder
    next_q = _QUESTION_LABEL_RE.search(answer)
    if next_q:
        answer = answer[: next_q.start()]
    answer = answer.strip()
    if not sub_question or not answer:
        return None
    return sub_question, answer


def parse_queries(text: str, limit: int) -> list[str]:
    """Search queries from a completion: ``Query ...:`` lines when present,
    otherwise bare nonempty lines; ``Document ...`` lines never count."""
    labelled: list[str] = []
    bare: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        match = _QUERY_LINE_RE.match(line)
        if match:
            if match.group(1).strip():
                labelled.append(match.group(1).strip())
        elif not _DOCUMENT_LINE_RE.match(line):
            bare.append(line)
    chosen = labelled if labelled else bare
    return chosen[:limit]


def render_cot_steps(steps: tuple[ActionStep, ...]) -> str:
    lines = []
    for step in steps:
        if step.sub_question:
            lines.append(step.sub_question)
        lines.append(step.output)
    return "\n".join(lines)


def render_qa_steps(steps: tuple[ActionStep, ...]) -> str:
    """Render the step history as the numbered sub-question chain the A3
    template continues. Re-answer steps replace the previous answer."""
    prefix: list[str] = []
    pairs: list[tuple[str, str]] = []
    for step in steps:
        if step.kind == ActionKind.A3:
            pairs.append((step.sub_question or "", step.output))
        elif step.kind in (ActionKind.A4, ActionKind.A7) and pairs:
            pairs[-1] = (pairs[-1][0], step.output)
        else:
            prefix.append(step.output)
    lines = list(prefix)
    for i, (sub_question, answer) in enumerate(pairs, start=1):
        lines.append(f"Question 2.{i}: {sub_question}")
        lines.append(f"Answer 2.{i}: {answer}")
    return "\n".join(lines)


def render_documents(hits: list[DocumentRef] | tuple[DocumentRef, ...]) -> str:
    """``title: snippet`` per hit, or the bare snippet for a hit with no title."""
    return "\n".join(f"{hit.title}: {hit.snippet}" if hit.title else hit.snippet
                     for hit in hits)


def merge_hits(hit_lists: list[list[DocumentRef]], cap: int) -> tuple[DocumentRef, ...]:
    """Union per-query hits, first occurrence wins, capped."""
    merged: list[DocumentRef] = []
    seen: set[str] = set()
    for hits in hit_lists:
        for hit in hits:
            if hit.doc_id not in seen:
                seen.add(hit.doc_id)
                merged.append(hit)
    return tuple(merged[:cap])


# --- execution ---------------------------------------------------------------

def _cot_fields(ctx: Trajectory, documents: str) -> dict[str, str]:
    return {"question": ctx.question_text(), "steps": render_cot_steps(ctx.steps)}


@dataclass(frozen=True)
class ActionSpec:
    """How one action renders its prompt and turns completions into steps.

    ``fields`` maps the context and the rendered documents to template
    fields. ``parse`` maps a completion to ``(sub-question, output)``, or
    None when it is unusable. ``ends`` is the terminal rule: ``"answer"``
    ends the step when its output holds an answer, ``"always"`` drops a
    completion without one, and ``"marker"`` ends it only on the answer-now
    marker, which must then carry an answer.
    """

    template: ActionKind
    fields: Callable[[Trajectory, str], dict[str, str]]
    parse: Callable[[str], tuple[str | None, str] | None] = lambda c: (None, c.strip())
    stop: tuple[str, ...] = ("### Instruction",)
    ends: Literal["answer", "always", "marker"] = "answer"
    pending: bool = False  # acts on the pending sub-question


ACTION_SPECS: dict[ActionKind, ActionSpec] = {
    ActionKind.A1: ActionSpec(ActionKind.A1, _cot_fields,
                              parse=lambda c: (None, parse_first_step(c))),
    ActionKind.A2: ActionSpec(ActionKind.A2, _cot_fields, ends="always"),
    ActionKind.A3: ActionSpec(
        ActionKind.A3,
        lambda ctx, docs: {"question": ctx.question_text(),
                           "steps": render_qa_steps(ctx.steps)},
        parse=parse_sub_qa, stop=(), ends="marker"),
    ActionKind.A4: ActionSpec(
        ActionKind.A4,
        lambda ctx, docs: {"question": ctx.question_text(),
                           "sub_question": ctx.pending_sub_question},
        pending=True),
    ActionKind.A5: ActionSpec(
        ActionKind.A5, lambda ctx, docs: {"question": ctx.question_text()},
        parse=lambda c: (None, _REPHRASED_PREFIX_RE.sub("", c.strip()).strip()),
        stop=("Original Question:",)),
    # A6 answers the whole question from its documents with A7's template
    ActionKind.A6: ActionSpec(
        ActionKind.A7,
        lambda ctx, docs: {"sub_question": ctx.question_text(), "documents": docs},
        ends="always"),
    ActionKind.A7: ActionSpec(
        ActionKind.A7,
        lambda ctx, docs: {"sub_question": ctx.pending_sub_question, "documents": docs},
        pending=True),
}


def action_prompt(kind: ActionKind, ctx: Trajectory, prompts: PromptLibrary,
                  documents: str = "") -> str:
    """Action ``kind``'s prompt at ``ctx``: its spec's template and fields
    rendered with ``documents``."""
    spec = ACTION_SPECS[kind]
    return prompts.render(spec.template, **spec.fields(ctx, documents))


def action_request(kind: ActionKind, ctx: Trajectory, prompts: PromptLibrary,
                   purpose: str, n: int, documents: str = "") -> LmRequest:
    """The request for action ``kind`` at ``ctx``: its ``action_prompt``
    and its spec's stop sequences."""
    return request_for(purpose, action_prompt(kind, ctx, prompts, documents), n,
                       stop_sequences=ACTION_SPECS[kind].stop)


def children_of(kind: ActionKind, ctx: Trajectory, completions: Sequence[str],
              retrieved: tuple[DocumentRef, ...], queries: tuple[str, ...]) -> list[Trajectory]:
    """``ctx`` extended by the step each usable completion gives, in order."""
    spec = ACTION_SPECS[kind]
    children = []
    for completion in completions:
        parsed = spec.parse(completion)
        if parsed is None or not parsed[1]:
            continue
        sub_question, output = parsed
        if spec.pending:
            sub_question = ctx.pending_sub_question
        answer = extract_answer(output, ctx.question)
        if spec.ends == "marker" and not sub_question.lower().startswith(ANSWER_NOW_MARKER):
            answer = None
        elif spec.ends != "answer" and answer is None:
            continue
        step = ActionStep(kind, output, sub_question, retrieved, queries)
        children.append(ctx.extend(step, answer))
    return children


def execute_action(kind: ActionKind, ctx: Trajectory, scope: Scope,
                   n_outcomes: int | None = None, purpose: str = "action_gen",
                   votes: bool = False,
                   simulated: bool = False) -> list[Trajectory]:
    """Sample one action at the end of ``ctx`` and return the child
    trajectories: ``action_requests``, each request sent by ``scope.complete``.
    Backend failures propagate."""
    run = action_requests(kind, ctx, scope, n_outcomes, purpose, votes, simulated)
    try:
        req = next(run)
        while True:
            req = run.send(scope.complete(req))
    except StopIteration as done:
        return done.value


def action_requests(kind: ActionKind, ctx: Trajectory, scope: Scope,
                    n_outcomes: int | None = None, purpose: str = "action_gen",
                    votes: bool = False, simulated: bool = False,
                    ) -> Generator[LmRequest, LmResponse, list[Trajectory]]:
    """One action at the end of ``ctx``, as a generator that sends nothing:
    it yields each request in turn, is sent its response, and returns the
    children.

    Returns up to ``n_outcomes`` (default ``cfg.children_per_action``)
    children, each ``ctx`` extended by one step and, when the step ends the
    trajectory, its answer; unparseable samples are discarded and an empty
    harvest raises NoViableChildError. A6 and A7 need ``scope.index`` and
    search first: A6 the queries its ``query_gen`` request gives (yielded
    unless the scope's memo answers it), A7 ``ctx.pending_sub_question``,
    which A4 needs too.

    The samples are taken from the front of ``scope.steps`` under the
    step's prompt, and one request under ``purpose`` draws the shortfall. A
    ``simulated`` step takes none and adds all it draws to ``scope.steps``.
    With ``votes``, when ``scope.votes`` has no vote under the prompt yet,
    the request draws ``n_consistency_samples`` more samples, after the
    step's, and keeps their answer labels there as the vote. Nothing is sent
    when nothing is left to draw.
    """
    spec = ACTION_SPECS[kind]
    cfg = scope.cfg
    n = n_outcomes if n_outcomes is not None else cfg.children_per_action
    queries: tuple[str, ...] = ()
    retrieved: tuple[DocumentRef, ...] = ()
    if kind == ActionKind.A6:
        prompt = scope.prompts.render(ActionKind.A6, question=ctx.question_text())
        req = request_for("query_gen", prompt, 1, stop_sequences=("\nQuestion 3",))
        resp = scope._greedy.get(req) or (yield req)  # a remembered one is not yielded
        queries = tuple(parse_queries(resp.completions[0], cfg.queries_per_call))
        if not queries:
            raise NoViableChildError("A6 query generation produced no queries")
    elif kind == ActionKind.A7:
        queries = (ctx.pending_sub_question,)
    if kind in RETRIEVAL_ACTIONS:
        retrieved = merge_hits([search(scope.index, query, cfg.retrieval_top_k, scope.hits)
                                for query in queries], cfg.retrieval_top_k)
    prompt = action_prompt(kind, ctx, scope.prompts, render_documents(retrieved))
    # no lookup while nothing is kept: it hashes the whole prompt
    kept = scope.steps.get(prompt, []) if scope.steps and not simulated else []
    samples = kept[:n]
    del kept[:n]
    fresh = n - len(samples)
    extra = cfg.n_consistency_samples if votes and prompt not in scope.votes else 0
    if fresh + extra:
        req = request_for(purpose, prompt, fresh + extra, stop_sequences=spec.stop)
        drawn = (yield req).completions
        if extra:
            scope.keep_vote(prompt, drawn[fresh:])
        if simulated:
            scope.steps.setdefault(prompt, []).extend(drawn[:fresh])
        samples += drawn[:fresh]
    children = children_of(kind, ctx, samples, retrieved, queries)
    if not children:
        raise NoViableChildError(f"no viable child for {kind.value}")
    return children
