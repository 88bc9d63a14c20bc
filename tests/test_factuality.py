from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    REASONING_SCORE_06,
    REASONING_SCORE_0625,
    REASONING_SCORE_10,
    FaultBackend,
    RecordingBackend,
    fixture_corpus,
    make_eval_question,
    make_reasoning_trajectory,
    marker_fault,
    rafs_rating_entries,
)
from rare.actions import Scope, merge_hits
from rare.errors import ScriptMissError
from rare.factuality import (
    factuality_record,
    generate_queries,
    rate_statement,
    score_candidates,
    split_sentences,
    split_statements,
)
from rare.lm import ScriptEntry, ScriptedBackend
from rare.retrieval import build_index, search
from rare.selection import select_rare
from rare.types import (
    ActionKind,
    ActionStep,
    DocumentRef,
    SearchConfig,
    Statement,
    Trajectory,
    make_factuality_report,
)


@pytest.fixture
def question(conjunctivitis_question):
    return conjunctivitis_question


@pytest.fixture
def index():
    return build_index(fixture_corpus())


@pytest.fixture
def backend():
    return ScriptedBackend(rafs_rating_entries())


CFG = SearchConfig()


class TestSplitStatements:
    def test_worked_reasoning_splits_into_five(self, question):
        traj = make_reasoning_trajectory(question, REASONING_SCORE_06, "C")
        statements = split_statements(traj)
        assert len(statements) == 5
        assert statements[-1] == "The answer is C: Warm compresses."
        assert statements[0].startswith("Given the patient's symptoms")

    def test_single_sentence_without_terminator(self, question):
        traj = make_reasoning_trajectory(question, "a bare thought without end", "C")
        assert split_statements(traj) == ["a bare thought without end"]

    def test_decimal_number_not_a_boundary(self):
        assert split_sentences("Dose is 2.5 mg. Next step.") == [
            "Dose is 2.5 mg.", "Next step."]

    def test_single_letter_abbreviation_guarded(self):
        assert split_sentences("Cultures grew E. coli in the sample. Treat it.") == [
            "Cultures grew E. coli in the sample.", "Treat it."]

    def test_option_label_continuation_guarded(self):
        text = "Which treatment fits? A: drops, B: compresses. It depends."
        assert split_sentences(text) == [
            "Which treatment fits? A: drops, B: compresses.", "It depends."]

    def test_short_fragments_merge_into_previous(self):
        assert split_sentences("The culture was taken from blood. mg dose.") == [
            "The culture was taken from blood. mg dose."]

    def test_multi_step_outputs_concatenated(self, question):
        steps = (
            ActionStep(ActionKind.A3, "The cause is pollen.",
                       sub_question="What causes it?"),
            ActionStep(ActionKind.A2, "The answer is B: Ketotifen eye drops."),
        )
        traj = Trajectory(question, steps, final_answer="B")
        assert split_statements(traj) == [
            "The cause is pollen.", "The answer is B: Ketotifen eye drops."]

    @given(st.text(alphabet=" .?!abcdefgXYZ123,", max_size=120))
    def test_statements_preserve_every_token(self, text):
        if not text.strip():
            return
        statements = split_sentences(text)
        assert statements
        assert " ".join(statements).split() == text.split()


class TestGenerateQueries:
    def test_two_lines_for_n_three(self):
        backend = ScriptedBackend([ScriptEntry("query_gen",
                                               ("first query\nsecond query",))])
        assert generate_queries("stmt", backend, 3) == ["first query", "second query"]

    def test_blank_reply_falls_back_to_statement(self):
        backend = ScriptedBackend([ScriptEntry("query_gen", ("   \n  ",))])
        assert generate_queries("the statement", backend, 3) == ["the statement"]

    def test_n_one_truncates_to_first_line(self):
        backend = ScriptedBackend([ScriptEntry("query_gen", ("one\ntwo\nthree",))])
        assert generate_queries("stmt", backend, 1) == ["one"]


class TestRateStatement:
    def rate(self, reply):
        backend = ScriptedBackend([ScriptEntry("rating", (reply,))])
        evidence = (DocumentRef("d", 1.0, "snippet text"),)
        return rate_statement("stmt", evidence, backend)

    def test_supported_label(self):
        assert self.rate("Label: Supported") == "supported"

    def test_not_supported_checked_first(self):
        assert self.rate("This is not supported by the evidence") == "not_supported"

    def test_unparseable_defaults_to_not_supported(self):
        assert self.rate("unclear") == "not_supported"

    def test_mixed_reply_prefers_not_supported(self):
        assert self.rate("Supported? No: not supported on balance.") == "not_supported"

    @pytest.mark.parametrize("reply", ["Unsupported", "not-supported", "NOT_SUPPORTED",
                                       "Label: Unsupported."])
    def test_negated_spellings_are_not_supported(self, reply):
        assert self.rate(reply) == "not_supported"


def score_one(traj, backend, index, cfg=CFG):
    """The report of a trajectory scored on its own."""
    return score_candidates([traj], Scope(traj.question, cfg, backend, index))[0].factuality


class TestScoreTrajectory:
    def test_worked_example_three_of_five(self, question, backend, index):
        traj = make_reasoning_trajectory(question, REASONING_SCORE_06, "C")
        report = score_one(traj, backend, index)
        assert report.supported_count == 3
        assert report.not_supported_count == 2
        assert report.score == 0.6
        labels = [s.label for s in report.statements]
        assert labels == ["supported", "supported", "supported",
                          "not_supported", "not_supported"]

    def test_all_supported_scores_one(self, question, backend, index):
        traj = make_reasoning_trajectory(question, REASONING_SCORE_10, "B")
        report = score_one(traj, backend, index)
        assert len(report.statements) == 10
        assert report.supported_count == 10
        assert report.score == 1.0

    def test_five_of_eight_scores_0625(self, question, backend, index):
        traj = make_reasoning_trajectory(question, REASONING_SCORE_0625, "D")
        report = score_one(traj, backend, index)
        assert len(report.statements) == 8
        assert report.supported_count == 5
        assert report.score == 0.625

    def test_score_is_counts_division_done_last(self, question, backend, index):
        traj = make_reasoning_trajectory(question, REASONING_SCORE_0625, "D")
        report = score_one(traj, backend, index)
        assert 0.0 <= report.score <= 1.0
        assert report.score == report.supported_count / len(report.statements)
        assert report.supported_count + report.not_supported_count == len(
            report.statements)

    def test_statements_carry_queries_and_evidence(self, question, backend, index):
        traj = make_reasoning_trajectory(question, REASONING_SCORE_06, "C")
        report = score_one(traj, backend, index)
        for stmt in report.statements:
            assert stmt.queries
            assert len(stmt.queries) <= CFG.queries_per_call
            assert len(stmt.evidence) <= CFG.retrieval_top_k

    def test_pipeline_deterministic(self, question, index):
        def run():
            backend = ScriptedBackend(rafs_rating_entries())
            traj = make_reasoning_trajectory(question, REASONING_SCORE_06, "C")
            report = score_one(traj, backend, index)
            return [(s.text, s.label, tuple(e.doc_id for e in s.evidence))
                    for s in report.statements]

        assert run() == run()


class TestScoreCandidates:
    def test_scores_are_independent_of_candidate_order(self, question, index):
        trajs = [
            make_reasoning_trajectory(question, REASONING_SCORE_10, "B"),
            make_reasoning_trajectory(question, REASONING_SCORE_0625, "D"),
            make_reasoning_trajectory(question, REASONING_SCORE_06, "C"),
        ]

        def chosen(order):
            backend = ScriptedBackend(rafs_rating_entries())
            scope = Scope(question, CFG, backend, index)
            scored = score_candidates([trajs[i] for i in order], scope)
            winner = select_rare(scored)
            return winner.final_answer, winner.factuality

        answer, report = chosen([0, 1, 2])
        assert chosen([2, 0, 1]) == chosen([1, 2, 0]) == (answer, report)
        assert answer == "B"
        assert report == score_one(trajs[0], ScriptedBackend(rafs_rating_entries()), index)
        assert report.score == 1.0

    def test_always_supported_rater_gives_one_everywhere(self, question, index):
        backend = ScriptedBackend([
            ScriptEntry("rating", ("Supported",)),
            ScriptEntry("query_gen", ("evidence query",)),
        ])
        trajs = [
            make_reasoning_trajectory(question, REASONING_SCORE_06, "C"),
            make_reasoning_trajectory(question, REASONING_SCORE_0625, "D"),
        ]
        scored = score_candidates(trajs, Scope(question, CFG, backend, index))
        reported = [t for t in scored if t.factuality is not None]
        assert reported
        assert all(t.factuality.score == 1.0 for t in reported)

    def test_backend_failure_propagates(self, question, index):
        # rating entries missing entirely: the first rating request raises
        backend = ScriptedBackend([ScriptEntry("query_gen", ("q",))])
        traj = make_reasoning_trajectory(question, REASONING_SCORE_06, "C")
        with pytest.raises(ScriptMissError):
            score_candidates([traj], Scope(question, CFG, backend, index))


SHARED_TAIL = ("Ketotifen eye drops relieve allergic itching within minutes."
               " The answer is B: Ketotifen eye drops.")


def sharing_candidates(question):
    """Two candidates from one tree: the second repeats the first three
    sentences of the first, in a step of its own, then ends differently."""
    first = make_reasoning_trajectory(question, REASONING_SCORE_06, "C")
    prefix = " ".join(split_statements(first)[:3])
    steps = (
        ActionStep(ActionKind.A3, prefix, sub_question="What fits best?"),
        ActionStep(ActionKind.A2, SHARED_TAIL),
    )
    return [first, Trajectory(question, steps, final_answer="B")]


class TestSharedStatements:
    def test_each_distinct_sentence_checked_once(self, question, index):
        trajs = sharing_candidates(question)
        backend = RecordingBackend(ScriptedBackend(rafs_rating_entries()))
        score_candidates(trajs, Scope(question, CFG, backend, index))
        distinct = list(dict.fromkeys(
            s for traj in trajs for s in split_statements(traj)))
        assert len(distinct) == 7  # five sentences, plus two new ones
        log = backend.call_log()
        for sentence in distinct:
            asked = [c for c in log if f"Statement: {sentence}\n" in c.prompt]
            assert sorted(c.purpose for c in asked) == ["query_gen", "rating"]
        assert len(log) == 2 * len(distinct)

    def test_shared_reports_equal_stand_alone_reports(self, question, index):
        trajs = sharing_candidates(question)
        scored = score_candidates(
            trajs, Scope(question, CFG, ScriptedBackend(rafs_rating_entries()), index))
        for traj, together in zip(trajs, scored):
            alone = score_one(traj, ScriptedBackend(rafs_rating_entries()), index)
            assert together.factuality == alone
            assert factuality_record(together) == factuality_record(
                replace(traj, factuality=alone))
        assert [t.factuality.score for t in scored] == [0.6, 1.0]
        # the three shared sentences are the same checked objects in both reports
        first, second = (t.factuality.statements for t in scored)
        assert all(a is b for a, b in zip(first[:3], second[:3], strict=True))

    def test_failing_shared_sentence_fails_every_holder(self, question, index):
        first, second = sharing_candidates(question)
        third = make_reasoning_trajectory(question, REASONING_SCORE_10, "B")
        shared = split_statements(first)[1]

        def failing():  # the shared sentence's query_gen raises ScriptMissError
            return FaultBackend(ScriptedBackend(rafs_rating_entries()),
                                marker_fault([("query_gen", shared)]))

        with pytest.raises(ScriptMissError):
            score_candidates([first, second], Scope(question, CFG, failing(), index))
        # each holder fails on its own too; a candidate without it scores
        for holder in (first, second):
            with pytest.raises(ScriptMissError):
                score_one(holder, failing(), index)
        assert score_one(third, failing(), index).score == 1.0


# Sentences for generated candidate sets; each splits as one statement.
CLAIMS = [f"Claim number {i} holds for this patient." for i in range(8)]
VERDICTS = ("Supported", "Not Supported", "fail_query", "fail_rating")
FIXTURE_INDEX = build_index(fixture_corpus())


FAILING_PURPOSE = {"fail_query": "query_gen", "fail_rating": "rating"}


def claims_backend(verdicts) -> FaultBackend:
    """Rates ``CLAIMS[i]`` by ``verdicts[i]``; a ``fail_*`` verdict makes that
    sentence's query or rating request raise ``ScriptMissError``."""
    entries, faults = [], []
    for claim, verdict in zip(CLAIMS, verdicts):
        marker = f"Statement: {claim}\n"
        if verdict in FAILING_PURPOSE:
            faults.append((FAILING_PURPOSE[verdict], marker))
        else:
            entries.append(ScriptEntry("rating", (verdict,), substrings=(marker,)))
    entries.append(ScriptEntry("query_gen", ("allergic conjunctivitis treatment",)))
    return FaultBackend(ScriptedBackend(entries), marker_fault(faults))


def claims_candidate(claim_ids, n_steps=1, reward=0.0) -> Trajectory:
    """A candidate whose last of ``n_steps`` steps states the given claims;
    the earlier steps are empty, so they add steps but no sentences."""
    outputs = [""] * (n_steps - 1) + [" ".join(CLAIMS[i] for i in claim_ids)]
    steps = tuple(ActionStep(ActionKind.A1, out) for out in outputs)
    return Trajectory(make_eval_question("q", "A"), steps, final_answer="A",
                      terminal_reward=reward)


def score_in_full(candidates, backend, index, cfg=CFG):
    """Reference scorer: checks every distinct sentence of every candidate and
    reports every candidate."""
    sentence_lists = [split_statements(traj) for traj in candidates]
    checked = {}
    for sentence in dict.fromkeys(s for sentences in sentence_lists for s in sentences):
        queries = generate_queries(sentence, backend, cfg.queries_per_call)
        evidence = merge_hits([search(index, query, cfg.retrieval_top_k)
                               for query in queries], cfg.retrieval_top_k)
        label = rate_statement(sentence, evidence, backend)
        checked[sentence] = Statement(sentence, tuple(queries), evidence, label)
    return [
        replace(traj, factuality=make_factuality_report(checked[s] for s in sentences))
        for traj, sentences in zip(candidates, sentence_lists)
    ]


def chosen_position(scored) -> int:
    winner = select_rare(scored)
    return next(k for k, traj in enumerate(scored) if traj is winner)


def asked_claims(backend: RecordingBackend) -> list[tuple[str, int]]:
    """``(purpose, claim number)`` of each completed call, in order."""
    return [(call.purpose, next(i for i, claim in enumerate(CLAIMS)
                                if f"Statement: {claim}\n" in call.prompt))
            for call in backend.call_log()]


class TestBestFirst:
    @settings(deadline=None)
    @given(
        st.lists(st.tuples(st.lists(st.integers(0, len(CLAIMS) - 1), max_size=4),
                           st.integers(1, 3), st.sampled_from((0.0, 0.5, 1.0))),
                 min_size=1, max_size=6),
        st.lists(st.sampled_from(VERDICTS), min_size=len(CLAIMS), max_size=len(CLAIMS)),
    )
    def test_picks_what_full_scoring_picks(self, specs, verdicts):
        candidates = [claims_candidate(ids, n_steps, reward)
                      for ids, n_steps, reward in specs]
        try:
            got = score_candidates(candidates, Scope(
                candidates[0].question, CFG, claims_backend(verdicts), FIXTURE_INDEX))
        except ScriptMissError:
            return  # it asked for a failing claim, and the error reached the caller
        k = chosen_position(got)
        # it asked for no failing claim, so whatever those claims would be rated
        for rating in ("Supported", "Not Supported"):
            settled = [rating if v.startswith("fail_") else v for v in verdicts]
            want = score_in_full(candidates, claims_backend(settled), FIXTURE_INDEX)
            assert k == chosen_position(want)
            assert got[k].factuality == want[k].factuality
            for together, full in zip(got, want):
                if together.factuality is not None:
                    assert together.factuality == full.factuality

    def test_failing_check_mid_round_ranks_every_holder_last(self):
        # No holder is ranked at all now: the failed check fails the whole
        # scoring, so no candidate, holder or not, is picked from this set.
        verdicts = ["Supported", "fail_query", "Supported", "Supported",
                    "Supported", "Not Supported", "Supported", "Supported"]
        candidates = [
            claims_candidate([0, 1, 2], reward=1.0),  # taken first; fails at claim 1
            claims_candidate([1, 3], reward=0.5),     # also holds claim 1
            claims_candidate([4, 5]),
            claims_candidate([2, 5], n_steps=2),
        ]
        backend = RecordingBackend(claims_backend(verdicts))
        with pytest.raises(ScriptMissError):
            score_candidates(
                candidates, Scope(candidates[0].question, CFG, backend, FIXTURE_INDEX))
        # the failed query_gen never completes, and no request follows it:
        # neither claim 2, next in the round, nor another candidate's claims
        assert asked_claims(backend) == [("query_gen", 0), ("rating", 0)]

    def test_one_element_list_checks_every_sentence(self, question, index):
        traj = make_reasoning_trajectory(question, REASONING_SCORE_06, "C")
        backend = RecordingBackend(ScriptedBackend(rafs_rating_entries()))
        scope = Scope(question, CFG, backend, index)
        report = score_candidates([traj], scope)[0].factuality
        assert report.score == 0.6
        statements = split_statements(traj)
        assert [s.text for s in report.statements] == statements
        assert [c.purpose for c in backend.call_log()] == ["query_gen", "rating"] * 5

    def test_a_first_pick_scoring_one_requests_only_its_sentences(self, question, index):
        best = replace(make_reasoning_trajectory(question, REASONING_SCORE_10, "B"),
                       terminal_reward=1.0)
        candidates = [
            make_reasoning_trajectory(question, REASONING_SCORE_06, "C"),
            best,
            make_reasoning_trajectory(question, REASONING_SCORE_0625, "D"),
        ]
        backend = RecordingBackend(ScriptedBackend(rafs_rating_entries()))
        scored = score_candidates(candidates, Scope(question, CFG, backend, index))
        assert select_rare(scored) is scored[1]
        assert scored[1].factuality.score == 1.0
        assert scored[0].factuality is None and scored[2].factuality is None
        log = backend.call_log()
        assert len(log) == 2 * 10
        own = split_statements(best)
        assert all(any(f"Statement: {s}\n" in c.prompt for s in own) for c in log)
