import pytest
from hypothesis import given, strategies as st

from conftest import fixture_corpus, make_eval_question
from rare.actions import Scope
from rare.errors import AbstainError
from rare.lm import ScriptEntry, ScriptedBackend
from rare.retrieval import build_index
from rare.selection import run_baseline, select_majority, select_rare
from rare.types import (
    ActionKind,
    ActionStep,
    FactualityReport,
    Question,
    SearchConfig,
    Trajectory,
)


def traj_with_scores(answer, factuality=None, reward=0.0, n_steps=1, tag="x"):
    steps = tuple(
        ActionStep(ActionKind.A1, f"thought {tag} {i}") for i in range(n_steps - 1)
    ) + (ActionStep(ActionKind.A2, f"{tag}: the answer is {answer}."),)
    report = None
    if factuality is not None:
        report = FactualityReport((), 0, 0, factuality)
    return Trajectory(make_eval_question("q", "B"), steps, final_answer=answer,
                      terminal_reward=reward, factuality=report)


class TestSelectRare:
    def test_highest_factuality_wins(self):
        candidates = [
            traj_with_scores("C", 0.6, tag="c"),
            traj_with_scores("B", 1.0, tag="b"),
            traj_with_scores("D", 0.625, tag="d"),
        ]
        chosen = select_rare(candidates)
        assert chosen.final_answer == "B"
        assert chosen.factuality_score() == 1.0

    def test_equal_scores_fall_back_to_reward(self):
        candidates = [
            traj_with_scores("A", 0.5, reward=0.5, tag="a"),
            traj_with_scores("B", 0.5, reward=0.75, tag="b"),
        ]
        assert select_rare(candidates).final_answer == "B"

    def test_single_candidate_returned(self):
        only = traj_with_scores("A", 0.4, tag="solo")
        assert select_rare([only]) is only

    def test_failed_report_ranks_last(self):
        failed = traj_with_scores("A", None, reward=1.0, tag="failed")
        weak = traj_with_scores("B", 0.1, reward=0.0, tag="weak")
        assert select_rare([failed, weak]) is weak

    def test_monotonicity_raising_a_score_flips_selection(self):
        base = [
            traj_with_scores("B", 1.0, tag="b"),
            traj_with_scores("C", 0.6, tag="c"),
        ]
        assert select_rare(base).final_answer == "B"
        raised = [
            traj_with_scores("B", 1.0, tag="b"),
            traj_with_scores("C", 1.1, tag="c"),
        ]
        assert select_rare(raised).final_answer == "C"

    def test_constant_shift_keeps_the_argmax(self):
        def build(shift):
            return [
                traj_with_scores("A", 0.2 + shift, tag="a"),
                traj_with_scores("B", 0.9 + shift, tag="b"),
                traj_with_scores("C", 0.5 + shift, tag="c"),
            ]

        assert (select_rare(build(0.0)).final_answer
                == select_rare(build(3.5)).final_answer == "B")

    def test_step_count_breaks_reward_ties(self):
        long = traj_with_scores("A", 0.5, reward=0.5, n_steps=3, tag="long")
        short = traj_with_scores("B", 0.5, reward=0.5, n_steps=1, tag="short")
        assert select_rare([long, short]) is short

    @given(st.permutations(range(4)))
    def test_permutation_invariance(self, order):
        pool = [
            traj_with_scores("A", 0.3, reward=0.2, tag="a"),
            traj_with_scores("B", 0.9, reward=0.1, tag="b"),
            traj_with_scores("C", 0.9, reward=0.4, tag="c"),
            traj_with_scores("D", 0.1, reward=0.9, tag="d"),
        ]
        shuffled = [pool[i] for i in order]
        assert select_rare(shuffled).final_answer == "C"


class TestSelectMajority:
    def test_plurality_wins(self):
        candidates = [
            traj_with_scores("B", tag="b1"),
            traj_with_scores("B", tag="b2"),
            traj_with_scores("C", tag="c1"),
        ]
        assert select_majority(candidates).final_answer == "B"

    def test_tie_broken_by_summed_reward(self):
        candidates = [
            traj_with_scores("B", reward=0.25, tag="b"),
            traj_with_scores("C", reward=0.75, tag="c"),
        ]
        assert select_majority(candidates).final_answer == "C"

    def test_tie_on_reward_broken_by_label_order(self):
        candidates = [
            traj_with_scores("C", reward=0.5, tag="c"),
            traj_with_scores("A", reward=0.5, tag="a"),
        ]
        assert select_majority(candidates).final_answer == "A"

    def test_winner_group_returns_highest_reward_member(self):
        low = traj_with_scores("B", reward=0.25, tag="low")
        high = traj_with_scores("B", reward=1.0, tag="high")
        other = traj_with_scores("C", reward=0.9, tag="other")
        assert select_majority([low, high, other]) is high

    def test_single_candidate(self):
        only = traj_with_scores("A", tag="only")
        assert select_majority([only]) is only


@pytest.fixture
def question():
    return make_eval_question("q01", "B")


@pytest.fixture
def index():
    return build_index(fixture_corpus())


CFG = SearchConfig()


class TestRunBaseline:
    def test_cot_single_call_single_answer(self, index):
        q = Question("uti", "Pick the best treatment.", {
            "A": "Ampicillin", "B": "Ceftriaxone", "C": "Ciprofloxacin",
            "D": "Doxycycline", "E": "Nitrofurantoin"}, gold_label="E")
        backend = ScriptedBackend([
            ScriptEntry("action_gen", ("The answer is E: Nitrofurantoin.",)),
        ])
        [chosen] = run_baseline("cot", Scope(q, CFG, backend))
        assert chosen.final_answer == "E"
        assert backend.snapshot_costs().total_calls == 1

    def test_sc_majority_over_samples(self, question):
        backend = ScriptedBackend([
            ScriptEntry("consistency", (
                "The answer is A: alpha therapy.",
                "The answer is A: alpha therapy.",
                "The answer is B: beta therapy.",
            )),
        ])
        candidates = run_baseline("sc", Scope(question, CFG, backend))
        assert select_majority(candidates).final_answer == "A"
        assert backend.snapshot_costs().total_calls == 1
        assert len(candidates) == 3

    def test_rag_one_completion_with_retrieval(self, question, index):
        backend = ScriptedBackend([
            ScriptEntry("action_gen",
                        ("Based on the documents, the answer is B: beta therapy.",),
                        substrings=("### Relevant Documents",)),
        ])
        [chosen] = run_baseline("rag", Scope(question, CFG, backend, index))
        assert chosen.final_answer == "B"
        assert chosen.steps[0].retrieved
        ledger = backend.snapshot_costs()
        assert ledger.total_calls == 1
        assert ledger.per_purpose["action_gen"][0] == 1

    def test_cot_abstains_on_unparseable(self, question):
        backend = ScriptedBackend([ScriptEntry("action_gen", ("no verdict",))])
        with pytest.raises(AbstainError):
            run_baseline("cot", Scope(question, CFG, backend))
