import dataclasses
import gc
import math
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import rare.mcts
from conftest import (
    RecordingBackend,
    build_eval_fixture,
    fixture_corpus,
    make_eval_question,
    rafs_generic_entries,
    tree_entries_for,
)
from rare.actions import Scope, action_request, execute_action, extract_answer
from rare.errors import NoCandidatesError
from rare.harness import apply_preset, run_eval
from rare.lm import LmBackend, ScriptEntry, ScriptedBackend
from rare.mcts import (
    SearchTree,
    backpropagate,
    expand,
    run_search,
    select,
    simulate,
    terminal_reward,
    uct_score,
)
from rare.retrieval import build_index
from rare.types import (
    ActionKind,
    ActionStep,
    SearchConfig,
    Trajectory,
    trajectory_to_record,
)
from test_golden import _runs

A = ActionKind


@pytest.fixture
def question():
    return make_eval_question("q01", "B")


@pytest.fixture
def backend(question):
    return ScriptedBackend(tree_entries_for(question, "B") + rafs_generic_entries())


@pytest.fixture
def index():
    return build_index(fixture_corpus())


class TestUctScore:
    def test_unvisited_child_is_infinite(self):
        assert uct_score(0.0, 0, 5, 1.0) == math.inf

    def test_matches_direct_evaluation(self):
        # child_q=1.0, visits=2, parent=10, c=1
        expected = 0.5 + math.sqrt(2.0 * math.log(10) / 2)
        assert uct_score(1.0, 2, 10, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_tiny_c_leaves_mean_reward(self):
        assert uct_score(0.5, 1, 1, 1e-9) == pytest.approx(0.5, abs=1e-9)

    @given(st.floats(0, 10), st.integers(1, 50), st.integers(1, 1000),
           st.floats(0.01, 3.0))
    def test_randomized_agreement_with_formula(self, q, n_j, n, c):
        expected = q / n_j + c * math.sqrt(2.0 * math.log(n) / n_j)
        assert uct_score(q, n_j, n, c) == pytest.approx(expected, abs=1e-12)


def tree_for(question, cfg=None, backend=None, index=None):
    """A search tree in a new scope; tests that make no LM call pass no backend."""
    return SearchTree(Scope(question, cfg or SearchConfig(), backend, index))


def labels(texts, question):
    """The answer labels a vote of these sample texts keeps."""
    return tuple(extract_answer(text, question) for text in texts)


def manual_node(tree, parent, q_value=0.0, visits=0, expanded=False):
    node = tree.add_node(parent, tree.root.ctx)
    node.q_value = q_value
    node.visits = visits
    node.expanded = expanded
    return node


class TestSelect:
    def test_fresh_tree_returns_root(self, question):
        tree = tree_for(question)
        assert select(tree) is tree.root

    def test_unvisited_child_selected_before_visited(self, question):
        tree = tree_for(question)
        tree.root.expanded = True
        tree.root.visits = 3
        visited = manual_node(tree, tree.root, q_value=2.0, visits=3)
        unvisited = manual_node(tree, tree.root, q_value=0.0, visits=0)
        assert select(tree) is unvisited
        assert visited.visits == 3  # untouched

    def test_three_level_path_matches_hand_evaluated_uct(self, question):
        tree = tree_for(question, SearchConfig(exploration_c=1.0))
        root = tree.root
        root.expanded = True
        root.visits = 10
        a = manual_node(tree, root, q_value=2.0, visits=4)
        b = manual_node(tree, root, q_value=1.0, visits=2, expanded=True)
        c = manual_node(tree, root, q_value=0.5, visits=4)
        d = manual_node(tree, b, q_value=0.9, visits=1)
        e = manual_node(tree, b, q_value=0.8, visits=1)

        # level 1: b has the highest UCT
        uct = {n: n.q_value / n.visits + math.sqrt(2 * math.log(10) / n.visits)
               for n in (a, b, c)}
        assert max(uct, key=uct.get) is b
        # level 2: d beats e (equal visits, higher mean)
        uct2 = {n: n.q_value / n.visits + math.sqrt(2 * math.log(2) / n.visits)
                for n in (d, e)}
        assert max(uct2, key=uct2.get) is d
        assert select(tree) is d

    def test_ties_break_by_lowest_node_id(self, question):
        tree = tree_for(question)
        tree.root.expanded = True
        tree.root.visits = 2
        first = manual_node(tree, tree.root, q_value=0.5, visits=1)
        manual_node(tree, tree.root, q_value=0.5, visits=1)
        assert select(tree) is first


class TestExpand:
    def test_root_expansion_creates_one_child_per_valid_kind(self, question,
                                                             backend, index):
        cfg = SearchConfig()
        tree = tree_for(question, cfg, backend, index)
        children = expand(tree, tree.root)
        assert tree.root.expanded
        kinds = sorted(ch.ctx.steps[-1].kind.value for ch in children)
        assert kinds == ["A1", "A2", "A3", "A5", "A6"]
        assert len(children) == 5 * cfg.children_per_action
        for child in children:
            assert child.q_value == 0.0
            assert child.visits == 0

    def test_post_a3_expansion_limited_to_transition_kinds(self, question,
                                                           backend, index):
        tree = tree_for(question, SearchConfig(), backend, index)
        root_children = expand(tree, tree.root)
        a3_child = next(ch for ch in root_children
                        if ch.ctx.steps[-1].kind == A.A3)
        grandchildren = expand(tree, a3_child)
        kinds = {ch.ctx.steps[-1].kind for ch in grandchildren}
        assert kinds <= {A.A3, A.A4, A.A7}

    def test_a2_is_sent_in_action_order_with_its_context_vote(self, question,
                                                                backend, index):
        # c=2: A2 asks for its two children and, after them, the context's 3 votes
        cfg = SearchConfig(children_per_action=2)
        recording = RecordingBackend(backend)
        tree = tree_for(question, cfg, recording, index)
        children = expand(tree, tree.root)
        a2 = action_request(A.A2, tree.root.ctx, tree.scope.prompts, "consistency", 1).prompt
        log = recording.call_log()
        assert [(r.purpose, r.n_samples, r.prompt == a2) for r in log] == [
            ("action_gen", 2, False), ("consistency", 2 + 3, True), ("action_gen", 2, False),
            ("action_gen", 2, False), ("query_gen", 1, False), ("action_gen", 2, False)]
        assert tree.scope.votes == {a2: labels(log[1].completions[2:], question)}
        assert tree.scope.votes[a2] == ("C", "B", "B")
        kinds = [node.ctx.steps[-1].kind.value for node in tree.nodes[1:]]
        assert kinds == sorted(kinds) == [k for k in ("A1", "A2", "A3", "A5", "A6")
                                          for _ in range(2)]
        assert [node.node_id for node in children] == list(range(1, 11))
        # every answered child, A2's and A6's, counts the one vote: (C, B, B)
        assert [tree.reward_of(child.ctx) for child in children] == [
            0.0, 0.0, 0.75, 0.75, 0.0, 0.0, 0.0, 0.0, 0.75, 0.75]
        assert len(recording.call_log()) == len(log)
        assert tree.scope.votes == {a2: ("C", "B", "B")}
        assert [t.terminal_reward for t in tree.candidates.values()] == [0.75, 0.75]

    def test_an_expansions_requests_are_in_flight_at_once(self, question, backend, index):
        # each round trip waits until all four kinds' requests are in flight
        gate = _GatedBackend(backend, parties=4)
        cfg = SearchConfig(enabled_actions=frozenset({A.A1, A.A2, A.A3, A.A5}))
        tree = tree_for(question, cfg, gate, index)
        children = expand(tree, tree.root)
        assert [child.ctx.steps[-1].kind for child in children] == [A.A1, A.A2, A.A3, A.A5]
        assert gate.snapshot_costs().total_calls == 4

    def test_a6_query_gen_goes_in_the_first_wave_unless_remembered(self, question,
                                                                   backend, index):
        tree = tree_for(question, SearchConfig(), backend, index)
        waves = []
        complete_many = tree.scope.complete_many
        tree.scope.complete_many = lambda reqs: (
            waves.append([(r.purpose_tag, r.n_samples) for r in reqs]) or complete_many(reqs))
        children = expand(tree, tree.root)
        assert waves == [[("action_gen", 1), ("consistency", 4), ("action_gen", 1),
                          ("action_gen", 1), ("query_gen", 1)], [("action_gen", 1)]]
        # an A1 child keeps the question, so its A6 query_gen is remembered and
        # A6's action request joins the first wave
        waves.clear()
        expand(tree, next(c for c in children if c.ctx.steps[-1].kind == A.A1))
        assert waves == [[("action_gen", 1), ("consistency", 4), ("action_gen", 1),
                          ("action_gen", 1)]]

    def test_no_viable_child_marks_terminal_failed(self, question, index):
        # every completion unparseable for the enders, empty for the rest;
        # A2 is sent as its context's consistency request
        backend = ScriptedBackend([
            ScriptEntry("action_gen", ("   ",), substrings=("46-year-old woman",)),
            ScriptEntry("consistency", ("no verdict",)),
            ScriptEntry("query_gen", ("   ",)),
        ])
        cfg = SearchConfig(enabled_actions=frozenset({A.A1, A.A2}))
        tree = tree_for(question, cfg, backend, index)
        children = expand(tree, tree.root)
        assert children == []
        assert tree.root.terminal_failed
        assert tree.root.is_terminal()


class TestSimulate:
    def test_terminal_node_trajectory_unchanged(self, question, backend, index):
        tree = tree_for(question, SearchConfig(), backend, index)
        children = expand(tree, tree.root)
        a2_child = next(ch for ch in children if ch.ctx.steps[-1].kind == A.A2)
        traj = simulate(tree, a2_child)
        assert traj.final_answer == "B"
        assert traj.steps == a2_child.ctx.steps

    def test_simulated_a2_step_draws_its_votes(self, question, backend, index):
        cfg = SearchConfig(enabled_actions=frozenset({A.A2}))
        recording = RecordingBackend(backend)
        tree = tree_for(question, cfg, recording, index)
        traj = simulate(tree, tree.root)
        assert traj.steps[-1].kind == A.A2
        assert [(r.purpose, r.n_samples) for r in recording.call_log()] == [
            ("consistency", 1 + cfg.n_consistency_samples)]
        assert tree.reward_of(traj) == 0.75
        assert len(recording.call_log()) == 1

    def test_seeded_rollout_is_reproducible(self, question, index):
        def run(seed):
            backend = ScriptedBackend(tree_entries_for(question, "B"))
            tree = tree_for(question, SearchConfig(rng_seed=seed), backend, index)
            children = expand(tree, tree.root)
            start = next(ch for ch in children if ch.ctx.steps[-1].kind == A.A3)
            return trajectory_to_record(simulate(tree, start))

        assert run(11) == run(11)

    def test_depth_exhaustion_gives_reward_zero_trajectory(self, question, index):
        # the script never yields a parseable answer, so rollouts dead-end
        backend = ScriptedBackend([
            ScriptEntry("action_gen", ("Step 1: still thinking.",),
                        substrings=("46-year-old woman",)),
            ScriptEntry("action_gen",
                        ("Question 2.1: What next?\nAnswer 2.1: Unclear so far.",),
                        substrings=("decompose it into sub-questions",)),
            ScriptEntry("action_gen", ("no verdict",)),
        ])
        cfg = SearchConfig(enabled_actions=frozenset({A.A1, A.A3}), max_depth=4)
        tree = tree_for(question, cfg, backend, index)
        traj = simulate(tree, tree.root)
        assert traj.final_answer is None
        assert traj.terminal_reward == 0.0
        assert len(traj.steps) <= 4


class _FirstKind(random.Random):
    """Draws the first of the sorted legal kinds at every simulated step."""

    def choice(self, seq):
        return seq[0]


class TestSimulatedSteps:
    """A simulation keeps the step samples it draws; an expansion takes its
    children from them before it requests any."""

    def tree(self, question, index, enabled, children=1):
        recording = RecordingBackend(_TaggingBackend(
            ScriptedBackend(tree_entries_for(question, "B") + rafs_generic_entries())))
        cfg = SearchConfig(enabled_actions=frozenset(enabled), max_depth=2,
                           children_per_action=children)
        tree = tree_for(question, cfg, recording, index)
        tree.rng = _FirstKind()
        return tree, recording

    def root_requests(self, tree, recording, kind, purpose):
        prompt = action_request(kind, tree.root.ctx, tree.scope.prompts, purpose, 1).prompt
        return [r.n_samples for r in recording.call_log() if r.prompt == prompt]

    def kind_children(self, children, kind):
        return [child.ctx.steps[-1] for child in children if child.ctx.steps[-1].kind == kind]

    def test_expansion_takes_the_simulated_step_instead_of_requesting_it(self, question,
                                                                         index):
        tree, recording = self.tree(question, index, {A.A1, A.A2})
        traj = simulate(tree, tree.root)
        assert [step.kind for step in traj.steps] == [A.A1, A.A1]
        children = expand(tree, tree.root)
        assert self.root_requests(tree, recording, A.A1, "action_gen") == [1]
        assert self.kind_children(children, A.A1) == [traj.steps[0]]
        assert [len(kept) for kept in tree.scope.steps.values()] == [0, 1]

    def test_expansion_requests_only_the_children_it_could_not_take(self, question, index):
        tree, recording = self.tree(question, index, {A.A1, A.A2}, children=2)
        traj = simulate(tree, tree.root)
        children = expand(tree, tree.root)
        assert self.root_requests(tree, recording, A.A1, "action_gen") == [1, 1]
        taken, drawn = self.kind_children(children, A.A1)
        assert taken == traj.steps[0]
        assert drawn != taken

    def test_each_simulation_draws_its_own_step(self, question, index):
        tree, recording = self.tree(question, index, {A.A1, A.A2}, children=2)
        trajs = [simulate(tree, tree.root) for _ in range(2)]
        assert self.root_requests(tree, recording, A.A1, "action_gen") == [1, 1]
        assert trajs[0].steps[0] != trajs[1].steps[0]

    def test_expansion_takes_kept_steps_in_the_order_drawn(self, question, index):
        tree, recording = self.tree(question, index, {A.A1, A.A2}, children=2)
        trajs = [simulate(tree, tree.root) for _ in range(2)]
        children = expand(tree, tree.root)
        assert self.root_requests(tree, recording, A.A1, "action_gen") == [1, 1]
        assert self.kind_children(children, A.A1) == [traj.steps[0] for traj in trajs]

    def test_a2_child_that_is_the_simulated_candidate_asks_for_no_votes(self, question,
                                                                       index):
        # the simulation drew the root's vote with its A2 step, and A6's
        # answered child reads that vote too
        tree, recording = self.tree(question, index, {A.A2, A.A6})
        traj = simulate(tree, tree.root)
        assert traj.steps[-1].kind == A.A2
        assert [(r.purpose, r.n_samples) for r in recording.call_log()] == [
            ("consistency", 1 + 3)]
        vote = recording.call_log()[0].completions[1:]
        tree.reward_of(traj)
        sent = len(recording.call_log())
        children = expand(tree, tree.root)
        assert [(r.purpose, r.n_samples) for r in recording.call_log()[sent:]] == [
            ("query_gen", 1), ("action_gen", 1)]
        assert self.kind_children(children, A.A2) == [traj.steps[0]]
        for child in children:
            tree.reward_of(child.ctx)
        assert len(recording.call_log()) == sent + 2
        assert list(tree.scope.votes.values()) == [labels(vote, question)]
        assert len(tree.candidates) == 2


class TestTerminalReward:
    def make_traj(self, question, answer="B", text="beta therapy"):
        step = ActionStep(A.A2, f"The answer is {answer}: {text}.")
        return Trajectory(question, (step,), final_answer=answer)

    def consistency_backend(self, question, completions):
        return ScriptedBackend([ScriptEntry("consistency", tuple(completions))])

    def test_unanimous_agreement_is_full_reward(self, question):
        backend = self.consistency_backend(
            question, ["The answer is B: beta therapy."] * 3)
        cfg = SearchConfig(n_consistency_samples=3)
        scope = Scope(question, cfg, backend)
        assert terminal_reward(self.make_traj(question), scope) == 1.0

    def test_vote_counting(self, question):
        backend = self.consistency_backend(question, [
            "The answer is B: beta therapy.",
            "The answer is C: gamma therapy.",
            "The answer is B: beta therapy.",
        ])
        cfg = SearchConfig(n_consistency_samples=3)
        scope = Scope(question, cfg, backend)
        assert terminal_reward(self.make_traj(question), scope) == 0.75

    def test_unparseable_samples_leave_own_vote_only(self, question):
        backend = self.consistency_backend(question, ["mumble", "''", "no label"])
        cfg = SearchConfig(n_consistency_samples=3)
        scope = Scope(question, cfg, backend)
        assert terminal_reward(self.make_traj(question), scope) == 0.25
        assert scope.votes == {self.root_a2(scope).prompt: (None, None, None)}

    def root_a2(self, scope):
        return action_request(A.A2, Trajectory(scope.question), scope.prompts,
                              "consistency", scope.cfg.n_consistency_samples)

    def test_trajectories_of_one_context_read_the_same_vote(self, question):
        # three distinct samples: A agrees twice, B once, C never
        samples = [f"The answer is {label} (sample {i})." for i, label in enumerate("ABA")]
        recording = RecordingBackend(self.consistency_backend(question, samples))
        trajs = [self.make_traj(question, label, text)
                 for label, text in (("A", "alpha therapy"), ("B", "beta therapy"),
                                     ("C", "gamma therapy"))]
        scope = Scope(question, SearchConfig(n_consistency_samples=3), recording)
        assert [terminal_reward(traj, scope) for traj in trajs] == [0.75, 0.5, 0.25]
        prompt = self.root_a2(scope).prompt
        assert [(r.purpose, r.prompt, r.n_samples) for r in recording.call_log()] == [
            ("consistency", prompt, 3)]
        assert scope.votes == {prompt: ("A", "B", "A")}

    def test_a_vote_is_drawn_once_and_read_by_every_later_reward(self, question):
        samples = [f"The answer is {label} (sample {i})." for i, label in enumerate("BCB")]
        recording = RecordingBackend(self.consistency_backend(question, samples))
        scope = Scope(question, SearchConfig(n_consistency_samples=3), recording)
        assert terminal_reward(self.make_traj(question), scope) == 0.75
        later = self.make_traj(question, "C", "gamma therapy")
        assert terminal_reward(later, scope) == 0.5
        assert [terminal_reward(later, scope), terminal_reward(self.make_traj(question), scope),
                terminal_reward(self.make_traj(question, "A"), scope)] == [0.5, 0.75, 0.25]
        assert [(r.purpose, r.n_samples) for r in recording.call_log()] == [
            ("consistency", 3)]
        assert scope.votes == {self.root_a2(scope).prompt: ("B", "C", "B")}

    def test_a_vote_drawn_with_an_a2_step_sends_no_reward_request(self, question):
        samples = [f"The answer is {label} (sample {i})." for i, label in enumerate("BBCB")]
        recording = RecordingBackend(self.consistency_backend(question, samples))
        scope = Scope(question, SearchConfig(n_consistency_samples=3,
                                             children_per_action=1), recording)
        # the step's sample comes first and the vote, samples 1-3, follows it
        children = execute_action(A.A2, Trajectory(question), scope,
                                  purpose="consistency", votes=True)
        assert [child.final_answer for child in children] == ["B"]
        assert scope.votes == {self.root_a2(scope).prompt: ("B", "C", "B")}
        assert terminal_reward(children[0], scope) == 0.75
        # a context with a vote draws only its children
        execute_action(A.A2, Trajectory(question), scope, purpose="consistency", votes=True)
        assert [(r.purpose, r.n_samples) for r in recording.call_log()] == [
            ("consistency", 1 + 3), ("consistency", 1)]
        assert scope.votes == {self.root_a2(scope).prompt: ("B", "C", "B")}


class TestBackpropagate:
    def build_chain(self, question, length):
        tree = tree_for(question)
        node = tree.root
        for _ in range(length - 1):
            node = manual_node(tree, node)
        return tree, node

    def test_every_node_on_path_gains_reward_and_visit(self, question):
        tree, leaf = self.build_chain(question, 4)
        backpropagate(tree, leaf, 0.75)
        for node in leaf.path_from_root():
            assert node.q_value == 0.75
            assert node.visits == 1

    def test_zero_reward_still_increments_visits(self, question):
        tree, leaf = self.build_chain(question, 3)
        backpropagate(tree, leaf, 0.0)
        for node in leaf.path_from_root():
            assert node.q_value == 0.0
            assert node.visits == 1

    def test_shared_prefix_accumulates(self, question):
        tree = tree_for(question)
        mid = manual_node(tree, tree.root)
        left = manual_node(tree, mid)
        right = manual_node(tree, mid)
        backpropagate(tree, left, 0.25)
        backpropagate(tree, right, 0.5)
        assert mid.q_value == 0.75
        assert mid.visits == 2
        assert tree.root.q_value == 0.75
        assert left.q_value == 0.25
        assert right.q_value == 0.5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_replayed_sequence_matches_exactly(self, seed):
        rng = random.Random(seed)
        tree = tree_for(make_eval_question("q01", "B"))
        nodes = [tree.root]
        for _ in range(rng.randint(1, 60)):
            nodes.append(manual_node(tree, rng.choice(nodes)))
        updates = [(rng.choice(nodes), rng.random()) for _ in range(rng.randint(1, 40))]
        for leaf, reward in updates:
            backpropagate(tree, leaf, reward)
        for node in nodes:
            expected_q = 0.0
            expected_visits = 0
            for leaf, reward in updates:
                if node in leaf.path_from_root():
                    expected_q += reward
                    expected_visits += 1
            assert node.q_value == expected_q
            assert node.visits == expected_visits


class TestRunSearch:
    def test_happy_path_produces_agreeing_candidates(self, question, backend, index):
        cfg = SearchConfig(rollouts=4, rng_seed=7)
        candidates = run_search(tree_for(question, cfg, backend, index))
        assert candidates
        assert all(t.final_answer == "B" for t in candidates)
        assert all(0.0 <= t.terminal_reward <= 1.0 for t in candidates)
        # scripted consistency votes are (agree, agree, disagree): 3 of 4
        assert all(t.terminal_reward == 0.75 for t in candidates)

    def test_visit_conservation_matches_rollouts(self, question, backend, index):
        for rollouts in (2, 4):
            tree = tree_for(question, SearchConfig(rollouts=rollouts, rng_seed=3),
                            ScriptedBackend(tree_entries_for(question, "B")), index)
            run_search(tree)
            assert tree.root.visits == rollouts

    def test_candidates_deduplicated_by_step_outputs(self, question, backend, index):
        candidates = run_search(tree_for(question, SearchConfig(rollouts=6, rng_seed=1),
                                         backend, index))
        hashes = [t.content_hash() for t in candidates]
        assert len(hashes) == len(set(hashes))

    def test_full_determinism_under_fixed_seed(self, question, index):
        def run():
            backend = ScriptedBackend(tree_entries_for(question, "B"))
            tree = tree_for(question, SearchConfig(rollouts=4, rng_seed=42), backend, index)
            candidates = run_search(tree)
            shape = [
                (node.node_id,
                 node.parent.node_id if node.parent else None,
                 node.ctx.steps[-1].kind.value if node.ctx.steps else None,
                 node.visits, node.q_value, node.expanded)
                for node in tree.nodes
            ]
            return shape, [trajectory_to_record(t) for t in candidates]

        assert run() == run()

    def test_q_values_equal_replayed_reward_sums(self, question, index):
        backend = ScriptedBackend(tree_entries_for(question, "B"))
        tree = tree_for(question, SearchConfig(rollouts=5, rng_seed=9), backend, index)
        run_search(tree)
        for node in tree.nodes:
            child_visits = sum(ch.visits for ch in node.children)
            assert node.visits >= child_visits
            child_q = sum(ch.q_value for ch in node.children)
            assert node.q_value >= child_q - 1e-12

    @pytest.mark.parametrize("rollouts", [1, 4, 8])
    def test_first_rollouts_of_a_longer_search_are_a_shorter_search(self, question, index,
                                                                   rollouts):
        def state(tree):
            return ([(t.content_hash(), t.terminal_reward) for t in tree.candidates.values()],
                    len(tree.nodes), tree.scope.snapshot_costs())

        cfg = SearchConfig(rollouts=16, rng_seed=5)
        longer = tree_for(question, cfg, ScriptedBackend(tree_entries_for(question, "B")), index)
        for _ in range(rollouts):
            longer.rollout()
        shorter = tree_for(question, dataclasses.replace(cfg, rollouts=rollouts),
                           ScriptedBackend(tree_entries_for(question, "B")), index)
        assert run_search(shorter) == list(shorter.candidates.values())
        assert state(longer) == state(shorter)
        assert longer.root.visits == rollouts

    def test_no_candidates_raises(self, question, index):
        backend = ScriptedBackend([
            ScriptEntry("action_gen", ("Step 1: pondering.",),
                        substrings=("46-year-old woman",)),
            ScriptEntry("consistency", ("no verdict",)),
        ])
        cfg = SearchConfig(enabled_actions=frozenset({A.A1, A.A2}),
                           rollouts=2, max_depth=3)
        with pytest.raises(NoCandidatesError):
            run_search(tree_for(question, cfg, backend, index))

    def test_answered_children_of_one_expansion_share_one_request(self, question,
                                                                   backend, index):
        # A2 and A6 both answer at the root; later rollouts revisit them. A2
        # draws its child and the root's 3 votes, which both children read
        cfg = SearchConfig(enabled_actions=frozenset({A.A2, A.A6}), rollouts=3)
        recording = RecordingBackend(backend)
        tree = tree_for(question, cfg, recording, index)
        candidates = run_search(tree)
        answered = [child for child in tree.root.children if child.is_terminal()]
        assert len(answered) == len(candidates) == 2
        consistency = [r for r in recording.call_log() if r.purpose == "consistency"]
        assert [r.n_samples for r in consistency] == [1 + 3]
        assert all(t.terminal_reward == 0.75 for t in candidates)

    def test_finished_tree_is_freed_without_the_cycle_collector(self, question,
                                                                backend, index):
        tree = tree_for(question, SearchConfig(rollouts=4, rng_seed=7), backend, index)
        run_search(tree)
        root = weakref.ref(tree.root)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del tree
            assert root() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_uct_ordering_reduces_to_mean_reward_at_equal_visits(self, question):
        # with equal visit counts, scaling rewards by a positive constant
        # keeps the same argmax
        tree = tree_for(question)
        tree.root.expanded = True
        tree.root.visits = 6
        lo = manual_node(tree, tree.root, q_value=0.6, visits=3)
        hi = manual_node(tree, tree.root, q_value=1.2, visits=3)
        assert select(tree) is hi
        for node, scale in ((lo, 5.0), (hi, 5.0)):
            node.q_value *= scale
        assert select(tree) is hi
        assert lo is not hi


class _GatedBackend(LmBackend):
    """Forwards to ``inner`` once ``parties`` round trips are in flight at
    once; a round trip left waiting alone raises ``BrokenBarrierError``."""

    def __init__(self, inner, parties):
        super().__init__()
        self.inner = inner
        self.barrier = threading.Barrier(parties, timeout=10)

    def _complete(self, req):
        self.barrier.wait()
        return self.inner.complete(req)


class _TaggingBackend(LmBackend):
    """Forwards to ``inner`` and ends every sampled completion with
    ``#<i>``, where ``origin[i]`` is the request that drew it. A wave's round
    trips run on pool threads at once, so tags are handed out under a lock."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.origin = []
        self._tags = threading.Lock()

    def _complete(self, req):
        resp = self.inner.complete(req)
        if req.temperature == 0:
            return resp
        tagged = []
        with self._tags:
            for text in resp.completions:
                tagged.append(f"{text} #{len(self.origin)}")
                self.origin.append(req)
        return dataclasses.replace(resp, completions=tuple(tagged))


class _Reads(dict):
    """A dict that lists every key looked up in it."""

    def __init__(self):
        super().__init__()
        self.looked_up = []

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.looked_up.append(key)
        return super().__getitem__(key)


class TestVoteFold:
    """A context's vote is the answers of ``n`` samples of its A2
    consistency request, drawn at most once per question, with an A2 step
    there or else by the first reward, and counted by every candidate that
    ends at the context."""

    @pytest.mark.parametrize("children", [1, 2])
    @pytest.mark.parametrize("preset", ["rstar", "rstar+a6", "rstar+a7", "rare"])
    def test_each_candidate_gets_n_votes_of_its_own_consistency_request(
            self, monkeypatch, index, preset, children):
        real_reward, real_keep = rare.mcts.terminal_reward, Scope.keep_vote
        vote_of = {}  # (question id, A2 prompt) -> the sample texts kept as its vote
        read = set()  # the (question id, A2 prompt) of every vote a reward counted
        first = [0]  # where the current question's requests start in the log
        n = 3  # the default n_consistency_samples

        def number(text):
            return int(text.rsplit("#", 1)[1])

        def voting(prompt):
            # a request of an A2 prompt that asks for more than the children
            # an action may draw draws that context's vote
            return [r for r in recording.call_log()[first[0]:]
                    if r.purpose == "consistency" and r.prompt == prompt
                    and r.n_samples > children]

        def keep_vote(scope, prompt, samples):
            key = (scope.question.id, prompt)
            assert key not in vote_of  # drawn at most once per question
            vote_of[key] = tuple(samples)
            # n samples, the last n of one request of the context's A2 prompt
            mine = [number(text) for text in samples]
            assert len(mine) == n
            req = tagged.origin[mine[0]]
            assert [i for i, r in enumerate(tagged.origin) if r is req][-n:] == mine
            want = action_request(A.A2, Trajectory(scope.question), scope.prompts,
                                  "consistency", n)
            assert (req.purpose_tag, req.prompt, req.temperature, req.stop_sequences) == (
                want.purpose_tag, prompt, want.temperature, want.stop_sequences)
            vote = real_keep(scope, prompt, samples)
            assert vote == labels(samples, scope.question)
            return vote

        def reward(traj, scope):
            want = action_request(A.A2, Trajectory(traj.question, traj.steps[:-1]),
                                  scope.prompts, "consistency", n)
            key = (scope.question.id, want.prompt)
            had_vote = key in vote_of
            assert had_vote == bool(voting(want.prompt))
            calls = len(recording.call_log())
            scope.votes.looked_up.clear()
            got = real_reward(traj, scope)
            # a request exactly when the context has no vote yet
            assert len(recording.call_log()) - calls == (not had_vote)
            # the reward counts its context's vote, the answers of those n samples
            assert scope.votes.looked_up == [want.prompt]
            assert scope.votes[want.prompt] == labels(vote_of[key], scope.question)
            agree = sum(extract_answer(text, traj.question) == traj.final_answer
                        for text in vote_of[key])
            assert got == (1 + agree) / (n + 1)
            read.add(key)
            return got

        monkeypatch.setattr(rare.mcts, "terminal_reward", reward)
        monkeypatch.setattr(Scope, "keep_vote", keep_vote)
        questions, scripted = build_eval_fixture(6, 4)
        cfg = apply_preset(SearchConfig(rollouts=16, children_per_action=children), preset)
        assert cfg.n_consistency_samples == n
        tagged = _TaggingBackend(scripted)  # one tag count: no two samples are equal
        recording = RecordingBackend(tagged)
        candidates = 0
        for q in questions:
            first[0] = len(recording.call_log())
            tree = tree_for(q, cfg, recording, index)
            tree.scope.votes = _Reads()
            run_search(tree)
            candidates += len(tree.candidates)
            kept = {prompt for qid, prompt in vote_of if qid == q.id}
            for traj in tree.candidates.values():
                context = Trajectory(q, traj.steps[:-1])
                prompt = action_request(A.A2, context, tree.scope.prompts, "consistency", n).prompt
                assert (q.id, prompt) in read
            # one request per question draws the vote of each context a reward
            # counts, and none draws a vote no reward counts
            assert kept == {prompt for qid, prompt in read if qid == q.id}
            for prompt in {r.prompt for r in recording.call_log()[first[0]:]
                           if r.purpose == "consistency"}:
                assert len(voting(prompt)) == (prompt in kept)
            # no vote is a tree step
            steps = {number(step.output) for node in tree.nodes for step in node.ctx.steps}
            steps.update(number(step.output) for traj in tree.candidates.values()
                         for step in traj.steps)
            assert not steps & {number(text) for (qid, _), texts in vote_of.items()
                                if qid == q.id for text in texts}
        assert candidates
        # some votes were drawn with A2 steps, after them in the same request
        assert any(tagged.origin[number(texts[0])].n_samples > n for texts in vote_of.values())

    def test_no_sample_is_two_tree_steps_or_a_step_and_a_vote(self, monkeypatch, index):
        """Over the golden runs, each sampled completion is numbered: none
        becomes a tree step twice, and no step is kept as a vote."""
        real_expand, real_simulate = rare.mcts.expand, rare.mcts.simulate
        real_keep = Scope.keep_vote
        tree_steps, simulated, votes = [], set(), set()
        run = [0]

        def tag(text):
            return run[0], int(text.rsplit("#", 1)[1])

        def expand(tree, node):
            children = real_expand(tree, node)
            tree_steps.extend(tag(child.ctx.steps[-1].output) for child in children)
            return children

        def simulate(tree, node):
            traj = real_simulate(tree, node)
            simulated.update(tag(step.output) for step in traj.steps[len(node.ctx.steps):])
            return traj

        def keep_vote(scope, prompt, samples):
            votes.update(tag(text) for text in samples)
            return real_keep(scope, prompt, samples)

        monkeypatch.setattr(rare.mcts, "expand", expand)
        monkeypatch.setattr(rare.mcts, "simulate", simulate)
        monkeypatch.setattr(Scope, "keep_vote", keep_vote)
        for method, cfg in _runs():
            if method in ("rstar", "rare"):
                run[0] += 1
                questions, scripted = build_eval_fixture(6, 4)
                report = run_eval(questions, method, _TaggingBackend(scripted), index, cfg,
                                  workers=1)
                assert all(record.error is None for record in report.records)
        assert len(set(tree_steps)) == len(tree_steps)
        assert set(tree_steps) & simulated  # expansions took simulated steps
        assert votes
        assert not (set(tree_steps) | simulated) & votes


def test_overlapped_waves_of_many_workers_match_a_serial_run(index):
    # more workers than cores send waves to the shared pool while the
    # interpreter switches threads as often as it can: no booking is lost
    cfg = apply_preset(SearchConfig(rollouts=8), "rare")
    questions, scripted = build_eval_fixture(6, 4)
    serial = run_eval(questions, "rare", scripted, index, cfg, workers=1)
    questions, scripted = build_eval_fixture(6, 4)
    shared = _GatedBackend(scripted, parties=1)  # forwards; waves overlap on the pool
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_eval(questions, "rare", shared, index, cfg, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert report.records == serial.records
    assert shared.snapshot_costs() == scripted.snapshot_costs()
    assert shared.snapshot_costs().total_calls == sum(r.calls_used for r in report.records)
