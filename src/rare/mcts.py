"""Monte Carlo tree search over the reasoning action space.

Each rollout runs selection (greedy UCT with an unvisited-first rule),
expansion (one sampled child per legal action), simulation (uniform random
actions to a terminal state or the depth cap), terminal-reward scoring by
self-consistency voting, and additive backpropagation along the path.
A simulation draws every step anew and adds its sample to the question's
``Scope.steps``; an expansion takes each child from there first, by prompt,
and requests only the children it could not take.

Each node's ``ctx`` is the ``Trajectory`` from the root to it. Candidates are
every distinct terminal trajectory discovered, keyed by a hash of their step
outputs; each carries its consistency reward when returned. A candidate is
rewarded when it is first seen, by votes drawn from A2's prompt at its
context. Every A2 request the search sends is that context's
``consistency`` request: it draws the A2 children and, after them, the votes
of the answered paths it expects at the context, which wait in the
question's ``Scope`` until ``terminal_reward`` takes them. An expansion sends
A2 after its other actions, so its one request covers the answered children
of the whole expansion.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, field, replace
from typing import Sequence

from .actions import (
    Scope,
    action_request,
    execute_action,
    extract_answer,
    valid_actions,
)
from .errors import NoCandidatesError, NoViableChildError
from .types import ActionKind, Trajectory


def uct_score(child_q: float, child_visits: int, parent_visits: int, c: float) -> float:
    """Mean reward plus the exploration bonus ``c * sqrt(2 ln N / N_j)``.

    An unvisited child scores positive infinity so it is always explored
    before any visited sibling. A visited child's parent has ``N >= 1``, and
    ``SearchConfig`` refuses ``c <= 0``.
    """
    if child_visits == 0:
        return math.inf
    mean = child_q / child_visits
    return mean + c * math.sqrt(2.0 * math.log(parent_visits) / child_visits)


@dataclass(eq=False)
class TreeNode:
    """One search state. The tree owns its nodes (``SearchTree.nodes`` and
    each ``children`` list) and a node holds its parent only weakly, so a
    finished tree holds no reference cycle and is freed as soon as its last
    reference goes, without waiting for the cyclic garbage collector."""

    node_id: int
    ctx: Trajectory
    parent_ref: "weakref.ref[TreeNode] | None" = None
    q_value: float = 0.0
    visits: int = 0
    children: list["TreeNode"] = field(default_factory=list)
    expanded: bool = False
    terminal_failed: bool = False

    @property
    def parent(self) -> "TreeNode | None":
        return self.parent_ref() if self.parent_ref is not None else None

    def is_terminal(self) -> bool:
        return self.terminal_failed or self.ctx.final_answer is not None

    def path_from_root(self) -> list["TreeNode"]:
        path: list[TreeNode] = []
        node: TreeNode | None = self
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path


class SearchTree:
    """One question's search tree, searched in its scope, plus a private
    random stream seeded from the scope's config and the candidates so far."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.rng = random.Random(scope.cfg.rng_seed)
        self.nodes: list[TreeNode] = []
        self.candidates: dict[str, Trajectory] = {}
        self.root = self.add_node(parent=None, ctx=Trajectory(scope.question))

    def add_node(self, parent: TreeNode | None, ctx: Trajectory) -> TreeNode:
        node = TreeNode(node_id=len(self.nodes), ctx=ctx,
                        parent_ref=weakref.ref(parent) if parent is not None else None)
        self.nodes.append(node)
        if parent is not None:
            parent.children.append(node)
        return node

    def unrewarded(self, trajs: Sequence[Trajectory]) -> dict[str, Trajectory]:
        """The answered trajectories that are not candidates yet, by content
        hash, the first of equal ones kept."""
        new: dict[str, Trajectory] = {}
        for traj in trajs:
            if traj.final_answer is not None:
                key = traj.content_hash()
                if key not in self.candidates:
                    new.setdefault(key, traj)
        return new

    def reward_new(self, trajs: list[Trajectory]) -> None:
        """Make candidates of the answered trajectories not seen before,
        all of one context, rewarded by one ``terminal_reward`` call."""
        new = self.unrewarded(trajs)
        if new:
            rewards = terminal_reward(list(new.values()), self.scope)
            for (key, traj), reward in zip(new.items(), rewards):
                self.candidates[key] = replace(traj, terminal_reward=reward)

    def reward_of(self, traj: Trajectory) -> float:
        """Consistency reward of a trajectory; 0 without an answer."""
        if traj.final_answer is None:
            return 0.0
        self.reward_new([traj])
        return self.candidates[traj.content_hash()].terminal_reward

    def rollout(self) -> None:
        """One MCTS iteration. Its steps are looked up as module globals on
        every call, so a tracer that replaces one sees each call."""
        node = select(self)
        if node.is_terminal():
            backpropagate(self, node, self.reward_of(node.ctx))
            return
        children = expand(self, node)
        if not children:
            backpropagate(self, node, 0.0)
            return
        self.reward_new([child.ctx for child in children])
        start = self.rng.choice(children)
        traj = simulate(self, start)
        backpropagate(self, start, self.reward_of(traj))


def _best_child(node: TreeNode, c: float) -> TreeNode:
    return max(
        node.children,
        key=lambda child: (uct_score(child.q_value, child.visits, node.visits, c),
                           -child.node_id),
    )


def select(tree: SearchTree) -> TreeNode:
    """First node on the greedy-UCT path that is unexpanded and non-terminal,
    or the terminal leaf the path ends at."""
    node = tree.root
    while node.expanded and not node.is_terminal():
        node = _best_child(node, tree.scope.cfg.exploration_c)
    return node


def expand(tree: SearchTree, node: TreeNode) -> list[TreeNode]:
    """Add one sampled child per legal action to an unexpanded non-terminal
    node, the only kind ``rollout`` expands. A node at the depth cap, or one
    where every action fails, is marked terminal-failed (reward 0).

    Children are taken from the simulated steps first (``execute_action``),
    so a kind served from them sends nothing. A2 is sent last, with
    ``n_consistency_samples`` votes for each A2 child it still draws and
    each new answered child the expansion already has, so ``rollout``'s
    reward of the expansion needs no request of its own. Children enter the
    tree in action order all the same."""
    node.expanded = True
    cfg = tree.scope.cfg
    if len(node.ctx.steps) >= cfg.max_depth:
        node.terminal_failed = True
        return []
    kinds = sorted(valid_actions(node.ctx, cfg), key=lambda k: k.value)
    contexts: dict[ActionKind, list[Trajectory]] = {}
    n = cfg.n_consistency_samples

    def a2_votes(taken: list[Trajectory], fresh: int) -> int:
        others = [ctx for ctxs in contexts.values() for ctx in ctxs]
        return n * (len(tree.unrewarded(others + taken)) + fresh)

    for kind in sorted(kinds, key=lambda k: k == ActionKind.A2):
        purpose, votes = (("consistency", a2_votes) if kind == ActionKind.A2
                          else ("action_gen", 0))
        try:
            contexts[kind] = execute_action(kind, node.ctx, tree.scope,
                                            purpose=purpose, votes=votes)
        except NoViableChildError:
            continue
    for kind in kinds:
        for ctx in contexts.get(kind, ()):
            tree.add_node(parent=node, ctx=ctx)
    if not node.children:
        node.terminal_failed = True
    return list(node.children)


def simulate(tree: SearchTree, node: TreeNode) -> Trajectory:
    """Uniform-random rollout from ``node`` to a terminal state or the depth
    cap. A dead end (no legal action, or no viable outcome) ends the rollout
    with no final answer, which scores reward 0. Every step is drawn anew,
    so the rollout stays random, and kept for an expansion to take. An A2
    step draws ``n_consistency_samples`` votes with its one child."""
    ctx, cfg = node.ctx, tree.scope.cfg
    while ctx.final_answer is None and len(ctx.steps) < cfg.max_depth:
        kinds = sorted(valid_actions(ctx, cfg), key=lambda k: k.value)
        if not kinds:
            break
        kind = tree.rng.choice(kinds)
        purpose, votes = (("consistency", cfg.n_consistency_samples) if kind == ActionKind.A2
                          else ("action_gen", 0))
        try:
            ctx = execute_action(kind, ctx, tree.scope, n_outcomes=1,
                                 purpose=purpose, votes=votes, simulated=True)[0]
        except NoViableChildError:
            break
    return ctx


def terminal_reward(trajs: Sequence[Trajectory], scope: Scope) -> list[float]:
    """Self-consistency rewards of one or more answered trajectories that
    share one context: the same question and ``steps[:-1]``, hence the same
    A2 consistency prompt. ``SearchTree.reward_new`` passes only such lists.

    Each trajectory takes ``n = n_consistency_samples`` votes, samples of
    that prompt: first the spare ones in ``scope.votes``, in the order they
    were drawn, then those of one ``consistency`` request for the
    shortfall, if there is one. Trajectory ``k`` gets the fraction of its
    n+1 votes (votes ``[k*n, (k+1)*n)`` plus its own) that agree with its
    answer. Samples drawn above temperature 0 are independent, so each
    reward is distributed as with a request of its own."""
    context = Trajectory(trajs[0].question, trajs[0].steps[:-1])
    n = scope.cfg.n_consistency_samples
    req = action_request(ActionKind.A2, context, scope.prompts, "consistency", n * len(trajs))
    spare = scope.votes.setdefault(req.prompt, [])
    if len(spare) < req.n_samples:
        spare += scope.complete(replace(req, n_samples=req.n_samples - len(spare))).completions
    answers = [extract_answer(text, context.question) for text in spare[:req.n_samples]]
    del spare[:req.n_samples]
    return [(1 + answers[k * n:(k + 1) * n].count(traj.final_answer)) / (n + 1)
            for k, traj in enumerate(trajs)]


def backpropagate(tree: SearchTree, leaf: TreeNode, reward: float) -> None:
    """Add ``reward`` to the Q value and bump the visit count of every node
    on the root-to-leaf path."""
    for node in leaf.path_from_root():
        node.q_value += reward
        node.visits += 1


def run_search(tree: SearchTree) -> list[Trajectory]:
    """Run ``cfg.rollouts`` MCTS iterations on ``tree`` and return every
    distinct terminal trajectory discovered, each with its consistency
    reward attached. The tree keeps the finished search for inspection.

    An answered trajectory becomes a candidate, deduplicated by
    ``content_hash``, and is rewarded when it is first seen. The new
    answered children of one expansion share their parent's context, so one
    ``terminal_reward`` call right after the expansion rewards them all; a
    simulation that ends with a new answer is rewarded on its own before it
    is backpropagated. No candidate is left to reward when the search ends."""
    for _ in range(tree.scope.cfg.rollouts):
        tree.rollout()
    if not tree.candidates:
        raise NoCandidatesError(
            f"no terminal trajectory for question {tree.scope.question.id!r}")
    return list(tree.candidates.values())
