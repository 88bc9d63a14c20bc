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
rewarded alone, when it is first seen, by its context's vote: the answers of
``n`` samples of A2's prompt at its context, drawn once per question and
counted by every candidate that ends there. Every A2 request the search
sends is that context's ``consistency`` request: it draws the A2 children
and, when the context has no vote yet, the vote after them, which stays in
the question's ``Scope``.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, field, replace

from .actions import (Scope, action_prompt, action_request, action_requests,
                      execute_action, valid_actions)
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

    def reward_of(self, traj: Trajectory) -> float:
        """Consistency reward of a trajectory; 0 without an answer. An
        answered one not seen before becomes a candidate with its
        ``terminal_reward``; an equal one later gets the first one's."""
        if traj.final_answer is None:
            return 0.0
        key = traj.content_hash()
        if key not in self.candidates:
            reward = terminal_reward(traj, self.scope)
            self.candidates[key] = replace(traj, terminal_reward=reward)
        return self.candidates[key].terminal_reward

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
        for child in children:
            self.reward_of(child.ctx)
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

    The legal kinds run together (``action_requests``): their next requests
    go out in kind order through ``scope.complete_many``, as one wave. So
    wave 1 holds every kind's first request (A6's query_gen, or its action
    request when the scope remembers the query_gen) and wave 2, if any,
    A6's action request; A6 is last, so requests go out in the order of
    kinds run in turn. A kind served wholly from the simulated steps sends
    nothing. A2's request is its context's consistency request and also
    draws the context's vote when nothing has drawn it yet, so ``rollout``'s
    rewards of the children send nothing. Children are added in kind order."""
    node.expanded = True
    scope, cfg = tree.scope, tree.scope.cfg
    if len(node.ctx.steps) >= cfg.max_depth:
        node.terminal_failed = True
        return []
    runs = [action_requests(kind, node.ctx, scope, votes=kind == ActionKind.A2,
                            purpose="consistency" if kind == ActionKind.A2 else "action_gen")
            for kind in sorted(valid_actions(node.ctx, cfg), key=lambda k: k.value)]
    found: list[list[Trajectory]] = [[] for _ in runs]
    replies = dict.fromkeys(range(len(runs)))  # run -> the response it is sent next
    while replies:
        wave = {}
        for i, resp in replies.items():
            try:
                wave[i] = runs[i].send(resp)
            except StopIteration as done:
                found[i] = done.value
            except NoViableChildError:
                pass
        replies = dict(zip(wave, scope.complete_many(list(wave.values())) if wave else ()))
    for ctx in (child for children in found for child in children):
        tree.add_node(parent=node, ctx=ctx)
    if not node.children:
        node.terminal_failed = True
    return list(node.children)


def simulate(tree: SearchTree, node: TreeNode) -> Trajectory:
    """Uniform-random rollout from ``node`` to a terminal state or the depth
    cap. A dead end (no legal action, or no viable outcome) ends the rollout
    with no final answer, which scores reward 0. Every step is drawn anew,
    so the rollout stays random, and kept for an expansion to take. An A2
    step draws its context's vote with its one child when nothing has drawn
    it yet."""
    ctx, cfg = node.ctx, tree.scope.cfg
    while ctx.final_answer is None and len(ctx.steps) < cfg.max_depth:
        kinds = sorted(valid_actions(ctx, cfg), key=lambda k: k.value)
        if not kinds:
            break
        kind = tree.rng.choice(kinds)
        a2 = kind == ActionKind.A2
        try:
            ctx = execute_action(kind, ctx, tree.scope, n_outcomes=1,
                                 purpose="consistency" if a2 else "action_gen",
                                 votes=a2, simulated=True)[0]
        except NoViableChildError:
            break
    return ctx


def terminal_reward(traj: Trajectory, scope: Scope) -> float:
    """Self-consistency reward of an answered trajectory: the fraction of
    its n+1 votes (its context's n plus its own) that agree with its answer.

    Its context's vote is the answers of ``n = n_consistency_samples``
    samples of A2's prompt at ``steps[:-1]``, kept in ``scope.votes``: drawn
    with an A2 step at the context, or else by one ``consistency`` request
    here, so at most once per question. Under a sampling LM each reward is
    distributed as with a request of its own; rewards of one context are
    paired, as rStar's one vote per terminal node is."""
    n = scope.cfg.n_consistency_samples
    context = Trajectory(traj.question, traj.steps[:-1])
    prompt = action_prompt(ActionKind.A2, context, scope.prompts)
    vote = scope.votes.get(prompt)
    if vote is None:
        req = action_request(ActionKind.A2, context, scope.prompts, "consistency", n)
        vote = scope.keep_vote(prompt, scope.complete(req).completions)
    return (1 + vote.count(traj.final_answer)) / (n + 1)


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
    ``content_hash``, and is rewarded alone when it is first seen: each new
    answered child of an expansion right after the expansion, in order, and
    a simulation that ends with a new answer before it is backpropagated.
    No candidate is left to reward when the search ends."""
    for _ in range(tree.scope.cfg.rollouts):
        tree.rollout()
    if not tree.candidates:
        raise NoCandidatesError(
            f"no terminal trajectory for question {tree.scope.question.id!r}")
    return list(tree.candidates.values())
