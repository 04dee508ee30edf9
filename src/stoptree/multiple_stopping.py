"""Optimal d-fold stopping by reduction to single stopping.

The d-component problem collapses to an ordinary stopping problem for a
synthetic one-step reward: at any node, committing one component now and
optimizing the rest is itself a well-defined value (a nested stopping
problem), and the best over which component to commit — the *new reward* —
is the payoff the outer single-stopping problem should see. Backward
induction on that new reward gives the d-fold value, and unwinding the
argmax choices yields an explicit optimal tuple whose earliest component
is the earliest optimal single stop of the reduced problem.

All nested values come from one backward induction over (node, state)
pairs, :class:`BackwardInduction`. A state says what is committed so far;
at each node a state either continues (the expectation over the children)
or stops (a move to a successor state at the same node, possibly
collecting a gain), and fully committed states evaluate ψ. Here a state
is the set of committed ``(component, time)`` pairs; the ordered and swing
solvers of :mod:`stoptree.symmetric_swing` run the same routine on their
own states. Stop/continue decisions compare values exactly: a state stops
when its first stop move reaches the state's value.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .market_model import (
    CapExceededError,
    MultiReward,
    NodeProcess,
    StoppingTime,
    TreeModel,
    conditional_expectation,
    instance_fingerprint,
)
from .single_stopping import EPS_EQ, SnellSolution, minimal_optimal_stop, snell_solve

DEFAULT_STATE_CAP = 1_000_000

FixedKey = tuple[tuple[int, int], ...]  # sorted ((component, time), ...) pairs


@dataclass(frozen=True)
class MultiStoppingTuple:
    """d stopping rules on a shared model, all issued from the same start node."""

    components: tuple[StoppingTime, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a stopping tuple needs at least one component")
        first = self.components[0]
        for tau in self.components[1:]:
            if tau.model is not first.model:
                raise ValueError("components live on different models")
            if tau.start != first.start:
                raise ValueError(
                    f"components start at different nodes ({tau.start!r} vs {first.start!r})"
                )

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def model(self) -> TreeModel:
        return self.components[0].model

    @property
    def start(self) -> str:
        return self.components[0].start

    def stop_nodes_on_path(self, leaf: str) -> tuple[str, ...]:
        return tuple(tau.stop_node_on_path(leaf) for tau in self.components)

    def times_on_path(self, leaf: str) -> tuple[int, ...]:
        return tuple(tau.stop_time_on_path(leaf) for tau in self.components)


def tuple_value(tup: MultiStoppingTuple, psi: MultiReward) -> float:
    """E[ψ(τ₁,…,τ_d)] from the tuple's start node, summed leaf by leaf."""
    if psi.d != tup.d:
        raise ValueError(f"reward has {psi.d} slots, tuple has {tup.d}")
    model = tup.model
    total = 0.0
    for leaf in model.leaves_below(tup.start):
        total += model.cond_prob(tup.start, leaf) * psi.evaluate(
            model.path_to(leaf), tup.times_on_path(leaf)
        )
    return total


class BackwardInduction:
    """A value table over (node, state) pairs, filled by backward induction.

    Subclasses describe the states: ``_rank(s)``, the number of the d
    commitments made, which every stop move raises by one;
    ``_terminal_value(s, path, node)`` for states of rank d (``path`` is the
    root path to the node); ``_stops(s, node, t)``, the stop moves of a
    state of lower rank as ``(component slot, gain, successor)`` in tie-break
    order; and ``_carry(s, t)``, the state handed to the children at time
    ``t``, or ``None`` if ``s`` may not continue. The defaults suit states
    that list the commitments made.

    A query for an untabulated pair fills the table below it: a forward pass
    collects the untabulated states reachable from the pair, node by node in
    level order, and a backward pass from the deepest level up values them.
    """

    label = "value table"
    uses_path = True  # whether terminal values read the root path
    _rank = staticmethod(len)

    def __init__(self, model: TreeModel, d: int, cap_states: int | None):
        self.model, self.d, self.cap_states = model, d, cap_states
        self._values: dict[str, dict] = {}
        self._count = 0

    def _carry(self, s, t: int):
        return s

    def state_count(self) -> int:
        return self._count

    def value(self, state, node: str) -> float:
        """Value of ``state`` at ``node``; tabulates the subtree below on first use."""
        v = self._values.get(node, {}).get(state)
        if v is None:
            self._fill(state, node)
            v = self._values[node][state]
        return v

    def extract(self, state, start: str) -> MultiStoppingTuple:
        """Replay the table from ``(start, state)`` into d stopping rules: at
        every node a state takes the first stop move that reaches its value,
        as long as one does, and otherwise continues to the children."""
        model = self.model
        self.value(state, start)
        stop_sets: list[set[str]] = [set() for _ in range(self.d)]
        stack = [(start, state)]
        while stack:
            nid, s = stack.pop()
            vals, t = self._values[nid], model.time(nid)
            while self._rank(s) < self.d:
                here = vals[s]
                move = next(((slot, succ) for slot, gain, succ in self._stops(s, nid, t)
                             if vals[succ] + gain >= here), None)
                if move is None:
                    break
                stop_sets[move[0]].add(nid)
                s = move[1]
            else:
                continue  # every component committed on this path
            carried = self._carry(s, t + 1)
            for cid, _ in model.children(nid):
                stack.append((cid, carried))
        return MultiStoppingTuple(
            tuple(StoppingTime(model, start, frozenset(s)) for s in stop_sets)
        )

    def _fill(self, state, node: str) -> None:
        model, values, cap, d = self.model, self._values, self.cap_states, self.d
        stops, carry, rank = self._stops, self._carry, self._rank
        count = self._count
        levels: list[tuple[str, list, int]] = []
        arriving, queue = {node: [state]}, [node]
        for nid in queue:
            n = model.node(nid)
            known, t, kids = values.get(nid, {}), n.time, n.children
            by_rank: list[list] = [[] for _ in range(d + 1)]
            for s in arriving.pop(nid):
                by_rank[rank(s)].append(s)
            new: dict = {}  # untabulated states, in increasing rank
            carried, n_open = [], 0
            for r, bucket in enumerate(by_rank):
                for s in bucket:
                    if s in new or s in known:
                        continue
                    new[s] = None
                    if r == d:
                        continue
                    n_open += 1
                    for _, _, succ in stops(s, nid, t):
                        by_rank[r + 1].append(succ)
                    c = carry(s, t + 1) if kids else None
                    if c is not None:
                        carried.append(c)
            count += len(new)
            if cap is not None and count > cap:
                raise CapExceededError(f"{self.label} exceeded its budget of {cap} states",
                                       count=count)
            if new:
                levels.append((nid, list(new), n_open))
                for cid, _ in kids if carried else ():
                    arriving[cid] = carried
                    queue.append(cid)

        paths: dict[str, tuple[str, ...]] = {}
        for nid, states, n_open in reversed(levels):  # children before their parent
            n, vals = model.node(nid), values.setdefault(nid, {})
            t, children = n.time, n.children
            kids = [(p, values.get(cid)) for cid, p in children]
            if self.uses_path:  # a node's path is a child's path without the child
                below = [paths.pop(cid) for cid, _ in children if cid in paths]
                paths[nid] = below[0][:-1] if below else model.path_to(nid)
            path = paths.get(nid)
            for s in states[n_open:]:
                vals[s] = self._terminal_value(s, path, nid)
            for s in reversed(states[:n_open]):  # successors before the states that stop into them
                best = None
                for _, gain, succ in stops(s, nid, t):
                    v = vals[succ] + gain
                    if best is None or v > best:
                        best = v
                c = carry(s, t + 1) if kids else None
                if c is not None:
                    cont = 0.0
                    for p, child_vals in kids:
                        cont += p * child_vals[c]
                    best = cont if best is None else max(best, cont)
                if best is None:
                    raise AssertionError(f"state {s!r} at {nid!r} has no action")
                vals[s] = best
            self._count += len(states)


class NestedValue(BackwardInduction):
    """Nested-problem values for one (model, reward) pair.

    A state is a node plus the set of components already committed (with
    their commit times). ``residual_value`` is the best achievable from that
    state; ``new_reward`` is the best achievable if one more component must
    commit at the node right now.
    """

    label = "nested value table"

    def __init__(self, model: TreeModel, psi: MultiReward, cap_states: int = DEFAULT_STATE_CAP):
        super().__init__(model, psi.d, cap_states)
        self.psi = psi

    def residual_value(self, fixed: FixedKey, node: str) -> float:
        """Value at ``node`` given the commitments in ``fixed``; remaining components free."""
        return self.value(_canon(fixed, self.d), node)

    def new_reward(self, fixed: FixedKey, node: str) -> float:
        """Best value at ``node`` when one more component commits here, now."""
        fixed = _canon(fixed, self.d)
        if len(fixed) >= self.d:
            raise ValueError("all components are already committed")
        t = self.model.time(node)
        return max(self.value(succ, node) for _, _, succ in self._stops(fixed, node, t))

    def _terminal_value(self, fixed: FixedKey, path, node: str) -> float:
        return self.psi.evaluate(path, tuple(t for _, t in fixed))

    def _stops(self, fixed: FixedKey, node: str, t: int):
        taken = [i for i, _ in fixed]
        return [(i, 0.0, tuple(sorted(fixed + ((i, t),))))
                for i in range(self.d) if i not in taken]


def _canon(fixed, d: int) -> FixedKey:
    out = tuple(sorted((int(i), int(t)) for i, t in fixed))
    seen = [i for i, _ in out]
    if len(set(seen)) != len(seen):
        raise ValueError(f"component committed twice in {out}")
    for i, t in out:
        if not 0 <= i < d:
            raise ValueError(f"component index {i} out of range for d={d}")
        if t < 0:
            raise ValueError(f"negative commit time {t}")
    return out


def u_component(
    model: TreeModel,
    psi: MultiReward,
    fixed,
    i: int,
    node: str,
    nested: NestedValue | None = None,
) -> float:
    """Value at ``node`` when component ``i`` commits here and the rest stay optimal.

    ``fixed`` lists components already committed earlier on the path as
    ``(index, time)`` pairs (often empty).
    """
    if nested is None:
        nested = NestedValue(model, psi)
    fixed = _canon(fixed, psi.d)
    t = model.time(node)
    for j, tj in fixed:
        if j == i:
            raise ValueError(f"component {i} is already committed")
        if tj > t:
            raise ValueError(f"commitment of component {j} at time {tj} lies after node {node!r}")
    return nested.residual_value(fixed + ((i, t),), node)


def new_reward(
    model: TreeModel,
    psi: MultiReward,
    node: str,
    fixed=(),
    nested: NestedValue | None = None,
) -> float:
    """Synthetic one-step reward: best u_component over the still-free indices."""
    if nested is None:
        nested = NestedValue(model, psi)
    return nested.new_reward(fixed, node)


def assemble_optimal_tuple(nested: NestedValue, start: str) -> MultiStoppingTuple:
    """Unwind the nested values into d explicit stopping rules.

    On every path the walk commits a component at the first node where
    stopping reaches the residual value, choosing the smallest attaining
    component index on ties, then continues with the residual problem. The
    earliest commitment nodes therefore reproduce the earliest optimal stop
    of the reduced problem.
    """
    return nested.extract((), start)


@dataclass(frozen=True)
class SolveReport:
    """Everything :func:`solve_multi` knows about one solved instance."""

    model: TreeModel
    reward: MultiReward
    start: str
    d: int
    value: float
    snell: SnellSolution
    new_reward_process: NodeProcess
    stopping_tuple: MultiStoppingTuple
    nested: NestedValue
    diagnostics: dict[str, float] = field(default_factory=dict)
    instance_hash: str = ""
    oracle_delta: float | None = None


def solve_multi(
    model: TreeModel,
    psi: MultiReward,
    start: str,
    *,
    cap_states: int = DEFAULT_STATE_CAP,
    eps: float = EPS_EQ,
) -> SolveReport:
    """Solve the d-fold stopping problem exactly from ``start``.

    Returns the value, the reduced single-stopping solution it coincides
    with, and an explicit optimal tuple whose componentwise minimum is the
    earliest optimal stop of the reduced problem (postconditions checked).
    """
    if start not in model:
        raise ValueError(f"unknown start node {start!r}")
    nested = NestedValue(model, psi, cap_states=cap_states)
    value = nested.residual_value((), start)

    phi = NodeProcess(model, {nid: nested.new_reward((), nid) for nid in model.node_ids()})
    snell = snell_solve(phi)
    theta = minimal_optimal_stop(snell, start)
    tup = assemble_optimal_tuple(nested, start)

    attained = tuple_value(tup, psi)
    if abs(attained - value) > eps:
        raise AssertionError(
            f"assembled tuple attains {attained!r}, backward value is {value!r}"
        )
    for leaf in model.leaves_below(start):
        if min(tup.times_on_path(leaf)) != theta.stop_time_on_path(leaf):
            raise AssertionError(
                f"earliest component stop disagrees with the reduced rule on path to {leaf!r}"
            )

    slack = 0.0
    for nid in model.subtree_ids(start):
        if not model.is_leaf(nid):
            slack = max(slack, conditional_expectation(snell.value, nid) - snell.value[nid])
    diagnostics = {
        "reduction_residual": abs(value - snell.value[start]),
        "supermartingale_slack": slack,
    }
    return SolveReport(
        model=model,
        reward=psi,
        start=start,
        d=psi.d,
        value=value,
        snell=snell,
        new_reward_process=phi,
        stopping_tuple=tup,
        nested=nested,
        diagnostics=diagnostics,
        instance_hash=instance_fingerprint(model, psi, start),
    )
