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
is the vector of commit times, ``None`` where a component is free; the
ordered and swing solvers of :mod:`stoptree.symmetric_swing` run the same
routine on their own states. Stop/continue decisions compare values
exactly: a state stops when its first stop move reaches the state's value.
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
from .single_stopping import EPS_EQ, SnellSolution, check_eps, minimal_optimal_stop, snell_solve

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

    @property
    def stop_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(tau.stop_set for tau in self.components)

    def times_on_path(self, leaf: str) -> tuple[int, ...]:
        return tuple(tau.stop_time_on_path(leaf) for tau in self.components)


def tuple_value(tup: MultiStoppingTuple, psi: MultiReward) -> float:
    """E[ψ(τ₁,…,τ_d)] from the tuple's start node, summed leaf by leaf."""
    if psi.d != tup.d:
        raise ValueError(f"reward has {psi.d} slots, tuple has {tup.d}")
    total = 0.0
    for _, path, weight, times in tup.model.leaf_paths(tup.start, tup.stop_sets):
        total += weight * psi.evaluate(path, times)
    return total


class BackwardInduction:
    """A value table over (node, state) pairs, filled by backward induction.

    Subclasses describe the states: ``_rank(s)``, the number of the d
    commitments made, which every stop move raises by one;
    ``_terminal_value(s, path, node)`` for states of rank d (``path`` is the
    root path to the node); ``_stops(s, t)``, the stop moves of a state of
    lower rank at time ``t`` as ``(component, successor)`` in tie-break
    order; ``_gain(node)``, the payoff each stop move at ``node`` collects;
    and ``_carry(s, t)``, the state handed to the children at time ``t``, or
    ``None`` if ``s`` may not continue. The defaults suit states that list
    the commitments made and collect nothing.

    Each time numbers the states listed at it, and a node's values are a
    list indexed by that slot (``None`` if untabulated). A query for an
    untabulated pair fills the table on the pair's subtree. Its states depend
    only on the time, so each level is listed once, successors and carry as
    slots; the untabulated pairs are counted against ``DEFAULT_STATE_CAP``
    as they are listed, before a backward pass from the deepest level values them.
    """

    label = "value table"
    uses_path = True  # whether terminal values read the root path
    _rank = staticmethod(len)
    _gain = staticmethod(lambda node: 0.0)

    def __init__(self, model: TreeModel, d: int):
        self.model, self.d = model, d
        self._slots: dict[int, dict] = {}  # per time: state -> slot
        self._values: dict[str, list] = {}  # per node: value by slot
        self._count = 0

    def _carry(self, s, t: int):
        return s

    def _get(self, state, node: str) -> float | None:
        slot = self._slots.get(self.model.time(node), {}).get(state)
        vals = self._values.get(node, ())
        return vals[slot] if slot is not None and slot < len(vals) else None

    def value(self, state, node: str) -> float:
        """Value of ``state`` at ``node``; tabulates the subtree below on first use."""
        v = self._get(state, node)
        if v is None:
            self._fill(state, node)
            v = self._get(state, node)
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
            t = model.time(nid)
            slots, vals, gain = self._slots[t], self._values[nid], self._gain(nid)
            while self._rank(s) < self.d:
                here = vals[slots[s]]
                move = next(((i, succ) for i, succ in self._stops(s, t)
                             if vals[slots[succ]] + gain >= here), None)
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

    def _level(self, seeds: list, t: int) -> tuple[list, list]:
        """Number the states at time ``t`` reachable from ``seeds`` by stop moves.
        Returns them in rank order as ``(slot, successors' slots, carry's slot at
        t + 1)``, where a terminal state has ``(slot, None, state)``, and the
        carried states."""
        slots = self._slots.setdefault(t, {})
        next_slots = self._slots.setdefault(t + 1, {}) if t < self.model.horizon else None
        buckets: list[list] = [[] for _ in range(self.d + 1)]
        for s in seeds:
            buckets[self._rank(s)].append(s)
        level, carried = [], []
        for r, bucket in enumerate(buckets[:-1]):
            for s in dict.fromkeys(bucket):  # states of different ranks differ
                succs = [succ for _, succ in self._stops(s, t)]
                buckets[r + 1] += succs
                c = self._carry(s, t + 1) if next_slots is not None else None
                if c is not None:
                    carried.append(c)
                    c = next_slots.setdefault(c, len(next_slots))
                level.append((slots.setdefault(s, len(slots)),
                              tuple([slots.setdefault(x, len(slots)) for x in succs]), c))
        level += [(slots.setdefault(s, len(slots)), None, s) for s in dict.fromkeys(buckets[-1])]
        return level, carried

    def _fill(self, state, node: str) -> None:
        model, values, cap = self.model, self._values, DEFAULT_STATE_CAP
        over = f"{self.label} exceeded its budget of {cap} states"
        t, seeds, nodes = model.time(node), [state], [node]
        plan, count = [], self._count  # per level: the (node, untabulated entries) pairs
        while nodes:
            (level, seeds), todo, below = self._level(seeds, t), [], []
            for nid in nodes:  # a node with nothing untabulated has a tabulated subtree
                vals = values.get(nid)
                new = level if vals is None else [
                    e for e in level if e[0] >= len(vals) or vals[e[0]] is None]
                if new:
                    count += len(new)
                    if count > cap:
                        raise CapExceededError(over, count=count)
                    todo.append((nid, new))
                    below += [cid for cid, _ in model.children(nid)]
            plan.append((len(self._slots[t]), todo))
            nodes, t = below, t + 1

        paths: dict[str, tuple[str, ...]] = {}
        terminal = self._terminal_value
        for size, todo in reversed(plan):  # children before their parents
            for nid, new in todo:
                children, vals = model.children(nid), values.setdefault(nid, [])
                vals += [None] * (size - len(vals))
                kids = [(p, values.get(cid)) for cid, p in children]
                if self.uses_path:  # a node's path is a child's path without the child
                    below = [paths.pop(cid) for cid, _ in children if cid in paths]
                    paths[nid] = below[0][:-1] if below else model.path_to(nid)
                path, gain = paths.get(nid), self._gain(nid)
                for slot, succs, c in reversed(new):  # successors before their predecessors
                    if succs is None:
                        vals[slot] = terminal(c, path, nid)
                        continue
                    best = max([vals[x] for x in succs]) + gain if succs else None
                    if c is not None and kids:
                        cont = 0.0
                        for p, child_vals in kids:
                            cont += p * child_vals[c]
                        best = cont if best is None or cont > best else best
                    if best is None:
                        raise AssertionError(f"state in slot {slot} at {nid!r} has no action")
                    vals[slot] = best
        self._count = count


class NestedValue(BackwardInduction):
    """Nested-problem values for one (model, reward) pair.

    A state is the d commit times, ``None`` where a component is free, so a
    full state is ψ's ``times``. ``residual_value`` is the best achievable
    from ``(component, time)`` commitments; :func:`u_component` reads it one
    commitment further on.
    """

    label = "nested value table"

    def __init__(self, model: TreeModel, psi: MultiReward):
        super().__init__(model, psi.d)
        self.psi = psi

    def residual_value(self, fixed: FixedKey, node: str) -> float:
        """Value at ``node`` given the commitments in ``fixed``; remaining components free."""
        fixed = dict(_canon(fixed, self.d))
        return self.value(tuple(fixed.get(i) for i in range(self.d)), node)

    def _rank(self, times: tuple) -> int:
        return self.d - times.count(None)

    def _terminal_value(self, times: tuple[int, ...], path, node: str) -> float:
        return self.psi.evaluate_trusted(path[: max(times) + 1], times)

    def _stops(self, times: tuple, t: int):
        return [(i, times[:i] + (t,) + times[i + 1:]) for i, x in enumerate(times) if x is None]


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


@dataclass(frozen=True)
class SolveReport:
    """Everything :func:`solve_multi` knows about one solved instance.

    ``commit_values[i]`` is the process u^(i): at each node, the value when
    component i commits there and the others stay optimal.
    ``new_reward_process`` is φ = max_i u^(i), and ``snell`` its envelope.
    """

    model: TreeModel
    reward: MultiReward
    start: str
    d: int
    value: float
    snell: SnellSolution
    new_reward_process: NodeProcess
    commit_values: tuple[NodeProcess, ...]
    stopping_tuple: MultiStoppingTuple
    diagnostics: dict[str, float] = field(default_factory=dict)
    instance_hash: str = ""


def solve_multi(
    model: TreeModel,
    psi: MultiReward,
    start: str,
    *,
    eps: float = EPS_EQ,
) -> SolveReport:
    """Solve the d-fold stopping problem exactly from ``start``.

    Returns the value, the reduced single-stopping solution it coincides
    with, and an explicit optimal tuple whose componentwise minimum is the
    earliest optimal stop of the reduced problem (postconditions checked).
    The tuple replays the table from the empty state; on ties the smallest
    component index commits first.
    """
    if start not in model:
        raise ValueError(f"unknown start node {start!r}")
    check_eps(eps)
    nested = NestedValue(model, psi)
    nested.residual_value((), model.root)  # one fill reaches every node's single commitments
    value = nested.residual_value((), start)

    ids, free = model.node_ids(), (None,) * psi.d
    commit_values = tuple(
        NodeProcess(model, {nid: nested.value(free[:i] + (model.time(nid),) + free[i + 1:], nid)
                            for nid in ids})
        for i in range(psi.d)
    )
    phi = NodeProcess(model, {nid: max(u[nid] for u in commit_values) for nid in ids})
    snell = snell_solve(phi)
    theta = minimal_optimal_stop(snell, start)
    tup = nested.extract(free, start)

    attained = tuple_value(tup, psi)
    if abs(attained - value) > eps:
        raise AssertionError(
            f"assembled tuple attains {attained!r}, backward value is {value!r}"
        )
    for leaf, _, _, times in model.leaf_paths(start, (*tup.stop_sets, theta.stop_set)):
        if min(times[:-1]) != times[-1]:
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
        commit_values=commit_values,
        stopping_tuple=tup,
        diagnostics=diagnostics,
        instance_hash=instance_fingerprint(model, psi, start),
    )
