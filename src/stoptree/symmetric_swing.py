"""Exchangeable multi-stopping and swing options with a refraction period.

Both problems run the backward induction of
:class:`stoptree.multiple_stopping.BackwardInduction` on smaller states than
the general d-fold solver. When the reward does not care about the order of
the d stop times, commitments can be made in nondecreasing time order, so a
state is just the times committed so far, and its one stop move,
``_stops(state, t)``, appends the time. The swing specialization collects
per-right payoffs from one process through the ``_gain(node)`` hook, and
keeps a minimum gap (refraction period) delta between consecutive exercises,
with all d rights forced into the horizon; a state is the number of rights
left and the earliest time the next one may be used.
"""
from __future__ import annotations

from dataclasses import dataclass

from .market_model import InfeasibleError, MultiReward, NodeProcess, TreeModel
from .multiple_stopping import BackwardInduction, MultiStoppingTuple, tuple_value
from .single_stopping import EPS_EQ, check_eps


@dataclass(frozen=True)
class SymmetricSolution:
    """Value and an ordered optimal tuple (componentwise nondecreasing times)."""

    value: float
    components: MultiStoppingTuple

    @property
    def model(self) -> TreeModel:
        return self.components.model

    @property
    def start(self) -> str:
        return self.components.start


def symmetric_backward(
    model: TreeModel,
    psi: MultiReward,
    start: str,
    *,
    eps: float = EPS_EQ,
) -> SymmetricSolution:
    """Solve a symmetric d-fold problem with ordered commitments.

    States are the times committed so far; at each node a state either
    commits the next time now or carries over to the children. Values agree
    with the general solver on symmetric rewards; this routine exists because
    the collapsed state space is what makes larger d cheap.
    """
    if not psi.symmetric:
        raise ValueError("symmetric_backward needs a symmetric reward")
    if start not in model:
        raise ValueError(f"unknown start node {start!r}")
    check_eps(eps)
    table = _Ordered(model, psi)
    value = table.value((), start)
    tup = table.extract((), start)
    attained = tuple_value(tup, psi)
    if abs(attained - value) > eps:
        raise AssertionError(
            f"ordered tuple attains {attained!r}, backward value is {value!r}"
        )
    return SymmetricSolution(value=value, components=tup)


class _Ordered(BackwardInduction):
    """States: the commit times so far, in commitment order (nondecreasing).
    The one stop move appends the node's time, so a full state is ψ's
    ``times`` argument; the default ``_rank``, ``_carry`` and ``_gain`` apply."""

    label = "ordered-commitment table"

    def __init__(self, model: TreeModel, psi: MultiReward):
        super().__init__(model, psi.d)
        self.psi = psi

    def _terminal_value(self, prior: tuple[int, ...], path, node: str) -> float:
        return self.psi.evaluate_trusted(path[: max(prior) + 1], prior)

    def _stops(self, prior: tuple[int, ...], t: int):
        return ((len(prior), prior + (t,)),)


@dataclass(frozen=True)
class SwingSolution:
    """A solved swing instance: d rights on payoff ``y`` with gap ``delta``."""

    model: TreeModel
    y: NodeProcess
    d: int
    delta: int
    start: str
    value: float
    value_process: NodeProcess
    z: tuple[NodeProcess, ...]
    components: MultiStoppingTuple
    exercise_times: dict[str, tuple[int, ...]]


def swing_solve(
    model: TreeModel,
    y: NodeProcess,
    d: int,
    delta: int,
    start: str,
    *,
    eps: float = EPS_EQ,
) -> SwingSolution:
    """Solve a swing option exactly: all d rights must be exercised, consecutive
    exercise times at least ``delta`` apart, everything inside the horizon.

    Raises :class:`InfeasibleError` when the d rights cannot fit between the
    start time and the horizon, and :class:`CapExceededError` when the value
    table would hold more than ``multiple_stopping.DEFAULT_STATE_CAP``
    (node, state) pairs.
    """
    if y.model is not model:
        raise ValueError("payoff process lives on a different model")
    if d < 1:
        raise ValueError(f"number of rights must be >= 1, got {d!r}")
    if delta < 0:
        raise ValueError(f"refraction period must be >= 0, got {delta!r}")
    if start not in model:
        raise ValueError(f"unknown start node {start!r}")
    check_eps(eps)
    d, delta = int(d), int(delta)
    horizon = model.horizon
    t0 = model.time(start)
    if t0 + (d - 1) * delta > horizon:
        raise InfeasibleError(
            f"{d} rights with gap {delta} starting at time {t0} do not fit into horizon {horizon}"
        )

    table = _Swing(model, y, d, delta)
    value = table.value((d, t0), start)

    def at(nid: str, rights: int, earliest: int) -> float:
        """Value with ``rights`` left, the next usable from ``earliest``; 0 if none fit."""
        if rights >= 1 and earliest + (rights - 1) * delta <= horizon:
            return table.value((rights, earliest), nid)
        return 0.0

    value_process = NodeProcess(
        model, {nid: at(nid, d, model.time(nid)) for nid in model.node_ids()}
    )
    z = tuple(
        NodeProcess(model, {nid: at(nid, d - k - 1, model.time(nid) + delta)
                            for nid in model.node_ids()})
        for k in range(d)
    )
    components = table.extract((d, t0), start)

    exercise_times: dict[str, tuple[int, ...]] = {}
    attained = 0.0
    for leaf, path, weight, times in model.leaf_paths(start, components.stop_sets):
        for k in range(d - 1):
            if times[k + 1] - times[k] < delta:
                raise AssertionError(
                    f"exercise schedule {times} on path to {leaf!r} violates the gap {delta}"
                )
        exercise_times[leaf] = times
        attained += weight * sum(y[path[t]] for t in times)
    if abs(attained - value) > eps:
        raise AssertionError(f"exercise schedule attains {attained!r}, value is {value!r}")

    return SwingSolution(
        model=model,
        y=y,
        d=d,
        delta=delta,
        start=start,
        value=value,
        value_process=value_process,
        z=z,
        components=components,
        exercise_times=exercise_times,
    )


class _Swing(BackwardInduction):
    """States: ``(rights left, earliest time of the next right)``, the time
    raised to the node's own; every state without rights is ``(0, 0)``."""

    label = "swing value table"
    uses_path = False

    def __init__(self, model: TreeModel, y: NodeProcess, d: int, delta: int):
        super().__init__(model, d)
        self.y, self.delta, self.horizon = y, delta, model.horizon

    def _rank(self, state: tuple[int, int]) -> int:
        return self.d - state[0]

    def _terminal_value(self, state, path, node: str) -> float:
        return 0.0

    def _gain(self, node: str) -> float:
        return self.y[node]

    def _stops(self, state: tuple[int, int], t: int):
        e, a = state
        if t >= a and t + (e - 1) * self.delta <= self.horizon:
            return ((self.d - e, (e - 1, t + self.delta) if e > 1 else (0, 0)),)
        return ()

    def _carry(self, state: tuple[int, int], t: int):
        e, a = state
        a = max(a, t)
        return (e, a) if a + (e - 1) * self.delta <= self.horizon else None
