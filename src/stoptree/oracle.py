"""Brute-force enumeration oracle and certification against it.

This module deliberately shares no optimization logic with the solvers: it
enumerates every stopping tuple outright, values each one as a sum over the
leaves in one fixed order, and keeps every maximizer. It values a row at a
time, the tuples that differ only in their last cut: each leaf adds the
row's column of terms in C, so every value is still the sum from 0.0 in
leaf order. The only thing it caches is each leaf's term weight · ψ per
stop-time vector, so ψ runs once per distinct (leaf, stop-time vector)
while the work still grows with the number of tuples; its purpose is to
certify the backward-induction results on small instances. Every
enumeration of cuts in the package is :func:`_ordered_fold`; the free
d-fold tuples are the d-th power of its d = 1 cuts. The d-fold order on stop-time vectors, and the pathwise
order check :func:`certify` runs with it, live here too.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import groupby, product
from math import prod
from operator import add

from .market_model import (
    CapExceededError,
    InfeasibleError,
    MultiReward,
    StoppingTime,
    TreeModel,
    instance_fingerprint,
)
from .multiple_stopping import MultiStoppingTuple, SolveReport, tuple_value
from .single_stopping import EPS_EQ, check_eps

DEFAULT_TUPLE_CAP = 10_000_000
DEFAULT_TIME_BUDGET = 60.0


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive-enumeration result for one instance."""

    model: TreeModel
    reward: MultiReward
    start: str
    value: float
    optimal_tuples: tuple[MultiStoppingTuple, ...]
    enumerated_count: int
    elapsed: float
    instance_hash: str
    constraint: str
    min_gap: int | None


def brute_force_value(
    model: TreeModel,
    psi: MultiReward,
    start: str,
    *,
    min_gap: int | None = None,
    cap_tuples: int = DEFAULT_TUPLE_CAP,
    eps: float = EPS_EQ,
) -> OracleReport:
    """Enumerate every admissible stopping tuple and keep all maximizers.

    ``min_gap=None`` ranges over unordered tuples of free stopping times;
    ``min_gap=k`` restricts to ordered tuples with consecutive stop times at
    least ``k`` apart on every path (``k=0`` meaning merely ordered). Raises
    :class:`InfeasibleError` when the constrained feasible set is empty and
    :class:`CapExceededError` when the tuple count or ``DEFAULT_TIME_BUDGET``
    seconds are exceeded. Enumeration order is deterministic.
    """
    if start not in model:
        raise ValueError(f"unknown start node {start!r}")
    check_eps(eps)
    t_begin = time.perf_counter()

    if min_gap is None:
        total_count = _count_ordered(model, start, 1, 0) ** psi.d
        constraint = "none"
    else:
        if min_gap < 0:
            raise ValueError(f"min_gap must be >= 0, got {min_gap!r}")
        total_count = _count_ordered(model, start, psi.d, min_gap)
        constraint = f"ordered, gap >= {min_gap}"
        if total_count == 0:
            raise InfeasibleError(
                f"no ordered {psi.d}-tuple with gap >= {min_gap} fits the subtree of {start!r}"
            )
    if total_count > cap_tuples:
        raise CapExceededError(
            f"{total_count} tuples to enumerate, above the cap of {cap_tuples}",
            count=total_count,
        )

    if min_gap is None:
        cuts = [c for (c,) in _ordered_cuts(model, start, 1, 0)]  # at d = 1: every cut
    else:  # number the distinct cuts; a tuple is a combination of cut numbers
        index: dict[frozenset[str], int] = {}
        combos = [tuple(index.setdefault(c, len(index)) for c in combo)
                  for combo in _ordered_cuts(model, start, psi.d, min_gap)]
        cuts = list(index)
    # per leaf: the stop time of each cut on its path, and weight * psi
    leaves = [(times, _Terms(psi, path, weight))
              for _, path, weight, times in model.leaf_paths(start, cuts)]
    # One pass over rows in chunks of at most 1,024 tuples. Per leaf, the
    # chunk's terms are looked up and added in C, leaf after leaf from 0.0,
    # as the per-tuple sum would be. ``kept`` holds, in enumeration order,
    # the (combo, value) pairs within eps of the best at the end of their
    # chunk; the best only rises. Pairs that fell below are dropped once
    # ``kept`` has doubled since the last drop, which keeps the pass
    # linear, and once more at the end.
    if min_gap is None:
        rows = ((head, range(len(cuts))) for head in product(range(len(cuts)), repeat=psi.d - 1))
    else:
        rows = ((head, [c[-1] for c in run]) for head, run in groupby(combos, key=lambda c: c[:-1]))
    best = None
    kept: list[tuple[tuple[int, ...], float]] = []
    prune_at = 0
    seen = 0
    for head, lasts in rows:
        for lo in range(0, len(lasts), 1024):
            chunk = lasts[lo:lo + 1024]
            vals = [0.0] * len(chunk)
            for times, terms in leaves:
                row_terms = terms[tuple([times[i] for i in head])]
                stops = times[lo:lo + 1024] if min_gap is None else map(times.__getitem__, chunk)
                vals = list(map(add, vals, map(row_terms.__getitem__, stops)))
            top = max(vals)
            if best is None or top > best:
                best = top
                if len(kept) >= prune_at:
                    kept = [kv for kv in kept if kv[1] >= best - eps]
                    prune_at = 2 * len(kept)
            if top >= (floor := best - eps):
                kept += [(head + (j,), v) for j, v in zip(chunk, vals) if v >= floor]
            seen += len(chunk)
            if time.perf_counter() - t_begin > DEFAULT_TIME_BUDGET:
                raise CapExceededError(
                    f"oracle ran past its {DEFAULT_TIME_BUDGET}s budget after {seen} tuples",
                    count=seen,
                )
    assert best is not None
    kept = [kv for kv in kept if kv[1] >= best - eps]

    rules: dict[int, StoppingTime] = {}  # one validated StoppingTime per cut
    winners = []
    for combo, _ in kept:
        for i in combo:
            if i not in rules:
                rules[i] = StoppingTime(model, start, cuts[i])
        winners.append(MultiStoppingTuple(tuple(rules[i] for i in combo)))

    return OracleReport(
        model=model,
        reward=psi,
        start=start,
        value=best,
        optimal_tuples=tuple(winners),
        enumerated_count=seen,
        elapsed=time.perf_counter() - t_begin,
        instance_hash=instance_fingerprint(model, psi, start),
        constraint=constraint,
        min_gap=min_gap,
    )


class _Terms(dict):
    """One leaf's weight · ψ per stop-time vector ``front + (last,)``, held as
    ``self[front][last]``; each entry is computed on first use."""

    def __init__(self, psi: MultiReward, path: tuple[str, ...], weight: float, front=None):
        self.args = psi, path, weight, front

    def __missing__(self, key):
        psi, path, weight, front = self.args
        self[key] = (_Terms(psi, path, weight, key) if front is None
                     else weight * psi.evaluate(path, front + (key,)))
        return self[key]


def _ordered_fold(model: TreeModel, start: str, d: int, gap: int, unit, zero, stop, join):
    """Fold the ordered-tuple recurrence over the states reachable from ``start``.

    A state ``(k, a)`` at node n leaves k components to place, none before
    time a (raised to n's own time t). With F(n, 0, a) = ``unit``,
    F(n, k, a) = ``stop(n, F(n, k - 1, t + gap))`` if a == t, else ``zero``,
    plus ``join([F(c, k, a) per child c], k)`` if n has children. A forward
    pass collects the reachable states, a backward pass folds them bottom-up.
    """
    order = tuple(model.subtree_ids(start))
    reach = {start: {(d, model.time(start))}}
    for nid in order:
        t, states = model.time(nid), reach[nid]
        for k in range(d, 0, -1):  # a stop leads to a state of lower k at the same node
            for a in [a for kk, a in states if kk == k]:
                if a == t:
                    states.add((k - 1, t + gap))
                for cid, _ in model.children(nid):
                    reach.setdefault(cid, set()).add((k, max(a, t + 1)))
    folded: dict[str, dict[tuple[int, int], object]] = {}
    for nid in reversed(order):  # children before their parent
        t, kids = model.time(nid), model.children(nid)
        out: dict[tuple[int, int], object] = {}
        for k, a in sorted(reach.pop(nid)):  # lower k first
            if k == 0:
                out[k, a] = unit
                continue
            value = stop(nid, out[k - 1, t + gap]) if a == t else zero
            if kids:
                value = value + join([folded[cid][k, max(a, t + 1)] for cid, _ in kids], k)
            out[k, a] = value
        for cid, _ in kids:
            del folded[cid]
        folded[nid] = out
    return folded[start][d, model.time(start)]


def _count_ordered(model: TreeModel, start: str, d: int, gap: int) -> int:
    return _ordered_fold(model, start, d, gap, 1, 0, lambda nid, rest: rest,
                         lambda parts, k: prod(parts))


def _ordered_cuts(model: TreeModel, start: str, d: int, gap: int) -> list[tuple[frozenset[str], ...]]:
    """Every ordered d-tuple of cuts with pathwise gaps >= ``gap``: stopping at a
    node first, then child combinations with the first child varying slowest.
    Equal cuts share one object, so each distinct cut is held once."""
    interned: dict[frozenset[str], frozenset[str]] = {}

    def intern(cut: frozenset[str]) -> frozenset[str]:
        return interned.setdefault(cut, cut)

    def stop(nid: str, rest):
        single = intern(frozenset((nid,)))
        return [(single,) + r for r in rest]

    def join(parts, k: int):
        return [tuple(intern(frozenset().union(*(part[j] for part in combo))) for j in range(k))
                for combo in product(*parts)]

    return _ordered_fold(model, start, d, gap, [()], [], stop, join)


def tuple_order_below(a, b) -> bool:
    """Whether time vector ``a`` is below-or-equal ``b`` in the d-fold order.

    The order compares minima first; on equal minima some position must
    attain the minimum in both vectors and leave below-or-equal reduced
    vectors behind. For d = 1 it is the usual order on integers.
    """
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if len(a) != len(b):
        raise ValueError(f"cannot compare tuples of lengths {len(a)} and {len(b)}")
    pending = [(a, b)]  # reduced pairs still to try
    while pending:
        a, b = pending.pop()
        ma, mb = min(a), min(b)
        if ma < mb or (ma == mb and len(a) == 1):
            return True
        if ma == mb:
            pending.extend((a[:i] + a[i + 1 :], b[:i] + b[i + 1 :])
                           for i in range(len(a)) if a[i] == ma == b[i])
    return False


def order_violations(
    candidate: MultiStoppingTuple, others
) -> tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]:
    """The first 20 (leaf, candidate times, other times) triples where
    ``candidate`` is not below-or-equal a tuple of ``others`` on the path to a leaf."""
    model, d = candidate.model, candidate.d
    violations = []
    for other in others:
        for leaf, _, _, times in model.leaf_paths(candidate.start,
                                                  candidate.stop_sets + other.stop_sets):
            mine, theirs = times[:d], times[d:]
            if not tuple_order_below(mine, theirs):
                violations.append((leaf, mine, theirs))
                if len(violations) >= 20:
                    return tuple(violations)
    return tuple(violations)


@dataclass(frozen=True)
class CertificationVerdict:
    """Comparison of a backward-induction solution with the enumeration oracle."""

    instance_hash: str
    solver_value: float
    oracle_value: float
    value_delta: float
    value_ok: bool
    tuple_attains: bool
    minimal: bool
    passed: bool
    violations: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = ()

    def to_dict(self) -> dict:
        return {
            "instance_hash": self.instance_hash,
            "solver_value": self.solver_value,
            "oracle_value": self.oracle_value,
            "value_delta": self.value_delta,
            "value_ok": self.value_ok,
            "tuple_attains": self.tuple_attains,
            "minimal": self.minimal,
            "passed": self.passed,
            "violations": [list(map(repr, v)) for v in self.violations],
        }


def certify(report: SolveReport, oracle_report: OracleReport, *, eps: float = EPS_EQ) -> CertificationVerdict:
    """Cross-check a solver report against an oracle report for the same instance.

    Passing means: values agree, the solver's tuple attains the oracle value
    under the oracle's own evaluator, and the solver's tuple sits pathwise
    below-or-equal every enumerated maximizer.
    """
    check_eps(eps)
    if report.instance_hash != oracle_report.instance_hash:
        raise ValueError("solver and oracle reports describe different instances")
    if oracle_report.min_gap is not None:
        raise ValueError(
            f"oracle report was enumerated under the constraint {oracle_report.constraint!r}; "
            "certify needs an unconstrained one"
        )
    delta = abs(report.value - oracle_report.value)
    value_ok = delta <= eps
    attained = tuple_value(report.stopping_tuple, report.reward)
    tuple_attains = abs(attained - oracle_report.value) <= eps
    violations = order_violations(report.stopping_tuple, oracle_report.optimal_tuples)
    minimal = not violations

    return CertificationVerdict(
        instance_hash=report.instance_hash,
        solver_value=report.value,
        oracle_value=oracle_report.value,
        value_delta=delta,
        value_ok=value_ok,
        tuple_attains=tuple_attains,
        minimal=minimal,
        passed=value_ok and tuple_attains and minimal,
        violations=violations,
    )
