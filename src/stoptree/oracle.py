"""Brute-force enumeration oracle and certification against it.

This module deliberately shares no optimization logic with the solvers: it
enumerates stopping tuples outright, evaluates each one leaf by leaf, and
keeps every maximizer. Slow by design, trustworthy by construction — its
purpose is to certify the backward-induction results on small instances.
The d-fold order on stop-time vectors, and the pathwise-minimality check
built on it, live here too.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

from .market_model import (
    CapExceededError,
    InfeasibleError,
    MultiReward,
    StoppingTime,
    TreeModel,
    all_cuts,
    count_stopping_times,
    instance_fingerprint,
)
from .multiple_stopping import MultiStoppingTuple, SolveReport, tuple_value
from .single_stopping import EPS_EQ

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
    time_budget: float = DEFAULT_TIME_BUDGET,
    eps: float = EPS_EQ,
) -> OracleReport:
    """Enumerate every admissible stopping tuple and keep all maximizers.

    ``min_gap=None`` ranges over unordered tuples of free stopping times;
    ``min_gap=k`` restricts to ordered tuples with consecutive stop times at
    least ``k`` apart on every path (``k=0`` meaning merely ordered). Raises
    :class:`InfeasibleError` when the constrained feasible set is empty and
    :class:`CapExceededError` when the tuple count or time budget is blown.
    Enumeration order is deterministic.
    """
    if start not in model:
        raise ValueError(f"unknown start node {start!r}")
    t_begin = time.perf_counter()

    leaves = tuple(model.leaves_below(start))
    paths = {leaf: model.path_to(leaf) for leaf in leaves}
    weights = {leaf: model.cond_prob(start, leaf) for leaf in leaves}

    def cut_times(cut: frozenset[str]) -> dict[str, int]:
        out = {}
        for leaf in leaves:
            for nid in paths[leaf]:
                if nid in cut:
                    out[leaf] = model.time(nid)
                    break
        return out

    def evaluate(per_component_times: tuple[dict[str, int], ...]) -> float:
        total = 0.0
        for leaf in leaves:
            times = tuple(m[leaf] for m in per_component_times)
            total += weights[leaf] * psi.evaluate(paths[leaf], times)
        return total

    if min_gap is None:
        total_count = count_stopping_times(model, start) ** psi.d
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

    def tuples():
        if min_gap is None:
            cuts = all_cuts(model, start)
            maps = [cut_times(c) for c in cuts]
            for combo in product(range(len(cuts)), repeat=psi.d):
                yield tuple(cuts[i] for i in combo), tuple(maps[i] for i in combo)
        else:
            for combo in _ordered_cuts(model, start, psi.d, min_gap):
                yield combo, tuple(cut_times(c) for c in combo)

    def scan():
        best = None
        seen = 0
        for _, time_maps in tuples():
            val = evaluate(time_maps)
            if best is None or val > best:
                best = val
            seen += 1
            if seen % 1024 == 0 and time.perf_counter() - t_begin > time_budget:
                raise CapExceededError(
                    f"oracle ran past its {time_budget}s budget after {seen} tuples",
                    count=seen,
                )
        return best, seen

    value, enumerated = scan()
    assert value is not None

    winners: list[MultiStoppingTuple] = []
    rescanned = 0
    for cut_combo, time_maps in tuples():
        if evaluate(time_maps) >= value - eps:
            winners.append(
                MultiStoppingTuple(
                    tuple(StoppingTime(model, start, c) for c in cut_combo)
                )
            )
        rescanned += 1
        if rescanned % 1024 == 0 and time.perf_counter() - t_begin > 4 * time_budget:
            raise CapExceededError(
                f"oracle ran past its collection budget after {rescanned} tuples",
                count=rescanned,
            )

    return OracleReport(
        model=model,
        reward=psi,
        start=start,
        value=value,
        optimal_tuples=tuple(winners),
        enumerated_count=enumerated,
        elapsed=time.perf_counter() - t_begin,
        instance_hash=instance_fingerprint(model, psi, start),
        constraint=constraint,
        min_gap=min_gap,
    )


def _count_ordered(model: TreeModel, start: str, d: int, gap: int) -> int:
    def rec(nid: str, k: int, a: int) -> int:
        if k == 0:
            return 1
        total = 0
        if model.time(nid) >= a:
            total += rec(nid, k - 1, model.time(nid) + gap)
        kids = model.children(nid)
        if kids:
            prod_count = 1
            for cid, _ in kids:
                prod_count *= rec(cid, k, a)
            total += prod_count
        return total

    return rec(start, d, model.time(start))


def _ordered_cuts(model: TreeModel, start: str, d: int, gap: int):
    """Yield ordered d-tuples of cuts with pathwise gaps >= ``gap``, deterministically."""

    def rec(nid: str, k: int, a: int) -> list[tuple[frozenset[str], ...]]:
        if k == 0:
            return [()]
        out: list[tuple[frozenset[str], ...]] = []
        if model.time(nid) >= a:
            for rest in rec(nid, k - 1, model.time(nid) + gap):
                out.append((frozenset((nid,)),) + rest)
        kids = model.children(nid)
        if kids:
            per_child = [rec(cid, k, a) for cid, _ in kids]
            for combo in product(*per_child):
                merged = tuple(
                    frozenset().union(*(part[j] for part in combo)) for j in range(k)
                )
                out.append(merged)
        return out

    yield from rec(start, d, model.time(start))


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
    candidate: MultiStoppingTuple, others, leaves
) -> tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]:
    """The first 20 (leaf, candidate times, other times) triples where
    ``candidate`` is not below-or-equal a tuple of ``others`` on the path to a leaf."""
    mine = {leaf: candidate.times_on_path(leaf) for leaf in leaves}
    violations = []
    for other in others:
        for leaf in leaves:
            theirs = other.times_on_path(leaf)
            if not tuple_order_below(mine[leaf], theirs):
                violations.append((leaf, mine[leaf], theirs))
                if len(violations) >= 20:
                    return tuple(violations)
    return tuple(violations)


def tuple_order_compare(a, b) -> str:
    """Compare two stop-time vectors: 'equal', 'less', 'greater', or 'incomparable'."""
    ab = tuple_order_below(a, b)
    ba = tuple_order_below(b, a)
    if ab and ba:
        return "equal"
    if ab:
        return "less"
    if ba:
        return "greater"
    return "incomparable"


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of checking a candidate tuple against every enumerated optimum."""

    candidate_value: float
    oracle_value: float
    optimal_count: int
    candidate_optimal: bool
    below_all: bool
    violations: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = ()

    @property
    def minimal(self) -> bool:
        return self.candidate_optimal and self.below_all


def verify_minimal_optimal(
    model: TreeModel,
    psi: MultiReward,
    start: str,
    candidate: MultiStoppingTuple,
    *,
    cap_tuples: int | None = None,
    time_budget: float = 60.0,
    eps: float = EPS_EQ,
) -> MinimalityReport:
    """Check by exhaustive enumeration that ``candidate`` is optimal and pathwise
    below-or-equal every optimal tuple. ``violations`` lists up to 20 offending
    (leaf, candidate times, other times) triples."""
    report = brute_force_value(
        model, psi, start, time_budget=time_budget, eps=eps,
        cap_tuples=DEFAULT_TUPLE_CAP if cap_tuples is None else cap_tuples,
    )
    cand_val = tuple_value(candidate, psi)
    candidate_optimal = abs(cand_val - report.value) <= eps
    violations = order_violations(
        candidate, report.optimal_tuples, tuple(model.leaves_below(start))
    )
    return MinimalityReport(
        candidate_value=cand_val,
        oracle_value=report.value,
        optimal_count=len(report.optimal_tuples),
        candidate_optimal=candidate_optimal,
        below_all=not violations,
        violations=violations,
    )


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
    if report.instance_hash != oracle_report.instance_hash:
        raise ValueError("solver and oracle reports describe different instances")
    delta = abs(report.value - oracle_report.value)
    value_ok = delta <= eps
    attained = tuple_value(report.stopping_tuple, report.reward)
    tuple_attains = abs(attained - oracle_report.value) <= eps
    violations = order_violations(
        report.stopping_tuple,
        oracle_report.optimal_tuples,
        tuple(report.model.leaves_below(report.start)),
    )
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
