"""Optimal single stopping on finite event trees.

Backward induction computes the value envelope v — the smallest process that
dominates the reward and loses nothing in expectation one step ahead — and the
first visit to {v = reward} is the earliest optimal stopping rule. A relaxed
rule that stops once the reward covers a fraction λ of the envelope comes with
the guarantee λ·v(start) ≤ expected reward collected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .market_model import (
    NodeProcess,
    StoppingTime,
    TreeModel,
    conditional_expectation,
    stopping_time_value,
)

EPS_EQ = 1e-9  # default tolerance of the post-solve checks; no stop decision reads it


def check_eps(eps: float, name: str = "eps") -> None:
    """Reject a check tolerance that is negative or not finite."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {eps!r}")


@dataclass(frozen=True)
class SnellSolution:
    """Value envelope of a reward process, plus where it touches the reward."""

    model: TreeModel
    reward: NodeProcess
    value: NodeProcess
    equality_set: frozenset[str]


def snell_solve(reward: NodeProcess) -> SnellSolution:
    """Backward induction: v = reward at leaves, v = max(reward, E[v|·]) inside."""
    model = reward.model
    values: dict[str, float] = {}
    for t in range(model.horizon, -1, -1):
        for nid in model.nodes_at_time(t):
            kids = model.children(nid)
            if not kids:
                values[nid] = reward[nid]
            else:
                cont = 0.0
                for cid, p in kids:
                    cont += p * values[cid]
                values[nid] = max(reward[nid], cont)
    value = NodeProcess(model, values)
    equality = frozenset(nid for nid in model.node_ids() if value[nid] == reward[nid])
    return SnellSolution(model=model, reward=reward, value=value, equality_set=equality)


def minimal_optimal_stop(sol: SnellSolution, start: str) -> StoppingTime:
    """First visit to the equality set {v = reward}, starting from ``start``.

    This is the pathwise-smallest optimal stopping rule.
    """
    return _first_hit(sol.model, start, sol.equality_set)


def lambda_stop(sol: SnellSolution, start: str, lam: float) -> StoppingTime:
    """First time the reward covers a λ-fraction of the envelope.

    Requires 0 < λ < 1. Leaves always qualify (there v equals the reward), so
    the rule is well defined on every path.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie strictly between 0 and 1, got {lam!r}")
    hit = frozenset(
        nid
        for nid in sol.model.node_ids()
        if lam * sol.value[nid] <= sol.reward[nid]
    )
    return _first_hit(sol.model, start, hit)


def lambda_threshold(sol: SnellSolution, start: str) -> float:
    """Largest reward/envelope ratio over the non-equality part of the subtree.

    For any λ strictly above this value, the λ-rule's hitting set collapses to
    the equality set on the subtree, so the λ-rule equals the earliest optimal
    rule. Returns 0.0 when the envelope touches the reward everywhere.
    """
    worst = 0.0
    for nid in sol.model.subtree_ids(start):
        if nid in sol.equality_set:
            continue
        v = sol.value[nid]
        if v > 0.0:
            worst = max(worst, sol.reward[nid] / v)
    return worst


@dataclass(frozen=True)
class CriteriumReport:
    """Three independently computed optimality checks for a stopping rule.

    ``attains_value`` compares E[reward at the stop] against v(start) via the
    cut-sum formula; ``stops_on_equality_and_martingale`` checks v = reward on
    every stop node and one-step fairness of v strictly before the stop;
    ``expected_reward_matches`` recomputes the expectation leaf by leaf. The
    three agree on exact instances; they are kept separate because they fail
    in different ways on a suboptimal rule.
    """

    attains_value: bool
    stops_on_equality_and_martingale: bool
    expected_reward_matches: bool

    @property
    def consistent(self) -> bool:
        return (
            self.attains_value
            == self.stops_on_equality_and_martingale
            == self.expected_reward_matches
        )

    @property
    def optimal(self) -> bool:
        return self.attains_value and self.stops_on_equality_and_martingale


def check_optimality(
    sol: SnellSolution, start: str, tau: StoppingTime, eps: float = EPS_EQ
) -> CriteriumReport:
    """Evaluate the three equivalent optimality conditions for ``tau`` at ``start``."""
    check_eps(eps)
    if tau.start != start:
        raise ValueError(f"stopping time starts at {tau.start!r}, not {start!r}")
    model = sol.model

    attained = stopping_time_value(tau, sol.reward, start)
    b1 = abs(attained - sol.value[start]) <= eps

    b2 = True
    stack = [start]
    while stack and b2:
        nid = stack.pop()
        if nid in tau.stop_set:
            if abs(sol.value[nid] - sol.reward[nid]) > eps:
                b2 = False
            continue
        if abs(conditional_expectation(sol.value, nid) - sol.value[nid]) > eps:
            b2 = False
            continue
        stack.extend(cid for cid, _ in model.children(nid))

    total = 0.0
    for _, path, weight, (t,) in model.leaf_paths(start, (tau.stop_set,)):
        total += weight * sol.reward[path[t]]
    b3 = abs(total - sol.value[start]) <= eps

    return CriteriumReport(
        attains_value=b1,
        stops_on_equality_and_martingale=b2,
        expected_reward_matches=b3,
    )


def _first_hit(model: TreeModel, start: str, hit: frozenset[str]) -> StoppingTime:
    stop_set: set[str] = set()
    stack = [start]
    while stack:
        nid = stack.pop()
        if nid in hit:
            stop_set.add(nid)
            continue
        kids = model.children(nid)
        if not kids:
            raise ValueError(f"path reached leaf {nid!r} without entering the target set")
        for cid, _ in reversed(kids):
            stack.append(cid)
    return StoppingTime(model, start, frozenset(stop_set))
