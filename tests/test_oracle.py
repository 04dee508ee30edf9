"""Enumeration oracle: counts, determinism, constraints, caps, certification."""
from __future__ import annotations

import random

import pytest

from stoptree import (
    CapExceededError,
    InfeasibleError,
    MultiReward,
    NodeProcess,
    brute_force_value,
    build_tree_from_spec,
    certify,
    solve_multi,
)
from tests.conftest import make_binary_tree, make_table_reward


def test_single_stop_enumeration(depth2):
    model, x = depth2
    rep = brute_force_value(model, MultiReward.additive(x, 1), "n0")
    assert rep.value == 2.0
    assert rep.enumerated_count == 5
    # two rules tie at the optimum: the early one and the stop-at-the-end one
    assert sorted(sorted(t.components[0].stop_set) for t in rep.optimal_tuples) == [
        ["dd", "du", "u"],
        ["dd", "du", "ud", "uu"],
    ]


def test_pairs_enumeration(depth2):
    model, x = depth2
    rep = brute_force_value(model, MultiReward.additive(x, 2), "n0")
    assert rep.value == 4.0
    assert rep.enumerated_count == 25  # 5 rules, squared
    assert len(rep.optimal_tuples) == 4  # 2 optimal rules per component
    assert rep.constraint == "none"


def test_enumeration_is_deterministic(depth2):
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    a = brute_force_value(model, psi, "n0")
    b = brute_force_value(model, psi, "n0")
    assert [
        [sorted(c.stop_set) for c in t.components] for t in a.optimal_tuples
    ] == [
        [sorted(c.stop_set) for c in t.components] for t in b.optimal_tuples
    ]


def test_tuple_cap(depth2):
    model, x = depth2
    with pytest.raises(CapExceededError) as err:
        brute_force_value(model, MultiReward.additive(x, 2), "n0", cap_tuples=10)
    assert err.value.count == 25


def test_ordered_count_on_deep_chain_hits_cap():
    horizon = 1500
    rows = [{"id": "c0", "time": 0}] + [
        {"id": f"c{t}", "time": t, "parent": f"c{t - 1}", "prob": 1.0}
        for t in range(1, horizon + 1)
    ]
    model = build_tree_from_spec({"horizon": horizon, "nodes": rows})
    psi = MultiReward.additive(NodeProcess.constant(model, 1.0), 2)
    with pytest.raises(CapExceededError) as err:
        brute_force_value(model, psi, "c0", min_gap=1, cap_tuples=10)
    assert err.value.count == 1_125_750  # pairs t1 < t2 out of 1501 times


def test_time_budget():
    rng = random.Random(2)
    model = make_binary_tree(rng, 3)
    psi = make_table_reward(rng, model, 3)
    with pytest.raises(CapExceededError, match="budget"):
        brute_force_value(model, psi, "n0", time_budget=0.0)


def test_ordered_constraint_walkthrough(depth2):
    # gap 2 on horizon 2 leaves exactly one schedule: stop now, stop at the end
    model, x = depth2
    rep = brute_force_value(model, MultiReward.additive(x, 2), "n0", min_gap=2)
    assert rep.enumerated_count == 1
    assert rep.value == 3.0  # 1 + E[x at time 2] = 1 + 2
    assert rep.constraint == "ordered, gap >= 2"
    assert rep.min_gap == 2


def test_ordered_without_gap_matches_free_optimum(depth2):
    # the free optimum repeats one rule twice, which is an ordered pair
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    free = brute_force_value(model, psi, "n0")
    ordered = brute_force_value(model, psi, "n0", min_gap=0)
    assert ordered.value == free.value == 4.0
    assert ordered.enumerated_count == 14


def test_ordered_tuples_respect_gap_pathwise(depth2):
    model, x = depth2
    rep = brute_force_value(model, MultiReward.additive(x, 2), "n0", min_gap=1)
    for t in rep.optimal_tuples:
        for leaf in model.leaves_below("n0"):
            t1, t2 = t.times_on_path(leaf)
            assert t2 - t1 >= 1


def test_infeasible_constraint(depth2):
    model, x = depth2
    with pytest.raises(InfeasibleError):
        brute_force_value(model, MultiReward.additive(x, 2), "n0", min_gap=3)


def test_certify_passes_on_clean_instance(depth2):
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    rep = solve_multi(model, psi, "n0")
    verdict = certify(rep, brute_force_value(model, psi, "n0"))
    assert verdict.passed
    assert verdict.value_ok and verdict.tuple_attains and verdict.minimal
    assert verdict.value_delta == 0.0
    assert not verdict.violations
    d = verdict.to_dict()
    assert d["passed"] is True and d["oracle_value"] == 4.0


def test_certify_fails_without_order_minimum(tie_instance):
    model, psi = tie_instance
    rep = solve_multi(model, psi, "n0")
    verdict = certify(rep, brute_force_value(model, psi, "n0"))
    assert verdict.value_ok and verdict.tuple_attains
    assert not verdict.minimal and not verdict.passed
    assert verdict.violations


def test_certify_rejects_mismatched_instances(depth2):
    model, x = depth2
    rep = solve_multi(model, MultiReward.additive(x, 2), "n0")
    other = brute_force_value(model, MultiReward.multiplicative(x, 2), "n0")
    with pytest.raises(ValueError, match="different instances"):
        certify(rep, other)


def test_oracle_agrees_with_solver_on_random_instances():
    rng = random.Random(64)
    for _ in range(8):
        model = make_binary_tree(rng, rng.choice([2, 3]))
        d = rng.choice([1, 2])
        psi = make_table_reward(rng, model, d)
        rep = solve_multi(model, psi, "n0")
        orep = brute_force_value(model, psi, "n0")
        assert rep.value == orep.value
        assert certify(rep, orep).value_ok
