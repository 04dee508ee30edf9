"""Single-stopping: value envelope, earliest optimal rule, relaxed rules."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from stoptree import (
    MultiReward,
    NodeProcess,
    StoppingTime,
    brute_force_value,
    certify,
    check_optimality,
    conditional_expectation,
    lambda_stop,
    lambda_threshold,
    minimal_optimal_stop,
    snell_solve,
    solve_multi,
    stopping_time_value,
    swing_solve,
    symmetric_backward,
)
from tests.conftest import all_cuts, make_binary_tree, make_process


def test_envelope_values_by_hand(depth2):
    # leaves keep the reward; d: max(3, 4) = 4; u: max(0, 0) = 0;
    # root: max(1, (0+4)/2) = 2
    model, x = depth2
    sol = snell_solve(x)
    assert sol.value["n0"] == 2.0
    assert sol.value["u"] == 0.0
    assert sol.value["d"] == 4.0
    assert sol.value["dd"] == 4.0
    assert sol.equality_set == frozenset({"u", "uu", "ud", "du", "dd"})


def test_earliest_rule_and_cut_values(depth2):
    model, x = depth2
    sol = snell_solve(x)
    tau = minimal_optimal_stop(sol, "n0")
    assert tau.stop_set == frozenset({"u", "du", "dd"})
    by_cut = {
        cut: stopping_time_value(StoppingTime(model, "n0", cut), x, "n0")
        for cut in all_cuts(model, "n0")
    }
    assert by_cut == {
        frozenset({"n0"}): 1.0,
        frozenset({"u", "d"}): 1.5,
        frozenset({"u", "du", "dd"}): 2.0,
        frozenset({"uu", "ud", "d"}): 1.5,
        frozenset({"uu", "ud", "du", "dd"}): 2.0,
    }
    # no enumerated rule beats the envelope, and the earliest one attains it
    assert max(by_cut.values()) == sol.value["n0"]
    assert by_cut[tau.stop_set] == sol.value["n0"]


def test_earliest_rule_is_pathwise_smallest_optimum(depth2):
    model, x = depth2
    sol = snell_solve(x)
    tau = minimal_optimal_stop(sol, "n0")
    for other in (StoppingTime(model, "n0", cut) for cut in all_cuts(model, "n0")):
        if stopping_time_value(other, x, "n0") == sol.value["n0"]:
            for leaf in model.leaves_below("n0"):
                assert tau.stop_time_on_path(leaf) <= other.stop_time_on_path(leaf)


@given(st.integers(min_value=0, max_value=100_000))
def test_envelope_properties_random(seed):
    """Dominance, one-step fairness, and the backward equation — all exact."""
    rng = random.Random(seed)
    model = make_binary_tree(rng, rng.choice([1, 2, 3]))
    x = make_process(rng, model)
    sol = snell_solve(x)
    for nid in model.node_ids():
        assert sol.value[nid] >= x[nid]
        if model.is_leaf(nid):
            assert sol.value[nid] == x[nid]
        else:
            cont = conditional_expectation(sol.value, nid)
            assert cont <= sol.value[nid]
            assert sol.value[nid] == max(x[nid], cont)


def test_start_below_root(depth2):
    model, x = depth2
    sol = snell_solve(x)
    tau = minimal_optimal_stop(sol, "d")
    assert tau.start == "d"
    assert tau.stop_set == frozenset({"du", "dd"})
    assert stopping_time_value(tau, x, "d") == 4.0


def test_lambda_stop_walkthrough(chain3):
    # envelope is 2 everywhere; rewards 0, 1, 2: the 0.4-rule stops once the
    # reward covers 0.8, i.e. at time 1; the 0.9-rule needs 1.8, i.e. time 2
    model, x = chain3
    sol = snell_solve(x)
    assert sol.value["c0"] == 2.0
    assert lambda_stop(sol, "c0", 0.4).stop_set == frozenset({"c1"})
    assert lambda_stop(sol, "c0", 0.9).stop_set == frozenset({"c2"})
    assert lambda_threshold(sol, "c0") == 0.5


def test_lambda_threshold_by_hand(depth2):
    # non-equality nodes n0 and d have ratios 1/2 and 3/4
    model, x = depth2
    sol = snell_solve(x)
    assert lambda_threshold(sol, "n0") == 0.75
    assert lambda_threshold(sol, "d") == 0.75
    assert lambda_threshold(sol, "u") == 0.0  # equality everywhere below u


def test_lambda_stop_domain():
    rng = random.Random(0)
    model = make_binary_tree(rng, 2)
    sol = snell_solve(make_process(rng, model))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            lambda_stop(sol, "n0", bad)


@given(st.integers(min_value=0, max_value=100_000))
def test_lambda_guarantee_random(seed):
    rng = random.Random(seed)
    model = make_binary_tree(rng, rng.choice([2, 3]))
    x = make_process(rng, model)
    sol = snell_solve(x)
    lam = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    rule = lambda_stop(sol, "n0", lam)
    assert stopping_time_value(rule, x, "n0") >= lam * sol.value["n0"] - 1e-9


def test_criterium_on_optimal_rule(depth2):
    model, x = depth2
    sol = snell_solve(x)
    tau = minimal_optimal_stop(sol, "n0")
    rep = check_optimality(sol, "n0", tau)
    assert rep.attains_value
    assert rep.stops_on_equality_and_martingale
    assert rep.expected_reward_matches
    assert rep.consistent and rep.optimal


def test_criterium_on_suboptimal_rule(depth2):
    # stopping immediately collects 1 < 2: all three checks must fail together
    model, x = depth2
    sol = snell_solve(x)
    from stoptree import StoppingTime

    now = StoppingTime(model, "n0", frozenset({"n0"}))
    rep = check_optimality(sol, "n0", now)
    assert not rep.attains_value
    assert not rep.stops_on_equality_and_martingale
    assert not rep.expected_reward_matches
    assert rep.consistent and not rep.optimal


def test_criterium_requires_matching_start(depth2):
    model, x = depth2
    sol = snell_solve(x)
    tau = minimal_optimal_stop(sol, "d")
    with pytest.raises(ValueError):
        check_optimality(sol, "n0", tau)


def test_constant_reward_stops_immediately():
    rng = random.Random(1)
    model = make_binary_tree(rng, 3)
    sol = snell_solve(NodeProcess(model, dict.fromkeys(model.node_ids(), 5.0)))
    assert sol.equality_set == frozenset(model.node_ids())
    assert minimal_optimal_stop(sol, "n0").stop_set == frozenset({"n0"})
    assert lambda_threshold(sol, "n0") == 0.0


# -- the check tolerance ----------------------------------------------------


def _eps_entry_points(depth2):
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    sol = snell_solve(x)
    tau = minimal_optimal_stop(sol, "n0")
    rep, orep = solve_multi(model, psi, "n0"), brute_force_value(model, psi, "n0")
    return {
        "solve_multi": lambda eps: solve_multi(model, psi, "n0", eps=eps),
        "symmetric_backward": lambda eps: symmetric_backward(model, psi, "n0", eps=eps),
        "swing_solve": lambda eps: swing_solve(model, x, 2, 1, "n0", eps=eps),
        "brute_force_value": lambda eps: brute_force_value(model, psi, "n0", eps=eps),
        "certify": lambda eps: certify(rep, orep, eps=eps),
        "check_optimality": lambda eps: check_optimality(sol, "n0", tau, eps=eps),
    }


@pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("entry", ["solve_multi", "symmetric_backward", "swing_solve",
                                   "brute_force_value", "certify", "check_optimality"])
def test_entry_points_reject_a_bad_tolerance(entry, eps, depth2):
    with pytest.raises(ValueError, match="eps must be a finite number >= 0"):
        _eps_entry_points(depth2)[entry](eps)
