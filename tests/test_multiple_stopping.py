"""d-fold stopping: nested values, reduction, tuple assembly, the d-fold order."""
from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from stoptree import (
    CapExceededError,
    MultiReward,
    MultiStoppingTuple,
    NestedValue,
    StoppingTime,
    brute_force_value,
    build_tree_from_spec,
    minimal_optimal_stop,
    snell_solve,
    solve_multi,
    tuple_order_below,
    tuple_value,
    u_component,
)
from stoptree.oracle import order_violations
from tests.conftest import make_binary_tree, make_table_reward


def _one_step_chain():
    """Horizon-1 chain with ψ = A(τ₁) + B(τ₂), A = (1, 0), B = (0, 1)."""
    model = build_tree_from_spec({
        "horizon": 1,
        "nodes": [
            {"id": "c0", "time": 0},
            {"id": "c1", "time": 1, "parent": "c0", "prob": 1.0},
        ],
    })
    table = {
        ("c0", (0, 0)): 1.0,   # A(0) + B(0)
        ("c1", (0, 1)): 2.0,   # A(0) + B(1)
        ("c1", (1, 0)): 0.0,
        ("c1", (1, 1)): 1.0,
    }
    return model, MultiReward.from_table(2, table)


def test_commit_values_on_the_chain():
    # committing the first component now keeps the good late payoff alive (2);
    # committing the second now forfeits it (1)
    model, psi = _one_step_chain()
    assert u_component(model, psi, (), 0, "c0") == 2.0
    assert u_component(model, psi, (), 1, "c0") == 1.0
    rep = solve_multi(model, psi, "c0")
    assert rep.new_reward_process["c0"] == 2.0
    assert rep.value == 2.0
    assert rep.stopping_tuple.times_on_path("c1") == (0, 1)


def test_u_component_validation():
    model, psi = _one_step_chain()
    with pytest.raises(ValueError, match="already committed"):
        u_component(model, psi, ((0, 0),), 0, "c1")
    with pytest.raises(ValueError, match="after node"):
        u_component(model, psi, ((0, 1),), 1, "c0")
    nested = NestedValue(model, psi)
    with pytest.raises(ValueError, match="committed twice"):
        nested.residual_value(((0, 0), (0, 1)), "c1")


def test_additive_reduces_to_independent_stops(depth2):
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    rep = solve_multi(model, psi, "n0")
    assert rep.value == 4.0  # twice the single-stop value
    assert rep.diagnostics["reduction_residual"] == 0.0
    # both components are optimal single rules on their own
    from stoptree import stopping_time_value

    for tau in rep.stopping_tuple.components:
        assert stopping_time_value(tau, x, "n0") == 2.0
    assert tuple_value(rep.stopping_tuple, psi) == 4.0


def test_table_instance_values(table_d2):
    model, psi = table_d2
    rep = solve_multi(model, psi, "n0")
    assert rep.value == 3.75
    assert {nid: rep.new_reward_process[nid] for nid in model.node_ids()} == {
        "n0": 3.5, "u": 1.5, "uu": 1.0, "ud": 1.0, "d": 6.0, "du": 2.0, "dd": 3.0,
    }
    assert sorted(rep.stopping_tuple.components[0].stop_set) == ["d", "ud", "uu"]
    assert sorted(rep.stopping_tuple.components[1].stop_set) == ["d", "u"]


def test_commit_values_are_the_u_processes(reduction_corpus):
    """u^(i)(n) commits component i at n with the rest free; φ is their max."""
    for model, psi, d in reduction_corpus:
        rep = solve_multi(model, psi, "n0")
        nested = NestedValue(model, psi)
        assert len(rep.commit_values) == d
        for n in model.node_ids():
            for i in range(d):
                assert rep.commit_values[i][n] == u_component(model, psi, (), i, n, nested)
            assert rep.new_reward_process[n] == max(u[n] for u in rep.commit_values)


def test_d1_reduces_to_single_stopping(depth2):
    model, x = depth2
    rep = solve_multi(model, MultiReward.additive(x, 1), "n0")
    sol = snell_solve(x)
    assert rep.value == sol.value["n0"] == 2.0
    assert rep.stopping_tuple.components[0].stop_set == \
        minimal_optimal_stop(sol, "n0").stop_set


def test_reduction_identity_equals_envelope_of_new_reward(depth2):
    model, x = depth2
    psi = MultiReward.multiplicative(x, 2)
    rep = solve_multi(model, psi, "n0")
    env = snell_solve(rep.new_reward_process)
    assert rep.value == env.value["n0"] == 8.0
    assert rep.snell.value.values == env.value.values


def test_earliest_component_matches_reduced_rule(depth2):
    model, x = depth2
    for psi in (MultiReward.additive(x, 2), MultiReward.multiplicative(x, 3)):
        rep = solve_multi(model, psi, "n0")
        theta = minimal_optimal_stop(rep.snell, "n0")
        for leaf in model.leaves_below("n0"):
            assert min(rep.stopping_tuple.times_on_path(leaf)) == \
                theta.stop_time_on_path(leaf)


def test_smallest_index_commits_first_on_symmetric_rewards():
    rng = random.Random(99)
    for _ in range(5):
        model = make_binary_tree(rng, 3)
        psi = make_table_reward(rng, model, 2, symmetric=True)
        rep = solve_multi(model, psi, "n0")
        for leaf in model.leaves_below("n0"):
            t = rep.stopping_tuple.times_on_path(leaf)
            assert t[0] <= t[1]


def test_solve_from_inner_node(depth2):
    model, x = depth2
    rep = solve_multi(model, MultiReward.additive(x, 2), "d")
    assert rep.value == 8.0  # v(d) = 4, twice
    assert rep.stopping_tuple.start == "d"


def test_state_cap(monkeypatch):
    rng = random.Random(5)
    model = make_binary_tree(rng, 3)
    psi = make_table_reward(rng, model, 3)
    monkeypatch.setattr("stoptree.multiple_stopping.DEFAULT_STATE_CAP", 10)
    with pytest.raises(CapExceededError):
        solve_multi(model, psi, "n0")


def test_tuple_container_validation(depth2):
    model, x = depth2
    a = StoppingTime(model, "n0", frozenset({"n0"}))
    b = StoppingTime(model, "d", frozenset({"d"}))
    with pytest.raises(ValueError, match="different nodes"):
        MultiStoppingTuple((a, b))
    with pytest.raises(ValueError, match="at least one"):
        MultiStoppingTuple(())
    with pytest.raises(ValueError, match="slots"):
        tuple_value(MultiStoppingTuple((a,)), MultiReward.additive(x, 2))


# -- the d-fold order -----------------------------------------------------


def test_order_closed_form_d2():
    # smaller minimum wins; on equal minima the order is componentwise
    for a in product(range(4), repeat=2):
        for b in product(range(4), repeat=2):
            expected = min(a) < min(b) if min(a) != min(b) else (
                a[0] <= b[0] and a[1] <= b[1]
            )
            assert tuple_order_below(a, b) == expected, (a, b)


def test_order_examples():
    # (a below b, b below a): equal, less, or incomparable
    equal, less, incomparable = (True, True), (True, False), (False, False)
    for a, b, expected in [((0, 1), (1, 0), incomparable),
                           ((1, 2), (1, 3), less),
                           ((2,), (3,), less),
                           ((1, 2), (1, 2), equal),
                           ((2, 2, 3), (2, 3, 2), incomparable),
                           ((0, 5, 7), (1, 2, 2), less)]:
        assert (tuple_order_below(a, b), tuple_order_below(b, a)) == expected, (a, b)
    with pytest.raises(ValueError):
        tuple_order_below((1, 2), (1, 2, 3))


def test_order_is_a_partial_order_d3():
    dom = list(product(range(3), repeat=3))
    for a in dom:
        assert tuple_order_below(a, a)
    for a in dom:
        for b in dom:
            if tuple_order_below(a, b) and tuple_order_below(b, a):
                assert a == b


@given(
    st.tuples(*[st.integers(0, 4)] * 3),
    st.tuples(*[st.integers(0, 4)] * 3),
    st.tuples(*[st.integers(0, 4)] * 3),
)
def test_order_transitivity(a, b, c):
    if tuple_order_below(a, b) and tuple_order_below(b, c):
        assert tuple_order_below(a, c)


# -- minimality verification ----------------------------------------------


def test_verify_minimal_on_clean_instance(depth2):
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    rep = solve_multi(model, psi, "n0")
    orep = brute_force_value(model, psi, "n0")
    assert tuple_value(rep.stopping_tuple, psi) == orep.value == 4.0  # optimal...
    assert not order_violations(rep.stopping_tuple, orep.optimal_tuples)  # ...and minimal


def test_verify_flags_tied_incomparable_optima(tie_instance):
    # two optimal pairs, (0,1) and (1,0): whichever the solver picks cannot
    # sit below the other, so no order-minimal optimum exists here
    model, psi = tie_instance
    rep = solve_multi(model, psi, "n0")
    assert rep.value == 2.0
    orep = brute_force_value(model, psi, "n0")
    assert tuple_value(rep.stopping_tuple, psi) == orep.value  # optimal...
    assert order_violations(rep.stopping_tuple, orep.optimal_tuples)  # ...but not minimal
    assert len(orep.optimal_tuples) == 2


def test_verify_flags_suboptimal_candidate(depth2):
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    late = StoppingTime(model, "n0", frozenset({"uu", "ud", "du", "dd"}))
    both_late = MultiStoppingTuple((late, late))
    orep = brute_force_value(model, psi, "n0")
    assert tuple_value(both_late, psi) == 4.0 == orep.value  # stopping at the horizon ties here...
    assert order_violations(both_late, orep.optimal_tuples)  # ...but stops later than the earliest optimum
    rushed = StoppingTime(model, "n0", frozenset({"n0"}))
    assert tuple_value(MultiStoppingTuple((rushed, rushed)), psi) == 2.0 < orep.value  # not optimal
