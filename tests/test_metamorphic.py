"""Metamorphic laws that must hold exactly, with `==`, on dyadic instances.

Multiplying every payoff by 2**k is an exact floating-point operation, so
every value must scale by exactly 2**k and no stop/continue decision may
move, however small or large the unit. Adding a dyadic constant to a
single-stop payoff shifts the envelope by that constant, since the child
probabilities sum to exactly 1. Reversing every node's children changes the
order in which leaves are visited, not a single value or stop set.
"""
from __future__ import annotations

import random

from hypothesis import given, strategies as st

from stoptree import (
    MultiReward,
    MultiStoppingTuple,
    Node,
    NodeProcess,
    StoppingTime,
    TreeModel,
    minimal_optimal_stop,
    snell_solve,
    solve_multi,
    swing_solve,
    symmetric_backward,
    tuple_value,
)
from tests.conftest import make_binary_tree, make_process, make_table_reward

SCALING_SEED = 2_024


def _instance():
    rng = random.Random(SCALING_SEED)
    model = make_binary_tree(rng, 3)
    return model, make_process(rng, model), make_table_reward(rng, model, 2)


def _stop_sets(tup):
    return [tau.stop_set for tau in tup.components]


@given(st.integers(-60, 60))
def test_power_of_two_scaling_is_exact(k):
    model, x, table = _instance()
    scale = 2.0 ** k
    xs = NodeProcess(model, {nid: scale * v for nid, v in x.values.items()})
    scaled_table = MultiReward.from_function(2, lambda path, times: scale * table.fn(path, times))

    sol, sol_s = snell_solve(x), snell_solve(xs)
    assert all(sol_s.value[nid] == scale * sol.value[nid] for nid in model.node_ids())
    assert sol_s.equality_set == sol.equality_set
    assert minimal_optimal_stop(sol_s, "n0").stop_set == minimal_optimal_stop(sol, "n0").stop_set

    rep, rep_s = solve_multi(model, table, "n0"), solve_multi(model, scaled_table, "n0")
    assert rep_s.value == scale * rep.value
    assert rep_s.snell.equality_set == rep.snell.equality_set
    assert _stop_sets(rep_s.stopping_tuple) == _stop_sets(rep.stopping_tuple)

    sym = symmetric_backward(model, MultiReward.additive(x, 2), "n0")
    sym_s = symmetric_backward(model, MultiReward.additive(xs, 2), "n0")
    assert sym_s.value == scale * sym.value
    assert _stop_sets(sym_s.components) == _stop_sets(sym.components)

    for delta in (0, 1):
        sw, sw_s = swing_solve(model, x, 2, delta, "n0"), swing_solve(model, xs, 2, delta, "n0")
        assert sw_s.value == scale * sw.value
        assert _stop_sets(sw_s.components) == _stop_sets(sw.components)


def _reversed_children(model):
    nodes = {}
    for nid in model.node_ids():
        n = model.node(nid)
        nodes[nid] = Node(n.id, n.time, n.parent, tuple(reversed(n.children)))
    return TreeModel(model.horizon, nodes, model.root)


def _moved(tup, model):
    return MultiStoppingTuple(
        tuple(StoppingTime(model, tau.start, tau.stop_set) for tau in tup.components)
    )


@given(st.integers(0, 10**6))
def test_reordering_children_changes_nothing(seed):
    rng = random.Random(seed)
    model = make_binary_tree(rng, 3)
    x, table = make_process(rng, model), make_table_reward(rng, model, 2)
    rev = _reversed_children(model)
    assert list(rev.leaves_below("n0")) == list(reversed(list(model.leaves_below("n0"))))
    x_rev = NodeProcess(rev, x.values)

    sol, sol_r = snell_solve(x), snell_solve(x_rev)
    assert sol_r.value.values == sol.value.values
    assert sol_r.equality_set == sol.equality_set
    assert minimal_optimal_stop(sol_r, "n0").stop_set == minimal_optimal_stop(sol, "n0").stop_set

    rep, rep_r = solve_multi(model, table, "n0"), solve_multi(rev, table, "n0")
    assert rep_r.value == rep.value
    assert rep_r.snell.equality_set == rep.snell.equality_set
    assert _stop_sets(rep_r.stopping_tuple) == _stop_sets(rep.stopping_tuple)
    assert tuple_value(_moved(rep.stopping_tuple, rev), table) == tuple_value(rep.stopping_tuple, table)

    for psi, psi_r in ((MultiReward.additive(x, 2), MultiReward.additive(x_rev, 2)),
                       (MultiReward.multiplicative(x, 2), MultiReward.multiplicative(x_rev, 2))):
        sym, sym_r = symmetric_backward(model, psi, "n0"), symmetric_backward(rev, psi_r, "n0")
        assert sym_r.value == sym.value
        assert _stop_sets(sym_r.components) == _stop_sets(sym.components)
        assert tuple_value(_moved(sym.components, rev), psi_r) == tuple_value(sym.components, psi)

    for delta in (0, 1):
        sw, sw_r = swing_solve(model, x, 2, delta, "n0"), swing_solve(rev, x_rev, 2, delta, "n0")
        assert sw_r.value == sw.value
        assert _stop_sets(sw_r.components) == _stop_sets(sw.components)
        assert sw_r.exercise_times == sw.exercise_times


@given(st.integers(0, 2**12), st.integers(0, 8))
def test_adding_a_constant_shifts_the_single_stop_value(numerator, log_denominator):
    c = numerator / 2**log_denominator
    model, x, _ = _instance()
    xc = NodeProcess(model, {nid: v + c for nid, v in x.values.items()})
    sol, sol_c = snell_solve(x), snell_solve(xc)
    assert all(sol_c.value[nid] == sol.value[nid] + c for nid in model.node_ids())
    assert sol_c.equality_set == sol.equality_set
    assert minimal_optimal_stop(sol_c, "n0").stop_set == minimal_optimal_stop(sol, "n0").stop_set
