"""Metamorphic laws that must hold exactly, with `==`, on dyadic instances.

Multiplying every payoff by 2**k is an exact floating-point operation, so
every value must scale by exactly 2**k and no stop/continue decision may
move, however small or large the unit.
"""
from __future__ import annotations

import random

from hypothesis import given, strategies as st

from stoptree import (
    MultiReward,
    NodeProcess,
    minimal_optimal_stop,
    snell_solve,
    solve_multi,
    swing_solve,
    symmetric_backward,
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
