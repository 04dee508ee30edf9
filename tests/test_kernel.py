"""The backward-induction kernel: each time level's states are listed once,
a fill stays inside the queried subtree, the state budget is checked
before any value is computed, and ψ's result is checked on every call."""
from __future__ import annotations

import random
import time

import pytest

from stoptree import (
    CapExceededError,
    MultiReward,
    NestedValue,
    NodeProcess,
    brute_force_value,
    build_tree_from_spec,
    solve_multi,
    swing_solve,
    symmetric_backward,
)
from stoptree.multiple_stopping import BackwardInduction
from stoptree.symmetric_swing import _Ordered, _Swing
from tests.conftest import make_binary_tree, make_process, make_table_reward


def _counting(cls):
    class Counting(cls):
        stop_calls = 0

        def _stops(self, *args):
            self.stop_calls += 1
            return super()._stops(*args)

    return Counting


def _tables(model, rng):
    y = make_process(rng, model)
    return {
        "nested": _counting(NestedValue)(model, make_table_reward(rng, model, 2)),
        "ordered": _counting(_Ordered)(model, MultiReward.additive(y, 3)),
        "swing": _counting(_Swing)(model, y, 3, 1),
    }


@pytest.mark.parametrize("kind, root_state", [("nested", (None, None)), ("ordered", ()), ("swing", (3, 0))])
def test_each_level_lists_its_states_once(kind, root_state):
    rng = random.Random(7)
    model = make_binary_tree(rng, 5)
    table = _tables(model, rng)[kind]
    table.value(root_state, "n0")
    open_pairs = {(t, s) for nid, vals in table._values.items()
                  for t in [model.time(nid)] for s, slot in table._slots[t].items()
                  if slot < len(vals) and vals[slot] is not None and table._rank(s) < table.d}
    assert table.stop_calls == len(open_pairs)
    assert set(table._values) == set(model.node_ids())


@pytest.mark.parametrize("kind, state", [("nested", (None, None)), ("ordered", ()), ("swing", (3, 1))])
def test_fill_from_inner_node_stays_in_its_subtree(kind, state):
    rng = random.Random(8)
    model = make_binary_tree(rng, 4)
    table = _tables(model, rng)[kind]
    table.value(state, "n0u")
    assert table._values
    assert set(table._values) <= set(model.subtree_ids("n0u"))


def _multi(d):
    return lambda model, y: solve_multi(model, MultiReward.additive(y, d), model.root)


SOLVES = {
    "multi-d2": _multi(2),
    "multi-d3": _multi(3),
    "symmetric-d3": lambda model, y: symmetric_backward(model, MultiReward.additive(y, 3), model.root),
    "swing-d3-gap1": lambda model, y: swing_solve(model, y, 3, 1, model.root),
}
# the smallest DEFAULT_STATE_CAP each solve succeeds at
BUDGETS = [
    ("depth2", "multi-d2", 68), ("depth2", "multi-d3", 284),
    ("depth2", "symmetric-d3", 86), ("depth2", "swing-d3-gap1", 19),
    ("depth4", "multi-d2", 516), ("depth4", "multi-d3", 3500),
    ("depth4", "symmetric-d3", 862), ("depth4", "swing-d3-gap1", 103),
]


@pytest.mark.parametrize("fixture, solve, cap", BUDGETS)
def test_state_budget_is_exact(fixture, solve, cap, request, monkeypatch):
    model, y = request.getfixturevalue(fixture)
    monkeypatch.setattr("stoptree.multiple_stopping.DEFAULT_STATE_CAP", cap)
    SOLVES[solve](model, y)
    monkeypatch.setattr("stoptree.multiple_stopping.DEFAULT_STATE_CAP", cap - 1)
    with pytest.raises(CapExceededError, match=f"budget of {cap - 1} states"):
        SOLVES[solve](model, y)


def test_over_budget_solve_never_evaluates_the_reward(depth4, monkeypatch):
    model, y = depth4
    additive = MultiReward.additive(y, 3)
    calls = []

    def fn(path, times):
        calls.append(times)
        return additive.fn(path, times)

    monkeypatch.setattr("stoptree.multiple_stopping.DEFAULT_STATE_CAP", 99)
    with pytest.raises(CapExceededError) as err:
        solve_multi(model, MultiReward.from_function(3, fn), model.root)
    assert 99 < err.value.count < 3500  # counting stops at the pair that passes the cap
    assert calls == []


def test_deep_chain_over_budget_fails_fast(monkeypatch):
    horizon, cap = 200, 10_000  # all 200 levels would hold about 4e8 states
    rows = [{"id": "c0", "time": 0}] + [
        {"id": f"c{t}", "time": t, "parent": f"c{t - 1}", "prob": 1.0}
        for t in range(1, horizon + 1)
    ]
    model = build_tree_from_spec({"horizon": horizon, "nodes": rows})
    y = NodeProcess(model, {nid: 1.0 for nid in model.node_ids()})
    table = NestedValue(model, MultiReward.additive(y, 3))
    monkeypatch.setattr("stoptree.multiple_stopping.DEFAULT_STATE_CAP", cap)
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as err:
        table.residual_value((), "c0")
    assert time.perf_counter() - start < 5
    assert cap < err.value.count < 2 * cap  # one level's states past the cap at most
    assert not table._values


def test_non_root_solve_fills_once(monkeypatch):
    rng = random.Random(11)
    model = make_binary_tree(rng, 8)  # 511 nodes
    psi = make_table_reward(rng, model, 2)
    fills = []
    fill = BackwardInduction._fill

    def counting(self, state, node):
        fills.append(node)
        return fill(self, state, node)

    monkeypatch.setattr(BackwardInduction, "_fill", counting)
    rep = solve_multi(model, psi, "n0u")
    assert len(fills) <= 2
    root = solve_multi(model, psi, model.root)
    for u, u_root in zip(rep.commit_values, root.commit_values):
        assert u.values == u_root.values
    alone = NestedValue(model, psi)  # filled from the start's subtree only
    assert rep.value == alone.residual_value((), "n0u")
    assert rep.stopping_tuple.stop_sets == alone.extract((None, None), "n0u").stop_sets


# (d, symmetric table, solve): the kernel's three entries and the oracle
REWARD_SOLVES = {
    "multi-table-d2": (2, False, lambda model, psi: solve_multi(model, psi, model.root)),
    "multi-table-d3": (3, False, lambda model, psi: solve_multi(model, psi, model.root)),
    "symmetric-d3": (3, True, lambda model, psi: symmetric_backward(model, psi, model.root)),
    "oracle-d2": (2, False, lambda model, psi: brute_force_value(model, psi, "n0u")),
}


@pytest.mark.parametrize("solve", REWARD_SOLVES)
@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), None],
                         ids=["negative", "nan", "inf", "valid"])
def test_reward_sees_valid_arguments_and_its_result_is_checked(solve, bad, depth4):
    model, _ = depth4
    d, symmetric, run = REWARD_SOLVES[solve]
    table = make_table_reward(random.Random(d), model, d, symmetric=symmetric)
    leaf, last = "n0uuuu", (model.horizon,) * d  # one terminal every solve evaluates

    def fn(path, times):
        assert type(path) is tuple and type(times) is tuple and len(times) == d
        assert all(type(t) is int for t in times)
        assert len(path) == max(times) + 1
        if bad is not None and path[-1] == leaf and times == last:
            return bad
        return table.fn(path, times)

    psi = MultiReward.from_function(d, fn, symmetric=symmetric)
    if bad is None:
        run(model, psi)
    else:
        with pytest.raises(ValueError, match="reward returned .*nonnegative"):
            run(model, psi)
