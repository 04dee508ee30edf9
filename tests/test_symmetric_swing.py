"""Exchangeable rewards and swing options with a refraction period."""
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
    snell_solve,
    solve_multi,
    swing_solve,
    symmetric_backward,
    tuple_value,
)
from tests.conftest import make_binary_tree, make_process, make_table_reward


def _chain(values):
    rows = [{"id": "c0", "time": 0}] + [
        {"id": f"c{t}", "time": t, "parent": f"c{t-1}", "prob": 1.0}
        for t in range(1, len(values))
    ]
    model = build_tree_from_spec({"horizon": len(values) - 1, "nodes": rows})
    y = NodeProcess(model, {f"c{t}": float(v) for t, v in enumerate(values)})
    return model, y


# -- symmetric backward recursion ----------------------------------------


def test_symmetric_requires_symmetric_reward(table_d2):
    model, psi = table_d2
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_backward(model, psi, "n0")


def test_symmetric_matches_general_solver_additive(depth2):
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    sol = symmetric_backward(model, psi, "n0")
    assert sol.value == solve_multi(model, psi, "n0").value == 4.0
    assert tuple_value(sol.components, psi) == 4.0


def test_symmetric_matches_general_solver_multiplicative(depth2):
    model, x = depth2
    psi = MultiReward.multiplicative(x, 2)
    sol = symmetric_backward(model, psi, "n0")
    assert sol.value == solve_multi(model, psi, "n0").value == 8.0


def test_symmetric_components_are_ordered():
    rng = random.Random(17)
    for _ in range(5):
        model = make_binary_tree(rng, 3)
        psi = make_table_reward(rng, model, 3, symmetric=True)
        sol = symmetric_backward(model, psi, "n0")
        for leaf in model.leaves_below("n0"):
            times = sol.components.times_on_path(leaf)
            assert times == tuple(sorted(times))


def test_symmetric_agrees_with_oracle_on_random_tables():
    rng = random.Random(23)
    for _ in range(5):
        model = make_binary_tree(rng, 2)
        psi = make_table_reward(rng, model, 2, symmetric=True)
        sol = symmetric_backward(model, psi, "n0")
        assert sol.value == brute_force_value(model, psi, "n0").value
        assert sol.value == solve_multi(model, psi, "n0").value


# -- swing options ---------------------------------------------------------


def test_swing_walkthrough(depth2):
    # gap 1 forces the two rights apart; skipping time 0 and exercising at
    # times 1 and 2 collects (0 + 0)/2 on the up branch and (3 + 4) on the
    # down branch in expectation: 3.5 beats exercising at the root (1 + 2)
    model, x = depth2
    sol = swing_solve(model, x, 2, 1, "n0")
    assert sol.value == 3.5
    assert sol.exercise_times == {
        "uu": (1, 2), "ud": (1, 2), "du": (1, 2), "dd": (1, 2),
    }
    assert sol.value_process["n0"] == 3.5
    assert sol.z[0]["n0"] == 2.0  # one right left, earliest use at time 1
    assert sol.z[1]["n0"] == 0.0  # nothing left after the second right


def test_swing_without_gap_doubles_the_envelope(depth2):
    model, x = depth2
    v = snell_solve(x).value["n0"]
    for d in (1, 2, 3):
        assert swing_solve(model, x, d, 0, "n0").value == d * v


def test_swing_forced_full_schedule(depth2):
    # three rights with gap 1 on horizon 2 leave only the schedule (0, 1, 2)
    model, x = depth2
    sol = swing_solve(model, x, 3, 1, "n0")
    assert sol.value == 4.5  # 1 + E[x at 1] + E[x at 2] = 1 + 1.5 + 2
    assert all(times == (0, 1, 2) for times in sol.exercise_times.values())


def test_swing_infeasible(depth2):
    model, x = depth2
    with pytest.raises(InfeasibleError, match="do not fit"):
        swing_solve(model, x, 2, 3, "n0")
    with pytest.raises(InfeasibleError):
        swing_solve(model, x, 4, 1, "n0")
    with pytest.raises(InfeasibleError):
        swing_solve(model, x, 2, 2, "u")  # start at time 1, gap 2 over horizon 2


def test_swing_state_cap(depth2, monkeypatch):
    model, x = depth2
    monkeypatch.setattr("stoptree.multiple_stopping.DEFAULT_STATE_CAP", 5)
    with pytest.raises(CapExceededError, match="swing value table exceeded its budget of 5 states") as err:
        swing_solve(model, x, 2, 1, "n0")
    assert err.value.count > 5
    monkeypatch.setattr("stoptree.multiple_stopping.DEFAULT_STATE_CAP", 20)
    assert swing_solve(model, x, 2, 1, "n0").value == 3.5


def test_swing_validation(depth2):
    model, x = depth2
    with pytest.raises(ValueError, match=">= 1"):
        swing_solve(model, x, 0, 1, "n0")
    with pytest.raises(ValueError, match=">= 0"):
        swing_solve(model, x, 2, -1, "n0")
    other = make_binary_tree(random.Random(1), 2)
    with pytest.raises(ValueError, match="different model"):
        swing_solve(other, x, 1, 0, "n0")


def test_swing_matches_ordered_oracle():
    rng = random.Random(4)
    for _ in range(3):
        model = make_binary_tree(rng, 3)
        y = make_process(rng, model)
        for delta in (0, 1):
            sw = swing_solve(model, y, 2, delta, "n0")
            orep = brute_force_value(
                model, MultiReward.additive(y, 2), "n0", min_gap=delta
            )
            assert sw.value == orep.value


def test_swing_schedule_respects_gap():
    rng = random.Random(8)
    model = make_binary_tree(rng, 4)
    y = make_process(rng, model)
    sol = swing_solve(model, y, 2, 2, "n0")
    for times in sol.exercise_times.values():
        assert times[1] - times[0] >= 2


def test_forced_exercise_breaks_monotonicity_in_d():
    """Adding a right can destroy value when the horizon is cramped.

    With payoffs only at times 1 and 3 and a gap of 2, two rights pick (1, 3)
    and collect everything; a third right forces the schedule (0, 2, 4) and
    collects nothing. Monotonicity in d holds for gaps 0 and 1 (a free slot
    always exists) but is simply false in general under forced full exercise.
    """
    model, y = _chain([0, 10, 0, 10, 0])
    two = swing_solve(model, y, 2, 2, "c0")
    three = swing_solve(model, y, 3, 2, "c0")
    assert two.value == 20.0
    assert two.exercise_times["c4"] == (1, 3)
    assert three.value == 0.0
    assert three.exercise_times["c4"] == (0, 2, 4)


def test_swing_on_chain_picks_the_peaks():
    model, y = _chain([1, 8, 2, 9, 1])
    sol = swing_solve(model, y, 2, 1, "c0")
    assert sol.value == 17.0
    assert sol.exercise_times["c4"] == (1, 3)
