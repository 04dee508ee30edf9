"""Acceptance gate: one test per shipping requirement, one pass/fail line each.

Every numeric comparison on the random corpora uses `==`: edge probabilities
are quarters and payoffs are small integers, so solver, oracle, and the
recomputations below stay exact in floating point. Where a requirement is
stated with a tolerance, it is pinned here as EPS.
"""
from __future__ import annotations

import random
import time
from pathlib import Path

from stoptree import (
    MultiReward,
    NestedValue,
    brute_force_value,
    check_optimality,
    lambda_stop,
    lambda_threshold,
    minimal_optimal_stop,
    snell_solve,
    stopping_time_value,
    solve_multi,
    swing_solve,
    symmetric_backward,
    tuple_order_below,
    tuple_value,
    u_component,
)
from stoptree.cli import RunConfig, emit_report, run
from tests.conftest import (
    SINGLE_SEED,
    SWING_SEED,
    make_binary_tree,
    make_process,
    make_table_reward,
    sample_cut,
)

EPS = 1e-9
LAMBDA_GRID = (0.1, 0.5, 0.9, 0.99)
REDUCTION_BUDGET = 60.0
SWING_BUDGET = 120.0

FIXTURES = Path(__file__).parent / "fixtures"


def test_criterion_1_reduction_identity(reduction_corpus):
    """d-fold value == single-stop value of the synthesized reward, residual 0."""
    t0 = time.perf_counter()
    for model, psi, _d in reduction_corpus:
        rep = solve_multi(model, psi, "n0")
        assert rep.diagnostics["reduction_residual"] == 0.0
        again = snell_solve(rep.new_reward_process)
        assert rep.value == again.value["n0"] == rep.snell.value["n0"]
    assert time.perf_counter() - t0 < REDUCTION_BUDGET


def test_criterion_2_envelope_properties(depth2, chain3, depth4, reduction_reports):
    """Dominance, leaf equality, exact Bellman recursion, supermartingale slack >= 0."""
    cases = [depth2, chain3, depth4]
    rng = random.Random(SINGLE_SEED + 9_000)
    for _ in range(10):
        model = make_binary_tree(rng, 3)
        cases.append((model, make_process(rng, model)))
    for model, _psi, _d, rep, _orep in reduction_reports[:10]:
        cases.append((model, rep.new_reward_process))
    for model, x in cases:
        sol = snell_solve(x)
        for nid in model.node_ids():
            assert sol.value[nid] >= x[nid]
            kids = model.children(nid)
            if not kids:
                assert sol.value[nid] == x[nid]
                continue
            cont = 0.0
            for cid, p in kids:
                cont += p * sol.value[cid]
            assert sol.value[nid] == max(x[nid], cont)
            assert cont <= sol.value[nid]


def test_criterion_3_optimality_checks_agree(depth2, chain3, depth4):
    """The three optimality conditions accept and reject exactly together."""
    rng = random.Random(SINGLE_SEED + 7_000)
    trees = [depth2, chain3, depth4]
    for _ in range(5):
        model = make_binary_tree(rng, 3)
        trees.append((model, make_process(rng, model)))
    for model, x in trees:
        sol = snell_solve(x)
        best = minimal_optimal_stop(sol, model.root)
        report = check_optimality(sol, model.root, best)
        assert report.optimal and report.consistent
        for _ in range(100):
            tau = sample_cut(rng, model, model.root)
            assert check_optimality(sol, model.root, tau).consistent


def test_criterion_4_lambda_rules():
    """Reward bound, pathwise monotonicity in lambda, and recovery above the threshold."""
    for k in range(20):
        rng = random.Random(SINGLE_SEED + k)
        model = make_binary_tree(rng, 3)
        x = make_process(rng, model)
        sol = snell_solve(x)
        leaves = tuple(model.leaves_below("n0"))
        prev = None
        for lam in LAMBDA_GRID:
            rule = lambda_stop(sol, "n0", lam)
            attained = stopping_time_value(rule, x, "n0")
            assert attained >= lam * sol.value["n0"] - EPS
            if prev is not None:
                for leaf in leaves:
                    assert prev.stop_time_on_path(leaf) <= rule.stop_time_on_path(leaf)
            prev = rule
        lam0 = lambda_threshold(sol, "n0")
        assert 0.0 <= lam0 < 1.0
        recovered = lambda_stop(sol, "n0", (lam0 + 1.0) / 2.0)
        assert recovered.stop_set == minimal_optimal_stop(sol, "n0").stop_set


def test_criterion_5_solver_matches_oracle(reduction_reports):
    """Exact value agreement with enumeration; min of the tuple is the earliest stop."""
    for model, psi, _d, rep, orep in reduction_reports:
        assert rep.value == orep.value
        assert tuple_value(rep.stopping_tuple, psi) == orep.value
        earliest = minimal_optimal_stop(rep.snell, "n0")
        for leaf in model.leaves_below("n0"):
            times = rep.stopping_tuple.times_on_path(leaf)
            assert min(times) == earliest.stop_time_on_path(leaf)


def test_criterion_6_first_commit_dominance(reduction_reports, depth2):
    """Wherever an optimal pair stops its first component, committing that
    component beats committing the other one."""
    for model, psi, d, rep, orep in reduction_reports:
        if d != 2:
            continue
        nested = NestedValue(model, psi)
        for tup in orep.optimal_tuples:
            for leaf in model.leaves_below("n0"):
                t1, t2 = tup.times_on_path(leaf)
                if t1 > t2:
                    continue
                m = model.path_to(leaf)[t1]
                u0 = u_component(model, psi, (), 0, m, nested)
                u1 = u_component(model, psi, (), 1, m, nested)
                assert u1 <= u0 + EPS
    # flat reward: every pair is optimal and the dominance set is every node,
    # with no node strictly dominating — the inclusion is as loose as it gets
    model, _x = depth2
    psi0 = MultiReward.zero(2)
    nested = NestedValue(model, psi0)
    for nid in model.node_ids():
        u0 = u_component(model, psi0, (), 0, nid, nested)
        u1 = u_component(model, psi0, (), 1, nid, nested)
        assert u1 == u0 == 0.0


def test_criterion_7_pathwise_minimality(minimality_corpus):
    """The assembled tuple sits below-or-equal every enumerated optimum on every path."""
    for model, psi, rep, orep in minimality_corpus:
        assert rep.value == orep.value
        assert tuple_value(rep.stopping_tuple, psi) == orep.value
        leaves = tuple(model.leaves_below("n0"))
        for other in orep.optimal_tuples:
            for leaf in leaves:
                assert tuple_order_below(
                    rep.stopping_tuple.times_on_path(leaf), other.times_on_path(leaf)
                )


def test_criterion_8_swing_grid(swing_corpus):
    """Refraction-gap solver: doubling law at gap 0, monotonicity, sandwich
    bounds on their valid range, exact match with constrained enumeration,
    and agreement of the ordered symmetric solver with solver and oracle."""
    t0 = time.perf_counter()
    for model, y in swing_corpus:
        single = snell_solve(y).value["n0"]
        vals = {}
        for d in (1, 2, 3):
            for delta in (0, 1, 2):
                vals[d, delta] = swing_solve(model, y, d, delta, "n0").value
        for d in (1, 2, 3):
            assert vals[d, 0] == d * single
            assert vals[d, 0] >= vals[d, 1] >= vals[d, 2]
            for delta in (0, 1, 2):
                assert vals[d, delta] <= d * single
        for delta in (0, 1):
            assert vals[1, delta] <= vals[2, delta] <= vals[3, delta]
            assert vals[3, delta] >= single
        assert vals[1, 2] == single
        assert vals[2, 2] >= single
        gap2 = brute_force_value(model, MultiReward.additive(y, 2), "n0", min_gap=2)
        assert vals[2, 2] == gap2.value
    rng = random.Random(SWING_SEED + 1_000)
    for k in range(20):
        d = 3 if k % 5 == 4 else 2
        model = make_binary_tree(rng, 2 if d == 3 else 3)
        x = make_process(rng, model, lo=1, hi=6)
        if k % 3 == 0:
            psi = MultiReward.additive(x, d)
        elif k % 3 == 1:
            psi = MultiReward.multiplicative(x, d)
        else:
            psi = make_table_reward(rng, model, d, symmetric=True)
        sym = symmetric_backward(model, psi, "n0")
        rep = solve_multi(model, psi, "n0")
        orep = brute_force_value(model, psi, "n0")
        assert sym.value == rep.value == orep.value
        for leaf in model.leaves_below("n0"):
            ts = sym.components.times_on_path(leaf)
            assert all(ts[i] <= ts[i + 1] for i in range(len(ts) - 1))
    assert time.perf_counter() - t0 < SWING_BUDGET


def test_criterion_9_cli_contract(tmp_path):
    """Every documented exit code is reachable and all three formats render."""
    depth2 = str(FIXTURES / "depth2.json")
    code, report = run(RunConfig(mode="single", model_path=depth2))
    assert code == 0 and report["value"] == 2.0
    for fmt in ("json", "csv", "text"):
        assert emit_report(report, fmt)
    code, report = run(RunConfig(mode="certify", model_path=depth2, d=2))
    assert code == 0 and report["verdict"]["passed"] is True

    assert run(RunConfig(mode="single", model_path=str(tmp_path / "missing.json")))[0] == 2
    assert run(RunConfig(mode="swing", model_path=depth2, d=2, delta=3))[0] == 3
    assert run(RunConfig(mode="certify", model_path=depth2, d=2, cap_tuples=3))[0] == 4
    tie = str(FIXTURES / "tie.json")
    tie_table = str(FIXTURES / "tie_table.json")
    code, report = run(
        RunConfig(mode="certify", model_path=tie, d=2, reward=f"table:{tie_table}")
    )
    assert code == 5
    assert report["verdict"]["value_ok"] and not report["verdict"]["minimal"]
