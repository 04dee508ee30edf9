"""Enumeration oracle: counts, determinism, constraints, caps, certification."""
from __future__ import annotations

import random
from itertools import product
from operator import add

import pytest
from hypothesis import given, strategies as st

from stoptree import (
    CapExceededError,
    InfeasibleError,
    MultiReward,
    NodeProcess,
    StoppingTime,
    brute_force_value,
    build_tree_from_spec,
    certify,
    solve_multi,
)
from stoptree.oracle import _count_ordered, _ordered_cuts
from stoptree.single_stopping import EPS_EQ
from tests.conftest import all_cuts, make_binary_tree, make_table_reward


def two_pass_oracle(model, psi, start, min_gap=None, eps=EPS_EQ):
    """Reference enumeration: a table of every tuple's value, summed leaf by
    leaf in ``leaf_paths`` order, then a second pass that keeps the tuples
    within ``eps`` of the maximum, in enumeration order. Returns
    ``(value, tuple count, winners as stop-set tuples)``."""
    if min_gap is None:
        cuts = all_cuts(model, start)
        tuples = list(product(cuts, repeat=psi.d))
    else:
        tuples = _ordered_cuts(model, start, psi.d, min_gap)
        cuts = list(dict.fromkeys(c for tup in tuples for c in tup))
    number = {c: i for i, c in enumerate(cuts)}
    values = [0.0] * len(tuples)
    for _, path, weight, times in model.leaf_paths(start, cuts):
        if min_gap is None:
            vectors = product(times, repeat=psi.d)
            distinct = product(set(times), repeat=psi.d)
        else:
            vectors = [tuple(times[number[c]] for c in tup) for tup in tuples]
            distinct = set(vectors)
        terms = {v: weight * psi.evaluate(path, v) for v in distinct}
        values = list(map(add, values, map(terms.__getitem__, vectors)))
    best = max(values)
    return best, len(tuples), [tup for tup, v in zip(tuples, values) if v >= best - eps]


def one_pass(rep):
    return rep.value, rep.enumerated_count, [t.stop_sets for t in rep.optimal_tuples]


def test_count_and_enumerate_agree(depth2):
    model, _ = depth2
    cuts = [c for (c,) in _ordered_cuts(model, "n0", 1, 0)]
    assert len(cuts) == _count_ordered(model, "n0", 1, 0) == 5
    assert len(set(cuts)) == 5


def test_enumerate_is_deterministic(depth2):
    model, _ = depth2
    a = [c for (c,) in _ordered_cuts(model, "n0", 1, 0)]
    b = [c for (c,) in _ordered_cuts(model, "n0", 1, 0)]
    assert a == b
    assert a[0] == frozenset({"n0"})  # stop-at-the-node comes first


@given(st.integers(min_value=0, max_value=10_000))
def test_count_matches_enumeration_on_random_trees(seed):
    # at d = 1 the ordered fold is the free cut enumeration, in the reference order
    rng = random.Random(seed)
    model = make_binary_tree(rng, rng.choice([1, 2, 3, 4]))
    for start in model.node_ids():
        cuts = [c for (c,) in _ordered_cuts(model, start, 1, 0)]
        assert cuts == all_cuts(model, start)
        assert _count_ordered(model, start, 1, 0) == len(cuts)


def test_enumerate_cap():
    model = make_binary_tree(random.Random(3), 4)
    with pytest.raises(CapExceededError) as err:
        brute_force_value(model, MultiReward.zero(1), "n0", cap_tuples=100)
    assert err.value.count == 677


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
    psi = MultiReward.additive(NodeProcess(model, dict.fromkeys(model.node_ids(), 1.0)), 2)
    with pytest.raises(CapExceededError) as err:
        brute_force_value(model, psi, "c0", min_gap=1, cap_tuples=10)
    assert err.value.count == 1_125_750  # pairs t1 < t2 out of 1501 times


def test_time_budget(monkeypatch):
    rng = random.Random(2)
    model = make_binary_tree(rng, 3)
    psi = make_table_reward(rng, model, 3)
    monkeypatch.setattr("stoptree.oracle.DEFAULT_TIME_BUDGET", 0.0)
    with pytest.raises(CapExceededError, match="budget"):
        brute_force_value(model, psi, "n0")


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


@pytest.mark.parametrize("min_gap", [0, 1])
def test_ordered_cuts_share_one_object_per_cut(min_gap):
    model = make_binary_tree(random.Random(5), 3)
    cuts = [cut for tup in _ordered_cuts(model, "n0", 2, min_gap) for cut in tup]
    assert len({id(cut) for cut in cuts}) == len(set(cuts)) < len(cuts)


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


def test_certify_rejects_ordered_oracle_report(depth2):
    # an ordered enumeration can miss the free optimum (3.5 against 4.0 here)
    model, x = depth2
    psi = MultiReward.additive(x, 2)
    ordered = brute_force_value(model, psi, "n0", min_gap=1)
    with pytest.raises(ValueError, match="ordered, gap >= 1"):
        certify(solve_multi(model, psi, "n0"), ordered)


def test_psi_runs_once_per_leaf_and_time_vector(depth2):
    model, x = depth2
    additive = MultiReward.additive(x, 2)
    calls = []

    def fn(path, times):
        calls.append((path, times))
        return additive.fn(path, times)

    rep = brute_force_value(model, MultiReward.from_function(2, fn), "n0")
    assert rep.value == 4.0
    cuts = all_cuts(model, "n0")
    leaves = list(model.leaf_paths("n0", cuts))
    distinct = sum(len(set(product(times, repeat=2))) for _, _, _, times in leaves)
    fingerprint = 3 * len(leaves)  # instance_fingerprint: three vectors per leaf
    assert len(calls) == distinct + fingerprint == 36 + 12


def test_each_cut_is_validated_once(monkeypatch):
    model = make_binary_tree(random.Random(5), 3)
    validated = []
    check = StoppingTime.__post_init__

    def counting(self):
        validated.append(self.stop_set)
        check(self)

    monkeypatch.setattr(StoppingTime, "__post_init__", counting)
    rep = brute_force_value(model, MultiReward.zero(2), "n0")
    assert rep.enumerated_count == len(rep.optimal_tuples) == 676  # every pair ties
    assert len(validated) <= len(all_cuts(model, "n0")) == 26


def test_one_pass_matches_two_pass_reference(reduction_reports, minimality_corpus):
    for model, psi, _d, _rep, orep in reduction_reports:
        assert one_pass(orep) == two_pass_oracle(model, psi, "n0")
    for model, psi, _rep, orep in minimality_corpus:
        assert one_pass(orep) == two_pass_oracle(model, psi, "n0")


@pytest.mark.parametrize("min_gap", [0, 1, 2])
def test_one_pass_matches_two_pass_reference_ordered(min_gap, depth2, reduction_corpus):
    model, x = depth2
    cases = [(model, MultiReward.additive(x, 2))]
    cases += [(model, psi) for model, psi, d in reduction_corpus[::5]
              if (d - 1) * min_gap <= model.horizon]
    for model, psi in cases:
        rep = brute_force_value(model, psi, "n0", min_gap=min_gap)
        assert rep.min_gap == min_gap
        assert one_pass(rep) == two_pass_oracle(model, psi, "n0", min_gap)


def test_one_pass_drops_near_ties_when_the_best_rises(chain3):
    # on a chain, cut i stops at time i and a pair's value is its table entry;
    # the early near-optima (0, 0), (0, 1), (1, 1) fall more than eps below
    # the best reached later and must not be reported
    model, _ = chain3
    values = [1.0, 1.0 + 0.5e-9, 1.0 + 1.2e-9,
              0.5, 1.0 + 0.3e-9, 1.0 + 2.0e-9,
              1.0 + 1.5e-9, 1.0 + 2.0e-9, 0.0]
    table = dict(zip(product(range(3), repeat=2), values))
    psi = MultiReward.from_function(2, lambda path, times: table[times])
    rep = brute_force_value(model, psi, "c0")
    assert one_pass(rep) == two_pass_oracle(model, psi, "c0")
    assert rep.value == 1.0 + 2.0e-9
    assert [tuple(t.times_on_path("c2")) for t in rep.optimal_tuples] == [
        (0, 2), (1, 2), (2, 0), (2, 1)
    ]
    exact = brute_force_value(model, psi, "c0", eps=0.0)  # exact ties only
    assert one_pass(exact) == two_pass_oracle(model, psi, "c0", eps=0.0)
    assert [tuple(t.times_on_path("c2")) for t in exact.optimal_tuples] == [(1, 2), (2, 1)]


@pytest.mark.parametrize("eps", [EPS_EQ, 1.0])
def test_one_pass_stays_linear_when_values_creep_up(eps, monkeypatch):
    # a chain of horizon 199: cut i stops at time i, and each pair's value is
    # a hair above the one before it in enumeration order, so with eps=1.0
    # every pair is kept at every rise; pruning on each rise would take
    # quadratic time and run past the time budget
    horizon = 199
    nodes = [{"id": "c0", "time": 0}]
    nodes += [{"id": f"c{t}", "time": t, "parent": f"c{t - 1}", "prob": 1.0}
              for t in range(1, horizon + 1)]
    model = build_tree_from_spec({"horizon": horizon, "nodes": nodes})
    times = [model.time(next(iter(cut))) for cut in all_cuts(model, "c0")]
    step = EPS_EQ / 7
    rank = {pair: k for k, pair in enumerate(product(times, repeat=2))}
    psi = MultiReward.from_function(2, lambda path, t: 1.0 + step * rank[t])
    monkeypatch.setattr("stoptree.oracle.DEFAULT_TIME_BUDGET", 5.0)
    rep = brute_force_value(model, psi, "c0", eps=eps)
    assert one_pass(rep) == two_pass_oracle(model, psi, "c0", eps=eps)
    assert rep.enumerated_count == len(rank) == 40_000
    assert len(rep.optimal_tuples) == (40_000 if eps == 1.0 else 8)


def test_one_pass_drops_near_ties_after_a_late_jump(chain3):
    # six pairs creep up within eps of each other, then one jumps past them
    # all while the kept list is still short of its next pruning size; only
    # the jump may be reported
    model, _ = chain3
    values = [1.0 + k * 0.1e-9 for k in range(6)] + [1.0 + 3e-9, 0.0, 0.0]
    table = dict(zip(product(range(3), repeat=2), values))
    psi = MultiReward.from_function(2, lambda path, times: table[times])
    rep = brute_force_value(model, psi, "c0")
    assert one_pass(rep) == two_pass_oracle(model, psi, "c0")
    assert [tuple(t.times_on_path("c2")) for t in rep.optimal_tuples] == [(2, 0)]
