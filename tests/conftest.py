"""Shared fixtures: committed example models plus seeded random corpora.

Random corpora use dyadic edge probabilities (quarters) and small integer
payoffs so that every expectation in both solver and oracle is exact in
floating point — value comparisons in the suite can use `==`.
"""
from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import settings

from stoptree import (
    MultiReward,
    NodeProcess,
    StoppingTime,
    TreeModel,
    brute_force_value,
    build_tree_from_spec,
    load_model,
    solve_multi,
    tuple_order_below,
)

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"

REDUCTION_SEED = 910_000
MINIMALITY_SEED = 31_400
SWING_SEED = 20_260_816
SINGLE_SEED = 555_000


# -- random instance builders -------------------------------------------


def make_binary_tree(rng: random.Random, depth: int) -> TreeModel:
    """Non-recombining binary tree with edge probabilities from {1/4, 1/2, 3/4}."""
    rows = [{"id": "n0", "time": 0}]

    def grow(nid: str, t: int) -> None:
        if t == depth:
            return
        p = rng.choice([0.25, 0.5, 0.75])
        rows.append({"id": nid + "u", "time": t + 1, "parent": nid, "prob": p})
        rows.append({"id": nid + "d", "time": t + 1, "parent": nid, "prob": 1.0 - p})
        grow(nid + "u", t + 1)
        grow(nid + "d", t + 1)

    grow("n0", 0)
    return build_tree_from_spec({"horizon": depth, "nodes": rows})


def make_process(rng: random.Random, model: TreeModel, lo: int = 0, hi: int = 10) -> NodeProcess:
    return NodeProcess(model, {nid: float(rng.randint(lo, hi)) for nid in model.node_ids()})


def make_table_reward(
    rng: random.Random, model: TreeModel, d: int, symmetric: bool = False
) -> MultiReward:
    """Integer reward table covering every reachable (node, times) row."""
    table: dict[tuple[str, tuple[int, ...]], float] = {}
    base: dict[tuple[str, tuple[int, ...]], float] = {}
    for nid in model.node_ids():
        t = model.time(nid)
        for times in product(range(t + 1), repeat=d):
            if max(times) != t:
                continue
            if symmetric:
                key = (nid, tuple(sorted(times)))
                if key not in base:
                    base[key] = float(rng.randint(0, 10))
                table[(nid, times)] = base[key]
            else:
                table[(nid, times)] = float(rng.randint(0, 10))
    return MultiReward.from_table(d, table, symmetric=symmetric)


def sample_cut(rng: random.Random, model: TreeModel, start: str, p_stop: float = 0.35) -> StoppingTime:
    """A random exact cut: stop at each node with fixed probability, else recurse."""
    stop_set: set[str] = set()

    def walk(nid: str) -> None:
        if model.is_leaf(nid) or rng.random() < p_stop:
            stop_set.add(nid)
            return
        for cid, _ in model.children(nid):
            walk(cid)

    walk(start)
    return StoppingTime(model, start, frozenset(stop_set))


def all_cuts(model: TreeModel, start: str) -> list[frozenset[str]]:
    """Reference enumeration the oracle is tested against: every exact cut of
    the subtree of ``start`` as a stop set, stop-at-the-node first, then child
    combinations in declared child order, the first child varying slowest."""
    cuts: dict[str, list[frozenset[str]]] = {}
    for nid in reversed(tuple(model.subtree_ids(start))):
        out = [frozenset((nid,))]
        kids = model.children(nid)
        if kids:
            for combo in product(*(cuts.pop(cid) for cid, _ in kids)):
                out.append(frozenset().union(*combo))
        cuts[nid] = out
    return cuts[start]


# -- committed fixtures ---------------------------------------------------


@pytest.fixture(scope="session")
def depth2():
    model, procs = load_model(FIXTURES / "depth2.json")
    return model, procs["x"]


@pytest.fixture(scope="session")
def chain3():
    model, procs = load_model(FIXTURES / "chain3.json")
    return model, procs["x"]


@pytest.fixture(scope="session")
def depth4():
    model, procs = load_model(FIXTURES / "depth4.json")
    return model, procs["y"]


@pytest.fixture(scope="session")
def tie_instance():
    """Two optimal pairs, (0,1) and (1,0), tied in value and order-incomparable."""
    model, _ = load_model(FIXTURES / "tie.json")
    doc = json.loads((FIXTURES / "tie_table.json").read_text())
    table = {(r["node"], tuple(r["times"])): float(r["value"]) for r in doc["rows"]}
    return model, MultiReward.from_table(2, table)


@pytest.fixture(scope="session")
def table_d2(depth2):
    model, _ = depth2
    doc = json.loads((FIXTURES / "table_d2.json").read_text())
    table = {(r["node"], tuple(r["times"])): float(r["value"]) for r in doc["rows"]}
    return model, MultiReward.from_table(2, table)


# -- random corpora (session-wide, frozen seeds) --------------------------


@pytest.fixture(scope="session")
def reduction_corpus():
    """50 instances: 25 d=2 and 25 d=3 on depth-3 binary trees, integer tables."""
    out = []
    for k in range(25):
        rng = random.Random(REDUCTION_SEED + k)
        model = make_binary_tree(rng, 3)
        out.append((model, make_table_reward(rng, model, 2), 2))
    for k in range(25):
        rng = random.Random(REDUCTION_SEED + 100 + k)
        model = make_binary_tree(rng, 3)
        out.append((model, make_table_reward(rng, model, 3), 3))
    return out


@pytest.fixture(scope="session")
def reduction_reports(reduction_corpus):
    """Solver and oracle runs over the reduction corpus (shared by several criteria)."""
    out = []
    for model, psi, d in reduction_corpus:
        rep = solve_multi(model, psi, "n0")
        orep = brute_force_value(model, psi, "n0")
        out.append((model, psi, d, rep, orep))
    return out


def _has_order_minimum(orep, model, start: str) -> bool:
    """Whether some enumerated optimal tuple sits below-or-equal all others on
    every path — decided from the oracle's optimal set alone."""
    leaves = tuple(model.leaves_below(start))
    profiles = [tuple(t.times_on_path(leaf) for leaf in leaves) for t in orep.optimal_tuples]
    for cand in profiles:
        if all(
            all(tuple_order_below(cand[j], other[j]) for j in range(len(leaves)))
            for other in profiles
        ):
            return True
    return False


@pytest.fixture(scope="session")
def minimality_corpus():
    """25 d=2 + 10 d=3 instances whose optimal set has an order minimum.

    Degenerate value ties can leave no minimum at all (see the tie fixture),
    so draws without one are skipped; existence is decided purely oracle-side.
    """
    out = []
    for d, wanted, offset, depth in ((2, 25, 0, 3), (3, 10, 10_000, 3)):
        found, k = 0, 0
        while found < wanted:
            rng = random.Random(MINIMALITY_SEED + offset + k)
            k += 1
            model = make_binary_tree(rng, depth)
            psi = make_table_reward(rng, model, d)
            orep = brute_force_value(model, psi, "n0")
            if not _has_order_minimum(orep, model, "n0"):
                continue
            rep = solve_multi(model, psi, "n0")
            out.append((model, psi, rep, orep))
            found += 1
    return out


@pytest.fixture(scope="session")
def swing_corpus():
    """20 depth-4 binary instances with integer payoffs for the swing grid."""
    out = []
    for k in range(20):
        rng = random.Random(SWING_SEED + k)
        model = make_binary_tree(rng, 4)
        out.append((model, make_process(rng, model)))
    return out
