"""A chain of horizon 10**4: every entry point runs without recursion limits.

On a chain every edge has probability 1, so the single-stop value is the
largest payoff and two rights at least one step apart collect the two
largest payoffs.
"""
from __future__ import annotations

import json
import random

import pytest

from stoptree import MultiReward, NodeProcess, build_tree_from_spec, solve_multi, swing_solve
from stoptree.cli import EXIT_OK, main

HORIZON = 10_000
CHAIN_SEED = 7_070


@pytest.fixture(scope="module")
def chain_doc():
    rng = random.Random(CHAIN_SEED)
    rows = [{"id": "c0", "time": 0}] + [
        {"id": f"c{t}", "time": t, "parent": f"c{t - 1}", "prob": 1.0}
        for t in range(1, HORIZON + 1)
    ]
    values = [float(rng.randint(0, 1000)) for _ in range(HORIZON + 1)]
    return {
        "horizon": HORIZON,
        "nodes": rows,
        "processes": {"y": [{"id": f"c{t}", "value": v} for t, v in enumerate(values)]},
    }


@pytest.fixture(scope="module")
def chain(chain_doc):
    model = build_tree_from_spec(chain_doc)
    y = NodeProcess(model, {r["id"]: r["value"] for r in chain_doc["processes"]["y"]})
    return model, y


def test_single_cli_on_deep_chain(chain_doc, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_doc))
    out = tmp_path / "report.json"
    assert main(["single", "--model", str(path), "--out", str(out)]) == EXIT_OK
    values = [r["value"] for r in chain_doc["processes"]["y"]]
    assert json.loads(out.read_text())["value"] == max(values)


def test_swing_on_deep_chain(chain):
    model, y = chain
    sol = swing_solve(model, y, 2, 1, model.root)
    best_two = sorted(y.values.values())[-2:]
    assert sol.value == best_two[0] + best_two[1]


def test_additive_d1_on_deep_chain(chain):
    model, y = chain
    rep = solve_multi(model, MultiReward.additive(y, 1), model.root)
    assert rep.value == max(y.values.values())
