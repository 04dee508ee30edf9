"""Seeded instance generator shared by every workload.

Trees are binary event trees of a given horizon and size: a node has two
children, with edge probabilities from {1/4, 1/2, 3/4}, or one child with
probability 1. Full binary trees are the largest of these; chains, with
one child per node, the smallest.
Payoffs and reward-table entries are integers in [0, 10] times a unit
2**k fixed per instance. Every sum and product the solvers form on these
inputs is exact in binary floating point, so results can be compared with
``==``. The unit only moves the magnitude, which is what the solvers'
absolute tolerance reacts to.

The generator uses none of the library's code: the library sees only the
model files and the reward tables written here.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

PROBS = (0.25, 0.5, 0.75)
BANDS = {"low": (-40, -36), "high": (0, 20)}


@dataclass(frozen=True)
class Instance:
    """One generated problem; everything else follows from ``sub_seed``."""

    index: int
    kind: str  # "tree" or "chain"
    depth: int  # horizon
    nodes: int | None  # about this many nodes; None: a full binary tree
    d: int  # number of stops (1 for single stopping)
    k: int  # payoff unit is 2**k
    sub_seed: int
    reward: str = "process"  # "process", "table" or "additive"

    @property
    def unit(self) -> float:
        return 2.0**self.k

    @property
    def label(self) -> str:
        size = "" if self.nodes is None else f"/~{self.nodes}nodes"
        return f"{self.kind}{self.depth}{size}/d{self.d}/{self.reward}"

    def at_unit_one(self) -> "Instance":
        """The same instance with unit 2**0: same integers, same structure."""
        return replace(self, k=0)


Shape = tuple[str, int, int | None, int, str, str]  # (kind, depth, nodes, d, reward, band)


def make_pool(seed: int, shapes: list[Shape]) -> list[Instance]:
    """One instance per ``(kind, depth, nodes, d, reward, band)`` entry.

    ``band`` names the range the unit exponent is drawn from: ``"low"``
    units lie below what the solvers' absolute tolerance of 1e-9 can tell
    apart from zero on every shape used here, ``"high"`` units lie above
    where it ever matters on those shapes. Units in between decide pass or
    fail by the payoffs drawn, which would make the failure count swing
    from seed to seed (see NOTES.md).
    """
    rng = random.Random(seed)
    return [
        Instance(i, kind, depth, nodes, d, rng.randint(*BANDS[band]), rng.getrandbits(64), reward)
        for i, (kind, depth, nodes, d, reward, band) in enumerate(shapes)
    ]


def model_doc(inst: Instance) -> dict:
    """The model file contents: tree spec plus one payoff process ``y``."""
    rng = random.Random(inst.sub_seed)
    unit = inst.unit
    if inst.kind == "chain":
        nodes = [{"id": "c0", "time": 0}]
        nodes += [
            {"id": f"c{t}", "time": t, "parent": f"c{t - 1}", "prob": 1.0}
            for t in range(1, inst.depth + 1)
        ]
    else:
        nodes = [{"id": "n", "time": 0}]
        frontier = ["n"]
        size = 2 ** (inst.depth + 1) if inst.nodes is None else inst.nodes
        for t, width in enumerate(level_widths(inst.depth, size)[1:], start=1):
            w, b = len(frontier), width - len(frontier)
            branching = {j * w // b for j in range(b)}  # spread evenly over the level
            nxt = []
            for i, nid in enumerate(frontier):
                if i in branching:
                    p = rng.choice(PROBS)
                    nodes.append({"id": nid + "u", "time": t, "parent": nid, "prob": p})
                    nodes.append({"id": nid + "d", "time": t, "parent": nid, "prob": 1.0 - p})
                    nxt += (nid + "u", nid + "d")
                else:
                    nodes.append({"id": nid + "s", "time": t, "parent": nid, "prob": 1.0})
                    nxt.append(nid + "s")
            frontier = nxt
    values = [{"id": row["id"], "value": rng.randint(0, 10) * unit} for row in nodes]
    return {"horizon": inst.depth, "nodes": nodes, "processes": {"y": values}}


def level_widths(depth: int, nodes: int) -> list[int]:
    """Level widths of a binary tree of horizon ``depth`` with about
    ``nodes`` nodes: level t holds round(g**t) nodes, at least as many as
    the level above and at most twice as many, for the growth g in [1, 2]
    whose total is the smallest one not below ``nodes``. A full binary tree
    when ``nodes`` is 2**(depth + 1) - 1 or more."""

    def widths(g: float) -> list[int]:
        out = [1]
        for t in range(1, depth + 1):
            out.append(min(2 * out[-1], max(out[-1], round(g**t))))
        return out

    if nodes >= 2 ** (depth + 1) - 1:
        return widths(2.0)
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if sum(widths(mid)) < nodes else (lo, mid)
    return widths(hi)


def table_rows(inst: Instance, doc: dict) -> list[list]:
    """General order-dependent reward rows ``[node, times, value]``.

    One row per node and per times vector whose latest entry is the node's
    time, which is every row the d-fold solver and the oracle can ask for.
    """
    rng = random.Random(inst.sub_seed ^ 0x5EED)
    unit = inst.unit
    rows = []
    for node in doc["nodes"]:
        t = node["time"]
        for times in product(range(t + 1), repeat=inst.d):
            if max(times) == t:
                rows.append([node["id"], list(times), rng.randint(0, 10) * unit])
    return rows


def write_instance(inst: Instance, directory: Path) -> tuple[dict[str, Path], dict]:
    """Write the model file (and the table file for table rewards); returns
    the paths and the model document."""
    doc = model_doc(inst)
    paths = {"model": directory / f"model{inst.index}.json"}
    paths["model"].write_text(json.dumps(doc))
    if inst.reward == "table":
        paths["table"] = directory / f"table{inst.index}.json"
        paths["table"].write_text(json.dumps(table_rows(inst, doc)))
    return paths, doc


def read_table(path: Path) -> dict[tuple[str, tuple[int, ...]], float]:
    return {(nid, tuple(times)): value for nid, times, value in json.loads(path.read_text())}
