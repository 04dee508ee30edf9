#!/usr/bin/env python3
"""Sweep random instances through solver, oracle, and certification.

Draws binary trees with dyadic edge probabilities and integer reward tables,
solves each d-fold problem, enumerates every stopping tuple, and prints one
row per instance. A failed value check is a solver bug and flips the exit
code; a failed minimality check alone usually means the instance has tied,
order-incomparable optima (no pathwise-smallest optimum exists at all).
"""
from __future__ import annotations

import argparse
import random
import sys

from stoptree import brute_force_value, certify, solve_multi
from stoptree.market_model import MultiReward, NodeProcess, TreeModel, build_tree_from_spec


def make_instance(seed: int, depth: int, d: int) -> tuple[TreeModel, MultiReward]:
    rng = random.Random(seed)
    rows = [{"id": "n0", "time": 0}]

    def grow(nid, t):
        if t == depth:
            return
        p = rng.choice([0.25, 0.5, 0.75])
        rows.append({"id": nid + "u", "time": t + 1, "parent": nid, "prob": p})
        rows.append({"id": nid + "d", "time": t + 1, "parent": nid, "prob": 1.0 - p})
        grow(nid + "u", t + 1)
        grow(nid + "d", t + 1)

    grow("n0", 0)
    model = build_tree_from_spec({"horizon": depth, "nodes": rows})
    x = NodeProcess(model, {nid: float(rng.randint(0, 10)) for nid in model.node_ids()})
    return model, MultiReward.additive(x, d)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for opt in ("instances", "depth", "d"):
        if getattr(args, opt) < 1:
            ap.error(f"--{opt} must be >= 1, got {getattr(args, opt)}")

    print(f"{'seed':>6}  {'value':>10}  {'optima':>6}  {'tuples':>8}  {'secs':>7}  verdict")
    bad_values = 0
    non_minimal = 0
    for k in range(args.instances):
        seed = args.seed + k
        model, psi = make_instance(seed, args.depth, args.d)
        rep = solve_multi(model, psi, "n0")
        orep = brute_force_value(model, psi, "n0")
        verdict = certify(rep, orep)
        tag = "ok" if verdict.passed else ("VALUE-MISMATCH" if not verdict.value_ok else "not-minimal")
        bad_values += not verdict.value_ok
        non_minimal += verdict.value_ok and not verdict.minimal
        print(
            f"{seed:>6}  {orep.value:>10.4f}  {len(orep.optimal_tuples):>6}"
            f"  {orep.enumerated_count:>8}  {orep.elapsed:>7.3f}  {tag}"
        )
    print(
        f"\n{args.instances} instances: {args.instances - bad_values - non_minimal} certified,"
        f" {non_minimal} without a pathwise-minimal optimum, {bad_values} value mismatches"
    )
    return 1 if bad_values else 0


if __name__ == "__main__":
    sys.exit(main())
