#!/usr/bin/env python3
"""Sweep relaxed stopping fractions over a model file.

For each fraction the rule stops the first time the reward covers that
share of the value envelope. The table shows the guaranteed lower bound,
what the rule actually collects, and how early it stops; above the printed
threshold the rule collapses to the earliest optimal stop.
"""
from __future__ import annotations

import argparse
import sys

from stoptree import (
    ModelValidationError,
    lambda_stop,
    lambda_threshold,
    load_model,
    minimal_optimal_stop,
    snell_solve,
    stopping_time_value,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("model", help="model JSON file")
    ap.add_argument("--reward", default=None, help="process name (default: the only one)")
    ap.add_argument("--start", default=None)
    ap.add_argument(
        "--grid",
        default="0.1,0.25,0.5,0.75,0.9,0.99",
        help="comma list of fractions in (0, 1)",
    )
    args = ap.parse_args()
    try:
        grid = [float(s) for s in args.grid.split(",") if s.strip()]
    except ValueError:
        ap.error(f"unparseable --grid list {args.grid!r}")
    if not all(0.0 < lam < 1.0 for lam in grid):
        ap.error(f"--grid fractions must lie in (0, 1), got {args.grid!r}")

    try:
        model, processes = load_model(args.model)
    except ModelValidationError as exc:
        ap.error(str(exc))
    name = args.reward if args.reward is not None else next(iter(processes))
    if name not in processes:
        ap.error(f"model defines no process named {name!r}")
    x = processes[name]
    start = args.start if args.start is not None else model.root
    if start not in model:
        ap.error(f"model has no node {start!r}")
    sol = snell_solve(x)
    value = sol.value[start]
    earliest = minimal_optimal_stop(sol, start)
    lam0 = lambda_threshold(sol, start)

    print(f"model {args.model}  process {name!r}  start {start!r}")
    print(f"value {value:.6g}   earliest optimal stop at {sorted(earliest.stop_set)}")
    print(f"threshold {lam0:.6g}\n")
    print(f"{'lambda':>8}  {'bound':>10}  {'attained':>10}  {'slack':>10}  {'mean stop':>9}  nodes")
    for lam in grid:
        rule = lambda_stop(sol, start, lam)
        attained = stopping_time_value(rule, x, start)
        mean_stop = sum(w * t for _, _, w, (t,) in model.leaf_paths(start, (rule.stop_set,)))
        print(
            f"{lam:>8.3g}  {lam * value:>10.6g}  {attained:>10.6g}"
            f"  {attained - lam * value:>10.6g}  {mean_stop:>9.3f}  {sorted(rule.stop_set)}"
        )
    mid = (lam0 + 1.0) / 2.0
    same = lambda_stop(sol, start, mid).stop_set == earliest.stop_set
    print(f"\nat lambda={mid:.6g} the rule {'matches' if same else 'DIFFERS FROM'} the earliest optimal stop")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
