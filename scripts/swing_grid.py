#!/usr/bin/env python3
"""Tabulate swing values over number of rights and refraction gap.

Prints one row per d with the exact value for each gap, next to the d-times
single value upper bound. Infeasible corners (forcing the last exercise past
the horizon) are marked. With --check the d=2 column is re-derived by
exhaustive enumeration over gap-constrained tuples.
"""
from __future__ import annotations

import argparse
import sys

from stoptree import (
    InfeasibleError,
    ModelValidationError,
    MultiReward,
    brute_force_value,
    load_model,
    snell_solve,
    swing_solve,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("model", help="model JSON file")
    ap.add_argument("--reward", default=None, help="process name (default: the only one)")
    ap.add_argument("--start", default=None)
    ap.add_argument("--d-max", type=int, default=4)
    ap.add_argument("--delta-max", type=int, default=3)
    ap.add_argument("--check", action="store_true", help="cross-check d=2 rows by enumeration")
    args = ap.parse_args()
    if args.d_max < 1:
        ap.error(f"--d-max must be >= 1, got {args.d_max}")
    if args.delta_max < 0:
        ap.error(f"--delta-max must be >= 0, got {args.delta_max}")

    try:
        model, processes = load_model(args.model)
    except ModelValidationError as exc:
        ap.error(str(exc))
    name = args.reward if args.reward is not None else next(iter(processes))
    if name not in processes:
        ap.error(f"model defines no process named {name!r}")
    y = processes[name]
    start = args.start if args.start is not None else model.root
    if start not in model:
        ap.error(f"model has no node {start!r}")
    single = snell_solve(y).value[start]

    deltas = list(range(args.delta_max + 1))
    print(f"model {args.model}  process {name!r}  single value {single:.6g}\n")
    print(f"{'d':>3}  " + "  ".join(f"{f'gap {g}':>10}" for g in deltas) + f"  {'d*single':>10}")
    mismatches = 0
    for d in range(1, args.d_max + 1):
        cells = []
        for delta in deltas:
            try:
                value = swing_solve(model, y, d, delta, start).value
            except InfeasibleError:
                cells.append(f"{'--':>10}")
                continue
            cells.append(f"{value:>10.6g}")
            if args.check and d == 2:
                oracle = brute_force_value(
                    model, MultiReward.additive(y, 2), start, min_gap=delta
                )
                if oracle.value != value:
                    mismatches += 1
                    cells[-1] = f"{value:>10.6g}!"
        print(f"{d:>3}  " + "  ".join(cells) + f"  {d * single:>10.6g}")
    if args.check:
        print(f"\nenumeration cross-check: {'all d=2 cells match' if not mismatches else f'{mismatches} MISMATCHES'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
