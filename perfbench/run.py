"""Benchmark entry point for stoptree.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds ``src/stoptree``. Each workload
runs in its own single-threaded process (worker.py). With ``--trace 0`` it
prints every end-to-end metric; with ``--trace 1`` it runs the workload
twice on the same seed, untraced and then traced, for half of
``--seconds`` each, and prints every per-layer metric plus the tracing
overhead. ``setup_s`` is the median, over several fresh worker processes,
of the time from starting the process to its first timed operation; half
of the set-up-only processes run before the measuring one and half after,
so the median spans the run like the operation times do. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``. See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT = 170.0
SETUP_ONLY_RUNS = 8  # set-up-only processes; with the measuring one, 9 set-ups per run
END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_worker(args, seconds: float, trace: int, budget: float, *extra: str) -> dict:
    """Run one worker process; its result gains ``setup_s``, the time from
    starting it to its first timed operation."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stoptree benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "stoptree" / "__init__.py").is_file():
        print("run.py: no src/stoptree under the current directory; run it from the "
              "root of a stoptree checkout", file=sys.stderr)
        return 2

    try:
        if args.trace:
            plain = run_worker(args, args.seconds / 2, 0, CHILD_TIMEOUT / 2)
            traced = run_worker(args, args.seconds / 2, 1, CHILD_TIMEOUT / 2)
        else:
            setups = [run_worker(args, 0, 0, 10, "--setup-only")["setup_s"]
                      for _ in range(SETUP_ONLY_RUNS // 2)]
            plain = run_worker(args, args.seconds, 0, CHILD_TIMEOUT - 10 * SETUP_ONLY_RUNS)
            setups.append(plain["setup_s"])
            setups += [run_worker(args, 0, 0, 10, "--setup-only")["setup_s"]
                       for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]
            plain["setup_s"] = statistics.median(setups)
            traced = None
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload}: {plain['successes']} successful timed ops of {plain['attempted']}; "
          f"failed_frac base: {plain['pool_failed']} of {plain['pool_size']} pool instances")
    if traced is None:
        if plain["op_tail_s"] is None:
            print(f"run.py: only {plain['successes']} successful operations; the tail needs 11",
                  file=sys.stderr)
            return 1
        print(f"  tail is p{plain['tail_percentile']:.1f} of {plain['successes']}; "
              f"setup_s is the median of {len(setups)} set-ups")
        metrics = {name: {"value": plain[name], "unit": unit} for name, unit in END_TO_END.items()}
        runs = [plain]
    else:
        values = dict(traced["layers"])
        values["tracing.overhead_ratio"] = traced["op_p50_s"] / plain["op_p50_s"]
        print(f"tracing overhead: traced op_p50_s {traced['op_p50_s']:.6g} s "
              f"against untraced {plain['op_p50_s']:.6g} s")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        runs = [plain, traced]
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
