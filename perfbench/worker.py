"""One workload in one process: set up, run the closed loop, report.

Run by run.py as ``python3 perfbench/worker.py --workload W --seed N
--seconds S --trace 0|1 [--setup-only]`` from the root of a checkout. The
last line of standard output is a JSON object with the raw figures; the
lines before it are for people. ``ready_at`` in it is the ``time.monotonic()``
reading when the first timed operation is due, so the parent can time
set-up from the moment it started this process. With ``--setup-only`` the
process stops there.

The loop is closed with one client: operations run back to back over the
timed pool, in whole passes, until ``--seconds`` have gone by. Each
operation is timed alone; reading inputs, checking the result, dropping it
and collecting garbage happen between timed regions. After the loop the
workload's known-defect instances run once each, untimed.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import generator
from tracing import NullTracer, Tracer
from workloads import WORKLOADS

LAYERS = ("market_model", "single_stopping", "multiple_stopping", "symmetric_swing", "oracle", "cli")
SPAN_METRICS = {
    "market_model.load_s": "market_model.load",
    "market_model.fingerprint_s": "market_model.fingerprint",
    "single_stopping.snell_s": "single_stopping.snell",
    "single_stopping.stop_rule_s": "single_stopping.stop_rule",
    "single_stopping.check_s": "single_stopping.check",
    "multiple_stopping.solve_s": "multiple_stopping.solve",
    "multiple_stopping.reduction_s": "multiple_stopping.reduction",
    "multiple_stopping.postcheck_s": "multiple_stopping.postcheck",
    "multiple_stopping.fingerprint_s": "multiple_stopping.fingerprint",
    "symmetric_swing.swing_s": "symmetric_swing.swing",
    "symmetric_swing.symmetric_s": "symmetric_swing.symmetric",
    "symmetric_swing.postcheck_s": "symmetric_swing.postcheck",
    "oracle.enumerate_s": "oracle.enumerate",
    "oracle.certify_s": "oracle.certify",
    "cli.run_s": "cli.run",
    "cli.emit_s": "cli.emit",
}
COUNT_METRICS = ("market_model.nodes", "single_stopping.stop_nodes", "multiple_stopping.reward_evals",
                 "multiple_stopping.stop_nodes", "symmetric_swing.stop_nodes", "oracle.tuples",
                 "oracle.optimal_tuples", "oracle.reward_evals", "cli.report_bytes")


def import_library(src: Path):
    """Import stoptree from ``src``, never from an installed copy."""
    sys.path.insert(0, str(src))
    import stoptree as st
    import stoptree.cli  # noqa: F401  (the CLI workload calls st.cli)

    if not Path(st.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"stoptree was imported from {st.__file__}, not from {src}")
    return st


def failing_layer(exc: BaseException) -> str:
    """The library module of the innermost library frame that raised."""
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        path = Path(frame.filename)
        if path.parent.name == "stoptree":
            return path.stem
    return "benchmark"


def attempt(workload, prep, tr, op_id: int = 0):
    """Run one operation; returns (seconds, failure or None, inputs, result)."""
    inp = workload.inputs(prep)
    gc.collect()
    tr.begin_op(op_id)
    res = None
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            res = workload.op(prep, inp, tr)
    except Exception as exc:  # every failure is counted, none ends the run
        dt = time.perf_counter() - t0
        return dt, (failing_layer(exc), type(exc).__name__, str(exc)[:160]), inp, None
    dt = time.perf_counter() - t0
    mismatch = workload.check(prep, res)
    if mismatch is not None:
        return dt, (mismatch[0], "check-mismatch", mismatch[1]), inp, None
    return dt, None, inp, res


def setup(name: str, seed: int, root: Path):
    """Import the library, generate the pool and write its files; returns
    the workload, the timed preps and the known-defect preps."""
    workdir = Path("perfbench") / ".work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    st = import_library(root / "src")
    workload = WORKLOADS[name](st, workdir)
    pool = generator.make_pool(seed, workload.shapes + workload.known_defects)
    preps = [workload.prepare(inst, workdir) for inst in pool]
    return workload, preps[:len(workload.shapes)], preps[len(workload.shapes):]


def explain(workload, prep, failure) -> str:
    """Which known defect a failure is, or ``unexplained``.

    Only two failures are known: a chain whose model validation recurses
    too deep (``RecursionError`` in ``market_model``), and a small-unit
    instance whose check rejects a result but passes when the instance is
    regenerated with unit 2**0 (the absolute tolerance). Any other failure,
    on any instance, is unexplained.
    """
    layer, kind, _ = failure
    inst = prep.inst
    if inst.kind == "chain":
        return "chain" if (layer, kind) == ("market_model", "RecursionError") else "unexplained"
    if inst.k < 0 and kind == "check-mismatch":
        regen = workload.workdir / "unit1"
        regen.mkdir(exist_ok=True)
        again = workload.prepare(inst.at_unit_one(), regen)
        if attempt(workload, again, NullTracer())[1] is None:
            return "unit-dependent"
    return "unexplained"


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten samples above it, and its
    rank; ``None`` when there are fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tr: Tracer, first_pass: range, pool_failures: list) -> dict[str, float]:
    """Per-layer figures: span times as medians over operations, exact
    counts summed over the first pass of the timed pool, and failures per
    layer over the whole pool (``pool_failures``, one entry per failing
    instance)."""
    ops = tr.per_op("op")
    probes = tr.per_op("probe")
    per_op: dict[int, dict[str, tuple[float, float]]] = {}
    for tree in (ops, probes):
        for op, names in tree.items():
            for name, (total, own) in names.items():
                prev = per_op.setdefault(op, {}).get(name, (0.0, 0.0))
                per_op[op][name] = (prev[0] + total, prev[1] + own)

    def median_of(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    out: dict[str, float] = {}
    for metric, span in SPAN_METRICS.items():
        out[metric] = median_of(t[span][0] for t in per_op.values() if span in t)
    parts = ("multiple_stopping.reduction", "multiple_stopping.postcheck", "multiple_stopping.fingerprint")
    out["multiple_stopping.backward_s"] = median_of(
        t["multiple_stopping.solve"][0] - sum(t[p][0] for p in parts)
        for t in per_op.values()
        if all(name in t for name in ("multiple_stopping.solve",) + parts)
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = median_of(
            sum(own for name, (_, own) in names.items() if name.startswith(layer + "."))
            for names in ops.values()
            if any(name.startswith(layer + ".") for name in names)
        )
    counts = {name: 0.0 for name in COUNT_METRICS + (
        "multiple_stopping.reward_distinct", "oracle.reward_distinct")}
    for op in first_pass:
        for name, n in tr.counts.get(op, {}).items():
            counts[name] += n
    for name in COUNT_METRICS:
        out[name] = counts[name]
    for layer in ("multiple_stopping", "oracle"):
        evals = counts[f"{layer}.reward_evals"]
        out[f"{layer}.reward_distinct_ratio"] = counts[f"{layer}.reward_distinct"] / evals if evals else 0.0
    for layer in LAYERS:
        out[f"{layer}.failed"] = float(sum(1 for where, _, _ in pool_failures if where == layer))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()

    workload, preps, defects = setup(args.workload, args.seed, root)
    ready_at = time.monotonic()
    if args.setup_only:
        shutil.rmtree(workload.workdir, ignore_errors=True)
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tr = Tracer() if args.trace else NullTracer()
    samples: list[float] = []
    failures: list[tuple[int, int, tuple[str, str, str]]] = []  # (op id, pool index, failure)
    busy = 0.0
    op_id = 0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        for prep in preps:
            dt, failure, inp, res = attempt(workload, prep, tr, op_id)
            busy += dt
            if failure is None:
                samples.append(dt)
                if tr.enabled:
                    with tr.span("probe"):
                        workload.probe(prep, inp, res, tr)
            else:
                failures.append((op_id, prep.inst.index, failure))
            del inp, res
            op_id += 1
        passes += 1
        tr.counting = False
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The whole pool once: the first timed pass, then each known-defect
    # instance, untimed and unrecorded.
    by_index = {p.inst.index: p for p in preps + defects}
    pool_failures = {index: failure for op, index, failure in failures if op < len(preps)}
    for prep in defects:
        failure = attempt(workload, prep, NullTracer())[1]
        if failure is not None:
            pool_failures[prep.inst.index] = failure
    why = {index: explain(workload, by_index[index], failure)
           for index, failure in pool_failures.items()}

    p50 = statistics.median(samples) if samples else None
    tail_s, tail_pct = tail(samples)
    print(f"{args.workload}: seed {args.seed}, {len(preps)} timed instances x {passes} passes "
          f"in {wall:.1f} s, {len(defects)} known-defect instances, {tr.__class__.__name__}")
    for prep in preps + defects:
        inst = prep.inst
        role = "timed" if prep in preps else "known defect"
        print(f"  instance {inst.index} ({role}): {inst.label} unit 2**{inst.k}")
    for index, (layer, kind, message) in sorted(pool_failures.items()):
        print(f"  failed: instance {index} in {layer}, {kind} ({why[index]}): {message}")
    if failures:
        print(f"  {len(failures)} timed operations failed; no timed operation may fail")
    pool_size = len(preps) + len(defects)
    result = {
        "correct": not failures and "unexplained" not in why.values(),
        "attempted": op_id,
        "failed": len(failures),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "successes": len(samples),
        "ops_per_s": len(samples) / busy,
        "ready_at": ready_at,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": len(pool_failures) / pool_size,
        "pool_size": pool_size,
        "pool_failed": len(pool_failures),
        "failures": {str(i): why[i] for i in sorted(pool_failures)},
    }
    if tr.enabled:
        result["layers"] = layer_metrics(tr, range(len(preps)), list(pool_failures.values()))
        spans = Path("perfbench") / ".out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tr.write(spans)
        print(f"  spans written to {spans}")
    shutil.rmtree(workload.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
