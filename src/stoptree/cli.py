"""Command-line front end and report serialization.

One executable, five modes::

    solve single|multi|symmetric|swing|certify --model FILE [options]

Exit codes: 0 success, 1 report not writable, 2 unreadable or malformed
input, 3 infeasible instance, 4 enumeration/state budget exceeded, 5
certification failed.
Machine formats (json, csv) carry floats at full round-trip precision;
the text format rounds to 6 significant digits.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .market_model import (
    CapExceededError,
    InfeasibleError,
    ModelValidationError,
    MultiReward,
    NodeProcess,
    TreeModel,
    load_model,
    stopping_time_value,
)
from .multiple_stopping import solve_multi, tuple_value
from .oracle import DEFAULT_TUPLE_CAP, brute_force_value, certify
from .single_stopping import (
    EPS_EQ,
    check_eps,
    check_optimality,
    lambda_stop,
    lambda_threshold,
    minimal_optimal_stop,
    snell_solve,
)
from .symmetric_swing import swing_solve, symmetric_backward

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_CAP = 4
EXIT_CERTIFY = 5

MODES = ("single", "multi", "symmetric", "swing", "certify")


@dataclass
class RunConfig:
    mode: str
    model_path: str
    start: str | None = None
    reward: str | None = None
    d: int | None = None
    delta: int = 0
    lambdas: tuple[float, ...] = ()
    fmt: str = "json"
    out: str | None = None
    cap_tuples: int = DEFAULT_TUPLE_CAP
    eps: float = EPS_EQ

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.fmt!r}")
        check_eps(self.eps, "--eps")
        if self.cap_tuples < 1:
            raise ValueError(f"--cap-tuples must be >= 1, got {self.cap_tuples!r}")


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one CLI request; returns (exit code, report dict)."""
    try:
        model, processes = load_model(config.model_path)
        start = config.start if config.start is not None else model.root
        if start not in model:
            raise ModelValidationError(f"unknown start node {start!r}")
        handler = {
            "single": _run_single,
            "multi": _run_multi,
            "symmetric": _run_symmetric,
            "swing": _run_swing,
            "certify": _run_certify,
        }[config.mode]
        return handler(config, model, processes, start)
    except InfeasibleError as exc:
        return EXIT_INFEASIBLE, _error_report(config, "infeasible", exc)
    except CapExceededError as exc:
        return EXIT_CAP, _error_report(config, "cap-exceeded", exc)
    except (ModelValidationError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return EXIT_PARSE, _error_report(config, "parse-error", exc)


def _error_report(config: RunConfig, kind: str, exc: Exception) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": config.mode,
        "error": kind,
        "message": str(exc),
    }


def _base_report(config: RunConfig, model: TreeModel, start: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": config.mode,
        "model": config.model_path,
        "model_fingerprint": model.fingerprint(),
        "horizon": model.horizon,
        "start": start,
    }


def _value_table(model: TreeModel, values) -> list[dict]:
    return [
        {"node": nid, "time": model.time(nid), "value": values[nid]}
        for nid in model.node_ids()
    ]


def _resolve_process(config: RunConfig, processes: dict[str, NodeProcess]) -> NodeProcess:
    spec = config.reward
    if spec is None:
        if len(processes) == 1:
            return next(iter(processes.values()))
        raise ValueError(
            f"model defines {len(processes)} processes; pick one with --reward NAME"
        )
    name = spec.removeprefix("process:")
    if name not in processes:
        raise ValueError(f"model defines no process named {name!r}")
    return processes[name]


def _resolve_multi_reward(
    config: RunConfig, model: TreeModel, processes: dict[str, NodeProcess], d: int
) -> MultiReward:
    spec = config.reward
    if spec is None:
        if len(processes) == 1:
            return MultiReward.additive(next(iter(processes.values())), d)
        raise ValueError(
            f"model defines {len(processes)} processes; pick a reward with --reward"
        )
    if spec == "zero":
        return MultiReward.zero(d)
    if spec.startswith("table:"):
        return _load_table_reward(Path(spec[len("table:"):]), model, d)
    for prefix, builder in (("additive:", MultiReward.additive),
                            ("multiplicative:", MultiReward.multiplicative)):
        if spec.startswith(prefix):
            name = spec[len(prefix):]
            if name not in processes:
                raise ValueError(f"model defines no process named {name!r}")
            return builder(processes[name], d)
    if spec.removeprefix("process:") in processes:
        return MultiReward.additive(processes[spec.removeprefix("process:")], d)
    raise ValueError(f"cannot interpret reward spec {spec!r}")


def _load_table_reward(path: Path, model: TreeModel, d: int) -> MultiReward:
    """Load a general reward table (d <= 2) and check it covers every reachable row."""
    doc = json.loads(path.read_text())
    try:
        table_d = int(doc["d"])
        symmetric = bool(doc.get("symmetric", False))
        rows = [((str(row["node"]), tuple(int(t) for t in row["times"])), float(row["value"]))
                for row in doc["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed reward table {str(path)!r}: {exc}") from exc
    table = dict(rows)
    if len(table) != len(rows):
        nid, times = next(key for key, n in Counter(key for key, _ in rows).items() if n > 1)
        raise ValueError(f"reward table {str(path)!r} lists node {nid!r} at times {times} more than once")
    if table_d != d:
        raise ValueError(f"reward table is for d={table_d}, request says d={d}")
    if table_d > 2:
        raise ValueError("reward tables support d <= 2 only")
    for nid in model.node_ids():
        t = model.time(nid)
        if table_d == 1:
            needed = [(t,)]
        else:
            needed = [(s, t) for s in range(t + 1)] + [(t, s) for s in range(t)]
        for times in needed:
            if (nid, times) not in table:
                raise ValueError(
                    f"reward table misses node {nid!r} at times {times}"
                )
    return MultiReward.from_table(table_d, table, symmetric=symmetric)


def _run_single(config, model, processes, start):
    x = _resolve_process(config, processes)
    sol = snell_solve(x)
    tau = minimal_optimal_stop(sol, start)
    crit = check_optimality(sol, start, tau, eps=config.eps)
    report = _base_report(config, model, start)
    report.update(
        value=sol.value[start],
        value_table=_value_table(model, sol.value),
        reward_table=_value_table(model, sol.reward),
        equality_set=sorted(sol.equality_set),
        minimal_stop_nodes=sorted(tau.stop_set),
        criterium={
            "attains_value": crit.attains_value,
            "stops_on_equality_and_martingale": crit.stops_on_equality_and_martingale,
            "expected_reward_matches": crit.expected_reward_matches,
        },
        lambda_threshold=lambda_threshold(sol, start),
    )
    rows = []
    for lam in config.lambdas:
        rule = lambda_stop(sol, start, lam)
        reward = stopping_time_value(rule, x, start)
        bound = lam * sol.value[start]
        rows.append(
            {
                "lambda": lam,
                "stop_nodes": sorted(rule.stop_set),
                "expected_reward": reward,
                "lower_bound": bound,
                "bound_ok": reward >= bound - config.eps,
                "slack": reward - bound,
            }
        )
    if rows:
        report["lambda_rules"] = rows
    return EXIT_OK, report


def _run_multi(config, model, processes, start):
    d = config.d if config.d is not None else 2
    psi = _resolve_multi_reward(config, model, processes, d)
    rep = solve_multi(model, psi, start, eps=config.eps)
    report = _base_report(config, model, start)
    report.update(
        d=d,
        value=rep.value,
        reduced_value=rep.snell.value[start],
        reduction_residual=rep.diagnostics["reduction_residual"],
        supermartingale_slack=rep.diagnostics["supermartingale_slack"],
        new_reward_table=_value_table(model, rep.new_reward_process),
        reduced_value_table=_value_table(model, rep.snell.value),
        commit_value_tables=[_value_table(model, u) for u in rep.commit_values],
        component_stop_nodes=[
            sorted(tau.stop_set) for tau in rep.stopping_tuple.components
        ],
        earliest_stop_nodes=sorted(
            minimal_optimal_stop(rep.snell, start).stop_set
        ),
        instance_hash=rep.instance_hash,
    )
    return EXIT_OK, report


def _run_symmetric(config, model, processes, start):
    d = config.d if config.d is not None else 2
    psi = _resolve_multi_reward(config, model, processes, d)
    sol = symmetric_backward(model, psi, start, eps=config.eps)
    report = _base_report(config, model, start)
    report.update(
        d=d,
        value=sol.value,
        component_stop_nodes=[
            sorted(tau.stop_set) for tau in sol.components.components
        ],
        attained=tuple_value(sol.components, psi),
    )
    return EXIT_OK, report


def _run_swing(config, model, processes, start):
    d = config.d if config.d is not None else 2
    y = _resolve_process(config, processes)
    sol = swing_solve(model, y, d, config.delta, start, eps=config.eps)
    report = _base_report(config, model, start)
    report.update(
        d=d,
        delta=config.delta,
        value=sol.value,
        value_table=_value_table(model, sol.value_process),
        post_exercise_tables=[_value_table(model, zp) for zp in sol.z],
        component_stop_nodes=[
            sorted(tau.stop_set) for tau in sol.components.components
        ],
        exercise_times={leaf: list(ts) for leaf, ts in sorted(sol.exercise_times.items())},
    )
    return EXIT_OK, report


def _run_certify(config, model, processes, start):
    d = config.d if config.d is not None else 2
    psi = _resolve_multi_reward(config, model, processes, d)
    rep = solve_multi(model, psi, start, eps=config.eps)
    oracle_report = brute_force_value(
        model,
        psi,
        start,
        cap_tuples=config.cap_tuples,
        eps=config.eps,
    )
    verdict = certify(rep, oracle_report, eps=config.eps)
    report = _base_report(config, model, start)
    report.update(
        d=d,
        solver_value=verdict.solver_value,
        oracle_value=verdict.oracle_value,
        enumerated=oracle_report.enumerated_count,
        optimal_count=len(oracle_report.optimal_tuples),
        elapsed=oracle_report.elapsed,
        verdict=verdict.to_dict(),
    )
    return (EXIT_OK if verdict.passed else EXIT_CERTIFY), report


def emit_report(report: dict, fmt: str) -> str:
    """Render a report dict as json, csv, or text."""
    if fmt == "json":
        return _json(report, "") + "\n"
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "text":
        return _emit_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _json(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` at nesting ``pad``, byte for byte.

    Any ``indent`` keeps ``json.dumps`` off its C encoder, so dicts and lists
    are laid out here and strings go through the encoder's own escaping; a
    ``{"node", "time", "value"}`` row is rendered from one template. Anything
    else (bools, None, nan, empty containers, non-string keys) is left to
    ``json.dumps`` itself.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if type(obj) is int or type(obj) is float and math.isfinite(obj):
        return repr(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and tuple(obj) == ("node", "time", "value"):
        node, time, value = obj.values()
        if isinstance(node, str) and type(time) is int and type(value) is float and math.isfinite(value):
            return (f'{{\n{inner}"node": {_encode_str(node)},\n{inner}"time": {time!r},'
                    f'\n{inner}"value": {value!r}\n{pad}}}')
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = [f"{_encode_str(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = [_json(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        if all(isinstance(x, dict) and "node" in x and "value" in x for x in obj) and obj:
            for x in obj:
                _flatten(f"{prefix}.{x['node']}", x["value"], rows)
        else:
            for i, x in enumerate(obj):
                _flatten(f"{prefix}[{i}]", x, rows)
    else:
        rows.append((prefix, _scalar(obj)))


def _scalar(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _emit_csv(report: dict) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


def _emit_text(report: dict) -> str:
    lines = []

    def fmt(x):
        return format(x, ".6g") if isinstance(x, float) else str(x)

    for k, v in report.items():
        if isinstance(v, list) and v and isinstance(v[0], dict) and "node" in v[0]:
            lines.append(f"{k}:")
            for row in v:
                lines.append(f"  {row['node']} (t={row['time']}): {fmt(row['value'])}")
        elif isinstance(v, dict):
            lines.append(f"{k}:")
            for kk, vv in v.items():
                lines.append(f"  {kk}: {fmt(vv) if not isinstance(vv, list) else vv}")
        elif isinstance(v, list):
            lines.append(f"{k}: {v}")
        else:
            lines.append(f"{k}: {fmt(v)}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solve",
        description="Exact optimal stopping on finite event trees.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"{mode} mode")
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--start", default=None, help="start node id (default: root)")
        p.add_argument("--reward", default=None,
                       help="reward spec: NAME | process:NAME | additive:NAME | "
                            "multiplicative:NAME | table:PATH | zero")
        p.add_argument("--d", type=int, default=None, help="number of stops / rights")
        p.add_argument("--delta", type=int, default=0, help="refraction period (swing)")
        p.add_argument("--lambda", dest="lambdas", default="",
                       help="comma list of fractions for relaxed stopping rules")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                       default="json")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--cap-tuples", type=int, default=DEFAULT_TUPLE_CAP)
        p.add_argument("--eps", type=float, default=EPS_EQ)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        lambdas = tuple(float(s) for s in args.lambdas.split(",") if s.strip())
    except ValueError:
        print(f"unparseable --lambda list {args.lambdas!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        config = RunConfig(
            mode=args.mode,
            model_path=args.model,
            start=args.start,
            reward=args.reward,
            d=args.d,
            delta=args.delta,
            lambdas=lambdas,
            fmt=args.fmt,
            out=args.out,
            cap_tuples=args.cap_tuples,
            eps=args.eps,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    code, report = run(config)
    text = emit_report(report, config.fmt)
    if config.out:
        try:
            Path(config.out).write_text(text)
        except OSError as exc:
            print(f"cannot write report to {config.out!r}: {exc}", file=sys.stderr)
            return EXIT_ERROR
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
