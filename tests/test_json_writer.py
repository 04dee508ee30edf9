"""The CLI's json writer against its reference, ``json.dumps(report, indent=2)``:
every json report the golden CLI runs produce, error reports included, and
seeded random reports that mix every kind of value a report holds."""
from __future__ import annotations

import json
import random

import pytest

from stoptree import cli
from stoptree.cli import MODES, RunConfig, emit_report, main, run
from tests.test_cli_golden import FIXTURE_NAMES, ROOT, _runs


def _reference(report) -> str:
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
@pytest.mark.parametrize("mode", MODES)
def test_writer_matches_json_dumps_on_golden_reports(mode, fixture, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    reports = []

    def spy(report, fmt):
        reports.append(report)
        return emit_report(report, fmt)

    monkeypatch.setattr(cli, "emit_report", spy)
    for _, argv in _runs(mode, fixture):
        if argv[-1] == "json":
            main(argv)
    capsys.readouterr()
    assert reports
    for report in reports:
        assert emit_report(report, "json") == _reference(report)


@pytest.mark.parametrize("config, code", [
    (RunConfig(mode="single", model_path="tests/fixtures/nope.json"), cli.EXIT_PARSE),
    (RunConfig(mode="single", model_path="tests/fixtures/depth2.json", start="zz\u00e9"), cli.EXIT_PARSE),
    (RunConfig(mode="swing", model_path="tests/fixtures/depth2.json", d=2, delta=3), cli.EXIT_INFEASIBLE),
    (RunConfig(mode="certify", model_path="tests/fixtures/depth2.json", d=2, cap_tuples=3), cli.EXIT_CAP),
    (RunConfig(mode="certify", model_path="tests/fixtures/tie.json", d=2,
               reward="table:tests/fixtures/tie_table.json"), cli.EXIT_CERTIFY),
])
def test_writer_matches_json_dumps_on_error_reports(config, code, monkeypatch):
    # the golden runs all exit 0, so the failing exits are run here
    monkeypatch.chdir(ROOT)
    got, report = run(config)
    assert got == code
    assert emit_report(report, "json") == _reference(report)


_NAMES = ("n0", "uu", "dü", "ĳk", "日本", "a\"b", "tab\there", "\x7f", "\U0001f600", "")
_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 2.5, 1e16, 123456789.125, float("nan"),
           float("inf"), float("-inf"))
_SCALARS = (*_FLOATS, 0, -7, 2**70, True, False, None)


def _row(rng: random.Random) -> dict:
    return {"node": rng.choice(_NAMES), "time": rng.randint(0, 12), "value": rng.choice(_FLOATS)}


def _value(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth < 3 else 3)
    if kind == 0:
        return rng.choice(_SCALARS)
    if kind == 1:
        return rng.choice(_NAMES)
    if kind == 2:
        return rng.choice(([], {}, (), rng.random(), rng.randint(-5, 5)))
    if kind == 3:
        return [_row(rng) for _ in range(rng.randint(1, 4))]
    if kind == 4:
        return [[_row(rng) for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(1, 3))]
    if kind == 5:
        return {rng.choice(_NAMES) + str(i): [rng.randint(0, 9) for _ in range(rng.randint(0, 3))]
                for i in range(rng.randint(1, 3))}
    if kind == 6:
        return sorted({rng.choice(_NAMES) for _ in range(rng.randint(1, 5))})
    if kind == 7:
        return [_value(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    return {rng.choice(_NAMES) + str(i): _value(rng, depth + 1) for i in range(rng.randint(1, 4))}


@pytest.mark.parametrize("seed", range(40))
def test_writer_matches_json_dumps_on_random_reports(seed):
    rng = random.Random(seed)
    report = {"schema_version": "1", "mode": "single", "model": "módel/ünïcode.json"}
    report.update({f"k{i}": _value(rng, 0) for i in range(8)})
    assert emit_report(report, "json") == _reference(report)


@pytest.mark.parametrize("value", [
    {"node": "n0", "time": 1, "value": 2},            # int value: no template
    {"node": "n0", "time": True, "value": 1.0},       # bool time
    {"node": 3, "time": 1, "value": 1.0},             # non-string node
    {"time": 1, "node": "n0", "value": 1.0},          # keys out of order
    {"node": "n0", "time": 1, "value": float("nan")},
    {1: "a", None: [1.0], 2.5: {"x": []}, True: {}},  # non-string keys
])
def test_writer_matches_json_dumps_off_the_row_template(value):
    report = {"rows": [value, [value]], "one": value}
    assert emit_report(report, "json") == _reference(report)
