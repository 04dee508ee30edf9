"""Smoke test: the sweep scripts run end to end against the package in src/,
and reject bad arguments with a usage error."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ["lambda_sweep.py", "tests/fixtures/depth2.json"],
    ["swing_grid.py", "tests/fixtures/depth2.json", "--check"],
    ["certify_sweep.py", "--instances", "2"],
]
BAD_RUNS = {
    "unknown-reward": ["lambda_sweep.py", "tests/fixtures/depth2.json", "--reward", "nope"],
    "grid-outside-unit-interval": ["lambda_sweep.py", "tests/fixtures/depth2.json", "--grid", "1.5"],
    "swing-unknown-reward": ["swing_grid.py", "tests/fixtures/depth2.json", "--reward", "nope"],
    "lambda-missing-model": ["lambda_sweep.py", "tests/fixtures/no_such_model.json"],
    "swing-missing-model": ["swing_grid.py", "tests/fixtures/no_such_model.json"],
    "lambda-unknown-start": ["lambda_sweep.py", "tests/fixtures/depth2.json", "--start", "zz"],
    "swing-unknown-start": ["swing_grid.py", "tests/fixtures/depth2.json", "--start", "zz"],
    "swing-d-max-zero": ["swing_grid.py", "tests/fixtures/depth2.json", "--d-max", "0"],
    "swing-negative-delta-max": ["swing_grid.py", "tests/fixtures/depth2.json", "--delta-max", "-1"],
    "certify-depth-zero": ["certify_sweep.py", "--depth", "0"],
    "certify-d-zero": ["certify_sweep.py", "--d", "0"],
    "certify-negative-instances": ["certify_sweep.py", "--instances", "-3"],
}


def _run(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("argv", RUNS, ids=[argv[0] for argv in RUNS])
def test_script_exits_zero(argv):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("argv", BAD_RUNS.values(), ids=BAD_RUNS.keys())
def test_script_rejects_bad_arguments(argv):
    proc = _run(argv)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
