"""Smoke test: the sweep scripts run end to end against the package in src/."""
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


@pytest.mark.parametrize("argv", RUNS, ids=[argv[0] for argv in RUNS])
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
