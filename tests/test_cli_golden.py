"""Golden CLI contract: exit code and stdout digest of every mode × format ×
fixture × flag combination, pinned in ``fixtures/cli_golden.json``.

The ``elapsed`` value varies from run to run and is blanked before hashing.
Regenerate the file from the repository root after a deliberate change of
output with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from stoptree.cli import MODES, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "cli_golden.json"
FIXTURE_NAMES = ("chain3", "depth2", "tie", "depth4")
FLAGS = ((), ("--d", "3"), ("--delta", "1"), ("--lambda", "0.5,0.9"))
FORMATS = ("json", "csv", "text")
_ELAPSED = re.compile(r'(elapsed"?[:,] ?)[^,\n]+')


def _runs(mode: str, fixture: str):
    """The (key, argv) pairs of one mode on one fixture; certify on depth4
    enumerates 458,329 tuples, so it runs once, without flags, as json."""
    for flags in FLAGS:
        for fmt in FORMATS:
            if (mode, fixture) == ("certify", "depth4") and (flags or fmt != "json"):
                continue
            argv = [mode, "--model", f"tests/fixtures/{fixture}.json", *flags, "--format", fmt]
            yield " ".join([mode, fixture, *flags, fmt]), argv


def _digest(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    text = _ELAPSED.sub(r"\1", buf.getvalue())
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
@pytest.mark.parametrize("mode", MODES)
def test_cli_output_matches_golden(mode, fixture, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())
    got = {key: _digest(argv) for key, argv in _runs(mode, fixture)}
    assert got == {key: golden[key] for key in got}


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    table = {key: _digest(argv) for mode in MODES for fixture in FIXTURE_NAMES
             for key, argv in _runs(mode, fixture)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} runs to {GOLDEN}")
