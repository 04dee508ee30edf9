"""Command-line contract: modes, formats, exit codes, round-trips."""
from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from stoptree import load_model, snell_solve
from stoptree.cli import (
    EXIT_CAP,
    EXIT_CERTIFY,
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    RunConfig,
    _load_table_reward,
    emit_report,
    main,
    run,
)

FIXTURES = Path(__file__).parent / "fixtures"
DEPTH2 = str(FIXTURES / "depth2.json")
TIE = str(FIXTURES / "tie.json")
TIE_TABLE = str(FIXTURES / "tie_table.json")
TABLE_D2 = str(FIXTURES / "table_d2.json")
DEPTH4 = str(FIXTURES / "depth4.json")


def test_single_json_round_trip(tmp_path):
    out = tmp_path / "report.json"
    code = main(["single", "--model", DEPTH2, "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["schema_version"] == "1"
    assert report["value"] == 2.0
    assert report["minimal_stop_nodes"] == ["dd", "du", "u"]
    # full-precision floats: the table round-trips bit-for-bit
    model, procs = load_model(DEPTH2)
    sol = snell_solve(procs["x"])
    assert {row["node"]: row["value"] for row in report["value_table"]} == {
        nid: sol.value[nid] for nid in model.node_ids()
    }
    assert report["model_fingerprint"] == model.fingerprint()


def test_single_lambda_table():
    code, report = run(RunConfig(mode="single", model_path=DEPTH2, lambdas=(0.5, 0.9)))
    assert code == EXIT_OK
    assert report["lambda_threshold"] == 0.75
    rows = report["lambda_rules"]
    assert rows[0]["stop_nodes"] == ["n0"]
    assert rows[1]["stop_nodes"] == ["dd", "du", "u"]
    assert all(r["bound_ok"] for r in rows)


def test_multi_additive_defaults():
    # one process in the file: it becomes the additive reward without a flag
    code, report = run(RunConfig(mode="multi", model_path=DEPTH2, d=2))
    assert code == EXIT_OK
    assert report["value"] == 4.0
    assert report["reduction_residual"] == 0.0
    assert report["reduced_value"] == 4.0
    assert len(report["component_stop_nodes"]) == 2


def test_multi_table_reward():
    code, report = run(
        RunConfig(mode="multi", model_path=DEPTH2, d=2, reward=f"table:{TABLE_D2}")
    )
    assert code == EXIT_OK
    assert report["value"] == 3.75
    assert report["component_stop_nodes"] == [["d", "ud", "uu"], ["d", "u"]]


def test_symmetric_mode():
    code, report = run(
        RunConfig(mode="symmetric", model_path=DEPTH2, d=2, reward="multiplicative:x")
    )
    assert code == EXIT_OK
    assert report["value"] == 8.0
    assert report["attained"] == 8.0


def test_swing_mode():
    code, report = run(RunConfig(mode="swing", model_path=DEPTH2, d=2, delta=1))
    assert code == EXIT_OK
    assert report["value"] == 3.5
    assert report["exercise_times"] == {
        "uu": [1, 2], "ud": [1, 2], "du": [1, 2], "dd": [1, 2],
    }
    assert len(report["post_exercise_tables"]) == 2


def test_certify_mode_passes():
    code, report = run(RunConfig(mode="certify", model_path=DEPTH2, d=2))
    assert code == EXIT_OK
    assert report["verdict"]["passed"] is True
    assert report["solver_value"] == report["oracle_value"] == 4.0
    assert report["enumerated"] == 25


def test_certify_mode_fails_on_tied_optima():
    code, report = run(
        RunConfig(mode="certify", model_path=TIE, d=2, reward=f"table:{TIE_TABLE}")
    )
    assert code == EXIT_CERTIFY
    assert report["verdict"]["value_ok"] is True
    assert report["verdict"]["minimal"] is False


def test_exit_parse_errors(tmp_path):
    code, report = run(RunConfig(mode="single", model_path=str(tmp_path / "nope.json")))
    assert code == EXIT_PARSE and report["error"] == "parse-error"

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(RunConfig(mode="single", model_path=str(bad)))[0] == EXIT_PARSE

    assert run(RunConfig(mode="single", model_path=DEPTH2, start="zz"))[0] == EXIT_PARSE
    assert run(RunConfig(mode="single", model_path=DEPTH2, reward="nope"))[0] == EXIT_PARSE
    assert run(RunConfig(mode="multi", model_path=DEPTH2, d=3,
                         reward=f"table:{TABLE_D2}"))[0] == EXIT_PARSE


def test_exit_parse_on_incomplete_table(tmp_path):
    doc = json.loads(Path(TABLE_D2).read_text())
    doc["rows"] = doc["rows"][:-1]
    trimmed = tmp_path / "trimmed.json"
    trimmed.write_text(json.dumps(doc))
    code, report = run(
        RunConfig(mode="multi", model_path=DEPTH2, d=2, reward=f"table:{trimmed}")
    )
    assert code == EXIT_PARSE
    assert "misses" in report["message"]


def test_exit_parse_on_asymmetric_table_marked_symmetric(tmp_path):
    doc = json.loads(Path(TABLE_D2).read_text())
    doc["symmetric"] = True
    marked = tmp_path / "marked.json"
    marked.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["symmetric", "--model", DEPTH2, "--d", "2",
                 "--reward", f"table:{marked}", "--out", str(out)])
    assert code == EXIT_PARSE
    assert "marked symmetric" in json.loads(out.read_text())["message"]


def test_exit_parse_on_null_processes(tmp_path):
    doc = json.loads(Path(DEPTH2).read_text())
    doc["processes"] = None
    bad = tmp_path / "null.json"
    bad.write_text(json.dumps(doc))
    code, report = run(RunConfig(mode="single", model_path=str(bad)))
    assert code == EXIT_PARSE
    assert "processes" in report["message"]


def test_exit_parse_on_table_that_is_a_list(tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps(json.loads(Path(TABLE_D2).read_text())["rows"]))
    code, report = run(
        RunConfig(mode="multi", model_path=DEPTH2, d=2, reward=f"table:{listed}")
    )
    assert code == EXIT_PARSE
    assert "malformed reward table" in report["message"]


def test_exit_parse_on_table_row_with_scalar_times(tmp_path):
    doc = json.loads(Path(TABLE_D2).read_text())
    doc["rows"][0]["times"] = 5
    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps(doc))
    code, report = run(
        RunConfig(mode="multi", model_path=DEPTH2, d=2, reward=f"table:{scalar}")
    )
    assert code == EXIT_PARSE
    assert "malformed reward table" in report["message"]


def test_unwritable_out_path_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["single", "--model", DEPTH2, "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "cannot write report" in captured.err


def test_exit_infeasible():
    code, report = run(RunConfig(mode="swing", model_path=DEPTH2, d=2, delta=3))
    assert code == EXIT_INFEASIBLE
    assert report["error"] == "infeasible"


def test_exit_cap():
    code, report = run(RunConfig(mode="certify", model_path=DEPTH2, d=2, cap_tuples=3))
    assert code == EXIT_CAP
    assert report["error"] == "cap-exceeded"


def test_exit_cap_on_swing_state_budget(monkeypatch):
    monkeypatch.setattr("stoptree.multiple_stopping.DEFAULT_STATE_CAP", 5)
    code, report = run(RunConfig(mode="swing", model_path=DEPTH2, d=2, delta=1))
    assert code == EXIT_CAP
    assert report["error"] == "cap-exceeded"
    assert "swing value table exceeded its budget of 5 states" in report["message"]


@pytest.mark.parametrize("mode, eps", [("multi", "-1"), ("certify", "nan"),
                                       ("single", "-1"), ("single", "inf")])
def test_eps_must_be_finite_and_nonnegative(mode, eps, capsys):
    assert main([mode, "--model", DEPTH2, "--eps", eps]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--eps" in captured.err


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_cap_tuples_must_be_positive(cap, capsys):
    assert main(["certify", "--model", DEPTH2, "--cap-tuples", cap]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--cap-tuples" in captured.err


def test_lambda_flag_parsing(capsys):
    assert main(["single", "--model", DEPTH2, "--lambda", "0.5,oops"]) == EXIT_PARSE
    code = main(["single", "--model", DEPTH2, "--lambda", "0.5,0.9"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [r["lambda"] for r in report["lambda_rules"]] == [0.5, 0.9]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["unknown-mode", "--model", DEPTH2])
    assert err.value.code == EXIT_PARSE


def test_ambiguous_reward_needs_flag(tmp_path):
    doc = json.loads(Path(DEPTH2).read_text())
    doc["processes"]["x2"] = doc["processes"]["x"]
    two = tmp_path / "two.json"
    two.write_text(json.dumps(doc))
    code, report = run(RunConfig(mode="single", model_path=str(two)))
    assert code == EXIT_PARSE
    assert run(RunConfig(mode="single", model_path=str(two), reward="x2"))[0] == EXIT_OK


def test_csv_format():
    code, report = run(RunConfig(mode="single", model_path=DEPTH2, fmt="csv"))
    text = emit_report(report, "csv")
    rows = dict(list(csv.reader(io.StringIO(text)))[1:])
    assert rows["value"] == "2.0"
    assert rows["value_table.d"] == "4.0"
    assert rows["mode"] == "single"


def test_text_format_rounds():
    code, report = run(RunConfig(mode="single", model_path=DEPTH2, fmt="text"))
    text = emit_report(report, "text")
    assert "value: 2\n" in text
    assert "schema_version: 1" in text


def test_swing_exercise_rows_in_json(capsys):
    code = main(["swing", "--model", DEPTH4, "--d", "2", "--delta", "2"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == 16.0625
    for times in report["exercise_times"].values():
        assert times[1] - times[0] >= 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "stoptree", "single", "--model", DEPTH2, "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "value: 2" in proc.stdout


def test_single_exits_parse_on_a_repeated_process_row(tmp_path):
    doc = json.loads(Path(DEPTH2).read_text())
    doc["processes"]["x"].append({"id": "n0", "value": 999})
    model = tmp_path / "repeated.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["single", "--model", str(model), "--out", str(out)]) == EXIT_PARSE
    assert "'n0' more than once" in json.loads(out.read_text())["message"]


def _table_with_a_repeated_row(tmp_path) -> Path:
    doc = json.loads(Path(TABLE_D2).read_text())
    doc["rows"].append({"node": "n0", "times": [0, 0], "value": 12345})
    path = tmp_path / "repeated_table.json"
    path.write_text(json.dumps(doc))
    return path


def test_table_reward_rejects_a_repeated_row(tmp_path):
    model, _ = load_model(DEPTH2)
    with pytest.raises(ValueError, match=r"lists node 'n0' at times \(0, 0\) more than once"):
        _load_table_reward(_table_with_a_repeated_row(tmp_path), model, 2)


def test_multi_exits_parse_on_a_repeated_table_row(tmp_path):
    table, out = _table_with_a_repeated_row(tmp_path), tmp_path / "report.json"
    argv = ["multi", "--model", DEPTH2, "--d", "2", "--reward", f"table:{table}", "--out", str(out)]
    assert main(argv) == EXIT_PARSE
    assert "'n0' at times (0, 0) more than once" in json.loads(out.read_text())["message"]
