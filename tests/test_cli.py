"""CLI contract: exit codes, JSON schema validity, CSV round-trips,
byte-identical reruns."""

import csv
import io
import json
import subprocess
import sys

import jsonschema
import pytest

from lefschetz_props.cli import run
from lefschetz_props.reporting import JSON_SCHEMAS, SCHEMA_ID, pairs_from_csv_rows

BK = "x1^3,x2^3,x3^3,x1*x2*x3"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def validate(payload):
    assert payload["schema"] == SCHEMA_ID
    jsonschema.validate(payload, JSON_SCHEMAS[payload["kind"]])


def test_slp_on_brenner_kaid_fails(capsys, tmp_path):
    path = tmp_path / "bk3.ideal"
    path.write_text("x1^3\nx2^3\nx3^3\nx1*x2*x3\n")
    code, payload = invoke_json(capsys, "slp", "--ideal", str(path))
    assert code == 1
    assert payload["verdict"] is False
    validate(payload)


def test_wlp_exit_codes(capsys):
    code, payload = invoke_json(capsys, "wlp", "--gens", "x1^2,x2^2,x3^2")
    assert code == 0 and payload["verdict"] is True
    validate(payload)
    code, payload = invoke_json(capsys, "wlp", "--gens", BK)
    assert code == 1 and payload["verdict"] is False


def test_power_subcommand(capsys):
    code, payload = invoke_json(capsys, "power", "--gens", BK, "--i", "1")
    assert code == 1 and payload["verdict"] is False
    assert payload["power"] == 1
    validate(payload)
    code, payload = invoke_json(
        capsys, "power", "--gens", "x1^2,x2^2,x3^2", "--i", "2", "--method", "full"
    )
    assert code == 0 and payload["verdict"] is True
    validate(payload)


def test_classify_examples(capsys):
    code, payload = invoke_json(
        capsys, "classify", "--sequence", "1,2,2,1", "--property", "slp"
    )
    assert code == 0 and payload["forces"] is True
    validate(payload)
    code, payload = invoke_json(
        capsys, "classify", "--sequence", "1,3,3,1", "--property", "slp"
    )
    assert code == 1 and payload["forces"] is False


def test_osequence(capsys):
    code, payload = invoke_json(capsys, "osequence", "--sequence", "1,3,6,6,3")
    assert code == 0 and payload["is_o_sequence"] is True
    validate(payload)
    code, payload = invoke_json(capsys, "osequence", "--sequence", "1,3,7")
    assert code == 1 and payload["is_o_sequence"] is False


def test_extremal(capsys):
    code, payload = invoke_json(capsys, "extremal", "--n", "3", "--d", "5", "--i", "3")
    assert code == 0
    assert payload["hf_d"] == 4 and payload["support_size"] == 4
    validate(payload)


def test_dual_from_element(capsys):
    code, payload = invoke_json(
        capsys, "dual", "--n", "3", "--d", "3",
        "--f", "y1*y2^2 - 2*y1*y2*y3 + y1*y3^2",
    )
    assert code == 0
    assert payload["hf_d"] == 3 and payload["artinian"] is True
    assert len(payload["generators"]) == 7
    validate(payload)


def test_dual_from_support(capsys):
    code, payload = invoke_json(
        capsys, "dual", "--n", "3", "--d", "2", "--support", "y1*y2,y2*y3"
    )
    assert code == 0 and payload["hf_d"] == 2
    validate(payload)


def test_minsupport(capsys):
    code, payload = invoke_json(
        capsys, "minsupport", "--n", "3", "--d", "4", "--i", "2", "--bound", "4"
    )
    assert code == 0 and payload["min_support"] == 4
    validate(payload)
    code, payload = invoke_json(
        capsys, "minsupport", "--n", "3", "--d", "4", "--i", "2", "--bound", "3"
    )
    assert code == 1 and payload["min_support"] is None


def test_minsupport_budget_exit(capsys):
    code, _ = invoke(
        capsys, "minsupport", "--n", "3", "--d", "5", "--i", "2",
        "--bound", "5", "--budget", "10",
    )
    assert code == 3


def test_crosscheck_all_masks_budget_exit(capsys):
    code, _ = invoke(capsys, "crosscheck", "--n", "4", "--d", "4", "--sample", "all")
    assert code == 3


def test_hf_and_socle(capsys):
    code, payload = invoke_json(capsys, "hf", "--gens", BK)
    assert code == 0
    assert payload["hilbert_function"] == [1, 3, 6, 6, 3, 0]
    validate(payload)
    code, payload = invoke_json(capsys, "socle", "--gens", BK)
    assert code == 0 and payload["socle_degree"] == 4
    validate(payload)


def test_hf_requires_upto_for_non_artinian(capsys):
    code, _ = invoke(capsys, "hf", "--gens", "x1^2,x2^2", "--n", "3")
    assert code == 2


def test_verify_thm1(capsys):
    code, payload = invoke_json(
        capsys, "verify-thm1", "--n", "3", "--d", "3", "--no-timestamp"
    )
    assert code == 0
    assert payload["confirmed"] is True and payload["expected_bound"] == 6
    assert "elapsed_seconds" not in payload
    validate(payload)


def test_verify_thm2_and_thm37(capsys):
    code, payload = invoke_json(
        capsys, "verify-thm2", "--n", "3", "--d", "3", "--no-timestamp"
    )
    assert code == 0 and payload["expected_bound"] == 3
    validate(payload)
    code, payload = invoke_json(
        capsys, "verify-thm37", "--n", "3", "--d", "3", "--i", "2", "--no-timestamp"
    )
    assert code == 0 and payload["confirmed"] is True
    validate(payload)


def test_crosscheck_and_named(capsys):
    code, payload = invoke_json(
        capsys, "crosscheck", "--n", "3", "--d", "2", "--sample", "all",
        "--no-timestamp",
    )
    assert code == 0 and payload["confirmed"] is True
    validate(payload)
    code, payload = invoke_json(capsys, "named", "--no-timestamp")
    assert code == 0 and payload["confirmed"] is True
    validate(payload)


def test_config_file(capsys, tmp_path):
    conf = tmp_path / "campaign.cfg"
    conf.write_text("# thm1 campaign\nn = 3\nd = 3\nproperty = wlp\nthreads = 1\n")
    code, payload = invoke_json(
        capsys, "verify-thm1", "--config", str(conf), "--no-timestamp"
    )
    assert code == 0 and payload["params"]["n"] == 3
    # property mismatch is a usage error
    bad = tmp_path / "bad.cfg"
    bad.write_text("property = slp\n")
    code, _ = invoke(capsys, "verify-thm1", "--config", str(bad))
    assert code == 2
    # 'range' is not a config key: the window follows from the bound
    ranged = tmp_path / "range.cfg"
    ranged.write_text("n = 3\nd = 3\nrange = 0-5\n")
    code, _ = invoke(capsys, "verify-thm1", "--config", str(ranged))
    assert code == 2


def test_parse_error_diagnostics(capsys, tmp_path):
    path = tmp_path / "bad.ideal"
    path.write_text("x1^3\nx2^@3\n")
    code = run(["hf", "--ideal", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2, column 4" in captured.err


def test_usage_errors(capsys):
    assert run(["wlp"]) == 2                      # no ideal given
    assert run(["nonsense"]) == 2                 # unknown subcommand
    assert run(["wlp", "--gens", "x1^2,x2^2", "--n", "3"]) == 2  # non-artinian
    assert run(["slp", "--gens", "x1^2+x2*x3,x2^2-x1*x3,x3^2",
                "--mode", "randomized", "--trials", "0"]) == 2
    assert run(["verify-thm1", "--n", "3", "--d", "3", "--threads", "0"]) == 2
    assert run(["verify-thm1", "--n", "3", "--d", "3", "--budget-ideals", "-1"]) == 2
    assert run(["verify-thm2", "--n", "3", "--d", "3", "--budget-entries", "-1"]) == 2
    # the shortcut deciders take monomial ideals only
    forms = "x1^2+x2*x3,x2^2-x1*x3,x3^2"
    assert run(["power", "--gens", forms, "--i", "1"]) == 2
    assert run(["slp", "--gens", forms, "--method", "shortcut"]) == 2
    assert "--method full" in capsys.readouterr().err


def test_csv_pairs_round_trip(capsys):
    code, json_out = invoke(capsys, "wlp", "--gens", BK, "--no-timestamp")
    payload = json.loads(json_out)
    code, csv_out = invoke(
        capsys, "wlp", "--gens", BK, "--format", "csv", "--no-timestamp"
    )
    rows = list(csv.reader(io.StringIO(csv_out)))
    records = pairs_from_csv_rows(rows)
    assert [r.to_dict() for r in records] == payload["pairs"]


def test_csv_hf(capsys):
    code, out = invoke(capsys, "hf", "--gens", BK, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "h"]
    assert [int(r[1]) for r in rows[1:]] == [1, 3, 6, 6, 3, 0]


def test_byte_identical_reruns(capsys):
    args = ("slp", "--gens", BK, "--mode", "randomized", "--seed", "9",
            "--no-timestamp")
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    assert first == second


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lefschetz_props.cli"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2  # no subcommand


def test_entry_point_module_main():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from lefschetz_props.cli import run; raise SystemExit("
         "run(['classify','--sequence','1,2,2,1','--property','slp']))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["forces"] is True
