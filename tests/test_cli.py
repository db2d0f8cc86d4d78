"""CLI contract: exit codes, JSON schema validity, CSV round-trips,
byte-identical reruns."""

import csv
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from lefschetz_props.cli import run
from lefschetz_props.ideals import MonomialIdeal
from lefschetz_props.lefschetz import check_power, check_slp, check_wlp
from lefschetz_props.reporting import (
    JSON_SCHEMAS,
    PAIR_FIELDS,
    SCHEMA_ID,
    PairRecord,
    pairs_from_csv_rows,
    pairs_to_csv_rows,
)

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


def test_dual_refuses_a_repeated_support_monomial(capsys):
    # the support is a set: a repeat would be echoed twice beside hf_d 1
    for support in ("y1*y2,y1*y2", "y1*y2,y2*y3,y2*y1"):
        assert run(["dual", "--n", "3", "--d", "2", "--support", support]) == 2
        captured = capsys.readouterr()
        assert not captured.out and "repeats the monomial y1*y2" in captured.err


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


def test_support_searches_refuse_bad_arguments_before_searching(capsys, monkeypatch):
    # usage errors (exit 2), not budget stops (exit 3), each naming its
    # problem: two variables, which the witness of verify-thm37 cannot have,
    # negative budgets, no variables, and a degree whose R_d is zero
    from lefschetz_props import harness

    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(harness, "_build_monomial_rows", search)
    assert run(["verify-thm37", "--n", "2", "--d", "40", "--i", "1"]) == 2
    assert run(["verify-thm37", "--n", "3", "--d", "5", "--i", "2", "--budget", "-5"]) == 2
    assert run(["minsupport", "--n", "3", "--d", "4", "--i", "2", "--bound", "4",
                "--budget", "-5"]) == 2
    assert "budget must be non-negative" in capsys.readouterr().err
    for n in ("0", "-1"):
        assert run(["minsupport", "--n", n, "--d", "4", "--i", "2", "--bound", "4"]) == 2
        assert "need n >= 1" in capsys.readouterr().err
    assert run(["minsupport", "--gens", "x1^2,x2^2,x3^2", "--d", "5", "--i", "1",
                "--bound", "1"]) == 2
    assert "R_5 is zero" in capsys.readouterr().err


def test_crosscheck_all_masks_budget_exit(capsys):
    code, _ = invoke(capsys, "crosscheck", "--n", "4", "--d", "4", "--sample", "all")
    assert code == 3


def test_crosscheck_sample_budget_exit(capsys, monkeypatch):
    from lefschetz_props import harness

    monkeypatch.setattr(harness, "DEFAULT_BUDGET_IDEALS", 10)
    code, _ = invoke(capsys, "crosscheck", "--n", "3", "--d", "3", "--sample", "11")
    assert code == 3


def test_crosscheck_empty_sample_is_a_usage_error(capsys):
    for bad in ("0", "-3"):
        code = run(["crosscheck", "--n", "3", "--d", "3", "--sample", bad])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "at least 1" in captured.err


def test_crosscheck_below_degree_two_is_a_usage_error(capsys):
    for d in ("0", "1"):
        code = run(["crosscheck", "--n", "3", "--d", d])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "need d >= 2" in captured.err


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


def test_config_symmetry_switch(capsys, tmp_path):
    conf = tmp_path / "off.cfg"
    conf.write_text("n = 3\nd = 4\nsymmetry = off\n")
    code, payload = invoke_json(capsys, "verify-thm1", "--config", str(conf), "--no-timestamp")
    assert code == 0 and payload["params"]["symmetry"] is False
    code, flag = invoke_json(
        capsys, "verify-thm1", "--n", "3", "--d", "4", "--no-symmetry", "--no-timestamp"
    )
    assert payload["examined"] == flag["examined"] == 4018
    # an explicit flag wins over the config
    code, payload = invoke_json(
        capsys, "verify-thm1", "--config", str(conf), "--symmetry", "--no-timestamp"
    )
    assert code == 0 and payload["params"]["symmetry"] is True
    assert payload["examined"] == 735
    conf.write_text("n = 3\nd = 4\nsymmetry = maybe\n")
    code, _ = invoke(capsys, "verify-thm1", "--config", str(conf))
    assert code == 2


def test_config_budget_goes_to_each_subcommands_budget(capsys, tmp_path):
    conf = tmp_path / "budget.cfg"
    conf.write_text("budget = 5\n")
    # the row-set budget of the minimal-support search, as --budget 5 is
    thm37 = ["verify-thm37", "--n", "3", "--d", "5", "--i", "2"]
    for extra in (["--config", str(conf)], ["--budget", "5"]):
        assert run(thm37 + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeded 5 row sets" in captured.err
    # the ideal budget of a bound campaign, as --budget-ideals 5 is
    code, payload = invoke_json(
        capsys, "verify-thm1", "--n", "3", "--d", "4", "--config", str(conf), "--no-timestamp"
    )
    code_flag, flag = invoke_json(
        capsys, "verify-thm1", "--n", "3", "--d", "4", "--budget-ideals", "5", "--no-timestamp"
    )
    assert code == code_flag == 3 and payload == flag and payload["examined"] == 5


@pytest.mark.parametrize("command, key", [
    (("verify-thm1", "--n", "3", "--d", "3"), "seed = 2"),
    (("verify-thm1", "--n", "3", "--d", "3"), "sample = 10"),
    (("verify-thm1", "--n", "3", "--d", "3"), "i = 1"),
    (("verify-thm2", "--n", "3", "--d", "3"), "seed = 2"),
    (("verify-thm37", "--n", "3", "--d", "3", "--i", "1"), "threads = 2"),
    (("verify-thm37", "--n", "3", "--d", "3", "--i", "1"), "budget_entries = 9"),
    (("verify-thm37", "--n", "3", "--d", "3", "--i", "1"), "property = wlp"),
    (("crosscheck", "--n", "3", "--d", "2"), "threads = 2"),
    (("crosscheck", "--n", "3", "--d", "2"), "budget = 5"),
    (("crosscheck", "--n", "3", "--d", "2"), "symmetry = off"),
])
def test_config_key_the_subcommand_does_not_read_is_a_usage_error(capsys, tmp_path, command, key):
    conf = tmp_path / "campaign.cfg"
    conf.write_text(f"# campaign\n{key}\n")
    code = run([*command, "--config", str(conf)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"{conf}:2: " in err and repr(key.split()[0]) in err


@pytest.mark.parametrize("command, key", [
    (("verify-thm1",), "d = x"),
    (("verify-thm2",), "budget_entries = 1e6"),
    (("verify-thm1",), "symmetry = maybe"),
    (("verify-thm37", "--n", "3", "--d", "3", "--i", "1"), "budget = lots"),
    (("crosscheck",), "sample = some"),
    (("crosscheck",), "seed = 1.5"),
])
def test_config_value_that_does_not_parse_names_its_line(capsys, tmp_path, command, key):
    conf = tmp_path / "campaign.cfg"
    conf.write_text(f"n = 3\n{key}\n")
    code = run([*command, "--config", str(conf)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"{conf}:2: {key.split()[0]} must be" in err


def test_config_keys_each_subcommand_reads(capsys, tmp_path):
    conf = tmp_path / "crosscheck.cfg"
    conf.write_text("n = 3\nd = 3\nsample = 20\nseed = 4\n")
    code, payload = invoke_json(capsys, "crosscheck", "--config", str(conf), "--no-timestamp")
    assert code == 0 and payload["params"]["sample"] == 20 and payload["params"]["seed"] == 4
    conf.write_text("n = 3\nd = 3\nsample = all\n")
    code, payload = invoke_json(capsys, "crosscheck", "--config", str(conf), "--no-timestamp")
    assert code == 0 and payload["params"]["sample"] is None and payload["examined"] == 128
    conf.write_text("n = 3\nd = 4\ni = 2\nproperty = power\nthreads = 2\nbudget_entries = 100\n")
    code, payload = invoke_json(capsys, "verify-thm2", "--config", str(conf), "--no-timestamp")
    assert payload["params"] == {"n": 3, "d": 4, "symmetry": True, "threads": 2, "i": 2}
    assert code == 3 and payload["partial"]


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
    # the shortcut is exact, so it refuses --mode randomized, also as the
    # default method of power
    for argv in (["slp", "--gens", "x1^2,x2^2", "--method", "shortcut"],
                 ["power", "--gens", "x1^2,x2^2", "--i", "1"]):
        assert run([*argv, "--mode", "randomized"]) == 2
        assert "the shortcut is exact" in capsys.readouterr().err
        assert run([*argv, "--mode", "exact"]) == 0
        capsys.readouterr()
    # a negative socle cap is refused, not a cap that is reached
    assert run(["socle", "--gens", "x1^2,x2^2,x3^2", "--cap", "-3"]) == 2
    assert "non-negative" in capsys.readouterr().err
    assert run(["socle", "--gens", "x1^2,x2^2,x3^2", "--cap", "2"]) == 3


def test_csv_pairs_round_trip(capsys):
    code, json_out = invoke(capsys, "wlp", "--gens", BK, "--no-timestamp")
    payload = json.loads(json_out)
    code, csv_out = invoke(
        capsys, "wlp", "--gens", BK, "--format", "csv", "--no-timestamp"
    )
    rows = list(csv.reader(io.StringIO(csv_out)))
    records = pairs_from_csv_rows(rows)
    assert [r.to_dict() for r in records] == payload["pairs"]


def test_pair_record_contract():
    """PairRecord's public contract: fields in PAIR_FIELDS order, to_dict,
    repr, immutability, equal records hashing equal, the CSV round trip,
    and reports whose pairs validate against JSON_SCHEMAS."""
    values = (1, 2, 3, 4, 3, True)
    rec = PairRecord(*values)
    assert rec == PairRecord(**dict(zip(PAIR_FIELDS, values)))
    assert tuple(getattr(rec, f) for f in PAIR_FIELDS) == values
    assert rec.to_dict() == dict(zip(PAIR_FIELDS, values))
    assert list(rec.to_dict()) == list(PAIR_FIELDS)
    assert repr(rec) == (
        "PairRecord(i=1, j=2, dim_source=3, dim_target=4, rank=3, maximal=True)"
    )
    for name in PAIR_FIELDS:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    assert rec.to_dict() == dict(zip(PAIR_FIELDS, values))
    twin = PairRecord(1, 2, 3, 4, 3, True)
    other = PairRecord(1, 2, 3, 4, 2, False)
    assert twin == rec and hash(twin) == hash(rec) and len({rec, twin}) == 1
    assert other != rec
    assert pairs_from_csv_rows(pairs_to_csv_rows([rec, other])) == [rec, other]
    bk = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
    reports = [
        check_wlp(bk),
        check_slp(bk),
        check_power(bk, 2),
        check_slp(bk, "randomized", seed=9),
    ]
    for rep in reports:
        assert rep.pairs and all(type(p) is PairRecord for p in rep.pairs)
        payload = json.loads(json.dumps(rep.to_dict()))
        validate(payload)
        assert payload["pairs"] == [p.to_dict() for p in rep.pairs]
        assert pairs_from_csv_rows(pairs_to_csv_rows(rep.pairs)) == list(rep.pairs)


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


def test_compare_cli_declares_only_invocations_it_runs():
    # a declared difference whose argv is mistyped would never be matched,
    # and a repeated invocation would be compared twice
    path = Path(__file__).resolve().parent.parent / "scripts" / "compare_cli.py"
    spec = importlib.util.spec_from_file_location("compare_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    commands = [tuple(argv) for argv in module.COMMANDS]
    assert len(set(commands)) == len(commands)
    assert set(module.DECLARED) <= set(commands)
