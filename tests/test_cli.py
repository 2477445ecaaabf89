from __future__ import annotations

import argparse
import json
import subprocess
import sys

import pytest

import sascone.cli as cli
import sascone.goldens
import sascone.profile
from sascone.errors import EXIT_CERTIFICATE, EXIT_PRECONDITION, EXIT_VALIDATION
from sascone.goldens import GoldenCheck
from conftest import child_env


MAX_INT_DOUBLE = str(int(sys.float_info.max))


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "sascone", *args], capture_output=True, text=True, env=child_env()
    )


def test_range_text_matches_table_notation():
    r = run_cli("range", "--l1", "4", "--l2", "1", "--w1", "1", "--w2", "1", "--format", "text")
    assert r.returncode == 0
    assert r.stdout == "1/2 < v1/v2 < 2\n"


def test_range_entire_text():
    r = run_cli("range", "--l1", "4", "--l2", "3", "--w1", "1", "--w2", "1", "--format", "text")
    assert r.stdout == "p+_w = t+_w\n"


def test_range_json_fraction_strings():
    r = run_cli("range", "--l1", "1", "--l2", "1", "--w1", "4", "--w2", "3", "--base", "cp2")
    payload = json.loads(r.stdout)
    assert payload["range"] == {"kind": "half_line", "lower": "1/3", "upper": None}


def test_classify_json_distance_and_near_flag():
    r = run_cli(
        "classify", "--l1", "4", "--l2", "1", "--w1", "1", "--w2", "1",
        "--v1", "9", "--v2", "5", "--near", "1/5",
    )
    payload = json.loads(r.stdout)
    assert payload["verdict"] == "positive"
    assert payload["distance_to_boundary"] == "1/5"
    assert payload["near_boundary"] is True


def test_classify_boundary_note():
    r = run_cli(
        "classify", "--l1", "2", "--l2", "1", "--w1", "3", "--w2", "1",
        "--v1", "2", "--v2", "1",
    )
    payload = json.loads(r.stdout)
    assert payload["verdict"] == "indefinite"
    assert any("boundary" in note for note in payload["notes"])


def test_classify_ray_on_an_interval_bound(capsys):
    argv = ["classify", "--l1", "4", "--l2", "1", "--w1", "1", "--w2", "1", "--v1", "2", "--v2", "1"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["range"] == {"kind": "interval", "lower": "1/2", "upper": "2"}
    assert (payload["verdict"], payload["distance_to_boundary"]) == ("indefinite", "0")
    assert payload["notes"] == ["ray lies exactly on a range boundary; boundaries classify as indefinite"]


@pytest.mark.parametrize("near", ["1/x", "1/0"])
def test_classify_unparsable_near_names_the_rational(near):
    r = run_cli("classify", "--l1", "2", "--l2", "1", "--w1", "3", "--w2", "1", "--v1", "2", "--v2", "1",
                "--near", near)
    assert r.returncode == EXIT_VALIDATION
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.endswith(f"sascone classify: error: argument --near: cannot parse rational '{near}'\n")


def test_classify_near_must_be_nonnegative():
    argv = ("classify", "--l1", "2", "--l2", "1", "--w1", "3", "--w2", "1", "--v1", "2", "--v2", "1")
    r = run_cli(*argv, "--near=-1/2")
    assert r.returncode == EXIT_VALIDATION
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert json.loads(r.stderr)["error"]["type"] == "InvalidParameterError"
    r = run_cli(*argv, "--near", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["near_boundary"] is True


def test_invariants_swap_note_and_fields():
    r = run_cli("invariants", "--l1", "1", "--l2", "1", "--w1", "3", "--w2", "5")
    payload = json.loads(r.stdout)
    assert payload["join"]["w1"] == 5 and payload["join"]["w2"] == 3
    assert any("swapped" in n for n in payload["notes"])
    assert payload["c1_gamma_coeff"] == -6
    assert payload["b_invariant"] == 3
    assert payload["bouquet"]["k"] == 4


def test_invariants_non_projective_base():
    r = run_cli("invariants", "--l1", "1", "--l2", "1", "--w1", "12", "--w2", "1", "--base", "sigma2")
    payload = json.loads(r.stdout)
    assert payload["c1_gamma_coeff"] is None
    assert payload["bouquet"] is None
    assert payload["b_invariant"] is None
    assert payload["torsion_order"] == 12


def test_quotient_command():
    r = run_cli(
        "quotient", "--l1", "1", "--l2", "1", "--w1", "5", "--w2", "3",
        "--v1", "2", "--v2", "1",
    )
    payload = json.loads(r.stdout)
    assert payload["quotient"] == {"s": 1, "n": -1, "m": 1, "m1": 2, "m2": 1}
    assert payload["orb_fano"] is True
    assert payload["orb_c1"]["a_scalar"] == "-9/2"


def test_exit_code_validation_error():
    r = run_cli("range", "--l1", "2", "--l2", "2", "--w1", "3", "--w2", "1")
    assert r.returncode == 2
    assert "NotCoprimeError" in r.stderr


def test_exit_code_product_case():
    r = run_cli(
        "quotient", "--l1", "1", "--l2", "1", "--w1", "5", "--w2", "3",
        "--v1", "5", "--v2", "3",
    )
    assert r.returncode == 3
    assert "ProductCaseError" in r.stderr


def test_metric_csv_deterministic():
    args = (
        "metric", "--m1", "3", "--m2", "2", "--r", "-0.5", "--dN", "1",
        "--fano-index", "2", "--n", "-4", "--grid", "41",
    )
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout and r1.stderr == r2.stderr
    lines = r1.stdout.splitlines()
    assert lines[0] == "z,F,Theta,ricci_h,ricci_v"
    assert len(lines) == 42
    report = json.loads(r1.stderr)
    assert report["report"]["box_ok"] is True


def test_metric_json_output():
    r = run_cli(
        "metric", "--m1", "1", "--m2", "1", "--r", "0.5", "--dN", "0",
        "--fano-index", "2", "--n", "1", "--grid", "5", "--out", "json",
    )
    payload = json.loads(r.stdout)
    assert payload["k_root"] == 0
    assert len(payload["samples"]) == 5
    assert payload["report"]["is_ke"] is True


def test_metric_from_ray():
    r = run_cli(
        "metric-from-ray", "--l1", "4", "--l2", "1", "--w1", "1", "--w2", "1",
        "--v1", "3", "--v2", "2", "--grid", "11",
    )
    assert r.returncode == 0
    report = json.loads(r.stderr)
    assert report["quotient"] == {"s": 1, "n": -4, "m": 1, "m1": 3, "m2": 2}
    assert report["params"]["r"] == -0.5
    assert report["report"]["box_ok"] is True


def test_metric_report_carries_verdicts_and_kernel():
    r = run_cli(
        "metric", "--m1", "3", "--m2", "2", "--r", "-0.5", "--dN", "1",
        "--fano-index", "2", "--n", "-4", "--grid", "11",
    )
    report = json.loads(r.stderr)["report"]
    assert report["all_ok"] is True and report["endpoints_ok"] is True
    assert report["kernel"] == "closed"
    r = run_cli(
        "metric", "--m1", "1", "--m2", "1", "--r", "0.5", "--dN", "0",
        "--fano-index", "2", "--n", "1", "--grid", "5", "--out", "json",
    )
    assert json.loads(r.stdout)["report"]["kernel"] == "series"


def test_failed_certificate_exit_code():
    # no double k* brings |F(-1)| below the endpoint bound on this base
    r = run_cli(
        "metric-from-ray", "--l1", "1", "--l2", "1", "--w1", "7", "--w2", "1",
        "--v1", "100", "--v2", "1", "--base", "cp60", "--grid", "11",
    )
    assert r.returncode == EXIT_CERTIFICATE == 5
    assert r.stdout.startswith("z,F,Theta,ricci_h,ricci_v\n")
    assert len(r.stdout.splitlines()) == 12
    report = json.loads(r.stderr)["report"]
    assert report["all_ok"] is False and report["endpoints_ok"] is False


def test_root_tolerance_is_the_failure_threshold(monkeypatch, capsys):
    monkeypatch.setattr(sascone.profile, "_TOL_REL", 1e-30)
    argv = ["metric", "--m1", "3", "--m2", "2", "--r", "-0.5", "--dN", "1",
            "--fano-index", "2", "--n", "-4", "--grid", "11"]
    assert cli.main(argv) == EXIT_PRECONDITION == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["type"] == "BracketFailureError"


@pytest.mark.parametrize("m1, m2, r, n", [("1", MAX_INT_DOUBLE, "0.5", "1"),
                                          (MAX_INT_DOUBLE, "1", "-0.5", "-1")])
def test_root_beyond_the_bracket_cap_is_a_precondition_failure(m1, m2, r, n, capsys):
    argv = ["metric", "--m1", m1, "--m2", m2, "--r", r, "--dN", "1", "--n", n, "--fano-index", "2"]
    assert cli.main(argv) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert out == "" and error["type"] == "BracketFailureError" and "inf" not in error["message"]


HIGH_DIMENSION_CASES = [
    (join, ray, dim)
    for join, ray, dims in (
        ((1, 1, 7, 1), (100, 1), (1, 8, 15, 16, 20, 25, 30, 40)),
        ((1, 1, 7, 1), (6, 1), (1, 8, 15, 16, 20, 25, 30, 40)),
        ((4, 1, 1, 1), (3, 2), (1, 8, 15, 16, 20, 25, 30)),
        ((1, 1, 7, 1), (1, 1), (1, 8, 15, 16, 20, 25, 30)),
    )
    for dim in dims
]


@pytest.mark.parametrize(
    ("join", "ray", "dim"), HIGH_DIMENSION_CASES,
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else f"cp{v}",
)
def test_high_dimensional_bases_certify(join, ray, dim, capsys):
    argv = ["metric-from-ray", "--base", f"cp{dim}", "--out", "json"]
    for flag, value in zip(("--l1", "--l2", "--w1", "--w2", "--v1", "--v2"), join + ray):
        argv += [flag, str(value)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["report"]["all_ok"] is True


@pytest.mark.parametrize(
    "args",
    [
        ("metric", "--m1", "3", "--m2", "2", "--r", "0.9", "--dN", "600", "--n", "4", "--fano-index", "2"),
        ("metric", "--m1", "3", "--m2", "2", "--r", "-0.5", "--dN", "1028", "--n", "-4", "--fano-index", "2"),
        ("metric", "--m1", "3", "--m2", "2", "--r", "0.9", "--dN", "1100", "--n", "4", "--fano-index", "2"),
        ("metric-from-ray", "--l1", "1", "--l2", "1", "--w1", "7", "--w2", "1",
         "--v1", "100", "--v2", "1", "--base", "cp1100"),
        ("metric-from-ray", "--l1", "1", "--l2", "1", "--w1", "3", "--w2", "1",
         "--v1", "1", "--v2", "1" + "0" * 400),  # m2 = 10**400 has no double
        ("metric", "--m1", "1", "--m2", "1", "--r", "0.5", "--dN", "1", "--n", "1",
         "--fano-index", "1" + "0" * 400),  # fano_index/n = 10**400 has no double
    ],
)
def test_unrepresentable_profile_is_a_validation_error(args):
    r = run_cli(*args)
    assert r.returncode == EXIT_VALIDATION
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"]["type"] == "InvalidParameterError"


@pytest.mark.parametrize(
    "args",
    [
        ("metric", "--m1", "1", "--m2", "1", "--r", "0.5", "--dN", "0", "--fano-index", "2",
         "--n", "1" + "0" * 400, "--grid", "5"),
        ("metric-from-ray", "--l1", "1" + "0" * 400, "--l2", "1", "--w1", "1", "--w2", "1",
         "--v1", "3", "--v2", "2", "--grid", "5"),
    ],
    ids=["n", "l1"],
)
def test_huge_integers_exit_without_traceback(args):
    # n lies beyond double range, so neither the sign test r*n nor is_ke's I_N/n (k* = 0 in the
    # metric case) may convert it to a float
    r = run_cli(*args)
    assert r.returncode in (0, EXIT_VALIDATION, EXIT_PRECONDITION, EXIT_CERTIFICATE)
    assert "Traceback" not in r.stderr


def test_far_ray_certifies():
    # k* is about 450 on this far ray; dg/dt underflows at z = 1, its log does not
    r = run_cli(
        "metric-from-ray", "--l1", "1", "--l2", "1", "--w1", "7", "--w2", "1",
        "--v1", "600", "--v2", "1",
    )
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 202
    report = json.loads(r.stderr)["report"]
    assert report["all_ok"] is True and report["g_monotone"] is True


def test_bouquet_join_mode():
    r = run_cli("bouquet", "--l1", "1", "--l2", "3", "--w1", "7", "--w2", "1")
    payload = json.loads(r.stdout)
    assert payload["label"] == {"k": 4, "j": 1, "l": 3, "i": 3}
    assert payload["level_set"] == [1, 4]


def test_bouquet_partition_mode():
    r = run_cli("bouquet", "--k", "4", "--l", "3")
    payload = json.loads(r.stdout)
    assert payload["level_sets"] == {"1": [2, 3], "3": [1, 4]}


@pytest.mark.parametrize(
    "argv",
    [["bouquet", "--k", str(2**53 + 1), "--l", "1"],
     ["bouquet", "--l1", str(2**53 + 1), "--l2", "1", "--w1", "1", "--w2", "1"]],  # k = l1
    ids=["partition", "join"],
)
def test_bouquet_k_too_large_to_list_is_a_validation_error(argv, capsys):
    assert cli.main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"]["type"] == "InvalidParameterError"


def test_h1_command():
    r = run_cli("h1", "--s", "-2", "--volume", "4", "--n-half", "1")
    assert json.loads(r.stdout)["h1_signed"] == -1


def test_h1_rejects_nan():
    r = run_cli("h1", "--s", "nan", "--volume", "1", "--n-half", "1")
    assert r.returncode == EXIT_VALIDATION
    assert "InvalidParameterError" in r.stderr and "Traceback" not in r.stderr


def test_h1_rejects_overflow():
    r = run_cli("h1", "--s", "1e300", "--volume", "1e-300", "--n-half", "3")
    assert r.returncode == EXIT_VALIDATION
    assert "InvalidParameterError" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("n_half", ["10001", str(10**400)], ids=["cap+1", "10^400"])
def test_h1_n_half_above_the_cap_is_a_validation_error(n_half, capsys):
    # S^(n+1)/V^n would overflow here, so the cap's message shows that no power was taken
    assert cli.main(["h1", "--s", "1e300", "--volume", "1e-300", "--n-half", n_half]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == {"message": "n_half must be an int <= 10000", "type": "InvalidParameterError"}


def test_h1_negative_zero_scalar_prints_zero(capsys):
    assert cli.main(["h1", "--s", "-0", "--volume", "1", "--n-half", "1"]) == 0
    assert capsys.readouterr().out == '{\n  "h1_signed": 0\n}\n'  # not -0


def test_h1_rejects_infinite_volume():
    r = run_cli("h1", "--s", "1", "--volume", "inf", "--n-half", "1")
    assert r.returncode == EXIT_VALIDATION
    assert "InvalidParameterError" in r.stderr and r.stdout == ""


def test_replay_tables_passes():
    r = run_cli("replay-tables")
    assert r.returncode == 0
    assert "checks passed" in r.stdout
    assert "FAIL" not in r.stdout


def test_replay_tables_json():
    r = run_cli("replay-tables", "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["failed"] == 0 and payload["passed"] >= 20


def test_replay_mismatch_exit_code(monkeypatch, capsys):
    tampered = [GoldenCheck("made-up/check", "torsion",
                            {"l1": 1, "l2": 1, "w1": 12, "w2": 1, "base": "cp2"}, 13)]
    monkeypatch.setattr(sascone.goldens, "default_checks", lambda: tampered)
    code = cli.main(["replay-tables"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL made-up/check" in out


def test_replay_range_mismatch_reports_plain_values(monkeypatch, capsys):
    args = {"l1": 4, "l2": 1, "w1": 1, "w2": 1, "base": "custom:1:3"}
    expected = {"kind": "interval", "lower": "1/2", "upper": "2"}
    monkeypatch.setattr(sascone.goldens, "default_checks", lambda: [GoldenCheck("bad/range", "range", args, expected)])
    assert cli.main(["replay-tables"]) == 4
    got = "{'kind': 'interval', 'lower': '1/4', 'upper': '4'}"
    assert f"FAIL bad/range expected={expected!r} got={got}\n" in capsys.readouterr().out


def test_config_batch(tmp_path):
    config = tmp_path / "batch.json"
    config.write_text(
        json.dumps(
            {
                "commands": [
                    {"command": "range", "l1": 1, "l2": 1, "w1": 7, "w2": 1, "format": "text"},
                    {"command": "h1", "s": 1, "volume": 1, "n_half": 2},
                    {"command": "range", "l1": 2, "l2": 2, "w1": 1, "w2": 1},
                ]
            }
        ),
        encoding="utf-8",
    )
    r = run_cli("--config", str(config))
    assert r.returncode == 2  # worst entry: the non-coprime join
    payload = json.loads(r.stdout)
    assert [e["exit_code"] for e in payload] == [0, 0, 2]
    assert payload[0]["stdout"] == "5 < v1/v2\n"


def test_config_batch_accepts_dest_names(tmp_path):
    config = tmp_path / "batch.json"
    entry = {"command": "metric", "m1": 3, "m2": 2, "r": -0.5, "d_n": 1,
             "fano_index": 2, "n": -4, "grid": 5}
    config.write_text(json.dumps({"commands": [entry]}), encoding="utf-8")
    r = run_cli("--config", str(config))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload[0]["exit_code"] == 0
    assert json.loads(payload[0]["stderr"])["params"]["d_n"] == 1


def test_config_null_takes_the_option_default(tmp_path, capsys):
    ray = {"l1": 1, "l2": 1, "w1": 7, "w2": 1, "v1": 6, "v2": 1}
    absent = [{"command": "classify", **ray}, {"command": "metric-from-ray", **ray, "grid": 5}]
    null = [{"command": "classify", **ray, "near": None}, {"command": "metric-from-ray", **ray, "r": None, "grid": 5}]
    config = tmp_path / "batch.json"
    outputs = []
    for entries in (absent, null):
        config.write_text(json.dumps(entries), encoding="utf-8")
        outputs.append((cli.main(["--config", str(config)]), *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and [e["exit_code"] for e in json.loads(outputs[0][1])] == [0, 0]
    # a required option given as null is missing, and argparse says so
    entry = {"command": "metric", "m1": 3, "m2": 2, "r": None, "d_n": 1, "fano_index": 2, "n": -4, "grid": 5}
    config.write_text(json.dumps([entry]), encoding="utf-8")
    assert cli.main(["--config", str(config)]) == EXIT_VALIDATION
    (result,) = json.loads(capsys.readouterr().out)
    assert result["exit_code"] == 2 and result["stderr"].endswith("the following arguments are required: --r")


def test_every_option_is_reachable_by_the_config_key_rule():
    # a --config key k becomes the option "--" + k with "_" as "-", so each option must have that spelling
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        for action in p._actions:
            if action.option_strings:
                assert "--" + action.dest.replace("_", "-") in action.option_strings, (command, action.dest)


def test_d_n_spellings_give_the_same_bytes(capsys):
    outputs = []
    for flag in ("--dN", "--d-n"):
        argv = ["metric", "--m1", "3", "--m2", "2", "--r", "-0.5", flag, "1", "--fano-index", "2",
                "--n", "-4", "--grid", "21"]
        code = cli.main(argv)
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].startswith("z,F,Theta,ricci_h,ricci_v\n")


def test_config_entry_rejections_stay_in_output(tmp_path):
    config = tmp_path / "batch.json"
    entries = [{"command": "range", "l1": "x", "l2": 1, "w1": 7, "w2": 1}, {"command": "nosuch"}]
    config.write_text(json.dumps({"commands": entries}), encoding="utf-8")
    r = run_cli("--config", str(config))
    assert r.returncode == EXIT_VALIDATION
    assert r.stderr == ""
    payload = json.loads(r.stdout)
    assert [e["exit_code"] for e in payload] == [2, 2]
    assert "argument --l1: invalid int value: 'x'" in payload[0]["stderr"]
    assert "invalid choice: 'nosuch'" in payload[1]["stderr"]


def test_config_help_entry_stays_in_output(tmp_path):
    config = tmp_path / "batch.json"
    entries = [{"command": "range", "help": True}, {"command": "--version"},
               {"command": "range", "l1": 1, "l2": 1, "w1": 7, "w2": 1, "format": "text"}]
    config.write_text(json.dumps({"commands": entries}), encoding="utf-8")
    r = run_cli("--config", str(config))
    assert r.returncode == EXIT_VALIDATION
    assert r.stderr == ""
    payload = json.loads(r.stdout)
    assert [e["exit_code"] for e in payload] == [2, 2, 0]
    assert payload[0]["stdout"] == payload[1]["stdout"] == ""
    assert payload[0]["stderr"] == payload[1]["stderr"] == "help and version are not run in a batch"
    assert payload[2]["stdout"] == "5 < v1/v2\n"


def test_config_entry_without_a_command_stays_in_output(tmp_path, capsys):
    config = tmp_path / "batch.json"
    entries = [{"command": f"--config={config}"},
               {"command": "range", "l1": 1, "l2": 1, "w1": 7, "w2": 1, "format": "text"}]
    config.write_text(json.dumps(entries), encoding="utf-8")
    assert cli.main(["--config", str(config)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    assert [e["exit_code"] for e in payload] == [2, 0]
    assert payload[0]["stdout"] == ""
    assert payload[0]["stderr"] == "sascone: error: a batch entry must name a command"
    assert payload[1]["stdout"] == "5 < v1/v2\n"


def test_config_with_a_command_is_rejected(tmp_path, capsys):
    config = tmp_path / "batch.json"
    config.write_text(json.dumps([{"command": "h1", "s": 1, "volume": 1, "n_half": 2}]), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(config), "range", "--l1", "1", "--l2", "1", "--w1", "7", "--w2", "1"])
    assert exc.value.code == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: sascone ")
    assert err.endswith("sascone: error: argument --config: not allowed with the command 'range'\n")


def _assert_config_rejected(path):
    r = run_cli("--config", str(path))
    assert r.returncode == EXIT_VALIDATION
    assert json.loads(r.stderr)["error"]["type"] == "InvalidParameterError"
    assert r.stdout == ""


def test_config_missing_file(tmp_path):
    _assert_config_rejected(tmp_path / "absent.json")


def test_config_malformed_json(tmp_path):
    config = tmp_path / "batch.json"
    config.write_text('{"commands": [', encoding="utf-8")
    _assert_config_rejected(config)


def test_config_without_commands_key(tmp_path):
    config = tmp_path / "batch.json"
    config.write_text('{"cmds": []}', encoding="utf-8")
    _assert_config_rejected(config)


def test_config_entry_not_an_object(tmp_path):
    config = tmp_path / "batch.json"
    config.write_text("[5]", encoding="utf-8")
    _assert_config_rejected(config)


def test_json_output_byte_identical_between_runs():
    args = ("quotient", "--l1", "1", "--l2", "3", "--w1", "7", "--w2", "1", "--v1", "4", "--v2", "1")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_usage_without_command():
    r = run_cli()
    assert r.returncode == 2
