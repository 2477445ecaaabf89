"""Pinned help, usage and error texts of the CLI's argument parser.

Every case runs in-process through `sascone.cli.main` at a terminal width
of 80 columns (`COLUMNS=80`), so the wrapping is fixed. The texts are
argparse's, which words them differently from one Python version to the
next, so the file records the version that wrote it and the test runs
only under that version. After an intended change, regenerate with

    PYTHONPATH=src python tests/test_cli_texts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from sascone.cli import main

PINNED = Path(__file__).with_name("cli_texts.json")

COMMANDS = ("invariants", "quotient", "classify", "range", "bouquet", "metric", "metric-from-ray",
            "h1", "replay-tables")
JOIN = ["--l1", "4", "--l2", "1", "--w1", "1", "--w2", "1"]


def cases() -> list[list[str]]:
    out = [["--help"], *([command, "--help"] for command in COMMANDS)]
    out += [["nosuch"],  # unknown command
            ["range", "--l1", "4"],  # missing required options
            ["range", *JOIN, "--bogus"],  # unrecognised argument
            ["metric", "--d", "1"]]  # ambiguous abbreviation of --dN and --d-n
    return out


def run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse prints help or an error, then exits
            code = exc.code
    return {"argv": argv, "exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _python() -> str:
    return "%d.%d" % sys.version_info[:2]


def test_help_usage_and_error_texts_match(monkeypatch):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    if pinned["python"] != _python():
        pytest.skip(f"texts pinned under Python {pinned['python']}, running {_python()}")
    monkeypatch.setenv("COLUMNS", "80")
    assert [e["argv"] for e in pinned["cases"]] == cases()
    for expected in pinned["cases"]:
        assert run(expected["argv"]) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = [run(argv) for argv in cases()]
    payload = {"python": _python(), "cases": records}
    PINNED.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {PINNED}")
