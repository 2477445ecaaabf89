"""Snapshot of CLI stdout and exit codes for the exact-arithmetic commands.

Every command runs in-process through `sascone.cli.main`. The `metric`
commands are left out on purpose: their floating-point output belongs to
the metric kernel, which may change without changing any exact answer.
The same commands, with one `metric` call, also run as one `--config`
batch, whose entries must each hold what the call alone writes.
After an intended output change, regenerate the expectations with

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from sascone.cli import main

SNAPSHOT = Path(__file__).with_name("cli_snapshot.json")

BASES = ("cp1", "cp2", "cp3", "sigma0", "sigma2", "custom:2:1", "custom:1:2")
# (l1, l2, w1, w2): a whole-cone join, a half-line, an interval, and
# weights given in ascending order (swap note)
JOINS = ((4, 1, 1, 1), (1, 1, 7, 1), (3, 13, 12, 1), (1, 3, 1, 2))
RAYS = ((3, 2), (1, 1), (7, 1))


def _join_args(base, l1, l2, w1, w2):
    return ["--l1", str(l1), "--l2", str(l2), "--w1", str(w1), "--w2", str(w2), "--base", base]


def commands() -> list[list[str]]:
    out = []
    for base in BASES:
        for join in JOINS:
            j = _join_args(base, *join)
            out += [["invariants", *j], ["range", *j], ["range", *j, "--format", "text"],
                    ["bouquet", *j]]
            for v1, v2 in RAYS:
                ray = ["--v1", str(v1), "--v2", str(v2)]
                out += [["classify", *j, *ray, "--near", "1/10"], ["quotient", *j, *ray]]
    out.append(["range", *_join_args("cp1", 2, 2, 1, 1)])  # not coprime: exit 2
    for k, l in ((4, 1), (4, 3), (12, 10), (1, 1)):
        out.append(["bouquet", "--k", str(k), "--l", str(l)])
    out.append(["bouquet", "--k", "4"])
    out += [["replay-tables"], ["replay-tables", "--format", "json"]]
    for s, volume, n_half in (("-2", "4", "1"), ("1", "1", "2"), ("3.7", "2.9", "2"),
                              ("1e-3", "7.5", "3"), ("0", "1", "1"), ("1", "0", "1"),
                              ("nan", "1", "1"), ("1e300", "1e-300", "3")):
        out.append(["h1", "--s", s, "--volume", volume, "--n-half", n_half])
    return out


def outputs(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def run(argv: list[str]) -> dict:
    code, stdout, _ = outputs(argv)
    return {"argv": argv, "exit_code": code, "stdout": stdout}


def test_cli_output_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert [e["argv"] for e in expected] == commands()
    mismatched = [" ".join(e["argv"]) for e in expected if run(e["argv"]) != e]
    assert mismatched == []


# a metric profile whose certificate fails (exit 5): CSV on stdout, its report on stderr
FAILED_CERTIFICATE = ["metric", "--m1", "100", "--m2", "1", "--r", "-0.5", "--dN", "60",
                      "--fano-index", "61", "--n", "-93", "--grid", "11"]


def test_a_batch_entry_writes_what_the_call_alone_writes(tmp_path):
    argvs = [*commands(), FAILED_CERTIFICATE]
    entries = []
    for command, *flags in argvs:  # each flag as its key, so the entry's argv is the call's
        pairs = iter(flags)
        entries.append({"command": command, **{flag[2:]: value for flag, value in zip(pairs, pairs)}})
    config = tmp_path / "batch.json"
    config.write_text(json.dumps(entries), encoding="utf-8")
    code, stdout, stderr = outputs(["--config", str(config)])
    batch = json.loads(stdout)
    assert (code, stderr, len(batch)) == (5, "", len(argvs))
    differ = [" ".join(argv) for argv, entry in zip(argvs, batch)
              if (entry["exit_code"], entry["stdout"], entry["stderr"]) != outputs(argv)]
    assert differ == []


if __name__ == "__main__":
    records = [run(argv) for argv in commands()]
    lines = ",\n".join(json.dumps(r) for r in records)
    SNAPSHOT.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {SNAPSHOT}")
