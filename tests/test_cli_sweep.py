"""Boundary sweep of the command line: every command, in-process through `cli.main`.

Each option is drawn from a small alphabet of boundary values: ints from 0
to beyond the double range, floats from NaN to the smallest subnormal, and
a malformed string. `--grid` stays small apart from one value above the cap
of 10**6, which is rejected before a grid's five columns are allocated.
"""

from __future__ import annotations

import contextlib
import io
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import sascone.cli as cli
from sascone.errors import EXIT_CERTIFICATE, EXIT_MISMATCH, EXIT_OK, EXIT_PRECONDITION, EXIT_VALIDATION

MALFORMED = "1/x"
INTS = ("0", "1", "-1", str(2**53 + 1), str(int(sys.float_info.max)), str(10**400), MALFORMED)
FLOATS = ("nan", "inf", "-inf", "5e-324", repr(1 - 2**-53), repr(-(1 - 2**-53)), MALFORMED)
BASES = ("cp1", "cp2", "sigma2", "cp0", f"custom:{2**53 + 1}:{10**400}", "custom:1:-1", MALFORMED)
ABSENT = None  # an optional option left out

JOIN = {"--l1": INTS, "--l2": INTS, "--w1": INTS, "--w2": INTS, "--base": BASES + (ABSENT,)}
RAY = {"--v1": INTS, "--v2": INTS}
FORMAT = ("json", "text", MALFORMED, ABSENT)
PROFILE = {"--grid": ("3", "4", "201", str(10**6 + 1), ABSENT), "--out": ("csv", "json", MALFORMED, ABSENT)}

# (command, its options with their alphabets); bouquet takes join flags or --k/--l, one draw each
EXACT = (
    ("range", {**JOIN, "--format": FORMAT}),
    ("classify", {**JOIN, **RAY, "--near": INTS + FLOATS + (ABSENT,), "--format": FORMAT}),
    ("quotient", {**JOIN, **RAY}),
    ("invariants", JOIN),
    ("bouquet", JOIN),
    ("bouquet", {"--k": INTS, "--l": INTS, "--l1": INTS + (ABSENT,)}),
)
SWEEP = EXACT + (
    ("metric", {"--m1": INTS, "--m2": INTS, "--r": FLOATS, "--dN": INTS, "--fano-index": INTS, "--n": INTS,
                **PROFILE}),
    ("metric-from-ray", {**JOIN, **RAY, "--r": FLOATS + (ABSENT,), **PROFILE}),
    ("h1", {"--s": FLOATS, "--volume": FLOATS, "--n-half": INTS}),
    ("replay-tables", {"--format": FORMAT}),
)
EXACT_COMMANDS = {command for command, _ in EXACT}
DOCUMENTED = {EXIT_OK, EXIT_VALIDATION, EXIT_PRECONDITION, EXIT_MISMATCH, EXIT_CERTIFICATE}


def _argv(command: str, alphabets: dict[str, tuple]) -> st.SearchStrategy[list[str]]:
    options = [
        st.sampled_from(alphabet).map(lambda value, flag=flag: [] if value is None else [flag, value])
        for flag, alphabet in alphabets.items()
    ]
    return st.tuples(*options).map(lambda parts: [command] + [word for part in parts for word in part])


@settings(max_examples=300, deadline=None, database=None)
@given(argv=st.one_of([_argv(command, alphabets) for command, alphabets in SWEEP]))
def test_every_boundary_input_gets_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            code = exc.code
    assert code in DOCUMENTED, (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code in (EXIT_VALIDATION, EXIT_PRECONDITION):
        assert out.getvalue() == "", argv
    if argv[0] in EXACT_COMMANDS:
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_PRECONDITION), (argv, code)
