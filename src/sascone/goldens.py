"""Built-in golden tables and their replay runner.

The checks reproduce the published classification data for the join
families this package targets: the 4-bouquet and the 2-bouquet on
S2 x S3 (B column, contact c1 coefficients, bouquet labels, positivity
ranges) and the 7-manifold families (1, l2, 12, 1), (1, l2, 4, 3),
(2, l2, 3, 1) over CP2 (c1 coefficients as functions of l2, torsion
order, spin, positivity thresholds). Checks are plain data so a harness
can run tampered copies; `replay_tables` recomputes every expected value
and reports mismatches.

Four table rows quote threshold values at (l2, w) combinations that
fail the smoothness condition of an actual join: (1, l2, 12, 1) at
l2 = 2, 3 and 4, and (1, 2, 4, 3). Those rows are evaluated through
`positivity_range_raw`, which applies the same formula without join
validation.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .classifier import positivity_range, positivity_range_raw
from .core import parse_base, validate_join
from .topology import (
    b_invariant_wcone,
    bouquet_label,
    bouquet_level_set,
    c1_gamma_coeff_sphere_join,
    spin_check,
    torsion_order,
)


class GoldenCheck(NamedTuple):
    check_id: str
    op: str
    args: dict[str, Any]
    expected: Any


class CheckOutcome(NamedTuple):
    check: GoldenCheck
    got: Any
    ok: bool


def _interval(lower: str, upper: str) -> dict[str, Any]:
    return {"kind": "interval", "lower": lower, "upper": upper}


def _half_line(lower: str) -> dict[str, Any]:
    return {"kind": "half_line", "lower": lower, "upper": None}


_ENTIRE = {"kind": "entire", "lower": None, "upper": None}


def _join_from_args(args: dict[str, Any]):
    return validate_join(args["l1"], args["l2"], args["w1"], args["w2"], parse_base(args["base"]))


def run_check(check: GoldenCheck) -> Any:
    from .emit import to_jsonable  # here, so that `import sascone` loads neither emit nor json

    args = check.args
    op = check.op
    if op == "range":
        return to_jsonable(positivity_range(_join_from_args(args)))
    if op == "range_raw":
        return to_jsonable(
            positivity_range_raw(args["l1"], args["l2"], args["w1"], args["w2"], args["c1_coeff"])
        )
    if op == "b_invariant":
        return b_invariant_wcone(_join_from_args(args))
    if op == "c1_coeff":
        return c1_gamma_coeff_sphere_join(args["p"], _join_from_args(args))
    if op == "spin":
        return spin_check(args["p"], _join_from_args(args))
    if op == "torsion":
        return torsion_order(_join_from_args(args))
    if op == "bouquet_k":
        return bouquet_label(_join_from_args(args)).k
    if op == "bouquet_j":
        return bouquet_label(_join_from_args(args)).j
    if op == "b_plus_m":
        join = _join_from_args(args)
        return b_invariant_wcone(join) + join.l1 * (join.w1 - join.w2) // 2
    if op == "level_set":
        return sorted(bouquet_level_set(args["k"], args["l"], args["i"]))
    raise ValueError(f"unknown golden op {op!r}")


def _bouquet4_checks() -> list[GoldenCheck]:
    rows = {0: (4, 1, 1, 4), 1: (1, 5, 3, 3), 2: (2, 3, 1, 2), 3: (1, 7, 1, 1)}
    ranges = {
        0: _interval("1/2", "2"),
        1: _interval("1", "5"),
        2: _half_line("2"),
        3: _half_line("5"),
    }
    checks: list[GoldenCheck] = []
    for m, (l1, w1, w2, b) in rows.items():
        args = {"l1": l1, "l2": 1, "w1": w1, "w2": w2, "base": "cp1"}
        checks += [
            GoldenCheck(f"bouquet4/m{m}/b_invariant", "b_invariant", args, b),
            GoldenCheck(f"bouquet4/m{m}/c1_coeff", "c1_coeff", {**args, "p": 1}, -6),
            GoldenCheck(f"bouquet4/m{m}/k", "bouquet_k", args, 4),
            GoldenCheck(f"bouquet4/m{m}/j", "bouquet_j", args, b),
            GoldenCheck(f"bouquet4/m{m}/b_plus_m", "b_plus_m", args, 4),
            GoldenCheck(f"bouquet4/m{m}/range", "range", args, ranges[m]),
        ]
    checks.append(
        GoldenCheck("bouquet4/level_set/i1", "level_set", {"k": 4, "l": 1, "i": 1}, [1, 2, 3, 4])
    )
    return checks


def _bouquet2_checks() -> list[GoldenCheck]:
    rows = {0: (4, 1, 1, 4), 3: (1, 7, 1, 1)}
    ranges = {0: _ENTIRE, 3: _half_line("1")}
    checks: list[GoldenCheck] = []
    for m, (l1, w1, w2, b) in rows.items():
        args = {"l1": l1, "l2": 3, "w1": w1, "w2": w2, "base": "cp1"}
        checks += [
            GoldenCheck(f"bouquet2/m{m}/b_invariant", "b_invariant", args, b),
            GoldenCheck(f"bouquet2/m{m}/c1_coeff", "c1_coeff", {**args, "p": 1}, -2),
            GoldenCheck(f"bouquet2/m{m}/range", "range", args, ranges[m]),
        ]
    return checks


def _family_checks() -> list[GoldenCheck]:
    families = {
        "12-1": (1, 12, 1, lambda l2: 3 * l2 - 13),
        "4-3": (1, 4, 3, lambda l2: 3 * l2 - 7),
        "3-1": (2, 3, 1, lambda l2: 3 * l2 - 8),
    }
    checks: list[GoldenCheck] = []
    for name, (l1, w1, w2, coeff) in families.items():
        for l2 in (1, 5, 7, 11):
            args = {"p": 2, "l1": l1, "l2": l2, "w1": w1, "w2": w2, "base": "cp2"}
            checks.append(GoldenCheck(f"family-{name}/c1/l2={l2}", "c1_coeff", args, coeff(l2)))
        checks.append(
            GoldenCheck(
                f"family-{name}/torsion",
                "torsion",
                {"l1": l1, "l2": 1, "w1": w1, "w2": w2, "base": "cp2"},
                12,
            )
        )

    def fam_range(name: str, l1: int, w1: int, w2: int, l2: int, expected, raw: bool) -> GoldenCheck:
        if raw:
            args = {"l1": l1, "l2": l2, "w1": w1, "w2": w2, "c1_coeff": 3}
            return GoldenCheck(f"family-{name}/range/l2={l2}", "range_raw", args, expected)
        args = {"l1": l1, "l2": l2, "w1": w1, "w2": w2, "base": "cp2"}
        return GoldenCheck(f"family-{name}/range/l2={l2}", "range", args, expected)

    checks += [
        fam_range("12-1", 1, 12, 1, 1, _half_line("9"), raw=False),
        fam_range("12-1", 1, 12, 1, 2, _half_line("6"), raw=True),
        fam_range("12-1", 1, 12, 1, 3, _half_line("3"), raw=True),
        fam_range("12-1", 1, 12, 1, 4, _ENTIRE, raw=True),
        fam_range("12-1", 1, 12, 1, 5, _ENTIRE, raw=False),
        fam_range("12-1", 1, 12, 1, 7, _ENTIRE, raw=False),
        fam_range("4-3", 1, 4, 3, 1, _half_line("1/3"), raw=False),
        fam_range("4-3", 1, 4, 3, 2, _ENTIRE, raw=True),
        fam_range("4-3", 1, 4, 3, 5, _ENTIRE, raw=False),
        GoldenCheck(
            "family-12-1/spin/l2=5",
            "spin",
            {"p": 2, "l1": 1, "l2": 5, "w1": 12, "w2": 1, "base": "cp2"},
            True,
        ),
        GoldenCheck(
            "family-3-1/spin/l2=5",
            "spin",
            {"p": 2, "l1": 2, "l2": 5, "w1": 3, "w2": 1, "base": "cp2"},
            False,
        ),
        GoldenCheck(
            "zero-c1/l1=3,l2=13,w=(12,1)/coeff",
            "c1_coeff",
            {"p": 2, "l1": 3, "l2": 13, "w1": 12, "w2": 1, "base": "cp2"},
            0,
        ),
        GoldenCheck(
            "zero-c1/l1=3,l2=13,w=(12,1)/range",
            "range",
            {"l1": 3, "l2": 13, "w1": 12, "w2": 1, "base": "cp2"},
            _ENTIRE,
        ),
    ]
    return checks


def default_checks() -> list[GoldenCheck]:
    return _bouquet4_checks() + _bouquet2_checks() + _family_checks()


def replay_tables(checks: list[GoldenCheck] | None = None) -> list[CheckOutcome]:
    """Recompute every golden check; outcomes carry expected and got."""
    if checks is None:
        checks = default_checks()
    outcomes = []
    for check in checks:
        got = run_check(check)
        outcomes.append(CheckOutcome(check=check, got=got, ok=got == check.expected))
    return outcomes
