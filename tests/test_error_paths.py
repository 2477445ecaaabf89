"""Error paths of the exact-layer constructors and `ProfileParams`, as a table of literals.

Each row is a bad input, the exception type and the exact message that
the constructors raised before their integer checks took an inline fast
path (`BaseManifold` and its two named constructors take none). The fast
path must not change which check fails first: in `validate_join` the
weights are checked before l1 and l2, so `validate_join(0, 1, 0, 1, cp1)`
names w1, not l1. The `ProfileParams` rows are those it raised as a
frozen dataclass, except the rows of an `r` that is not a real number,
which used to leak `float()`'s bare errors.
"""

from __future__ import annotations

import re

import pytest

from sascone import (
    BaseManifold,
    InvalidParameterError,
    JoinParams,
    NotCoprimeError,
    PositivityRange,
    ProfileParams,
    RangeKind,
    ReebRay,
    SmoothnessViolationError,
    positivity_range_raw,
    validate_join,
)
from conftest import CP1

CALLS = {
    "validate_join": lambda *args: validate_join(*args, CP1),
    "JoinParams": lambda *args: JoinParams(CP1, *args),
    "ReebRay": ReebRay,
    "BaseManifold": BaseManifold,
    "BaseManifold.projective_space": BaseManifold.projective_space,
    "BaseManifold.riemann_surface": BaseManifold.riemann_surface,
    "positivity_range_raw": positivity_range_raw,
    "ProfileParams": ProfileParams,
}

# A bool, float, str, None, 0 and -1 in each position, then coprimality,
# smoothness and weight-order failures and mixed bad values.
BAD_INPUTS = [
    ('validate_join', (True, 1, 1, 1), InvalidParameterError, 'l1 must be an int, got bool'),
    ('validate_join', (1.5, 1, 1, 1), InvalidParameterError, 'l1 must be an int, got float'),
    ('validate_join', ('2', 1, 1, 1), InvalidParameterError, 'l1 must be an int, got str'),
    ('validate_join', (None, 1, 1, 1), InvalidParameterError, 'l1 must be an int, got NoneType'),
    ('validate_join', (0, 1, 1, 1), InvalidParameterError, 'l1 must be an int >= 1, got 0'),
    ('validate_join', (-1, 1, 1, 1), InvalidParameterError, 'l1 must be an int >= 1, got -1'),
    ('validate_join', (1, True, 1, 1), InvalidParameterError, 'l2 must be an int, got bool'),
    ('validate_join', (1, 1.5, 1, 1), InvalidParameterError, 'l2 must be an int, got float'),
    ('validate_join', (1, '2', 1, 1), InvalidParameterError, 'l2 must be an int, got str'),
    ('validate_join', (1, None, 1, 1), InvalidParameterError, 'l2 must be an int, got NoneType'),
    ('validate_join', (1, 0, 1, 1), InvalidParameterError, 'l2 must be an int >= 1, got 0'),
    ('validate_join', (1, -1, 1, 1), InvalidParameterError, 'l2 must be an int >= 1, got -1'),
    ('validate_join', (1, 1, True, 1), InvalidParameterError, 'w1 must be an int, got bool'),
    ('validate_join', (1, 1, 1.5, 1), InvalidParameterError, 'w1 must be an int, got float'),
    ('validate_join', (1, 1, '2', 1), InvalidParameterError, 'w1 must be an int, got str'),
    ('validate_join', (1, 1, None, 1), InvalidParameterError, 'w1 must be an int, got NoneType'),
    ('validate_join', (1, 1, 0, 1), InvalidParameterError, 'w1 must be an int >= 1, got 0'),
    ('validate_join', (1, 1, -1, 1), InvalidParameterError, 'w1 must be an int >= 1, got -1'),
    ('validate_join', (1, 1, 1, True), InvalidParameterError, 'w2 must be an int, got bool'),
    ('validate_join', (1, 1, 1, 1.5), InvalidParameterError, 'w2 must be an int, got float'),
    ('validate_join', (1, 1, 1, '2'), InvalidParameterError, 'w2 must be an int, got str'),
    ('validate_join', (1, 1, 1, None), InvalidParameterError, 'w2 must be an int, got NoneType'),
    ('validate_join', (1, 1, 1, 0), InvalidParameterError, 'w2 must be an int >= 1, got 0'),
    ('validate_join', (1, 1, 1, -1), InvalidParameterError, 'w2 must be an int >= 1, got -1'),
    ('JoinParams', (True, 1, 1, 1), InvalidParameterError, 'l1 must be an int, got bool'),
    ('JoinParams', (1.5, 1, 1, 1), InvalidParameterError, 'l1 must be an int, got float'),
    ('JoinParams', ('2', 1, 1, 1), InvalidParameterError, 'l1 must be an int, got str'),
    ('JoinParams', (None, 1, 1, 1), InvalidParameterError, 'l1 must be an int, got NoneType'),
    ('JoinParams', (0, 1, 1, 1), InvalidParameterError, 'l1 must be an int >= 1, got 0'),
    ('JoinParams', (-1, 1, 1, 1), InvalidParameterError, 'l1 must be an int >= 1, got -1'),
    ('JoinParams', (1, True, 1, 1), InvalidParameterError, 'l2 must be an int, got bool'),
    ('JoinParams', (1, 1.5, 1, 1), InvalidParameterError, 'l2 must be an int, got float'),
    ('JoinParams', (1, '2', 1, 1), InvalidParameterError, 'l2 must be an int, got str'),
    ('JoinParams', (1, None, 1, 1), InvalidParameterError, 'l2 must be an int, got NoneType'),
    ('JoinParams', (1, 0, 1, 1), InvalidParameterError, 'l2 must be an int >= 1, got 0'),
    ('JoinParams', (1, -1, 1, 1), InvalidParameterError, 'l2 must be an int >= 1, got -1'),
    ('JoinParams', (1, 1, True, 1), InvalidParameterError, 'w1 must be an int, got bool'),
    ('JoinParams', (1, 1, 1.5, 1), InvalidParameterError, 'w1 must be an int, got float'),
    ('JoinParams', (1, 1, '2', 1), InvalidParameterError, 'w1 must be an int, got str'),
    ('JoinParams', (1, 1, None, 1), InvalidParameterError, 'w1 must be an int, got NoneType'),
    ('JoinParams', (1, 1, 0, 1), InvalidParameterError, 'w1 must be an int >= 1, got 0'),
    ('JoinParams', (1, 1, -1, 1), InvalidParameterError, 'w1 must be an int >= 1, got -1'),
    ('JoinParams', (1, 1, 1, True), InvalidParameterError, 'w2 must be an int, got bool'),
    ('JoinParams', (1, 1, 1, 1.5), InvalidParameterError, 'w2 must be an int, got float'),
    ('JoinParams', (1, 1, 1, '2'), InvalidParameterError, 'w2 must be an int, got str'),
    ('JoinParams', (1, 1, 1, None), InvalidParameterError, 'w2 must be an int, got NoneType'),
    ('JoinParams', (1, 1, 1, 0), InvalidParameterError, 'w2 must be an int >= 1, got 0'),
    ('JoinParams', (1, 1, 1, -1), InvalidParameterError, 'w2 must be an int >= 1, got -1'),
    ('ReebRay', (True, 1), InvalidParameterError, 'v1 must be an int, got bool'),
    ('ReebRay', (1.5, 1), InvalidParameterError, 'v1 must be an int, got float'),
    ('ReebRay', ('2', 1), InvalidParameterError, 'v1 must be an int, got str'),
    ('ReebRay', (None, 1), InvalidParameterError, 'v1 must be an int, got NoneType'),
    ('ReebRay', (0, 1), InvalidParameterError, 'v1 must be an int >= 1, got 0'),
    ('ReebRay', (-1, 1), InvalidParameterError, 'v1 must be an int >= 1, got -1'),
    ('ReebRay', (1, True), InvalidParameterError, 'v2 must be an int, got bool'),
    ('ReebRay', (1, 1.5), InvalidParameterError, 'v2 must be an int, got float'),
    ('ReebRay', (1, '2'), InvalidParameterError, 'v2 must be an int, got str'),
    ('ReebRay', (1, None), InvalidParameterError, 'v2 must be an int, got NoneType'),
    ('ReebRay', (1, 0), InvalidParameterError, 'v2 must be an int >= 1, got 0'),
    ('ReebRay', (1, -1), InvalidParameterError, 'v2 must be an int >= 1, got -1'),
    ('BaseManifold', (True, 1), InvalidParameterError, 'dim_c must be an int, got bool'),
    ('BaseManifold', (1.5, 1), InvalidParameterError, 'dim_c must be an int, got float'),
    ('BaseManifold', ('2', 1), InvalidParameterError, 'dim_c must be an int, got str'),
    ('BaseManifold', (None, 1), InvalidParameterError, 'dim_c must be an int, got NoneType'),
    ('BaseManifold', (0, 1), InvalidParameterError, 'dim_c must be an int >= 1, got 0'),
    ('BaseManifold', (-1, 1), InvalidParameterError, 'dim_c must be an int >= 1, got -1'),
    ('BaseManifold', (1, True), InvalidParameterError, 'c1_coeff must be an int, got bool'),
    ('BaseManifold', (1, 1.5), InvalidParameterError, 'c1_coeff must be an int, got float'),
    ('BaseManifold', (1, '2'), InvalidParameterError, 'c1_coeff must be an int, got str'),
    ('BaseManifold', (1, None), InvalidParameterError, 'c1_coeff must be an int, got NoneType'),
    ('BaseManifold.projective_space', (0,), InvalidParameterError, 'p must be an int >= 1, got 0'),
    ('BaseManifold.riemann_surface', (-1,), InvalidParameterError, 'genus must be an int >= 0, got -1'),
    ('positivity_range_raw', (True, 1, 1, 1, 2), InvalidParameterError, 'l1 must be an int, got bool'),
    ('positivity_range_raw', (1.5, 1, 1, 1, 2), InvalidParameterError, 'l1 must be an int, got float'),
    ('positivity_range_raw', ('2', 1, 1, 1, 2), InvalidParameterError, 'l1 must be an int, got str'),
    ('positivity_range_raw', (None, 1, 1, 1, 2), InvalidParameterError, 'l1 must be an int, got NoneType'),
    ('positivity_range_raw', (0, 1, 1, 1, 2), InvalidParameterError, 'l1 must be an int >= 1, got 0'),
    ('positivity_range_raw', (-1, 1, 1, 1, 2), InvalidParameterError, 'l1 must be an int >= 1, got -1'),
    ('positivity_range_raw', (1, True, 1, 1, 2), InvalidParameterError, 'l2 must be an int, got bool'),
    ('positivity_range_raw', (1, 1.5, 1, 1, 2), InvalidParameterError, 'l2 must be an int, got float'),
    ('positivity_range_raw', (1, '2', 1, 1, 2), InvalidParameterError, 'l2 must be an int, got str'),
    ('positivity_range_raw', (1, None, 1, 1, 2), InvalidParameterError, 'l2 must be an int, got NoneType'),
    ('positivity_range_raw', (1, 0, 1, 1, 2), InvalidParameterError, 'l2 must be an int >= 1, got 0'),
    ('positivity_range_raw', (1, -1, 1, 1, 2), InvalidParameterError, 'l2 must be an int >= 1, got -1'),
    ('positivity_range_raw', (1, 1, True, 1, 2), InvalidParameterError, 'w1 must be an int, got bool'),
    ('positivity_range_raw', (1, 1, 1.5, 1, 2), InvalidParameterError, 'w1 must be an int, got float'),
    ('positivity_range_raw', (1, 1, '2', 1, 2), InvalidParameterError, 'w1 must be an int, got str'),
    ('positivity_range_raw', (1, 1, None, 1, 2), InvalidParameterError, 'w1 must be an int, got NoneType'),
    ('positivity_range_raw', (1, 1, 0, 1, 2), InvalidParameterError, 'w1 must be an int >= 1, got 0'),
    ('positivity_range_raw', (1, 1, -1, 1, 2), InvalidParameterError, 'w1 must be an int >= 1, got -1'),
    ('positivity_range_raw', (1, 1, 1, True, 2), InvalidParameterError, 'w2 must be an int, got bool'),
    ('positivity_range_raw', (1, 1, 1, 1.5, 2), InvalidParameterError, 'w2 must be an int, got float'),
    ('positivity_range_raw', (1, 1, 1, '2', 2), InvalidParameterError, 'w2 must be an int, got str'),
    ('positivity_range_raw', (1, 1, 1, None, 2), InvalidParameterError, 'w2 must be an int, got NoneType'),
    ('positivity_range_raw', (1, 1, 1, 0, 2), InvalidParameterError, 'w2 must be an int >= 1, got 0'),
    ('positivity_range_raw', (1, 1, 1, -1, 2), InvalidParameterError, 'w2 must be an int >= 1, got -1'),
    ('validate_join', (0, 1, 0, 1), InvalidParameterError, 'w1 must be an int >= 1, got 0'),
    ('validate_join', (1, 1, 2, True), InvalidParameterError, 'w2 must be an int, got bool'),
    ('validate_join', (0, 1, 2, 'x'), InvalidParameterError, 'w2 must be an int, got str'),
    ('validate_join', (2, 2, 1, 1), NotCoprimeError, 'l1=2 and l2=2 must be relatively prime'),
    ('validate_join', (1, 1, 4, 2), NotCoprimeError, 'w1=4 and w2=2 must be relatively prime'),
    ('validate_join', (1, 1, 2, 4), NotCoprimeError, 'w1=4 and w2=2 must be relatively prime'),
    ('validate_join', (1, 3, 3, 1), SmoothnessViolationError, 'gcd(l2, l1*w1*w2) = gcd(3, 3) != 1'),
    ('validate_join', (2, 3, 1, 3), SmoothnessViolationError, 'gcd(l2, l1*w1*w2) = gcd(3, 6) != 1'),
    ('validate_join', (4, 6, 9, 6), NotCoprimeError, 'l1=4 and l2=6 must be relatively prime'),
    ('JoinParams', (1, 1, 1, 2), InvalidParameterError, 'weights must satisfy w1 >= w2, got (1, 2)'),
    ('JoinParams', (0, 1, 1, 2), InvalidParameterError, 'l1 must be an int >= 1, got 0'),
    ('JoinParams', (1, 1, 2, 4), InvalidParameterError, 'weights must satisfy w1 >= w2, got (2, 4)'),
    ('JoinParams', (3, 6, 1, 1), NotCoprimeError, 'l1=3 and l2=6 must be relatively prime'),
    ('JoinParams', (1, 1, 6, 4), NotCoprimeError, 'w1=6 and w2=4 must be relatively prime'),
    ('JoinParams', (1, 2, 2, 1), SmoothnessViolationError, 'gcd(l2, l1*w1*w2) = gcd(2, 2) != 1'),
    ('JoinParams', (2, 3, 3, 1), SmoothnessViolationError, 'gcd(l2, l1*w1*w2) = gcd(3, 6) != 1'),
    ('JoinParams', (1.0, 0, 2, 1), InvalidParameterError, 'l1 must be an int, got float'),
    ('ReebRay', (4, 2), NotCoprimeError, 'v1=4 and v2=2 must be relatively prime'),
    ('ReebRay', (True, 0), InvalidParameterError, 'v1 must be an int, got bool'),
    ('ReebRay', (0, 'x'), InvalidParameterError, 'v1 must be an int >= 1, got 0'),
    ('ReebRay', (6, 9), NotCoprimeError, 'v1=6 and v2=9 must be relatively prime'),
    ('BaseManifold', (0, None), InvalidParameterError, 'dim_c must be an int >= 1, got 0'),
    ('BaseManifold.projective_space', (True,), InvalidParameterError, 'p must be an int, got bool'),
    ('positivity_range_raw', (1, 1, 1, 2, 2), InvalidParameterError, 'weights must satisfy w1 >= w2, got (1, 2)'),
    ('positivity_range_raw', (1, 1, 2, 3, 5), InvalidParameterError, 'weights must satisfy w1 >= w2, got (2, 3)'),
    ('positivity_range_raw', (1, 1, 1, 2, '2'), InvalidParameterError, 'weights must satisfy w1 >= w2, got (1, 2)'),
    # ProfileParams: a bool, str, None and float in each int field, range, overflow and order
    # failures, then r out of range and r not a real number
    ('ProfileParams', (True, 2, 2, 0.5, 4, 2), InvalidParameterError, 'm1 must be an int, got bool'),
    ('ProfileParams', ('2', 2, 2, 0.5, 4, 2), InvalidParameterError, 'm1 must be an int, got str'),
    ('ProfileParams', (None, 2, 2, 0.5, 4, 2), InvalidParameterError, 'm1 must be an int, got NoneType'),
    ('ProfileParams', (1.5, 2, 2, 0.5, 4, 2), InvalidParameterError, 'm1 must be an int, got float'),
    ('ProfileParams', (3, True, 2, 0.5, 4, 2), InvalidParameterError, 'm2 must be an int, got bool'),
    ('ProfileParams', (3, '2', 2, 0.5, 4, 2), InvalidParameterError, 'm2 must be an int, got str'),
    ('ProfileParams', (3, None, 2, 0.5, 4, 2), InvalidParameterError, 'm2 must be an int, got NoneType'),
    ('ProfileParams', (3, 1.5, 2, 0.5, 4, 2), InvalidParameterError, 'm2 must be an int, got float'),
    ('ProfileParams', (3, 2, True, 0.5, 4, 2), InvalidParameterError, 'd_n must be an int, got bool'),
    ('ProfileParams', (3, 2, '2', 0.5, 4, 2), InvalidParameterError, 'd_n must be an int, got str'),
    ('ProfileParams', (3, 2, None, 0.5, 4, 2), InvalidParameterError, 'd_n must be an int, got NoneType'),
    ('ProfileParams', (3, 2, 1.5, 0.5, 4, 2), InvalidParameterError, 'd_n must be an int, got float'),
    ('ProfileParams', (3, 2, 2, 0.5, True, 2), InvalidParameterError, 'n must be an int, got bool'),
    ('ProfileParams', (3, 2, 2, 0.5, '2', 2), InvalidParameterError, 'n must be an int, got str'),
    ('ProfileParams', (3, 2, 2, 0.5, None, 2), InvalidParameterError, 'n must be an int, got NoneType'),
    ('ProfileParams', (3, 2, 2, 0.5, 1.5, 2), InvalidParameterError, 'n must be an int, got float'),
    ('ProfileParams', (3, 2, 2, 0.5, 4, True), InvalidParameterError, 'fano_index must be an int, got bool'),
    ('ProfileParams', (3, 2, 2, 0.5, 4, '2'), InvalidParameterError, 'fano_index must be an int, got str'),
    ('ProfileParams', (3, 2, 2, 0.5, 4, None), InvalidParameterError, 'fano_index must be an int, got NoneType'),
    ('ProfileParams', (3, 2, 2, 0.5, 4, 1.5), InvalidParameterError, 'fano_index must be an int, got float'),
    ('ProfileParams', (0, 2, 2, 0.5, 4, 2), InvalidParameterError, 'm1 must be an int >= 1, got 0'),
    ('ProfileParams', (3, 2, -1, 0.5, 4, 2), InvalidParameterError, 'd_n must be an int >= 0, got -1'),
    ('ProfileParams', (3, 2, 2, 0.5, 4, 0), InvalidParameterError, 'fano_index must be an int >= 1, got 0'),
    ('ProfileParams', (3, 2, 0, 0.5, 0, 2), InvalidParameterError, 'n must be a nonzero int, got 0'),
    ('ProfileParams', (10**400, 2, 2, 0.5, 4, 2), InvalidParameterError, 'm1 lies beyond the double range that 1/m1 needs'),
    ('ProfileParams', (3, 2, 2, 'x', 10**400, 10**800), InvalidParameterError, 'fano_index/n lies beyond the double range that ricci_h needs'),
    ('ProfileParams', (True, '2', 2, 0.5, 4, 2), InvalidParameterError, 'm1 must be an int, got bool'),
    ('ProfileParams', (3, 2, None, 'x', 4, None), InvalidParameterError, 'fano_index must be an int, got NoneType'),
    ('ProfileParams', (3, 2, -1, None, 0, 2), InvalidParameterError, 'd_n must be an int >= 0, got -1'),
    ('ProfileParams', (3, 2, 2, None, 0, 2), InvalidParameterError, 'n must be a nonzero int, got 0'),
    ('ProfileParams', (3, 2, 2, True, 4, 2), InvalidParameterError, 'r must satisfy 0 < |r| < 1, got 1.0'),
    ('ProfileParams', (3, 2, 2, False, 4, 2), InvalidParameterError, 'r must satisfy 0 < |r| < 1, got 0.0'),
    ('ProfileParams', (3, 2, 2, 1.0, 4, 2), InvalidParameterError, 'r must satisfy 0 < |r| < 1, got 1.0'),
    ('ProfileParams', (3, 2, 2, float('nan'), 4, 2), InvalidParameterError, 'r must satisfy 0 < |r| < 1, got nan'),
    ('ProfileParams', (3, 2, 2, -0.5, 4, 2), InvalidParameterError, 'r and n must have the same sign, got r=-0.5, n=4'),
    ('ProfileParams', (3, 2, 2, '0.5', 4, 2), InvalidParameterError, 'r must be a real number, got str'),
    ('ProfileParams', (3, 2, 2, 'x', 4, 2), InvalidParameterError, 'r must be a real number, got str'),
    ('ProfileParams', (3, 2, 2, None, 4, 2), InvalidParameterError, 'r must be a real number, got NoneType'),
    ('ProfileParams', (3, 2, 2, 0.5+0j, 4, 2), InvalidParameterError, 'r must be a real number, got complex'),
    ('ProfileParams', (3, 2, 2, [0.5], 4, 2), InvalidParameterError, 'r must be a real number, got list'),
]


def _row_ids(rows: list[tuple]) -> list[str]:
    """Call and message slug per row, and the args where rows share both, so no id names a list position."""
    ids = [f"{call}-{re.sub('[^0-9A-Za-z]+', '-', message).strip('-')}" for call, _, _, message in rows]
    return [i if ids.count(i) == 1 else f"{i}-{','.join(map(repr, row[1]))}" for i, row in zip(ids, rows)]


def test_bad_input_ids_are_unique():
    assert len(set(_row_ids(BAD_INPUTS))) == len(BAD_INPUTS)


@pytest.mark.parametrize("call, args, error, message", BAD_INPUTS, ids=_row_ids(BAD_INPUTS))
def test_bad_input_raises_the_established_error(call, args, error, message):
    with pytest.raises(error) as caught:
        CALLS[call](*args)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("value, kind", [(True, "bool"), (2.5, "float"), ("2", "str"), (None, "NoneType")])
def test_positivity_range_raw_checks_c1_coeff(value, kind):
    with pytest.raises(InvalidParameterError) as caught:
        positivity_range_raw(1, 1, 1, 1, value)
    assert str(caught.value) == f"c1_coeff must be an int, got {kind}"


def test_positivity_range_raw_takes_any_int_c1_coeff():
    assert positivity_range_raw(1, 1, 1, 1, 0) == PositivityRange(RangeKind.EMPTY)
    assert positivity_range_raw(1, 1, 1, 1, -1) == PositivityRange(RangeKind.EMPTY)
    assert positivity_range_raw(1, 1, 1, 1, 1) == PositivityRange(RangeKind.ENTIRE)


def test_int_subclasses_take_the_full_checks_and_pass():
    class Count(int):
        pass

    assert validate_join(Count(1), Count(1), Count(2), Count(3), CP1) == validate_join(1, 1, 3, 2, CP1)
    assert JoinParams(CP1, Count(4), Count(1), Count(1), Count(1)) == validate_join(4, 1, 1, 1, CP1)
    assert ReebRay(Count(3), Count(2)) == ReebRay(3, 2)
    with pytest.raises(InvalidParameterError, match=r"^w2 must be an int >= 1, got 0$"):
        validate_join(1, 1, 2, Count(0), CP1)
    with pytest.raises(InvalidParameterError, match=r"^v1 must be an int >= 1, got 0$"):
        ReebRay(Count(0), 1)
