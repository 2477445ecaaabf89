"""Value semantics of the exact-layer records.

They are NamedTuples. The validating ones (BaseManifold, JoinParams,
ReebRay, PositivityRange) run their checks in `__new__`, so `_make`,
`_replace`, pickling and copying cannot build an invalid value.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from sascone import (
    BaseManifold,
    InvalidParameterError,
    JoinParams,
    NotCoprimeError,
    PositivityRange,
    RangeKind,
    ReebRay,
    SmoothnessViolationError,
    bouquet_label,
    orb_c1_report,
    positivity_range,
    validate_join,
    whole_cone_rules,
)
from conftest import CP1

JOIN = validate_join(4, 1, 1, 1, CP1)
RAY = ReebRay(3, 2)

VALUES = {
    "BaseManifold": CP1,
    "JoinParams": JOIN,
    "ReebRay": RAY,
    "PositivityRange": positivity_range(JOIN),
    "WholeConeReport": whole_cone_rules(JOIN),
    "OrbChernReport": orb_c1_report(JOIN, RAY),
    "BouquetLabel": bouquet_label(JOIN),
}


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: RAY._replace(v1=4, v2=2), NotCoprimeError),
        (lambda: RAY._replace(v1=0), InvalidParameterError),
        (lambda: JOIN._replace(w1=0), InvalidParameterError),
        (lambda: JOIN._replace(w1=2, w2=4), InvalidParameterError),
        (lambda: validate_join(1, 1, 3, 1, CP1)._replace(l2=3), SmoothnessViolationError),
        (lambda: CP1._replace(dim_c=0), InvalidParameterError),
        (lambda: CP1._replace(c1_coeff=2.0), InvalidParameterError),
        (lambda: positivity_range(JOIN)._replace(kind=RangeKind.ENTIRE), InvalidParameterError),
        (lambda: positivity_range(JOIN)._replace(upper=Fraction(1, 4)), InvalidParameterError),
        (lambda: ReebRay._make([4, 2]), NotCoprimeError),
        (lambda: JoinParams._make([CP1, 2, 2, 3, 1]), NotCoprimeError),
        (lambda: BaseManifold._make([1, True]), InvalidParameterError),
        (lambda: PositivityRange._make([RangeKind.HALF_LINE, None]), InvalidParameterError),
    ],
)
def test_replace_and_make_revalidate(build, error):
    with pytest.raises(error):
        build()


def test_valid_replace_and_make_keep_the_type():
    assert RAY._replace(v2=5) == ReebRay(3, 5) and type(RAY._replace(v2=5)) is ReebRay
    assert JOIN._replace(l1=3) == validate_join(3, 1, 1, 1, CP1)
    assert type(JoinParams._make(JOIN)) is JoinParams
    assert BaseManifold._make([2, 3]) == BaseManifold(dim_c=2, c1_coeff=3, label="")
    half = PositivityRange(RangeKind.HALF_LINE, Fraction(2))
    interval = half._replace(kind=RangeKind.INTERVAL, upper=Fraction(3))
    assert interval == PositivityRange(RangeKind.INTERVAL, Fraction(2), Fraction(3))
    assert interval.contains(Fraction(5, 2)) and not half.contains(Fraction(2))
    with pytest.raises(ValueError):  # an unknown field name, as for any namedtuple
        RAY._replace(v3=1)


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_pickle_and_deepcopy_round_trip(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert clone == value and type(clone) is type(value)
        assert hash(clone) == hash(value)


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_fields_cannot_be_assigned(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_equal_values_hash_equal(value):
    twin = type(value)(*value)
    assert twin == value and twin is not value and hash(twin) == hash(value)
    assert hash(value) == hash(tuple(value))  # what the frozen dataclasses hashed too


def test_records_are_tuples_of_their_fields():
    assert RAY == (3, 2) and tuple(RAY) == (3, 2)
    v1, v2 = RAY
    assert (v1, v2) == (RAY.v1, RAY.v2)
    assert sorted([ReebRay(3, 2), ReebRay(1, 5), ReebRay(2, 3)]) == [(1, 5), (2, 3), (3, 2)]
    assert BaseManifold(1, 2) == (1, 2, "") and BaseManifold(1, 2) != CP1
    assert bouquet_label(JOIN) == (4, 4, 1, 1)


def test_keywords_and_defaults_are_kept():
    assert BaseManifold(dim_c=2, c1_coeff=3).label == ""
    assert JoinParams(base=CP1, l1=4, l2=1, w1=1, w2=1) == JOIN
    assert ReebRay(v1=3, v2=2) == RAY
    assert PositivityRange(RangeKind.EMPTY) == PositivityRange(kind=RangeKind.EMPTY, lower=None, upper=None)
    assert repr(RAY) == "ReebRay(v1=3, v2=2)"
    assert repr(CP1) == "BaseManifold(dim_c=1, c1_coeff=2, label='CP1')"
