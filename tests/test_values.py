"""Value semantics of the exact-layer records and of `ProfileParams`.

They are NamedTuples. The validating ones (BaseManifold, JoinParams,
ReebRay, PositivityRange, ProfileParams) run their checks in `__new__`,
so `_make`, `_replace`, pickling and copying cannot build an invalid
value. The records the library derives itself (`positivity_range`,
`positivity_range_raw`, `quotient_data`) skip the constructor; the
tests at the end rebuild them through it, over the acceptance corpus.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest

from sascone import (
    BaseManifold,
    InvalidParameterError,
    JoinParams,
    NotCoprimeError,
    PositivityRange,
    ProfileParams,
    QuotientData,
    RangeKind,
    ReebRay,
    SmoothnessViolationError,
    TypeVerdict,
    bouquet_label,
    classify_ray,
    orb_c1_report,
    positivity_range,
    positivity_range_raw,
    quotient_data,
    validate_join,
    whole_cone_rules,
)
from sascone import classifier
from conftest import CP1

JOIN = validate_join(4, 1, 1, 1, CP1)
RAY = ReebRay(3, 2)
PARAMS = ProfileParams(3, 2, 2, 0.5, 4, 2)

VALUES = {
    "BaseManifold": CP1,
    "JoinParams": JOIN,
    "ReebRay": RAY,
    "PositivityRange": positivity_range(JOIN),
    "WholeConeReport": whole_cone_rules(JOIN),
    "OrbChernReport": orb_c1_report(JOIN, RAY),
    "BouquetLabel": bouquet_label(JOIN),
    "ProfileParams": PARAMS,
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
        (lambda: PARAMS._replace(r=1.5), InvalidParameterError),
        (lambda: PARAMS._replace(m1=0), InvalidParameterError),
        (lambda: PARAMS._replace(n=0), InvalidParameterError),
        (lambda: PARAMS._replace(r=-0.5), InvalidParameterError),
        (lambda: ProfileParams._make([3, 2, 2, "0.5", 4, 2]), InvalidParameterError),
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
    assert PARAMS._replace(r=Fraction(-1, 4), n=-4) == ProfileParams(3, 2, 2, -0.25, -4, 2)
    assert type(ProfileParams._make(PARAMS)) is ProfileParams


def test_profile_params_are_a_tuple_with_a_float_r():
    # a semantic change from the frozen dataclass it was: equal to the plain tuple of its fields
    assert PARAMS == (3, 2, 2, 0.5, 4, 2) and tuple(PARAMS) == (3, 2, 2, 0.5, 4, 2)
    assert repr(PARAMS) == "ProfileParams(m1=3, m2=2, d_n=2, r=0.5, n=4, fano_index=2)"
    for r in (Fraction(1, 2), 0.5):
        params = ProfileParams(m1=3, m2=2, d_n=2, r=r, n=4, fano_index=2)
        assert params == PARAMS and type(params.r) is float


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


# The criterion-3 acceptance corpus over the five bases of the classify-corpus benchmark.
CORPUS_BASES = (
    BaseManifold.riemann_surface(2),
    BaseManifold(dim_c=2, c1_coeff=1, label="b1"),
    CP1,
    BaseManifold.projective_space(2),
    BaseManifold.projective_space(3),
)
CORPUS = [
    validate_join(l1, l2, w1, w2, base)
    for l1 in range(1, 11)
    for l2 in range(1, 11)
    if gcd(l1, l2) == 1
    for w1 in range(1, 13)
    for w2 in range(1, w1 + 1)
    if gcd(w1, w2) == 1 and gcd(l2, l1 * w1 * w2) == 1
    for base in CORPUS_BASES
]
SMALL_RAYS = [ReebRay(v1, v2) for v1 in range(1, 8) for v2 in range(1, 8) if gcd(v1, v2) == 1]


def _assert_valid_range(rng):
    assert type(rng) is PositivityRange
    assert rng == PositivityRange(*rng)  # the validating constructor accepts every field
    assert type(rng.kind) is RangeKind and rng.kind is RangeKind(rng.kind.value)
    assert all(bound is None or type(bound) is Fraction for bound in (rng.lower, rng.upper))


def test_derived_ranges_pass_the_constructor_checks():
    assert len(CORPUS) == 8085
    kinds = set()
    for join in CORPUS:
        rng = positivity_range(join)
        _assert_valid_range(rng)
        kinds.add(rng.kind)
    assert kinds == set(RangeKind)


def test_raw_ranges_pass_the_constructor_checks():
    for l1 in range(1, 7):
        for l2 in range(1, 7):
            for w1 in range(1, 7):
                for w2 in range(1, w1 + 1):
                    for c1 in range(-2, 9):
                        _assert_valid_range(positivity_range_raw(l1, l2, w1, w2, c1))


def test_derived_quotient_data_matches_the_constructor_and_the_formulas():
    checked = 0
    for join in CORPUS:
        for ray in SMALL_RAYS:
            d = join.w1 * ray.v2 - join.w2 * ray.v1
            if d == 0:
                continue
            data = quotient_data(join, ray)
            assert type(data) is QuotientData and data == QuotientData(*data)
            s = gcd(abs(d), join.l2)
            m = join.l2 // s
            assert data == (s, join.l1 * d // s, m, m * ray.v1, m * ray.v2)  # s divides d
            checked += 1
    assert checked > 100_000


def test_enum_aliases_are_the_members():
    assert classifier._EMPTY is RangeKind.EMPTY
    assert classifier._ENTIRE is RangeKind.ENTIRE
    assert classifier._HALF_LINE is RangeKind.HALF_LINE
    assert classifier._INTERVAL is RangeKind.INTERVAL
    assert classifier._POSITIVE is TypeVerdict.POSITIVE
    assert classifier._INDEFINITE is TypeVerdict.INDEFINITE


def test_classify_ray_returns_the_verdict_members():
    verdicts = set()
    for join in CORPUS[::7]:
        for ray in SMALL_RAYS:
            verdict = classify_ray(join, ray)
            assert verdict is TypeVerdict.POSITIVE or verdict is TypeVerdict.INDEFINITE
            verdicts.add(id(verdict))
    assert verdicts == {id(TypeVerdict.POSITIVE), id(TypeVerdict.INDEFINITE)}
