from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sascone import (
    BaseManifold,
    BaseMismatchError,
    InvalidParameterError,
    JoinParams,
    NonpositiveVolumeError,
    PositivityRange,
    RangeKind,
    ReebRay,
    TypeVerdict,
    classify_ray,
    h1_signed,
    orb_fano_predicate,
    positivity_range,
    positivity_range_raw,
    validate_join,
    whole_cone_rules,
)
from conftest import BASES, CP1, CP2, GENUS2, join_strategy, ray_strategy


def _join(l1, l2, w1, w2, base=CP1):
    return validate_join(l1, l2, w1, w2, base)


class TestPositivityRange:
    def test_interval_half_bouquet_m0(self):
        rng = positivity_range(_join(4, 1, 1, 1))
        assert rng.kind is RangeKind.INTERVAL
        assert (rng.lower, rng.upper) == (Fraction(1, 2), Fraction(2))

    def test_interval_m1(self):
        rng = positivity_range(_join(1, 1, 5, 3))
        assert (rng.lower, rng.upper) == (Fraction(1), Fraction(5))

    def test_half_line_m3(self):
        rng = positivity_range(_join(1, 1, 7, 1))
        assert rng.kind is RangeKind.HALF_LINE and rng.lower == 5

    def test_entire_two_bouquet(self):
        assert positivity_range(_join(4, 3, 1, 1)).kind is RangeKind.ENTIRE

    def test_half_line_over_cp2(self):
        rng = positivity_range(_join(1, 1, 12, 1, CP2))
        assert rng.kind is RangeKind.HALF_LINE and rng.lower == 9

    def test_empty_for_non_fano(self):
        assert positivity_range(_join(1, 1, 12, 1, GENUS2)).kind is RangeKind.EMPTY

    def test_entire_at_exact_equality(self):
        # l2 * I_N == l1 * w1 counts as entire
        assert positivity_range_raw(1, 4, 12, 1, 3).kind is RangeKind.ENTIRE
        assert positivity_range_raw(1, 3, 12, 1, 3).kind is RangeKind.HALF_LINE

    @pytest.mark.parametrize(
        "l1, l2, w1, w2",
        [(0, 1, 1, 1), (1, -3, 1, 1), (1, 1, 2.0, 1), (1, 1, 1, True), (True, 1, 1, 1), (1, 1, 2, 3)],
    )
    def test_raw_rejects_nonpositive_noninteger_and_unsorted(self, l1, l2, w1, w2):
        with pytest.raises(InvalidParameterError):
            positivity_range_raw(l1, l2, w1, w2, 2)

    def test_as_text(self):
        assert positivity_range(_join(4, 1, 1, 1)).as_text() == "1/2 < v1/v2 < 2"
        assert positivity_range(_join(1, 1, 7, 1)).as_text() == "5 < v1/v2"
        assert positivity_range(_join(4, 3, 1, 1)).as_text() == "p+_w = t+_w"
        assert positivity_range(_join(1, 1, 12, 1, GENUS2)).as_text() == "p+_w is empty"


class TestClassify:
    def test_positive_above_half_line(self):
        assert classify_ray(_join(2, 1, 3, 1), ReebRay(3, 1)) is TypeVerdict.POSITIVE

    def test_regular_ray_positive_only_in_m0(self):
        assert classify_ray(_join(4, 1, 1, 1), ReebRay(1, 1)) is TypeVerdict.POSITIVE
        assert classify_ray(_join(1, 1, 7, 1), ReebRay(1, 1)) is TypeVerdict.INDEFINITE

    def test_boundary_ray_is_indefinite(self):
        join = _join(2, 1, 3, 1)
        assert positivity_range(join).lower == 2
        assert classify_ray(join, ReebRay(2, 1)) is TypeVerdict.INDEFINITE

    def test_verdict_equals_range_membership(self):
        # criterion-3 joins; rays v1, v2 <= 12 plus the rays of each finite bound
        rays = [(ReebRay(v1, v2), Fraction(v1, v2))
                for v1, v2 in product(range(1, 13), repeat=2) if gcd(v1, v2) == 1]
        for l1, l2, w1, w2 in product(range(1, 11), range(1, 11), range(1, 13), range(1, 13)):
            if w2 > w1 or gcd(l1, l2) != 1 or gcd(w1, w2) != 1 or gcd(l2, l1 * w1 * w2) != 1:
                continue
            for base in BASES:
                join = JoinParams(base=base, l1=l1, l2=l2, w1=w1, w2=w2)
                rng = positivity_range(join)
                for bound in (rng.lower, rng.upper):
                    if bound is not None:
                        ray = ReebRay(bound.numerator, bound.denominator)
                        assert classify_ray(join, ray) is TypeVerdict.INDEFINITE, (join, ray)
                for ray, ratio in rays:
                    positive = classify_ray(join, ray) is TypeVerdict.POSITIVE
                    assert positive == rng.contains(ratio), (join, ray)

    def test_distance_to_boundary(self):
        rng = positivity_range(_join(4, 1, 1, 1))
        assert rng.distance_to_boundary(Fraction(1)) == Fraction(1, 2)
        assert rng.distance_to_boundary(Fraction(7, 4)) == Fraction(1, 4)
        assert positivity_range(_join(4, 3, 1, 1)).distance_to_boundary(Fraction(1)) is None


class TestWholeConeRules:
    def test_zero_coefficient_forces_entire(self):
        report = whole_cone_rules(_join(3, 13, 12, 1, CP2))
        assert report.c1_is_zero and report.entire and report.consistent

    def test_negative_coefficient_does_not_preclude_entire(self):
        report = whole_cone_rules(_join(4, 3, 1, 1))
        assert report.c1_coeff == -2 and not report.c1_is_positive
        assert report.entire and report.consistent

    def test_positive_coefficient_forces_entire(self):
        report = whole_cone_rules(_join(1, 5, 12, 1, CP2))
        assert report.c1_coeff == 2 and report.c1_is_positive
        assert report.entire and report.consistent

    def test_requires_projective_base(self):
        with pytest.raises(BaseMismatchError):
            whole_cone_rules(_join(1, 1, 12, 1, GENUS2))

    @given(join_strategy(bases=(CP1, CP2)))
    @settings(max_examples=200)
    def test_rules_consistent_on_generated_joins(self, join):
        assert whole_cone_rules(join).consistent


class TestH1Signed:
    def test_zero_scalar(self):
        assert h1_signed(0.0, 1.0, 2) == 0.0
        assert math.copysign(1.0, h1_signed(-0.0, 1.0, 2)) == 1.0  # 0, not -0

    def test_unit(self):
        for n in (1, 2, 5):
            assert h1_signed(1.0, 1.0, n) == 1.0

    def test_negative_value(self):
        assert h1_signed(-2.0, 4.0, 1) == -1.0

    @pytest.mark.parametrize("s, v, n", [
        (1e200, 1e200, 2),  # |S|^(n+1) overflows
        (1e-200, 1e-200, 2),  # both powers underflow to 0
        (1e-160, 1e-100, 1),  # |S|^(n+1) is subnormal
        (-1e-160, 1e-100, 2),
        (5e-324, 1e-300, 1),
        (1e10, 1e10, 2500),
        (-1e-160, 1e-5, 1),  # the value itself is subnormal
        (-1.0001, 1.0002, 10**4),  # n at its cap
    ])
    def test_finite_value_despite_intermediates(self, s, v, n):
        got = h1_signed(s, v, n)
        oracle = float(Fraction(abs(s)) ** (n + 1) / Fraction(v) ** n)
        assert math.copysign(1.0, got) == math.copysign(1.0, s)
        assert abs(got) == oracle

    @pytest.mark.parametrize("s, v", [
        (1.0000750846783426, 1.000013630284182),
        (-1.0000623257417016, 1.0000698971930373),
        (-0.9999254218249894, 1.0000823566636259),
        (1.0000121200437706, 0.9999024872637658),
    ])
    def test_large_n_correctly_rounded(self, s, v):
        n = 5000
        exact = Fraction(abs(s)) ** (n + 1) / Fraction(v) ** n
        got = h1_signed(s, v, n)
        assert math.copysign(1.0, got) == math.copysign(1.0, s)
        assert abs(got) == float(exact)

    @given(
        s=st.floats(1e-300, 1e300), v=st.floats(1e-300, 1e300), n=st.integers(1, 6),
        neg=st.booleans(),
    )
    @settings(max_examples=300)
    def test_exact_oracle_or_true_overflow(self, s, v, n, neg):
        try:
            oracle = float(Fraction(s) ** (n + 1) / Fraction(v) ** n)
        except OverflowError:
            with pytest.raises(InvalidParameterError):
                h1_signed(s, v, n)
            return
        got = h1_signed(-s if neg else s, v, n)
        assert abs(got) == oracle
        assert got == 0.0 or (got < 0) == neg

    # decided by the bit lengths before any power, as the powers would decide them
    def test_overflow_far_out_of_range_is_invalid(self):
        for s, v in ((sys.float_info.max, 5e-324), (-sys.float_info.max, 1e-300)):
            with pytest.raises(InvalidParameterError, match="^h1 computation overflows double precision at"):
                h1_signed(s, v, 10**4)

    @pytest.mark.parametrize("s, v", [(5e-324, sys.float_info.max), (1e-300, 1e300), (1.0, 1e300)])
    def test_underflow_far_out_of_range_is_zero_of_the_sign_of_s(self, s, v):
        for signed in (s, -s):
            got = h1_signed(signed, v, 10**4)
            assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, signed)

    def test_n_half_above_the_cap_is_invalid(self):
        for n in (10**4 + 1, 10**400):
            with pytest.raises(InvalidParameterError):
                h1_signed(1.0, 1.0, n)

    @pytest.mark.parametrize("s, v", [("3.7", 2.9), (3.7, "2.9"), (1.0, None), (1.0, 1j)])
    def test_non_real_totals_are_invalid(self, s, v):
        with pytest.raises(InvalidParameterError):
            h1_signed(s, v, 2)

    @pytest.mark.parametrize("s, v", [(1.0, 10**400), (-(10**400), 1.0), (Fraction(10**400), 1.0)],
                             ids=["int-volume", "int-s", "fraction-s"])
    def test_totals_beyond_the_double_range_are_invalid(self, s, v):
        with pytest.raises(InvalidParameterError):
            h1_signed(s, v, 1)

    def test_real_totals_of_other_types(self):
        assert h1_signed(Fraction(-2), 4, 1) == -1.0

    def test_volume_must_be_positive(self):
        with pytest.raises(NonpositiveVolumeError):
            h1_signed(1.0, 0.0, 1)
        with pytest.raises(NonpositiveVolumeError):
            h1_signed(1.0, -3.0, 2)

    @given(
        mag=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        neg=st.booleans(),
        v=st.floats(1e-3, 1e3, allow_nan=False),
        n=st.integers(1, 6),
    )
    def test_sign_matches_scalar_sign(self, mag, neg, v, n):
        s = -mag if neg else mag
        value = h1_signed(s, v, n)
        if s > 0:
            assert value > 0
        elif s < 0:
            assert value < 0
        else:
            assert value == 0


class TestRangePredicateCoherence:
    @given(join_strategy(), ray_strategy())
    @settings(max_examples=400)
    def test_classification_equals_predicate(self, join, ray):
        positive = classify_ray(join, ray) is TypeVerdict.POSITIVE
        assert positive == orb_fano_predicate(join, ray)

    @given(join_strategy(), ray_strategy(max_v=20), st.integers(2, 9))
    @settings(max_examples=150)
    def test_conical_invariance(self, join, ray, t):
        positive = classify_ray(join, ray) is TypeVerdict.POSITIVE
        assert positivity_range(join).contains(Fraction(t * ray.v1, t * ray.v2)) == positive

    @given(join_strategy(bases=(CP1, CP2)))
    @settings(max_examples=150)
    def test_w_ray_always_positive_when_fano(self, join):
        rng = positivity_range(join)
        assert rng.kind is not RangeKind.EMPTY
        assert rng.contains(Fraction(join.w1, join.w2))
        if rng.kind in (RangeKind.HALF_LINE, RangeKind.INTERVAL):
            assert rng.lower < Fraction(join.w1, join.w2)
        if rng.kind is RangeKind.INTERVAL:
            assert Fraction(join.w1, join.w2) < rng.upper

    def test_lower_bound_strictly_decreasing_in_l2(self):
        # formula-level monotonicity, raw evaluation across every l2
        for l1, w1, w2, b0 in ((4, 5, 3, 2), (3, 7, 2, 1), (2, 9, 4, 3)):
            lowers = []
            for l2 in range(1, 30):
                rng = positivity_range_raw(l1, l2, w1, w2, b0)
                if rng.kind is RangeKind.ENTIRE:
                    break
                lowers.append(rng.lower)
            assert all(a > b for a, b in zip(lowers, lowers[1:]))
            assert lowers  # at least one bounded range before entire


def test_positivity_range_validation():
    with pytest.raises(Exception):
        PositivityRange(RangeKind.INTERVAL, lower=Fraction(2), upper=Fraction(1))
    with pytest.raises(Exception):
        PositivityRange(RangeKind.ENTIRE, lower=Fraction(1))


@pytest.mark.parametrize(
    ("kind", "lower", "upper"),
    [
        (RangeKind.INTERVAL, Fraction(1, 2), Fraction(1, 2)),
        (RangeKind.INTERVAL, Fraction(3, 2), Fraction(4, 3)),
        (RangeKind.INTERVAL, Fraction(-1, 3), Fraction(2)),
        (RangeKind.HALF_LINE, Fraction(-1, 3), None),
        (RangeKind.HALF_LINE, Fraction(1, 3), Fraction(2)),
    ],
    ids=["equal", "reversed", "negative-lower", "half-line-negative", "half-line-with-upper"],
)
def test_positivity_range_rejects_bad_bounds(kind, lower, upper):
    with pytest.raises(InvalidParameterError):
        PositivityRange(kind, lower, upper)


def test_positivity_range_accepts_zero_lower_bound():
    assert PositivityRange(RangeKind.INTERVAL, Fraction(0), Fraction(1, 3)).contains(Fraction(1, 4))
    assert PositivityRange(RangeKind.HALF_LINE, Fraction(0)).contains(Fraction(1, 9))


def test_non_fano_custom_base_empty():
    base = BaseManifold(dim_c=3, c1_coeff=0, label="c1-zero")
    assert positivity_range(_join(1, 1, 2, 1, base)).kind is RangeKind.EMPTY
