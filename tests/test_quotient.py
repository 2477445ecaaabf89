from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings

from sascone import (
    BaseManifold,
    ProductCaseError,
    QuotientData,
    ReebRay,
    TypeVerdict,
    classify_ray,
    orb_c1_report,
    orb_fano_predicate,
    positivity_range,
    quotient_data,
    validate_join,
)
from conftest import CP1, GENUS2, join_strategy, ray_strategy


def _join(l1, l2, w1, w2, base=CP1):
    return validate_join(l1, l2, w1, w2, base)


def test_quotient_data_direct_evaluation():
    data = quotient_data(_join(1, 1, 5, 3), ReebRay(2, 1))
    assert data == QuotientData(s=1, n=-1, m=1, m1=2, m2=1)


def test_quotient_product_case():
    with pytest.raises(ProductCaseError):
        quotient_data(_join(1, 1, 5, 3), ReebRay(5, 3))


def test_orb_fano_predicate_examples():
    assert orb_fano_predicate(_join(4, 1, 1, 1), ReebRay(1, 1))
    assert not orb_fano_predicate(_join(2, 1, 3, 1), ReebRay(1, 1))
    for v in (ReebRay(1, 1), ReebRay(7, 2), ReebRay(1, 9)):
        assert not orb_fano_predicate(_join(1, 1, 12, 1, GENUS2), v)


def test_orb_c1_report_example():
    join = _join(1, 1, 5, 3)
    report = orb_c1_report(join, ReebRay(2, 1))
    assert report.n == -1
    assert report.a_scalar == Fraction(-9, 2)
    assert report.c_scalar == Fraction(3, 2)
    assert report.branch == "n<0"
    assert report.positive
    # cross-check: ratio 2 lies in the known range (1, 5) of this join
    assert orb_fano_predicate(join, ReebRay(2, 1))


def test_orb_c1_report_boundary_equality():
    # ratio exactly at the lower bound 2 of the (2, 1, (3,1)) join:
    # the scalars coincide and the strict inequality fails
    join = _join(2, 1, 3, 1)
    report = orb_c1_report(join, ReebRay(2, 1))
    assert report.branch == "n>0"
    assert report.a_scalar == report.c_scalar
    assert not report.positive


def test_orb_c1_report_zero_c1_base():
    from sascone import BaseManifold

    torus_base = _join(1, 1, 5, 3, BaseManifold.riemann_surface(1))
    for v in (ReebRay(2, 1), ReebRay(1, 3), ReebRay(9, 2)):
        assert not orb_c1_report(torus_base, v).positive
        assert not orb_fano_predicate(torus_base, v)


@given(join_strategy(), ray_strategy())
@settings(max_examples=300)
def test_report_verdict_matches_predicate(join, ray):
    if (ray.v1, ray.v2) == (join.w1, join.w2):
        return
    assert orb_c1_report(join, ray).positive == orb_fano_predicate(join, ray)


@given(join_strategy(), ray_strategy())
@settings(max_examples=300)
def test_report_scalars_match_their_definition(join, ray):
    if (ray.v1, ray.v2) == (join.w1, join.w2):
        return
    data = quotient_data(join, ray)
    report = orb_c1_report(join, ray)
    b0 = join.base.c1_coeff
    assert report.a_scalar == Fraction(2 * b0, data.n) + Fraction(1, data.m1) - Fraction(1, data.m2)
    assert report.c_scalar == Fraction(1, data.m1) + Fraction(1, data.m2)


@given(join_strategy(), ray_strategy())
@settings(max_examples=200)
def test_quotient_invariants(join, ray):
    if (ray.v1, ray.v2) == (join.w1, join.w2):
        return
    data = quotient_data(join, ray)
    assert data.n != 0
    assert data.s == gcd(abs(join.w2 * ray.v1 - join.w1 * ray.v2), join.l2)
    assert data.m * data.s == join.l2
    assert (data.m1, data.m2) == (data.m * ray.v1, data.m * ray.v2)
    assert gcd(data.m1, data.m2) == data.m


def test_walls_are_where_one_box_condition_turns_to_equality():
    # each finite bound a/b of the range, as the ray (a, b), has a quotient on
    # the boundary of the box: I_N*m2 == n on a lower bound, I_N*m1 == -n on
    # an upper one, so the ray is neither orbifold Fano nor positive
    walls = {"lower": 0, "upper": 0}
    for p, l1, l2, w1, w2 in product(range(1, 6), *[range(1, 13)] * 4):
        if w2 > w1 or not gcd(l1, l2) == gcd(w1, w2) == gcd(l2, l1 * w1 * w2) == 1:
            continue
        join = validate_join(l1, l2, w1, w2, BaseManifold.projective_space(p))
        bounds = positivity_range(join)
        for side, bound in (("lower", bounds.lower), ("upper", bounds.upper)):
            if bound is None:
                continue
            ray = ReebRay(bound.numerator, bound.denominator)
            data = quotient_data(join, ray)
            if side == "lower":
                assert join.base.c1_coeff * data.m2 == data.n, (join, ray)
            else:
                assert join.base.c1_coeff * data.m1 == -data.n, (join, ray)
            assert not orb_fano_predicate(join, ray), (join, ray)
            assert classify_ray(join, ray) is TypeVerdict.INDEFINITE, (join, ray)
            walls[side] += 1
    assert walls == {"lower": 8515, "upper": 5407}
