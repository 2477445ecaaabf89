from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sascone import (
    BaseManifold,
    InvalidParameterError,
    JoinParams,
    NotCoprimeError,
    NotFanoError,
    ReebRay,
    SmoothnessViolationError,
    parse_base,
    validate_join,
)
from conftest import CP1, CP2


def test_validate_join_accepts_known_family_member():
    join = validate_join(1, 5, 12, 1, CP2)
    assert (join.l1, join.l2, join.w1, join.w2) == (1, 5, 12, 1)


def test_validate_join_trivial_weights():
    join = validate_join(1, 1, 1, 1, CP1)
    assert (join.w1, join.w2) == (1, 1)


def test_validate_join_rejects_non_coprime_l():
    with pytest.raises(NotCoprimeError):
        validate_join(2, 2, 3, 1, CP1)


def test_validate_join_rejects_non_coprime_w():
    with pytest.raises(NotCoprimeError):
        validate_join(1, 1, 6, 3, CP1)


def test_validate_join_rejects_smoothness_violation():
    # l2 = 3 shares a factor with w1 * w2 = 12
    with pytest.raises(SmoothnessViolationError):
        validate_join(1, 3, 12, 1, CP2)


def test_validate_join_sorts_weights():
    join = validate_join(1, 1, 3, 5, CP1)
    assert (join.w1, join.w2) == (5, 3)


def test_validate_join_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        validate_join(0, 1, 1, 1, CP1)
    with pytest.raises(InvalidParameterError):
        validate_join(1, 1, 1, -2, CP1)


def test_direct_construction_enforces_weight_order():
    with pytest.raises(InvalidParameterError):
        JoinParams(base=CP1, l1=1, l2=1, w1=3, w2=5)


@given(
    l1=st.integers(1, 12), l2=st.integers(1, 12),
    w1=st.integers(1, 12), w2=st.integers(1, 12),
)
def test_validate_join_idempotent(l1, l2, w1, w2):
    try:
        join = validate_join(l1, l2, w1, w2, CP1)
    except (NotCoprimeError, SmoothnessViolationError):
        return
    again = validate_join(join.l1, join.l2, join.w1, join.w2, join.base)
    assert again == join


def test_base_manifold_fano_flags():
    assert CP2.is_fano and CP2.fano_index == 3
    sigma3 = BaseManifold.riemann_surface(3)
    assert sigma3.c1_coeff == -4 and not sigma3.is_fano
    with pytest.raises(NotFanoError):
        _ = sigma3.fano_index
    torus = BaseManifold.riemann_surface(1)
    assert torus.c1_coeff == 0 and not torus.is_fano


def test_base_manifold_validation():
    with pytest.raises(InvalidParameterError):
        BaseManifold(dim_c=0, c1_coeff=1)
    with pytest.raises(InvalidParameterError):
        BaseManifold.projective_space(0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BaseManifold.riemann_surface(-1),
        lambda: BaseManifold.riemann_surface(True),
        lambda: BaseManifold.riemann_surface(1.0),
        lambda: BaseManifold(dim_c=True, c1_coeff=1),
        lambda: BaseManifold(dim_c=1, c1_coeff=False),
        lambda: BaseManifold(dim_c=1, c1_coeff=2.0),
        lambda: ReebRay(1, True),
        lambda: ReebRay(0, 2),
        lambda: validate_join(1, 1, "3", 1, CP1),
    ],
)
def test_integer_fields_reject_bools_floats_and_values_below_bound(make):
    with pytest.raises(InvalidParameterError):
        make()


def test_integer_subclasses_are_accepted():
    class Count(int):
        pass

    assert BaseManifold.riemann_surface(Count(0)).c1_coeff == 2
    assert BaseManifold(dim_c=Count(2), c1_coeff=Count(-1)).dim_c == 2
    assert ReebRay(Count(3), Count(2)).ratio == Fraction(3, 2)


def test_parse_base():
    assert parse_base("cp2") == CP2
    assert parse_base("CP1") == CP1
    assert parse_base("sigma2").c1_coeff == -2
    custom = parse_base("custom:2:1")
    assert (custom.dim_c, custom.c1_coeff) == (2, 1)
    with pytest.raises(InvalidParameterError):
        parse_base("what")


def test_reeb_ray_requires_coprime():
    with pytest.raises(NotCoprimeError):
        ReebRay(2, 4)
    assert ReebRay(3, 2).ratio == Fraction(3, 2)


@given(a=st.integers(-1000, 1000).filter(bool), b=st.integers(1, 1000),
       c=st.integers(-1000, 1000).filter(bool), d=st.integers(1, 1000))
def test_rational_arithmetic_exact(a, b, c, d):
    x = Fraction(a, b)
    y = Fraction(c, d)
    assert x * (1 / x) == 1
    assert (x + y) - y == x
    assert x.denominator > 0
