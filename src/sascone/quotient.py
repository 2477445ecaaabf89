"""Quasi-regular quotient data and the orbifold Fano predicate.

A coprime ray (v1, v2) in the w-cone has a quasi-regular quotient: a
ruled orbifold log pair whose ramification data is

    s  = gcd(|w2*v1 - w1*v2|, l2)
    m  = l2 / s
    mi = m * vi
    n  = (l1 / s) * (w1*v2 - w2*v1)

with n = 0 exactly when v is proportional to w (the product case, which
is rejected). The orbifold first Chern class of the quotient is positive
iff the base is Fano and one strict integer inequality holds, with the
branch selected by the sign of w1*v2 - w2*v1:

    sign > 0:  I_N*l2*v2 - l1*(w1*v2 - w2*v1) > 0
    sign < 0:  I_N*l2*v1 + l1*(w1*v2 - w2*v1) > 0
    sign = 0:  both branches degenerate to I_N > 0

where I_N is the base's c1 coefficient. In the quotient's own data
(n, m1, m2) the same positivity is the pair of integer box conditions
I_N*m2 > n and I_N*m1 > -n; `ricci_box_holds` is their one home, used by
`orb_c1_report` and by the profile certificate. `orb_fano_predicate`
keeps the join-level derivation above, so the two can be compared.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .core import JoinParams, ReebRay
from .errors import ProductCaseError


class QuotientData(NamedTuple):
    """Log-pair data (s, n, m, m1, m2) of a quasi-regular quotient."""

    s: int
    n: int
    m: int
    m1: int
    m2: int


def quotient_data(join: JoinParams, ray: ReebRay) -> QuotientData:
    """Ramification data of the quotient along `ray`.

    Raises `ProductCaseError` when the ray equals w (then n = 0 and the
    quotient is a product, not a ruled log pair). A vanishing difference
    w1*v2 - w2*v1 with v != w cannot occur for coprime pairs.
    """
    d = join.w1 * ray.v2 - join.w2 * ray.v1
    if d == 0:
        assert (ray.v1, ray.v2) == (join.w1, join.w2)
        raise ProductCaseError(f"ray ({ray.v1}, {ray.v2}) equals w; quotient degenerates (n = 0)")
    s = gcd(abs(d), join.l2)
    m = join.l2 // s
    # derived from a valid join and ray, so built without the constructor's frame
    return tuple.__new__(QuotientData, (s, join.l1 * (d // s), m, m * ray.v1, m * ray.v2))


def ricci_box_holds(fano_index: int, n: int, m1: int, m2: int) -> bool:
    """The two endpoint box conditions, as exact integer inequalities.

    (I_N/n - 1/m2)*n > 0 and (I_N/n + 1/m1)*n > 0 clear denominators to
    I_N*m2 > n and I_N*m1 > -n. For n > 0 the second is automatic, for
    n < 0 the first; both fail for every n when I_N <= 0.
    """
    return fano_index * m2 > n and fano_index * m1 > -n


def orb_fano_predicate(join: JoinParams, ray: ReebRay) -> bool:
    """True iff the quotient's orbifold first Chern class is positive.

    At v = w (where the quotient data degenerates) both inequality
    branches reduce to Fano-ness of the base, which is what is returned;
    this agrees with the fact that the w-ray always lies in the interior
    of the positivity range of a Fano join.
    """
    b0 = join.base.c1_coeff
    if b0 <= 0:
        return False
    d = join.w1 * ray.v2 - join.w2 * ray.v1
    if d > 0:
        return b0 * join.l2 * ray.v2 - join.l1 * d > 0
    if d < 0:
        return b0 * join.l2 * ray.v1 + join.l1 * d > 0
    return True


class OrbChernReport(NamedTuple):
    """Scalar form of the positivity inequalities for one ray.

    `a_scalar` is 2*b0/n + 1/m1 - 1/m2 and `c_scalar` is 1/m1 + 1/m2,
    both exact rationals. The verdict is a_scalar > c_scalar for n > 0
    and a_scalar < -c_scalar for n < 0, and always equals
    `orb_fano_predicate`.
    """

    n: int
    a_scalar: Fraction
    c_scalar: Fraction
    branch: str
    positive: bool


def orb_c1_report(join: JoinParams, ray: ReebRay, data: QuotientData | None = None) -> OrbChernReport:
    if data is None:
        data = quotient_data(join, ray)
    b0, n, m1, m2 = join.base.c1_coeff, data.n, data.m1, data.m2
    a = Fraction(2 * b0 * m1 * m2 + n * (m2 - m1), n * m1 * m2)
    c = Fraction(m1 + m2, m1 * m2)
    # a > c (n > 0) or a < -c (n < 0), cleared of n*m1*m2 and of 2*m1 or 2*m2
    positive = ricci_box_holds(b0, n, m1, m2)
    return OrbChernReport(n=n, a_scalar=a, c_scalar=c, branch="n>0" if n > 0 else "n<0", positive=positive)
