"""Independent numerical oracles for the test suite.

The quadrature oracle integrates the raw textbook form of the transition
function (evaluated in 30-digit arithmetic, so it is independent of both
the library's stabilized rewrite and its closed-form antiderivatives)
with scipy's adaptive quadrature. The exact oracle evaluates the closed
form of the profile in high-precision arithmetic, so it reaches the far
and high-degree cases that quadrature cannot resolve. The sign-scan
oracle brackets roots the dumb way, by walking a fine grid.
"""

from __future__ import annotations

import math
import warnings

import mpmath
from scipy.integrate import IntegrationWarning, quad

mpmath.mp.dps = 30


def g_raw(t: float, k: float, m1: int, m2: int) -> float:
    """Transition function straight from its defining formula.

    The formula cancels catastrophically as k -> 0, so the working
    precision grows with -log10|k|; the value stays exact to well beyond
    double precision for any representable k.
    """
    if k == 0.0:
        return float((1 - mpmath.mpf(t)) / m2 - (1 + mpmath.mpf(t)) / m1)
    extra = max(0, 10 + int(-mpmath.log10(abs(k)))) if abs(k) < 1 else 0
    with mpmath.workdps(30 + extra):
        kk = mpmath.mpf(k)
        num = (mpmath.mpf(1) / m1 + mpmath.mpf(1) / m2) * mpmath.e ** (-kk * t) - (
            mpmath.e**kk / m1 + mpmath.e**-kk / m2
        )
        return float(2 * num / (mpmath.e**kk - mpmath.e**-kk))


def quad_profile_F(z: float, k: float, m1: int, m2: int, r: float, d_n: int) -> float:
    """Adaptive quadrature of g(t, k) * (1 + r t)**d_n from -1 to z."""
    def integrand(t: float) -> float:
        return g_raw(t, k, m1, m2) * (1.0 + r * t) ** d_n

    with warnings.catch_warnings():
        # the tolerances deliberately push quad to its roundoff limit
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(integrand, -1.0, z, epsabs=1e-14, epsrel=1e-12, limit=300)
    return value


def quad_f(k: float, m1: int, m2: int, r: float, d_n: int) -> float:
    return quad_profile_F(1.0, k, m1, m2, r, d_n)


def sign_changes(values: list[float]) -> list[int]:
    """Indices i where consecutive nonzero values change sign."""
    out = []
    prev = None
    prev_idx = None
    for i, v in enumerate(values):
        if v == 0.0:
            continue
        if prev is not None and (v > 0) != (prev > 0):
            out.append(prev_idx)
        prev, prev_idx = v, i
    return out


def F_exact(z: float, k: float, m1: int, m2: int, r: float, d_n: int) -> float:
    """F(z; k) from its closed form in mpmath, with no quadrature.

    E(z) = -exp(-k*z) * S(z) + exp(k) * S(-1), where k*S - S' = p, and
    F = ((a+b) * E - (a*exp(k) + b*exp(-k)) * M_0) / sinh k; at k = 0,
    F = (b - a) * M_0 - (a+b) * M_1. The closed form cancels about
    (d_n + 1) * log10(1/|k|) digits for small |k|, so the working
    precision is 250 digits plus that many.
    """
    extra = int((d_n + 1) * max(0.0, -math.log10(abs(k)))) if k else 0
    with mpmath.workdps(250 + extra):
        zz, kk = mpmath.mpf(z), mpmath.mpf(k)
        a, b = mpmath.mpf(1) / m1, mpmath.mpf(1) / m2
        c = [mpmath.binomial(d_n, j) * mpmath.mpf(r) ** j for j in range(d_n + 1)]

        def moment(i):  # integral of t**i * p(t) from -1 to z
            return sum(cj * (zz ** (i + j + 1) - (-1) ** (i + j + 1)) / (i + j + 1) for j, cj in enumerate(c))

        if k == 0.0:
            return float((b - a) * moment(0) - (a + b) * moment(1))
        s = [mpmath.mpf(0)] * (d_n + 2)
        for e in range(d_n, -1, -1):
            s[e] = (c[e] + (e + 1) * s[e + 1]) / kk

        def big_s(x):
            return sum(se * x**e for e, se in enumerate(s))

        e_z = -mpmath.exp(-kk * zz) * big_s(zz) + mpmath.exp(kk) * big_s(mpmath.mpf(-1))
        m0_weight = a * mpmath.exp(kk) + b * mpmath.exp(-kk)
        return float(((a + b) * e_z - m0_weight * moment(0)) / mpmath.sinh(kk))
