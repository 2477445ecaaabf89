"""Independent reference answers the benchmark checks outputs against.

Nothing here imports sascone. The integer formulas restate the paper's
definitions (positivity inequality, ramification data, invariants); the
profile checks integrate g(t, k) * p(t) by composite Simpson quadrature
instead of the closed forms the library uses, so a kernel that returns
a wrong root or a wrong profile is caught.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

# Band edges on |k*|, the root of the profile's weighted integral. The
# cost of one build depends on d_n and on |k*| (the library switches to
# a power series below 0.5), so the profile workload stratifies on them.
K_BAND_EDGES = (0.1, 0.2, 0.3, 0.4, 0.5)


def predicate(b0: int, l1: int, l2: int, w1: int, w2: int, v1: int, v2: int) -> bool:
    """Positivity of the quotient's orbifold c1, as one integer inequality."""
    if b0 <= 0:
        return False
    d = w1 * v2 - w2 * v1
    if d > 0:
        return b0 * l2 * v2 > l1 * d
    if d < 0:
        return b0 * l2 * v1 > -l1 * d
    return True


def quotient(l1: int, l2: int, w1: int, w2: int, v1: int, v2: int) -> tuple | None:
    """(s, n, m, m1, m2) of the quotient along (v1, v2); None when v = w."""
    d = w1 * v2 - w2 * v1
    if d == 0:
        return None
    s = gcd(abs(d), l2)
    m = l2 // s
    return (s, l1 * (d // s), m, m * v1, m * v2)


def range_text(l1: int, l2: int, w1: int, w2: int, c1: int) -> str:
    """The positivity range in the notation of `range --format text`."""
    if c1 <= 0:
        return "p+_w is empty"
    if l2 * c1 >= l1 * w1:
        return "p+_w = t+_w"
    rho = Fraction(l2 * c1, l1 * w2)
    lower = Fraction(w1, w2) - rho
    if rho < 1:
        return f"{lower} < v1/v2 < {Fraction(w1, w2) / (1 - rho)}"
    return f"{lower} < v1/v2"


def bouquet_partition(k: int, l: int) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for j in range(1, k + 1):
        out.setdefault(str(gcd(l, 2 * (k - j))), []).append(j)
    return out


def _g(t: float, k: float, a: float, b: float) -> float:
    if k == 0.0:
        return (1.0 - t) * b - (1.0 + t) * a
    lo = math.exp(-k * (1.0 + t) * 0.5) * math.sinh(k * (1.0 - t) * 0.5)
    hi = math.exp(k * (1.0 - t) * 0.5) * math.sinh(k * (1.0 + t) * 0.5)
    return 2.0 * (b * lo - a * hi) / math.sinh(k)


def weighted_integral(z: float, k: float, m1: int, m2: int, r: float, d_n: int,
                      intervals: int = 512) -> float:
    """Simpson value of the integral of g(t, k) * (1 + r*t)**d_n over [-1, z]."""
    a, b = 1.0 / m1, 1.0 / m2
    h = (z + 1.0) / intervals
    acc = 0.0
    for i in range(intervals + 1):
        t = -1.0 + i * h
        w = 1 if i in (0, intervals) else (4 if i % 2 else 2)
        acc += w * _g(t, k, a, b) * (1.0 + r * t) ** d_n
    return acc * h / 3.0


def integral_scale(m1: int, m2: int, r: float, d_n: int) -> float:
    """(1/m1 + 1/m2) times the integral of (1 + r*t)**d_n over [-1, 1]."""
    mass = ((1.0 + r) ** (d_n + 1) - (1.0 - r) ** (d_n + 1)) / (r * (d_n + 1))
    return (1.0 / m1 + 1.0 / m2) * mass


def k_band(m1: int, m2: int, r: float, d_n: int) -> int:
    """Index of the first edge in K_BAND_EDGES above |k*|, else len(edges).

    The weighted integral over [-1, 1] decreases strictly in k, so
    |k*| < e exactly when it is positive at -e and negative at +e.
    """
    band = len(K_BAND_EDGES)
    for i in reversed(range(band)):
        e = K_BAND_EDGES[i]
        if not (weighted_integral(1.0, -e, m1, m2, r, d_n, 64) > 0.0
                > weighted_integral(1.0, e, m1, m2, r, d_n, 64)):
            break
        band = i
    return band


def profile_mismatch(k: float, f_mid: float, m1: int, m2: int, r: float, d_n: int) -> str | None:
    """Compare a built profile's root and its value F(0) with quadrature.

    Only roots with |k| <= 10 are compared: beyond that the integrand is
    too steep for 512 Simpson intervals to reach the 1e-6 tolerance.
    """
    if abs(k) > 10.0:
        return None
    scale = integral_scale(m1, m2, r, d_n)
    if abs(weighted_integral(1.0, k, m1, m2, r, d_n)) > 1e-6 * scale:
        return "root k does not zero the weighted integral"
    if abs(weighted_integral(0.0, k, m1, m2, r, d_n) - f_mid) > 1e-6 * scale:
        return "F(0) differs from quadrature"
    return None
