"""Explicit admissible metric profiles with positive Ricci curvature.

The construction lives on the momentum interval [-1, 1]. Fix ramification
indices (m1, m2), a weight exponent d_n, and a real r with 0 < |r| < 1 and
r*n > 0. Write p(z) = (1 + r*z)**d_n, which is positive on the interval.
The transition function is

    g(t, k) = 2*((1/m1 + 1/m2)*exp(-k*t) - (exp(k)/m1 + exp(-k)/m2))
                / (exp(k) - exp(-k))                        for k != 0
    g(t, 0) = (1 - t)/m2 - (1 + t)/m1

which is continuously differentiable in (t, k), strictly decreasing in t,
and satisfies g(-1, k) = 2/m2 and g(1, k) = -2/m1 for every k. The map

    f(k) = integral of g(t, k) * p(t) over [-1, 1]

is strictly decreasing from (2/m2)*int(p) to (-2/m1)*int(p), so it has a
unique root k*. The profile is

    F(z) = integral of g(t, k*) * p(t) from -1 to z,

which vanishes at both endpoints, is positive inside, and has endpoint
slopes F'(-1) = 2*p(-1)/m2 and F'(1) = -2*p(1)/m1. With Theta = F/p this
gives an admissible Kaehler metric on the quotient log pair whose Ricci
form has coefficients

    ricci_h(z) = I_N/n - g(z, k*)/2        (horizontal)
    ricci_v(z) = -(1/2) * dg/dt (z, k*)    (vertical, always positive)

and the metric has positive Ricci curvature iff the two integer box
conditions (I_N/n - 1/m2)*n > 0 and (I_N/n + 1/m1)*n > 0 hold; the third
condition, that F'/p has negative derivative, holds by construction.

Numerics. All integrals have closed forms in a = 1/m1, b = 1/m2, the
moments M_i(z) of t**i * p(t) from -1 to z, and E(z), the integral of
exp(-k*t) * p(t) from -1 to z:

    F(z; k) = ((a+b) * E(z) - (a*exp(k) + b*exp(-k)) * M_0(z)) / sinh k.

For each k this is written once as F(z; k) = exp(-k*z) * Q(z) + R(z) with
polynomials Q and R (`_Root`):

* |k| >= 0.5: E = -exp(-k*z) * S(z) + exp(k) * S(-1), where S solves
  k*S - S' = p, so Q and R have degree at most d_n and d_n + 1;
* 0 < |k| < 0.5: that route loses digits to cancellation in 1/sinh k.
  Taking M_0 out of E instead gives
      F = ((a+b) * D(z) - (a*expm1(k) + b*expm1(-k)) * M_0(z)) / sinh k
  with D(z) the integral of expm1(-k*t) * p(t) from -1 to z, summed term
  by term from the Taylor series of expm1 to machine precision; Q = 0
  and R collects the series in powers of z;
* k = 0: Q = 0 and R = (b - a) * M_0 - (a+b) * M_1 exactly.

The root solver evaluates f(k) = F(1; k) through the same form. After the
root k* is found, Q and R are built once and each grid point costs one
exponential u and Horner sums of Q and R; g and dg/dt are affine in the
same u. Everything is pure and reentrant. Exact quadrature of these
closed forms is cross-checked against adaptive numerical quadrature in
the test suite only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .core import JoinParams, ReebRay, _require_positive_int
from .errors import BracketFailureError, InvalidParameterError
from .quotient import QuotientData, quotient_data

DEFAULT_GRID = 201
_BRACKET_LIMIT = 512.0
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 48


@dataclass(frozen=True, slots=True)
class ProfileParams:
    """Inputs of the profile construction.

    `m1`, `m2` are the ramification indices, `d_n` the exponent of the
    weight polynomial (the base's complex dimension; 0 is admitted as a
    synthetic test case), `n` the twist of the quotient, `fano_index`
    the base's positive c1 coefficient, and `r` the admissible-class
    parameter with 0 < |r| < 1 and r*n > 0.
    """

    m1: int
    m2: int
    d_n: int
    r: float
    n: int
    fano_index: int

    def __post_init__(self) -> None:
        _require_positive_int(self.m1, "m1")
        _require_positive_int(self.m2, "m2")
        _require_positive_int(self.fano_index, "fano_index")
        if isinstance(self.d_n, bool) or not isinstance(self.d_n, int) or self.d_n < 0:
            raise InvalidParameterError(f"d_n must be a nonnegative int, got {self.d_n!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n == 0:
            raise InvalidParameterError(f"n must be a nonzero int, got {self.n!r}")
        object.__setattr__(self, "r", float(self.r))
        if not 0.0 < abs(self.r) < 1.0:
            raise InvalidParameterError(f"r must satisfy 0 < |r| < 1, got {self.r}")
        if self.r * self.n <= 0:
            raise InvalidParameterError(f"r and n must have the same sign, got r={self.r}, n={self.n}")


class ProfileSample(NamedTuple):
    z: float
    f: float
    theta: float
    ricci_h: float
    ricci_v: float


@dataclass(frozen=True, slots=True)
class SolveDiagnostics:
    k: float
    residual: float
    tolerance: float
    bracket_lo: float
    bracket_hi: float
    iterations: int


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Numerical certificate attached to a built profile.

    `kernel` names the branch of F that ran at the root: "zero", "series"
    or "closed". `endpoints_ok` and `all_ok` are derived from the other
    fields on construction.
    """

    grid_size: int
    root: SolveDiagnostics
    kernel: str
    endpoint_f_lo: float
    endpoint_f_hi: float
    fprime_lo_residual: float
    fprime_hi_residual: float
    interior_min_f: float
    interior_positive: bool
    max_g_dt: float
    g_monotone: bool
    box_ok: bool
    box_first: int
    box_second: int
    horizontal_positive: bool
    vertical_positive: bool
    ke_balance: float
    is_ke: bool
    synthetic_dimension: bool
    endpoints_ok: bool = field(init=False)
    all_ok: bool = field(init=False)

    def __post_init__(self) -> None:
        endpoints_ok = (
            max(self.endpoint_f_lo, self.endpoint_f_hi) <= 1e-10
            and max(self.fprime_lo_residual, self.fprime_hi_residual) <= 1e-10
        )
        coeffs_ok = not self.box_ok or (self.horizontal_positive and self.vertical_positive)
        object.__setattr__(self, "endpoints_ok", endpoints_ok)
        object.__setattr__(
            self, "all_ok", endpoints_ok and self.interior_positive and self.g_monotone and coeffs_ok
        )


@dataclass(frozen=True, slots=True)
class MetricProfile:
    params: ProfileParams
    k_root: float
    samples: tuple[ProfileSample, ...]
    report: VerificationReport


def weight_poly(z: float, r: float, d_n: int) -> float:
    """The fiber weight polynomial p(z) = (1 + r*z)**d_n."""
    return (1.0 + r * z) ** d_n


def g_func(t: float, k: float, m1: int, m2: int) -> float:
    """Transition function g(t, k); see the module docstring.

    Evaluated through exp * sinh products so that small |k| loses no
    precision; at k = 0 the linear branch is exact.
    """
    if k == 0.0:
        return (1.0 - t) / m2 - (1.0 + t) / m1
    sk = math.sinh(k)
    lo = math.exp(-k * (1.0 + t) * 0.5) * math.sinh(k * (1.0 - t) * 0.5)
    hi = math.exp(k * (1.0 - t) * 0.5) * math.sinh(k * (1.0 + t) * 0.5)
    return 2.0 * (lo / m2 - hi / m1) / sk


def g_dt(t: float, k: float, m1: int, m2: int) -> float:
    """Partial derivative of g in t; strictly negative for all (t, k)."""
    if k == 0.0:
        return -(1.0 / m1 + 1.0 / m2)
    return -(1.0 / m1 + 1.0 / m2) * (k / math.sinh(k)) * math.exp(-k * t)


def _horner(coeffs: Sequence[float], z: float) -> float:
    """Value at z of the polynomial with ascending coefficients `coeffs`."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _horner_grid(coeffs: Sequence[float], zs: list[float]) -> list[float]:
    """`_horner` at every point of `zs`, one pass over the grid per coefficient."""
    acc = [coeffs[-1]] * len(zs)
    for c in reversed(coeffs[:-1]):
        acc = [x * z + c for x, z in zip(acc, zs)]
    return acc


def _vanish_at_minus_one(poly: list[float]) -> list[float]:
    """Set the constant term of `poly` so that its value at -1 is 0."""
    poly[0] = 0.0
    poly[0] = -_horner(poly, -1.0)
    return poly


class _Kernel:
    """Polynomial data of g(t, k) * p(t) for fixed (m1, m2, r, d_n)."""

    __slots__ = ("alpha", "beta", "coeffs", "m0", "q_total")

    def __init__(self, m1: int, m2: int, r: float, d_n: int) -> None:
        self.alpha = 1.0 / m1
        self.beta = 1.0 / m2
        self.coeffs = [math.comb(d_n, p) * r**p for p in range(d_n + 1)]
        self.m0 = self.moment(0)
        self.q_total = _horner(self.m0, 1.0)

    def moment(self, i: int) -> list[float]:
        """Ascending coefficients of M_i(z) = integral of t**i * p(t) from -1 to z."""
        poly = [0.0] * (i + 1) + [c / e for e, c in enumerate(self.coeffs, i + 1)]
        return _vanish_at_minus_one(poly)

    def f(self, k: float) -> float:
        """f(k) = F(1; k)."""
        return _Root(self, k).big_f(1.0)


class _Root:
    """F(z; k) at one fixed k, as exp(-k*z) * Q(z) + R(z); see "Numerics".

    Q and R are polynomials with ascending coefficients `q` and `r`, and Q
    is empty off the closed-form branch. This constructor is the only
    place that writes F's closed form and its series; `kind` names the
    branch: "zero" (k = 0), "series" (|k| < 0.5) or "closed".
    """

    __slots__ = ("k", "kind", "q", "r")

    def __init__(self, kern: _Kernel, k: float) -> None:
        a, b = kern.alpha, kern.beta
        ab = a + b
        self.k = k
        if k == 0.0:
            # The limit k -> 0: F = (b - a) * M_0 - (a + b) * M_1.
            self.kind = "zero"
            self.q = []
            self.r = [(b - a) * m0 - ab * m1 for m0, m1 in zip(kern.m0 + [0.0], kern.moment(1))]
            return
        sk = math.sinh(k)
        if abs(k) < _SERIES_CUTOFF:
            # The series form of "Numerics", scaled so that no step divides
            # by a tiny sinh k alone: with scale = k / sinh k,
            #   F = scale * ((a+b) * D/k - (a*expm1(k) + b*expm1(-k))/k * M_0),
            # and D/k is integrated term by term from
            #   expm1(-k*t)/k = sum over i >= 1 of (-1)**i * k**(i-1) * t**i / i!.
            # The terms shrink by |k|/(i+1) < 1/2. A term count shared by
            # every z cannot stop relative to F(z), which is 0 at both
            # endpoints, so the series stops once |k|**i <= 1e-30 * i!.
            self.kind = "series"
            self.q = []
            scale = k / sk
            ab_s = ab * scale
            weights = [0.0]  # (a+b) * scale * (-1)**i * k**(i-1) / i!, by power i of t
            kpow = -1.0
            fact = 1.0
            for i in range(1, _SERIES_TERMS):
                fact *= i
                weights.append(ab_s * kpow / fact)
                kpow *= -k
                if abs(kpow) <= 1e-30 * fact:
                    break
            width = len(weights)
            conv = [0.0] * (width + len(kern.coeffs) - 1)
            for p, c in enumerate(kern.coeffs):
                conv[p : p + width] = [x + c * w for x, w in zip(conv[p : p + width], weights)]
            poly = [0.0] + [x / e for e, x in enumerate(conv, 1)]
            m0_weight = scale * (a * (math.expm1(k) / k) + b * (math.expm1(-k) / k))
            for e, m in enumerate(kern.m0):
                poly[e] -= m0_weight * m
            self.r = _vanish_at_minus_one(poly)
            return
        # exp(-k*t) * p(t) has the antiderivative -exp(-k*t) * S(t) with
        # k*S - S' = p, solved from the top coefficient down; Q is
        # -(a+b)/sinh(k) * S, and the constant of R makes F(-1) = 0.
        self.kind = "closed"
        ek = math.exp(k)
        q_weight = -ab / sk
        coeffs = kern.coeffs
        self.q = q = [0.0] * len(coeffs)
        nxt = q_lo = 0.0
        for e in range(len(q) - 1, -1, -1):
            nxt = q[e] = (q_weight * coeffs[e] + (e + 1) * nxt) / k
            q_lo = nxt - q_lo  # Q(-1) by Horner's rule
        m0_weight = -(a * ek + b / ek) / sk
        self.r = r = [m0_weight * m for m in kern.m0]
        r[0] -= ek * q_lo

    def big_f(self, z: float) -> float:
        """F(z; k)."""
        fz = _horner(self.r, z)
        if self.q:
            fz += math.exp(-self.k * z) * _horner(self.q, z)
        return fz

    def sample(self, grid_size: int, params: ProfileParams) -> tuple[list[ProfileSample], list[float]]:
        """Samples on the uniform grid of [-1, 1], and dg/dt at each of them.

        Each point costs one exponential u and Horner sums of Q and R. g
        and dg/dt are affine in u:

            g(z)     = g(e) + g_u * (u(z) - u(e))    e = -1 or 1, nearer to z
            dg/dt(z) = dg_u * u(z) + dg_0

        with u = exp(-k*z) on the closed-form branch, expm1(-k*z) on the
        series branch and z at k = 0; g(-1) = 2/m2 and g(1) = -2/m1.
        Anchoring g at the nearer endpoint keeps its endpoint values exact.
        """
        k = self.k
        a, b = 1.0 / params.m1, 1.0 / params.m2
        ab = a + b
        last = grid_size - 1
        zs = [(2.0 * idx) / last - 1.0 for idx in range(grid_size)]
        if self.kind == "zero":
            us = zs
            u_lo, u_hi = -1.0, 1.0
            g_u = dg_0 = -ab
            dg_u = 0.0
        else:
            sk = math.sinh(k)
            g_u = ab / sk
            dg_u = -ab * (k / sk)
            nk = -k
            if self.kind == "series":
                us = [math.expm1(nk * z) for z in zs]
                u_lo, u_hi = math.expm1(k), math.expm1(nk)
                dg_0 = dg_u
            else:
                us = [math.exp(nk * z) for z in zs]
                u_lo, u_hi = math.exp(k), math.exp(nk)
                dg_0 = 0.0
        fs = _horner_grid(self.r, zs)
        if self.q:
            fs = [f + u * q for f, u, q in zip(fs, us, _horner_grid(self.q, zs))]
        r, d_n = params.r, params.d_n
        g_lo, g_hi = 2.0 * b, -2.0 * a
        h0 = params.fano_index / params.n
        dgs = [dg_u * u + dg_0 for u in us]
        samples = list(map(ProfileSample._make, zip(
            zs,
            fs,
            [f / (1.0 + r * z) ** d_n for z, f in zip(zs, fs)],
            [h0 - 0.5 * (g_lo + g_u * (u - u_lo) if z < 0.0 else g_hi + g_u * (u - u_hi))
             for z, u in zip(zs, us)],
            [-0.5 * dg for dg in dgs],
        )))
        return samples, dgs


def _kernel(params: ProfileParams) -> _Kernel:
    return _Kernel(params.m1, params.m2, params.r, params.d_n)


def f_of_k(k: float, params: ProfileParams) -> float:
    """The root function f(k) = integral of g(t, k) * p(t) over [-1, 1]."""
    return _kernel(params).f(float(k))


def profile_F(z: float, k: float, params: ProfileParams) -> float:
    """The profile F(z) = integral of g(t, k) * p(t) from -1 to z."""
    return _Root(_kernel(params), float(k)).big_f(float(z))


def _solve_k(kern: _Kernel, tol_rel: float) -> SolveDiagnostics:
    tol = tol_rel * (kern.alpha + kern.beta) * kern.q_total
    lo, hi = -1.0, 1.0
    while kern.f(lo) <= 0.0:
        lo *= 2.0
        if lo < -_BRACKET_LIMIT:
            raise BracketFailureError(f"no sign change of f down to k = {lo}")
    while kern.f(hi) >= 0.0:
        hi *= 2.0
        if hi > _BRACKET_LIMIT:
            raise BracketFailureError(f"no sign change of f up to k = {hi}")
    bracket = (lo, hi)
    mid = 0.5 * (lo + hi)
    it = 0
    for it in range(1, 201):
        mid = 0.5 * (lo + hi)
        fm = kern.f(mid)
        if abs(fm) <= tol:
            return SolveDiagnostics(
                k=mid, residual=abs(fm), tolerance=tol,
                bracket_lo=bracket[0], bracket_hi=bracket[1], iterations=it,
            )
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(1.0, abs(mid)):
            break
    mid = 0.5 * (lo + hi)
    residual = abs(kern.f(mid))
    if residual <= tol:
        return SolveDiagnostics(
            k=mid, residual=residual, tolerance=tol,
            bracket_lo=bracket[0], bracket_hi=bracket[1], iterations=it + 1,
        )
    raise BracketFailureError(f"bisection stalled at k = {mid} with |f| = {residual} > {tol}")


def solve_k(params: ProfileParams, tol_rel: float = 1e-12) -> float:
    """Unique root of f, by bracket doubling from [-1, 1] then bisection.

    The returned k satisfies |f(k)| <= tol_rel * (1/m1 + 1/m2) * int(p).
    Monotonicity of f makes the bisection invariant f(lo) > 0 > f(hi)
    self-maintaining; the bracket cap exists only to guard numerics.
    """
    return _solve_k(_kernel(params), tol_rel).k


def ricci_box_holds(fano_index: int, n: int, m1: int, m2: int) -> bool:
    """The two endpoint box conditions, as exact integer inequalities.

    (I_N/n - 1/m2)*n > 0 and (I_N/n + 1/m1)*n > 0 clear denominators to
    I_N*m2 > n and I_N*m1 > -n. For n > 0 the second is automatic, for
    n < 0 the first; both fail for every n when I_N <= 0.
    """
    return fano_index * m2 > n and fano_index * m1 > -n


def build_profile(
    params: ProfileParams, grid_size: int = DEFAULT_GRID, tol_rel: float = 1e-12
) -> MetricProfile:
    """Solve for k, sample the profile on a uniform grid, and certify it.

    The samples cover [-1, 1] endpoints included. The report records the
    endpoint residuals of F and F', interior positivity, monotonicity of
    g, the box verdict with its two integer scalars, and the flat
    (Kaehler-Einstein) specialization flag.
    """
    if isinstance(grid_size, bool) or not isinstance(grid_size, int) or grid_size < 3:
        raise InvalidParameterError(f"grid_size must be an int >= 3, got {grid_size!r}")
    kern = _kernel(params)
    diag = _solve_k(kern, tol_rel)
    k = diag.k
    m1, m2, r, d_n, n, fano = params.m1, params.m2, params.r, params.d_n, params.n, params.fano_index

    root = _Root(kern, k)
    samples, dgs = root.sample(grid_size, params)
    interior_min = min([s.f for s in samples[1:-1]])
    max_gdt = max(dgs)

    p_lo = weight_poly(-1.0, r, d_n)
    p_hi = weight_poly(1.0, r, d_n)
    box_ok = ricci_box_holds(fano, n, m1, m2)
    report = VerificationReport(
        grid_size=grid_size,
        root=diag,
        kernel=root.kind,
        endpoint_f_lo=abs(samples[0].f),
        endpoint_f_hi=abs(samples[-1].f),
        fprime_lo_residual=abs(g_func(-1.0, k, m1, m2) - 2.0 / m2) * p_lo,
        fprime_hi_residual=abs(g_func(1.0, k, m1, m2) + 2.0 / m1) * p_hi,
        interior_min_f=interior_min,
        interior_positive=interior_min > 0.0,
        max_g_dt=max_gdt,
        g_monotone=max_gdt < 0.0,
        box_ok=box_ok,
        box_first=fano * m2 - n,
        box_second=fano * m1 + n,
        horizontal_positive=all(s.ricci_h * n > 0.0 for s in samples),
        vertical_positive=all(s.ricci_v > 0.0 for s in samples),
        ke_balance=kern.f(0.0),
        is_ke=abs(k) <= 1e-13
        and abs(2.0 * r * fano / n - (1.0 + r) / m2 - (1.0 - r) / m1) <= 1e-12,
        synthetic_dimension=d_n == 0,
    )
    return MetricProfile(params=params, k_root=k, samples=tuple(samples), report=report)


def profile_params_from_ray(
    join: JoinParams, ray: ReebRay, r: float | None = None
) -> tuple[ProfileParams, QuotientData]:
    """Profile parameters induced by a quasi-regular ray of a Fano join.

    The class parameter r is not determined by the join here and defaults
    to sign(n)/2, the midpoint of its admissible interval.
    """
    fano = join.base.fano_index
    data = quotient_data(join, ray)
    if r is None:
        r = 0.5 if data.n > 0 else -0.5
    params = ProfileParams(
        m1=data.m1, m2=data.m2, d_n=join.base.dim_c, r=r, n=data.n, fano_index=fano
    )
    return params, data
