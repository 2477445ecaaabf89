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

and the metric has positive Ricci curvature iff ricci_h * n > 0 on
[-1, 1]; the third condition, that F'/p has negative derivative, holds
by construction. As g falls strictly from 2/m2 to -2/m1, ricci_h * n is
monotone between I_N - n/m2 and I_N + n/m1, so it is positive exactly on
the integer box I_N*m2 > n, I_N*m1 > -n (`ricci_box_holds`). The report's
horizontal_positive is that verdict; the ricci_h column is written out
but not scanned.

Numerics. All integrals have closed forms in a = 1/m1, b = 1/m2, the
moment M_0(z) of p from -1 to z, and E(z), the integral of
exp(-k*t) * p(t) from -1 to z:

    F(z; k) = ((a+b) * E(z) - (a*exp(k) + b*exp(-k)) * M_0(z)) / sinh k.

For each k this is written once as F(z; k) = u(z) * Q(z) + R(z) with
u(z) = exp(-k*z - |k|) <= 1 on [-1, 1] and polynomials Q and R (`_Root`).
Every 1/sinh k enters as lead = exp(|k|)/sinh k = ±2/(1 - exp(-2|k|)),
so no term overflows for any finite k. Two forms cover every k:

* closed: E = -exp(-k*z) * S(z) + exp(k) * S(-1), where S solves
  k*S - S' = p, so Q = -(a+b) * lead * S and R is lead times a multiple
  of M_0 plus the constant that makes F(-1) = 0;
* series: Q = 0, and taking M_0 out of E gives
      F = (k/sinh k) * ((a+b) * D(z)/k - (a*expm1(k)/k + b*expm1(-k)/k) * M_0(z))
  with D(z) the integral of expm1(-k*t) * p(t) from -1 to z, summed term
  by term from the Taylor series of expm1 until |k|**i <= 1e-30 * i!;
  k = 0 is its limit, k/sinh k = 1 and expm1(±k)/k = ±1. The series
  stays accurate, but its length grows like e*|k|.

The closed form cancels when S is large (small |k|, large d_n); its
rounding error is about eps * sum |Q_j|. It runs when sum |Q_j| <=
_CONDITION_BOUND * (a+b) * int(p), the scale of F, and the series runs
otherwise. The root solver sums f(k) = F(1; k) in the same form, bit for
bit, with no R built, and bisects until its bracket holds no double
between the ends; the tolerance only decides failure. Q and R are built
once at the root k*. Sampling takes one exponential a point (two in the
series form), in which g and dg/dt are affine, and one pass over the grid
(built once per size) per column but z and Theta at d_n = 0. F's pass is a
list comprehension generated and compiled once per pair of lengths of R
and Q (`_horner_pass`), which takes the coefficients as arguments, writes
out Horner's steps and adds u*Q, rebinding its accumulator in a `for`
clause every 64 steps to stay within the parser's nesting limit. dg/dt
is not stored: the report's max_g_dt is its exact value at the smallest
exponential. `build_profile` runs four stages: validate (Theta by its sum
unless that overflows), solve, sample and certify. `_certify`, the one
writer of the report, checks the columns against the root and the kernel.
Everything is pure and reentrant. Exact quadrature of these closed forms
is cross-checked against adaptive quadrature in the test suite only.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, repeat
from numbers import Real
from typing import Callable, NamedTuple, Sequence

from .core import JoinParams, ReebRay, _require_int, _Validated
from .errors import BracketFailureError, InvalidParameterError
from .quotient import QuotientData, quotient_data, ricci_box_holds

DEFAULT_GRID = 201
_GRID_MAX = 10**6  # the largest grid: five columns of it take about 300 MB
# largest sum |Q_j| / ((a+b) * int(p)) at which the closed form runs
_CONDITION_BOUND = 512.0
# The bracket's bound, the largest power of two a double holds. 2*|k| is inf there, but
# `_lead` stays finite, ±2.0, as expm1(-inf) is -1; `_k_lead` is inf.
_K_CAP = 2.0**1023
# The root's failure threshold, relative to the scale (1/m1 + 1/m2) * int(p)
# of f. The bisection runs to adjacent doubles whatever the threshold, so it
# only decides failure: found roots on criterion-4 draws and golden-family
# rays leave at most 3e-3 of it.
_TOL_REL = 1e-12
# Horner steps per nesting of `_horner_pass`; CPython's parser takes at most 200 nested parentheses.
_REBIND = 64


class ProfileParams(_Validated, namedtuple("ProfileParams", "m1 m2 d_n r n fano_index")):
    """Inputs of the profile construction.

    `m1`, `m2` are the ramification indices, `d_n` the exponent of the
    weight polynomial (the base's complex dimension; 0 is admitted as a
    synthetic test case), `n` the twist of the quotient, `fano_index`
    the base's positive c1 coefficient, and `r` the admissible-class
    parameter, a real number kept as a float, with 0 < |r| < 1, r*n > 0.
    """

    __slots__ = ()

    def __new__(cls, m1: int, m2: int, d_n: int, r: float, n: int, fano_index: int) -> ProfileParams:
        for name, value in (("m1", m1), ("m2", m2)):
            try:  # the kernel takes 1/m1 and 1/m2 in double precision
                float(_require_int(value, name))
            except OverflowError:
                raise InvalidParameterError(f"{name} lies beyond the double range that 1/{name} needs") from None
        _require_int(fano_index, "fano_index")
        _require_int(d_n, "d_n", 0)
        if _require_int(n, "n", None) == 0:
            raise InvalidParameterError("n must be a nonzero int, got 0")
        try:  # the sampler's constant term of ricci_h is fano_index / n in double precision
            fano_index / n
        except OverflowError:
            raise InvalidParameterError("fano_index/n lies beyond the double range that ricci_h needs") from None
        if not isinstance(r, Real):
            raise InvalidParameterError(f"r must be a real number, got {type(r).__name__}")
        r = float(r)
        if not 0.0 < abs(r) < 1.0:
            raise InvalidParameterError(f"r must satisfy 0 < |r| < 1, got {r}")
        if (r > 0) != (n > 0):  # a product would overflow a float for huge n
            raise InvalidParameterError(f"r and n must have the same sign, got r={r}, n={n}")
        return tuple.__new__(cls, (m1, m2, d_n, r, n, fano_index))


class ProfileSample(NamedTuple):
    """One grid row: z, F, Theta = F/p, and the horizontal and vertical Ricci coefficients."""

    z: float
    f: float
    theta: float
    ricci_h: float
    ricci_v: float


class SolveDiagnostics(NamedTuple):
    k: float
    residual: float
    tolerance: float
    bracket_lo: float
    bracket_hi: float
    iterations: int


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Numerical certificate attached to a built profile.

    The init fields are what `_certify` measured or decided; `kernel`
    names the form of F that ran at the root, "series" or "closed". The
    verdicts are derived from them, so a report cannot contradict itself:
    `interior_positive` is interior_min_f > 0, `horizontal_positive` is
    `box_ok`, `vertical_positive` is `g_monotone`, `endpoints_ok` bounds the
    endpoint residuals by 1e-10, and `all_ok`, a valid admissible profile, is
    endpoints_ok and interior_positive and g_monotone. Ricci positivity is
    `box_ok`: an indefinite ray has `all_ok` true and `box_ok` false.
    """

    grid_size: int
    root: SolveDiagnostics
    kernel: str
    endpoint_f_lo: float
    endpoint_f_hi: float
    fprime_lo_residual: float
    fprime_hi_residual: float
    interior_min_f: float
    max_g_dt: float
    g_monotone: bool
    box_ok: bool
    box_first: int
    box_second: int
    ke_balance: float
    is_ke: bool
    synthetic_dimension: bool
    interior_positive: bool = field(init=False)
    horizontal_positive: bool = field(init=False)
    vertical_positive: bool = field(init=False)
    endpoints_ok: bool = field(init=False)
    all_ok: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "interior_positive", self.interior_min_f > 0.0)
        object.__setattr__(self, "horizontal_positive", self.box_ok)
        object.__setattr__(self, "vertical_positive", self.g_monotone)
        object.__setattr__(self, "endpoints_ok", max(self.endpoint_f_lo, self.endpoint_f_hi) <= 1e-10
                           and max(self.fprime_lo_residual, self.fprime_hi_residual) <= 1e-10)
        object.__setattr__(self, "all_ok", self.endpoints_ok and self.interior_positive and self.g_monotone)


@dataclass(frozen=True, slots=True)
class MetricProfile:
    """A built profile and its certificate.

    `params` are the inputs, `columns` the grid as sampled, one tuple per
    `ProfileSample` field in that order, and `report` the certificate that
    `_certify` wrote on those columns. `k_root` is the root k*, and
    `samples` the rows of `columns`.
    """

    params: ProfileParams
    columns: tuple[tuple[float, ...], ...]
    report: VerificationReport

    @property
    def k_root(self) -> float:
        """The root k* of f, which is `report.root.k`."""
        return self.report.root.k

    @property
    def samples(self) -> tuple[ProfileSample, ...]:
        """The rows of `columns`, built on every read with no cache: bind once in a loop."""
        return tuple(map(tuple.__new__, repeat(ProfileSample), zip(*self.columns)))


def _lead(k: float) -> float:
    """lead = exp(|k|)/sinh k, the anchored form of 1/sinh k; k != 0."""
    return math.copysign(2.0 / -math.expm1(-2.0 * abs(k)), k)


def _k_lead(k: float) -> float:
    """k * lead, computed from |k| so that it tends to 1 as k -> 0."""
    return 2.0 * abs(k) / -math.expm1(-2.0 * abs(k)) if k else 1.0


def g_func(t: float, k: float, m1: int, m2: int) -> float:
    """Transition function g(t, k); see the module docstring.

    Evaluated as g(e) + (a+b) * lead * expm1(-k*t - |k|), anchored at the
    endpoint e = -sign(k) where the exponent is 0, so small |k| loses no
    precision and no term overflows; at k = 0 the linear branch is exact.
    """
    if k == 0.0:
        return (1.0 - t) / m2 - (1.0 + t) / m1
    g_e = 2.0 / m2 if k > 0.0 else -2.0 / m1
    return g_e + (1.0 / m1 + 1.0 / m2) * _lead(k) * math.expm1(-k * t - abs(k))


def g_dt(t: float, k: float, m1: int, m2: int) -> float:
    """Partial derivative of g in t; strictly negative for all (t, k)."""
    return -(1.0 / m1 + 1.0 / m2) * _k_lead(k) * math.exp(-k * t - abs(k))


def _horner(coeffs: Sequence[float], z: float) -> float:
    """Value at z of the polynomial with ascending coefficients `coeffs`."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _horner_chain(name: str, count: int, acc: str) -> tuple[str, str]:
    """`for` clauses and expression of `_horner`'s steps over name0..name{count-1}, top read as a constant.

    The chain is rebound to `acc` after every _REBIND steps, which CPython compiles to an assignment."""
    clauses, expr = "", f"{name}{count - 1}"
    for step, e in enumerate(range(count - 2, -1, -1)):
        if step and not step % _REBIND:
            clauses, expr = f"{clauses} for {acc} in [{expr}]", acc
        expr = f"({expr}) * z + {name}{e}"
    return clauses, expr


def _horner_source(r_count: int, q_count: int) -> str:
    """Source of `_horner_pass`: names and counts only, no coefficient value."""
    r_for, r_expr = _horner_chain("r", r_count, "a")
    q_for, q_expr = _horner_chain("q", q_count, "b") if q_count else ("", "")
    args = ", ".join(["zs", "us", *(f"r{e}" for e in range(r_count)), *(f"q{e}" for e in range(q_count))])
    body = f"{r_expr} + u * ({q_expr}) for z, u in zip(zs, us)" if q_count else f"{r_expr} for z in zs"
    return f"lambda {args}: [{body}{r_for}{q_for}]"


@lru_cache(maxsize=128)  # at most 128 shapes kept; 2000 criterion-4 draws make 20
def _horner_pass(r_count: int, q_count: int) -> Callable[..., list[float]]:
    """F = R(z) + u*Q(z) at each point of zs and us in one list pass, called as (zs, us, *R, *Q).

    Keyed by shape alone: one compile serves every k, r and grid. Without Q, `us` is not read."""
    return eval(compile(_horner_source(r_count, q_count), f"<horner pass {r_count} {q_count}>", "eval"), {})


@lru_cache(maxsize=4)  # at most four grids kept, 32 MB each at _GRID_MAX
def _grid(grid_size: int) -> tuple[float, ...]:
    """The uniform grid z = i/(grid_size - 1) - 1 of [-1, 1] over even i, built once per grid size."""
    return tuple([i / (grid_size - 1) - 1.0 for i in range(0, 2 * grid_size - 1, 2)])


def _vanish_at_minus_one(poly: list[float]) -> list[float]:
    """Set the constant term of `poly` so that its value at -1 is 0."""
    poly[0] = 0.0
    poly[0] = -_horner(poly, -1.0)
    return poly


class _Kernel:
    """Polynomial data of g(t, k) * p(t) for fixed `params`, and the closed form's bound on sum |Q_j|."""

    __slots__ = ("alpha", "beta", "bound", "coeffs", "m0", "params", "q_steps", "q_total")

    def __init__(self, params: ProfileParams) -> None:
        self.params = params
        self.alpha = 1.0 / params.m1
        self.beta = 1.0 / params.m2
        r = params.r
        self.coeffs = [math.comb(params.d_n, p) * r**p for p in range(params.d_n + 1)]
        # ascending coefficients of M_0(z), the integral of p from -1 to z
        self.m0 = _vanish_at_minus_one([0.0] + [c / e for e, c in enumerate(self.coeffs, 1)])
        self.q_total = _horner(self.m0, 1.0)
        self.bound = _CONDITION_BOUND * (self.alpha + self.beta) * self.q_total
        # the steps (e + 1, p_e) of Q's recursion, top power first
        self.q_steps = tuple((float(e + 1), self.coeffs[e]) for e in range(params.d_n, -1, -1))

    def closed_form(self, k: float) -> tuple[list[float], float, float, float] | None:
        """Q, Q(1), R's weight on M_0 and R's constant term at k; None at k = 0 or past _CONDITION_BOUND.

        exp(-k*t) * p(t) has the antiderivative -exp(-k*t) * S(t) with k*S - S' = p, solved from the
        top coefficient down; Q is -(a+b) * lead * S, and R's constant term makes F(-1) = 0."""
        if not k:
            return None
        a, b, lead = self.alpha, self.beta, _lead(k)
        q_weight = -(a + b) * lead
        q, nxt, q_lo, q_hi = [], 0.0, 0.0, 0.0  # q_lo, q_hi: Q(-1) and Q(1) by `_horner`'s steps
        for e, c in self.q_steps:
            nxt = (q_weight * c + e * nxt) / k
            q.append(nxt)
            q_lo = nxt - q_lo
            q_hi += nxt
        q.reverse()
        if not sum(map(abs, q)) <= self.bound:
            return None
        u_lo = math.exp(k - abs(k))  # u(-1)
        m0_weight = -lead * (a * u_lo + b * math.exp(-k - abs(k)))
        return q, q_hi, m0_weight, m0_weight * self.m0[0] - u_lo * q_lo

    def f(self, k: float) -> float:
        """f(k) = F(1; k), bit for bit `_Root(self, k).big_f(1.0)`, with no R built in the closed form."""
        if (closed := self.closed_form(k)) is None:
            return _Root(self, k).big_f(1.0)
        _, q_hi, m0_weight, r_0 = closed
        r_hi = 0.0  # R(1) by `_horner`'s steps
        for m in self.m0[:0:-1]:
            r_hi += m0_weight * m
        return (r_hi + r_0) + math.exp(-k - abs(k)) * q_hi


class _Root:
    """F(z; k) at one fixed k, as u(z) * Q(z) + R(z); see "Numerics".

    Q and R are polynomials with ascending coefficients `q` and `r`, and Q
    is empty in the series form. This constructor and `_Kernel.closed_form`
    are the only places that write F's closed form and its series; `kind`
    names the form that ran: "closed" when its cancellation stays within
    _CONDITION_BOUND, "series" otherwise. `sample` reads `kern`'s params.
    """

    __slots__ = ("k", "kern", "kind", "q", "r")

    def __init__(self, kern: _Kernel, k: float) -> None:
        a, b = kern.alpha, kern.beta
        ab = a + b
        self.kern = kern
        self.k = k
        if (closed := kern.closed_form(k)) is not None:
            self.kind = "closed"
            self.q, _, m0_weight, r_0 = closed
            self.r = [r_0] + [m0_weight * m for m in kern.m0[1:]]
            return
        # The series form of "Numerics", with scale = k / sinh k and D/k
        # integrated term by term from
        #   expm1(-k*t)/k = sum over i >= 1 of (-1)**i * k**(i-1) * t**i / i!.
        # A term count shared by every z cannot stop relative to F(z),
        # which is 0 at both endpoints. Dividing expm1(k) by k before
        # scaling by a keeps subnormal k exact.
        self.kind = "series"
        self.q = []
        scale = _k_lead(k) * math.exp(-abs(k))
        ab_s = ab * scale
        weights = [0.0, -ab_s]  # (a+b) * scale * (-1)**i * k**(i-1) / i!, by power i of t
        term, i = -1.0, 1  # (-1)**i * k**(i-1) / i!
        while abs(term * k) > 1e-30:
            i += 1
            term *= -k / i
            weights.append(ab_s * term)
        width = len(weights)
        conv = [0.0] * (width + len(kern.coeffs) - 1)
        for p, c in enumerate(kern.coeffs):
            conv[p : p + width] = [x + c * w for x, w in zip(conv[p : p + width], weights)]
        poly = [0.0] + [x / e for e, x in enumerate(conv, 1)]
        ratio_hi, ratio_lo = (math.expm1(k) / k, math.expm1(-k) / k) if k else (1.0, -1.0)
        m0_weight = scale * (a * ratio_hi + b * ratio_lo)
        for e, m in enumerate(kern.m0):
            poly[e] -= m0_weight * m
        self.r = _vanish_at_minus_one(poly)

    def big_f(self, z: float) -> float:
        """F(z; k)."""
        fz = _horner(self.r, z)
        if self.q:
            fz += math.exp(-self.k * z - abs(self.k)) * _horner(self.q, z)
        return fz

    def sample(self, grid_size: int) -> tuple[tuple[tuple[float, ...], ...], float]:
        """The `ProfileSample` columns on the uniform grid of [-1, 1], and max dg/dt.

        Each point costs u = exp(-k*z - |k|) and Horner sums of Q and R. As in
        `g_func` and `g_dt`, g and dg/dt are affine in w = u - 1 and u:

            g(z)     = g(e) + g_w * (w(z) - w(e))    e = -1 or 1, nearer to z
            dg/dt(z) = dg_u * u(z)                   dg_u = -(a+b) * k * lead

        with g(-1) = 2/m2, g(1) = -2/m1 (kept exact) and g_w = (a+b) * lead. w enters only
        through differences, so the closed form, which runs only where lead is moderate, uses
        u; the series uses expm1 for the digits of small |k|; k = 0 takes the limit w = z,
        g_w = -(a+b). F is R + u*Q in one `_horner_pass`. Theta = F/p is F at d_n = 0 and
        F/(1 + r*z) at d_n = 1, the bits of `**` (x**0 is 1.0; pow, within 0.52 ulp, returns x
        for x**1), else one pass like each other column; z < 0 (e = -1) on the first
        grid_size // 2 points. As dg_u < 0 and rounding is monotone, max dg/dt is dg_u * min(u).
        """
        k, kern = self.k, self.kern
        a, b, params = kern.alpha, kern.beta, kern.params
        ab = a + b
        zs = _grid(grid_size)
        nk, ak, exp = -k, abs(k), math.exp
        us = [exp(nk * z - ak) for z in zs]
        ws = (us if self.q else [math.expm1(nk * z - ak) for z in zs]) if k else zs
        g_w = ab * _lead(k) if k else -ab
        w_lo, w_hi = ws[0], ws[-1]
        fs = _horner_pass(len(self.r), len(self.q))(zs, us, *self.r, *self.q)
        r, d_n = params.r, float(params.d_n)
        g_lo, g_hi = 2.0 * b, -2.0 * a
        h0 = params.fano_index / params.n
        dg_u = -ab * _k_lead(k)
        half = grid_size // 2
        return tuple(map(tuple, (
            zs,
            fs,
            [f / (1.0 + r * z) ** d_n for z, f in zip(zs, fs)] if d_n > 1.0
            else [f / (1.0 + r * z) for z, f in zip(zs, fs)] if d_n else fs,
            [h0 - 0.5 * (g_lo + g_w * (w - w_lo)) for w in ws[:half]]
            + [h0 - 0.5 * (g_hi + g_w * (w - w_hi)) for w in ws[half:]],
            [-0.5 * (dg_u * u) for u in us],
        ))), dg_u * min(us)


def _solve_k(kern: _Kernel) -> SolveDiagnostics:
    tol = _TOL_REL * (kern.alpha + kern.beta) * kern.q_total
    lo, hi = -1.0, 1.0
    while (f_lo := kern.f(lo)) <= 0.0 and lo > -_K_CAP:
        lo *= 2.0
    while (f_hi := kern.f(hi)) >= 0.0 and hi < _K_CAP:
        hi *= 2.0
    if not math.inf > f_lo > 0.0 > f_hi > -math.inf:
        raise BracketFailureError(f"f has no finite sign change on the bracket [{lo}, {hi}]")
    bracket = (lo, hi)
    it = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        it += 1
        fm = kern.f(mid)
        if fm > 0.0:
            lo, f_lo = mid, fm
        elif fm < 0.0:
            hi, f_hi = mid, fm
        else:  # f(mid) is 0, or NaN, which the threshold below rejects
            lo = hi = mid
            f_lo = f_hi = fm
    k, fk = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    if not abs(fk) <= tol:
        raise BracketFailureError(f"the best root k = {k} has |f| = {abs(fk)} > {tol}")
    return SolveDiagnostics(k=k, residual=abs(fk), tolerance=tol,
                            bracket_lo=bracket[0], bracket_hi=bracket[1], iterations=it)


def solve_k(params: ProfileParams) -> float:
    """Unique root of f, by bracket doubling from [-1, 1] then bisection.

    The bisection runs until no double lies between the bracket's ends
    (or f is exactly 0) and returns the end with the smaller |f|.
    BracketFailureError is raised when that |f| exceeds the fixed threshold
    1e-12 * (1/m1 + 1/m2) * int(p), or when f has no finite sign change on
    [-2**1023, 2**1023]. Monotonicity of f keeps the invariant
    f(lo) > 0 > f(hi).
    """
    return _solve_k(_Kernel(params)).k


def _certify(kern: _Kernel, diag: SolveDiagnostics, kind: str,
             columns: tuple[tuple[float, ...], ...], max_g_dt: float) -> VerificationReport:
    """The report on `columns` sampled at the root `diag`; the one writer of `VerificationReport`.

    grid_size is the length of F's column, params and p(±1) come from `kern`, `kind` names F's form."""
    (m1, m2, d_n, r, n, fano), fs, k = kern.params, columns[1], diag.k
    # dg/dt = -(a+b) * k*lead * exp(-k*z - |k|) is negative wherever its log is finite, even where
    # the product underflows; the exponent is affine in z, so its extremes are at the endpoints.
    log_dg = math.log((kern.alpha + kern.beta) * _k_lead(k))
    return VerificationReport(
        grid_size=len(fs),
        root=diag,
        kernel=kind,
        endpoint_f_lo=abs(fs[0]),
        endpoint_f_hi=abs(fs[-1]),
        fprime_lo_residual=abs(g_func(-1.0, k, m1, m2) - 2.0 / m2) * (1.0 - r) ** d_n,
        fprime_hi_residual=abs(g_func(1.0, k, m1, m2) + 2.0 / m1) * (1.0 + r) ** d_n,
        interior_min_f=min(islice(fs, 1, len(fs) - 1)),
        max_g_dt=max_g_dt,
        g_monotone=all(math.isfinite(log_dg - k * z - abs(k)) for z in (-1.0, 1.0)),
        box_ok=ricci_box_holds(fano, n, m1, m2),
        box_first=fano * m2 - n,
        box_second=fano * m1 + n,
        ke_balance=kern.f(0.0),
        is_ke=abs(k) <= 1e-13 and abs(2.0 * r * (fano / n) - (1.0 + r) / m2 - (1.0 - r) / m1) <= 1e-12,
        synthetic_dimension=d_n == 0,
    )


def build_profile(params: ProfileParams, grid_size: int = DEFAULT_GRID) -> MetricProfile:
    """The profile in four stages: validate, solve for k, sample on a uniform grid, and certify.

    The grid covers [-1, 1] endpoints included. The profile stores its columns as sampled, and
    `_certify`, the one writer of the report, runs every check on them. Validation raises
    InvalidParameterError when grid_size is not an int in [3, 10**6], and when p or Theta = F/p
    leaves the double range on the grid, before the solve when p at -1 or 1 is 0 or too large.
    """
    if _require_int(grid_size, "grid_size", 3) > _GRID_MAX:
        raise InvalidParameterError(f"grid_size must be at most {_GRID_MAX}, got {grid_size}")
    d_n, r = params.d_n, params.r
    try:
        kern = _Kernel(params)
        if min((1.0 - r) ** d_n, (1.0 + r) ** d_n) == 0.0:
            raise ZeroDivisionError  # Theta = F/p divides by this p = 0 for every k
        diag = _solve_k(kern)
        root = _Root(kern, diag.k)
        columns, max_g_dt = root.sample(grid_size)
        representable = math.isfinite(sum(columns[2])) or all(map(math.isfinite, columns[2]))
    except (OverflowError, ZeroDivisionError):  # a binomial coefficient of p, or p itself
        representable = False
    if not representable:
        raise InvalidParameterError(f"d_n = {d_n}, r = {r}: p or Theta = F/p leaves the double range")
    return MetricProfile(params, columns, _certify(kern, diag, root.kind, columns, max_g_dt))


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
