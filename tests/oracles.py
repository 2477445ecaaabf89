"""Independent numerical oracles for the test suite.

The quadrature oracle integrates the raw textbook form of the transition
function (evaluated in 30-digit arithmetic, so it is independent of both
the library's stabilized rewrite and its closed-form antiderivatives)
with scipy's adaptive quadrature. The exact oracle evaluates the closed
form of the profile in high-precision arithmetic, so it reaches the far
and high-degree cases that quadrature cannot resolve. The sign-scan
oracle brackets roots the dumb way, by walking a fine grid. The
reference root function and JSON writer are the library's earlier
implementations, kept as they were, which the current ones must match
bit for bit and byte for byte.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

import mpmath
from scipy.integrate import IntegrationWarning, quad

from sascone.profile import _Root, _lead

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


def horner_grid(coeffs: list[float], zs: list[float]) -> list[float]:
    """Horner's rule at each point of `zs`, two steps per list pass after an odd lone one."""
    desc = iter(coeffs[::-1])
    acc = [next(desc)] * len(zs)
    if len(coeffs) % 2 == 0:
        hi = next(desc)
        acc = [x * z + hi for x, z in zip(acc, zs)]
    for hi, lo in zip(desc, desc):
        acc = [(x * z + hi) * z + lo for x, z in zip(acc, zs)]
    return acc


def sample_columns(root, grid_size: int) -> tuple[tuple[tuple[float, ...], ...], float]:
    """The columns and max dg/dt of `root.sample(grid_size)`, one list pass per formula.

    This is the sampler written column by column: F = R + u*Q, Theta = F / p
    with p computed by `**`, and the two affine forms of ricci_h and ricci_v.
    Any rewrite of the sampler must reproduce it bit for bit.
    """
    k, kern = root.k, root.kern
    a, b, params = kern.alpha, kern.beta, kern.params
    ab = a + b
    two_k = -math.expm1(-2.0 * abs(k))
    lead, k_lead = (math.copysign(2.0 / two_k, k), 2.0 * abs(k) / two_k) if k else (None, 1.0)
    zs = [i / (grid_size - 1) - 1.0 for i in range(0, 2 * grid_size - 1, 2)]
    us = [math.exp(-k * z - abs(k)) for z in zs]
    ws = (us if root.q else [math.expm1(-k * z - abs(k)) for z in zs]) if k else zs
    g_w = ab * lead if k else -ab
    fs = horner_grid(root.r, zs)
    if root.q:
        fs = [f + u * q for f, u, q in zip(fs, us, horner_grid(root.q, zs))]
    h0 = params.fano_index / params.n
    dg_u = -ab * k_lead
    half = grid_size // 2
    return tuple(map(tuple, (
        zs,
        fs,
        [f / (1.0 + params.r * z) ** params.d_n for z, f in zip(zs, fs)],
        [h0 - 0.5 * (2.0 * b + g_w * (w - ws[0])) for w in ws[:half]]
        + [h0 - 0.5 * (-2.0 * a + g_w * (w - ws[-1])) for w in ws[half:]],
        [-0.5 * (dg_u * u) for u in us],
    ))), dg_u * min(us)


def kernel_f(kern, k: float) -> float:
    """f(k) = F(1; k) as the library summed it in two passes: Q's recursion, then R(1) on its own.

    Q's recursion runs top power first, Q is reversed to sum |Q_j| in ascending order, and R(1) is
    summed from M_0's top coefficient down, each as `_horner` would; the series builds a `_Root`."""
    q_steps = tuple((float(e + 1), kern.coeffs[e]) for e in range(kern.params.d_n, -1, -1))
    if not k:
        return _Root(kern, k).big_f(1.0)
    a, b, lead = kern.alpha, kern.beta, _lead(k)
    q_weight = -(a + b) * lead
    q, nxt, q_lo, q_hi = [], 0.0, 0.0, 0.0
    for e, c in q_steps:
        nxt = (q_weight * c + e * nxt) / k
        q.append(nxt)
        q_lo = nxt - q_lo
        q_hi += nxt
    q.reverse()
    if not sum(map(abs, q)) <= kern.bound:
        return _Root(kern, k).big_f(1.0)
    u_lo = math.exp(k - abs(k))
    m0_weight = -lead * (a * u_lo + b * math.exp(-k - abs(k)))
    r_0 = m0_weight * kern.m0[0] - u_lo * q_lo
    r_hi = 0.0
    for m in kern.m0[:0:-1]:
        r_hi += m0_weight * m
    return (r_hi + r_0) + math.exp(-k - abs(k)) * q_hi


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot emit non-finite float {x!r}")
    return format(x, ".17g")


def to_jsonable(obj: Any) -> Any:
    """A record normalised into plain JSON values, the first half of the reference JSON writer."""
    if isinstance(obj, float) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj if -(2**63) <= obj <= 2**63 - 1 else str(obj)
    if isinstance(obj, str):
        return obj.value if isinstance(obj, Enum) else obj
    if isinstance(obj, Fraction):
        return str(obj)
    fields = getattr(type(obj), "__dataclass_fields__", None) or getattr(type(obj), "_fields", None)
    if fields is not None:
        return {name: to_jsonable(getattr(obj, name)) for name in fields}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(value: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, float):
        out.append(_format_float(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _write(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(value)
        for i, key in enumerate(keys):
            out.append(pad + "  " + encode_basestring_ascii(str(key)) + ": ")
            _write(value[key], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_json(record: Any) -> str:
    """The reference JSON text of a record: `to_jsonable`, then a walk over the plain values."""
    out: list[str] = []
    _write(to_jsonable(record), out, 0)
    out.append("\n")
    return "".join(out)
