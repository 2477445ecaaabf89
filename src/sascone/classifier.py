"""Type classification of rays in the w-cone.

With cone dimension above one, a ray is either positive or indefinite.
The positive subset, written in the ratio coordinate v1/v2, is an open
set computed exactly from (l1, l2, w1, w2) and the base's Fano index I_N.
Its finite bounds are unreduced (numerator, denominator) integer pairs,
with positive denominators:

* not Fano: empty (every ray indefinite);
* l2*I_N >= l1*w1: the whole cone (the equality case is included; the
  case split below then covers every Fano join and matches the known
  whole-cone families);
* l2*I_N < l1*w2: the open interval with lower bound
  (l1*w1 - l2*I_N, l1*w2) and upper bound (l1*w1, l1*w2 - l2*I_N);
* l1*w2 <= l2*I_N < l1*w1: the open half-line above
  (l1*w1 - l2*I_N, l1*w2).

`PositivityRange` holds them as `Fraction`s. `classify_ray` decides from
the pairs by strict cross-multiplication, so boundary rays classify as
indefinite, and independently of `quotient.orb_fano_predicate`.

A `JoinParams` has already checked its integers, so `positivity_range`
and `classify_ray` trust them; only `positivity_range_raw`, which takes
raw integers, checks that l1, l2, w1, w2 are positive ints with w1 >= w2
and that c1_coeff is an int.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .core import JoinParams, ReebRay, _require_int, _Validated
from .errors import InvalidParameterError, NonpositiveVolumeError
from .topology import c1_gamma_coeff_sphere_join


class RangeKind(str, enum.Enum):
    """Shape of the positive subset of the w-cone: empty, the whole cone, a half-line or an interval."""

    EMPTY = "empty"
    ENTIRE = "entire"
    HALF_LINE = "half_line"
    INTERVAL = "interval"


class TypeVerdict(str, enum.Enum):
    """Type of a ray in the w-cone: positive or indefinite."""

    POSITIVE = "positive"
    INDEFINITE = "indefinite"


# members bound once: reading `RangeKind.X` costs 0.1-0.2 µs (CPython 3.11), a global a few ns
_EMPTY, _ENTIRE, _HALF_LINE, _INTERVAL = RangeKind.EMPTY, RangeKind.ENTIRE, RangeKind.HALF_LINE, RangeKind.INTERVAL
_POSITIVE, _INDEFINITE = TypeVerdict.POSITIVE, TypeVerdict.INDEFINITE


class PositivityRange(_Validated, namedtuple("PositivityRange", "kind lower upper", defaults=(None, None))):
    """Positive subset of the w-cone in the open ratio coordinate v1/v2."""

    __slots__ = ()

    def __new__(
        cls, kind: RangeKind, lower: Fraction | None = None, upper: Fraction | None = None
    ) -> PositivityRange:
        lo, hi = lower, upper  # decided on integers: Fraction denominators are positive
        if kind is _INTERVAL:
            if lo is None or hi is None or not 0 <= lo.numerator * hi.denominator < hi.numerator * lo.denominator:
                raise InvalidParameterError(f"bad interval bounds ({lo}, {hi})")
        elif kind is _HALF_LINE:
            if lo is None or lo.numerator < 0 or hi is not None:
                raise InvalidParameterError(f"bad half-line bound {lo}")
        elif lo is not None or hi is not None:
            raise InvalidParameterError(f"{kind.value} range carries no bounds")
        return tuple.__new__(cls, (kind, lower, upper))

    def contains(self, ratio: Fraction) -> bool:
        """Strict membership of a positive ratio."""
        if self.kind is _EMPTY:
            return False
        if self.kind is _ENTIRE:
            return True
        if ratio <= self.lower:
            return False
        return self.kind is _HALF_LINE or ratio < self.upper

    def distance_to_boundary(self, ratio: Fraction) -> Fraction | None:
        """Exact distance from `ratio` to the nearest finite boundary, if any."""
        if self.kind is _EMPTY or self.kind is _ENTIRE:
            return None
        d = abs(ratio - self.lower)
        if self.kind is _INTERVAL:
            d = min(d, abs(self.upper - ratio))
        return d

    def as_text(self) -> str:
        if self.kind is _EMPTY:
            return "p+_w is empty"
        if self.kind is _ENTIRE:
            return "p+_w = t+_w"
        if self.kind is _HALF_LINE:
            return f"{self.lower} < v1/v2"
        return f"{self.lower} < v1/v2 < {self.upper}"


def _range_bounds(l1: int, l2: int, w1: int, w2: int, c1_coeff: int) -> tuple:
    """Kind, lower and upper bound of the range; a finite bound is an unreduced (num, den)."""
    shift, top, bottom = l2 * c1_coeff, l1 * w1, l1 * w2
    if c1_coeff <= 0:
        return _EMPTY, None, None
    if shift >= top:
        return _ENTIRE, None, None
    if shift < bottom:
        return _INTERVAL, (top - shift, bottom), (top, bottom - shift)
    return _HALF_LINE, (top - shift, bottom), None


def _as_range(kind: RangeKind, lower: tuple | None, upper: tuple | None) -> PositivityRange:
    """`_range_bounds`' output as a range, unchecked: its bounds meet `PositivityRange`'s checks by construction."""
    return tuple.__new__(PositivityRange, (
        kind, None if lower is None else Fraction(*lower), None if upper is None else Fraction(*upper)
    ))


def positivity_range_raw(l1: int, l2: int, w1: int, w2: int, c1_coeff: int) -> PositivityRange:
    """Positivity range from raw parameters, skipping join validation.

    Exists so classification formulas can be evaluated for parameter
    tables that include non-smooth (l, w) combinations; `validate_join`
    remains the gate for actual joins.
    """
    for name, value in (("l1", l1), ("l2", l2), ("w1", w1), ("w2", w2)):
        _require_int(value, name)
    if w1 < w2:
        raise InvalidParameterError(f"weights must satisfy w1 >= w2, got ({w1}, {w2})")
    _require_int(c1_coeff, "c1_coeff", None)
    return _as_range(*_range_bounds(l1, l2, w1, w2, c1_coeff))


def positivity_range(join: JoinParams) -> PositivityRange:
    """Exact positive subset of the w-cone of a validated join."""
    return _as_range(*_range_bounds(join.l1, join.l2, join.w1, join.w2, join.base.c1_coeff))


def classify_ray(join: JoinParams, ray: ReebRay) -> TypeVerdict:
    """Positive iff v1/v2 lies strictly inside the positivity range.

    The bounds' denominators are positive, so v1/v2 > a/b is v1*b > a*v2.
    """
    kind, lower, upper = _range_bounds(join.l1, join.l2, join.w1, join.w2, join.base.c1_coeff)
    if lower is None:
        return _POSITIVE if kind is _ENTIRE else _INDEFINITE
    v1, v2 = ray.v1, ray.v2
    if v1 * lower[1] > lower[0] * v2 and (upper is None or v1 * upper[1] < upper[0] * v2):
        return _POSITIVE
    return _INDEFINITE


class WholeConeReport(NamedTuple):
    """Whole-cone conclusions from the contact bundle's c1 coefficient.

    A zero coefficient forces an entirely positive cone, and so does a
    positive one; a negative coefficient decides nothing by itself (the
    cone may still be entirely positive). `entire` is the exact
    condition l2*I_N >= l1*w1 and `consistent` records agreement between
    the rules and the computed range.
    """

    c1_coeff: int
    c1_is_zero: bool
    c1_is_positive: bool
    entire: bool
    consistent: bool


def whole_cone_rules(join: JoinParams) -> WholeConeReport:
    """Raises `BaseMismatchError` unless the base is a projective space."""
    coeff = c1_gamma_coeff_sphere_join(join.base.dim_c, join)
    entire = join.l2 * join.base.c1_coeff >= join.l1 * join.w1
    forced = coeff >= 0
    consistent = (entire or not forced) and entire == (positivity_range(join).kind is _ENTIRE)
    return WholeConeReport(
        c1_coeff=coeff,
        c1_is_zero=coeff == 0,
        c1_is_positive=coeff > 0,
        entire=entire,
        consistent=consistent,
    )


def _frexp_pow(m: float, k: int) -> tuple[float, int]:
    """m**k as a (mantissa, exponent) pair for 1/2 <= m < 1.

    Powers are taken at most 1000 at a time, so no intermediate leaves
    the normal range of a double.
    """
    if k <= 1000:
        return math.frexp(m**k)
    c, ce = math.frexp(m**1000)
    q, r = divmod(k, 1000)
    hi, he = _frexp_pow(c, q)
    lo, le = math.frexp(m**r * hi)
    return lo, le + he + ce * q


def h1_signed(s_total: float, volume: float, n_half: int) -> float:
    """Signed Einstein-Hilbert value sign(S) * |S|^(n+1) / V^n.

    `s_total` and `volume` are user-supplied totals for a Sasaki manifold
    of dimension 2*n_half + 1; they are not computed here. Non-finite
    totals, and values beyond double precision, are invalid parameters.
    When |S|^(n+1) or V^n leaves the normal range, the powers are taken
    of the binary mantissas of S and V and the exponents are summed
    exactly, so every representable value is returned.
    """
    _require_int(n_half, "n_half")
    volume = float(volume)
    s_total = float(s_total)
    if not (math.isfinite(s_total) and math.isfinite(volume)):
        raise InvalidParameterError(f"s and volume must be finite, got s={s_total}, volume={volume}")
    if not volume > 0:
        raise NonpositiveVolumeError(f"volume must be positive, got {volume}")
    if s_total == 0.0:
        return 0.0
    # Plain powers first, for accuracy at large n: pow rounds each power once, where the
    # mantissa powers round once per 1000 factors (n = 5000, S and V within 1e-4 of 1:
    # at most 1.6 ulps, against 6.4 with mantissa powers alone).
    s_abs, scale = abs(s_total), 0
    try:
        num, den = s_abs ** (n_half + 1), volume**n_half
    except OverflowError:
        num = den = 0.0
    if min(num, den) < sys.float_info.min:
        m_s, e_s = math.frexp(s_abs)
        m_v, e_v = math.frexp(volume)
        num, e_num = _frexp_pow(m_s, n_half + 1)
        den, e_den = _frexp_pow(m_v, n_half)
        scale = e_num - e_den + e_s * (n_half + 1) - e_v * n_half
    try:
        value = math.ldexp(num / den, scale)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParameterError(
            f"h1 computation overflows double precision at s={s_total}, volume={volume}, n_half={n_half}"
        )
    return math.copysign(value, s_total)
