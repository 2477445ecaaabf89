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

`PositivityRange` holds them as `Fraction`s built by `core._lowest_terms`
(one gcd, no constructor: 0.25 µs a bound against 0.55 µs). `classify_ray`
decides from the pairs by strict cross-multiplication, so boundary rays
classify as indefinite, and independently of `quotient.orb_fano_predicate`.

A `JoinParams` has already checked its integers, so `positivity_range`
and `classify_ray` trust them; only `positivity_range_raw`, which takes
raw integers, checks that l1, l2, w1, w2 are positive ints with w1 >= w2
and that c1_coeff is an int.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from numbers import Real
from typing import NamedTuple

from .core import JoinParams, ReebRay, _lowest_terms, _require_int, _Validated
from .errors import InvalidParameterError, NonpositiveVolumeError


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
        kind, None if lower is None else _lowest_terms(*lower), None if upper is None else _lowest_terms(*upper)
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
    from .topology import c1_gamma_coeff_sphere_join  # here, its one user, so classify skips topology
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


_MAX_N_HALF = 10**4  # the exact powers grow with n: at this n, 30-50 ms with S and V near 1, 0.5 s at most


def h1_signed(s_total: float, volume: float, n_half: int) -> float:
    """Signed Einstein-Hilbert value sign(S) * |S|^(n+1) / V^n, correctly rounded.

    `s_total` and `volume` are user-supplied totals for a Sasaki manifold
    of dimension 2*n_half + 1; they are not computed here. They must be
    real numbers in the double range and finite, with a positive volume,
    and n_half is an int from 1 to 10**4, checked before any power. As
    doubles, |S| = ms/es and V = mv/ev are exact ratios of ints, so the
    value is one int true division, which rounds once, into the subnormal
    range too. A value beyond double precision is an invalid parameter.
    The bit lengths of ms, es, mv and ev decide a quotient far outside the
    double range, overflow or 0, before any power is taken.
    """
    if _require_int(n_half, "n_half") > _MAX_N_HALF:
        raise InvalidParameterError(f"n_half must be an int <= {_MAX_N_HALF}")
    for name, value in (("s", s_total), ("volume", volume)):
        if not isinstance(value, Real):
            raise InvalidParameterError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        s_total, volume = float(s_total), float(volume)
    except OverflowError:
        raise InvalidParameterError("s and volume must lie in the double range") from None
    if not (math.isfinite(s_total) and math.isfinite(volume)):
        raise InvalidParameterError(f"s and volume must be finite, got s={s_total}, volume={volume}")
    if not volume > 0:
        raise NonpositiveVolumeError(f"volume must be positive, got {volume}")
    if s_total == 0.0:  # 0, not -0, for S = -0
        return 0.0
    n, (ms, es), (mv, ev) = n_half, abs(s_total).as_integer_ratio(), volume.as_integer_ratio()
    # each x has 2**(b-1) <= x < 2**b for b = x.bit_length(), so log2 of the value is within 2n+1 of mid
    mid = (n + 1) * (ms.bit_length() - es.bit_length()) + n * (ev.bit_length() - mv.bit_length())
    if mid + 2 * n + 1 < -1075:  # below half the least subnormal
        return math.copysign(0.0, s_total)
    try:
        if mid - 2 * n - 1 >= 1024:
            raise OverflowError
        value = ms ** (n + 1) * ev**n / (mv**n * es ** (n + 1))
    except OverflowError:
        raise InvalidParameterError(
            f"h1 computation overflows double precision at s={s_total}, volume={volume}, n_half={n_half}"
        ) from None
    return math.copysign(value, s_total)
