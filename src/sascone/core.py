"""Exact integer and rational domain types shared by every module.

All values are immutable and safe to share between threads. The
exact-layer records here and in `classifier`, `quotient` and `topology`,
the golden records of `goldens`, and `ProfileParams` and
`SolveDiagnostics` of `profile` are named tuples. Those that check
their fields do it in `__new__`, and `_make`, hence `_replace`, calls
it, as do pickling and copying. Records derived from checked ones skip
it: `positivity_range` and `quotient_data` build theirs with
`tuple.__new__`, as their formulas yield valid fields. As tuples they
compare equal to plain tuples of their fields, iterate and order.
Only `VerificationReport` and `MetricProfile` stay frozen dataclasses,
for `dataclasses.replace`: `VerificationReport` derives its verdicts on
construction, which `_replace` would not rerun. Rational arithmetic is
`fractions.Fraction`, which keeps numerator/denominator in canonical
form (gcd 1, positive denominator) by construction.

Conventions baked into the types:

* join weights are stored sorted, w1 >= w2;
* l1 and l2 are relatively prime, as are w1 and w2;
* the smoothness condition gcd(l2, l1*w1*w2) = 1 is enforced;
* Reeb rays (v1, v2) are coprime positive integers. An irregular ray is
  passed as a coprime rational approximant; the classification verdict
  is exact away from range boundaries, and the CLI can flag rays within
  a declared distance of a boundary.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Iterable

from .errors import (
    InvalidParameterError,
    NotCoprimeError,
    NotFanoError,
    SmoothnessViolationError,
)

_BASE_RE = re.compile(r"^(?:cp(?P<p>\d+)|sigma(?P<g>\d+)|custom:(?P<d>\d+):(?P<b>-?\d+))$")


def _require_int(value: object, name: str, low: int | None = 1) -> int:
    """`value` if it is an int, not a bool, and at least `low` (any int when `low` is None)."""
    # an exact int, the type of every valid call, skips both isinstance calls
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise InvalidParameterError(f"{name} must be an int, got {type(value).__name__}")
    if low is not None and value < low:
        raise InvalidParameterError(f"{name} must be an int >= {low}, got {value}")
    return value


class _Validated:
    """Mixin for a validating named tuple: `_make`, hence `_replace`, runs `__new__`."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class BaseManifold(_Validated, namedtuple("BaseManifold", "dim_c c1_coeff label", defaults=("",))):
    """Invariants of the regular quotient N of the first join factor.

    Only two numbers of N enter any formula here: its complex dimension
    `dim_c` and the coefficient `c1_coeff` of the primitive Kaehler class
    in the first Chern class (the Fano index when positive). A free-text
    label is carried along for reporting.
    """

    __slots__ = ()

    def __new__(cls, dim_c: int, c1_coeff: int, label: str = "") -> BaseManifold:
        _require_int(dim_c, "dim_c")
        _require_int(c1_coeff, "c1_coeff", None)
        return tuple.__new__(cls, (dim_c, c1_coeff, label))

    @property
    def is_fano(self) -> bool:
        return self.c1_coeff > 0

    @property
    def fano_index(self) -> int:
        if not self.is_fano:
            raise NotFanoError(f"base {self.label or self} has c1 coefficient {self.c1_coeff} <= 0")
        return self.c1_coeff

    @classmethod
    def projective_space(cls, p: int) -> "BaseManifold":
        """CP^p with the Fubini-Study class: dim_c = p, c1 coefficient p + 1."""
        _require_int(p, "p")
        return cls(dim_c=p, c1_coeff=p + 1, label=f"CP{p}")

    @classmethod
    def riemann_surface(cls, genus: int) -> "BaseManifold":
        """Closed surface of the given genus: dim_c = 1, c1 coefficient 2 - 2g."""
        _require_int(genus, "genus", 0)
        return cls(dim_c=1, c1_coeff=2 - 2 * genus, label=f"Sigma{genus}")


def parse_base(text: str) -> BaseManifold:
    """Parse a base string: ``cp<p>``, ``sigma<g>``, or ``custom:<dim_c>:<c1>``."""
    m = _BASE_RE.match(text.strip().lower())
    if m is None:
        raise InvalidParameterError(
            f"cannot parse base {text!r}; expected cp<p>, sigma<g>, or custom:<dim_c>:<c1>"
        )
    if m.group("p") is not None:
        return BaseManifold.projective_space(int(m.group("p")))
    if m.group("g") is not None:
        return BaseManifold.riemann_surface(int(m.group("g")))
    return BaseManifold(dim_c=int(m.group("d")), c1_coeff=int(m.group("b")), label=text.strip())


class JoinParams(_Validated, namedtuple("JoinParams", "base l1 l2 w1 w2")):
    """Parameters (l1, l2, w1, w2) of a weighted 3-sphere join over `base`.

    Use `validate_join` to build one from raw integers; it sorts the
    weights. Direct construction re-checks every invariant.
    """

    __slots__ = ()

    def __new__(cls, base: BaseManifold, l1: int, l2: int, w1: int, w2: int) -> JoinParams:
        # one inline test passes every valid exact int; any other value takes the full checks
        if not (type(l1) is int and l1 >= 1 and type(l2) is int and l2 >= 1
                and type(w1) is int and w1 >= 1 and type(w2) is int and w2 >= 1):
            for name, value in (("l1", l1), ("l2", l2), ("w1", w1), ("w2", w2)):
                _require_int(value, name)
        if w1 < w2:
            raise InvalidParameterError(f"weights must satisfy w1 >= w2, got ({w1}, {w2})")
        if gcd(l1, l2) != 1:
            raise NotCoprimeError("l1", l1, "l2", l2)
        if gcd(w1, w2) != 1:
            raise NotCoprimeError("w1", w1, "w2", w2)
        if gcd(l2, l1 * w1 * w2) != 1:
            raise SmoothnessViolationError(f"gcd(l2, l1*w1*w2) = gcd({l2}, {l1 * w1 * w2}) != 1")
        return tuple.__new__(cls, (base, l1, l2, w1, w2))


def validate_join(l1: int, l2: int, w1: int, w2: int, base: BaseManifold) -> JoinParams:
    """Canonicalize and validate raw join parameters.

    Weights given in ascending order are swapped silently (the CLI notes
    the swap). Idempotent: feeding back the fields of a valid JoinParams
    returns an equal JoinParams.
    """
    if not (type(w1) is int and w1 >= 1 and type(w2) is int and w2 >= 1):
        _require_int(w1, "w1")
        _require_int(w2, "w2")
    if w1 < w2:
        w1, w2 = w2, w1
    return JoinParams(base, l1, l2, w1, w2)


class ReebRay(_Validated, namedtuple("ReebRay", "v1 v2")):
    """A quasi-regular ray in the w-cone, selected by coprime (v1, v2)."""

    __slots__ = ()

    def __new__(cls, v1: int, v2: int) -> ReebRay:
        if not (type(v1) is int and v1 >= 1 and type(v2) is int and v2 >= 1):
            _require_int(v1, "v1")
            _require_int(v2, "v2")
        if gcd(v1, v2) != 1:
            raise NotCoprimeError("v1", v1, "v2", v2)
        return tuple.__new__(cls, (v1, v2))

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.v1, self.v2)
