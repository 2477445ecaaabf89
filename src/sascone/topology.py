"""Integer topological and contact invariants of a weighted join.

Everything here is exact integer arithmetic on validated `JoinParams`.
The (k, j, l) bouquet labeling applies to the 5-dimensional setting
(3-sphere bundles over the 2-sphere); for other bases the CLI reports it
as not applicable rather than emitting misleading labels.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .core import JoinParams, _require_int
from .errors import BaseMismatchError, InvalidParameterError, NotFanoError, OddTotalError

_MAX_BOUQUET_K = 10**6  # the level sets list every j in 1..k: at this k, about 2 s and 14 MB of JSON


class BouquetLabel(NamedTuple):
    """Contact-bundle label (k, j, l) together with i = gcd(l, 2(k - j))."""

    k: int
    j: int
    l: int
    i: int


def _require_projective_base(p: int, join: JoinParams) -> None:
    _require_int(p, "p")
    base = join.base
    if base.dim_c != p or base.c1_coeff != p + 1:
        raise BaseMismatchError(
            f"base (dim_c={base.dim_c}, c1_coeff={base.c1_coeff}) is not CP{p}"
        )


def c1_gamma_coeff_sphere_join(p: int, join: JoinParams) -> int:
    """Coefficient of the contact bundle's first Chern class on a sphere join.

    For the join of the (2p+1)-sphere with the weighted 3-sphere the class
    is (l2*(p+1) - l1*(w1+w2)) times the positive generator.
    """
    _require_projective_base(p, join)
    return join.l2 * (p + 1) - join.l1 * (join.w1 + join.w2)


def spin_check(p: int, join: JoinParams) -> bool:
    """True iff the second Stiefel-Whitney class vanishes (even c1 coefficient)."""
    return c1_gamma_coeff_sphere_join(p, join) % 2 == 0


def torsion_order(join: JoinParams) -> int:
    """Order w1*w2*l1^2 of the torsion in degree-4 integral cohomology.

    The product is well defined for every join; its topological meaning
    requires base complex dimension > 1, which callers flag separately.
    """
    return join.w1 * join.w2 * join.l1**2


def bouquet_label(join: JoinParams) -> BouquetLabel:
    """Relabel (l1, l2, w) as (k, j, l): 2k = l1*(w1+w2), j = l1*w2, l = l2."""
    total = join.l1 * (join.w1 + join.w2)
    if total % 2 != 0:
        raise OddTotalError(f"l1*(w1+w2) = {total} is odd; (k, j, l) labels are undefined")
    k = total // 2
    j = join.l1 * join.w2
    l = join.l2
    return BouquetLabel(k=k, j=j, l=l, i=gcd(l, 2 * (k - j)))


def bouquet_level_set(k: int, l: int, i: int) -> set[int]:
    """Level set {j in 1..k : gcd(l, 2(k-j)) = i} of the bouquet map."""
    partition = bouquet_partition(k, l)
    _require_int(i, "i")
    return partition.get(i, set())


def bouquet_partition(k: int, l: int) -> dict[int, set[int]]:
    """Partition of 1..k by the bouquet map j -> gcd(l, 2(k-j)), for k up to 10**6."""
    if _require_int(k, "k") > _MAX_BOUQUET_K:
        raise InvalidParameterError(f"k must be an int <= {_MAX_BOUQUET_K}, got {k}")
    _require_int(l, "l")
    out: dict[int, set[int]] = {}
    for j in range(1, k + 1):
        out.setdefault(gcd(l, 2 * (k - j)), set()).add(j)
    return out


def b_invariant_wcone(join: JoinParams) -> int:
    """The positivity bound B restricted to the w-cone: l1*w2 for Fano base."""
    if not join.base.is_fano:
        raise NotFanoError(f"B is defined on the w-cone only for Fano bases, got {join.base}")
    return join.l1 * join.w2
