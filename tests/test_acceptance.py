"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

from sascone import (
    BaseManifold,
    JoinParams,
    ProfileParams,
    RangeKind,
    ReebRay,
    b_invariant_wcone,
    bouquet_level_set,
    bouquet_label,
    build_profile,
    c1_gamma_coeff_sphere_join,
    orb_fano_predicate,
    positivity_range,
    positivity_range_raw,
    quotient_data,
    ricci_box_holds,
    torsion_order,
    validate_join,
)
from sascone.profile import _Kernel
from oracles import quad_f, quad_profile_F, sign_changes

CP1 = BaseManifold.projective_space(1)
CP2 = BaseManifold.projective_space(2)


def _report(num: int, desc: str, ok: bool, elapsed: float, limit: float | None = None) -> None:
    verdict = "PASS" if ok and (limit is None or elapsed < limit) else "FAIL"
    budget = f", limit {limit:g}s" if limit is not None else ""
    print(f"ACCEPTANCE {num} {verdict}: {desc} ({elapsed:.2f}s{budget})")
    assert ok, f"criterion {num} failed: {desc}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def _join(l1, l2, w1, w2, base=CP1):
    return validate_join(l1, l2, w1, w2, base)


def _corpus() -> list[JoinParams]:
    bases = [
        BaseManifold.riemann_surface(2),            # b0 = -2
        BaseManifold(dim_c=2, c1_coeff=1, label="b1"),
        CP1,                                        # b0 = 2
        CP2,                                        # b0 = 3
        BaseManifold.projective_space(3),           # b0 = 4
    ]
    joins = []
    for l1 in range(1, 11):
        for l2 in range(1, 11):
            if gcd(l1, l2) != 1:
                continue
            for w1 in range(1, 13):
                for w2 in range(1, w1 + 1):
                    if gcd(w1, w2) != 1 or gcd(l2, l1 * w1 * w2) != 1:
                        continue
                    for base in bases:
                        joins.append(JoinParams(base=base, l1=l1, l2=l2, w1=w1, w2=w2))
    return joins


def _coprime_rays(limit: int = 50) -> list[ReebRay]:
    return [
        ReebRay(v1, v2)
        for v1 in range(1, limit + 1)
        for v2 in range(1, limit + 1)
        if gcd(v1, v2) == 1
    ]


def test_criterion_1_positivity_range_goldens():
    t0 = time.perf_counter()
    checks = [
        (positivity_range(_join(4, 1, 1, 1)), RangeKind.INTERVAL, Fraction(1, 2), Fraction(2)),
        (positivity_range(_join(1, 1, 5, 3)), RangeKind.INTERVAL, Fraction(1), Fraction(5)),
        (positivity_range(_join(2, 1, 3, 1)), RangeKind.HALF_LINE, Fraction(2), None),
        (positivity_range(_join(1, 1, 7, 1)), RangeKind.HALF_LINE, Fraction(5), None),
        (positivity_range(_join(4, 3, 1, 1)), RangeKind.ENTIRE, None, None),
        (positivity_range(_join(1, 3, 7, 1)), RangeKind.HALF_LINE, Fraction(1), None),
        (positivity_range(_join(1, 1, 12, 1, CP2)), RangeKind.HALF_LINE, Fraction(9), None),
        (positivity_range_raw(1, 2, 12, 1, 3), RangeKind.HALF_LINE, Fraction(6), None),
        (positivity_range_raw(1, 3, 12, 1, 3), RangeKind.HALF_LINE, Fraction(3), None),
        (positivity_range_raw(1, 4, 12, 1, 3), RangeKind.ENTIRE, None, None),
        (positivity_range(_join(1, 5, 12, 1, CP2)), RangeKind.ENTIRE, None, None),
        (positivity_range(_join(1, 7, 12, 1, CP2)), RangeKind.ENTIRE, None, None),
        (positivity_range(_join(1, 1, 4, 3, CP2)), RangeKind.HALF_LINE, Fraction(1, 3), None),
        (positivity_range_raw(1, 2, 4, 3, 3), RangeKind.ENTIRE, None, None),
        (positivity_range(_join(1, 5, 4, 3, CP2)), RangeKind.ENTIRE, None, None),
    ]
    ok = all(
        rng.kind is kind and rng.lower == lo and rng.upper == hi
        for rng, kind, lo, hi in checks
    )
    _report(1, "positivity-range golden suite, exact rationals", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_invariant_tables():
    t0 = time.perf_counter()
    ok = True
    b_column = [
        b_invariant_wcone(_join(l1, 1, w1, w2))
        for l1, w1, w2 in ((4, 1, 1), (1, 5, 3), (2, 3, 1), (1, 7, 1))
    ]
    ok &= b_column == [4, 3, 2, 1]
    for l2 in (1, 5, 7, 11, 13, 25):
        ok &= c1_gamma_coeff_sphere_join(2, _join(1, l2, 12, 1, CP2)) == 3 * l2 - 13
        ok &= c1_gamma_coeff_sphere_join(2, _join(1, l2, 4, 3, CP2)) == 3 * l2 - 7
        ok &= c1_gamma_coeff_sphere_join(2, _join(2, l2, 3, 1, CP2)) == 3 * l2 - 8
    for l1, w1, w2 in ((1, 12, 1), (1, 4, 3), (2, 3, 1)):
        ok &= torsion_order(_join(l1, 1, w1, w2, CP2)) == 12
    ok &= all(bouquet_label(_join(l1, 1, w1, w2)).k == 4
              for l1, w1, w2 in ((4, 1, 1), (1, 5, 3), (2, 3, 1), (1, 7, 1)))
    ok &= bouquet_level_set(4, 1, 1) == {1, 2, 3, 4}
    _report(2, "invariant tables: B column, c1 family coefficients, torsion, bouquet", ok,
            time.perf_counter() - t0)


def test_criterion_3_predicate_range_equivalence():
    t0 = time.perf_counter()
    joins = _corpus()
    rays = _coprime_rays(50)
    pred = orb_fano_predicate
    mismatches = 0
    pairs = 0
    for join in joins:
        rng = positivity_range(join)
        kind = rng.kind
        if kind is RangeKind.EMPTY:
            for ray in rays:
                pairs += 1
                if pred(join, ray):
                    mismatches += 1
            continue
        if kind is RangeKind.ENTIRE:
            for ray in rays:
                pairs += 1
                if not pred(join, ray):
                    mismatches += 1
            continue
        ln, ld = rng.lower.numerator, rng.lower.denominator
        if kind is RangeKind.INTERVAL:
            un, ud = rng.upper.numerator, rng.upper.denominator
        else:
            un = ud = None
        for ray in rays:
            pairs += 1
            member = ray.v1 * ld > ln * ray.v2 and (un is None or ray.v1 * ud < un * ray.v2)
            if member != pred(join, ray):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and pairs == len(joins) * len(rays)
    _report(3, f"predicate vs range membership on {pairs} (join, ray) pairs", ok, elapsed, 30.0)


def test_criterion_4_profile_certification():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    failures: list[str] = []
    tuples = 0
    while tuples < 200:
        m1 = rng.randint(1, 9)
        m2 = rng.randint(1, 9)
        d_n = rng.randint(0, 4)
        sign = rng.choice((1, -1))
        r = sign * rng.uniform(0.05, 0.95)
        n = sign * rng.randint(1, 12)
        fano = rng.randint(1, 4)
        params = ProfileParams(m1=m1, m2=m2, d_n=d_n, r=r, n=n, fano_index=fano)
        tuples += 1
        profile = build_profile(params, grid_size=10_001)
        rep = profile.report
        k = profile.k_root

        if rep.endpoint_f_lo > 1e-10 or rep.endpoint_f_hi > 1e-10:
            failures.append(f"{params}: endpoint residuals {rep.endpoint_f_lo}, {rep.endpoint_f_hi}")
        if rep.fprime_lo_residual > 1e-10 or rep.fprime_hi_residual > 1e-10:
            failures.append(f"{params}: slope residuals")
        if not rep.interior_positive:
            failures.append(f"{params}: interior minimum {rep.interior_min_f}")
        if not rep.g_monotone:
            failures.append(f"{params}: max dg/dz {rep.max_g_dt}")

        ks = [k - 6.0 + 12.0 * i / 999 for i in range(1000)]
        f = _Kernel(params).f
        changes = sign_changes([f(kk) for kk in ks])
        if len(changes) != 1:
            failures.append(f"{params}: {len(changes)} sign changes of f")

        if tuples % 10 == 0:  # quadrature cross-check on a tenth of the draws
            scale = (1.0 / m1 + 1.0 / m2) * 2.0 * (1.0 + abs(r)) ** d_n
            for kk in (k - 1.0, k + 1.0):
                ref = quad_f(kk, m1, m2, r, d_n)
                if abs(f(kk) - ref) > 1e-10 * max(abs(ref), 1e-2 * scale):
                    failures.append(f"{params}: f({kk}) vs quadrature")
            for z in (-0.5, 0.5):
                ref = quad_profile_F(z, k, m1, m2, r, d_n)
                got = next(s.f for s in profile.samples if abs(s.z - z) < 1e-12)
                if abs(got - ref) > 1e-10 * max(abs(ref), 1e-2 * scale):
                    failures.append(f"{params}: F({z}) vs quadrature")
    elapsed = time.perf_counter() - t0
    ok = not failures
    if failures:
        print("\n".join(failures[:10]))
    _report(4, f"profile certification on {tuples} randomized parameter tuples", ok, elapsed, 60.0)


def test_criterion_5_symmetric_analytic_case():
    t0 = time.perf_counter()
    ok = True
    profile = build_profile(ProfileParams(1, 1, 0, 0.5, 1, 1), grid_size=10_001)
    ok &= abs(profile.k_root) <= 1e-14
    ok &= max(abs(s.f - (1.0 - s.z**2)) for s in profile.samples) <= 1e-12
    for m in (2, 5):
        scaled = build_profile(ProfileParams(m, m, 0, -0.5, -1, 1), grid_size=2001)
        ok &= abs(scaled.k_root) <= 1e-14
        ok &= max(abs(m * s.f - (1.0 - s.z**2)) for s in scaled.samples) <= 1e-12
    _report(5, "symmetric case: k = 0 exactly, F = 1 - z^2", ok, time.perf_counter() - t0)


def test_criterion_6_box_equals_orbifold_fano():
    t0 = time.perf_counter()
    joins = _corpus()
    rays = _coprime_rays(50)
    mismatches = 0
    checked = 0
    for join in joins:
        b0 = join.base.c1_coeff
        w1, w2 = join.w1, join.w2
        for ray in rays:
            if ray.v1 * w2 == ray.v2 * w1:
                continue  # n = 0, product case
            data = quotient_data(join, ray)
            checked += 1
            if ricci_box_holds(b0, data.n, data.m1, data.m2) != orb_fano_predicate(join, ray):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and checked > 0
    _report(6, f"box conditions vs orbifold Fano predicate on {checked} pairs with n != 0",
            ok, elapsed)


def test_criterion_7_lift_doubling():
    t0 = time.perf_counter()
    rng = random.Random(77)
    worst = 0.0
    for _ in range(50):
        m1 = rng.randint(1, 9)
        m2 = rng.randint(1, 9)
        d_n = rng.randint(0, 4)
        sign = rng.choice((1, -1))
        r = sign * rng.uniform(0.05, 0.95)
        n = sign * rng.randint(1, 9)
        params = ProfileParams(m1=m1, m2=m2, d_n=d_n, r=r, n=n, fano_index=rng.randint(1, 4))
        doubled = ProfileParams(m1=2 * m1, m2=2 * m2, d_n=d_n, r=r, n=n,
                                fano_index=params.fano_index)
        a = build_profile(params, grid_size=201)
        b = build_profile(doubled, grid_size=201)
        worst = max(
            worst,
            max(abs(sa.theta - 2.0 * sb.theta) for sa, sb in zip(a.samples, b.samples)),
        )
    ok = worst <= 1e-12
    _report(7, f"m*Theta invariant under ramification doubling, sup diff {worst:.2e}",
            ok, time.perf_counter() - t0)
