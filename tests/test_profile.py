from __future__ import annotations

import ast
import dataclasses
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sascone import (
    BracketFailureError,
    InvalidParameterError,
    NotFanoError,
    ProductCaseError,
    ProfileParams,
    ProfileSample,
    ReebRay,
    VerificationReport,
    build_profile,
    g_dt,
    g_func,
    profile_params_from_ray,
    ricci_box_holds,
    solve_k,
    validate_join,
)
import sascone.profile
from sascone.emit import emit_csv
from sascone.profile import _K_CAP, _Kernel, _Root, _lead, _solve_k
from conftest import CP1, CP2, GENUS2
from oracles import F_exact, g_raw, quad_f, quad_profile_F, sample_columns, sign_changes

ASYM = ProfileParams(m1=3, m2=2, d_n=1, r=-0.5, n=-4, fano_index=2)
SYM = ProfileParams(m1=1, m2=1, d_n=0, r=0.5, n=1, fano_index=1)
MAX_INT_DOUBLE = int(sys.float_info.max)  # the largest ramification index ProfileParams accepts

# 30-digit evaluation of 4*(1 - coth(1)), the symmetric m1=m2=1, d_n=0 value
F_OF_ONE_SYMMETRIC = -1.2521411419973252


def _switch_point(kern):
    """The smallest k > 0 at which `_Root` runs the closed form, by bisection."""
    lo, hi = 0.0, 1.0
    while _Root(kern, hi).kind != "closed":
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _Root(kern, mid).kind == "closed":
            hi = mid
        else:
            lo = mid
    return hi


class TestTransitionFunction:
    @pytest.mark.parametrize("k", [0.0, 1e-12, 1e-6, 0.3, 1.0, -2.5, 17.0, -40.0, 300.0])
    def test_endpoint_values_for_every_k(self, k):
        assert g_func(-1.0, k, 3, 2) == pytest.approx(1.0, abs=1e-14)
        assert g_func(1.0, k, 3, 2) == pytest.approx(-2.0 / 3.0, abs=1e-14)

    def test_zero_at_origin_symmetric(self):
        assert g_func(0.0, 0.0, 1, 1) == 0.0

    def test_continuous_across_k_zero(self):
        for t in (-0.9, -0.2, 0.4, 0.8):
            for k in (1e-9, -1e-9):
                assert g_func(t, k, 4, 7) == pytest.approx(g_func(t, 0.0, 4, 7), abs=1e-8)

    @pytest.mark.parametrize("k", [1e-3, 0.2, 1.0, -4.0, 12.0])
    def test_matches_raw_formula(self, k):
        for t in (-1.0, -0.6, 0.0, 0.3, 1.0):
            assert g_func(t, k, 5, 2) == pytest.approx(g_raw(t, k, 5, 2), rel=1e-12, abs=1e-14)

    @given(
        t=st.floats(-1, 1, allow_nan=False),
        k=st.floats(-50, 50, allow_nan=False),
        m1=st.integers(1, 9),
        m2=st.integers(1, 9),
    )
    @settings(max_examples=400)
    def test_derivative_always_negative(self, t, k, m1, m2):
        assert g_dt(t, k, m1, m2) < 0.0

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for k in (0.0, 0.7, -3.0):
            for t in (-0.8, 0.1, 0.6):
                fd = (g_func(t + h, k, 3, 2) - g_func(t - h, k, 3, 2)) / (2 * h)
                assert g_dt(t, k, 3, 2) == pytest.approx(fd, rel=1e-7, abs=1e-9)


class TestRootFunction:
    def test_odd_integrand_vanishes_at_zero(self):
        assert _Kernel(SYM).f(0.0) == 0.0

    def test_symmetric_value_at_one(self):
        got = _Kernel(SYM).f(1.0)
        assert got == pytest.approx(F_OF_ONE_SYMMETRIC, abs=5e-15)
        assert got == pytest.approx(quad_f(1.0, 1, 1, 0.5, 0), abs=1e-12)

    def test_limit_signs(self):
        for params in (SYM, ASYM, ProfileParams(9, 1, 4, 0.9, 3, 1)):
            assert _Kernel(params).f(60.0) < 0.0
            assert _Kernel(params).f(-60.0) > 0.0

    def test_series_and_closed_form_agree_at_cutoff(self):
        for params in (ASYM, ProfileParams(7, 2, 3, -0.8, -5, 2)):
            kern = _Kernel(params)
            switch = _switch_point(kern)
            before = math.nextafter(switch, 0.0)
            assert (_Root(kern, before).kind, _Root(kern, switch).kind) == ("series", "closed")
            below = kern.f(before)
            at = kern.f(switch)
            assert below == pytest.approx(at, rel=1e-11)

    # k at both ends of the double range, in the series region near 0, moderate, and large
    F_KS = (5e-324, 1e-300, 1e-12, 1e-6, 1e-3, 0.05, 0.3, 1.0, 2.5, 13.0, 100.0, 700.0, 2.0**1023)
    NEAR_ONE = math.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("d_n", [*range(9), 40])
    def test_f_is_big_f_at_one_bit_for_bit(self, d_n):
        # _Kernel.f sums the closed form without building R; the sum must be `_horner`'s
        rng = random.Random(d_n)
        kinds = set()
        for m1, m2, r in ((1, 1, 0.5), (3, 2, -0.6), (10**300, 1, self.NEAR_ONE), (1, 10**300, -self.NEAR_ONE),
                          (7, 10**150, 0.999), (10**300, 10**300, -0.05)):
            kern = _Kernel(ProfileParams(m1, m2, d_n, r, 1 if r > 0 else -1, 1))
            ks = self.F_KS + tuple(10.0 ** rng.uniform(-12.0, 3.0) for _ in range(30))
            for k in (0.0, *ks, *(-k for k in ks)):
                root = _Root(kern, k)
                kinds.add(root.kind)
                assert kern.f(k).hex() == root.big_f(1.0).hex(), (m1, m2, r, k)
        assert kinds == {"closed", "series"}

    @given(
        m1=st.integers(1, 9),
        m2=st.integers(1, 9),
        d_n=st.integers(0, 4),
        rmag=st.floats(0.05, 0.95),
        kval=st.floats(-5, 5, allow_nan=False),
        pos=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_quadrature_agreement(self, m1, m2, d_n, rmag, kval, pos):
        r = rmag if pos else -rmag
        params = ProfileParams(m1=m1, m2=m2, d_n=d_n, r=r, n=1 if pos else -1, fano_index=1)
        ref = quad_f(kval, m1, m2, r, d_n)
        scale = (1.0 / m1 + 1.0 / m2) * (1.0 + abs(r)) ** d_n * 2.0
        assert abs(_Kernel(params).f(kval) - ref) <= 1e-10 * max(abs(ref), 1e-2 * scale)


class TestSolveK:
    @pytest.mark.parametrize("m", [1, 2, 7])
    @pytest.mark.parametrize("r", [0.5, -0.25])
    def test_symmetric_root_is_exactly_zero(self, m, r):
        params = ProfileParams(m1=m, m2=m, d_n=0, r=r, n=1 if r > 0 else -1, fano_index=1)
        assert solve_k(params) == 0.0

    def test_asymmetric_root(self):
        k = solve_k(ASYM)
        # int(p) = 2 for d_n = 1 at any r, so the stated tolerance is explicit
        f = _Kernel(ASYM).f
        assert abs(f(k)) <= 1e-12 * (1 / 3 + 1 / 2) * 2.0
        assert f(k - 1e-6) > 0.0 > f(k + 1e-6)

    def test_root_against_sign_scan(self):
        for params in (ASYM, ProfileParams(8, 3, 2, 0.7, 5, 2), ProfileParams(2, 9, 4, -0.6, -7, 3)):
            k = solve_k(params)
            ks = [k - 4.0 + 8.0 * i / 999 for i in range(1000)]
            vals = [_Kernel(params).f(kk) for kk in ks]
            changes = sign_changes(vals)
            assert len(changes) == 1
            idx = changes[0]
            assert ks[idx] <= k <= ks[idx] + 2 * (ks[1] - ks[0])

    def test_balanced_integral_gives_zero_root(self):
        # r = 3*(m1 - m2)/(m1 + m2) makes the k = 0 balance integral vanish for d_n = 1
        params = ProfileParams(m1=5, m2=4, d_n=1, r=3.0 * 1 / 9.0, n=1, fano_index=1)
        assert abs(solve_k(params)) <= 1e-10

    # at (1, MAX_INT_DOUBLE) the root k* is about -1.35e308, beyond the bracket cap 2**1023
    @pytest.mark.parametrize("m1, m2, r, n", [(1, MAX_INT_DOUBLE, 0.5, 1), (MAX_INT_DOUBLE, 1, -0.5, -1)])
    def test_bracket_stops_at_the_largest_power_of_two(self, m1, m2, r, n):
        params = ProfileParams(m1=m1, m2=m2, d_n=1, r=r, n=n, fano_index=2)
        for solve in (solve_k, build_profile):
            with pytest.raises(BracketFailureError, match="no finite sign change") as exc:
                solve(params)
            assert "inf" not in str(exc.value) and str(2.0**1023) in str(exc.value)

    @pytest.mark.parametrize(
        "m1, m2, r, n", [(1, 10**308, 0.5, 1), (3, MAX_INT_DOUBLE, 0.5, 1), (MAX_INT_DOUBLE, 3, -0.5, -1)]
    )
    def test_roots_inside_the_bracket_cap_certify(self, m1, m2, r, n):
        profile = build_profile(ProfileParams(m1=m1, m2=m2, d_n=1, r=r, n=n, fano_index=2), grid_size=5)
        assert 1e307 < abs(profile.k_root) < 2.0**1023
        assert profile.report.all_ok

    def test_lead_is_finite_at_the_bracket_cap(self):
        # 2*|k| overflows to inf at the cap, and expm1(-inf) = -1 keeps lead at its limit
        assert (_lead(_K_CAP), _lead(-_K_CAP)) == (2.0, -2.0)


    # ((m1, m2, d_n, r), k*.hex(), bisection steps) as the bisection lands them; n and the Fano
    # index do not enter f. Any change to where the solver lands shows here first.
    PINNED_ROOTS = [
        ((1, 9, 0, 0.404), "-0x1.3fdaa75d5a7e3p+2", 50),  # criterion-4 draws
        ((9, 5, 4, 0.585), "-0x1.cd7aada0831e0p-1", 49),
        ((2, 5, 3, -0.921), "0x1.1335f365a2b80p-1", 47),
        ((2, 6, 2, 0.562), "-0x1.ceced4e81d414p+1", 52),
        ((4, 2, 1, 0.538), "0x1.e8868a7fc7322p-2", 54),
        ((7, 2, 0, -0.065), "0x1.0dcf484ecd67fp+1", 54),
        ((3, 2, 1, -0.5), "0x1.26aee83b876a0p+0", 53),  # (4,1,1,1)/CP1, ray (3, 2)
        ((100, 1, 1, -0.5), "0x1.2da926ba83c0cp+6", 53),  # (1,1,7,1)/CP1, ray (100, 1)
        ((10000, 1, 1, -0.5), "0x1.d4c6aa9b21e39p+12", 53),  # (1,1,7,1)/CP1, ray (10000, 1)
        ((1000, 1, 2, -0.5), "0x1.03b551d41ba7ap+10", 53),  # (1,1,12,1)/CP2, ray (1000, 1)
        ((10000, 1, 2, -0.5), "0x1.4487e5b323d9fp+13", 53),  # (1,1,12,1)/CP2, ray (10000, 1)
        ((1, 1, 0, 0.5), "0x0.0p+0", 1),  # Kaehler-Einstein, f(0) = 0
        ((5, 4, 1, 1 / 3), "0x0.0p+0", 1),  # Kaehler-Einstein
        ((2, 1, 3, 0.3), "0x1.559b0934b0480p-3", 49),  # a series-form root
        ((100, 1, 30, -0.5), "0x1.026a764e17153p+10", 53),  # HIGH_DIMENSION_CASES of test_cli at cp30, cp40
        ((100, 1, 40, -0.5), "0x1.55bfcb388a793p+10", 53),
        ((6, 1, 30, 0.5), "-0x1.b3b6e75fe0edbp+0", 53),  # series form
        ((6, 1, 40, 0.5), "-0x1.262e7e442e980p+1", 53),  # series form, |f| is noise near the root
        ((3, 2, 30, -0.5), "0x1.f67325f810cc3p+3", 53),
        ((1, 1, 30, 0.5), "-0x1.500b01c612f6cp+3", 52),
    ]

    @pytest.mark.parametrize("params, k_hex, iterations", PINNED_ROOTS)
    def test_pinned_roots(self, params, k_hex, iterations):
        m1, m2, d_n, r = params
        diag = _solve_k(_Kernel(ProfileParams(m1, m2, d_n, r, 1 if r > 0 else -1, 1)))
        assert (diag.k.hex(), diag.iterations) == (k_hex, iterations)


class TestBuildProfile:
    def test_symmetric_profile_is_one_minus_z_squared(self):
        profile = build_profile(SYM, grid_size=2001)
        assert max(abs(s.f - (1.0 - s.z**2)) for s in profile.samples) <= 1e-13
        assert profile.k_root == 0.0
        assert profile.report.all_ok

    def test_scaled_symmetric_profile(self):
        profile = build_profile(ProfileParams(4, 4, 0, 0.5, 1, 1), grid_size=501)
        assert max(abs(4 * s.f - (1.0 - s.z**2)) for s in profile.samples) <= 1e-12

    def test_minimal_grid(self):
        profile = build_profile(SYM, grid_size=3)
        assert [s.z for s in profile.samples] == [-1.0, 0.0, 1.0]
        assert abs(profile.samples[0].f) <= 1e-12 and abs(profile.samples[-1].f) <= 1e-12

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            build_profile(SYM, grid_size=2)

    def test_grid_above_the_cap_is_rejected_before_the_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was solved or sampled")

        monkeypatch.setattr(sascone.profile, "_solve_k", refuse)
        monkeypatch.setattr(_Root, "sample", refuse)
        with pytest.raises(InvalidParameterError, match="at most 1000000, got 1000001"):
            build_profile(SYM, grid_size=10**6 + 1)

    def test_asymmetric_certificate(self):
        profile = build_profile(ASYM, grid_size=1001)
        rep = profile.report
        assert rep.endpoint_f_lo <= 1e-10 and rep.endpoint_f_hi <= 1e-10
        assert rep.fprime_lo_residual <= 1e-10 and rep.fprime_hi_residual <= 1e-10
        assert rep.interior_positive and rep.g_monotone
        assert rep.box_ok and rep.horizontal_positive and rep.vertical_positive
        assert rep.all_ok

    def test_profile_matches_quadrature(self):
        profile = build_profile(ASYM, grid_size=9)
        k = profile.k_root
        for s in profile.samples:
            ref = quad_profile_F(s.z, k, ASYM.m1, ASYM.m2, ASYM.r, ASYM.d_n)
            assert abs(s.f - ref) <= 1e-10 * max(abs(ref), 1e-2)

    def test_theta_is_f_over_weight(self):
        profile = build_profile(ASYM, grid_size=101)
        for s in profile.samples:
            assert s.theta == pytest.approx(s.f / (1.0 + ASYM.r * s.z) ** ASYM.d_n, rel=1e-14)

    def test_fprime_matches_g_times_weight_inside(self):
        profile = build_profile(ASYM, grid_size=5)
        k = profile.k_root
        h = 1e-6
        for s in profile.samples[1:-1]:
            big_f = _Root(_Kernel(ASYM), k).big_f
            fd = (big_f(s.z + h) - big_f(s.z - h)) / (2 * h)
            expected = g_func(s.z, k, ASYM.m1, ASYM.m2) * (1.0 + ASYM.r * s.z) ** ASYM.d_n
            assert fd == pytest.approx(expected, rel=1e-7, abs=1e-9)

    def test_kaehler_einstein_flags(self):
        assert build_profile(ProfileParams(5, 4, 1, 1 / 3, 10, 7), grid_size=21).report.is_ke
        assert build_profile(ProfileParams(1, 1, 0, 0.5, 1, 2), grid_size=21).report.is_ke
        assert not build_profile(ProfileParams(1, 1, 0, 0.5, 1, 1), grid_size=21).report.is_ke
        assert not build_profile(ASYM, grid_size=21).report.is_ke


class TestSampler:
    """The per-root sampler against per-point evaluation and quadrature."""

    BELOW, ABOVE = math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)
    KINDS = {0.0: "series", 1e-3: "series", BELOW: "closed", 0.5: "closed", ABOVE: "closed",
             300.0: "closed"}

    @staticmethod
    def _close(got, ref, scale):
        # criterion 4's tolerance
        return abs(got - ref) <= 1e-10 * max(abs(ref), 1e-2 * scale)

    @pytest.mark.parametrize("d_n", range(5))
    @pytest.mark.parametrize("k", list(KINDS))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_samples_match_pointwise_and_quadrature(self, d_n, k, sign):
        k = sign * k
        params = ProfileParams(m1=3, m2=2, d_n=d_n, r=-0.6, n=-4, fano_index=2)
        m1, m2, r, n = params.m1, params.m2, params.r, params.n
        scale = (1.0 / m1 + 1.0 / m2) * 2.0 * (1.0 + abs(r)) ** d_n
        root = _Root(_Kernel(params), k)
        assert root.kind == self.KINDS[abs(k)]
        grid = 101
        columns, max_g_dt = root.sample(grid)
        samples = list(map(ProfileSample._make, zip(*columns)))
        assert [s.z for s in samples] == [(2.0 * i) / (grid - 1) - 1.0 for i in range(grid)]
        for s in samples:
            f = root.big_f(s.z)
            assert self._close(s.f, f, scale)
            assert self._close(s.theta, f / (1.0 + r * s.z) ** d_n, scale)
            assert self._close(s.ricci_h, params.fano_index / n - 0.5 * g_func(s.z, k, m1, m2), scale)
            # ricci_v carries the certificate's sign, so it is compared
            # relatively, with no absolute floor
            assert self._close(s.ricci_v, -0.5 * g_dt(s.z, k, m1, m2), 0.0)
        assert max_g_dt == max(g_dt(s.z, k, m1, m2) for s in samples)
        for i in (0, 1, grid // 4, grid // 2, 3 * grid // 4, grid - 2, grid - 1):
            z = samples[i].z
            assert self._close(samples[i].f, quad_profile_F(z, k, m1, m2, r, d_n), scale)

    @pytest.mark.parametrize("d_n", range(9))  # both forms run at every d_n
    @pytest.mark.parametrize("k", [sign * k for k in KINDS for sign in (1.0, -1.0)])
    def test_sampled_f_is_big_f_bit_for_bit(self, d_n, k):
        params = ProfileParams(m1=3, m2=2, d_n=d_n, r=-0.6, n=-4, fano_index=2)
        root = _Root(_Kernel(params), k)
        for grid in (3, 4, 101):
            (zs, fs, *_), max_g_dt = root.sample(grid)
            assert [f.hex() for f in fs] == [root.big_f(z).hex() for z in zs]
            assert max_g_dt == max(g_dt(z, k, params.m1, params.m2) for z in zs)

    @pytest.mark.parametrize("d_n", [*range(9), 40, 63, 64, 65, 130])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_sample_is_the_column_oracle_bit_for_bit(self, d_n, sign):
        # d_n and the two forms give R and Q short Horner chains of every length; d_n = 63-65 put
        # the closed form's Q (d_n steps) and R (d_n + 1) on both sides of `_horner_pass`'s first
        # rebinding, after 64 steps, and d_n = 130 past its second; r = ±0.6 keeps p representable.
        # Grids 3-8 and 201 vary the list length and the split at grid // 2
        params = ProfileParams(m1=3, m2=2, d_n=d_n, r=0.6 * sign, n=4 * sign, fano_index=2)
        kern, kinds = _Kernel(params), set()
        for k in (0.0, 1e-3, -1e-3, 0.5, -0.5, 3.0, -3.0, 300.0, -300.0):
            root = _Root(kern, k)
            kinds.add(root.kind)
            for grid in (*range(3, 9), 201):
                (got, got_dg), (want, want_dg) = root.sample(grid), sample_columns(root, grid)
                assert [list(map(float.hex, col)) for col in got] == [list(map(float.hex, col)) for col in want]
                assert got_dg.hex() == want_dg.hex()
        assert kinds == {"series", "closed"}

    def test_generated_pass_is_keyed_by_shape_alone(self):
        # one compile per (len R, len Q) serves every draw and grid, and no value enters the source
        rng = random.Random(20261020)
        sascone.profile._horner_pass.cache_clear()
        shapes = set()
        for _ in range(60):
            m1, m2, d_n, sign = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 4), rng.choice((1, -1))
            params = ProfileParams(m1=m1, m2=m2, d_n=d_n, r=sign * rng.uniform(0.05, 0.95),
                                   n=sign * rng.randint(1, 12), fano_index=rng.randint(1, 4))
            for grid in (3, 201):
                root = _Root(_Kernel(params), build_profile(params, grid_size=grid).k_root)
                shapes.add((len(root.r), len(root.q)))
        assert {bool(q_count) for _, q_count in shapes} == {True, False}  # both forms ran
        info = sascone.profile._horner_pass.cache_info()
        assert info.currsize == info.misses == len(shapes) < info.maxsize
        for shape in shapes:
            tree = ast.parse(sascone.profile._horner_source(*shape))
            assert not [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
                        and isinstance(node.value, float)]

    def test_far_root_profile(self):
        params = ProfileParams(m1=600, m2=1, d_n=0, r=0.5, n=1, fano_index=1)
        profile = build_profile(params, grid_size=51)
        k = profile.k_root
        assert 290.0 < k < 310.0 and profile.report.kernel == "closed"
        scale = (1.0 / 600 + 1.0) * 2.0
        for s in profile.samples[::5]:
            assert self._close(s.f, _Root(_Kernel(params), k).big_f(s.z), scale)
            assert self._close(s.f, quad_profile_F(s.z, k, 600, 1, 0.5, 0), scale)
        assert profile.report.all_ok


class TestColumns:
    """The stored columns, the rows built from them, and the checks on them."""

    # series and closed kernels, each at both signs of n
    PARAMS = {
        ("series", 1): ProfileParams(m1=2, m2=1, d_n=3, r=0.3, n=2, fano_index=2),
        ("series", -1): ProfileParams(m1=1, m2=2, d_n=3, r=-0.3, n=-2, fano_index=2),
        ("closed", 1): ProfileParams(m1=600, m2=1, d_n=0, r=0.5, n=1, fano_index=1),
        ("closed", -1): ASYM,
    }

    def test_profiles_at_one_grid_size_share_its_z_column(self):
        a, b = (build_profile(params, grid_size=41) for params in (ASYM, SYM))
        assert a.columns[0] is b.columns[0]
        assert build_profile(ASYM, grid_size=43).columns[0] is not a.columns[0]

    @pytest.mark.parametrize("kind, sign", list(PARAMS))
    def test_samples_are_the_rows_of_the_columns(self, kind, sign):
        profile = build_profile(self.PARAMS[kind, sign], grid_size=41)
        assert profile.report.kernel == kind and profile.params.n * sign > 0
        assert all(type(col) is tuple and len(col) == 41 for col in profile.columns)
        assert len(profile.columns) == len(ProfileSample._fields)
        assert profile.samples == tuple(map(ProfileSample._make, zip(*profile.columns)))
        assert all(type(s) is ProfileSample for s in profile.samples)
        assert profile.samples is not profile.samples  # built on every read

    def test_csv_from_columns_equals_csv_from_rows(self):
        profile = build_profile(ASYM, grid_size=21)
        header = ("z", "F", "Theta", "ricci_h", "ricci_v")
        rows = ((s.z, s.f, s.theta, s.ricci_h, s.ricci_v) for s in profile.samples)
        assert emit_csv(header, zip(*profile.columns)) == emit_csv(header, rows)

    def test_build_constructs_no_rows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a ProfileSample was built")

        with monkeypatch.context() as patch:
            patch.setattr(ProfileSample, "_make", refuse)
            patch.setattr(ProfileSample, "__new__", refuse)
            profiles = [build_profile(p, grid_size=101) for p in self.PARAMS.values()]
        assert all(len(p.samples) == 101 for p in profiles)

    @given(
        st.integers(1, 9), st.integers(1, 9), st.integers(0, 4),
        st.floats(0.05, 0.95), st.integers(1, 12), st.integers(1, 4), st.sampled_from([1, -1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_horizontal_verdict_matches_rowwise_form(self, m1, m2, d_n, rmag, nmag, fano, sign):
        n = sign * nmag
        params = ProfileParams(m1=m1, m2=m2, d_n=d_n, r=sign * rmag, n=n, fano_index=fano)
        profile = build_profile(params, grid_size=21)
        assert profile.report.horizontal_positive == all(s.ricci_h * n > 0.0 for s in profile.samples)

    @pytest.mark.parametrize("params", [SYM, ASYM])  # box fails (I_N*m2 = n = 1) and holds (n = -4)
    @pytest.mark.parametrize(
        "column",
        [
            (1.0, 2.0, math.nan, 3.0, 1.0),
            (math.nan, math.inf, -math.inf, -math.inf, math.nan),  # sampled at k = 5e-324
            (math.inf, 1.0, 5e-324, 2.0, math.inf),
            (-math.inf, -1.0, -5e-324, -2.0, -math.inf),
            (1.0, 0.0, 2.0, 3.0, 4.0),
            (-1.0, -0.0, -2.0, -3.0, -4.0),
            (math.inf, 1.0, 1.0, 1.0, -math.inf),
            (1e308, 1e308, 1e308, -math.inf, 1.0),
            (-1e308, -1e308, -1e308, -1e308, -1.0),
        ],
    )
    def test_horizontal_verdict_ignores_the_sampled_column(self, params, column, monkeypatch):
        sample = _Root.sample

        def inject(root, grid_size):
            (zs, fs, thetas, _, ricci_v), dgs = sample(root, grid_size)
            return (zs, fs, thetas, tuple(column), ricci_v), dgs

        monkeypatch.setattr(_Root, "sample", inject)
        profile = build_profile(params, grid_size=5)
        box = ricci_box_holds(params.fano_index, params.n, params.m1, params.m2)
        assert profile.report.horizontal_positive == profile.report.box_ok == box
        assert profile.columns[3] == column  # written out as sampled, NaN included

    @pytest.mark.parametrize(
        "column, finite",
        [
            ((1.0, math.nan, 1.0, 1.0, 1.0), False),
            ((1.0, 1.0, 1.0, 1.0, math.inf), False),
            ((-math.inf, 1.0, 1.0, 1.0, 1.0), False),
            ((math.inf, -math.inf, 1.0, 1.0, 1.0), False),
            ((1.5e308, 1.5e308, math.nan, 1.0, 1.0), False),
            # finite cells whose sum overflows: the cell-by-cell scan decides
            ((1.5e308, 1.5e308, 1.0, 1.0, 1.0), True),
            ((-1.7e308, -1.7e308, 1.0, 1.7e308, 0.0), True),
            ((sys.float_info.max,) * 5, True),
        ],
    )
    def test_theta_column_is_representable_iff_every_cell_is_finite(self, column, finite, monkeypatch):
        sample = _Root.sample

        def inject(root, grid_size):
            (zs, fs, _, ricci_h, ricci_v), dgs = sample(root, grid_size)
            return (zs, fs, column, ricci_h, ricci_v), dgs

        monkeypatch.setattr(_Root, "sample", inject)
        if not finite:
            with pytest.raises(InvalidParameterError, match="p or Theta = F/p leaves the double range"):
                build_profile(ASYM, grid_size=5)
            return
        assert not math.isfinite(sum(column))
        assert build_profile(ASYM, grid_size=5).columns[2] == column

    # at d_n = 1026, r = 0.999 the solve itself would fail: f is not finite on [-1, 1]
    @pytest.mark.parametrize("d_n, r, n", [(600, 0.9, 4), (600, -0.9, -4), (1026, 0.999, 4)])
    def test_underflowing_weight_is_rejected_before_the_solve(self, d_n, r, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_solve_k was called")

        monkeypatch.setattr(sascone.profile, "_solve_k", refuse)
        params = ProfileParams(m1=3, m2=2, d_n=d_n, r=r, n=n, fano_index=2)
        assert (1.0 + r * -math.copysign(1.0, r)) ** d_n == 0.0
        with pytest.raises(InvalidParameterError, match=f"d_n = {d_n}, r = {r}: p or Theta"):
            build_profile(params)


class TestKernelAccuracy:
    """The kernel against the exact closed form over the positive range."""

    def test_against_exact_closed_form(self):
        rng = random.Random(2018)
        for _ in range(150):
            m1, m2 = (round(10 ** rng.uniform(0, 4)) for _ in range(2))
            d_n = rng.randint(0, 40)
            sign = rng.choice((1, -1))
            r = sign * rng.uniform(0.01, 0.99)
            params = ProfileParams(m1=m1, m2=m2, d_n=d_n, r=r, n=sign, fano_index=1)
            scale = (1.0 / m1 + 1.0 / m2) * 2.0 * (1.0 + abs(r)) ** d_n
            k = solve_k(params)
            # the solver's tolerance (at most 1e-12 * scale) plus the kernel's error
            assert abs(F_exact(1.0, k, m1, m2, r, d_n)) <= 2e-12 * scale
            k_any = math.copysign(10 ** rng.uniform(-3, 3), rng.uniform(-1, 1))
            for z, kk in ((-0.5, k), (0.5, k), (0.0, k_any)):
                assert abs(_Root(_Kernel(params), kk).big_f(z) - F_exact(z, kk, m1, m2, r, d_n)) <= 1e-12 * scale

    @pytest.mark.parametrize("w1, base, lower", [(7, CP1, 5), (12, CP2, 9)])
    def test_golden_half_lines_certify_out_to_1e4(self, w1, base, lower):
        # the third golden family, (4,1,1,1) over CP1, has no ray (v1, 1)
        # inside 1/2 < v1/v2 < 2 but its product case (1, 1)
        join = validate_join(1, 1, w1, 1, base)
        rays = {round(10 ** (i / 8)) for i in range(33)} | {600, 1000}
        for v1 in sorted(v for v in rays if v > lower and v != w1):
            params, _ = profile_params_from_ray(join, ReebRay(v1, 1))
            report = build_profile(params).report
            assert report.all_ok, (v1, report)


class TestProfileParamsValidation:
    def test_r_range(self):
        with pytest.raises(InvalidParameterError):
            ProfileParams(1, 1, 0, 1.5, 1, 1)
        with pytest.raises(InvalidParameterError):
            ProfileParams(1, 1, 0, 0.0, 1, 1)

    def test_r_sign_must_match_n(self):
        with pytest.raises(InvalidParameterError):
            ProfileParams(1, 1, 0, 0.5, -1, 1)

    def test_n_nonzero(self):
        with pytest.raises(InvalidParameterError):
            ProfileParams(1, 1, 0, 0.5, 0, 1)

    def test_d_n_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            ProfileParams(1, 1, -1, 0.5, 1, 1)

    @pytest.mark.parametrize("d_n, n", [(True, 1), (1.0, 1), (0, True), (0, 1.0), (0, -0.0)])
    def test_d_n_and_n_must_be_ints(self, d_n, n):
        with pytest.raises(InvalidParameterError):
            ProfileParams(1, 1, d_n, 0.5, n, 1)

    @pytest.mark.parametrize("name", ["m1", "m2"])
    def test_ramification_index_beyond_double_range_is_named(self, name):
        args = {"m1": 1, "m2": 1, "d_n": 1, "r": 0.5, "n": 1, "fano_index": 2}
        with pytest.raises(InvalidParameterError, match=f"^{name} lies beyond the double range"):
            ProfileParams(**{**args, name: 10**400})
        # float(m) overflows from 2**1024 - 2**970 on; the largest double itself is accepted
        with pytest.raises(InvalidParameterError, match=f"^{name} "):
            ProfileParams(**{**args, name: 2**1024 - 2**970})
        assert getattr(ProfileParams(**{**args, name: 2**1024 - 2**971}), name) == sys.float_info.max

    def test_fano_index_over_n_beyond_double_range_is_named(self):
        args = {"m1": 1, "m2": 1, "d_n": 1, "r": 0.5, "n": 1}
        for fano, n in ((10**400, 1), (10**400, -1), (2**1024 - 2**970, 1)):
            with pytest.raises(InvalidParameterError, match="^fano_index/n lies beyond the double range"):
                ProfileParams(**{**args, "r": math.copysign(0.5, n), "n": n, "fano_index": fano})
        # the quotient, not fano_index, must have a double; the largest double itself is accepted
        assert ProfileParams(**args, fano_index=10**400 // 10**100).fano_index == 10**300
        assert ProfileParams(**{**args, "n": 10**100}, fano_index=10**400).n == 10**100
        assert ProfileParams(**args, fano_index=2**1024 - 2**971).fano_index / 1 == sys.float_info.max

    @pytest.mark.parametrize("grid_size", [2, True, 3.0, None])
    def test_grid_size_is_an_int_of_at_least_three(self, grid_size):
        with pytest.raises(InvalidParameterError):
            build_profile(SYM, grid_size=grid_size)


class TestRicciBox:
    def test_worked_example(self):
        assert ricci_box_holds(2, -4, 3, 2)
        assert ricci_box_holds(ASYM.fano_index, ASYM.n, ASYM.m1, ASYM.m2)

    def test_nonpositive_index_never_passes(self):
        for fano in (0, -1, -5):
            for n in (-6, -1, 1, 6):
                for m1, m2 in ((1, 1), (3, 2), (9, 5)):
                    assert not ricci_box_holds(fano, n, m1, m2)

    @given(fano=st.integers(1, 6), n=st.integers(1, 40), m1=st.integers(1, 9), m2=st.integers(1, 9))
    def test_second_condition_automatic_for_positive_n(self, fano, n, m1, m2):
        assert ricci_box_holds(fano, n, m1, m2) == (fano * m2 > n)

    @given(fano=st.integers(1, 6), n=st.integers(-40, -1), m1=st.integers(1, 9), m2=st.integers(1, 9))
    def test_first_condition_automatic_for_negative_n(self, fano, n, m1, m2):
        assert ricci_box_holds(fano, n, m1, m2) == (fano * m1 > -n)


class TestRicciCoefficients:
    def test_endpoint_values_match_box_scalars(self):
        profile = build_profile(ASYM, grid_size=11)
        samples = profile.samples
        n, m1, m2, fano = ASYM.n, ASYM.m1, ASYM.m2, ASYM.fano_index
        assert samples[0].ricci_h == pytest.approx(fano / n - 1.0 / m2, abs=1e-14)
        assert samples[-1].ricci_h == pytest.approx(fano / n + 1.0 / m1, abs=1e-14)
        assert samples[0].ricci_h * n == pytest.approx(profile.report.box_first / m2, abs=1e-12)

    def test_center_value_for_flat_symmetric_case(self):
        profile = build_profile(ProfileParams(1, 1, 0, 0.5, 1, 1), grid_size=3)
        center = profile.samples[1]
        assert center.z == 0.0 and center.ricci_h == pytest.approx(1.0, abs=1e-15)

    def test_vertical_always_positive(self):
        for params in (SYM, ASYM, ProfileParams(9, 2, 4, 0.9, 7, 3)):
            profile = build_profile(params, grid_size=201)
            assert all(s.ricci_v > 0 for s in profile.samples)

    @pytest.mark.parametrize("source, flag", [("box_ok", "horizontal_positive"),
                                              ("g_monotone", "vertical_positive")])
    def test_coefficient_flag_follows_its_source(self, source, flag):
        report = build_profile(ASYM, grid_size=5).report
        assert report.box_ok and report.all_ok and getattr(report, flag)
        changed = dataclasses.replace(report, **{source: False})
        assert not getattr(changed, flag)
        # all_ok certifies the admissible profile; Ricci positivity is box_ok alone
        assert changed.all_ok == (source == "box_ok")

    def test_verdicts_are_derived_not_settable(self):
        derived = {f.name for f in dataclasses.fields(VerificationReport) if not f.init}
        assert derived == {"interior_positive", "horizontal_positive", "vertical_positive",
                           "endpoints_ok", "all_ok"}
        profile = build_profile(ASYM, grid_size=5)
        assert [f.name for f in dataclasses.fields(profile)] == ["params", "columns", "report"]
        assert profile.k_root == profile.report.root.k
        report = dataclasses.replace(profile.report, interior_min_f=0.0)
        assert not report.interior_positive and not report.all_ok

    @pytest.mark.parametrize("e", [53, 60, 1000])
    def test_horizontal_verdict_is_the_box_where_the_column_rounds_to_zero(self, e):
        # on the ray (2**e + 1, 2**e), I_N/n - 1/m2 is positive but rounds to 0.0 at z = -1
        params, _ = profile_params_from_ray(validate_join(1, 1, 3, 1, CP1), ReebRay(2**e + 1, 2**e))
        profile = build_profile(params)
        assert profile.columns[3][0] == 0.0
        assert profile.report.box_ok and profile.report.horizontal_positive and profile.report.all_ok


class TestLift:
    def test_params_from_ray(self):
        join = validate_join(4, 1, 1, 1, CP1)
        params, data = profile_params_from_ray(join, ReebRay(3, 2))
        assert (data.n, data.m1, data.m2) == (-4, 3, 2)
        assert params.r == -0.5 and params.d_n == 1 and params.fano_index == 2
        assert ricci_box_holds(params.fano_index, params.n, params.m1, params.m2)

    def test_params_from_ray_requires_fano(self):
        join = validate_join(1, 1, 12, 1, GENUS2)
        with pytest.raises(NotFanoError):
            profile_params_from_ray(join, ReebRay(2, 1))

    def test_params_from_ray_product_case(self):
        join = validate_join(4, 1, 1, 1, CP1)
        with pytest.raises(ProductCaseError):
            profile_params_from_ray(join, ReebRay(1, 1))

    def test_m_theta_independent_of_l2(self):
        # same ray and quotient, orbit multiples m = l2 = 1 and 3
        profiles = {}
        for l2 in (1, 3):
            params, data = profile_params_from_ray(validate_join(4, l2, 1, 1, CP1), ReebRay(3, 2))
            profiles[data.m] = build_profile(params, grid_size=101)
        assert sorted(profiles) == [1, 3]
        diff = max(abs(a.theta - 3.0 * b.theta)
                   for a, b in zip(profiles[1].samples, profiles[3].samples))
        assert diff <= 1e-9

    def test_bracket_failure_unreachable_in_range(self):
        # sanity guard: every admissible draw brackets within the cap
        for params in (SYM, ASYM, ProfileParams(9, 1, 4, 0.95, 2, 1), ProfileParams(1, 9, 4, -0.95, -2, 1)):
            try:
                solve_k(params)
            except BracketFailureError as exc:  # pragma: no cover
                pytest.fail(f"unexpected bracket failure: {exc}")
