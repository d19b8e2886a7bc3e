"""Rotation, shift invariance, precision injection, and theta planning.

Shift-invariance tolerance is 1e-5 relative: everything here runs in
float64, where the observed drift is below 1e-8, so 1e-5 leaves three
orders of magnitude of headroom while still catching any single-precision
regression in the angle pipeline.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longctx.rope import (
    MAX_HEAD_DIM,
    BOUND_SLACK,
    RopeConfig,
    ThetaClass,
    inverse_frequencies,
    plan_theta,
    relative_score,
    rotate,
    rotation_report,
    theta_lower_bound,
)
from longctx.softnum import PrecisionMode, round_trip


def cfg(theta=10000.0, d=8, L=1 << 20, precision=PrecisionMode.FULL32):
    return RopeConfig(theta_base=theta, head_dim=d, max_position=L, precision=precision)


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestConfig:
    def test_rejects_odd_head_dim(self):
        with pytest.raises(ValueError):
            cfg(d=7)

    def test_rejects_theta_at_most_one(self):
        with pytest.raises(ValueError):
            cfg(theta=1.0)

    @pytest.mark.parametrize("theta", [float("inf"), float("nan")])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match="finite"):
            cfg(theta=theta)

    def test_rejects_nonpositive_max_position(self):
        with pytest.raises(ValueError):
            RopeConfig(theta_base=10.0, head_dim=2, max_position=0)

    def test_head_dim_bound(self):
        assert cfg(d=MAX_HEAD_DIM).head_dim == MAX_HEAD_DIM
        with pytest.raises(ValueError, match=f"MAX_HEAD_DIM={MAX_HEAD_DIM}"):
            cfg(d=MAX_HEAD_DIM + 2)


class TestInverseFrequencies:
    def test_first_element_is_one(self):
        for theta in (2.0, 1e4, 75e6):
            assert inverse_frequencies(cfg(theta=theta))[0] == 1.0

    def test_hand_checkable_value(self):
        # d=4, theta=10000: second rung is 10000**(-1/2) = 0.01.
        freqs = inverse_frequencies(cfg(theta=1e4, d=4))
        assert freqs[1] == pytest.approx(0.01, rel=1e-12)

    def test_highest_rung_against_high_precision_oracle(self):
        freqs = inverse_frequencies(cfg(theta=75e6, d=128))
        with mpmath.workdps(50):
            want = mpmath.power(mpmath.mpf(75_000_000), mpmath.mpf(-126) / 128)
            assert freqs[63] == pytest.approx(float(want), rel=1e-13)

    def test_monotonically_decreasing(self):
        freqs = inverse_frequencies(cfg(theta=75e6, d=128))
        assert np.all(np.diff(freqs) < 0)


class TestRotate:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(8)
        assert np.allclose(rotate(v, 0, cfg()), v, rtol=0, atol=0)

    def test_single_pair_is_plain_rotation(self):
        c = cfg(theta=123.0, d=2)
        for p in (1, 2, 17, 1000):
            out = rotate(np.array([1.0, 0.0]), p, c)
            assert out == pytest.approx([math.cos(p), math.sin(p)], rel=1e-12)

    def test_preserves_pair_norms(self):
        rng = np.random.default_rng(5)
        c = cfg(theta=1e4, d=64)
        for _ in range(20):
            v = rng.standard_normal(64)
            out = rotate(v, int(rng.integers(0, c.max_position)), c)
            before = np.hypot(v[0::2], v[1::2])
            after = np.hypot(out[0::2], out[1::2])
            assert np.allclose(after, before, rtol=1e-6)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rotate(np.zeros(6), 1, cfg(d=8))

    def test_position_out_of_range_rejected(self):
        c = cfg(L=100)
        with pytest.raises(ValueError):
            rotate(np.zeros(8), 100, c)

    def test_reduced16_collides_257_with_256(self):
        c = cfg(theta=75e6, d=64, precision=PrecisionMode.REDUCED16)
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(64)
            assert np.array_equal(rotate(v, 257, c), rotate(v, 256, c))

    def test_reduced16_constant_on_collision_classes(self):
        # All integers that round to the same 16-bit value rotate identically.
        # 16256 = (1 + 126/128) * 2**13 is a grid point in a binade with step
        # 64; its even mantissa also wins both ties at the half-step edges.
        c = cfg(theta=1e4, d=16, precision=PrecisionMode.REDUCED16)
        v = np.random.default_rng(4).standard_normal(16)
        base = rotate(v, 16256, c)
        for p in range(16256 - 32, 16256 + 33):
            assert round_trip(float(p)) == 16256.0
            assert np.array_equal(rotate(v, p, c), base)

    def test_full32_separates_nearby_large_positions(self):
        c = cfg(theta=75e6, d=64, precision=PrecisionMode.FULL32)
        v = np.random.default_rng(6).standard_normal(64)
        assert not np.array_equal(rotate(v, 300000, c), rotate(v, 300001, c))


class TestRelativeScore:
    def test_equal_positions_give_plain_dot(self):
        rng = np.random.default_rng(8)
        q, k = rng.standard_normal(16), rng.standard_normal(16)
        c = cfg(d=16)
        assert relative_score(q, k, 42, 42, c) == pytest.approx(float(q @ k), rel=1e-9)

    def test_shift_invariance_small_example(self):
        rng = np.random.default_rng(9)
        q, k = rng.standard_normal(16), rng.standard_normal(16)
        c = cfg(d=16)
        a = relative_score(q, k, 5, 3, c)
        b = relative_score(q, k, 105, 103, c)
        assert b == pytest.approx(a, rel=1e-5)

    def test_shift_invariance_random_sweep(self):
        rng = np.random.default_rng(10)
        c = cfg(theta=75e6, d=64, L=1 << 21)
        for _ in range(100):
            q, k = rng.standard_normal(64), rng.standard_normal(64)
            m = int(rng.integers(0, 1 << 20))
            n = int(rng.integers(0, 1 << 20))
            s = int(rng.integers(0, 1 << 20))
            a = relative_score(q, k, m, n, c)
            b = relative_score(q, k, m + s, n + s, c)
            assert abs(a - b) <= 1e-5 * max(abs(a), abs(b), 1e-9)

    def test_reduced16_breaks_shift_invariance_at_large_positions(self):
        # Frozen search result: position ~300K under 16-bit rounding.
        c = cfg(theta=75e6, d=128, precision=PrecisionMode.REDUCED16)
        rng = np.random.default_rng(2)
        q, k = rng.standard_normal(128), rng.standard_normal(128)
        m, n, s = 300017, 299000, 12345
        a = relative_score(q, k, m, n, c)
        b = relative_score(q, k, m + s, n + s, c)
        assert abs(a - b) > 1e-3 * max(abs(a), abs(b))


class TestRotationReport:
    def test_wavelengths_increase(self):
        wl = rotation_report(cfg(theta=75e6, d=128)).wavelength.tolist()
        assert len(wl) == 64
        assert all(b > a for a, b in zip(wl, wl[1:]))

    def test_completeness_matches_wavelength_rule(self):
        c = cfg(theta=1e8, d=128, L=600_000)
        report = rotation_report(c)
        for wavelength, complete in zip(report.wavelength.tolist(), report.complete.tolist()):
            assert complete == (wavelength <= c.max_position)

    def test_all_complete_when_theta_barely_above_one(self):
        report = rotation_report(cfg(theta=1.01, d=64, L=10_000))
        assert report.fraction_complete == 1.0

    def test_large_theta_leaves_tail_incomplete(self):
        report = rotation_report(cfg(theta=1e8, d=128, L=600_000))
        assert report.fraction_complete < 1.0
        flags = report.complete.tolist()
        # Incompleteness is a suffix: once a wavelength exceeds the reach,
        # every longer one does too.
        assert flags == sorted(flags, reverse=True)

    def test_report_at_max_head_dim_is_three_arrays(self):
        report, peak = traced_peak(rotation_report, cfg(theta=75e6, d=MAX_HEAD_DIM, L=524_288))
        assert report.inv_freq.shape == report.wavelength.shape == report.complete.shape
        assert report.complete.shape == (MAX_HEAD_DIM // 2,)
        assert peak <= 2**20

    def test_known_fraction_at_half_mega_context(self):
        report = rotation_report(cfg(theta=75e6, d=128, L=524_288))
        assert report.fraction_complete == pytest.approx(40 / 64)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1e2, max_value=1e9),
        st.floats(min_value=1.5, max_value=8.0),
    )
    def test_fraction_monotone_in_theta(self, theta, factor):
        low = rotation_report(cfg(theta=theta, d=64, L=100_000)).fraction_complete
        high = rotation_report(cfg(theta=theta * factor, d=64, L=100_000)).fraction_complete
        assert high <= low

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=100, max_value=10**6),
        st.integers(min_value=2, max_value=16),
    )
    def test_fraction_monotone_in_reach(self, L, factor):
        small = rotation_report(cfg(theta=1e6, d=64, L=L)).fraction_complete
        large = rotation_report(cfg(theta=1e6, d=64, L=L * factor)).fraction_complete
        assert large >= small


class TestThetaBound:
    def test_published_anchor_points(self):
        assert 2.75e7 <= theta_lower_bound(262_144) <= 2.85e7
        assert 8.5e7 <= theta_lower_bound(524_288) <= 8.7e7

    def test_unit_context(self):
        assert theta_lower_bound(1) == pytest.approx(0.0424)

    @given(st.integers(min_value=1, max_value=10**8))
    def test_strictly_increasing(self, L):
        assert theta_lower_bound(L + 1) > theta_lower_bound(L)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            theta_lower_bound(0)


class TestPlanTheta:
    def test_half_mega_context_plan(self):
        plan = plan_theta(524_288, [25e6, 75e6, 100e6], head_dim=128)
        by_theta = {c.theta: c for c in plan.candidates}
        assert by_theta[25e6].classification is ThetaClass.BELOW_BOUND
        assert plan.recommended == 75e6
        # At this reach both bases complete 40 of 64 rotations, so the
        # far-above flag stays off for 100M.
        assert by_theta[100e6].classification is ThetaClass.IN_BAND
        assert by_theta[100e6].fraction_complete == by_theta[75e6].fraction_complete

    def test_far_above_flag_fires_on_lost_rotations(self):
        plan = plan_theta(524_288, [80e6, 200e6], head_dim=128)
        by_theta = {c.theta: c for c in plan.candidates}
        assert plan.recommended == 80e6
        assert by_theta[200e6].classification is ThetaClass.FAR_ABOVE_BOUND
        assert by_theta[200e6].fraction_complete < by_theta[80e6].fraction_complete

    def test_exact_bound_candidate_recommended(self):
        plan = plan_theta(262_144, [28e6], head_dim=128)
        assert plan.recommended == 28e6
        assert plan.candidates[0].bound_ratio == pytest.approx(1.0, rel=0.01)

    def test_small_context_single_candidate(self):
        plan = plan_theta(1024, [1e4], head_dim=128)
        assert plan.recommended == 1e4

    def test_all_below_bound_recommends_nothing(self):
        plan = plan_theta(524_288, [1e4, 1e5], head_dim=128)
        assert plan.recommended is None
        assert all(c.classification is ThetaClass.BELOW_BOUND for c in plan.candidates)

    def test_slack_boundary(self):
        bound = theta_lower_bound(524_288)
        just_in = bound * BOUND_SLACK * 1.001
        just_out = bound * BOUND_SLACK * 0.999
        plan = plan_theta(524_288, [just_in, just_out], head_dim=128)
        by_theta = {c.theta: c for c in plan.candidates}
        assert by_theta[just_in].classification is not ThetaClass.BELOW_BOUND
        assert by_theta[just_out].classification is ThetaClass.BELOW_BOUND

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            plan_theta(1024, [])

    def test_fractions_equal_the_rotation_report_in_bounded_memory(self):
        # The plan reads each fraction from a report of three arrays, so no d/2 objects per candidate.
        candidates = [1e4, 5e5, 25e6, 75e6, 100e6, 200e6, 1e9]
        want = plan_theta(524_288, candidates, head_dim=256)
        fractions = [rotation_report(cfg(t, 256, 524_288)).fraction_complete for t in candidates]
        assert plan_theta(524_288, candidates, head_dim=256) == want
        assert [c.fraction_complete for c in want.candidates] == fractions
        _, peak = traced_peak(plan_theta, 524_288, candidates, head_dim=MAX_HEAD_DIM)
        assert peak <= 2**20
