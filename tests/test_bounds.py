"""Headline rate bounds and their supporting operations."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from zcrate.bounds import (
    arcosh_integral,
    bound_report,
    delta_offset,
    f1_pure_k,
    genie_lower_rate,
    h_vk_upper,
    high_snr_limit,
    k_opt,
    lower_rate_pure_k,
    mu_bar_pure_k,
    rice_mu,
    sigma_S_sq,
    waterfill_nu,
    waterfill_residual,
)
from zcrate.distortion import distortion_bounds
from zcrate.params import ChannelConfig, derive
from zcrate.quadrature import NumericalError


def arcosh_quadrature(a: float) -> float:
    """Independent evaluation of the band integral via the smooth/singular split:
    int ln(1 + a/(1-cos 2 pi f)) df = 2 int_0^1/2 ln(1 - cos 2 pi f + a) df + ln 2."""
    smooth, _ = quad(
        lambda f: math.log(1.0 - math.cos(2.0 * math.pi * f) + a),
        0.0, 0.5, epsabs=1e-13, epsrel=1e-13, limit=300,
    )
    return 2.0 * smooth + math.log(2.0)


class TestSigmaS:
    def test_unit_case(self):
        p = derive(ChannelConfig(W=1.0, lam=1.0, rho=10.0))
        assert sigma_S_sq(p, 4.0 * math.pi**2 * p.W**2 * p.P_hat) == pytest.approx(1.0)

    def test_linear_scaling(self):
        p = derive(ChannelConfig(W=2.0, lam=1.0, rho=10.0))
        assert sigma_S_sq(p, 0.6) == pytest.approx(3.0 * sigma_S_sq(p, 0.2), rel=1e-15)

    def test_arcosh_argument_identity(self):
        p = derive(ChannelConfig(W=1.7, lam=0.6, rho=12.0))
        db = distortion_bounds(p)
        lhs = 2.0 * math.pi**2 * p.W**2 * p.P_hat / (db.sigma_z_sq_hi * p.lam**2)
        rhs = 1.0 / (2.0 * sigma_S_sq(p, db.sigma_z_sq_hi) * p.lam**2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestArcoshIntegral:
    def test_zero_limit(self):
        assert arcosh_integral(1e-300) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_quadrature_oracle(self, a):
        assert arcosh_integral(a) == pytest.approx(arcosh_quadrature(a), abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            arcosh_integral(0.0)
        with pytest.raises(ValueError):
            arcosh_integral(-1.0)


class TestRiceMu:
    def setup_method(self):
        self.p = derive(ChannelConfig(W=1.0, lam=1.0, rho=10.0))

    def test_high_peak_limit(self):
        big = replace(self.p, P_hat=1e6)
        assert rice_mu(big, 0.1, -1.0) == pytest.approx(1.0)

    def test_fast_symbols_limit(self):
        fast = replace(self.p, lam=1e9)
        assert rice_mu(fast, 0.1, -1.0) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_curvature(self):
        with pytest.raises(ValueError, match="negative"):
            rice_mu(self.p, 0.1, 0.0)

    def test_pure_noise_reduction(self):
        # with the curvature of brick-wall noise, the crossing rate embedded in
        # mu reduces to the classic 2W/sqrt(3) per second
        p = self.p
        s2_nn = -(4.0 / 3.0) * math.pi**2 * p.N0 * p.W**3
        zero_peak = replace(p, P_hat=0.0)
        rate = (rice_mu(zero_peak, p.sigma_nhat_sq, s2_nn) - 1.0) * p.lam
        assert rate == pytest.approx(2.0 * p.W / math.sqrt(3.0), rel=1e-12)


class TestHvk:
    def test_limit_and_value(self):
        assert h_vk_upper(1.0) == 0.0
        assert h_vk_upper(1.0 + 1e-15) == pytest.approx(0.0, abs=1e-13)
        assert h_vk_upper(2.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)

    def test_geometric_series_oracle(self):
        mu = 1.5
        C = 1.0 / (mu - 1.0)
        q = (mu - 1.0) / mu
        # sum entropy terms in log space; tiny tail masses underflow to zero
        log_p = math.log(C) + np.arange(1, 10**4 + 1) * math.log(q)
        p_i = np.exp(log_p)
        assert h_vk_upper(mu) == pytest.approx(-np.sum(p_i * log_p), abs=1e-8)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            h_vk_upper(0.99)


class TestGenieLower:
    def test_bandwidth_scaling(self):
        # doubling W at fixed k and rho doubles the rate
        p1 = derive(ChannelConfig(W=1.0, lam=1.0, rho=10.0))
        p2 = derive(ChannelConfig(W=2.0, lam=2.0, rho=10.0))
        db1, db2 = distortion_bounds(p1), distortion_bounds(p2)
        r1 = genie_lower_rate(p1, db1.sigma_z_sq_hi)
        r2 = genie_lower_rate(p2, db2.sigma_z_sq_hi)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_decomposition_identity(self):
        p = derive(ChannelConfig(W=1.3, lam=0.9, rho=15.0))
        db = distortion_bounds(p)
        arg = 2.0 * math.pi**2 * p.W**2 * p.P_hat / (db.sigma_z_sq_hi * p.lam**2)
        direct = (
            (2.0 * p.W * p.lam / (2.0 * p.W + p.lam)) / 2.0
            * (math.log(math.e / (2.0 * math.pi)) + arcosh_integral(arg))
        )
        assert genie_lower_rate(p, db.sigma_z_sq_hi) == pytest.approx(direct, rel=1e-12)

    def test_fast_symbols_go_negative(self):
        p = derive(ChannelConfig(W=1.0, lam=1e5, rho=10.0))
        db = distortion_bounds(p)
        assert genie_lower_rate(p, db.sigma_z_sq_hi) < 0.0


class TestLowerBound:
    def test_high_snr_convergence(self):
        p = derive(ChannelConfig(W=1.0, lam=1.0 / 0.7, rho=10.0**6))
        rep = bound_report(p)
        limit = high_snr_limit(0.7, p.W)
        assert rep.lower_rate / (2.0 * p.W) == pytest.approx(limit / (2.0 * p.W), rel=0.01)

    def test_scale_invariance(self):
        rep1 = bound_report(derive(ChannelConfig(W=1.0, lam=1.0, rho=20.0)))
        rep2 = bound_report(derive(ChannelConfig(W=10.0, lam=10.0, rho=20.0)))
        assert rep2.lower_rate == pytest.approx(10.0 * rep1.lower_rate, rel=1e-10)
        assert rep2.upper_rate == pytest.approx(10.0 * rep1.upper_rate, rel=1e-10)
        assert rep2.genie_lower == pytest.approx(10.0 * rep1.genie_lower, rel=1e-10)
        assert rep2.h_v_rate == pytest.approx(10.0 * rep1.h_v_rate, rel=1e-10)
        assert rep2.awgn == pytest.approx(10.0 * rep1.awgn, rel=1e-10)

    def test_small_k_clamps_to_zero(self):
        p = derive(ChannelConfig(W=0.05, lam=1.0, rho=10.0 ** 1.5))
        rep = bound_report(p)
        assert rep.clamped
        assert rep.lower_rate == 0.0
        assert rep.lower_rate_raw < 0.0

    def test_pure_k_route_agrees_with_dimensional(self):
        for k, rho in [(0.5, 5.0), (1.0, 10.0), (2.0, 100.0), (0.3, 31.6)]:
            p = derive(ChannelConfig(W=2.0, lam=2.0 / k, rho=rho))
            rep = bound_report(p)
            assert rep.mu_bar == pytest.approx(mu_bar_pure_k(k, rho), rel=1e-10)
            assert rep.lower_rate_raw / p.lam == pytest.approx(
                lower_rate_pure_k(k, rho), rel=1e-10
            )
            db = rep.sdr
            assert p.P_hat / db.sigma_z_sq_hi == pytest.approx(f1_pure_k(k, rho), rel=1e-10)

    def test_decomposition_inequality(self):
        p = derive(ChannelConfig(W=1.0, lam=1.0, rho=10.0))
        rep = bound_report(p)
        assert rep.lower_rate_raw == pytest.approx(rep.genie_lower - rep.h_v_rate, rel=1e-14)
        assert rep.lower_rate_raw <= rep.genie_lower
        assert rep.mu_bar >= 1.0


class TestWaterfill:
    def test_flat_water_case(self):
        assert waterfill_nu(10.0, 1.0) == pytest.approx(12.0, rel=1e-15)

    def test_branch_boundary_consistency(self):
        s = 0.73
        nu_closed = waterfill_nu(2.0 * s, s)
        assert nu_closed == pytest.approx(4.0 * s, rel=1e-12)
        # nudge into the root-finding branch; continuity across the boundary
        nu_num = waterfill_nu(2.0 * s * (1.0 - 1e-9), s)
        assert nu_num == pytest.approx(nu_closed, rel=1e-8)
        assert waterfill_residual(nu_num, 2.0 * s * (1.0 - 1e-9), s) <= 1e-10 * 2.0 * s

    def test_partial_fill_residual(self):
        nu = waterfill_nu(0.1, 1.0)
        assert nu < 4.0
        assert waterfill_residual(nu, 0.1, 1.0) <= 1e-10 * 0.1


class TestUpperBound:
    def test_closed_form_matches_quadrature(self):
        from zcrate.bounds import _waterfill_rate_per_symbol

        for s_sq, sigma_A_sq in [(1.0, 10.0), (0.5, 0.2), (2.0, 1e-3)]:
            nu = waterfill_nu(sigma_A_sq, s_sq)

            def integrand(f):
                S = 2.0 * s_sq * (1.0 - math.cos(2.0 * math.pi * f))
                return 0.5 * math.log(1.0 + max(nu - S, 0.0) / S)

            oracle = 2.0 * quad(integrand, 0.0, 0.5, epsabs=1e-12, limit=400,
                                points=[0.0])[0]
            assert _waterfill_rate_per_symbol(nu, s_sq) == pytest.approx(oracle, abs=1e-8)

    def test_sandwich_on_grid(self):
        for rho_db in (10.0, 20.0, 30.0, 40.0):
            rho = 10.0 ** (rho_db / 10.0)
            for k in np.geomspace(0.2, 5.0, 12):
                rep = bound_report(derive(ChannelConfig(W=1.0, lam=1.0 / k, rho=rho)))
                assert rep.lower_rate <= rep.upper_rate + 1e-12
                assert rep.lower_rate <= rep.awgn + 1e-12

    def test_upper_grows_without_bound_in_W(self):
        ups = [
            bound_report(derive(ChannelConfig(W=W, lam=1.0, rho=10.0))).upper_rate
            for W in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(b > a for a, b in zip(ups, ups[1:]))


class TestOffsetAndLimit:
    def test_delta_independent_of_W(self):
        # the offset is a pure function of (k, rho): both rates scale with W
        k, rho = 0.8, 100.0
        for W in (0.5, 2.0, 50.0):
            p = derive(ChannelConfig(W=W, lam=W / k, rho=rho))
            rep = bound_report(p)
            assert math.log(rep.awgn / rep.lower_rate) == pytest.approx(
                delta_offset(k, rho), rel=1e-10
            )

    def test_k_opt_matches_grid_search(self):
        rho = 10.0 ** 4.0
        ks = np.linspace(0.05, 5.0, 3000)
        deltas = np.array([delta_offset(k, rho) for k in ks])
        grid_min = deltas.min()
        k_star = k_opt(rho)
        assert delta_offset(k_star, rho) <= grid_min + 1e-3
        assert abs(k_star - ks[np.argmin(deltas)]) < 5e-3

    def test_k_opt_high_snr_value(self):
        assert k_opt(10.0 ** 4.0) == pytest.approx(0.7, abs=0.1)

    @pytest.mark.parametrize("rho_db", [-10.0, -5.0])
    def test_k_opt_raises_where_every_offset_is_infinite(self, rho_db):
        # at -5 dB and below the lower bound is nonpositive across the bracket,
        # so there is no minimum; the search would return the bracket edge
        rho = 10.0 ** (rho_db / 10.0)
        assert all(math.isinf(delta_offset(k, rho)) for k in np.linspace(0.05, 5.0, 200))
        with pytest.raises(NumericalError, match="nonpositive at every probed k"):
            k_opt(rho)

    def test_k_opt_raises_at_the_bracket_edge(self):
        # at -3.5 dB the offset is finite at the upper edge k = 5 and still
        # falling past it, so the minimum lies outside the bracket
        rho = 10.0 ** -0.35
        assert delta_offset(6.0, rho) < delta_offset(5.0, rho) < math.inf
        with pytest.raises(NumericalError, match="upper bracket edge k = 5"):
            k_opt(rho)
        # -3 dB has its minimum inside the bracket
        assert k_opt(10.0 ** -0.3) == pytest.approx(4.3866, abs=1e-4)

    def test_high_snr_limit_properties(self):
        for k in (0.3, 0.7, 3.0):
            v1 = high_snr_limit(k, 1.0)
            v2 = high_snr_limit(k, 2.0)
            assert abs(v2 - 2.0 * v1) <= 1e-14 * abs(v2)
            c0 = 1.0  # mu_g sanity through the public surface
            from zcrate.distortion import c0_constant, c1_of_k, c2_constant

            mu_g = (
                2.0 * k * math.sqrt(c2_constant() / c0_constant())
                * math.exp(-math.pi**2 * (1.0 + 2.0 * k)
                           / ((1.0 + 2.0 * c1_of_k(k)) * c0_constant()))
                + 1.0
            )
            assert mu_g >= 1.0


class TestSaturation:
    def test_snr_saturation_and_onset(self):
        # <1% movement between 50 and 70 dB at fixed (W, lam)
        for k in (1.0, 2.0):
            r50 = bound_report(derive(ChannelConfig(1.0, 1.0 / k, 10.0**5)))
            r70 = bound_report(derive(ChannelConfig(1.0, 1.0 / k, 10.0**7)))
            assert abs(r70.lower_rate / r50.lower_rate - 1.0) < 0.01
            assert abs(r70.upper_rate / r50.upper_rate - 1.0) < 0.01

    def test_onset_tracks_sdr(self):
        # the SNR where the lower bound's slope halves sits within a factor 4
        # of the signal-to-distortion ratio
        for k in (1.0, 2.0):
            rhos_db = np.arange(0.0, 51.0, 1.0)
            vals = np.array([
                bound_report(derive(ChannelConfig(1.0, 1.0 / k, 10.0 ** (r / 10.0)))).lower_rate
                for r in rhos_db
            ])
            slopes = np.diff(vals)
            ref = slopes[6]
            onset = next(
                rhos_db[i] for i in range(7, len(slopes)) if slopes[i] <= 0.5 * ref
            )
            db = distortion_bounds(derive(ChannelConfig(1.0, 1.0 / k, 10.0)))
            sdr_db = 10.0 * math.log10(db.sdr_lo)
            assert abs(onset - sdr_db) <= 10.0 * math.log10(4.0)

    def test_gap_closes_with_k(self):
        gaps = []
        for k in (0.5, 1.0, 2.0):
            p = derive(ChannelConfig(1.0, 1.0 / k, 10.0**3))
            rep = bound_report(p)
            gaps.append((rep.upper_rate - rep.lower_rate) / (2.0 * p.W))
        assert gaps[0] > gaps[1] > gaps[2]
