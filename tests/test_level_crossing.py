"""Shift densities, curve-crossing statistics, excursion durations."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from zcrate.distortion import distortion_bounds
from zcrate.level_crossing import (
    AcfModel,
    expected_curve_crossings,
    mean_excursion_duration,
    pdf_shift,
    shift_variance_ratio,
    transition_curve,
    variance_curve_crossings,
)
from zcrate.params import ChannelConfig, derive
from zcrate.simulate import SampledWaveform, gen_bandlimited_noise
from zcrate.spectrum import correlation_factor, g_mag_sq, psd_finite_k


def params_at(k: float, rho_db: float, W: float = 1.0):
    return derive(ChannelConfig(W=W, lam=W / k, rho=10.0 ** (rho_db / 10.0)))


class TestShiftDensity:
    def test_normalization_high_snr(self):
        # the exact density integrates to erf(sqrt(P/(2 sz^2))); the deficit
        # drops below 1e-8 only where the residual distortion is small enough
        # (k >= 2 here; at k = 1 it floors near 3e-7 regardless of SNR)
        cases = [(2.0, 25.0), (2.0, 30.0), (3.0, 30.0), (4.0, 30.0), (8.0, 35.0)]
        for k, rho_db in cases:
            p = params_at(k, rho_db)
            sz = distortion_bounds(p).sigma_z_sq_hi
            total, _ = quad(lambda s: pdf_shift(s, p, sz), -p.beta / 2, p.beta / 2,
                            epsabs=1e-13, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_center_values_agree(self):
        p = params_at(1.0, 10.0)
        sz = distortion_bounds(p).sigma_z_sq_hi
        peak = math.sqrt(math.pi * p.P_hat / (2.0 * sz)) / p.beta
        assert pdf_shift(0.0, p, sz) == pytest.approx(peak, rel=1e-14)

    def test_symmetry_and_support(self):
        p = params_at(1.0, 10.0)
        sz = distortion_bounds(p).sigma_z_sq_hi
        s = np.linspace(0.0, 0.6 * p.beta, 50)
        assert np.allclose(pdf_shift(s, p, sz), pdf_shift(-s, p, sz))
        assert pdf_shift(0.51 * p.beta, p, sz) == 0.0

    def test_variance_ratio_profile(self):
        """Exact-vs-Gaussian variance ratio across SNR.

        The ratio crosses 1 near 6 dB, overshoots to ~1.12 around 10 dB
        (arcsine-map inflation), and relaxes toward 1 + sigma_z^2/P_hat at
        high SNR; the distortion floor of sigma_z^2 keeps it above 1 at any
        SNR (1.04 at k = 1, 30 dB).  The acceptance suite checks the ratio
        against a noise-domain oracle; here the profile is pinned so
        regressions surface.
        """
        p6 = params_at(1.0, 6.0)
        r6 = shift_variance_ratio(p6, distortion_bounds(p6).sigma_z_sq_hi)
        assert abs(r6 - 1.0) < 0.05
        p10 = params_at(1.0, 10.0)
        r10 = shift_variance_ratio(p10, distortion_bounds(p10).sigma_z_sq_hi)
        assert 1.05 < r10 < 1.15
        p40 = params_at(1.0, 40.0)
        r40 = shift_variance_ratio(p40, distortion_bounds(p40).sigma_z_sq_hi)
        assert abs(r40 - 1.0) < 0.05
        # the approximation visibly breaks at low SNR
        p0 = params_at(1.0, 0.0)
        r0 = shift_variance_ratio(p0, distortion_bounds(p0).sigma_z_sq_hi)
        assert abs(r0 - 1.0) > 0.10


class TestAcfModel:
    def test_noise_acf_values(self):
        acf = AcfModel.bandlimited_noise(0.08, 1.5)
        var = 0.08 * 1.5
        assert acf.s0 == pytest.approx(var)
        # sinc zero at tau = 1/(2W)
        assert float(acf.s(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-15)
        assert float(acf.s2(0.0)) == pytest.approx(-(4.0 / 3.0) * math.pi**2 * 0.08 * 1.5**3, rel=1e-12)
        # derivative consistency by finite differences
        h = 1e-6
        for tau in (0.05, 0.21, 0.4):
            fd1 = (float(acf.s(tau + h)) - float(acf.s(tau - h))) / (2 * h)
            assert float(acf.s1(tau)) == pytest.approx(fd1, rel=1e-6, abs=1e-9)
            fd2 = (float(acf.s1(tau + h)) - float(acf.s1(tau - h))) / (2 * h)
            assert float(acf.s2(tau)) == pytest.approx(fd2, rel=1e-5, abs=1e-8)

    def test_total_matches_distortion_bounds_at_zero(self):
        p = params_at(1.0, 10.0)
        db = distortion_bounds(p)
        upper = AcfModel.total(p, "upper")
        assert upper.s0 == pytest.approx(db.sigma_z_sq_hi, rel=1e-12)
        assert float(upper.s2(0.0)) == pytest.approx(db.s2_zz_lo, rel=1e-12)
        lower = AcfModel.total(p, "lower")
        assert lower.s0 == pytest.approx(db.sigma_z_sq_lo, rel=1e-12)

    def test_distortion_derivatives_by_finite_difference(self):
        p = params_at(1.0, 10.0)
        acf = AcfModel.distortion(p, "upper")
        h = 1e-5
        for tau in (0.1, 0.37):
            fd1 = (float(acf.s(tau + h)) - float(acf.s(tau - h))) / (2 * h)
            assert float(acf.s1(tau)) == pytest.approx(fd1, rel=1e-4, abs=1e-8)
            fd2 = (float(acf.s(tau + h)) - 2 * float(acf.s(tau)) + float(acf.s(tau - h))) / h**2
            assert float(acf.s2(tau)) == pytest.approx(fd2, rel=1e-3, abs=1e-6)


_SHAPE_P = params_at(1.0, 10.0)
_SHAPE_FUNCTIONS = {
    "g_mag_sq": lambda x: g_mag_sq(x, _SHAPE_P.beta),
    "correlation_factor": lambda x: correlation_factor(x, _SHAPE_P.lam),
    "psd_finite_k": lambda x: psd_finite_k(x, _SHAPE_P),
    "pdf_shift": lambda x: pdf_shift(x, _SHAPE_P, 0.1),
}
_ACF_BUILDERS = {
    "bandlimited_noise": lambda p: AcfModel.bandlimited_noise(p.N0, p.W),
    "distortion": lambda p: AcfModel.distortion(p, "upper"),
    "total": lambda p: AcfModel.total(p, "upper"),
}


@pytest.mark.parametrize(
    "name", [*_SHAPE_FUNCTIONS, *(f"{m}.{a}" for m in _ACF_BUILDERS for a in ("s", "s1", "s2"))]
)
def test_evaluators_follow_the_numpy_shape_rule(name):
    """A scalar gives a float with the bits of the 1-element array [x]; any shape is kept.

    Compared against 1-element arrays only: numpy's vector loops may round an
    element of a long array differently.  At -0.02 psd_finite_k cancels
    enough that numpy's scalar complex arithmetic would move the result.
    """
    if name in _SHAPE_FUNCTIONS:
        f = _SHAPE_FUNCTIONS[name]
    else:
        model, attr = name.split(".")
        acf = _ACF_BUILDERS[model](_SHAPE_P)
        assert acf.s0 == float(acf.s(0.0))
        f = getattr(acf, attr)
    for x in (0.3, -0.41, 2e-4, -0.02, 2.0 * math.pi + 1e-5):
        value = f(x)
        assert isinstance(value, float)
        assert float(value).hex() == float(f(np.array([x]))[0]).hex()
    grid = np.array([[0.3, -0.41, -0.02], [2e-4, 1.1, 0.7]])
    assert np.shape(f(grid)) == grid.shape


class TestExpectedCrossings:
    def test_rice_reduction_at_zero_curve(self):
        p = params_at(1.0, 10.0)
        acf = AcfModel.bandlimited_noise(p.N0, p.W)
        zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))
        rate = expected_curve_crossings(zero, zero, 1.0, acf)
        assert rate == pytest.approx(2.0 * p.W / math.sqrt(3.0), rel=1e-9)

    def test_transition_count_converges_to_one(self):
        # within 2% for rho >= 10 dB; at exactly 5 dB the count is ~0.96
        for k, rho_db in [(0.5, 10.0), (1.0, 10.0), (1.0, 15.0), (2.0, 20.0)]:
            p = params_at(k, rho_db)
            psi, psip, T = transition_curve(p)
            e_val = expected_curve_crossings(psi, psip, T, AcfModel.total(p, "upper"))
            assert e_val == pytest.approx(1.0, abs=0.02)
        p5 = params_at(1.0, 5.0)
        psi, psip, T = transition_curve(p5)
        e5 = expected_curve_crossings(psi, psip, T, AcfModel.total(p5, "upper"))
        assert e5 == pytest.approx(1.0, abs=0.05)

    def test_joint_scaling_invariance(self):
        p = params_at(1.0, 10.0)
        acf = AcfModel.total(p, "upper")
        psi, psip, T = transition_curve(p)
        e1 = expected_curve_crossings(psi, psip, T, acf)
        c = 3.7
        scaled = AcfModel(
            s=lambda t: c**2 * acf.s(t),
            s1=lambda t: c**2 * acf.s1(t),
            s2=lambda t: c**2 * acf.s2(t),
        )
        e2 = expected_curve_crossings(
            lambda y: c * psi(y), lambda y: c * psip(y), T, scaled
        )
        assert e2 == pytest.approx(e1, rel=1e-12)

    def test_time_reversal_invariance(self):
        p = params_at(1.0, 10.0)
        acf = AcfModel.total(p, "upper")
        psi, psip, T = transition_curve(p)
        fwd = expected_curve_crossings(psi, psip, T, acf)
        rev = expected_curve_crossings(
            lambda y: psi(T - np.asarray(y)), lambda y: -psip(T - np.asarray(y)), T, acf
        )
        assert rev == pytest.approx(fwd, rel=1e-10)


class TestVarianceCrossings:
    def test_small_variance_at_mid_snr(self):
        p = params_at(1.0, 15.0)
        psi, psip, T = transition_curve(p)
        v = variance_curve_crossings(psi, psip, T, AcfModel.total(p, "upper"))
        assert v.variance <= 0.02
        assert v.variance >= 0.0
        assert v.excluded_mass < 1e-4

    def test_pinned_values_at_mid_snr(self):
        # pinned from an evaluation one lag row at a time
        p = params_at(1.0, 10.0)
        psi, psip, T = transition_curve(p)
        v = variance_curve_crossings(psi, psip, T, AcfModel.total(p, "upper"))
        assert v.variance == pytest.approx(0.004279691924236638, rel=1e-14, abs=1e-12)
        assert v.expectation == pytest.approx(0.9986139681388198, rel=1e-14, abs=1e-12)
        assert v.excluded_mass == pytest.approx(5.518190858249675e-08, rel=1e-14, abs=1e-12)

    def test_variance_vanishes_at_high_snr(self):
        p = params_at(1.0, 40.0)
        psi, psip, T = transition_curve(p)
        v = variance_curve_crossings(psi, psip, T, AcfModel.total(p, "upper"))
        assert v.variance == pytest.approx(0.0, abs=1e-3)

    def test_against_monte_carlo_census(self):
        from zcrate.simulate import transition_crossing_census

        p = params_at(1.0, 10.0)
        psi, psip, T = transition_curve(p)
        res = {
            which: variance_curve_crossings(psi, psip, T, AcfModel.total(p, which))
            for which in ("lower", "upper")
        }
        cen = transition_crossing_census(p, 4000, np.random.default_rng(9))
        e_lo = min(r.expectation for r in res.values())
        e_hi = max(r.expectation for r in res.values())
        se = math.sqrt(cen.var / cen.counts.size)
        # the simulated window loses the crossings whose shift leaves the
        # transition interval: allow that leakage on top of the MC error
        a = p.P_hat / (2.0 * distortion_bounds(p).sigma_z_sq_hi)
        leak = math.erfc(math.sqrt(a))
        assert e_lo - 3.0 * se - 4.0 * leak <= cen.mean <= e_hi + 3.0 * se
        assert cen.var <= 0.05


class TestExcursion:
    def test_monotone_decreasing_in_snr(self):
        taus = []
        for rho_db in np.arange(0.0, 21.0, 4.0):
            p = params_at(1.0, rho_db)
            db = distortion_bounds(p)
            taus.append(mean_excursion_duration(p, db.sigma_z_sq_hi, db.s2_zz_lo) / p.beta)
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_below_symbol_time_at_mid_snr(self):
        for rho_db in (6.0, 10.0, 15.0):
            p = params_at(1.0, rho_db)
            db = distortion_bounds(p)
            tau = mean_excursion_duration(p, db.sigma_z_sq_hi, db.s2_zz_lo)
            assert tau / p.beta < 1.0

    def test_zero_level_limit(self):
        p = replace(params_at(1.0, 10.0), P_hat=0.0)
        assert mean_excursion_duration(p, 0.25, -4.0) == pytest.approx(
            math.pi * math.sqrt(0.25 / 4.0), rel=1e-14
        )

    @pytest.mark.parametrize("a", [0.5, 13.0, 700.0, 975.0, 5e4])
    def test_matches_mpmath_where_exp_overflows(self, a):
        # tau = pi sqrt(sigma_z^2/-s2_zz) exp(a) erfc(sqrt(a)), a = P_hat/(2 sigma_z^2);
        # exp(a) alone overflows beyond a = 709
        mpmath = pytest.importorskip("mpmath")
        p = params_at(1.0, 10.0)
        sigma_z_sq = p.P_hat / (2.0 * a)
        with mpmath.workdps(40):
            exact = float(mpmath.pi * mpmath.sqrt(mpmath.mpf(sigma_z_sq))
                          * mpmath.exp(a) * mpmath.erfc(mpmath.sqrt(a)))
        tau = mean_excursion_duration(p, sigma_z_sq, -1.0)
        assert tau == pytest.approx(exact, rel=1e-14)

    def test_monte_carlo_oracle(self):
        # pure bandlimited noise at the variance predicted for 6 dB, k = 1;
        # measure the mean sojourn above sqrt(P_hat)
        p = params_at(1.0, 6.0)
        db = distortion_bounds(p)
        sz = db.sigma_z_sq_hi
        n, dt = 2**23, p.beta / 16.0
        noise = gen_bandlimited_noise(n, dt, sz / p.W, p.W, np.random.default_rng(31))
        x = noise.samples
        level = math.sqrt(p.P_hat)
        above = x > level
        d = np.diff(above.astype(np.int8))
        starts = np.nonzero(d == 1)[0]
        ends = np.nonzero(d == -1)[0]
        if ends.size and starts.size and ends[0] < starts[0]:
            ends = ends[1:]
        m = min(starts.size, ends.size)
        # linear interpolation of entry/exit instants
        t_in = starts[:m] + (level - x[starts[:m]]) / (x[starts[:m] + 1] - x[starts[:m]])
        t_out = ends[:m] + (level - x[ends[:m]]) / (x[ends[:m] + 1] - x[ends[:m]])
        mc = (t_out - t_in).mean() * dt
        s2_noise = -(4.0 / 3.0) * math.pi**2 * (sz / p.W) * p.W**3
        pred = mean_excursion_duration(p, sz, s2_noise)
        assert mc == pytest.approx(pred, rel=0.05)
