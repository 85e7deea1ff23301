"""PSD of the transmit signal: pulse spectrum, correlation factor, bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from zcrate.params import derive
from zcrate.spectrum import (
    PoleError,
    band_edge_correlation,
    correlation_factor,
    expected_cos,
    g_mag_sq,
    psd_bounds,
    psd_finite_k,
)


def g_mag_sq_oracle(omega: float, beta: float) -> float:
    """|G|^2 assembled from the generic pulse-spectrum decomposition with the
    transition-shape integral a(omega) done by quadrature (independent route)."""
    a_w, _ = quad(
        lambda t: 2.0 * math.sin(math.pi * t / beta) * math.sin(omega * t),
        0.0, beta / 2.0, epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    x = omega * beta
    return (
        2.0 * (1.0 + math.cos(x)) / omega**2
        + a_w**2
        + 4.0 * a_w / omega * math.cos(x / 2.0)
    )


class TestPulseSpectrum:
    def test_removable_singularity(self):
        beta = 0.7
        for eps in (1e-6, -1e-6):
            val = g_mag_sq((math.pi + eps) / beta, beta)
            assert val == pytest.approx(beta**2 / 4.0, rel=3e-6)
        # exactly at the singular point
        assert g_mag_sq(math.pi / beta, beta) == pytest.approx(beta**2 / 4.0, rel=1e-12)

    def test_value_at_two_pi(self):
        beta = 1.3
        expected = beta**2 / (9.0 * math.pi**2)
        assert g_mag_sq(2.0 * math.pi / beta, beta) == pytest.approx(expected, rel=1e-12)
        assert g_mag_sq_oracle(2.0 * math.pi / beta, beta) == pytest.approx(expected, rel=1e-9)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(1)
        beta = 0.8
        for _ in range(10):
            omega = rng.uniform(0.2, 20.0)
            assert g_mag_sq(omega, beta) == pytest.approx(
                g_mag_sq_oracle(omega, beta), rel=1e-9, abs=1e-14
            )

    def test_even_and_nonnegative(self):
        rng = np.random.default_rng(2)
        omega = rng.uniform(0.01, 50.0, size=100)
        vals = g_mag_sq(omega, 0.4)
        assert np.all(vals >= 0.0)
        assert np.allclose(g_mag_sq(-omega, 0.4), vals, rtol=0, atol=0)

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            g_mag_sq(0.0, 1.0)
        # pole behaves like 4/omega^2
        w = 1e-6
        assert g_mag_sq(w, 1.0) == pytest.approx(4.0 / w**2, rel=1e-6)


class TestCorrelationFactor:
    def test_simple_value(self):
        assert correlation_factor(math.sqrt(3.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_band_edge_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            W, lam = np.exp(rng.uniform(-2, 2, size=2))
            k = W / lam
            c1 = 1.0 / (math.sqrt(1.0 + 4.0 * math.pi**2 * k**2) - 1.0)
            assert correlation_factor(2.0 * math.pi * W, lam) == pytest.approx(c1, rel=1e-12)

    def test_monotone_decreasing(self):
        lam = 0.9
        w = np.linspace(0.1, 30.0, 200)
        c = correlation_factor(w, lam)
        assert np.all(np.diff(c) < 0)
        assert np.all(c > 0)

    def test_band_edge_scalar_is_the_array_formula(self):
        k = np.concatenate([np.random.default_rng(4).uniform(0.01, 10.0, 200),
                            np.geomspace(1e-150, 1e150, 61)])
        for v in k:
            assert band_edge_correlation(float(v)) == float(
                correlation_factor(2.0 * math.pi * v, 1.0))

    def test_pole(self):
        with pytest.raises(PoleError):
            correlation_factor(0.0, 1.0)
        with pytest.raises(PoleError):
            band_edge_correlation(0.0)


class TestExpectedCos:
    def test_omega_zero(self):
        for n in (1, 2, 7):
            assert expected_cos(0.0, n, 1.3, 0.4) == 1.0

    def test_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            omega, lam, beta = np.exp(rng.uniform(-1, 2, size=3))
            n = int(rng.integers(1, 10))
            r = lam / math.hypot(lam, omega)
            assert abs(expected_cos(omega, n, lam, beta)) <= r**n + 1e-15

    @pytest.mark.parametrize("n", [1, 3])
    def test_monte_carlo_oracle(self, n):
        rng = np.random.default_rng(5 + n)
        omega, lam, beta = 1.7, 0.9, 0.6
        draws = beta + rng.exponential(1.0 / lam, size=(10**6, n))
        samples = np.cos(omega * draws.sum(axis=1))
        mc = samples.mean()
        se = samples.std() / math.sqrt(samples.size)
        assert expected_cos(omega, n, lam, beta) == pytest.approx(mc, abs=3.0 * se)


class TestPsdBounds:
    def setup_method(self):
        self.params = derive(W=1.0, lam=1.0, rho=10.0)

    def test_ratio_is_correlation_squared(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(0.05, 30.0, size=40)
        lo, hi = psd_bounds(w, self.params)
        onep2c = 1.0 + 2.0 * correlation_factor(w, self.params.lam)
        assert np.allclose(hi / lo, onep2c**2, rtol=1e-12)
        assert np.all(lo <= hi)

    def test_even_nonnegative(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.05, 30.0, size=50)
        lo, hi = psd_bounds(w, self.params)
        lo_neg, hi_neg = psd_bounds(-w, self.params)
        assert np.allclose(hi_neg, hi)
        assert np.allclose(lo_neg, lo)
        assert np.all(lo >= 0.0)

    def test_pole_propagates(self):
        with pytest.raises(PoleError):
            psd_bounds(0.0, self.params)

    def test_tail_integrable_and_consistent_with_variance_bound(self):
        # (1/pi) int_2piW^inf upper <= closed-form upper distortion variance
        from zcrate.distortion import distortion_bounds

        p = self.params
        tail, _ = quad(lambda w: psd_bounds(w, p)[1], 2.0 * math.pi * p.W, np.inf,
                       epsabs=1e-12, limit=400)
        tail /= math.pi
        db = distortion_bounds(p)
        assert 0.0 < tail <= db.sigma_xt_sq_hi * (1.0 + 1e-9)
        assert tail >= db.sigma_xt_sq_lo

    def test_band_edge_upper_decreases_with_k(self):
        W = 1.0
        vals = []
        for k in [0.3, 0.7, 1.5, 3.0]:
            p = derive(W=W, lam=W / k, rho=10.0)
            vals.append(psd_bounds(2.0 * math.pi * W, p)[1])
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTruncatedSum:
    def test_alternating_sum_between_closed_forms(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            lam, beta = np.exp(rng.uniform(-1, 1, size=2))
            K = int(rng.integers(50, 201))
            # keep the geometric ratio away from 1 so truncation is controlled
            omega = rng.uniform(0.5, 8.0) * lam
            r = lam / math.hypot(lam, omega)
            total = sum(
                (-1) ** n * (1 - n / K) * expected_cos(omega, n, lam, beta)
                for n in range(1, K)
            )
            s = math.hypot(lam, omega)
            upper = lam / (s - lam)
            lower = -lam / (s + lam)
            tol = 5.0 * r**K / (1.0 - r) + 1e-9
            assert lower - tol <= total <= upper + tol

    def test_closed_form_matches_direct_sum(self):
        p = derive(W=1.0, lam=1.0, rho=10.0)
        K = 150
        from zcrate.spectrum import g_mag_sq as g

        for omega in (0.7, 3.3, 11.0):
            direct = 1.0 + 2.0 * sum(
                (-1) ** n * (1 - n / K) * expected_cos(omega, n, p.lam, p.beta)
                for n in range(1, K)
            )
            direct *= p.P_hat * g(omega, p.beta) / p.T_avg
            assert psd_finite_k(omega, p, K) == pytest.approx(direct, rel=1e-12)

    def test_finite_k_within_bounds(self):
        p = derive(W=1.0, lam=1.0, rho=10.0)
        w = 2.0 * math.pi * np.linspace(0.05, 3.0, 60)
        fk = psd_finite_k(w, p, 10**5)
        lo, hi = psd_bounds(w, p)
        assert np.all(fk <= hi * (1.0 + 1e-9))
        assert np.all(fk >= lo * (1.0 - 1e-9))


class TestEmpiricalSandwich:
    @pytest.mark.parametrize("K", [1000, 1001])  # segment lengths 7616 and 7619
    def test_periodogram_matches_scipy_welch(self, K):
        from scipy.signal import welch

        from zcrate.params import sample_input_sequence
        from zcrate.simulate import empirical_psd, synthesize

        p = derive(W=1.0, lam=1.0, rho=10.0)
        emp = empirical_psd(p, K, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        tx = sample_input_sequence(p, K, rng)
        xs = synthesize(tx, p, p.beta / 20.0, 20.0 * p.beta).window(0.0, tx.times[-1]).samples
        f, pxx = welch(xs - xs.mean(), fs=20.0 / p.beta, window="hann",
                       nperseg=min(1 << 13, xs.size // 8), detrend=False)
        assert np.array_equal(emp.f, f[1:])
        # one-sided to two-sided; the FFTs differ in the last digits
        assert np.max(np.abs(emp.psd - pxx[1:] / 2.0)) <= 1e-13 * np.max(pxx)

    def test_periodogram_between_bounds(self):
        # simulator periodogram at K = 1e5 symbols, coarse-binned away from DC
        from zcrate.simulate import empirical_psd

        p = derive(W=1.0, lam=1.0, rho=10.0)
        emp = empirical_psd(p, 10**5, np.random.default_rng(11))
        mask = (emp.f >= 0.1 * p.W) & (emp.f <= 2.5 * p.W)
        f, s = emp.f[mask], emp.psd[mask]
        edges = np.linspace(f[0], f[-1], 25)
        eps = 0.1
        for lo_e, hi_e in zip(edges[:-1], edges[1:]):
            m = (f >= lo_e) & (f < hi_e)
            if not np.any(m):
                continue
            w_mid = 2.0 * math.pi * f[m].mean()
            s_mean = s[m].mean()
            lo, hi = psd_bounds(w_mid, p)
            assert s_mean <= hi * (1.0 + eps)
            assert s_mean >= lo * (1.0 - eps)
