"""Clipped-energy constants and the distortion-variance bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from zcrate import special
from zcrate.distortion import (
    acf_tail_moment,
    c0_constant,
    c2_constant,
    distortion_bounds,
)
from zcrate.level_crossing import AcfModel
from zcrate.params import derive
from zcrate.spectrum import correlation_factor, g_mag_sq


def tail_integral(beta: float, moment: int) -> float:
    """(1/pi) int_{2 pi W}^inf omega^moment |G(omega)|^2 domega with W = 1/(2 beta),
    evaluated directly in the omega domain (dimension-carrying oracle)."""
    W = 1.0 / (2.0 * beta)
    a = 2.0 * math.pi * W

    def f(w):
        return w**moment * g_mag_sq(w, beta)

    head, _ = quad(f, a, 8.0 * a, epsabs=1e-14, epsrel=1e-13, limit=400)

    # beyond 8a factor out (1 + cos(w beta)) so the oscillatory part can use
    # the weighted rule; the envelope decays like w^(moment-6)
    def env(w):
        return 2.0 * w**moment * math.pi**4 * beta**2 / ((w * beta) ** 2 * (math.pi**2 - (w * beta) ** 2) ** 2)

    flat, _ = quad(env, 8.0 * a, np.inf, epsabs=1e-14, epsrel=1e-13)
    osc, _ = quad(env, 8.0 * a, np.inf, weight="cos", wvar=beta,
                  epsabs=1e-14, epsrel=1e-13, limlst=200)
    return (head + flat + osc) / math.pi


class TestConstants:
    def test_c0_against_tail_quadrature(self):
        # sigma_hi = (1+2c1) (P_hat/T_avg) tail0 must equal the closed form
        for beta in (0.2, 1.0, 3.7):
            c0_from_tail = tail_integral(beta, 0) * 2.0 * math.pi**2 / beta
            assert c0_constant() == pytest.approx(c0_from_tail, rel=1e-6)

    def test_c2_against_tail_quadrature(self):
        # tail_integral already carries the 1/pi: c2 = 2 beta * (1/pi) int w^2 |G|^2
        for beta in (0.5, 2.0):
            c2_from_tail = tail_integral(beta, 2) * 2.0 * beta
            assert c2_constant() == pytest.approx(c2_from_tail, rel=1e-6)

    def test_parameter_independence_five_points(self):
        vals0 = [tail_integral(b, 0) * 2.0 * math.pi**2 / b for b in (0.1, 0.4, 1.0, 2.5, 8.0)]
        assert np.ptp(vals0) / vals0[0] < 1e-8

    def test_sign_sensitivity(self):
        # flipping the sign of any Si/Ci term must break the quadrature match
        gamma = np.euler_gamma
        si_pi, _ = sici(math.pi)
        si_2pi, ci_2pi = sici(2.0 * math.pi)
        wrong = (
            -3.0 * gamma - 3.0 * math.log(2.0 * math.pi) + 3.0 * ci_2pi
            - math.pi**2 - 4.0 * math.pi * si_pi - math.pi * si_2pi
        )
        oracle = tail_integral(1.0, 0) * 2.0 * math.pi**2
        assert abs(wrong - oracle) > 1e-2
        assert si_pi > si_2pi  # the two sine-integral terms enter with opposite signs

    def test_positive(self):
        assert c0_constant() > 0
        assert c2_constant() > 0

    def test_special_functions_against_quadrature(self):
        # the library's own Si/Ci and the math module's erfc, validated at 20
        # points against brute-force quadrature so the substitution keeps an
        # oracle
        rng = np.random.default_rng(12)
        xs = np.concatenate([rng.uniform(0.05, 5.9, 10), rng.uniform(6.1, 25.0, 10)])
        gamma = np.euler_gamma
        for x in xs:
            si_ref, _ = quad(lambda t: math.sin(t) / t, 0.0, x, limit=300)
            ci_ref = gamma + math.log(x) + quad(
                lambda t: (math.cos(t) - 1.0) / t, 0.0, x, limit=300
            )[0]
            si, ci = special.sici(x)
            assert si == pytest.approx(si_ref, abs=1e-10)
            assert ci == pytest.approx(ci_ref, abs=1e-10)
        for x in rng.uniform(0.0, 4.0, 20):
            ref = 2.0 / math.sqrt(math.pi) * quad(
                lambda t: math.exp(-t * t), x, np.inf
            )[0]
            assert math.erfc(x) == pytest.approx(ref, abs=1e-10)


def _sici_grid():
    """A log grid over [1e-3, 1e4], both sides of the regime edges 2 and 4,
    and the neighbourhoods of the zeros of Ci at 0.6165 and 3.384."""
    edges = [np.nextafter(e, d) for e in (2.0, 4.0) for d in (0.0, np.inf)]
    return np.concatenate([np.geomspace(1e-3, 1e4, 600), [2.0, 4.0], edges,
                           np.linspace(0.55, 0.7, 31), np.linspace(3.3, 3.5, 41),
                           np.random.default_rng(9).uniform(1.5, 9.0, 100)])


class TestSici:
    """Si and Ci: 1e-15 relative where |value| >= 0.1, 1e-16 absolute below,
    where a zero of Ci makes a relative error meaningless."""

    def test_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(30):
            for x in _sici_grid():
                for got, ref in zip(special.sici(float(x)), (mp.si(float(x)), mp.ci(float(x)))):
                    worst = max(worst, float(abs(got - ref) / max(abs(ref), 0.1)))
        assert worst <= 1e-15

    def test_matches_scipy(self):
        # scipy's own Ci is 7e-15 off near x = 4, where gamma + ln x cancels
        for x in _sici_grid():
            for got, ref in zip(special.sici(float(x)), sici(float(x))):
                assert abs(got - ref) <= 1e-14 * max(abs(ref), 0.1)

    def test_tables_equal_their_fit(self, fit_tool):
        """The frozen rational tables of sici and of the folded normal mean,
        and their regime edges, are what tools/fit_tables.py computes."""
        assert (fit_tool.SICI_MID, fit_tool.SICI_FAR, fit_tool.K_EDGE) == (
            special._SICI_MID, special._SICI_FAR, special.K_EDGE)
        for name, table in fit_tool.sici_k_tables().items():
            assert getattr(special, name) == table, name


class TestDistortionBounds:
    @pytest.mark.parametrize("k", [0.3, 0.7, 2.0])
    def test_ratio_is_correlation_squared(self, k):
        p = derive(W=1.0, lam=1.0 / k, rho=10.0)
        db = distortion_bounds(p)
        assert db.sigma_xt_sq_hi / db.sigma_xt_sq_lo == pytest.approx(
            (1.0 + 2.0 * correlation_factor(2.0 * math.pi * k, 1.0)) ** 2, rel=1e-12
        )
        assert db.sigma_z_sq_lo == pytest.approx(p.sigma_nhat_sq + db.sigma_xt_sq_lo, rel=1e-15)
        assert db.sigma_z_sq_hi == pytest.approx(p.sigma_nhat_sq + db.sigma_xt_sq_hi, rel=1e-15)

    def test_sdr_two_routes_agree(self):
        c0 = c0_constant()
        for k in (0.3, 0.7, 2.0):
            p = derive(W=2.0, lam=2.0 / k, rho=15.0)
            db = distortion_bounds(p)
            c1 = correlation_factor(2.0 * math.pi * k, 1.0)
            pure_hi = 2.0 * math.pi**2 * (0.5 + 2.0 * k) * (1.0 + 2.0 * c1) / c0
            pure_lo = 2.0 * math.pi**2 * (0.5 + 2.0 * k) / ((1.0 + 2.0 * c1) * c0)
            assert db.sdr_hi == pytest.approx(pure_hi, rel=1e-12)
            assert db.sdr_lo == pytest.approx(pure_lo, rel=1e-12)
            assert db.sdr_lo <= db.sdr_hi

    def test_curvature_bound_negative(self):
        for k in (0.2, 1.0, 5.0):
            p = derive(W=1.0, lam=1.0 / k, rho=6.0)
            db = distortion_bounds(p)
            assert db.s2_xt_lo < 0
            assert db.s2_zz_lo < db.s2_xt_lo  # noise curvature adds on top

    def test_variance_vanishes_at_large_k(self):
        p = derive(W=1.0, lam=1e-4, rho=10.0)
        db = distortion_bounds(p)
        assert db.sigma_xt_sq_hi / p.P_hat < 1e-4

    def test_sdr_bounds_tighten_with_k(self):
        ratios = []
        for k in (0.5, 1.0, 2.0, 8.0):
            p = derive(W=1.0, lam=1.0 / k, rho=10.0)
            db = distortion_bounds(p)
            ratios.append(db.sdr_hi / db.sdr_lo)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.2

    def test_empirical_variance_within_bounds(self):
        from zcrate.simulate import lp_distortion_stats

        rng = np.random.default_rng(23)
        for k in (0.5, 1.0, 2.0):
            p = derive(W=1.0, lam=1.0 / k, rho=10.0)
            st = lp_distortion_stats(p, 200000, 50, rng)
            db = distortion_bounds(p)
            slack = 3.0 * st.var_time * math.sqrt(2.0 / (st.n_time_samples / 20.0))
            assert db.sigma_xt_sq_lo - slack <= st.var_time <= db.sigma_xt_sq_hi + slack


class TestDistortionAcf:
    def test_lag_zero_matches_closed_forms(self):
        p = derive(W=1.0, lam=1.0, rho=10.0)
        db = distortion_bounds(p)
        assert AcfModel.distortion(p, "upper").s0 == pytest.approx(db.sigma_xt_sq_hi, rel=1e-12)

    def test_tail_moment_parity(self):
        # cosine moments are even in the lag, sine moments odd and 0 at 0
        assert acf_tail_moment(1, 0.0, "sin") == pytest.approx(0.0, abs=1e-12)
        m0 = acf_tail_moment(0, 0.35, "cos")
        assert m0 > 0
        assert acf_tail_moment(0, 0.0, "cos") > m0  # decays with lag
        for m in (0, 1, 2):
            assert acf_tail_moment(m, -0.35, "cos") == acf_tail_moment(m, 0.35, "cos")
            assert acf_tail_moment(m, -1.7, "sin") == -acf_tail_moment(m, 1.7, "sin")

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["cos", "sin"])
    def test_tail_moment_is_smooth_across_r_1(self, m, kind):
        # at r = 1 the tone trig(u (r - 1)) of the tail has frequency 0; the
        # moment is smooth there, so values at 1 +- delta must follow its
        # quadratic Taylor polynomial at 1 (slope and curvature from central
        # differences at h = 1e-4) to 1e-12 of the r = 0 moment
        scale = abs(acf_tail_moment(m, 0.0, "cos"))
        at_1 = acf_tail_moment(m, 1.0, kind)
        h = 1e-4
        up, down = acf_tail_moment(m, 1.0 + h, kind), acf_tail_moment(m, 1.0 - h, kind)
        slope = (up - down) / (2.0 * h)
        curvature = (up + down - 2.0 * at_1) / h**2
        for delta in (1e-6, 1e-9, 1e-12):
            for side in (1.0, -1.0):
                step = side * delta
                taylor = at_1 + step * slope + 0.5 * step**2 * curvature
                value = acf_tail_moment(m, 1.0 + step, kind)
                assert abs(value - taylor) <= 1e-12 * scale, (delta, side)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["cos", "sin"])
    def test_tail_moment_matches_unsplit_quadrature(self, m, kind):
        # oracle: QUADPACK on u^m w(u) trig(u r) as it stands, QAGS on the
        # head and the Fourier-weighted QAWF rule on [4 pi, inf); QAWF loses
        # accuracy as r -> 1, so r stays away from it
        def f(u):
            return u**m * g_mag_sq(u, 1.0)

        trig = math.cos if kind == "cos" else math.sin
        scale = abs(acf_tail_moment(m, 0.0, "cos"))
        for r in (0.0, 0.05, 0.3, 0.7, 1.3, 2.0, 3.3, 5.0, 7.7, 10.0, 13.1, 16.0, 20.0):
            head = quad(lambda u: f(u) * trig(r * u), math.pi, 4.0 * math.pi,
                        epsabs=1e-12, epsrel=1e-12, limit=200)[0]
            if r == 0.0:
                tail = quad(f, 4.0 * math.pi, np.inf, epsabs=1e-12, epsrel=1e-12,
                            limit=500)[0] if kind == "cos" else 0.0
            else:
                tail = quad(f, 4.0 * math.pi, np.inf, weight=kind, wvar=r,
                            epsabs=1e-12, epsrel=1e-12, limlst=200, limit=200)[0]
            assert acf_tail_moment(m, r, kind) == pytest.approx(head + tail, abs=1e-10 * scale), r

    @pytest.mark.parametrize(
        "m, r, kind",
        [
            (0, 0.0, "cos"),
            (1, 0.37, "sin"),
            (2, 1.0, "cos"),
            (2, np.float64(0.61), "cos"),
            (1, np.array(1.4), "sin"),
        ],
    )
    def test_cache_matches_uncached_helper(self, m, r, kind):
        from zcrate.distortion import _acf_tail_moment

        first = acf_tail_moment(m, r, kind)
        again = acf_tail_moment(m, r, kind)  # served from the cache
        fresh = _acf_tail_moment.__wrapped__(m, float(r), kind)
        assert type(first) is float
        assert first == fresh and again == fresh  # bit for bit

    def test_invalid_arguments_raise_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="m must be"):
                acf_tail_moment(3, 0.5, "cos")
            with pytest.raises(ValueError, match="kind must be"):
                acf_tail_moment(0, 0.5, "tan")
            with pytest.raises(ValueError, match="r must be finite"):
                acf_tail_moment(0, math.nan, "cos")

    def test_excursion_scalefree_form(self):
        # erfc convention sanity: mean excursion at level 0 is pi sqrt(s/-s'')
        from zcrate.level_crossing import mean_excursion_duration
        from dataclasses import replace

        p = derive(W=1.0, lam=1.0, rho=10.0)
        p0 = replace(p, P_hat=1e-300)
        tau = mean_excursion_duration(p0, 0.1, -1.0)
        assert tau == pytest.approx(math.pi * math.sqrt(0.1), rel=1e-12)
        assert math.erfc(0.0) == 1.0
