"""Gaussian level- and curve-crossing statistics.

Used to validate the modeling assumptions behind the rate bounds: the
distribution of the noise-induced crossing shift, the expected number and
variance of zero-crossings inside one transition interval (crossings of the
deterministic transition curve by the total noise), and the mean duration of
noise excursions above the signal level.

Total noise = filtered AWGN + lowpass distortion.  The distortion part of
the ACF is only known through the PSD sandwich; builders below use the
flattened (band-edge-frozen) upper or lower bound so the lag-0 values
reproduce the closed-form variance/curvature bounds exactly.

The shift density and the ACF evaluators follow numpy's shape rule: a scalar
or an array of any shape in, the same shape out, a numpy float for a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .bounds import sigma_S_sq
from .distortion import acf_tail_moment
from .params import DerivedParams
from .quadrature import gauss_legendre
from .special import FOLDED_K, K_EDGE, erfcx, rational
from .spectrum import band_edge_correlation

__all__ = [
    "AcfModel",
    "pdf_shift",
    "shift_variance_ratio",
    "transition_curve",
    "expected_curve_crossings",
    "variance_curve_crossings",
    "CurveCrossingVariance",
    "mean_excursion_duration",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Gauss-Legendre node counts
_CURVE_NODES = 400   # shift density support; [0, T] of expected_curve_crossings
_TAU_NODES = 48      # lag axis of the two-point crossing integral
_T_NODES = 32        # start-time axis of the two-point crossing integral
_INNER_NODES = 64    # conditioning variable of _abs_cross_moment

# lag rows of the two-point crossing integral evaluated per broadcast call;
# all 48 rows at once raise the peak memory of a transition-census run by 5%
_TAU_BLOCK = 8

# width of the |t2 - t1| strip variance_curve_crossings leaves out, over T
_EPS_FRAC = 1e-3


# ---------------------------------------------------------------------------
# shifting-error densities
# ---------------------------------------------------------------------------

def pdf_shift(s, params: DerivedParams, sigma_z_sq: float):
    """Exact density of the crossing shift for the sine transition.

    Obtained by mapping the Gaussian total noise through the transition
    waveform; supported on |s| <= beta/2.  Integrates to
    erf(sqrt(P_hat/(2 sigma_z^2))), i.e. to 1 up to the probability that the
    noise exceeds the peak level (negligible in the validity regime).
    """
    p = params
    a = p.P_hat / (2.0 * sigma_z_sq)
    s = np.asarray(s, dtype=float)
    x = math.pi / p.beta * s
    out = np.where(
        np.abs(s) <= p.beta / 2.0,
        math.sqrt(math.pi * a) / p.beta * np.cos(x) * np.exp(-a * np.sin(x) ** 2),
        0.0,
    )
    return out[()]


def shift_variance_ratio(params: DerivedParams, sigma_z_sq: float) -> float:
    """Variance of the exact (normalized) shift density over sigma_S^2.

    Close to 1 in the mid-to-high SNR regime; drifts away as the Gaussian
    approximation breaks down.
    """
    p = params
    half = p.beta / 2.0
    nodes, weights = gauss_legendre(_CURVE_NODES)
    s = half * nodes  # symmetric on [-beta/2, beta/2], scaled below
    dens = pdf_shift(s, p, sigma_z_sq)
    mass = half * float(np.dot(weights, dens))
    second = half * float(np.dot(weights, s**2 * dens))
    var_exact = second / mass
    return var_exact / sigma_S_sq(p, sigma_z_sq)


# ---------------------------------------------------------------------------
# ACF models
# ---------------------------------------------------------------------------

def _sinc_d1(x):
    """d/dx sin(pi x)/(pi x), series-stabilized near 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    xs = x[small]
    out[small] = -(math.pi**2 / 3.0) * xs + (math.pi**4 / 30.0) * xs**3
    xl = x[~small]
    out[~small] = (np.cos(math.pi * xl) - np.sinc(xl)) / xl
    return out[()]


def _sinc_d2(x):
    """d^2/dx^2 sin(pi x)/(pi x), series-stabilized near 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    xs = x[small]
    out[small] = -(math.pi**2 / 3.0) + (math.pi**4 / 10.0) * xs**2
    xl = x[~small]
    out[~small] = (-math.pi * np.sin(math.pi * xl) - 2.0 * _sinc_d1(xl)) / xl
    return out[()]


@dataclass(frozen=True)
class AcfModel:
    """Autocorrelation of a stationary Gaussian process and its derivatives.

    s(0) > 0 and s2(0) < 0; s1 is the first derivative (odd, 0 at 0).
    """

    s: Callable[[np.ndarray], np.ndarray]
    s1: Callable[[np.ndarray], np.ndarray]
    s2: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not (self.s0 > 0):
            raise ValueError(f"s(0) must be positive, got {self.s0}")
        if not (float(self.s2(0.0)) < 0):
            raise ValueError("s''(0) must be negative")

    @cached_property
    def s0(self) -> float:
        """The variance s(0)."""
        return float(self.s(0.0))

    @classmethod
    def bandlimited_noise(cls, N0: float, W: float) -> "AcfModel":
        """Ideal brick-wall noise: s(tau) = N0 W sinc(2 W tau)."""
        var = N0 * W
        a = 2.0 * W
        return cls(
            s=lambda tau: var * np.sinc(a * np.asarray(tau, dtype=float)),
            s1=lambda tau: var * a * _sinc_d1(a * np.asarray(tau, dtype=float)),
            s2=lambda tau: var * a**2 * _sinc_d2(a * np.asarray(tau, dtype=float)),
        )

    @classmethod
    def distortion(cls, params: DerivedParams, which: str = "upper") -> "AcfModel":
        """Lowpass-distortion ACF from the flattened PSD bound (acf_tail_moment).

        which='upper' reproduces the closed-form upper variance and lower
        curvature bounds at lag 0; which='lower' the opposite pairing.
        """
        p = params
        c1 = band_edge_correlation(p.k)
        factor = (1.0 + 2.0 * c1) if which == "upper" else 1.0 / (1.0 + 2.0 * c1)
        if which not in ("upper", "lower"):
            raise ValueError(f"which must be 'upper' or 'lower', got {which!r}")
        scale = factor * p.P_hat * p.beta / (math.pi * p.T_avg)

        def _moment(tau, m, kind):
            # at the signed lag: the cosine moments are even, the sine moment odd
            r = np.asarray(tau, dtype=float) / p.beta
            vals = np.array([acf_tail_moment(m, x, kind) for x in r.ravel()])
            return vals.reshape(r.shape)[()]

        return cls(
            s=lambda tau: scale * _moment(tau, 0, "cos"),
            s1=lambda tau: -(scale / p.beta) * _moment(tau, 1, "sin"),
            s2=lambda tau: -(scale / p.beta**2) * _moment(tau, 2, "cos"),
        )

    @classmethod
    def total(cls, params: DerivedParams, which: str = "upper") -> "AcfModel":
        """Noise plus distortion; the two processes are independent so ACFs add."""
        noise = cls.bandlimited_noise(params.N0, params.W)
        dist = cls.distortion(params, which)
        return cls(
            s=lambda tau: noise.s(tau) + dist.s(tau),
            s1=lambda tau: noise.s1(tau) + dist.s1(tau),
            s2=lambda tau: noise.s2(tau) + dist.s2(tau),
        )


# ---------------------------------------------------------------------------
# curve crossings
# ---------------------------------------------------------------------------

def transition_curve(params: DerivedParams):
    """Deterministic curve the noise must cross during one sine transition.

    Returns (psi, psi_prime, T) on the interval [0, T] with T = beta; the
    curve runs from +sqrt(P_hat) to -sqrt(P_hat) through zero at T/2.
    """
    p = params
    amp = math.sqrt(p.P_hat)
    w = math.pi / p.beta

    def psi(y):
        return amp * np.cos(w * np.asarray(y, dtype=float))

    def psi_prime(y):
        return -amp * w * np.sin(w * np.asarray(y, dtype=float))

    return psi, psi_prime, p.beta


def _folded_mean(mu, sd):
    """E|X| for X ~ N(mu, sd^2); reduces to |mu| when sd = 0.

    With x = |mu|/(sqrt(2) sd), E|X| = sd sqrt(2/pi) exp(-x^2) + |mu| erf(x)
    is |mu| + sd sqrt(2/pi) exp(-x^2) K(x), K(x) = 1 - sqrt(pi) x erfcx(x):
    both terms are positive, so nothing cancels, and one rational replaces
    erf with no branch per element.  The error is about 2 ulp.
    """
    mu = np.asarray(mu, dtype=float)
    sd = np.asarray(sd, dtype=float)
    abs_mu = np.abs(mu)
    # s = x/6; where sd = 0 it overflows to inf, or is 0 where mu is too
    with np.errstate(over="ignore"):
        s = abs_mu * (1.0 / (K_EDGE * math.sqrt(2.0) * np.maximum(sd, np.finfo(float).tiny)))
        gauss = np.exp(-K_EDGE**2 * (s * s))
    s = np.minimum(s, 1.0)
    k = rational(FOLDED_K, s)
    k *= gauss
    k *= sd * _SQRT_2_OVER_PI
    k += abs_mu
    return k


def expected_curve_crossings(
    psi: Callable,
    psi_prime: Callable,
    T: float,
    acf: AcfModel,
) -> float:
    """Expected number of crossings of the curve psi by the process in [0, T].

    Generalized Rice formula: the crossing intensity at y is the density of
    the process at psi(y) times the mean crossing speed E|z' - psi'(y)|,
    with z' independent of z at equal times (stationarity).  For psi = 0 this
    collapses to T/pi * sqrt(-s''(0)/s(0)).
    """
    lam2 = -float(acf.s2(0.0))
    sigma = math.sqrt(acf.s0)
    nodes, weights = gauss_legendre(_CURVE_NODES)
    y = 0.5 * T * (nodes + 1.0)
    dens = np.exp(-psi(y) ** 2 / (2.0 * acf.s0)) / (sigma * math.sqrt(2.0 * math.pi))
    speed = _folded_mean(psi_prime(y), math.sqrt(lam2))
    return 0.5 * T * float(np.dot(weights, dens * speed))


def _abs_cross_moment(m1, m2, c11, c12, c22, a1, a2):
    """E[|X1 - a1| |X2 - a2|] for (X1, X2) ~ N((m1, m2), [[c11, c12], [c12, c22]]).

    Conditioning on X2 leaves a folded-normal mean (smooth); the outer
    |X2 - a2| kink is split at a2, so Gauss-Legendre sees smooth integrands
    on both sides.  All arguments broadcast.
    """
    m1, m2, c11, c12, c22, a1, a2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (m1, m2, c11, c12, c22, a1, a2))
    )
    sd2 = np.sqrt(c22)
    slope = c12 / c22
    cond_var = np.maximum(c11 - c12**2 / c22, 0.0)
    cond_sd = np.sqrt(cond_var)

    span = 9.0
    ustar = np.clip((a2 - m2) / sd2, -span, span)
    nodes, weights = gauss_legendre(_INNER_NODES)
    total = np.zeros(m1.shape)
    for lo, hi in ((-span * np.ones_like(ustar), ustar), (ustar, span * np.ones_like(ustar))):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        u = mid[..., None] + half[..., None] * nodes  # (..., _INNER_NODES)
        x2 = m2[..., None] + sd2[..., None] * u
        phi = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        mu1 = m1[..., None] + slope[..., None] * (x2 - m2[..., None])
        inner = _folded_mean(mu1 - a1[..., None], cond_sd[..., None])
        total += half * np.einsum("...n,n->...", np.abs(x2 - a2[..., None]) * phi * inner, weights)
    return total


class CurveCrossingVariance(NamedTuple):
    variance: float
    expectation: float
    excluded_mass: float  # estimate of the |t2 - t1| < eps strip left out


def variance_curve_crossings(
    psi: Callable,
    psi_prime: Callable,
    T: float,
    acf: AcfModel,
) -> CurveCrossingVariance:
    """Variance of the curve-crossing count in [0, T].

    Var N = E[N] - E[N]^2 + E[N(N-1)], with the second factorial moment a
    double time integral of the two-point crossing intensity.  The joint
    covariance of (z(t1), z(t2)) degenerates at coincident times, so the
    strip |t2 - t1| < 1e-3 T is excluded and its estimated mass
    reported alongside the result.
    """
    expectation = expected_curve_crossings(psi, psi_prime, T, acf)
    lam2 = -float(acf.s2(0.0))
    s0 = acf.s0
    eps = _EPS_FRAC * T

    tau_nodes, tau_weights = gauss_legendre(_TAU_NODES)
    t_nodes, t_weights = gauss_legendre(_T_NODES)
    tau = 0.5 * (T - eps) * (tau_nodes + 1.0) + eps  # (_TAU_NODES,)

    s_tau = acf.s(tau)
    s1_tau = acf.s1(tau)
    s2_tau = acf.s2(tau)
    try:
        s0_sq = s0**2
    except OverflowError:
        raise ValueError(f"squared total-noise variance s(0)^2 of the two-point crossing "
                         f"density leaves the floating-point range (s(0) = {s0:g})") from None
    det = s0_sq - s_tau**2
    c_diag = lam2 - s1_tau**2 * s0 / det
    c_off = -s2_tau - s1_tau**2 * s_tau / det

    # the two-point intensity g(t1, t1 + tau) on the t1 quadrature grid, for
    # _TAU_BLOCK lag rows at a time: one broadcast call per block, with the
    # (rows, _T_NODES, _INNER_NODES) temporaries kept small
    inner_vals = np.empty(_TAU_NODES)
    for lo in range(0, _TAU_NODES, _TAU_BLOCK):
        rows = slice(lo, lo + _TAU_BLOCK)
        tau_b = tau[rows, None]
        t1 = 0.5 * (T - tau_b) * (t_nodes + 1.0)  # (rows, _T_NODES)
        t2 = t1 + tau_b
        p1, p2 = psi(t1), psi(t2)
        st, s1t, d = s_tau[rows, None], s1_tau[rows, None], det[rows, None]
        dens = np.exp(
            -(s0 * (p1**2 + p2**2) - 2.0 * st * p1 * p2) / (2.0 * d)
        ) / (2.0 * math.pi * np.sqrt(d))
        m1 = s1t * (st * p1 - s0 * p2) / d
        m2 = s1t * (s0 * p1 - st * p2) / d
        cross = _abs_cross_moment(
            m1, m2, c_diag[rows, None], c_off[rows, None], c_diag[rows, None],
            psi_prime(t1), psi_prime(t2),
        )
        # one dot per row: a matrix-vector product sums in another order and
        # moves the result in the last bit
        inner = [np.dot(t_weights, g) for g in dens * cross]
        inner_vals[rows] = 0.5 * (T - tau[rows]) * inner
    # factor 2: the (t1, t2) square is symmetric about the diagonal
    factorial_moment = 2.0 * 0.5 * (T - eps) * float(np.dot(tau_weights, inner_vals))

    # mass of the skipped |t2 - t1| < eps strip, from the nearest computed row
    excluded = 2.0 * eps * inner_vals[0]
    variance = expectation - expectation**2 + factorial_moment
    return CurveCrossingVariance(variance=variance, expectation=expectation, excluded_mass=excluded)


# ---------------------------------------------------------------------------
# excursions
# ---------------------------------------------------------------------------

def mean_excursion_duration(params: DerivedParams, sigma_z_sq: float, s2_zz: float) -> float:
    """Mean time the total noise spends above the signal level per excursion.

    Ratio of the stationary exceedance probability to the up-crossing rate
    of the level sqrt(P_hat).  With a = P_hat/(2 sigma_z^2) the ratio carries
    exp(a) erfc(sqrt(a)), the scaled complementary error function erfcx,
    which stays finite where exp(a) alone overflows (a > 709).
    """
    if not (s2_zz < 0):
        raise ValueError(f"s2_zz must be negative, got {s2_zz}")
    a = params.P_hat / (2.0 * sigma_z_sq)
    return math.pi * math.sqrt(sigma_z_sq / -s2_zz) * erfcx(math.sqrt(a))
