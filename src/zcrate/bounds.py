"""Mutual-information-rate bounds for the zero-crossing signaling scheme.

Lower bound: the genie-aided receiver (insertions undone via side
information) gives a colored-Gaussian timing channel whose rate is bounded
below through an LMMSE/Szego argument; subtracting the maximum-entropy cost
of the insertion side information yields the final lower bound.  Upper
bound: water-filling over the colored shift-noise spectrum of the same genie
channel.  Both reduce to pure functions of (k, rho) once rates are
normalized by lam (lower) or bandwidth (both).

Conservative pairing throughout: the lower bound consumes the *upper*
distortion variance and the *lower* (most negative) ACF curvature; the upper
bound consumes the *lower* distortion variance.  No mixing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .distortion import DistortionBounds, c0_constant, c1_of_k, c2_constant, distortion_bounds
from .params import DerivedParams
from .quadrature import NumericalError, gauss_legendre, log_sine_integral

__all__ = [
    "BoundReport",
    "sigma_S_sq",
    "arcosh_integral",
    "rice_mu",
    "h_vk_upper",
    "genie_lower_rate",
    "waterfill_nu",
    "waterfill_residual",
    "bound_report",
    "f1_pure_k",
    "mu_bar_pure_k",
    "lower_rate_pure_k",
    "delta_offset",
    "k_opt",
    "high_snr_limit",
]

_LOG_E_OVER_2PI = 1.0 - math.log(2.0 * math.pi)


def sigma_S_sq(params: DerivedParams, sigma_z_sq: float) -> float:
    """Variance of the noise-induced crossing shift: sigma_z^2/(4 pi^2 W^2 P_hat)."""
    if sigma_z_sq <= 0:
        raise ValueError(f"sigma_z_sq must be positive, got {sigma_z_sq}")
    return sigma_z_sq / (4.0 * math.pi**2 * params.W**2 * params.P_hat)


def arcosh_integral(a: float) -> float:
    """Closed form of int_{-1/2}^{1/2} ln(1 + a/(1 - cos 2 pi f)) df = arcosh(a+1)."""
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    return float(np.arccosh(a + 1.0))


def rice_mu(params: DerivedParams, sigma_z_sq: float, s2_zz: float) -> float:
    """Expected received symbols per transmitted symbol.

    One plus the expected number of level crossings of the total noise at
    +-sqrt(P_hat) during the mean hold time 1/lam (Rice's formula, counting
    both crossing directions).
    """
    if sigma_z_sq <= 0:
        raise ValueError(f"sigma_z_sq must be positive, got {sigma_z_sq}")
    if not (s2_zz < 0):
        raise ValueError(f"s2_zz must be negative (ACF curvature at lag 0), got {s2_zz}")
    rate = (1.0 / math.pi) * math.sqrt(-s2_zz / sigma_z_sq)
    return rate * math.exp(-params.P_hat / (2.0 * sigma_z_sq)) / params.lam + 1.0


def h_vk_upper(mu: float) -> float:
    """Maximum entropy (nats) of a positive integer variable with mean mu.

    Geometric-distribution entropy (1 - mu) ln(mu - 1) + mu ln(mu);
    continuous at mu = 1 with value 0.
    """
    if mu < 1.0:
        raise ValueError(f"mu must be >= 1, got {mu}")
    eps = mu - 1.0
    if eps <= 0.0:
        return 0.0
    return -eps * math.log(eps) + mu * math.log(mu)


def genie_lower_rate(params: DerivedParams, sigma_z_sq_hi: float) -> float:
    """Lower bound on the genie-aided (insertion-free) rate, nats/s."""
    arg = (
        2.0 * math.pi**2 * params.W**2 * params.P_hat
        / (sigma_z_sq_hi * params.lam**2)
    )
    return (_LOG_E_OVER_2PI + arcosh_integral(arg)) / (2.0 * params.T_avg)


def waterfill_nu(sigma_A_sq: float, sigma_S_sq: float) -> float:
    """Water level nu solving int (nu - S(f))^+ df = sigma_A^2 for
    S(f) = 2 sigma_S^2 (1 - cos 2 pi f) on |f| <= 1/2.

    S integrates to 2 sigma_S^2 and peaks at 4 sigma_S^2, so for
    sigma_A^2 >= 2 sigma_S^2 the water covers the whole band and
    nu = sigma_A^2 + 2 sigma_S^2 in closed form; otherwise nu is found by
    root finding on the filled-power function (exact up to the root solve).
    """
    if sigma_A_sq <= 0 or sigma_S_sq <= 0:
        raise ValueError("sigma_A_sq and sigma_S_sq must be positive")
    if sigma_A_sq >= 2.0 * sigma_S_sq:
        return sigma_A_sq + 2.0 * sigma_S_sq
    q = sigma_A_sq / sigma_S_sq  # target in units of sigma_S^2

    def filled(t: float) -> float:
        # int (t - 2(1-cos 2 pi f))^+ df in units of sigma_S^2
        f0 = math.acos(1.0 - t / 2.0) / (2.0 * math.pi)
        return 2.0 * f0 * (t - 2.0) + 2.0 * math.sin(2.0 * math.pi * f0) / math.pi

    t = brentq(lambda t: filled(t) - q, 1e-300, 4.0, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return t * sigma_S_sq


def waterfill_residual(nu: float, sigma_A_sq: float, sigma_S_sq: float, n_nodes: int = 200) -> float:
    """Constraint residual |int (nu - S(f))^+ df - sigma_A^2| by quadrature.

    The (.)^+ kink is located by an independent root solve on nu - S(f) so
    Gauss-Legendre only ever sees a smooth integrand.
    """
    def depth(f: float) -> float:
        return nu - 2.0 * sigma_S_sq * (1.0 - math.cos(2.0 * math.pi * f))

    if depth(0.5) >= 0.0:
        f_edge = 0.5
    else:
        f_edge = brentq(depth, 0.0, 0.5, xtol=1e-16, rtol=8.9e-16)
    nodes, weights = gauss_legendre(n_nodes)
    f = 0.5 * f_edge * (nodes + 1.0)
    s = 2.0 * sigma_S_sq * (1.0 - np.cos(2.0 * math.pi * f))
    filled = 2.0 * 0.5 * f_edge * float(np.dot(weights, nu - s))
    return abs(filled - sigma_A_sq)


def _waterfill_rate_per_symbol(nu: float, s_sq: float) -> float:
    """(1/2) int ln(1 + (nu - S)^+/S) df with S(f) = 2 s_sq (1 - cos 2 pi f).

    Full-coverage branch collapses to ln(nu/s_sq)/2 because
    int ln S df = ln(s_sq).  Partial coverage splits off the logarithmic
    f -> 0 endpoint analytically.
    """
    if nu >= 4.0 * s_sq:
        return 0.5 * math.log(nu / s_sq)
    f0 = math.acos(1.0 - nu / (2.0 * s_sq)) / (2.0 * math.pi)
    # integrand is ln(nu / (4 s_sq sin^2 pi f)) on [0, f0], zero beyond
    return f0 * math.log(nu / (4.0 * s_sq)) - 2.0 * log_sine_integral(f0)


@dataclass(frozen=True)
class BoundReport:
    """All headline quantities for one parameter point, rates in nats/s.

    lower_rate is clamped at zero (it bounds a nonnegative quantity);
    lower_rate_raw keeps the unclamped value for plotting.  genie_upper and
    upper_rate coincide: the upper bound ignores insertions, so the genie
    water-filling rate is the final upper bound.
    """

    params: DerivedParams
    lower_rate: float
    lower_rate_raw: float
    upper_rate: float
    genie_lower: float
    genie_upper: float
    mu_bar: float
    h_v_rate: float
    nu: float
    sigma_S_sq: float       # shift variance used by the upper bound (lower sigma_z^2)
    sigma_S_sq_hi: float    # shift variance from the upper sigma_z^2
    sdr: DistortionBounds
    awgn: float
    clamped: bool


def bound_report(params: DerivedParams) -> BoundReport:
    """Compute lower/upper mutual-information-rate bounds and all intermediates."""
    p = params
    db = distortion_bounds(p)

    # lower bound: conservative pairing (upper variance, lower curvature)
    g_lower = genie_lower_rate(p, db.sigma_z_sq_hi)
    mu_bar = rice_mu(p, db.sigma_z_sq_hi, db.s2_zz_lo)
    h_v_rate = h_vk_upper(mu_bar) / p.T_avg
    lower_raw = g_lower - h_v_rate
    lower = max(lower_raw, 0.0)

    # upper bound: lower distortion variance
    s_sq_lo = sigma_S_sq(p, db.sigma_z_sq_lo)
    nu = waterfill_nu(p.sigma_A_sq, s_sq_lo)
    upper = _waterfill_rate_per_symbol(nu, s_sq_lo) / p.T_avg

    return BoundReport(
        params=p,
        lower_rate=lower,
        lower_rate_raw=lower_raw,
        upper_rate=upper,
        genie_lower=g_lower,
        genie_upper=upper,
        mu_bar=mu_bar,
        h_v_rate=h_v_rate,
        nu=nu,
        sigma_S_sq=s_sq_lo,
        sigma_S_sq_hi=sigma_S_sq(p, db.sigma_z_sq_hi),
        sdr=db,
        awgn=p.W * math.log1p(p.rho),
        clamped=lower_raw < 0.0,
    )


# ---------------------------------------------------------------------------
# normalized pure-(k, rho) forms
# ---------------------------------------------------------------------------

def f1_pure_k(k: float, rho: float) -> float:
    """Peak-to-total-noise ratio P_hat / sigma_z_hi^2 as a function of (k, rho)."""
    c1 = c1_of_k(k)
    c0 = c0_constant()
    half2k = 0.5 + 2.0 * k
    return (
        (1.0 + 2.0 * k) / half2k
        * rho / (1.0 + (1.0 + 2.0 * c1) * c0 * rho / (2.0 * math.pi**2 * half2k))
    )


def mu_bar_pure_k(k: float, rho: float) -> float:
    """Expected received-per-transmitted symbols, pure (k, rho) form."""
    c1 = c1_of_k(k)
    c0 = c0_constant()
    c2 = c2_constant()
    half2k = 0.5 + 2.0 * k
    onep2c1 = 1.0 + 2.0 * c1
    num = (4.0 / 3.0) * math.pi**2 * half2k + 2.0 * onep2c1 * c2 * rho
    den = math.pi**2 * half2k + onep2c1 * (c0 / 2.0) * rho
    return k * math.sqrt(num / den) * math.exp(-f1_pure_k(k, rho) / 2.0) + 1.0


def _bracket_pure_k(k: float, rho: float) -> float:
    """Per-symbol bracket of the lower bound; rate = bracket / T_avg."""
    mu = mu_bar_pure_k(k, rho)
    f1 = f1_pure_k(k, rho)
    return (
        0.5 * _LOG_E_OVER_2PI
        + 0.5 * arcosh_integral(2.0 * math.pi**2 * k**2 * f1)
        - h_vk_upper(mu)
    )


def lower_rate_pure_k(k: float, rho: float) -> float:
    """Unclamped lower bound divided by lam: 2k/(2k+1) times the bracket."""
    return 2.0 * k / (2.0 * k + 1.0) * _bracket_pure_k(k, rho)


def delta_offset(k: float, rho: float) -> float:
    """Log-offset between the AWGN capacity and the lower bound, in nats.

    Equals ln[(2k+1)/2 * ln(1+rho) / bracket]; +inf where the unclamped
    lower bound is nonpositive (the offset is undefined there).
    """
    b = _bracket_pure_k(k, rho)
    if b <= 0.0:
        return math.inf
    return math.log((2.0 * k + 1.0) * math.log1p(rho) / (2.0 * b))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def k_opt(rho: float, bracket: tuple[float, float] = (0.05, 5.0), tol: float = 1e-4) -> float:
    """Ratio k minimizing the AWGN offset at a given SNR (golden-section search).

    Raises NumericalError when the offset is infinite (the lower bound
    nonpositive) at every probed k: there is no minimum to find, and the
    search would return the bracket edge.  It also raises when the search
    ends within ``tol`` of either bracket edge: the offset is still falling
    there, so the minimum lies outside the bracket.
    """
    lo, hi = bracket
    if not (0 < lo < hi):
        raise ValueError(f"invalid bracket {bracket}")
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = delta_offset(c, rho), delta_offset(d, rho)
    finite = math.isfinite(fc) or math.isfinite(fd)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = delta_offset(c, rho)
            finite = finite or math.isfinite(fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = delta_offset(d, rho)
            finite = finite or math.isfinite(fd)
    if not finite:
        raise NumericalError(
            f"the lower bound is nonpositive at every probed k in {bracket} at rho = {rho:g}"
        )
    k = 0.5 * (a + b)
    for edge, name in ((lo, "lower"), (hi, "upper")):
        if abs(k - edge) <= tol:
            raise NumericalError(
                f"the search ended at the {name} bracket edge k = {edge:g} at rho = {rho:g}:"
                f" the minimum lies outside {bracket}"
            )
    return k


def high_snr_limit(k: float, W: float) -> float:
    """rho -> inf limit of the lower bound, nats/s; exactly linear in W."""
    if k <= 0 or W <= 0:
        raise ValueError("k and W must be positive")
    c1 = c1_of_k(k)
    c0 = c0_constant()
    c2 = c2_constant()
    onep2c1 = 1.0 + 2.0 * c1
    arg = 4.0 * math.pi**4 * k**2 * (1.0 + 2.0 * k) / (onep2c1 * c0)
    mu_g = (
        2.0 * k * math.sqrt(c2 / c0)
        * math.exp(-math.pi**2 * (1.0 + 2.0 * k) / (onep2c1 * c0))
        + 1.0
    )
    bracket = 0.5 * _LOG_E_OVER_2PI + 0.5 * arcosh_integral(arg) - h_vk_upper(mu_g)
    return 2.0 * W / (2.0 * k + 1.0) * bracket
