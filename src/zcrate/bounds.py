"""Mutual-information-rate bounds for the zero-crossing signaling scheme.

Lower bound: the genie-aided receiver (insertions undone via side
information) gives a colored-Gaussian timing channel whose rate is bounded
below through an LMMSE/Szego argument; subtracting the maximum-entropy cost
of the insertion side information yields the final lower bound.  Upper
bound: water-filling over the colored shift-noise spectrum of the same genie
channel.  At fixed k = W/lam both bounds are linear in W, so their ratio to
the AWGN capacity depends on (k, rho) only: ``delta_offset`` and ``k_opt``
evaluate the same lower bound at W = k, lam = 1.

Conservative pairing throughout: the lower bound consumes the *upper*
distortion variance and the *lower* (most negative) ACF curvature; the upper
bound consumes the *lower* distortion variance.  No mixing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distortion import DistortionBounds, distortion_bounds
from .params import DerivedParams, awgn_capacity, derive
from .quadrature import NumericalError, gauss_legendre, log_sine_integral
from .special import horner

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
    "delta_offset",
    "k_opt",
    "high_snr_limit",
]

_LOG_E_OVER_2PI = 1.0 - math.log(2.0 * math.pi)

# Gauss-Legendre nodes of the water-filling constraint check
_RESIDUAL_NODES = 200

# sin(theta) - theta cos(theta) = theta^3 sum_n (-1)^n (2n+2)/(2n+3)! theta^(2n),
# to 1e-19 of the first term for theta < 1
_EDGE_SERIES = tuple((-1) ** n * (2 * n + 2) / math.factorial(2 * n + 3) for n in range(10))

# cap on waterfill_nu's Newton steps: far above a root near 0, filled grows
# like t^(3/2) and each step divides t by about 3, so 2,000 steps reach any
# positive double
_NEWTON_STEPS = 2000


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


def _filled(t: float) -> tuple[float, float]:
    """int (t - 2 (1 - cos 2 pi f))^+ df over |f| <= 1/2 for 0 < t <= 4, and
    its derivative in t.

    With the edge phase theta = 2 pi f0 = 2 asin(sqrt(t)/2) the integral is
    (2/pi) (sin theta - theta cos theta) and the derivative 2 f0 = theta/pi.
    Below theta = 1 the difference is summed as its series, where it would
    cancel.
    """
    theta = 2.0 * math.asin(0.5 * math.sqrt(t))
    if theta < 1.0:
        diff = theta**3 * horner(_EDGE_SERIES, theta * theta)
    else:
        diff = math.sin(theta) - theta * math.cos(theta)
    return 2.0 * diff / math.pi, theta / math.pi


def waterfill_nu(sigma_A_sq: float, sigma_S_sq: float) -> float:
    """Water level nu solving int (nu - S(f))^+ df = sigma_A^2 for
    S(f) = 2 sigma_S^2 (1 - cos 2 pi f) on |f| <= 1/2.

    S integrates to 2 sigma_S^2 and peaks at 4 sigma_S^2, so for
    sigma_A^2 >= 2 sigma_S^2 the water covers the whole band and
    nu = sigma_A^2 + 2 sigma_S^2 in closed form.  Otherwise t = nu/sigma_S^2
    solves filled(t) = sigma_A^2/sigma_S^2 on (0, 4), where filled is
    increasing and convex; Newton from t = 4 falls monotonically onto the
    root and stops where a step no longer lowers t.
    """
    if sigma_A_sq <= 0 or sigma_S_sq <= 0:
        raise ValueError("sigma_A_sq and sigma_S_sq must be positive")
    if sigma_A_sq >= 2.0 * sigma_S_sq:
        return sigma_A_sq + 2.0 * sigma_S_sq
    q = sigma_A_sq / sigma_S_sq  # target in units of sigma_S^2
    t = 4.0
    for _ in range(_NEWTON_STEPS):
        filled, slope = _filled(t)
        t_next = t - (filled - q) / slope
        if not t_next < t:
            return t * sigma_S_sq
        t = t_next
    raise NumericalError(f"waterfill_nu: Newton did not settle at sigma_A^2/sigma_S^2 = {q:g}")


def waterfill_residual(nu: float, sigma_A_sq: float, sigma_S_sq: float) -> float:
    """Constraint residual |int (nu - S(f))^+ df - sigma_A^2| by quadrature.

    The (.)^+ kink sits at the band edge f0 = asin(sqrt(nu/(4 sigma_S^2)))/pi
    (1/2 once nu >= 4 sigma_S^2), in closed form, so Gauss-Legendre only ever
    sees a smooth integrand.
    """
    f_edge = math.asin(min(1.0, math.sqrt(nu / (4.0 * sigma_S_sq)))) / math.pi
    nodes, weights = gauss_legendre(_RESIDUAL_NODES)
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


def _lower_bound(p: DerivedParams, db: DistortionBounds) -> tuple[float, float, float, float]:
    """Lower bound, unclamped, with its parts: (genie rate, mu_bar, h_v rate,
    genie - h_v) in nats/s, from the upper variance and the lower curvature."""
    g_lower = genie_lower_rate(p, db.sigma_z_sq_hi)
    mu_bar = rice_mu(p, db.sigma_z_sq_hi, db.s2_zz_lo)
    h_v_rate = h_vk_upper(mu_bar) / p.T_avg
    return g_lower, mu_bar, h_v_rate, g_lower - h_v_rate


@dataclass(frozen=True)
class BoundReport:
    """All headline quantities for one parameter point, rates in nats/s.

    lower_rate is clamped at zero (it bounds a nonnegative quantity);
    lower_rate_raw keeps the unclamped value for plotting.  The upper bound
    ignores insertions, so the genie water-filling rate is the final upper
    bound.
    """

    lower_rate: float
    lower_rate_raw: float
    upper_rate: float
    genie_lower: float
    mu_bar: float
    h_v_rate: float
    nu: float
    sigma_S_sq: float       # shift variance used by the upper bound (lower sigma_z^2)
    sdr: DistortionBounds
    awgn: float
    clamped: bool


def bound_report(params: DerivedParams) -> BoundReport:
    """Compute lower/upper mutual-information-rate bounds and all intermediates."""
    p = params
    db = distortion_bounds(p)

    g_lower, mu_bar, h_v_rate, lower_raw = _lower_bound(p, db)
    lower = max(lower_raw, 0.0)

    # upper bound: lower distortion variance
    s_sq_lo = sigma_S_sq(p, db.sigma_z_sq_lo)
    nu = waterfill_nu(p.sigma_A_sq, s_sq_lo)
    upper = _waterfill_rate_per_symbol(nu, s_sq_lo) / p.T_avg

    return BoundReport(
        lower_rate=lower,
        lower_rate_raw=lower_raw,
        upper_rate=upper,
        genie_lower=g_lower,
        mu_bar=mu_bar,
        h_v_rate=h_v_rate,
        nu=nu,
        sigma_S_sq=s_sq_lo,
        sdr=db,
        awgn=awgn_capacity(p.W, p.rho),
        clamped=lower_raw < 0.0,
    )


def delta_offset(k: float, rho: float) -> float:
    """Log-offset between the AWGN capacity and the lower bound, in nats.

    Equals ln[W ln(1+rho) / lower_rate_raw] at W = k, lam = 1; +inf where the
    unclamped lower bound is nonpositive (the offset is undefined there).
    """
    p = derive(k, 1.0, rho)
    lower_raw = _lower_bound(p, distortion_bounds(p))[3]
    if lower_raw <= 0.0:
        return math.inf
    return math.log(awgn_capacity(k, rho) / lower_raw)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# golden-section search interval and stopping width of k_opt
_K_BRACKET = (0.05, 5.0)
_K_TOL = 1e-4


def k_opt(rho: float) -> float:
    """Ratio k minimizing the AWGN offset at a given SNR (golden-section search
    over k in [0.05, 5], to a width of 1e-4).

    Raises NumericalError when the offset is infinite (the lower bound
    nonpositive) at every probed k: there is no minimum to find, and the
    search would return the bracket edge.  It also raises when the search
    ends within the width of either bracket edge: the offset is still falling
    there, so the minimum lies outside the bracket.
    """
    lo, hi = _K_BRACKET
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = delta_offset(c, rho), delta_offset(d, rho)
    finite = math.isfinite(fc) or math.isfinite(fd)
    while b - a > _K_TOL:
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
            f"the lower bound is nonpositive at every probed k in {_K_BRACKET} at rho = {rho:g}"
        )
    k = 0.5 * (a + b)
    for edge, name in ((lo, "lower"), (hi, "upper")):
        if abs(k - edge) <= _K_TOL:
            raise NumericalError(
                f"the search ended at the {name} bracket edge k = {edge:g} at rho = {rho:g}:"
                f" the minimum lies outside {_K_BRACKET}"
            )
    return k


def high_snr_limit(k: float, W: float) -> float:
    """rho -> inf limit of the lower bound, nats/s: the bound at N0 = 0, where
    only the lowpass distortion remains; exactly linear in W."""
    if k <= 0 or W <= 0:
        raise ValueError("k and W must be positive")
    p = replace(derive(W, W / k, 1.0), rho=math.inf, N0=0.0, sigma_nhat_sq=0.0)
    return _lower_bound(p, distortion_bounds(p))[3]
