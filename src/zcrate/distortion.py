"""Lowpass-distortion statistics of the transmit signal.

The transmit signal is not strictly bandlimited; the ideal filters clip the
out-of-band tail.  The clipped energy acts as an extra noise source whose
variance is only known up to the PSD sandwich.  With the substitution
u = omega * beta both tail integrals become parameter-free, leaving two
universal constants:

    c0 = 4 pi^5 int_pi^inf (1 + cos u) / (u^2 (pi^2 - u^2)^2) du
    c2 = 4 pi^3 int_pi^inf (1 + cos u) / (pi^2 - u^2)^2 du

with closed forms in terms of Si/Ci.  Most of this module is bookkeeping
around them: the variance bounds, the curvature bound of the distortion ACF,
the total-noise combination, and the signal-to-distortion ratio.

At a nonzero lag the distortion ACF and its derivatives need the moments
``acf_tail_moment``.  They need no adaptive quadrature either: fixed
Gauss-Legendre panels take the head [pi, 4 pi], and beyond it the envelope
splits into partial fractions whose Fourier integrals are closed forms in
Si/Ci.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import sici

from .params import DerivedParams
from .quadrature import NumericalError, gauss_legendre
from .spectrum import g_mag_sq

__all__ = [
    "c0_constant",
    "c2_constant",
    "c1_of_k",
    "DistortionBounds",
    "distortion_bounds",
    "acf_tail_moment",
]


@lru_cache(maxsize=1)
def c0_constant() -> float:
    """Universal constant of the clipped-energy integral (Si/Ci closed form)."""
    gamma = np.euler_gamma
    si_pi, _ = sici(math.pi)
    si_2pi, ci_2pi = sici(2.0 * math.pi)
    return float(
        -3.0 * gamma
        - 3.0 * math.log(2.0 * math.pi)
        + 3.0 * ci_2pi
        - math.pi**2
        + 4.0 * math.pi * si_pi
        - math.pi * si_2pi
    )


@lru_cache(maxsize=1)
def c2_constant() -> float:
    """Universal constant of the clipped second-spectral-moment integral."""
    gamma = np.euler_gamma
    si_2pi, ci_2pi = sici(2.0 * math.pi)
    return float(
        math.pi**2 - gamma - math.log(2.0 * math.pi) - math.pi * si_2pi + ci_2pi
    )


def c1_of_k(k: float) -> float:
    """Correlation factor at the band edge, c1 = c(2 pi W), as a function of k."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return 1.0 / (math.sqrt(1.0 + 4.0 * math.pi**2 * k**2) - 1.0)


# Distinct (m, r, kind) arguments kept by the moment cache.  A grid point of
# variance_curve_crossings asks for 146 of them, the same ones at every point.
_ACF_CACHE_SIZE = 4096

# The head [pi, 4 pi] takes Gauss-Legendre panels of 48 nodes, one panel per
# 10 units of lag.  The integrand is analytic there (the point pi is
# removable, the nearest singularity is u = 0), so one panel reaches
# round-off for r <= 10; more panels keep the phase per panel as small.
_HEAD_END = 4.0 * math.pi
_HEAD_NODES = 48
_LAG_PER_PANEL = 10.0

# Partial fractions of u^(m-2) / (u^2 - pi^2)^2 over its poles p in
# {0, pi, -pi}: (p, coefficient of 1/(u - p), coefficient of 1/(u - p)^2).
# The simple-pole coefficients sum to 0, so their logarithms cancel at w = 0.
_PARTIAL_FRACTIONS = {
    0: ((0.0, 0.0, 1.0 / math.pi**4),
        (math.pi, -3.0 / (4.0 * math.pi**5), 1.0 / (4.0 * math.pi**4)),
        (-math.pi, 3.0 / (4.0 * math.pi**5), 1.0 / (4.0 * math.pi**4))),
    1: ((0.0, 1.0 / math.pi**4, 0.0),
        (math.pi, -1.0 / (2.0 * math.pi**4), 1.0 / (4.0 * math.pi**3)),
        (-math.pi, -1.0 / (2.0 * math.pi**4), -1.0 / (4.0 * math.pi**3))),
    2: ((math.pi, -1.0 / (4.0 * math.pi**3), 1.0 / (4.0 * math.pi**2)),
        (-math.pi, 1.0 / (4.0 * math.pi**3), 1.0 / (4.0 * math.pi**2))),
}


@lru_cache(maxsize=8)
def _head_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u on [pi, 4 pi] and weights with the pulse-spectrum shape
    w(u) = |G(u/beta)|^2 / beta^2 = g_mag_sq(u, 1) folded in, for ``panels``
    Gauss-Legendre panels of _HEAD_NODES nodes each."""
    x, wt = gauss_legendre(_HEAD_NODES)
    half = 0.5 * (_HEAD_END - math.pi) / panels
    mid = math.pi + half * (2.0 * np.arange(panels) + 1.0)
    u = (mid[:, None] + half * x).ravel()
    return u, np.tile(half * wt, panels) * g_mag_sq(u, 1.0)


def _tail(m: int, w: float, kind: str) -> float:
    """int_{4 pi}^inf h_m(u) trig(w u) du, h_m(u) = 2 pi^4 u^(m-2) / (u^2 - pi^2)^2.

    Each partial fraction integrates in Si/Ci: with b = 4 pi - p,
    int cos(wu)/(u - p) = -cos(wp) Ci(wb) - sin(wp) (pi/2 - Si(wb)) and
    int sin(wu)/(u - p) = cos(wp) (pi/2 - Si(wb)) - sin(wp) Ci(wb); the
    squared terms follow by parts.  At w = 0 (cosine only) the terms are
    -ln b and 1/b.
    """
    total = 0.0
    for p, simple, double in _PARTIAL_FRACTIONS[m]:
        b = _HEAD_END - p
        if w == 0.0:
            total += -simple * math.log(b) + double / b
            continue
        si, ci = sici(w * b)
        cos_wp, sin_wp = math.cos(w * p), math.sin(w * p)
        rest = 0.5 * math.pi - si
        i_cos = -cos_wp * ci - sin_wp * rest
        i_sin = cos_wp * rest - sin_wp * ci
        if kind == "cos":
            total += simple * i_cos + double * (math.cos(w * _HEAD_END) / b - w * i_sin)
        else:
            total += simple * i_sin + double * (math.sin(w * _HEAD_END) / b + w * i_cos)
    return 2.0 * math.pi**4 * float(total)


def acf_tail_moment(m: int, r: float, kind: str = "cos") -> float:
    """int_pi^inf u^m w(u) trig(u r) du for m in {0, 1, 2}.

    These are the building blocks of the distortion ACF and its derivatives
    at lag tau = r * beta.  The finite stretch [pi, 4 pi] carries the
    removable singularity of w and takes fixed Gauss-Legendre panels.  Beyond
    it u^m w(u) = h_m(u) (1 + cos u), the product with trig(u r) splits into
    three pure tones of frequency r, r + 1 and |r - 1|, and h_m splits into
    partial fractions whose Fourier tails are closed forms in Si/Ci
    (Abramowitz & Stegun 5.2), exact at every frequency, 0 included.

    The moments depend on no channel parameter, and variance_curve_crossings
    integrates over T = beta, so every grid point asks for the same lags:
    values are memoised per (m, r, kind).  The cosine moment is even in r
    and the sine moment odd.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"m must be 0, 1, or 2, got {m}")
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    value = _acf_tail_moment(int(m), abs(r), kind)
    return -value if kind == "sin" and r < 0.0 else value


@lru_cache(maxsize=_ACF_CACHE_SIZE)
def _acf_tail_moment(m: int, r: float, kind: str) -> float:
    u, weights = _head_rule(max(1, math.ceil(r / _LAG_PER_PANEL)))
    trig = np.cos if kind == "cos" else np.sin
    head = float(weights @ (u**m * trig(u * r)))

    # trig(ur)(1 + cos u) = trig(ur) + [trig(u(r+1)) + trig(u(r-1))]/2
    if kind == "cos":
        parts = [(1.0, r), (0.5, r + 1.0), (0.5, abs(r - 1.0))]
    else:
        parts = [(1.0, r), (0.5, r + 1.0), (0.5 * math.copysign(1.0, r - 1.0), abs(r - 1.0))]
    tail = sum(
        coeff * _tail(m, w, kind)
        for coeff, w in parts
        if kind == "cos" or w != 0.0  # sin(0 * u) vanishes
    )
    value = head + tail
    if not math.isfinite(value):
        raise NumericalError(f"acf_tail_moment(m={m}, r={r:.6g}, {kind}) is not finite")
    return value


@dataclass(frozen=True)
class DistortionBounds:
    """Bounds on the clipped-energy variance and related total-noise terms.

    sigma_xt_sq_lo/hi  : distortion variance sandwich (hi/lo = (1+2c1)^2)
    s2_xt_lo           : lower (most negative) bound on the distortion ACF
                         curvature at lag 0
    sigma_z_sq_lo/hi   : total-noise variance, filtered noise + distortion
    s2_zz_lo           : lower bound on the total-noise ACF curvature
    sdr_lo/hi          : signal-to-distortion ratio sandwich, P/sigma_xt^2
    """

    sigma_xt_sq_lo: float
    sigma_xt_sq_hi: float
    s2_xt_lo: float
    sigma_z_sq_lo: float
    sigma_z_sq_hi: float
    s2_zz_lo: float
    sdr_lo: float
    sdr_hi: float


def distortion_bounds(params: DerivedParams) -> DistortionBounds:
    p = params
    c1 = c1_of_k(p.k)
    c0 = c0_constant()
    c2 = c2_constant()
    base = p.P_hat * p.beta * c0 / (2.0 * p.T_avg * math.pi**2)
    sigma_xt_sq_hi = (1.0 + 2.0 * c1) * base
    sigma_xt_sq_lo = base / (1.0 + 2.0 * c1)
    s2_xt_lo = -(1.0 + 2.0 * c1) * p.P_hat * c2 / (2.0 * p.T_avg * p.beta)
    noise_var = p.sigma_nhat_sq
    # curvature of the filtered-noise ACF N0 W sinc(2 W tau) at 0
    s2_nn = -(4.0 / 3.0) * math.pi**2 * p.N0 * p.W**3
    return DistortionBounds(
        sigma_xt_sq_lo=sigma_xt_sq_lo,
        sigma_xt_sq_hi=sigma_xt_sq_hi,
        s2_xt_lo=s2_xt_lo,
        sigma_z_sq_lo=noise_var + sigma_xt_sq_lo,
        sigma_z_sq_hi=noise_var + sigma_xt_sq_hi,
        s2_zz_lo=s2_nn + s2_xt_lo,
        sdr_lo=p.P / sigma_xt_sq_hi,
        sdr_hi=p.P / sigma_xt_sq_lo,
    )
