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

from .params import DerivedParams
from .quadrature import NumericalError, gauss_legendre, horner
from .spectrum import band_edge_correlation, g_mag_sq

__all__ = [
    "c0_constant",
    "c2_constant",
    "DistortionBounds",
    "distortion_bounds",
    "acf_tail_moment",
]


# Si and Ci take their power series up to x = 2 and the auxiliary functions
# f and g above it (Abramowitz & Stegun 5.2.6-7).  x f(x) and x^2 g(x) are
# rationals in s = (x0/x)^2, x0 = 2 on (2, 4] and x0 = 4 above, from
# tools/fit_special_functions.py: (numerator, denominator), lowest power first.
# The series stop where their next term is below 1e-19 at x = 2.
_SICI_MID = 2.0
_SICI_FAR = 4.0
_SI_SERIES = tuple((-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)) for n in range(13))
_CIN_SERIES = tuple((-1) ** (n + 1) / ((2 * n + 2) * math.factorial(2 * n + 2)) for n in range(13))
_SICI_NEAR_F = (
    (
        0.9999925631549329,
        23.29687028481259,
        165.2682117840946,
        453.6161677651086,
        501.1169932359512,
        207.31690384102382,
        25.363861049976204,
        0.4087595773685018,
    ),
    (
        1.0,
        23.79630718611231,
        175.6910093624455,
        516.1334483031766,
        636.9737548606687,
        316.39999703782564,
        53.93980642766448,
        2.0247108998036256,
    ),
)
_SICI_NEAR_G = (
    (
        0.9999529611005232,
        26.091967480883312,
        203.02956150136623,
        597.3717003936895,
        689.2970041379609,
        287.4985608071961,
        32.91590035701918,
        0.2953398421558612,
    ),
    (
        1.0,
        27.588087826536622,
        237.100156865637,
        817.2210017995203,
        1200.1880126502517,
        727.5782885946641,
        158.85384820547455,
        8.539951297084428,
    ),
)
_SICI_FAR_F = (
    (
        1.0,
        58.06014840725768,
        1220.2312451552314,
        12054.471149122608,
        60920.48567492178,
        160872.96124167688,
        217776.23708641256,
        142232.57895240534,
        39546.14715433129,
        3578.727948402629,
        46.26127365299899,
    ),
    (
        1.0,
        58.185148407257614,
        1227.4106387061881,
        12202.618402533104,
        62340.35585390723,
        167704.9289797626,
        234457.61886004146,
        162178.42010648438,
        50229.33128897792,
        5709.483781904905,
        147.0388635762897,
    ),
)
_SICI_FAR_G = (
    (
        0.9999999999999999,
        64.83430793893129,
        1526.6926900844312,
        16942.780911674694,
        96327.07091296487,
        286015.67498902767,
        433754.60323802213,
        314504.17387134815,
        95144.3047389142,
        8869.547279077873,
        80.04965302633869,
    ),
    (
        1.0,
        65.20930793893072,
        1550.677430562011,
        17494.94855363522,
        102235.49750771905,
        317738.28315624717,
        520035.7302433885,
        429187.2463656711,
        163390.5656790445,
        24080.25117534393,
        907.9665708390362,
    ),
)


def _sici(x: float) -> tuple[float, float]:
    """Si(x) and Ci(x) for finite x > 0, to about 1e-15 relative where
    |value| >= 0.1 and 1e-16 absolute below.

    Up to x = 2, Si = sum (-1)^n x^(2n+1) / ((2n+1) (2n+1)!) and
    Ci = gamma + ln x + sum (-1)^n x^(2n) / (2n (2n)!); above it
    Si = pi/2 - f cos x - g sin x and Ci = f sin x - g cos x, which keeps Ci
    accurate past its zero at x = 3.38 where gamma + ln x would cancel.
    """
    if x <= _SICI_MID:
        z = x * x
        return x * horner(_SI_SERIES, z), np.euler_gamma + math.log(x) + z * horner(_CIN_SERIES, z)
    if x <= _SICI_FAR:
        x0, (f_num, f_den), (g_num, g_den) = _SICI_MID, _SICI_NEAR_F, _SICI_NEAR_G
    else:
        x0, (f_num, f_den), (g_num, g_den) = _SICI_FAR, _SICI_FAR_F, _SICI_FAR_G
    s = (x0 / x) ** 2
    f = horner(f_num, s) / horner(f_den, s) / x
    g = horner(g_num, s) / horner(g_den, s) / (x * x)
    sin_x, cos_x = math.sin(x), math.cos(x)
    return 0.5 * math.pi - f * cos_x - g * sin_x, f * sin_x - g * cos_x


@lru_cache(maxsize=1)
def c0_constant() -> float:
    """Universal constant of the clipped-energy integral (Si/Ci closed form)."""
    gamma = np.euler_gamma
    si_pi, _ = _sici(math.pi)
    si_2pi, ci_2pi = _sici(2.0 * math.pi)
    return (
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
    si_2pi, ci_2pi = _sici(2.0 * math.pi)
    return math.pi**2 - gamma - math.log(2.0 * math.pi) - math.pi * si_2pi + ci_2pi


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
        si, ci = _sici(w * b)
        cos_wp, sin_wp = math.cos(w * p), math.sin(w * p)
        rest = 0.5 * math.pi - si
        i_cos = -cos_wp * ci - sin_wp * rest
        i_sin = cos_wp * rest - sin_wp * ci
        if kind == "cos":
            total += simple * i_cos + double * (math.cos(w * _HEAD_END) / b - w * i_sin)
        else:
            total += simple * i_sin + double * (math.sin(w * _HEAD_END) / b + w * i_cos)
    return 2.0 * math.pi**4 * total


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
    # band-edge correlation factor c(2 pi W; lam) = c(2 pi k; 1)
    c1 = band_edge_correlation(p.k)
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
