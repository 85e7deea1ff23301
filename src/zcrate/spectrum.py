"""Analytic power spectral density of the zero-crossing transmit signal.

The signal is a random square-ish wave with sine-shaped level transitions of
duration ``beta``.  Its PSD factors into the transition-pulse spectrum
|G(omega)|^2 and a correlation sum over the random crossing spacings.  The
alternating correlation sum cannot be evaluated in closed form, but it is
sandwiched between two closed-form expressions, which gives pointwise upper
and lower PSD bounds.  A truncated (Cesaro-weighted) version of the sum with
the exact spacing-sum characteristic function provides a finite-block
approximation of the true PSD.

The evaluators follow numpy's shape rule: a scalar or an array of any shape
in, the same shape out, a numpy float for a scalar.
"""

from __future__ import annotations

import math

import numpy as np

from .params import DerivedParams

__all__ = [
    "PoleError",
    "g_mag_sq",
    "correlation_factor",
    "band_edge_correlation",
    "expected_cos",
    "psd_bounds",
    "psd_finite_k",
]


class PoleError(ValueError):
    """Signalled when a spectral quantity is evaluated at its omega = 0 pole."""


def g_mag_sq(omega, beta: float):
    """Squared magnitude of the transition-pulse spectrum (sine transition).

    |G(w)|^2 = 2 (1 + cos(w b)) * [pi^2 / (w (pi^2 - w^2 b^2))]^2.

    The zero of (1 + cos) cancels the pole of the bracket at |w b| = pi; a
    4th-order series takes over within 1e-4 of that point to avoid
    cancellation.  omega = 0 is a genuine pole (~ 4/w^2) and raises
    :class:`PoleError`.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    x = np.abs(np.asarray(omega, dtype=float)) * beta
    if np.any(x == 0):
        raise PoleError("g_mag_sq has a pole at omega = 0")
    out = np.empty_like(x)
    u = x - np.pi
    near = np.abs(u) < 1e-4
    un = u[near]
    series = (1.0 - un**2 / 12.0 + un**4 / 360.0) / ((np.pi + un) ** 2 * (2.0 * np.pi + un) ** 2)
    out[near] = np.pi**4 * beta**2 * series
    far = ~near
    xf = x[far]
    # 1 + cos(x) = 2 cos^2(x/2), stable away from the removable point
    out[far] = (
        4.0 * np.cos(xf / 2.0) ** 2 * np.pi**4 * beta**2
        / (xf**2 * (np.pi**2 - xf**2) ** 2)
    )
    return out[()]


def correlation_factor(omega, lam: float):
    """Geometric-sum factor c(w) = lam / (sqrt(lam^2 + w^2) - lam).

    Evaluated as lam (sqrt(lam^2 + w^2) + lam) / w^2 to stay accurate for
    small |w|; diverges at w = 0 (PoleError).
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    w = np.asarray(omega, dtype=float)
    if np.any(w * w == 0):  # omega^2 underflows below about 1e-162 too
        raise PoleError("correlation_factor has a pole at omega = 0")
    c = lam * (np.sqrt(lam**2 + w**2) + lam) / w**2
    return c[()]


def band_edge_correlation(k: float) -> float:
    """c(2 pi W; lam) = c(2 pi k; 1), the correlation factor at the band edge,
    as a float: correlation_factor's formula in scalar math, bit for bit,
    without numpy's per-call cost on 0-d arrays (about 30 times the
    arithmetic)."""
    w = 2.0 * math.pi * k
    w_sq = w * w
    if w_sq == 0:
        raise PoleError("correlation_factor has a pole at omega = 0")
    return (math.sqrt(1.0 + w_sq) + 1.0) / w_sq


def expected_cos(omega: float, n: int, lam: float, beta: float) -> float:
    """E[cos(w L_n)] for L_n = sum of n consecutive spacings.

    Equals r^n cos(n (w beta + atan(w/lam))) with r = lam/sqrt(lam^2+w^2);
    |value| <= r^n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = lam / math.hypot(lam, omega)
    phase = omega * beta + math.atan2(omega, lam)
    return r**n * math.cos(n * phase)


def psd_bounds(omega, params: DerivedParams):
    """The PSD sandwich (lower, upper); both sides even in omega.

    upper(w) = (P_hat/T_avg) (1 + 2 c(w)) |G(w)|^2
    lower(w) = (P_hat/T_avg) |G(w)|^2 / (1 + 2 c(w))
    """
    p = params
    g = g_mag_sq(omega, p.beta)
    onep2c = 1.0 + 2.0 * correlation_factor(omega, p.lam)
    scale = p.P_hat / p.T_avg
    return scale * g / onep2c, scale * onep2c * g


def psd_finite_k(omega, params: DerivedParams, K: int = 10**5):
    """Finite-block PSD approximation via the Cesaro-truncated correlation sum.

    Sums (-1)^n (1 - n/K) E[cos(w L_n)] for n < K in closed form by writing
    the terms as the real part of powers of z = -r exp(i theta).
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    p = params
    # trailing axis: numpy's scalar complex arithmetic rounds unlike its loops
    w = np.asarray(omega, dtype=float)[..., None]
    if np.any(w == 0):
        raise PoleError("psd_finite_k has a pole at omega = 0")
    r = p.lam / np.hypot(p.lam, w)
    theta = w * p.beta + np.arctan2(w, p.lam)
    z = -r * np.exp(1j * theta)
    zK1 = z ** (K - 1)
    s1 = z * (1.0 - zK1) / (1.0 - z)
    s2 = z * (1.0 - K * zK1 + (K - 1) * zK1 * z) / (1.0 - z) ** 2
    cesaro = np.real(s1 - s2 / K)
    psd = (p.P_hat * g_mag_sq(w, p.beta) / p.T_avg) * (1.0 + 2.0 * cesaro)
    return psd[..., 0][()]
