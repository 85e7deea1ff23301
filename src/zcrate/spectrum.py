"""Analytic power spectral density of the zero-crossing transmit signal.

The signal is a random square-ish wave with sine-shaped level transitions of
duration ``beta``.  Its PSD factors into the transition-pulse spectrum
|G(omega)|^2 and a correlation sum over the random crossing spacings.  The
alternating correlation sum cannot be evaluated in closed form, but it is
sandwiched between two closed-form expressions, which gives pointwise upper
and lower PSD bounds.  A truncated (Cesaro-weighted) version of the sum with
the exact spacing-sum characteristic function provides a finite-block
approximation of the true PSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .params import DerivedParams

__all__ = [
    "PoleError",
    "g_mag_sq",
    "correlation_factor",
    "expected_cos",
    "pdf_L",
    "PsdBounds",
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
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    x = np.abs(np.atleast_1d(omega)) * beta
    if np.any(x == 0):
        raise PoleError("g_mag_sq has a pole at omega = 0")
    out = np.empty_like(x)
    u = x - np.pi
    near = np.abs(u) < 1e-4
    if np.any(near):
        un = u[near]
        series = (1.0 - un**2 / 12.0 + un**4 / 360.0) / ((np.pi + un) ** 2 * (2.0 * np.pi + un) ** 2)
        out[near] = np.pi**4 * beta**2 * series
    far = ~near
    if np.any(far):
        xf = x[far]
        # 1 + cos(x) = 2 cos^2(x/2), stable away from the removable point
        out[far] = (
            4.0 * np.cos(xf / 2.0) ** 2 * np.pi**4 * beta**2
            / (xf**2 * (np.pi**2 - xf**2) ** 2)
        )
    return float(out[0]) if scalar else out


def correlation_factor(omega, lam: float):
    """Geometric-sum factor c(w) = lam / (sqrt(lam^2 + w^2) - lam).

    Evaluated as lam (sqrt(lam^2 + w^2) + lam) / w^2 to stay accurate for
    small |w|; diverges at w = 0 (PoleError).
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)
    if np.any(w == 0):
        raise PoleError("correlation_factor has a pole at omega = 0")
    c = lam * (np.sqrt(lam**2 + w**2) + lam) / w**2
    return float(c[0]) if scalar else c


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


def pdf_L(l, n: int, lam: float, beta: float):
    """Density of the sum of n spacings: a shifted Erlang on [n beta, inf)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    l = np.asarray(l, dtype=float)
    scalar = l.ndim == 0
    t = np.atleast_1d(l) - n * beta
    out = np.zeros_like(t)
    pos = t > 0
    if np.any(pos):
        tp = t[pos]
        out[pos] = np.exp(
            n * math.log(lam) - lam * tp + (n - 1) * np.log(tp) - gammaln(n)
        )
    if n == 1:
        out[t == 0] = lam  # support endpoint carries the full density for n=1
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PsdBounds:
    """Evaluator pair for the PSD sandwich; both sides even in omega.

    upper(w) = (P_hat/T_avg) (1 + 2 c(w)) |G(w)|^2
    lower(w) = (P_hat/T_avg) |G(w)|^2 / (1 + 2 c(w))
    """

    params: DerivedParams

    def _common(self, omega):
        p = self.params
        g = g_mag_sq(omega, p.beta)
        c = correlation_factor(omega, p.lam)
        scale = p.P_hat / p.T_avg
        return g, 1.0 + 2.0 * c, scale

    def upper(self, omega):
        g, onep2c, scale = self._common(omega)
        return scale * onep2c * g

    def lower(self, omega):
        g, onep2c, scale = self._common(omega)
        return scale * g / onep2c

    def at(self, omega):
        g, onep2c, scale = self._common(omega)
        return scale * g / onep2c, scale * onep2c * g


def psd_bounds(params: DerivedParams) -> PsdBounds:
    return PsdBounds(params)


def psd_finite_k(omega, params: DerivedParams, K: int = 10**5):
    """Finite-block PSD approximation via the Cesaro-truncated correlation sum.

    Sums (-1)^n (1 - n/K) E[cos(w L_n)] for n < K in closed form by writing
    the terms as the real part of powers of z = -r exp(i theta).
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    p = params
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)
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
    return float(psd[0]) if scalar else psd
