"""Shared numeric helpers.

Cached Gauss-Legendre rules, the log-singular integrals that the
water-filling rate and the arcosh identity need, and a wrapper around
scipy's adaptive quadrature (QUADPACK) that turns silent accuracy loss into
a hard error.  QUADPACK backs only the ``constants`` oracle and the tests, so
``scipy.integrate`` is imported on the first call of ``quad_checked``, not
with this module.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable

import numpy as np
# numpy imports numpy.polynomial on first attribute access; importing it here
# keeps that cost in start-up rather than in the first quadrature rule
from numpy.polynomial.legendre import leggauss

__all__ = ["NumericalError", "quad_checked", "log_sine_integral", "gauss_legendre"]


class NumericalError(RuntimeError):
    """Raised when a quadrature fails to reach the requested accuracy."""


# QUADPACK tolerances and subinterval limit of every quad_checked call
_EPSABS = 1e-13
_EPSREL = 1e-12
_LIMIT = 200


def quad_checked(f: Callable[[float], float], a: float, b: float, label: str,
                 **kwargs) -> float:
    """scipy.integrate.quad with the error estimate actually enforced;
    ``kwargs`` (a ``weight`` and its ``wvar``) pass through to quad."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            f, a, b, epsabs=_EPSABS, epsrel=_EPSREL, limit=_LIMIT, **kwargs
        )
    tol = max(_EPSABS, abs(value) * _EPSREL) * 100.0
    if not math.isfinite(value) or abserr > max(tol, 1e-9 * max(1.0, abs(value))):
        raise NumericalError(
            f"{label}: quadrature on [{a}, {b}] did not converge "
            f"(value={value!r}, abserr={abserr!r})"
        )
    return value


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    return leggauss(n)


# Gauss-Legendre nodes for the smooth remainder of log_sine_integral
_LOG_SINE_NODES = 80


def log_sine_integral(x: float) -> float:
    """integral_0^x ln(sin(pi f)) df for 0 <= x <= 1/2.

    The integrand has a logarithmic endpoint singularity at f = 0; it is
    split off analytically: ln sin(pi f) = ln(pi f) + ln(sinc-like smooth
    part), leaving Gauss-Legendre with a smooth remainder.
    """
    if x < 0 or x > 0.5 + 1e-12:
        raise ValueError(f"x must lie in [0, 1/2], got {x}")
    if x == 0:
        return 0.0
    # analytic piece: int_0^x ln(pi f) df = x (ln(pi x) - 1)
    analytic = x * (math.log(math.pi * x) - 1.0)
    nodes, weights = gauss_legendre(_LOG_SINE_NODES)
    f = 0.5 * x * (nodes + 1.0)
    smooth = np.log(np.sinc(f))  # np.sinc(f) = sin(pi f)/(pi f)
    return analytic + 0.5 * x * float(np.dot(weights, smooth))

