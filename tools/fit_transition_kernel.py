"""Fit the coefficient tables of ``zcrate.simulate.transition_distortion``.

Run from the root of a checkout (needs mpmath):

    python tools/fit_transition_kernel.py

It prints the five tables as the Python literals that ``simulate.py`` holds;
``tests/test_simulate.py`` runs :func:`fit_tables` and checks that the
literals equal its output.  Everything is computed with mpmath at 30 digits
from the defining integrals, then rounded once to double.

With z = pi tau/beta, the filtered unit transition is
F(z) = (1/pi) int_{-pi/2}^{pi/2} cos v Si(z - v) dv and kappa = F - sin(clip(z)).

* Near field, |z| < 4: F is entire and odd; its odd Chebyshev coefficients
  in z/4, through T_23 (the first one dropped is below 1e-19).
* Mid and far field, |z| >= 4: with the auxiliary functions f and g of
  Abramowitz & Stegun 5.2.6-7 (Si = pi/2 - f cos - g sin, Ci = f sin - g cos)
  and H = f - i g, let S(x) = int_{-pi/2}^{pi/2} cos v e^{-iv} H(x - v) dv,
  P = x Re S and Q = x^2 Im S.  Then exactly
  kappa(z) = (sin z Q(|z|)/z - cos z P(|z|)) / (pi z).
  The tables hold P/pi and Q/pi:
  - on 4 <= x < 48, as Chebyshev series in 1/x mapped from [1/48, 1/4]
    onto [-1, 1] (26 and 30 coefficients);
  - on x >= 48, as the asymptotic series in 1/x^2 (10 terms each), from
    H(x) ~ sum_m m! (-i)^m x^-(m+1): S(x) ~ sum_n c_n x^-(n+1) with
    c_n = sum_m m! (-i)^m C(n, m) mu_{n-m} and
    mu_j = int_{-pi/2}^{pi/2} cos v e^{-iv} v^j dv.
"""

from __future__ import annotations

import mpmath as mp

MID = 4         # |z| where the mid field begins (simulate._KAPPA_MID)
FAR = 48        # |z| where the far field begins (simulate._KAPPA_FAR)
N_NEAR = 12     # odd Chebyshev coefficients T_1 .. T_23
N_MID_P = 26
N_MID_Q = 30
N_FAR = 10      # terms in 1/x^2 of each asymptotic series
NODES = 48      # Chebyshev interpolation nodes per fit

TABLES = ("_KAPPA_NEAR", "_KAPPA_MID_P", "_KAPPA_MID_Q", "_KAPPA_FAR_P", "_KAPPA_FAR_Q")


def _integral(fun):
    return mp.quad(fun, [-mp.pi / 2, mp.pi / 2])


def filtered(z):
    """F(z), the brick-wall lowpass output of the unit sine transition."""
    return _integral(lambda v: mp.cos(v) * mp.si(z - v)) / mp.pi


def aux_pq(x):
    """P(x) and Q(x) for x >= 4.

    e^{ix} S(x) = int cos v [(pi/2 - Si(x - v)) + i Ci(x - v)] dv, since
    e^{iy} H(y) = (f cos y + g sin y) + i (f sin y - g cos y).
    """
    re = _integral(lambda v: mp.cos(v) * (mp.pi / 2 - mp.si(x - v)))
    im = _integral(lambda v: mp.cos(v) * mp.ci(x - v))
    s = mp.exp(-1j * x) * mp.mpc(re, im)
    return x * s.real, x * x * s.imag


def _chebyshev(values):
    """Coefficients c_0 .. c_{n-1} (c_0 halved) of the interpolant through
    ``values`` at the n Chebyshev points cos(pi (k + 1/2)/n)."""
    n = len(values)
    coef = [2 * mp.fsum(v * mp.cos(mp.pi * j * (k + mp.mpf(1) / 2) / n)
                        for k, v in enumerate(values)) / n
            for j in range(n)]
    coef[0] /= 2
    return coef


def _nodes():
    return [mp.cos(mp.pi * (k + mp.mpf(1) / 2) / NODES) for k in range(NODES)]


def near_table():
    # F is odd, so F at the negative nodes is minus F at the positive ones
    half = [filtered(MID * s) for s in _nodes()[:NODES // 2]]
    coef = _chebyshev(half + [-v for v in reversed(half)])
    return coef[1:2 * N_NEAR:2]


def mid_tables():
    lo, hi = mp.mpf(1) / FAR, mp.mpf(1) / MID
    pq = [aux_pq(1 / ((hi - lo) / 2 * t + (hi + lo) / 2)) for t in _nodes()]
    p = _chebyshev([v[0] / mp.pi for v in pq])[:N_MID_P]
    q = _chebyshev([v[1] / mp.pi for v in pq])[:N_MID_Q]
    return p, q


def asymptotic_coefficients(n_max):
    """c_0 .. c_{n_max - 1} of S(x) ~ sum_n c_n x^-(n+1)."""
    mu = [_integral(lambda v, j=j: mp.cos(v) * mp.exp(-1j * v) * v**j) for j in range(n_max)]
    return [mp.fsum(mp.factorial(m) * (-1j) ** m * mp.binomial(n, m) * mu[n - m]
                    for m in range(n + 1))
            for n in range(n_max)]


def far_tables():
    c = asymptotic_coefficients(2 * N_FAR)
    # P = x Re S = sum_j c_2j x^-2j;  Q = x^2 Im S = sum_j Im c_(2j+1) x^-2j
    p = [c[2 * j].real / mp.pi for j in range(N_FAR)]
    q = [c[2 * j + 1].imag / mp.pi for j in range(N_FAR)]
    return p, q


def fit_tables() -> dict[str, tuple[float, ...]]:
    """The five tables, rounded to double, by their names in simulate.py."""
    with mp.workdps(30):
        mid_p, mid_q = mid_tables()
        far_p, far_q = far_tables()
        tables = (near_table(), mid_p, mid_q, far_p, far_q)
        return {name: tuple(float(c) for c in coef) for name, coef in zip(TABLES, tables)}


def main() -> None:
    for name, coef in fit_tables().items():
        print(f"{name} = (")
        for c in coef:
            print(f"    {c!r},")
        print(")")


if __name__ == "__main__":
    main()
