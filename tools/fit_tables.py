"""Fit the frozen tables of ``zcrate.special``.

Run from the root of a checkout (needs mpmath):

    python tools/fit_tables.py

It prints every table as the Python literal that ``special.py`` holds.
``TestSici::test_tables_equal_their_fit`` (tests/test_distortion.py) runs
:func:`sici_k_tables` and ``TestTransitionKernel::test_tables_equal_their_fit``
(tests/test_simulate.py) runs :func:`kappa_tables`; each checks that the
literals equal its output.  Every value is computed with mpmath and rounded
once to double.

* Si and Ci above x = 2, from the auxiliary functions f and g of
  Abramowitz & Stegun 5.2.6-7 (Si = pi/2 - f cos x - g sin x,
  Ci = f sin x - g cos x).  x f(x) and x^2 g(x) tend to 1 as x grows and do
  not oscillate; each is a rational in s = (x0/x)^2 on 2 <= x <= 4 (x0 = 2)
  and on x >= 4 (x0 = 4, s = 0 at infinity), fitted in relative error.
* The filtered-transition kernel kappa, with z = pi tau/beta:
  F(z) = (1/pi) int_{-pi/2}^{pi/2} cos v Si(z - v) dv, kappa = F - sin(clip(z)).
  - Near field, |z| < 4: F is entire and odd; its odd Chebyshev coefficients
    in z/4, through T_23 (the first one dropped is below 1e-19).
  - Far field, |z| >= 4: with H = f - i g, let
    S(x) = int_{-pi/2}^{pi/2} cos v e^{-iv} H(x - v) dv, P = x Re S and
    Q = x^2 Im S.  Then exactly kappa(z) = (sin z Q(|z|)/z - cos z P(|z|)) / (pi z).
    P/pi and Q/pi tend to 1/2 and -3/4 and do not oscillate; each is a
    rational in s = (4/x)^2 on [0, 1], fitted in relative error like f and g.
  The kappa samples come from the defining integrals at 30 digits.
* The folded normal mean E|X| = |mu| + sd sqrt(2/pi) exp(-x^2) K(x), with
  x = |mu|/(sqrt(2) sd) and K(x) = 1 - sqrt(pi) x exp(x^2) erfc(x).  K is a
  rational in s = x/6 on [0, 1].  Its error is weighted by what it moves in
  E|X|, exp(-x^2)/(sqrt(pi) x + exp(-x^2) K(x)), so the fit is tight where x
  is small and loose where the |mu| term dominates.  Beyond x = 6 the K term
  is below 1e-18 of |mu|, and K(6) stands in for it.

Each rational P(s)/Q(s) with Q(0) = 1 is a weighted least-squares fit at
Chebyshev points, by the Sanathanan-Koerner iteration: the linear problem
min sum (w/Q_prev)^2 (P - y Q)^2, solved again with the last Q.  Its normal
equations are badly conditioned; at 60 digits the tables, once rounded to
double, are the same as at 80.
"""

from __future__ import annotations

import mpmath as mp

DPS = 60
SAMPLE_DPS = 30  # digits of the kappa samples
SICI_MID = 2    # x below which the power series serve (special._SICI_MID)
SICI_FAR = 4    # x above which the far tables serve (special._SICI_FAR)
KAPPA_EDGE = 4  # |z| where the far field of kappa begins (special._KAPPA_EDGE)
K_EDGE = 6      # x above which K is frozen at K(6) (special.K_EDGE)
NEAR_DEGREE = 7  # numerator and denominator degree on (2, 4] and of K
FAR_DEGREE = 10  # on x >= 4, for Si/Ci and for kappa
KAPPA_NEAR_TERMS = 12  # odd Chebyshev coefficients T_1 .. T_23
NODES = 48      # Chebyshev interpolation nodes of the near field of kappa
POINTS = 80     # Chebyshev points per rational fit
ITERATIONS = 5

SICI_K_TABLES = ("_SICI_NEAR_F", "_SICI_NEAR_G", "_SICI_FAR_F", "_SICI_FAR_G", "FOLDED_K")
KAPPA_TABLES = ("_KAPPA_NEAR", "_KAPPA_P", "_KAPPA_Q")


def aux_fg(x):
    """x f(x) and x^2 g(x), from mpmath's Si and Ci."""
    si, ci = mp.si(x), mp.ci(x)
    rest = mp.pi / 2 - si
    return x * (ci * mp.sin(x) + rest * mp.cos(x)), x * x * (rest * mp.sin(x) - ci * mp.cos(x))


def _integral(fun):
    return mp.quad(fun, [-mp.pi / 2, mp.pi / 2])


def filtered(z):
    """F(z), the brick-wall lowpass output of the unit sine transition."""
    return _integral(lambda v: mp.cos(v) * mp.si(z - v)) / mp.pi


def aux_pq(x):
    """P(x)/pi and Q(x)/pi for x >= 4, at SAMPLE_DPS digits.

    e^{ix} S(x) = int cos v [(pi/2 - Si(x - v)) + i Ci(x - v)] dv, since
    e^{iy} H(y) = (f cos y + g sin y) + i (f sin y - g cos y).
    """
    with mp.workdps(SAMPLE_DPS):
        re = _integral(lambda v: mp.cos(v) * (mp.pi / 2 - mp.si(x - v)))
        im = _integral(lambda v: mp.cos(v) * mp.ci(x - v))
        s = mp.exp(-1j * x) * mp.mpc(re, im)
        return x * s.real / mp.pi, x * x * s.imag / mp.pi


def k_of(x):
    """K(x) = 1 - sqrt(pi) x exp(x^2) erfc(x)."""
    return 1 - mp.sqrt(mp.pi) * x * mp.exp(x * x) * mp.erfc(x)


def _points(lo, hi):
    """POINTS Chebyshev points of the second kind on [lo, hi], ends included."""
    return [lo + (hi - lo) * (1 - mp.cos(mp.pi * k / (POINTS - 1))) / 2 for k in range(POINTS)]


def rational_fit(s, y, w, degree):
    """Numerator and denominator coefficients (lowest power first, Q(0) = 1)
    of the degree/degree rational fitting y at s with weights w."""
    q_prev = [mp.mpf(1)] * len(s)
    for _ in range(ITERATIONS):
        rows, rhs = [], []
        for sj, yj, wj, qj in zip(s, y, w, q_prev):
            scale = wj / qj
            rows.append([scale * sj**i for i in range(degree + 1)]
                        + [-scale * yj * sj**i for i in range(1, degree + 1)])
            rhs.append(scale * yj)
        a = mp.matrix(rows)
        sol = mp.lu_solve(a.T * a, a.T * mp.matrix(rhs))
        num = [sol[i] for i in range(degree + 1)]
        den = [mp.mpf(1)] + [sol[degree + i] for i in range(1, degree + 1)]
        q_prev = [mp.polyval(den[::-1], sj) for sj in s]
    return num, den


def pair_tables(pair, x0, s_lo, at_infinity, degree):
    """Rationals in s = (x0/x)^2 on [s_lo, 1] for the two functions that
    ``pair(x)`` returns, in relative error; ``at_infinity`` is the pair at
    s = 0."""
    s = _points(mp.mpf(s_lo), mp.mpf(1))
    values = [at_infinity if sj == 0 else pair(x0 / mp.sqrt(sj)) for sj in s]
    return tuple(rational_fit(s, y, [1 / v for v in y], degree) for y in zip(*values))


def kappa_near_table():
    """Odd Chebyshev coefficients of F(4 t) on [-1, 1], at SAMPLE_DPS digits."""
    with mp.workdps(SAMPLE_DPS):
        nodes = [mp.cos(mp.pi * (k + mp.mpf(1) / 2) / NODES) for k in range(NODES)]
        # F is odd, so F at the negative nodes is minus F at the positive ones
        half = [filtered(KAPPA_EDGE * t) for t in nodes[:NODES // 2]]
        values = half + [-v for v in reversed(half)]
        # the interpolant through the values at the nodes: c_j (c_0 halved)
        coef = [2 * mp.fsum(v * mp.cos(mp.pi * j * (k + mp.mpf(1) / 2) / NODES)
                            for k, v in enumerate(values)) / NODES
                for j in range(NODES)]
        return coef[1:2 * KAPPA_NEAR_TERMS:2]


def k_table():
    """Rational for K(6 s) on [0, 1], weighted by its share of E|X|."""
    s = _points(mp.mpf(0), mp.mpf(1))
    x = [K_EDGE * sj for sj in s]
    k = [k_of(xj) for xj in x]
    w = [mp.exp(-xj * xj) / (mp.sqrt(mp.pi) * xj + mp.exp(-xj * xj) * kj)
         for xj, kj in zip(x, k)]
    return rational_fit(s, k, w, NEAR_DEGREE)


def sici_k_tables() -> dict[str, tuple]:
    """The Si/Ci and K rationals rounded to double, by their names in
    special.py, each as (numerator, denominator)."""
    with mp.workdps(DPS):
        one = (mp.mpf(1), mp.mpf(1))
        sici_near = pair_tables(aux_fg, SICI_MID, mp.mpf(SICI_MID) ** 2 / SICI_FAR**2, one,
                                NEAR_DEGREE)
        sici_far = pair_tables(aux_fg, SICI_FAR, 0, one, FAR_DEGREE)
        tables = (*sici_near, *sici_far, k_table())
        return {name: _rounded(table) for name, table in zip(SICI_K_TABLES, tables)}


def kappa_tables() -> dict[str, tuple]:
    """The kappa tables rounded to double, by their names in special.py: the
    near Chebyshev series as its coefficients, each far rational as
    (numerator, denominator)."""
    with mp.workdps(DPS):
        far = pair_tables(aux_pq, KAPPA_EDGE, 0, (mp.mpf(1) / 2, -mp.mpf(3) / 4), FAR_DEGREE)
        tables = (kappa_near_table(), *far)
        return {name: _rounded(table) for name, table in zip(KAPPA_TABLES, tables)}


def fit_tables() -> dict[str, tuple]:
    """Every table, in the order special.py holds them."""
    return {**sici_k_tables(), **kappa_tables()}


def _rounded(table):
    if isinstance(table[0], (list, tuple)):
        return tuple(_rounded(part) for part in table)
    return tuple(float(c) for c in table)


def _literal(value, indent=""):
    if isinstance(value, float):
        return f"{indent}{value!r},"
    inner = "\n".join(_literal(v, indent + "    ") for v in value)
    return f"{indent}(\n{inner}\n{indent}),"


def main() -> None:
    for name, table in fit_tables().items():
        print(f"{name} = {_literal(table)[:-1]}")


if __name__ == "__main__":
    main()
