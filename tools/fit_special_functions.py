"""Fit the rational tables of ``zcrate.distortion._sici`` and
``zcrate.level_crossing._folded_mean``.

Run from the root of a checkout (needs mpmath):

    python tools/fit_special_functions.py

It prints the tables as the Python literals that ``distortion.py`` and
``level_crossing.py`` hold; ``tests/test_distortion.py`` runs
:func:`fit_tables` and checks that the literals equal its output.  Every
value is computed with mpmath at 60 digits and rounded once to double.

* Si and Ci above x = 2, from the auxiliary functions f and g of
  Abramowitz & Stegun 5.2.6-7 (Si = pi/2 - f cos x - g sin x,
  Ci = f sin x - g cos x).  x f(x) and x^2 g(x) tend to 1 as x grows and do
  not oscillate; each is a rational in s = (x0/x)^2 on 2 <= x <= 4 (x0 = 2)
  and on x >= 4 (x0 = 4, s = 0 at infinity), fitted in relative error.
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
SICI_MID = 2    # x below which the power series serve (distortion._SICI_MID)
SICI_FAR = 4    # x above which the far tables serve (distortion._SICI_FAR)
SICI_DEGREE = {"near": 7, "far": 10}   # numerator and denominator degree
K_EDGE = 6      # x above which K is frozen at K(6) (level_crossing._K_EDGE)
K_DEGREE = 7
POINTS = 80     # Chebyshev points per fit
ITERATIONS = 5

TABLES = (
    "_SICI_NEAR_F", "_SICI_NEAR_G", "_SICI_FAR_F", "_SICI_FAR_G", "_FOLDED_K",
)


def aux_fg(x):
    """f(x) and g(x) from mpmath's Si and Ci."""
    si, ci = mp.si(x), mp.ci(x)
    rest = mp.pi / 2 - si
    return ci * mp.sin(x) + rest * mp.cos(x), rest * mp.sin(x) - ci * mp.cos(x)


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


def sici_tables(x0, degree, s_lo):
    """Rationals for x f(x) and x^2 g(x) in s = (x0/x)^2 on [s_lo, 1]."""
    s = _points(mp.mpf(s_lo), mp.mpf(1))
    big_f, big_g = [], []
    for sj in s:
        if sj == 0:  # x = infinity
            big_f.append(mp.mpf(1))
            big_g.append(mp.mpf(1))
            continue
        x = x0 / mp.sqrt(sj)
        f, g = aux_fg(x)
        big_f.append(x * f)
        big_g.append(x * x * g)
    return tuple(rational_fit(s, y, [1 / v for v in y], degree) for y in (big_f, big_g))


def k_table():
    """Rational for K(6 s) on [0, 1], weighted by its share of E|X|."""
    s = _points(mp.mpf(0), mp.mpf(1))
    x = [K_EDGE * sj for sj in s]
    k = [k_of(xj) for xj in x]
    w = [mp.exp(-xj * xj) / (mp.sqrt(mp.pi) * xj + mp.exp(-xj * xj) * kj)
         for xj, kj in zip(x, k)]
    return rational_fit(s, k, w, K_DEGREE)


def fit_tables() -> dict[str, tuple[tuple[float, ...], tuple[float, ...]]]:
    """Each table as (numerator, denominator), rounded to double, by its name
    in distortion.py or level_crossing.py."""
    with mp.workdps(DPS):
        near = sici_tables(SICI_MID, SICI_DEGREE["near"], mp.mpf(SICI_MID) ** 2 / SICI_FAR**2)
        far = sici_tables(SICI_FAR, SICI_DEGREE["far"], 0)
        tables = (*near, *far, k_table())
        return {name: tuple(tuple(float(c) for c in part) for part in table)
                for name, table in zip(TABLES, tables)}


def main() -> None:
    for name, (num, den) in fit_tables().items():
        print(f"{name} = (")
        for part in (num, den):
            print("    (")
            for c in part:
                print(f"        {c!r},")
            print("    ),")
        print(")")


if __name__ == "__main__":
    main()
