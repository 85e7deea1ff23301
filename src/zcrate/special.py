"""Special functions from frozen tables: Si/Ci, erfcx, the folded-normal K
and the filtered-transition kernel kappa.

Every fitted table is here, with its evaluator.  The tables are rationals
(numerator, denominator; lowest power first) or odd Chebyshev series, and
``tools/fit_tables.py`` regenerates all of them with mpmath; a test checks
that the literals equal its output.  Si/Ci and kappa rest on the same
auxiliary functions f and g of Abramowitz & Stegun 5.2.6-7, and both fit
their far fields the same way: a rational in s = (4/x)^2 on [0, 1], in
relative error, with s = 0 at x = infinity.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["horner", "rational", "clenshaw_odd", "sici", "erfcx", "FOLDED_K", "K_EDGE",
           "transition_distortion"]


def horner(coef: tuple[float, ...], u):
    """sum_j coef[j] u^j for a float or an array u (accumulated in place)."""
    acc = coef[-1] * u
    for c in coef[-2:0:-1]:
        acc += c
        acc *= u
    acc += coef[0]
    return acc


def rational(table: tuple[tuple[float, ...], tuple[float, ...]], s):
    """num(s)/den(s) for a (numerator, denominator) table and a float or an
    array s (divided in place)."""
    num, den = table
    r = horner(num, s)
    r /= horner(den, s)
    return r


def clenshaw_odd(coef: tuple[float, ...], s: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_{2k+1}(s) for an array s.

    The recurrence b_k = c_k + y b_{k+1} - b_{k+2} at y = 2 T_2(s) leaves the
    sum as s (b_0 - b_1).
    """
    y = 4.0 * s * s - 2.0
    b1 = np.full_like(y, coef[-1])
    b2 = np.zeros_like(y)
    tmp = np.empty_like(y)
    for c in coef[-2::-1]:
        np.multiply(y, b1, out=tmp)
        tmp -= b2
        tmp += c
        b2, b1, tmp = b1, tmp, b2
    b1 -= b2
    b1 *= s
    return b1


# ---------------------------------------------------------------------------
# Si and Ci
# ---------------------------------------------------------------------------

# Si and Ci take their power series up to x = 2 and the auxiliary functions
# f and g above it.  x f(x) and x^2 g(x) are rationals in s = (x0/x)^2,
# x0 = 2 on (2, 4] and x0 = 4 above.  The series stop where their next term
# is below 1e-19 at x = 2.
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


def sici(x: float) -> tuple[float, float]:
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
        x0, f_table, g_table = _SICI_MID, _SICI_NEAR_F, _SICI_NEAR_G
    else:
        x0, f_table, g_table = _SICI_FAR, _SICI_FAR_F, _SICI_FAR_G
    s = (x0 / x) ** 2
    f = rational(f_table, s) / x
    g = rational(g_table, s) / (x * x)
    sin_x, cos_x = math.sin(x), math.cos(x)
    return 0.5 * math.pi - f * cos_x - g * sin_x, f * sin_x - g * cos_x


# ---------------------------------------------------------------------------
# erfcx and the folded normal
# ---------------------------------------------------------------------------

# x above which erfcx takes the asymptotic series: exp(x^2) overflows near
# x = 26.6, and from x = 26 on the first term the series leaves out is below
# 1e-22
_ERFCX_ASYMPTOTIC = 26.0


def erfcx(x: float) -> float:
    """exp(x^2) erfc(x) for x >= 0, to a few ulp.

    Below x = 26 it is exp(x^2) erfc(x), with x^2 = hi + lo split exactly
    (Dekker) so that the rounding of x^2 does not reach exp: that would cost
    x^2 ulp.  Above, it is the asymptotic series
    (1/(x sqrt(pi))) sum_{n <= 9} (-1)^n (2n-1)!! / (2x^2)^n.
    """
    if x < _ERFCX_ASYMPTOTIC:
        hi = x * x
        split = 134217729.0 * x  # 2^27 + 1
        x_hi = split - (split - x)
        x_lo = x - x_hi
        lo = ((x_hi * x_hi - hi) + 2.0 * x_hi * x_lo) + x_lo * x_lo
        return math.exp(hi) * (1.0 + lo) * math.erfc(x)
    v = 0.5 / (x * x)
    term = total = 1.0
    for n in range(1, 10):
        term *= -(2 * n - 1) * v
        total += term
    return total / (x * math.sqrt(math.pi))


# K(x) = 1 - sqrt(pi) x exp(x^2) erfc(x) as a rational in x/6 on [0, 6], the
# factor of the folded normal mean (level_crossing._folded_mean).  Beyond
# x = 6 the K term of the folded mean is below 1e-18 of |mu|, so K(6) stands
# in for K(x).
K_EDGE = 6.0
FOLDED_K = (
    (
        1.0,
        4.7227468735601486,
        13.781851818835428,
        22.276958067402592,
        21.59659089496893,
        9.117244476441504,
        0.049898031023189016,
        -0.01001397612550854,
    ),
    (
        1.0,
        15.35746997899329,
        105.10429264541177,
        417.1442008547329,
        1041.9084610794744,
        1647.9170085376636,
        1540.9759623303614,
        665.216151383621,
    ),
)


# ---------------------------------------------------------------------------
# the filtered-transition kernel
# ---------------------------------------------------------------------------

# Near field, |z| < 4: the filtered transition as odd Chebyshev coefficients
# of T_1(z/4) .. T_23(z/4).  Far field, |z| >= 4: P/pi and Q/pi as rationals
# in s = (4/|z|)^2.
_KAPPA_EDGE = 4.0
_KAPPA_NEAR = (
    1.341621951266127,
    -0.2729810476206912,
    0.035620108289930084,
    -0.0025984009301451673,
    0.00011819670528441592,
    -3.654010095587238e-06,
    8.164550019807241e-08,
    -1.3794395365653184e-09,
    1.8237778050985788e-11,
    -1.938206180524994e-13,
    1.6918160169797755e-15,
    -1.2345707220803359e-17,
)
_KAPPA_P = (
    (
        0.5,
        27.195003890153487,
        528.3397164334244,
        4735.325143423728,
        21113.957843274202,
        47022.601598941976,
        49456.32838077825,
        20873.864303805454,
        1798.9587889693134,
        -286.71833259506474,
        -6.552517295060959,
    ),
    (
        1.0,
        54.55735359071781,
        1065.6904484880408,
        9642.724513196254,
        43726.272719732806,
        100416.02841590873,
        112044.26788214555,
        53913.97916011314,
        7714.298429943793,
        -388.84345664054166,
        -46.297013756262444,
    ),
)
_KAPPA_Q = (
    (
        -0.7499999999999999,
        -46.65822066185635,
        -1045.7684765205447,
        -10923.402478727905,
        -57491.93966539837,
        -153871.39866133739,
        -200425.69639263515,
        -112232.78885783625,
        -18364.589998943415,
        1127.480106445414,
        131.3482533478393,
    ),
    (
        1.0,
        62.525498313707374,
        1413.6265195681399,
        14985.330714327922,
        80867.26493323146,
        225847.49510619268,
        316794.63614931976,
        203515.06197682707,
        46199.13041197257,
        -392.8646213943054,
        -514.1600737806908,
    ),
)


def transition_distortion(tau: np.ndarray, beta: float) -> np.ndarray:
    """kappa(tau): the brick-wall lowpass output at W = 1/(2 beta) of the unit
    sine transition from -1 to +1 centred on 0, minus the transition itself.

    With z = pi tau/beta the filtered transition is
    F(z) = (1/pi) int_{-pi/2}^{pi/2} cos v Si(z - v) dv, so kappa is
    F(z) - sin(clip(z, -pi/2, pi/2)).  For |z| >= 4 it is exactly
    (sin z Q(|z|)/z - cos z P(|z|)) / (pi z), where P and Q are built from
    the Si/Ci auxiliary functions, are smooth and do not oscillate; they come
    from one pair of rationals in (4/z)^2.  Below |z| = 4, F comes from its
    odd Chebyshev series.  Each point costs one sin/cos pair and two short
    rationals or one series; the error is about 1e-16 absolute.  The filter
    is aperiodic: no guard, no grid.
    """
    z = (math.pi / beta) * np.asarray(tau, dtype=float)
    zf = z.ravel()
    # the far field runs on every point; the near field, where 1/z can
    # overflow, is overwritten below
    with np.errstate(all="ignore"):
        w = 1.0 / zf
        s = 4.0 * w
        s *= s
        p = rational(_KAPPA_P, s)
        q = rational(_KAPPA_Q, s)
        out = np.sin(zf)
        out *= q
        out *= w
        out -= np.cos(zf) * p
        out *= w
    near = np.flatnonzero(np.abs(zf) < _KAPPA_EDGE)
    if near.size:
        zn = zf[near]
        out[near] = (clenshaw_odd(_KAPPA_NEAR, 0.25 * zn)
                     - np.sin(np.clip(zn, -0.5 * math.pi, 0.5 * math.pi)))
    return out.reshape(z.shape)
