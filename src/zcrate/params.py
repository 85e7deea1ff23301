"""Channel and signal parameterization.

The transmit signal alternates between +sqrt(P_hat) and -sqrt(P_hat); the
information sits in the spacings between consecutive zero-crossings.  Spacings
are i.i.d. shifted-exponential: a minimum hold of one transition time ``beta``
plus an Exp(lambda) tail.  The transition time is coupled to the channel
bandwidth via ``beta = 1/(2 W)`` unless a caller deliberately decouples them
(see :mod:`zcrate.simulate` for the deletion study that does).

All information quantities are computed in nats internally; the CLI converts
to bits on output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DerivedParams",
    "ZeroCrossingSeq",
    "derive",
    "sample_input_sequence",
    "awgn_capacity",
]


def _require_positive_finite(values: dict[str, float], prefix: str = "") -> None:
    for name, value in values.items():
        if not (value > 0) or not math.isfinite(value):
            raise ValueError(f"{prefix}{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class DerivedParams:
    """The channel parameters and every scalar derived from them.

    W      : one-sided channel bandwidth in Hz
    lam    : rate parameter of the exponential spacing tail, 1/s
    rho    : linear SNR, defined against the average power of the
             unfiltered transmit signal (rho = P / (N0 W))
    P_hat  : peak power of the transmit signal, W

    Downstream operations only ever need this one object.
    """

    W: float
    lam: float
    rho: float
    P_hat: float
    beta: float          # transition time, = 1/(2W)
    T_avg: float         # mean symbol duration, = 1/lam + beta
    sigma_A_sq: float    # variance of the input spacings, = 1/lam^2
    P: float             # average transmit power
    N0: float            # noise PSD level (two-sided N0/2), = P/(rho W)
    sigma_nhat_sq: float  # filtered-noise variance, = N0 W
    k: float             # bandwidth-to-rate ratio W/lam


def derive(W: float, lam: float, rho: float, P_hat: float = 1.0) -> DerivedParams:
    """Check the four channel parameters and populate all derived scalars.

    Raises ValueError naming a parameter that is not a positive finite
    number, or a derived scalar that leaves the positive finite floats, as
    extreme but valid parameters can make it.
    """
    _require_positive_finite({"W": W, "lam": lam, "rho": rho, "P_hat": P_hat})
    beta = 1.0 / (2.0 * W)
    T_avg = 1.0 / lam + beta
    k = W / lam
    # average power of the alternating signal with sine transitions
    P = (0.5 + 2.0 * k) / (1.0 + 2.0 * k) * P_hat
    try:
        sigma_A_sq = 1.0 / lam**2
    except (ZeroDivisionError, OverflowError):  # lam**2 underflows or overflows
        sigma_A_sq = math.inf if lam < 1.0 else 0.0
    try:
        N0 = P / (rho * W)
    except ZeroDivisionError:  # rho * W underflows
        N0 = math.inf
    params = DerivedParams(
        W=W,
        lam=lam,
        rho=rho,
        P_hat=P_hat,
        beta=beta,
        T_avg=T_avg,
        sigma_A_sq=sigma_A_sq,
        P=P,
        N0=N0,
        sigma_nhat_sq=N0 * W,
        k=k,
    )
    _require_positive_finite(vars(params), "derived ")
    return params


@dataclass(frozen=True)
class ZeroCrossingSeq:
    """Ordered zero-crossing instants and the polarity of the first one.

    ``first_rising`` records the slope of the first crossing (True for a
    -to-+ transition); crossings of a continuous signal alternate, so the
    polarity of every crossing follows from it.
    """

    times: np.ndarray
    first_rising: bool | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if np.any(np.diff(times) <= 0):
            raise ValueError("crossing times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)

    def polarity(self) -> np.ndarray:
        """+1 for rising crossings, -1 for falling, alternating from the first
        (empty for an empty sequence)."""
        if self.first_rising is None and len(self):
            raise ValueError("sequence carries no polarity information")
        first = 1 if self.first_rising else -1
        signs = np.empty(len(self), dtype=int)
        signs[0::2] = first
        signs[1::2] = -first
        return signs


def sample_input_sequence(
    params: DerivedParams, K: int, rng: np.random.Generator
) -> ZeroCrossingSeq:
    """Draw K i.i.d. shifted-exponential spacings and return the crossing times.

    Each spacing is at least ``beta``; the mapper emits the first transition as
    a falling one (the signal starts on the + level).
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return ZeroCrossingSeq(np.cumsum(_draw_spacings(params, K, rng)), first_rising=False)


def _draw_spacings(
    params: DerivedParams, size: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """The spacing law: beta plus an Exp(lambda) tail, i.i.d.

    One draw of shape ``(n, K)`` is bit-identical to n sequential draws of K
    and leaves the generator in the same state.
    """
    return params.beta + rng.exponential(1.0 / params.lam, size=size)


def awgn_capacity(W: float, rho: float) -> float:
    """Unquantized AWGN capacity W*ln(1+rho) in nats/s.

    rho = 0 is permitted here (and only here) as the zero-rate boundary.
    """
    if not (W > 0):
        raise ValueError(f"W must be positive, got {W!r}")
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho!r}")
    return W * math.log1p(rho)
