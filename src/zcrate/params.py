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
    "ChannelConfig",
    "DerivedParams",
    "ZeroCrossingSeq",
    "derive",
    "sample_input_sequence",
    "awgn_capacity",
]


@dataclass(frozen=True)
class ChannelConfig:
    """User-facing channel parameters.

    W      : one-sided channel bandwidth in Hz
    lam    : rate parameter of the exponential spacing tail, 1/s
    rho    : linear SNR, defined against the average power of the
             unfiltered transmit signal (rho = P / (N0 W))
    P_hat  : peak power of the transmit signal, W
    """

    W: float
    lam: float
    rho: float
    P_hat: float = 1.0

    def validate(self) -> None:
        for name in ("W", "lam", "rho", "P_hat"):
            value = getattr(self, name)
            if not (value > 0) or not math.isfinite(value):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class DerivedParams:
    """Everything directly computable from a :class:`ChannelConfig`.

    The raw config values (W, lam, rho, P_hat) are carried along so that
    downstream operations only ever need this one object.
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


def derive(config: ChannelConfig) -> DerivedParams:
    """Populate all derived scalars from a validated config."""
    config.validate()
    W, lam, rho, P_hat = config.W, config.lam, config.rho, config.P_hat
    beta = 1.0 / (2.0 * W)
    T_avg = 1.0 / lam + beta
    k = W / lam
    # average power of the alternating signal with sine transitions
    P = (0.5 + 2.0 * k) / (1.0 + 2.0 * k) * P_hat
    N0 = P / (rho * W)
    return DerivedParams(
        W=W,
        lam=lam,
        rho=rho,
        P_hat=P_hat,
        beta=beta,
        T_avg=T_avg,
        sigma_A_sq=1.0 / lam**2,
        P=P,
        N0=N0,
        sigma_nhat_sq=N0 * W,
        k=k,
    )


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


def awgn_capacity(config: ChannelConfig) -> float:
    """Unquantized AWGN capacity W*ln(1+rho) in nats/s.

    rho = 0 is permitted here (and only here) as the zero-rate boundary.
    """
    if not (config.W > 0):
        raise ValueError(f"W must be positive, got {config.W!r}")
    if config.rho < 0:
        raise ValueError(f"rho must be nonnegative, got {config.rho!r}")
    return config.W * math.log1p(config.rho)
