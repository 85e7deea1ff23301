"""Waveform-level Monte-Carlo engine.

Synthesizes the alternating transmit signal on a fine grid, applies ideal
brick-wall lowpass filtering, adds bandlimited Gaussian noise, extracts
zero-crossings, and aligns transmitted against received crossings to count
insertions and deletions.  The chains place each crossing by interpolating
the unquantized received signal; the 1-bit receiver,
``extract_crossings(quantize(r))``, sees the same sign changes and puts each
at the midpoint of its sample step.  Everything is driven by an explicit
numpy Generator so trials are reproducible and parallelizable.

Conventions: transitions are centered on the nominal crossing instants, so
the noise-free waveform crosses zero exactly at the times of the input
sequence.  Signals carry head/tail guard plateaus sized to swallow the
circular edge effects of FFT-based filtering; analysis windows stay inside.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
# numpy imports numpy.fft on first attribute access; importing it here keeps
# that cost in start-up rather than in the first transmission
from numpy.fft import irfft, rfft, rfftfreq

from .params import (
    DerivedParams,
    ZeroCrossingSeq,
    _draw_spacings,
    derive,
    sample_input_sequence,
)
from .special import transition_distortion

__all__ = [
    "SampledWaveform",
    "MatchReport",
    "synthesize",
    "ideal_lp",
    "gen_bandlimited_noise",
    "transmit",
    "quantize",
    "extract_crossings",
    "slope_at",
    "match_crossings",
    "SimulationRun",
    "run_chain",
    "CensusResult",
    "transition_crossing_census",
    "lp_distortion_at",
    "LpDistortionStats",
    "lp_distortion_stats",
    "EmpiricalPsd",
    "empirical_psd",
    "DeletionCensus",
    "deletion_census",
]


@dataclass(frozen=True)
class SampledWaveform:
    """Uniformly sampled real signal."""

    samples: np.ndarray
    dt: float
    t_start: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("waveform needs a 1-D array of at least 2 samples")

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(len(self))

    def window(self, t_lo: float, t_hi: float) -> "SampledWaveform":
        """The samples at instants in [t_lo, t_hi], as a view of this one."""
        i0 = max(int(math.ceil((t_lo - self.t_start) / self.dt)), 0)
        i1 = min(int(math.floor((t_hi - self.t_start) / self.dt)) + 1, len(self))
        return SampledWaveform(self.samples[i0:i1], self.dt, self.t_start + i0 * self.dt)

    def __len__(self) -> int:
        return int(self.samples.size)


def _fast_fft_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n, for n >= 1.

    The value of ``scipy.fft.next_fast_len(n, real=True)``, without importing
    ``scipy.fft``: for each 3^b 5^c below the first power of two >= n, the
    smallest power of two that lifts it to n or above.
    """
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def synthesize(
    zcs: ZeroCrossingSeq, params: DerivedParams, dt: float, guard: float
) -> SampledWaveform:
    """Map a crossing sequence to the two-level waveform with sine transitions.

    Each transition occupies [T_k - beta/2, T_k + beta/2] and the waveform is
    exactly +-sqrt(P_hat) outside transitions.  The signal starts on the +
    level at t = -guard and runs on at least ``guard`` past the end of the
    last transition (room for the circular filtering downstream).  At the
    end the guard is a minimum: the last plateau runs on until the sample
    count is a 5-smooth FFT length, so the filters downstream never
    transform a length with a large prime factor.  Where two transitions
    share grid points, the later one sets them.
    """
    p = params
    beta = p.beta
    if dt > beta / 20.0:
        raise ValueError(f"dt must be <= beta/20 = {beta / 20.0:.3g}, got {dt}")
    T = zcs.times
    if T.size == 0:
        raise ValueError("empty crossing sequence")
    if T[0] - beta / 2.0 <= -guard:
        raise ValueError("first transition does not fit the guard plateau")
    t_start = -guard
    n = (float(T[-1]) + beta / 2.0 + guard + guard) / dt
    if not n < sys.maxsize / 2:  # inf included; _fast_fft_len at most doubles it
        raise MemoryError(f"a waveform of more than {sys.maxsize // 2} samples")
    n = _fast_fft_len(int(math.ceil(n)) + 1)
    t = t_start + dt * np.arange(n)
    amp = math.sqrt(p.P_hat)

    j = np.arange(T.size)
    # plateaus: +amp, flipped at the first grid point at or after each
    # transition's end
    done = np.searchsorted(t, T + beta / 2.0, side="left")
    x = np.repeat(np.where(np.arange(T.size + 1) % 2 == 0, amp, -amp),
                  np.diff(done, prepend=0, append=n))
    # transition k covers grid points i0[k] <= i < i1[k], cut short where the
    # next transition starts so that the later one keeps the shared points
    i0 = np.searchsorted(t, T - beta / 2.0, side="left")
    i1 = np.searchsorted(t, T + beta / 2.0, side="right")
    i1[:-1] = np.minimum(i1[:-1], i0[1:])
    lengths = np.maximum(i1 - i0, 0)
    k = np.repeat(j, lengths)
    idx = np.arange(k.size) + np.repeat(i0 - (np.cumsum(lengths) - lengths), lengths)
    # amp sin(pi (t - T_k)/beta), negated for falling transitions; in place,
    # as transitions can fill most of a long waveform
    v = t[idx]
    v -= T[k]
    v *= math.pi
    v /= beta
    np.sin(v, out=v)
    v *= amp
    np.negative(v, out=v, where=k % 2 == 0)
    x[idx] = v
    return SampledWaveform(samples=x, dt=dt, t_start=t_start)


def _band_bins(n: int, dt: float, W: float) -> int:
    """Number of rfft bins of an n-sample grid kept by the brick-wall lowpass.

    A bin is kept when its frequency is <= W; the kept bins are a prefix of
    the rfft, so every bin from the returned index on is masked.
    """
    fs = 1.0 / dt
    if fs < 2.0 * W:
        raise ValueError(f"sample rate {fs:.3g} below Nyquist for W = {W:.3g}")
    return int(np.count_nonzero(rfftfreq(n, dt) <= W))


def ideal_lp(w: SampledWaveform, W: float) -> SampledWaveform:
    """Brick-wall lowpass with one-sided bandwidth W and unit in-band gain."""
    X = rfft(w.samples)
    X[_band_bins(len(w), w.dt, W):] = 0.0
    return SampledWaveform(samples=irfft(X, len(w)), dt=w.dt, t_start=w.t_start)


def gen_bandlimited_noise(
    n: int, dt: float, N0: float, W: float, rng: np.random.Generator
) -> SampledWaveform:
    """Gaussian noise with flat PSD N0/2 on |f| <= W and variance N0 W.

    Built directly bandlimited: only the m in-band rfft bins are drawn, then
    inverse-transformed, so there are no filter transients.  The law is that
    of the masked rfft of n white unit normals: interior bins are complex
    normals with Re and Im each of variance n/2, while DC, and Nyquist when
    it is in band, are real normals of variance n.  The bins are then scaled
    by sqrt(N0 W n / dof), dof being the count of retained real degrees of
    freedom, so the variance is N0 W exactly in expectation.  Exactly 2 m
    standard normals are drawn; with N0 == 0, none.
    """
    if N0 < 0:
        raise ValueError(f"N0 must be nonnegative, got {N0}")
    m = _band_bins(n, dt, W)
    if N0 == 0.0:
        return SampledWaveform(samples=np.zeros(n), dt=dt)
    dof = 2 * m - 1  # DC bin carries one dof, not two
    nyquist = n % 2 == 0 and m == n // 2 + 1
    if nyquist:
        dof -= 1  # so does Nyquist
    scale = math.sqrt(N0 * W * n / dof) * math.sqrt(n / 2.0)
    if not math.isfinite(scale):  # an infinite or NaN N0 included
        raise ValueError(f"noise of N0 = {N0:g} over {n} samples leaves the floating-point range")
    X = np.zeros(n // 2 + 1, dtype=np.complex128)
    rng.standard_normal(out=X[:m].view(np.float64))
    X[:m] *= scale
    X[0] = X[0].real * math.sqrt(2.0)
    if nyquist:
        X[-1] = X[-1].real * math.sqrt(2.0)
    return SampledWaveform(samples=irfft(X, n), dt=dt)


def transmit(
    tx: ZeroCrossingSeq,
    params: DerivedParams,
    W: float,
    N0: float,
    dt: float,
    rng: np.random.Generator,
    guard: float,
) -> tuple[SampledWaveform, SampledWaveform, SampledWaveform]:
    """The channel: synthesize ``tx`` with ``guard`` plateaus, lowpass at W,
    add noise with PSD N0/2 on |f| <= W.  Returns (x, xf, r): the transmit
    waveform, its filtered copy, and the received signal xf + noise (3 FFTs
    and 2 normals per in-band bin; with N0 == 0, r equals xf and nothing is
    drawn).
    """
    x = synthesize(tx, params, dt, guard)
    xf = ideal_lp(x, W)
    r = gen_bandlimited_noise(len(x), dt, N0, W, rng).samples
    r += xf.samples
    return x, xf, SampledWaveform(r, dt, x.t_start)


def quantize(w: SampledWaveform) -> SampledWaveform:
    """1-bit quantizer: +1 for x >= 0, -1 for x < 0."""
    return SampledWaveform(
        samples=np.where(w.samples >= 0.0, 1.0, -1.0), dt=w.dt, t_start=w.t_start
    )


def extract_crossings(w: SampledWaveform) -> ZeroCrossingSeq:
    """Zero-crossing times of a sampled signal, by linear interpolation
    between the samples that bracket each sign change.

    On a 1-bit waveform from :func:`quantize` the interpolated crossing is
    the midpoint of the sign change, exactly: all the information the
    quantizer keeps on the grid.  ``extract_crossings(quantize(w))`` is the
    1-bit receiver.
    """
    x = w.samples
    pos = x >= 0.0
    idx = np.nonzero(pos[:-1] != pos[1:])[0]
    x0 = x[idx]
    frac = x0 / (x0 - x[idx + 1])
    times = w.t_start + (idx + frac) * w.dt
    # a sample of exactly 0.0 between two negative samples is two sign changes
    # that interpolate to one instant; dropping such a pair keeps the
    # polarities alternating
    tied = np.nonzero(np.diff(times) <= 0.0)[0]
    if tied.size:
        keep = np.ones(idx.size, dtype=bool)
        keep[tied] = keep[tied + 1] = False
        idx, times = idx[keep], times[keep]
    first_rising = bool(not pos[idx[0]]) if idx.size else None
    return ZeroCrossingSeq(times, first_rising=first_rising)


def slope_at(w: SampledWaveform, times: np.ndarray) -> np.ndarray:
    """Time derivative of a sampled signal at the given instants.

    First differences sit on the half-sample points; linear interpolation
    between the two that bracket each instant is second-order accurate in dt.
    """
    u = (np.asarray(times, dtype=float) - w.t_start) / w.dt - 0.5
    i = np.floor(u).astype(int)
    if i.size and (i.min() < 0 or i.max() + 2 >= len(w)):
        raise ValueError("instants must lie inside the waveform")
    frac = u - i
    x = w.samples
    return ((1.0 - frac) * (x[i + 1] - x[i]) + frac * (x[i + 2] - x[i + 1])) / w.dt


@dataclass(frozen=True)
class MatchReport:
    """Outcome of aligning received against transmitted crossings.

    n_insertions counts inserted crossing *pairs* (one noise excursion makes
    two extra crossings); n_extra_crossings keeps the raw surplus count.
    per_symbol_counts[j] is the number of received crossings latched onto
    transmitted crossing j: 1 when clean, 0 when that crossing was erased,
    >1 when insertions attached to it.
    """

    n_insertions: int
    n_deletions: int
    shift_samples: np.ndarray
    per_symbol_counts: np.ndarray
    n_extra_crossings: int
    n_unassigned_rx: int


def match_crossings(tx: ZeroCrossingSeq, rx: ZeroCrossingSeq) -> MatchReport:
    """Assign every received crossing to the nearest transmitted one of the
    same polarity (ties to the earlier crossing) and tally the damage.

    A deletion is a consecutive transmitted up/down pair that attracted no
    received crossing at all; surplus assignees beyond one per transmitted
    crossing are insertions.  shift_samples holds, for every matched
    transmitted crossing, the offset of its nearest assignee.
    """
    K = len(tx)
    counts = np.zeros(K, dtype=int)
    best_off = np.full(K, np.nan)
    unassigned = 0
    pol_tx = tx.polarity()
    pol_rx = rx.polarity()
    targets, offsets = [], []
    for polarity in (1, -1):
        tx_idx = np.nonzero(pol_tx == polarity)[0]
        rx_t = rx.times[pol_rx == polarity]
        if rx_t.size == 0:
            continue
        if tx_idx.size == 0:
            unassigned += int(rx_t.size)
            continue
        tx_t = tx.times[tx_idx]
        j = np.searchsorted(tx_t, rx_t)
        left = np.clip(j - 1, 0, tx_t.size - 1)
        right = np.clip(j, 0, tx_t.size - 1)
        d_left = np.abs(rx_t - tx_t[left])
        d_right = np.abs(rx_t - tx_t[right])
        chosen = np.where(d_left <= d_right, left, right)  # tie -> earlier
        target = tx_idx[chosen]
        targets.append(target)
        offsets.append(rx_t - tx.times[target])
    if targets:
        target = np.concatenate(targets)
        off = np.concatenate(offsets)
        np.add.at(counts, target, 1)
        # per target, the smallest |offset|; among equals the earliest assignee
        order = np.lexsort((np.abs(off), target))
        first = np.ones(order.size, dtype=bool)
        first[1:] = target[order[1:]] != target[order[:-1]]
        best_off[target[order[first]]] = off[order[first]]

    matched = counts > 0
    shift_samples = best_off[matched]
    extras = int(np.sum(np.maximum(counts - 1, 0)))

    # a run of L unmatched transmitted crossings holds floor(L/2) deleted pairs
    edges = np.diff(np.concatenate(([0], (~matched).astype(np.int8), [0])))
    run_lengths = np.nonzero(edges == -1)[0] - np.nonzero(edges == 1)[0]
    deletions = int(np.sum(run_lengths // 2))

    return MatchReport(
        n_insertions=extras // 2,
        n_deletions=deletions,
        shift_samples=shift_samples,
        per_symbol_counts=counts,
        n_extra_crossings=extras,
        n_unassigned_rx=unassigned,
    )


# ---------------------------------------------------------------------------
# end-to-end chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationRun:
    """One full transmit/receive pass."""

    tx: ZeroCrossingSeq
    rx: ZeroCrossingSeq
    report: MatchReport
    sigma_xt_emp: float   # measured lowpass-distortion variance of this run
    slope_sq_emp: float   # mean of xf'(T_k)^2 over the transmitted crossings


def run_chain(
    params: DerivedParams, K: int, dt: float, rng: np.random.Generator
) -> SimulationRun:
    """synthesize -> filter -> add noise -> extract -> match, with guards trimmed.

    Besides the match report, the run measures the mean squared slope of the
    noise-free filtered signal at the transmitted crossings: sigma_z^2 over it
    is the linearized shift variance of the filtered chain, where the paper's
    sigma_S^2 uses the unfiltered slope pi sqrt(P_hat)/beta.
    """
    p = params
    guard = 40.0 * p.beta
    tx = sample_input_sequence(p, K, rng)
    x, xf, r = transmit(tx, p, p.W, p.N0, dt, rng, guard)

    t_lo, t_hi = -2.0 * p.beta, tx.times[-1] + 2.0 * p.beta
    xt = xf.window(t_lo, t_hi).samples - x.window(t_lo, t_hi).samples
    rx_all = extract_crossings(r.window(t_lo, t_hi))
    report = match_crossings(tx, rx_all)
    return SimulationRun(
        tx=tx,
        rx=rx_all,
        report=report,
        sigma_xt_emp=float(np.var(xt)),
        slope_sq_emp=float(np.mean(slope_at(xf, tx.times) ** 2)),
    )


@dataclass(frozen=True)
class CensusResult:
    mean: float
    var: float
    counts: np.ndarray


def transition_crossing_census(
    params: DerivedParams, n_trials: int, rng: np.random.Generator
) -> CensusResult:
    """Count the received zero-crossings of :func:`run_chain` runs inside
    each transition window.

    Windows are [T_k - beta/2, T_k + beta/2]; at mid/high SNR each should
    contain exactly one crossing.  With N0 = 0 the chain is noise-free.
    """
    if n_trials < 2:
        raise ValueError(f"n_trials must be >= 2, got {n_trials}")
    p = params
    counts: list[np.ndarray] = []
    collected = 0
    while collected < n_trials:
        K = int(min(2000, max(50, n_trials - collected + 4)))
        run = run_chain(p, K, p.beta / 24.0, rng)
        # drop edge symbols; count crossings inside each transition window
        T = run.tx.times[2:-2]
        counts.append(np.searchsorted(run.rx.times, T + p.beta / 2.0)
                      - np.searchsorted(run.rx.times, T - p.beta / 2.0))
        collected += T.size
    all_counts = np.concatenate(counts)[:n_trials]
    return CensusResult(
        mean=float(all_counts.mean()),
        var=float(all_counts.var(ddof=1)),
        counts=all_counts,
    )


_KAPPA_COLUMNS = 8  # transition columns per kernel call in lp_distortion_at


def lp_distortion_at(t: np.ndarray, T: np.ndarray, params: DerivedParams) -> np.ndarray:
    """Lowpass distortion x_t = xf - x of synthesized waveforms at instants t.

    Each row of ``T`` (shape ``(rows, K)``) holds the crossing times of one
    waveform, first transition falling, as :func:`synthesize` maps them; the
    filter is the brick-wall lowpass at W = 1/(2 beta), applied without a
    period.  The filter is linear, so x_t(t) = sqrt(P_hat) sum_k s_k
    kappa(t - T_k) with s_k = -1, +1, -1, ... and kappa
    :func:`zcrate.special.transition_distortion`.  Returns shape
    ``(len(t), rows)``.
    """
    p = params
    if not math.isclose(2.0 * p.W * p.beta, 1.0, rel_tol=1e-12):
        raise ValueError(f"the kernel needs W = 1/(2 beta), got W = {p.W}, beta = {p.beta}")
    t = np.asarray(t, dtype=float)[:, None]
    T = np.asarray(T, dtype=float)
    acc = np.zeros((t.shape[0], T.shape[0]))
    # a few transition columns per kernel call keep the memory at
    # O(len(t) * rows); the sum still takes them one at a time, in order
    for k0 in range(0, T.shape[1], _KAPPA_COLUMNS):
        kappa = transition_distortion(t - T[:, k0:k0 + _KAPPA_COLUMNS].T[:, None, :], p.beta)
        for k, kappa_k in enumerate(kappa, k0):
            if k % 2 == 0:
                acc -= kappa_k
            else:
                acc += kappa_k
    return math.sqrt(p.P_hat) * acc


@dataclass(frozen=True)
class LpDistortionStats:
    """Empirical statistics of the lowpass distortion (filtered minus raw signal)."""

    mean_time: float
    var_time: float
    mean_ensemble: np.ndarray      # one entry per probed time instant
    var_ensemble: np.ndarray
    var_ensemble_pooled: float
    kl_nats: float
    hist_edges: np.ndarray
    bin_width: float
    n_time_samples: int


def lp_distortion_stats(
    params: DerivedParams,
    n_time_samples: int,
    n_ensemble: int,
    rng: np.random.Generator,
) -> LpDistortionStats:
    """Time-average and ensemble statistics of the lowpass distortion.

    The time leg runs one long realization and histograms the distortion
    with bin width 0.01 max|x_t|; the Kullback-Leibler divergence against
    the moment-matched Gaussian uses the binned masses.  The ensemble leg
    probes three fixed interior instants across independent realizations,
    exactly (:func:`lp_distortion_at`), without synthesizing them.
    """
    if n_time_samples < 2 or n_ensemble < 2:
        raise ValueError(
            f"n_time_samples and n_ensemble must be >= 2, got {n_time_samples}, {n_ensemble}"
        )
    p = params
    dt = p.beta / 20.0
    guard = 40.0 * p.beta

    # --- time statistics -------------------------------------------------
    K = int(math.ceil(n_time_samples * dt / p.T_avg)) + 50
    tx = sample_input_sequence(p, K, rng)
    x = synthesize(tx, p, dt, guard)
    xf = ideal_lp(x, p.W)
    t_end = tx.times[-1]
    xt = (xf.window(0.0, t_end).samples - x.window(0.0, t_end).samples)[:n_time_samples]

    mean_time = float(xt.mean())
    var_time = float(xt.var())
    delta = 0.01 * float(np.max(np.abs(xt)))
    lo, hi = float(xt.min()), float(xt.max())
    n_bins = max(int(math.ceil((hi - lo) / delta)), 10)
    hist_counts, hist_edges = np.histogram(xt, bins=n_bins, range=(lo, hi))
    p_mass = hist_counts / hist_counts.sum()
    sd = math.sqrt(var_time)
    cdf = np.array([0.5 * math.erfc(-e / math.sqrt(2.0))  # the standard normal CDF
                    for e in (hist_edges - mean_time) / sd])
    q_mass = np.maximum(np.diff(cdf), 1e-300)
    nz = p_mass > 0
    kl = float(np.sum(p_mass[nz] * np.log(p_mass[nz] / q_mass[nz])))

    # --- ensemble statistics at three interior instants ------------------
    # Every realization is drawn at once (the same stream as one draw each)
    # and probed exactly, by superposition of the filtered transition.
    K_e = 80
    probes = np.array([25.0, 31.0, 37.0]) * p.T_avg
    T = np.cumsum(_draw_spacings(p, (n_ensemble, K_e), rng), axis=1)
    vals = lp_distortion_at(probes, T, p)
    for i in np.nonzero(T[:, -1] <= probes[-1] + p.beta)[0]:  # vanishingly rare
        Ti = T[i]
        while Ti[-1] <= probes[-1] + p.beta:
            Ti = np.cumsum(_draw_spacings(p, 2 * K_e, rng))
        vals[:, i] = lp_distortion_at(probes, Ti[None, :], p)[:, 0]
    mean_ens = vals.mean(axis=1)
    var_ens = vals.var(axis=1)
    return LpDistortionStats(
        mean_time=mean_time,
        var_time=var_time,
        mean_ensemble=mean_ens,
        var_ensemble=var_ens,
        var_ensemble_pooled=float(vals.var()),
        kl_nats=kl,
        hist_edges=hist_edges,
        bin_width=delta,
        n_time_samples=int(xt.size),
    )


@dataclass(frozen=True)
class EmpiricalPsd:
    """Averaged periodogram of the synthesized signal, two-sided density."""

    f: np.ndarray          # Hz, DC bin excluded
    psd: np.ndarray        # W/Hz, two-sided convention (matches the analytic PSD)


def empirical_psd(params: DerivedParams, K: int, rng: np.random.Generator) -> EmpiricalPsd:
    """Welch periodogram of a K-symbol realization sampled at dt = beta/20,
    normalized per unit time."""
    if K < 1000:
        raise ValueError(f"K must be >= 1000 for a stable estimate, got {K}")
    p = params
    dt = p.beta / 20.0
    tx = sample_input_sequence(p, K, rng)
    x = synthesize(tx, p, dt, 20.0 * p.beta)
    xs = x.window(0.0, tx.times[-1]).samples
    fs = 1.0 / dt
    nperseg = min(1 << 13, xs.size // 8)
    # Welch: periodic Hann segments overlapping by half, the mean of their
    # |rfft|^2 in density scaling (scipy.signal.welch's defaults)
    win = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(nperseg) / nperseg)
    segs = np.lib.stride_tricks.sliding_window_view(xs - xs.mean(), nperseg)
    spec = rfft(segs[::nperseg - nperseg // 2] * win, axis=1)
    psd = np.mean(spec.real**2 + spec.imag**2, axis=0) / (fs * np.sum(win**2))
    # two-sided density: a one-sided Welch doubles every bin but DC and an
    # even-length Nyquist bin, and the two-sided one halves that again
    if nperseg % 2 == 0:
        psd[-1] /= 2.0
    return EmpiricalPsd(f=rfftfreq(nperseg, dt)[1:], psd=psd[1:])


@dataclass(frozen=True)
class DeletionCensus:
    """Deletion/insertion tally for one (W, beta) point of the decoupled study."""

    k_tilde: float
    n_deletions: int
    n_insertions: int
    n_deletions_filter: int  # deletions of the noise-free filtered signal alone


def deletion_census(
    lam: float,
    beta: float,
    W: float,
    rho: float,
    K: int,
    dt: float,
    rng: np.random.Generator,
    P_hat: float = 1.0,
) -> DeletionCensus:
    """Transmit K symbols with transition time beta through filters of
    bandwidth W (decoupled from beta) and count deleted symbols.

    The minimum spacing stays at beta, so k_tilde = 1/(2 beta lam) plays the
    role of k.  SNR is defined against the filter band: N0 = P/(rho W).

    ``n_deletions`` counts what the receiver loses, to the filter and to the
    noise together; ``n_deletions_filter`` counts what the noise-free
    filtered signal loses, matched against the input on its own.  The two
    come from separate matchings, so the second is not a share of the first
    and can exceed it.
    """
    if min(lam, beta, W, rho, P_hat) <= 0:
        raise ValueError("lam, beta, W, rho, P_hat must all be positive")
    # signal-side parameters: derive with the matched bandwidth 1/(2 beta),
    # then transmit through the decoupled filter W.  The beta derived back,
    # 1/(2 (1/(2 beta))), can land an ulp off the beta given; keep the given
    # one so that a dt of exactly beta/20 stays inside synthesize's limit.
    p_sig = replace(derive(1.0 / (2.0 * beta), lam, rho, P_hat), beta=beta)
    N0 = p_sig.P / (rho * W)
    if not N0 < math.inf:
        raise ValueError(f"N0 = P/(rho W) = {N0:g} leaves the floating-point range")
    guard = max(20.0 * beta, 10.0 / W)
    tx = sample_input_sequence(p_sig, K, rng)
    _, xf, r = transmit(tx, p_sig, W, N0, dt, rng, guard)
    t_lo, t_hi = -2.0 * beta, tx.times[-1] + 2.0 * beta
    report = match_crossings(tx, extract_crossings(r.window(t_lo, t_hi)))
    rx_filter = extract_crossings(xf.window(t_lo, t_hi))
    return DeletionCensus(
        k_tilde=1.0 / (2.0 * beta * lam),
        n_deletions=report.n_deletions,
        n_insertions=report.n_insertions,
        n_deletions_filter=match_crossings(tx, rx_filter).n_deletions,
    )
