"""Waveform-level Monte-Carlo engine.

Synthesizes the alternating transmit signal on a fine grid, applies ideal
brick-wall lowpass filtering, adds bandlimited Gaussian noise, quantizes to
one bit, extracts zero-crossings, and aligns transmitted against received
crossings to count insertions and deletions.  Everything is driven by an
explicit numpy Generator so trials are reproducible and parallelizable.

Conventions: transitions are centered on the nominal crossing instants, so
the noise-free waveform crosses zero exactly at the times of the input
sequence.  Signals carry head/tail guard plateaus sized to swallow the
circular edge effects of FFT-based filtering; analysis windows stay inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import signal as sig
from scipy.special import ndtr

from .params import ChannelConfig, DerivedParams, ZeroCrossingSeq, derive, sample_input_sequence

__all__ = [
    "SampledWaveform",
    "MatchReport",
    "synthesize",
    "ideal_lp",
    "gen_bandlimited_noise",
    "quantize",
    "extract_crossings",
    "slope_at",
    "match_crossings",
    "SimulationRun",
    "run_chain",
    "CensusResult",
    "transition_crossing_census",
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
        if samples.size < 2:
            raise ValueError("waveform needs at least 2 samples")

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.samples.size)

    def __len__(self) -> int:
        return int(self.samples.size)


def synthesize(
    zcs: ZeroCrossingSeq,
    params: DerivedParams,
    dt: float,
    lead: float | None = None,
    tail: float | None = None,
) -> SampledWaveform:
    """Map a crossing sequence to the two-level waveform with sine transitions.

    Each transition occupies [T_k - beta/2, T_k + beta/2] and the waveform is
    exactly +-sqrt(P_hat) outside transitions.  The signal starts on the +
    level; ``lead``/``tail`` extend the first/last plateau (guard room for
    the circular filtering downstream).
    """
    p = params
    beta = p.beta
    if dt > beta / 20.0:
        raise ValueError(f"dt must be <= beta/20 = {beta / 20.0:.3g}, got {dt}")
    if lead is None:
        lead = 20.0 * beta
    if tail is None:
        tail = 20.0 * beta
    T = zcs.times
    if T.size == 0:
        raise ValueError("empty crossing sequence")
    if T[0] - beta / 2.0 <= -lead:
        raise ValueError("first transition does not fit the lead plateau")
    t_start = -lead
    n = int(math.ceil((T[-1] + beta / 2.0 + tail - t_start) / dt)) + 1
    t = t_start + dt * np.arange(n)
    amp = math.sqrt(p.P_hat)

    # plateau level after j completed transitions is (-1)^j * amp
    completed = np.searchsorted(T + beta / 2.0, t, side="right")
    x = amp * np.where(completed % 2 == 0, 1.0, -1.0)
    for j, Tk in enumerate(T):
        i0 = np.searchsorted(t, Tk - beta / 2.0, side="left")
        i1 = np.searchsorted(t, Tk + beta / 2.0, side="right")
        sign = -1.0 if j % 2 == 0 else 1.0
        x[i0:i1] = sign * amp * np.sin(math.pi * (t[i0:i1] - Tk) / beta)
    return SampledWaveform(samples=x, dt=dt, t_start=t_start)


def ideal_lp(w: SampledWaveform, W: float) -> SampledWaveform:
    """Brick-wall lowpass with one-sided bandwidth W and unit in-band gain."""
    fs = 1.0 / w.dt
    if fs < 2.0 * W:
        raise ValueError(f"sample rate {fs:.3g} below Nyquist for W = {W:.3g}")
    n = len(w)
    X = np.fft.rfft(w.samples)
    f = np.fft.rfftfreq(n, w.dt)
    X[f > W] = 0.0
    return SampledWaveform(samples=np.fft.irfft(X, n), dt=w.dt, t_start=w.t_start)


def gen_bandlimited_noise(
    n: int, dt: float, N0: float, W: float, rng: np.random.Generator, t_start: float = 0.0
) -> SampledWaveform:
    """Gaussian noise with flat PSD N0/2 on |f| <= W and variance N0 W.

    Built directly bandlimited: white Gaussian samples, brick-wall mask,
    deterministic renormalization from the exact count of retained spectral
    degrees of freedom (so no filter transients and the target variance is
    exact in expectation).
    """
    fs = 1.0 / dt
    if fs < 2.0 * W:
        raise ValueError(f"sample rate {fs:.3g} below Nyquist for W = {W:.3g}")
    if N0 < 0:
        raise ValueError(f"N0 must be nonnegative, got {N0}")
    if N0 == 0.0:
        return SampledWaveform(samples=np.zeros(n), dt=dt, t_start=t_start)
    white = rng.standard_normal(n)
    X = np.fft.rfft(white)
    f = np.fft.rfftfreq(n, dt)
    keep = f <= W
    X[~keep] = 0.0
    dof = 2 * int(np.count_nonzero(keep)) - 1  # DC bin carries one dof, not two
    if n % 2 == 0 and keep[-1]:
        dof -= 1  # so does Nyquist
    x = np.fft.irfft(X, n) * math.sqrt(N0 * W * n / dof)
    return SampledWaveform(samples=x, dt=dt, t_start=t_start)


def quantize(w: SampledWaveform) -> SampledWaveform:
    """1-bit quantizer: +1 for x >= 0, -1 for x < 0."""
    return SampledWaveform(
        samples=np.where(w.samples >= 0.0, 1.0, -1.0), dt=w.dt, t_start=w.t_start
    )


def extract_crossings(w: SampledWaveform, method: str = "auto") -> ZeroCrossingSeq:
    """Zero-crossing times of a sampled signal.

    Real-valued input: linear interpolation between the bracketing samples.
    Two-level (quantized) input: midpoint of the sign change, which is all
    the information the quantizer retains on the grid.
    """
    x = w.samples
    s = np.where(x >= 0.0, 1, -1)
    idx = np.nonzero(s[:-1] != s[1:])[0]
    if method == "auto":
        levels = np.unique(x)
        method = "midpoint" if levels.size <= 2 else "interp"
    if method == "midpoint":
        frac = np.full(idx.shape, 0.5)
    elif method == "interp":
        x0 = x[idx]
        x1 = x[idx + 1]
        frac = x0 / (x0 - x1)
    else:
        raise ValueError(f"unknown method {method!r}")
    times = w.t_start + (idx + frac) * w.dt
    first_rising = bool(s[idx[0]] < 0) if idx.size else None
    return ZeroCrossingSeq.from_times(times, first_rising=first_rising)


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
    n_unassigned_rx: int = 0


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
    best_abs = np.full(K, np.inf)
    best_off = np.full(K, np.nan)
    unassigned = 0

    if len(rx) == 0:
        pairs = K // 2
        return MatchReport(
            n_insertions=0,
            n_deletions=pairs,
            shift_samples=np.empty(0),
            per_symbol_counts=counts,
            n_extra_crossings=0,
        )

    pol_tx = tx.polarity()
    pol_rx = rx.polarity()
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
        np.add.at(counts, target, 1)
        off = rx_t - tx.times[target]
        order = np.argsort(np.abs(off), kind="stable")
        for o in order:
            tgt = target[o]
            if abs(off[o]) < best_abs[tgt]:
                best_abs[tgt] = abs(off[o])
                best_off[tgt] = off[o]

    matched = counts > 0
    shift_samples = best_off[matched]
    extras = int(np.sum(np.maximum(counts - 1, 0)))

    deletions = 0
    j = 0
    unmatched = ~matched
    while j < K - 1:
        if unmatched[j] and unmatched[j + 1]:
            deletions += 1
            j += 2
        else:
            j += 1

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

def _interior_slice(w: SampledWaveform, t_lo: float, t_hi: float) -> slice:
    i0 = int(math.ceil((t_lo - w.t_start) / w.dt))
    i1 = int(math.floor((t_hi - w.t_start) / w.dt)) + 1
    return slice(max(i0, 0), min(i1, len(w)))


@dataclass(frozen=True)
class SimulationRun:
    """One full transmit/receive pass."""

    tx: ZeroCrossingSeq
    rx: ZeroCrossingSeq
    report: MatchReport
    sigma_xt_emp: float   # measured lowpass-distortion variance of this run
    slope_sq_emp: float   # mean of xf'(T_k)^2 over the transmitted crossings
    noise_var_emp: float
    duration: float
    n_samples: int


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
    x = synthesize(tx, p, dt, lead=guard, tail=guard)
    xf = ideal_lp(x, p.W)
    noise = gen_bandlimited_noise(len(x), dt, p.N0, p.W, rng, t_start=x.t_start)
    r = SampledWaveform(xf.samples + noise.samples, dt, x.t_start)

    sl = _interior_slice(x, -2.0 * p.beta, tx.times[-1] + 2.0 * p.beta)
    xt = xf.samples[sl] - x.samples[sl]
    rx_all = extract_crossings(
        SampledWaveform(r.samples[sl], dt, r.t_start + sl.start * dt), method="interp"
    )
    report = match_crossings(tx, rx_all)
    return SimulationRun(
        tx=tx,
        rx=rx_all,
        report=report,
        sigma_xt_emp=float(np.var(xt)),
        slope_sq_emp=float(np.mean(slope_at(xf, tx.times) ** 2)),
        noise_var_emp=float(np.var(noise.samples)),
        duration=len(x) * dt,
        n_samples=len(x),
    )


@dataclass(frozen=True)
class CensusResult:
    mean: float
    var: float
    counts: np.ndarray


def transition_crossing_census(
    params: DerivedParams, rho: float, n_trials: int, rng: np.random.Generator
) -> CensusResult:
    """Count received zero-crossings inside each transition window.

    Windows are [T_k - beta/2, T_k + beta/2]; at mid/high SNR each should
    contain exactly one crossing.  rho overrides the SNR of ``params``;
    rho = inf runs the noise-free chain.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    p = params
    if math.isinf(rho):
        p = replace(p, rho=math.inf, N0=0.0, sigma_nhat_sq=0.0)
    elif rho != p.rho:
        p = derive(ChannelConfig(p.W, p.lam, rho, p.P_hat, p.seed))
    dt = p.beta / 24.0
    counts: list[np.ndarray] = []
    collected = 0
    while collected < n_trials:
        K = int(min(2000, max(50, n_trials - collected + 4)))
        run = _census_chunk(p, K, dt, rng)
        counts.append(run)
        collected += run.size
    all_counts = np.concatenate(counts)[:n_trials]
    return CensusResult(
        mean=float(all_counts.mean()),
        var=float(all_counts.var(ddof=1)) if all_counts.size > 1 else 0.0,
        counts=all_counts,
    )


def _census_chunk(p: DerivedParams, K: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    guard = 40.0 * p.beta
    tx = sample_input_sequence(p, K, rng)
    x = synthesize(tx, p, dt, lead=guard, tail=guard)
    xf = ideal_lp(x, p.W)
    noise = gen_bandlimited_noise(len(x), dt, p.N0, p.W, rng, t_start=x.t_start)
    r = SampledWaveform(xf.samples + noise.samples, dt, x.t_start)
    rx = extract_crossings(r, method="interp")
    # drop edge symbols; count crossings inside each transition window
    T = tx.times[2:-2]
    lo = np.searchsorted(rx.times, T - p.beta / 2.0)
    hi = np.searchsorted(rx.times, T + p.beta / 2.0)
    return (hi - lo).astype(int)


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
    hist_counts: np.ndarray
    bin_width: float
    n_time_samples: int
    n_ensemble: int


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
    probes three fixed interior instants across independent realizations.
    """
    p = params
    dt = p.beta / 20.0
    guard = 40.0 * p.beta

    # --- time statistics -------------------------------------------------
    K = int(math.ceil(n_time_samples * dt / p.T_avg)) + 50
    tx = sample_input_sequence(p, K, rng)
    x = synthesize(tx, p, dt, lead=guard, tail=guard)
    xf = ideal_lp(x, p.W)
    sl = _interior_slice(x, 0.0, tx.times[-1])
    xt = (xf.samples - x.samples)[sl][:n_time_samples]

    mean_time = float(xt.mean())
    var_time = float(xt.var())
    delta = 0.01 * float(np.max(np.abs(xt)))
    lo, hi = float(xt.min()), float(xt.max())
    n_bins = max(int(math.ceil((hi - lo) / delta)), 10)
    hist_counts, hist_edges = np.histogram(xt, bins=n_bins, range=(lo, hi))
    p_mass = hist_counts / hist_counts.sum()
    sd = math.sqrt(var_time)
    cdf = ndtr((hist_edges - mean_time) / sd)
    q_mass = np.maximum(np.diff(cdf), 1e-300)
    nz = p_mass > 0
    kl = float(np.sum(p_mass[nz] * np.log(p_mass[nz] / q_mass[nz])))

    # --- ensemble statistics at three interior instants ------------------
    K_e = 80
    probes = np.array([25.0, 31.0, 37.0]) * p.T_avg
    vals = np.empty((3, n_ensemble))
    for i in range(n_ensemble):
        txi = sample_input_sequence(p, K_e, rng)
        while txi.times[-1] <= probes[-1] + p.beta:  # vanishingly rare
            txi = sample_input_sequence(p, 2 * K_e, rng)
        xi = synthesize(txi, p, dt, lead=guard, tail=guard)
        xfi = ideal_lp(xi, p.W)
        xti = xfi.samples - xi.samples
        idx = np.round((probes - xi.t_start) / dt).astype(int)
        vals[:, i] = xti[idx]
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
        hist_counts=hist_counts,
        bin_width=delta,
        n_time_samples=int(xt.size),
        n_ensemble=n_ensemble,
    )


@dataclass(frozen=True)
class EmpiricalPsd:
    """Averaged periodogram of the synthesized signal, two-sided density."""

    f: np.ndarray          # Hz, DC bin excluded
    psd: np.ndarray        # W/Hz, two-sided convention (matches the analytic PSD)
    total_power: float
    out_of_band_power: float


def empirical_psd(
    params: DerivedParams, K: int, dt: float, rng: np.random.Generator
) -> EmpiricalPsd:
    """Welch periodogram of a K-symbol realization, normalized per unit time."""
    if K < 1000:
        raise ValueError(f"K must be >= 1000 for a stable estimate, got {K}")
    p = params
    tx = sample_input_sequence(p, K, rng)
    x = synthesize(tx, p, dt, lead=20.0 * p.beta, tail=20.0 * p.beta)
    sl = _interior_slice(x, 0.0, tx.times[-1])
    xs = x.samples[sl]
    total_power = float(np.mean(xs**2))
    fs = 1.0 / dt
    nperseg = min(1 << 13, xs.size // 8)
    f, pxx = sig.welch(
        xs - xs.mean(), fs=fs, window="hann", nperseg=nperseg, detrend=False
    )
    df = f[1] - f[0]
    out_of_band = float(pxx[f > p.W].sum() * df)
    return EmpiricalPsd(
        f=f[1:],
        psd=pxx[1:] / 2.0,
        total_power=total_power,
        out_of_band_power=out_of_band,
    )


@dataclass(frozen=True)
class DeletionCensus:
    """Deletion/insertion tally for one (W, beta) point of the decoupled study."""

    W: float
    beta: float
    lam: float
    rho: float
    k_tilde: float
    n_symbols: int
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
    noise together; ``n_deletions_filter`` matches the noise-free filtered
    signal against the input and so counts the filter's share alone.
    """
    if min(lam, beta, W, rho, P_hat) <= 0:
        raise ValueError("lam, beta, W, rho, P_hat must all be positive")
    # signal-side parameters: derive with the matched bandwidth 1/(2 beta),
    # then transmit through the decoupled filter W
    p_sig = derive(ChannelConfig(W=1.0 / (2.0 * beta), lam=lam, rho=rho, P_hat=P_hat))
    N0 = p_sig.P / (rho * W)
    guard = max(20.0 * beta, 10.0 / W)
    rng_local = rng
    tx = sample_input_sequence(p_sig, K, rng_local)
    x = synthesize(tx, p_sig, dt, lead=guard, tail=guard)
    xf = ideal_lp(x, W)
    noise = gen_bandlimited_noise(len(x), dt, N0, W, rng_local, t_start=x.t_start)
    r = SampledWaveform(xf.samples + noise.samples, dt, x.t_start)
    sl = _interior_slice(r, -2.0 * beta, tx.times[-1] + 2.0 * beta)
    rx = extract_crossings(
        SampledWaveform(r.samples[sl], dt, r.t_start + sl.start * dt), method="interp"
    )
    report = match_crossings(tx, rx)
    rx_filter = extract_crossings(
        SampledWaveform(xf.samples[sl], dt, xf.t_start + sl.start * dt), method="interp"
    )
    return DeletionCensus(
        W=W,
        beta=beta,
        lam=lam,
        rho=rho,
        k_tilde=1.0 / (2.0 * beta * lam),
        n_symbols=K,
        n_deletions=report.n_deletions,
        n_insertions=report.n_insertions,
        n_deletions_filter=match_crossings(tx, rx_filter).n_deletions,
    )
