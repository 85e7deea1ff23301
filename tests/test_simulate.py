"""Waveform synthesis, filtering, quantization, extraction, alignment."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zcrate.bounds import sigma_S_sq
from zcrate.distortion import distortion_bounds
from zcrate.params import ChannelConfig, ZeroCrossingSeq, derive, sample_input_sequence
from zcrate.simulate import (
    SampledWaveform,
    _fast_fft_len,
    deletion_census,
    extract_crossings,
    gen_bandlimited_noise,
    ideal_lp,
    lp_distortion_at,
    lp_distortion_stats,
    match_crossings,
    quantize,
    run_chain,
    slope_at,
    synthesize,
    transition_crossing_census,
    transition_distortion,
    transmit,
)


def params_at(k: float, rho_db: float, W: float = 1.0):
    return derive(ChannelConfig(W=W, lam=W / k, rho=10.0 ** (rho_db / 10.0)))


def is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def synthesize_loop(T, p, t_start, dt, n):
    """Reference: the waveform built one transition at a time, later ones
    overwriting earlier ones, on the grid t_start + dt * arange(n)."""
    beta = p.beta
    t = t_start + dt * np.arange(n)
    amp = math.sqrt(p.P_hat)
    completed = np.searchsorted(T + beta / 2.0, t, side="right")
    x = amp * np.where(completed % 2 == 0, 1.0, -1.0)
    for j, Tk in enumerate(T):
        i0 = np.searchsorted(t, Tk - beta / 2.0, side="left")
        i1 = np.searchsorted(t, Tk + beta / 2.0, side="right")
        sign = -1.0 if j % 2 == 0 else 1.0
        x[i0:i1] = sign * amp * np.sin(math.pi * (t[i0:i1] - Tk) / beta)
    return x


def match_loop(tx, rx):
    """Reference: match_crossings with its best-offset and deletion loops."""
    K = len(tx)
    counts = np.zeros(K, dtype=int)
    best_abs = np.full(K, np.inf)
    best_off = np.full(K, np.nan)
    unassigned = 0
    if len(rx) == 0:
        return 0, K // 2, np.empty(0), counts, 0, 0
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
        target = tx_idx[np.where(d_left <= d_right, left, right)]
        np.add.at(counts, target, 1)
        off = rx_t - tx.times[target]
        for o in np.argsort(np.abs(off), kind="stable"):
            if abs(off[o]) < best_abs[target[o]]:
                best_abs[target[o]] = abs(off[o])
                best_off[target[o]] = off[o]
    matched = counts > 0
    extras = int(np.sum(np.maximum(counts - 1, 0)))
    deletions, j = 0, 0
    while j < K - 1:
        if not matched[j] and not matched[j + 1]:
            deletions += 1
            j += 2
        else:
            j += 1
    return extras // 2, deletions, best_off[matched], counts, extras, unassigned


@st.composite
def tx_rx_pairs(draw):
    """tx on a half-integer grid; rx keeps a subset of it with eighth-step
    jitter and adds insertion pairs, so dropped runs, distance ties and
    equal offsets all occur, as do one-polarity and empty rx."""
    steps = draw(st.lists(st.integers(1, 6), min_size=1, max_size=30))
    tx_t = 0.5 * np.cumsum(steps)
    rx_t = []
    for t in tx_t:
        if draw(st.booleans()) or draw(st.booleans()):
            rx_t.append(t + 0.125 * draw(st.integers(-4, 4)))
    for _ in range(draw(st.integers(0, 4))):
        a = 0.125 * draw(st.integers(0, 8 * int(tx_t[-1]) + 8))
        rx_t += [a, a + 0.125 * draw(st.integers(1, 4))]
    rx_t = np.unique(rx_t)
    tx = ZeroCrossingSeq(tx_t, first_rising=draw(st.booleans()))
    rx = ZeroCrossingSeq(rx_t, first_rising=draw(st.booleans()) if rx_t.size else None)
    return tx, rx


@st.composite
def damaged_pairs(draw):
    """tx with spacings in [1, 3]; rx is tx with disjoint adjacent pairs
    deleted, every other crossing jittered by less than a quarter of the
    minimum spacing, and insertion pairs placed mid-plateau, with no deleted
    crossing within two of the plateau's ends.  Returns (tx, rx, deleted
    indices, number of inserted pairs, jitter of the kept crossings)."""
    spacings = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=1, max_size=30)))
    K = spacings.size
    tx_t = np.cumsum(spacings)
    jitter = 0.24 * spacings.min() * np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=K, max_size=K)))
    deleted: set[int] = set()
    for j in sorted(draw(st.lists(st.integers(0, max(K - 2, 0)), max_size=5))):
        if j + 1 < K and not {j, j + 1} & deleted:
            deleted |= {j, j + 1}
    kept = np.array([i for i in range(K) if i not in deleted], dtype=int)
    rx_t = list(tx_t[kept] + jitter[kept])
    plateaus = {j for j in draw(st.lists(st.integers(0, max(K - 2, 0)), max_size=4))
                if j + 1 < K and not set(range(j - 1, j + 3)) & deleted}
    for j in plateaus:
        u = draw(st.floats(0.3, 0.45))
        v = u + draw(st.floats(0.1, 0.25))
        rx_t += [tx_t[j] + u * spacings[j + 1], tx_t[j] + v * spacings[j + 1]]
    first_rising = draw(st.booleans())
    tx = ZeroCrossingSeq(tx_t, first_rising=first_rising)
    # pairs keep the alternation, so rx starts with the polarity of its first kept crossing
    rx_first = None if kept.size == 0 else first_rising == (kept[0] % 2 == 0)
    rx = ZeroCrossingSeq(np.sort(rx_t), first_rising=rx_first)
    return tx, rx, sorted(deleted), len(plateaus), jitter[kept]


class TestSynthesize:
    def test_single_symbol_crossing_at_T1(self):
        p = params_at(1.0, 10.0)
        dt = p.beta / 40.0
        tx = ZeroCrossingSeq(np.array([1.3]), first_rising=False)
        x = synthesize(tx, p, dt, 20.0 * p.beta)
        rx = extract_crossings(x)
        assert len(rx) == 1
        assert rx.times[0] == pytest.approx(1.3, abs=dt / 2.0)
        assert not rx.first_rising

    def test_levels_and_continuity(self):
        p = params_at(1.0, 10.0)
        dt = p.beta / 20.0
        tx = sample_input_sequence(p, 50, np.random.default_rng(0))
        x = synthesize(tx, p, dt, 20.0 * p.beta)
        amp = math.sqrt(p.P_hat)
        assert np.max(np.abs(x.samples)) <= amp + 1e-12
        # exactly +-amp outside transition windows
        t = x.times()
        outside = np.ones(len(x), dtype=bool)
        for Tk in tx.times:
            outside &= np.abs(t - Tk) > p.beta / 2.0
        assert np.all(np.abs(np.abs(x.samples[outside]) - amp) < 1e-12)
        # no jumps beyond one transition step
        assert np.max(np.abs(np.diff(x.samples))) < amp * math.pi * dt / p.beta * 1.01

    def test_sign_alternation(self):
        p = params_at(1.0, 10.0)
        tx = sample_input_sequence(p, 21, np.random.default_rng(1))
        x = synthesize(tx, p, p.beta / 20.0, 20.0 * p.beta)
        t = x.times()
        mids = (tx.times[:-1] + tx.times[1:]) / 2.0
        idx = np.searchsorted(t, mids)
        signs = np.sign(x.samples[idx])
        assert np.all(signs[::2] == signs[0])
        assert np.all(signs[1::2] == -signs[0])

    def test_long_run_power(self):
        p = params_at(1.0, 10.0)
        tx = sample_input_sequence(p, 4000, np.random.default_rng(2))
        x = synthesize(tx, p, p.beta / 20.0, 20.0 * p.beta)
        t = x.times()
        mask = (t >= 0.0) & (t <= tx.times[-1])
        power = float(np.mean(x.samples[mask] ** 2))
        assert power == pytest.approx(p.P, rel=0.01)

    def test_rejects_coarse_grid(self):
        p = params_at(1.0, 10.0)
        tx = sample_input_sequence(p, 3, np.random.default_rng(3))
        with pytest.raises(ValueError, match="dt"):
            synthesize(tx, p, p.beta / 10.0, 20.0 * p.beta)

    @pytest.mark.parametrize("K", [1, 2, 7, 80, 1000])
    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_length_is_5_smooth_and_tail_a_minimum(self, K, k):
        p = params_at(k, 10.0)
        dt = p.beta / 24.0
        tail = 13.0 * p.beta
        tx = sample_input_sequence(p, K, np.random.default_rng(K))
        x = synthesize(tx, p, dt, tail)
        assert is_5_smooth(len(x))
        t = x.times()
        end = tx.times[-1] + p.beta / 2.0
        assert t[-1] >= end + tail - 1e-9
        level = math.sqrt(p.P_hat) * (1.0 if K % 2 == 0 else -1.0)
        assert np.all(x.samples[t > end] == level)

    def test_fast_fft_len_is_scipys_real_fast_length(self):
        # the padded length, and so every Monte-Carlo output, must not move
        from scipy.fft import next_fast_len

        rng = np.random.default_rng(16)
        ns = [*range(1, 2**16 + 1), *rng.integers(2**16, 5 * 10**7, 2000).tolist()]
        assert [n for n in ns if _fast_fft_len(n) != next_fast_len(n, real=True)] == []

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_transition_loop(self, seed):
        rng = np.random.default_rng(seed)
        p = params_at([0.25, 0.5, 1.0, 2.0, 4.0, 1.0][seed], 10.0, W=[1.0, 0.7, 2.5][seed % 3])
        tx = sample_input_sequence(p, int(rng.integers(2, 300)), rng)
        dt = p.beta / [20.0, 24.0, 37.3][seed % 3]
        x = synthesize(tx, p, dt, 20.0 * p.beta)
        ref = synthesize_loop(tx.times, p, x.t_start, dt, len(x))
        assert np.array_equal(x.samples, ref)

    def test_matches_loop_single_transition(self):
        p = params_at(1.0, 10.0)
        tx = ZeroCrossingSeq(np.array([0.83]), first_rising=False)
        x = synthesize(tx, p, p.beta / 24.0, 20.0 * p.beta)
        assert np.array_equal(x.samples, synthesize_loop(tx.times, p, x.t_start, x.dt, len(x)))

    @pytest.mark.parametrize("spacing", [1.0, 0.6])
    def test_matches_loop_where_transitions_touch(self, spacing):
        """Spacing beta: with dt = 1/64 and a 10 s guard, every shared edge
        T_k + beta/2 is a grid point written by both transitions.  Spacing
        0.6 beta overlaps them by many samples; the later one must win."""
        p = params_at(1.0, 10.0)  # beta = 0.5
        tx = ZeroCrossingSeq(0.5 + np.cumsum(np.full(9, spacing * p.beta)), first_rising=False)
        x = synthesize(tx, p, 1.0 / 64.0, 10.0)
        edges = tx.times[:-1] + p.beta / 2.0
        if spacing == 1.0:
            assert np.all(np.isin(edges, x.times()))
        assert np.array_equal(x.samples, synthesize_loop(tx.times, p, x.t_start, x.dt, len(x)))


class TestIdealLp:
    def setup_method(self):
        self.dt = 1.0 / 64.0
        self.n = 4096
        self.t = np.arange(self.n) * self.dt

    def _tone(self, f):
        return SampledWaveform(np.cos(2.0 * math.pi * f * self.t), self.dt)

    def test_passband_unit_gain(self):
        W = 4.0
        f = 2.0  # bin-aligned: f * n * dt integer
        y = ideal_lp(self._tone(f), W)
        assert np.max(np.abs(y.samples - self._tone(f).samples)) < 1e-6

    def test_stopband_rejection(self):
        W = 4.0
        f = 6.0
        y = ideal_lp(self._tone(f), W)
        in_power = np.mean(self._tone(f).samples ** 2)
        out_power = np.mean(y.samples**2)
        assert 10.0 * math.log10(out_power / in_power + 1e-300) < -120.0

    def test_parseval_contraction(self):
        rng = np.random.default_rng(4)
        x = SampledWaveform(rng.standard_normal(self.n), self.dt)
        y = ideal_lp(x, 4.0)
        assert np.mean(y.samples**2) <= np.mean(x.samples**2)

    def test_rejects_sub_nyquist(self):
        x = SampledWaveform(np.zeros(128) + 1.0, 1.0)
        with pytest.raises(ValueError, match="Nyquist|sample rate"):
            ideal_lp(x, 0.9)


class TestNoise:
    def test_variance_and_flatness(self):
        N0, W = 0.4, 1.3
        dt = 1.0 / (8.0 * W)
        n = 2**22
        noise = gen_bandlimited_noise(n, dt, N0, W, np.random.default_rng(5))
        assert noise.samples.var() == pytest.approx(N0 * W, rel=0.01)
        from scipy.signal import welch

        f, pxx = welch(noise.samples, fs=1.0 / dt, nperseg=4096)
        band = (f > 0.05 * W) & (f < 0.95 * W)
        level_db = 10.0 * np.log10(pxx[band] / 2.0 / (N0 / 2.0))
        assert np.max(np.abs(level_db)) < 0.5

    def test_acf_null_at_half_period(self):
        N0, W = 1.0, 1.0
        dt = 1.0 / 16.0
        lag = int(round(1.0 / (2.0 * W) / dt))
        noise = gen_bandlimited_noise(2**22, dt, N0, W, np.random.default_rng(6))
        x = noise.samples
        acf = float(np.mean(x[:-lag] * x[lag:]))
        se = N0 * W / math.sqrt(x.size * dt * 2 * W)
        assert abs(acf) < 4.0 * se

    def test_zero_n0_gives_silence(self):
        noise = gen_bandlimited_noise(256, 0.01, 0.0, 1.0, np.random.default_rng(7))
        assert np.all(noise.samples == 0.0)


class TestTransmit:
    def _setup(self, seed=14):
        p = params_at(1.0, 10.0)
        tx = sample_input_sequence(p, 200, np.random.default_rng(seed))
        return p, tx, p.beta / 20.0, 40.0 * p.beta

    def test_noise_free_is_ideal_lp(self):
        p, tx, dt, guard = self._setup()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        x, xf, r = transmit(tx, p, p.W, 0.0, dt, rng, guard)
        assert r is xf
        assert rng.bit_generator.state == state  # nothing drawn
        ref = synthesize(tx, p, dt, guard)
        assert np.array_equal(x.samples, ref.samples) and x.t_start == ref.t_start
        assert np.array_equal(xf.samples, ideal_lp(ref, p.W).samples)

    @pytest.mark.parametrize("W_over_W0", [1.0, 0.4])
    def test_noise_is_gen_bandlimited_noise(self, W_over_W0):
        p, tx, dt, guard = self._setup()
        W = W_over_W0 * p.W
        x, xf, r = transmit(tx, p, W, p.N0, dt, np.random.default_rng(15), guard)
        noise = gen_bandlimited_noise(len(x), dt, p.N0, W, np.random.default_rng(15)).samples
        rms = math.sqrt(np.mean(noise**2))
        assert np.max(np.abs(r.samples - xf.samples - noise)) <= 1e-12 * rms
        assert np.array_equal(xf.samples, ideal_lp(x, W).samples)

    @pytest.mark.parametrize("n, dt, W", [(1001, 0.01, 3.0), (1000, 0.01, 3.0), (1000, 0.01, 50.0)])
    def test_one_draw_takes_two_normals_per_in_band_bin(self, n, dt, W):
        m = int(np.count_nonzero(np.fft.rfftfreq(n, dt) <= W))
        rng, ref = np.random.default_rng(16), np.random.default_rng(16)
        gen_bandlimited_noise(n, dt, 0.3, W, rng)
        ref.standard_normal(2 * m)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n, W", [(15, 0.5), (16, 0.25), (16, 0.5)],
                             ids=["odd_n", "even_n_nyquist_out", "even_n_nyquist_in"])
    def test_variance_at_dc_and_nyquist_shapes(self, n, W):
        # at n = 15-16 the DC bin, and Nyquist when in band, carry 1/16 of the
        # variance each, so a wrong law or dof count there moves it by >= 3%
        N0, dt = 0.8, 1.0
        rng = np.random.default_rng(17)
        draws = np.array([gen_bandlimited_noise(n, dt, N0, W, rng).samples
                          for _ in range(20000)])
        assert np.mean(draws**2) == pytest.approx(N0 * W, rel=0.01)


class TestQuantizeExtract:
    def test_quantizer_cases(self):
        w = SampledWaveform(np.array([0.3, -0.3, 0.0]), 1.0)
        assert list(quantize(w).samples) == [1.0, -1.0, 1.0]

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.3, 4.0), st.floats(0.2, 5.0), st.integers(20, 80),
           st.integers(0, 2**32 - 1), st.sampled_from(["x", "xf", "r"]))
    def test_quantized_crossings_are_sign_change_midpoints(self, k, W, per_beta, seed, which):
        # on a +-1 waveform the interpolated crossing is the midpoint, exactly
        p = params_at(k, 10.0, W=W)
        rng = np.random.default_rng(seed)
        tx = sample_input_sequence(p, 30, rng)
        x, xf, r = transmit(tx, p, p.W, p.N0, p.beta / per_beta, rng, 40.0 * p.beta)
        w = {"x": x, "xf": xf, "r": r}[which]
        pos = w.samples >= 0.0
        i = np.nonzero(pos[:-1] != pos[1:])[0]
        rx = extract_crossings(quantize(w))
        assert np.array_equal(rx.times, w.t_start + (i + 0.5) * w.dt)
        assert rx.first_rising == (not pos[i[0]])

    def test_sine_crossings(self):
        dt = 1e-3
        t = np.arange(0.0, 1.2, dt)
        w = SampledWaveform(np.sin(2.0 * math.pi * t), dt)
        rx = extract_crossings(w)
        assert np.allclose(rx.times, [0.5, 1.0], atol=1e-6) or np.allclose(
            rx.times[:2], [0.5, 1.0], atol=1e-6
        )
        assert np.all(np.diff(rx.times) > 0)

    def test_noise_free_pipeline_recovers_crossings(self):
        p = params_at(1.0, 10.0)
        dt = p.beta / 24.0
        tx = sample_input_sequence(p, 100, np.random.default_rng(8))
        x = synthesize(tx, p, dt, 20.0 * p.beta)
        rx = extract_crossings(x)  # unfiltered: crossings sit exactly on T_k
        assert len(rx) == len(tx)
        assert np.max(np.abs(rx.times - tx.times)) < dt

    def test_quantized_midpoint_extraction(self):
        p = params_at(1.0, 10.0)
        dt = p.beta / 24.0
        tx = sample_input_sequence(p, 50, np.random.default_rng(9))
        q = quantize(synthesize(tx, p, dt, 20.0 * p.beta))
        rx = extract_crossings(q)
        assert len(rx) == len(tx)
        assert np.max(np.abs(rx.times - tx.times)) <= dt

    def test_exact_zero_between_negative_samples_is_no_crossing(self):
        rx = extract_crossings(SampledWaveform(np.array([-1.0, 0.0, -1.0]), 1.0))
        assert len(rx) == 0
        rx = extract_crossings(SampledWaveform(np.array([1.0, -1.0, 0.0, -1.0, 2.0]), 0.5))
        assert np.allclose(rx.times, [0.25, 1.5 + 1.0 / 6.0]) and rx.first_rising is False

    def test_injected_exact_zeros_in_noise(self):
        # each exact zero flanked by negative samples removes one tied pair
        # of crossings and leaves every other crossing where it was
        x = np.random.default_rng(21).standard_normal(4000)
        clean = extract_crossings(SampledWaveform(x, 0.1))
        dips = []
        for i in range(1, len(x) - 1):
            if x[i - 1] < 0 and x[i] < 0 and x[i + 1] < 0 and (not dips or i > dips[-1] + 1):
                dips.append(i)
        x[dips[:25]] = 0.0
        rx = extract_crossings(SampledWaveform(x, 0.1))
        assert np.all(np.diff(rx.times) > 0)
        assert rx.first_rising == clean.first_rising
        np.testing.assert_array_equal(rx.times, clean.times)
        mid = extract_crossings(quantize(SampledWaveform(x, 0.1)))
        assert len(mid) == len(clean) + 50

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.3, 4.0), st.floats(0.2, 5.0), st.integers(20, 80),
           st.integers(0, 2**32 - 1))
    def test_midpoint_on_quantized_within_half_sample_of_interp(self, k, W, per_beta, seed):
        # beta = 1/(2W), lambda = W/k, dt = beta/per_beta <= beta/20.  The
        # quantizer keeps the sign, so both waveforms have the same sign
        # changes; the midpoint sits at most dt/2 from the interpolated crossing
        p = params_at(k, 10.0, W=W)
        dt = p.beta / per_beta
        x = synthesize(sample_input_sequence(p, 30, np.random.default_rng(seed)), p, dt,
                       20.0 * p.beta)
        fine = extract_crossings(x)
        coarse = extract_crossings(quantize(x))
        assert len(coarse) == len(fine) and coarse.first_rising == fine.first_rising
        assert np.all(np.abs(coarse.times - fine.times) <= 0.5 * dt * (1.0 + 1e-9))


class TestMatch:
    def _seq(self, times, first_rising=False):
        return ZeroCrossingSeq(np.asarray(times, dtype=float), first_rising)

    def test_identity(self):
        p = params_at(1.0, 10.0)
        tx = sample_input_sequence(p, 64, np.random.default_rng(10))
        rep = match_crossings(tx, tx)
        assert rep.n_insertions == 0
        assert rep.n_deletions == 0
        assert np.all(rep.per_symbol_counts == 1)
        assert np.allclose(rep.shift_samples, 0.0)

    def test_injected_pair(self):
        tx = self._seq([1.0, 2.0, 3.0, 4.0, 5.0])
        # insert a down/up pair inside the plateau between crossings 2 and 3
        rx = self._seq([1.0, 2.0, 2.5, 2.7, 3.0, 4.0, 5.0])
        rep = match_crossings(tx, rx)
        assert rep.n_insertions == 1
        assert rep.n_deletions == 0
        assert rep.n_extra_crossings == 2
        affected = rep.per_symbol_counts[rep.per_symbol_counts > 1]
        assert list(affected) == [2, 2]

    def test_deleted_pair(self):
        tx = self._seq([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        rx = self._seq([1.0, 2.0, 5.0, 6.0])  # crossings 3 and 4 vanished
        rep = match_crossings(tx, rx)
        assert rep.n_deletions == 1
        assert rep.n_insertions == 0
        assert list(rep.per_symbol_counts) == [1, 1, 0, 0, 1, 1]

    def test_empty_rx(self):
        tx = self._seq([1.0, 2.0, 3.0, 4.0])
        rx = ZeroCrossingSeq(np.array([]))
        rep = match_crossings(tx, rx)
        assert rep.n_deletions == 2
        assert rep.shift_samples.size == 0

    @settings(max_examples=400, deadline=None)
    @given(tx_rx_pairs())
    @example((ZeroCrossingSeq(np.array([1.0]), first_rising=True),
              ZeroCrossingSeq(np.array([0.5, 1.0, 1.5]), first_rising=False)))
    @example((ZeroCrossingSeq(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), first_rising=False),
              ZeroCrossingSeq(np.array([0.75, 1.25, 2.0]), first_rising=False)))
    def test_matches_reference_loops(self, pair):
        tx, rx = pair
        rep = match_crossings(tx, rx)
        ins, dels, shifts, counts, extras, unassigned = match_loop(tx, rx)
        assert rep.n_insertions == ins
        assert rep.n_deletions == dels
        assert np.array_equal(rep.shift_samples, shifts)
        assert np.array_equal(rep.per_symbol_counts, counts)
        assert rep.n_extra_crossings == extras
        assert rep.n_unassigned_rx == unassigned

    @settings(max_examples=300, deadline=None)
    @given(damaged_pairs())
    def test_recovers_injected_damage(self, case):
        tx, rx, deleted, inserted, jitter = case
        rep = match_crossings(tx, rx)
        assert rep.n_deletions == len(deleted) // 2
        assert rep.n_insertions == inserted
        assert rep.n_extra_crossings == 2 * inserted
        assert rep.n_unassigned_rx == 0
        assert np.flatnonzero(rep.per_symbol_counts == 0).tolist() == deleted
        assert np.allclose(rep.shift_samples, jitter, rtol=0.0, atol=1e-12)

    def test_deterministic(self):
        # identical seeds give a bit-identical report, field by field
        p = params_at(1.0, 10.0)
        r1 = run_chain(p, 300, p.beta / 20.0, np.random.default_rng(123))
        r2 = run_chain(p, 300, p.beta / 20.0, np.random.default_rng(123))
        assert np.array_equal(r1.report.shift_samples, r2.report.shift_samples)
        assert np.array_equal(r1.report.per_symbol_counts, r2.report.per_symbol_counts)
        assert r1.report.n_insertions == r2.report.n_insertions
        assert r1.report.n_deletions == r2.report.n_deletions
        assert r1.report.n_extra_crossings == r2.report.n_extra_crossings


class TestEndToEnd:
    def test_noise_free_identity(self):
        """Full clean chain: filter + quantize + extract, then compare spacings.

        The brick-wall filter shifts crossings by the clipped-harmonic ripple;
        the typical symbol is recovered within 2 dt + beta/100 but symbols at
        near-minimum spacing see shifts up to ~beta/5, so the bound is asserted
        on the median; the max is bounded by half a transition time.
        """
        for k in (1.0, 4.0):
            p = params_at(k, 10.0)
            dt = p.beta / 20.0
            tx = sample_input_sequence(p, 400, np.random.default_rng(11))
            x = synthesize(tx, p, dt, 20.0 * p.beta)
            rx = extract_crossings(quantize(ideal_lp(x, p.W)))
            assert len(rx) == len(tx)  # count always survives
            err = np.abs(np.diff(rx.times) - np.diff(tx.times))
            tol = 2.0 * dt + p.beta / 100.0
            assert np.median(err) <= tol
            assert np.percentile(err, 90) <= 2.5 * tol
            assert err.max() <= p.beta / 2.0

    def test_insertion_rate_below_mu_bar(self):
        from zcrate.bounds import bound_report

        p = params_at(1.0, 10.0)
        run = run_chain(p, 20000, p.beta / 20.0, np.random.default_rng(12))
        mean_v = run.report.per_symbol_counts[run.report.per_symbol_counts > 0].mean()
        mu_bar = bound_report(p).mu_bar
        se = run.report.per_symbol_counts.std() / math.sqrt(len(run.tx))
        assert mean_v <= mu_bar + 3.0 * se

    def test_shift_variance_magnitude(self):
        """Regression pin for the measured shift statistics at 10 dB, k=1.

        The paper's sigma_S^2 uses the unfiltered slope and underpredicts
        here: the brick-wall filter removes about 60% of the squared slope at
        the crossings, and the measured variance sits at 2.27x the model value
        for this seed (2.08x for criterion 12's).  With the filtered slope the
        run measures, sigma_z^2/E[xf'(T_k)^2] comes within 8%.
        """
        p = params_at(1.0, 10.0)
        run = run_chain(p, 10000, p.beta / 24.0, np.random.default_rng(13))
        sz_emp = p.sigma_nhat_sq + run.sigma_xt_emp
        var = float(np.var(run.report.shift_samples))
        ratio = var / sigma_S_sq(p, sz_emp)
        assert 1.8 < ratio < 3.0
        assert var * run.slope_sq_emp / sz_emp == pytest.approx(1.0, abs=0.15)
        assert abs(np.mean(run.report.shift_samples)) < 0.01 * p.beta


class TestFilteredSlope:
    def test_isolated_transition(self):
        """Brick-wall filtering an isolated sine transition at W = 1/(2 beta)
        scales its slope at the crossing by Si(pi)/pi = 0.589."""
        from scipy.special import sici

        p = params_at(1.0, 10.0)
        dt = p.beta / 48.0
        tx = ZeroCrossingSeq(np.array([0.0]), first_rising=False)
        guard = 2000.0 * p.beta  # keeps the circular edge of the FFT filter far off
        xf = ideal_lp(synthesize(tx, p, dt, guard), p.W)
        si_pi = sici(math.pi)[0]
        expected = -(si_pi / math.pi) * (math.pi * math.sqrt(p.P_hat) / p.beta)
        assert slope_at(xf, tx.times)[0] == pytest.approx(expected, rel=1e-3)

    def test_slope_at_exact_on_a_parabola(self):
        dt = 0.01
        w = SampledWaveform((0.05 + dt * np.arange(200)) ** 2, dt, t_start=0.0)
        t = np.array([0.3, 0.777, 1.5])
        assert np.allclose(slope_at(w, t), 2.0 * (t + 0.05), rtol=1e-12)
        with pytest.raises(ValueError):
            slope_at(w, np.array([1.99]))

    def test_run_chain_slope_sparse_limit(self):
        """At k = 64 transitions are far apart, so the mean squared filtered
        slope approaches the isolated-transition value."""
        from scipy.special import sici

        p = params_at(64.0, 10.0)
        run = run_chain(p, 100, p.beta / 24.0, np.random.default_rng(5))
        isolated = (sici(math.pi)[0] * math.sqrt(p.P_hat) / p.beta) ** 2
        assert run.slope_sq_emp == pytest.approx(isolated, rel=0.02)


class TestCensus:
    def test_noise_free_exactly_one(self):
        p = replace(params_at(1.0, 10.0), rho=math.inf, N0=0.0, sigma_nhat_sq=0.0)
        cen = transition_crossing_census(p, 400, np.random.default_rng(14))
        assert cen.mean == 1.0
        assert cen.var == 0.0

    def test_mid_snr_bands(self):
        p = params_at(1.0, 10.0)
        cen = transition_crossing_census(p, 3000, np.random.default_rng(15))
        assert cen.mean == pytest.approx(1.0, abs=0.02)
        assert cen.var <= 0.05

    def test_low_snr_breaks_assumption(self):
        # at 0 dB the count departs visibly from 1 (crossings leave the window
        # faster than extra ones arrive; the analytic count agrees, ~0.82)
        p = params_at(1.0, 0.0)
        cen = transition_crossing_census(p, 2000, np.random.default_rng(16))
        assert abs(cen.mean - 1.0) > 0.05

    @pytest.mark.parametrize("n_trials", [1, 0])
    def test_rejects_fewer_than_two_trials(self, n_trials):
        # one count has no sample variance
        with pytest.raises(ValueError, match="must be >= 2"):
            transition_crossing_census(params_at(1.0, 10.0), n_trials, np.random.default_rng(0))


class TestLpDistortionStats:
    def test_time_vs_ensemble_and_kl(self):
        rng = np.random.default_rng(17)
        p = params_at(1.0, 10.0)
        st = lp_distortion_stats(p, 400000, 1500, rng)
        assert st.var_time / st.var_ensemble_pooled == pytest.approx(1.0, abs=0.05)
        assert st.kl_nats < 0.05
        db = distortion_bounds(p)
        assert db.sigma_xt_sq_lo <= st.var_time <= db.sigma_xt_sq_hi
        assert abs(st.mean_time) < 0.02

    def test_histogram_bin_rule(self):
        rng = np.random.default_rng(18)
        p = params_at(1.0, 10.0)
        st = lp_distortion_stats(p, 100000, 20, rng)
        widths = np.diff(st.hist_edges)
        assert np.allclose(widths, widths[0])
        assert widths[0] <= st.bin_width * 1.01


def ensemble_loop(p, n_time_samples, n_ensemble, rng, guard=40.0):
    """Reference: the ensemble leg one realization at a time, after the draw
    of its time leg, synthesized with ``guard`` beta plateaus and filtered by
    FFT.  Returns the values probed at the grid points nearest the probe
    instants, those grid instants (one column per realization) and the
    crossing times of each realization."""
    dt = p.beta / 20.0
    sample_input_sequence(p, int(math.ceil(n_time_samples * dt / p.T_avg)) + 50, rng)
    probes = np.array([25.0, 31.0, 37.0]) * p.T_avg
    vals = np.empty((3, n_ensemble))
    instants = np.empty((3, n_ensemble))
    seqs = []
    for i in range(n_ensemble):
        txi = sample_input_sequence(p, 80, rng)
        while txi.times[-1] <= probes[-1] + p.beta:
            txi = sample_input_sequence(p, 160, rng)
        xi = synthesize(txi, p, dt, guard * p.beta)
        xti = ideal_lp(xi, p.W).samples - xi.samples
        idx = np.round((probes - xi.t_start) / dt).astype(int)
        vals[:, i] = xti[idx]
        instants[:, i] = xi.times()[idx]
        seqs.append(txi.times)
    return vals, instants, seqs


def raw_transition(tau, beta):
    """The unit sine transition from -1 to +1 centred on 0."""
    return np.sin(np.clip(math.pi * np.asarray(tau) / beta, -0.5 * math.pi, 0.5 * math.pi))


class TestTransitionKernel:
    def test_closed_form_matches_quadrature(self):
        """kappa plus the raw transition equals the defining integral
        (1/pi) int_{-pi/2}^{pi/2} cos v Si(z - v) dv, z = pi tau/beta."""
        from scipy.integrate import quad
        from scipy.special import sici

        beta = 0.7
        taus = np.concatenate((np.linspace(-30.0, 30.0, 241) * beta,
                               [-0.5 * beta, 0.5 * beta, 1e-9, 0.5 * beta + 1e-12]))
        ref = np.empty_like(taus)
        for i, tau in enumerate(taus):
            z = math.pi * tau / beta
            val, _ = quad(lambda v: math.cos(v) * sici(z - v)[0], -0.5 * math.pi, 0.5 * math.pi,
                          epsabs=1e-13, epsrel=1e-13, limit=200)
            ref[i] = val / math.pi - raw_transition(tau, beta)
        assert np.max(np.abs(transition_distortion(taus, beta) - ref)) <= 1e-13

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-30.0, 30.0), st.floats(0.05, 20.0))
    def test_odd(self, u, beta):
        tau = np.array([u * beta])
        assert transition_distortion(-tau, beta)[0] == pytest.approx(
            -transition_distortion(tau, beta)[0], abs=1e-15)

    def test_matches_mpmath(self):
        """kappa against its definition at 25 digits, with beta = pi so that
        z = tau: on both sides of the series edges |z| = 4 and 48, at the
        kink pi/2 +- 1e-9, at 0 and at random points in |z| < 300."""
        mp = pytest.importorskip("mpmath")

        def kappa(z):
            z = mp.mpf(z)
            half = mp.pi / 2
            filtered = mp.quad(lambda v: mp.cos(v) * mp.si(z - v), [-half, half]) / mp.pi
            return filtered - mp.sin(min(max(z, -half), half))

        edges = [np.nextafter(e, d) for e in (4.0, 48.0) for d in (0.0, np.inf)]
        z = np.concatenate(([0.0, 0.5 * math.pi - 1e-9, 0.5 * math.pi + 1e-9], edges,
                            np.negative(edges), np.random.default_rng(5).uniform(-300.0, 300.0, 40)))
        with mp.workdps(25):
            ref = np.array([float(kappa(v)) for v in z])
        assert np.max(np.abs(transition_distortion(z, math.pi) - ref)) <= 5e-16

    def test_tables_equal_their_fit(self):
        """The frozen coefficient tables are what tools/fit_transition_kernel.py
        computes."""
        pytest.importorskip("mpmath")
        import importlib.util
        from pathlib import Path

        import zcrate.simulate as sim

        path = Path(__file__).resolve().parents[1] / "tools" / "fit_transition_kernel.py"
        spec = importlib.util.spec_from_file_location("fit_transition_kernel", path)
        fit = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fit)
        assert (fit.MID, fit.FAR) == (sim._KAPPA_MID, sim._KAPPA_FAR)
        for name, coef in fit.fit_tables().items():
            assert getattr(sim, name) == coef, name

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_fft_converges_to_superposition(self, k):
        """The circular FFT filter approaches the aperiodic superposition as
        the guard grows (seed 3, five realizations, at the grid points the
        FFT probes)."""
        p = params_at(k, 10.0)
        errors = []
        for guard in (40.0, 640.0, 8000.0):
            vals, instants, seqs = ensemble_loop(p, 2000, 5, np.random.default_rng(3), guard)
            exact = np.column_stack([lp_distortion_at(instants[:, i], T[None, :], p)[:, 0]
                                     for i, T in enumerate(seqs)])
            errors.append(float(np.max(np.abs(vals - exact))))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_rejects_unmatched_filter(self):
        p = replace(params_at(1.0, 10.0), W=0.7)
        with pytest.raises(ValueError, match="W = 1/\\(2 beta\\)"):
            lp_distortion_at(np.array([1.0]), np.array([[0.5, 2.0]]), p)


class ZeroRowOfBulkDraw:
    """A Generator whose 2-D ``exponential`` draw returns zeros in row
    ``row``, so that realization holds every spacing at the minimum beta."""

    def __init__(self, seed, row):
        self.rng = np.random.default_rng(seed)
        self.row = row
        self.sizes = []

    def exponential(self, scale, size):
        self.sizes.append(size)
        draw = self.rng.exponential(scale, size=size)
        if np.ndim(draw) == 2:
            draw[self.row] = 0.0
        return draw


class TestLpDistortionEnsemble:
    # pinned from the superposition, seed 21, n_time 2000, n_ensemble 50
    PINNED = {
        0.5: ([0.03556964871505886, -0.0017525517494396813, -0.021312044071995544],
              [0.023275991392394887, 0.02398149023181903, 0.0330615233295862],
              0.027329784691461054),
        1.0: ([0.006950475335571352, -0.025364501350641895, -0.002177858432883627],
              [0.024016228249222706, 0.025909833336800973, 0.011930416839318201],
              0.020803848875715562),
        2.0: ([0.01092337618224058, -0.01804945213650632, -0.018130480337351113],
              [0.008877782117202807, 0.02299573032054532, 0.017298401405723075],
              0.016577699939492395),
    }

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_pinned_values(self, k):
        mean, var, pooled = self.PINNED[k]
        st = lp_distortion_stats(params_at(k, 10.0), 2000, 50, np.random.default_rng(21))
        assert st.mean_ensemble == pytest.approx(mean, rel=1e-14, abs=1e-12)
        assert st.var_ensemble == pytest.approx(var, rel=1e-14, abs=1e-12)
        assert st.var_ensemble_pooled == pytest.approx(pooled, rel=1e-14, abs=1e-12)

    def test_redraw_gets_its_own_block_and_matches_loop(self, monkeypatch):
        """Realization 4 of the bulk draw has all spacings at beta and ends
        before the last probe; it alone is redrawn, with 160 symbols, after
        the bulk draw, and is probed in a superposition call of its own.
        Every realization matches the 1-D superposition, one at a time."""
        import zcrate.simulate as sim

        p = params_at(1.0, 10.0)
        shapes = []

        def spy(t, T, params):
            shapes.append(T.shape)
            return lp_distortion_at(t, T, params)

        monkeypatch.setattr(sim, "lp_distortion_at", spy)
        rng = ZeroRowOfBulkDraw(22, row=4)
        st = lp_distortion_stats(p, 2000, 30, rng)
        assert rng.sizes[1:] == [(30, 80), 160]  # after the time leg's draw
        assert shapes == [(30, 80), (1, 160)]

        ref = ZeroRowOfBulkDraw(22, row=4)
        sample_input_sequence(p, rng.sizes[0], ref)
        bulk = np.cumsum(p.beta + ref.exponential(1.0 / p.lam, size=(30, 80)), axis=1)
        redrawn = np.cumsum(p.beta + ref.exponential(1.0 / p.lam, size=160))
        probes = np.array([25.0, 31.0, 37.0]) * p.T_avg
        assert bulk[4, -1] <= probes[-1] + p.beta < redrawn[-1]
        rows = [redrawn if i == 4 else T for i, T in enumerate(bulk)]
        vals = np.column_stack([lp_distortion_at(probes, T[None, :], p)[:, 0] for T in rows])
        assert st.mean_ensemble == pytest.approx(vals.mean(axis=1), rel=1e-12, abs=1e-15)
        assert st.var_ensemble == pytest.approx(vals.var(axis=1), rel=1e-12)
        assert st.var_ensemble_pooled == pytest.approx(vals.var(), rel=1e-12)

    @pytest.mark.parametrize("n_time, n_ensemble",
                             [(0, 10), (2000, 0), (2000, -3), (1, 10), (2000, 1)])
    def test_rejects_empty_legs(self, n_time, n_ensemble):
        with pytest.raises(ValueError, match="must be >= 2"):
            lp_distortion_stats(params_at(1.0, 10.0), n_time, n_ensemble,
                                np.random.default_rng(0))


class TestBlockEdge:
    def test_guard_convergence_k1(self):
        """The FFT filter is circular: the 200-symbol pattern repeats after
        the lead and tail plateaus, and the sinc tails of the copies reach
        the analysis window.  Against the exact aperiodic filtered signal,
        x + sqrt(P_hat) sum_k s_k kappa(t - T_k), the error falls as the
        guard grows; at run_chain's 40-beta guard it is pinned (seed 0,
        dt = beta/24, every fourth grid point of the window)."""
        p = params_at(1.0, 10.0)
        dt = p.beta / 24.0
        tx = sample_input_sequence(p, 200, np.random.default_rng(0))
        lo, hi = -2.0 * p.beta, tx.times[-1] + 2.0 * p.beta

        def window(guard):
            x = synthesize(tx, p, dt, guard * p.beta)
            i0, i1 = np.round((np.array([lo, hi]) - x.t_start) / dt).astype(int)
            sl = slice(i0, i1, 4)
            return x.times()[sl], x.samples[sl], ideal_lp(x, p.W).samples[sl]

        runs = [window(g) for g in (40.0, 160.0, 640.0)]
        t, x, _ = runs[0]
        exact = x + lp_distortion_at(t, tx.times[None, :], p)[:, 0]
        errors = [xf - exact for _, _, xf in runs]
        peak = [float(np.max(np.abs(e))) for e in errors]
        rms = [float(np.sqrt(np.mean(e**2))) for e in errors]
        assert peak[0] > peak[1] > peak[2]
        assert rms[0] > rms[1] > rms[2]
        assert peak[0] == pytest.approx(0.017828194756969395, rel=1e-6)
        assert rms[0] == pytest.approx(0.009658960469806745, rel=1e-6)


class TestDeletions:
    def test_no_deletions_above_critical_bandwidth_15db(self):
        dc = deletion_census(1.0, 1.0, 0.5, 10.0 ** 1.5, 1000, 1e-3,
                             np.random.default_rng(19))
        assert dc.n_deletions == 0
        assert dc.n_deletions_filter == 0
        assert dc.k_tilde == pytest.approx(0.5)

    def test_deletions_below_critical_bandwidth(self):
        for snr_db in (6.0, 15.0):
            dc = deletion_census(1.0, 1.0, 0.15, 10.0 ** (snr_db / 10.0), 1000, 1e-3,
                                 np.random.default_rng(20))
            assert dc.n_deletions > 0
            assert dc.n_deletions_filter > 0
