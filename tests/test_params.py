"""Parameter derivation, input sampling, and AWGN reference capacity."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zcrate.params import (
    ZeroCrossingSeq,
    awgn_capacity,
    derive,
    sample_input_sequence,
)


def test_derive_basic_values():
    p = derive(W=0.5, lam=1.0, rho=10.0)
    assert p.beta == pytest.approx(1.0, abs=0)
    assert p.T_avg == pytest.approx(2.0, abs=0)
    assert p.sigma_A_sq == pytest.approx(1.0, abs=0)
    assert p.k == pytest.approx(0.5)
    # substitute k into the average-power expression
    assert p.P == pytest.approx(0.75)


def test_power_ratio_limits():
    hi = derive(W=1e9, lam=1.0, rho=1.0)
    lo = derive(W=1e-9, lam=1.0, rho=1.0)
    assert hi.P / hi.P_hat == pytest.approx(1.0, abs=1e-8)
    assert lo.P / lo.P_hat == pytest.approx(0.5, abs=1e-8)
    rng = np.random.default_rng(0)
    for _ in range(50):
        W, lam = np.exp(rng.uniform(-3, 3, size=2))
        p = derive(W=W, lam=lam, rho=2.0)
        assert 0.5 < p.P / p.P_hat < 1.0


def test_snr_definition_roundtrip():
    p = derive(W=2.5, lam=0.7, rho=31.6)
    assert p.P / (p.N0 * p.W) == pytest.approx(31.6, rel=1e-14)
    assert p.sigma_nhat_sq == pytest.approx(p.N0 * p.W, rel=1e-15)


@pytest.mark.parametrize("field", ["W", "lam", "rho", "P_hat"])
def test_validation_names_offending_field(field):
    kwargs = {"W": 1.0, "lam": 1.0, "rho": 1.0, "P_hat": 1.0}
    kwargs[field] = -1.0
    with pytest.raises(ValueError, match=field):
        derive(**kwargs)
    kwargs[field] = 0.0
    with pytest.raises(ValueError, match=field):
        derive(**kwargs)


def test_derive_is_deterministic():
    assert derive(W=1.3, lam=0.8, rho=12.0) == derive(W=1.3, lam=0.8, rho=12.0)


def test_sample_min_spacing_and_reproducibility():
    p = derive(W=1.0, lam=2.0, rho=10.0)
    seq1 = sample_input_sequence(p, 5000, np.random.default_rng(42))
    seq2 = sample_input_sequence(p, 5000, np.random.default_rng(42))
    assert np.diff(seq1.times, prepend=0.0).min() >= p.beta
    assert np.array_equal(seq1.times, seq2.times)
    assert np.all(np.diff(seq1.times) > 0)
    assert not seq1.first_rising  # mapper starts on the + level


def test_sample_moments_match_shifted_exponential():
    # W = 0.5 so beta = 1; lam = 1: mean 2.0 +- 0.01, variance 1.0 +- 0.02
    p = derive(W=0.5, lam=1.0, rho=10.0)
    K = 10**6
    seq = sample_input_sequence(p, K, np.random.default_rng(7))
    spacings = np.diff(seq.times, prepend=0.0)
    assert spacings.mean() == pytest.approx(2.0, abs=0.01)
    assert spacings.var() == pytest.approx(1.0, abs=0.02)


def test_sample_moments_clt_band():
    rng = np.random.default_rng(3)
    for _ in range(3):
        W, lam = np.exp(rng.uniform(-1, 1, size=2))
        p = derive(W=W, lam=lam, rho=5.0)
        K = 10**6
        seq = sample_input_sequence(p, K, rng)
        band = 3.0 * math.sqrt(p.sigma_A_sq / K)
        assert abs(np.diff(seq.times, prepend=0.0).mean() - p.T_avg) <= band


def test_awgn_capacity_values():
    assert awgn_capacity(W=1.0, rho=0.0) == 0.0
    assert awgn_capacity(W=1.0, rho=math.e - 1.0) == pytest.approx(1.0)
    assert awgn_capacity(W=2.0, rho=3.0) == pytest.approx(2.0 * math.log(4.0))
    with pytest.raises(ValueError, match="rho"):
        awgn_capacity(W=1.0, rho=-0.5)


def test_zero_crossing_seq_invariants():
    with pytest.raises(ValueError, match="increasing"):
        ZeroCrossingSeq(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="increasing"):
        ZeroCrossingSeq(np.array([1.0, 0.5]))
    seq = ZeroCrossingSeq(np.array([2.0, 4.0, 4.5]), first_rising=True)
    assert list(seq.polarity()) == [1, -1, 1]
    ext = ZeroCrossingSeq(np.array([0.5, 1.5, 3.0]))
    with pytest.raises(ValueError, match="polarity"):
        ext.polarity()


@given(st.floats(-1e3, 1e3), st.lists(st.floats(1e-3, 10.0), max_size=40),
       st.sampled_from([True, False, None]), st.integers(0, 38), st.floats(0.0, 10.0))
@example(0.0, [], None, 0, 0.0)
def test_zero_crossing_seq_properties(start, steps, first_rising, at, back):
    times = start + np.cumsum(steps)
    seq = ZeroCrossingSeq(times, first_rising=first_rising)
    assert len(seq) == len(steps)
    if steps and first_rising is None:
        with pytest.raises(ValueError, match="polarity"):
            seq.polarity()
    else:
        pol = seq.polarity()
        assert pol.size == len(steps)
        if steps:
            assert pol[0] == (1 if first_rising else -1)
            assert np.all(pol[1:] == -pol[:-1])
    if len(steps) >= 2:
        # any non-increasing step is refused
        i = at % (len(steps) - 1)
        bad = times.copy()
        bad[i + 1] = bad[i] - back
        with pytest.raises(ValueError, match="increasing"):
            ZeroCrossingSeq(bad, first_rising=first_rising)
