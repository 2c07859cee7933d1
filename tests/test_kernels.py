"""The polyphase filter-bank kernel against a dense per-sample reference."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tiadc
from tiadc import correction, kernels
from tiadc.design import DesignSpec, FilterBank


def run_stream(x, taps, m_ch, offset):
    """The whole record pushed through one stream at once, then finished."""
    y = np.empty(x.size)
    stream = kernels.PolyphaseStream(taps, m_ch, offset, x.size)
    stream.finish(y[stream.push(x, y):])
    return y


def dense_reference(x, taps, m_ch, offset):
    n = x.size
    y = np.zeros(n)
    for src in range(n):
        for j in range(taps.shape[1]):
            out = src + offset + j
            if 0 <= out < n:
                y[out] += taps[src % m_ch, j] * x[src]
    return y


@pytest.mark.parametrize("m_ch,n_taps,offset", [(4, 9, 0), (4, 9, 3),
                                                 (2, 5, 0), (3, 7, 1),
                                                 (8, 3, 2)])
def test_matches_dense_reference(m_ch, n_taps, offset):
    rng = np.random.default_rng(7)
    x = rng.normal(size=m_ch * 40)
    taps = rng.normal(size=(m_ch, n_taps))
    y = run_stream(x, taps, m_ch, offset)
    ref = dense_reference(x, taps, m_ch, offset)
    assert np.max(np.abs(y - ref)) <= 1e-12


@pytest.mark.parametrize("n,offset", [(24, 24), (24, 31), (5, 0), (8, 2)])
def test_edges_match_dense_reference(n, offset):
    # offset >= n leaves the whole output in the zero-padded edge; n < L
    # gives every phase at most two rows
    rng = np.random.default_rng(11)
    x = rng.normal(size=n)
    taps = rng.normal(size=(4, 9))
    y = run_stream(x, taps, 4, offset)
    ref = dense_reference(x, taps, 4, offset)
    assert y.shape == (n,)
    assert np.max(np.abs(y - ref)) <= 1e-12
    if offset >= n:
        assert not y.any()


def test_stream_validates():
    with pytest.raises(ValueError, match="shape"):
        kernels.PolyphaseStream(np.zeros((2, 3)), 4, 0, 8)
    with pytest.raises(ValueError, match="tap_offset"):
        kernels.PolyphaseStream(np.zeros((4, 3)), 4, -1, 8)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(1, 16), n_taps=st.integers(1, 300))
def test_stream_push_splits_property(data, m_ch, n_taps):
    # one record pushed in pieces: single samples, sizes that are not
    # multiples of M, and pushes spanning several chunks, cycled until the
    # record is used up
    chunk = kernels.CHUNK_ROWS * m_ch
    n = data.draw(st.integers(1, 3 * chunk + 7 * m_ch), label="n")
    offset = data.draw(st.integers(0, n + 5), label="offset")
    sizes = data.draw(st.lists(st.one_of(
        st.just(1), st.integers(2, 3 * m_ch + 1), st.integers(chunk, 3 * chunk)),
        min_size=1, max_size=6), label="sizes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    taps = rng.normal(size=(m_ch, n_taps))
    y = np.empty(n)
    stream = kernels.PolyphaseStream(taps, m_ch, offset, n)
    done = a = 0
    for size in itertools.cycle(sizes):
        if a >= n:
            break
        done += stream.push(x[a:a + size], y[done:])
        a += size
    done += stream.finish(y[done:])
    assert done == n
    assert np.array_equal(y, run_stream(x, taps, m_ch, offset))


def make_bank(taps, tap_offset):
    """A FilterBank holding `taps` whose delay gives `tap_offset`."""
    m_ch, n_taps = taps.shape
    half = (n_taps - 1) // 2
    delay = tap_offset + half
    n_grid = 4
    while n_grid < max(4 * n_taps, delay + 1):
        n_grid *= 2
    spec = DesignSpec(n_grid=n_grid, taps=n_taps, delay_d=delay)
    return FilterBank(taps=taps, spec=spec, m_channels=m_ch, fs=1.6e9)


def correct_samples(x, bank, block_size):
    cfg = tiadc.TiadcConfig(m_channels=bank.m_channels, fs=bank.fs, bits=14,
                            full_scale=2.0, quantize=False)
    cap = tiadc.Capture(samples=x, config=cfg)
    return correction.correct(cap, bank, block_size=block_size).samples


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(1, 16), n_taps=st.integers(1, 300))
def test_kernel_property(data, m_ch, n_taps):
    # any M, L and length, L <= M and tap_offset >= n included
    n = data.draw(st.integers(1, 200), label="n")
    offset = data.draw(st.integers(0, n + 5), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    taps = rng.normal(size=(m_ch, n_taps))
    y = run_stream(x, taps, m_ch, offset)
    assert y.shape == (n,)
    assert np.max(np.abs(y - dense_reference(x, taps, m_ch, offset))) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(2, 16),
       n_taps=st.integers(0, 149).map(lambda k: 2 * k + 1))
def test_blocked_equals_one_shot_property(data, m_ch, n_taps):
    # from under one chunk of rows to several, through correction.correct
    rows = data.draw(st.integers(-(-n_taps // m_ch),
                                 3 * kernels.CHUNK_ROWS + 7), label="rows")
    n = rows * m_ch
    offset = data.draw(st.integers(0, n + 5), label="offset")
    block = data.draw(st.one_of(st.sampled_from([4, 12, 60]),
                                st.integers(1, n + m_ch)), label="block")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    one_shot = correct_samples(x, bank, None)
    assert np.array_equal(correct_samples(x, bank, block), one_shot)
    if n * n_taps <= 20000:
        ref = dense_reference(x, bank.taps, m_ch, offset)
        assert np.max(np.abs(one_shot - ref)) <= 1e-12


def test_blocked_equals_one_shot_at_benchmark_scale():
    # M = 16, L = 257: three DEFAULT_BLOCK blocks plus a ragged tail
    rng = np.random.default_rng(17)
    bank = make_bank(rng.normal(size=(16, 257)) / 16, 0)
    x = rng.normal(size=3 * correction.DEFAULT_BLOCK + 16 * 37)
    one_shot = correct_samples(x, bank, None)
    blocked = correct_samples(x, bank, correction.DEFAULT_BLOCK)
    assert blocked.tobytes() == one_shot.tobytes()
