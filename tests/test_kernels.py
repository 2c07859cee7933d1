"""The polyphase filter-bank stream against a dense per-sample reference."""

import itertools
import os
import signal
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tiadc
from tiadc import correction
from tiadc.design import DesignSpec, FilterBank


def make_bank(taps, tap_offset):
    """A FilterBank holding `taps` (odd length) whose delay gives `tap_offset`."""
    n_taps = taps.shape[1]
    half = (n_taps - 1) // 2
    delay = tap_offset + half
    n_grid = 4
    while n_grid < max(4 * n_taps, delay + 1):
        n_grid *= 2
    spec = DesignSpec(n_grid=n_grid, taps=n_taps, delay_d=delay)
    return FilterBank(taps=taps, spec=spec, fs=1.6e9)


def bank_config(bank, **changes):
    """The config of a capture the bank corrects, with any field changed."""
    fields = dict(m_channels=bank.m_channels, fs=bank.fs, bits=14,
                  full_scale=2.0, quantize=False)
    return tiadc.TiadcConfig(**{**fields, **changes})


def run_stream(x, bank):
    """The whole record pushed through one stream at once, then finished."""
    stream = correction.PolyphaseStream(bank, bank_config(bank), x.size)
    y = np.empty(stream.out_size(x.size))
    stream.finish(y[stream.push(x, y):])
    return y[:x.size]


def run_rows(m_ch, n_taps):
    """Output rows per stream run of a long record: J*CHUNK_ROWS, with J*M
    the rows of G."""
    j = correction.polyphase_matrix(np.zeros((m_ch, n_taps)), m_ch).shape[0] // m_ch
    return j * correction.CHUNK_ROWS


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
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    y = run_stream(x, bank)
    ref = dense_reference(x, bank.taps, m_ch, offset)
    assert np.max(np.abs(y - ref)) <= 1e-12


@pytest.mark.parametrize("n,offset", [(24, 24), (24, 31), (5, 0), (8, 2)])
def test_edges_match_dense_reference(n, offset):
    # offset >= n leaves the whole output in the zero-padded edge; n = L
    # (n = 5) and n = L + 1 (n = 8) give every phase at most two rows
    rng = np.random.default_rng(11)
    x = rng.normal(size=n)
    bank = make_bank(rng.normal(size=(4, min(9, n - 1 + n % 2))), offset)
    y = run_stream(x, bank)
    ref = dense_reference(x, bank.taps, 4, offset)
    assert y.shape == (n,)
    assert np.max(np.abs(y - ref)) <= 1e-12
    if offset >= n:
        assert not y.any()


def test_stream_validates():
    bank = make_bank(np.zeros((4, 9)), 0)
    with pytest.raises(ValueError, match="bank has 4 channels, capture has 2"):
        correction.PolyphaseStream(bank, bank_config(bank, m_channels=2), 16)
    with pytest.raises(ValueError, match="bank is for fs"):
        correction.PolyphaseStream(bank, bank_config(bank, fs=1e9), 16)
    with pytest.raises(ValueError, match=r"filter length \(8 < 9\)"):
        correction.PolyphaseStream(bank, bank_config(bank), 8)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(2, 16),
       n_taps=st.integers(0, 149).map(lambda k: 2 * k + 1))
def test_stream_push_splits_property(data, m_ch, n_taps):
    # one record pushed in pieces: single samples, sizes that are not
    # multiples of M, and pushes spanning one to three of the stream's runs,
    # cycled until the record is used up
    chunk = run_rows(m_ch, n_taps) * m_ch
    n = data.draw(st.integers(n_taps, n_taps + 3 * chunk + 7 * m_ch), label="n")
    offset = data.draw(st.integers(0, n + 5), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    stream = correction.PolyphaseStream(bank, bank_config(bank), n)
    run = stream._run_size  # sized to the record, so short records run once
    sizes = data.draw(st.lists(st.one_of(
        st.just(1), st.integers(2, 3 * m_ch + 1), st.integers(run, 3 * run)),
        min_size=1, max_size=6), label="sizes")
    y = np.empty(stream.out_size(n))
    done = a = 0
    for size in itertools.cycle(sizes):
        if a >= n:
            break
        done += stream.push(x[a:a + size], y[done:])
        a += size
    done += stream.finish(y[done:])
    assert done == n
    assert np.array_equal(y[:n], run_stream(x, bank))


def correct_samples(x, bank, block_size):
    cap = tiadc.Capture(samples=x, config=bank_config(bank))
    return correction.correct(cap, bank, block_size=block_size).samples


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(2, 16),
       n_taps=st.integers(0, 149).map(lambda k: 2 * k + 1))
def test_kernel_property(data, m_ch, n_taps):
    # any M >= 2, odd L and length n >= L, L <= M and tap_offset >= n included
    n = data.draw(st.integers(n_taps, n_taps + 200), label="n")
    offset = data.draw(st.integers(0, n + 5), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    y = run_stream(x, bank)
    assert y.shape == (n,)
    assert np.max(np.abs(y - dense_reference(x, bank.taps, m_ch, offset))) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(2, 16),
       n_taps=st.integers(0, 149).map(lambda k: 2 * k + 1))
def test_blocked_equals_one_shot_property(data, m_ch, n_taps):
    # from under one run of rows to several, through correction.correct,
    # which takes records that keep samples between the transients at each
    # end (offset + L of them); the stream's own edges are tested above
    offset = data.draw(st.integers(0, 3 * n_taps), label="offset")
    shortest = 2 * (offset + n_taps) // m_ch + 1
    rows = data.draw(st.integers(shortest, shortest + 3 * run_rows(m_ch, n_taps) + 7),
                     label="rows")
    n = rows * m_ch
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


def copied_window_product(x, bank):
    """The product as a copy of overlapping windows: rows r of the zero-padded
    record, ``flat[r*M : r*M + J*M]``, copied CHUNK_ROWS at a time into one
    contiguous buffer and multiplied by G, the last chunk padded with zero rows."""
    m_ch = bank.m_channels
    g = correction.polyphase_matrix(bank.taps, m_ch)
    lead = min(bank.spec.tap_offset, x.size)
    rows = -(-(x.size - lead) // m_ch)
    rows += -rows % correction.CHUNK_ROWS
    flat = np.concatenate([np.zeros(g.shape[0] - m_ch), x, np.zeros(rows * m_ch)])
    windows = np.lib.stride_tricks.sliding_window_view(flat, g.shape[0])[::m_ch]
    y = np.zeros(lead + rows * m_ch)
    for r in range(0, rows, correction.CHUNK_ROWS):
        buf = np.array(windows[r:r + correction.CHUNK_ROWS])
        y[lead + r * m_ch:lead + (r + correction.CHUNK_ROWS) * m_ch] = (buf @ g).ravel()
    return y[:x.size]


@pytest.mark.parametrize("m_ch,n_taps,offset", [(4, 65, 3), (16, 257, 0)])
def test_equals_copied_window_product(m_ch, n_taps, offset):
    # three runs plus a ragged tail, pushed whole and in blocks; then records
    # whose runs have fewer rows, which must give the bits of CHUNK_ROWS-row
    # products: n = L, one run less one row, and the sweep-record lengths
    # 4,228 (M = 4) and 4,624 (M = 16)
    rng = np.random.default_rng(23)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)) / m_ch, offset)
    rows = run_rows(m_ch, n_taps)
    for n in ((3 * rows + 37) * m_ch, n_taps, (rows - 1) * m_ch, 4228, 4624):
        x = rng.normal(size=n)
        ref = copied_window_product(x, bank)
        assert np.array_equal(run_stream(x, bank), ref)
        if n % m_ch == 0:
            for block in (None, correction.DEFAULT_BLOCK, 1000):
                assert np.array_equal(correct_samples(x, bank, block), ref)


def test_short_record_computes_only_its_rows():
    # a 4,624-sample M = 16 sweep record at L = 257 is 289 rows: its run is
    # sized to them, not to J*CHUNK_ROWS = 2,176 rows (34,816 samples)
    bank = make_bank(np.zeros((16, 257)), 0)
    stream = correction.PolyphaseStream(bank, bank_config(bank), 4624)
    assert stream.out_size(0) < 2 * 4624


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.sampled_from([2, 3, 4, 16]),
       n_taps=st.integers(0, 16).map(lambda k: 2 * k + 1))
def test_split_equals_one_span_property(data, m_ch, n_taps):
    # 1 to 8 workers over records of k whole runs of output, one row more or
    # less, or a ragged tail; a tap_offset that is a multiple of M leaves
    # the exact k runs after the leading zeros
    size = run_rows(m_ch, n_taps) * m_ch
    offset = data.draw(st.one_of(st.integers(1, 4).map(lambda t: t * m_ch),
                                 st.integers(1, 3 * n_taps + m_ch)), label="offset")
    runs = data.draw(st.integers(1, 40), label="runs")
    rows = -(-(offset + runs * size) // m_ch) + data.draw(st.one_of(
        st.sampled_from([0, 1, -1]), st.integers(2, size // m_ch - 2)), label="tail rows")
    workers = data.draw(st.integers(1, 8), label="workers")
    block = data.draw(st.one_of(st.sampled_from([None, correction.DEFAULT_BLOCK]),
                                st.integers(50, 3 * size)), label="block")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=rows * m_ch)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    with mock.patch.object(correction, "_cpus", return_value=1):
        one_span = correct_samples(x, bank, None)
    with mock.patch.object(correction, "_cpus", return_value=workers):
        split = correct_samples(x, bank, block)
    assert split.tobytes() == one_span.tobytes()
    assert one_span.tobytes() == copied_window_product(x, bank).tobytes()


def benchmark_record(seed):
    """A 2^20-sample record and a random M = 16, 257-tap bank: 31 runs."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=1 << 20), make_bank(rng.normal(size=(16, 257)) / 16, 0)


def test_split_starts_and_joins_its_threads(monkeypatch):
    # 8 CPUs give 31 // 4 = 7 spans, more threads than the host has cores,
    # and a short switch interval interleaves them as often as it can
    x, bank = benchmark_record(29)
    monkeypatch.setattr(correction, "_cpus", lambda: 8)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        y = correct_samples(x, bank, correction.DEFAULT_BLOCK)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert len(started) == 6 and not any(t.is_alive() for t in started)
    monkeypatch.setattr(correction, "_cpus", lambda: 1)
    assert y.tobytes() == correct_samples(x, bank, None).tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_runs_in_a_forked_child(monkeypatch):
    # the benchmark forks a child after corrections in the parent; a pool
    # kept between calls would have no threads in the child and hang it
    x, bank = benchmark_record(31)
    monkeypatch.setattr(correction, "_cpus", lambda: 2)
    want = correct_samples(x, bank, correction.DEFAULT_BLOCK)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            got = correct_samples(x, bank, correction.DEFAULT_BLOCK)
            status = 0 if got.tobytes() == want.tobytes() else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done and time.monotonic() < deadline:
        time.sleep(0.01)
        done, status = os.waitpid(pid, os.WNOHANG)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("correct hung in a forked child")
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("m_ch,n_taps,n", [(4, 65, 4228), (16, 257, 4624)])
def test_sweep_record_starts_no_thread(monkeypatch, m_ch, n_taps, n):
    # a sweep record is one run, however many CPUs the process has
    def no_thread(*args, **kwargs):
        raise AssertionError("correct started a thread")

    monkeypatch.setattr(correction, "_cpus", lambda: 8)
    monkeypatch.setattr(threading, "Thread", no_thread)
    rng = np.random.default_rng(37)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)) / m_ch, 0)
    x = rng.normal(size=n)
    got = correct_samples(x, bank, correction.DEFAULT_BLOCK)
    assert got.tobytes() == copied_window_product(x, bank).tobytes()
