"""The polyphase filter-bank stream against a dense per-sample reference."""

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
    """The whole record written as one span of one stream."""
    stream = correction.PolyphaseStream(bank, bank_config(bank), x.size)
    whole = range(stream.runs)
    y = np.empty(stream.outputs(whole).stop)
    stream.write(whole, x[stream.inputs(whole)], y)
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


def transient(n_taps, offset):
    """The samples a bank of n_taps taps at tap_offset offset flags at each end."""
    return n_taps + offset


@pytest.mark.parametrize("extra,offset", [(24, 24), (24, 31), (5, 0), (8, 2)])
def test_edges_match_dense_reference(extra, offset):
    # records extra samples longer than the 2T they must exceed, 9 taps at
    # M = 4: a long lead of zeros (offset 24 and 31), and records of 23 and
    # 30 samples whose runs have 2 and 3 rows per row phase
    rng = np.random.default_rng(11)
    n = 2 * transient(9, offset) + extra
    x = rng.normal(size=n)
    bank = make_bank(rng.normal(size=(4, 9)), offset)
    y = run_stream(x, bank)
    ref = dense_reference(x, bank.taps, 4, offset)
    assert y.shape == (n,)
    assert np.max(np.abs(y - ref)) <= 1e-12


@pytest.mark.parametrize("m_ch,n_taps,offset", [(4, 9, 0), (4, 65, 3), (3, 7, 5),
                                                 (16, 33, 0)])
def test_shortest_record_matches_dense_reference(m_ch, n_taps, offset):
    # the smallest multiple of M above 2T is corrected, in one span and
    # through correct; 2T itself keeps no sample between the transients
    rng = np.random.default_rng(13)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    t = transient(n_taps, offset)
    n = (2 * t // m_ch + 1) * m_ch
    x = rng.normal(size=n)
    ref = dense_reference(x, bank.taps, m_ch, offset)
    assert np.max(np.abs(run_stream(x, bank) - ref)) <= 1e-12
    assert np.max(np.abs(correct_samples(x, bank, None) - ref)) <= 1e-12
    with pytest.raises(ValueError, match=(
            f"capture of n = {2 * t} samples is too short to correct: the bank "
            f"flags {t} transient samples at each end")):
        correction.PolyphaseStream(bank, bank_config(bank), 2 * t)


def test_stream_validates():
    bank = make_bank(np.zeros((4, 9)), 0)
    with pytest.raises(ValueError, match="bank has 4 channels, capture has 2"):
        correction.PolyphaseStream(bank, bank_config(bank, m_channels=2), 16)
    with pytest.raises(ValueError, match="bank is for fs"):
        correction.PolyphaseStream(bank, bank_config(bank, fs=1e9), 16)
    with pytest.raises(ValueError, match=(
            "capture of n = 8 samples is too short to correct: the bank "
            "flags 9 transient samples at each end")):
        correction.PolyphaseStream(bank, bank_config(bank), 8)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(2, 16),
       n_taps=st.integers(0, 149).map(lambda k: 2 * k + 1))
def test_stream_span_cuts_property(data, m_ch, n_taps):
    # one record above 2T cut into consecutive spans of whole runs, empty
    # spans included, each span written from a copy of its own inputs into
    # a view of its own outputs
    chunk = run_rows(m_ch, n_taps) * m_ch
    offset = data.draw(st.integers(0, 3 * n_taps + 2 * m_ch), label="offset")
    shortest = 2 * transient(n_taps, offset) + 1
    n = data.draw(st.integers(shortest, shortest + 4 * chunk + 7 * m_ch), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    stream = correction.PolyphaseStream(bank, bank_config(bank), n)
    cuts = data.draw(st.lists(st.integers(0, stream.runs), max_size=6), label="cuts")
    bounds = [0, *sorted(cuts), stream.runs]
    y = np.full(stream.outputs(range(stream.runs)).stop, np.nan)
    for a, b in zip(bounds, bounds[1:]):
        span = range(a, b)
        stream.write(span, x[stream.inputs(span)].copy(), y[stream.outputs(span)])
    assert y[:n].tobytes() == run_stream(x, bank).tobytes()


def correct_samples(x, bank, block_size):
    cap = tiadc.Capture(samples=x, config=bank_config(bank))
    return correction.correct(cap, bank, block_size=block_size).samples


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(2, 16),
       n_taps=st.integers(0, 149).map(lambda k: 2 * k + 1))
def test_kernel_property(data, m_ch, n_taps):
    # any M >= 2, odd L and length n > 2T, L <= M and tap_offset >= L included
    offset = data.draw(st.integers(0, n_taps + 8), label="offset")
    shortest = 2 * transient(n_taps, offset) + 1
    n = data.draw(st.integers(shortest, shortest + 200), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    y = run_stream(x, bank)
    assert y.shape == (n,)
    assert np.max(np.abs(y - dense_reference(x, bank.taps, m_ch, offset))) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(2, 16),
       n_taps=st.integers(0, 149).map(lambda k: 2 * k + 1))
def test_correct_matches_dense_reference_property(data, m_ch, n_taps):
    # from under one run of rows to several, through correction.correct,
    # which takes records that keep samples between the transients at each
    # end (offset + L of them); the stream's own edges are tested above
    offset = data.draw(st.integers(0, 3 * n_taps), label="offset")
    shortest = 2 * transient(n_taps, offset) // m_ch + 1
    rows = data.draw(st.integers(shortest, shortest + 3 * run_rows(m_ch, n_taps) + 7),
                     label="rows")
    n = rows * m_ch
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    one_shot = correct_samples(x, bank, None)
    if n * n_taps <= 20000:
        ref = dense_reference(x, bank.taps, m_ch, offset)
        assert np.max(np.abs(one_shot - ref)) <= 1e-12


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
    # three runs plus a ragged tail, in one span and through correct; then records
    # whose runs have fewer rows, which must give the bits of CHUNK_ROWS-row
    # products: one run less one row, and the sweep-record lengths 4,228
    # (M = 4) and 4,624 (M = 16)
    rng = np.random.default_rng(23)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)) / m_ch, offset)
    rows = run_rows(m_ch, n_taps)
    for n in ((3 * rows + 37) * m_ch, (rows - 1) * m_ch, 4228, 4624):
        x = rng.normal(size=n)
        ref = copied_window_product(x, bank)
        assert np.array_equal(run_stream(x, bank), ref)
        if n % m_ch == 0:
            assert np.array_equal(correct_samples(x, bank, None), ref)


def test_short_record_computes_only_its_rows():
    # a 4,624-sample M = 16 sweep record at L = 257 is 289 rows: its run is
    # sized to them, not to J*CHUNK_ROWS = 2,176 rows (34,816 samples)
    bank = make_bank(np.zeros((16, 257)), 0)
    stream = correction.PolyphaseStream(bank, bank_config(bank), 4624)
    assert stream.runs == 1 and stream.run_size < 2 * 4624


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
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=rows * m_ch)
    bank = make_bank(rng.normal(size=(m_ch, n_taps)), offset)
    with mock.patch.object(correction, "_cpus", return_value=1):
        one_span = correct_samples(x, bank, None)
    with mock.patch.object(correction, "_cpus", return_value=workers):
        split = correct_samples(x, bank, None)
    assert split.tobytes() == one_span.tobytes()
    assert one_span.tobytes() == copied_window_product(x, bank).tobytes()


def benchmark_record(seed):
    """A 2^20-sample record and a random M = 16, 257-tap bank: 31 runs."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=1 << 20), make_bank(rng.normal(size=(16, 257)) / 16, 0)


def test_split_starts_and_joins_its_threads(monkeypatch):
    # 8 CPUs give 31 // 4 = 7 spans, 6 of them on a pool of 6 workers, more
    # threads than the host has cores,
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
    # a pool of 6 workers starts one only while none is idle
    assert 1 <= len(started) <= 6 and not any(t.is_alive() for t in started)
    monkeypatch.setattr(correction, "_cpus", lambda: 1)
    assert y.tobytes() == correct_samples(x, bank, None).tobytes()


def test_split_raises_a_workers_error(monkeypatch):
    # a span written on the pool fails: its error is raised on the calling
    # thread once the pool is shut down, and no thread is left behind
    bank = make_bank(np.zeros((4, 9)), 0)
    x = np.zeros(16 * run_rows(4, 9) * 4)  # 16 runs: 2 CPUs give spans from runs 0 and 8
    monkeypatch.setattr(correction, "_cpus", lambda: 2)
    write = correction.PolyphaseStream.write

    def failing(self, span, x, out):
        if span.start:
            raise RuntimeError(f"span from run {span.start}")
        write(self, span, x, out)

    monkeypatch.setattr(correction.PolyphaseStream, "write", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="span from run 8"):
        correct_samples(x, bank, None)
    assert threading.active_count() == before


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
