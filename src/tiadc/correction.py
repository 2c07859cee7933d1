"""Offset removal and synthesis filter-bank correction of interleaved records.

Output sample n = tap_offset + r*M + p (row r, phase p) reads the input
samples ending at row r's last channel, each weighted by the tap of the
branch that owns its channel. Written per row, that is the bank's polyphase
(MIMO) form: with J = ceil((L - 1)/M) + 1, the M outputs of row r are the
J*M input samples ``flat[r*M : r*M + J*M]`` of the zero-padded record times
one fixed (J*M, M) matrix G, so the record is a dense product that BLAS runs
at full speed.

``PolyphaseStream`` cuts a record into runs of J*R rows, R sized to the
record: ceil(its rows / J), at most CHUNK_ROWS and at least 2. A run's rows
i, i + J, i + 2J, ... (row phase i < J) read windows that sit back to back
on a stage holding the run's inputs and the (J - 1)*M samples before them,
so each row phase is one (R, J*M) @ (J*M, M) product that reads its operand
in place and writes its rows straight into the output. Every run is written
whole (the last one past the record's end) and each output row depends only
on its own J*M inputs, so a span of whole runs, corrected from its own
inputs alone, gets the bits the whole record gives it, and any cut of the
record into spans gives the same output. Samples outside the record are
treated as zero, so the first and last taps-plus-offset output samples are
transient and flagged on the corrected capture; ``PolyphaseStream`` refuses
a record that keeps no sample between them.

``correct`` cuts a record of at least 2*MIN_SPAN_RUNS runs into spans of at
least MIN_SPAN_RUNS runs, at most one per CPU the process may run on, and
writes them on a thread pool made inside the call (BLAS releases the
interpreter lock); ``tiadc correct`` walks a capture on disk in spans of
about DEFAULT_BLOCK samples, so its memory stays flat. Both give the output
of one span over the whole record."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from tiadc.model import Capture, MismatchProfile, TiadcConfig
from tiadc.design import FilterBank

DEFAULT_BLOCK = 1 << 16  # about the samples tiadc correct reads per span
CHUNK_ROWS = 128
MIN_SPAN_RUNS = 4  # fewest runs a span of a split record gets


def correct_offsets(capture: Capture, profile: MismatchProfile) -> Capture:
    """Subtract each channel's calibrated offset (in LSB) from its samples."""
    m_ch = capture.config.m_channels
    if profile.m_channels != m_ch:
        raise ValueError("profile channel count does not match capture")
    shift = profile.offset_lsb * capture.config.lsb
    out = (capture.samples.reshape(-1, m_ch) - shift).ravel()
    return replace(capture, samples=out)


def polyphase_matrix(taps, m_channels):
    """G[(q - q_min)*M + c, p] = taps[c, p - c - q*M] where that tap exists.

    q runs from q_min = floor((1 - L)/M) to 0: the row offsets, relative to
    the output's own row, of the input samples any tap can reach.
    """
    n_taps = taps.shape[1]
    q_min = (1 - n_taps) // m_channels
    q = np.arange(q_min, 1)[:, None, None]
    c = np.arange(m_channels)[None, :, None]
    p = np.arange(m_channels)[None, None, :]
    j = p - c - q * m_channels
    valid = (j >= 0) & (j < n_taps)
    g = np.where(valid, taps[c, np.where(valid, j, 0)], 0.0)
    return g.reshape(-1, m_channels)


class PolyphaseStream:
    """The bank's M-branch synthesis over one n-sample record captured with
    config, cut into ``runs`` runs of ``run_size`` outputs each.

    Tap j of branch m acts at delay ``bank.spec.tap_offset + m + j``, so the
    output starts with tap_offset zeros and run k fills the ``run_size``
    outputs after those and the k runs before it. A span is a range of runs:
    ``write(span, x, out)`` reads ``x = record[inputs(span)]`` and writes
    ``out = output[outputs(span)]``, the first span's leading zeros included.
    Runs are written whole, so the last one may end past n: the whole output
    is ``outputs(range(runs)).stop`` samples, and its first n are the
    record's. Nothing changes after construction, so spans may be written in
    any order, on any thread.
    """

    def __init__(self, bank: FilterBank, config: TiadcConfig, n: int):
        m_ch = config.m_channels
        if bank.m_channels != m_ch:
            raise ValueError(
                f"bank has {bank.m_channels} channels, capture has {m_ch}")
        if bank.fs != config.fs:
            raise ValueError(f"bank is for fs = {bank.fs:g} Hz, capture has fs = {config.fs:g} Hz")
        transient = bank.spec.transient_samples
        if n <= 2 * transient:
            raise ValueError(f"capture of n = {n} samples is too short to correct: the bank "
                             f"flags {transient} transient samples at each end")
        self._g = polyphase_matrix(bank.taps, m_ch)
        self._n, j = n, self._g.shape[0] // m_ch
        self._lead = lead = bank.spec.tap_offset
        # at least 2 rows per row phase: numpy hands a 1-row product to a
        # matrix-vector routine that sums in another order
        self._rows = min(CHUNK_ROWS, max(2, -(-(n - lead) // (j * m_ch))))
        self.run_size = j * self._rows * m_ch
        self._history = (j - 1) * m_ch
        self.runs = -(-(n - lead) // self.run_size)

    def inputs(self, span: range) -> slice:
        """The record samples a span reads: its own and the (J - 1)*M before it."""
        return slice(max(span.start * self.run_size - self._history, 0),
                     min(span.stop * self.run_size, self._n))

    def outputs(self, span: range) -> slice:
        """The outputs a span writes: its whole runs, after the leading zeros
        for the first span."""
        start = span.start * self.run_size + self._lead if span.start else 0
        return slice(start, span.stop * self.run_size + self._lead)

    def write(self, span: range, x, out):
        """Correct the span's runs from x = record[inputs(span)] into out, a
        contiguous float64 array of the span's outputs (or more)."""
        if not out.flags.c_contiguous or out.dtype != np.float64:
            raise ValueError("out must be a contiguous float64 array")
        m_ch, size, history = self._g.shape[1], self.run_size, self._history
        j = self._g.shape[0] // m_ch
        lead = self._lead if span.start == 0 else 0
        out[:lead] = 0.0
        # the stage holds a run's inputs after its history, zeros outside the record
        stage = np.empty(history + size)
        operands = [stage[i * m_ch:i * m_ch + size].reshape(self._rows, -1)
                    for i in range(j)]  # row phase i reads the view at i*M
        first = self.inputs(span).start
        for k, run in enumerate(span):
            lo = run * size - history
            a, b = max(lo, 0), min(lo + stage.size, self._n)
            stage[:a - lo] = 0.0
            stage[a - lo:b - lo] = x[a - first:b - first]
            stage[b - lo:] = 0.0
            rows = out[lead + k * size:lead + (k + 1) * size].reshape(-1, m_ch)
            for i, operand in enumerate(operands):
                np.matmul(operand, self._g, out=rows[i::j])


def _cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def correct(capture: Capture, bank: FilterBank,
            block_size: int | None = DEFAULT_BLOCK) -> Capture:
    """Apply the M-branch synthesis bank to an interleaved capture.

    Output y[n] = sum_m sum_i f_m[n - i*M] x_m[i] with x_m[i] = input[i*M+m],
    has the same length as the input, and is delayed by the bank's design
    delay. The record's R runs are cut into W = min(CPUs in the affinity
    mask, R // MIN_SPAN_RUNS) spans of whole runs, each written by one call
    of one PolyphaseStream's ``write``: the first on the calling thread, the
    others on a pool of W - 1 threads made and shut down within the call, so
    no thread outlives it. Every W gives bit-identical output; W = 1 (one
    CPU, or fewer than 2*MIN_SPAN_RUNS runs) starts no thread. block_size
    (positive, or None) changes nothing: every cut of a record gives the
    same bytes, so none is taken from it. It stays for the callers that
    pass it.
    """
    n, x = capture.n, capture.samples
    stream = PolyphaseStream(bank, capture.config, n)
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be positive")
    y = np.empty(stream.outputs(range(stream.runs)).stop)
    count = max(min(_cpus(), stream.runs // MIN_SPAN_RUNS), 1)
    cuts = [stream.runs * s // count for s in range(count + 1)]
    spans = [range(a, b) for a, b in zip(cuts, cuts[1:])]

    def write_span(span):
        stream.write(span, x[stream.inputs(span)], y[stream.outputs(span)])

    with ThreadPoolExecutor(max(count - 1, 1)) as pool:
        futures = [pool.submit(write_span, span) for span in spans[1:]]
        write_span(spans[0])
    for future in futures:  # a worker's exception is raised here
        future.result()
    return Capture(samples=y[:n], config=capture.config,
                   transient_samples=bank.spec.transient_samples, corrected=True,
                   bank_id=bank.bank_id)
