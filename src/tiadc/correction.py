"""Offset removal and synthesis filter-bank correction of interleaved records.

Output sample n = tap_offset + r*M + p (row r, phase p) reads the input
samples ending at row r's last channel, each weighted by the tap of the
branch that owns its channel. Written per row, that is the bank's polyphase
(MIMO) form: with J = ceil((L - 1)/M) + 1, the M outputs of row r are the
J*M input samples ``flat[r*M : r*M + J*M]`` of the zero-padded record times
one fixed (J*M, M) matrix G, so the record is a dense product that BLAS runs
at full speed.

``PolyphaseStream`` runs that product over a record pushed in pieces of any
size. It builds G and one staging array once per record and carries the last
(J - 1)*M input samples from one run to the next. A run is J*R rows, R sized
to the record: ceil(its rows / J), at most CHUNK_ROWS and at least 2. Its rows
i, i + J, i + 2J, ... (row phase i < J) read windows that sit back to back on
the stage, so each row phase is one (R, J*M) @ (J*M, M) product that reads
its operand in place and writes its rows straight into the output. Every run
is written whole (the last one is padded with zero rows) and each output row
depends only on its own J*M inputs, so any split of the record into pushes,
one-shot included, gives bit-identical output. Samples outside the record
are treated as zero, so the first and last taps-plus-offset output samples
are transient and flagged on the corrected capture.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from tiadc.model import Capture, MismatchProfile, TiadcConfig
from tiadc.design import FilterBank

DEFAULT_BLOCK = 1 << 16
CHUNK_ROWS = 128


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
    config, pushed in pieces.

    Tap j of branch m acts at delay ``bank.spec.tap_offset + m + j``. ``push``
    and ``finish`` write the output samples they complete to the front of
    ``out`` and return how many they wrote; output sample k of the record is
    the k-th sample written over all calls. They write whole runs, so
    ``out`` (a contiguous float64 array) needs ``out_size(k)`` samples of
    room, k the samples pushed (for ``finish``, those of the n never
    pushed). ``finish`` pads the record with zeros until all n are written.
    Samples pushed beyond n are ignored.
    """

    def __init__(self, bank: FilterBank, config: TiadcConfig, n: int):
        m_ch = config.m_channels
        if bank.m_channels != m_ch:
            raise ValueError(
                f"bank has {bank.m_channels} channels, capture has {m_ch}")
        if bank.fs != config.fs:
            raise ValueError(f"bank is for fs = {bank.fs:g} Hz, capture has fs = {config.fs:g} Hz")
        L = bank.spec.taps
        if n < L:
            raise ValueError(f"capture shorter than the filter length ({n} < {L})")
        self._g = polyphase_matrix(bank.taps, m_ch)
        j = self._g.shape[0] // m_ch
        self._lead = min(bank.spec.tap_offset, n)  # leading zeros not yet written
        self._left = n  # output samples not yet written
        # at least 2 rows per row phase: numpy hands a 1-row product to a
        # matrix-vector routine that sums in another order
        rows = min(CHUNK_ROWS, max(2, -(-(n - self._lead) // (j * m_ch))))
        self._run_size = j * rows * m_ch
        self._history = (j - 1) * m_ch
        self._stage = np.zeros(self._history + self._run_size)
        # row phase i of a run reads the (rows, J*M) view at i*M
        self._operands = [
            self._stage[i * m_ch:i * m_ch + self._run_size].reshape(rows, -1)
            for i in range(j)]
        self._fill = self._history

    def out_size(self, k):
        """Room in ``out`` that a push of k samples may need."""
        return k + self._lead + self._run_size

    def _start(self, out):
        if not out.flags.c_contiguous or out.dtype != np.float64:
            raise ValueError("out must be a contiguous float64 array")
        lead, self._lead = self._lead, 0
        out[:lead] = 0.0
        self._left -= lead
        return lead

    def _run(self, out):
        """Multiply the staged run whole into out (one product per row phase),
        keep its tail as history; return how many outputs lie in the record."""
        rows = out[:self._run_size].reshape(-1, self._g.shape[1])
        j = len(self._operands)
        for i, a in enumerate(self._operands):
            np.matmul(a, self._g, out=rows[i::j])
        written = min(self._left, self._run_size)
        self._left -= written
        self._stage[:self._history] = self._stage[self._run_size:]
        self._fill = self._history
        return written

    def push(self, samples, out):
        k = self._start(out)
        samples = np.asarray(samples, dtype=np.float64).reshape(-1)
        i = 0
        while i < samples.size and self._left:
            take = min(samples.size - i, self._stage.size - self._fill)
            self._stage[self._fill:self._fill + take] = samples[i:i + take]
            self._fill += take
            i += take
            if self._fill == self._stage.size:
                k += self._run(out[k:])
        return k

    def finish(self, out):
        k = self._start(out)
        while self._left:
            self._stage[self._fill:] = 0.0
            k += self._run(out[k:])
        return k


def record_stream(bank: FilterBank, config: TiadcConfig, n: int) -> PolyphaseStream:
    """The PolyphaseStream that corrects an n-sample record. Its output must keep
    a sample between the transients flagged at each end, as a capture does."""
    stream, transient = PolyphaseStream(bank, config, n), bank.spec.transient_samples
    if n <= 2 * transient:
        raise ValueError(f"capture of n = {n} samples is too short to correct: the bank "
                         f"flags {transient} transient samples at each end")
    return stream


def correct(capture: Capture, bank: FilterBank,
            block_size: int | None = DEFAULT_BLOCK) -> Capture:
    """Apply the M-branch synthesis bank to an interleaved capture.

    Output y[n] = sum_m sum_i f_m[n - i*M] x_m[i] with x_m[i] = input[i*M+m],
    has the same length as the input, and is delayed by the bank's design
    delay. The record is pushed through one PolyphaseStream block_size
    samples at a time (block_size=None pushes it whole); every block size
    gives bit-identical output.
    """
    n = capture.n
    stream = record_stream(bank, capture.config, n)
    step = n if block_size is None else block_size
    if step < 1:
        raise ValueError("block_size must be positive")
    y = np.empty(stream.out_size(n))
    done = 0
    for a in range(0, n, step):
        done += stream.push(capture.samples[a:a + step], y[done:])
    stream.finish(y[done:])
    return Capture(samples=y[:n], config=capture.config,
                   transient_samples=bank.spec.transient_samples, corrected=True,
                   bank_id=bank.bank_id)
