"""Offset removal and synthesis filter-bank correction of interleaved records.

Correction streams the record through one ``kernels.PolyphaseStream`` block
by block; the stream carries its filter state from block to block, so the
output is bit-identical to one-shot convolution for every block size.
Samples outside the record are treated as zero, so the first and last
taps-plus-offset output samples are transient and flagged on the returned
capture.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from tiadc.model import Capture, MismatchProfile, TiadcConfig
from tiadc.design import DesignSpec, FilterBank
from tiadc import kernels

DEFAULT_BLOCK = 1 << 16


def correct_offsets(capture: Capture, profile: MismatchProfile) -> Capture:
    """Subtract each channel's calibrated offset (in LSB) from its samples."""
    m_ch = capture.config.m_channels
    if profile.m_channels != m_ch:
        raise ValueError("profile channel count does not match capture")
    if capture.n % m_ch != 0:
        raise ValueError("capture length must be a multiple of the channel count")
    shift = profile.offset_lsb * capture.config.lsb
    out = (capture.samples.reshape(-1, m_ch) - shift).ravel()
    return replace(capture, samples=out)


def bank_stream(bank: FilterBank, config: TiadcConfig, n: int) -> kernels.PolyphaseStream:
    """A stream that corrects one n-sample record captured with config."""
    m_ch = config.m_channels
    if bank.m_channels != m_ch:
        raise ValueError(
            f"bank has {bank.m_channels} channels, capture has {m_ch}")
    if bank.fs != config.fs:
        raise ValueError(f"bank is for fs = {bank.fs:g} Hz, capture has fs = {config.fs:g} Hz")
    L = bank.spec.taps
    if n < L:
        raise ValueError(f"capture shorter than the filter length ({n} < {L})")
    if n % m_ch != 0:
        raise ValueError("capture length must be a multiple of the channel count")
    return kernels.PolyphaseStream(bank.taps, m_ch, bank.tap_offset, n)


def transient_samples(spec: DesignSpec) -> int:
    """Output samples at each end of a record corrected by a bank of this
    design that read the zeros outside it."""
    return spec.taps + spec.delay_d - spec.half_taps


def correct(capture: Capture, bank: FilterBank,
            block_size: int | None = DEFAULT_BLOCK) -> Capture:
    """Apply the M-branch synthesis bank to an interleaved capture.

    Output y[n] = sum_m sum_i f_m[n - i*M] x_m[i] with x_m[i] = input[i*M+m],
    has the same length as the input, and is delayed by the bank's design
    delay. The record is pushed through the stream block_size samples at a
    time (block_size=None pushes it whole); every block size gives
    bit-identical output.
    """
    n = capture.n
    stream = bank_stream(bank, capture.config, n)
    step = n if block_size is None else block_size
    if step < 1:
        raise ValueError("block_size must be positive")
    y = np.empty(n)
    done = 0
    for a in range(0, n, step):
        done += stream.push(capture.samples[a:a + step], y[done:])
    stream.finish(y[done:])
    return Capture(samples=y, config=capture.config,
                   transient_samples=transient_samples(bank.spec), corrected=True,
                   bank_id=bank.bank_id)
