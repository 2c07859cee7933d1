"""Offset removal and synthesis filter-bank correction of interleaved records.

Filtering is block based with an overlap long enough that streaming output is
bit-identical to one-shot convolution. Samples outside the record are treated
as zero, so the first and last taps-plus-offset output samples are transient
and flagged on the returned capture.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from tiadc.model import Capture, MismatchProfile
from tiadc.design import FilterBank
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


def correct(capture: Capture, bank: FilterBank,
            block_size: int | None = DEFAULT_BLOCK) -> Capture:
    """Apply the M-branch synthesis bank to an interleaved capture.

    Output y[n] = sum_m sum_i f_m[n - i*M] x_m[i] with x_m[i] = input[i*M+m],
    has the same length as the input, and is delayed by the bank's design
    delay. block_size=None forces one-shot processing; any block size gives
    bit-identical output because blocks overlap by the full filter span.
    """
    m_ch = capture.config.m_channels
    if bank.m_channels != m_ch:
        raise ValueError(
            f"bank has {bank.m_channels} channels, capture has {m_ch}")
    n = capture.n
    L = bank.spec.taps
    if n < L:
        raise ValueError(f"capture shorter than the filter length ({n} < {L})")
    if n % m_ch != 0:
        raise ValueError("capture length must be a multiple of the channel count")
    x = capture.samples
    offset = bank.tap_offset
    if block_size is None or block_size >= n:
        y = kernels.apply_filter_bank(x, bank.taps, m_ch, offset)
    else:
        step = max(block_size - block_size % m_ch, m_ch)
        span = offset + L + m_ch
        margin = span + (-span) % m_ch  # multiple of M keeps channel phase
        y = np.empty(n)
        for a in range(0, n, step):
            b = min(a + step, n)
            lo = max(0, a - margin)
            seg = kernels.apply_filter_bank(x[lo:b], bank.taps, m_ch, offset)
            y[a:b] = seg[a - lo:b - lo]
    transient = L + offset
    return Capture(samples=y, fs=capture.fs, config=capture.config,
                   transient_samples=transient, corrected=True,
                   bank_id=bank.bank_id)
