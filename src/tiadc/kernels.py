"""The synthesis filter-bank kernel, in polyphase form.

Output sample n = tap_offset + p + r*M (phase p, row r) reads the L input
samples ending at n - tap_offset, each weighted by the tap of the branch
that owns its channel. Which branch owns which of those L slots depends only
on p, so each phase is one product of a strided, read-only (rows, L) window
over the zero-padded input with one coefficient vector. Nothing is
zero-stuffed, the window is never copied, and each output sums its terms in
order of increasing source index.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided


def apply_filter_bank(samples, taps, m_channels, tap_offset=0):
    """Run the M-branch synthesis bank over an interleaved record.

    ``taps`` is an (M, L) array; tap j of branch m acts at absolute delay
    ``tap_offset + m + j``. Output has the same length as the input and is
    zero-padded at the edges.
    """
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    taps = np.ascontiguousarray(taps, dtype=np.float64)
    if taps.ndim != 2 or taps.shape[0] != m_channels:
        raise ValueError("taps must have shape (m_channels, n_taps)")
    if tap_offset < 0:
        raise ValueError("tap_offset must be non-negative")
    n_taps = taps.shape[1]
    padded = np.concatenate((np.zeros(n_taps - 1), samples))
    item = padded.strides[0]
    i = np.arange(n_taps)
    y = np.zeros(samples.size)
    for p in range(m_channels):
        out = y[tap_offset + p::m_channels]
        # window[r, i] = samples[p + r*M - (L - 1) + i], zero before the record
        window = as_strided(padded[p:], shape=(out.size, n_taps),
                            strides=(m_channels * item, item), writeable=False)
        coef = taps[(p - n_taps + 1 + i) % m_channels, n_taps - 1 - i]
        if n_taps > m_channels and out.size > 1:
            # numpy cannot hand overlapping rows to BLAS, so it sums each row
            # in tap order, without copying the window
            out[:] = window @ coef
        else:
            # BLAS would take this product and may reorder the sums; keep the
            # same order so blocked and one-shot output stay bit-identical
            for k in range(n_taps):
                out += window[:, k] * coef[k]
    return y
