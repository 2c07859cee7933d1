"""The synthesis filter-bank kernel, as one polyphase-matrix product.

Output sample n = tap_offset + r*M + p (row r, phase p) reads the input
samples ending at row r's last channel, each weighted by the tap of the
branch that owns its channel. Written per row, that is the bank's polyphase
(MIMO) form: with J = ceil((L - 1)/M) + 1, the M outputs of row r are the
J*M input samples ``flat[r*M : r*M + J*M]`` of the zero-padded record times
one fixed (J*M, M) matrix G, so the whole record is one dense product that
BLAS runs at full speed.

Rows are copied CHUNK_ROWS at a time into one contiguous buffer, and the
last chunk is padded with zero rows, so every product has exactly the same
shape. Each output's arithmetic then depends only on its own J*M inputs,
never on where the record starts or ends, which keeps blocked correction
bit-identical to one-shot correction.
"""

import numpy as np

CHUNK_ROWS = 256


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
    n = samples.size
    if tap_offset >= n:
        return np.zeros(n)
    g = polyphase_matrix(taps, m_channels)
    width = g.shape[0]
    rows = -(-(n - tap_offset) // m_channels)
    padded_rows = -(-rows // CHUNK_ROWS) * CHUNK_ROWS
    front = width - m_channels
    flat = np.zeros(padded_rows * m_channels + front)
    used = min(n, flat.size - front)
    flat[front:front + used] = samples[:used]
    # overlapping rows with row stride M, viewed on flat's buffer: built with
    # as_strided instead, ~9,000 calls left a ~1 MB block at the top of the
    # heap that kept it from being trimmed (about 30 MB more peak RSS in
    # long runs of the M = 16 correction)
    windows = np.ndarray((padded_rows, width), buffer=flat,
                         strides=(m_channels * flat.itemsize, flat.itemsize))
    y = np.empty(tap_offset + padded_rows * m_channels)
    y[:tap_offset] = 0.0
    out = y[tap_offset:].reshape(padded_rows, m_channels)
    buf = np.empty((CHUNK_ROWS, width))
    for a in range(0, padded_rows, CHUNK_ROWS):
        buf[:] = windows[a:a + CHUNK_ROWS]
        np.matmul(buf, g, out=out[a:a + CHUNK_ROWS])
    return y[:n]
