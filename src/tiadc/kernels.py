"""The synthesis filter-bank kernel, as a stream of polyphase-matrix products.

Output sample n = tap_offset + r*M + p (row r, phase p) reads the input
samples ending at row r's last channel, each weighted by the tap of the
branch that owns its channel. Written per row, that is the bank's polyphase
(MIMO) form: with J = ceil((L - 1)/M) + 1, the M outputs of row r are the
J*M input samples ``flat[r*M : r*M + J*M]`` of the zero-padded record times
one fixed (J*M, M) matrix G, so the record is a dense product that BLAS runs
at full speed.

``PolyphaseStream`` runs that product over a record pushed in pieces of any
size. It builds G, one (CHUNK_ROWS, J*M) window buffer and a staging array
once per record, and carries the last (J - 1)*M input samples from one
chunk to the next. Every product has exactly the same shape (the last chunk
is padded with zero rows) and each output row depends only on its own J*M
inputs, so any split of the record into pushes, one-shot included, gives
bit-identical output. CHUNK_ROWS rows keep the window buffer in L2 cache
(278 KB at M = 16, L = 257).
"""

import numpy as np

CHUNK_ROWS = 128


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
    """The M-branch synthesis bank over one n-sample record, pushed in pieces.

    ``taps`` is an (M, L) array; tap j of branch m acts at delay
    ``tap_offset + m + j``, and ``tap_offset >= 0``. ``push`` and ``finish``
    write the output samples they complete to the front of ``out`` (a
    contiguous float64 array) and return how many they wrote; output sample
    k of the record is the k-th sample written over all calls. ``finish``
    pads the record with zeros until all n are written. Samples pushed
    beyond n are ignored.
    """

    def __init__(self, taps, m_channels, tap_offset, n):
        if taps.ndim != 2 or taps.shape[0] != m_channels:
            raise ValueError("taps must have shape (m_channels, n_taps)")
        if tap_offset < 0:
            raise ValueError("tap_offset must be non-negative")
        self._g = polyphase_matrix(taps, m_channels)
        width = self._g.shape[0]
        self._chunk = CHUNK_ROWS * m_channels
        self._history = width - m_channels
        self._stage = np.zeros(self._history + self._chunk)
        # overlapping rows with row stride M, viewed on the staging buffer;
        # built with as_strided instead, ~9,000 calls left a ~1 MB block at
        # the top of the heap that kept it from being trimmed (about 30 MB
        # more peak RSS in long runs of the M = 16 correction)
        self._windows = np.ndarray(
            (CHUNK_ROWS, width), buffer=self._stage,
            strides=(m_channels * self._stage.itemsize, self._stage.itemsize))
        self._buf = np.empty((CHUNK_ROWS, width))
        self._scratch = np.empty((CHUNK_ROWS, m_channels))
        self._fill = self._history
        self._lead = min(tap_offset, n)  # leading zeros not yet written
        self._left = n  # output samples not yet written

    def out_size(self, k):
        """Room in ``out`` that a push of k samples may need."""
        return k + self._lead + self._chunk

    def _start(self, out):
        if not out.flags.c_contiguous or out.dtype != np.float64:
            raise ValueError("out must be a contiguous float64 array")
        lead, self._lead = self._lead, 0
        out[:lead] = 0.0
        self._left -= lead
        return lead

    def _run(self, out):
        """Multiply the staged chunk into out, keep its last inputs as the
        next chunk's history, and return the outputs written."""
        written = min(self._left, self._chunk)
        if written:
            self._buf[:] = self._windows
            if written == self._chunk:
                np.matmul(self._buf, self._g,
                          out=out[:written].reshape(CHUNK_ROWS, -1))
            else:  # the chunk runs past the end of the record
                np.matmul(self._buf, self._g, out=self._scratch)
                out[:written] = self._scratch.reshape(-1)[:written]
            self._left -= written
        self._stage[:self._history] = self._stage[self._chunk:]
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

