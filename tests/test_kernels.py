"""The polyphase filter-bank kernel against a dense per-sample reference."""

import numpy as np
import pytest

from tiadc import kernels


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
    y = kernels.apply_filter_bank(x, taps, m_ch, offset)
    ref = dense_reference(x, taps, m_ch, offset)
    assert np.max(np.abs(y - ref)) <= 1e-12


@pytest.mark.parametrize("n,offset", [(24, 24), (24, 31), (5, 0), (8, 2)])
def test_edges_match_dense_reference(n, offset):
    # offset >= n leaves the whole output in the zero-padded edge; n < L
    # gives every phase at most two rows
    rng = np.random.default_rng(11)
    x = rng.normal(size=n)
    taps = rng.normal(size=(4, 9))
    y = kernels.apply_filter_bank(x, taps, 4, offset)
    ref = dense_reference(x, taps, 4, offset)
    assert y.shape == (n,)
    assert np.max(np.abs(y - ref)) <= 1e-12
    if offset >= n:
        assert not y.any()


def test_dispatcher_validates():
    with pytest.raises(ValueError):
        kernels.apply_filter_bank(np.zeros(8), np.zeros((2, 3)), 4, 0)
    with pytest.raises(ValueError):
        kernels.apply_filter_bank(np.zeros(8), np.zeros((4, 3)), 4, -1)
