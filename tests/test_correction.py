"""Offset removal and filter-bank application, checked against a dense
matrix form of the same operator."""

import numpy as np
import pytest

import tiadc
from tiadc import pipeline
from tiadc.design import DesignSpec


@pytest.fixture
def cfg4():
    return tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0,
                             quantize=False)


@pytest.fixture
def ideal4(cfg4):
    return tiadc.MismatchProfile.ideal(4, cfg4.fs)


@pytest.fixture
def ideal_bank(cfg4, ideal4):
    return tiadc.design_filter_bank(
        ideal4, cfg4, DesignSpec(n_grid=1024, taps=65, window="none"))


@pytest.fixture
def mismatch_bank(cfg4):
    truth = tiadc.make_reference_profile(cfg4)
    return tiadc.design_filter_bank(
        truth, cfg4, DesignSpec(n_grid=1024, taps=65))


def dense_operator(bank, n):
    """Direct matrix form: out[src + offset + j] += taps[src % M, j] * x[src]."""
    m_ch = bank.m_channels
    taps = bank.taps
    off = bank.spec.tap_offset
    op = np.zeros((n, n))
    for src in range(n):
        for j in range(taps.shape[1]):
            out = src + off + j
            if 0 <= out < n:
                op[out, src] += taps[src % m_ch, j]
    return op


def make_capture(cfg, samples):
    return tiadc.Capture(samples=np.asarray(samples, float), config=cfg)


class TestCorrectOffsets:
    def test_zero_signal_means_cancel(self, cfg4):
        prof = tiadc.MismatchProfile(
            freqs_hz=[0.0, cfg4.fs], gain=np.ones((4, 2)), dt_s=np.zeros((4, 2)),
            offset_lsb=np.array([1.0, -1.0, 0.0, 0.0]))
        cap = make_capture(cfg4, np.tile(prof.offset_lsb * cfg4.lsb, 16))
        out = tiadc.correct_offsets(cap, prof)
        for m in range(4):
            assert abs(out.samples[m::4].mean()) < 1e-12

    def test_zero_offsets_identity(self, cfg4, ideal4):
        cap = make_capture(cfg4, np.arange(32, dtype=float))
        out = tiadc.correct_offsets(cap, ideal4)
        assert np.array_equal(out.samples, cap.samples)

    def test_constant_capture_shifts_per_channel(self, cfg4):
        offs = np.array([0.5, -2.0, 1.0, 3.0])
        prof = tiadc.MismatchProfile(
            freqs_hz=[0.0, cfg4.fs], gain=np.ones((4, 2)), dt_s=np.zeros((4, 2)),
            offset_lsb=offs)
        cap = make_capture(cfg4, np.full(16, 0.25))
        out = tiadc.correct_offsets(cap, prof)
        for i in range(16):
            assert out.samples[i] == pytest.approx(0.25 - offs[i % 4] * cfg4.lsb)

    def test_matches_per_channel_loop(self, cfg4):
        # one broadcast subtract, bit for bit the strided per-channel loop
        rng = np.random.default_rng(29)
        prof = tiadc.MismatchProfile(
            freqs_hz=[0.0, cfg4.fs], gain=np.ones((4, 2)), dt_s=np.zeros((4, 2)),
            offset_lsb=rng.normal(size=4) * 7)
        cap = make_capture(cfg4, rng.normal(size=4096))
        ref = cap.samples.copy()
        for m in range(4):
            ref[m::4] -= prof.offset_lsb[m] * cfg4.lsb
        assert np.array_equal(tiadc.correct_offsets(cap, prof).samples, ref)


class TestCorrect:
    def test_zero_in_zero_out(self, cfg4, ideal_bank):
        out = tiadc.correct(make_capture(cfg4, np.zeros(256)), ideal_bank)
        assert np.all(out.samples == 0.0)
        assert out.corrected and out.bank_id == ideal_bank.bank_id
        assert out.transient_samples == 65 + ideal_bank.spec.tap_offset

    def test_ideal_bank_is_pure_delay(self, cfg4, ideal4, ideal_bank):
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3.1e8, 0.2),
                                     cfg4, ideal4, 1024)
        out = tiadc.correct(cap, ideal_bank)
        d = ideal_bank.spec.delay_d
        lo, hi = 2 * 65, 1024 - 2 * 65
        assert np.allclose(out.samples[lo:hi], cap.samples[lo - d:hi - d],
                           atol=1e-9)

    def test_unit_impulse_reproduces_branch0_taps(self, cfg4, mismatch_bank):
        x = np.zeros(256)
        x[0] = 1.0
        out = tiadc.correct(make_capture(cfg4, x), mismatch_bank)
        off = mismatch_bank.spec.tap_offset
        assert np.allclose(out.samples[off:off + 65], mismatch_bank.taps[0],
                           atol=1e-15)

    def test_linearity(self, cfg4, mismatch_bank):
        rng = np.random.default_rng(31)
        u, v = rng.normal(size=512), rng.normal(size=512)
        a, b = 1.7, -0.3
        yu = tiadc.correct(make_capture(cfg4, u), mismatch_bank).samples
        yv = tiadc.correct(make_capture(cfg4, v), mismatch_bank).samples
        yc = tiadc.correct(make_capture(cfg4, a * u + b * v), mismatch_bank).samples
        ref = a * yu + b * yv
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(yc - ref)) <= 1e-9 * scale

    def test_shift_covariance_by_m(self, cfg4, mismatch_bank):
        rng = np.random.default_rng(37)
        x = rng.normal(size=512)
        shifted = np.concatenate([np.zeros(4), x[:-4]])
        y = tiadc.correct(make_capture(cfg4, x), mismatch_bank).samples
        ys = tiadc.correct(make_capture(cfg4, shifted), mismatch_bank).samples
        lo, hi = 100, 480
        assert np.array_equal(ys[lo + 4:hi + 4], y[lo:hi])

    def test_matches_dense_operator(self, cfg4, mismatch_bank):
        rng = np.random.default_rng(41)
        for n in (132, 256):  # 132: the shortest record correct takes
            x = rng.normal(size=n)
            y = tiadc.correct(make_capture(cfg4, x), mismatch_bank,
                              block_size=None).samples
            ref = dense_operator(mismatch_bank, n) @ x
            assert np.max(np.abs(y - ref)) <= 1e-12

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_block_size_must_be_positive(self, cfg4, mismatch_bank, block_size):
        cap = make_capture(cfg4, np.zeros(256))
        with pytest.raises(ValueError, match="block_size must be positive"):
            tiadc.correct(cap, mismatch_bank, block_size=block_size)
        assert tiadc.correct(cap, mismatch_bank, block_size=None).n == 256

    def test_channel_count_mismatch_rejected(self, mismatch_bank):
        cfg2 = tiadc.TiadcConfig(m_channels=2, fs=1.6e9, bits=14,
                                 full_scale=2.0, quantize=False)
        with pytest.raises(ValueError, match="channels"):
            tiadc.correct(make_capture(cfg2, np.zeros(256)), mismatch_bank)

    def test_short_capture_rejected(self, cfg4, mismatch_bank):
        # shorter than the 65 taps too, and refused by the same rule
        with pytest.raises(ValueError, match=(
                "capture of n = 32 samples is too short to correct: the bank flags "
                "65 transient samples at each end")):
            tiadc.correct(make_capture(cfg4, np.zeros(32)), mismatch_bank)

    def test_shortest_record_round_trips(self, cfg4, mismatch_bank, tmp_path):
        # the smallest multiple of M above twice the transient count
        transient = mismatch_bank.spec.transient_samples
        n = (2 * transient // 4 + 1) * 4
        out = tiadc.correct(make_capture(cfg4, np.ones(n)), mismatch_bank)
        tiadc.save_capture(out, tmp_path / "fixed.f64")
        back = tiadc.load_capture(tmp_path / "fixed.f64")
        assert back.samples.tobytes() == out.samples.tobytes()
        assert back.transient_samples == transient

    @pytest.mark.parametrize("n", [68, 100, 128])
    def test_all_transient_record_rejected(self, cfg4, mismatch_bank, n):
        # at least L samples, but none left between the 65 flagged at each end
        with pytest.raises(ValueError, match=(
                f"capture of n = {n} samples is too short to correct: the bank flags "
                f"65 transient samples at each end")):
            tiadc.correct(make_capture(cfg4, np.zeros(n)), mismatch_bank)

    def test_end_to_end_image_suppression(self, cfg4, mismatch_bank):
        truth = tiadc.make_reference_profile(cfg4)
        J, f = tiadc.coherent_bin(3.3e8, cfg4.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     truth, 8192)
        fixed = tiadc.correct(tiadc.correct_offsets(cap, truth), mismatch_bank)
        before = tiadc.dynamic_metrics(tiadc.spectrum(cap, 4096), f, 4)
        after = tiadc.dynamic_metrics(tiadc.spectrum(fixed, 4096), f, 4)
        img_b = {s.freq_hz: s.dbc for s in before.spurs if s.kind == "image"}
        img_a = {s.freq_hz: s.dbc for s in after.spurs if s.kind == "image"}
        for freq, level in img_b.items():
            assert img_a[freq] <= level - 30.0


@pytest.mark.parametrize("m_ch, n_grid, n_taps, n_read", [(4, 1024, 65, 4228),
                                                         (16, 4096, 257, 4624)])
def test_prefix_corrects_like_whole_capture(m_ch, n_grid, n_taps, n_read):
    # a sweep point corrects only the n_read samples its analysis reads: the
    # bank is causal, so a prefix corrects to the prefix of the whole output
    raw = pipeline.load_scenario("wideband_zone1")
    raw["config"]["m_channels"] = m_ch
    raw["design"].update(n_grid=n_grid, taps=n_taps)
    sc = pipeline.parse_scenario(raw)
    assert sc.n_read == n_read
    bank = tiadc.design_filter_bank(tiadc.make_reference_profile(sc.config),
                                    sc.config, sc.spec)
    rng = np.random.default_rng(m_ch)
    x = rng.normal(size=raw["sweep"]["n_samples"])
    shortest = (2 * bank.spec.transient_samples // m_ch + 1) * m_ch
    whole = tiadc.correct(make_capture(sc.config, x), bank)
    for n in (n_read, shortest):
        part = tiadc.correct(make_capture(sc.config, x[:n]), bank)
        assert part.samples.tobytes() == whole.samples[:n].tobytes(), n
        if n == n_read:  # the analysis reads the same samples
            assert (tiadc.spectrum(part, sc.n_fft).mean_square.tobytes()
                    == tiadc.spectrum(whole, sc.n_fft).mean_square.tobytes())
