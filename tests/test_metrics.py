"""Coherent bin selection, spectra, and sine-test dynamic metrics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tiadc
from tiadc import metrics


@pytest.fixture
def cfg4():
    return tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0,
                             quantize=False)


@pytest.fixture
def ideal4(cfg4):
    return tiadc.MismatchProfile.ideal(4, cfg4.fs)


class TestCoherentBin:
    def test_near_200mhz(self):
        j, f = tiadc.coherent_bin(200e6, 1.6e9, 4096)
        assert j == 511
        assert f == pytest.approx(199.609375e6)

    def test_quarter_rate_ties_go_low(self):
        # 0.25 * fs * 16 / fs = 4; candidates 3 and 5 tie, smaller J wins
        j, f = tiadc.coherent_bin(0.25 * 1.6e9, 1.6e9, 16)
        assert j == 3
        assert f == pytest.approx(3 * 1.6e9 / 16)

    def test_rejects_unusable_targets(self):
        with pytest.raises(ValueError):
            tiadc.coherent_bin(0.0, 1.6e9, 4096)
        with pytest.raises(ValueError):
            tiadc.coherent_bin(1.7e9, 1.6e9, 4096)
        with pytest.raises(ValueError):
            tiadc.coherent_bin(1e8, 1.6e9, 1000)  # not a power of two

    def test_results_always_odd_coprime(self):
        rng = np.random.default_rng(3)
        for f in rng.uniform(1e6, 1.59e9, 200):
            j, f_act = tiadc.coherent_bin(float(f), 1.6e9, 4096)
            assert j % 2 == 1 and np.gcd(j, 4096) == 1
            assert f_act == j * 1.6e9 / 4096

    def test_zone2_targets_allowed(self):
        j, f = tiadc.coherent_bin(1.2e9, 1.6e9, 4096)
        assert f > 0.8e9 and j % 2 == 1


def searched_coherent_bin(f_target, fs, n_fft):
    """The J of coherent_bin found by searching outward from round(x) for
    the nearest odd J coprime to n_fft, as coherent_bin once did."""
    x = f_target * n_fft / fs
    best = None
    j0 = int(round(x))
    for step in range(n_fft):
        for j in sorted({j0 - step, j0 + step}):
            if 1 <= j < n_fft and j % 2 == 1 and math.gcd(j, n_fft) == 1:
                cand = (abs(j - x), j)
                if best is None or cand < best:
                    best = cand
        if best is not None and step > best[0] + 1:
            break
    return best[1]


class TestCoherentBinClosedForm:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(log2_n=st.integers(2, 20), fs=st.floats(1.0, 1e10),
           u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), tie=st.booleans())
    def test_equals_search(self, log2_n, fs, u, tie):
        # a tie puts the target on an even bin, halfway between two odd ones
        n = 2 ** log2_n
        f = 2 * max(round(u * n / 2), 1) * fs / n if tie else u * fs
        if not 0 < f < fs:
            return
        j, f_act = tiadc.coherent_bin(f, fs, n)
        assert j == searched_coherent_bin(f, fs, n)
        assert f_act == j * fs / n


class TestSpectrum:
    def coherent_capture(self, cfg, profile, amp, f_target, n):
        _, f = tiadc.coherent_bin(f_target, cfg.fs, n)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(amp, f), cfg,
                                     profile, n)
        return cap, f

    def test_full_scale_sine_reads_zero_dbfs(self, cfg4, ideal4):
        cap, f = self.coherent_capture(cfg4, ideal4, 1.0, 3e8, 4096)
        rep = tiadc.spectrum(cap, 4096)
        b = rep.bin_of(f)
        assert rep.power_dbfs[b] == pytest.approx(0.0, abs=0.01)
        others = np.delete(rep.power_dbfs, b)
        assert np.max(others) < -250.0

    def test_half_scale_sine(self, cfg4, ideal4):
        cap, f = self.coherent_capture(cfg4, ideal4, 0.5, 3e8, 4096)
        rep = tiadc.spectrum(cap, 4096)
        assert rep.power_dbfs[rep.bin_of(f)] == pytest.approx(-6.02, abs=0.01)

    def test_dc_only(self, cfg4, ideal4):
        cap = tiadc.Capture(samples=np.full(4096, 0.25), config=cfg4)
        rep = tiadc.spectrum(cap, 4096)
        assert np.argmax(rep.power_dbfs) == 0
        assert np.max(rep.power_dbfs[1:]) < -250.0

    def test_too_short_rejected(self, cfg4):
        cap = tiadc.Capture(samples=np.zeros(1000) + 0.1, config=cfg4)
        with pytest.raises(ValueError):
            tiadc.spectrum(cap, 4096)

    def test_n_fft_must_be_power_of_two(self, cfg4):
        cap = tiadc.Capture(samples=np.zeros(4096) + 0.1, config=cfg4)
        for n_fft in (0, 2, 6, 3000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="power of two"):
                    tiadc.spectrum(cap, n_fft)

    def test_no_window_equals_window_of_ones(self, cfg4, monkeypatch):
        # "none" skips the window; the result is that of a window of ones
        x = np.random.default_rng(5).normal(0.0, 0.3, 4096)
        cap = tiadc.Capture(samples=x, config=cfg4)
        got = tiadc.spectrum(cap, 4096, "none")
        monkeypatch.setattr(metrics, "window_taps", lambda name, n: np.ones(n))
        want = tiadc.spectrum(cap, 4096, "hann")
        assert np.array_equal(got.power_dbfs, want.power_dbfs)
        assert np.array_equal(got.mean_square, want.mean_square)

    def test_transients_excluded(self, cfg4, ideal4):
        # tone coherent on the 4096-sample analysis window, captured longer
        _, f = tiadc.coherent_bin(3e8, cfg4.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(1.0, f), cfg4,
                                     ideal4, 8192)
        cap.samples[:100] = 0.0  # corrupt a transient head
        cap.transient_samples = 128
        rep = tiadc.spectrum(cap, 4096)
        assert rep.power_dbfs[rep.bin_of(f)] == pytest.approx(0.0, abs=0.01)

    def test_parseval(self, cfg4, ideal4):
        tones = tiadc.ToneSpec(tones=(tiadc.Tone(0.4, 123e6, 0.3),
                                      tiadc.Tone(0.2, 311e6, 1.0)), dc=0.05)
        cap = tiadc.simulate_capture(tones, cfg4, ideal4, 4096)
        rep = tiadc.spectrum(cap, 4096)
        time_ms = np.mean(cap.samples[:4096] ** 2)
        freq_ms = float(np.sum(rep.mean_square))
        assert freq_ms == pytest.approx(time_ms, rel=1e-9)


class TestDynamicMetrics:
    def test_enob_identity_exact(self):
        assert tiadc.enob_from_sinad(74.0) == 12.0

    def test_ideal_12bit_quantizer_enob(self):
        cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=12,
                                full_scale=2.0, quantize=True)
        ideal = tiadc.MismatchProfile.ideal(4, cfg.fs)
        _, f = tiadc.coherent_bin(3e8, cfg.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(1.0, f), cfg,
                                     ideal, 4096)
        rep = tiadc.dynamic_metrics(tiadc.spectrum(cap, 4096), f, 4)
        assert rep.enob_bits == pytest.approx(12.0, abs=0.15)

    def test_two_channel_gain_mismatch_sfdr(self):
        cfg = tiadc.TiadcConfig(m_channels=2, fs=1.0e9, bits=14,
                                full_scale=2.0, quantize=False)
        prof = tiadc.MismatchProfile(
            freqs_hz=[0.0, cfg.fs], gain=[[1.0, 1.0], [1.02, 1.02]],
            dt_s=np.zeros((2, 2)), offset_lsb=np.zeros(2))
        _, f = tiadc.coherent_bin(2e8, cfg.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg,
                                     prof, 4096)
        rep = tiadc.dynamic_metrics(tiadc.spectrum(cap, 4096), f, 2)
        expected = -20 * np.log10(0.01 / 1.01)  # 40.086 dB
        assert rep.sfdr_db == pytest.approx(expected, abs=0.1)
        assert rep.sfdr_db == pytest.approx(40.0, abs=0.1)

    def test_scale_shifts_dbfs_but_not_ratios(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        _, f = tiadc.coherent_bin(2.7e8, cfg4.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.5, f), cfg4,
                                     truth, 4096)
        half = tiadc.Capture(samples=cap.samples * 0.5, config=cfg4)
        r1 = tiadc.dynamic_metrics(tiadc.spectrum(cap, 4096), f, 4)
        r2 = tiadc.dynamic_metrics(tiadc.spectrum(half, 4096), f, 4)
        b = r1.fundamental_bin
        assert r2.power_dbfs[b] - r1.power_dbfs[b] == pytest.approx(-6.0206, abs=1e-3)
        assert r2.snr_db == pytest.approx(r1.snr_db, abs=1e-6)
        assert r2.sinad_db == pytest.approx(r1.sinad_db, abs=1e-6)
        assert r2.sfdr_db == pytest.approx(r1.sfdr_db, abs=1e-6)

    def test_fundamental_must_exist(self, cfg4):
        cap = tiadc.Capture(samples=np.zeros(4096), config=cfg4)
        with pytest.raises(tiadc.TiadcError):
            tiadc.dynamic_metrics(tiadc.spectrum(cap, 4096), 3e8, 4)

    def test_no_bins_left_for_noise(self, cfg4):
        # n_fft = 4 has 3 bins, and hann's gather around bin 1 covers them all
        x = np.sin(2 * np.pi * np.arange(4) / 4 + 0.3)
        rep = tiadc.spectrum(tiadc.Capture(samples=x, config=cfg4), 4, "hann")
        with pytest.raises(tiadc.TiadcError, match="no bins left"):
            tiadc.dynamic_metrics(rep, cfg4.fs / 4, 4)

    def test_non_coherent_with_window_gathers_bins(self, cfg4):
        # a tone halfway between bins, measured with hann + 3-bin gathering,
        # should agree with the coherent single-bin measurement to 0.5 dB
        truth = tiadc.make_reference_profile(cfg4)
        f_coh = tiadc.coherent_bin(2.57e8, cfg4.fs, 4096)[1]
        cap_c = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f_coh), cfg4,
                                       truth, 4096)
        rep_c = tiadc.dynamic_metrics(tiadc.spectrum(cap_c, 4096), f_coh, 4)
        f_nc = f_coh + 0.5 * cfg4.fs / 4096  # half a bin off the grid
        cap_n = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f_nc), cfg4,
                                       truth, 4096)
        rep_n = tiadc.dynamic_metrics(tiadc.spectrum(cap_n, 4096, "hann"),
                                      f_nc, 4)
        img_c = {s.k: s.dbc for s in rep_c.spurs
                 if s.kind == "image" and not s.collision}
        img_n = {s.k: s.dbc for s in rep_n.spurs
                 if s.kind == "image" and not s.collision}
        for k in img_c:
            assert img_n[k] == pytest.approx(img_c[k], abs=0.5)
        # the +-1 bin gathering is not sized for the kaiser design window
        with pytest.raises(ValueError):
            tiadc.spectrum(cap_n, 4096, "kaiser")


def reference_metrics(report, f_fund, m_channels, harmonics=5, exclude_freqs=()):
    """The docstring's pools, built bin by bin and summed in ascending order.

    A gather of width g around a centre c holds every bin b with |b - c| <= g,
    so a bin reached by two gathers is counted once.
    """
    n = report.n_bins
    g = 0 if report.window == "none" else 1
    fund_bin = report.bin_of(f_fund)
    f_fund = report.freqs_hz[fund_bin]

    def near(centers):
        return [any(abs(b - c) <= g for c in centers) for b in range(n)]

    def level(c):
        p = sum(report.mean_square[b] for b in range(n) if abs(b - c) <= g)
        ref = (report.full_scale / 2.0) ** 2 / 2.0
        return 10.0 * np.log10(max(p / ref, 10.0 ** (metrics.DB_FLOOR / 10.0)))

    spur_centers, image_dbc, dbc = [], [], {}
    for e in tiadc.image_spur_levels(report, f_fund, m_channels):
        if not e.collision:
            spur_centers.append(report.bin_of(e.freq_hz))
            image_dbc.append(level(spur_centers[-1]) - level(fund_bin))
    for k in range(1, m_channels):
        b = report.bin_of(k * report.fs / m_channels)
        if b not in (0, fund_bin):
            spur_centers.append(b)
            dbc[k] = level(b) - level(fund_bin)
    fund, dc = near([fund_bin]), near([0])
    harm = near([report.bin_of(h * f_fund) for h in range(2, harmonics + 2)])
    spur = near(spur_centers)
    excl = near([report.bin_of(f) for f in exclude_freqs])
    p_fund = p_sinad = p_noise = p_harm = 0.0
    max_spur = -np.inf
    for b in range(n):
        ms = report.mean_square[b]
        if fund[b]:
            p_fund += ms
        if harm[b] and not (fund[b] or dc[b]):
            p_harm += ms
        if not (fund[b] or dc[b] or excl[b]):
            p_sinad += ms
            max_spur = max(max_spur, report.power_dbfs[b])
            if not (harm[b] or spur[b]):
                p_noise += ms
    sinad = 10.0 * np.log10(p_fund / p_sinad) if p_sinad > 0 else float("inf")
    return {
        "snr_db": 10.0 * np.log10(p_fund / p_noise) if p_noise > 0 else float("inf"),
        "sinad_db": sinad,
        "thd_db": 10.0 * np.log10(p_harm / p_fund) if p_harm > 0 else float("-inf"),
        "sfdr_db": report.power_dbfs[fund_bin] - max_spur,
        "enob_bits": tiadc.enob_from_sinad(sinad),
        "image_dbc": image_dbc,
        "offset_dbc": dbc,
    }


def assert_matches_reference(rep, f_fund, m_channels, harmonics=5, exclude_freqs=()):
    got = tiadc.dynamic_metrics(rep, f_fund, m_channels, harmonics, exclude_freqs)
    want = reference_metrics(rep, f_fund, m_channels, harmonics, exclude_freqs)
    for key in ("snr_db", "sinad_db", "thd_db", "sfdr_db", "enob_bits"):
        assert getattr(got, key) == want[key], key
    assert [s.dbc for s in got.spurs
            if s.kind == "image" and not s.collision] == want["image_dbc"]
    assert {s.k: s.dbc for s in got.spurs if s.kind == "offset_spur"} == want["offset_dbc"]
    return got


class TestMetricPools:
    def test_matches_reference_coherent(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        _, f = tiadc.coherent_bin(2.7e8, cfg4.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4, truth, 4096)
        assert_matches_reference(tiadc.spectrum(cap, 4096), f, 4)

    def test_overlapping_gathers_counted_once(self):
        # near fs/8 the k = 1 image sits 2 bins above the fundamental and the
        # 3rd harmonic 2 bins below the k = 2 image, so with hann's +-1 bin
        # gathers the pools share bins 512 and 1534
        cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0)
        truth = tiadc.make_reference_profile(cfg)
        f = 511.3 * cfg.fs / 4096
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg, truth, 4096)
        rep = tiadc.spectrum(cap, 4096, "hann")
        images = [rep.bin_of(e.freq_hz) for e in tiadc.image_spur_levels(rep, f, 4)]
        assert rep.bin_of(f) == 511 and {513, 1535} <= set(images)
        assert rep.bin_of(3 * rep.freqs_hz[511]) == 1533
        excl = [1023 * cfg.fs / 4096]  # its gather touches the 2f and fs/4 gathers
        assert_matches_reference(rep, f, 4, harmonics=7, exclude_freqs=excl)

    @pytest.mark.parametrize("window", ["none", "hann", "blackman"])
    def test_pool_sums_ascending_not_pairwise(self, window, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        _, f = tiadc.coherent_bin(3.1e8, cfg4.fs, 8192)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4, truth, 8192)
        assert_matches_reference(tiadc.spectrum(cap, 8192, window), f, 4)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           log2_n=st.integers(6, 10),
           window=st.sampled_from(metrics.ANALYSIS_WINDOWS),
           m_channels=st.integers(1, 8),
           harmonics=st.integers(0, 7),
           n_excl=st.integers(0, 3),
           give_fund=st.booleans())
    def test_random_spectra(self, seed, log2_n, window, m_channels, harmonics,
                            n_excl, give_fund):
        rng = np.random.default_rng(seed)
        n = 2 ** log2_n
        fs = 1e9
        cfg = tiadc.TiadcConfig(m_channels=max(m_channels, 2), fs=fs, bits=12,
                                full_scale=2.0)
        f = rng.uniform(2, n / 2 - 2) * fs / n
        t = np.arange(n) / fs
        x = (rng.uniform(0.1, 1.0) * np.sin(2 * np.pi * f * t + rng.uniform(0, 6))
             + rng.normal(0, 10 ** rng.uniform(-6, -1), n)
             + 0.01 * rng.uniform() * np.sin(2 * np.pi * 3 * f * t))
        # whole rows of M samples; the spectrum reads the first n
        x = np.pad(x, (0, -n % cfg.m_channels))
        rep = tiadc.spectrum(tiadc.Capture(samples=x, config=cfg), n, window)
        excl = list(rng.uniform(0, fs, n_excl))
        f_fund = f if give_fund else None
        got = tiadc.dynamic_metrics(rep, f_fund, m_channels, harmonics, excl)
        assert got.snr_db >= got.sinad_db
        assert np.isfinite(got.sfdr_db)
        f_found = rep.freqs_hz[got.fundamental_bin]
        assert_matches_reference(rep, f_found, m_channels, harmonics, excl)


def numpy_fold(freq_hz, fs):
    """fold_frequency as it was, in numpy scalars."""
    r = np.abs(np.float64(freq_hz)) % fs
    return fs - r if r > fs / 2 else r


class TestFolding:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(freq=st.floats(-1e11, 1e11, allow_nan=False),
           fs=st.floats(1.0, 1e10), log2_n=st.integers(2, 20))
    def test_equals_numpy_scalars(self, freq, fs, log2_n):
        for f in (freq, np.float64(freq)):
            assert tiadc.fold_frequency(f, fs) == numpy_fold(f, fs)
        rep = metrics.SpectrumReport(
            n_fft=2 ** log2_n, window="none", fs=fs, full_scale=2.0,
            freqs_hz=np.zeros(1), power_dbfs=np.zeros(1), mean_square=np.zeros(1))
        assert rep.bin_of(freq) == int(round(numpy_fold(freq, fs) / fs * rep.n_fft))

    def test_equals_numpy_scalars_beyond_two_fs(self):
        rng = np.random.default_rng(41)
        fs = 1.6e9
        freqs = np.concatenate([rng.uniform(-5 * fs, 5 * fs, 20000),
                                np.arange(-10, 11) * fs / 8])
        for f in freqs:
            assert tiadc.fold_frequency(f, fs) == numpy_fold(f, fs)


class TestImageSpurLevels:
    def test_ideal_profile_floor(self, cfg4, ideal4):
        _, f = tiadc.coherent_bin(1.7e8, cfg4.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     ideal4, 4096)
        rep = tiadc.spectrum(cap, 4096)
        for entry in tiadc.image_spur_levels(rep, f, 4):
            assert entry.dbc < -120.0

    def test_fold_positions_170mhz(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        _, f = tiadc.coherent_bin(1.7e8, cfg4.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     truth, 4096)
        rep = tiadc.spectrum(cap, 4096)
        freqs = sorted({e.freq_hz for e in
                        tiadc.image_spur_levels(rep, f, 4)})
        assert freqs == pytest.approx(
            sorted({tiadc.fold_frequency(k * 4e8 + s * f, cfg4.fs)
                    for k in (1, 2, 3) for s in (1, -1)}), abs=1.0)

    def test_collision_flagged(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        f = cfg4.fs / 8
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     truth, 4096)
        rep = tiadc.spectrum(cap, 4096)
        entries = tiadc.image_spur_levels(rep, f, 4)
        collisions = [e for e in entries if e.collision]
        assert len(collisions) == 1 and collisions[0].k == 1


class TestMetricsFiles:
    def test_spectrum_and_spur_csv(self, cfg4, tmp_path):
        truth = tiadc.make_reference_profile(cfg4)
        _, f = tiadc.coherent_bin(2e8, cfg4.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     truth, 4096)
        rep = tiadc.dynamic_metrics(tiadc.spectrum(cap, 4096), f, 4)
        spath = tmp_path / "spec.csv"
        tiadc.metrics.write_spectrum_csv(rep, spath)
        text = spath.read_text().splitlines()
        assert text[0] == "freq_hz,power_dbfs"
        assert len([l for l in text if not l.startswith("#")]) == 2049 + 1
        assert any(l.startswith("# enob_bits") for l in text)
        kpath = tmp_path / "spurs.csv"
        tiadc.metrics.write_spur_csv(rep.spurs, kpath)
        assert kpath.read_text().startswith("k,freq_hz,dbc,kind")
