"""Acquisition model: channel response, sampling, interleaving, quantizer,
and the analytic spectrum oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tiadc
from tiadc.model import TWO_PI, Tone


@pytest.fixture
def cfg4():
    return tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0,
                             quantize=False)


@pytest.fixture
def ideal4(cfg4):
    return tiadc.MismatchProfile.ideal(4, cfg4.fs)


def constant_profile(m, gains, dts, offsets, f_max):
    return tiadc.MismatchProfile(
        freqs_hz=[0.0, f_max],
        gain=np.repeat(np.asarray(gains, float)[:, None], 2, axis=1),
        dt_s=np.repeat(np.asarray(dts, float)[:, None], 2, axis=1),
        offset_lsb=np.asarray(offsets, float))


class TestConfig:
    def test_derived_periods(self, cfg4):
        assert cfg4.ts == 1.0 / 1.6e9
        assert cfg4.lsb == 2.0 / 2 ** 14

    @pytest.mark.parametrize("kwargs", [
        dict(m_channels=1), dict(fs=0.0), dict(bits=0), dict(bits=25),
        dict(full_scale=-1.0),
    ])
    def test_invalid(self, kwargs):
        base = dict(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            tiadc.TiadcConfig(**base)


class TestChannelResponse:
    def test_ideal_reference_channel(self, cfg4, ideal4):
        h = tiadc.channel_response(ideal4, cfg4, 2 * np.pi * 123e6)
        assert h.shape == (4,)
        assert h[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_pure_interleave_phase(self, cfg4, ideal4):
        # omega*m*ts = m*pi/2 gives exactly j**m
        omega = (np.pi / 2) / cfg4.ts
        h = tiadc.channel_response(ideal4, cfg4, omega)
        assert h == pytest.approx(1j ** np.arange(4), abs=1e-12)

    def test_gain_and_timing(self, cfg4):
        prof = constant_profile(4, [0.98, 1, 1, 1], [1e-12, 0, 0, 0],
                                [0, 0, 0, 0], cfg4.fs)
        omega = 2 * np.pi * 200e6
        h = tiadc.channel_response(prof, cfg4, omega)[0]
        assert abs(h) == pytest.approx(0.98, abs=1e-12)
        assert np.angle(h) == pytest.approx(omega * 1e-12, abs=1e-15)
        assert np.angle(h) == pytest.approx(1.2566370614359172e-3, rel=1e-9)

    def test_conjugate_symmetry(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        rng = np.random.default_rng(3)
        omegas = rng.uniform(0, 2 * np.pi * 1.5e9, 50)
        hp = tiadc.channel_response(truth, cfg4, omegas)
        hn = tiadc.channel_response(truth, cfg4, -omegas)
        assert hp.shape == (50, 4)
        assert np.allclose(hn, np.conj(hp), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m_ch", [4, 16])
    def test_equals_per_channel_formula(self, m_ch):
        cfg = tiadc.TiadcConfig(m_channels=m_ch, fs=1.6e9, bits=14,
                                full_scale=2.0, quantize=False)
        truth = tiadc.make_reference_profile(cfg)
        rng = np.random.default_rng(m_ch)
        scalar = 2 * np.pi * 0.37e9
        grid = rng.uniform(-2 * np.pi * 1.6e9, 2 * np.pi * 1.6e9, (33, m_ch))
        for omega in (scalar, grid):
            h = tiadc.channel_response(truth, cfg, omega)
            f_abs = np.abs(omega) / (2 * np.pi)
            assert h.shape == np.shape(omega) + (m_ch,)
            for m in range(m_ch):
                expect = truth.gain_at(m, f_abs) * np.exp(
                    1j * omega * (m * cfg.ts + truth.dt_at(m, f_abs)))
                assert np.array_equal(h[..., m], expect)

    def test_bad_channel(self, cfg4, ideal4):
        with pytest.raises(ValueError, match="channel count"):
            tiadc.channel_response(tiadc.MismatchProfile.ideal(2, cfg4.fs), cfg4, 1e9)
        with pytest.raises(ValueError):
            tiadc.channel_response(ideal4, cfg4, np.nan)


class TestProfileInterpolation:
    def test_linear_midpoint_and_clamp(self):
        prof = tiadc.MismatchProfile(
            freqs_hz=[100e6, 200e6],
            gain=[[1.00, 1.02]], dt_s=[[0.0, 1e-12]], offset_lsb=[0.0])
        assert prof.gain_at(0, 150e6) == pytest.approx(1.01, abs=1e-15)
        assert prof.gain_at(0, 100e6) == 1.00
        assert prof.gain_at(0, 50e6) == 1.00   # clamped below
        assert prof.gain_at(0, 300e6) == 1.02  # clamped above
        assert prof.dt_at(0, 175e6) == pytest.approx(0.75e-12, abs=1e-27)

    def test_validation(self):
        with pytest.raises(ValueError):
            tiadc.MismatchProfile(freqs_hz=[2e8, 1e8], gain=[[1, 1]],
                                  dt_s=[[0, 0]], offset_lsb=[0])
        with pytest.raises(ValueError):
            tiadc.MismatchProfile(freqs_hz=[1e8, 2e8], gain=[[1, -1]],
                                  dt_s=[[0, 0]], offset_lsb=[0])
        with pytest.raises(ValueError, match="non-finite"):
            tiadc.MismatchProfile(freqs_hz=[1e8, 2e8], gain=[[1, np.nan]],
                                  dt_s=[[0, 0]], offset_lsb=[0])


def channel_rows(tones, config, profile, n_total):
    """The simulated capture as rows of M samples: column m is channel m."""
    cap = tiadc.simulate_capture(tones, config, profile, n_total)
    return cap.samples.reshape(-1, config.m_channels)


class TestSampleChannels:
    def test_cosine_at_zero_phase(self, cfg4, ideal4):
        tones = tiadc.ToneSpec.single(1.0, cfg4.fs / 16)
        rows = channel_rows(tones, cfg4, ideal4, 64)
        assert rows[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_linear_gain(self, cfg4):
        prof = constant_profile(4, [0.5, 1, 1, 1], [0] * 4, [0] * 4, cfg4.fs)
        tones = tiadc.ToneSpec.single(1.0, cfg4.fs / 16)
        rows = channel_rows(tones, cfg4, prof, 64)
        assert rows[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_offset_only(self, cfg4):
        prof = constant_profile(4, [1] * 4, [0] * 4, [0, 0, 3.0, 0], cfg4.fs)
        tones = tiadc.ToneSpec(tones=(Tone(0.0, 1e8),))
        rows = channel_rows(tones, cfg4, prof, 64)
        assert np.allclose(rows[:, 2], 3.0 * cfg4.lsb, atol=1e-18)
        assert np.allclose(rows[:, 0], 0.0)

    def test_length_validation(self, cfg4, ideal4):
        with pytest.raises(ValueError, match="multiple of m_channels"):
            channel_rows(tiadc.ToneSpec.single(0.5, 1e8), cfg4, ideal4, 66)

    def test_clip_warning(self, cfg4, ideal4):
        with pytest.warns(UserWarning):
            channel_rows(tiadc.ToneSpec.single(1.5, 1e8), cfg4, ideal4, 64)

    def test_ideal_equals_single_adc(self, cfg4, ideal4):
        f, phi = 123.4e6, 0.37
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f, phi),
                                     cfg4, ideal4, 4096)
        n = np.arange(4096)
        ref = 0.9 * np.cos(2 * np.pi * f * (n * cfg4.ts) + phi)
        assert np.array_equal(cap.samples, ref)


def reference_channels(tones, config, profile, n_total):
    """Per-channel simulation, one channel at a time: the loop one-pass
    simulation replaced, kept as its reference."""
    m_ch = config.m_channels
    per = n_total // m_ch
    channels = []
    for m in range(m_ch):
        t_nominal = (np.arange(per) * m_ch + m) * config.ts
        x = np.full(per, tones.dc + profile.offset_lsb[m] * config.lsb)
        for tone in tones.tones:
            g = float(profile.gain_at(m, tone.freq_hz))
            dt = float(profile.dt_at(m, tone.freq_hz))
            x += g * tone.amplitude * np.cos(
                TWO_PI * tone.freq_hz * (t_nominal + dt) + tone.phase_rad)
        channels.append(tiadc.midtread_quantize(x, config) if config.quantize else x)
    return channels


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m_ch=st.integers(2, 16), n_tones=st.integers(1, 3),
       quantize=st.booleans(), with_dc=st.booleans())
def test_one_pass_equals_per_channel_loop(data, m_ch, n_tones, quantize, with_dc):
    cfg = tiadc.TiadcConfig(m_channels=m_ch, fs=1.6e9, bits=12, full_scale=2.0,
                            quantize=quantize)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    knots = int(rng.integers(2, 9))  # a random profile over [0, fs]
    profile = tiadc.MismatchProfile(
        freqs_hz=np.linspace(0.0, cfg.fs, knots),
        gain=1.0 + 0.01 * rng.uniform(-1, 1, (m_ch, knots)),
        dt_s=2e-12 * rng.uniform(-1, 1, (m_ch, knots)),
        offset_lsb=rng.uniform(-2, 2, m_ch))
    # zone-1 and zone-2 tones; amplitudes up to 0.6 V may clip together
    tones = tiadc.ToneSpec(tones=tuple(
        Tone(data.draw(st.floats(0.0, 0.6)),
             data.draw(st.floats(0.0, cfg.fs / 2) | st.floats(cfg.fs / 2, cfg.fs)),
             data.draw(st.floats(0.0, 2 * np.pi)))
        for _ in range(n_tones)), dc=data.draw(st.floats(-0.1, 0.1)) if with_dc else 0.0)
    # from one row to three blocks and a ragged tail
    n = m_ch * data.draw(st.integers(1, 700) | st.integers(
        1, 3 * tiadc.model.SIMULATION_BLOCK // m_ch + 5), label="rows")
    ref = reference_channels(tones, cfg, profile, n)
    clips = tones.peak_sum() > cfg.full_scale / 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cap = tiadc.simulate_capture(tones, cfg, profile, n)
    assert [str(w.message)[:22] for w in caught] == ["tone amplitudes exceed"] * clips
    # the round-robin merge: sample i*M + m is sample i of channel m
    assert np.array_equal(cap.samples, np.stack(ref, axis=1).ravel())


class TestToneSpec:
    @pytest.mark.parametrize("tone, dc, expect", [
        (Tone(np.nan, 1e8), 0.0, "tone amplitudes must be finite and >= 0"),
        (Tone(np.inf, 1e8), 0.0, "tone amplitudes must be finite and >= 0"),
        (Tone(0.5, np.nan), 0.0, "tone frequencies must be finite and >= 0"),
        (Tone(0.5, 1e8, np.inf), 0.0, "tone phases must be finite"),
        (Tone(0.5, 1e8), np.inf, "dc must be finite"),
        (Tone(0.5, 1e8), np.nan, "dc must be finite"),
    ], ids=["nan-amplitude", "inf-amplitude", "nan-frequency", "phase", "inf-dc", "nan-dc"])
    def test_non_finite_field_named(self, tone, dc, expect):
        with pytest.raises(ValueError, match=expect):
            tiadc.ToneSpec(tones=(tone,), dc=dc)


class TestQuantizer:
    def test_monotonic_and_bounded_error(self):
        cfg = tiadc.TiadcConfig(m_channels=2, fs=1e9, bits=8, full_scale=2.0)
        x = np.linspace(-0.95, 0.95, 20001)
        q = tiadc.midtread_quantize(x, cfg)
        assert np.all(np.diff(q) >= 0)
        assert np.max(np.abs(q - x)) <= cfg.lsb / 2 + 1e-15

    def test_saturation(self):
        cfg = tiadc.TiadcConfig(m_channels=2, fs=1e9, bits=8, full_scale=2.0)
        q = tiadc.midtread_quantize(np.array([-5.0, 5.0]), cfg)
        assert q[0] == -cfg.full_scale / 2
        assert q[1] == cfg.full_scale / 2 - cfg.lsb

    def test_zero_maps_to_zero(self):
        cfg = tiadc.TiadcConfig(m_channels=2, fs=1e9, bits=8, full_scale=2.0)
        assert tiadc.midtread_quantize(np.array([0.0]), cfg)[0] == 0.0


def measured_line_dbfs(capture, n_fft):
    """Single-sided amplitude spectrum in dBFS, used as the FFT oracle."""
    x = capture.samples[:n_fft]
    bins = np.abs(np.fft.rfft(x)) / n_fft
    bins[1:-1] *= 2
    ref = capture.config.full_scale / 2
    return 20 * np.log10(np.maximum(bins / ref, 1e-16))


class TestPredictOutputSpectrum:
    def test_ideal_profile_one_line_per_tone(self, cfg4, ideal4):
        tones = tiadc.ToneSpec(tones=(Tone(0.5, 100e6), Tone(0.3, 333e6)))
        lines = tiadc.predict_output_spectrum(tones, cfg4, ideal4)
        assert len(lines) == 2
        assert all(ln.kind == "fundamental" for ln in lines)
        assert sorted(ln.amplitude_v for ln in lines) == pytest.approx([0.3, 0.5])

    def test_two_channel_gain_mismatch_closed_form(self):
        cfg = tiadc.TiadcConfig(m_channels=2, fs=1.0e9, bits=14,
                                full_scale=2.0, quantize=False)
        prof = constant_profile(2, [1.0, 1.02], [0, 0], [0, 0], cfg.fs)
        f0 = 511 / 4096 * cfg.fs
        lines = tiadc.predict_output_spectrum(
            tiadc.ToneSpec.single(0.9, f0), cfg, prof)
        by_kind = {ln.kind: ln for ln in lines}
        image = by_kind["image"]
        fund = by_kind["fundamental"]
        assert image.freq_hz == pytest.approx(cfg.fs / 2 - f0, rel=1e-12)
        dbc = 20 * np.log10(image.amplitude_v / fund.amplitude_v)
        # brute-force DFT of the modulated sequence is the oracle here
        n = 4096
        i = np.arange(n)
        y = np.where(i % 2 == 0, 1.0, 1.02) * 0.9 * np.cos(2 * np.pi * f0 / cfg.fs * i)
        spec = np.abs(np.fft.rfft(y)) / n * 2
        oracle_dbc = 20 * np.log10(spec[n // 2 - 511] / spec[511])
        assert dbc == pytest.approx(oracle_dbc, abs=1e-9)
        assert dbc == pytest.approx(20 * np.log10(0.01 / 1.01), abs=1e-12)

    def test_fold_arithmetic_m4(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        lines = tiadc.predict_output_spectrum(
            tiadc.ToneSpec.single(0.9, 170e6), cfg4, truth)
        image_freqs = sorted(ln.freq_hz for ln in lines if ln.kind == "image")
        # brute-force enumeration of fold(k*fs/M +- f) for k=1..3
        expect = set()
        for k in range(1, 4):
            for s in (+1, -1):
                expect.add(tiadc.fold_frequency(k * 400e6 + s * 170e6, cfg4.fs))
        assert image_freqs == pytest.approx(sorted(expect))
        assert sorted(expect) == pytest.approx([230e6, 570e6, 630e6])

    def test_coincident_lines_merge_complex(self, cfg4):
        # f = fs/8 folds the k=1 lower image onto the fundamental
        truth = tiadc.make_reference_profile(cfg4)
        lines = tiadc.predict_output_spectrum(
            tiadc.ToneSpec.single(0.9, cfg4.fs / 8), cfg4, truth)
        fund = [ln for ln in lines if ln.kind == "fundamental"]
        assert len(fund) == 1
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, cfg4.fs / 8),
                                     cfg4, truth, 4096)
        meas = measured_line_dbfs(cap, 4096)
        b = int(round(fund[0].freq_hz / cfg4.fs * 4096))
        pred_db = 20 * np.log10(fund[0].amplitude_v / 1.0)
        assert meas[b] == pytest.approx(pred_db, abs=1e-6)

    def test_oracle_agreement_with_fft(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        n_fft = 4096
        f0 = 767 / n_fft * cfg4.fs
        tones = tiadc.ToneSpec.single(0.9, f0, 0.4)
        cap = tiadc.simulate_capture(tones, cfg4, truth, n_fft)
        meas = measured_line_dbfs(cap, n_fft)
        lines = tiadc.predict_output_spectrum(tones, cfg4, truth)
        checked = 0
        for ln in lines:
            pred_db = 20 * np.log10(ln.amplitude_v / 1.0)
            if pred_db <= -120:
                continue
            b = int(round(ln.freq_hz / cfg4.fs * n_fft))
            assert meas[b] == pytest.approx(pred_db, abs=0.5), ln
            checked += 1
        assert checked >= 5


class TestCaptureFiles:
    def test_round_trip(self, cfg4, ideal4, tmp_path):
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.5, 2e8), cfg4,
                                     ideal4, 256)
        path = tmp_path / "cap.f64"
        tiadc.save_capture(cap, path)
        back = tiadc.load_capture(path)
        assert np.array_equal(back.samples, cap.samples)
        assert back.fs == cap.fs
        assert back.config == cap.config

    def test_corrected_metadata(self, cfg4, ideal4, tmp_path):
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.5, 2e8), cfg4,
                                     ideal4, 256)
        cap.corrected = True
        cap.bank_id = "abc123"
        cap.transient_samples = 65
        path = tmp_path / "cap.f64"
        tiadc.save_capture(cap, path)
        back = tiadc.load_capture(path)
        assert back.corrected and back.bank_id == "abc123"
        assert back.transient_samples == 65

    def test_fs_is_the_config_rate(self, cfg4):
        cap = tiadc.Capture(samples=np.zeros(8), config=cfg4)
        assert cap.fs == cfg4.fs
        with pytest.raises(AttributeError):
            cap.fs = 1e9
        assert tiadc.Capture(samples=np.zeros(8), config=cfg4, fs=cfg4.fs).fs == cfg4.fs
        with pytest.raises(ValueError, match="does not match config.fs"):
            tiadc.Capture(samples=np.zeros(8), config=cfg4, fs=1e9)

    @pytest.mark.parametrize("n", [1, 6, 4099])
    def test_partial_row_rejected(self, cfg4, n):
        with pytest.raises(ValueError,
                           match="capture length must be a multiple of the channel count"):
            tiadc.Capture(samples=np.zeros(n), config=cfg4)

    def test_missing_sidecar(self, cfg4, tmp_path):
        path = tmp_path / "cap.f64"
        path.write_bytes(b"\0" * 64)
        with pytest.raises(FileNotFoundError):
            tiadc.load_capture(path)


class TestProfileFiles:
    def test_round_trip(self, cfg4, tmp_path):
        truth = tiadc.make_reference_profile(cfg4)
        path = tmp_path / "profile.csv"
        tiadc.write_profile_csv(truth, path)
        back = tiadc.read_profile_csv(path)
        assert np.array_equal(back.freqs_hz, truth.freqs_hz)
        assert np.array_equal(back.gain, truth.gain)
        assert np.array_equal(back.dt_s, truth.dt_s)
        assert np.array_equal(back.offset_lsb, truth.offset_lsb)

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("hello,world\n")
        with pytest.raises(tiadc.TiadcError):
            tiadc.read_profile_csv(path)

    def test_offset_constant_within_channel(self, cfg4, tmp_path):
        path = tmp_path / "profile.csv"
        tiadc.write_profile_csv(tiadc.make_reference_profile(cfg4, n_rows=5), path)
        lines = path.read_text().splitlines()
        # the first row of channel 1, whose offset is 1.9 LSB elsewhere
        fields = lines[6].split(",")
        assert fields[0] == "1" and fields[4] == "1.8999999999999999"
        lines[6] = ",".join(fields[:4] + ["5"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(tiadc.TiadcError, match="channel 1 rows disagree on offset_lsb"):
            tiadc.read_profile_csv(path)
