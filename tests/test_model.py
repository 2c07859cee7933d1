"""Acquisition model: channel response, sampling, interleaving, quantizer,
and the analytic spectrum oracle."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tiadc
from tiadc.model import TWO_PI, Tone


# any finite float, with the values a text round trip is most likely to lose
FINITE = st.one_of(st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]),
                   st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-310, 1e300]),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


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

    @pytest.mark.parametrize("amp, gains, offsets, clips", [
        (0.98, [1, 1, 1.03, 1], [0] * 4, True),  # within full scale, but not through 1.03
        (1.0, [1] * 4, [0, 0, 0, 2.0], True),  # full scale plus a 2 LSB offset
        (1.0, [1] * 4, [0] * 4, False),
        (0.98, None, None, False),  # the reference profile: gains within 1 %
    ], ids=["gain", "offset", "full-scale", "reference"])
    def test_clip_warning_reads_each_channel(self, cfg4, amp, gains, offsets, clips):
        profile = (tiadc.make_reference_profile(cfg4) if gains is None
                   else constant_profile(4, gains, [0] * 4, offsets, cfg4.fs))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            channel_rows(tiadc.ToneSpec.single(amp, 1e8), cfg4, profile, 64)
        assert [str(w.message) for w in caught] == [
            "tone amplitudes exceed half the full-scale range; the capture may clip"] * clips

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
    # a channel clips when its DC level plus every tone through its gain passes full scale
    clips = any(abs(tones.dc + profile.offset_lsb[m] * cfg.lsb)
                + sum(float(profile.gain_at(m, t.freq_hz)) * t.amplitude for t in tones.tones)
                > cfg.full_scale / 2 for m in range(m_ch))
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

    def test_image_takes_precedence_over_offset_spur(self, cfg4):
        # at f = fs/4 with M = 4 the images fold(k*fs/4 +- fs/4) land on 0
        # and fs/2, where the offset spurs of k = 0 and k = 2 also sit: each
        # merged line is an image, and its amplitude is the DC or Nyquist bin
        truth = tiadc.make_reference_profile(cfg4)
        tones = tiadc.ToneSpec.single(0.9, cfg4.fs / 4)
        lines = {ln.freq_hz: ln for ln in tiadc.predict_output_spectrum(tones, cfg4, truth)}
        meas = measured_line_dbfs(tiadc.simulate_capture(tones, cfg4, truth, 4096), 4096)
        for f, b in ((0.0, 0), (cfg4.fs / 2, 2048)):
            assert lines[f].kind == "image"
            assert meas[b] == pytest.approx(20 * np.log10(lines[f].amplitude_v), abs=1e-6)

    def test_zero_amplitude_tone_adds_no_line(self, cfg4):
        # 300 MHz is a k = 1 image of the 100 MHz tone: a zero tone there must
        # not turn that image into a fundamental
        truth = tiadc.make_reference_profile(cfg4)
        alone = tiadc.predict_output_spectrum(tiadc.ToneSpec.single(0.5, 1e8), cfg4, truth)
        pair = tiadc.predict_output_spectrum(
            tiadc.ToneSpec(tones=(Tone(0.5, 1e8), Tone(0.0, 3e8))), cfg4, truth)
        assert pair == alone

    @pytest.mark.parametrize("m_profile", [2, 8])
    @pytest.mark.parametrize("tones", [tiadc.ToneSpec.single(0.9, 1e8),
                                       tiadc.ToneSpec(tones=(), dc=0.01)],
                             ids=["tone", "dc-only"])
    def test_profile_channel_count_checked(self, cfg4, m_profile, tones):
        # the same check channel_response and simulate_capture make, before any line
        profile = tiadc.MismatchProfile.ideal(m_profile, cfg4.fs)
        with pytest.raises(ValueError, match="profile channel count does not match config"):
            tiadc.predict_output_spectrum(tones, cfg4, profile)

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


def two_pass_line_table(tones, config, profile):
    """predict_output_spectrum as it once was: the components folded into a
    second list, then merged by a hand-indexed while loop."""
    m_ch = config.m_channels
    fs = config.fs
    components = []
    phase_k = np.exp(-2j * np.pi * np.outer(np.arange(m_ch), np.arange(m_ch)) / m_ch)
    for tone in tones.tones:
        if tone.amplitude == 0:
            continue
        omega = TWO_PI * tone.freq_hz
        g = np.array([profile.gain_at(m, tone.freq_hz) for m in range(m_ch)])
        dt = np.array([profile.dt_at(m, tone.freq_hz) for m in range(m_ch)])
        c_pos = g * np.exp(1j * omega * dt)
        c_hat = phase_k.T @ c_pos / m_ch
        c_hat_neg = phase_k.T @ np.conj(c_pos) / m_ch
        theta0 = (omega / fs) % TWO_PI
        for k in range(m_ch):
            kind = "fundamental" if k == 0 else "image"
            zp = 0.5 * tone.amplitude * np.exp(1j * tone.phase_rad) * c_hat[k]
            zn = 0.5 * tone.amplitude * np.exp(-1j * tone.phase_rad) * c_hat_neg[k]
            components.append(((theta0 + TWO_PI * k / m_ch) % TWO_PI, zp, kind))
            components.append(((-theta0 + TWO_PI * k / m_ch) % TWO_PI, zn, kind))
    o_volts = profile.offset_lsb * config.lsb
    o_hat = phase_k.T @ o_volts / m_ch
    for k in range(m_ch):
        z = o_hat[k] + (tones.dc if k == 0 else 0.0)
        components.append((TWO_PI * k / m_ch, z, "offset_spur"))
    folded = []
    for theta, z, kind in components:
        if theta > np.pi:
            theta, z = TWO_PI - theta, np.conj(z)
        folded.append((theta, z, kind))
    folded.sort(key=lambda c: c[0])
    kind_order = ("fundamental", "image", "offset_spur")
    lines = []
    tol = 1e-9
    i = 0
    while i < len(folded):
        j = i
        acc = 0.0 + 0.0j
        while j < len(folded) and folded[j][0] - folded[i][0] <= tol:
            acc += folded[j][1]
            j += 1
        amp = abs(acc)
        peak = max((t.amplitude for t in tones.tones), default=1.0) or 1.0
        if amp > 1e-13 * peak:
            lines.append(tiadc.PredictedLine(
                freq_hz=folded[i][0] / TWO_PI * fs, amplitude_v=amp,
                kind=min((c[2] for c in folded[i:j]), key=kind_order.index)))
        i = j
    return lines


def line_bits(lines):
    return [(float(ln.freq_hz).hex(), float(ln.amplitude_v).hex(), ln.kind) for ln in lines]


@st.composite
def oracle_inputs(draw):
    """A config of M = 2 to 16 channels, a reference, ideal or random
    constant profile, and 0 to 3 tones (zero amplitudes included) on coherent
    bins, on multiples of fs/(8M) where lines collide, anywhere in zone 1 or
    in zone 2, plus an optional DC term."""
    m_ch = draw(st.integers(2, 16))
    fs = draw(st.sampled_from([1.0e9, 1.6e9, 2.5e9]))
    config = tiadc.TiadcConfig(m_channels=m_ch, fs=fs, bits=14, full_scale=2.0)
    shape = draw(st.sampled_from(["reference", "ideal", "random"]))
    if shape == "reference":
        profile = tiadc.make_reference_profile(config)
    elif shape == "ideal":
        profile = tiadc.MismatchProfile.ideal(m_ch, fs)
    else:
        near = st.floats(-1.0, 1.0)
        profile = constant_profile(
            m_ch, [1.0 + 0.05 * draw(near) for _ in range(m_ch)],
            [5e-12 * draw(near) for _ in range(m_ch)],
            [3.0 * draw(near) for _ in range(m_ch)], fs)
    freq = st.one_of(st.integers(1, 2047).map(lambda b: b * fs / 4096),
                     st.integers(0, 8 * m_ch).map(lambda j: j * fs / (8 * m_ch)),
                     st.floats(0.0, fs / 2), st.floats(fs / 2, fs))
    amplitude = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    tones = draw(st.lists(st.builds(Tone, amplitude, freq, st.floats(-np.pi, np.pi)),
                          max_size=3))
    dc = draw(st.one_of(st.just(0.0), st.floats(-0.1, 0.1)))
    return tiadc.ToneSpec(tones=tuple(tones), dc=dc), config, profile


class TestOnePassLineTable:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(inputs=oracle_inputs())
    def test_equals_two_pass_table(self, inputs):
        assert (line_bits(tiadc.predict_output_spectrum(*inputs))
                == line_bits(two_pass_line_table(*inputs)))

    @pytest.mark.parametrize("divisor, kinds", [
        # fs/8: the k = 1 lower image merges into the fundamental, and the
        # images at 3fs/8 from k = 1 and k = 2 merge into one
        (8, ["offset_spur", "fundamental", "offset_spur", "image", "offset_spur"]),
        # fs/4: images land on DC and Nyquist with the offset spurs there
        (4, ["image", "fundamental", "image"])])
    def test_collisions_at_m4(self, cfg4, divisor, kinds):
        truth = tiadc.make_reference_profile(cfg4)
        for tones in (tiadc.ToneSpec.single(0.9, cfg4.fs / divisor, 0.3, dc=0.01),
                      tiadc.ToneSpec(tones=(Tone(0.5, cfg4.fs / divisor),
                                            Tone(0.3, 3 * cfg4.fs / divisor)))):
            got = tiadc.predict_output_spectrum(tones, cfg4, truth)
            assert line_bits(got) == line_bits(two_pass_line_table(tones, cfg4, truth))
        assert [ln.kind for ln in tiadc.predict_output_spectrum(
            tiadc.ToneSpec.single(0.9, cfg4.fs / divisor), cfg4, truth)] == kinds


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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(transient=st.integers(0, 127), corrected=st.booleans(), bank_id=st.text())
    def test_optional_fields_round_trip(self, tmp_path_factory, transient, corrected,
                                        bank_id):
        # each optional sidecar field is written when it is not its default
        path = tmp_path_factory.mktemp("cap") / "cap.f64"
        cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0)
        cap = tiadc.Capture(np.arange(256.0), cfg, transient_samples=transient,
                            corrected=corrected, bank_id=bank_id)
        tiadc.save_capture(cap, path)
        back = tiadc.load_capture(path)
        assert (back.transient_samples, back.corrected, back.bank_id) == (
            transient, corrected, bank_id)
        assert np.array_equal(back.samples, cap.samples) and back.config == cap.config
        written = json.loads(path.with_name("cap.f64.json").read_text())
        assert [key for key in ("corrected", "bank_id", "transient_samples")
                if key in written] == [key for key, value, default in (
                    ("corrected", corrected, False), ("bank_id", bank_id, ""),
                    ("transient_samples", transient, 0)) if value != default]

    def test_files_move_without_extra_copies(self, tmp_path):
        # save_capture writes the samples from the array itself, and
        # load_capture reads them into the one array it returns
        cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0)
        cap = tiadc.Capture(np.random.default_rng(3).normal(size=1 << 20), cfg)
        record = cap.samples.nbytes
        path = tmp_path / "cap.f64"

        def peak(fn):
            tracemalloc.start()
            try:
                result = fn()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, saved = peak(lambda: tiadc.save_capture(cap, path))
        back, loaded = peak(lambda: tiadc.load_capture(path))
        assert saved < record / 4
        assert record <= loaded < 1.25 * record
        assert path.read_bytes() == cap.samples.astype("<f8").tobytes()
        assert back.samples.tobytes() == cap.samples.tobytes()

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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m_ch=st.integers(2, 8),
           freqs=st.lists(FINITE, min_size=1, max_size=6, unique=True).map(sorted))
    def test_round_trip_is_exact(self, tmp_path_factory, data, m_ch, freqs):
        # every finite value comes back with its bits: -0.0 and subnormals too
        shape = (m_ch, len(freqs))
        profile = tiadc.MismatchProfile(
            freqs_hz=freqs, gain=data.draw(arrays(np.float64, shape, elements=POSITIVE)),
            dt_s=data.draw(arrays(np.float64, shape, elements=FINITE)),
            offset_lsb=data.draw(arrays(np.float64, m_ch, elements=FINITE)))
        path = tmp_path_factory.mktemp("profile") / "profile.csv"
        tiadc.write_profile_csv(profile, path)
        back = tiadc.read_profile_csv(path)
        for name in ("freqs_hz", "gain", "dt_s", "offset_lsb"):
            got, want = getattr(back, name), getattr(profile, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("hello,world\n")
        with pytest.raises(tiadc.TiadcError):
            tiadc.read_profile_csv(path)

    def test_offset_constant_within_channel(self, cfg4, tmp_path):
        path = tmp_path / "profile.csv"
        ref = tiadc.make_reference_profile(cfg4)
        # five rows: every 16th of the reference's 65, at 0, fs/4, ..., fs
        tiadc.write_profile_csv(tiadc.MismatchProfile(
            freqs_hz=ref.freqs_hz[::16], gain=ref.gain[:, ::16], dt_s=ref.dt_s[:, ::16],
            offset_lsb=ref.offset_lsb), path)
        lines = path.read_text().splitlines()
        # the first row of channel 1, whose offset is 1.9 LSB elsewhere
        fields = lines[6].split(",")
        assert fields[0] == "1" and fields[4] == "1.8999999999999999"
        lines[6] = ",".join(fields[:4] + ["5"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(tiadc.TiadcError, match="channel 1 rows disagree on offset_lsb"):
            tiadc.read_profile_csv(path)


class TestNamedErrors:
    def test_prefixes_a_value_error(self):
        with pytest.raises(tiadc.TiadcError) as info:
            with tiadc.model.named("cfg.json"):
                raise ValueError("bits must be in [1, 24]")
        assert str(info.value) == "cfg.json: bits must be in [1, 24]"

    def test_leaves_a_tiadc_error_unchanged(self):
        inner = tiadc.TiadcError("cfg.json: unknown field 'x'")
        with pytest.raises(tiadc.TiadcError) as info:
            with tiadc.model.named("outer"):
                raise inner
        assert info.value is inner

    def test_honours_an_errors_tuple(self):
        with pytest.raises(tiadc.TiadcError, match=r"^stage design: p.csv: missing channels$"):
            with tiadc.model.named("stage design", (tiadc.TiadcError, OSError)):
                raise tiadc.TiadcError("p.csv: missing channels")
        with pytest.raises(tiadc.TiadcError, match=r"^stage design: gone$"):
            with tiadc.model.named("stage design", (tiadc.TiadcError, OSError)):
                raise FileNotFoundError("gone")
        with pytest.raises(ValueError, match=r"^not named$"):  # not in the tuple
            with tiadc.model.named("stage design", (tiadc.TiadcError, OSError)):
                raise ValueError("not named")

    def test_json_fields_raise_plain_value_errors(self):
        # the reader names the input; the field check does not
        with pytest.raises(ValueError) as info:
            tiadc.model.json_fields({}, {"a": "int"})
        assert type(info.value) is ValueError and str(info.value) == "missing field 'a'"
