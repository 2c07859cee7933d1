"""Sine-fit estimator and mismatch profile assembly."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tiadc
from tiadc.calibration import DegenerateInputError, fit_channels


POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-310, 1e300]),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


@pytest.fixture
def cfg4():
    return tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0,
                             quantize=False)


def constant_profile(gains, dts, offsets, f_max):
    m = len(gains)
    return tiadc.MismatchProfile(
        freqs_hz=[0.0, f_max],
        gain=np.repeat(np.asarray(gains, float)[:, None], 2, axis=1),
        dt_s=np.repeat(np.asarray(dts, float)[:, None], 2, axis=1),
        offset_lsb=np.asarray(offsets, float))


class TestSineFit:
    """calibration.fit_channels on one-column rows."""

    def test_exact_on_noiseless_data(self):
        i = np.arange(64)
        x = 0.5 * np.cos(2 * np.pi * 5 / 64 * i + 0.3) + 0.1
        amplitude, phase, dc, rms = fit_channels(x[:, None], 5 / 64)[:, 0]
        assert amplitude == pytest.approx(0.5, abs=1e-12)
        assert phase == pytest.approx(0.3, abs=1e-12)
        assert dc == pytest.approx(0.1, abs=1e-12)
        assert rms < 1e-13

    def test_all_zero(self):
        amplitude, _, dc, _ = fit_channels(np.zeros((32, 1)), 3 / 32)[:, 0]
        assert amplitude == 0.0
        assert dc == 0.0

    def test_noise_error_scales_inverse_sqrt_n(self):
        rng = np.random.default_rng(11)
        sigma = 0.05

        def rms_amp_error(n, trials=40):
            errs = []
            for _ in range(trials):
                i = np.arange(n)
                x = 0.8 * np.cos(2 * np.pi * 0.1237 * i + 0.9)
                x = x + rng.normal(0, sigma, n)
                errs.append(fit_channels(x[:, None], 0.1237)[0, 0] - 0.8)
            return np.sqrt(np.mean(np.square(errs)))

        r = rms_amp_error(128) / rms_amp_error(2048)
        assert 2.0 < r < 8.0  # expect factor 4

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            fit_channels(np.zeros((64, 1)), 0.0)
        with pytest.raises(ValueError):
            fit_channels(np.zeros((4, 1)), 0.1)


class TestEstimateMismatch:
    def coherent(self, f_target, cfg, n):
        return tiadc.coherent_bin(f_target, cfg.fs, n)[1]

    def test_ideal_profile(self, cfg4):
        ideal = tiadc.MismatchProfile.ideal(4, cfg4.fs)
        f = self.coherent(3e8, cfg4, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     ideal, 4096)
        m = tiadc.estimate_mismatch_at(cap, f, cfg4)
        assert np.allclose(m.gain_rel, 1.0, atol=1e-9)
        assert np.allclose(m.dt_s, 0.0, atol=1e-9 / (2 * np.pi * f))
        assert np.allclose(m.offset_lsb, 0.0, atol=1e-6)

    def test_gain_only(self, cfg4):
        prof = constant_profile([1.0, 1.01, 1.0, 1.0], [0] * 4, [0] * 4, cfg4.fs)
        f = self.coherent(2.5e8, cfg4, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     prof, 4096)
        m = tiadc.estimate_mismatch_at(cap, f, cfg4)
        assert m.gain_rel[1] == pytest.approx(1.01, abs=1e-6)

    def test_timing_only(self, cfg4):
        prof = constant_profile([1.0] * 4, [0, 0, 2e-12, 0], [0] * 4, cfg4.fs)
        f = self.coherent(3e8, cfg4, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     prof, 4096)
        m = tiadc.estimate_mismatch_at(cap, f, cfg4)
        assert m.dt_s[2] == pytest.approx(2e-12, abs=1e-15)
        assert m.dt_s[0] == 0.0

    def test_zone2_tone_uses_true_analog_frequency(self, cfg4):
        prof = constant_profile([1.0, 1.0, 1.0, 1.0], [0, 1.5e-12, 0, 0],
                                [0] * 4, cfg4.fs)
        f = self.coherent(0.7 * cfg4.fs, cfg4, 4096)  # second Nyquist zone
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     prof, 4096)
        m = tiadc.estimate_mismatch_at(cap, f, cfg4)
        assert m.dt_s[1] == pytest.approx(1.5e-12, abs=1e-15)

    @pytest.mark.parametrize("f", [4e8, 2e8], ids=["dc", "nyquist"])
    def test_tone_at_channel_dc_or_nyquist_rejected(self, cfg4, f):
        # 4e8 Hz folds to DC of the 400 MHz channel rate, 2e8 Hz to its Nyquist
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     tiadc.MismatchProfile.ideal(4, cfg4.fs), 4096)
        with pytest.raises(DegenerateInputError,
                           match="aliases to DC or Nyquist of the channel rate"):
            tiadc.estimate_mismatch_at(cap, f, cfg4)

    def test_non_coherent_rejected(self, cfg4):
        ideal = tiadc.MismatchProfile.ideal(4, cfg4.fs)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 2.5e8), cfg4,
                                     ideal, 4096)
        with pytest.raises(ValueError, match="coherent"):
            tiadc.estimate_mismatch_at(cap, 2.5001e8, cfg4)

    def test_buried_fundamental_rejected(self, cfg4):
        # a tone far below the quantization floor cannot be measured
        cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=8, full_scale=2.0,
                                quantize=True)
        truth = tiadc.make_reference_profile(cfg)
        f = self.coherent(3e8, cfg, 4096)
        cap = tiadc.simulate_capture(
            tiadc.ToneSpec.single(1e-5, f, dc=0.3), cfg, truth, 4096)
        with pytest.raises(tiadc.UnreliableMeasurementError):
            tiadc.estimate_mismatch_at(cap, f, cfg)

    @pytest.mark.parametrize("change", [dict(m_channels=8), dict(fs=1e9),
                                        dict(quantize=True)])
    def test_config_must_match_capture(self, cfg4, change):
        # an M = 4 capture read with an M = 8 config once gave 8 channels
        f = self.coherent(3e8, cfg4, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     tiadc.MismatchProfile.ideal(4, cfg4.fs), 4096)
        with pytest.raises(ValueError, match="config does not match the capture's config"):
            tiadc.estimate_mismatch_at(cap, f, replace(cfg4, **change))
        assert tiadc.estimate_mismatch_at(cap, f).m_channels == 4

    def test_reference_channel_pinned(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        f = self.coherent(2e8, cfg4, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     truth, 4096)
        m = tiadc.estimate_mismatch_at(cap, f, cfg4)
        assert m.gain_rel[0] == 1.0
        assert m.dt_s[0] == 0.0


def reference_sine_fit(samples, freq_ratio):
    """The three-parameter fit of one channel, with its own basis."""
    x = np.asarray(samples, dtype=np.float64)
    i = np.arange(x.size)
    theta = 2 * np.pi * freq_ratio * i
    basis = np.column_stack([np.cos(theta), np.sin(theta), np.ones(x.size)])
    coef, _, _, _ = np.linalg.lstsq(basis, x, rcond=None)
    a, b, dc = coef
    return float(np.hypot(a, b)), float(np.arctan2(-b, a)), float(dc)


def reference_estimate(capture, f_in_hz, config):
    """estimate_mismatch_at as a loop of per-channel sine fits."""
    m_ch = config.m_channels
    ratio_raw = (f_in_hz * m_ch / config.fs) % 1.0
    flip = ratio_raw > 0.5
    ratio = 1.0 - ratio_raw if flip else ratio_raw
    x = capture.samples
    fits = [reference_sine_fit(x[m::m_ch].copy(), ratio) for m in range(m_ch)]
    amps = np.array([f[0] for f in fits])
    phases = np.array([(-f[1] if flip else f[1]) for f in fits])
    omega = 2 * np.pi * f_in_hz
    gain = amps / amps[0]
    gain[0] = 1.0
    dphi = phases - phases[0] - omega * np.arange(m_ch) * config.ts
    dt = ((dphi + np.pi) % (2 * np.pi) - np.pi) / omega
    dt[0] = 0.0
    return gain, dt, np.array([f[2] for f in fits]) / config.lsb


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("f_target", [2.1e8, 7.3e8, 0.62 * 1.6e9, 0.93 * 1.6e9],
                         ids=["zone1-low", "zone1-high", "zone2-low", "zone2-high"])
def test_shared_basis_equals_per_channel_fits(m, f_target):
    cfg = tiadc.TiadcConfig(m_channels=m, fs=1.6e9, bits=14, full_scale=2.0)
    truth = tiadc.make_reference_profile(cfg)
    n = int(np.lcm(8192, m))  # whole rows of M, each tone coherent with 8192 samples
    f = tiadc.coherent_bin(f_target, cfg.fs, 8192)[1]
    cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg, truth, n)
    got = tiadc.estimate_mismatch_at(cap, f, cfg)
    gain, dt, offs = reference_estimate(cap, f, cfg)
    assert np.array_equal(got.gain_rel, gain)
    assert np.array_equal(got.dt_s, dt)
    assert np.array_equal(got.offset_lsb, offs)


class TestBuildProfile:
    def measurement(self, f, gain1):
        return tiadc.MismatchMeasurement(
            freq_hz=f, gain_rel=np.array([1.0, gain1]),
            dt_s=np.zeros(2), offset_lsb=np.zeros(2))

    def test_midpoint_knot_clamp(self):
        cfg = tiadc.TiadcConfig(m_channels=2, fs=1e9, bits=12, full_scale=2.0)
        prof = tiadc.build_profile(
            [self.measurement(100e6, 1.00), self.measurement(200e6, 1.02)], cfg)
        assert prof.gain_at(1, 150e6) == pytest.approx(1.01, abs=1e-15)
        assert prof.gain_at(1, 100e6) == 1.00
        assert prof.gain_at(1, 50e6) == 1.00

    def test_requires_two_distinct(self):
        # one measurement holds over [0, fs]; more must sit at distinct frequencies
        cfg = tiadc.TiadcConfig(m_channels=2, fs=1e9, bits=12, full_scale=2.0)
        prof = tiadc.build_profile([self.measurement(1e8, 1.02)], cfg)
        assert prof.freqs_hz.tolist() == [0.0, cfg.fs]
        assert prof.gain.tolist() == [[1.0, 1.0], [1.02, 1.02]]
        with pytest.raises(ValueError, match="distinct"):
            tiadc.build_profile([self.measurement(1e8, 1.0),
                                 self.measurement(1e8, 1.1)], cfg)
        with pytest.raises(ValueError, match="at least 1"):
            tiadc.build_profile([], cfg)

    def test_channel_count_consistency(self):
        cfg = tiadc.TiadcConfig(m_channels=4, fs=1e9, bits=12, full_scale=2.0)
        with pytest.raises(ValueError):
            tiadc.build_profile([self.measurement(1e8, 1.0),
                                 self.measurement(2e8, 1.0)], cfg)

    def test_offsets_averaged(self):
        cfg = tiadc.TiadcConfig(m_channels=2, fs=1e9, bits=12, full_scale=2.0)
        m1 = tiadc.MismatchMeasurement(1e8, np.array([1.0, 1.0]), np.zeros(2),
                                       np.array([0.0, 2.0]))
        m2 = tiadc.MismatchMeasurement(2e8, np.array([1.0, 1.0]), np.zeros(2),
                                       np.array([0.0, 4.0]))
        prof = tiadc.build_profile([m1, m2], cfg)
        assert prof.offset_lsb[1] == pytest.approx(3.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m_ch=st.integers(2, 16), fs=POSITIVE, f=FINITE)
def test_one_measurement_holds_over_band(data, m_ch, fs, f):
    # the narrowband rule: rows at 0 and fs, gain and timing repeated, offsets
    # copied, whatever frequency the one tone was measured at
    gains, dts, offs = (np.array(data.draw(st.lists(kind, min_size=m_ch, max_size=m_ch)))
                        for kind in (POSITIVE, FINITE, FINITE))
    cfg = tiadc.TiadcConfig(m_channels=m_ch, fs=fs, bits=12, full_scale=2.0)
    meas = tiadc.MismatchMeasurement(freq_hz=f, gain_rel=gains, dt_s=dts, offset_lsb=offs)
    want = (np.array([0.0, fs]), np.column_stack([gains, gains]),
            np.column_stack([dts, dts]), offs)
    for prof in (tiadc.build_profile([meas], cfg), tiadc.constant_profile(meas, cfg)):
        got = (prof.freqs_hz, prof.gain, prof.dt_s, prof.offset_lsb)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [a.shape for a in got] == [a.shape for a in want]


class TestCalibrationRoundTrip:
    def test_recovers_reference_profile(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        n_cal = 8192
        targets = np.linspace(8e6, 7.96e8, 16)
        freqs = [tiadc.coherent_bin(f, cfg4.fs, n_cal)[1] for f in targets]
        _, measured = tiadc.run_calibration(truth, cfg4, freqs, 0.9, n_cal)

        rng = np.random.default_rng(5)
        probes = rng.uniform(freqs[0], freqs[-1], 50)
        for f in probes:
            for m in range(4):
                g_err = abs(measured.gain_at(m, f) - truth.gain_at(m, f))
                dt_err = abs(measured.dt_at(m, f) - truth.dt_at(m, f))
                assert g_err <= 1e-3, (m, f, g_err)
                assert dt_err <= 1e-13, (m, f, dt_err)

    def test_global_scale_invariance(self, cfg4):
        # scaling every channel by one factor must not change the relative
        # profile the calibration reports
        truth = tiadc.make_reference_profile(cfg4)
        scaled = tiadc.MismatchProfile(
            freqs_hz=truth.freqs_hz, gain=truth.gain * 1.003,
            dt_s=truth.dt_s, offset_lsb=truth.offset_lsb)
        n_cal = 4096
        freqs = [tiadc.coherent_bin(f, cfg4.fs, n_cal)[1]
                 for f in (1e8, 3e8, 5e8, 7e8)]
        _, base = tiadc.run_calibration(truth, cfg4, freqs, 0.9, n_cal)
        _, scl = tiadc.run_calibration(scaled, cfg4, freqs, 0.9, n_cal)
        assert np.allclose(base.gain, scl.gain, atol=1e-9)
        assert np.allclose(base.dt_s, scl.dt_s, atol=1e-16)


class TestPlanFiles:
    def test_round_trip(self, tmp_path):
        rows = [(1e8, 0.9, 4096), (2e8, 0.9, 4096)]
        path = tmp_path / "plan.csv"
        tiadc.calibration.write_plan_csv(rows, path)
        assert tiadc.calibration.read_plan_csv(path, 4) == rows

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m_ch=st.integers(1, 16), rows=st.lists(st.tuples(
        POSITIVE, POSITIVE, st.integers(1, 2**20)), min_size=1, max_size=8))
    def test_round_trip_is_exact(self, tmp_path_factory, m_ch, rows):
        # n_samples up to 16 * 2**20, the 2**24-sample record cap
        rows = [(f, a, k * m_ch) for f, a, k in rows]
        path = tmp_path_factory.mktemp("plan") / "plan.csv"
        tiadc.calibration.write_plan_csv(rows, path)

        def bits(rows):
            return [(np.float64(f).tobytes(), np.float64(a).tobytes(), n) for f, a, n in rows]
        assert bits(tiadc.calibration.read_plan_csv(path, m_ch)) == bits(rows)

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "plan.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(tiadc.TiadcError):
            tiadc.calibration.read_plan_csv(path, 4)
