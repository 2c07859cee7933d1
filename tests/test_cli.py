"""Command-line interface and pipeline scenarios."""

import json
import time

import numpy as np
import pytest

import tiadc
from tiadc import calibration, correction, metrics
from tiadc.cli import load_config, load_scenario, main, run_pipeline
from tiadc.pipeline import BUNDLED_SCENARIOS, TRUTH_PROFILES, parse_scenario

CONFIG = {"m_channels": 4, "fs_hz": 1.6e9, "bits": 14, "full_scale_v": 2.0,
          "quantize": False}

TINY_SCENARIO = {
    "name": "tiny", "kind": "sweep",
    "config": {"m_channels": 4, "fs_hz": 1.6e9, "bits": 14, "full_scale_v": 2.0},
    "truth_profile": {"type": "reference"},
    "calibration": {"n_freqs": 4, "f_lo_hz": 5e7, "f_hi_hz": 7.5e8,
                    "amplitude_v": 0.9, "n_samples": 2048},
    "design": {"n_grid": 512, "taps": 33, "window": "kaiser",
               "kaiser_beta": 8.0, "zone": 1},
    "sweep": {"n_tones": 3, "f_lo_hz": 1e8, "f_hi_hz": 6e8, "amplitude_v": 0.9,
              "n_samples": 4096, "n_fft": 2048},
    "thresholds": {"min_image_drop_db": 20.0, "min_enob_gain_bits": 1.0,
                   "min_enob_after_bits": 10.0, "spur_floor_dbfs": -70.0},
}


@pytest.fixture
def workdir(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0,
                            quantize=False)
    prof_path = tmp_path / "truth.csv"
    tiadc.write_profile_csv(tiadc.make_reference_profile(cfg), prof_path)
    ideal_path = tmp_path / "ideal.csv"
    tiadc.write_profile_csv(tiadc.MismatchProfile.ideal(4, cfg.fs), ideal_path)
    return tmp_path, cfg


class TestSimulate:
    def test_writes_capture(self, workdir, capsys):
        tmp, cfg = workdir
        rc = main(["simulate", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "truth.csv"),
                   "--tone", "0.9:200e6", "--n", "8192",
                   "--out", str(tmp / "cap.f64")])
        assert rc == 0
        cap = tiadc.load_capture(tmp / "cap.f64")
        assert cap.n == 8192
        assert "fs = 1.6e+09" in capsys.readouterr().out

    def test_two_tones_present(self, workdir):
        tmp, cfg = workdir
        f1 = tiadc.coherent_bin(1.5e8, cfg.fs, 4096)[1]
        f2 = tiadc.coherent_bin(3.3e8, cfg.fs, 4096)[1]
        rc = main(["simulate", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "ideal.csv"),
                   "--tone", f"0.4:{f1}", "--tone", f"0.3:{f2}",
                   "--n", "4096", "--out", str(tmp / "two.f64")])
        assert rc == 0
        rep = tiadc.spectrum(tiadc.load_capture(tmp / "two.f64"), 4096)
        assert rep.power_dbfs[rep.bin_of(f1)] > -8
        assert rep.power_dbfs[rep.bin_of(f2)] > -11

    def test_bad_length_exits_nonzero(self, workdir, capsys):
        tmp, _ = workdir
        rc = main(["simulate", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "truth.csv"),
                   "--tone", "0.9:2e8", "--n", "8190",
                   "--out", str(tmp / "cap.f64")])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_length_names_option(self, workdir, capsys):
        tmp, _ = workdir
        for n in ("8190", "0"):
            assert main(["simulate", "--config", str(tmp / "config.json"),
                         "--profile", str(tmp / "truth.csv"), "--tone", "0.9:2e8",
                         "--n", n, "--out", str(tmp / "cap.f64")]) == 1
            assert capsys.readouterr().err == (
                f"error: --n must be a positive multiple of m_channels = 4, got {n}\n")
        assert not (tmp / "cap.f64").exists()

    def test_record_length_capped(self, workdir, capsys, monkeypatch):
        # twice the 2^24-sample record cap, refused before anything is simulated
        tmp, _ = workdir
        argv = ["simulate", "--config", str(tmp / "config.json"),
                "--profile", str(tmp / "truth.csv"), "--tone", "0.9:2e8",
                "--out", str(tmp / "cap.f64")]
        assert main([*argv, "--n", str(1 << 25)]) == 1
        assert capsys.readouterr().err == (
            f"error: --n must be at most 16777216, got {1 << 25}\n")
        assert not (tmp / "cap.f64").exists()
        # the cap itself is accepted, one row past it is not
        monkeypatch.setattr(tiadc.model, "MAX_RECORD_SAMPLES", 1024)
        assert main([*argv, "--n", "1028"]) == 1
        assert capsys.readouterr().err == "error: --n must be at most 1024, got 1028\n"
        assert main([*argv, "--n", "1024"]) == 0
        assert tiadc.load_capture(tmp / "cap.f64").n == 1024

    @pytest.mark.parametrize("tone", ["0.9:abc", "0.9", "0.9:2e8:0:1", "x:2e8:0"])
    def test_bad_tone_names_option(self, workdir, capsys, tone):
        tmp, _ = workdir
        assert main(["simulate", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "truth.csv"), "--tone", tone,
                     "--n", "256", "--out", str(tmp / "cap.f64")]) == 1
        assert capsys.readouterr().err == (
            f"error: --tone must be AMPLITUDE:FREQ_HZ[:PHASE_RAD] in numbers, got {tone!r}\n")
        assert not (tmp / "cap.f64").exists()

    def test_non_object_config_rejected(self, workdir, capsys):
        tmp, _ = workdir
        (tmp / "list.json").write_text("[]")
        rc = main(["simulate", "--config", str(tmp / "list.json"),
                   "--profile", str(tmp / "truth.csv"),
                   "--tone", "0.9:2e8", "--n", "8192",
                   "--out", str(tmp / "cap.f64")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp / 'list.json'}: config must be a JSON object\n")


    @pytest.mark.parametrize("field, value, expect", [
        ("m_channels", [4], "m_channels must be an integral number, got [4]"),
        ("m_channels", 4.7, "m_channels must be an integral number, got 4.7"),
        ("bits", True, "bits must be an integral number, got True"),
        ("fs_hz", "1.6e9", "fs_hz must be a finite number, got '1.6e9'"),
        ("full_scale_v", float("inf"), "full_scale_v must be a finite number"),
        ("quantize", "false", "quantize must be true or false, got 'false'"),
    ], ids=["list", "fraction", "bool", "string", "inf", "string-bool"])
    def test_config_field_types(self, workdir, capsys, field, value, expect):
        tmp, _ = workdir
        (tmp / "bad.json").write_text(json.dumps({**CONFIG, field: value}))
        rc = main(["simulate", "--config", str(tmp / "bad.json"),
                   "--profile", str(tmp / "truth.csv"),
                   "--tone", "0.9:2e8", "--n", "256",
                   "--out", str(tmp / "cap.f64")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {tmp / 'bad.json'}: ")
        assert expect in err

    @pytest.mark.parametrize("tone, dc, expect", [
        ("0.5:1e8", "inf", "dc must be finite"),
        ("inf:1e8", "0", "tone amplitudes must be finite and >= 0"),
        ("nan:1e8", "0", "tone amplitudes must be finite and >= 0"),
        ("0.5:1e8:inf", "0", "tone phases must be finite"),
    ], ids=["dc", "inf-amplitude", "nan-amplitude", "phase"])
    def test_non_finite_tone_field_rejected(self, workdir, capsys, tone, dc, expect):
        tmp, _ = workdir
        rc = main(["simulate", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "truth.csv"), "--tone", tone, "--dc", dc,
                   "--n", "256", "--out", str(tmp / "cap.f64")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {expect}\n"
        assert not (tmp / "cap.f64").exists()
        assert not (tmp / "cap.f64.json").exists()

    def test_unknown_config_field_names_file(self, workdir, capsys):
        tmp, _ = workdir
        (tmp / "extra.json").write_text(json.dumps({**CONFIG, "jitter_s": 1e-13}))
        assert main(["simulate", "--config", str(tmp / "extra.json"),
                     "--profile", str(tmp / "truth.csv"), "--tone", "0.9:2e8",
                     "--n", "256", "--out", str(tmp / "cap.f64")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp / 'extra.json'}: unknown field 'jitter_s'\n")
        assert not (tmp / "cap.f64").exists()

    def test_integral_float_config_accepted(self, workdir):
        tmp, _ = workdir
        (tmp / "float.json").write_text(json.dumps({**CONFIG, "m_channels": 4.0}))
        assert main(["simulate", "--config", str(tmp / "float.json"),
                     "--profile", str(tmp / "truth.csv"),
                     "--tone", "0.9:2e8", "--n", "256",
                     "--out", str(tmp / "cap.f64")]) == 0
        assert tiadc.load_capture(tmp / "cap.f64").config.m_channels == 4


class TestCalibrate:
    def plan(self, tmp, cfg, n=6):
        freqs = [tiadc.coherent_bin(f, cfg.fs, 4096)[1]
                 for f in np.linspace(5e7, 7.5e8, n)]
        rows = [(f, 0.9, 4096) for f in freqs]
        path = tmp / "plan.csv"
        tiadc.calibration.write_plan_csv(rows, path)
        return path, freqs

    def test_round_trip_against_truth(self, workdir, capsys):
        tmp, cfg = workdir
        plan_path, freqs = self.plan(tmp, cfg)
        rc = main(["calibrate", "--config", str(tmp / "config.json"),
                   "--plan", str(plan_path),
                   "--truth-profile", str(tmp / "truth.csv"),
                   "--out", str(tmp / "measured.csv")])
        assert rc == 0
        measured = tiadc.read_profile_csv(tmp / "measured.csv")
        truth = tiadc.read_profile_csv(tmp / "truth.csv")
        for f in freqs:
            for m in range(4):
                assert abs(measured.gain_at(m, f) - truth.gain_at(m, f)) <= 1e-3

    def test_one_row_plan_matches_pipeline(self, tmp_path):
        # narrowband_contrast calibrates from one plan row: the subcommand
        # writes the same frequency-independent profile as the pipeline
        raw = load_scenario("narrowband_contrast")
        sc = parse_scenario(raw)
        assert len(sc.cal_plan) == 1
        run_pipeline(raw, tmp_path / "pipe")
        (tmp_path / "config.json").write_text(json.dumps({
            "m_channels": sc.config.m_channels, "fs_hz": sc.config.fs,
            "bits": sc.config.bits, "full_scale_v": sc.config.full_scale}))
        calibration.write_plan_csv(sc.cal_plan, tmp_path / "plan.csv")
        tiadc.write_profile_csv(tiadc.make_reference_profile(sc.config), tmp_path / "truth.csv")
        assert main(["calibrate", "--config", str(tmp_path / "config.json"),
                     "--plan", str(tmp_path / "plan.csv"),
                     "--truth-profile", str(tmp_path / "truth.csv"),
                     "--out", str(tmp_path / "m.csv")]) == 0
        assert ((tmp_path / "m.csv").read_bytes()
                == (tmp_path / "pipe" / "measured_profile.csv").read_bytes())

    @pytest.mark.parametrize("source", ["truth-profile", "captures"])
    def test_one_frequency_library_matches_subcommand(self, workdir, source):
        # run_calibration and the subcommand turn one tone into the same
        # [0, fs] profile, from simulated and from recorded captures alike
        tmp, cfg = workdir
        plan_path, (f,) = self.plan(tmp, cfg, n=1)
        truth = tiadc.read_profile_csv(tmp / "truth.csv")
        _, profile = tiadc.run_calibration(truth, cfg, [f], 0.9, 4096)
        assert profile.freqs_hz.tolist() == [0.0, cfg.fs]
        tiadc.write_profile_csv(profile, tmp / "library.csv")
        args = ["--truth-profile", str(tmp / "truth.csv")]
        if source == "captures":
            tiadc.save_capture(tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg,
                                                      truth, 4096), tmp / "cal_000.f64")
            args = ["--captures", str(tmp)]
        assert main(["calibrate", "--config", str(tmp / "config.json"),
                     "--plan", str(plan_path), *args, "--out", str(tmp / "cli.csv")]) == 0
        assert (tmp / "cli.csv").read_bytes() == (tmp / "library.csv").read_bytes()

    def test_captures_with_truth_profile_rejected(self, workdir, capsys):
        tmp, cfg = workdir
        plan_path, _ = self.plan(tmp, cfg, n=3)
        capsys.readouterr()
        assert main(["calibrate", "--config", str(tmp / "config.json"),
                     "--plan", str(plan_path), "--captures", str(tmp),
                     "--truth-profile", str(tmp / "truth.csv"),
                     "--out", str(tmp / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tiadc calibrate: ") and len(err.splitlines()) == 1
        assert "--captures" in err and "--truth-profile" in err
        assert not (tmp / "m.csv").exists()

    @pytest.mark.parametrize("n_samples", [4094, 0])
    def test_plan_n_samples_names_file_and_line(self, workdir, capsys, n_samples):
        tmp, cfg = workdir
        plan_path, freqs = self.plan(tmp, cfg, n=3)
        rows = [(f, 0.9, 4096) for f in freqs]
        rows[1] = (freqs[1], 0.9, n_samples)
        tiadc.calibration.write_plan_csv(rows, plan_path)
        assert main(["calibrate", "--config", str(tmp / "config.json"),
                     "--plan", str(plan_path), "--truth-profile", str(tmp / "truth.csv"),
                     "--out", str(tmp / "m.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {plan_path}:3: n_samples must be a positive multiple of "
            f"m_channels = 4, got {n_samples}\n")
        assert not (tmp / "m.csv").exists()

    def test_plan_record_length_capped(self, workdir, capsys):
        tmp, cfg = workdir
        plan_path, freqs = self.plan(tmp, cfg, n=3)
        rows = [(f, 0.9, 4096) for f in freqs]
        rows[1] = (freqs[1], 0.9, 2 ** 40)
        tiadc.calibration.write_plan_csv(rows, plan_path)
        start = time.perf_counter()
        assert main(["calibrate", "--config", str(tmp / "config.json"),
                     "--plan", str(plan_path), "--truth-profile", str(tmp / "truth.csv"),
                     "--out", str(tmp / "m.csv")]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: {plan_path}:3: n_samples must be at most 16777216, got {2 ** 40}\n")
        assert not (tmp / "m.csv").exists()

    @pytest.mark.parametrize("freq, amplitude, expect", [
        (np.nan, 0.9, "freq_hz must be finite and > 0, got nan"),
        (np.inf, 0.9, "freq_hz must be finite and > 0, got inf"),
        (None, -0.5, "amplitude_v must be finite and > 0, got -0.5"),
        (None, np.nan, "amplitude_v must be finite and > 0, got nan"),
    ], ids=["nan-freq", "inf-freq", "negative-amplitude", "nan-amplitude"])
    def test_plan_tone_names_file_and_line(self, workdir, capsys, freq, amplitude, expect):
        tmp, cfg = workdir
        plan_path, freqs = self.plan(tmp, cfg, n=3)
        rows = [(f, 0.9, 4096) for f in freqs]
        rows[2] = (freqs[2] if freq is None else freq, amplitude, 4096)
        tiadc.calibration.write_plan_csv(rows, plan_path)
        assert main(["calibrate", "--config", str(tmp / "config.json"),
                     "--plan", str(plan_path), "--truth-profile", str(tmp / "truth.csv"),
                     "--out", str(tmp / "m.csv")]) == 1
        assert capsys.readouterr().err == f"error: {plan_path}:4: {expect}\n"
        assert not (tmp / "m.csv").exists()

    def test_ingest_missing_capture_named(self, workdir, capsys):
        tmp, cfg = workdir
        plan_path, _ = self.plan(tmp, cfg, n=3)
        (tmp / "caps").mkdir()
        rc = main(["calibrate", "--config", str(tmp / "config.json"),
                   "--plan", str(plan_path), "--captures", str(tmp / "caps"),
                   "--out", str(tmp / "m.csv")])
        assert rc != 0
        assert "cal_000.f64" in capsys.readouterr().err

    def record_captures(self, tmp, plan_path, config_path, n=None):
        """cal_NNN.f64 for each plan row, simulated from truth.csv by `simulate`."""
        (tmp / "caps").mkdir(exist_ok=True)
        m_ch = load_config(config_path).m_channels
        for i, (f, amp, n_samples) in enumerate(calibration.read_plan_csv(plan_path, m_ch)):
            assert main(["simulate", "--config", str(config_path),
                         "--profile", str(tmp / "truth.csv"), "--tone", f"{amp}:{f}",
                         "--n", str(n or n_samples),
                         "--out", str(tmp / "caps" / f"cal_{i:03d}.f64")]) == 0

    def test_ingest_matches_truth_profile_run(self, workdir, capsys):
        # the recorded captures are the ones --truth-profile simulates
        tmp, cfg = workdir
        plan_path, _ = self.plan(tmp, cfg, n=3)
        self.record_captures(tmp, plan_path, tmp / "config.json")
        for source, out in ((["--captures", str(tmp / "caps")], "ingested.csv"),
                            (["--truth-profile", str(tmp / "truth.csv")], "simulated.csv")):
            assert main(["calibrate", "--config", str(tmp / "config.json"),
                         "--plan", str(plan_path), *source, "--out", str(tmp / out)]) == 0
        assert (tmp / "ingested.csv").read_bytes() == (tmp / "simulated.csv").read_bytes()

    def test_empty_captures_is_working_directory(self, workdir, monkeypatch):
        tmp, cfg = workdir
        plan_path, _ = self.plan(tmp, cfg, n=3)
        self.record_captures(tmp, plan_path, tmp / "config.json")
        monkeypatch.chdir(tmp / "caps")
        for captures, out in ((str(tmp / "caps"), "named.csv"), ("", "cwd.csv")):
            assert main(["calibrate", "--config", str(tmp / "config.json"),
                         "--plan", str(plan_path), "--captures", captures,
                         "--out", str(tmp / out)]) == 0
        assert (tmp / "named.csv").read_bytes() == (tmp / "cwd.csv").read_bytes()

    @pytest.mark.parametrize("edit, n, expect", [
        ({"m_channels": 8}, None, "m_channels = 4, but {config} has m_channels = 8"),
        ({"bits": 12, "full_scale_v": 1.0}, None, "bits = 14, but {config} has bits = 12"),
        ({"full_scale_v": 1.0}, None, "full_scale = 2.0, but {config} has full_scale = 1.0"),
        ({}, 2048, "n = 2048, but the plan row asks for n_samples = 4096"),
    ], ids=["channels", "bits", "full-scale", "length"])
    def test_ingest_checks_each_sidecar(self, workdir, capsys, edit, n, expect):
        tmp, cfg = workdir
        plan_path, _ = self.plan(tmp, cfg, n=3)
        self.record_captures(tmp, plan_path, tmp / "config.json", n)
        config = tmp / "other.json"
        config.write_text(json.dumps({**CONFIG, **edit}))
        capsys.readouterr()
        assert main(["calibrate", "--config", str(config), "--plan", str(plan_path),
                     "--captures", str(tmp / "caps"), "--out", str(tmp / "m.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp / 'caps' / 'cal_000.f64.json'}: "
            + expect.format(config=config) + "\n")
        assert not (tmp / "m.csv").exists()


    def test_ingest_refuses_corrected_capture(self, workdir, capsys):
        # a capture put through `correct` flags the bank's 65 transient
        # samples at each end, whose zeros would skew the fit
        tmp, cfg = workdir
        plan_path, _ = self.plan(tmp, cfg, n=3)
        self.record_captures(tmp, plan_path, tmp / "config.json")
        capture = tmp / "caps" / "cal_001.f64"
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "truth.csv"), "--out", str(tmp / "bank.csv")]) == 0
        assert main(["correct", "--capture", str(capture), "--bank", str(tmp / "bank.csv"),
                     "--out", str(capture)]) == 0
        capsys.readouterr()
        assert main(["calibrate", "--config", str(tmp / "config.json"), "--plan", str(plan_path),
                     "--captures", str(tmp / "caps"), "--out", str(tmp / "m.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {capture}.json: transient_samples = 65, "
            "but a calibration capture must have none\n")
        assert not (tmp / "m.csv").exists()

class TestDesign:
    def test_ideal_bank_is_impulses(self, workdir, capsys):
        tmp, _ = workdir
        rc = main(["design", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "ideal.csv"), "--window", "none",
                   "--out", str(tmp / "bank.csv"),
                   "--residual-out", str(tmp / "resid.csv")])
        assert rc == 0
        bank = tiadc.read_bank_csv(tmp / "bank.csv")
        for m in range(4):
            assert bank.taps[m, 32] == pytest.approx(1.0, abs=1e-9)
        assert (tmp / "resid.csv").exists()
        assert "max alias residual" in capsys.readouterr().out

    def test_even_taps_rejected(self, workdir, capsys):
        tmp, _ = workdir
        rc = main(["design", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "ideal.csv"), "--taps", "64",
                   "--out", str(tmp / "bank.csv")])
        assert rc != 0
        assert "odd" in capsys.readouterr().err

    @pytest.mark.parametrize("m_ch, n_grid", [(4, 1 << 24), (16, 1 << 20), (3, 1 << 24)])
    def test_design_size_capped(self, tmp_path, capsys, m_ch, n_grid):
        # an (n_grid/2)*M^2 alias stack past 2^26 entries is refused before it is
        # built; one grid step less is the largest design the cap allows
        stack = n_grid // 2 * m_ch ** 2
        cfg = tiadc.TiadcConfig(m_channels=m_ch, fs=1.6e9, bits=14, full_scale=2.0)
        (tmp_path / "config.json").write_text(json.dumps({**CONFIG, "m_channels": m_ch}))
        tiadc.write_profile_csv(tiadc.MismatchProfile.ideal(m_ch, cfg.fs), tmp_path / "p.csv")
        assert main(["design", "--config", str(tmp_path / "config.json"),
                     "--profile", str(tmp_path / "p.csv"), "--n-grid", str(n_grid),
                     "--out", str(tmp_path / "bank.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: n_grid = {n_grid} at m_channels = {m_ch} needs an alias stack of "
            f"{stack} entries, more than 67108864\n")
        assert not (tmp_path / "bank.csv").exists()
        # at M = 4 and 16 that stack is exactly 2^26 entries
        tiadc.design.check_tap_window(tiadc.DesignSpec(n_grid=n_grid // 2), m_ch)

    def test_design_size_capped_in_scenario(self, tmp_path, capsys):
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen["design"]["n_grid"] = 1 << 24
        (tmp_path / "big.json").write_text(json.dumps(scen))
        out = tmp_path / "out"
        assert main(["pipeline", "--scenario", str(tmp_path / "big.json"),
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: scenario tiny: design: n_grid = {1 << 24} at m_channels = 4 needs "
            f"an alias stack of {1 << 27} entries, more than 67108864\n")
        assert not out.exists()

    def test_zone2_with_zone1_profile_warns(self, workdir, capsys):
        tmp, cfg = workdir
        prof = tiadc.MismatchProfile.ideal(4, cfg.fs / 2)  # first zone only
        tiadc.write_profile_csv(prof, tmp / "z1.csv")
        rc = main(["design", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "z1.csv"), "--zone", "2",
                   "--out", str(tmp / "bank2.csv")])
        assert rc == 0
        # the shared design stage reports it on stdout, as the pipeline logs it
        assert "clamped" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario", BUNDLED_SCENARIOS + ("readme",))
    def test_calibrated_profile_covers_its_zone(self, tmp_path, capsys, scenario):
        # a profile calibrated from a bundled scenario's plan, or the README's,
        # ends within one row spacing of each band edge: the design is silent
        if scenario == "readme":
            raw_config = {**CONFIG, "quantize": True}
            config = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0)
            plan = [(tiadc.coherent_bin(f, config.fs, 8192)[1], 0.9, 8192)
                    for f in np.linspace(8e6, 796e6, 16)]
            truth, zone = tiadc.make_reference_profile(config), 1
        else:
            raw = load_scenario(scenario)
            sc = parse_scenario(raw)
            raw_config, plan, zone = raw["config"], sc.cal_plan, sc.spec.zone
            truth = TRUTH_PROFILES[sc.truth["type"]][1](sc.truth, sc.config)
        (tmp_path / "config.json").write_text(json.dumps(raw_config))
        tiadc.write_profile_csv(truth, tmp_path / "truth.csv")
        calibration.write_plan_csv(plan, tmp_path / "plan.csv")
        assert main(["calibrate", "--config", str(tmp_path / "config.json"),
                     "--plan", str(tmp_path / "plan.csv"),
                     "--truth-profile", str(tmp_path / "truth.csv"),
                     "--out", str(tmp_path / "measured.csv")]) == 0
        assert main(["design", "--config", str(tmp_path / "config.json"),
                     "--profile", str(tmp_path / "measured.csv"), "--n-grid", "256",
                     "--taps", "33", "--zone", str(zone),
                     "--out", str(tmp_path / "bank.csv")]) == 0
        out, err = capsys.readouterr()
        assert "warning" not in out and err == ""

    @pytest.mark.parametrize("calibrated, zone, expect", [
        # below fs/8 only: 601 MHz short of zone 1's upper edge, rows 50 MHz apart
        ((5e7, 2e8), 1, "[4.92188e+07, 1.99219e+08] Hz but zone 1 needs [0, 8e+08] Hz"),
        # zone 1 only, for a zone-2 design
        ((5e7, 7.5e8), 2, "[4.92188e+07, 7.49219e+08] Hz but zone 2 needs [8e+08, 1.6e+09] Hz"),
    ], ids=["below-fs/8", "zone1-for-zone2"])
    def test_short_profile_warns_in_design_and_pipeline(self, tmp_path, capsys, calibrated,
                                                        zone, expect):
        warning = f"warning: profile table covers {expect}; clamped end values will be used"
        f_lo, f_hi = calibrated
        scen = {**TINY_SCENARIO,
                "calibration": {**TINY_SCENARIO["calibration"], "f_lo_hz": f_lo, "f_hi_hz": f_hi},
                "design": {**TINY_SCENARIO["design"], "zone": zone}}
        result = run_pipeline(scen, tmp_path / "pipe")
        assert [ln for ln in result.log if ln.startswith("warning")] == [warning]
        (tmp_path / "config.json").write_text(json.dumps(CONFIG))
        assert main(["design", "--config", str(tmp_path / "config.json"),
                     "--profile", str(tmp_path / "pipe" / "measured_profile.csv"),
                     "--n-grid", "256", "--taps", "33", "--zone", str(zone),
                     "--out", str(tmp_path / "bank.csv")]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == warning and err == ""


    @pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
    def test_kaiser_beta_checked_by_design_spec(self, workdir, capsys, beta):
        tmp, _ = workdir
        rc = main(["design", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "ideal.csv"), "--kaiser-beta", beta,
                   "--out", str(tmp / "bank.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: kaiser_beta must be finite and >= 0, got {float(beta)!r}\n")
        assert not (tmp / "bank.csv").exists()

    def test_zone_checked_by_design_spec(self, workdir, capsys):
        # DesignSpec, not argparse, limits the zone: exit 1 with one error line
        tmp, _ = workdir
        rc = main(["design", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "ideal.csv"), "--zone", "3",
                   "--out", str(tmp / "bank.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: zone must be 1 or 2\n"
        assert not (tmp / "bank.csv").exists()

    def test_defaults_are_design_spec_defaults(self, workdir):
        # `tiadc design` without design options and a scenario without design
        # fields, or with a null delay_d, both design with DesignSpec()
        tmp, _ = workdir
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "ideal.csv"), "--out", str(tmp / "bank.csv")]) == 0
        assert tiadc.read_bank_csv(tmp / "bank.csv").spec == tiadc.DesignSpec()
        for block in ({}, {"delay_d": None}):
            assert parse_scenario({**TINY_SCENARIO, "design": block}).spec == tiadc.DesignSpec()
        with pytest.raises(tiadc.TiadcError,
                           match="design: taps must be an integral number, got None"):
            parse_scenario({**TINY_SCENARIO, "design": {"taps": None}})


class TestCorrectAnalyze:
    def test_end_to_end_files(self, workdir, capsys):
        tmp, cfg = workdir
        f = tiadc.coherent_bin(3e8, cfg.fs, 4096)[1]
        assert main(["simulate", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "truth.csv"),
                     "--tone", f"0.9:{f}", "--n", "8192",
                     "--out", str(tmp / "cap.f64")]) == 0
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "truth.csv"),
                     "--out", str(tmp / "bank.csv")]) == 0
        assert main(["correct", "--capture", str(tmp / "cap.f64"),
                     "--bank", str(tmp / "bank.csv"),
                     "--profile", str(tmp / "truth.csv"),
                     "--out", str(tmp / "fixed.f64")]) == 0
        capsys.readouterr()
        assert main(["analyze", "--capture", str(tmp / "fixed.f64"),
                     "--n-fft", "4096", "--f-fund", str(f),
                     "--out-prefix", str(tmp / "fixed")]) == 0
        out = capsys.readouterr().out
        assert "enob_bits:" in out and "sfdr_db:" in out
        assert (tmp / "fixed_spectrum.csv").exists()
        assert (tmp / "fixed_spurs.csv").exists()

    def test_mismatched_bank_rejected(self, workdir, capsys):
        tmp, cfg = workdir
        cfg2 = tiadc.TiadcConfig(m_channels=2, fs=1.6e9, bits=14,
                                 full_scale=2.0, quantize=False)
        cap = tiadc.simulate_capture(
            tiadc.ToneSpec.single(0.5, 2e8), cfg2,
            tiadc.MismatchProfile.ideal(2, cfg2.fs), 512)
        tiadc.save_capture(cap, tmp / "cap2.f64")
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "ideal.csv"),
                     "--out", str(tmp / "bank4.csv")]) == 0
        rc = main(["correct", "--capture", str(tmp / "cap2.f64"),
                   "--bank", str(tmp / "bank4.csv"),
                   "--out", str(tmp / "x.f64")])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("offsets", [True, False], ids=["offsets", "no-offsets"])
    def test_streamed_output_matches_in_memory(self, workdir, monkeypatch, offsets):
        # DEFAULT_BLOCK below one run: spans of one run, here the whole record
        tmp, cfg = workdir
        monkeypatch.setattr(correction, "DEFAULT_BLOCK", 100)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3e8), cfg,
                                     tiadc.make_reference_profile(cfg), 8192)
        tiadc.save_capture(cap, tmp / "cap.f64")
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "truth.csv"),
                     "--out", str(tmp / "bank.csv")]) == 0
        argv = ["correct", "--capture", str(tmp / "cap.f64"),
                "--bank", str(tmp / "bank.csv"), "--out", str(tmp / "fixed.f64")]
        profile = tiadc.read_profile_csv(tmp / "truth.csv")
        if offsets:
            argv += ["--profile", str(tmp / "truth.csv")]
            cap = tiadc.correct_offsets(cap, profile)
        assert main(argv) == 0
        want = tiadc.correct(cap, tiadc.read_bank_csv(tmp / "bank.csv"))
        assert (tmp / "fixed.f64").read_bytes() == want.samples.astype("<f8").tobytes()
        got = tiadc.load_capture(tmp / "fixed.f64")
        assert (got.corrected, got.bank_id, got.transient_samples) == (
            True, want.bank_id, want.transient_samples)

    @pytest.mark.parametrize("block", ["default", 1])
    @pytest.mark.parametrize("offsets", [True, False], ids=["offsets", "no-offsets"])
    @pytest.mark.parametrize("bank_args", [[], ["--taps", "33", "--delay", "40"]],
                             ids=["default-bank", "tap-offset-24"])
    def test_multi_run_output_matches_in_memory(self, workdir, monkeypatch, bank_args,
                                                offsets, block):
        # 2^17 samples are 15 runs of the default bank and 29 of the 33-tap
        # one, read in spans of several runs or, with DEFAULT_BLOCK at 1, of one
        tmp, cfg = workdir
        if block != "default":
            monkeypatch.setattr(correction, "DEFAULT_BLOCK", block)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3e8), cfg,
                                     tiadc.make_reference_profile(cfg), 1 << 17)
        tiadc.save_capture(cap, tmp / "cap.f64")
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "truth.csv"), *bank_args,
                     "--out", str(tmp / "bank.csv")]) == 0
        bank = tiadc.read_bank_csv(tmp / "bank.csv")
        assert correction.PolyphaseStream(bank, cfg, cap.n).runs >= 3
        argv = ["correct", "--capture", str(tmp / "cap.f64"),
                "--bank", str(tmp / "bank.csv"), "--out", str(tmp / "fixed.f64")]
        if offsets:
            argv += ["--profile", str(tmp / "truth.csv")]
            cap = tiadc.correct_offsets(cap, tiadc.read_profile_csv(tmp / "truth.csv"))
        assert main(argv) == 0
        want = tiadc.correct(cap, bank).samples
        assert (tmp / "fixed.f64").read_bytes() == want.astype("<f8").tobytes()

    def correct_with_bank(self, tmp, cfg, bank_path):
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3e8), cfg,
                                     tiadc.make_reference_profile(cfg), 4096)
        tiadc.save_capture(cap, tmp / "cap.f64")
        return main(["correct", "--capture", str(tmp / "cap.f64"),
                     "--bank", str(bank_path), "--out", str(tmp / "fixed.f64")])

    def test_bank_delay_below_half_taps_rejected(self, workdir, capsys):
        # delay_d 10 with 33 taps: the taps would start 6 samples before
        # the output sample they make
        tmp, cfg = workdir
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "truth.csv"), "--taps", "33",
                     "--out", str(tmp / "bank.csv")]) == 0
        lines = []
        for line in (tmp / "bank.csv").read_text().splitlines():
            if line == "# delay_d,16":
                line = "# delay_d,10"
            elif line[0].isdigit():
                ch, idx, coef = line.split(",")
                line = f"{ch},{int(idx) - 6},{coef}"
            lines.append(line)
        (tmp / "low.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.correct_with_bank(tmp, cfg, tmp / "low.csv") == 1
        assert capsys.readouterr().err == (
            f"error: {tmp / 'low.csv'}: delay_d = 10 is below (taps - 1)/2 = 16\n")

    def test_bank_for_other_sample_rate_rejected(self, workdir, capsys):
        tmp, cfg = workdir
        (tmp / "slow.json").write_text(json.dumps({**CONFIG, "fs_hz": 1e9}))
        assert main(["design", "--config", str(tmp / "slow.json"),
                     "--profile", str(tmp / "ideal.csv"), "--taps", "33",
                     "--out", str(tmp / "bank.csv")]) == 0
        capsys.readouterr()
        assert self.correct_with_bank(tmp, cfg, tmp / "bank.csv") == 1
        assert capsys.readouterr().err == (
            "error: bank is for fs = 1e+09 Hz, capture has fs = 1.6e+09 Hz\n")
        assert not (tmp / "fixed.f64").exists()

    @pytest.mark.parametrize("n", [100, 128, 132])
    def test_all_transient_record_refused(self, workdir, capsys, n):
        # the default 65-tap bank flags 65 samples at each end: 132 samples
        # keep two between them and load back, 128 and 100 keep none
        tmp, cfg = workdir
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "ideal.csv"),
                     "--out", str(tmp / "bank.csv")]) == 0
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3e8), cfg,
                                     tiadc.make_reference_profile(cfg), n)
        tiadc.save_capture(cap, tmp / "cap.f64")
        capsys.readouterr()
        rc = main(["correct", "--capture", str(tmp / "cap.f64"),
                   "--bank", str(tmp / "bank.csv"), "--out", str(tmp / "fixed.f64")])
        if n > 130:
            assert rc == 0
            assert tiadc.load_capture(tmp / "fixed.f64").transient_samples == 65
            return
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: capture of n = {n} samples is too short to correct: the bank flags "
            f"65 transient samples at each end\n")
        assert not (tmp / "fixed.f64").exists()
        assert not (tmp / "fixed.f64.part").exists()

    def test_non_finite_block_leaves_no_output(self, workdir, monkeypatch, capsys):
        tmp, cfg = workdir
        monkeypatch.setattr(correction, "DEFAULT_BLOCK", 256)
        x = np.zeros(4096)
        x[3000] = np.nan
        (tmp / "cap.f64").write_bytes(x.astype("<f8").tobytes())
        tiadc.model.write_sidecar(tmp / "cap.f64", x.size, cfg)
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "ideal.csv"),
                     "--out", str(tmp / "bank.csv")]) == 0
        capsys.readouterr()
        assert main(["correct", "--capture", str(tmp / "cap.f64"),
                     "--bank", str(tmp / "bank.csv"),
                     "--out", str(tmp / "fixed.f64")]) == 1
        assert capsys.readouterr().err == "error: samples contain non-finite values\n"
        assert not (tmp / "fixed.f64").exists()
        assert not (tmp / "fixed.f64.part").exists()
        assert not (tmp / "fixed.f64.json").exists()

    def test_profile_channel_mismatch_leaves_no_output(self, workdir, capsys):
        tmp, cfg = workdir
        tiadc.write_profile_csv(tiadc.MismatchProfile.ideal(8, cfg.fs), tmp / "ideal8.csv")
        assert main(["design", "--config", str(tmp / "config.json"),
                     "--profile", str(tmp / "ideal.csv"),
                     "--out", str(tmp / "bank.csv")]) == 0
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3e8), cfg,
                                     tiadc.make_reference_profile(cfg), 4096)
        tiadc.save_capture(cap, tmp / "cap.f64")
        capsys.readouterr()
        assert main(["correct", "--capture", str(tmp / "cap.f64"),
                     "--bank", str(tmp / "bank.csv"), "--profile", str(tmp / "ideal8.csv"),
                     "--out", str(tmp / "fixed.f64")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp / 'ideal8.csv'}: profile has 8 channels, "
            f"but the capture {tmp / 'cap.f64'} has m_channels = 4\n")
        assert not (tmp / "fixed.f64").exists()
        assert not (tmp / "fixed.f64.part").exists()
        assert not (tmp / "fixed.f64.json").exists()

    @pytest.mark.parametrize("flag, value, expect", [
        ("--harmonics", "-3", "harmonics must be >= 0, got -3"),
        ("--f-fund", "nan", "fundamental frequency must be finite, got nan"),
    ], ids=["negative-harmonics", "nan-fundamental"])
    def test_analyze_bad_metric_argument(self, workdir, capsys, flag, value, expect):
        tmp, cfg = workdir
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3e8), cfg,
                                     tiadc.make_reference_profile(cfg), 4096)
        tiadc.save_capture(cap, tmp / "cap.f64")
        assert main(["analyze", "--capture", str(tmp / "cap.f64"), "--n-fft", "4096",
                     flag, value, "--out-prefix", str(tmp / "a")]) == 1
        assert capsys.readouterr().err == f"error: {expect}\n"
        assert not (tmp / "a_spectrum.csv").exists()

    def test_analyze_harmonics_bounded(self, workdir, capsys):
        # orders above n_fft/2 fold onto bins already listed; a huge count
        # fails at once instead of listing its harmonics one by one
        tmp, cfg = workdir
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3e8), cfg,
                                     tiadc.make_reference_profile(cfg), 4096)
        tiadc.save_capture(cap, tmp / "cap.f64")
        argv = ["analyze", "--capture", str(tmp / "cap.f64"), "--n-fft", "4096",
                "--out-prefix", str(tmp / "a"), "--harmonics"]
        start = time.perf_counter()
        assert main(argv + [str(10 ** 18)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: harmonics must be at most 2048 for n_fft = 4096, got {10 ** 18}\n")
        assert not (tmp / "a_spectrum.csv").exists()
        assert main(argv + ["2048"]) == 0


@pytest.mark.parametrize("argv, expect", [
    (["calibrate", "--config", "c.json", "--plan", "p.csv", "--truth-profile", "t.csv"],
     "error: tiadc calibrate: the following arguments are required: --out"),
    (["simulate", "--config", "c.json", "--profile", "p.csv", "--tone", "0.9:2e8",
      "--n", "many", "--out", "o.f64"],
     "error: tiadc simulate: argument --n: invalid int value: 'many'"),
    (["analyze", "--capture", "c.f64", "--out-prefix", "p", "--zz"],
     "error: tiadc analyze: unrecognized arguments: --zz"),
], ids=["missing-argument", "invalid-int", "leftover-argument"])
def test_usage_error_one_line(capsys, argv, expect):
    # argparse's own errors take main's error path: exit 1, one line, no
    # usage text and no SystemExit
    assert main(argv) == 1
    assert capsys.readouterr().err == expect + "\n"


@pytest.mark.parametrize("command", ["simulate", "design", "calibrate", "correct",
                                     "pipeline"])
def test_profile_channel_count_names_file(workdir, capsys, command):
    # an 8-channel profile given with a 4-channel config or capture
    tmp, cfg = workdir
    prof8 = tmp / "ideal8.csv"
    tiadc.write_profile_csv(tiadc.MismatchProfile.ideal(8, cfg.fs), prof8)
    config = str(tmp / "config.json")
    owner = config
    if command == "simulate":
        argv = ["--config", config, "--profile", str(prof8), "--tone", "0.9:2e8",
                "--n", "256", "--out", str(tmp / "out.f64")]
    elif command == "design":
        argv = ["--config", config, "--profile", str(prof8), "--out", str(tmp / "out.csv")]
    elif command == "calibrate":
        freqs = [tiadc.coherent_bin(f, cfg.fs, 4096)[1] for f in (2e8, 5e8)]
        tiadc.calibration.write_plan_csv([(f, 0.9, 4096) for f in freqs], tmp / "plan.csv")
        argv = ["--config", config, "--plan", str(tmp / "plan.csv"),
                "--truth-profile", str(prof8), "--out", str(tmp / "out.csv")]
    elif command == "correct":
        assert main(["design", "--config", config, "--profile", str(tmp / "ideal.csv"),
                     "--out", str(tmp / "bank.csv")]) == 0
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3e8), cfg,
                                     tiadc.MismatchProfile.ideal(4, cfg.fs), 4096)
        tiadc.save_capture(cap, tmp / "cap.f64")
        owner = f"the capture {tmp / 'cap.f64'}"
        argv = ["--capture", str(tmp / "cap.f64"), "--bank", str(tmp / "bank.csv"),
                "--profile", str(prof8), "--out", str(tmp / "out.f64")]
    else:
        scen = {**TINY_SCENARIO, "truth_profile": {"type": "csv", "path": str(prof8)}}
        (tmp / "scen.json").write_text(json.dumps(scen))
        owner = "the scenario config"
        argv = ["--scenario", str(tmp / "scen.json"), "--out-dir", str(tmp / "out")]
    capsys.readouterr()
    assert main([command, *argv]) == 1
    prefix = "stage truth-profile: " if command == "pipeline" else ""
    assert capsys.readouterr().err == (
        f"error: {prefix}{prof8}: profile has 8 channels, but {owner} has m_channels = 4\n")
    assert not any(p.name.startswith("out") and p.is_file() for p in tmp.iterdir())


@pytest.mark.parametrize("command", ["simulate", "calibrate", "design"])
@pytest.mark.parametrize("value, expect", [
    (1, "m_channels must be >= 2"),
    ("4", "m_channels must be an integral number, got '4'"),
], ids=["one-channel", "string"])
def test_config_error_names_file(workdir, capsys, command, value, expect):
    tmp, cfg = workdir
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({**CONFIG, "m_channels": value}))
    freqs = [tiadc.coherent_bin(f, cfg.fs, 4096)[1] for f in (2e8, 5e8)]
    tiadc.calibration.write_plan_csv([(f, 0.9, 4096) for f in freqs], tmp / "plan.csv")
    argv = {"simulate": ["--profile", str(tmp / "truth.csv"), "--tone", "0.9:2e8",
                         "--n", "256", "--out", str(tmp / "out.f64")],
            "calibrate": ["--plan", str(tmp / "plan.csv"),
                          "--truth-profile", str(tmp / "truth.csv"), "--out", str(tmp / "out.csv")],
            "design": ["--profile", str(tmp / "truth.csv"), "--out", str(tmp / "out.csv")]}[command]
    assert main([command, "--config", str(bad), *argv]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {expect}\n"
    assert not any(p.name.startswith("out") for p in tmp.iterdir())


# a value of each JSON kind that is not of that kind, and the kind's name in errors
WRONG_KIND = {"int": (4.5, "an integral number"), "real": ("1", "a finite number"),
              "bool": (1, "true or false"), "str": (7, "a string")}


@pytest.mark.parametrize("what, key", [
    *(("config", key) for key in tiadc.model.CONFIG_FIELDS),
    *(("sidecar", key) for key in tiadc.model.SIDECAR_FIELDS)])
def test_wrong_field_kind_names_file(workdir, capsys, what, key):
    tmp, cfg = workdir
    kinds = tiadc.model.CONFIG_FIELDS if what == "config" else tiadc.model.SIDECAR_FIELDS
    kind = kinds[key][0] if isinstance(kinds[key], tuple) else kinds[key]
    value, text = WRONG_KIND[kind]
    if what == "config":
        path = tmp / "bad.json"
        path.write_text(json.dumps({**CONFIG, key: value}))
        argv = ["simulate", "--config", str(path), "--profile", str(tmp / "truth.csv"),
                "--tone", "0.9:2e8", "--n", "256", "--out", str(tmp / "out.f64")]
    else:
        capture, path = tmp / "cap.f64", tmp / "cap.f64.json"
        capture.write_bytes(bytes(8 * 256))
        tiadc.model.write_sidecar(capture, 256, cfg, transient_samples=65, corrected=True,
                                  bank_id="abc")
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        argv = ["analyze", "--capture", str(capture), "--n-fft", "256",
                "--out-prefix", str(tmp / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: {key} must be {text}, got {value!r}\n"
    assert not any(p.name.startswith("out") for p in tmp.iterdir())


@pytest.mark.parametrize("case", ["profile-channels", "profile-grid", "profile-not-utf8",
                                  "bank-taps", "scenario-truth-type"])
def test_reader_check_names_input(workdir, capsys, case):
    # one error line naming the file or the scenario block, for checks a
    # reader makes after its fields parse
    tmp, cfg = workdir
    bad = tmp / "bad.csv"
    argv = ["design", "--config", str(tmp / "config.json"), "--profile", str(bad),
            "--out", str(tmp / "out.csv")]
    header = tiadc.model.PROFILE_CSV_HEADER
    if case == "profile-channels":
        bad.write_text(f"{header}\n0,0,1,0,0\n2,0,1,0,0\n")
        expect = f"{bad}: missing channels"
    elif case == "profile-grid":
        bad.write_text(f"{header}\n0,0,1,0,0\n0,1e9,1,0,0\n1,0,1,0,0\n1,2e9,1,0,0\n")
        expect = f"{bad}: channels do not share one frequency grid"
    elif case == "profile-not-utf8":
        bad.write_bytes(b"\xff" + header.encode())
        expect = f"{bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    elif case == "bank-taps":
        assert main(["design", "--config", str(tmp / "config.json"), "--profile",
                     str(tmp / "ideal.csv"), "--n-grid", "64", "--taps", "9",
                     "--out", str(tmp / "bank.csv")]) == 0
        bad.write_text("\n".join((tmp / "bank.csv").read_text().splitlines()[:-1]) + "\n")
        tiadc.save_capture(tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 3e8), cfg,
                                                  tiadc.make_reference_profile(cfg), 256),
                           tmp / "cap.f64")
        argv = ["correct", "--capture", str(tmp / "cap.f64"), "--bank", str(bad),
                "--out", str(tmp / "out.f64")]
        expect = f"{bad}: bank must list each of its 4 x 9 taps once"
    else:
        scenario = tmp / "bad.json"
        scenario.write_text(json.dumps({**TINY_SCENARIO, "truth_profile": {"type": "x"}}))
        argv = ["pipeline", "--scenario", str(scenario), "--out-dir", str(tmp / "out")]
        expect = "scenario tiny: truth_profile: unknown type 'x'"
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {expect}\n"
    assert not any(p.name.startswith("out") for p in tmp.iterdir())


DROP = object()


class TestCaptureSidecar:
    """analyze on a corrected capture whose sidecar was edited afterwards."""

    def analyze(self, tmp, edits, n=8192):
        cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0)
        _, f = tiadc.coherent_bin(3e8, cfg.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg,
                                     tiadc.MismatchProfile.ideal(4, cfg.fs), 8192)
        # raw bytes: n need not be whole rows of M, which a Capture would be
        path = tmp / "cap.f64"
        path.write_bytes(cap.samples[:n].astype("<f8").tobytes())
        tiadc.model.write_sidecar(path, n, cfg, transient_samples=65, corrected=True,
                                  bank_id="abc")
        sidecar = tmp / "cap.f64.json"
        meta = json.loads(sidecar.read_text())
        for key, value in edits.items():
            if value is DROP:
                del meta[key]
            else:
                meta[key] = value
        sidecar.write_text(json.dumps(meta))
        return main(["analyze", "--capture", str(path), "--n-fft", "4096",
                     "--out-prefix", str(tmp / "a")])

    @pytest.mark.parametrize("edits, n, expect", [
        ({"n": 8190}, 8190, "n = 8190 is not a positive multiple of m_channels = 4"),
        ({"transient_samples": "3"}, 8192,
         "transient_samples must be an integral number, got '3'"),
        ({"transient_samples": -5}, 8192, "transient_samples = -5 is not in [0, n/2)"),
        ({"transient_samples": 4096}, 8192, "transient_samples = 4096"),
        ({"m_channels": [4]}, 8192, "m_channels must be an integral number, got [4]"),
        ({"m_channels": 1}, 8192, "m_channels must be >= 2"),
        ({"bits": True}, 8192, "bits must be an integral number, got True"),
        ({"n": 8192.5}, 8192, "n must be an integral number"),
        ({"fs_hz": "1.6e9"}, 8192, "fs_hz must be a finite number"),
        ({"quantize": 1}, 8192, "quantize must be true or false"),
        ({"corrected": "yes"}, 8192, "corrected must be true or false, got 'yes'"),
        ({"bank_id": 7}, 8192, "bank_id must be a string, got 7"),
        ({"fs_hz": DROP}, 8192, "missing field 'fs_hz'"),
        ({"jitter_s": 1e-13}, 8192, "unknown field 'jitter_s'"),
    ], ids=["n-not-multiple", "transient-string", "transient-negative",
            "transient-half", "m-list", "m-one", "bits-bool", "n-fraction",
            "fs-string", "quantize-int", "corrected-string", "bank-id-int",
            "fs-missing", "unknown-field"])
    def test_bad_sidecar_one_error_line(self, tmp_path, capsys, edits, n, expect):
        rc = self.analyze(tmp_path, edits, n)
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {tmp_path / 'cap.f64.json'}: ")
        assert expect in err

    def test_non_object_sidecar(self, tmp_path, capsys):
        self.analyze(tmp_path, {})
        (tmp_path / "cap.f64.json").write_text("[]")
        capsys.readouterr()
        assert main(["analyze", "--capture", str(tmp_path / "cap.f64"),
                     "--out-prefix", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'cap.f64.json'}: sidecar must be a JSON object\n")

    def test_valid_variants_accepted(self, tmp_path, capsys):
        assert self.analyze(tmp_path, {"bits": 14.0, "transient_samples": 0}) == 0
        cap = tiadc.load_capture(tmp_path / "cap.f64")
        assert cap.config.bits == 14 and isinstance(cap.config.bits, int)
        assert cap.corrected and cap.bank_id == "abc"
        assert "enob_bits:" in capsys.readouterr().out


class TestPipeline:
    def test_tiny_scenario_deterministic(self, tmp_path):
        scen_path = tmp_path / "tiny.json"
        scen_path.write_text(json.dumps(TINY_SCENARIO))
        outs = []
        for run in ("a", "b"):
            rc = main(["pipeline", "--scenario", str(scen_path),
                       "--out-dir", str(tmp_path / run)])
            assert rc == 0
            outs.append((tmp_path / run / "summary.csv").read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header == ("f_in_hz,enob_before,enob_after,"
                          "max_image_dbc_before,max_image_dbc_after")

    def test_subcommands_write_the_pipeline_files(self, tmp_path, capsys):
        # calibrate and design run the pipeline's stage code: same bytes, same lines
        sc = parse_scenario(TINY_SCENARIO)
        scen_path = tmp_path / "tiny.json"
        scen_path.write_text(json.dumps(TINY_SCENARIO))
        assert main(["pipeline", "--scenario", str(scen_path),
                     "--out-dir", str(tmp_path / "pipe")]) == 0
        piped = capsys.readouterr().out.replace(str(tmp_path / "pipe"), str(tmp_path / "sub"))
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "config.json").write_text(json.dumps({**TINY_SCENARIO["config"],
                                                     "quantize": True}))
        tiadc.write_profile_csv(tiadc.make_reference_profile(sc.config), sub / "truth.csv")
        calibration.write_plan_csv(sc.cal_plan, sub / "plan.csv")
        assert main(["calibrate", "--config", str(sub / "config.json"),
                     "--plan", str(sub / "plan.csv"), "--truth-profile", str(sub / "truth.csv"),
                     "--out", str(sub / "measured_profile.csv")]) == 0
        assert main(["design", "--config", str(sub / "config.json"),
                     "--profile", str(sub / "measured_profile.csv"),
                     "--n-grid", "512", "--taps", "33", "--window", "kaiser",
                     "--kaiser-beta", "8.0", "--zone", "1", "--out", str(sub / "bank.csv"),
                     "--residual-out", str(sub / "pr_residual.csv")]) == 0
        assert piped.startswith(capsys.readouterr().out)
        for name in ("measured_profile.csv", "bank.csv", "pr_residual.csv"):
            assert (sub / name).read_bytes() == (tmp_path / "pipe" / name).read_bytes()

    def test_config_quantize_governs_every_stage(self, tmp_path):
        # one acquisition per scenario: the config's quantizer switch reaches
        # the calibration captures and the sweep captures
        out = {}
        for quantize in (True, False):
            scen = json.loads(json.dumps(TINY_SCENARIO))
            scen["config"]["quantize"] = quantize
            run_pipeline(scen, tmp_path / str(quantize))
            out[quantize] = [(tmp_path / str(quantize) / name).read_bytes()
                             for name in ("measured_profile.csv", "summary.csv")]
        assert all(a != b for a, b in zip(out[True], out[False]))

    def test_threshold_violation_exits_nonzero(self, tmp_path, capsys):
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen["thresholds"]["min_enob_after_bits"] = 20.0  # unattainable
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps(scen))
        rc = main(["pipeline", "--scenario", str(scen_path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc != 0
        assert "threshold violation" in capsys.readouterr().err

    def test_missing_profile_names_stage(self, tmp_path, capsys):
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen["truth_profile"] = {"type": "csv", "path": str(tmp_path / "nope.csv")}
        scen_path = tmp_path / "missing.json"
        scen_path.write_text(json.dumps(scen))
        rc = main(["pipeline", "--scenario", str(scen_path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc != 0
        assert "stage truth-profile" in capsys.readouterr().err

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only bad input becomes an `error: stage ...` line; a bug keeps its
        # exception and traceback
        def broken(*args, **kwargs):
            raise TypeError("a bug")
        monkeypatch.setattr(calibration, "measure_plan", broken)
        with pytest.raises(TypeError, match="a bug"):
            run_pipeline(json.loads(json.dumps(TINY_SCENARIO)), tmp_path)

    def test_bundled_scenarios_load(self):
        for name in ("wideband_zone1", "undersampling_zone2", "twotone_zone1",
                     "narrowband_contrast"):
            scen = load_scenario(name)
            assert scen["name"] == name

    def test_unknown_scenario_errors(self, tmp_path, capsys):
        rc = main(["pipeline", "--scenario", str(tmp_path / "ghost.json"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("scenario, points", [(TINY_SCENARIO, 3),
                                                  ("twotone_zone1", 1)],
                             ids=["tiny", "twotone_zone1"])
    def test_one_spectrum_per_capture(self, tmp_path, monkeypatch, scenario, points):
        # each sweep point analyzes two captures, before and after correction
        calls = []
        spectrum = metrics.spectrum

        def counting(*args, **kwargs):
            calls.append(args[0])
            return spectrum(*args, **kwargs)

        monkeypatch.setattr(metrics, "spectrum", counting)
        if isinstance(scenario, str):
            scenario = load_scenario(scenario)
        result = run_pipeline(scenario, tmp_path)
        assert result.ok
        assert len(result.rows) == points * len(scenario.get("tones", [None]))
        assert len(calls) == 2 * points
        assert len({id(c) for c in calls}) == 2 * points

    @pytest.mark.parametrize("block, field, value, expect", [
        ("sweep", "n_fft", [4096], "sweep: n_fft must be an integral number, got [4096]"),
        ("sweep", "quantize", False, "sweep: unknown field 'quantize'"),
        ("calibration", "quantize", False, "calibration: unknown field 'quantize'"),
        ("calibration", "n_samples", 2048.5,
         "calibration: n_samples must be an integral number, got 2048.5"),
        ("design", "taps", "33", "design: taps must be an integral number, got '33'"),
        ("design", "window", 3, "design: window must be a string, got 3"),
        ("design", "kaiser_beta", -0.5, "design: kaiser_beta must be finite and >= 0, got -0.5"),
        ("thresholds", "min_enob_after_bits", True,
         "thresholds: min_enob_after_bits must be a finite number, got True"),
        ("sweep", "f_targets_hz", [1e8, "2e8"],
         "sweep: f_targets_hz must be a non-empty list of finite numbers"),
    ], ids=["n_fft-list", "sweep-quantize", "cal-quantize", "fraction", "string",
            "window", "negative-kaiser-beta", "bool-threshold", "target-list"])
    def test_scenario_field_types(self, tmp_path, capsys, block, field, value, expect):
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen[block][field] = value
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps(scen))
        rc = main(["pipeline", "--scenario", str(scen_path),
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"scenario tiny: {expect}" in err

    @pytest.mark.parametrize("edit, expect", [
        ({"sweep": [1]}, "scenario tiny: sweep must be a JSON object"),
        ({"kind": "sweeps"}, "scenario tiny: kind must be one of"),
        ({"truth_profile": {"type": "csv", "path": 3}},
         "scenario tiny: truth_profile: path must be a string, got 3"),
        # a list does not name a TRUTH_PROFILES entry: it is a type of the wrong kind
        ({"truth_profile": {"type": ["csv"]}},
         "scenario tiny: truth_profile: type must be a string, got ['csv']"),
        ({"config": {"m_channels": 4, "fs_hz": 1.6e9, "bits": 14}},
         "scenario tiny: config: missing field 'full_scale_v'"),
        ({"sweep": {**TINY_SCENARIO["sweep"], "n_tones": 0}},
         "scenario tiny: sweep: n_tones must be from 1 to 1024, half the 2048-sample "
         "record, got 0"),
    ], ids=["block", "kind", "path", "type-list", "config", "empty-sweep"])
    def test_scenario_structure_checked(self, tmp_path, capsys, edit, expect):
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps({**TINY_SCENARIO, **edit}))
        rc = main(["pipeline", "--scenario", str(scen_path),
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and expect in err

    @pytest.mark.parametrize("count", [0, -1, 1e8, 1e300, 1025])
    @pytest.mark.parametrize("block, key", [("calibration", "n_freqs"), ("sweep", "n_tones")])
    def test_tone_count_bounded(self, tmp_path, capsys, block, key, count):
        # each count is checked against half its record (the calibration
        # n_samples, the sweep n_fft; both 2048 here) before any target is made
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen[block][key] = count
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps(scen))
        out = tmp_path / "out"
        start = time.perf_counter()
        rc = main(["pipeline", "--scenario", str(scen_path), "--out-dir", str(out)])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: scenario tiny: {block}: {key} must be from 1 to 1024, half the "
            f"2048-sample record, got {int(count)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("block, edit, expect", [
        # a count within half the record must not reach its target list
        ("calibration", {"n_samples": 2 ** 40, "n_freqs": 2 ** 39},
         f"n_samples must be at most 16777216, got {2 ** 40}"),
        ("sweep", {"n_fft": 2 ** 40, "n_samples": 2 ** 41, "n_tones": 2 ** 39},
         f"n_fft must be at most 16777216, got {2 ** 40}"),
        ("sweep", {"n_samples": 2 ** 40}, f"n_samples must be at most 16777216, got {2 ** 40}"),
    ], ids=["calibration", "sweep-n_fft", "sweep-n_samples"])
    def test_record_length_capped(self, tmp_path, capsys, block, edit, expect):
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen[block].update(edit)
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps(scen))
        out = tmp_path / "out"
        start = time.perf_counter()
        rc = main(["pipeline", "--scenario", str(scen_path), "--out-dir", str(out)])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert capsys.readouterr().err == f"error: scenario tiny: {block}: {expect}\n"
        assert not out.exists()

    def test_record_length_cap_accepted(self):
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen["calibration"]["n_samples"] = scen["sweep"]["n_samples"] = 2 ** 24
        scen["sweep"]["n_fft"] = 2 ** 23
        sc = parse_scenario(scen)
        assert sc.cal_plan[0][2] == 2 ** 24 and sc.n_fft == 2 ** 23

    @pytest.mark.parametrize("block, count", [
        ({"n_freqs": 2 ** 23, "f_lo_hz": 5e7, "f_hi_hz": 7.5e8}, 2 ** 23),
        ({"freqs_hz": [1e8, 2e8, 3e8, 4e8, 5e8]}, 5),
    ], ids=["n_freqs", "freqs_hz"])
    def test_calibration_plan_bounded(self, tmp_path, capsys, block, count):
        # more than four records at the 2^24 cap fail before any target is made
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen["calibration"] = {"amplitude_v": 0.9, "n_samples": 2 ** 24, **block}
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps(scen))
        out = tmp_path / "out"
        start = time.perf_counter()
        rc = main(["pipeline", "--scenario", str(scen_path), "--out-dir", str(out)])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: scenario tiny: calibration: {count} records of n_samples = 16777216 "
            f"must total at most 67108864 samples, got {count * 2 ** 24}\n")
        assert not out.exists()

    @pytest.mark.parametrize("scenario, targets, count", [
        ("wideband_zone1", {"n_tones": 2 ** 15, "f_lo_hz": 1.6e7, "f_hi_hz": 7.2e8}, 2 ** 15),
        ("wideband_zone1", {"f_targets_hz": [1e8 * k for k in range(1, 9)]}, 8),
        ("twotone_zone1", None, 8),
    ], ids=["n_tones", "f_targets_hz", "two-tone"])
    def test_sweep_bounded(self, tmp_path, capsys, scenario, targets, count):
        # a sweep whose tones read more than four records at the 2^24 cap in
        # all fails before any target is made
        scen = load_scenario(scenario)
        sweep = {key: scen["sweep"][key] for key in ("amplitude_v", "n_samples", "n_fft")}
        sweep.update(n_samples=2 ** 24, n_fft=2 ** 23)
        if targets is None:  # the bundled two tones four times over
            n_read = parse_scenario({**scen, "sweep": sweep}).n_read
            scen["tones"] *= 4
        else:
            n_read = parse_scenario({**scen, "sweep": {**sweep, "f_targets_hz": [1e8]}}).n_read
            sweep.update(targets)
        scen["sweep"] = sweep
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps(scen))
        out = tmp_path / "out"
        start = time.perf_counter()
        rc = main(["pipeline", "--scenario", str(scen_path), "--out-dir", str(out)])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: scenario {scen['name']}: sweep: {count} tones of {n_read} samples "
            f"must total at most 67108864 samples, got {count * n_read}\n")
        assert not out.exists()

    @pytest.mark.parametrize("truth_type", sorted(TRUTH_PROFILES))
    def test_truth_profile_types(self, tmp_path, truth_type):
        # each type's block parses, and its stage builds the scenario's M channels
        cfg = parse_scenario(TINY_SCENARIO).config
        tiadc.write_profile_csv(tiadc.make_reference_profile(cfg), tmp_path / "truth.csv")
        block = {"type": truth_type,
                 **{"csv": {"path": str(tmp_path / "truth.csv")}}.get(truth_type, {})}
        sc = parse_scenario({**TINY_SCENARIO, "truth_profile": block})
        assert sc.truth == block
        assert TRUTH_PROFILES[truth_type][1](sc.truth, sc.config).m_channels == 4

    @pytest.mark.parametrize("count", [1, 1024])
    def test_tone_count_limits_accepted(self, count):
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen["calibration"]["n_freqs"] = scen["sweep"]["n_tones"] = count
        sc = parse_scenario(scen)
        assert 1 <= len(sc.cal_plan) <= count and 1 <= len(sc.points) <= count

    @pytest.mark.parametrize("m_channels", [2, 4, 8, 16])
    def test_no_image_line_on_a_fundamental_bin(self, m_channels):
        # parsed sweep points have a power-of-two M and odd coherent bins, so
        # an image that reaches a fundamental's bin lies on the fundamental and
        # predict_output_spectrum merges it into the fundamental's line
        fs, n = 1.6e9, 4096
        cfg = tiadc.TiadcConfig(m_channels=m_channels, fs=fs, bits=14, full_scale=2.0)
        truth = tiadc.make_reference_profile(cfg)
        rep = metrics.SpectrumReport(
            n_fft=n, window="none", fs=fs, full_scale=2.0, freqs_hz=np.zeros(1),
            power_dbfs=np.zeros(1), mean_square=np.zeros(1))
        rng = np.random.default_rng(m_channels)
        targets = [[f] for f in rng.uniform(1e6, fs - 1e6, 40)]
        # on and next to k*fs/(2M), where a k*fs/M - f image would be f itself
        targets += [[k * fs / (2 * m_channels) + d * fs / n]
                    for k in range(1, 2 * m_channels) for d in (-1, 0, 1)]
        targets += [list(pair) for pair in rng.uniform(1e6, fs - 1e6, (40, 2))]
        # the second tone on an image of the first
        for f1 in rng.uniform(1e6, fs / 2 - 1e6, 10):
            f1 = metrics.coherent_bin(f1, fs, n)[1]
            k = int(rng.integers(1, m_channels))
            targets.append([f1, tiadc.fold_frequency(k * fs / m_channels - f1, fs)])
        checked = 0
        for tone_targets in targets:
            freqs = list(dict.fromkeys(metrics.coherent_bin(f, fs, n)[1] for f in tone_targets))
            tones = tiadc.ToneSpec(tones=tuple(tiadc.Tone(0.45, f) for f in freqs))
            fund_bins = {rep.bin_of(f) for f in freqs}
            for line in tiadc.predict_output_spectrum(tones, cfg, truth):
                if line.kind == "image":
                    assert rep.bin_of(line.freq_hz) not in fund_bins, (freqs, line)
                    checked += 1
        assert checked > len(targets)

    @pytest.mark.parametrize("edit, expect", [
        ({"sweep": {**TINY_SCENARIO["sweep"], "n_fft": 2000}},
         "sweep: n_fft must be a power of two"),
        ({"thresholds": {**TINY_SCENARIO["thresholds"], "min_enob_after_bits": True}},
         "thresholds: min_enob_after_bits must be a finite number, got True"),
        ({"kind": "narrowband_contrast"}, "calibration: missing field 'freqs_hz'"),
        ({"calibration": {**TINY_SCENARIO["calibration"], "n_samples": 1000}},
         "calibration: n_samples must be a power of two"),
        ({"design": {**TINY_SCENARIO["design"], "delay_d": 500}},
         "design: delay_d leaves the tap window outside the design grid; "
         "need 16 <= delay_d <= 492"),
        ({"config": {**TINY_SCENARIO["config"], "m_channels": 3}},
         "calibration: n_samples must be a positive multiple of m_channels = 3, got 2048"),
        ({"sweep": {**TINY_SCENARIO["sweep"], "n_samples": 4098}},
         "sweep: n_samples must be a multiple of m_channels = 4"),
        # 33 taps centred on delay_d 16: 33 transient samples at each end
        ({"sweep": {**TINY_SCENARIO["sweep"], "n_samples": 2112}},
         "sweep: n_samples 2112 leaves 2046 samples after the correction "
         "transients, fewer than n_fft = 2048"),
        ({"sweep": {**TINY_SCENARIO["sweep"], "amplitude_v": -0.5}},
         "sweep: amplitude_v must be finite and > 0, got -0.5"),
        ({"calibration": {**TINY_SCENARIO["calibration"], "amplitude_v": -0.5}},
         "calibration: amplitude_v must be finite and > 0, got -0.5"),
        ({"design": {**TINY_SCENARIO["design"], "delay_d": 10}},
         "design: delay_d = 10 is below (taps - 1)/2 = 16"),
        ({"sweep": {**TINY_SCENARIO["sweep"], "amplitude_v": 0.0}},
         "sweep: amplitude_v must be finite and > 0, got 0.0"),
        ({"kind": "two_tone", "sweep": {"amplitude_v": 0.9, "n_samples": 4096, "n_fft": 2048},
          "tones": [{"f_target_hz": 1e8}, {"f_target_hz": 3e8, "amplitude_v": 0}]},
         "tones[1]: amplitude_v must be finite and > 0, got 0.0"),
        # a negative amplitude reads as a zero one, under the block that holds it
        ({"kind": "two_tone", "sweep": {"amplitude_v": 0.9, "n_samples": 4096, "n_fft": 2048},
          "tones": [{"f_target_hz": 1e8}, {"f_target_hz": 3e8, "amplitude_v": -1}]},
         "tones[1]: amplitude_v must be finite and > 0, got -1.0"),
        ({"kind": "two_tone", "sweep": {"amplitude_v": -1, "n_samples": 4096, "n_fft": 2048},
          "tones": [{"f_target_hz": 1e8}, {"f_target_hz": 3e8, "amplitude_v": 0.5}]},
         "sweep: amplitude_v must be finite and > 0, got -1.0"),
        # that kind reads its targets from the list alone
        ({"kind": "narrowband_contrast",
          "calibration": {"amplitude_v": 0.9, "n_samples": 2048}},
         "calibration: missing field 'freqs_hz'"),
        # the tone list's own shape errors name the scenario, not its sweep block
        ({"kind": "two_tone", "sweep": {"amplitude_v": 0.9, "n_samples": 4096, "n_fft": 2048}},
         "tones must be a non-empty list"),
        ({"kind": "two_tone", "sweep": {"amplitude_v": 0.9, "n_samples": 4096, "n_fft": 2048},
          "tones": []},
         "tones must be a non-empty list"),
        ({"kind": "two_tone", "sweep": {"amplitude_v": 0.9, "n_samples": 4096, "n_fft": 2048},
          "tones": [{"f_target_hz": 1e8}, 3]},
         "tones[1] must be a JSON object, got 3"),
        # two targets on one coherent bin would sum into one line of twice the amplitude
        ({"kind": "two_tone", "sweep": {"amplitude_v": 0.45, "n_samples": 4096, "n_fft": 2048},
          "tones": [{"f_target_hz": 1.71e8}, {"f_target_hz": 3.13e8},
                    {"f_target_hz": 1.7100001e8}]},
         "tones[2]: f_target_hz 171000010.0 falls on 171093750.0 Hz, "
         "the coherent frequency of tones[0]"),
    ], ids=["n_fft", "bool-threshold", "contrast-without-freqs", "cal-n_samples",
            "delay-window", "cal-rows", "sweep-rows", "usable-samples",
            "sweep-amplitude", "cal-amplitude", "delay-below-half-taps",
            "sweep-zero-amplitude", "tone-zero-amplitude", "tone-negative-amplitude",
            "two-tone-sweep-negative-amplitude", "contrast-without-targets",
            "tones-missing", "tones-empty", "tone-not-an-object", "tones-one-bin"])
    def test_bad_scenario_writes_nothing(self, tmp_path, capsys, monkeypatch, edit, expect):
        # the whole scenario is checked before the first stage runs
        calls = []
        measure_plan = calibration.measure_plan

        def counting(*args):
            calls.append(args)
            return measure_plan(*args)

        monkeypatch.setattr(calibration, "measure_plan", counting)
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps({**TINY_SCENARIO, **edit}))
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["pipeline", "--scenario", str(scen_path), "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: scenario tiny: {expect}\n"
        assert list(out.iterdir()) == []
        assert calls == []

    @pytest.mark.parametrize("scenario, path, value, expect", [
        (TINY_SCENARIO, ("config", "jitter_s"), 1e-13, "config: unknown field 'jitter_s'"),
        (TINY_SCENARIO, ("truth_profile", "path"), "truth.csv",
         "truth_profile: unknown field 'path'"),
        # a target list leaves the range fields unread
        (TINY_SCENARIO, ("calibration", "freqs_hz"), [1e8, 2e8],
         "calibration: unknown field 'n_freqs'"),
        (TINY_SCENARIO, ("design", "delay"), 16, "design: unknown field 'delay'"),
        (TINY_SCENARIO, ("thresholds", "min_sfdr_db"), 60.0,
         "thresholds: unknown field 'min_sfdr_db'"),
        (TINY_SCENARIO, ("sweep", "f_targets_hz"), [1e8],
         "sweep: unknown field 'n_tones'"),
        ("narrowband_contrast", ("thresholds", "min_enob_gain_bits"), 2.0,
         "thresholds: unknown field 'min_enob_gain_bits'"),
        ("twotone_zone1", ("sweep", "n_tones"), 20, "sweep: unknown field 'n_tones'"),
        ("twotone_zone1", ("tones", 1, "phase_rad"), 0.5,
         "tones[1]: unknown field 'phase_rad'"),
    ], ids=["config", "truth_profile", "calibration", "design", "thresholds", "sweep",
            "contrast-thresholds", "two-tone-sweep", "tone"])
    def test_unknown_field_writes_nothing(self, tmp_path, capsys, scenario, path,
                                          value, expect):
        scen = json.loads(json.dumps(
            load_scenario(scenario) if isinstance(scenario, str) else scenario))
        block = scen
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps(scen))
        out = tmp_path / "out"
        assert main(["pipeline", "--scenario", str(scen_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: scenario {scen['name']}: {expect}\n"
        assert not out.exists()

    def test_non_object_scenario(self, tmp_path, capsys):
        scen_path = tmp_path / "list.json"
        scen_path.write_text("[]")
        rc = main(["pipeline", "--scenario", str(scen_path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {scen_path}: scenario must be a JSON object\n")

    def test_null_optional_fields_read_as_unset(self, tmp_path):
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen["design"]["delay_d"] = None
        scen["thresholds"]["min_enob_after_bits"] = None
        result = run_pipeline(scen, tmp_path)
        assert result.ok
        assert result.bank.spec.delay_d == 16

    def test_spur_floor_above_every_image(self, tmp_path):
        # each of the 3 points has 3 predicted image lines, all below 0 dBFS:
        # none is tracked, so no point has a measured drop
        scen = json.loads(json.dumps(TINY_SCENARIO))
        scen["thresholds"]["spur_floor_dbfs"] = 0
        result = run_pipeline(scen, tmp_path)
        assert result.skipped_spurs == 9
        assert [r["min_image_drop_db"] for r in result.rows] == [np.inf] * 3

    def test_tone_on_another_tones_image(self, tmp_path):
        # J = 411 = 2048/4 - 101: the second tone sits on the first tone's k = 1
        # image, which merges into its fundamental line and is not read as an
        # image that did not drop
        f1, f2 = (j * TINY_SCENARIO["config"]["fs_hz"] / 2048 for j in (101, 411))
        scen = {**TINY_SCENARIO, "kind": "two_tone",
                "sweep": {"amplitude_v": 0.45, "n_samples": 4096, "n_fft": 2048},
                "tones": [{"f_target_hz": f1}, {"f_target_hz": f2}]}
        result = run_pipeline(scen, tmp_path)
        assert [r["f_in_hz"] for r in result.rows] == [f1, f2]
        for r in result.rows:
            assert r["min_image_drop_db"] == pytest.approx(30.89, abs=0.01)

    def test_ideal_truth_profile(self, tmp_path):
        result = run_pipeline({**TINY_SCENARIO, "truth_profile": {"type": "ideal"}}, tmp_path)
        assert np.abs(result.measured_profile.gain - 1).max() < 2e-6

    @pytest.mark.parametrize("block, key, value, expect", [
        ("thresholds", "min_image_drop_db", 200.0,
         "design tone 5.97656e+07 Hz only dropped 56.2 dB"),
        # calibrated across the band, the narrowband design holds there too
        ("calibration", "freqs_hz", [6.0e7] + [1e8 + 5e7 * i for i in range(14)],
         "no upper-band tone violated the suppression bound; "
         "narrowband design unexpectedly held wideband"),
    ], ids=["design-tone", "upper-band"])
    def test_narrowband_contrast_failures(self, tmp_path, block, key, value, expect):
        scen = load_scenario("narrowband_contrast")
        scen[block][key] = value
        assert run_pipeline(scen, tmp_path).failures == [expect]
