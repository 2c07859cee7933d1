"""Command-line interface and pipeline scenarios."""

import json

import numpy as np
import pytest

import tiadc
from tiadc import calibration, correction, metrics
from tiadc.cli import load_config, load_scenario, main, parse_scenario, run_pipeline

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

    def test_single_frequency_plan_rejected(self, workdir, capsys):
        tmp, cfg = workdir
        rows = [(tiadc.coherent_bin(2e8, cfg.fs, 4096)[1], 0.9, 4096)]
        path = tmp / "plan1.csv"
        tiadc.calibration.write_plan_csv(rows, path)
        rc = main(["calibrate", "--config", str(tmp / "config.json"),
                   "--plan", str(path),
                   "--truth-profile", str(tmp / "truth.csv"),
                   "--out", str(tmp / "m.csv")])
        assert rc != 0
        assert "error: " in capsys.readouterr().err

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

    def test_zone2_with_zone1_profile_warns(self, workdir, capsys):
        tmp, cfg = workdir
        prof = tiadc.MismatchProfile.ideal(4, cfg.fs / 2)  # first zone only
        tiadc.write_profile_csv(prof, tmp / "z1.csv")
        rc = main(["design", "--config", str(tmp / "config.json"),
                   "--profile", str(tmp / "z1.csv"), "--zone", "2",
                   "--out", str(tmp / "bank2.csv")])
        assert rc == 0
        assert "clamped" in capsys.readouterr().err


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
        # a block of 100 samples: 82 pushes, most of them inside one chunk
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
        ({"config": {"m_channels": 4, "fs_hz": 1.6e9, "bits": 14}},
         "scenario tiny: config: missing field 'full_scale_v'"),
        ({"sweep": {**TINY_SCENARIO["sweep"], "n_tones": 0}},
         "scenario tiny: sweep: no tones to sweep"),
    ], ids=["block", "kind", "path", "config", "empty-sweep"])
    def test_scenario_structure_checked(self, tmp_path, capsys, edit, expect):
        scen_path = tmp_path / "bad.json"
        scen_path.write_text(json.dumps({**TINY_SCENARIO, **edit}))
        rc = main(["pipeline", "--scenario", str(scen_path),
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and expect in err

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
    ], ids=["n_fft", "bool-threshold", "contrast-without-freqs", "cal-n_samples",
            "delay-window", "cal-rows", "sweep-rows", "usable-samples",
            "sweep-amplitude", "cal-amplitude", "delay-below-half-taps",
            "sweep-zero-amplitude", "tone-zero-amplitude", "tone-negative-amplitude",
            "two-tone-sweep-negative-amplitude", "contrast-without-targets"])
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
