"""Command-line front end: simulate, calibrate, design, correct, analyze, and
scripted end-to-end pipeline scenarios.

Every failure exits 1 with a single "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from tiadc import calibration, correction, design, metrics, model
from tiadc.model import TiadcConfig, TiadcError, Tone, ToneSpec, json_fields, named, positive


def load_config(path) -> TiadcConfig:
    with named(path):
        return model.config_from_json(model.read_json_object(path, "config"))


def config_from_dict(raw: dict) -> TiadcConfig:
    with named("config"):
        return model.config_from_json(raw)


def _parse_tone(text: str) -> Tone:
    try:
        values = [float(part) for part in text.split(":")]
    except ValueError:
        values = []
    if len(values) not in (2, 3):
        raise TiadcError(f"--tone must be AMPLITUDE:FREQ_HZ[:PHASE_RAD] in numbers, "
                         f"got {text!r}")
    return Tone(*values)


def _read_profile(path, m_channels: int, owner: str):
    """The profile file at path, which must have the m_channels channels of owner."""
    profile = model.read_profile_csv(path)
    if profile.m_channels != m_channels:
        raise TiadcError(f"{path}: profile has {profile.m_channels} channels, "
                         f"but {owner} has m_channels = {m_channels}")
    return profile


# --- stages shared by the subcommands and the pipeline -----------------------

def _calibrate(measurements, config: TiadcConfig, path, report):
    """Turn the measurements into a profile and write it to path."""
    if len(measurements) == 1:
        profile = calibration.constant_profile(measurements[0], config)
    else:
        profile = calibration.build_profile(measurements, config)
    model.write_profile_csv(profile, path)
    report(f"calibrated {len(measurements)} frequencies -> {path}")
    return profile


def _design(profile, config: TiadcConfig, spec: design.DesignSpec, path,
            residual_path, report):
    """Design the bank and check its PR residual; write the bank to path and,
    when residual_path is given, the residual to it."""
    bank = design.design_filter_bank(profile, config, spec)
    design.write_bank_csv(bank, path)
    residual = design.pr_residual(bank, profile, config, n_check=512)
    if residual_path:
        design.write_residual_csv(residual, residual_path)
    report(f"designed bank {bank.bank_id} -> {path}; "
           f"max alias residual = {residual.max_alias():.3e}")
    return bank


# --- subcommands -------------------------------------------------------------

def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.n <= 0 or args.n % config.m_channels:
        raise TiadcError(f"--n must be a positive multiple of m_channels = "
                         f"{config.m_channels}, got {args.n}")
    profile = _read_profile(args.profile, config.m_channels, args.config)
    tones = ToneSpec(tones=tuple(_parse_tone(t) for t in args.tone), dc=args.dc)
    capture = model.simulate_capture(tones, config, profile, args.n)
    model.save_capture(capture, args.out)
    tone_txt = ", ".join(f"{t.amplitude:g} V @ {t.freq_hz:g} Hz" for t in tones.tones)
    print(f"simulated {capture.n} samples at fs = {config.fs:g} Hz, "
          f"M = {config.m_channels}, tones: {tone_txt}")
    return 0


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    plan = calibration.read_plan_csv(args.plan, config.m_channels)
    if args.captures is not None:  # "" names the working directory
        measurements = []
        for i, (freq, _amp, n_samples) in enumerate(plan):
            path = Path(args.captures) / f"cal_{i:03d}.f64"
            capture = model.load_capture(path)
            # the sidecar states how the capture was taken; it must be what
            # the config and the plan row say
            for key, value in vars(config).items():
                if getattr(capture.config, key) != value:
                    raise TiadcError(f"{path}.json: {key} = {getattr(capture.config, key)!r}, "
                                     f"but {args.config} has {key} = {value!r}")
            if capture.n != n_samples:
                raise TiadcError(f"{path}.json: n = {capture.n}, but the plan row "
                                 f"asks for n_samples = {n_samples}")
            measurements.append(calibration.estimate_mismatch_at(capture, freq, config))
    else:
        truth = _read_profile(args.truth_profile, config.m_channels, args.config)
        measurements = calibration.measure_plan(plan, config, truth)
    _calibrate(measurements, config, args.out, print)
    return 0


def cmd_design(args) -> int:
    config = load_config(args.config)
    profile = _read_profile(args.profile, config.m_channels, args.config)
    # options left out are absent from args, so DesignSpec supplies them
    spec = design.DesignSpec(**{f.name: getattr(args, f.name)
                                for f in fields(design.DesignSpec) if hasattr(args, f.name)})
    lo, hi = spec.band_hz(config.fs)
    if profile.freqs_hz[0] > lo + 1e-6 * config.fs or profile.freqs_hz[-1] < hi - 1e-6 * config.fs:
        print(f"warning: profile table covers [{profile.freqs_hz[0]:g}, "
              f"{profile.freqs_hz[-1]:g}] Hz but zone {spec.zone} needs "
              f"[{lo:g}, {hi:g}] Hz; clamped end values will be used",
              file=sys.stderr)
    _design(profile, config, spec, args.out, args.residual_out, print)
    return 0


def cmd_correct(args) -> int:
    """Correct the capture block by block: memory use does not grow with its
    length. The output goes to <out>.part, which replaces <out> once it is
    whole; the sidecar is written last."""
    n, header = model.capture_header(args.capture)
    config = header["config"]
    m_ch = config.m_channels
    bank = design.read_bank_csv(args.bank)
    profile = (_read_profile(args.profile, m_ch, f"the capture {args.capture}")
               if args.profile else None)
    stream = correction.PolyphaseStream(bank, config, n)
    block = max(correction.DEFAULT_BLOCK // m_ch, 1) * m_ch
    y = np.empty(stream.out_size(block))
    out = Path(args.out)
    part = Path(str(out) + ".part")
    try:
        with open(args.capture, "rb") as src, open(part, "wb") as dst:
            for a in range(0, n, block):
                x = model.Capture(np.fromfile(src, dtype="<f8", count=min(block, n - a)),
                                  config)
                if profile is not None:
                    x = correction.correct_offsets(x, profile)
                y[:stream.push(x.samples, y)].astype("<f8", copy=False).tofile(dst)
            y[:stream.finish(y)].astype("<f8", copy=False).tofile(dst)
        os.replace(part, out)
    finally:
        part.unlink(missing_ok=True)
    transient = bank.spec.transient_samples
    model.write_sidecar(out, n, **dict(header, transient_samples=transient,
                                       corrected=True, bank_id=bank.bank_id))
    print(f"corrected {n} samples with bank {bank.bank_id} "
          f"({transient} transient samples flagged)")
    return 0


def cmd_analyze(args) -> int:
    capture = model.load_capture(args.capture)
    report = metrics.spectrum(capture, args.n_fft, args.window)
    report = metrics.dynamic_metrics(
        report, f_fund_hz=args.f_fund,
        m_channels=capture.config.m_channels, harmonics=args.harmonics)
    prefix = args.out_prefix
    metrics.write_spectrum_csv(report, f"{prefix}_spectrum.csv")
    metrics.write_spur_csv(report.spurs, f"{prefix}_spurs.csv")
    print(f"fundamental: {report.freqs_hz[report.fundamental_bin]:g} Hz at "
          f"{report.power_dbfs[report.fundamental_bin]:.2f} dBFS")
    print(f"snr_db: {report.snr_db:.2f}")
    print(f"sinad_db: {report.sinad_db:.2f}")
    print(f"thd_db: {report.thd_db:.2f}")
    print(f"sfdr_db: {report.sfdr_db:.2f}")
    print(f"enob_bits: {report.enob_bits:.2f}")
    return 0


def cmd_pipeline(args) -> int:
    result = run_pipeline(load_scenario(args.scenario), args.out_dir)
    for line in result.log:
        print(line)
    print(f"summary -> {result.summary_path}")
    if not result.ok:
        for fail in result.failures:
            print(f"threshold violation: {fail}", file=sys.stderr)
        raise TiadcError(
            f"scenario {args.scenario}: {len(result.failures)} threshold violation(s)")
    return 0


# --- pipeline scenarios -------------------------------------------------------

BUNDLED_SCENARIOS = ("wideband_zone1", "undersampling_zone2", "twotone_zone1",
                     "narrowband_contrast")
SCENARIO_KINDS = ("sweep", "two_tone", "narrowband_contrast")


def load_scenario(name_or_path) -> dict:
    path = name_or_path
    if str(path) in BUNDLED_SCENARIOS:
        path = resources.files("tiadc.scenarios").joinpath(f"{path}.json")
    return model.read_json_object(path, "scenario")


@dataclass(frozen=True)
class Scenario:
    """A scenario description, read and checked in full by parse_scenario."""

    kind: str  # one of SCENARIO_KINDS
    config: TiadcConfig
    truth_type: str  # "reference", "ideal" or "csv"
    truth_path: str | None  # the profile CSV of truth_type "csv"
    cal_plan: tuple  # calibration.plan_row rows, coherent and distinct
    spec: design.DesignSpec
    n_read: int  # samples a sweep point simulates and corrects: all its analysis reads
    n_fft: int
    points: tuple  # sweep points, one ToneSpec each
    min_drop: float | None
    min_gain: float | None
    min_after: float | None
    floor_dbfs: float
    design_tone: float | None  # narrowband_contrast: the first calibration target


@dataclass
class PipelineResult:
    ok: bool
    rows: list
    failures: list
    skipped_spurs: int
    summary_path: Path
    log: list
    bank: object = None
    measured_profile: object = None


def _target_kinds(block: dict, list_key: str, count_key: str) -> dict:
    """The kinds of a block's tone targets: the list list_key when the block
    holds it, else count_key points spaced evenly from f_lo_hz to f_hi_hz."""
    return ({list_key: "reals"} if list_key in block
            else {"f_lo_hz": "real", "f_hi_hz": "real", count_key: "int"})


def _coherent_targets(block: dict, list_key: str, count_key: str, fs: float, n: int) -> list:
    """The distinct coherent frequencies, in order, nearest the targets
    (_target_kinds) read into block, for an n-sample record: a count holds at
    most n/2 distinct ones."""
    targets = block.get(list_key)
    if targets is None:
        count = block[count_key]
        if not 1 <= count <= n // 2:
            raise ValueError(f"{count_key} must be from 1 to {n // 2}, half the "
                             f"{n}-sample record, got {count}")
        targets = np.linspace(block["f_lo_hz"], block["f_hi_hz"], count)
    return list(dict.fromkeys(metrics.coherent_bin(f, fs, n)[1] for f in targets))


# the top-level fields, each block but the two-tone list; other top-level keys are not checked
SCENARIO_FIELDS = {"kind": ("str", "sweep"), "config": "object", "truth_profile": "object",
                   "calibration": "object", "design": "object",
                   "thresholds": ("object", {}), "sweep": "object"}
DESIGN_KINDS = {"n_grid": "int", "taps": "int", "delay_d": "int", "window": "str",
                "kaiser_beta": "real", "zone": "int"}


def parse_scenario(raw: dict) -> Scenario:
    """Read and check every block of a scenario description without touching
    a file, so a bad one fails before any stage runs; errors name the block.
    Each block is one json_fields call: a key that nothing reads is an error."""
    where = f"scenario {raw.get('name', '?')}"
    with named(where):
        top = json_fields({key: raw[key] for key in SCENARIO_FIELDS if key in raw},
                          SCENARIO_FIELDS)
        kind = top["kind"]
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"kind must be one of {SCENARIO_KINDS}, got {kind!r}")
    with named(f"{where}: config"):
        config = model.config_from_json(top["config"])
        fs = config.fs

    with named(f"{where}: truth_profile"):
        truth_type = top["truth_profile"].get("type")
        if isinstance(truth_type, str) and truth_type not in ("reference", "ideal", "csv"):
            raise ValueError(f"unknown type {truth_type!r}")
        kinds = {"type": "str", "path": "str"} if truth_type == "csv" else {"type": "str"}
        truth_path = json_fields(top["truth_profile"], kinds).get("path")

    with named(f"{where}: calibration"):
        targets = ({"freqs_hz": "reals"} if kind == "narrowband_contrast"  # lists its design tone
                   else _target_kinds(top["calibration"], "freqs_hz", "n_freqs"))
        cal = json_fields(top["calibration"],
                          {"n_samples": "int", "amplitude_v": "real", **targets})
        n_cal = cal["n_samples"]
        if n_cal < 4 or n_cal & (n_cal - 1):
            raise ValueError("n_samples must be a power of two")
        if n_cal > model.MAX_RECORD_SAMPLES:
            raise ValueError(f"n_samples must be at most {model.MAX_RECORD_SAMPLES}, got {n_cal}")
        cal_plan = tuple(calibration.plan_row(f, cal["amplitude_v"], n_cal, config.m_channels)
                         for f in _coherent_targets(cal, "freqs_hz", "n_freqs", fs, n_cal))
        design_tone = cal["freqs_hz"][0] if kind == "narrowband_contrast" else None

    with named(f"{where}: design"):
        # fields left out, and a null delay_d, take DesignSpec's defaults
        spec = design.DesignSpec(**json_fields(top["design"], {
            f.name: (DESIGN_KINDS[f.name], f.default) for f in fields(design.DesignSpec)}))
        design.check_tap_window(spec, config.m_channels)

    with named(f"{where}: thresholds"):
        kinds = {"min_image_drop_db": ("real", None), "spur_floor_dbfs": ("real", -90.0)}
        if kind != "narrowband_contrast":  # that kind is judged by its image drop alone
            kinds.update(min_enob_gain_bits=("real", None), min_enob_after_bits=("real", None))
        thresholds = json_fields(top["thresholds"], kinds)

    with named(f"{where}: sweep"):
        kinds = {"n_fft": "int", "n_samples": "int", "amplitude_v": "real"}
        if kind != "two_tone":
            kinds.update(_target_kinds(top["sweep"], "f_targets_hz", "n_tones"))
        sweep = json_fields(top["sweep"], kinds)
        n_fft, n_sim = sweep["n_fft"], sweep["n_samples"]
        for key, n in (("n_fft", n_fft), ("n_samples", n_sim)):
            if n > model.MAX_RECORD_SAMPLES:
                raise ValueError(f"{key} must be at most {model.MAX_RECORD_SAMPLES}, got {n}")
        if n_sim % config.m_channels:
            raise ValueError(f"n_samples must be a multiple of m_channels = "
                             f"{config.m_channels}")
        usable = n_sim - 2 * spec.transient_samples
        if usable < n_fft:
            raise ValueError(f"n_samples {n_sim} leaves {usable} samples after the "
                             f"correction transients, fewer than n_fft = {n_fft}")
        # n_fft samples between the two transients, in whole rows of M: at most n_sim
        n_read = -(-(n_sim - usable + n_fft) // config.m_channels) * config.m_channels
        amp = sweep["amplitude_v"]
        positive("amplitude_v", amp)
        if kind == "two_tone":
            tones = raw.get("tones")
            with named(where):  # the tone list sits at the top level
                if not isinstance(tones, list) or not tones:
                    raise ValueError("tones must be a non-empty list")
                point = []
                for i, tone in enumerate(tones):
                    if not isinstance(tone, dict):
                        raise ValueError(f"tones[{i}] must be a JSON object, got {tone!r}")
                    with named(f"{where}: tones[{i}]"):
                        tone = json_fields(tone, {"f_target_hz": "real",
                                                  "amplitude_v": ("real", amp)})
                        positive("amplitude_v", tone["amplitude_v"])
                        f = metrics.coherent_bin(tone["f_target_hz"], fs, n_fft)[1]
                        point.append(Tone(tone["amplitude_v"], f))
            points = (ToneSpec(tones=tuple(point)),)
        else:
            points = tuple(ToneSpec.single(amp, f) for f in
                           _coherent_targets(sweep, "f_targets_hz", "n_tones", fs, n_fft))

    return Scenario(
        kind=kind, config=config, truth_type=truth_type, truth_path=truth_path,
        cal_plan=cal_plan, spec=spec, n_read=n_read, n_fft=n_fft, points=points,
        min_drop=thresholds["min_image_drop_db"], min_gain=thresholds.get("min_enob_gain_bits"),
        min_after=thresholds.get("min_enob_after_bits"),
        floor_dbfs=thresholds["spur_floor_dbfs"], design_tone=design_tone)


def _stage(name):
    """Prefix the stage name to a bad-input error raised inside the block.
    Any other exception is a bug and propagates with its traceback."""
    return named(f"stage {name}", (TiadcError, ValueError, OSError))


def _truth_profile(sc: Scenario):
    if sc.truth_type == "reference":
        return model.make_reference_profile(sc.config)
    if sc.truth_type == "ideal":
        return model.MismatchProfile.ideal(sc.config.m_channels, sc.config.fs)
    return _read_profile(sc.truth_path, sc.config.m_channels, "the scenario config")


def _sweep_point(sc: Scenario, tones: ToneSpec, truth, measured, bank):
    """Simulate one sweep point's first sc.n_read samples, all its spectra read (the
    bank is causal), correct them and measure them before and after correction: one
    summary row per tone, plus the number of image lines below the spur floor."""
    freqs = [t.freq_hz for t in tones.tones]
    capture = model.simulate_capture(tones, sc.config, truth, sc.n_read)
    corrected = correction.correct(correction.correct_offsets(capture, measured), bank)
    lines = model.predict_output_spectrum(tones, sc.config, truth)
    rep_before = metrics.spectrum(capture, sc.n_fft, "none")
    rep_after = metrics.spectrum(corrected, sc.n_fft, "none")
    # the drop is tracked on the predicted image lines above the spur floor;
    # offset spurs are removed by the offset corrector, not the filter bank,
    # and live near the measurement floor
    ref = sc.config.full_scale / 2.0
    images = [ln for ln in lines if ln.kind == "image"]
    seen = [rep_before.bin_of(ln.freq_hz) for ln in images
            if 20.0 * np.log10(max(ln.amplitude_v / ref, 1e-30)) >= sc.floor_dbfs]
    skipped = len(images) - len(seen)
    min_observed_drop = min((rep_before.power_dbfs[b] - rep_after.power_dbfs[b] for b in seen),
                            default=np.inf)
    rows = []
    for f_tone in freqs:
        others = [f2 for f2 in freqs if f2 != f_tone]
        before, after = (
            metrics.dynamic_metrics(rep, f_fund_hz=f_tone, m_channels=sc.config.m_channels,
                                    exclude_freqs=others)
            for rep in (rep_before, rep_after))
        img_before = [s.dbc for s in before.spurs if s.kind == "image" and not s.collision]
        img_after = [s.dbc for s in after.spurs if s.kind == "image" and not s.collision]
        rows.append({
            "f_in_hz": f_tone,
            "enob_before": before.enob_bits,
            "enob_after": after.enob_bits,
            "max_image_dbc_before": max(img_before) if img_before else -np.inf,
            "max_image_dbc_after": max(img_after) if img_after else -np.inf,
            "min_image_drop_db": float(min_observed_drop),
        })
    return rows, skipped


def _threshold_failures(sc: Scenario, rows: list) -> list:
    failures = []
    if sc.kind == "narrowband_contrast":
        # the narrowband design must hold at its design tone and fail in the upper band
        drop_at = {r["f_in_hz"]: r["min_image_drop_db"] for r in rows}
        f_near = min(drop_at, key=lambda f: abs(f - sc.design_tone))
        bound = float(sc.min_drop if sc.min_drop is not None else 30.0)
        if drop_at[f_near] < bound:
            failures.append(f"design tone {f_near:g} Hz only dropped {drop_at[f_near]:.1f} dB")
        if not any(drop_at[f] < bound for f in drop_at if f > sc.config.fs / 4):
            failures.append("no upper-band tone violated the suppression bound; "
                            "narrowband design unexpectedly held wideband")
        return failures
    for r in rows:
        f, drop, gain = r["f_in_hz"], r["min_image_drop_db"], r["enob_after"] - r["enob_before"]
        if sc.min_drop is not None and drop < sc.min_drop:
            failures.append(f"{f:g} Hz: image drop {drop:.1f} dB < {sc.min_drop:g} dB")
        if sc.min_gain is not None and gain < sc.min_gain:
            failures.append(f"{f:g} Hz: enob gain {gain:.2f} < {sc.min_gain:g}")
        if sc.min_after is not None and r["enob_after"] < sc.min_after:
            failures.append(f"{f:g} Hz: enob after {r['enob_after']:.2f} < {sc.min_after:g}")
    return failures


SUMMARY_COLUMNS = ("f_in_hz", "enob_before", "enob_after", "max_image_dbc_before",
                   "max_image_dbc_after")


def _write_summary(rows: list, out_dir: Path) -> Path:
    path = out_dir / "summary.csv"
    model.write_table(path, ",".join(SUMMARY_COLUMNS), [
        ",".join("%.17g" % r[key] for key in SUMMARY_COLUMNS) for r in rows])
    return path


def run_pipeline(scenario: dict, out_dir: Path) -> PipelineResult:
    """Check the whole scenario description, then run its stages: truth
    profile, calibrate, design, each sweep point, thresholds, summary.csv."""
    sc = parse_scenario(scenario)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = []
    with _stage("truth-profile"):
        truth = _truth_profile(sc)
    with _stage("calibrate"):
        measured = _calibrate(calibration.measure_plan(sc.cal_plan, sc.config, truth),
                              sc.config, out_dir / "measured_profile.csv", log.append)
    with _stage("design"):
        bank = _design(measured, sc.config, sc.spec, out_dir / "bank.csv",
                       out_dir / "pr_residual.csv", log.append)
    rows, skipped = [], 0
    with _stage("sweep"):
        for tones in sc.points:
            point_rows, point_skipped = _sweep_point(sc, tones, truth, measured, bank)
            rows += point_rows
            skipped += point_skipped
    failures = _threshold_failures(sc, rows)
    summary_path = _write_summary(rows, out_dir)
    log.append(f"swept {len(rows)} point(s); {len(failures)} threshold violation(s)")
    return PipelineResult(ok=not failures, rows=rows, failures=failures,
                          skipped_spurs=skipped, summary_path=summary_path,
                          log=log, bank=bank, measured_profile=measured)


# --- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise a TiadcError naming the
    command, so that main reports them like any other error."""

    def error(self, message):
        raise TiadcError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tiadc",
        description="Interleaved-ADC mismatch simulation, calibration, "
                    "filter-bank correction, and dynamic metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate an interleaved capture")
    p.add_argument("--config", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--tone", action="append", required=True,
                   metavar="AMP:FREQ[:PHASE]")
    p.add_argument("--dc", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="measure mismatches over a plan of tones")
    p.add_argument("--config", required=True)
    p.add_argument("--plan", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--truth-profile", help="profile to simulate captures from")
    source.add_argument("--captures", help="directory of recorded captures cal_NNN.f64")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("design", help="design a correction filter bank")
    p.add_argument("--config", required=True)
    p.add_argument("--profile", required=True)
    # the design options default to DesignSpec's own defaults
    p.add_argument("--n-grid", type=int, default=argparse.SUPPRESS)
    p.add_argument("--taps", type=int, default=argparse.SUPPRESS)
    p.add_argument("--delay", dest="delay_d", type=int, default=argparse.SUPPRESS)
    p.add_argument("--window", choices=design.WINDOWS, default=argparse.SUPPRESS)
    p.add_argument("--kaiser-beta", type=float, default=argparse.SUPPRESS)
    p.add_argument("--zone", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.add_argument("--residual-out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("correct", help="apply offset and filter-bank correction")
    p.add_argument("--capture", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--profile", help="profile for offset removal")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("analyze", help="spectrum and dynamic metrics of a capture")
    p.add_argument("--capture", required=True)
    p.add_argument("--n-fft", type=int, default=4096)
    p.add_argument("--window", default="none", choices=metrics.ANALYSIS_WINDOWS)
    p.add_argument("--f-fund", type=float, default=None)
    p.add_argument("--harmonics", type=int, default=5)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pipeline", help="run a scripted scenario end to end")
    p.add_argument("--scenario", required=True,
                   help="path to a scenario JSON or one of: "
                        + ", ".join(BUNDLED_SCENARIOS))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # named like the subcommand's other usage errors
            raise TiadcError(f"tiadc {args.command}: unrecognized arguments: {' '.join(extra)}")
        return args.func(args) or 0
    except (TiadcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
