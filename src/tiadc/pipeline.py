"""The scenario pipeline: read and check a scenario description in full, then
run its stages (truth profile, calibrate, design, each sweep point,
thresholds, summary.csv). The calibrate and design stages are also the code
the calibrate and design subcommands run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from tiadc import calibration, correction, design, metrics, model
from tiadc.model import TiadcConfig, TiadcError, Tone, ToneSpec, json_fields, named, positive


def read_profile(path, m_channels: int, owner: str):
    """The profile file at path, which must have the m_channels channels of owner."""
    profile = model.read_profile_csv(path)
    if profile.m_channels != m_channels:
        raise TiadcError(f"{path}: profile has {profile.m_channels} channels, "
                         f"but {owner} has m_channels = {m_channels}")
    return profile


# --- stages shared by the subcommands and the pipeline -----------------------

def calibrate(measurements, config: TiadcConfig, path, report):
    """Turn the measurements into a profile and write it to path."""
    profile = calibration.build_profile(measurements, config)
    model.write_profile_csv(profile, path)
    report(f"calibrated {len(measurements)} frequencies -> {path}")
    return profile


def design_bank(profile, config: TiadcConfig, spec: design.DesignSpec, path,
                residual_path, report):
    """Warn when the profile table misses the zone's band, or stops short of an
    edge by more than its widest row spacing; design the bank and check its PR
    residual; write the bank to path and, when residual_path is given, the residual to it."""
    f, (lo, hi) = profile.freqs_hz, spec.band_hz(config.fs)
    if f[-1] <= lo or f[0] >= hi or max(f[0] - lo, hi - f[-1]) > np.diff(f).max(initial=0):
        report(f"warning: profile table covers [{f[0]:g}, {f[-1]:g}] Hz but zone "
               f"{spec.zone} needs [{lo:g}, {hi:g}] Hz; clamped end values will be used")
    bank = design.design_filter_bank(profile, config, spec)
    design.write_bank_csv(bank, path)
    residual = design.pr_residual(bank, profile, config, n_check=512)
    if residual_path:
        design.write_residual_csv(residual, residual_path)
    report(f"designed bank {bank.bank_id} -> {path}; "
           f"max alias residual = {residual.max_alias():.3e}")
    return bank


# --- scenarios ----------------------------------------------------------------

BUNDLED_SCENARIOS = ("wideband_zone1", "undersampling_zone2", "twotone_zone1",
                     "narrowband_contrast")
SCENARIO_KINDS = ("sweep", "two_tone", "narrowband_contrast")
# the most samples a calibration plan, or a sweep, may simulate: four records at the cap
MAX_PLAN_SAMPLES = 4 * model.MAX_RECORD_SAMPLES

# truth-profile type -> (the fields its block reads besides type, the profile
# built from the block as read and the scenario config)
TRUTH_PROFILES = {
    "reference": ({}, lambda block, config: model.make_reference_profile(config)),
    "ideal": ({}, lambda block, config: model.MismatchProfile.ideal(config.m_channels, config.fs)),
    "csv": ({"path": "str"}, lambda block, config: read_profile(
        block["path"], config.m_channels, "the scenario config")),
}


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
    truth: dict  # the truth_profile block as read; its type is a TRUTH_PROFILES key
    cal_plan: tuple  # calibration.plan_row rows, coherent and distinct
    spec: design.DesignSpec
    n_read: int  # samples a sweep point simulates and corrects: all its analysis reads
    n_fft: int
    points: tuple  # sweep points, one ToneSpec each
    thresholds: dict  # the thresholds block as read; a None bound is unset
    design_tone: float | None  # narrowband_contrast: the first calibration target


@dataclass(frozen=True)
class PipelineResult:
    ok: bool
    rows: list
    failures: list
    skipped_spurs: int
    summary_path: Path
    log: list
    bank: design.FilterBank
    measured_profile: model.MismatchProfile


def _target_kinds(block: dict, list_key: str, count_key: str) -> dict:
    """The kinds of a block's tone targets: the list list_key when the block
    holds it, else count_key points spaced evenly from f_lo_hz to f_hi_hz."""
    return ({list_key: "reals"} if list_key in block
            else {"f_lo_hz": "real", "f_hi_hz": "real", count_key: "int"})


def _check_plan_samples(count: int, n: int, records: str):
    """Reject count records of n samples each, described as records, when
    they total more than MAX_PLAN_SAMPLES."""
    if count * n > MAX_PLAN_SAMPLES:
        raise ValueError(f"{records} must total at most {MAX_PLAN_SAMPLES} samples, "
                         f"got {count * n}")


def _coherent_targets(block: dict, list_key: str, count_key: str, fs: float, n: int,
                      n_record: int, records: str) -> list:
    """The distinct coherent frequencies, in order, nearest the tone targets
    (_target_kinds) read into block, for an n-sample record. A count may name
    at most n/2, the distinct coherent frequencies the record holds, and the
    targets, n_record samples each described as records after the count, must
    pass _check_plan_samples before any is made."""
    targets = block.get(list_key)
    count = block[count_key] if targets is None else len(targets)
    if targets is None and not 1 <= count <= n // 2:
        raise ValueError(f"{count_key} must be from 1 to {n // 2}, half the "
                         f"{n}-sample record, got {count}")
    _check_plan_samples(count, n_record, f"{count} {records}")
    if targets is None:
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
        extra = {}
        if isinstance(truth_type, str):  # any other type fails as the type field
            if truth_type not in TRUTH_PROFILES:
                raise ValueError(f"unknown type {truth_type!r}")
            extra = TRUTH_PROFILES[truth_type][0]
        truth = json_fields(top["truth_profile"], {"type": "str", **extra})

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
                         for f in _coherent_targets(cal, "freqs_hz", "n_freqs", fs, n_cal,
                                                    n_cal, f"records of n_samples = {n_cal}"))
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
            # the bound is the sweep's, checked before any tone is read
            _check_plan_samples(len(tones), n_read, f"{len(tones)} tones of {n_read} samples")
            with named(where):
                point = {}  # coherent frequency -> Tone
                for i, tone in enumerate(tones):
                    if not isinstance(tone, dict):
                        raise ValueError(f"tones[{i}] must be a JSON object, got {tone!r}")
                    with named(f"{where}: tones[{i}]"):
                        tone = json_fields(tone, {"f_target_hz": "real",
                                                  "amplitude_v": ("real", amp)})
                        positive("amplitude_v", tone["amplitude_v"])
                        f = metrics.coherent_bin(tone["f_target_hz"], fs, n_fft)[1]
                        if f in point:  # one line in the spectrum, not two tones
                            raise ValueError(
                                f"f_target_hz {tone['f_target_hz']!r} falls on {f!r} Hz, "
                                f"the coherent frequency of tones[{list(point).index(f)}]")
                        point[f] = Tone(tone["amplitude_v"], f)
            points = (ToneSpec(tones=tuple(point.values())),)
        else:
            points = tuple(ToneSpec.single(amp, f) for f in _coherent_targets(
                sweep, "f_targets_hz", "n_tones", fs, n_fft, n_read, f"tones of {n_read} samples"))

    return Scenario(
        kind=kind, config=config, truth=truth, cal_plan=cal_plan, spec=spec,
        n_read=n_read, n_fft=n_fft, points=points, thresholds=thresholds,
        design_tone=design_tone)


# --- stages -------------------------------------------------------------------

def _stage(name):
    """Prefix the stage name to a bad-input error or a failed allocation raised
    inside the block. Any other exception is a bug and propagates with its traceback."""
    return named(f"stage {name}", (TiadcError, ValueError, OSError, MemoryError))


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
    ref, floor = sc.config.full_scale / 2.0, sc.thresholds["spur_floor_dbfs"]
    images = [ln for ln in lines if ln.kind == "image"]
    seen = [rep_before.bin_of(ln.freq_hz) for ln in images
            if 20.0 * np.log10(max(ln.amplitude_v / ref, 1e-30)) >= floor]
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
    min_drop = sc.thresholds["min_image_drop_db"]
    if sc.kind == "narrowband_contrast":
        # the narrowband design must hold at its design tone and fail in the upper band
        drop_at = {r["f_in_hz"]: r["min_image_drop_db"] for r in rows}
        f_near = min(drop_at, key=lambda f: abs(f - sc.design_tone))
        bound = float(min_drop if min_drop is not None else 30.0)
        if drop_at[f_near] < bound:
            failures.append(f"design tone {f_near:g} Hz only dropped {drop_at[f_near]:.1f} dB")
        if not any(drop_at[f] < bound for f in drop_at if f > sc.config.fs / 4):
            failures.append("no upper-band tone violated the suppression bound; "
                            "narrowband design unexpectedly held wideband")
        return failures
    min_gain, min_after = sc.thresholds["min_enob_gain_bits"], sc.thresholds["min_enob_after_bits"]
    for r in rows:
        f, drop, gain = r["f_in_hz"], r["min_image_drop_db"], r["enob_after"] - r["enob_before"]
        if min_drop is not None and drop < min_drop:
            failures.append(f"{f:g} Hz: image drop {drop:.1f} dB < {min_drop:g} dB")
        if min_gain is not None and gain < min_gain:
            failures.append(f"{f:g} Hz: enob gain {gain:.2f} < {min_gain:g}")
        if min_after is not None and r["enob_after"] < min_after:
            failures.append(f"{f:g} Hz: enob after {r['enob_after']:.2f} < {min_after:g}")
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
        truth = TRUTH_PROFILES[sc.truth["type"]][1](sc.truth, sc.config)
    with _stage("calibrate"):
        captures = calibration.simulate_plan(sc.cal_plan, sc.config, truth)
        measured = calibrate(calibration.measure_plan(sc.cal_plan, captures),
                             sc.config, out_dir / "measured_profile.csv", log.append)
    with _stage("design"):
        bank = design_bank(measured, sc.config, sc.spec, out_dir / "bank.csv",
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
