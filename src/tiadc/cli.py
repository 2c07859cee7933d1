"""Command-line front end: the simulate, calibrate, design, correct, analyze
and pipeline subcommands. Scenario parsing, the stages and run_pipeline are
in tiadc.pipeline; calibrate and design run its stage code.

Every failure exits 1 with a single "error: ..." line on stderr; a warning
raised while a subcommand runs is one "warning: ..." line there.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from tiadc import calibration, correction, design, metrics, model
from tiadc.model import TiadcConfig, TiadcError, Tone, ToneSpec, named
from tiadc.pipeline import (BUNDLED_SCENARIOS, calibrate, design_bank, load_scenario,
                            read_profile, run_pipeline)


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


# --- subcommands -------------------------------------------------------------

def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.n <= 0 or args.n % config.m_channels:
        raise TiadcError(f"--n must be a positive multiple of m_channels = "
                         f"{config.m_channels}, got {args.n}")
    profile = read_profile(args.profile, config.m_channels, args.config)
    tones = ToneSpec(tones=tuple(_parse_tone(t) for t in args.tone), dc=args.dc)
    capture = model.simulate_capture(tones, config, profile, args.n)
    model.save_capture(capture, args.out)
    tone_txt = ", ".join(f"{t.amplitude:g} V @ {t.freq_hz:g} Hz" for t in tones.tones)
    print(f"simulated {capture.n} samples at fs = {config.fs:g} Hz, "
          f"M = {config.m_channels}, tones: {tone_txt}")
    return 0


def _recorded_captures(plan, config: TiadcConfig, args):
    """Load each plan row's recorded capture, args.captures/cal_NNN.f64, one at a time;
    its sidecar states how it was taken, which must be what the config and the row say."""
    for i, (_freq, _amp, n_samples) in enumerate(plan):
        path = Path(args.captures) / f"cal_{i:03d}.f64"
        capture = model.load_capture(path)
        for key, value in vars(config).items():
            if getattr(capture.config, key) != value:
                raise TiadcError(f"{path}.json: {key} = {getattr(capture.config, key)!r}, "
                                 f"but {args.config} has {key} = {value!r}")
        if capture.n != n_samples:
            raise TiadcError(f"{path}.json: n = {capture.n}, but the plan row "
                             f"asks for n_samples = {n_samples}")
        yield capture


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    plan = calibration.read_plan_csv(args.plan, config.m_channels)
    if args.captures is not None:  # "" names the working directory
        captures = _recorded_captures(plan, config, args)
    else:
        truth = read_profile(args.truth_profile, config.m_channels, args.config)
        captures = calibration.simulate_plan(plan, config, truth)
    calibrate(calibration.measure_plan(plan, captures), config, args.out, print)
    return 0


def cmd_design(args) -> int:
    config = load_config(args.config)
    profile = read_profile(args.profile, config.m_channels, args.config)
    # options left out are absent from args, so DesignSpec supplies them
    spec = design.DesignSpec(**{f.name: getattr(args, f.name)
                                for f in fields(design.DesignSpec) if hasattr(args, f.name)})
    design_bank(profile, config, spec, args.out, args.residual_out, print)
    return 0


def cmd_correct(args) -> int:
    """Correct the capture block by block: memory use does not grow with its
    length. The output goes to <out>.part, which replaces <out> once it is
    whole; the sidecar is written last."""
    n, header = model.capture_header(args.capture)
    config = header["config"]
    m_ch = config.m_channels
    bank = design.read_bank_csv(args.bank)
    profile = (read_profile(args.profile, m_ch, f"the capture {args.capture}")
               if args.profile else None)
    stream = correction.record_stream(bank, config, n)
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


def _print_warning(message, *_where):
    print(f"warning: {message}", file=sys.stderr)


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
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args) or 0
    except (TiadcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
