"""Mismatch estimation from injected sine tones.

A coherent tone is captured, the record is split per channel, and a
known-frequency three-parameter least-squares fit recovers each channel's
amplitude, phase, and DC. Gain and timing errors are reported relative to
channel 0; repeating over a series of frequencies yields an interpolatable
mismatch profile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from tiadc import model
from tiadc.model import (Capture, MismatchProfile, TiadcConfig, TiadcError,
                         ToneSpec, TWO_PI)


class DegenerateInputError(TiadcError):
    """The fit problem is rank deficient (tone at DC or Nyquist of the fit rate)."""


class UnreliableMeasurementError(TiadcError):
    """Fundamental amplitude too close to the residual floor to trust."""


def fit_channels(rows: np.ndarray, freq_ratio: float) -> np.ndarray:
    """Known-frequency least-squares fit of A*cos(2*pi*freq_ratio*i + phi) + DC
    to each column of rows (IEEE Std 1057's three-parameter fit), freq_ratio
    in cycles per sample.

    Returns a (4, columns) array whose rows are the amplitudes, the phases phi
    (rad), the DCs and the RMS residuals. Every column shares one [cos, sin, 1]
    basis and gets its own lstsq; the fit is exact on noiseless model data.
    """
    n = rows.shape[0]
    if n < 8:
        raise ValueError("need at least 8 samples")
    theta = TWO_PI * freq_ratio * np.arange(n)
    basis = np.column_stack([np.cos(theta), np.sin(theta), np.ones(n)])
    fits = np.empty((4, rows.shape[1]))
    for m in range(rows.shape[1]):
        coef, _, rank, _ = np.linalg.lstsq(basis, rows[:, m], rcond=None)
        if rank < 3:
            raise DegenerateInputError(f"rank-deficient fit at freq_ratio {freq_ratio}")
        a, b, dc = coef  # a = A*cos(phi), b = -A*sin(phi)
        resid = rows[:, m] - basis @ coef
        fits[:, m] = np.hypot(a, b), np.arctan2(-b, a), dc, np.sqrt(np.mean(resid ** 2))
    return fits


@dataclass(frozen=True)
class MismatchMeasurement:
    """Relative mismatch of every channel at one injection frequency."""

    freq_hz: float
    gain_rel: np.ndarray
    dt_s: np.ndarray
    offset_lsb: np.ndarray

    @property
    def m_channels(self) -> int:
        return self.gain_rel.size


def estimate_mismatch_at(capture: Capture, f_in_hz: float,
                         config: TiadcConfig | None = None) -> MismatchMeasurement:
    """Per-channel relative gain/timing/offset from a single-tone capture.

    The capture must hold one coherent tone at f_in_hz (true analog
    frequency; for under-sampled captures pass the analog frequency, not its
    alias). Phase differences are unwrapped to the 2*pi multiple that
    minimizes |dt|, which limits usable timing errors to |dt| < pi/omega.
    A config given must equal capture.config.
    """
    if config is not None and config != capture.config:
        raise ValueError("config does not match the capture's config")
    config = capture.config
    m_ch = config.m_channels
    cycles = f_in_hz * capture.n / config.fs
    if abs(cycles - round(cycles)) > 1e-6 * max(1.0, abs(cycles)):
        raise ValueError(
            f"tone at {f_in_hz} Hz is not coherent with a {capture.n}-sample record")
    rows = capture.samples.reshape(-1, m_ch)  # column m is channel m
    ratio_raw = (f_in_hz * m_ch / config.fs) % 1.0
    if min(ratio_raw, abs(ratio_raw - 0.5), 1.0 - ratio_raw) < 1e-12:
        raise DegenerateInputError(
            f"tone at {f_in_hz} Hz aliases to DC or Nyquist of the channel rate")
    flip = ratio_raw > 0.5
    amps, phases, dcs, rms = fit_channels(rows, 1.0 - ratio_raw if flip else ratio_raw)
    weak = np.flatnonzero(amps < 10.0 * rms)
    if weak.size:
        raise UnreliableMeasurementError(
            f"channel {weak[0]} fundamental at {f_in_hz} Hz is below 10x the noise floor")
    if flip:
        phases = -phases
    if amps[0] == 0:
        raise UnreliableMeasurementError("reference channel has zero amplitude")
    omega = TWO_PI * f_in_hz
    gain_rel = amps / amps[0]
    gain_rel[0] = 1.0
    dphi = phases - phases[0] - omega * np.arange(m_ch) * config.ts
    dt = ((dphi + np.pi) % TWO_PI - np.pi) / omega  # the phase wrapped into [-pi, pi)
    dt[0] = 0.0
    return MismatchMeasurement(freq_hz=f_in_hz, gain_rel=gain_rel, dt_s=dt,
                               offset_lsb=dcs / config.lsb)


def build_profile(measurements, config: TiadcConfig) -> MismatchProfile:
    """Assemble one or more measurements into a profile with linear
    interpolation knots. One (narrowband) measurement holds over [0, fs]: its
    knots sit at 0 and at fs, its offsets copied. More are averaged across
    the frequencies into the constant per-channel offset column."""
    if not measurements:
        raise ValueError("need at least 1 measurement")
    meas = sorted(measurements, key=lambda m: m.freq_hz)
    if any(m.m_channels != config.m_channels for m in meas):
        raise ValueError("inconsistent channel counts across measurements")
    if len(meas) == 1:
        offs = meas[0].offset_lsb.copy()
        meas = [replace(meas[0], freq_hz=f) for f in (0.0, config.fs)]
    else:
        offs = np.mean(np.column_stack([m.offset_lsb for m in meas]), axis=1)
    freqs = np.array([m.freq_hz for m in meas])
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("measurement frequencies must be distinct")
    gain = np.column_stack([m.gain_rel for m in meas])
    dt = np.column_stack([m.dt_s for m in meas])
    return MismatchProfile(freqs_hz=freqs, gain=gain, dt_s=dt, offset_lsb=offs)


def constant_profile(measurement: MismatchMeasurement, config: TiadcConfig) -> MismatchProfile:
    """Frequency-independent profile over [0, fs] from one (narrowband) measurement."""
    return build_profile([measurement], config)


def simulate_plan(plan, config: TiadcConfig, truth_profile: MismatchProfile):
    """Simulate each plan row's injection capture from truth_profile, one at a time."""
    for f, amplitude, n_samples in plan:
        yield model.simulate_capture(ToneSpec.single(amplitude, f), config,
                                     truth_profile, n_samples)


def measure_plan(plan, captures):
    """One measurement per plan row, on its capture: captures holds one per row,
    in order (simulate_plan's, or recorded ones). plan rows are (freq_hz,
    amplitude_v, n_samples), as read_plan_csv returns them; each frequency must
    already be coherent with its record length (see metrics.coherent_bin)."""
    return [estimate_mismatch_at(capture, f)
            for (f, _, _), capture in zip(plan, captures, strict=True)]


def run_calibration(truth_profile: MismatchProfile, config: TiadcConfig,
                    freqs_hz, amplitude: float, n_samples: int):
    """Simulate injection captures at each frequency and measure the mismatch.

    Returns (measurements, profile). Frequencies must already be coherent
    with the record length (see metrics.coherent_bin).
    """
    plan = [(f, amplitude, n_samples) for f in freqs_hz]
    measurements = measure_plan(plan, simulate_plan(plan, config, truth_profile))
    return measurements, build_profile(measurements, config)


PLAN_CSV_HEADER = "freq_hz,amplitude_v,n_samples"


def write_plan_csv(rows, path):
    model.write_table(path, PLAN_CSV_HEADER, ["%.17g,%.17g,%d" % row for row in rows])


def plan_row(freq_hz: float, amplitude_v: float, n_samples: int, m_channels: int) -> tuple:
    """One calibration plan row, checked: freq_hz and amplitude_v finite and
    > 0, n_samples a positive multiple of m_channels."""
    model.positive("freq_hz", freq_hz)
    model.positive("amplitude_v", amplitude_v)
    if n_samples <= 0 or n_samples % m_channels:
        raise ValueError(f"n_samples must be a positive multiple of m_channels = "
                         f"{m_channels}, got {n_samples}")
    if n_samples > model.MAX_RECORD_SAMPLES:
        raise ValueError(f"n_samples must be at most {model.MAX_RECORD_SAMPLES}, got {n_samples}")
    return freq_hz, amplitude_v, n_samples


def read_plan_csv(path, m_channels: int):
    """Calibration plan rows as (freq_hz, amplitude_v, n_samples) tuples, each
    checked by plan_row."""
    return model.read_table(path, "calibration plan", PLAN_CSV_HEADER, (float, float, int),
                            check=lambda *row: plan_row(*row, m_channels))[1]
