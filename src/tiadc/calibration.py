"""Mismatch estimation from injected sine tones.

A coherent tone is captured, the record is split per channel, and a
known-frequency three-parameter least-squares fit recovers each channel's
amplitude, phase, and DC. Gain and timing errors are reported relative to
channel 0; repeating over a series of frequencies yields an interpolatable
mismatch profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tiadc import model
from tiadc.model import (Capture, MismatchProfile, TiadcConfig, TiadcError,
                         ToneSpec, TWO_PI)


class DegenerateInputError(TiadcError):
    """The fit problem is rank deficient (tone at DC or Nyquist of the fit rate)."""


class UnreliableMeasurementError(TiadcError):
    """Fundamental amplitude too close to the residual floor to trust."""


@dataclass(frozen=True)
class SineFitResult:
    amplitude: float
    phase_rad: float
    dc: float
    rms_residual: float


def fit_basis(n: int, freq_ratio: float) -> np.ndarray:
    """The (n, 3) least-squares basis [cos, sin, 1] of a known-frequency sine
    fit, shared by every record of n samples at freq_ratio."""
    if n < 8:
        raise ValueError("need at least 8 samples")
    theta = TWO_PI * freq_ratio * np.arange(n)
    return np.column_stack([np.cos(theta), np.sin(theta), np.ones(n)])


def _fit(basis: np.ndarray, x: np.ndarray, freq_ratio: float) -> SineFitResult:
    coef, _, rank, _ = np.linalg.lstsq(basis, x, rcond=None)
    if rank < 3:
        raise DegenerateInputError(
            f"rank-deficient fit at freq_ratio {freq_ratio}")
    a, b, dc = coef
    amplitude = float(np.hypot(a, b))
    phase = float(np.arctan2(-b, a))  # a = A*cos(phi), b = -A*sin(phi)
    resid = x - basis @ coef
    return SineFitResult(amplitude=amplitude, phase_rad=phase, dc=float(dc),
                         rms_residual=float(np.sqrt(np.mean(resid ** 2))))


def sine_fit(samples, freq_ratio: float) -> SineFitResult:
    """Known-frequency least-squares fit of A*cos(2*pi*freq_ratio*i + phi) + DC.

    freq_ratio is in cycles per sample and must lie strictly inside (0, 0.5).
    The fit is exact on noiseless model data.
    """
    x = np.asarray(samples, dtype=np.float64)
    basis = fit_basis(x.size, freq_ratio)
    if not 0.0 < freq_ratio < 0.5:
        raise DegenerateInputError(f"freq_ratio {freq_ratio} outside (0, 0.5)")
    return _fit(basis, x, freq_ratio)


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


def _wrap_pm_pi(x):
    return (x + np.pi) % TWO_PI - np.pi


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
    ratio = 1.0 - ratio_raw if flip else ratio_raw
    # every channel of the tone shares one basis; one lstsq per channel keeps
    # each fit's arithmetic that of sine_fit
    basis = fit_basis(rows.shape[0], ratio)
    fits = [_fit(basis, rows[:, m], ratio) for m in range(m_ch)]
    for m, fit in enumerate(fits):
        if fit.amplitude < 10.0 * fit.rms_residual:
            raise UnreliableMeasurementError(
                f"channel {m} fundamental at {f_in_hz} Hz is below 10x the noise floor")
    phases = np.array([(-f.phase_rad if flip else f.phase_rad) for f in fits])
    amps = np.array([f.amplitude for f in fits])
    if amps[0] == 0:
        raise UnreliableMeasurementError("reference channel has zero amplitude")
    omega = TWO_PI * f_in_hz
    gain_rel = amps / amps[0]
    gain_rel[0] = 1.0
    dphi = _wrap_pm_pi(phases - phases[0] - omega * np.arange(m_ch) * config.ts)
    dt = dphi / omega
    dt[0] = 0.0
    offs = np.array([f.dc for f in fits]) / config.lsb
    return MismatchMeasurement(freq_hz=f_in_hz, gain_rel=gain_rel, dt_s=dt,
                               offset_lsb=offs)


def build_profile(measurements, config: TiadcConfig) -> MismatchProfile:
    """Assemble measurements into a profile with linear interpolation knots.

    Offsets are averaged across the measurement frequencies into the constant
    per-channel offset column.
    """
    if len(measurements) < 2:
        raise ValueError("need at least 2 measurements at distinct frequencies")
    meas = sorted(measurements, key=lambda m: m.freq_hz)
    freqs = np.array([m.freq_hz for m in meas])
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("measurement frequencies must be distinct")
    m_ch = meas[0].m_channels
    if any(m.m_channels != m_ch for m in meas) or m_ch != config.m_channels:
        raise ValueError("inconsistent channel counts across measurements")
    gain = np.column_stack([m.gain_rel for m in meas])
    dt = np.column_stack([m.dt_s for m in meas])
    offs = np.mean(np.column_stack([m.offset_lsb for m in meas]), axis=1)
    return MismatchProfile(freqs_hz=freqs, gain=gain, dt_s=dt, offset_lsb=offs)


def constant_profile(measurement: MismatchMeasurement, config: TiadcConfig) -> MismatchProfile:
    """Frequency-independent profile over [0, fs] from one (narrowband) measurement."""
    freqs = np.array([0.0, config.fs])
    return MismatchProfile(
        freqs_hz=freqs,
        gain=np.repeat(measurement.gain_rel[:, None], 2, axis=1),
        dt_s=np.repeat(measurement.dt_s[:, None], 2, axis=1),
        offset_lsb=measurement.offset_lsb.copy(),
    )


def measure_plan(plan, config: TiadcConfig, truth_profile: MismatchProfile):
    """Simulate one injection capture per plan row and measure the mismatch.

    plan rows are (freq_hz, amplitude_v, n_samples), as read_plan_csv
    returns them; each frequency must already be coherent with its record
    length (see metrics.coherent_bin). Returns one measurement per row.
    """
    measurements = []
    for f, amplitude, n_samples in plan:
        cap = model.simulate_capture(ToneSpec.single(amplitude, f), config,
                                     truth_profile, n_samples)
        measurements.append(estimate_mismatch_at(cap, f, config))
    return measurements


def run_calibration(truth_profile: MismatchProfile, config: TiadcConfig,
                    freqs_hz, amplitude: float, n_samples: int):
    """Simulate injection captures at each frequency and measure the mismatch.

    Returns (measurements, profile). Frequencies must already be coherent
    with the record length (see metrics.coherent_bin).
    """
    measurements = measure_plan([(f, amplitude, n_samples) for f in freqs_hz],
                                config, truth_profile)
    return measurements, build_profile(measurements, config)


PLAN_CSV_HEADER = "freq_hz,amplitude_v,n_samples"


def write_plan_csv(rows, path):
    model.write_table(path, PLAN_CSV_HEADER, ["%.17g,%.17g,%d" % row for row in rows])


def read_plan_csv(path):
    """Calibration plan rows as (freq_hz, amplitude_v, n_samples) tuples."""
    return model.read_table(path, "calibration plan", PLAN_CSV_HEADER, (float, float, int))[1]
