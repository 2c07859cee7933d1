"""Spectra and dynamic performance metrics for interleaved-ADC records.

Single-sided amplitude spectra are referenced so a coherent sine at half the
full-scale range reads 0 dBFS. SNR, SINAD, THD, SFDR, and ENOB follow the
usual sine-test definitions; interleave images and offset spurs get their own
table with alias-index labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from tiadc.design import window_taps
from tiadc.model import Capture, TiadcError, fold_frequency, write_table

DB_FLOOR = -300.0


def coherent_bin(f_target: float, fs: float, n_fft: int):
    """Pick a coherent test frequency near f_target for an n_fft record.

    Returns (J, f_actual) where J is the number of whole cycles in the
    record: the odd integer coprime to n_fft closest to f_target*n_fft/fs
    (ties go to the smaller J), and f_actual = J*fs/n_fft.
    """
    if not 0 < f_target < fs:
        raise ValueError("f_target must lie in (0, fs)")
    if n_fft < 4 or n_fft & (n_fft - 1):
        raise ValueError("n_fft must be a power of two")
    # n_fft is a power of two, so every odd J is coprime to it
    j = min(max(2 * math.ceil(f_target * n_fft / fs / 2 - 1) + 1, 1), n_fft - 1)
    return j, j * fs / n_fft


@dataclass(frozen=True)
class SpurEntry:
    k: int
    freq_hz: float
    dbc: float
    kind: str  # "image" or "offset_spur"
    collision: bool = False


@dataclass(frozen=True)
class SpectrumReport:
    """FFT bins plus (once computed) the sine-test metric block."""

    n_fft: int
    window: str
    fs: float
    full_scale: float
    freqs_hz: np.ndarray
    power_dbfs: np.ndarray
    mean_square: np.ndarray  # per-bin contribution to the time-domain mean square
    fundamental_bin: int | None = None
    snr_db: float | None = None
    sinad_db: float | None = None
    thd_db: float | None = None
    sfdr_db: float | None = None
    enob_bits: float | None = None
    spurs: tuple = ()

    @property
    def n_bins(self) -> int:
        return self.freqs_hz.size

    def bin_of(self, freq_hz: float) -> int:
        return int(round(fold_frequency(freq_hz, self.fs) / self.fs * self.n_fft))


# design.WINDOWS minus kaiser: dynamic_metrics gathers only +-1 bin around
# each line, and kaiser is kept for tap design
ANALYSIS_WINDOWS = ("none", "hann", "blackman")


def spectrum(capture: Capture, n_fft: int, window: str = "none") -> SpectrumReport:
    """Single-sided spectrum of the first n_fft non-transient samples."""
    if n_fft < 4 or n_fft & (n_fft - 1):
        raise ValueError("n_fft must be a power of two")
    t = capture.transient_samples
    x = capture.samples[t:capture.n - t]
    if x.size < n_fft:
        raise ValueError(
            f"capture too short: {x.size} usable samples, n_fft = {n_fft}")
    x = x[:n_fft]
    if window not in ANALYSIS_WINDOWS:
        raise ValueError(f"unknown analysis window {window!r}")
    if window == "none":
        bins, cg = np.fft.rfft(x), 1.0
    else:
        w = window_taps(window, n_fft)
        bins, cg = np.fft.rfft(x * w), w.mean()
    amp = np.abs(bins) / (n_fft * cg)
    amp[1:-1] *= 2.0  # interior bins carry both spectral halves
    ref = capture.config.full_scale / 2.0
    power_dbfs = 20.0 * np.log10(np.maximum(amp / ref, 10.0 ** (DB_FLOOR / 20.0)))
    mean_square = amp ** 2 / 2.0
    mean_square[0] = amp[0] ** 2
    mean_square[-1] = amp[-1] ** 2
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / capture.fs)
    return SpectrumReport(
        n_fft=n_fft, window=window, fs=capture.fs,
        full_scale=capture.config.full_scale, freqs_hz=freqs,
        power_dbfs=power_dbfs, mean_square=mean_square)


def _bin_mask(n_bins: int, centers, width: int) -> np.ndarray:
    """Boolean mask marking [max(0, c - width), min(n_bins - 1, c + width)]
    for every centre c."""
    mask = np.zeros(n_bins, dtype=bool)
    for c in centers:
        mask[max(0, c - width):min(n_bins - 1, c + width) + 1] = True
    return mask


def _pool_sum(ms: np.ndarray, mask: np.ndarray) -> float:
    """Sum of ms over the masked bins, added one at a time in ascending bin
    order (np.sum's pairwise summation would move the last digits)."""
    pool = ms[mask]
    return float(np.cumsum(pool)[-1]) if pool.size else 0.0


def dynamic_metrics(report: SpectrumReport, f_fund_hz: float | None = None,
                    m_channels: int = 1, harmonics: int = 5,
                    exclude_freqs=()) -> SpectrumReport:
    """Fill in SNR/SINAD/THD/SFDR/ENOB and the interleave spur table.

    SNR excludes the fundamental, DC, the first `harmonics` harmonic bins,
    and the interleave spur bins; SINAD excludes only the fundamental and DC,
    so interleave spurs degrade it (and ENOB). Windowed spectra gather 3 bins
    of energy around each line. exclude_freqs lists extra tones (e.g. the
    second tone of a two-tone test) removed from the noise and spur pools.
    SFDR is the fundamental over the largest bin of the SINAD pool.
    """
    if harmonics < 0:
        raise ValueError(f"harmonics must be >= 0, got {harmonics}")
    most = max(report.n_fft // 2, 5)  # more orders fold onto listed bins; 5 is the default
    if harmonics > most:
        raise ValueError(f"harmonics must be at most {most} for n_fft = {report.n_fft}, "
                         f"got {harmonics}")
    if f_fund_hz is not None and not np.isfinite(f_fund_hz):
        raise ValueError(f"fundamental frequency must be finite, got {f_fund_hz}")
    n_bins = report.n_bins
    n_half = n_bins - 1
    ms = report.mean_square
    gather = 0 if report.window == "none" else 1
    if f_fund_hz is None:
        fund_bin = 1 + int(np.argmax(ms[1:n_half]))
    else:
        fund_bin = report.bin_of(f_fund_hz)
    if not 1 <= fund_bin < n_half:
        raise TiadcError("fundamental not inside (0, fs/2)")
    if ms[fund_bin] <= 0 or report.power_dbfs[fund_bin] <= DB_FLOOR + 1:
        raise TiadcError("fundamental not found above the measurement floor")
    fund = _bin_mask(n_bins, [fund_bin], gather)
    dc = _bin_mask(n_bins, [0], gather)
    f_fund = report.freqs_hz[fund_bin]

    harm = _bin_mask(n_bins, [report.bin_of(h * f_fund)
                              for h in range(2, harmonics + 2)], gather)
    # the interleave lines: the images at fold(k*fs/M +- f_fund), each bin
    # listed once and flagged as a collision on the fundamental's bin, then
    # the offset spurs at k*fs/M off DC and the fundamental's bin
    lines = [("image", k, k * report.fs / m_channels + sign * f_fund)
             for k in range(1, m_channels) for sign in (1, -1)]
    lines += [("offset_spur", k, k * report.fs / m_channels) for k in range(1, m_channels)]
    fund_db = _gathered_db(report, fund_bin, gather)
    spur_entries, spur_centers, image_bins = [], [], set()
    for kind, k, f_line in lines:
        b = report.bin_of(f_line)
        if b in (image_bins if kind == "image" else (0, fund_bin)):
            continue
        if kind == "image":
            image_bins.add(b)
        collision = b == fund_bin  # only an image gets here on that bin
        if not collision:
            spur_centers.append(b)
        dbc = 0.0 if collision else _gathered_db(report, b, gather) - fund_db
        spur_entries.append(SpurEntry(k=k, freq_hz=report.freqs_hz[b], dbc=dbc,
                                      kind=kind, collision=collision))
    spur = _bin_mask(n_bins, spur_centers, gather)
    excl = _bin_mask(n_bins, [report.bin_of(f) for f in exclude_freqs], gather)

    sinad_pool = ~(fund | dc | excl)
    if not sinad_pool.any():
        raise TiadcError("no bins left outside the fundamental, DC and excluded tones")
    p_fund = _pool_sum(ms, fund)
    p_sinad = _pool_sum(ms, sinad_pool)
    p_noise = _pool_sum(ms, sinad_pool & ~(harm | spur))
    p_harm = _pool_sum(ms, harm & ~(fund | dc))
    snr = 10.0 * np.log10(p_fund / p_noise) if p_noise > 0 else float("inf")
    sinad = 10.0 * np.log10(p_fund / p_sinad) if p_sinad > 0 else float("inf")
    thd = 10.0 * np.log10(p_harm / p_fund) if p_harm > 0 else float("-inf")
    sfdr = float(report.power_dbfs[fund_bin] - report.power_dbfs[sinad_pool].max())
    enob = enob_from_sinad(sinad)
    return replace(report, fundamental_bin=fund_bin, snr_db=float(snr),
                   sinad_db=float(sinad), thd_db=float(thd), sfdr_db=sfdr,
                   enob_bits=enob, spurs=tuple(spur_entries))


def enob_from_sinad(sinad_db: float) -> float:
    return (sinad_db - 1.76) / 6.02


def _gathered_db(report: SpectrumReport, center: int, gather: int) -> float:
    # at most three bins: the builtin sum adds the np.float64 items in
    # ascending order, uncompensated on every Python version
    p = sum(report.mean_square[max(0, center - gather):
                               min(report.n_bins - 1, center + gather) + 1])
    ref = (report.full_scale / 2.0) ** 2 / 2.0
    return 10.0 * np.log10(max(p / ref, 10.0 ** (DB_FLOOR / 10.0)))


# --- file formats ------------------------------------------------------------

def write_spectrum_csv(report: SpectrumReport, path):
    """The spectrum table; a report with metrics adds them as `# metric,value`
    lines after the rows."""
    lines = ["%.17g,%.17g" % row for row in zip(report.freqs_hz.tolist(),
                                                report.power_dbfs.tolist())]
    if report.sinad_db is not None:
        lines += ["# %s,%.17g" % item for item in (
            ("snr_db", report.snr_db), ("sinad_db", report.sinad_db),
            ("thd_db", report.thd_db), ("sfdr_db", report.sfdr_db),
            ("enob_bits", report.enob_bits),
            ("fundamental_hz", report.freqs_hz[report.fundamental_bin]))]
    write_table(path, "freq_hz,power_dbfs", lines)


def write_spur_csv(spurs, path):
    write_table(path, "k,freq_hz,dbc,kind", [
        "%d,%.17g,%.17g,%s%s" % (s.k, s.freq_hz, s.dbc, s.kind,
                                 "+collision" if s.collision else "") for s in spurs])
