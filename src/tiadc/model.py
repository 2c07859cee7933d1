"""Acquisition model for an M-channel interleaved ADC.

Covers the per-channel analog response (gain and timing error tabulated over
frequency), round-robin sampling with an ideal mid-tread quantizer, and an
analytic oracle for the output line spectrum including interleave images and
offset spurs.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi


class TiadcError(Exception):
    """Base class for toolkit errors."""


@dataclass(frozen=True)
class TiadcConfig:
    """Aggregate acquisition parameters.

    fs is the combined sample rate in Hz; each of the m_channels sub-ADCs
    runs at fs / m_channels. full_scale is the peak-to-peak input range in
    volts. quantize toggles the ideal mid-tread quantizer.
    """

    m_channels: int
    fs: float
    bits: int
    full_scale: float
    quantize: bool = True

    def __post_init__(self):
        if self.m_channels < 2:
            raise ValueError("m_channels must be >= 2")
        if not (self.fs > 0 and np.isfinite(self.fs)):
            raise ValueError("fs must be positive and finite")
        if not 1 <= self.bits <= 24:
            raise ValueError("bits must be in [1, 24]")
        if not (self.full_scale > 0 and np.isfinite(self.full_scale)):
            raise ValueError("full_scale must be positive and finite")

    @property
    def ts(self) -> float:
        return 1.0 / self.fs

    @property
    def lsb(self) -> float:
        return self.full_scale / 2 ** self.bits


@dataclass(frozen=True)
class MismatchProfile:
    """Per-channel gain, timing error, and offset, tabulated over frequency.

    All channels share one strictly increasing frequency grid. Queries between
    grid rows interpolate linearly; queries outside clamp to the end rows.
    Offsets are frequency independent (one value per channel, in LSB).
    """

    freqs_hz: np.ndarray
    gain: np.ndarray
    dt_s: np.ndarray
    offset_lsb: np.ndarray

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.freqs_hz, dtype=np.float64))
        g = np.atleast_2d(np.asarray(self.gain, dtype=np.float64))
        d = np.atleast_2d(np.asarray(self.dt_s, dtype=np.float64))
        o = np.atleast_1d(np.asarray(self.offset_lsb, dtype=np.float64))
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "gain", g)
        object.__setattr__(self, "dt_s", d)
        object.__setattr__(self, "offset_lsb", o)
        if f.ndim != 1 or f.size < 1:
            raise ValueError("freqs_hz must be a non-empty 1-d array")
        if f.size > 1 and not np.all(np.diff(f) > 0):
            raise ValueError("freqs_hz must be strictly increasing")
        if g.shape != d.shape or g.shape[1] != f.size:
            raise ValueError("gain and dt_s must both have shape (M, len(freqs_hz))")
        if o.shape != (g.shape[0],):
            raise ValueError("offset_lsb must have one entry per channel")
        for name, a in (("freqs_hz", f), ("gain", g), ("dt_s", d), ("offset_lsb", o)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite values")
        if not np.all(g > 0):
            raise ValueError("gain must be positive everywhere")

    @property
    def m_channels(self) -> int:
        return self.gain.shape[0]

    @classmethod
    def ideal(cls, m_channels: int, f_max: float) -> "MismatchProfile":
        """Unit gain, zero timing error, zero offset over [0, f_max]."""
        freqs = np.array([0.0, float(f_max)])
        return cls(
            freqs_hz=freqs,
            gain=np.ones((m_channels, 2)),
            dt_s=np.zeros((m_channels, 2)),
            offset_lsb=np.zeros(m_channels),
        )

    def gain_at(self, m: int, freq_hz):
        return np.interp(freq_hz, self.freqs_hz, self.gain[m])

    def dt_at(self, m: int, freq_hz):
        return np.interp(freq_hz, self.freqs_hz, self.dt_s[m])


def channel_response(profile: MismatchProfile, config: TiadcConfig, omega_rad_s):
    """Complex responses g_m * exp(j*omega*(m*ts + dt_m)) of all M channels,
    shape omega.shape + (M,).

    Gain and timing error are interpolated from the profile at |omega|; the
    signed exponent makes negative-frequency queries the conjugate of the
    positive-frequency ones, as required for real hardware.
    """
    if profile.m_channels != config.m_channels:
        raise ValueError("profile channel count does not match config")
    omega = np.asarray(omega_rad_s, dtype=np.float64)
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite")
    f_abs = np.abs(omega) / TWO_PI
    h = np.empty(omega.shape + (config.m_channels,), dtype=np.complex128)
    for m in range(config.m_channels):
        g = profile.gain_at(m, f_abs)
        dt = profile.dt_at(m, f_abs)
        h[..., m] = g * np.exp(1j * omega * (m * config.ts + dt))
    return h


@dataclass(frozen=True)
class Tone:
    amplitude: float
    freq_hz: float
    phase_rad: float = 0.0


@dataclass(frozen=True)
class ToneSpec:
    """Multi-tone test input: a list of cosines plus a DC term."""

    tones: tuple
    dc: float = 0.0

    def __post_init__(self):
        tones = tuple(
            t if isinstance(t, Tone) else Tone(*t) for t in self.tones
        )
        object.__setattr__(self, "tones", tones)
        for t in tones:
            if not np.isfinite(t.amplitude) or t.amplitude < 0:
                raise ValueError("tone amplitudes must be finite and >= 0")
            if not np.isfinite(t.freq_hz) or t.freq_hz < 0:
                raise ValueError("tone frequencies must be finite and >= 0")
            if not np.isfinite(t.phase_rad):
                raise ValueError("tone phases must be finite")
        if not np.isfinite(self.dc):
            raise ValueError("dc must be finite")

    @classmethod
    def single(cls, amplitude, freq_hz, phase_rad=0.0, dc=0.0):
        return cls(tones=(Tone(amplitude, freq_hz, phase_rad),), dc=dc)

    def peak_sum(self) -> float:
        return sum(t.amplitude for t in self.tones) + abs(self.dc)


@dataclass(init=False)
class Capture:
    """An interleaved sample record of whole rows, one sample per channel
    each, plus its acquisition configuration; the sample rate is config.fs,
    and an ``fs`` passed in must equal it."""

    samples: np.ndarray
    config: TiadcConfig
    transient_samples: int = 0
    corrected: bool = False
    bank_id: str = ""

    def __init__(self, samples, config: TiadcConfig, transient_samples: int = 0,
                 corrected: bool = False, bank_id: str = "", fs: float | None = None):
        if fs is not None and fs != config.fs:
            raise ValueError(f"fs = {fs:g} Hz does not match config.fs = {config.fs:g} Hz")
        self.samples = np.asarray(samples, dtype=np.float64)
        self.config, self.transient_samples = config, transient_samples
        self.corrected, self.bank_id = corrected, bank_id
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        if self.samples.size % config.m_channels:
            raise ValueError("capture length must be a multiple of the channel count")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    @property
    def fs(self) -> float:
        return self.config.fs

    @property
    def n(self) -> int:
        return self.samples.size


def midtread_quantize(x, config: TiadcConfig):
    """Ideal mid-tread quantizer with saturation at the code range ends."""
    lsb = config.lsb
    top = 2 ** (config.bits - 1) - 1
    codes = np.clip(np.rint(np.asarray(x, dtype=np.float64) / lsb), -top - 1, top)
    return codes * lsb


SIMULATION_BLOCK = 1 << 14  # samples simulated at a time: temporaries stay cache-sized


def _sample_matrix(tones: ToneSpec, config: TiadcConfig,
                   profile: MismatchProfile, n_total: int):
    """The (n_total / M, M) sample matrix, whose column m is channel m: each tone through
    its gain and timing error (at the tone frequency), its offset, then the quantizer."""
    m_ch = config.m_channels
    if n_total <= 0 or n_total % m_ch != 0:
        raise ValueError("n_total must be a positive multiple of m_channels")
    if profile.m_channels != m_ch:
        raise ValueError("profile channel count does not match config")
    if tones.peak_sum() > config.full_scale / 2:
        warnings.warn("tone amplitudes exceed half the full-scale range; "
                      "the capture may clip", stacklevel=3)
    x = np.tile(tones.dc + profile.offset_lsb * config.lsb, (n_total // m_ch, 1))
    gain_dt = [np.array([(profile.gain_at(m, tone.freq_hz), profile.dt_at(m, tone.freq_hz))
                         for m in range(m_ch)]).T for tone in tones.tones]
    step = max(SIMULATION_BLOCK // m_ch, 1)
    for r in range(0, x.shape[0], step):
        xb = x[r:r + step]  # rows r to r + step - 1, filled in place
        t = np.arange(r * m_ch, r * m_ch + xb.size).reshape(xb.shape) * config.ts
        for tone, (g, dt) in zip(tones.tones, gain_dt):
            xb += g * tone.amplitude * np.cos(TWO_PI * tone.freq_hz * (t + dt) + tone.phase_rad)
        if config.quantize:
            xb[:] = midtread_quantize(xb, config)
    return x


def simulate_capture(tones: ToneSpec, config: TiadcConfig,
                     profile: MismatchProfile, n_total: int) -> Capture:
    """The interleaved capture of a multi-tone input: the sample matrix, row by row."""
    return Capture(samples=_sample_matrix(tones, config, profile, n_total).ravel(),
                   config=config)


def fold_frequency(freq_hz: float, fs: float) -> float:
    """Alias an analog frequency into the first Nyquist band [0, fs/2]."""
    # Python floats: the same IEEE operations as numpy scalars, without
    # their per-call overhead
    r = abs(float(freq_hz)) % fs
    return fs - r if r > fs / 2 else r


@dataclass(frozen=True)
class PredictedLine:
    """One spectral line of the analytic output model."""

    freq_hz: float
    amplitude_v: float
    kind: str  # "fundamental", "image", or "offset_spur"
    k: int


def predict_output_spectrum(tones: ToneSpec, config: TiadcConfig,
                            profile: MismatchProfile):
    """Analytic line spectrum of the interleaved output (quantizer ignored).

    Each tone contributes a line at fold(k*fs/M +- f_tone) for every alias
    index k; the per-channel gains and timing errors (at the tone's true
    analog frequency) set the complex weights. Channel offsets add spurs at
    fold(k*fs/M). Lines that fold onto the same frequency are summed as
    complex amplitudes. The folding arithmetic covers any Nyquist zone.
    """
    m_ch = config.m_channels
    fs = config.fs
    # components: (theta in [0, 2pi), complex coeff, kind, k)
    components = []
    phase_k = np.exp(-2j * np.pi * np.outer(np.arange(m_ch), np.arange(m_ch)) / m_ch)
    for tone in tones.tones:
        if tone.amplitude == 0:
            continue
        omega = TWO_PI * tone.freq_hz
        g = np.array([profile.gain_at(m, tone.freq_hz) for m in range(m_ch)])
        dt = np.array([profile.dt_at(m, tone.freq_hz) for m in range(m_ch)])
        c_pos = g * np.exp(1j * omega * dt)
        # DFT over the channel index of the periodic modulation
        c_hat = phase_k.T @ c_pos / m_ch
        c_hat_neg = phase_k.T @ np.conj(c_pos) / m_ch
        theta0 = (omega / fs) % TWO_PI
        for k in range(m_ch):
            kind = "fundamental" if k == 0 else "image"
            zp = 0.5 * tone.amplitude * np.exp(1j * tone.phase_rad) * c_hat[k]
            zn = 0.5 * tone.amplitude * np.exp(-1j * tone.phase_rad) * c_hat_neg[k]
            components.append(((theta0 + TWO_PI * k / m_ch) % TWO_PI, zp, kind, k))
            components.append(((-theta0 + TWO_PI * k / m_ch) % TWO_PI, zn, kind, k))
    # offset spurs, plus the DC term of the input
    o_volts = profile.offset_lsb * config.lsb
    o_hat = phase_k.T @ o_volts / m_ch
    for k in range(m_ch):
        z = o_hat[k] + (tones.dc if k == 0 else 0.0)
        components.append((TWO_PI * k / m_ch, z, "offset_spur", k))

    # fold onto [0, pi] and merge coincident lines as complex sums
    folded = []
    for theta, z, kind, k in components:
        if theta > np.pi:
            theta, z = TWO_PI - theta, np.conj(z)
        folded.append((theta, z, kind, k))
    folded.sort(key=lambda c: c[0])
    kind_rank = {"fundamental": 0, "image": 1, "offset_spur": 2}
    lines = []
    tol = 1e-9
    i = 0
    while i < len(folded):
        j = i
        acc = 0.0 + 0.0j
        best = folded[i]
        while j < len(folded) and folded[j][0] - folded[i][0] <= tol:
            acc += folded[j][1]
            if kind_rank[folded[j][2]] < kind_rank[best[2]]:
                best = folded[j]
            j += 1
        amp = abs(acc)
        peak = max((t.amplitude for t in tones.tones), default=1.0) or 1.0
        if amp > 1e-13 * peak:
            lines.append(PredictedLine(
                freq_hz=folded[i][0] / TWO_PI * fs,
                amplitude_v=amp, kind=best[2], k=best[3]))
        i = j
    return lines


# --- reference mismatch shapes used by tests and bundled scenarios ----------

# Per-channel constants chosen so that every interleave image of a full-scale
# tone stays at least ~55 dB above the fundamental-relative floor anywhere in
# the first two Nyquist bands (no accidental cancellation across channels),
# while keeping |gain - 1| <= 1%, |dt| <= 2 ps, |offset| <= 2 LSB.
_REF_GAIN_BIAS = (0.0, -0.0055, 0.0072, 0.004)
_REF_GAIN_RIPPLE = (0.0, 0.002, -0.0018, 0.002)
_REF_GAIN_PHASE = (0.0, 0.9, 2.3, 4.2)
_REF_DT_CONST_PS = (0.0, 1.3, -1.55, 0.9)
_REF_DT_RIPPLE_PS = (0.0, -0.35, 0.3, 0.45)
_REF_OFFSET_LSB = (0.0, 1.9, -1.5, 0.8)


def make_reference_profile(config: TiadcConfig, n_rows: int = 65) -> MismatchProfile:
    """Deterministic smooth mismatch profile covering [0, fs].

    Gain ripple stays within +-1%, timing errors within +-2 ps, offsets
    within 2 LSB. Channel 0 is ideal so measured (relative) profiles can be
    compared against this truth directly. Channels beyond the built-in table
    cycle through the tabulated constants with a small phase twist.
    """
    m_ch = config.m_channels
    freqs = np.linspace(0.0, config.fs, n_rows)
    gain = np.ones((m_ch, n_rows))
    dt = np.zeros((m_ch, n_rows))
    offs = np.zeros(m_ch)
    n_tab = len(_REF_GAIN_BIAS)
    for m in range(1, m_ch):
        i = 1 + (m - 1) % (n_tab - 1)
        twist = 0.4 * (m // n_tab)
        gain[m] = (1.0 + _REF_GAIN_BIAS[i]
                   + _REF_GAIN_RIPPLE[i]
                   * np.sin(TWO_PI * freqs / (0.9 * config.fs)
                            + _REF_GAIN_PHASE[i] + twist))
        dt[m] = 1e-12 * (_REF_DT_CONST_PS[i]
                         + _REF_DT_RIPPLE_PS[i]
                         * np.sin(TWO_PI * freqs / (1.3 * config.fs)
                                  + 0.5 * m + twist))
        offs[m] = _REF_OFFSET_LSB[i]
    return MismatchProfile(freqs_hz=freqs, gain=gain, dt_s=dt, offset_lsb=offs)


# --- file formats ------------------------------------------------------------
#
# Every CSV file tiadc exchanges is a table: a block of `# key,value` meta
# lines, the column header, then one row per line.

def write_table(path, header: str, lines, meta=()):
    """Write a table: one `# key,value` line per (key, value) pair of meta,
    the header, then the rows, each already formatted as text."""
    text = [*(f"# {key},{value}" for key, value in meta), header, *lines]
    Path(path).write_text("\n".join(text) + "\n")


def csv_row(fields, kinds, where) -> tuple:
    """The fields of one CSV row, each converted by its kind (int, float or str).
    A wrong field count or a field that does not parse raises a TiadcError
    naming ``where``, the file and the line."""
    if len(fields) != len(kinds):
        raise TiadcError(f"{where}: expected {len(kinds)} fields, got {len(fields)}")
    try:
        return tuple(kind(field) for kind, field in zip(kinds, fields))
    except ValueError as exc:
        raise TiadcError(f"{where}: {exc}") from None


def read_table(path, what: str, header: str, kinds, meta_keys=()):
    """The meta block and the rows of a table file, as (meta, rows).

    Blank lines are skipped. Each of meta_keys appears exactly once, in a
    `# key,value` line before the header, and no other key does; meta maps
    each key to its value text. The header is required, and every line
    after it is one csv_row of the given kinds; there is at least one. Any
    other file raises a TiadcError naming the file, and the line where
    there is one."""
    try:
        lines = Path(path).read_text().splitlines()
    except ValueError as exc:  # not UTF-8 text
        raise TiadcError(f"{path}: {exc}") from None
    meta, rows, body = {}, [], False
    for i, line in enumerate(lines, 1):
        line, where = line.strip(), f"{path}:{i}"
        if not line:
            continue
        if body:
            rows.append(csv_row(line.split(","), kinds, where))
        elif line == header:
            body = True
        elif not line.startswith("#"):
            raise TiadcError(f"{where}: not a {what} file: expected the header {header!r}")
        else:
            key, value = (s.strip() for s in csv_row(line[1:].split(",", 1), (str, str), where))
            if key not in meta_keys:
                raise TiadcError(f"{where}: unknown {what} field {key!r}")
            if key in meta:
                raise TiadcError(f"{where}: {what} field {key!r} given twice")
            meta[key] = value
    if not body:
        raise TiadcError(f"{path}: not a {what} file: no {header!r} header")
    missing = [key for key in meta_keys if key not in meta]
    if missing:
        raise TiadcError(f"{path}: missing {what} field {missing[0]!r}")
    if not rows:
        raise TiadcError(f"{path}: empty {what}")
    return meta, rows


def read_json_object(path, what: str) -> dict:
    """The JSON object held by the file at path; malformed JSON, or any other
    JSON value, raises a TiadcError naming the file."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON, or not UTF-8 text
        raise TiadcError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise TiadcError(f"{path}: {what} must be a JSON object")
    return raw


PROFILE_CSV_HEADER = "channel,freq_hz,gain,dt_s,offset_lsb"


def write_profile_csv(profile: MismatchProfile, path):
    freqs, gain, dt = profile.freqs_hz.tolist(), profile.gain.tolist(), profile.dt_s.tolist()
    write_table(path, PROFILE_CSV_HEADER, [
        "%d,%.17g,%.17g,%.17g,%.17g" % (m, freqs[r], gain[m][r], dt[m][r], offset)
        for m, offset in enumerate(profile.offset_lsb.tolist()) for r in range(len(freqs))])


def read_profile_csv(path) -> MismatchProfile:
    """A profile file: each channel's rows list the same frequencies and one
    offset_lsb."""
    _, table = read_table(path, "mismatch profile", PROFILE_CSV_HEADER,
                          (int, float, float, float, float))
    channels = {}
    for ch, *row in table:
        channels.setdefault(ch, []).append(row)
    if sorted(channels) != list(range(len(channels))):
        raise TiadcError(f"{path}: missing channels")
    tab = [np.array(channels[m]) for m in range(len(channels))]
    if any(t.shape != tab[0].shape or not np.array_equal(t[:, 0], tab[0][:, 0]) for t in tab):
        raise TiadcError(f"{path}: channels do not share one frequency grid")
    tab = np.array(tab)  # (channel, row, field)
    for m in range(len(tab)):
        if np.unique(tab[m, :, 3]).size > 1:
            raise TiadcError(f"{path}: channel {m} rows disagree on offset_lsb")
    try:
        return MismatchProfile(freqs_hz=tab[0, :, 0], gain=tab[:, :, 1], dt_s=tab[:, :, 2],
                               offset_lsb=tab[:, 0, 3])
    except ValueError as exc:
        raise TiadcError(f"{path}: {exc}") from None


def save_capture(capture: Capture, path):
    """Raw little-endian float64 samples plus a JSON sidecar at <path>.json."""
    path = Path(path)
    path.write_bytes(capture.samples.astype("<f8").tobytes())
    write_sidecar(path, capture.n, capture.config,
                  capture.transient_samples, capture.corrected, capture.bank_id)


def write_sidecar(path, n, config: TiadcConfig, transient_samples=0,
                  corrected=False, bank_id=""):
    """The JSON sidecar <path>.json of an n-sample capture."""
    meta = {
        "fs_hz": config.fs,
        "m_channels": config.m_channels,
        "bits": config.bits,
        "full_scale_v": config.full_scale,
        "n": n,
        "quantize": config.quantize,
    }
    if corrected:
        meta["corrected"] = True
        meta["bank_id"] = bank_id
        meta["transient_samples"] = transient_samples
    Path(str(path) + ".json").write_text(json.dumps(meta, indent=1) + "\n")


_REQUIRED = object()
_KIND_TEXT = {"int": "an integral number", "real": "a finite number",
              "bool": "true or false", "str": "a string",
              "reals": "a non-empty list of finite numbers", "object": "a JSON object"}


def _as_kind(v, kind: str):
    """v as one JSON kind (see _json_field), or None when it is not one."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if kind == "int" and number and (isinstance(v, int) or v.is_integer()):
        return int(v)
    # an exact comparison: a huge JSON integer must not overflow float()
    if kind == "real" and number and abs(v) <= sys.float_info.max:
        return float(v)
    if (kind == "bool" and isinstance(v, bool) or kind == "str" and isinstance(v, str)
            or kind == "object" and isinstance(v, dict)):
        return v
    if kind == "reals" and isinstance(v, list) and v:
        reals = [_as_kind(x, "real") for x in v]
        if None not in reals:
            return reals
    return None


def _json_field(raw: dict, key: str, kind: str, where, default=_REQUIRED):
    """raw[key], checked to be of one JSON kind: "int" (an integral number),
    "real" (a finite number), "bool", "str", "reals" (a non-empty list of
    finite numbers) or "object". true and false are never numbers. A missing
    key, or a null where the default is None, returns default; a missing
    required field or a value of the wrong kind raises a TiadcError naming
    `where`."""
    if key not in raw or raw[key] is None and default is None:
        if default is _REQUIRED:
            raise TiadcError(f"{where}: missing field {key!r}")
        return default
    v = _as_kind(raw[key], kind)
    if v is None:
        raise TiadcError(f"{where}: {key} must be {_KIND_TEXT[kind]}, got {raw[key]!r}")
    return v


def config_from_json(raw: dict, where) -> TiadcConfig:
    """TiadcConfig from the fields a config file and a capture sidecar share."""
    return TiadcConfig(
        m_channels=_json_field(raw, "m_channels", "int", where),
        fs=_json_field(raw, "fs_hz", "real", where),
        bits=_json_field(raw, "bits", "int", where),
        full_scale=_json_field(raw, "full_scale_v", "real", where),
        quantize=_json_field(raw, "quantize", "bool", where, True))


def capture_header(path) -> tuple[int, dict]:
    """Check a capture's sidecar and its file size without reading the
    samples; return the sample count and the other Capture fields."""
    path = Path(path)
    sidecar = Path(str(path) + ".json")
    if not path.exists():
        raise FileNotFoundError(f"capture file not found: {path}")
    if not sidecar.exists():
        raise FileNotFoundError(f"capture sidecar not found: {sidecar}")
    meta = read_json_object(sidecar, "sidecar")
    n = _json_field(meta, "n", "int", sidecar)
    try:
        config = config_from_json(meta, sidecar)
    except ValueError as exc:
        raise TiadcError(f"{sidecar}: {exc}") from None
    if n <= 0 or n % config.m_channels:
        raise TiadcError(f"{sidecar}: n = {n} is not a positive multiple of "
                         f"m_channels = {config.m_channels}")
    transient = _json_field(meta, "transient_samples", "int", sidecar, 0)
    if not 0 <= 2 * transient < n:
        raise TiadcError(f"{sidecar}: transient_samples = {transient} is not in "
                         f"[0, n/2) for n = {n}")
    corrected = _json_field(meta, "corrected", "bool", sidecar, False)
    bank_id = _json_field(meta, "bank_id", "str", sidecar, "")
    if path.stat().st_size != 8 * n:
        raise TiadcError(f"{path}: sample count does not match sidecar")
    return n, dict(config=config, transient_samples=transient,
                   corrected=corrected, bank_id=bank_id)


def load_capture(path) -> Capture:
    _, fields = capture_header(path)
    samples = np.frombuffer(Path(path).read_bytes(), dtype="<f8").astype(np.float64)
    return Capture(samples=samples, **fields)
