"""Wideband correction filter-bank design.

At each frequency on an N-point grid the M branch responses are found by
solving the M-by-M linear system that forces the interleaved output to be a
pure d-sample delay of the uniformly sampled input while nulling every alias
term. The grid responses are turned into real FIR taps by inverse DFT,
truncated around each branch's group delay, and windowed.

Frequency responses follow the numpy convention: a pure delay of d samples
is exp(-1j*omega*d). Branch m of an ideal bank is a pure delay of d + m
samples, which is the round-robin recombination delay plus the design
latency.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from tiadc.model import (MAX_RECORD_SAMPLES, MismatchProfile, TiadcConfig, TiadcError, TWO_PI,
                         channel_response, csv_row, named, positive, read_table, write_table)

COND_LIMIT = 1e8

WINDOWS = ("none", "hann", "blackman", "kaiser")


class SingularDesignError(TiadcError):
    """The per-frequency reconstruction system is too ill-conditioned to solve."""

    def __init__(self, omega, detail):
        self.omega = omega
        super().__init__(f"singular design system at omega = {omega:.6g} rad ({detail})")


@dataclass(frozen=True)
class DesignSpec:
    """Grid size, filter length, delay, window, and Nyquist zone for a design."""

    n_grid: int = 1024
    taps: int = 65
    delay_d: int | None = None
    window: str = "kaiser"
    kaiser_beta: float = 8.0
    zone: int = 1

    def __post_init__(self):
        n, L = self.n_grid, self.taps
        if n < 4 or n & (n - 1):
            raise ValueError("n_grid must be a power of two")
        if L % 2 == 0 or L < 1:
            raise ValueError("taps must be odd")
        if n < 4 * L:
            raise ValueError("n_grid must be at least 4 * taps")
        if self.window not in WINDOWS:
            raise ValueError(f"window must be one of {WINDOWS}")
        if self.zone not in (1, 2):
            raise ValueError("zone must be 1 or 2")
        if not 0 <= self.kaiser_beta < np.inf:  # False for NaN
            raise ValueError(f"kaiser_beta must be finite and >= 0, got {self.kaiser_beta!r}")
        if self.delay_d is None:
            object.__setattr__(self, "delay_d", (L - 1) // 2)
        # no tap may act before the sample it corrects
        if self.delay_d < self.half_taps:
            raise ValueError(f"delay_d = {self.delay_d} is below (taps - 1)/2 = "
                             f"{self.half_taps}")
        if self.delay_d >= n:
            raise ValueError("delay_d must be below n_grid")

    @property
    def half_taps(self) -> int:
        return (self.taps - 1) // 2

    @property
    def tap_offset(self) -> int:
        """Delay of branch 0's tap 0; branch m's window centres on its group delay d + m."""
        return self.delay_d - self.half_taps

    @property
    def transient_samples(self) -> int:
        """Output samples at each end of a corrected record that read the zeros outside it."""
        return self.taps + self.tap_offset

    def band_hz(self, fs: float) -> tuple[float, float]:
        """The analog band [(zone - 1)*fs/2, zone*fs/2] the design corrects."""
        return (self.zone - 1) * fs / 2, self.zone * fs / 2


def k_set(omega, m_channels: int, zone: int) -> np.ndarray:
    """Alias indices contributing at digital frequencies omega in [0, pi).

    Zone z keeps the k whose alias argument omega - 2*pi*k/M lies in
    [(z-1)*pi, z*pi) or in [-z*pi, -(z-1)*pi). With a = M*omega/(2*pi),
    lo = (z-1)*M/2 and hi = z*M/2 these are the n_pos integers in
    (a - hi, a - lo] and the integers in (a + lo, a + hi]: exactly M members
    for every omega, returned increasing along the last axis of shape
    omega.shape + (M,).
    """
    a = m_channels * np.asarray(omega, dtype=np.float64)[..., None] / TWO_PI
    lo, hi = (zone - 1) * m_channels / 2.0, zone * m_channels / 2.0
    j = np.arange(m_channels)
    n_pos = np.floor(a - lo) - np.floor(a - hi)
    pos = np.floor(a - hi) + 1 + j
    neg = np.floor(a + lo) + 1 + (j - n_pos)
    return np.where(j < n_pos, pos, neg).astype(np.int64)


def signal_row(ks, m_channels: int):
    """Position along the last axis of the alias index carrying the signal.

    The signal occupies the alias class k = 0 (mod M): k = 0 for zone 1 and
    k = M for zone 2 at interior frequencies, with the sign of the
    representative flipping at the band-edge grid points. The k-set always
    holds exactly one member of that class.
    """
    ks = np.asarray(ks)
    is_signal = ks % m_channels == 0
    unique = np.count_nonzero(is_signal, axis=-1) == 1
    if not np.all(unique):
        raise ValueError(f"alias set {ks[~unique][0].tolist()} has no unique signal member")
    return np.argmax(is_signal, axis=-1)


def alias_system(omegas, profile: MismatchProfile, config: TiadcConfig, zone: int):
    """Alias matrices a[..., r, m] = H_m(j*(omega - 2*pi*k_r/M)/ts) and the
    signal rows, for every digital frequency in omegas.

    Negative analog frequencies enter through the conjugate symmetry of the
    channel responses. The alias frequencies of a grid repeat (about four
    times each on a power-of-two grid), and channel_response is elementwise,
    so it runs once per distinct frequency and the matrices gather its rows.
    """
    m_ch = config.m_channels
    omegas = np.asarray(omegas, dtype=np.float64)
    ks = k_set(omegas, m_ch, zone)
    omega_analog = (omegas[..., None] - TWO_PI * ks / m_ch) / config.ts
    distinct, inverse = np.unique(omega_analog, return_inverse=True)
    h = channel_response(profile, config, distinct)
    return h[inverse.reshape(omega_analog.shape)], signal_row(ks, m_ch)


_GATE_SLICE = 128

# rho^2 = ||G||_F^2/c^2 - M subtracts M from a number near M, which costs a
# few times M ulps; a bin certifies only at this margin below 1/4, far wider
_GATE_RHO2 = 0.25 * (1 - 1e-9)


def well_conditioned(a: np.ndarray) -> np.ndarray:
    """cond2(a) <= COND_LIMIT for each matrix of a stack, shape a.shape[:-2].

    A Gram-matrix certificate settles the well-conditioned matrices: with
    G = A^H A, c = tr(G)/M and rho = ||I - G/c||_F, every eigenvalue of G/c
    lies within ||I - G/c||_2 <= rho of 1 (Weyl's inequality), so rho <= 1/2
    proves cond2(A)^2 = lambda_max/lambda_min <= 3, far inside COND_LIMIT.
    Since tr(G/c) = M, rho^2 = ||G||_F^2/c^2 - M, which takes one Gram product
    and one sum of squares per matrix; a matrix passes when
    rho^2 <= (1/4)*(1 - 1e-9), a margin far wider than the rounding of the
    cancellation. The SVD of np.linalg.cond runs only on the other matrices:
    those above the margin or with a rho^2 that is not finite (NaN entries, a
    zero matrix), which includes every singular matrix, since rho >= 1 there.
    """
    m = a.shape[-1]
    stack = a.reshape(-1, m, m)
    rho2 = np.empty(len(stack))
    # a slice of matrices at a time, so the Gram matrices add little memory
    # to the solve that follows
    with np.errstate(all="ignore"):
        for lo in range(0, len(stack), _GATE_SLICE):
            part = stack[lo:lo + _GATE_SLICE]
            g = part.conj().swapaxes(-1, -2) @ part
            c = np.trace(g, axis1=-2, axis2=-1).real / m
            parts = g.view(np.float64).reshape(len(g), -1)
            rho2[lo:lo + _GATE_SLICE] = np.einsum("ij,ij->i", parts, parts) / (c * c) - m
    ok = rho2 <= _GATE_RHO2  # False for NaN
    if not ok.all():
        ok[~ok] = np.linalg.cond(stack[~ok]) <= COND_LIMIT  # also False for inf and nan
    return ok.reshape(a.shape[:-2])


def solve_pr_at(omega, profile: MismatchProfile, config: TiadcConfig,
                spec: DesignSpec) -> np.ndarray:
    """Branch responses F_m at one digital frequency or an array of them.

    Row k of each system is sum_m F_m * H_m(j*(omega - 2*pi*k/M)/ts); the
    row of the signal alias index equals M*exp(-1j*omega*d) and every other
    row is zero. Returns shape omega.shape + (M,); the first frequency whose
    system is ill-conditioned or unsolved raises SingularDesignError.
    The gate is on the 2-norm condition number; a Gram-matrix certificate
    passes the bins with cond2 <= sqrt(3) and the SVD decides the rest (see
    well_conditioned). When every bin passes, the stack is solved in place
    of a boolean-masked copy.
    """
    m_ch = config.m_channels
    omega = np.asarray(omega, dtype=np.float64)
    a_mat, sig = alias_system(omega, profile, config, spec.zone)
    ok = well_conditioned(a_mat)
    b = np.where(np.arange(m_ch) == sig[..., None],
                 (m_ch * np.exp(-1j * omega * spec.delay_d))[..., None], 0j)
    f = np.zeros_like(b)
    sel = ... if ok.all() else ok  # a view of the stack, not a masked copy
    # numpy 2 reads any b with more than one axis as matrices: solve one column
    f[sel] = np.linalg.solve(a_mat[sel], b[sel][..., None])[..., 0]
    resid = np.linalg.norm((a_mat @ f[..., None])[..., 0] - b, axis=-1)
    failed = np.flatnonzero(~ok | (resid > 1e-10 * np.linalg.norm(b, axis=-1)))
    if failed.size:
        i = failed[0]
        detail = (f"solve residual {resid.flat[i]:.3g}" if ok.flat[i] else
                  f"condition number {np.linalg.cond(a_mat.reshape(-1, m_ch, m_ch)[i]):.3g}")
        raise SingularDesignError(float(omega.flat[i]), detail)
    return f


def window_taps(name: str, length: int, beta: float = 8.0) -> np.ndarray:
    if name == "none":
        return np.ones(length)
    if name == "hann":
        return np.hanning(length)
    if name == "blackman":
        return np.blackman(length)
    if name == "kaiser":
        return np.kaiser(length, beta)
    raise ValueError(f"unknown window {name!r}")


@dataclass(frozen=True)
class FilterBank:
    """M real FIR branches plus the design metadata they were built with.

    taps[m, j] acts at absolute delay spec.tap_offset + m + j, so each
    branch's window of length L is centered on its own group delay d + m.
    """

    taps: np.ndarray
    spec: DesignSpec
    fs: float

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        object.__setattr__(self, "taps", taps)
        if taps.ndim != 2 or taps.shape[1] != self.spec.taps:
            raise ValueError("taps must have shape (m_channels, spec.taps)")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps contain non-finite values")
        positive("fs_hz", self.fs)

    @property
    def m_channels(self) -> int:
        return self.taps.shape[0]

    @property
    def bank_id(self) -> str:
        h = hashlib.sha1()
        h.update(self.taps.tobytes())
        h.update(repr((self.m_channels, self.fs, self.spec)).encode())
        return h.hexdigest()[:12]

    def branch_response(self, omega) -> np.ndarray:
        """F_m(e^{j*omega}) of the truncated, windowed taps; shape (M, len(omega))."""
        omega = np.atleast_1d(np.asarray(omega, dtype=np.float64))
        L = self.spec.taps
        # tap (m, j) sits at delay tap_offset + m + j: M + L - 1 distinct
        # delays, each exponential computed once; branch m reads rows m..m+L-1
        delays = self.spec.tap_offset + np.arange(self.m_channels + L - 1)
        table = np.exp(-1j * delays[:, None] * omega[None, :])
        return np.stack([np.einsum("l,lw->w", self.taps[m], table[m:m + L])
                         for m in range(self.m_channels)])


def check_tap_window(spec: DesignSpec, m_channels: int):
    """Raise ValueError unless every branch's L-tap window, centred on its
    group delay d + m, ends inside the n_grid-point impulse response
    (DesignSpec already keeps it from starting before delay 0), and the
    design's (n_grid/2)*M^2 alias stack fits in 4*MAX_RECORD_SAMPLES
    complex entries (1 GiB)."""
    n, h = spec.n_grid, spec.half_taps
    if spec.delay_d + (m_channels - 1) + h >= n:
        raise ValueError(
            "delay_d leaves the tap window outside the design grid; "
            f"need {h} <= delay_d <= {n - m_channels - h}")
    stack = n // 2 * m_channels ** 2
    if stack > 4 * MAX_RECORD_SAMPLES:
        raise ValueError(f"n_grid = {n} at m_channels = {m_channels} needs an alias stack of "
                         f"{stack} entries, more than {4 * MAX_RECORD_SAMPLES}")


def design_filter_bank(profile: MismatchProfile, config: TiadcConfig,
                       spec: DesignSpec) -> FilterBank:
    """Solve the reconstruction condition on the design grid and extract taps.

    Responses are solved for grid frequencies 2*pi*n/N up to and including
    the half-band bin; the upper half of the grid is filled by conjugate
    symmetry so the inverse DFT is real. If the system is singular exactly at
    DC or the half-band bin, the adjacent bin's solution is reused there.
    Branch m keeps L taps centered on its group delay d + m, then the window
    is applied.
    """
    m_ch = config.m_channels
    n = spec.n_grid
    L = spec.taps
    check_tap_window(spec, m_ch)
    half = n // 2
    grid = np.empty((m_ch, n), dtype=np.complex128)
    grid[:, 1:half] = solve_pr_at(TWO_PI * np.arange(1, half) / n, profile, config, spec).T
    # bins 1 and half - 1 are interior (n >= 4), so a neighbor always exists
    for edge, neighbor in ((0, 1), (half, half - 1)):
        try:
            grid[:, edge] = solve_pr_at(TWO_PI * edge / n, profile, config, spec)
        except SingularDesignError:
            grid[:, edge] = grid[:, neighbor]
    # real responses at the self-conjugate bins, then Hermitian fill
    grid[:, 0] = grid[:, 0].real
    grid[:, half] = grid[:, half].real
    grid[:, half + 1:] = np.conj(grid[:, half - 1:0:-1])
    impulse = np.fft.ifft(grid, axis=1)
    max_imag = float(np.max(np.abs(impulse.imag)))
    if max_imag > 1e-9:
        raise TiadcError(
            f"impulse responses are not real (max imaginary part {max_imag:.3g})")
    impulse = impulse.real
    win = window_taps(spec.window, L, spec.kaiser_beta)
    window_idx = spec.tap_offset + np.arange(m_ch)[:, None] + np.arange(L)
    taps = np.take_along_axis(impulse, window_idx, axis=1) * win
    return FilterBank(taps=taps, spec=spec, fs=config.fs)


@dataclass(frozen=True)
class PRResidualReport:
    """Reconstruction residuals of a finished bank on a verification grid.

    residual_k0 is |Gamma_signal - M*exp(-1j*omega*d)| and residual_alias the
    largest |Gamma_k| over the alias indices, per grid frequency.
    """

    omegas: np.ndarray
    residual_k0: np.ndarray
    residual_alias: np.ndarray

    def max_alias(self) -> float:
        return float(np.max(self.residual_alias))


def pr_residual(bank: FilterBank, profile: MismatchProfile, config: TiadcConfig,
                n_check: int = 512) -> PRResidualReport:
    """Recompute the reconstruction condition from the windowed taps, against
    the alias set of the zone in the bank's spec, at omega = pi*i/n_check.

    The alias matrices come from alias_system on the given profile and
    config, built for the check grid alone, so a bank read from a file checks
    the same as one fresh from design_filter_bank.
    """
    if n_check < 64:
        raise ValueError("n_check must be >= 64")
    omegas = np.pi * np.arange(n_check) / n_check
    h_mat, sig = alias_system(omegas, profile, config, bank.spec.zone)
    gamma = (h_mat @ bank.branch_response(omegas).T[..., None])[..., 0]  # (n_check, M)
    rows = np.arange(n_check)
    gamma[rows, sig] -= bank.m_channels * np.exp(-1j * omegas * bank.spec.delay_d)
    # hypot, not np.abs: the SIMD complex abs can differ from it by one ulp
    mag = np.hypot(gamma.real, gamma.imag)
    r0 = mag[rows, sig]
    mag[rows, sig] = 0.0
    return PRResidualReport(omegas=omegas, residual_k0=r0, residual_alias=mag.max(-1))


# --- file formats ------------------------------------------------------------

BANK_CSV_COLUMNS = "channel,tap_index,coefficient"
BANK_META_KEYS = ("m_channels", "taps", "n_grid", "delay_d", "zone", "window",
                  "kaiser_beta", "fs_hz")


def write_bank_csv(bank: FilterBank, path):
    spec, taps, offset = bank.spec, bank.taps.tolist(), bank.spec.tap_offset
    meta = (bank.m_channels, spec.taps, spec.n_grid, spec.delay_d, spec.zone, spec.window,
            "%.17g" % spec.kaiser_beta, "%.17g" % bank.fs)
    write_table(path, BANK_CSV_COLUMNS, [
        "%d,%d,%.17g" % (m, offset + m + j, taps[m][j])
        for m in range(bank.m_channels) for j in range(spec.taps)], zip(BANK_META_KEYS, meta))


def read_bank_csv(path) -> FilterBank:
    meta, rows = read_table(path, "filter bank", BANK_CSV_COLUMNS, (int, int, float),
                            BANK_META_KEYS)
    with named(path):
        m_ch, n_taps, n_grid, delay_d, zone, window, beta, fs = csv_row(
            [meta[key] for key in BANK_META_KEYS], (int, int, int, int, int, str, float, float))
        spec = DesignSpec(n_grid=n_grid, taps=n_taps, delay_d=delay_d, window=window,
                          kaiser_beta=beta, zone=zone)
        coefs = {(ch, idx - spec.tap_offset - ch): coef for ch, idx, coef in rows}
        keys = sorted(coefs)
        # the count first: a huge m_channels must not build a huge key list
        if len(rows) != m_ch * n_taps or keys != [
                (m, j) for m in range(m_ch) for j in range(n_taps)]:
            raise ValueError(f"bank must list each of its {m_ch} x {n_taps} taps once")
        taps = np.array([coefs[key] for key in keys]).reshape(m_ch, n_taps)
        return FilterBank(taps=taps, spec=spec, fs=fs)


def write_residual_csv(report: PRResidualReport, path):
    write_table(path, "omega_rad,residual_k0,residual_alias", [
        "%.17g,%.17g,%.17g" % row for row in zip(
            report.omegas.tolist(), report.residual_k0.tolist(), report.residual_alias.tolist())])
