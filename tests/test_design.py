"""Alias-index sets, per-frequency solves, tap extraction, and residuals."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tiadc
from tiadc import design
from tiadc.design import (COND_LIMIT, DesignSpec, SingularDesignError, k_set,
                          signal_row)


@pytest.fixture
def cfg4():
    return tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0,
                             quantize=False)


@pytest.fixture
def ideal4(cfg4):
    return tiadc.MismatchProfile.ideal(4, cfg4.fs)


@pytest.fixture(scope="module")
def reference_bank():
    cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0,
                            quantize=False)
    truth = tiadc.make_reference_profile(cfg)
    spec = DesignSpec(n_grid=1024, taps=65, window="kaiser", kaiser_beta=8.0)
    bank = tiadc.design_filter_bank(truth, cfg, spec)
    return cfg, truth, bank


def constant_profile(gains, dts, f_max):
    m = len(gains)
    return tiadc.MismatchProfile(
        freqs_hz=[0.0, f_max],
        gain=np.repeat(np.asarray(gains, float)[:, None], 2, axis=1),
        dt_s=np.repeat(np.asarray(dts, float)[:, None], 2, axis=1),
        offset_lsb=np.zeros(m))


def k_set_two_branch(omega, m_channels, zone):
    """k_set as it was before the closed form: one branch per zone."""
    a = m_channels * np.asarray(omega, dtype=np.float64)[..., None] / (2 * np.pi)
    half = m_channels / 2.0
    j = np.arange(m_channels)
    if zone == 1:
        return (np.floor(a - half) + 1 + j).astype(np.int64)
    n_left = np.floor(a - half) - np.floor(a - m_channels)
    left = np.floor(a - m_channels) + 1 + j
    right = np.floor(a + half) + 1 + (j - n_left)
    return np.where(j < n_left, left, right).astype(np.int64)


@st.composite
def k_set_points(draw):
    """M, a zone, and design-grid bins 2*pi*n/N in [0, pi] plus every band
    edge pi*q/M and 2*pi*q/M in [0, pi] with its nextafter neighbours."""
    m = draw(st.integers(2, 16))
    zone = draw(st.sampled_from([1, 2]))
    n_grid = draw(st.sampled_from([512, 1024, 2048, 4096, 8192]) | st.integers(512, 8192))
    bins = draw(st.lists(st.integers(0, n_grid // 2), min_size=1, max_size=64))
    edges = np.concatenate([np.pi * np.arange(m + 1) / m,
                            2 * np.pi * np.arange(m // 2 + 1) / m])
    edges = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 4.0)])
    omegas = np.concatenate([2 * np.pi * np.array(bins) / n_grid, edges])
    return m, zone, omegas[(omegas >= 0) & (omegas <= np.pi)]


class TestKSet:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(points=k_set_points())
    def test_closed_form_equals_two_branch(self, points):
        m, zone, omegas = points
        assert np.array_equal(k_set(omegas, m, zone), k_set_two_branch(omegas, m, zone))
        assert np.array_equal(k_set(float(omegas[0]), m, zone),
                              k_set_two_branch(float(omegas[0]), m, zone))

    def test_examples(self):
        assert k_set(0.3 * np.pi, 4, 1).tolist() == [-1, 0, 1, 2]
        assert k_set(0.3 * np.pi, 4, 2).tolist() == [-3, -2, 3, 4]
        assert k_set(0.0, 4, 1).tolist() == [-1, 0, 1, 2]

    def test_exactly_m_members_fuzzed(self):
        rng = np.random.default_rng(17)
        omegas = rng.uniform(0, np.pi, 10_000) * (1 - 1e-12)
        for m in (2, 3, 4, 8):
            for zone in (1, 2):
                for omega in omegas[::7]:
                    ks = k_set(float(omega), m, zone)
                    assert len(ks) == m, (omega, m, zone)
                batch = k_set(omegas[::7], m, zone)
                assert np.array_equal(
                    batch, [k_set(float(w), m, zone) for w in omegas[::7]])
                # boundary-heavy points
                for omega in (0.0, np.pi / 2, np.pi / m, 2 * np.pi / m,
                              np.pi * (1 - 1e-15)):
                    if omega < np.pi:
                        assert len(k_set(omega, m, zone)) == m

    def test_distinct_residues_and_signal_member(self):
        rng = np.random.default_rng(23)
        for m in (2, 3, 4, 8):
            for zone in (1, 2):
                omegas = rng.uniform(0, np.pi, 200)
                for omega in omegas:
                    ks = k_set(float(omega), m, zone)
                    assert len({k % m for k in ks}) == m
                    signal_row(ks, m)  # raises if not unique
                batch = k_set(omegas, m, zone)
                assert np.array_equal(
                    batch, [k_set(float(w), m, zone) for w in omegas])
                assert np.array_equal(
                    signal_row(batch, m), [signal_row(ks, m) for ks in batch])

    def test_zone_bands(self):
        # zone 1 alias arguments stay inside |w| < pi; zone 2 inside [pi, 2pi)
        for omega in np.linspace(0, np.pi * (1 - 1e-9), 64):
            for k in k_set(float(omega), 4, 1):
                assert abs(omega - 2 * np.pi * k / 4) <= np.pi
            for k in k_set(float(omega), 4, 2):
                assert np.pi <= abs(omega - 2 * np.pi * k / 4) <= 2 * np.pi


class TestSolve:
    def test_ideal_closed_form(self, cfg4, ideal4):
        spec = DesignSpec(n_grid=1024, taps=65)
        d = spec.delay_d
        for omega in (0.05, 0.3 * np.pi, 1.9, 3.0):
            f = tiadc.solve_pr_at(omega, ideal4, cfg4, spec)
            expect = np.exp(-1j * omega * (d + np.arange(4)))
            assert np.allclose(f, expect, atol=1e-12)

    def test_gain_only_closed_form(self, cfg4):
        gains = [1.0, 1.02, 0.97, 1.01]
        prof = constant_profile(gains, [0] * 4, cfg4.fs)
        spec = DesignSpec(n_grid=1024, taps=65)
        d = spec.delay_d
        for omega in (0.4, 2.2):
            f = tiadc.solve_pr_at(omega, prof, cfg4, spec)
            expect = np.exp(-1j * omega * (d + np.arange(4))) / np.array(gains)
            assert np.allclose(f, expect, atol=1e-12)

    def test_solve_residual_postcondition(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        spec = DesignSpec(n_grid=1024, taps=65)
        rng = np.random.default_rng(29)
        for omega in rng.uniform(0, np.pi, 25):
            ks = k_set(float(omega), 4, 1)
            f = tiadc.solve_pr_at(float(omega), truth, cfg4, spec)
            om_an = (omega - 2 * np.pi * np.array(ks) / 4) / cfg4.ts
            a = tiadc.channel_response(truth, cfg4, om_an)
            b = np.zeros(4, dtype=complex)
            b[signal_row(ks, 4)] = 4 * np.exp(-1j * omega * spec.delay_d)
            assert np.linalg.norm(a @ f - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_design_names_frequency(self, cfg4):
        # a full-period timing error makes two columns identical
        prof = constant_profile([1, 1, 1, 1], [0, cfg4.ts, 0, 0], cfg4.fs)
        spec = DesignSpec(n_grid=1024, taps=65)
        with pytest.raises(SingularDesignError, match="omega"):
            tiadc.solve_pr_at(0.7, prof, cfg4, spec)

    def test_design_names_first_interior_bin(self, cfg4):
        # singular everywhere: the DC bin is patched, the first interior bin
        # is the first failure
        prof = constant_profile([1, 1, 1, 1], [0, cfg4.ts, 0, 0], cfg4.fs)
        with pytest.raises(SingularDesignError) as info:
            tiadc.design_filter_bank(prof, cfg4, DesignSpec(n_grid=1024, taps=65))
        assert info.value.omega == 2 * np.pi / 1024

    @pytest.mark.parametrize("m", [3, 4, 16])
    @pytest.mark.parametrize("zone", [1, 2])
    def test_batch_equals_scalar_solves(self, m, zone):
        cfg = tiadc.TiadcConfig(m_channels=m, fs=1.6e9, bits=14,
                                full_scale=2.0, quantize=False)
        truth = tiadc.make_reference_profile(cfg)
        spec = DesignSpec(n_grid=1024, taps=65, zone=zone)
        rng = np.random.default_rng(31)
        omegas = np.concatenate([rng.uniform(0, np.pi, 36),
                                 np.pi * np.arange(1, 5) / 5]).reshape(5, 8)
        batch = tiadc.solve_pr_at(omegas, truth, cfg, spec)
        assert batch.shape == (5, 8, m)
        scalar = [[tiadc.solve_pr_at(float(w), truth, cfg, spec) for w in row]
                  for row in omegas]
        assert np.array_equal(batch, scalar)

    def test_zone2_ideal_closed_form(self, cfg4, ideal4):
        spec = DesignSpec(n_grid=1024, taps=65, zone=2)
        d = spec.delay_d
        f = tiadc.solve_pr_at(0.3 * np.pi, ideal4, cfg4, spec)
        expect = np.exp(-1j * 0.3 * np.pi * (d + np.arange(4)))
        assert np.allclose(f, expect, atol=1e-12)


def gaussian(rng, m, complex_):
    return rng.normal(size=(m, m)) + (1j * rng.normal(size=(m, m)) if complex_ else 0)


def unitary(rng, m, complex_):
    return np.linalg.qr(gaussian(rng, m, complex_))[0]


def matrix_stack(rng, m, log10_conds, complex_):
    """Random m x m matrices with the given 2-norm condition numbers."""
    return np.stack([unitary(rng, m, complex_) @ np.diag(np.logspace(0, -c, m))
                     @ unitary(rng, m, complex_) for c in log10_conds])


def gram_rho(a):
    """||I - G/c||_F with G = A^H A and c = tr(G)/M, one matrix at a time."""
    g = a.conj().T @ a
    with np.errstate(all="ignore"):
        return np.linalg.norm(np.eye(len(a)) - g / (np.trace(g).real / len(a)))


def svd_gate(a):
    """The gate as it was: one SVD per matrix."""
    try:
        return np.linalg.cond(a) <= COND_LIMIT
    except np.linalg.LinAlgError as exc:
        return str(exc)


class TestConditionGate:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 16),
           bins=st.integers(1, 300), center=st.floats(4.0, 12.0),
           complex_=st.booleans(), nan=st.booleans(), singular=st.booleans())
    def test_equals_svd_gate(self, seed, m, bins, center, complex_, nan, singular):
        # cond2 spread over two decades either side of a centre near
        # COND_LIMIT, so the gate passes some matrices and fails some; every
        # stack is far from the Gram certificate and reaches the SVD tier
        rng = np.random.default_rng(seed)
        a = matrix_stack(rng, m, center + rng.uniform(-2, 2, bins), complex_)
        if nan:
            a[rng.integers(bins), rng.integers(m), rng.integers(m)] = np.nan
        if singular:
            a[rng.integers(bins), :, rng.integers(m)] = 0.0  # exactly singular
        want = svd_gate(a)
        try:
            got = design.well_conditioned(a)
        except np.linalg.LinAlgError as exc:
            got = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 16),
           bins=st.integers(1, 300), complex_=st.booleans(), nan=st.booleans(),
           zero=st.booleans(), singular=st.booleans())
    def test_certificate_equals_svd_gate(self, seed, m, bins, complex_, nan, zero,
                                         singular):
        # sqrt(M) U + E with ||E|| spread over three decades: rho falls on both
        # sides of 1/2 (about 0.01 to 20)
        rng = np.random.default_rng(seed)
        a = np.stack([np.sqrt(m) * unitary(rng, m, complex_)
                      + 10.0 ** rng.uniform(-2.5, 0.5) * gaussian(rng, m, complex_)
                      for _ in range(bins)])
        if nan:
            a[rng.integers(bins), rng.integers(m), rng.integers(m)] = np.nan
        if zero:
            a[rng.integers(bins)] = 0.0
        if singular:
            a[rng.integers(bins), :, rng.integers(m)] = 0.0  # exactly singular
        want = svd_gate(a)
        cond, seen = np.linalg.cond, []

        def recording_cond(x, *args):
            seen.append(x.copy())
            return cond(x, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "cond", recording_cond)
            try:
                got = design.well_conditioned(a)
            except np.linalg.LinAlgError as exc:
                got = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)
        # the SVD sees exactly the matrices the certificate leaves open, and
        # every certified matrix has cond2 <= sqrt(3)
        open_ = ~(np.array([gram_rho(x) for x in a]) <= 0.5)
        if open_.any():
            assert len(seen) == 1 and np.array_equal(seen[0], a[open_], equal_nan=True)
        else:
            assert seen == []
        assert np.all(cond(a[~open_]) <= np.sqrt(3) * (1 + 1e-12))

    def test_bound_decides_reference_designs(self, monkeypatch):
        # cond2 is about 1 on the reference profiles: no bin needs an SVD
        def no_svd(*args):
            raise AssertionError("np.linalg.cond called")

        monkeypatch.setattr(np.linalg, "cond", no_svd)
        for m, n_grid, taps, zone in ((4, 1024, 65, 1), (4, 1024, 65, 2),
                                      (16, 4096, 257, 1)):
            cfg = tiadc.TiadcConfig(m_channels=m, fs=1.6e9, bits=14,
                                    full_scale=2.0, quantize=False)
            tiadc.design_filter_bank(tiadc.make_reference_profile(cfg), cfg,
                                     DesignSpec(n_grid=n_grid, taps=taps, zone=zone))

    @pytest.mark.parametrize("omegas", [[0.3, 0.7, 1.1], [0.0]], ids=["bounded", "singular"])
    def test_error_names_cond2(self, cfg4, omegas):
        # a full-period timing error on channel 1 makes its column equal to
        # channel 0's, so every bin fails
        prof = constant_profile([1, 1, 1, 1], [0, cfg4.ts, 0, 0], cfg4.fs)
        spec = DesignSpec(n_grid=1024, taps=65)
        a, _ = design.alias_system(np.array(omegas), prof, cfg4, 1)
        with pytest.raises(SingularDesignError) as info:
            tiadc.solve_pr_at(np.array(omegas), prof, cfg4, spec)
        assert info.value.omega == omegas[0]
        assert f"condition number {np.linalg.cond(a[0]):.3g})" in str(info.value)


class TestDesignSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DesignSpec(taps=64)  # even
        with pytest.raises(ValueError):
            DesignSpec(n_grid=100, taps=25)  # not a power of two
        with pytest.raises(ValueError):
            DesignSpec(n_grid=128, taps=65)  # n_grid < 4L
        with pytest.raises(ValueError):
            DesignSpec(window="flattop")
        with pytest.raises(ValueError):
            DesignSpec(zone=3)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf, -1e-3])
    def test_rejects_bad_kaiser_beta(self, beta):
        # the Kaiser window is defined for beta >= 0, whatever the window
        for window in ("kaiser", "none"):
            with pytest.raises(ValueError, match="kaiser_beta must be finite and >= 0"):
                DesignSpec(window=window, kaiser_beta=beta)
        assert DesignSpec(kaiser_beta=0.0).kaiser_beta == 0.0

    def test_default_delay_is_centered(self):
        assert DesignSpec(taps=65).delay_d == 32

    @pytest.mark.parametrize("delay", [10, -1])
    def test_rejects_delay_below_half_taps(self, delay):
        # the taps would act before the sample they correct
        with pytest.raises(ValueError, match=rf"delay_d = {delay} is below \(taps - 1\)/2 = 16"):
            DesignSpec(taps=33, delay_d=delay)
        assert DesignSpec(taps=33, delay_d=16).delay_d == 16


class TestDesignFilterBank:
    def test_ideal_branches_are_pure_delays(self, cfg4, ideal4):
        spec = DesignSpec(n_grid=1024, taps=65, window="none")
        bank = tiadc.design_filter_bank(ideal4, cfg4, spec)
        d, h = spec.delay_d, spec.half_taps
        assert bank.spec.tap_offset == d - h
        for m in range(4):
            expect = np.zeros(65)
            expect[h] = 1.0  # absolute delay d + m for branch m
            assert np.allclose(bank.taps[m], expect, atol=1e-12)

    def test_gain_only_branches_scale(self, cfg4):
        gains = [1.0, 1.02, 0.97, 1.01]
        prof = constant_profile(gains, [0] * 4, cfg4.fs)
        spec = DesignSpec(n_grid=1024, taps=65, window="none")
        bank = tiadc.design_filter_bank(prof, cfg4, spec)
        for m in range(4):
            expect = np.zeros(65)
            expect[spec.half_taps] = 1.0 / gains[m]
            assert np.allclose(bank.taps[m], expect, atol=1e-9)

    def test_singular_edge_bins_patched_from_neighbors(self):
        # channel 1 lags a full period only at the analog frequencies the DC
        # (0, fs/3) and half-band (fs/6, fs/2) systems sample, so exactly
        # those two bins are singular and copy their interior neighbor
        cfg = tiadc.TiadcConfig(m_channels=3, fs=1.2e9, bits=14,
                                full_scale=2.0, quantize=False)
        fs, ts, shoulder = cfg.fs, cfg.ts, 0.2e6
        freqs, dt1 = [], []
        for knot in (0.0, fs / 6, fs / 3, fs / 2):
            for f, dt in ((knot - shoulder, 0.0), (knot, ts),
                          (knot + shoulder, 0.0)):
                if 0.0 <= f <= fs / 2:
                    freqs.append(f)
                    dt1.append(dt)
        zeros = np.zeros(len(freqs))
        prof = tiadc.MismatchProfile(
            freqs_hz=freqs, gain=np.ones((3, len(freqs))),
            dt_s=[zeros, dt1, zeros], offset_lsb=np.zeros(3))
        spec = DesignSpec(n_grid=1024, taps=65)
        for omega in (0.0, np.pi):
            with pytest.raises(SingularDesignError, match="condition number"):
                tiadc.solve_pr_at(omega, prof, cfg, spec)
        bank = tiadc.design_filter_bank(prof, cfg, spec)
        ideal = tiadc.design_filter_bank(
            tiadc.MismatchProfile.ideal(3, fs), cfg, spec)
        assert np.all(np.isfinite(bank.taps))
        assert np.max(np.abs(bank.taps - ideal.taps)) <= 5e-5

    def test_taps_real_finite_and_sized(self, reference_bank):
        _, _, bank = reference_bank
        assert bank.taps.shape == (4, 65)
        assert bank.taps.dtype == np.float64
        assert np.all(np.isfinite(bank.taps))

    def test_delay_out_of_window_rejected(self, cfg4, ideal4):
        with pytest.raises(ValueError):
            tiadc.design_filter_bank(
                ideal4, cfg4, DesignSpec(n_grid=1024, taps=65, delay_d=10))


class TestPRResidual:
    def test_exact_delay_bank_has_tiny_residuals(self, cfg4, ideal4):
        spec = DesignSpec(n_grid=1024, taps=65, window="none")
        bank = tiadc.design_filter_bank(ideal4, cfg4, spec)
        rep = tiadc.pr_residual(bank, ideal4, cfg4, n_check=256)
        assert rep.max_alias() <= 1e-10
        assert np.max(rep.residual_k0) <= 1e-10

    def test_windowed_reference_bank_regression(self, reference_bank):
        # Locked to the measured first-run values. The alias-set crossover at
        # fs/4 (omega = pi/2 for M = 4) carries an irreducible bump because
        # the exact per-frequency solution jumps there; away from that notch
        # the truncation residual obeys the 1e-3 * M scale.
        cfg, truth, bank = reference_bank
        rep = tiadc.pr_residual(bank, truth, cfg, n_check=512)
        assert np.max(rep.residual_alias[26:-26]) <= 1.5e-2  # the central 90 %
        om = rep.omegas
        notch = np.abs(om - np.pi / 2) > 0.06 * np.pi
        central = (om > 0.05 * np.pi) & (om < 0.95 * np.pi)
        assert np.max(rep.residual_alias[notch & central]) <= 2e-3
        assert np.median(rep.residual_alias) <= 2e-4

    def test_wrong_profile_residual_strictly_larger(self, reference_bank):
        cfg, truth, bank = reference_bank
        other = tiadc.MismatchProfile(
            freqs_hz=truth.freqs_hz, gain=truth.gain ** 2,
            dt_s=truth.dt_s * 1.7, offset_lsb=truth.offset_lsb)
        own = tiadc.pr_residual(bank, truth, cfg, n_check=128)
        foreign = tiadc.pr_residual(bank, other, cfg, n_check=128)
        assert foreign.max_alias() > own.max_alias()
        assert np.median(foreign.residual_alias) > np.median(own.residual_alias)

    def test_zone2_bank_fails_zone1_criterion(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        spec2 = DesignSpec(n_grid=1024, taps=65, zone=2)
        bank2 = tiadc.design_filter_bank(truth, cfg4, spec2)
        own = tiadc.pr_residual(bank2, truth, cfg4, n_check=128)
        bank2_as_zone1 = replace(bank2, spec=replace(bank2.spec, zone=1))
        cross = tiadc.pr_residual(bank2_as_zone1, truth, cfg4, n_check=128)
        assert np.median(own.residual_alias) < 2e-4
        assert np.median(cross.residual_alias) > 100 * np.median(own.residual_alias)

    def test_zone2_bank_does_not_correct_zone1_capture(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        bank2 = tiadc.design_filter_bank(
            truth, cfg4, DesignSpec(n_grid=1024, taps=65, zone=2))
        _, f = tiadc.coherent_bin(3.3e8, cfg4.fs, 4096)
        cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, f), cfg4,
                                     truth, 8192)
        fixed = tiadc.correct(tiadc.correct_offsets(cap, truth), bank2)
        before = tiadc.dynamic_metrics(tiadc.spectrum(cap, 4096), f, 4)
        after = tiadc.dynamic_metrics(tiadc.spectrum(fixed, 4096), f, 4)
        img_b = {s.freq_hz: s.dbc for s in before.spurs if s.kind == "image"}
        img_a = {s.freq_hz: s.dbc for s in after.spurs if s.kind == "image"}
        worst_drop = min(img_b[fq] - img_a[fq] for fq in img_b)
        assert worst_drop < 30.0

    def test_grid_refinement_never_much_worse(self, cfg4):
        truth = tiadc.make_reference_profile(cfg4)
        maxima = {}
        for n_grid in (512, 1024, 2048):
            bank = tiadc.design_filter_bank(
                truth, cfg4, DesignSpec(n_grid=n_grid, taps=65))
            rep = tiadc.pr_residual(bank, truth, cfg4, n_check=256)
            maxima[n_grid] = np.max(rep.residual_alias[13:-13])  # the central 90 %
        assert maxima[1024] <= 1.1 * maxima[512]
        assert maxima[2048] <= 1.1 * maxima[1024]


def raised_design(m, n_grid, taps, zone):
    cfg = tiadc.TiadcConfig(m_channels=m, fs=1.6e9, bits=14, full_scale=2.0,
                            quantize=False)
    truth = tiadc.make_reference_profile(cfg)
    return cfg, truth, tiadc.design_filter_bank(
        truth, cfg, DesignSpec(n_grid=n_grid, taps=taps, zone=zone))


def gathered_branch_response(bank, omega):
    """branch_response as it was: one einsum over an (M, L, n) gathered table."""
    omega = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    m_idx = np.arange(bank.m_channels)[:, None]
    j_idx = np.arange(bank.spec.taps)[None, :]
    delays = bank.spec.tap_offset + np.arange(bank.m_channels + bank.spec.taps - 1)
    table = np.exp(-1j * delays[:, None] * omega[None, :])
    return np.einsum("ml,mlw->mw", bank.taps, table[m_idx + j_idx])


@pytest.mark.parametrize("zone", [1, 2])
@pytest.mark.parametrize("m, n_grid, taps", [(4, 1024, 65), (8, 2048, 129), (16, 4096, 257)])
def test_branch_response_equals_gathered_table(m, n_grid, taps, zone):
    _, _, bank = raised_design(m, n_grid, taps, zone)
    for omega in (np.pi * np.arange(512) / 512, 0.37):
        assert np.array_equal(bank.branch_response(omega),
                              gathered_branch_response(bank, omega))


def test_pr_residual_memory_m16():
    # numpy reports its buffers to tracemalloc; the gathered (M, L, n) table
    # alone was 33.7 MB at this size
    cfg, truth, bank = raised_design(16, 4096, 257, 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        design.pr_residual(bank, truth, cfg, n_check=512)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 12e6


@pytest.mark.parametrize("zone", [1, 2])
@pytest.mark.parametrize("m, n_grid", [(3, 512), (4, 1024), (16, 4096)])
def test_alias_system_equals_response_at_every_alias(m, n_grid, zone):
    # alias_system evaluates each distinct alias frequency once; the matrices
    # must be channel_response over the whole (bins, M) grid, bit for bit
    cfg = tiadc.TiadcConfig(m_channels=m, fs=1.6e9, bits=14, full_scale=2.0, quantize=False)
    truth = tiadc.make_reference_profile(cfg)
    omegas = 2 * np.pi * np.arange(n_grid // 2 + 1) / n_grid
    a_mat, sig = design.alias_system(omegas, truth, cfg, zone)
    ks = k_set(omegas, m, zone)
    want = tiadc.channel_response(truth, cfg, (omegas[:, None] - 2 * np.pi * ks / m) / cfg.ts)
    assert a_mat.shape == want.shape and a_mat.tobytes() == want.tobytes()
    assert np.array_equal(sig, signal_row(ks, m))


def test_residual_csv_bytes_equal_savetxt(reference_bank, tmp_path):
    cfg, truth, bank = reference_bank
    reports = [tiadc.pr_residual(bank, truth, cfg, n_check=512),
               design.PRResidualReport(
                   omegas=np.array([0.0, 1e-300, np.pi, 5e-324]),
                   residual_k0=np.array([0.1, 1 / 3, np.inf, 2.0 ** 60]),
                   residual_alias=np.array([np.nan, -0.0, 1e300, 7.0]))]
    for i, report in enumerate(reports):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        design.write_residual_csv(report, got)
        np.savetxt(want, np.column_stack([report.omegas, report.residual_k0,
                                          report.residual_alias]),
                   fmt="%.17g", delimiter=",", comments="",
                   header="omega_rad,residual_k0,residual_alias")
        assert got.read_bytes() == want.read_bytes()


class TestBankFiles:
    def test_round_trip_bit_faithful(self, reference_bank, tmp_path):
        _, _, bank = reference_bank
        path = tmp_path / "bank.csv"
        tiadc.write_bank_csv(bank, path)
        back = tiadc.read_bank_csv(path)
        assert np.array_equal(back.taps, bank.taps)
        assert back.spec == bank.spec
        assert back.fs == bank.fs
        assert back.bank_id == bank.bank_id

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), taps=st.sampled_from([1, 3, 5, 7]), m_ch=st.integers(1, 4))
    def test_round_trip_is_exact(self, tmp_path_factory, data, taps, m_ch):
        # bank_id hashes the tap bytes and the spec's repr: it tells -0.0 from 0.0
        n_grid = data.draw(st.sampled_from([n for n in (4, 8, 16, 32, 64) if n >= 4 * taps]))
        spec = DesignSpec(
            n_grid=n_grid, taps=taps, delay_d=data.draw(st.integers((taps - 1) // 2, n_grid - 1)),
            window=data.draw(st.sampled_from(design.WINDOWS)),
            kaiser_beta=data.draw(st.one_of(
                st.sampled_from([-0.0, 5e-324, 1e300]),
                st.floats(min_value=0.0, allow_infinity=False))),
            zone=data.draw(st.sampled_from([1, 2])))
        bank = design.FilterBank(
            taps=data.draw(arrays(np.float64, (m_ch, taps), elements=st.one_of(
                st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300]),
                st.floats(allow_nan=False, allow_infinity=False)))),
            spec=spec, fs=data.draw(st.floats(min_value=0.0, exclude_min=True,
                                              allow_infinity=False)))
        path = tmp_path_factory.mktemp("bank") / "bank.csv"
        tiadc.write_bank_csv(bank, path)
        back = tiadc.read_bank_csv(path)
        assert back.taps.shape == bank.taps.shape
        assert back.taps.tobytes() == bank.taps.tobytes()
        assert back.spec == bank.spec
        assert np.float64(back.fs).tobytes() == np.float64(bank.fs).tobytes()
        assert back.bank_id == bank.bank_id

    @pytest.mark.parametrize("mutate", [
        lambda rows: rows[:-1] + ["4,99,0.5"],
        lambda rows: ["0,-1," + rows[0].split(",")[2]] + rows[1:],
        lambda rows: rows[10:],
        lambda rows: rows + rows[:1],
    ], ids=["channel-beyond-m", "tap-index-wraps", "missing-rows", "duplicate-row"])
    def test_bad_rows_rejected(self, reference_bank, tmp_path, mutate):
        _, _, bank = reference_bank
        path = tmp_path / "bank.csv"
        tiadc.write_bank_csv(bank, path)
        lines = path.read_text().splitlines()
        head = lines.index("channel,tap_index,coefficient") + 1
        path.write_text("\n".join(lines[:head] + mutate(lines[head:])) + "\n")
        with pytest.raises(tiadc.TiadcError, match="bank.csv"):
            tiadc.read_bank_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bank.csv"
        path.write_text("channel,tap_index,coefficient\n0,0,1.0\n")
        with pytest.raises(tiadc.TiadcError):
            tiadc.read_bank_csv(path)

    @pytest.mark.parametrize("edit, expect", [
        (lambda meta, head, rows: meta + ["# bogus,1"] + head + rows,
         "unknown filter bank field 'bogus'"),
        (lambda meta, head, rows: meta + ["# zone,2"] + head + rows,
         "filter bank field 'zone' given twice"),
        (lambda meta, head, rows: meta[1:] + head + rows, "missing filter bank field"),
        (lambda meta, head, rows: meta + head + ["# window,hann"] + rows, "expected 3 fields"),
        (lambda meta, head, rows: meta + rows, "not a filter bank file"),
        (lambda meta, head, rows: meta + rows + head, "not a filter bank file"),
        (lambda meta, head, rows: [line if not line.startswith("# kaiser_beta,")
                                   else "# kaiser_beta,nan" for line in meta] + head + rows,
         "bank.csv: kaiser_beta must be finite and >= 0, got nan"),
        *((lambda meta, head, rows, fs=fs: [line if not line.startswith("# fs_hz,")
                                            else f"# fs_hz,{fs}" for line in meta] + head + rows,
           f"bank.csv: fs_hz must be finite and > 0, got {float(fs)!r}")
          for fs in ("nan", "inf", "0", "-1.6e9")),
    ], ids=["unknown-key", "duplicate-key", "missing-key", "meta-after-header",
            "no-header", "header-last", "nan-kaiser-beta", "nan-fs", "inf-fs", "zero-fs",
            "negative-fs"])
    def test_meta_block_and_header_checked(self, reference_bank, tmp_path, edit, expect):
        # each meta key once, before the header; the header itself required
        _, _, bank = reference_bank
        path = tmp_path / "bank.csv"
        tiadc.write_bank_csv(bank, path)
        lines = path.read_text().splitlines()
        head = lines.index("channel,tap_index,coefficient")
        path.write_text("\n".join(edit(lines[:head], lines[head:head + 1],
                                       lines[head + 1:])) + "\n")
        with pytest.raises(tiadc.TiadcError, match=expect):
            tiadc.read_bank_csv(path)
