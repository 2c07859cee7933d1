"""The benchmark workloads: inputs made from the seed, the timed op, and
the output checks that run after it.

Every op is one closed-loop call from a single client. Building a workload
makes its inputs and is not timed; ``setup`` is the program's set-up and is
timed; ``run`` is the timed op; ``check`` runs after the clock stops.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tiadc import cli, correction, metrics, model
from tiadc.model import Tone, ToneSpec

ENOB_MIN_BITS = 13.0
CAPTURE_SAMPLES = 1 << 20
ANALYSIS_FFT = 1 << 16
POOL_SIZE = 4
# share of the bundled first-Nyquist sweep band (2% to 90%) the pool tones use
POOL_BAND = (0.02, 0.90)
POOL_AMPLITUDE_V = (0.85, 0.98)


@dataclass
class Outcome:
    """What one op produced, as judged by its checks."""

    ok: bool
    samples: int  # corrected samples the op delivered
    enob_after_min: float
    image_dbc_after_max: float
    reason: str = ""


def digest(samples) -> str:
    """SHA-256 of the array's bytes, hashed in place."""
    return hashlib.sha256(np.ascontiguousarray(samples).data).hexdigest()


def in_child(fn):
    """Return ``fn()``, run in a forked child process whose memory does not
    count in this process's peak; the result travels back as JSON."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(fn(), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"child process failed with status {status}")
    return json.loads(data)


def _jittered_grid(lo, hi, n, rng):
    """n targets spread over [lo, hi], each moved by up to a quarter step."""
    step = (hi - lo) / (n - 1)
    grid = np.linspace(lo, hi, n) + rng.uniform(-0.25, 0.25, n) * step
    return [float(f) for f in np.clip(grid, lo, hi)]


def bringup_variant(base: dict, index: int, rng) -> dict:
    """A bundled scenario with its calibration and sweep targets jittered
    within the scenario's own bands."""
    sc = copy.deepcopy(base)
    sc["name"] = f"{base['name']}-v{index}"
    cal = sc["calibration"]
    cal["freqs_hz"] = _jittered_grid(cal.pop("f_lo_hz"), cal.pop("f_hi_hz"),
                                     int(cal.pop("n_freqs")), rng)
    sweep = sc["sweep"]
    sweep["f_targets_hz"] = _jittered_grid(sweep.pop("f_lo_hz"), sweep.pop("f_hi_hz"),
                                           int(sweep.pop("n_tones")), rng)
    return sc


class Bringup:
    """Each op is one ``cli.run_pipeline`` call: calibrate, design, correct
    and analyze a 20-tone sweep. Ops cycle over seeded variants of the
    zone-1 and zone-2 reference scenarios, so both alias-set branches run.
    Setup runs every variant once; the CSV bytes of the first set-up are the
    reference the ops are compared with."""

    VARIANTS_PER_SCENARIO = 2
    CHECKED_FILES = ("bank.csv", "summary.csv")

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        bases = [cli.load_scenario(name)
                 for name in ("wideband_zone1", "undersampling_zone2")]
        self.scenarios = [bringup_variant(base, i, rng)
                          for i in range(self.VARIANTS_PER_SCENARIO) for base in bases]
        self.work_dir = work_dir
        self.reference = []

    def _out_dir(self, i):
        return self.work_dir / f"variant{i % len(self.scenarios)}"

    def setup(self):
        first = not self.reference
        for i, scenario in enumerate(self.scenarios):
            out = self._out_dir(i)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            result = cli.run_pipeline(scenario, out)
            if not result.ok:
                raise RuntimeError(f"{scenario['name']}: {result.failures}")
            if first:
                self.reference.append(
                    {f: (out / f).read_bytes() for f in self.CHECKED_FILES})

    def run(self, i):
        return cli.run_pipeline(self.scenarios[i % len(self.scenarios)], self._out_dir(i))

    def check(self, i, result) -> Outcome:
        scenario = self.scenarios[i % len(self.scenarios)]
        rows = result.rows
        outcome = Outcome(
            ok=result.ok,
            samples=len(rows) * int(scenario["sweep"]["n_samples"]),
            enob_after_min=min(r["enob_after"] for r in rows),
            image_dbc_after_max=max(r["max_image_dbc_after"] for r in rows),
            reason="; ".join(result.failures))
        ref = self.reference[i % len(self.scenarios)]
        for name in self.CHECKED_FILES:
            if (self._out_dir(i) / name).read_bytes() != ref[name]:
                outcome.ok = False
                outcome.reason += f" {name} differs from the variant's first run"
        return outcome


def m16_scenario() -> dict:
    """The reference scenario at the scale point M = 16, n_grid 4096, 257 taps."""
    sc = copy.deepcopy(cli.load_scenario("wideband_zone1"))
    sc["name"] = "wideband_zone1-m16"
    sc["config"]["m_channels"] = 16
    sc["design"].update(n_grid=4096, taps=257)
    sc["sweep"]["n_tones"] = 4  # validates the bank; the ops do the real work
    return sc


class Correct:
    """Building the workload simulates a pool of 2^20-sample captures, each
    with a seeded tone. Setup is the program's own: one ``cli.run_pipeline``
    call that calibrates, designs and validates the bank. Each op is the
    production ``tiadc correct`` + ``tiadc analyze`` path on one pool
    capture: offset removal, blocked filter-bank correction, spectrum and
    sine-test metrics. The one-shot (unblocked) reference corrections are
    made once, when the first op is checked, in a child process, and kept
    as digests, so neither their time nor their memory counts."""

    def __init__(self, scenario: dict, seed: int, work_dir: Path):
        self.scenario = scenario
        self.config = cli.config_from_dict(scenario["config"])
        rng = np.random.default_rng(seed)
        half = self.config.fs / 2
        self.tones = []
        for _ in range(POOL_SIZE):
            target = rng.uniform(*POOL_BAND) * half
            _, freq = metrics.coherent_bin(target, self.config.fs, ANALYSIS_FFT)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            amplitude = rng.uniform(*POOL_AMPLITUDE_V)
            self.tones.append(Tone(float(amplitude), float(freq), float(phase)))
        truth = model.make_reference_profile(self.config)
        self.pool = [model.simulate_capture(ToneSpec(tones=(tone,)), self.config,
                                            truth, CAPTURE_SAMPLES)
                     for tone in self.tones]
        self.work_dir = work_dir
        self.reference = None

    def setup(self):
        out = self.work_dir / "design"
        out.mkdir(parents=True, exist_ok=True)
        result = cli.run_pipeline(self.scenario, out)
        if not result.ok:
            raise RuntimeError(f"{self.scenario['name']}: {result.failures}")
        self.bank, self.profile = result.bank, result.measured_profile

    def _one_shot_digests(self):
        return [digest(correction.correct(correction.correct_offsets(c, self.profile),
                                          self.bank, block_size=None).samples)
                for c in self.pool]

    def run(self, i):
        capture = self.pool[i % POOL_SIZE]
        fixed = correction.correct(correction.correct_offsets(capture, self.profile),
                                   self.bank)
        report = metrics.dynamic_metrics(
            metrics.spectrum(fixed, ANALYSIS_FFT, "none"),
            f_fund_hz=self.tones[i % POOL_SIZE].freq_hz,
            m_channels=self.config.m_channels)
        return fixed, report

    def check(self, i, result) -> Outcome:
        if self.reference is None:
            self.reference = in_child(self._one_shot_digests)
        fixed, report = result
        images = [s.dbc for s in report.spurs if s.kind == "image" and not s.collision]
        outcome = Outcome(ok=True, samples=fixed.n, enob_after_min=report.enob_bits,
                          image_dbc_after_max=max(images))
        # Later set-ups must reproduce the first one's bank bit for bit too.
        if digest(fixed.samples) != self.reference[i % POOL_SIZE]:
            outcome.ok = False
            outcome.reason = "blocked correction differs from the one-shot reference"
        if report.enob_bits < ENOB_MIN_BITS:
            outcome.ok = False
            outcome.reason += f" enob after {report.enob_bits:.2f} < {ENOB_MIN_BITS}"
        return outcome


WORKLOADS = {
    "bringup_m4": lambda seed, work_dir: Bringup(seed, work_dir),
    "correct_m16": lambda seed, work_dir: Correct(m16_scenario(), seed, work_dir),
}
