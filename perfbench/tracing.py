"""Spans around the calls into each tiadc layer, and the per-layer metrics
computed from them.

The pipeline reaches every layer through module attributes
(``design.design_filter_bank``, ``metrics.spectrum``, ``correction.correct``,
and ``correct`` reaches the kernel through ``kernels.apply_filter_bank``).
While a ``Tracer`` is installed those attributes are replaced by wrappers that
record a span per call; nothing under ``src/`` is edited. Spans live in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager


def _samples(a):
    return {"samples_simulated": a["n_total"]}


def _fits(a):
    config = a["config"] or a["capture"].config
    return {"fits": config.m_channels}


def _grid(a):
    return {"grid_bins": a["spec"].n_grid // 2 + 1}


def _residual(a):
    return {"residual_bins": a["n_check"]}


def _correct(a):
    n = a["capture"].n
    return {"samples": n, "macs_computed": n * a["bank"].spec.taps}


def _kernel(a):
    n = len(a["samples"])
    # computed, not measured: read the input and the taps, write the output
    return {"calls": 1, "input_samples": n,
            "bytes_computed": 8 * (2 * n + a["taps"].size)}


def _fft(a):
    return {"fft_points": a["n_fft"]}


# (module, attribute, span name, counts taken from the bound arguments)
BOUNDARIES = (
    ("cli", "run_pipeline", "cli.pipeline", None),
    ("model", "simulate_capture", "model.simulate", _samples),
    ("model", "predict_output_spectrum", "model.predict", None),
    ("calibration", "estimate_mismatch_at", "calibration.estimate", _fits),
    ("calibration", "build_profile", "calibration.estimate", None),
    ("calibration", "constant_profile", "calibration.estimate", None),
    ("design", "design_filter_bank", "design.bank", _grid),
    ("design", "pr_residual", "design.residual", _residual),
    ("model", "write_profile_csv", "cli.io", None),
    ("design", "write_bank_csv", "cli.io", None),
    ("design", "write_residual_csv", "cli.io", None),
    ("correction", "correct_offsets", "correction.offsets", None),
    ("correction", "correct", "correction.correct", _correct),
    ("kernels", "apply_filter_bank", "kernels.apply", _kernel),
    ("metrics", "spectrum", "metrics.spectrum", _fft),
    ("metrics", "dynamic_metrics", "metrics.dynamic", None),
)

ROOT_SPAN = "op"

# per-layer metric -> (unit, what it sums): ("self", span name) for self time
# in ms, or ("count", span name, count key)
LAYER_METRICS = {
    "design.bank_ms": ("ms", ("self", "design.bank")),
    "design.grid_bins": ("count", ("count", "design.bank", "grid_bins")),
    "design.residual_ms": ("ms", ("self", "design.residual")),
    "design.residual_bins": ("count", ("count", "design.residual", "residual_bins")),
    "metrics.spectrum_ms": ("ms", ("self", "metrics.spectrum")),
    "metrics.dynamic_ms": ("ms", ("self", "metrics.dynamic")),
    "metrics.fft_points": ("count", ("count", "metrics.spectrum", "fft_points")),
    "calibration.estimate_ms": ("ms", ("self", "calibration.estimate")),
    "calibration.fits": ("count", ("count", "calibration.estimate", "fits")),
    "model.simulate_ms": ("ms", ("self", "model.simulate")),
    "model.samples_simulated": ("count",
                                ("count", "model.simulate", "samples_simulated")),
    "model.predict_ms": ("ms", ("self", "model.predict")),
    "correction.offsets_ms": ("ms", ("self", "correction.offsets")),
    "correction.correct_ms": ("ms", ("self", "correction.correct")),
    "correction.samples": ("count", ("count", "correction.correct", "samples")),
    "correction.macs_computed": ("count",
                                 ("count", "correction.correct", "macs_computed")),
    "correction.bytes_computed": ("bytes",
                                  ("count", "kernels.apply", "bytes_computed")),
    "kernels.ms": ("ms", ("self", "kernels.apply")),
    "kernels.calls": ("count", ("count", "kernels.apply", "calls")),
    "cli.pipeline_self_ms": ("ms", ("self", "cli.pipeline")),
    "cli.io_ms": ("ms", ("self", "cli.io")),
}


class Tracer:
    """Records spans (name, start, end, parent, unit) with per-call counts.

    ``unit`` labels the op or setup repetition that the following spans
    belong to; spans of one unit share it.
    """

    def __init__(self):
        self.spans = []
        self.unit = None
        self.missing = []
        self._stack = []
        self._patches = []
        # A boundary the package no longer has (say, a kernel module folded
        # into correction) is skipped and listed; its time then shows in the
        # caller's self time.
        for mod_name, attr, name, count in BOUNDARIES:
            try:
                module = importlib.import_module(f"tiadc.{mod_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._patches.append(
                (module, attr, original, self._wrap(original, name, count)))

    @contextmanager
    def span(self, name, **counts):
        rec = {"name": name, "unit": self.unit,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": counts}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name, count):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            counts = {}
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = count(bound.arguments)
            with self.span(name, **counts):
                return original(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self, unit):
        """Wrap the layer boundaries while the block runs, labelling its spans."""
        self.unit = unit
        for module, attr, _original, traced in self._patches:
            setattr(module, attr, traced)
        try:
            yield
        finally:
            for module, attr, original, _traced in self._patches:
                setattr(module, attr, original)
            self.unit = None

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"missing_boundaries": self.missing, "spans": self.spans}, fh)


def _self_times(spans):
    """Duration minus the time covered by direct children, per span index."""
    own = [s["end"] - s["start"] for s in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            own[s["parent"]] -= spans[i]["end"] - spans[i]["start"]
    return own


def _unit_totals(tracer):
    """Per unit: self ms and summed counts by span name, plus the root span."""
    own = _self_times(tracer.spans)
    units = {}
    for i, s in enumerate(tracer.spans):
        u = units.setdefault(s["unit"], {"self_ms": {}, "counts": {}, "root": None})
        u["self_ms"][s["name"]] = u["self_ms"].get(s["name"], 0.0) + own[i] * 1e3
        for key, value in s["counts"].items():
            slot = (s["name"], key)
            u["counts"][slot] = u["counts"].get(slot, 0) + value
        if s["name"] == ROOT_SPAN:
            u["root"] = (s["end"] - s["start"]) * 1e3, own[i] * 1e3
    return units


def layer_metrics(tracer, traced_op_ms, untraced_op_ms):
    """Per-layer metrics: medians over traced ops of each op's totals.

    A layer that does no work inside the ops of a workload (design,
    calibration, model and cli on correct_m16, which runs them in
    setup) is reported per setup repetition instead, so its figure shows what
    a change to it moves there: setup time.
    """
    units = _unit_totals(tracer)
    ops = [u for key, u in units.items() if str(key).startswith("op")]
    setups = [u for key, u in units.items() if str(key).startswith("setup")]

    def value(u, how):
        if how[0] == "self":
            return u["self_ms"].get(how[1], 0.0)
        return u["counts"].get((how[1], how[2]), 0)

    out = {}
    for name, (unit, how) in LAYER_METRICS.items():
        pool = ops if any(how[1] in u["self_ms"] for u in ops) else setups
        vals = [value(u, how) for u in pool] or [0]
        out[name] = {"value": statistics.median(vals), "unit": unit}

    useful = [value(u, ("count", "correction.correct", "samples"))
              / value(u, ("count", "kernels.apply", "input_samples"))
              for u in ops if value(u, ("count", "kernels.apply", "input_samples"))]
    out["kernels.useful_frac"] = {
        "value": statistics.median(useful) if useful else 0.0, "unit": "ratio"}
    out["trace.overhead_frac"] = {
        "value": statistics.median(traced_op_ms) / statistics.median(untraced_op_ms) - 1.0,
        "unit": "ratio"}
    attributed = [1.0 - root_self / total for total, root_self in
                  (u["root"] for u in ops if u["root"] is not None)]
    out["trace.attributed_frac"] = {"value": statistics.median(attributed),
                                    "unit": "ratio"}
    return out
