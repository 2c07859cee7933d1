"""The CLI's error contract under mutated input files: every run of
`analyze`, `simulate` and `pipeline` exits 0, or exits 1 with exactly one
`error:` line on stderr; no exception escapes `main`."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tiadc
from tiadc.cli import main

CONFIG = {"m_channels": 4, "fs_hz": 1.6e9, "bits": 14, "full_scale_v": 2.0,
          "quantize": True}
SWAPS = [None, "3", [4], {}, True, False, 4.5, -1, 0, math.nan]
SCENARIO = {
    "name": "mini", "kind": "sweep",
    "config": {"m_channels": 2, "fs_hz": 1e9, "bits": 12, "full_scale_v": 2.0},
    "truth_profile": {"type": "reference"},
    "calibration": {"n_freqs": 3, "f_lo_hz": 5e7, "f_hi_hz": 4.5e8,
                    "amplitude_v": 0.9, "n_samples": 512, "quantize": True},
    "design": {"n_grid": 64, "taps": 9, "window": "kaiser", "kaiser_beta": 8.0,
               "zone": 1},
    "sweep": {"n_tones": 2, "f_lo_hz": 1e8, "f_hi_hz": 3e8, "amplitude_v": 0.9,
              "n_samples": 1024, "n_fft": 512, "quantize": True},
    "thresholds": {"min_image_drop_db": 10.0, "min_enob_gain_bits": 0.5,
                   "min_enob_after_bits": 6.0, "spur_floor_dbfs": -60.0},
}


def perturb(value, factor):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * factor if factor != 1 else value + 1
    if isinstance(value, str):
        return value + "x"
    return value


def mutations(keys):
    key = st.sampled_from(sorted(keys))
    return st.lists(st.one_of(
        st.tuples(st.just("drop"), key, st.none()),
        st.tuples(st.just("swap"), key, st.sampled_from(SWAPS)),
        st.tuples(st.just("perturb"), key, st.sampled_from([-1, 0, 0.5, 1, 2, 3]))),
        min_size=1, max_size=3)


def mutate(raw, edits):
    out = dict(raw)
    for op, key, arg in edits:
        if op == "drop":
            out.pop(key, None)
        elif op == "swap":
            out[key] = arg
        elif key in out:
            out[key] = perturb(out[key], arg)
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("contract")
    cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0)
    tiadc.write_profile_csv(tiadc.make_reference_profile(cfg), tmp / "truth.csv")
    cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 2e8), cfg,
                                 tiadc.MismatchProfile.ideal(4, cfg.fs), 512)
    cap.corrected, cap.bank_id, cap.transient_samples = True, "abc", 65
    tiadc.save_capture(cap, tmp / "cap.f64")
    sidecar = json.loads((tmp / "cap.f64.json").read_text())
    return tmp, sidecar


def assert_contract(rc, err, other_lines=()):
    """rc is 0, or 1 with exactly one `error:` line; any other stderr line
    must start with one of other_lines."""
    assert rc in (0, 1)
    lines = err.splitlines()
    errors = [ln for ln in lines if ln.startswith("error: ")]
    assert len(errors) == (rc == 1), err
    assert all(ln.startswith(("error: ",) + tuple(other_lines)) for ln in lines), err
    assert "Traceback" not in err


def scenario_paths(scenario):
    """Every top-level key and every "block.key" of a scenario."""
    paths = list(scenario)
    for block, fields in scenario.items():
        if isinstance(fields, dict):
            paths += [f"{block}.{key}" for key in fields]
    return paths


def mutate_scenario(scenario, edits):
    out = json.loads(json.dumps(scenario))
    for op, path, arg in edits:
        block, _, key = path.rpartition(".")
        if not block:
            out = mutate(out, [(op, key, arg)])
        elif isinstance(out.get(block), dict):  # an earlier edit may replace it
            out[block] = mutate(out[block], [(op, key, arg)])
    return out


CHECKS = dict(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(**CHECKS)
@given(edits=mutations({"fs_hz", "m_channels", "bits", "full_scale_v", "n",
                        "quantize", "corrected", "bank_id", "transient_samples"}))
def test_analyze_mutated_sidecar(files, capsys, edits):
    tmp, sidecar = files
    (tmp / "cap.f64.json").write_text(json.dumps(mutate(sidecar, edits)))
    capsys.readouterr()
    rc = main(["analyze", "--capture", str(tmp / "cap.f64"), "--n-fft", "256",
               "--out-prefix", str(tmp / "a")])
    assert_contract(rc, capsys.readouterr().err)


@settings(**CHECKS)
@given(edits=mutations(CONFIG))
def test_simulate_mutated_config(files, capsys, edits):
    tmp, _ = files
    (tmp / "config.json").write_text(json.dumps(mutate(CONFIG, edits)))
    capsys.readouterr()
    rc = main(["simulate", "--config", str(tmp / "config.json"),
               "--profile", str(tmp / "truth.csv"), "--tone", "0.9:2e8",
               "--n", "256", "--out", str(tmp / "sim.f64")])
    assert_contract(rc, capsys.readouterr().err)


def test_unmutated_scenario_passes(files, capsys):
    tmp, _ = files
    (tmp / "scenario.json").write_text(json.dumps(SCENARIO))
    rc = main(["pipeline", "--scenario", str(tmp / "scenario.json"),
               "--out-dir", str(tmp / "pipeline")])
    assert rc == 0, capsys.readouterr().err


@settings(**CHECKS)
@given(edits=mutations(scenario_paths(SCENARIO)))
def test_pipeline_mutated_scenario(files, capsys, edits):
    tmp, _ = files
    (tmp / "scenario.json").write_text(json.dumps(mutate_scenario(SCENARIO, edits)))
    capsys.readouterr()
    rc = main(["pipeline", "--scenario", str(tmp / "scenario.json"),
               "--out-dir", str(tmp / "pipeline")])
    # a run whose results miss a threshold lists each miss before its error
    assert_contract(rc, capsys.readouterr().err, ["threshold violation: "])
