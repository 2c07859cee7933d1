"""The CLI's error contract under mutated input files: every run of
`analyze` and `simulate` exits 0, or exits 1 with exactly one `error:` line
on stderr; no exception escapes `main`."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tiadc
from tiadc.cli import main

CONFIG = {"m_channels": 4, "fs_hz": 1.6e9, "bits": 14, "full_scale_v": 2.0,
          "quantize": True}
SWAPS = [None, "3", [4], {}, True, False, 4.5, -1, 0, math.nan]


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


def assert_contract(rc, err):
    assert rc in (0, 1)
    if rc == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


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
