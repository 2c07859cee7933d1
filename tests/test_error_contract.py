"""The CLI's error contract under mutated input files: every run of
`analyze`, `simulate` and `pipeline` exits 0, or exits 1 with exactly one
`error:` line on stderr; no exception escapes `main`."""

import json
import math

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

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
                    "amplitude_v": 0.9, "n_samples": 512},
    "design": {"n_grid": 64, "taps": 9, "window": "kaiser", "kaiser_beta": 8.0,
               "zone": 1},
    "sweep": {"n_tones": 2, "f_lo_hz": 1e8, "f_hi_hz": 3e8, "amplitude_v": 0.9,
              "n_samples": 1024, "n_fft": 512},
    "thresholds": {"min_image_drop_db": 10.0, "min_enob_gain_bits": 0.5,
                   "min_enob_after_bits": 6.0, "spur_floor_dbfs": -60.0},
}
# the one warning simulate and pipeline may print: a mutated amplitude or
# full scale can make the simulated tones clip
CLIP_WARNING = ("warning: tone amplitudes exceed half the full-scale range; "
                "the capture may clip")


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


# every default phase but explain, which reruns a failing example many times
# over to annotate it and so delays the failure report
CHECKS = dict(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture],
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])


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
    assert_contract(rc, capsys.readouterr().err, [CLIP_WARNING])


def test_simulate_clipping_warns_in_one_line(files, capsys):
    tmp, _ = files
    (tmp / "ideal.csv").write_text(
        "channel,freq_hz,gain,dt_s,offset_lsb\n"
        + "".join(f"{m},0,1,0,0\n" for m in range(4)))
    (tmp / "config.json").write_text(json.dumps(CONFIG))
    capsys.readouterr()
    rc = main(["simulate", "--config", str(tmp / "config.json"),
               "--profile", str(tmp / "ideal.csv"), "--tone", "1.5:1e8",
               "--n", "256", "--out", str(tmp / "clip.f64")])
    assert (rc, capsys.readouterr().err) == (0, CLIP_WARNING + "\n")


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
    assert_contract(rc, capsys.readouterr().err, ["threshold violation: ", CLIP_WARNING])


@pytest.mark.parametrize("kind", ["config", "scenario", "sidecar"])
def test_malformed_json_names_file(files, capsys, kind):
    tmp, _ = files
    bad = '{"m_channels": 4,, "fs_hz": 1.6e9}'
    if kind == "sidecar":
        path = tmp / "broken.f64.json"
        (tmp / "broken.f64").write_bytes(bytes(8 * 512))
        argv = ["analyze", "--capture", str(tmp / "broken.f64"), "--out-prefix", str(tmp / "b")]
    else:
        path = tmp / f"broken_{kind}.json"
        argv = {"config": ["simulate", "--config", str(path), "--profile", str(tmp / "truth.csv"),
                           "--tone", "0.9:2e8", "--n", "256", "--out", str(tmp / "b.f64")],
                "scenario": ["pipeline", "--scenario", str(path),
                             "--out-dir", str(tmp / "broken")]}[kind]
    path.write_text(bad)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "line 1 column 18" in err
    assert len(err.splitlines()) == 1


# --- row-level mutations of the plan, profile and bank files -----------------

FIELD_SWAPS = ["x", "", "nan", "inf", "1e999", "-0"]


def perturb_field(text, arg):
    """A field scaled by a factor (ints stay ints) or replaced by text."""
    if isinstance(arg, str):
        return arg
    try:
        return str(int(int(text) * arg)) if arg != 1 else str(int(text) + 1)
    except ValueError:
        pass
    try:
        return repr(float(text) * arg) if arg != 1 else repr(float(text) + 1)
    except ValueError:
        return text + "x"


def row_mutations():
    row = st.integers(0, 10**6)
    field = st.integers(0, 10)
    return st.lists(st.one_of(
        st.tuples(st.just("drop"), row, st.none()),
        st.tuples(st.just("duplicate"), row, st.none()),
        st.tuples(st.just("truncate"), row, st.integers(0, 30)),
        st.tuples(st.just("add"), row, st.sampled_from(["0", "x", ""])),
        st.tuples(st.just("perturb"), row, st.tuples(
            field, st.sampled_from([-1, 0, 0.5, 1, 3] + FIELD_SWAPS)))),
        min_size=1, max_size=3)


def mutate_rows(text, edits, first):
    """Apply the edits to the lines from index `first` on; a row index
    picks one of them modulo their count."""
    lines = text.splitlines()
    for op, i, arg in edits:
        if len(lines) <= first:
            break
        i = first + i % (len(lines) - first)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][:arg]
        elif op == "add":
            lines[i] += "," + arg
        else:
            fields = lines[i].split(",")
            k = arg[0] % len(fields)
            fields[k] = perturb_field(fields[k], arg[1])
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def row_files(files):
    """A plan, a profile, and a small bank with a capture to correct."""
    tmp, _ = files
    (tmp / "config.json").write_text(json.dumps(CONFIG))
    cfg = tiadc.TiadcConfig(m_channels=4, fs=1.6e9, bits=14, full_scale=2.0)
    freqs = [tiadc.coherent_bin(f, cfg.fs, 512)[1] for f in (1e8, 3e8, 6e8)]
    tiadc.calibration.write_plan_csv([(f, 0.9, 512) for f in freqs], tmp / "plan.csv")
    ref = tiadc.make_reference_profile(cfg)
    # five rows: every 16th of the reference's 65, at 0, fs/4, ..., fs
    tiadc.write_profile_csv(tiadc.MismatchProfile(
        freqs_hz=ref.freqs_hz[::16], gain=ref.gain[:, ::16], dt_s=ref.dt_s[:, ::16],
        offset_lsb=ref.offset_lsb), tmp / "small.csv")
    assert main(["design", "--config", str(tmp / "config.json"), "--profile",
                 str(tmp / "small.csv"), "--n-grid", "64", "--taps", "9",
                 "--out", str(tmp / "bank.csv")]) == 0
    cap = tiadc.simulate_capture(tiadc.ToneSpec.single(0.9, 2e8), cfg,
                                 tiadc.make_reference_profile(cfg), 256)
    tiadc.save_capture(cap, tmp / "raw.f64")
    return tmp, {name: (tmp / name).read_text()
                 for name in ("plan.csv", "small.csv", "bank.csv")}


def run_mutated(tmp, capsys, name, text, argv):
    (tmp / f"mutated_{name}").write_text(text)
    capsys.readouterr()
    rc = main(argv)
    # stderr holds at most the error line: the design stage reports a mutated
    # profile that no longer covers the zone on stdout
    assert_contract(rc, capsys.readouterr().err)
    return rc


@settings(**CHECKS)
@given(edits=row_mutations())
def test_calibrate_mutated_plan(row_files, capsys, edits):
    tmp, text = row_files
    run_mutated(tmp, capsys, "plan.csv", mutate_rows(text["plan.csv"], edits, 1),
                ["calibrate", "--config", str(tmp / "config.json"),
                 "--plan", str(tmp / "mutated_plan.csv"),
                 "--truth-profile", str(tmp / "small.csv"),
                 "--out", str(tmp / "measured.csv")])


@settings(**CHECKS)
@given(edits=row_mutations())
def test_design_mutated_profile(row_files, capsys, edits):
    tmp, text = row_files
    run_mutated(tmp, capsys, "small.csv", mutate_rows(text["small.csv"], edits, 1),
                ["design", "--config", str(tmp / "config.json"),
                 "--profile", str(tmp / "mutated_small.csv"), "--n-grid", "64",
                 "--taps", "9", "--out", str(tmp / "bank_out.csv")])


@settings(**CHECKS)
@given(edits=row_mutations())
def test_correct_mutated_bank(row_files, capsys, edits):
    tmp, text = row_files
    run_mutated(tmp, capsys, "bank.csv", mutate_rows(text["bank.csv"], edits, 0),
                ["correct", "--capture", str(tmp / "raw.f64"),
                 "--bank", str(tmp / "mutated_bank.csv"),
                 "--profile", str(tmp / "small.csv"),
                 "--out", str(tmp / "fixed.f64")])


@pytest.mark.parametrize("name, at, line, expect", [
    ("plan.csv", 2, "100000000,0.9", "expected 3 fields, got 2"),
    ("plan.csv", 2, "100000000,0.9,512,7", "expected 3 fields, got 4"),
    ("plan.csv", 2, "100000000,0.9,5x", "invalid literal for int()"),
    # fields are split on commas and never unquoted, in every table
    ("plan.csv", 2, '"1e8",0.9,512', "could not convert string to float"),
    ("small.csv", 2, "0,1e8,1.0", "expected 5 fields, got 3"),
    ("small.csv", 2, '0,1e8,1.0,0.0,"0"', "could not convert string to float"),
    # below the column header, which follows the bank's eight meta lines
    ("bank.csv", 9, "0,1", "expected 3 fields, got 2"),
    ("bank.csv", 2, "# taps", "expected 2 fields, got 1"),
], ids=["plan-short", "plan-long", "plan-int", "plan-quoted", "profile-short",
        "profile-quoted", "bank-short", "bank-header"])
def test_bad_row_names_file_and_line(row_files, capsys, name, at, line, expect):
    tmp, text = row_files
    lines = text[name].splitlines()
    lines.insert(at, line)
    path = tmp / f"mutated_{name}"
    argv = {"plan.csv": ["calibrate", "--config", str(tmp / "config.json"),
                         "--plan", str(path), "--truth-profile", str(tmp / "small.csv"),
                         "--out", str(tmp / "measured.csv")],
            "small.csv": ["design", "--config", str(tmp / "config.json"),
                          "--profile", str(path), "--out", str(tmp / "b.csv")],
            "bank.csv": ["correct", "--capture", str(tmp / "raw.f64"),
                         "--bank", str(path), "--out", str(tmp / "fixed.f64")]}[name]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{at + 1}: ") and expect in err
    assert len(err.splitlines()) == 1


# --- garbled command lines ---------------------------------------------------

def valid_argv(tmp, command):
    """A valid invocation of command on the row_files inputs; every file it
    writes lands under tmp."""
    return {
        "simulate": ["simulate", "--config", str(tmp / "argv_config.json"),
                     "--profile", str(tmp / "small.csv"), "--tone", "0.9:2e8",
                     "--n", "256", "--out", str(tmp / "argv.f64")],
        "calibrate": ["calibrate", "--config", str(tmp / "argv_config.json"),
                      "--plan", str(tmp / "plan.csv"), "--truth-profile", str(tmp / "small.csv"),
                      "--out", str(tmp / "argv_measured.csv")],
        "design": ["design", "--config", str(tmp / "argv_config.json"),
                   "--profile", str(tmp / "small.csv"), "--n-grid", "64", "--taps", "9",
                   "--out", str(tmp / "argv_bank.csv")],
        "correct": ["correct", "--capture", str(tmp / "raw.f64"), "--bank", str(tmp / "bank.csv"),
                    "--profile", str(tmp / "small.csv"), "--out", str(tmp / "argv_fixed.f64")],
        "analyze": ["analyze", "--capture", str(tmp / "raw.f64"), "--n-fft", "256",
                    "--out-prefix", str(tmp / "argv")],
        "pipeline": ["pipeline", "--scenario", str(tmp / "argv_scenario.json"),
                     "--out-dir", str(tmp / "argv_pipeline")],
    }[command]


@pytest.fixture(scope="module")
def argv_files(row_files):
    tmp, _ = row_files
    (tmp / "argv_config.json").write_text(json.dumps(CONFIG))
    (tmp / "argv_scenario.json").write_text(json.dumps(SCENARIO))
    return tmp


# no garble spells -h, --help or a prefix of it, which print the usage and exit 0
GARBLES = ["", "x", "0", "-1", "nan", "1e999", "-", "--", "-x", "--bogus", "--out",
           "--tone", "--profile", "--captures", "--truth-profile", "0.9:2e8"]


def argv_edits():
    token = st.integers(0, 10**6)
    return st.lists(st.one_of(
        st.tuples(st.just("drop"), token, st.none()),
        st.tuples(st.just("duplicate"), token, st.none()),
        st.tuples(st.just("replace"), token, st.sampled_from(GARBLES)),
        st.tuples(st.just("append"), token, st.sampled_from(["x", "0", "=1"])),
        st.tuples(st.just("truncate"), token, st.integers(0, 3))),
        min_size=1, max_size=3)


def garble(argv, edits):
    """Apply the edits to argv; a token index picks one modulo the count."""
    out = list(argv)
    for op, i, arg in edits:
        if not out:
            break
        i %= len(out)
        if op == "drop":
            del out[i]
        elif op == "duplicate":
            out.insert(i, out[i])
        elif op == "replace":
            out[i] = arg
        elif op == "append":
            out[i] += arg
        else:
            out[i] = out[i][:arg]
    return out


@pytest.mark.parametrize("command", ["simulate", "calibrate", "design", "correct",
                                     "analyze", "pipeline"])
@settings(**CHECKS)
@given(edits=argv_edits())
@example(edits=[])
def test_garbled_argv(argv_files, capsys, monkeypatch, command, edits):
    # a usage error takes main's one error path: no SystemExit, no usage text
    monkeypatch.chdir(argv_files)  # a garbled output path lands here
    capsys.readouterr()
    rc = main(garble(valid_argv(argv_files, command), edits))
    err = capsys.readouterr().err
    assert edits or rc == 0, err  # the ungarbled invocation is valid
    assert_contract(rc, err, ["warning: ", "threshold violation: "])
