"""Command-line front end: artifacts, exit codes, determinism."""

import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import pytest

import avcsim
import avcsim.cli as cli
from avcsim.bivariate import BinaryJointDist
from avcsim.channels import avc_kernel, bsc_table, crossover_probs
from avcsim.cli import main
from avcsim.protocol import SimConfig, canonical_schedules, simulate

from oracles import binarized_correlation_reference, mutual_information_bits_reference


def _sim_config_file(tmp_path, **overrides):
    cfg = SimConfig(alpha=1.0, n=24, k=8, rate=0.25, jammer=canonical_schedules(),
                    master_seed=11, trials=2, cr_seed_bits=1, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    return path


def test_params_prints_channel_constants(capsys):
    assert main(["params", "--alpha", "1.0"]) == 0
    out = capsys.readouterr().out
    p, pt = crossover_probs(1.0)
    assert repr(p) in out and repr(pt) in out
    assert "capacity" in out


def test_params_rejects_nonpositive_alpha(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--alpha", "0"])
    assert exc.value.code == 2


def test_sweep_writes_csv_and_manifest(tmp_path, capsys):
    # --out's directory is created, and manifest.json goes beside the CSV
    out_csv = tmp_path / "new" / "deeper" / "s.csv"
    assert main(["sweep", "--alpha", "1.0", "--resolution", "8",
                 "--out", str(out_csv)]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.split(",")[:4] == ["A", "a", "q00", "q01"]
    manifest = json.loads((out_csv.parent / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["outputs"] == ["s.csv"]
    assert manifest["config"]["resolution"] == 8


@pytest.mark.parametrize("argv", [
    ["--alpha", "nan"],
    ["--alpha", "inf"],
])
def test_sweep_rejects_non_finite_alpha(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *argv, "--out", str(tmp_path / "sweep.csv")])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["--eta", "2"], "transmissivity"),
    (["--eta", "nan"], "transmissivity"),
    (["--r", "-1"], "squeezing"),
    (["--r", "nan"], "squeezing"),
    (["--r", "inf"], "squeezing"),
])
def test_sweep_bad_source_exits_2(argv, message, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha", "1.0", *argv, "--out", str(out_csv)]) == 2
    assert message in capsys.readouterr().err
    assert not out_csv.exists()
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--r", "400"], "squeezing r = 400.0 is too large: cosh(2r) overflows"),
    (["--alpha", "1e4"], "jammer budget alpha^2 = 100000000.0 is too large"),
    (["--alpha", "1e100"], "jammer budget alpha^2 = 1e+200 is too large"),
])
def test_sweep_input_beyond_double_range_exits_2(argv, message, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha", "1.0", *argv, "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad sweep input: {message}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out_csv.exists()
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("r", ["150", "200", "355"])
def test_sweep_at_large_squeezing_runs_or_refuses_in_one_line(r, tmp_path, capsys):
    # cosh(2r) is finite here but its square is not; RuntimeWarnings are errors
    out_csv = tmp_path / "sweep.csv"
    # no sender light: the receiver bit is the jammer's alone, so every law is defined
    argv = ["sweep", "--alpha", "1.0", "--r", r, "--resolution", "16", "--out", str(out_csv)]
    assert main([*argv, "--eta", "0"]) == 0
    rows = out_csv.read_text().splitlines()[1:]
    assert len(rows) == 245
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    capsys.readouterr()
    # with the sender's light the sign bits' correlation rounds to 1
    out_csv.unlink()
    assert main([*argv, "--eta", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad sweep input: |rho| must be <= 0.999999999")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out_csv.exists()


def test_symmetrize_verdict_exit_codes(tmp_path, capsys):
    kernel_path = tmp_path / "kernel.json"
    kernel_path.write_text(json.dumps(avc_kernel(1.0).to_json_dict()))
    assert main(["symmetrize", str(kernel_path)]) == 0
    out = capsys.readouterr().out
    assert "SYMMETRIZABLE" in out and "residual" in out

    bsc_path = tmp_path / "bsc.json"
    bsc_path.write_text(json.dumps(bsc_table(0.3).to_json_dict()))
    assert main(["symmetrize", str(bsc_path)]) == 1
    assert "NOT SYMMETRIZABLE" in capsys.readouterr().out


def test_symmetrize_input_errors(tmp_path, capsys):
    assert main(["symmetrize", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["symmetrize", str(bad)]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"states": [0]}))
    assert main(["symmetrize", str(incomplete)]) == 2
    for value in (float("nan"), float("inf")):
        data = avc_kernel(1.0).to_json_dict()
        data["w"][0][1][0] = value
        non_finite = tmp_path / "non_finite.json"
        non_finite.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["symmetrize", str(non_finite)]) == 2
        assert capsys.readouterr().err.startswith("bad channel file:")


@pytest.mark.parametrize("change, message", [
    ({"states": 5}, "channel table field 'states' must be a list"),
    ({"weights": []}, "channel table has unknown field(s) 'weights'"),
    ({"w": [[[{}, 1.0]]]}, "w must be an array of numbers"),
    (None, "channel table must be a JSON object"),
])
def test_symmetrize_rejects_malformed_channel_file_with_exit_2(change, message, tmp_path,
                                                               capsys):
    data = avc_kernel(1.0).to_json_dict()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(data, **change) if change else [data]))
    assert main(["symmetrize", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad channel file: {message}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_simulate_writes_report_bundle(tmp_path, capsys):
    cfg_path = _sim_config_file(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["simulate", str(cfg_path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["manifest"] == "manifest.json"
    assert set(report["per_strategy"]) == {"all-0", "all-1", "all-2", "alternating"}
    trials = (out_dir / "trials.csv").read_text().splitlines()
    assert trials[0].startswith("strategy,trial,message_ok")
    assert len(trials) == 1 + 4 * 2
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["master_seed"] == 11


def test_simulate_seed_and_trials_overrides(tmp_path, capsys):
    cfg_path = _sim_config_file(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["simulate", str(cfg_path), "--out", str(out_dir),
                 "--seed", "99", "--trials", "1"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["master_seed"] == 99
    assert report["config"]["trials"] == 1


def test_simulate_worker_count_does_not_change_artifacts(tmp_path, capsys):
    cfg_path = _sim_config_file(tmp_path)
    dirs = [tmp_path / "w1", tmp_path / "w2"]
    for d, workers in zip(dirs, ("1", "2")):
        assert main(["simulate", str(cfg_path), "--out", str(d),
                     "--workers", workers]) == 0
    assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()
    assert (dirs[0] / "trials.csv").read_bytes() == (dirs[1] / "trials.csv").read_bytes()


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_simulate_worker_count_below_1_exits_2_before_any_work(workers, tmp_path, capsys,
                                                               monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("simulate ran with a worker count below 1")

    monkeypatch.setattr(cli, "simulate", no_work)
    out = tmp_path / "run"
    assert main(["simulate", str(_sim_config_file(tmp_path)), "--out", str(out),
                 "--workers", workers]) == 2
    assert capsys.readouterr().err == f"bad --workers: workers must be at least 1, got {workers}\n"
    assert not out.exists()


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha": 1.0, "n": 24}))
    assert main(["simulate", str(bad)]) == 2


@pytest.mark.parametrize("command, prefix", [("simulate", "bad config: "),
                                             ("symmetrize", "bad channel file: ")])
def test_deeply_nested_json_exits_2(command, prefix, tmp_path, capsys):
    # too deep for the JSON parser's recursion, which raises RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main([command, str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix + "JSON in ") and "nested too deeply" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_simulate_unwritable_out_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("simulate ran before the output directory was checked")

    monkeypatch.setattr(cli, "simulate", no_work)
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub"
    assert main(["simulate", str(_sim_config_file(tmp_path)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# config fields `SimConfig` accepted although `simulate` then failed inside the
# run, and the start of the refusal
UNRUNNABLE_CONFIGS = [
    ({"k": 2}, "k/2 = 1 transfer rounds cannot carry 1 seed bits"),
    ({"r": 20.0}, "a jammer state correlates"),
    ({"r": 300.0}, "a jammer state correlates"),
    ({"r": 400.0}, "squeezing r = 400.0 is too large"),
    ({"alpha": 1e200}, "squeezing r = 461.2"),
]


@pytest.mark.parametrize("change,message", UNRUNNABLE_CONFIGS,
                         ids=[json.dumps(c) for c, _ in UNRUNNABLE_CONFIGS])
def test_simulate_refuses_unrunnable_config_before_any_trial(change, message, tmp_path,
                                                             capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("simulate ran on a config it cannot run")

    monkeypatch.setattr(cli, "simulate", no_work)
    data = json.loads(_sim_config_file(tmp_path).read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(data, **change)))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad config: {message}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_simulate_unwritable_artifact_exits_2(tmp_path, capsys):
    out = tmp_path / "o1"
    (out / "report.json").mkdir(parents=True)
    assert main(["simulate", str(_sim_config_file(tmp_path)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out / 'report.json'}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_sweep_unwritable_manifest_exits_2(tmp_path, capsys):
    out = tmp_path / "o2"
    (out / "manifest.json").mkdir(parents=True)
    assert main(["sweep", "--alpha", "1.0", "--resolution", "8",
                 "--out", str(out / "sweep.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out / 'manifest.json'}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_sweep_out_under_a_regular_file_exits_2_before_any_work(tmp_path, capsys,
                                                                 monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "sweep_records", lambda *args: calls.append(args))
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["sweep", "--alpha", "1.0", "--resolution", "8",
                 "--out", str(afile / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {afile}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert len(calls) == 0


def test_sweep_resolution_below_2_exits_2(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    assert main(["sweep", "--alpha", "1.0", "--resolution", "1", "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert "resolution must be at least 2" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out_csv.exists()


def _out_of_memory(*args, **kwargs):
    # what numpy raises for an array larger than memory, without allocating it
    raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")


def test_sweep_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep_records", _out_of_memory)
    out_csv = tmp_path / "s.csv"
    assert main(["sweep", "--alpha", "1.0", "--resolution", "100000",
                 "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err == "sweep at resolution 100000 does not fit in memory\n"
    assert not out_csv.exists()


def test_simulate_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "simulate", _out_of_memory)
    path = _sim_config_file(tmp_path)
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == f"config {path} does not fit in memory (n = 24)\n"
    assert not (tmp_path / "run" / "report.json").exists()


def test_sweep_writes_nan_where_a_bit_statistic_is_undefined(tmp_path, capsys):
    # without sender light the receiver bit follows the jammer's displacement:
    # at the grid's edge one bit's variance rounds to 0, and in some of those
    # rows a positive cell's marginal product does too
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha", "2", "--eta", "0", "--resolution", "200",
                 "--out", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 39606
    undefined = {"rho_bin": 0, "mi_bits": 0}
    statistics = [("rho_bin", binarized_correlation_reference, ValueError),
                  ("mi_bits", mutual_information_bits_reference, ZeroDivisionError)]
    for row in rows:
        law = BinaryJointDist(*(float(row[k]) for k in ("q00", "q01", "q10", "q11")))
        for column, reference, undefined_error in statistics:
            try:
                expected = repr(reference(law))
            except undefined_error:
                expected = "nan"
                undefined[column] += 1
            assert row[column] == expected, (column, row)
    assert undefined == {"rho_bin": 11, "mi_bits": 6}


def test_trials_csv_rows_are_the_reports_trial_records(tmp_path, capsys):
    cfg_path = _sim_config_file(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
    # report.json sorts its keys, so the column order comes from the record
    keys = list(simulate(SimConfig.from_json_dict(json.loads(cfg_path.read_text())))
                .per_trial[0])
    records = json.loads((out / "report.json").read_text())["per_trial"]
    with open(out / "trials.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == keys
    assert len(rows) == 1 + len(records) == 1 + 4 * 2
    assert sorted(records[0]) == sorted(keys)
    for row, record in zip(rows[1:], records):
        assert row == [str(int(record[k])) if isinstance(record[k], bool)
                       else repr(record[k]) if isinstance(record[k], float)
                       else str(record[k]) for k in keys]
    assert {row[keys.index("message_ok")] for row in rows[1:]} <= {"0", "1"}


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "avcsim.cli", "params", "--alpha", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "p_tilde" in proc.stdout


# (field, value) pairs that `simulate` must refuse up front with exit code 2
BAD_CONFIG_FIELDS = [
    ("alpha", float("nan")), ("alpha", float("inf")),
    ("rate", float("nan")), ("rate", 20.0),
    ("eta", float("nan")),
    ("r", float("inf")),
    ("n", 64.5),
    ("k", True),
    ("trials", 2.0),
    ("master_seed", True),
    ("cr_seed_bits", 1.5),
    ("max_block_bits", 13.0),
]


@pytest.mark.parametrize("field,value", BAD_CONFIG_FIELDS,
                         ids=[f"{f}={v!r}" for f, v in BAD_CONFIG_FIELDS])
def test_simulate_rejects_bad_field_with_exit_2(field, value, tmp_path, capsys):
    data = json.loads(_sim_config_file(tmp_path).read_text())
    data[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad config: {field} must be")
    assert not (tmp_path / "run").exists()


# jammer entries that `simulate` must refuse up front with exit code 2, and the
# start of the message it gives
BAD_JAMMERS = [
    ({"kind": "symbols", "symbols": [0, 1.5]}, "jammer symbol must be an integer"),
    ({"kind": "symbols", "symbols": [0, True]}, "jammer symbol must be an integer"),
    ({"kind": "symbols", "symbols": [2.0]}, "jammer symbol must be an integer"),
    ({"kind": "gaussian", "states": [{"A": 0.5, "B": 0.5, "a": float("nan")}]},
     "jammer state a must be a finite number"),
    ({"kind": "gaussian", "states": [{"A": float("inf"), "B": 0.5}]},
     "jammer state A must be a finite number"),
    ({"kind": "symbols"}, "symbol schedules need a nonempty tuple"),
    (5, "jammer must be a JSON object"),
    ({"kind": "worst_of", "options": [5]}, "jammer must be a JSON object"),
    ({"kind": "gaussian", "states": [{"A": 0.5, "B": 0.5, "x": 1.0}]},
     "jammer state has unknown field(s) 'x'"),
]


@pytest.mark.parametrize("jammer,message", BAD_JAMMERS,
                         ids=[json.dumps(j) for j, _ in BAD_JAMMERS])
def test_simulate_rejects_bad_jammer_with_exit_2(jammer, message, tmp_path, capsys):
    data = json.loads(_sim_config_file(tmp_path).read_text())
    data["jammer"] = jammer
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad config: {message}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_simulate_rejects_unknown_config_field_with_exit_2(tmp_path, capsys):
    data = json.loads(_sim_config_file(tmp_path).read_text())
    data["trails"] = 50
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "bad config: config has unknown field(s) 'trails'\n"
    assert not (tmp_path / "run").exists()


# Small configs of each mode and source with the sha256 of report.json and
# trials.csv: a change to the decoders, codebooks or random streams that alters
# any output byte fails here.
PINNED_RUNS = {
    "correlation-assisted": (
        {"k": 32, "cr_seed_bits": 3},
        "1cb8c71765b2f289426912ae8c054186b776e67e44f7a479dffcf667385bdf86",
        "c62236516bbfcb18aaed2ba4bb42a411210d5c1743c3bdb4cba430f31859ae71"),
    "thermal": (
        {"k": 32, "cr_seed_bits": 3, "source": "thermal"},
        "d459745aa39de06b83854df2a7f99d1a4ebd2e3b95099f52fb18420dfe8834ea",
        "de2ed7464b879c4dae0a797c8134bd60e40939818b0653afc9d7ec13bd80a2e2"),
    "common-randomness": (
        {"code_mode": "common-randomness"},
        "6ee8b692a5866345835ac5b29b2bad67f0905167de51125836ee5cd125b9995a",
        "1eb3b7ab3316a950b306425649e72d9fad7720e8f8a094f95691adce0cd316c8"),
    "deterministic": (
        {"code_mode": "deterministic"},
        "bfdaedc922dda7a1074b26144cc5fd20a9c653b75e79ac25af1cf25cceeb5c21",
        "1eb3b7ab3316a950b306425649e72d9fad7720e8f8a094f95691adce0cd316c8"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_simulate_artifacts_match_pinned_hashes(name, tmp_path, capsys):
    overrides, report_sha, trials_sha = PINNED_RUNS[name]
    kw = dict(alpha=1.0, n=128, k=0, rate=0.1, master_seed=20260813, trials=3)
    cfg = SimConfig(jammer=canonical_schedules(), **dict(kw, **overrides))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    out = tmp_path / "run"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == report_sha
    assert hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest() == trials_sha


def _thermal_run_artifacts(tmp_path, name: str, env_set: dict) -> tuple[bytes, bytes]:
    """report.json and trials.csv of a thermal seed-mismatch run in a fresh
    process, with `env_set` in its environment (and no inherited
    OPENBLAS_CORETYPE or NPY_DISABLE_CPU_FEATURES).

    The thermal source makes seed transfers fail, and decoding with the
    wrong codebook meets many exactly tied scores.
    """
    cfg = SimConfig(alpha=1.0, n=1024, k=200, rate=0.1, jammer=canonical_schedules(),
                    source="thermal", master_seed=7, trials=10, cr_seed_bits=3)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    src = os.path.dirname(os.path.dirname(avcsim.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in (env.get("PYTHONPATH"),) if p])
    env.update(env_set)
    out = tmp_path / name
    proc = subprocess.run([sys.executable, "-m", "avcsim.cli", "simulate", str(path),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return (out / "report.json").read_bytes(), (out / "trials.csv").read_bytes()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_simulate_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    # a decoder whose sums followed the BLAS kernel's order broke some exact
    # ties differently under Prescott
    default = _thermal_run_artifacts(tmp_path, "default", {})
    assert _thermal_run_artifacts(tmp_path, "prescott", {"OPENBLAS_CORETYPE": "Prescott"}) == default


def test_simulate_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the decoder sums its class counts with a BLAS product on every block; a
    # thread split changes the summation order, which exact integers survive
    one = _thermal_run_artifacts(tmp_path, "one-thread", {"OPENBLAS_NUM_THREADS": "1"})
    assert _thermal_run_artifacts(tmp_path, "two-threads", {"OPENBLAS_NUM_THREADS": "2"}) == one


def _simd_features_found() -> list:
    """The SIMD targets numpy dispatches to on this CPU (beyond its baseline)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


@pytest.mark.skipif(not _simd_features_found(), reason="numpy dispatches to no SIMD target here")
def test_simulate_artifacts_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # numpy's exp and log can differ in the last bit from one SIMD target to
    # another; the decoders take their logarithms and the mixing from `math`
    default = _thermal_run_artifacts(tmp_path, "default", {})
    scalar = _thermal_run_artifacts(
        tmp_path, "scalar", {"NPY_DISABLE_CPU_FEATURES": " ".join(_simd_features_found())})
    assert scalar == default
