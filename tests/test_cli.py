"""Command-line front end: artifacts, exit codes, determinism."""

import hashlib
import json
import os
import platform
import subprocess
import sys

import pytest

import avcsim
import avcsim.cli as cli
from avcsim.channels import avc_kernel, bsc_table, crossover_probs
from avcsim.cli import main
from avcsim.protocol import SimConfig, canonical_schedules


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
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha", "1.0", "--resolution", "8",
                 "--out", str(out_csv)]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.split(",")[:4] == ["A", "a", "q00", "q01"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["outputs"] == ["sweep.csv"]
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
        "5fee16a1e04cdf0cc1c31bae565c7eab226b7062ef8ccb303501c0a155beca99",
        "c62236516bbfcb18aaed2ba4bb42a411210d5c1743c3bdb4cba430f31859ae71"),
    "thermal": (
        {"k": 32, "cr_seed_bits": 3, "source": "thermal"},
        "06fd74feb4d010de94aca67b9284e9a877f957a52ce3bdb6eb6389aba4a1c5b4",
        "630cb218a1ba89286b4b0adcb1c7814ca5ac722a3b0456153ba3e19b9706d3ee"),
    "common-randomness": (
        {"code_mode": "common-randomness"},
        "8f957dc19d0ef0abfeae2dca69ad29f1090a3a657320113cab71ec2b5ab9cd33",
        "1eb3b7ab3316a950b306425649e72d9fad7720e8f8a094f95691adce0cd316c8"),
    "deterministic": (
        {"code_mode": "deterministic"},
        "a335e92610732ccda1840151c515f88fb32ecffb4ea9349e7756ce9f0066610a",
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


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_simulate_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    # the thermal source makes seed transfers fail, and decoding with the
    # wrong codebook meets many exactly tied scores; a decoder whose sums
    # follow the BLAS kernel's order broke some of them differently under
    # Prescott
    cfg = SimConfig(alpha=1.0, n=1024, k=200, rate=0.1, jammer=canonical_schedules(),
                    source="thermal", master_seed=7, trials=10, cr_seed_bits=3)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    src = os.path.dirname(os.path.dirname(avcsim.__file__))
    artifacts = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in (env.get("PYTHONPATH"),) if p])
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "default")
        proc = subprocess.run([sys.executable, "-m", "avcsim.cli", "simulate", str(path),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        artifacts.append(((out / "report.json").read_bytes(), (out / "trials.csv").read_bytes()))
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
