"""The benchmark workloads and the trace points they are measured through.

A workload has a set-up step (input generation, timed together with the
import as `setup_s`) and a pass: one closed-loop sequence of calls into
public avcsim entry points, one call at a time. The outputs of a pass are
checked after its timed region ends; `finish` adds the gates that need every
pass of a run. Rationale for each workload and metric is in METRICS.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# delta* pins: (alpha, expected, tolerance). alpha = 1 is the ROADMAP pin;
# the others use compute_delta_star's own 1e-4 convergence step.
DELTA_STAR_PINS = ((0.5, 0.2970426721, 1e-4), (1.0, 0.2959527466, 1e-9),
                   (2.0, 0.2004664686, 1e-4))
ETA = 0.5
SWEEP_ALPHA = 1.0
SWEEP_RESOLUTION = 64
BSC_CROSSOVERS = (0.1, 0.25, 0.4)
LP_REPEATS = 3
LP_RESIDUAL_MAX = 1e-8
LAMBDA_MIN = -1e-9
HULL_ATOL = 1e-10
Q_ATOL = 1e-10

# criterion 10's bound on the worst-case block error, and its master seed,
# which the first simulate pass of every run uses.
ERROR_BOUND = 0.05
REFERENCE_SEED = 20260813
WILSON_Z = 3.090232306167813  # one-sided 99.9% normal quantile


class Segments:
    """Marks (see calibrate.SpeedProbe.mark) bounding each named call group of a pass."""

    def __init__(self, probe):
        self.probe = probe
        self.marks: dict = {}

    @contextlib.contextmanager
    def segment(self, name: str):
        a = self.probe.mark()
        yield
        self.marks[name] = (a, self.probe.mark())


@dataclass
class PassResult:
    segments: dict = field(default_factory=dict)  # call group -> (start, end) marks
    cli_segment: str = ""  # the segment that is the CLI call
    cli_rows: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def op(self, label: str, problems: list) -> None:
        """Count one operation; it failed when any of its checks did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _call(fn, *args):
    """(result, problem): an exception is a failed operation, not a crash."""
    try:
        return fn(*args), None
    except SystemExit as exc:  # argparse usage errors exit with code 2
        return exc.code, f"raised SystemExit({exc.code!r})"
    except Exception:  # the benchmark records the failure and keeps running
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Geometry:
    """delta* at three budgets, the CLI sweep, and repeated LP verdicts."""

    name = "geometry"

    def setup(self, avc, seed: int, workdir: Path):
        del seed  # no random input
        cases = [(alpha, avc.geometry.EnergyBudget(alpha * alpha), math.asinh(alpha),
                  expected, tol) for alpha, expected, tol in DELTA_STAR_PINS]
        tables = [(f"avc_kernel({a})", avc.channels.avc_kernel(a), True)
                  for a, _, _ in DELTA_STAR_PINS]
        for t in BSC_CROSSOVERS:
            tables.append((f"bsc_table({t})", avc.channels.bsc_table(t), False))
            tables.append((f"bsc_table({t}, 3)", avc.channels.bsc_table(t, 3), False))
        csv_path = workdir / "sweep.csv"
        argv = ["sweep", "--alpha", repr(SWEEP_ALPHA), "--resolution",
                str(SWEEP_RESOLUTION), "--out", str(csv_path)]
        return {"cases": cases, "tables": tables, "csv": csv_path, "argv": argv,
                "reference": load_reference()[self.name]}

    def run_pass(self, avc, inputs: dict, index: int, tracer, probe) -> PassResult:
        span = tracer.span if tracer else contextlib.nullcontext
        res = PassResult(cli_segment="sweep")
        timer = Segments(probe)
        deltas = []
        for alpha, budget, r, _, _ in inputs["cases"]:
            before = len(tracer.samples.get(SWEEP_POINTS, ())) if tracer else 0
            with timer.segment(f"compute_delta_star({alpha})"), \
                    span("geometry.compute_delta_star"):
                value, problem = _call(avc.geometry.compute_delta_star, budget, r, ETA)
            deltas.append((value, problem))
            if tracer:
                sizes = tracer.samples.get(SWEEP_POINTS, [])[before:]
                tracer.count("delta_star.points_swept", sum(sizes))
                tracer.count("delta_star.points_final", sizes[-1] if sizes else 0)
        with timer.segment("sweep"), span("cli.main"), \
                contextlib.redirect_stdout(io.StringIO()):
            code, cli_problem = _call(avc.cli.main, inputs["argv"])
        verdicts = []
        with timer.segment("symmetrizability_lp"):
            for _ in range(LP_REPEATS):
                for label, table, symmetrizable in inputs["tables"]:
                    a = probe.mark()
                    with span("channels.symmetrizability_lp"):
                        witness, problem = _call(avc.channels.symmetrizability_lp, table)
                    verdicts.append((label, table, symmetrizable, witness, problem,
                                     (a, probe.mark())))
        res.segments = timer.marks

        for (alpha, _, _, expected, tol), (value, problem) in zip(inputs["cases"], deltas):
            if problem is None and not abs(value - expected) <= tol:
                problem = f"delta* = {value!r}, expected {expected} +- {tol}"
            res.op(f"compute_delta_star(alpha={alpha})", [problem] if problem else [])
        problems = [cli_problem] if cli_problem else []
        if code not in (0, None):
            problems.append(f"sweep exited with code {code}")
        if not problems:
            res.cli_rows, problems = _check_sweep(inputs["csv"], inputs["reference"])
            res.hashes["sweep.csv"] = file_sha256(inputs["csv"])
        res.op("avcsim sweep", problems)
        for label, table, symmetrizable, witness, problem, _ in verdicts:
            if problem is None:
                if symmetrizable and witness is None:
                    problem = "expected symmetrizable, got None"
                elif symmetrizable:
                    residual = avc.channels.symmetrization_residual(table, witness)
                    if not residual <= LP_RESIDUAL_MAX:
                        problem = f"witness residual {residual:.3e} > {LP_RESIDUAL_MAX}"
                elif witness is not None:
                    problem = "expected None (not symmetrizable), got a witness"
            res.op(f"symmetrizability_lp({label})", [problem] if problem else [])
        res.detail = {"delta_star": [d[0] for d in deltas],
                      "lp_marks": [v[-1] for v in verdicts]}
        return res

    @staticmethod
    def figures(res: PassResult, seconds) -> dict:
        """The pass's own figures, `seconds(a, b)` timing the span between two marks."""
        return {
            "delta_star_s": sum(seconds(*m) for k, m in res.segments.items()
                                if k.startswith("compute_delta_star")),
            "sweep_points_per_s": res.cli_rows / seconds(*res.segments["sweep"]),
            "lp_verdict_ms_p50": 1e3 * statistics.median(
                seconds(*m) for m in res.detail["lp_marks"]),
        }

    def finish(self, plain: list) -> list:
        """Run-level gates: none, every check here belongs to one pass."""
        return []


def _check_sweep(path: Path, reference: dict) -> tuple[int, list]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if not rows:
        return 0, ["sweep CSV has no rows"]
    hull = max(abs(float(r["q00"]) + float(r["q01"]) - 0.5) for r in rows)
    if not hull <= HULL_ATOL:
        problems.append(f"q00 + q01 off 1/2 by {hull:.3e}")
    lam = min(float(r[k]) for r in rows for k in ("lambda_c", "lambda_0", "lambda_1"))
    if not lam >= LAMBDA_MIN:
        problems.append(f"min lambda {lam:.3e} < {LAMBDA_MIN}")
    by_state = {(round(float(r["A"]), 9), round(float(r["a"]), 9)): r for r in rows}
    for ref in reference["q_subsample"]:
        row = by_state.get((round(ref["A"], 9), round(ref["a"], 9)))
        if row is None:
            problems.append(f"reference state A={ref['A']!r} a={ref['a']!r} missing")
            continue
        err = max(abs(float(row[k]) - ref[k]) for k in ("q00", "q01", "q10", "q11"))
        if not err <= Q_ATOL:
            problems.append(f"q at A={ref['A']!r} a={ref['a']!r} off reference by {err:.3e}")
    return len(rows), problems


class Simulation:
    """One `avcsim simulate` CLI call per pass on a fixed protocol config."""

    def __init__(self, name: str, trials: int, **config):
        self.name = name
        self.trials = trials
        self.config = config

    def setup(self, avc, seed: int, workdir: Path):
        cfg = avc.protocol.SimConfig(jammer=avc.protocol.canonical_schedules(),
                                     master_seed=REFERENCE_SEED, trials=self.trials,
                                     **self.config)
        path = workdir / f"{self.name}.json"
        path.write_text(json.dumps(cfg.to_json_dict()), encoding="utf-8")
        return {"config": path, "workdir": workdir,
                "labels": [leaf.label for leaf in cfg.jammer.leaves()],
                "seeds": random.Random(f"{self.name}:{seed}"), "drawn": [REFERENCE_SEED]}

    @staticmethod
    def master_seed(inputs: dict, index: int) -> int:
        """Pass 0 replays criterion 10's seed; later passes draw from --seed."""
        drawn = inputs["drawn"]
        while len(drawn) <= index:
            drawn.append(inputs["seeds"].getrandbits(64))
        return drawn[index]

    def run_pass(self, avc, inputs: dict, index: int, tracer, probe) -> PassResult:
        span = tracer.span if tracer else contextlib.nullcontext
        res = PassResult(cli_segment="simulate")
        seed = self.master_seed(inputs, index)
        out = inputs["workdir"] / f"{self.name}-{index}-{'traced' if tracer else 'plain'}"
        argv = ["simulate", str(inputs["config"]), "--seed", str(seed),
                "--workers", "1", "--out", str(out)]
        timer = Segments(probe)
        with timer.segment("simulate"), span("cli.main"), \
                contextlib.redirect_stdout(io.StringIO()):
            code, problem = _call(avc.cli.main, argv)
        res.segments = timer.marks
        problems = [problem] if problem else []
        if code not in (0, None):
            problems.append(f"simulate exited with code {code}")
        if not problems:
            res.hashes = {"report.json": file_sha256(out / "report.json"),
                          "trials.csv": file_sha256(out / "trials.csv")}
            res.cli_rows, checks, failures = self._check(out, inputs["labels"], index)
            problems += checks
            res.detail = {"worst_error": max(failures.values()) / self.trials,
                          "failures": failures, "master_seed": seed}
        shutil.rmtree(out, ignore_errors=True)
        res.op(f"avcsim simulate --seed {seed}", problems)
        return res

    @staticmethod
    def figures(res: PassResult, seconds) -> dict:
        """The pass's own figures, `seconds(a, b)` timing the span between two marks."""
        if not res.cli_rows:
            return {}
        return {"trials_per_s": res.cli_rows / seconds(*res.segments["simulate"])}

    def _check(self, out: Path, labels: list, index: int) -> tuple[int, list, dict]:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        with open(out / "trials.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        present = sorted((r["strategy"], int(r["trial"])) for r in rows)
        expected = sorted((label, t) for label in labels for t in range(self.trials))
        if present != expected:
            problems.append(f"trials.csv holds {len(present)} (strategy, trial) rows, "
                            f"expected {len(expected)}")
        worst = report["worst_error"]
        errors = {}
        for label in labels:
            failures = sum(1 for r in rows if r["strategy"] == label and r["message_ok"] == "0")
            errors[label] = failures
            reported = report["per_strategy"][label]["empirical_error"]
            if not math.isclose(reported, failures / self.trials, abs_tol=1e-12):
                problems.append(f"{label}: report error {reported} != trials.csv "
                                f"{failures}/{self.trials}")
        if not math.isclose(worst, max(errors.values()) / self.trials, abs_tol=1e-12):
            problems.append(f"worst_error {worst} is not the worst strategy's error")
        if index == 0 and not worst < ERROR_BOUND:
            problems.append(f"worst_error {worst} >= {ERROR_BOUND} at criterion 10's seed")
        return len(rows), problems, errors

    def finish(self, plain: list) -> list:
        """The run's pooled error-rate gate, as one more operation.

        Per strategy, the failures of all plain passes are pooled; the gate
        fails when the error is above criterion 10's bound at 99.9% one-sided
        Wilson confidence. A literal `< 0.05` on 25 trials would fail by
        chance, since the error of all-0 and all-1 is about 2-4% here.
        """
        counted = [p.detail["failures"] for p in plain if "failures" in p.detail]
        if not counted:
            return []
        trials = self.trials * len(counted)
        problems = []
        for label in counted[0]:
            failures = sum(c[label] for c in counted)
            low = wilson_lower(failures, trials)
            if not low < ERROR_BOUND:
                problems.append(f"{label}: error {failures}/{trials} is above {ERROR_BOUND} "
                                f"at 99.9% confidence (Wilson bound {low:.3f})")
        return [("pooled error rate", problems)]


def wilson_lower(failures: int, trials: int, z: float = WILSON_Z) -> float:
    """Lower end of the one-sided Wilson score interval for a failure rate."""
    p = failures / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (centre - half) / (1 + z * z / trials)


WORKLOADS = {
    w.name: w for w in (
        Geometry(),
        Simulation("sim_c10", trials=25, alpha=1.0, n=1024, k=800, rate=0.1,
                   code_mode="correlation-assisted", cr_seed_bits=1),
        Simulation("sim_cr", trials=6, alpha=1.0, n=1024, k=0, rate=0.1,
                   code_mode="common-randomness"),
    )
}


# --- trace points ------------------------------------------------------------
#
# Each wrap replaces the attribute through which one avcsim module looks up a
# public function of the next layer down, so a span's parent is its caller.

SWEEP_POINTS = "geometry.sweep_records.points"
CODEBOOK = "protocol.random_codebook"


def _sweep_points(tracer, args, kwargs, result) -> None:
    tracer.samples.setdefault(SWEEP_POINTS, []).append(len(result))


def _hashable(value):
    return tuple(np.asarray(value).tolist()) if isinstance(value, np.ndarray) else value


def _codebook_stats(tracer, args, kwargs, result) -> None:
    key = tuple(_hashable(a) for a in args) + tuple(
        (k, _hashable(v)) for k, v in sorted(kwargs.items()))
    tracer.distinct.setdefault(CODEBOOK, set()).add(key)
    tracer.count(CODEBOOK + ".bytes", result.nbytes)


def install_trace(tracer, avc) -> None:
    g, b, p, c = avc.geometry, avc.bivariate, avc.protocol, avc.cli
    tracer.wrap(c, "sweep_records", "geometry.sweep_records", _sweep_points)
    tracer.wrap(c, "sweep_to_csv", "geometry.sweep_to_csv")
    tracer.wrap(c, "simulate", "protocol.simulate")
    tracer.wrap(g, "sweep_records", "geometry.sweep_records", _sweep_points)
    tracer.wrap(g, "jammer_grid", "geometry.jammer_grid")
    tracer.wrap(g, "mix_tmsv_with_jammer", "gaussian.mix_tmsv_with_jammer")
    tracer.wrap(g, "quadrant_distribution", "bivariate.quadrant_distribution")
    tracer.wrap(b, "bivariate_normal_cdf", "bivariate.bivariate_normal_cdf")
    tracer.wrap(p, "quadrant_distribution", "bivariate.quadrant_distribution")
    tracer.wrap(p, "std_normal_cdf", "bivariate.std_normal_cdf")
    for fn in ("run_correlation_phase", "run_cr_phase", "run_data_phase",
               "schedule_set_decoder"):
        tracer.wrap(p, fn, f"protocol.{fn}")
    tracer.wrap(p, "random_codebook", CODEBOOK, _codebook_stats)


def layer_metrics(tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass."""
    t = tracer

    def per_pass(value):
        return value / passes

    def per_call(name, scale, seconds):
        calls = t.calls(name)
        return scale * seconds(name) / calls if calls else 0.0

    points = sum(t.samples.get(SWEEP_POINTS, []))
    swept = t.counters.get("delta_star.points_swept", 0)
    codebooks = t.calls(CODEBOOK)
    return {
        "gaussian.mix_tmsv_with_jammer.calls": per_pass(t.calls("gaussian.mix_tmsv_with_jammer")),
        "gaussian.mix_tmsv_with_jammer.us_per_call":
            per_call("gaussian.mix_tmsv_with_jammer", 1e6, t.total_s),
        "bivariate.bivariate_normal_cdf.calls": per_pass(t.calls("bivariate.bivariate_normal_cdf")),
        "bivariate.bivariate_normal_cdf.us_per_call":
            per_call("bivariate.bivariate_normal_cdf", 1e6, t.total_s),
        "bivariate.quadrant_distribution.calls":
            per_pass(t.calls("bivariate.quadrant_distribution")),
        "bivariate.quadrant_distribution.self_us_per_call":
            per_call("bivariate.quadrant_distribution", 1e6, t.self_s),
        "bivariate.std_normal_cdf.calls": per_pass(t.calls("bivariate.std_normal_cdf")),
        "geometry.jammer_grid.s": per_pass(t.total_s("geometry.jammer_grid")),
        "geometry.sweep_records.points": per_pass(points),
        "geometry.sweep_records.self_us_per_point":
            1e6 * t.self_s("geometry.sweep_records") / points if points else 0.0,
        "geometry.sweep_to_csv.s": per_pass(t.total_s("geometry.sweep_to_csv")),
        "geometry.compute_delta_star.s": per_pass(t.total_s("geometry.compute_delta_star")),
        "geometry.compute_delta_star.points_swept": per_pass(swept),
        "geometry.compute_delta_star.useful_frac":
            t.counters.get("delta_star.points_final", 0) / swept if swept else 0.0,
        "channels.symmetrizability_lp.ms_per_call":
            per_call("channels.symmetrizability_lp", 1e3, t.total_s),
        "protocol.simulate.self_s": per_pass(t.self_s("protocol.simulate")),
        "protocol.run_correlation_phase.s": per_pass(t.total_s("protocol.run_correlation_phase")),
        "protocol.run_cr_phase.self_s": per_pass(t.self_s("protocol.run_cr_phase")),
        "protocol.run_data_phase.self_s": per_pass(t.self_s("protocol.run_data_phase")),
        "protocol.schedule_set_decoder.calls": per_pass(t.calls("protocol.schedule_set_decoder")),
        "protocol.schedule_set_decoder.s": per_pass(t.total_s("protocol.schedule_set_decoder")),
        "protocol.random_codebook.calls": per_pass(codebooks),
        "protocol.random_codebook.s": per_pass(t.total_s(CODEBOOK)),
        "protocol.random_codebook.bytes": per_pass(t.counters.get(CODEBOOK + ".bytes", 0)),
        "protocol.random_codebook.unique_frac":
            len(t.distinct.get(CODEBOOK, ())) / codebooks if codebooks else 0.0,
        "cli.main.self_s": per_pass(t.self_s("cli.main")),
    }
