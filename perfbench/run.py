"""Benchmark of avcsim: run one workload and print its metrics.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout that holds `src/avcsim` and
`BENCHMARK.json`. The workload runs in this process as a closed loop of
passes (one call at a time, `--workers 1`) until another pass would not end
within `--seconds`; the first pass always runs. `--trace 1` alternates plain
and traced passes on the same inputs and reports the per-layer metrics of
BENCHMARK.json instead of the end-to-end ones. End-to-end times are in
reference seconds: wall time rescaled by a calibration kernel sampled
throughout the run (calibrate.py). Every output is checked; METRICS.md says
what each metric measures and which layer should move it.

Standard output ends with a run-info JSON line (environment, output hashes,
the `outputs_changed` flag against reference.json, per-workload details) and
then the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Exit code 2, with no result line, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One process, one call at a time: BLAS gets one thread too, so the run does
# not compete with itself for the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from calibrate import SpeedProbe  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, install_trace, layer_metrics, load_reference  # noqa: E402

# set-up is repeated and its median reported, so one slow import does not
# decide setup_s; the first repeat also pays for the first import of the
# standard-library modules avcsim uses. Every pass then gets a fresh set-up
# too, as every CLI command gets a fresh process: state that the package
# keeps between calls cannot carry over to the next pass.
SETUP_REPEATS = 25
AVCSIM_MODULES = ("gaussian", "bivariate", "geometry", "channels", "protocol", "cli")


class ProgramMissing(RuntimeError):
    pass


class Terminated(BaseException):
    """SIGTERM, raised so that the run's work directory is still removed.

    A BaseException, so the benchmark's per-call error handling lets it pass.
    """


def _terminate(signum, frame):
    raise Terminated


def import_avcsim():
    """Execute the avcsim package afresh from this checkout's sources."""
    if not (SRC / "avcsim" / "__init__.py").is_file():
        raise ProgramMissing(f"no avcsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "avcsim" or m.startswith("avcsim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("avcsim")
    if Path(pkg.__file__).resolve().parent != (SRC / "avcsim").resolve():
        raise ProgramMissing(f"imported avcsim from {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"avcsim.{name}") for name in AVCSIM_MODULES}
    return argparse.Namespace(**mods)


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    info = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": _git_commit(), "loadavg_start": _loadavg()}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    probe = SpeedProbe()
    setups = []  # (start, end) marks of each set-up

    def fresh_setup():
        a = probe.mark()
        avc = import_avcsim()
        inputs = workload.setup(avc, seed, workdir)
        setups.append((a, probe.mark()))
        return avc, inputs

    try:
        # the probe samples the machine's speed throughout the untraced work;
        # traced passes run without it, so no span holds a sample
        probe.start()
        for _ in range(SETUP_REPEATS):
            fresh_setup()
        import numpy
        info["numpy"] = numpy.__version__

        plain, traced, units = [], [], []
        tracer = Tracer() if trace else None
        hygiene = []  # (label, problems) of the trace checks, one per traced pass
        started = time.perf_counter()
        index = 0
        while True:
            t0 = time.perf_counter()
            avc, inputs = fresh_setup()
            plain.append(workload.run_pass(avc, inputs, index, None, probe))
            if trace:
                probe.stop()
                avc, inputs = fresh_setup()
                install_trace(tracer, avc)
                try:
                    traced.append(workload.run_pass(avc, inputs, index, tracer, probe))
                finally:
                    restored = tracer.restore()
                probe.start()
                problems = [] if restored else ["a wrapped attribute was not restored"]
                if traced[-1].hashes != plain[-1].hashes:
                    problems.append("traced and untraced output hashes differ")
                hygiene.append((f"trace pass {index}", problems))
            units.append(time.perf_counter() - t0)
            index += 1
            if time.perf_counter() - started + statistics.median(units) > seconds:
                break
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    gates = hygiene + workload.finish(plain)
    attempted = sum(p.attempted for p in passes) + len(gates)
    failed = sum(p.failed for p in passes) + sum(1 for _, probs in gates if probs)
    problems = [msg for p in passes for msg in p.problems]
    problems += [f"{label}: {msg}" for label, probs in gates for msg in probs]

    # every time below is in reference seconds (calibrate.py): wall time
    # rescaled by the kernel times sampled around it
    ref = probe.reference_s
    pass_s = [sum(ref(*m) for m in p.segments.values()) for p in plain]
    rows_per_s = [p.cli_rows / ref(*p.segments[p.cli_segment]) for p in plain]
    figures = [workload.figures(p, ref) for p in plain]
    reference = load_reference()[workload.name]["sha256"]
    hashes = plain[0].hashes
    info.update({
        "passes": len(plain),
        "traced_passes": len(traced),
        "sha256": hashes,
        "outputs_changed": hashes != reference,
        "detail": {
            "fail_frac": failed / attempted,
            "pass_s": pass_s,
            "pass_wall_s": [sum(probe.seconds(*m) for m in p.segments.values())
                            for p in plain],
            "kernel_ms_p50": 1e3 * statistics.median(probe.took),
            "kernel_samples": len(probe.took),
            **{key: [f.get(key) for f in figures] for key in figures[0]},
            **{key: [p.detail.get(key) for p in plain] for key in plain[0].detail
               if key != "lp_marks"},
        },
        "problems": problems[:20],
        "loadavg_end": _loadavg(),
    })
    values = {
        "setup_s": statistics.median(ref(*m) for m in setups[:SETUP_REPEATS]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": statistics.median(pass_s),
        "cli_rows_per_s": statistics.median(rows_per_s),
    }
    if trace:
        wall = probe.seconds
        values = layer_metrics(tracer, len(traced))
        values["trace.overhead_s"] = (
            statistics.median(sum(wall(*m) for m in p.segments.values()) for p in traced)
            - statistics.median(sum(wall(*m) for m in p.segments.values()) for p in plain))
    return {"info": info, "attempted": attempted, "failed": failed, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    for problem in out["info"]["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"run_info": out["info"]}, sort_keys=True))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": out["values"][m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
