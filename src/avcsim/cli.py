"""Batch command-line front end: params, sweep, symmetrize, simulate.

Commands emit data files only (JSON/CSV); plotting stays external. Every run
writes a manifest.json next to its artifacts; JSON artifacts point back at
it. Exit codes: 0 success (including the SYMMETRIZABLE verdict), 1 domain
verdicts (NOT SYMMETRIZABLE), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import __version__
from .channels import (
    ChannelTable,
    LpNumericalError,
    binary_entropy,
    crossover_probs,
    symmetrizability_lp,
    symmetrization_residual,
)
from .geometry import EnergyBudget, sweep_records, sweep_to_csv
from .protocol import SimConfig, _check_workers, simulate, trials_to_csv


def _dump_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # one dumps: dump with an indent writes chunk by chunk
        fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _load_json(path: str):
    """The JSON value in a file; nesting too deep to parse is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"JSON in {path} is nested too deeply") from None


def _cannot_write(exc: OSError, path: str) -> int:
    """Report an unwritable output (the failing file's name if known) and return 2."""
    print(f"cannot write {exc.filename or path}: {exc}", file=sys.stderr)
    return 2


def _write_manifest(out_dir: str, command: str, config: dict, seed, outputs: list[str],
                    started: float) -> str:
    path = os.path.join(out_dir, "manifest.json")
    _dump_json(path, {
        "schema_version": 1,
        "command": command,
        "config": config,
        "version": __version__,
        "master_seed": seed,
        "outputs": outputs,
        "wall_clock_s": time.time() - started,
    })
    return path


def cmd_params(args) -> int:
    p, pt = crossover_probs(args.alpha)
    rows = [
        ("p", p),
        ("p_tilde", pt),
        ("r", math.asinh(args.alpha)),
        ("capacity_1m_h_ptilde", 1.0 - binary_entropy(pt)),
    ]
    for name, value in rows:
        print(f"{name:<22}{value!r}")
    return 0


def cmd_sweep(args) -> int:
    r = math.asinh(args.alpha) if args.r is None else args.r
    out_dir = os.path.dirname(args.out) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        return _cannot_write(exc, out_dir)
    started = time.time()
    try:
        records = sweep_records(EnergyBudget(args.alpha * args.alpha), r, args.eta,
                                args.resolution)
    except ValueError as exc:
        print(f"bad sweep input: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"sweep at resolution {args.resolution} does not fit in memory", file=sys.stderr)
        return 2
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            sweep_to_csv(records, fh)
        manifest = _write_manifest(
            out_dir, "sweep",
            {"alpha": args.alpha, "r": r, "eta": args.eta, "resolution": args.resolution},
            None, [os.path.basename(args.out)], started)
    except OSError as exc:
        return _cannot_write(exc, args.out)
    print(f"wrote {len(records)} rows to {args.out} (manifest {manifest})")
    return 0


def cmd_symmetrize(args) -> int:
    try:
        table = ChannelTable.from_json_dict(_load_json(args.channel))
    except (OSError, ValueError) as exc:
        print(f"bad channel file: {exc}", file=sys.stderr)
        return 2
    try:
        witness = symmetrizability_lp(table)
    except LpNumericalError as exc:
        print(f"LP numerical failure (no verdict): {exc}", file=sys.stderr)
        return 2
    if witness is None:
        print("NOT SYMMETRIZABLE: phase-1 LP infeasible "
              f"(feasibility tolerance 1e-9, {len(table.inputs)} inputs, "
              f"{len(table.states)} states)")
        return 1
    print("SYMMETRIZABLE")
    print(f"max residual of the defining equalities: "
          f"{symmetrization_residual(table, witness):.3e}")
    for xi, x in enumerate(table.inputs):
        row = ", ".join(f"u({s}|{x})={witness[xi, si]:.6f}"
                        for si, s in enumerate(table.states))
        print(row)
    return 0


def cmd_simulate(args) -> int:
    try:
        _check_workers(args.workers)
    except ValueError as exc:
        print(f"bad --workers: {exc}", file=sys.stderr)
        return 2
    try:
        config = SimConfig.from_json_dict(_load_json(args.config))
        overrides = {"master_seed": args.seed, "trials": args.trials}
        config = dataclasses.replace(
            config, **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        return _cannot_write(exc, args.out)
    started = time.time()
    try:
        report = simulate(config, workers=args.workers)
    except MemoryError:
        print(f"config {args.config} does not fit in memory (n = {config.n})", file=sys.stderr)
        return 2
    report_path = os.path.join(args.out, "report.json")
    payload = report.to_json_dict()
    payload["manifest"] = "manifest.json"
    try:
        _dump_json(report_path, payload)
        with open(os.path.join(args.out, "trials.csv"), "w", encoding="utf-8", newline="") as fh:
            trials_to_csv(report.per_trial, fh)
        _write_manifest(args.out, "simulate", config.to_json_dict(), config.master_seed,
                        ["report.json", "trials.csv"], started)
    except OSError as exc:
        return _cannot_write(exc, args.out)
    print(f"worst-case error {report.worst_error!r} over "
          f"{config.trials} trials; report at {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avcsim",
        description="Jammed optical BPSK link: parameters, geometry sweeps, "
                    "symmetrizability checks, protocol simulation.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="print channel parameters for an amplitude")
    p_params.add_argument("--alpha", type=float, required=True)
    p_params.set_defaults(func=cmd_params)

    p_sweep = sub.add_parser("sweep", help="sweep jammer states, write the q-geometry CSV")
    p_sweep.add_argument("--alpha", type=float, required=True)
    p_sweep.add_argument("--r", type=float, default=None,
                         help="squeezing (default arcsinh(alpha))")
    p_sweep.add_argument("--eta", type=float, default=0.5)
    p_sweep.add_argument("--resolution", type=int, default=64)
    p_sweep.add_argument("--out", default="sweep.csv",
                         help="CSV path; its directory is created (default sweep.csv)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sym = sub.add_parser("symmetrize", help="decide symmetrizability of a channel table")
    p_sym.add_argument("channel", help="ChannelTable JSON file")
    p_sym.set_defaults(func=cmd_symmetrize)

    p_sim = sub.add_parser("simulate", help="run the protocol Monte Carlo")
    p_sim.add_argument("config", help="SimConfig JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_sim.add_argument("--trials", type=int, default=None, help="override trials")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", default=".", help="output directory, created if missing")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "alpha", None) is not None and not 0 < args.alpha < math.inf:
        parser.error("--alpha must be positive and finite")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
