"""Write reference.json from the current sources.

    python3 perfbench/record_reference.py

Records the sha256 of the geometry sweep CSV and of the first simulate
pass's report.json and trials.csv (criterion 10's master seed), which the
benchmark compares against for its `outputs_changed` flag, plus a subsample
of the sweep's q values, which the geometry checks must match within 1e-10.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from run import ROOT, import_avcsim  # first: it pins BLAS to one thread
from calibrate import SpeedProbe
from workloads import REFERENCE_PATH, SWEEP_ALPHA, SWEEP_RESOLUTION, WORKLOADS, file_sha256

Q_SUBSAMPLE_STRIDE = 64


def main() -> None:
    avc = import_avcsim()
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        csv_path = workdir / "sweep.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = avc.cli.main(["sweep", "--alpha", repr(SWEEP_ALPHA), "--resolution",
                                 str(SWEEP_RESOLUTION), "--out", str(csv_path)])
        if code != 0:
            raise SystemExit(f"sweep exited with code {code}")
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        reference["geometry"] = {
            "sha256": {"sweep.csv": file_sha256(csv_path)},
            "q_subsample": [{k: float(r[k]) for k in ("A", "a", "q00", "q01", "q10", "q11")}
                            for r in rows[::Q_SUBSAMPLE_STRIDE]],
        }
        for name, workload in WORKLOADS.items():
            if name == "geometry":
                continue
            result = workload.run_pass(avc, workload.setup(avc, 0, workdir), 0, None,
                                       SpeedProbe())
            if result.failed:
                raise SystemExit(f"{name}: {result.problems}")
            reference[name] = {"sha256": result.hashes}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
