"""Time each default ``farcs <experiment>`` run end to end.

Each experiment runs in a fresh interpreter (``python -m farcs.cli``) with
OpenBLAS, OpenMP and MKL pinned to one thread, writing its CSV and sidecar
into a temporary directory that is removed afterwards. Prints one JSON line:
the wall time in seconds of each experiment (``wall_s``), the wall time of
each of ``spark``, ``phase`` and ``mip`` among them run again with
``--threads 2`` (``pooled_wall_s``), and the BLAS thread setting.

    python3 scripts/time_defaults.py                 # all five experiments
    python3 scripts/time_defaults.py spark mip       # a subset

The source tree next to this script is put first on PYTHONPATH, so the
timed code is this checkout's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
EXPERIMENTS = ("spark", "mip", "phase", "noisy", "bounds")
POOLED = ("spark", "mip", "phase")  # also timed on two worker processes
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def time_experiment(experiment: str, out_dir: Path, threads: int = 1) -> float:
    env = {**os.environ, **PINNED}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "farcs.cli", experiment, "--threads", str(threads),
               "--out", str(out_dir / f"{experiment}.csv")]
    start = time.perf_counter()
    subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    experiments = argv or list(EXPERIMENTS)
    unknown = sorted(set(experiments) - set(EXPERIMENTS))
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}; expected {EXPERIMENTS}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        wall_s = {name: round(time_experiment(name, Path(tmp)), 3) for name in experiments}
        pooled_wall_s = {name: round(time_experiment(name, Path(tmp), threads=2), 3)
                         for name in experiments if name in POOLED}
    print(json.dumps({"wall_s": wall_s, "pooled_wall_s": pooled_wall_s, "blas_threads": 1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
