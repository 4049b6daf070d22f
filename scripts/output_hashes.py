"""Print the sha256 of every output file of a fixed set of farcs runs.

Each run below executes in this process through ``run_experiment`` and
``ExperimentResult.write``, into a temporary directory that is removed
afterwards. The script prints one JSON line that maps each run's name to the
sha256 of its CSV and of its JSON sidecar. Two checkouts print the same line
exactly when every output is byte-identical, so a refactor is checked with

    diff <(python3 OLD/scripts/output_hashes.py) <(python3 NEW/scripts/output_hashes.py)

With ``--keep DIR`` the outputs are written into DIR (created if needed) and
left there, so two checkouts' files can be compared key by key; the printed
line is the same either way.

The runs: default ``spark`` with discrete codes, ``spark`` with continuous
codes (300 trials), every perfbench config file at a fixed master seed
(census, coherence, recovery), small ``mip``, ``phase`` and ``noisy`` runs,
one ``mip``, ``phase`` and ``spark`` run each with a hop set larger than
the range-bin count (M* > M), so the phase tables are checked off the
M* = M diagonal as well, a continuous-code ``mip`` run at M = 12
(``mip-odd-bins``), whose hop responses end on a partial block of powers
(M not a power of two), and default ``spark`` once more at the end
(``spark-again``), whose censuses are cache reads of the first run's, so
its line shows that a cache read hashes like a fresh census. OpenBLAS,
OpenMP and MKL are pinned to one thread, and the source tree next to this
script is imported, so the outputs are this checkout's.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED = 8_101  # master seed of every perfbench config that sets none


def fixed_runs() -> dict:
    """The named configs whose outputs the script hashes."""
    from farcs import default_config, load_config

    spark = default_config("spark")
    runs = {
        "spark": spark,
        "spark-continuous": dataclasses.replace(spark, n_trials=300,
                                                code_distribution="continuous"),
    }
    for path in sorted((ROOT / "perfbench" / "configs").glob("*.json")):
        config = load_config(path)
        if "master_seed" not in json.loads(path.read_text()):
            config = dataclasses.replace(config, master_seed=SEED)
        runs[path.stem] = config
    runs["mip-small"] = dataclasses.replace(default_config("mip"), n_trials=200)
    runs["phase-small"] = dataclasses.replace(default_config("phase"), n_trials=10)
    runs["noisy-small"] = dataclasses.replace(default_config("noisy"), n_trials=10)
    runs["mip-wide-hops"] = dataclasses.replace(default_config("mip"), n_hrr_bins=8,
                                                n_codes=32, n_trials=200, sweep=(0.0, 0.5))
    runs["phase-wide-hops"] = dataclasses.replace(default_config("phase"), n_codes=16,
                                                  n_trials=10, sweep=(1, 4, 8))
    runs["spark-wide-hops"] = dataclasses.replace(spark, n_codes=6, n_trials=100)
    runs["mip-odd-bins"] = dataclasses.replace(default_config("mip"), n_hrr_bins=12,
                                               n_trials=200, sweep=("continuous",))
    runs["spark-again"] = spark  # reads the censuses that "spark" cached
    return runs


def output_hashes(runs: dict, keep: Path | None = None) -> dict:
    """sha256 of the CSV and the sidecar that each named config writes.

    The files go into ``keep`` and stay there when it is given, else into a
    temporary directory.
    """
    if keep is None:
        with tempfile.TemporaryDirectory() as tmp:
            return output_hashes(runs, Path(tmp))
    from farcs import run_experiment

    keep.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, config in runs.items():
        paths = run_experiment(config).write(keep / f"{name}.csv")
        hashes[name] = {kind: hashlib.sha256(path.read_bytes()).hexdigest()
                        for kind, path in zip(("csv", "sidecar"), paths)}
    return hashes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="write the outputs into DIR and leave them there")
    args = parser.parse_args(argv)
    os.environ.update(PINNED)  # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(output_hashes(fixed_runs(), args.keep), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
