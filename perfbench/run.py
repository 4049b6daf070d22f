"""farcs benchmark: seeded Monte-Carlo workloads, timed end to end.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout. Each workload runs single-process
in a fresh interpreter with BLAS pinned to one thread. ``--trace 0`` prints
the end-to-end metrics (trials_per_s, setup_s, peak_rss_mib), ``--trace 1``
the per-layer metrics of a traced run. ``--workload all`` runs every
workload in turn. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS_DIR = ROOT / ".perfbench_runs"

import checks  # noqa: E402  (the benchmark's own modules sit next to this file)
import reference  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters timed for setup_s besides the one that runs the rounds
SETUP_PROBES = 4
SETUP_TIMEOUT_S = 120
# a worker may overrun --seconds by one round, plus its set-up and span dump
WORKER_GRACE_S = 120
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(arguments: list[str], timeout: float) -> tuple[dict, float, float]:
    """Start a fresh worker.

    Returns its report, the monotonic spawn time, and the reference block
    time measured just before the spawn.
    """
    env = dict(os.environ, **BLAS_ENV)
    block = reference.reference_block()
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *arguments], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no report")
    return json.loads(lines[-1]), spawned, block


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    specs = workloads.load_workload(name)
    out_dir = RUNS_DIR / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--out-dir", str(out_dir)]

    setups = []  # at the nominal machine speed, like trials_per_s
    for _ in range(SETUP_PROBES):
        probe, spawned, block = run_worker(common + ["--setup-only"], SETUP_TIMEOUT_S)
        setups.append((probe["ready"] - spawned) / reference.scale(block))
    report, spawned, block = run_worker(common, seconds + WORKER_GRACE_S)
    setups.append((report["ready"] - spawned) / reference.scale(block))
    rounds = report["rounds"]

    failed = {tuple(key): msg for *key, msg in report.get("traced_failures", [])}
    checker = checks.OutputChecker(specs)
    for r in range(len(rounds)):
        masters = [workloads.master_seed(seed, r, i, spec) for i, spec in enumerate(specs)]
        paths = [workloads.output_path(out_dir, r, i, spec) for i, spec in enumerate(specs)]
        for key, msg in checker.check_round(r, masters, paths).items():
            failed.setdefault(key, msg)
    errors = checker.finish()

    for msg in sorted(set(failed.values()))[:10]:
        print(f"{name}: failed trial: {msg}", file=sys.stderr)
    for msg in errors:
        print(f"{name}: check failed: {msg}", file=sys.stderr)

    if trace:
        metrics = report["per_layer"]
    else:
        values = {
            "trials_per_s": reference.nominal_rate(rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": report["peak_rss_kib"] / 1024.0,
        }
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in values.items()}
    return {
        "correct": not errors,
        "attempted": sum(r["trials"] for r in rounds),
        "failed": len(failed),
        "metrics": metrics,
    }


def describe(name: str, result: dict) -> str:
    lines = [f"{name}: trials attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {result['correct']}"]
    lines += [f"  {key} {m['value']:.6g} {m['unit']}" for key, m in result["metrics"].items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "farcs" / "__init__.py").is_file():
        print(f"no farcs sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print(describe(name, results[name]), flush=True)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
