"""Runs one workload in a fresh interpreter; started by run.py, not by hand.

Prints one JSON line: the monotonic time at which set-up finished, and, unless
``--setup-only``, the timing of every round, the peak RSS of this process and,
with ``--trace 1``, the per-layer metrics and the trials the traced checks
failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402  (the benchmark's own modules sit next to this file)
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # set-up: import, config resolution, and a one-trial warm-up of every
    # config, so that lazy first-call work lands here and not in round 0
    from farcs import harness
    from farcs.sensing import SensingMatrix

    specs = workloads.load_workload(args.workload)
    bases = [harness.load_config(spec.path) for spec in specs]
    for base in bases:
        harness.run_experiment(dataclasses.replace(base, n_trials=1))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import checks
        from tracing import Tracer

        tracer = Tracer(harness, SensingMatrix, harness.ExperimentResult)
        census = checks.ExactCensus()
        fixed_configs = {i for i, spec in enumerate(specs) if spec.fixed_seed is not None}
        fixed_hops = checks.fixed_census_hops(specs)
    traced_failures: dict = {}

    rounds = []
    block_before = reference.reference_block()
    begin = time.perf_counter()
    # whole rounds until the time is up; a traced run alternates untraced and
    # traced rounds and always ends on a whole pair
    while time.perf_counter() - begin < args.seconds or (tracer and len(rounds) % 2):
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        configs = [
            dataclasses.replace(
                base,
                master_seed=workloads.master_seed(args.seed, r, i, spec),
                output_path=str(workloads.output_path(args.out_dir, r, i, spec)),
            )
            for i, (spec, base) in enumerate(zip(specs, bases))
        ]
        if traced:
            tracer.install(r)
        elapsed = 0.0
        for config in configs:
            start = time.perf_counter()
            result = harness.run_experiment(config)
            result.write(config.output_path)
            elapsed += time.perf_counter() - start
        if traced:
            tracer.uninstall()
            traced_failures.update(tracer.check_round(census, fixed_hops, fixed_configs))
        block_after = reference.reference_block()
        rounds.append({"trials": sum(spec.trials for spec in specs), "seconds": elapsed,
                       "reference_s": (block_before + block_after) / 2, "traced": traced})
        block_before = block_after
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"ready": ready, "rounds": rounds, "peak_rss_kib": peak_rss_kib}
    if tracer is not None:
        report["per_layer"] = tracer.metrics(rounds)
        report["traced_failures"] = [[*key, msg] for key, msg in sorted(traced_failures.items())]
        tracer.write_spans(args.out_dir / "spans.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
