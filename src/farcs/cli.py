"""Command-line entry point: run one experiment, write CSV + JSON sidecar."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .errors import FarcsError
from .harness import EXPERIMENTS, default_config, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farcs",
        description="Monte-Carlo studies of compressed-sensing recovery for "
                    "frequency-agile radar.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    help_lines = {
        "spark": "rank census of all N-column submatrices over random codes",
        "mip": "mutual coherence distribution vs. its union bound",
        "phase": "noiseless phase transition: matched filter vs. basis pursuit",
        "noisy": "support recovery under noise: subspace pursuit vs. lasso",
        "bounds": "tabulate recoverable-sparsity guarantees",
    }
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=help_lines[name])
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON config; defaults are used when omitted")
        p.add_argument("--trials", type=int, default=None, help="override n_trials")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, metavar="FILE", help="override output CSV path")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for the trial pool (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config(args.experiment)
        if config.experiment != args.experiment:
            raise FarcsError(
                f"config file is for {config.experiment!r} but the "
                f"{args.experiment!r} subcommand was invoked"
            )
        overrides = {}
        if args.trials is not None:
            overrides["n_trials"] = args.trials
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.out is not None:
            overrides["output_path"] = args.out
        if overrides:
            config = dataclasses.replace(config, **overrides)
        result = run_experiment(config, threads=args.threads)
        out = config.output_path or f"{config.experiment}.csv"
        csv_path, sidecar_path = result.write(out)
        print(json.dumps({
            "experiment": config.experiment,
            "rows": len(result.rows),
            "csv": str(csv_path),
            "sidecar": str(sidecar_path),
        }))
        return 0
    except (FarcsError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
