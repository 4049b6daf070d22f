"""The benchmark's workloads and the seed schedule of their rounds.

A workload is a list of farcs config files. One round runs every config of
the workload once, through ``load_config`` -> ``run_experiment`` ->
``ExperimentResult.write``, the path ``farcs <experiment> --config FILE``
takes. A config file that sets ``master_seed`` runs at that seed in every
round (the census probe); every other config gets a master seed derived
from the benchmark seed and the round index.

This module imports only the standard library, so the launcher can read it
without importing farcs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

WORKLOADS = {
    # 20 random discrete draws plus one fixed draw of the code vector that
    # farcs miscounts, so that the fault shows once per round for every seed
    "census": ("census-random.json", "census-probe.json"),
    "census-continuous": ("census-continuous.json",),
    "coherence": ("coherence.json",),
    # trial counts chosen so that BP and lasso each take about half the round
    "recovery": ("recovery-phase.json", "recovery-noisy.json"),
}

# Trial seeds of one config span master_seed .. master_seed + SEED_WINDOW - 1
# (farcs draws trial t of sweep point s from master_seed + s * n_trials + t),
# so windows of different configs, rounds and benchmark seeds never overlap.
SEED_WINDOW = 100
ROUND_STRIDE = 1_000
SEED_STRIDE = 100_000 * ROUND_STRIDE


@dataclass(frozen=True)
class ConfigSpec:
    """One config file of a workload, as the launcher and the worker see it."""

    name: str
    path: Path
    raw: dict

    @property
    def experiment(self) -> str:
        return self.raw["experiment"]

    @property
    def fixed_seed(self) -> int | None:
        return self.raw.get("master_seed")

    @property
    def n_trials(self) -> int:
        return self.raw["n_trials"]

    @property
    def sweep(self) -> list:
        return self.raw.get("sweep", [])

    @property
    def trials(self) -> int:
        """Monte-Carlo trials per run: n_trials per sweep point."""
        return self.n_trials * max(1, len(self.sweep))


def load_workload(name: str) -> list[ConfigSpec]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    specs = []
    for filename in WORKLOADS[name]:
        path = CONFIG_DIR / filename
        raw = json.loads(path.read_text())
        spec = ConfigSpec(filename.removesuffix(".json"), path, raw)
        if spec.trials > SEED_WINDOW:
            raise ValueError(f"{filename}: {spec.trials} trials overflow the seed window")
        specs.append(spec)
    return specs


def master_seed(seed: int, round_idx: int, config_idx: int, spec: ConfigSpec) -> int:
    """Master seed of one config in one round."""
    if spec.fixed_seed is not None:
        return spec.fixed_seed
    return seed * SEED_STRIDE + round_idx * ROUND_STRIDE + config_idx * SEED_WINDOW


def output_path(out_dir: Path, round_idx: int, config_idx: int, spec: ConfigSpec) -> Path:
    return out_dir / f"r{round_idx:04d}-{config_idx}-{spec.name}.csv"
