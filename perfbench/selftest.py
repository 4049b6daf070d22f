"""Self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check must pass on a genuine farcs output and fail once that output is
corrupted, so that no check can pass vacuously. Also recomputes the exact
census constant the census check uses and confirms that BENCHMARK.json names
exactly the metrics the benchmark reports. Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from farcs import (RadarParams, SolverConfig, add_noise, basis_pursuit,  # noqa: E402
                   build_phi, coherence, harness, lasso, sample_codes,
                   spark_enumeration, subspace_pursuit)
from farcs.signal_model import FrequencyCodes  # noqa: E402


def passes_then_fails(check, genuine, corrupted):
    """The check accepts the genuine arguments and rejects the corrupted ones."""
    ok = check(*genuine)
    assert ok is None, f"genuine output rejected: {ok}"
    assert check(*corrupted) is not None, "corrupted output accepted"


def recovery_instance(seed, n_scatterers, sigma2):
    rng = np.random.default_rng(seed)
    phi = build_phi(RadarParams.abstract(64, 8), sample_codes(rng, 64, 8))
    support = np.sort(rng.choice(phi.n_columns, size=n_scatterers, replace=False))
    y = phi.columns(support) @ np.exp(1j * rng.uniform(0, 2 * np.pi, n_scatterers))
    y = add_noise(y, sigma2, rng) if sigma2 else y
    return phi, checks.model_phi(phi.codes.codes, 8), y


def test_census_count_off_by_one():
    census = checks.ExactCensus()
    hops = (0, 1, 2, 0, 1, 2)
    phi = build_phi(RadarParams.abstract(6, 3, n_codes=3),
                    FrequencyCodes(np.array(hops) / 3, n_codes=3))
    n_below = spark_enumeration(phi).n_below_eps
    exact = census.count(hops)
    passes_then_fails(checks.check_census_count, (n_below, exact), (n_below + 1, exact))


def test_census_constant_and_pooled_check():
    census = checks.ExactCensus()
    counts = [census.count(h) for h in itertools.product(range(3), repeat=6)]
    pooled = np.mean(counts) / census.n_submatrices
    assert abs(pooled - checks.CENSUS_POOLED_FRACTION) < 5e-6, pooled
    assert abs(np.std(counts) / census.n_submatrices - checks.CENSUS_VECTOR_SD) < 5e-4
    assert min(counts) >= 1, "a code vector without a singular minor"
    n = 100
    limit = checks.CENSUS_SE_MULTIPLE * checks.CENSUS_VECTOR_SD / np.sqrt(n)
    below = round(checks.CENSUS_POOLED_FRACTION * census.n_submatrices * n)
    off = round((checks.CENSUS_POOLED_FRACTION + 1.1 * limit) * census.n_submatrices * n)
    total = census.n_submatrices * n
    passes_then_fails(checks.check_census_pooled, (below, total, n), (off, total, n))


def test_census_files_off_by_one():
    """A count off by one in a written CSV fails that trial, and only that one."""
    out_dir = run.RUNS_DIR / "selftest"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        specs = workloads.load_workload("census")[:1]
        masters = [workloads.master_seed(7, 0, 0, specs[0])]
        paths = [workloads.output_path(out_dir, 0, 0, specs[0])]
        config = dataclasses.replace(harness.load_config(specs[0].path), n_trials=3,
                                     master_seed=masters[0])
        specs = [dataclasses.replace(specs[0], raw={**specs[0].raw, "n_trials": 3})]
        harness.run_experiment(config).write(paths[0])
        assert checks.OutputChecker(specs).check_round(0, masters, paths) == {}
        lines = paths[0].read_text().splitlines()
        trial, sigma, n_below = lines[2].split(",")
        lines[2] = ",".join((trial, sigma, str(int(n_below) + 1)))
        paths[0].write_text("\n".join(lines) + "\n")
        failed = checks.OutputChecker(specs).check_round(0, masters, paths)
        assert list(failed) == [(0, 0, 1)], failed
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def test_sigma_range():
    assert checks.check_sigma(0.0, discrete=True) is None
    passes_then_fails(checks.check_sigma, (0.3, False), (0.0, False))
    passes_then_fails(checks.check_sigma, (1.0, True), (1.0 + 1e-9, True))


def test_mu_off_by_1e9():
    for arm in (0.0, 0.5):
        params = RadarParams.abstract(64, 16, relative_bandwidth=arm)
        phi = build_phi(params, sample_codes(3, 64, 16))
        mu = coherence(phi).mu
        dense = checks.model_phi(phi.codes.codes, 16, arm)
        passes_then_fails(checks.check_mu_reference, (mu, dense), (mu + 1e-9, dense))
    passes_then_fails(checks.check_mu_range, (mu,), (1.0 + 1e-9,))


def test_lasso_nudged_off_kkt():
    sigma2 = 10 ** -1.5
    phi, dense, y = recovery_instance(11, 3, sigma2)
    lam = 3.0 * sigma2
    x = lasso(phi, y, lam, SolverConfig(max_iter=5000, residual_tol=1e-6,
                                        magnitude_threshold=0.2)).x_hat
    nudged = x.copy()
    j = int(np.argmax(np.abs(x)))
    nudged[j] += 0.2 * np.abs(x[j])
    passes_then_fails(checks.check_lasso, (dense, y, x, lam), (dense, y, nudged, lam))
    passes_then_fails(checks.check_lasso, (dense, y, x, lam), (dense, y, 0.5 * x, lam))


def test_bp_nudged_infeasible():
    phi, dense, y = recovery_instance(12, 3, 0.0)
    x = basis_pursuit(phi, y, SolverConfig(max_iter=10000, residual_tol=1e-8)).x_hat
    nudged = x.copy()
    nudged[0] += 1e-3
    passes_then_fails(checks.check_bp, (dense, y, x), (dense, y, nudged))


def test_sp_residual_not_orthogonal():
    phi, dense, y = recovery_instance(13, 3, 10 ** -1.5)
    result = subspace_pursuit(phi, y, 3, SolverConfig(max_iter=100))
    x, support = result.x_hat, result.support
    nudged = x.copy()
    nudged[support[0]] *= 1.01
    passes_then_fails(checks.check_sp, (dense, y, x, support), (dense, y, nudged, support))
    off = x.copy()
    off[next(j for j in range(x.size) if j not in support)] = 1e-3
    passes_then_fails(checks.check_sp, (dense, y, x, support), (dense, y, off, support))


def test_union_bound_dominance():
    config = harness.ExperimentConfig(experiment="mip", n_pulses=64, n_hrr_bins=16,
                                      n_trials=40, sweep=(0.0,))
    result = harness.run_experiment(config)
    ag = result.aggregates
    mus = [row.values[2] for row in result.rows]
    empirical = ag["empirical_exceedance"]["0.0"]
    passes_then_fails(checks.check_union_bound,
                      (ag["epsilon_grid"], empirical, mus, 64, 16),
                      (ag["epsilon_grid"], empirical * 0.5, mus, 64, 16))
    high = list(mus[:-1]) + [0.59]  # one draw above the bound's 1/40 level
    high_empirical = [np.mean(np.array(high) > e) for e in ag["epsilon_grid"]]
    assert checks.check_union_bound(ag["epsilon_grid"], high_empirical, high, 64, 16)


def test_rates():
    passes_then_fails(checks.check_rate, ("bp", 95, 100, 0.95), ("bp", 94, 100, 0.95))


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
