"""Release gate: the ten primary behavioral criteria, one test each.

Every test prints one summary line with the measured quantity next to its
target, so a verbose run reads as a checklist.  The heavy Monte-Carlo runs
(rank census, coherence sweep, phase transition, noisy recovery) execute once
in module-scoped fixtures; their wall-clock budgets are part of the criteria
and are asserted alongside the statistics.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from farcs import (
    ExperimentConfig,
    RadarParams,
    basis_pursuit,
    build_phi,
    chi_statistics,
    coherence,
    default_config,
    extract_support,
    l0_oracle,
    max_recoverable_K,
    omp,
    run_experiment,
    sample_codes,
)

TWO_PI = 2.0 * np.pi


def _timed_run(config):
    t0 = time.perf_counter()
    result = run_experiment(config)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def spark_discrete():
    # N=6, M=3, 3-letter codes, 2000 trials: 122 classes of code vectors,
    # each censused once over 564 orbits (one batched det and Gram
    # eigensolve per class, a handful of 6x6 SVDs)
    return _timed_run(default_config("spark"))


@pytest.fixture(scope="module")
def spark_continuous():
    cfg = dataclasses.replace(default_config("spark"), n_trials=200,
                              code_distribution="continuous")
    return _timed_run(cfg)


@pytest.fixture(scope="module")
def mip_narrowband():
    cfg = ExperimentConfig(experiment="mip", n_pulses=64, n_hrr_bins=16,
                           n_trials=10_000, sweep=(0.0,))
    return _timed_run(cfg)


@pytest.fixture(scope="module")
def phase_transition():
    cfg = ExperimentConfig(experiment="phase", n_pulses=64, n_hrr_bins=8,
                           n_trials=200, sweep=(1, 2, 3, 8))
    return _timed_run(cfg)


@pytest.fixture(scope="module")
def noisy_recovery():
    cfg = dataclasses.replace(default_config("noisy"), n_trials=200)
    return _timed_run(cfg)


def test_criterion_01_rank_deficiency_rate(spark_discrete):
    result, elapsed = spark_discrete
    ag = result.aggregates
    pooled = ag["fraction_submatrices_deficient"]
    per_trial = ag["fraction_trials_deficient"]
    print(f"criterion 1: deficient submatrix fraction {pooled:.4f} "
          f"(target 0.358 +/- 0.05); per-trial rate {per_trial:.3f}; "
          f"{elapsed:.0f} s (budget 300 s)")
    # the pooled per-submatrix rate is the reproducible statistic at this
    # scale; a 3-letter alphabet over 6 pulses leaves NO realization without
    # a deficient subset, so the per-trial rate is identically 1
    assert abs(pooled - 0.358) <= 0.05
    assert per_trial == 1.0
    assert elapsed < 300.0


def test_criterion_02_continuous_codes_positive_sigma(spark_continuous):
    result, elapsed = spark_continuous
    ag = result.aggregates
    print(f"criterion 2: min sigma_Omega {ag['sigma_omega_min']:.3e} "
          f"(must exceed 1e-12) over {ag['n_trials']} trials; "
          f"{elapsed:.0f} s (budget 60 s)")
    assert ag["n_trials"] == 200
    assert ag["sigma_omega_min"] > 1e-12
    assert ag["fraction_trials_deficient"] == 0.0
    assert elapsed < 60.0


def test_criterion_03_coherence_union_bound_dominates(mip_narrowband):
    result, elapsed = mip_narrowband
    ag = result.aggregates
    grid = np.asarray(ag["epsilon_grid"])
    bound = np.asarray(ag["union_bound_raw"])
    empirical = np.asarray(ag["empirical_exceedance"]["0.0"])
    valid = bound <= 1.0
    slack = bound[valid] - empirical[valid]
    print(f"criterion 3: {int(valid.sum())} grid points with bound <= 1 "
          f"(eps >= {grid[valid][0]:.3f}); min slack {slack.min():.4f} "
          f"(must be >= 0); {elapsed:.0f} s (budget 600 s)")
    assert valid.any()
    assert np.all(empirical[valid] <= bound[valid])
    assert elapsed < 600.0


def test_criterion_04_coherence_shortcut_equals_gram():
    worst = 0.0
    for seed in range(20):
        params = RadarParams.abstract(64, 16, n_codes=16)
        phi = build_phi(params, sample_codes(seed, 64, 16))
        fast = coherence(phi).mu
        slow = coherence(phi.to_dense()).mu
        worst = max(worst, abs(fast - slow))
    worst_exact = 0.0
    for seed in range(20):
        params = RadarParams.abstract(64, 16, n_codes=16, relative_bandwidth=0.5)
        phi = build_phi(params, sample_codes(seed, 64, 16))
        fast = coherence(phi).mu
        slow = coherence(phi.to_dense()).mu
        worst_exact = max(worst_exact, abs(fast - slow))
    print(f"criterion 4: max |mu_shortcut - mu_gram| = {worst:.2e} (narrowband), "
          f"{worst_exact:.2e} (B/f_c = 0.5) over 20 realizations each (tolerance 1e-12)")
    assert worst <= 1e-12
    assert worst_exact <= 1e-12


def test_criterion_05_chi_moments():
    params = RadarParams.abstract(64, 8, n_codes=8)
    stats = chi_statistics(params, TWO_PI * 3 / 8, TWO_PI * 5 / 64,
                           n_trials=100_000, seed=1)
    mean_bound = 3.0 * (1.0 / math.sqrt(64)) / math.sqrt(stats.n_trials)
    print(f"criterion 5: |mean| {abs(stats.mean):.2e} <= {mean_bound:.2e}; "
          f"var_re {stats.var_real:.5f}, var_im {stats.var_imag:.5f} "
          f"(1/2N = {1 / 128:.5f} +/- 5%); E|chi|^2 {stats.abs_sq_mean:.5f} "
          f"(1/N = {1 / 64:.5f} +/- 5%)")
    assert abs(stats.mean) <= mean_bound
    assert abs(stats.var_real - 1 / 128) <= 0.05 / 128
    assert abs(stats.var_imag - 1 / 128) <= 0.05 / 128
    assert abs(stats.abs_sq_mean - 1 / 64) <= 0.05 / 64


def test_criterion_06_recoverable_sparsity_value():
    value = max_recoverable_K(64, 8, 0.1)
    print(f"criterion 6: max_recoverable_K(64, 8, 0.1) = {value:.5f} "
          f"(target 1.476 +/- 0.01)")
    assert abs(value - 1.476) <= 0.01


def test_criterion_07_phase_transition_ordering(phase_transition):
    result, elapsed = phase_transition
    rates = result.aggregates["success_rate"]
    mf, bp = rates["mf"], rates["bp"]
    print(f"criterion 7: MF@1 {mf['1']:.2f} (=1.0); "
          f"BP@1/2/3 {bp['1']:.2f}/{bp['2']:.2f}/{bp['3']:.2f} (>= 0.95); "
          f"MF@8 {mf['8']:.2f} <= BP@8 {bp['8']:.2f} - 0.3; "
          f"{elapsed:.0f} s (budget 1800 s)")
    assert mf["1"] == 1.0
    assert bp["1"] >= 0.95 and bp["2"] >= 0.95 and bp["3"] >= 0.95
    assert mf["8"] <= bp["8"] - 0.3
    assert elapsed < 1800.0


def test_criterion_08_noisy_recovery_ordering(noisy_recovery):
    result, elapsed = noisy_recovery
    rates = result.aggregates["success_rate"]
    sp, la = rates["sp"], rates["lasso"]
    gaps = [sp[k] - la[k] for k in sp]
    print(f"criterion 8: SP@-15dB {sp['-15.0']:.2f} (>= 0.9); "
          f"Lasso@-15dB {la['-15.0']:.2f} (>= 0.7); "
          f"min(SP - Lasso) {min(gaps):.2f} (>= -0.05); "
          f"{elapsed:.0f} s (budget 1200 s)")
    assert sp["-15.0"] >= 0.9
    assert la["-15.0"] >= 0.7
    assert all(g >= -0.05 for g in gaps)
    assert elapsed < 1200.0


def test_criterion_09_exhaustive_oracle_agreement():
    n_instances = 50
    l0_hits = 0
    omp_triggered = omp_agree = 0
    bp_triggered = bp_agree = 0
    for i in range(n_instances):
        k = 1 + (i % 2)
        params = RadarParams.abstract(4, 2)
        phi = build_phi(params, sample_codes(i, 4))
        rng = np.random.default_rng(10_000 + i)
        support = np.sort(rng.choice(phi.n_columns, size=k, replace=False))
        x = np.zeros(phi.n_columns, dtype=complex)
        x[support] = np.exp(1j * rng.uniform(0.0, TWO_PI, k))
        y = phi.matvec(x)
        y_norm = np.linalg.norm(y)
        planted = tuple(int(s) for s in support)

        oracle = l0_oracle(phi, y, k_max=2)
        l0_hits += oracle.support == planted

        greedy = omp(phi, y, K=k)
        if greedy.residual_norm <= 1e-6 * y_norm:
            omp_triggered += 1
            omp_agree += greedy.support == oracle.support

        bp = basis_pursuit(phi, y)
        assert bp.residual_norm <= 1e-6 * y_norm  # projected iterate is feasible
        # certificate check: does the K-sparse support BP points to explain y?
        bp_support = extract_support(bp.x_hat, K=k)
        cols = phi.columns(list(bp_support))
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        if np.linalg.norm(y - cols @ coef) <= 1e-6 * y_norm:
            bp_triggered += 1
            bp_agree += bp_support == oracle.support

    print(f"criterion 9: l0 oracle {l0_hits}/{n_instances} planted supports; "
          f"OMP agreement {omp_agree}/{omp_triggered} triggered; "
          f"BP agreement {bp_agree}/{bp_triggered} triggered")
    assert l0_hits == n_instances
    # the conditionals must not pass vacuously
    assert omp_triggered >= n_instances // 2
    assert bp_triggered >= n_instances // 2
    assert omp_agree == omp_triggered
    assert bp_agree == bp_triggered


def test_criterion_10_byte_identical_reruns(tmp_path):
    configs = [
        dataclasses.replace(default_config("spark"), n_trials=3),
        ExperimentConfig(experiment="mip", n_pulses=8, n_hrr_bins=2,
                         n_trials=4, sweep=(0.0, "continuous")),
        ExperimentConfig(experiment="phase", n_pulses=16, n_hrr_bins=2,
                         n_trials=3, sweep=(1, 2)),
        ExperimentConfig(experiment="noisy", n_pulses=16, n_hrr_bins=2,
                         n_trials=3, n_scatterers=1, sweep=(0.0,)),
        default_config("bounds"),
    ]
    for config in configs:
        first = run_experiment(config)
        second = run_experiment(config)
        path_a = tmp_path / f"{config.experiment}_a.csv"
        path_b = tmp_path / f"{config.experiment}_b.csv"
        first.write(path_a)
        second.write(path_b)
        assert path_a.read_bytes() == path_b.read_bytes(), config.experiment
    print("criterion 10: five experiments re-ran byte-identically")
