"""Tests for the experiment drivers, their file outputs, and the CLI."""

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from farcs import (
    ConfigurationError,
    DomainError,
    ExperimentConfig,
    ExperimentResult,
    FrequencyCodes,
    SensingMatrix,
    SolverConfig,
    SolverSettings,
    TrialRecord,
    default_config,
    load_config,
    max_recoverable_K,
    run_experiment,
    sample_codes,
    spark_enumeration,
)
from farcs import harness
from farcs.analysis import SIGMA_HIST_EDGES
from farcs.cli import main
from farcs.harness import _census_key, _fmt, _json_default, _spark_work

# small, fast configurations used throughout
SPARK_TINY = dataclasses.replace(default_config("spark"), n_trials=3)
MIP_TINY = ExperimentConfig(experiment="mip", n_pulses=8, n_hrr_bins=2,
                            n_trials=4, sweep=(0.0, "continuous"),
                            epsilon_count=50)
PHASE_TINY = ExperimentConfig(experiment="phase", n_pulses=16, n_hrr_bins=2,
                              n_trials=3, sweep=(1, 2))
NOISY_TINY = ExperimentConfig(experiment="noisy", n_pulses=16, n_hrr_bins=2,
                              n_trials=3, n_scatterers=1, sweep=(15.0,))


@pytest.fixture
def empty_census_table(monkeypatch):
    """An empty census table for the test, so that every class is censused anew."""
    table = {}
    monkeypatch.setattr(harness, "_census_table", table)
    return table


def _written(obj) -> str:
    """``obj`` as the sidecar writer turns it into JSON text."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default)


# --- config ---------------------------------------------------------------------


def test_default_configs_cover_all_experiments():
    assert default_config("spark").n_pulses == 6
    assert default_config("mip").sweep == (0.0, 0.1, 0.5, "continuous")
    assert default_config("phase").sweep == tuple(range(1, 11))
    assert default_config("noisy").sweep == (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    assert default_config("bounds").sweep == ((64, 8, 0.1), (512, 32, 0.1))
    with pytest.raises(ConfigurationError):
        default_config("nope")


@pytest.mark.parametrize("kwargs", [
    {"experiment": "mystery"},
    {"experiment": "spark", "n_trials": 0},
    {"experiment": "spark", "code_distribution": "quantum"},
    {"experiment": "spark", "epsilon_count": 1},
    {"experiment": "spark", "epsilon_max": 0.0},
    {"experiment": "spark", "n_scatterers": 0},
    {"experiment": "phase", "sweep": ()},
    # integer fields take ints at or above their minimum, and noisy at most
    # N scatterers; each of these fails at construction, before any task runs
    {"experiment": "noisy", "n_pulses": 8, "n_hrr_bins": 2, "n_scatterers": 20,
     "sweep": (0.0,)},  # more scatterers than grid cells
    {"experiment": "noisy", "n_pulses": 8, "n_hrr_bins": 2, "n_scatterers": 9,
     "sweep": (0.0,)},  # more than subspace pursuit can fit to N samples
    {"experiment": "mip", "epsilon_count": 2.5, "sweep": (0.0,)},
    {"experiment": "spark", "n_trials": 2.0},
    {"experiment": "noisy", "n_scatterers": True, "sweep": (0.0,)},
    {"experiment": "spark", "n_pulses": 6.0},
    {"experiment": "spark", "n_hrr_bins": "3"},
    {"experiment": "spark", "n_codes": True},
    {"experiment": "spark", "master_seed": -1},
    {"experiment": "spark", "max_submatrices": None},
])
def test_experiment_config_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**kwargs)


def test_integer_fields_accept_numpy_integers():
    config = ExperimentConfig(experiment="spark", n_pulses=np.int64(6), n_trials=np.int32(3),
                              n_codes=np.int16(3), master_seed=np.uint8(7))
    values = (config.n_pulses, config.n_trials, config.n_codes, config.master_seed)
    assert values == (6, 3, 3, 7) and all(type(v) is int for v in values)


@pytest.mark.parametrize("knob", ["bp_max_iter", "sp_max_iter", "lasso_max_iter"])
def test_solver_settings_build_their_configs_on_construction(knob):
    with pytest.raises(ConfigurationError):
        SolverSettings(**{knob: 0})  # fails here, not inside the first task
    settings = SolverSettings()
    assert settings.bp_config == SolverConfig(max_iter=10000, residual_tol=1e-8,
                                              magnitude_threshold=1e-2)
    assert settings.sp_config == SolverConfig(max_iter=100)
    assert settings.lasso_config == SolverConfig(max_iter=5000, residual_tol=1e-6,
                                                 magnitude_threshold=0.2)
    # the configs are not fields: the sidecar's config keeps its keys
    assert set(dataclasses.asdict(settings)) == {f.name for f in dataclasses.fields(settings)}


@pytest.mark.parametrize("knob,value", [
    ("bp_max_iter", "100"), ("sp_max_iter", 2.5), ("lasso_max_iter", True),
    ("bp_max_iter", 0), ("bp_residual_tol", "1e-8"), ("support_threshold", 0.0),
    ("lasso_support_threshold", float("nan")), ("lasso_objective_tol", -1e-6),
])
def test_solver_settings_name_their_own_bad_fields(knob, value):
    with pytest.raises(ConfigurationError, match=f"^{knob} must be"):
        SolverSettings(**{knob: value})


def test_load_config_overrides_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "spark", "n_trials": 7, "master_seed": 3,
        "solver": {"sp_max_iter": 5},
    }))
    cfg = load_config(path)
    assert cfg.n_trials == 7
    assert cfg.master_seed == 3
    assert cfg.n_pulses == 6  # untouched default
    assert cfg.solver.sp_max_iter == 5
    assert cfg.solver.lasso_lambda_factor == SolverSettings().lasso_lambda_factor


def test_load_config_converts_sweep_lists(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "bounds", "sweep": [[16, 4, 0.1]],
    }))
    assert load_config(path).sweep == ((16, 4, 0.1),)


@pytest.mark.parametrize("payload", [
    {"experiment": "spark", "banana": 1},
    {"experiment": "spark", "solver": {"bogus": 1}},
    {"n_trials": 5},
    ["not", "an", "object"],
])
def test_load_config_rejects_unknown_shapes(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError):
        load_config(path)


# --- runners --------------------------------------------------------------------


def test_run_spark_schema_and_known_rates():
    result = run_experiment(SPARK_TINY)
    assert result.columns == ("trial", "sigma_omega", "n_below_eps")
    assert len(result.rows) == 3
    ag = result.aggregates
    assert ag["n_submatrices"] == math.comb(18, 6)
    # a 3-letter alphabet over 6 pulses always leaves a deficient subset
    assert ag["fraction_trials_deficient"] == 1.0
    assert 0.0 < ag["fraction_submatrices_deficient"] < 1.0
    assert int(np.sum(ag["sigma_hist_counts"])) == 3 * math.comb(18, 6)
    # sixth roots of unity: classified on the determinant gap, singular
    # minors get sigma = 0 exactly, nonsingular ones sit far above eps_svd
    assert ag["census_route"] == "determinant_gap"
    assert ag["sigma_below_eps_max"] < ag["eps_svd"] <= ag["sigma_above_eps_min"]
    assert ag["sigma_below_eps_max"] == 0.0
    assert ag["sigma_above_eps_min"] > 0.05
    assert 0.0 <= ag["det_singular_max"] < 1e-12
    assert ag["det_nonsingular_min"] > 1.0 - 1e-9


def test_sigma_hist_puts_unit_sigma_mid_bin():
    # subsets with orthogonal columns have sigma = 1 up to rounding; an edge
    # there would let the last bit pick the bin
    counts = np.histogram([1.0 - 1e-15, 1.0, 1.0 + 1e-15], bins=SIGMA_HIST_EDGES)[0]
    assert counts.max() == 3
    centres = 0.5 * (SIGMA_HIST_EDGES[:-1] + SIGMA_HIST_EDGES[1:])
    assert np.isclose(centres, 1.0, rtol=0, atol=1e-12).sum() == 1
    assert SIGMA_HIST_EDGES[0] < 0.0 and SIGMA_HIST_EDGES[-1] > 1.0


def test_run_spark_continuous_codes_full_rank():
    cfg = dataclasses.replace(SPARK_TINY, code_distribution="continuous")
    ag = run_experiment(cfg).aggregates
    assert ag["fraction_trials_deficient"] == 0.0
    assert ag["sigma_omega_min"] > 1e-12
    assert ag["sigma_below_eps_max"] is None
    assert ag["sigma_above_eps_min"] == ag["sigma_omega_min"]
    assert ag["census_route"] == "eps_svd"
    assert "det_singular_max" not in ag and "det_nonsingular_min" not in ag


def test_census_class_members_share_outcome():
    # the images d -> +-d + c of a discrete vector share one census key and
    # give the same census outcome
    hops = np.array([2, 1, 0, 2, 1, 2])
    images = [(sign * hops + c) % 3 for sign in (1, -1) for c in range(3)]
    codes = [FrequencyCodes(image / 3, n_codes=3) for image in images]
    assert len({_census_key(c) for c in codes}) == 1
    config = ExperimentConfig(experiment="spark", n_hrr_bins=3, eps_svd=1e-15,
                              max_submatrices=10**6)
    outcomes = [_spark_work((config, c)) for c in codes]
    first = outcomes[0]
    for o in outcomes:
        assert (o.sigma_omega, o.n_below_eps, o.below_max) == (0.0, 10635, 0.0)
        np.testing.assert_array_equal(o.hist, first.hist)
        assert o.above_min == pytest.approx(first.above_min, rel=0, abs=1e-14)
        assert o.det_nonsingular_min == pytest.approx(first.det_nonsingular_min,
                                                      rel=0, abs=1e-12)
    # the 729 discrete vectors at N=6, M*=3 form 122 classes; continuous
    # vectors keep their exact values as key
    keys = {_census_key(FrequencyCodes(np.array(h) / 3, n_codes=3))
            for h in itertools.product(range(3), repeat=6)}
    assert len(keys) == 122
    continuous = sample_codes(0, 6)
    assert _census_key(continuous) == continuous.codes.tobytes()


def test_run_spark_censuses_each_class_once(monkeypatch, empty_census_table):
    cfg = dataclasses.replace(SPARK_TINY, n_trials=40)
    classes = {_census_key(sample_codes(t, 6, 3)) for t in range(40)}
    calls = []

    def spy(phi, *args):
        calls.append(phi.codes.codes)
        return spark_enumeration(phi, *args)

    monkeypatch.setattr(harness, "spark_enumeration", spy)
    serial = run_experiment(cfg)
    assert len(calls) == len(classes) < 40
    monkeypatch.undo()
    pooled = run_experiment(cfg, threads=2)
    assert serial.to_csv() == pooled.to_csv()
    assert _written(serial.aggregates) == _written(pooled.aggregates)


def _spark_drawing(monkeypatch, config, hops):
    """Make spark draw trial t of ``config`` as the hop vector ``hops[t]``."""
    def draw(seed, n_pulses, n_codes):
        return FrequencyCodes(np.array(hops[seed - config.master_seed]) / n_codes, n_codes=n_codes)

    monkeypatch.setattr(harness, "sample_codes", draw)


def test_census_outcome_depends_only_on_the_class(monkeypatch, tmp_path, empty_census_table):
    # two runs with empty tables that first draw different members of one
    # class give that class the same outcome, bit for bit
    hops = np.array([2, 1, 0, 2, 1, 2])
    first, other = hops.tolist(), ((2 - hops) % 3).tolist()
    assert _census_key(FrequencyCodes(hops / 3, n_codes=3)) == _census_key(
        FrequencyCodes(np.array(other) / 3, n_codes=3))
    cfg = dataclasses.replace(SPARK_TINY, n_trials=2)
    runs = []
    for order in ([first, other], [other, first]):
        empty_census_table.clear()
        _spark_drawing(monkeypatch, cfg, order)
        files = run_experiment(cfg).write(tmp_path / f"{len(runs)}.csv")
        (outcome,) = empty_census_table.values()
        runs.append((outcome, [p.read_bytes() for p in files]))
    (a, a_files), (b, b_files) = runs
    assert a._replace(hist=None) == b._replace(hist=None)
    np.testing.assert_array_equal(a.hist, b.hist)
    assert a_files == b_files
    # all 729 vectors at N=6, M*=3, drawn in reverse order so that no class
    # is first drawn on its smallest member, leave one outcome per class
    # (122), each keyed on its canonical hops
    empty_census_table.clear()
    vectors = list(itertools.product(range(3), repeat=6))[::-1]
    cfg = dataclasses.replace(SPARK_TINY, n_trials=len(vectors))
    _spark_drawing(monkeypatch, cfg, vectors)
    run_experiment(cfg)
    canonical = {np.array(_census_key(FrequencyCodes(np.array(v) / 3, n_codes=3)),
                          dtype=np.intp).tobytes() for v in vectors}
    assert len(canonical) == len(empty_census_table) == 122
    assert {key[3] for key in empty_census_table} == canonical


def test_spark_after_another_seed_matches_a_fresh_table(tmp_path, empty_census_table):
    cfg = default_config("spark")
    fresh = [p.read_bytes() for p in run_experiment(cfg).write(tmp_path / "fresh.csv")]
    empty_census_table.clear()
    run_experiment(dataclasses.replace(cfg, master_seed=10_000))
    after = [p.read_bytes() for p in run_experiment(cfg).write(tmp_path / "after.csv")]
    assert after == fresh


def test_census_table_serves_repeat_discrete_runs(monkeypatch, tmp_path, empty_census_table):
    calls = []  # (table size, hops) at each census that runs

    def spy(phi, *args):
        hops = phi.codes.hops
        calls.append((len(empty_census_table), None if hops is None else hops.tobytes()))
        return spark_enumeration(phi, *args)

    monkeypatch.setattr(harness, "spark_enumeration", spy)
    cfg = dataclasses.replace(SPARK_TINY, n_trials=40)
    first = [p.read_bytes() for p in run_experiment(cfg).write(tmp_path / "first.csv")]
    n_censused = len(calls)
    assert n_censused == len(empty_census_table) > 4
    assert all(not o.hist.flags.writeable for o in empty_census_table.values())
    # a repeat run reads every census from the table and writes the same bytes
    again = [p.read_bytes() for p in run_experiment(cfg).write(tmp_path / "again.csv")]
    assert len(calls) == n_censused
    assert again == first
    # eps_svd is part of the key
    run_experiment(dataclasses.replace(cfg, eps_svd=1e-14))
    assert len(calls) == 2 * n_censused
    # continuous codes are censused every time and never stored
    size = len(empty_census_table)
    run_experiment(dataclasses.replace(cfg, n_trials=3, code_distribution="continuous"))
    assert len(calls) == 2 * n_censused + 3
    assert len(empty_census_table) == size
    # at its cap the table drops its oldest outcome for each new one
    monkeypatch.setattr(harness, "_CENSUS_TABLE_CAP", 4)
    empty_census_table.clear()
    calls.clear()
    run_experiment(cfg)
    assert len(calls) == n_censused
    assert max(size for size, _ in calls) == 4
    assert [key[3] for key in empty_census_table] == [hops for _, hops in calls[-4:]]


def test_run_spark_continuous_census_min_sigma():
    # full 2000-trial continuous-code census (about 20 s with BLAS at one
    # thread, the slowest test of the suite).
    # No subset ever loses rank, but the worst submatrix sits many decades
    # below the discrete-code full-rank floor.
    cfg = dataclasses.replace(default_config("spark"), code_distribution="continuous")
    ag = run_experiment(cfg).aggregates
    assert ag["n_trials"] == 2000
    assert ag["fraction_trials_deficient"] == 0.0
    assert ag["fraction_submatrices_deficient"] == 0.0
    assert 0.0 < ag["sigma_omega_min"] < 1e-4


def test_run_mip_schema_and_exceedance():
    result = run_experiment(MIP_TINY)
    assert result.columns == ("arm", "trial", "mu")
    assert len(result.rows) == 2 * 4
    arms = {rec.values[0] for rec in result.rows}
    assert arms == {"0.0", "continuous"}
    mus = [rec.values[2] for rec in result.rows]
    assert all(0.0 <= mu <= 1.0 for mu in mus)
    ag = result.aggregates
    assert ag["epsilon_grid"].shape == (50,)
    for curve in ag["empirical_exceedance"].values():
        assert curve.shape == (50,)
        assert np.all(np.diff(curve) <= 1e-12)  # nonincreasing in epsilon
    assert set(ag["mean_mu"]) == {"0.0", "continuous"}


def test_run_mip_exceedance_endpoints():
    cfg = dataclasses.replace(MIP_TINY, epsilon_max=1.0)
    ag = run_experiment(cfg).aggregates
    for curve in ag["empirical_exceedance"].values():
        assert curve[0] == 1.0   # coherence is strictly positive
        assert curve[-1] == 0.0  # and never exceeds one


def test_run_mip_wideband_arm_dominates_narrowband():
    # a 10% fractional bandwidth breaks row orthogonality and drags the whole
    # coherence distribution upward relative to the narrowband arm
    cfg = ExperimentConfig(experiment="mip", n_pulses=64, n_hrr_bins=16,
                           n_trials=200, sweep=(0.0, 0.1), epsilon_count=200,
                           epsilon_max=1.0)
    ag = run_experiment(cfg).aggregates
    narrow = np.asarray(ag["empirical_exceedance"]["0.0"])
    wide = np.asarray(ag["empirical_exceedance"]["0.1"])
    assert np.all(wide >= narrow)
    assert float(np.max(wide - narrow)) > 0.3
    assert ag["mean_mu"]["0.1"] > ag["mean_mu"]["0.0"] + 0.02


def test_run_mip_exceedance_equals_per_epsilon_mean():
    # epsilon_max set to a drawn mu puts that mu on the grid's last point
    mus = [rec.values[2] for rec in run_experiment(MIP_TINY).rows]
    cfg = dataclasses.replace(MIP_TINY, epsilon_max=sorted(mus)[len(mus) // 2])
    result = run_experiment(cfg)
    grid = result.aggregates["epsilon_grid"]
    assert set(mus) & set(grid.tolist())
    for key, curve in result.aggregates["empirical_exceedance"].items():
        arm_mus = np.array([rec.values[2] for rec in result.rows if rec.values[0] == key])
        assert np.array_equal(curve, [np.mean(arm_mus > e) for e in grid])


def test_run_mip_rejects_bad_arm():
    cfg = dataclasses.replace(MIP_TINY, sweep=("sometimes",))
    with pytest.raises(ConfigurationError):
        run_experiment(cfg)


def test_run_phase_schema_and_single_scatterer():
    result = run_experiment(PHASE_TINY)
    assert result.columns == ("solver", "K", "trial", "success")
    assert len(result.rows) == 2 * 2 * 3  # solvers x sparsities x trials
    rates = result.aggregates["success_rate"]
    assert set(rates) == {"mf", "bp"}
    # one scatterer, no noise: the matched filter peak is exact
    assert rates["mf"]["1"] == 1.0
    assert rates["bp"]["1"] == 1.0
    for solver in rates.values():
        assert all(0.0 <= r <= 1.0 for r in solver.values())


def test_run_phase_rejects_bad_sparsity():
    cfg = dataclasses.replace(PHASE_TINY, sweep=(0,))
    with pytest.raises(ConfigurationError):
        run_experiment(cfg)
    cfg = dataclasses.replace(PHASE_TINY, sweep=(33,))  # > NM = 32
    with pytest.raises(ConfigurationError):
        run_experiment(cfg)


def test_run_noisy_schema_and_low_noise_success():
    result = run_experiment(NOISY_TINY)
    assert result.columns == ("solver", "sigma2_db", "trial", "success")
    assert len(result.rows) == 2 * 3
    rates = result.aggregates["success_rate"]
    assert set(rates) == {"sp", "lasso"}
    # sigma2 = 10^1.5 ~ 31.6 noise power: nothing is expected here beyond
    # well-formed rates
    assert all(0.0 <= r <= 1.0 for d in rates.values() for r in d.values())


def test_run_noisy_rejects_bad_db():
    cfg = dataclasses.replace(NOISY_TINY, sweep=("loud",))
    with pytest.raises(ConfigurationError):
        run_experiment(cfg)


def test_recovery_sidecars_report_solver_convergence():
    phase = run_experiment(PHASE_TINY).aggregates["convergence"]
    noisy = run_experiment(NOISY_TINY).aggregates["convergence"]
    assert set(phase) == {"bp"} and set(phase["bp"]) == {"1", "2"}
    assert set(noisy) == {"sp", "lasso"} and set(noisy["lasso"]) == {"15.0"}
    for point in [*phase["bp"].values(), *noisy["sp"].values(), *noisy["lasso"].values()]:
        assert point["not_converged"] == 0
        assert 0 <= point["iterations_p50"] <= point["iterations_max"]
    assert phase["bp"]["1"]["iterations_max"] > 1
    # every K <= 2 solve here stops on a dual certificate
    assert all(point["certified"] == 3 for point in phase["bp"].values())
    # capped solvers stop short on every trial, and the sidecar says so; one
    # iteration cannot show a support stable over two iterations
    capped = dataclasses.replace(PHASE_TINY, solver=SolverSettings(bp_max_iter=1))
    conv = run_experiment(capped).aggregates["convergence"]
    assert conv == {"bp": {k: {"not_converged": 3, "iterations_p50": 1.0, "iterations_max": 1,
                               "certified": 0}
                           for k in ("1", "2")}}
    capped = dataclasses.replace(NOISY_TINY, sweep=(-15.0,),
                                 solver=SolverSettings(lasso_max_iter=2))
    conv = run_experiment(capped).aggregates["convergence"]
    assert conv["lasso"] == {"-15.0": {"not_converged": 3, "iterations_p50": 2.0,
                                       "iterations_max": 2}}


def test_noisy_sidecar_reports_lasso_exit():
    cfg = dataclasses.replace(NOISY_TINY, sweep=(-15.0, 15.0))
    exits = run_experiment(cfg).aggregates["lasso_exit"]
    assert set(exits) == {"-15.0", "15.0"}
    for point in exits.values():
        assert set(point) == {"duality_gap_p50", "duality_gap_max", "nonzeros_p50"}
        assert 0.0 <= point["duality_gap_p50"] <= point["duality_gap_max"]
        assert 0 <= point["nonzeros_p50"] <= 32
    # at 15 dB lam = 3 sigma^2 exceeds |Phi^H y|: zero is the minimizer and
    # its gap is exactly 0
    assert exits["15.0"] == {"duality_gap_p50": 0.0, "duality_gap_max": 0.0,
                             "nonzeros_p50": 0.0}
    # two FISTA iterations leave a larger gap than running to the tolerance
    capped = dataclasses.replace(cfg, solver=SolverSettings(lasso_max_iter=2))
    capped_exit = run_experiment(capped).aggregates["lasso_exit"]["-15.0"]
    assert capped_exit["duality_gap_p50"] > exits["-15.0"]["duality_gap_p50"] > 0.0


def test_run_bounds_matches_direct_evaluation():
    result = run_experiment(default_config("bounds"))
    assert result.columns == ("n_pulses", "n_hrr_bins", "delta", "k_mip", "k_l0")
    assert len(result.rows) == 2
    first = result.rows[0].values
    assert first[:3] == (64, 8, 0.1)
    assert first[3] == pytest.approx(max_recoverable_K(64, 8, 0.1), abs=1e-12)
    assert first[4] == 32.0
    assert "N=64,M=8" in result.aggregates["curves"]


def test_run_bounds_rejects_bad_case():
    cfg = dataclasses.replace(default_config("bounds"), sweep=((64, 8),))
    with pytest.raises(ConfigurationError):
        run_experiment(cfg)


@pytest.mark.parametrize("config", [
    dataclasses.replace(MIP_TINY, sweep=(0.0, 0)),  # both arm "0.0"
    dataclasses.replace(MIP_TINY, sweep=(True,)),
    dataclasses.replace(MIP_TINY, sweep=(math.nan,)),
    dataclasses.replace(MIP_TINY, sweep=(0.0, math.inf)),
    dataclasses.replace(PHASE_TINY, sweep=(1, 1)),
    dataclasses.replace(PHASE_TINY, sweep=(True,)),
    dataclasses.replace(NOISY_TINY, sweep=(0.0, 0)),  # both "0.0" dB
    dataclasses.replace(NOISY_TINY, sweep=(False,)),
    dataclasses.replace(NOISY_TINY, sweep=(math.nan,)),  # sigma2 = nan, silently
    dataclasses.replace(default_config("bounds"), sweep=(("x", 8, 0.1),)),
    dataclasses.replace(default_config("bounds"), sweep=((64, 8, "y"),)),
    dataclasses.replace(default_config("bounds"), sweep=("abc",)),
    dataclasses.replace(default_config("bounds"), sweep=((64, True, 0.1),)),
    dataclasses.replace(default_config("bounds"), sweep=((64, 8, 0.1), (64.0, 8, 0.1))),
    # N and M must be integers >= 1 and delta a real number
    dataclasses.replace(default_config("bounds"), sweep=((64.7, 8, 0.1),)),
    dataclasses.replace(default_config("bounds"), sweep=(("64", 8, 0.1),)),
    dataclasses.replace(default_config("bounds"), sweep=((64, 8.0, 0.1),)),
    dataclasses.replace(default_config("bounds"), sweep=((64, 0, 0.1),)),
    dataclasses.replace(default_config("bounds"), sweep=((64, 8, "0.1"),)),
    dataclasses.replace(default_config("bounds"), sweep=((64, 8, True),)),
    dataclasses.replace(default_config("bounds"), sweep=((64, 8, 0.1, 1),)),
    dataclasses.replace(SPARK_TINY, sweep=(1,)),
], ids=lambda config: f"{config.experiment}-{config.sweep!r}")
def test_bad_or_repeated_sweep_points_are_configuration_errors(config):
    # a repeated point would write its rows twice but keep one sidecar entry
    with pytest.raises(ConfigurationError):
        run_experiment(config)


@pytest.mark.parametrize("config", [
    dataclasses.replace(MIP_TINY, sweep=(0.0, -0.5)),  # negative B/f_c
    dataclasses.replace(MIP_TINY, sweep=(0.0, -0.0)),  # both arm "0.0"
    dataclasses.replace(MIP_TINY, sweep=(-0.0, 0.1, 0)),
    dataclasses.replace(NOISY_TINY, sweep=(0.0, -0.0)),  # both "0.0" dB
    dataclasses.replace(NOISY_TINY, sweep=(-0.0, 15.0, 0.0)),
    # fewer hops than range bins: RadarParams refuses it, before the tasks run
    dataclasses.replace(MIP_TINY, n_codes=1),
    dataclasses.replace(PHASE_TINY, n_codes=1),
    dataclasses.replace(NOISY_TINY, n_codes=1),
], ids=lambda config: f"{config.experiment}-{config.sweep!r}-{config.n_codes}")
def test_bad_points_fail_before_any_task_runs(monkeypatch, config):
    calls = []
    experiment = harness._EXPERIMENTS[config.experiment]
    monkeypatch.setitem(harness._EXPERIMENTS, config.experiment,
                        experiment._replace(work=calls.append))
    with pytest.raises(ConfigurationError):
        run_experiment(config)
    assert calls == []


@pytest.mark.parametrize("config, zero", [
    (MIP_TINY, dataclasses.replace(MIP_TINY, sweep=(-0.0, "continuous"))),
    (dataclasses.replace(NOISY_TINY, sweep=(0.0,)),
     dataclasses.replace(NOISY_TINY, sweep=(-0.0,))),
], ids=lambda config: config.experiment)
def test_negative_zero_point_is_the_point_zero(config, zero):
    plain, signed = run_experiment(config), run_experiment(zero)
    assert signed.to_csv() == plain.to_csv()
    assert _written(signed.aggregates) == _written(plain.aggregates)


def test_run_bounds_nan_delta_is_a_domain_error():
    cfg = dataclasses.replace(default_config("bounds"), sweep=((64, 8, math.nan),))
    with pytest.raises(DomainError):
        run_experiment(cfg)


def test_cli_bounds_non_integer_pulse_count_is_a_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "bounds", "sweep": [[64.7, 8, 0.1]]}')
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    err = json.loads(err)
    assert err["error"] == "ConfigurationError" and "64.7" in err["message"]
    assert not (tmp_path / "b.csv").exists()


def test_run_bounds_single_bin_domain_error():
    # M=1 violates the N(M-1) >= 2 assumption behind the recoverable-K bound
    cfg = dataclasses.replace(default_config("bounds"), sweep=((64, 1, 0.1),))
    with pytest.raises(DomainError):
        run_experiment(cfg)


# --- determinism -------------------------------------------------------------------


def test_repeat_runs_are_byte_identical():
    a = run_experiment(MIP_TINY).to_csv()
    b = run_experiment(MIP_TINY).to_csv()
    assert a == b


def test_worker_count_does_not_change_results():
    # a noisy pool task is a whole noise point, so it needs two of them
    noisy = dataclasses.replace(NOISY_TINY, sweep=(0.0, 15.0))
    mip = dataclasses.replace(MIP_TINY, sweep=(0.0, 0.1, 0.5, "continuous"))  # both modes
    for config in (mip, PHASE_TINY, noisy):
        serial = run_experiment(config, threads=1)
        pooled = run_experiment(config, threads=2)
        assert serial.to_csv() == pooled.to_csv()
        assert _written(serial.aggregates) == _written(pooled.aggregates)


def test_master_seed_changes_draws():
    moved = dataclasses.replace(MIP_TINY, master_seed=1234)
    assert run_experiment(MIP_TINY).to_csv() != run_experiment(moved).to_csv()


# --- serialization -------------------------------------------------------------------


def test_fmt_and_json_default():
    assert _fmt(True) == "1" and _fmt(np.bool_(False)) == "0"
    assert _fmt(np.int64(7)) == "7"
    assert _fmt(2.5) == "2.5" and _fmt(np.float64(0.1)) == "0.1"
    assert _fmt("continuous") == "continuous"
    # numpy values are written as the Python values they hold, byte for byte
    text = _written({"a": np.arange(3), "b": (np.float64(1.5), np.bool_(True))})
    assert text == _written({"a": [0, 1, 2], "b": [1.5, True]})
    assert json.loads(text) == {"a": [0, 1, 2], "b": [1.5, True]}
    grid = np.array([[0.1, 2.0], [np.inf, -0.0]])
    flags = np.array([[True, False], [False, True]])
    assert _written(grid) == _written([[0.1, 2.0], [math.inf, -0.0]])
    assert _written(flags) == _written([[True, False], [False, True]])
    assert "Infinity" in _written(grid) and "-0.0" in _written(grid)
    assert all(type(v) is float for row in json.loads(_written(grid)) for v in row)
    assert all(type(v) is bool for row in json.loads(_written(flags)) for v in row)
    nested = np.array([np.int64(3), {"k": np.float64(0.5)}], dtype=object)
    assert _written(nested) == _written([3, {"k": 0.5}])
    with pytest.raises(TypeError):
        _written({"a": object()})


def test_to_csv_layout():
    result = ExperimentResult(
        experiment="bounds", columns=("a", "b", "c", "d"),
        rows=[TrialRecord((1, 2.5, True, "x"))], aggregates={}, config={},
    )
    assert result.to_csv() == "a,b,c,d\n1,2.5,1,x\n"


def test_write_creates_csv_and_sidecar(tmp_path):
    result = run_experiment(default_config("bounds"))
    out = tmp_path / "nested" / "bounds.csv"
    csv_path, sidecar = result.write(out)
    assert csv_path == out and csv_path.exists()
    assert sidecar == tmp_path / "nested" / "bounds.json"
    payload = json.loads(sidecar.read_text())
    assert payload["experiment"] == "bounds"
    assert payload["columns"] == list(result.columns)
    assert payload["config"]["n_trials"] == 1
    assert payload["aggregates"]["epsilon_grid"][0] == 0.0
    header = csv_path.read_text().splitlines()[0]
    assert header == "n_pulses,n_hrr_bins,delta,k_mip,k_l0"


def test_write_non_csv_suffix_appends_json(tmp_path):
    result = run_experiment(default_config("bounds"))
    _, sidecar = result.write(tmp_path / "bounds.dat")
    assert sidecar.name == "bounds.dat.json"


# --- cli ------------------------------------------------------------------------------


def test_cli_bounds_roundtrip(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["bounds", "--out", str(out)]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["experiment"] == "bounds"
    assert status["rows"] == 2
    assert out.exists()
    assert (tmp_path / "b.json").exists()


def test_cli_overrides_reach_the_config(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["spark", "--trials", "2", "--seed", "5", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "s.json").read_text())
    assert sidecar["config"]["n_trials"] == 2
    assert sidecar["config"]["master_seed"] == 5
    assert len(out.read_text().splitlines()) == 3  # header + 2 trials


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "mip", "n_pulses": 8, "n_hrr_bins": 2,
                               "n_trials": 2, "sweep": [0.0]}))
    out = tmp_path / "m.csv"
    assert main(["mip", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_cli_subcommand_config_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "spark"}))
    assert main(["mip", "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FarcsError"


def test_cli_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "spark", "wat": 1}))
    assert main(["spark", "--config", str(cfg)]) == 1
    assert "wat" in json.loads(capsys.readouterr().err)["message"]


def test_cli_solver_option_of_wrong_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "phase", "solver": {"bp_max_iter": "100"}}))
    assert main(["phase", "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert "max_iter must be an integer" in err["message"]


@pytest.mark.parametrize("eps_svd", [math.nan, math.inf, True, "x"], ids=repr)
def test_cli_eps_svd_must_be_a_finite_positive_number(tmp_path, capsys, eps_svd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "spark", "n_trials": 2, "eps_svd": eps_svd}))
    assert main(["spark", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert err["message"].startswith("eps_svd must be a finite number > 0")


@pytest.mark.parametrize("body", [
    '{"experiment": "phase", "n_trials": 2',  # malformed JSON
    '{"experiment": "phase", "n_trials": 2, "solver": 5}',
    '{"experiment": "phase", "n_trials": 2, "sweep": 5}',
    '{"experiment": ["phase"]}',
], ids=["malformed", "solver", "sweep", "experiment"])
def test_cli_unreadable_config_is_a_one_line_error(tmp_path, capsys, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ConfigurationError"


@pytest.mark.parametrize("threads", [0, -3, True], ids=repr)
def test_bad_threads_are_rejected_before_any_task(monkeypatch, tmp_path, capsys, threads):
    def run_tasks(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(harness, "_run_tasks", run_tasks)
    with pytest.raises(ConfigurationError, match="threads must be an integer >= 1"):
        run_experiment(SPARK_TINY, threads=threads)
    if not isinstance(threads, bool):  # the CLI parses --threads as an int
        assert main(["spark", "--threads", str(threads), "--out", str(tmp_path / "s.csv")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"


@pytest.mark.parametrize("knob", ["bp_max_iter", "sp_max_iter", "lasso_max_iter"])
def test_cli_solver_error_names_the_key(tmp_path, capsys, knob):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "phase", "solver": {knob: "100"}}))
    assert main(["phase", "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert err["message"] == f"{knob} must be an integer >= 1, got '100'"


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["spark", "--config", str(tmp_path / "absent.json")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


# --- scripts/output_hashes.py ---------------------------------------------------


ROOT = Path(__file__).resolve().parent.parent


def _load_script(name, folder="scripts"):
    path = ROOT / folder / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_defaults_script(capsys):
    script = _load_script("time_defaults")
    assert script.main(["bounds"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"wall_s", "blas_threads"}
    assert set(report["wall_s"]) == {"bounds"} and report["wall_s"]["bounds"] > 0
    assert report["blas_threads"] == 1
    assert script.main(["bounds", "nope"]) == 2  # rejected before anything runs


def test_output_hashes_script(tmp_path):
    script = _load_script("output_hashes")
    hashes = script.output_hashes({"tiny": SPARK_TINY})
    csv_path, sidecar_path = run_experiment(SPARK_TINY).write(tmp_path / "tiny.csv")
    assert hashes == {"tiny": {
        "csv": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        "sidecar": hashlib.sha256(sidecar_path.read_bytes()).hexdigest(),
    }}
    # --keep leaves the same files in its directory
    assert script.output_hashes({"tiny": SPARK_TINY}, tmp_path / "kept") == hashes
    assert sorted(path.name for path in (tmp_path / "kept").iterdir()) == ["tiny.csv",
                                                                           "tiny.json"]
    runs = script.fixed_runs()
    assert {"spark", "spark-continuous", "census-probe", "census-continuous",
            "mip-small", "phase-small", "noisy-small", "mip-wide-hops", "phase-wide-hops",
            "spark-wide-hops"} <= set(runs)
    assert runs["spark-continuous"].code_distribution == "continuous"
    assert runs["census-probe"].master_seed == 367  # set by the config file


# --- perfbench's tracer -----------------------------------------------------------
# perfbench/tracing.py replaces names on farcs.harness and SensingMatrix and
# numbers trials by the sample_codes calls it sees; a driver change that
# breaks either would otherwise show only in the traced benchmark run.


def test_tracer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # tracing imports its siblings
    tracing = _load_script("tracing", folder="perfbench")
    for name in tracing.LAYER_OF:
        assert callable(getattr(harness, name, None)), name
    for name in tracing.SENSING_METHODS:
        assert callable(getattr(SensingMatrix, name, None)), name


@pytest.mark.parametrize("config, solver", [
    (dataclasses.replace(SPARK_TINY, n_trials=40), "spark_enumeration"),
    (MIP_TINY, "coherence"),
    (PHASE_TINY, "basis_pursuit"),
    (dataclasses.replace(NOISY_TINY, sweep=(0.0, 15.0)), "subspace_pursuit"),
], ids=lambda v: getattr(v, "experiment", v))
def test_serial_runs_work_on_each_trial_after_its_own_draw(monkeypatch, empty_census_table,
                                                           config, solver):
    events, draws = [], []
    experiment = harness._EXPERIMENTS[config.experiment]

    def draw(*args):
        draws.append(sample_codes(*args))
        events.append("draw")
        return draws[-1]

    def work(task):
        events.append("work")
        outcome = experiment.work(task)
        events.append("done")
        return outcome

    def spy(name):
        original = getattr(harness, name)

        def wrapper(phi, *args):
            last = phi[-1] if name == "lasso_block" else phi
            if name == "spark_enumeration":  # the census runs on the class's canonical member
                own = _census_key(last.codes) == _census_key(draws[-1])
            else:
                own = last.codes is draws[-1]
            events.append(name if own else name + " on an earlier draw")
            return original(phi, *args)
        return wrapper

    monkeypatch.setattr(harness, "sample_codes", draw)
    monkeypatch.setitem(harness._EXPERIMENTS, config.experiment, experiment._replace(work=work))
    for name in (solver, "lasso_block"):
        monkeypatch.setattr(harness, name, spy(name))
    run_experiment(config)
    n_points, n = max(len(config.sweep), 1), config.n_trials
    if config.experiment == "spark":  # a census right after the first draw of each class
        expected, classes = [], set()
        for codes in draws:
            expected.append("draw")
            if _census_key(codes) not in classes:
                classes.add(_census_key(codes))
                expected += ["work", solver, "done"]
        assert len(classes) < n
    elif config.experiment == "noisy":  # one task per point, lasso once at its end
        expected = (["work"] + ["draw", solver] * n + ["lasso_block", "done"]) * n_points
    else:
        expected = ["work", "draw", solver, "done"] * (n_points * n)
    assert events == expected


# --- BLAS threads ---------------------------------------------------------------------

_BLAS_RUNS = {
    "spark": {"experiment": "spark", "n_pulses": 6, "n_hrr_bins": 3, "n_codes": 3,
              "n_trials": 20},
    "spark-continuous": {"experiment": "spark", "n_pulses": 6, "n_hrr_bins": 3,
                         "n_trials": 3, "code_distribution": "continuous"},
    "mip": {"experiment": "mip", "n_pulses": 64, "n_hrr_bins": 16, "n_trials": 10,
            "sweep": [0.0, 0.5, "continuous"]},
    "phase": {"experiment": "phase", "n_pulses": 64, "n_hrr_bins": 8, "n_trials": 3,
              "sweep": [1, 6]},
    "noisy": {"experiment": "noisy", "n_pulses": 64, "n_hrr_bins": 8, "n_trials": 5,
              "sweep": [-5.0, 10.0]},
}
_BLAS_PROGRAM = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1] + "/src")
path = sys.argv[1] + "/scripts/output_hashes.py"
spec = importlib.util.spec_from_file_location("output_hashes", path)
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
from farcs import ExperimentConfig
runs = {name: ExperimentConfig(**fields) for name, fields in json.loads(sys.argv[2]).items()}
print(json.dumps(script.output_hashes(runs), sort_keys=True))
"""


def test_blas_thread_count_does_not_change_outputs():
    # BLAS reads its thread count when numpy loads, so each count gets a
    # fresh interpreter; equal hashes mean byte-identical CSVs and sidecars
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _BLAS_PROGRAM, str(ROOT),
                              json.dumps(_BLAS_RUNS)],
                             env=env, capture_output=True, text=True, check=True, timeout=300)
        hashes.append(json.loads(out.stdout))
    assert set(hashes[0]) == set(_BLAS_RUNS)
    assert hashes[0] == hashes[1]


def test_import_loads_neither_scipy_nor_multiprocessing():
    # every `farcs <experiment>` pays for its imports; scipy would more than
    # double them, and only a pooled run needs multiprocessing
    program = ("import sys, farcs, farcs.cli; "
               "print(sorted(m for m in ('scipy', 'multiprocessing') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
