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
from farcs.harness import _census_key, _fmt, _jsonable, _spark_work

# small, fast configurations used throughout
SPARK_TINY = dataclasses.replace(default_config("spark"), n_trials=3)
MIP_TINY = ExperimentConfig(experiment="mip", n_pulses=8, n_hrr_bins=2,
                            n_trials=4, sweep=(0.0, "continuous"),
                            epsilon_count=50)
PHASE_TINY = ExperimentConfig(experiment="phase", n_pulses=16, n_hrr_bins=2,
                              n_trials=3, sweep=(1, 2))
NOISY_TINY = ExperimentConfig(experiment="noisy", n_pulses=16, n_hrr_bins=2,
                              n_trials=3, n_scatterers=1, sweep=(15.0,))


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
])
def test_experiment_config_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**kwargs)


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


def test_run_spark_censuses_each_class_once(monkeypatch):
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
    assert _jsonable(serial.aggregates) == _jsonable(pooled.aggregates)


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
    dataclasses.replace(SPARK_TINY, sweep=(1,)),
], ids=lambda config: f"{config.experiment}-{config.sweep!r}")
def test_bad_or_repeated_sweep_points_are_configuration_errors(config):
    # a repeated point would write its rows twice but keep one sidecar entry
    with pytest.raises(ConfigurationError):
        run_experiment(config)


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
    for config in (MIP_TINY, PHASE_TINY, noisy):
        serial = run_experiment(config, threads=1)
        pooled = run_experiment(config, threads=2)
        assert serial.to_csv() == pooled.to_csv()
        assert _jsonable(serial.aggregates) == _jsonable(pooled.aggregates)


def test_master_seed_changes_draws():
    moved = dataclasses.replace(MIP_TINY, master_seed=1234)
    assert run_experiment(MIP_TINY).to_csv() != run_experiment(moved).to_csv()


# --- serialization -------------------------------------------------------------------


def test_fmt_and_jsonable():
    assert _fmt(True) == "1" and _fmt(np.bool_(False)) == "0"
    assert _fmt(np.int64(7)) == "7"
    assert _fmt(2.5) == "2.5" and _fmt(np.float64(0.1)) == "0.1"
    assert _fmt("continuous") == "continuous"
    out = _jsonable({"a": np.arange(3), "b": (np.float64(1.5), np.bool_(True))})
    assert out == {"a": [0, 1, 2], "b": [1.5, True]}
    json.dumps(out)  # round-trippable
    grid = _jsonable(np.array([[0.1, 2.0], [np.inf, -0.0]]))
    flags = _jsonable(np.array([[True, False], [False, True]]))
    assert grid == [[0.1, 2.0], [math.inf, -0.0]] and flags == [[True, False], [False, True]]
    assert all(type(v) is float for row in grid for v in row)
    assert all(type(v) is bool for row in flags for v in row)
    assert _jsonable(np.array([np.int64(3), {"k": np.float64(0.5)}], dtype=object)) == [
        3, {"k": 0.5}]


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
    runs = script.fixed_runs()
    assert {"spark", "spark-continuous", "census-probe", "census-continuous",
            "mip-small", "phase-small", "noisy-small"} <= set(runs)
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
def test_serial_runs_work_on_each_trial_after_its_own_draw(monkeypatch, config, solver):
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
            events.append(name if last.codes is draws[-1] else name + " on an earlier draw")
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
