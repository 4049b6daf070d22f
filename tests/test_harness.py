"""Tests for the experiment drivers, their file outputs, and the CLI."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from farcs import (
    ConfigurationError,
    DomainError,
    ExperimentConfig,
    ExperimentResult,
    FrequencyCodes,
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
from farcs.cli import main
from farcs.harness import (_SIGMA_HIST_EDGES, _census_key, _fmt, _jsonable, _spark_census,
                           run_mip, run_spark)

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


def test_runners_check_experiment_kind():
    with pytest.raises(ConfigurationError):
        run_spark(MIP_TINY)
    with pytest.raises(ConfigurationError):
        run_mip(SPARK_TINY)


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
    counts = np.histogram([1.0 - 1e-15, 1.0, 1.0 + 1e-15], bins=_SIGMA_HIST_EDGES)[0]
    assert counts.max() == 3
    centres = 0.5 * (_SIGMA_HIST_EDGES[:-1] + _SIGMA_HIST_EDGES[1:])
    assert np.isclose(centres, 1.0, rtol=0, atol=1e-12).sum() == 1
    assert _SIGMA_HIST_EDGES[0] < 0.0 and _SIGMA_HIST_EDGES[-1] > 1.0


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
    outcomes = [_spark_census((c, 3, 1e-15, 10**6)) for c in codes]
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
    # full 2000-trial continuous-code census (about 33 s, half of the suite).
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
