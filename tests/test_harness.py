"""Tests for the experiment drivers, their file outputs, and the CLI."""

import dataclasses
import functools
import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from farcs import (
    ConfigurationError,
    DomainError,
    ExperimentConfig,
    ExperimentResult,
    FrequencyCodes,
    RadarParams,
    SensingMatrix,
    SolverConfig,
    SolverSettings,
    TrialRecord,
    build_phi,
    coherence,
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
from farcs.harness import _census_key, _config_record, _fmt, _json_text

ROOT = Path(__file__).resolve().parent.parent

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
def fresh_class_census():
    """``_class_census`` with an empty cache, so that every class is censused anew."""
    harness._class_census.cache_clear()
    return harness._class_census


def _written(obj) -> str:
    """``obj`` as the sidecar writer turns it into JSON text."""
    return _json_text(obj)


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


@pytest.mark.parametrize("config", [
    *(pytest.param(default_config(name), id=f"default-{name}") for name in harness.EXPERIMENTS),
    *(pytest.param(load_config(path), id=f"perfbench-{path.stem}")
      for path in sorted((ROOT / "perfbench" / "configs").glob("*.json"))),
    pytest.param(dataclasses.replace(default_config("bounds"),
                                     sweep=[[16, 4, 0.1], (64, 8, 0.25)],
                                     solver=SolverSettings(sp_max_iter=5)),
                 id="bounds-nested-sweep"),
])
def test_config_record_is_asdict(config):
    # the sidecar's config record, without asdict's deep copy
    record = _config_record(config)
    assert record == dataclasses.asdict(config)
    assert _written(record) == _written(dataclasses.asdict(config))


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


def _smallest_image(codes) -> tuple:
    """The smallest image (+-hops + c) mod M* of a discrete vector, all 2 M* of them stacked."""
    q, hops = codes.n_codes, codes.hops
    images = (np.stack([hops, -hops])[:, None, :] + np.arange(q)[:, None]) % q
    return tuple(min(images.reshape(-1, hops.size).tolist()))


def test_census_class_members_share_outcome():
    # the images d -> +-d + c of a discrete vector share one census key and
    # give the same census outcome
    hops = np.array([2, 1, 0, 2, 1, 2])
    images = [(sign * hops + c) % 3 for sign in (1, -1) for c in range(3)]
    codes = [FrequencyCodes(image / 3, n_codes=3) for image in images]
    assert len({_census_key(c) for c in codes}) == 1
    params = RadarParams.abstract(6, 3, n_codes=3)
    outcomes = [harness._census(params, c, 1e-15, 10**6) for c in codes]
    first = outcomes[0]
    for o in outcomes:
        assert (o.sigma_omega, o.n_below_eps, o.below_max) == (0.0, 10635, 0.0)
        np.testing.assert_array_equal(o.hist, first.hist)
        assert o.above_min == pytest.approx(first.above_min, rel=0, abs=1e-14)
        assert o.det_nonsingular_min == pytest.approx(first.det_nonsingular_min,
                                                      rel=0, abs=1e-12)
    # the 729 discrete vectors at N=6, M*=3 form 122 classes, and each key
    # is the smallest of the 2 M* images, as every one of them is formed
    # (likewise at N=5, M*=4)
    for n_pulses, q, n_classes in ((6, 3, 122), (5, 4, 136)):
        keys = set()
        for h in itertools.product(range(q), repeat=n_pulses):
            codes = FrequencyCodes(np.array(h) / q, n_codes=q)
            key = _census_key(codes)
            assert key == _smallest_image(codes) and all(type(k) is int for k in key)
            keys.add(key)
        assert len(keys) == n_classes


def test_run_spark_censuses_each_class_once(monkeypatch, fresh_class_census):
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


def test_census_outcome_depends_only_on_the_class(monkeypatch, tmp_path, fresh_class_census):
    # two runs with empty caches that first draw different members of one
    # class give that class the same outcome, bit for bit
    hops = np.array([2, 1, 0, 2, 1, 2])
    first, other = hops.tolist(), ((2 - hops) % 3).tolist()
    key = _census_key(FrequencyCodes(hops / 3, n_codes=3))
    assert key == _census_key(FrequencyCodes(np.array(other) / 3, n_codes=3))
    cfg = dataclasses.replace(SPARK_TINY, n_trials=2)
    params = harness._spark_point(cfg, None)[1][0]
    runs = []
    for order in ([first, other], [other, first]):
        fresh_class_census.cache_clear()
        _spark_drawing(monkeypatch, cfg, order)
        files = run_experiment(cfg).write(tmp_path / f"{len(runs)}.csv")
        assert fresh_class_census.cache_info()[1:] == (1, 4096, 1)  # misses, maxsize, size
        outcome = fresh_class_census(params, key, cfg.eps_svd, cfg.max_submatrices)
        runs.append((outcome, [p.read_bytes() for p in files]))
    (a, a_files), (b, b_files) = runs
    assert a._replace(hist=None) == b._replace(hist=None)
    np.testing.assert_array_equal(a.hist, b.hist)
    assert a_files == b_files
    # all 729 vectors at N=6, M*=3, drawn in reverse order so that no class
    # is first drawn on its smallest member, census each class (122) once,
    # on its canonical hops
    fresh_class_census.cache_clear()
    censused = []

    def spy(phi, *args):
        censused.append(tuple(phi.codes.hops.tolist()))
        return spark_enumeration(phi, *args)

    monkeypatch.setattr(harness, "spark_enumeration", spy)
    vectors = list(itertools.product(range(3), repeat=6))[::-1]
    cfg = dataclasses.replace(SPARK_TINY, n_trials=len(vectors))
    _spark_drawing(monkeypatch, cfg, vectors)
    run_experiment(cfg)
    canonical = {_census_key(FrequencyCodes(np.array(v) / 3, n_codes=3)) for v in vectors}
    assert len(canonical) == len(censused) == fresh_class_census.cache_info().currsize == 122
    assert set(censused) == canonical


def test_spark_after_another_seed_matches_a_fresh_table(tmp_path, fresh_class_census):
    cfg = default_config("spark")
    fresh = [p.read_bytes() for p in run_experiment(cfg).write(tmp_path / "fresh.csv")]
    fresh_class_census.cache_clear()
    run_experiment(dataclasses.replace(cfg, master_seed=10_000))
    after = [p.read_bytes() for p in run_experiment(cfg).write(tmp_path / "after.csv")]
    assert after == fresh


def test_class_census_serves_repeat_discrete_runs(monkeypatch, tmp_path, fresh_class_census):
    calls = []  # cache size at each census that runs

    def spy(phi, *args):
        calls.append(harness._class_census.cache_info().currsize)
        return spark_enumeration(phi, *args)

    monkeypatch.setattr(harness, "spark_enumeration", spy)
    cfg = dataclasses.replace(SPARK_TINY, n_trials=40)
    first = [p.read_bytes() for p in run_experiment(cfg).write(tmp_path / "first.csv")]
    n_censused = len(calls)
    assert n_censused == fresh_class_census.cache_info().currsize > 4
    params = harness._spark_point(cfg, None)[1][0]
    assert all(not fresh_class_census(params, _census_key(sample_codes(t, 6, 3)), cfg.eps_svd,
                                      cfg.max_submatrices).hist.flags.writeable
               for t in range(cfg.n_trials))
    # a repeat run reads every census from the cache and writes the same bytes
    again = [p.read_bytes() for p in run_experiment(cfg).write(tmp_path / "again.csv")]
    assert len(calls) == n_censused
    assert again == first
    # eps_svd is part of the key
    run_experiment(dataclasses.replace(cfg, eps_svd=1e-14))
    assert len(calls) == 2 * n_censused
    # continuous codes are censused every time and never stored
    size = fresh_class_census.cache_info().currsize
    run_experiment(dataclasses.replace(cfg, n_trials=3, code_distribution="continuous"))
    assert len(calls) == 2 * n_censused + 3
    assert fresh_class_census.cache_info().currsize == size
    # a full cache drops its least recently used outcome for each new one,
    # so a class drawn again after it was dropped is censused again, with
    # the same outcome
    monkeypatch.setattr(harness, "_class_census",
                        functools.lru_cache(maxsize=4)(harness._class_census.__wrapped__))
    calls.clear()
    lru, n_lru = [], 0  # an LRU cache of 4 on this draw order
    for t in range(cfg.n_trials):
        key = _census_key(sample_codes(t, 6, 3))
        if key in lru:
            lru.remove(key)
        else:
            n_lru += 1
        lru = (lru + [key])[-4:]
    capped = [p.read_bytes() for p in run_experiment(cfg).write(tmp_path / "capped.csv")]
    assert len(calls) == n_lru > n_censused
    assert max(calls) == 4
    assert capped == first


def test_run_spark_continuous_census_min_sigma():
    # full 2000-trial continuous-code census, the slowest test of the suite,
    # run on two workers (about 16 s serial, 7 to 10 s pooled on 2 cores);
    # pooled outputs equal serial ones (test_worker_count_does_not_change_results).
    # No subset ever loses rank, but the worst submatrix sits many decades
    # below the discrete-code full-rank floor.
    cfg = dataclasses.replace(default_config("spark"), code_distribution="continuous")
    ag = run_experiment(cfg, threads=2).aggregates
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


def _mip_reference_csv(config) -> str:
    """The mip CSV from each trial's own operator and its ``coherence``."""
    lines = ["arm,trial,mu"]
    for s, arm in enumerate(config.sweep):
        continuous = arm == "continuous"
        params = RadarParams.abstract(config.n_pulses, config.n_hrr_bins, n_codes=config.n_codes,
                                      relative_bandwidth=0.0 if continuous else float(arm))
        for t in range(config.n_trials):
            codes = sample_codes(config.master_seed + s * config.n_trials + t, config.n_pulses,
                                 None if continuous else params.n_codes)
            mu = coherence(build_phi(params, codes)).mu
            lines.append(f"{'continuous' if continuous else repr(float(arm))},{t},{mu!r}")
    return "\n".join(lines) + "\n"


_CHUNKED = {  # one config per task shape; n_trials = 37 is a multiple of no cap but 1
    "spark": dataclasses.replace(SPARK_TINY, n_trials=37),
    "spark-continuous": dataclasses.replace(SPARK_TINY, n_trials=37,
                                            code_distribution="continuous"),
    "mip": ExperimentConfig(experiment="mip", n_pulses=16, n_hrr_bins=4, n_trials=37,
                            master_seed=31, sweep=(0.0, 0.5, "continuous"), epsilon_count=40),
    "mip-wide-hops": ExperimentConfig(experiment="mip", n_pulses=16, n_hrr_bins=4, n_codes=7,
                                      n_trials=37, master_seed=31,
                                      sweep=(0.0, 0.5, "continuous"), epsilon_count=40),
    "phase": dataclasses.replace(PHASE_TINY, n_trials=37),
    "noisy": dataclasses.replace(NOISY_TINY, n_trials=37, sweep=(5.0, 15.0)),
}


@pytest.mark.parametrize("n_trials", [1, 37])
@pytest.mark.parametrize("name", list(_CHUNKED))
def test_outputs_do_not_depend_on_chunk_size(monkeypatch, fresh_class_census, name, n_trials):
    config = dataclasses.replace(_CHUNKED[name], n_trials=n_trials)
    assert 37 % harness._CHUNK and 37 % 7  # the last chunk of a cap > 1 is a partial one
    outputs = set()
    for cap in (harness._CHUNK, 1, 7):
        monkeypatch.setattr(harness, "_CHUNK", cap)
        fresh_class_census.cache_clear()  # every cap censuses its classes anew
        result = run_experiment(config)
        if config.experiment == "mip":
            assert result.to_csv() == _mip_reference_csv(config)
        outputs.add((result.to_csv(), _written(result.aggregates)))
    assert len(outputs) == 1


def test_union_curves_are_built_once_and_no_run_can_change_them(tmp_path):
    config = dataclasses.replace(MIP_TINY, epsilon_max=0.55, epsilon_count=37)
    bounds = dataclasses.replace(default_config("bounds"), epsilon_max=0.55, epsilon_count=37,
                                 sweep=((8, 2, 0.1), (8, 2, 0.2)))
    first = run_experiment(config)
    _, sidecar = first.write(tmp_path / "first.csv")
    misses = harness._union_curves.cache_info().misses
    ag = first.aggregates
    for name in ("epsilon_grid", "union_bound_raw", "union_bound_clamped"):
        with pytest.raises(ValueError):
            ag[name][0] = 0.5
        ag[name] = np.zeros(37)  # replaces this run's entry only
    table = run_experiment(bounds).aggregates
    for curve in table["curves"]["N=8,M=2"].values():
        with pytest.raises(ValueError):
            curve[:] = 0.0
    _, again = run_experiment(config).write(tmp_path / "again.csv")
    assert again.read_text() == sidecar.read_text()
    assert harness._union_curves.cache_info().misses == misses  # mip and bounds reuse it
    assert table["curves"]["N=8,M=2"]["union_bound_raw"][0] == 8.0  # the N(M - 1) offsets


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


def test_numpy_scalar_sweep_entries_run_as_python_ones():
    # numpy integers and floats are numbers: each run writes the bytes of its
    # plain-Python twin
    for config, numpy_sweep in [
        (MIP_TINY, (np.float32(0.0), "continuous")),
        (dataclasses.replace(MIP_TINY, sweep=(0.5,)), (np.float32(0.5),)),
        (PHASE_TINY, (np.int64(1), np.uint8(2))),
        (NOISY_TINY, (np.float32(15.0),)),
        (dataclasses.replace(NOISY_TINY, sweep=(15,)), (np.int16(15),)),
        (dataclasses.replace(default_config("bounds"), sweep=((64, 8, 0.25),)),
         ((np.int64(64), np.int32(8), np.float32(0.25)),)),
    ]:
        twin = run_experiment(dataclasses.replace(config, sweep=numpy_sweep))
        plain = run_experiment(config)
        assert twin.to_csv() == plain.to_csv()
        assert twin.to_json() == plain.to_json()


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
    dataclasses.replace(default_config("bounds"), sweep=((64, 8, 10**400),)),
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
    # sigma2 = 10^(dB/10) overflows, or underflows to 0
    dataclasses.replace(NOISY_TINY, sweep=(15.0, 4000.0)),
    dataclasses.replace(NOISY_TINY, sweep=(15.0, -4000.0)),
    # the solvers' sums of squares, of the order of N sigma2, would overflow
    # (sigma2 = 1e307 at 3070 dB, 1e308 at 3080 dB)
    dataclasses.replace(NOISY_TINY, n_pulses=64, sweep=(15.0, 3070.0)),
    dataclasses.replace(NOISY_TINY, n_pulses=64, sweep=(15.0, 3080.0)),
    # lam = lasso_lambda_factor * sigma2 overflows though N sigma2 does not
    dataclasses.replace(NOISY_TINY, sweep=(3000.0,),
                        solver=SolverSettings(lasso_lambda_factor=1e10)),
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


@pytest.mark.parametrize("config", [MIP_TINY, NOISY_TINY], ids=["mip", "noisy"])
def test_sweep_points_beyond_the_float_range_are_configuration_errors(config):
    # math.isfinite(10**400) raised a bare OverflowError; such a noisy point
    # now takes sigma2 = inf, which the headroom test refuses
    for point in (10**400, -10**400):
        with pytest.raises(ConfigurationError):
            run_experiment(dataclasses.replace(config, sweep=(point,)))


def test_loudest_admitted_noise_point_runs_without_warnings():
    # the largest dB that the headroom check admits at N=64; every warning
    # is an error while it runs
    config = dataclasses.replace(default_config("noisy"), n_trials=3)

    def admitted(db):
        try:
            harness._noisy_point(config, db)
        except ConfigurationError:
            return False
        return True

    db = 10.0 * math.log10(sys.float_info.max / (harness._NOISE_HEADROOM * config.n_pulses))
    while not admitted(db):
        db = math.nextafter(db, -math.inf)
    while admitted(math.nextafter(db, math.inf)):
        db = math.nextafter(db, math.inf)
    assert 3034.0 < db < 3035.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(dataclasses.replace(config, sweep=(db,)))
    assert len(result.rows) == 2 * 3
    exits = result.aggregates["lasso_exit"][_fmt(db)]
    assert all(math.isfinite(value) for value in exits.values())


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
    spark = dataclasses.replace(SPARK_TINY, n_trials=harness._CHUNK + 8)  # two chunks
    spark_continuous = dataclasses.replace(spark, code_distribution="continuous")
    noisy = dataclasses.replace(NOISY_TINY, sweep=(0.0, 15.0))
    mip = dataclasses.replace(MIP_TINY, sweep=(0.0, 0.1, 0.5, "continuous"))  # both modes
    for config in (spark, spark_continuous, mip, PHASE_TINY, noisy):
        serial = run_experiment(config, threads=1)
        pooled = run_experiment(config, threads=2)
        assert serial.to_csv() == pooled.to_csv()
        assert _written(serial.aggregates) == _written(pooled.aggregates)


@pytest.mark.parametrize("config", [
    dataclasses.replace(SPARK_TINY, n_trials=harness._CHUNK + 8),  # two chunks
    dataclasses.replace(SPARK_TINY, n_trials=harness._CHUNK + 8, code_distribution="continuous"),
    dataclasses.replace(MIP_TINY, sweep=(0.0, 0.1, 0.5, "continuous")),  # both modes
    PHASE_TINY,
    dataclasses.replace(NOISY_TINY, sweep=(0.0, 15.0)),
], ids=lambda config: f"{config.experiment}-{config.code_distribution}")
def test_work_reads_each_point_from_its_value_not_the_sweep(fresh_class_census, config):
    # the chunks run the same on a config whose sweep is gone once the
    # points are read, in this process and in a pool
    experiment = harness._EXPERIMENTS[config.experiment]
    values = [experiment.point(config, point)[1] for point in config.sweep or (None,)]
    blind = dataclasses.replace(config)
    object.__setattr__(blind, "sweep", None)

    def outcomes(config, threads):
        chunks = harness._run_tasks(experiment.work, harness._chunk_tasks(config, values), threads)
        return [o._replace(hist=o.hist.tolist()) if hasattr(o, "hist") else o
                for chunk in chunks for o in chunk]

    expected = outcomes(config, 1)
    assert len(expected) == len(values) * config.n_trials
    assert outcomes(blind, 1) == expected
    assert outcomes(blind, 2) == expected


def test_master_seed_changes_draws():
    moved = dataclasses.replace(MIP_TINY, master_seed=1234)
    assert run_experiment(MIP_TINY).to_csv() != run_experiment(moved).to_csv()


# --- serialization -------------------------------------------------------------------


def _json_hook(obj):
    """The reference's hook for what json cannot write: numpy values as their ``.tolist()``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_or_type_error(write, obj):
    try:
        return write(obj)
    except TypeError:
        return TypeError


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**80, max_value=2**80),
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.text(), st.text(alphabet="\"\\\n\t\x00\x7f\u00e9\u4e2d\U0001f600"),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
def _read_only(arr):
    arr.setflags(write=False)
    return arr


_ARRAY_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)
_JSON_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _ARRAY_SHAPES,
               elements=st.floats(allow_nan=False, allow_infinity=False)),
    *(hnp.arrays(dtype, _ARRAY_SHAPES)
      for dtype in (np.float64, np.float32, np.int64, np.int8, np.uint64, np.bool_)),
    hnp.arrays(object, _ARRAY_SHAPES, elements=_JSON_SCALARS),
)
# read-only arrays are the ones whose text the writer keeps, per content
_JSON_ARRAYS = _JSON_ARRAYS | _JSON_ARRAYS.map(_read_only)
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS | _JSON_ARRAYS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_JSON_PAYLOADS)
@example({"a": np.arange(3), "b": (np.float64(1.5), np.bool_(True))})
@example(np.array([[0.1, 2.0], [np.inf, -0.0]]))
@example(np.array([[True, False], [False, True]]))
@example(np.array([np.int64(3), {"k": np.float64(0.5)}], dtype=object))
@example(np.array([0.5, np.nan, 2.0]))
@example({"": [], "e": {}, "t": (), "z": np.zeros(0)})
@example({1: "one", 2.5: None, -3: 0, math.inf: [], math.nan: 1})
@example({True: 1, False: None})
@example({None: 1.5})
@example({1: "one", "k": 0})
@example({"a": object()})
@example([1, 2j])
@example(np.array([1j]))
@example({(1, 2): 0})
@example([_read_only(np.arange(3.0))] * 2 + [[_read_only(np.arange(3.0))]])
@example([_read_only(np.zeros(3)), _read_only(np.zeros(3, np.int64))])
@example({"e": _read_only(np.arange(harness._MEMO_MAX_SIZE + 1.0))})
@example(_read_only(np.array([0.5, np.nan, -0.0])))
def test_sidecar_text_is_json_dumps(obj):
    # the sidecar writer gives json.dumps's text, or fails where it fails
    reference = functools.partial(json.dumps, sort_keys=True, indent=2, default=_json_hook)
    assert _json_or_type_error(_json_text, obj) == _json_or_type_error(reference, obj)


def test_sidecar_text_of_a_read_only_array_is_kept():
    def kept(arr):
        before = harness._memo_array_text.cache_info()
        assert _json_text(arr) == json.dumps(arr.tolist(), indent=2)
        after = harness._memo_array_text.cache_info()
        return after.hits + after.misses - before.hits - before.misses

    _json_text(SIGMA_HIST_EDGES)
    hits = harness._memo_array_text.cache_info().hits
    assert kept(SIGMA_HIST_EDGES) == 1
    assert harness._memo_array_text.cache_info().hits == hits + 1
    # a writable array, or one over the size limit, is encoded every time
    assert kept(SIGMA_HIST_EDGES.copy()) == 0
    assert kept(_read_only(np.arange(harness._MEMO_MAX_SIZE + 1))) == 0


def test_sigma_bins_count_as_np_histogram():
    # the kept bin of each census outcome counts a trial where np.histogram does,
    # on the edges, a step either side of each, off the edges and at random
    edges = SIGMA_HIST_EDGES
    sigmas = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                             [-np.inf, np.inf, 0.0, 1.0, 2.0],
                             np.random.default_rng(0).uniform(-0.1, 1.3, 500)])
    bins = [harness._sigma_bin(float(sigma)) for sigma in sigmas]
    counts = np.bincount(bins, minlength=harness._N_SIGMA_BINS + 1)[:-1]
    assert np.array_equal(counts, np.histogram(sigmas, bins=edges)[0])
    assert harness._sigma_bin(math.nan) == harness._N_SIGMA_BINS


def _readme_sidecar_keys() -> dict:
    """README's sidecar key tables: the set of key paths under each ``####`` heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### Sidecar keys\n", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for block in section.split("\n#### ")[1:]:
        heading, *lines = block.splitlines()
        tables[heading.strip("`")] = {line.split("`")[1] for line in lines
                                      if line.startswith("| `")}
    return tables


def _sidecar_key_paths(payload, points, path=()) -> set:
    """The dotted key paths of a sidecar payload's leaves, a key in ``points`` as ``<point>``.

    ``config`` counts as one leaf.
    """
    if not isinstance(payload, dict) or path == ("config",):
        return {".".join(path)}
    return set().union(*(_sidecar_key_paths(value, points,
                                            path + ("<point>" if key in points else key,))
                         for key, value in payload.items()))


_GAP_ROUTE_KEYS = {"aggregates.det_singular_max", "aggregates.det_nonsingular_min"}


@pytest.mark.parametrize("config, points, absent", [
    (SPARK_TINY, set(), set()),
    (dataclasses.replace(SPARK_TINY, n_pulses=3, n_hrr_bins=2, n_trials=2,
                         code_distribution="continuous"), set(), _GAP_ROUTE_KEYS),
    (MIP_TINY, {"0.0", "continuous"}, set()),
    (PHASE_TINY, {"1", "2"}, set()),
    (NOISY_TINY, {"15.0"}, set()),
    (default_config("bounds"), {"N=64,M=8", "N=512,M=32"}, set()),
], ids=["spark", "spark-continuous", "mip", "phase", "noisy", "bounds"])
def test_sidecar_keys_are_the_readme_tables(config, points, absent):
    # every key path a sidecar writes is in its README table, and every row is written
    # (the determinant-gap margins only on that route)
    tables = _readme_sidecar_keys()
    payload = json.loads(run_experiment(config).to_json())
    documented = tables["Every experiment"] | tables[config.experiment]
    assert _sidecar_key_paths(payload, points) == documented - absent


def test_to_csv_layout():
    result = ExperimentResult(
        experiment="bounds", columns=("a", "b", "c", "d"),
        rows=[TrialRecord((1, 2.5, True, "x"))], aggregates={}, config={},
    )
    assert result.to_csv() == "a,b,c,d\n1,2.5,1,x\n"
    # numpy cells are written as the Python values they hold
    assert _fmt(True) == "1" and _fmt(np.bool_(False)) == "0"
    assert _fmt(np.int64(7)) == "7"
    assert _fmt(2.5) == "2.5" and _fmt(np.float64(0.1)) == "0.1"
    assert _fmt("continuous") == "continuous"


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


def test_write_into_an_existing_directory_makes_none(tmp_path, monkeypatch):
    def no_mkdir(*args, **kwargs):
        raise AssertionError("write made a directory that exists")

    monkeypatch.setattr(Path, "mkdir", no_mkdir)
    csv_path, sidecar = run_experiment(default_config("bounds")).write(tmp_path / "b.csv")
    assert csv_path.exists() and sidecar.exists()


def test_write_under_a_regular_file_is_an_os_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = run_experiment(default_config("bounds"))
    with pytest.raises(NotADirectoryError):
        result.write(blocker / "b.csv")
    assert main(["bounds", "--out", str(blocker / "sub" / "b.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotADirectoryError"
    assert blocker.read_text() == ""


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


@pytest.mark.parametrize("output_path", [5, ["b.csv"], True], ids=repr)
def test_cli_output_path_must_be_a_string(tmp_path, capsys, output_path):
    # a number here ended in a TypeError traceback, not the one-line error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bounds", "output_path": output_path}))
    assert main(["bounds", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ConfigurationError"
    assert json.loads(err)["message"].startswith("output_path must be a file name or None")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment="bounds", output_path=Path("b.csv"))


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


def _load_script(name, folder="scripts"):
    path = ROOT / folder / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_defaults_script(capsys):
    script = _load_script("time_defaults")
    assert script.main(["bounds", "spark"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"wall_s", "pooled_wall_s", "blas_threads"}
    assert set(report["wall_s"]) == {"bounds", "spark"} and min(report["wall_s"].values()) > 0
    assert set(report["pooled_wall_s"]) == {"spark"} and report["pooled_wall_s"]["spark"] > 0
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
    # EXACT-mode arms: an APPROXIMATE-mode chunk draws no FrequencyCodes
    (dataclasses.replace(MIP_TINY, sweep=(0.1, 0.5)), "coherence"),
    (dataclasses.replace(PHASE_TINY, n_trials=4), "basis_pursuit"),
    (dataclasses.replace(NOISY_TINY, n_trials=4, sweep=(0.0, 15.0)), "subspace_pursuit"),
], ids=lambda v: getattr(v, "experiment", v))
def test_serial_runs_work_on_each_trial_after_its_own_draw(monkeypatch, fresh_class_census,
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
    monkeypatch.setattr(harness, "_CHUNK", 3)  # 4 trials run as chunks of 3 and 1
    monkeypatch.setitem(harness._EXPERIMENTS, config.experiment, experiment._replace(work=work))
    for name in (solver, "lasso_block"):
        monkeypatch.setattr(harness, name, spy(name))
    run_experiment(config)
    # one work span per chunk; each trial's solve, or its class's census
    # if the class is new, right after its own draw; lasso once per noisy chunk
    n_points, n = max(len(config.sweep), 1), config.n_trials
    assert len(draws) == n_points * n
    expected, classes = [], set()
    for s in range(n_points):
        for start in range(0, n, 3):
            expected.append("work")
            for t in range(start, min(start + 3, n)):
                key = _census_key(draws[s * n + t])
                expected.append("draw")
                if config.experiment != "spark" or key not in classes:
                    expected.append(solver)
                classes.add(key)
            expected += ["lasso_block", "done"] if config.experiment == "noisy" else ["done"]
    assert events == expected
    if config.experiment == "spark":
        assert len(classes) < n


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
