"""The shared number checks, and the typed errors of the public entry points."""

import math

import numpy as np
import pytest

from farcs import (
    ExperimentConfig,
    FrequencyCodes,
    RadarParams,
    Scatterer,
    Scene,
    add_noise,
    basis_pursuit,
    build_D,
    build_iwr_psi,
    build_phi,
    build_R,
    chi,
    chi_statistics,
    coherence,
    extract_support,
    flat_grid_index,
    from_physical,
    lasso,
    lasso_block,
    load_config,
    matched_filter,
    omp,
    phi_row_sampling_check,
    run_experiment,
    sample_codes,
    scene_to_vector,
    spark_enumeration,
    subspace_pursuit,
    synthesize_echoes,
    to_physical,
    zeta,
)
from farcs.errors import (
    ConfigurationError,
    DomainError,
    ShapeError,
    check_array,
    check_integer,
    check_numbers,
    check_positive,
    check_real,
)
from farcs.signal_model import pulse_doppler_scalings


@pytest.mark.parametrize("check,args", [(check_integer, (1,)), (check_real, ()),
                                        (check_positive, ())],
                         ids=["integer", "real", "positive"])
def test_checks_raise_the_error_class_they_are_given(check, args):
    with pytest.raises(ConfigurationError, match="^knob must be"):
        check("knob", "x", *args)
    with pytest.raises(DomainError, match="^knob must be"):
        check("knob", "x", *args, error=DomainError)


def test_checks_return_the_value_they_accept():
    assert check_integer("n", 3, 1) == 3
    n = check_integer("n", np.int64(3), 1)
    assert n == 3 and type(n) is int
    for value in (0.5, np.float32(0.5), 7, np.int16(7), math.inf, -math.inf):
        assert check_real("x", value) is value
    assert math.isnan(check_real("x", math.nan))
    assert check_positive("x", 0.0, zero_ok=True) == 0.0
    assert check_positive("x", np.float64(2.5)) == 2.5
    arr = check_array("y", [1, 2], np.complex128)
    assert arr.dtype == np.complex128 and arr.tolist() == [1, 2]
    for value in (True, 1 + 2j, math.nan, [1.0, 2.0], np.arange(3), [[1j]]):
        assert check_numbers("x", value) is value


@pytest.mark.parametrize("value", [10**400, -10**400, math.inf, math.nan, True, "1"], ids=repr)
def test_check_positive_refuses_what_is_not_a_finite_float(value):
    # 10**400 made math.isfinite raise a bare OverflowError
    with pytest.raises(ConfigurationError, match="^x must be a finite number >= 0"):
        check_positive("x", value, zero_ok=True)


@pytest.mark.parametrize("value", [True, np.bool_(False), "1", None, 1 + 0j], ids=repr)
def test_check_real_refuses_bools_and_non_reals(value):
    with pytest.raises(ConfigurationError, match="^x must be a real number"):
        check_real("x", value)


@pytest.mark.parametrize("value", ["abc", [[1.0], [1.0, 2.0]], {"a": 1}, [1j]], ids=repr)
def test_check_array_refuses_what_numpy_cannot_convert(value):
    with pytest.raises(DomainError, match="^codes must be an array of numbers"):
        check_array("codes", value, np.float64)


@pytest.mark.parametrize("value", ["abc", "1.5", None, [1.0, "a"], [[1.0], [1.0, 2.0]], {}],
                         ids=repr)
def test_check_numbers_refuses_what_numpy_does_not_read_as_numbers(value):
    # np.asarray("1.5", float) and np.asarray(None, float) convert; check_numbers refuses them
    with pytest.raises(DomainError, match="^x must be a number or an array of numbers"):
        check_numbers("x", value)


_PARAMS = RadarParams.abstract(8, 4)
_CODES = sample_codes(0, 8, 4)
_PHI = build_phi(_PARAMS, _CODES)
_Y = _PHI.columns(3) * (1.0 + 0.0j)
_PHYSICAL = RadarParams(n_pulses=8, n_hrr_bins=4, carrier_hz=9e9, bandwidth_hz=4e6, pri_s=1e-3)
_SPARK_PHI = build_phi(RadarParams.abstract(6, 3), sample_codes(0, 6, 3))

# each call raised a bare TypeError, ValueError or AttributeError before the
# checks were shared
_UNTYPED_BEFORE = [
    # scalar arguments
    ("Scatterer-p", lambda: Scatterer(1.0, "a", 0.0), DomainError),
    ("Scatterer-q", lambda: Scatterer(1.0, 0.0, "a"), DomainError),
    ("chi-p", lambda: chi(_PARAMS, _CODES, "a", 0.0), DomainError),
    ("chi-q", lambda: chi(_PARAMS, _CODES, 0.0, "a"), DomainError),
    ("spark-eps_svd", lambda: spark_enumeration(_SPARK_PHI, "x"), DomainError),
    ("spark-max_submatrices",
     lambda: spark_enumeration(_SPARK_PHI, max_submatrices="x"), ConfigurationError),
    ("flat_grid_index-n_pulses", lambda: flat_grid_index(0, 0, "6"), ConfigurationError),
    ("to_physical-p", lambda: to_physical("a", 0.0, 1.0, _PHYSICAL), DomainError),
    ("to_physical-q", lambda: to_physical(0.0, "a", 1.0, _PHYSICAL), DomainError),
    ("to_physical-amplitude", lambda: to_physical(0.0, 0.0, "a", _PHYSICAL), DomainError),
    ("from_physical-range", lambda: from_physical("a", 0.0, _PHYSICAL), DomainError),
    ("from_physical-velocity", lambda: from_physical(0.0, "a", _PHYSICAL), DomainError),
    ("basis_pursuit-config", lambda: basis_pursuit(_PHI, _Y, "x"), ConfigurationError),
    ("omp-config", lambda: omp(_PHI, _Y, config="x"), ConfigurationError),
    ("subspace_pursuit-config", lambda: subspace_pursuit(_PHI, _Y, 1, "x"), ConfigurationError),
    ("lasso-config", lambda: lasso(_PHI, _Y, 0.1, "x"), ConfigurationError),
    # seeds
    *((f"sample_codes-seed-{seed!r}", lambda seed=seed: sample_codes(seed, 6, 3),
       ConfigurationError) for seed in (-1, 1.5, "abc")),
    *((f"add_noise-seed-{seed!r}", lambda seed=seed: add_noise(_Y, 1.0, seed),
       ConfigurationError) for seed in (-1, 1.5, "abc")),
    *((f"chi_statistics-seed-{seed!r}",
       lambda seed=seed: chi_statistics(_PARAMS, math.pi / 2, 0.0, 10, seed=seed),
       ConfigurationError) for seed in (-1, 1.5, "abc")),
    # arrays and objects
    ("FrequencyCodes", lambda: FrequencyCodes("abc"), DomainError),
    ("zeta", lambda: zeta("a", 1.0, 1.0), DomainError),
    ("coherence", lambda: coherence("abc"), DomainError),
    ("add_noise-y", lambda: add_noise("abc", 1.0, 0), DomainError),
    ("basis_pursuit-y", lambda: basis_pursuit(_PHI, "abc"), DomainError),
    ("matched_filter-y", lambda: matched_filter(_PHI, "abc"), DomainError),
    ("extract_support", lambda: extract_support("abc"), DomainError),
    ("phi_row_sampling_check", lambda: phi_row_sampling_check(_PHI, "abc"), ShapeError),
    ("Scene-members", lambda: Scene((1, 2)), ConfigurationError),
    ("Scene-not-a-sequence", lambda: Scene(5), ConfigurationError),
    ("build_phi-params", lambda: build_phi("abc", _CODES), ConfigurationError),
    ("build_phi-codes", lambda: build_phi(_PARAMS, "abc"), ConfigurationError),
    # parameters, codes, operators and scenes of the wrong type
    ("spark_enumeration-phi", lambda: spark_enumeration("x"), ConfigurationError),
    ("chi-params", lambda: chi("x", _CODES, 0, 0), ConfigurationError),
    ("chi-codes", lambda: chi(_PARAMS, "x", 0, 0), ConfigurationError),
    ("chi_statistics-params", lambda: chi_statistics("x", math.pi / 2, 0.0, 10),
     ConfigurationError),
    ("build_R-codes", lambda: build_R("x", 3), ConfigurationError),
    ("build_D-params", lambda: build_D("x", _CODES), ConfigurationError),
    ("build_D-codes", lambda: build_D(_PARAMS, "x"), ConfigurationError),
    ("pulse_doppler_scalings-params", lambda: pulse_doppler_scalings("x", _CODES),
     ConfigurationError),
    ("pulse_doppler_scalings-codes", lambda: pulse_doppler_scalings(_PARAMS, "x"),
     ConfigurationError),
    ("scene_to_vector-scene", lambda: scene_to_vector("x", _PARAMS), ConfigurationError),
    ("scene_to_vector-params", lambda: scene_to_vector(Scene(()), "x"), ConfigurationError),
    ("synthesize_echoes-params", lambda: synthesize_echoes("x", _CODES, Scene(())),
     ConfigurationError),
    ("synthesize_echoes-codes", lambda: synthesize_echoes(_PARAMS, "x", Scene(())),
     ConfigurationError),
    ("synthesize_echoes-scene", lambda: synthesize_echoes(_PARAMS, _CODES, "x"),
     ConfigurationError),
    ("to_physical-params", lambda: to_physical(0, 0, 1, "x"), ConfigurationError),
    ("from_physical-params", lambda: from_physical(0, 0, "x"), ConfigurationError),
    ("phi_row_sampling_check-phi",
     lambda: phi_row_sampling_check("x", build_iwr_psi(_PARAMS)), ConfigurationError),
    ("build_iwr_psi-params", lambda: build_iwr_psi("x"), ConfigurationError),
    ("lasso_block-phis", lambda: lasso_block(None, [], []), ShapeError),
    ("lasso_block-lams", lambda: lasso_block([_PHI], [_Y], None), ShapeError),
    # driver inputs; the spark config used to census every trial and then fail
    ("ExperimentConfig-solver-spark",
     lambda: ExperimentConfig(experiment="spark", solver={"bp_max_iter": 5}), ConfigurationError),
    ("ExperimentConfig-solver-noisy",
     lambda: ExperimentConfig(experiment="noisy", sweep=(0.0,), solver={"bp_max_iter": 5}),
     ConfigurationError),
    ("run_experiment-config", lambda: run_experiment("x"), ConfigurationError),
    # open() would take an integer as a file descriptor (0 would read standard input)
    *((f"load_config-{path!r}", lambda path=path: load_config(path), ConfigurationError)
      for path in (999_999, np.int64(999_999), True)),
]


@pytest.mark.parametrize("call,error", [case[1:] for case in _UNTYPED_BEFORE],
                         ids=[case[0] for case in _UNTYPED_BEFORE])
def test_public_entry_points_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_typed_entry_points_still_accept_what_they_took():
    # numpy scalars are numbers, and a real x_hat is read through its complex form
    assert Scatterer(1.0, np.float32(0.5), 0).p == np.float32(0.5)
    assert flat_grid_index(1, 2, np.int64(8)) == 10
    assert extract_support([0.0, -2.0, 1.0], K=1) == (1,)
    # the physical conversions still map arrays element-wise
    p, q = np.array([0.5, 1.0]), np.array([-0.25, 2.0])
    rng_m, vel, intensity = to_physical(p, q, np.array([3 - 4j, 1.0]), _PHYSICAL)
    assert np.allclose(from_physical(rng_m, vel, _PHYSICAL), (p, q), rtol=1e-12, atol=0)
    assert intensity.tolist() == [5.0, 1.0]
    assert math.isnan(to_physical(0.0, 0.0, math.nan, _PHYSICAL)[2])
