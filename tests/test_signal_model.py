import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from farcs import signal_model
from farcs.errors import ConfigurationError, DomainError, ShapeError
from farcs.signal_model import (
    BandwidthMode,
    FrequencyCodes,
    RadarParams,
    Scatterer,
    Scene,
    _draw_codes,
    add_noise,
    flat_grid_index,
    from_physical,
    sample_codes,
    scene_to_vector,
    synthesize_echoes,
    to_physical,
    zeta,
)

C_LIGHT = 299792458.0


# --- RadarParams ------------------------------------------------------------

def test_params_basic_fields():
    p = RadarParams(n_pulses=64, n_hrr_bins=8)
    assert p.n_codes == 8  # defaults to the bin count
    assert p.n_columns == 512
    assert p.mode is BandwidthMode.APPROXIMATE


@pytest.mark.parametrize("kwargs", [
    dict(n_pulses=0, n_hrr_bins=4),
    dict(n_pulses=4, n_hrr_bins=0),
    dict(n_pulses=4, n_hrr_bins=4, n_codes=3),  # hop set smaller than bin count
    dict(n_pulses=4, n_hrr_bins=4, carrier_hz=-1.0),
    dict(n_pulses=4, n_hrr_bins=4, bandwidth_hz=-5.0),
    dict(n_pulses=4, n_hrr_bins=4, mode=BandwidthMode.EXACT),  # no carrier/bandwidth
    # carrier, bandwidth and timing must be finite numbers
    dict(n_pulses=4, n_hrr_bins=4, carrier_hz=math.inf),
    dict(n_pulses=4, n_hrr_bins=4, carrier_hz="1"),
    dict(n_pulses=4, n_hrr_bins=4, carrier_hz=1.0, bandwidth_hz=math.nan),
    dict(n_pulses=4, n_hrr_bins=4, bandwidth_hz=math.inf),
    dict(n_pulses=4, n_hrr_bins=4, bandwidth_hz=True),
    dict(n_pulses=4, n_hrr_bins=2, bandwidth_hz=2.0, pulse_width_s=math.inf),
    dict(n_pulses=4, n_hrr_bins=4, pri_s=math.inf),
    dict(n_pulses=4, n_hrr_bins=4, pri_s=math.nan),
])
def test_params_rejects_bad_config(kwargs):
    with pytest.raises(ConfigurationError):
        RadarParams(**kwargs)


@pytest.mark.parametrize("args,name", [
    ((4.5, 2), "n_pulses"), ((4, 2.0), "n_hrr_bins"), ((4, 2, 3.5), "n_codes"),
    ((True, 2), "n_pulses"), (("4", 2), "n_pulses"), ((4, 2, 0), "n_codes"),
])
def test_params_counts_must_be_integers(args, name):
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
        RadarParams.abstract(*args)


def test_params_counts_accept_numpy_integers():
    params = RadarParams.abstract(np.int64(4), np.int32(2), np.int16(4))
    counts = (params.n_pulses, params.n_hrr_bins, params.n_codes)
    assert counts == (4, 2, 4) and all(type(n) is int for n in counts)


def test_params_bin_count_must_match_timing():
    # M = ceil(T_p * B): 31.25 ns * 1024 MHz = 32
    RadarParams(n_pulses=16, n_hrr_bins=32, n_codes=64,
                carrier_hz=9e9, bandwidth_hz=1024e6,
                pri_s=0.2e-3, pulse_width_s=31.25e-9)
    with pytest.raises(ConfigurationError):
        RadarParams(n_pulses=16, n_hrr_bins=31, n_codes=64,
                    carrier_hz=9e9, bandwidth_hz=1024e6,
                    pri_s=0.2e-3, pulse_width_s=31.25e-9)


@pytest.mark.parametrize("relative_bandwidth", [math.nan, math.inf, -0.1, "0.1"], ids=repr)
def test_abstract_relative_bandwidth_must_be_finite(relative_bandwidth):
    # NaN used to build an APPROXIMATE operator with a NaN bandwidth, and inf
    # an EXACT one whose Doppler factor was all NaN
    with pytest.raises(ConfigurationError, match="^relative_bandwidth must be a finite number"):
        RadarParams.abstract(4, 2, relative_bandwidth=relative_bandwidth)


def test_params_pri_must_exceed_pulse_width():
    with pytest.raises(ConfigurationError):
        RadarParams(n_pulses=4, n_hrr_bins=1, bandwidth_hz=1e6,
                    pri_s=0.5e-6, pulse_width_s=1e-6)


def test_hrr_bin_size():
    p = RadarParams(n_pulses=512, n_hrr_bins=32, n_codes=64,
                    carrier_hz=9e9, bandwidth_hz=1024e6)
    assert_allclose(p.hrr_bin_size_m, C_LIGHT / (2 * 1024e6))
    assert abs(p.hrr_bin_size_m - 0.1464) < 1e-4


def test_speed_of_light_is_exact():
    # a bandwidth of c/2 Hz gives a 1 m bin exactly, so a mistyped digit in
    # the constant fails here rather than shifting conversions by < 1e-7
    assert signal_model._SPEED_OF_LIGHT == C_LIGHT
    p = RadarParams(n_pulses=4, n_hrr_bins=2, bandwidth_hz=149_896_229.0)
    assert p.hrr_bin_size_m == 1.0


@pytest.mark.parametrize("mode", ["approximate", "exact", None, 0], ids=repr)
def test_params_mode_must_be_a_bandwidth_mode(mode):
    # "approximate" built an operator that was not row-orthogonal, and "exact"
    # skipped the check that exact mode has a carrier and a bandwidth
    with pytest.raises(ConfigurationError, match="^mode must be a BandwidthMode"):
        RadarParams(6, 3, mode=mode)
    assert RadarParams(6, 3, mode=BandwidthMode.APPROXIMATE).mode is BandwidthMode.APPROXIMATE


def test_abstract_mode_selection():
    p0 = RadarParams.abstract(16, 4)
    assert p0.mode is BandwidthMode.APPROXIMATE
    assert p0.relative_bandwidth == 0.0
    p1 = RadarParams.abstract(16, 4, relative_bandwidth=0.1)
    assert p1.mode is BandwidthMode.EXACT
    assert_allclose(p1.relative_bandwidth, 0.1)
    # exact mode with no relative bandwidth is the degenerate setup
    p2 = RadarParams(16, 4, carrier_hz=1.0, bandwidth_hz=0.0, mode=BandwidthMode.EXACT)
    assert p2.relative_bandwidth == 0.0


# --- codes -------------------------------------------------------------------

def test_sample_codes_discrete_values():
    codes = sample_codes(0, 100, 8)
    assert codes.is_discrete
    assert codes.n_pulses == 100
    scaled = codes.codes * 8
    assert_allclose(scaled, np.round(scaled), atol=1e-12)
    assert codes.codes.min() >= 0.0 and codes.codes.max() < 1.0


def test_sample_codes_continuous_range():
    codes = sample_codes(1, 1000)
    assert not codes.is_discrete
    assert codes.codes.min() >= 0.0 and codes.codes.max() < 1.0


def test_sample_codes_single_letter_alphabet_is_all_zeros():
    assert np.array_equal(sample_codes(3, 4, 1).codes, np.zeros(4))


def test_sample_codes_continuous_mean():
    codes = sample_codes(7, 10_000)
    assert float(codes.codes.mean()) == pytest.approx(0.5, abs=0.02)


def test_sample_codes_deterministic():
    a = sample_codes(42, 32, 4)
    b = sample_codes(42, 32, 4)
    assert np.array_equal(a.codes, b.codes)


def test_sample_codes_accepts_generator():
    rng = np.random.default_rng(7)
    a = sample_codes(rng, 16, 4)
    b = sample_codes(np.random.default_rng(7), 16, 4)
    assert np.array_equal(a.codes, b.codes)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
       m_star=st.one_of(st.none(), st.integers(1, 32)))
@settings(max_examples=50, deadline=None)
def test_sample_codes_always_in_unit_interval(seed, n, m_star):
    codes = sample_codes(seed, n, m_star)
    assert codes.codes.shape == (n,)
    assert np.all(codes.codes >= 0.0) and np.all(codes.codes < 1.0)


def test_sample_codes_from_hops_match_the_checked_constructor():
    # sample_codes builds discrete codes from its hop draws without re-deriving
    # them; the result is what the public constructor makes of the same codes
    for n_codes in (3, 8, 16, 32):
        for seed in range(2000):
            codes = sample_codes(seed, 64, n_codes)
            checked = FrequencyCodes(codes.codes.copy(), n_codes)
            assert codes.codes.tobytes() == checked.codes.tobytes()
            assert codes.hops.tobytes() == checked.hops.tobytes()
            assert codes.hops.dtype == checked.hops.dtype
    assert not codes.codes.flags.writeable and not codes.hops.flags.writeable
    assert codes.n_codes == 32 and codes.is_discrete


@pytest.mark.parametrize("n_codes", [None, 1, 16, 40])
def test_draw_codes_is_the_draw_of_sample_codes(n_codes):
    for seed in (0, 5, 2**40, np.random.default_rng(3)):
        twin = copy.deepcopy(seed)  # a Generator in the same state
        draw = _draw_codes(seed, 64, n_codes)
        codes = sample_codes(twin, 64, n_codes)
        if n_codes is None:
            assert draw.tobytes() == codes.codes.tobytes()
        else:
            assert draw.tobytes() == codes.hops.tobytes()


def test_sample_codes_from_hops_survive_pickling():
    codes = sample_codes(17, 64, 16)
    copy = pickle.loads(pickle.dumps(codes))
    assert copy.codes.tobytes() == codes.codes.tobytes()
    assert copy.hops.tobytes() == codes.hops.tobytes() and copy.n_codes == 16
    assert not copy.codes.flags.writeable and not copy.hops.flags.writeable


@pytest.mark.parametrize("args", [(0, 4.5), (0, 0), (0, 8, 2.5), (0, 8, 0), (0, 8, True)])
def test_sample_codes_rejects_bad_counts(args):
    with pytest.raises(ConfigurationError):
        sample_codes(*args)


def test_codes_validation():
    with pytest.raises(DomainError):
        FrequencyCodes(np.array([0.0, 1.0]))  # 1.0 excluded
    with pytest.raises(DomainError):
        FrequencyCodes(np.array([0.1, 0.2]), n_codes=4)  # not multiples of 1/4
    with pytest.raises(ShapeError):
        FrequencyCodes(np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        sample_codes(0, 0)


@pytest.mark.parametrize("codes", [FrequencyCodes(np.array([0.25, 0.5]), 4),
                                   sample_codes(5, 6)], ids=["discrete", "continuous"])
def test_codes_stay_read_only_across_pickling(codes):
    # a process pool sends codes to its workers this way
    copy = pickle.loads(pickle.dumps(codes))
    assert copy.n_codes == codes.n_codes
    assert np.array_equal(copy.codes, codes.codes)
    assert not copy.codes.flags.writeable
    if codes.is_discrete:
        assert np.array_equal(copy.hops, codes.hops) and not copy.hops.flags.writeable
    else:
        assert copy.hops is None


# --- zeta ---------------------------------------------------------------------

def test_zeta_exact_value():
    assert_allclose(zeta(0.5, 0.1, 1.0), 1.05)
    assert zeta(0.0, 123.0, 456.0) == 1.0


def test_zeta_exact_zero_ratio_matches_approximate():
    d = np.linspace(0, 0.99, 7)
    assert np.array_equal(zeta(d, 0.0, 1.0), np.ones(7))


def test_zeta_rejects_bad_inputs():
    for code in (1.0, math.nan, np.array([0.2, math.nan, 0.5])):
        with pytest.raises(DomainError):
            zeta(code, 0.1, 1.0)
    with pytest.raises(ConfigurationError):
        zeta(0.5, 0.1, 0.0)
    for bandwidth, carrier in ((math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan),
                               (0.1, math.inf), (-0.1, 1.0), (0.1, None)):
        with pytest.raises(ConfigurationError, match="must be a finite number"):
            zeta(0.5, bandwidth, carrier)


# --- scene --------------------------------------------------------------------

def test_scatterer_phase_range():
    with pytest.raises(DomainError):
        Scatterer(1.0, -0.1, 0.0)
    with pytest.raises(DomainError):
        Scatterer(1.0, 0.0, 2 * math.pi)


def test_scatterer_on_grid():
    params = RadarParams.abstract(8, 4)
    s = Scatterer.on_grid(3, 5, params, amplitude=2j)
    assert_allclose(s.p, 2 * math.pi * 3 / 4)
    assert_allclose(s.q, 2 * math.pi * 5 / 8)
    assert s.grid == (3, 5)
    with pytest.raises(DomainError):
        Scatterer.on_grid(4, 0, params)


def test_grid_indices_must_be_integers():
    params = RadarParams.abstract(8, 4)
    for bad in (0.5, 1.0, True, np.bool_(True), "1"):
        with pytest.raises(DomainError, match="must be an integer >= 0"):
            Scatterer.on_grid(bad, 1, params)
        with pytest.raises(DomainError, match="must be an integer >= 0"):
            Scatterer.on_grid(1, bad, params)
        with pytest.raises(DomainError, match="must be an integer >= 0"):
            flat_grid_index(bad, 2, 8)
        with pytest.raises(DomainError, match="must be an integer >= 0"):
            flat_grid_index(2, bad, 8)
        with pytest.raises(DomainError, match="must be an integer >= 0"):
            Scatterer(1.0, 0.0, 0.0, grid=(bad, 1))
        with pytest.raises(DomainError, match="must be an integer >= 0"):
            Scatterer(1.0, 0.0, 0.0, grid=(0, bad))
    # numpy integers are integers
    s = Scatterer.on_grid(np.int64(3), np.uint8(5), params)
    assert s.grid == (3, 5) and all(type(i) is int for i in s.grid)
    assert flat_grid_index(np.int32(2), np.int64(3), 8) == 3 + 2 * 8
    assert Scatterer(1.0, 0.0, 0.0, grid=(np.int64(0), np.int64(0))).grid == (0, 0)


@pytest.mark.parametrize("grid", [(1,), (1, 2, 3), 5, (), "1"])
def test_scatterer_grid_must_be_a_pair(grid):
    with pytest.raises(DomainError, match=r"grid must be an \(m, n\) pair"):
        Scatterer(1.0, 0.0, 0.0, grid=grid)


@pytest.mark.parametrize("amplitude", [complex(math.nan), math.nan, complex(0.0, math.inf),
                                       -math.inf, np.complex128(complex(1.0, math.nan)),
                                       "x", "1", None, True, [1.0]])
def test_scatterer_amplitude_must_be_a_finite_number(amplitude):
    params = RadarParams.abstract(8, 4)
    with pytest.raises(DomainError, match="amplitude must be"):
        Scatterer(amplitude, 0.0, 0.0)
    with pytest.raises(DomainError, match="amplitude must be"):
        Scatterer.on_grid(1, 2, params, amplitude=amplitude)


def test_scene_to_vector_sees_only_finite_amplitudes():
    # a NaN cannot reach a scene: every amplitude is checked when its scatterer is built
    params = RadarParams.abstract(8, 4)
    scene = Scene((Scatterer(np.float32(1.5), 0.0, 0.0),
                   Scatterer.on_grid(1, 2, params, amplitude=np.complex64(2 - 1j)),
                   Scatterer.on_grid(3, 7, params, amplitude=-1e300)))
    x = scene_to_vector(scene, params)
    assert np.all(np.isfinite(x))
    assert x[flat_grid_index(1, 2, 8)] == 2 - 1j and x[0] == 1.5
    assert type(Scatterer.on_grid(0, 0, params, amplitude=3).amplitude) is complex


def test_scene_rejects_duplicates():
    s = Scatterer(1.0, 0.5, 0.5)
    with pytest.raises(ConfigurationError):
        Scene((s, Scatterer(2.0, 0.5, 0.5)))
    assert Scene((s,)).sparsity == 1


def test_flat_grid_index():
    assert flat_grid_index(0, 0, 8) == 0
    assert flat_grid_index(2, 3, 8) == 3 + 2 * 8
    with pytest.raises(DomainError):
        flat_grid_index(0, 8, 8)


def test_scene_to_vector_round_trip():
    params = RadarParams.abstract(8, 4)
    scene = Scene((Scatterer.on_grid(1, 2, params, amplitude=1 - 1j),
                   Scatterer.on_grid(3, 7, params, amplitude=0.5)))
    x = scene_to_vector(scene, params)
    assert x.shape == (32,)
    assert x[flat_grid_index(1, 2, 8)] == 1 - 1j
    assert x[flat_grid_index(3, 7, 8)] == 0.5
    assert np.count_nonzero(x) == 2


def test_scene_to_vector_recovers_untagged_indices():
    params = RadarParams.abstract(8, 4)
    untagged = Scatterer(2.0, 2 * math.pi * 3 / 4, 2 * math.pi * 5 / 8)  # cell (3, 5)
    x = scene_to_vector(Scene((untagged,)), params)
    assert x[flat_grid_index(3, 5, 8)] == 2.0 and np.count_nonzero(x) == 1


def test_scene_to_vector_wraps_phases_just_below_two_pi():
    # within the 1e-9 grid tolerance of cell 0, so it is cell 0, not M or N
    params = RadarParams.abstract(8, 4)
    x = scene_to_vector(Scene((Scatterer(1.0, 2 * math.pi - 1e-12, 0.0),
                               Scatterer(3.0, 0.0, 2 * math.pi - 1e-12))), params)
    assert x[flat_grid_index(0, 0, 8)] == 4.0 and np.count_nonzero(x) == 1


def test_scene_to_vector_rejects_off_grid():
    params = RadarParams.abstract(8, 4)
    with pytest.raises(DomainError):
        scene_to_vector(Scene((Scatterer(1.0, 0.1234, 0.0),)), params)


def test_scene_to_vector_rejects_inconsistent_grid_tag():
    params = RadarParams.abstract(8, 4)
    bad = Scatterer(1.0, 2 * math.pi * 1 / 4, 0.0, grid=(2, 0))
    with pytest.raises(DomainError):
        scene_to_vector(Scene((bad,)), params)


# --- echo synthesis --------------------------------------------------------------

def test_synthesize_empty_scene_is_silent():
    params = RadarParams.abstract(8, 2)
    y = synthesize_echoes(params, sample_codes(0, 8, 2), Scene(()))
    assert y.shape == (8,)
    assert not np.any(y)


def test_synthesize_static_scatterer_at_origin():
    # p = q = 0 contributes a constant amplitude to every pulse
    params = RadarParams.abstract(16, 4)
    codes = sample_codes(3, 16, 4)
    scene = Scene((Scatterer(2.0 + 1.0j, 0.0, 0.0),))
    y = synthesize_echoes(params, codes, scene)
    assert_allclose(y, np.full(16, 2.0 + 1.0j))


def test_synthesize_hand_computed():
    # N=2, M=2, codes (0, 1/2), scatterer p=pi (bin 1), q=0:
    # y[n] = exp(1j * pi * 2 * d_n) -> (1, -1)
    params = RadarParams.abstract(2, 2)
    codes = FrequencyCodes(np.array([0.0, 0.5]), 2)
    scene = Scene((Scatterer(1.0, math.pi, 0.0),))
    y = synthesize_echoes(params, codes, scene)
    assert_allclose(y, np.array([1.0, -1.0]), atol=1e-15)


def test_synthesize_superposition():
    params = RadarParams.abstract(8, 4)
    codes = sample_codes(5, 8, 4)
    s1 = Scatterer.on_grid(1, 3, params, amplitude=1.5)
    s2 = Scatterer.on_grid(2, 6, params, amplitude=-0.5j)
    y12 = synthesize_echoes(params, codes, Scene((s1, s2)))
    y1 = synthesize_echoes(params, codes, Scene((s1,)))
    y2 = synthesize_echoes(params, codes, Scene((s2,)))
    assert_allclose(y12, y1 + y2, atol=1e-14)


def test_synthesize_checks_code_length():
    params = RadarParams.abstract(8, 4)
    codes = sample_codes(0, 4, 4)
    with pytest.raises(ShapeError):
        synthesize_echoes(params, codes, Scene(()))


def test_exact_mode_scales_doppler_phase():
    params = RadarParams.abstract(4, 2, relative_bandwidth=0.5)
    codes = FrequencyCodes(np.array([0.5, 0.0, 0.5, 0.0]), 2)
    q = 2 * math.pi * 1 / 4
    scene = Scene((Scatterer(1.0, 0.0, q),))
    y = synthesize_echoes(params, codes, scene)
    zetas = 1.0 + codes.codes * 0.5
    expected = np.exp(1j * q * np.arange(4) * zetas)
    assert_allclose(y, expected, atol=1e-15)


# --- noise ------------------------------------------------------------------------

def test_add_noise_zero_variance_copies():
    y = np.array([1 + 1j, 2.0])
    out = add_noise(y, 0.0, 0)
    assert np.array_equal(out, y)
    assert out is not y


def test_add_noise_variance_split():
    y = np.zeros(200_000, dtype=complex)
    noised = add_noise(y, 4.0, 99)
    assert abs(np.var(noised.real) - 2.0) < 0.05
    assert abs(np.var(noised.imag) - 2.0) < 0.05
    assert abs(np.mean(np.abs(noised) ** 2) - 4.0) < 0.05


def test_add_noise_deterministic_and_validated():
    y = np.ones(8, dtype=complex)
    assert np.array_equal(add_noise(y, 0.5, 11), add_noise(y, 0.5, 11))
    # NaN and inf used to come back as NaN or infinite samples, and a string
    # as a bare TypeError
    for sigma2 in (-1e-3, math.nan, math.inf, -math.inf, "1", None, True):
        with pytest.raises(ConfigurationError, match="^sigma2 must be a finite number >= 0"):
            add_noise(y, sigma2, 0)


# --- physical mapping ----------------------------------------------------------------

def _field_params():
    return RadarParams(n_pulses=512, n_hrr_bins=32, n_codes=64,
                       carrier_hz=9e9, bandwidth_hz=1024e6, pri_s=0.2e-3)


def test_from_physical_formulas():
    params = _field_params()
    p, q = from_physical(10.0, 5.0, params)
    assert_allclose(p, -4 * math.pi * 1024e6 * 10.0 / (32 * C_LIGHT))
    assert_allclose(q, -4 * math.pi * 9e9 * 5.0 * 0.2e-3 / C_LIGHT)


def test_physical_round_trip():
    params = _field_params()
    p, q = from_physical(25.0, -3.0, params)
    r, v, intensity = to_physical(p, q, 0.7j, params)
    assert_allclose(r, 25.0)
    assert_allclose(v, -3.0)
    assert_allclose(intensity, 0.7)


def test_physical_zero_phase_is_stationary_origin():
    r, v, intensity = to_physical(0.0, 0.0, 1.0 + 0j, _field_params())
    assert r == 0.0 and v == 0.0 and intensity == 1.0


@given(r=st.floats(-100, 100), v=st.floats(-50, 50))
@settings(max_examples=50, deadline=None)
def test_physical_round_trip_property(r, v):
    params = _field_params()
    p, q = from_physical(r, v, params)
    r2, v2, _ = to_physical(p, q, 1.0, params)
    assert_allclose(r2, r, atol=1e-9)
    assert_allclose(v2, v, atol=1e-9)


def test_one_bin_range_is_one_grid_step():
    params = _field_params()
    p, _ = from_physical(-params.hrr_bin_size_m, 0.0, params)
    assert_allclose(p, 2 * math.pi / params.n_hrr_bins)


def test_physical_mapping_needs_fields():
    bare = RadarParams.abstract(8, 4)
    with pytest.raises(ConfigurationError):
        to_physical(0.1, 0.1, 1.0, bare)
    with pytest.raises(ConfigurationError):
        from_physical(1.0, 1.0, bare)
