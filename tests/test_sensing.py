import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from farcs import sensing
from farcs.errors import (
    ConfigurationError,
    DomainError,
    ResourceError,
    ShapeError,
    UnsupportedModeError,
)
from farcs.sensing import (
    SensingMatrix,
    _exact_doppler_table,
    _hop_responses,
    _hop_table,
    build_D,
    build_R,
    build_iwr_psi,
    build_phi,
    phi_row_sampling_check,
)
from farcs.signal_model import (
    BandwidthMode,
    FrequencyCodes,
    RadarParams,
    Scatterer,
    Scene,
    flat_grid_index,
    sample_codes,
    scene_to_vector,
    synthesize_echoes,
    zeta,
)


def _phi(n_pulses=16, n_hrr_bins=4, seed=0, n_codes=4, relative_bandwidth=0.0):
    params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes,
                                  relative_bandwidth=relative_bandwidth)
    codes = sample_codes(seed, n_pulses, n_codes)
    return build_phi(params, codes)


# --- factors ------------------------------------------------------------------

def test_build_R_entries():
    codes = FrequencyCodes(np.array([0.0, 0.25, 0.5]), 4)
    R = build_R(codes, 3)
    expected = np.exp(1j * 2 * math.pi * np.outer(codes.codes, np.arange(3)))
    assert_allclose(R, expected, atol=1e-15)
    assert_allclose(R[:, 0], np.ones(3))


@pytest.mark.parametrize("n_hrr_bins", [3.0, 0, True, "3"], ids=repr)
def test_build_R_takes_an_integer_bin_count(n_hrr_bins):
    # 3.0 was taken as a count; "3" raised a bare TypeError
    codes = FrequencyCodes(np.array([0.0, 0.25, 0.5]), 4)
    with pytest.raises(ConfigurationError, match="^n_hrr_bins must be an integer >= 1"):
        build_R(codes, n_hrr_bins)
    assert np.array_equal(build_R(codes, np.int64(3)), build_R(codes, 3))


def test_build_R_rows_sample_the_hop_dft():
    # with M_star = M each row of R is row M*d_n of the M-point DFT matrix
    codes = sample_codes(9, 6, 4)
    R = build_R(codes, 4)
    F = np.exp(1j * 2 * math.pi * np.outer(np.arange(4), np.arange(4)) / 4)
    rows = np.rint(codes.codes * 4).astype(int)
    assert_allclose(R, F[rows], atol=1e-12)


def test_build_D_approximate_is_inverse_dft():
    params = RadarParams.abstract(8, 2)
    codes = sample_codes(1, 8, 2)
    D = build_D(params, codes)
    n, l = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    assert_allclose(D, np.exp(1j * 2 * math.pi * n * l / 8), atol=1e-15)
    assert_allclose(D @ D.conj().T, 8 * np.eye(8), atol=1e-12)


def test_build_D_exact_zero_ratio_is_bit_identical():
    # Exact mode with B/f_c = 0 must match the approximate-mode matrix exactly
    codes = sample_codes(2, 8, 2)
    exact = RadarParams(8, 2, carrier_hz=1.0, bandwidth_hz=0.0, mode=BandwidthMode.EXACT)
    approx = RadarParams.abstract(8, 2)
    assert np.array_equal(build_D(exact, codes), build_D(approx, codes))


def test_build_D_exact_mode_stretches_rows():
    params = RadarParams.abstract(4, 2, relative_bandwidth=0.5)
    codes = FrequencyCodes(np.array([0.0, 0.5, 0.0, 0.5]), 2)
    D = build_D(params, codes)
    zetas = 1.0 + 0.5 * codes.codes
    for n in range(4):
        assert_allclose(D[n], np.exp(1j * 2 * math.pi * np.arange(4) * n * zetas[n] / 4),
                        atol=1e-15)


def _direct_R(codes, n_hrr_bins):
    return np.exp(1j * 2.0 * np.pi * np.outer(codes.codes, np.arange(n_hrr_bins)))


def _direct_D(params, codes):
    N = params.n_pulses
    n_scaled = np.arange(N) * zeta(codes.codes, params.bandwidth_hz, params.carrier_hz)
    return np.exp(1j * 2.0 * np.pi * np.outer(n_scaled, np.arange(N)) / N)


@pytest.mark.parametrize("relative_bandwidth", [0.1, 0.5])
@pytest.mark.parametrize("n_pulses, n_hrr_bins, n_codes",
                         [(8, 2, 2), (16, 4, 7), (64, 16, 16), (12, 3, 20)])
def test_grid_code_factors_equal_direct_formula(n_pulses, n_hrr_bins, n_codes,
                                                relative_bandwidth):
    # grid codes gather R and EXACT-mode D rows from the cached phase tables
    params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes,
                                  relative_bandwidth=relative_bandwidth)
    for seed in range(5):
        codes = sample_codes(seed, n_pulses, n_codes)
        assert codes.hops is not None
        assert np.array_equal(build_R(codes, n_hrr_bins), _direct_R(codes, n_hrr_bins))
        assert np.array_equal(build_D(params, codes), _direct_D(params, codes))


@pytest.mark.parametrize("n_codes", [5, 16, 20_000, None])  # 20,000 x 16 is over the budget
def test_hop_response_stack_rows_are_build_R(n_codes):
    draws = [sample_codes(seed, 24, n_codes) for seed in range(9)]
    raw = np.array([c.codes if n_codes is None else c.hops for c in draws])
    stack = _hop_responses(raw, n_codes, 16)
    assert stack.shape == (9, 24, 16)
    for codes, R in zip(draws, stack):
        assert R.tobytes() == build_R(codes, 16).tobytes()
        assert np.array_equal(R, _direct_R(codes, 16))


def test_discrete_codes_carry_their_hop_indices():
    # codes within the 1e-9 tolerance are snapped onto their hops k / M*
    codes = FrequencyCodes(np.array([0.25 + 1e-12, 0.5, 0.0, 0.75 - 1e-10]), 4)
    assert np.array_equal(codes.hops, [1, 2, 0, 3])
    assert np.array_equal(codes.codes, codes.hops / 4)
    with pytest.raises(ValueError):
        codes.hops[0] = 0
    params = RadarParams.abstract(4, 4, relative_bandwidth=0.5)
    assert np.array_equal(build_R(codes, 4), _direct_R(codes, 4))
    assert np.array_equal(build_D(params, codes), _direct_D(params, codes))
    assert sample_codes(0, 4).hops is None  # continuous codes have none


@pytest.mark.parametrize("build, error", [
    (lambda: FrequencyCodes(np.array([1.0 - 1e-10]), 1), DomainError),  # rounds to k = M*
    (lambda: FrequencyCodes(np.array([0.99999999995]), 3), DomainError),  # rounds to k = M*
    (lambda: FrequencyCodes(np.array([0.5, np.nan])), DomainError),
    (lambda: FrequencyCodes(np.array([0.0, 0.4]), 2.5), ConfigurationError),
    (lambda: FrequencyCodes(np.array([0.0, 0.0]), True), ConfigurationError),
    (lambda: build_phi(RadarParams.abstract(4, 4),  # codes from a 2-hop set
                       FrequencyCodes(np.array([0.0, 0.5, 0.0, 0.5]), 2)), ConfigurationError),
], ids=["one-hop", "three-hops", "nan", "fractional-hop-set", "bool-hop-set",
        "mismatched-hop-set"])
def test_codes_outside_the_hop_set_are_rejected(build, error):
    with pytest.raises(error):
        build()


def test_phase_tables_are_cached_read_only_and_bounded():
    hop = _hop_table(7, 4)
    doppler = _exact_doppler_table(16, 7, 0.5)
    assert hop is _hop_table(7, 4) and doppler is _exact_doppler_table(16, 7, 0.5)
    assert not hop.flags.writeable and not doppler.flags.writeable
    with pytest.raises(ValueError):
        doppler[0, 0, 0] = 0.0
    assert doppler.shape == (7, 16, 16)
    # a table over the entry budget is never built: N=130, M*=16 needs 270,400
    params = RadarParams.abstract(130, 2, n_codes=16, relative_bandwidth=0.5)
    codes = sample_codes(0, 130, 16)
    misses = _exact_doppler_table.cache_info().misses
    assert np.array_equal(build_D(params, codes), _direct_D(params, codes))
    assert _exact_doppler_table.cache_info().misses == misses


@pytest.mark.parametrize("n_pulses, n_hrr_bins, n_codes, relative_bandwidth",
                         [(64, 16, 16, 0.5), (64, 8, 12, 0.1), (16, 4, 4, 0.0), (64, 16, 16, 0.0)])
def test_phase_table_fallbacks_equal_the_tables(monkeypatch, n_pulses, n_hrr_bins, n_codes,
                                                relative_bandwidth):
    # over the entry budget R, D and a hop-response stack take the direct
    # formulas, bit for bit the rows the cached tables hold
    params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes,
                                  relative_bandwidth=relative_bandwidth)
    draws = [sample_codes(seed, n_pulses, n_codes) for seed in range(5)]
    hops = np.array([codes.hops for codes in draws])
    tabled = [(build_R(codes, n_hrr_bins), build_D(params, codes)) for codes in draws]
    stack = _hop_responses(hops, n_codes, n_hrr_bins)

    def no_table(*args):
        raise AssertionError("a phase table was read over the budget")

    monkeypatch.setattr(sensing, "_PHASE_TABLE_BUDGET", 0)
    monkeypatch.setattr(sensing, "_hop_table", no_table)
    monkeypatch.setattr(sensing, "_exact_doppler_table", no_table)
    for codes, (R, D) in zip(draws, tabled):
        assert build_R(codes, n_hrr_bins).tobytes() == R.tobytes()
        assert build_D(params, codes).tobytes() == D.tobytes()
    assert _hop_responses(hops, n_codes, n_hrr_bins).tobytes() == stack.tobytes()


# --- sensing matrix ---------------------------------------------------------------

def test_phi_shape_and_column_norms():
    phi = _phi()
    assert phi.shape == (16, 64)
    dense = phi.to_dense()
    assert_allclose(np.linalg.norm(dense, axis=0), math.sqrt(16) * np.ones(64),
                    rtol=0, atol=1e-12)


def test_phi_entries_match_factors():
    phi = _phi(n_pulses=6, n_hrr_bins=3, seed=4, n_codes=3)
    dense = phi.to_dense()
    R, D = phi.hop_response, phi.doppler_response
    for m in range(3):
        for l in range(6):
            assert_allclose(dense[:, l + m * 6], R[:, m] * D[:, l], atol=1e-15)


def test_phi_single_bin_is_the_doppler_block():
    params = RadarParams.abstract(2, 1)
    codes = sample_codes(1, 2, None)
    assert_allclose(build_phi(params, codes).to_dense(),
                    build_D(params, codes), atol=1e-15)


def test_column_access_matches_dense():
    phi = _phi(seed=9)
    dense = phi.to_dense()
    assert_allclose(phi.column(37), dense[:, 37], atol=0)
    idx = [0, 5, 37, 63]
    assert_allclose(phi.columns(idx), dense[:, idx], atol=0)
    with pytest.raises(DomainError):
        phi.column(64)
    with pytest.raises(DomainError):
        phi.columns([-1])


def test_column_indices_must_be_integers():
    phi = _phi(seed=9)
    dense = phi.to_dense()
    for bad in ([1.5], [1.0], np.array([0.5, 2.0]), [True], ["1"]):
        with pytest.raises(DomainError, match="column indices must be integers"):
            phi.columns(bad)
    for bad in (1.5, 37.0):
        with pytest.raises(DomainError, match="column indices must be integers"):
            phi.column(bad)
    # an empty selection of any kind is an empty submatrix
    for empty in ([], (), np.array([], dtype=np.intp)):
        assert phi.columns(empty).shape == (16, 0)
    # numpy integers of any width select like Python ints
    assert np.array_equal(phi.column(np.int16(37)), dense[:, 37])
    assert np.array_equal(phi.columns(np.array([5, 37], dtype=np.uint8)), dense[:, [5, 37]])


def test_to_dense_returns_a_new_array_per_call():
    phi = _phi(seed=9)
    first = phi.to_dense()
    expected = first.copy()
    first[:] = 0.0
    second = phi.to_dense()
    assert second is not first and np.array_equal(second, expected)
    assert phi.column(37).tobytes() == expected[:, 37].tobytes()


def test_matvec_rmatvec_match_dense():
    phi = _phi(seed=11)
    dense = phi.to_dense()
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert_allclose(phi.matvec(x), dense @ x, atol=1e-12)
        assert_allclose(phi.rmatvec(v), dense.conj().T @ v, atol=1e-12)
        # adjoint identity <Phi x, v> == <x, Phi^H v>
        assert_allclose(np.vdot(v, phi.matvec(x)), np.vdot(phi.rmatvec(v), x),
                        atol=1e-10)


# a single range bin, and two pulses with many range bins; APPROXIMATE mode
# only, since EXACT-mode products raise (test_exact_mode_products_raise)
@pytest.mark.parametrize("n_pulses,n_hrr_bins", [(16, 4), (16, 1), (2, 32)])
@pytest.mark.parametrize("relative_bandwidth", [0.0])
def test_matvec_rmatvec_match_dense_edge_shapes(n_pulses, n_hrr_bins, relative_bandwidth):
    params = RadarParams.abstract(n_pulses, n_hrr_bins,
                                  relative_bandwidth=relative_bandwidth)
    phi = build_phi(params, sample_codes(31, n_pulses))
    dense = phi.to_dense()
    rng = np.random.default_rng(7)
    x = rng.standard_normal(phi.n_columns) + 1j * rng.standard_normal(phi.n_columns)
    v = rng.standard_normal(n_pulses) + 1j * rng.standard_normal(n_pulses)
    assert_allclose(phi.matvec(x), dense @ x, rtol=0, atol=1e-12)
    assert_allclose(phi.matvec(x.real), dense @ x.real, rtol=0, atol=1e-12)
    assert_allclose(phi.rmatvec(v), dense.conj().T @ v, rtol=0, atol=1e-12)
    assert phi.matvec(x).shape == (n_pulses,)
    assert phi.rmatvec(v).shape == (phi.n_columns,)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_product_factors_are_built_on_first_product():
    # contiguous R^T and R^H, on first use; D is applied through the FFT
    factors = ("_hop_t", "_hop_h")
    phi = _phi(seed=12)
    assert not set(factors) & set(vars(phi))
    phi.matvec(np.ones(phi.n_columns))
    phi.rmatvec(np.ones(phi.n_pulses))
    assert all(vars(phi)[name].flags.c_contiguous for name in factors)
    assert np.array_equal(vars(phi)["_hop_t"], phi.hop_response.T)
    assert np.array_equal(vars(phi)["_hop_h"], phi.hop_response.conj().T)


def test_approximate_mode_products_are_row_ffts():
    # X D^T is the unnormalized inverse FFT of each row of X and
    # (R^H * v) conj(D) the forward FFT of each row, bit for bit
    params = RadarParams.abstract(64, 8)
    rng = np.random.default_rng(9)
    x, v = _random_complex(rng, 512), _random_complex(rng, 64)
    for seed, n_codes in ((13, 8), (14, None)):
        phi = build_phi(params, sample_codes(seed, 64, n_codes))
        R = phi.hop_response
        R_t, R_h = np.ascontiguousarray(R.T), np.ascontiguousarray(R.conj().T)
        assert np.array_equal(
            phi.matvec(x), np.sum(R_t * np.fft.ifft(x.reshape(8, 64), norm="forward"), axis=0))
        assert np.array_equal(phi.rmatvec(v), np.fft.fft(R_h * v).ravel())


def test_exact_mode_products_raise():
    # EXACT mode serves columns and the dense matrix, but no products; no
    # product factor is built on the way to the error
    for n_codes in (8, None):
        phi = _phi(n_pulses=64, n_hrr_bins=8, seed=13, n_codes=n_codes, relative_bandwidth=0.4)
        for product, operand in ((phi.matvec, np.ones(512)), (phi.rmatvec, np.ones(64))):
            with pytest.raises(UnsupportedModeError, match="to_dense"):
                product(operand)
        assert not {"_hop_t", "_hop_h"} & set(vars(phi))
        assert phi.to_dense().shape == (64, 512)


# N = 6, 63 and 100 take other FFT factorizations than the power of two 64
@pytest.mark.parametrize("n_pulses", [6, 63, 64, 100])
@pytest.mark.parametrize("n_hrr_bins", [1, 3, 8])
@pytest.mark.parametrize("discrete", [True, False])
def test_fft_products_match_dense(n_pulses, n_hrr_bins, discrete):
    params = RadarParams.abstract(n_pulses, n_hrr_bins)
    phi = build_phi(params, sample_codes(n_pulses + n_hrr_bins, n_pulses,
                                         n_hrr_bins if discrete else None))
    # to_dense() takes exp of phases up to 2 pi (N - 1)^2 / N and is itself
    # off by up to 2e-12 at N = 100; with the phases reduced mod N first, D
    # is exact to rounding
    n = np.arange(n_pulses)
    D = np.exp(2j * np.pi * (np.outer(n, n) % n_pulses) / n_pulses)
    accurate = (phi.hop_response[:, :, None] * D[:, None, :]).reshape(phi.shape)
    rng = np.random.default_rng(n_pulses)
    x, v = _random_complex(rng, phi.n_columns), _random_complex(rng, n_pulses)
    for dense, atol in ((accurate, 1e-12), (phi.to_dense(), 1e-11)):
        assert_allclose(phi.matvec(x), dense @ x, rtol=0, atol=atol)
        assert_allclose(phi.rmatvec(v), dense.conj().T @ v, rtol=0, atol=atol)


def _stacked_hops(phis):
    """R^T and R^H of each matrix, stacked (rows, M, N) as ``lasso_block`` stacks them."""
    hop_t = np.array([phi.hop_response.T for phi in phis])
    return hop_t, np.conj(hop_t)


@pytest.mark.parametrize("n_hrr_bins", [1, 3, 5, 8])
@pytest.mark.parametrize("n_pulses", [63, 64])
def test_stack_rows_are_each_matrix_own_products(n_pulses, n_hrr_bins):
    # the lasso block's rows are its lone solves only if a batched FFT row
    # does not depend on the rows batched with it
    params = RadarParams.abstract(n_pulses, n_hrr_bins)
    rng = np.random.default_rng(n_hrr_bins)
    phis = [build_phi(params, sample_codes(rng, n_pulses, n_hrr_bins if i % 2 else None))
            for i in range(17)]
    X = _random_complex(rng, 17, n_pulses * n_hrr_bins)
    V = _random_complex(rng, 17, n_pulses)
    for rows in (1, 2, 7, 16, 17):
        hop_t, hop_h = _stacked_hops(phis[:rows])
        # the stacks hold the very factors of each matrix's own products
        assert hop_t.tobytes() == np.stack([phi._hop_t for phi in phis[:rows]]).tobytes()
        assert hop_h.tobytes() == np.stack([phi._hop_h for phi in phis[:rows]]).tobytes()
        backwards = np.arange(rows)[::-1]
        for (t, h), order in (((hop_t, hop_h), range(rows)),
                              ((hop_t[backwards], hop_h[backwards]), range(rows)[::-1])):
            products = sensing._fft_matvec(t, X[:rows].reshape(t.shape))
            adjoints = sensing._fft_rmatvec(h, V[:rows, None, :]).reshape(rows, -1)
            for row, i in enumerate(order):
                assert products[row].tobytes() == phis[i].matvec(X[row]).tobytes()
                assert adjoints[row].tobytes() == phis[i].rmatvec(V[row]).tobytes()


@pytest.mark.parametrize("n_pulses, n_hrr_bins", [(64, 8), (63, 5)])
def test_stack_products_into_buffers_match_allocating_ones(n_pulses, n_hrr_bins):
    params = RadarParams.abstract(n_pulses, n_hrr_bins)
    rng = np.random.default_rng(n_pulses)
    hop_t, hop_h = _stacked_hops(
        [build_phi(params, sample_codes(rng, n_pulses, n_hrr_bins)) for _ in range(5)])
    X = _random_complex(rng, 5, n_hrr_bins, n_pulses)
    V = _random_complex(rng, 5, 1, n_pulses)
    # buffers full of garbage, which the products must overwrite
    out = _random_complex(rng, 5, n_pulses)
    work, into = (_random_complex(rng, 5, n_hrr_bins, n_pulses) for _ in range(2))
    product = sensing._fft_matvec(hop_t, X, out=out, work=work)
    assert product is out and product.tobytes() == sensing._fft_matvec(hop_t, X).tobytes()
    adjoint = sensing._fft_rmatvec(hop_h, V, out=into)
    assert adjoint is into and adjoint.tobytes() == sensing._fft_rmatvec(hop_h, V).tobytes()


def test_matvec_shape_checks():
    phi = _phi()
    with pytest.raises(ShapeError):
        phi.matvec(np.zeros(10))
    with pytest.raises(ShapeError):
        phi.rmatvec(np.zeros(10))
    with pytest.raises(ShapeError):
        SensingMatrix(RadarParams.abstract(8, 2), sample_codes(0, 4, 2))


def test_dense_budget(monkeypatch):
    monkeypatch.setattr(sensing, "_DENSE_BUDGET", 100)
    params = RadarParams.abstract(16, 4)
    codes = sample_codes(0, 16, 4)
    phi = SensingMatrix(params, codes)
    with pytest.raises(ResourceError):
        phi.to_dense()


def test_vectorization_convention():
    # column of the flat index (m, n) must be R[:, m] * D[:, n]
    phi = _phi(n_pulses=8, n_hrr_bins=4, seed=3)
    m, n = 2, 5
    j = flat_grid_index(m, n, 8)
    assert_allclose(phi.column(j), phi.hop_response[:, m] * phi.doppler_response[:, n],
                    atol=0)


@pytest.mark.parametrize("relative_bandwidth", [0.0, 0.3])
def test_synthesis_agrees_with_matvec(relative_bandwidth):
    # on-grid scenes: the echo model and the matrix-vector route coincide
    params = RadarParams.abstract(16, 4, relative_bandwidth=relative_bandwidth)
    codes = sample_codes(21, 16, 4)
    phi = build_phi(params, codes)
    scene = Scene((Scatterer.on_grid(1, 3, params, amplitude=1.5 - 0.5j),
                   Scatterer.on_grid(3, 11, params, amplitude=2j)))
    y_model = synthesize_echoes(params, codes, scene)
    x = scene_to_vector(scene, params)
    assert_allclose(y_model, phi.to_dense() @ x, atol=1e-12)
    if phi.is_row_orthogonal():  # EXACT mode has no matvec
        assert_allclose(y_model, phi.matvec(x), atol=1e-12)


def test_row_gram_structure():
    phi = _phi(seed=13)
    dense = phi.to_dense()
    assert_allclose(phi.row_gram(), dense @ dense.conj().T, atol=1e-10)
    assert phi.is_row_orthogonal()
    assert_allclose(phi.row_gram(), 64 * np.eye(16), atol=1e-10)


def test_row_gram_exact_mode_not_orthogonal():
    phi = _phi(seed=13, relative_bandwidth=0.4)
    assert not phi.is_row_orthogonal()
    dense = phi.to_dense()
    assert_allclose(phi.row_gram(), dense @ dense.conj().T, atol=1e-10)


# --- reference dictionary -----------------------------------------------------------

def test_iwr_psi_orthogonality():
    params = RadarParams.abstract(8, 4)
    psi = build_iwr_psi(params)
    assert psi.shape == (32, 32)
    assert_allclose(psi.conj().T @ psi / 32, np.eye(32), atol=1e-12)


def test_iwr_psi_single_bin_is_the_doppler_block():
    params = RadarParams.abstract(4, 1)
    assert_allclose(build_iwr_psi(params),
                    build_D(params, sample_codes(0, 4, 1)), atol=1e-15)


def test_iwr_psi_rejects_exact_mode():
    params = RadarParams.abstract(8, 4, relative_bandwidth=0.1)
    with pytest.raises(UnsupportedModeError):
        build_iwr_psi(params)


def test_phi_rows_sample_psi():
    params = RadarParams.abstract(8, 4)
    codes = sample_codes(17, 8, 4)
    phi = build_phi(params, codes)
    psi = build_iwr_psi(params)
    assert phi_row_sampling_check(phi, psi)
    # tampering with psi must be caught
    psi_bad = psi.copy()
    psi_bad[int(codes.codes[0] * 4) * 8] *= -1.0
    assert not phi_row_sampling_check(phi, psi_bad)


def test_row_sampling_requires_integer_offsets():
    params = RadarParams.abstract(8, 4)
    psi = build_iwr_psi(params)
    continuous = sample_codes(3, 8)
    phi_c = build_phi(params, continuous)
    with pytest.raises(DomainError):
        phi_row_sampling_check(phi_c, psi)
    # hop set twice as fine as the bin count -> offsets m/2 are not integers
    params8 = RadarParams.abstract(8, 4, n_codes=8)
    halves = FrequencyCodes(np.array([0.125] * 8), 8)
    phi_h = build_phi(params8, halves)
    with pytest.raises(DomainError):
        phi_row_sampling_check(phi_h, psi)

