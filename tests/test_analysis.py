"""Tests for recovery-condition diagnostics: spark census, coherence, bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farcs import (
    BandwidthMode,
    ConfigurationError,
    DomainError,
    FrequencyCodes,
    RadarParams,
    ResourceError,
    ShapeError,
    build_D,
    build_iwr_psi,
    build_phi,
    chi,
    chi_statistics,
    coherence,
    l0_limit,
    max_recoverable_K,
    rayleigh_tail_bound,
    sample_codes,
    spark_enumeration,
    union_bound,
)
from farcs import analysis
from farcs.analysis import _dft_coherence, _orbit_table
from farcs.sensing import _hop_responses
from farcs.signal_model import _draw_codes

TWO_PI = 2.0 * np.pi


def _dft(n):
    k = np.arange(n)
    return np.exp(1j * TWO_PI * np.outer(k, k) / n)


# --- min_singular_normalized ---------------------------------------------------


def min_singular_normalized(submatrix: np.ndarray) -> float:
    """Smallest singular value of a square submatrix, divided by sqrt(N).

    The normalization makes 1 the scale of a perfectly conditioned submatrix,
    since every sensing column has norm sqrt(N).  The reference route for the
    census sigmas below.
    """
    submatrix = np.asarray(submatrix)
    if submatrix.ndim != 2 or submatrix.shape[0] != submatrix.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {submatrix.shape}")
    s = np.linalg.svd(submatrix, compute_uv=False)
    return float(s[-1]) / math.sqrt(submatrix.shape[0])


def test_min_singular_of_dft_is_one():
    # DFT columns are orthogonal with norm sqrt(N): every sigma equals sqrt(N)
    assert min_singular_normalized(_dft(6)) == pytest.approx(1.0, abs=1e-12)


def test_min_singular_of_identity():
    # unit singular values, so the sqrt(N) normalization leaves 1/sqrt(N)
    assert min_singular_normalized(np.eye(5, dtype=complex)) == pytest.approx(
        1.0 / math.sqrt(5.0), rel=1e-14)


def test_min_singular_duplicate_column_is_zero():
    a = _dft(4)
    a[:, 3] = a[:, 0]
    assert min_singular_normalized(a) < 1e-14


def test_min_singular_rejects_non_square():
    with pytest.raises(ShapeError):
        min_singular_normalized(np.ones((3, 4)))


# --- spark_enumeration ----------------------------------------------------------


def _abstract_phi(codes_tuple, n_hrr_bins, n_codes=None):
    codes = FrequencyCodes(np.array(codes_tuple), n_codes=n_codes)
    params = RadarParams.abstract(len(codes_tuple), n_hrr_bins, n_codes=n_codes)
    return build_phi(params, codes)


def test_spark_census_shape_and_order():
    phi = _abstract_phi((0, 1 / 3, 2 / 3, 0, 1 / 3, 2 / 3), 3, n_codes=3)
    report = spark_enumeration(phi)
    assert report.n_submatrices == math.comb(18, 6)
    assert report.sigma_values.shape == (18564,)
    # lexicographically first subset = columns 0..5 = the IDFT block (m = 0),
    # last subset = columns 12..17 = a row-phased IDFT block (m = 2)
    assert report.sigma_values[0] == pytest.approx(1.0, abs=1e-12)
    assert report.sigma_values[-1] == pytest.approx(1.0, abs=1e-12)
    assert report.sigma_omega == pytest.approx(report.sigma_values.min())
    assert report.n_below_eps == int(np.sum(report.sigma_values < report.eps_svd))


def test_spark_constant_codes_heavily_deficient():
    # identical codes make the m blocks scalar multiples of each other:
    # every cross-block column pair with equal l is parallel
    phi = _abstract_phi((0.0,) * 6, 3, n_codes=3)
    report = spark_enumeration(phi)
    assert not report.full_spark
    assert report.sigma_omega < 1e-15
    assert report.n_below_eps > 0


def test_spark_continuous_codes_full_rank():
    codes = sample_codes(0, 6)
    params = RadarParams.abstract(6, 3)
    report = spark_enumeration(build_phi(params, codes))
    assert report.full_spark
    assert report.sigma_omega > 1e-12


def test_spark_discrete_codes_always_have_a_deficient_subset():
    # with a 3-letter alphabet over 6 pulses some pulse pair shares a code at
    # an even or length-3 gap, which forces a singular 6-column subset
    for seed in range(4):
        codes = sample_codes(seed, 6, 3)
        params = RadarParams.abstract(6, 3, n_codes=3)
        report = spark_enumeration(build_phi(params, codes))
        assert report.sigma_omega < 1e-15


def test_spark_single_bin_has_one_submatrix():
    # M=1: the only N-column subset is the whole (stretched-row) Doppler block
    params = RadarParams.abstract(4, 1, relative_bandwidth=0.3)
    codes = sample_codes(0, 4, None)
    report = spark_enumeration(build_phi(params, codes))
    assert report.n_submatrices == 1
    expected = min_singular_normalized(build_D(params, codes))
    assert report.sigma_omega == pytest.approx(expected, rel=1e-12)


def test_spark_budget_guard():
    phi = _abstract_phi((0.0,) * 6, 3, n_codes=3)
    with pytest.raises(ResourceError):
        spark_enumeration(phi, max_submatrices=100)


def test_spark_rejects_bad_eps():
    phi = _abstract_phi((0.0,) * 6, 3, n_codes=3)
    # NaN fails every comparison, so a `<= 0` test let it through to count
    # no deficient submatrix at all
    for eps_svd in (0.0, math.nan, math.inf, True):
        with pytest.raises(DomainError):
            spark_enumeration(phi, eps_svd=eps_svd)


def _per_subset_sigmas(phi):
    # reference route: one min_singular_normalized call per column subset
    N, n_cols = phi.shape
    dense = phi.to_dense()
    return np.array([min_singular_normalized(dense[:, list(cols)])
                     for cols in itertools.combinations(range(n_cols), N)])


def test_orbit_table_invariants():
    table = _orbit_table(6, 3, True)
    assert table.reps.size == 1599
    np.testing.assert_array_equal(table.orbit_of[table.reps], np.arange(1599))
    sizes = np.bincount(table.orbit_of)
    assert sizes.sum() == math.comb(18, 6)
    # orbits of a group of order 2N = 12 have sizes dividing 12
    assert np.all(12 % sizes == 0)
    exact = _orbit_table(6, 3, False)
    np.testing.assert_array_equal(exact.reps, np.arange(math.comb(18, 6)))
    np.testing.assert_array_equal(exact.orbit_of, np.arange(math.comb(18, 6)))


def _reference_orbit_table(n_pulses, n_hrr_bins, range_wrap):
    # loop over every element of the group, naming each orbit by the smallest
    # lexicographic rank among a subset's images (the construction before
    # the table was built from generators)
    N, M = n_pulses, n_hrr_bins
    n_cols = N * M
    subsets = np.array(list(itertools.combinations(range(n_cols), N)))
    rank = {tuple(c): i for i, c in enumerate(subsets.tolist())}
    m, l = np.divmod(np.arange(n_cols), N)
    shifts = range(M) if range_wrap else (0,)
    maps = [(m + a) % M * N + (l + b) % N for a in shifts for b in range(N)]
    if range_wrap:
        maps += [(a - m) % M * N + (b - l) % N for a in shifts for b in range(N)]
    else:
        maps += [(M - 1 - m) * N + (b - l) % N for b in range(N)]
    first = np.arange(len(subsets))
    for cell_map in maps:
        images = np.sort(cell_map[subsets], axis=1)
        first = np.minimum(first, [rank[tuple(c)] for c in images.tolist()])
    reps, orbit_of = np.unique(first, return_inverse=True)
    return reps, orbit_of


@pytest.mark.parametrize("n_pulses,n_hrr_bins,range_wrap",
                         [(6, 3, False), (6, 3, True), (4, 2, True), (2, 32, False),
                          (2, 32, True)])
def test_orbit_table_matches_loop_over_group(n_pulses, n_hrr_bins, range_wrap):
    reps, orbit_of = _reference_orbit_table(n_pulses, n_hrr_bins, range_wrap)
    table = _orbit_table(n_pulses, n_hrr_bins, True, range_wrap)
    np.testing.assert_array_equal(table.reps, reps)
    np.testing.assert_array_equal(table.orbit_of, orbit_of)


def test_orbit_table_full_group_invariants():
    table = _orbit_table(6, 3, True, True)
    assert table.reps.size == 564
    np.testing.assert_array_equal(table.orbit_of[table.reps], np.arange(564))
    sizes = np.bincount(table.orbit_of)
    assert sizes.sum() == math.comb(18, 6)
    # orbits of a group of order 2MN = 36 have sizes dividing 36
    assert np.all(36 % sizes == 0)
    # the range shift does nothing without the Doppler wrap-around
    exact = _orbit_table(6, 3, False, True)
    np.testing.assert_array_equal(exact.reps, np.arange(math.comb(18, 6)))


@pytest.mark.parametrize("n_codes,mode,range_wrap", [
    (3, BandwidthMode.APPROXIMATE, True),
    (6, BandwidthMode.APPROXIMATE, False),  # M* = 6 does not divide M = 3
    (None, BandwidthMode.APPROXIMATE, False),
    (3, BandwidthMode.EXACT, False),
])
def test_spark_range_shift_only_when_hop_set_divides_bins(monkeypatch, n_codes, mode,
                                                          range_wrap):
    calls = []

    def spy(*args):
        calls.append(args)
        return _orbit_table(*args)

    monkeypatch.setattr(analysis, "_orbit_table", spy)
    params = RadarParams.abstract(6, 3, n_codes=n_codes,
                                  relative_bandwidth=0.3 if mode is BandwidthMode.EXACT else 0.0)
    spark_enumeration(build_phi(params, sample_codes(5, 6, n_codes)))
    assert calls == [(6, 3, mode is BandwidthMode.APPROXIMATE, range_wrap)]


@pytest.mark.parametrize("n_pulses,n_hrr_bins", [(6, 3), (2, 32)])
@pytest.mark.parametrize("discrete", [True, False])
def test_spark_orbit_route_matches_per_subset(n_pulses, n_hrr_bins, discrete):
    # N=2, M=32 gives NM = 64 columns: too many for a subset bit mask in an int64
    n_codes = n_hrr_bins if discrete else None
    codes = sample_codes(7, n_pulses, n_codes)
    phi = build_phi(RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes), codes)
    report = spark_enumeration(phi)
    np.testing.assert_allclose(report.sigma_values, _per_subset_sigmas(phi),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_pulses,n_hrr_bins,n_codes", [(6, 3, 6), (5, 2, 2), (4, 2, 2)])
def test_spark_orbit_route_matches_per_subset_other_hop_sets(n_pulses, n_hrr_bins, n_codes):
    # M* = 6 does not divide M = 3, so the range shift must not apply; N=5,
    # M=2 takes the range shift without the determinant gap (L = 10)
    codes = sample_codes(7, n_pulses, n_codes)
    phi = build_phi(RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes), codes)
    report = spark_enumeration(phi)
    np.testing.assert_allclose(report.sigma_values, _per_subset_sigmas(phi),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("hops,n_hrr_bins,n_codes", [
    ((2, 1, 0, 2, 1, 2), 3, 3), ((0, 5, 1, 3, 3, 0), 3, 6), ((0, 1, 3, 1), 2, 4),
])
def test_spark_determinant_gap_route(hops, n_hrr_bins, n_codes):
    # lcm(M*, N) in {3, 6, 4}: every minor is an Eisenstein or Gaussian integer
    phi = _abstract_phi(tuple(h / n_codes for h in hops), n_hrr_bins, n_codes=n_codes)
    report = spark_enumeration(phi)
    assert report.route == "determinant_gap"
    expected = _per_subset_sigmas(phi)
    np.testing.assert_allclose(report.sigma_values, expected, rtol=0.0, atol=1e-12)
    N, n_cols = phi.shape
    subsets = np.array(list(itertools.combinations(range(n_cols), N)))
    dets = np.abs(np.linalg.det(np.moveaxis(phi.to_dense()[:, subsets], 1, 0)))
    singular = dets < 0.5
    assert singular.any() and not singular.all()
    assert np.all(report.sigma_values[singular] == 0.0)
    assert np.all(report.sigma_values[~singular] > 1e-6)
    assert report.n_below_eps == np.count_nonzero(singular)
    # margins come from the orbit representatives, so they lie inside the
    # per-subset extremes, far from the threshold 1/2 on either side
    assert 0.0 <= report.det_singular_max <= dets[singular].max() < 1e-12
    assert 1.0 - 1e-9 <= dets[~singular].min() <= report.det_nonsingular_min


@pytest.mark.parametrize("n_pulses,n_hrr_bins,n_codes,relative_bandwidth", [
    (6, 3, None, 0.0),  # continuous codes
    (6, 3, 3, 0.3),  # EXACT mode
    (5, 2, 2, 0.0),  # L = lcm(2, 5) = 10: tenth roots of unity, no gap
    (6, 3, 9, 0.0),  # L = 18
])
def test_spark_determinant_gap_route_not_taken(n_pulses, n_hrr_bins, n_codes,
                                               relative_bandwidth):
    params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes,
                                  relative_bandwidth=relative_bandwidth)
    report = spark_enumeration(build_phi(params, sample_codes(2, n_pulses, n_codes)))
    assert report.route == "eps_svd"
    assert report.det_singular_max is None and report.det_nonsingular_min is None


def test_spark_exact_mode_matches_per_subset():
    params = RadarParams.abstract(5, 3, relative_bandwidth=0.3)
    phi = build_phi(params, sample_codes(3, 5, None))
    report = spark_enumeration(phi)
    expected = _per_subset_sigmas(phi)
    np.testing.assert_allclose(report.sigma_values, expected, rtol=0.0, atol=1e-12)
    # zeta_n breaks the symmetry: approximate-mode orbits would mix unequal sigmas
    reps, orbit_of = _orbit_table(5, 3, True)
    assert np.abs(expected - expected[reps][orbit_of]).max() > 1e-3


def test_spark_count_matches_determinant_count():
    # every entry is a sixth root of unity, so every 6x6 minor is an Eisenstein
    # integer: a nonsingular minor has |det| >= 1, a singular one is 0
    phi = _abstract_phi(tuple(h / 3 for h in (2, 1, 0, 2, 1, 2)), 3, n_codes=3)
    dense = phi.to_dense()
    subsets = np.array(list(itertools.combinations(range(18), 6)))
    dets = np.linalg.det(np.moveaxis(dense[:, subsets], 1, 0))
    singular = int(np.count_nonzero(np.abs(dets) < 0.5))
    assert singular == 10635
    assert spark_enumeration(phi).n_below_eps == singular


def test_spark_batching_invariant(monkeypatch):
    # the screen decides which representatives go to the SVD after every
    # batch has its Gram estimate, so batches cannot change the outcome
    for phi in (
        _abstract_phi((0, 1 / 3, 1 / 3, 2 / 3, 0, 2 / 3), 3, n_codes=3),  # determinant gap
        build_phi(RadarParams.abstract(6, 3), sample_codes(11, 6)),  # continuous codes
        build_phi(RadarParams.abstract(5, 3, relative_bandwidth=0.3), sample_codes(3, 5)),  # EXACT
    ):
        a = spark_enumeration(phi)
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_CENSUS_BATCH", 101)
            b = spark_enumeration(phi)
        np.testing.assert_array_equal(a.sigma_values, b.sigma_values)
        np.testing.assert_array_equal(a.sigma_hist_counts, b.sigma_hist_counts)


# --- the Gram screen against a plain SVD -----------------------------------------


def _orbits(phi):
    n_codes = phi.codes.n_codes
    periodic = phi.params.mode is BandwidthMode.APPROXIMATE
    range_wrap = periodic and n_codes is not None and phi.params.n_hrr_bins % n_codes == 0
    return _orbit_table(phi.n_pulses, phi.params.n_hrr_bins, periodic, range_wrap)


def _rep_subsets(phi):
    N, n_cols = phi.shape
    return np.array(list(itertools.combinations(range(n_cols), N)))[_orbits(phi).reps]


def _svd_rep_sigmas(phi):
    # every orbit representative's normalized sigma from its own SVD; on the
    # determinant-gap route a minor with |det| < 1/2 is exactly 0, as before
    # the screen
    sub = np.moveaxis(phi.to_dense()[:, _rep_subsets(phi)], 1, 0)
    sigmas = np.linalg.svd(sub, compute_uv=False)[:, -1] / math.sqrt(phi.n_pulses)
    if analysis._determinant_gap_applies(phi):
        sigmas[np.abs(np.linalg.det(sub)) < 0.5] = 0.0
    return sigmas


def _gram_estimates(phi):
    # the screen's estimate: the smallest eigenvalue of each representative's
    # Gram, gathered from the Gram of the dense matrix
    subsets = _rep_subsets(phi)
    dense = phi.to_dense()
    gram = dense.conj().T @ dense
    lam = np.linalg.eigvalsh(gram[subsets[:, :, None], subsets[:, None, :]])[:, 0]
    return np.sqrt(np.maximum(lam, 0.0)) / math.sqrt(phi.n_pulses)


def _assert_matches_svd(phi, eps_svd=1e-15):
    report = spark_enumeration(phi, eps_svd=eps_svd)
    reps, orbit_of = _orbits(phi)
    N = phi.n_pulses
    expected = _svd_rep_sigmas(phi)
    got = report.sigma_values[reps]
    # every sigma lies in the interval the report states for it, and that
    # interval holds the SVD value
    _, low, high = analysis._gram_sigma_bounds((got * math.sqrt(N)) ** 2, N)
    exact = got == expected
    assert np.all((low <= expected) & (expected <= high) | exact)
    # the outputs are those of the SVD, bit for bit
    sigmas = expected[orbit_of]
    below = sigmas < eps_svd
    assert report.sigma_omega == sigmas.min()
    assert report.n_below_eps == np.count_nonzero(below)
    np.testing.assert_array_equal(report.sigma_hist_counts,
                                  np.histogram(sigmas, bins=analysis.SIGMA_HIST_EDGES)[0])
    got_below = report.sigma_values < eps_svd
    np.testing.assert_array_equal(got_below, below)
    if below.any():
        assert report.sigma_values[got_below].max() == sigmas[below].max()
    if not below.all():
        assert report.sigma_values[~got_below].min() == sigmas[~below].min()
    return report, expected


@pytest.mark.parametrize("phi,eps_svd", [
    (build_phi(RadarParams.abstract(6, 3), sample_codes(11, 6)), 1e-15),
    (build_phi(RadarParams.abstract(6, 3), sample_codes(12, 6)), 1e-15),
    # a large eps_svd puts many estimates below it: the smallest sigma and
    # the largest below eps_svd must still come from the SVD
    (build_phi(RadarParams.abstract(6, 3), sample_codes(12, 6)), 0.1),
    (build_phi(RadarParams.abstract(5, 3, relative_bandwidth=0.3), sample_codes(3, 5)), 1e-15),
    (build_phi(RadarParams.abstract(5, 3, relative_bandwidth=0.3), sample_codes(3, 5)), 0.1),
    (build_phi(RadarParams.abstract(6, 3, relative_bandwidth=0.2, n_codes=3),
               sample_codes(4, 6, 3)), 1e-15),
    (build_phi(RadarParams.abstract(4, 2, n_codes=4), sample_codes(2, 4, 4)), 1e-15),
], ids=["continuous", "continuous2", "continuous2-eps0.1", "exact", "exact-eps0.1",
        "exact-discrete", "gap-N4"])
def test_spark_screen_matches_svd(phi, eps_svd):
    _assert_matches_svd(phi, eps_svd)


def test_spark_screen_runs_few_svds_on_continuous_codes(monkeypatch):
    phi = build_phi(RadarParams.abstract(6, 3), sample_codes(11, 6))
    rows = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        rows.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    spark_enumeration(phi)
    assert 1 <= sum(rows) <= 4  # of 1,599 representatives


def test_spark_screen_near_singular_continuous_subsets():
    # a discrete vector with many singular minors, nudged off the grid: its
    # subsets keep sigma of order 1e-7, where the Gram loses most of its
    # digits and only the eigenvalue margin delta keeps the interval true
    hops = np.array((2, 1, 0, 2, 1, 2)) / 3
    nudge = 1e-7 * np.random.default_rng(0).standard_normal(6)
    phi = build_phi(RadarParams.abstract(6, 3), FrequencyCodes((hops + nudge) % 1.0))
    report, expected = _assert_matches_svd(phi)
    assert report.route == "eps_svd" and report.n_below_eps == 0
    tiny = (expected > 0.0) & (expected < 1e-5)
    assert tiny.sum() > 10
    estimates = _gram_estimates(phi)
    assert np.abs(estimates[tiny] - expected[tiny]).max() > 1e-10


def test_spark_screen_smallest_nonzero_sigma_from_svd():
    # determinant-gap route: singular minors are exactly 0, so the smallest
    # sigma at or above eps_svd must be sought among the nonsingular
    # representatives alone; here its Gram estimate differs from its SVD
    phi = _abstract_phi(tuple(h / 3 for h in (2, 1, 0, 2, 1, 2)), 3, n_codes=3)
    report, expected = _assert_matches_svd(phi)
    assert report.route == "determinant_gap"
    nonsingular = expected > 0.0
    smallest = np.flatnonzero(nonsingular)[np.argmin(expected[nonsingular])]
    assert _gram_estimates(phi)[smallest] != expected[smallest]


def test_spark_screen_resolves_sigma_on_a_histogram_edge(monkeypatch):
    # put a bin edge between a representative's Gram estimate and its SVD
    # value: only the SVD can say which bin it falls in
    phi = build_phi(RadarParams.abstract(6, 3), sample_codes(11, 6))
    expected = _svd_rep_sigmas(phi)
    estimates = _gram_estimates(phi)
    differ = np.flatnonzero((estimates != expected) & (expected > 0.1) & (expected < 0.9))
    assert differ.size > 100
    r = differ[0]
    edge = max(estimates[r], expected[r])
    edges = np.sort(np.append(analysis.SIGMA_HIST_EDGES, edge))
    monkeypatch.setattr(analysis, "SIGMA_HIST_EDGES", edges)
    _assert_matches_svd(phi)


# --- chi -----------------------------------------------------------------------


def test_chi_hand_value_two_pulse():
    params = RadarParams.abstract(2, 2, n_codes=2)
    codes = FrequencyCodes(np.array([0.0, 0.5]), n_codes=2)
    # p = pi: terms exp(1j*pi*2*d_n) = [1, -1] -> chi = 0
    assert chi(params, codes, np.pi, 0.0) == pytest.approx(0.0, abs=1e-15)
    # p = 0, q = pi: terms exp(1j*pi*n) = [1, -1] -> chi = 0
    assert chi(params, codes, 0.0, np.pi) == pytest.approx(0.0, abs=1e-15)
    assert chi(params, codes, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_chi_zero_hop_offsets_are_dft_sums():
    params = RadarParams.abstract(8, 4, n_codes=4)
    codes = sample_codes(3, 8, 4)
    for ell in range(1, 8):
        val = chi(params, codes, 0.0, TWO_PI * ell / 8)
        assert val == pytest.approx(0.0, abs=1e-12)


def test_chi_matches_gram_entries():
    params = RadarParams.abstract(8, 4, n_codes=4)
    codes = sample_codes(5, 8, 4)
    phi = build_phi(params, codes)
    dense = phi.to_dense()
    for m, ell in [(1, 0), (1, 3), (2, 5), (3, 7)]:
        val = chi(params, codes, TWO_PI * m / 4, TWO_PI * ell / 8)
        inner = np.vdot(dense[:, 0], dense[:, ell + m * 8]) / 8
        assert val == pytest.approx(complex(inner), abs=1e-12)


def test_chi_matches_gram_entries_at_full_scale():
    params = RadarParams.abstract(64, 8, n_codes=8)
    codes = sample_codes(5, 64, 8)
    dense = build_phi(params, codes).to_dense()
    for m, ell in [(5, 3), (7, 0), (0, 63), (2, 17)]:
        val = chi(params, codes, TWO_PI * m / 8, TWO_PI * ell / 64)
        inner = np.vdot(dense[:, 0], dense[:, ell + m * 64]) / 64
        assert val == pytest.approx(complex(inner), abs=1e-12)


def test_chi_matches_gram_entries_exact_mode():
    # zeta_n stretches the Doppler term: (0, 17) is far from zero here
    params = RadarParams.abstract(64, 8, n_codes=8, relative_bandwidth=0.5)
    codes = sample_codes(5, 64, 8)
    dense = build_phi(params, codes).to_dense()
    for m, ell in [(5, 3), (7, 0), (0, 63), (0, 17), (2, 17)]:
        val = chi(params, codes, TWO_PI * m / 8, TWO_PI * ell / 64)
        inner = np.vdot(dense[:, 0], dense[:, ell + m * 64]) / 64
        assert val == pytest.approx(complex(inner), abs=1e-12)


def test_chi_rejects_off_grid_and_out_of_range():
    params = RadarParams.abstract(8, 4, n_codes=4)
    codes = sample_codes(0, 8, 4)
    with pytest.raises(DomainError):
        chi(params, codes, 0.1, 0.0)
    with pytest.raises(DomainError):
        chi(params, codes, 0.0, -0.5)
    with pytest.raises(DomainError):
        chi(params, codes, TWO_PI, 0.0)
    with pytest.raises(ShapeError):
        chi(params, sample_codes(0, 6, 4), 0.0, 0.0)


# --- coherence -------------------------------------------------------------------


def test_coherence_shortcut_matches_gram():
    for seed in range(6):
        codes = sample_codes(seed, 16, 4)
        params = RadarParams.abstract(16, 4, n_codes=4)
        phi = build_phi(params, codes)
        fast = coherence(phi)
        slow = coherence(phi.to_dense())
        assert fast.mu == pytest.approx(slow.mu, abs=1e-12)
        assert fast.method == "shortcut" and slow.method == "gram"


def test_coherence_shortcut_matches_gram_continuous_codes():
    codes = sample_codes(11, 12)
    params = RadarParams.abstract(12, 3)
    phi = build_phi(params, codes)
    assert coherence(phi).mu == pytest.approx(
        coherence(phi.to_dense()).mu, abs=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_coherence_routes_agree_property(seed):
    codes = sample_codes(seed, 8, 2)
    for relative_bandwidth in (0.0, 0.5):
        params = RadarParams.abstract(8, 2, n_codes=2, relative_bandwidth=relative_bandwidth)
        phi = build_phi(params, codes)
        assert coherence(phi).mu == pytest.approx(
            coherence(phi.to_dense()).mu, abs=1e-12
        )


@pytest.mark.parametrize("relative_bandwidth", [0.0, 0.3])
def test_chi_matches_every_gram_entry(relative_bandwidth):
    # every column pair whose cells differ by (+m, +l) correlates to chi(m, l)
    params = RadarParams.abstract(8, 4, n_codes=4, relative_bandwidth=relative_bandwidth)
    codes = sample_codes(7, 8, 4)
    phi = build_phi(params, codes)
    dense = phi.to_dense()
    gram = dense.conj().T @ dense / 8
    table = {(m, ell): chi(params, codes, TWO_PI * m / 4, TWO_PI * ell / 8)
             for m in range(4) for ell in range(8)}
    for a in range(32):
        for b in range(32):
            (ma, la), (mb, lb) = divmod(a, 8), divmod(b, 8)
            if mb >= ma and lb >= la:
                assert gram[a, b] == pytest.approx(table[mb - ma, lb - la], abs=1e-12)
    off_origin = max(abs(v) for key, v in table.items() if key != (0, 0))
    if params.mode is BandwidthMode.APPROXIMATE:
        assert coherence(phi).mu == pytest.approx(off_origin, abs=1e-12)
    else:  # negative Doppler offsets are not periodic images in EXACT mode
        assert coherence(phi).mu >= off_origin - 1e-12


@pytest.mark.parametrize("relative_bandwidth", [0.1, 0.5])
@pytest.mark.parametrize("n_codes", [16, None])
def test_coherence_exact_mode_shortcut_matches_gram(relative_bandwidth, n_codes):
    params = RadarParams.abstract(32, 16, n_codes=n_codes,
                                  relative_bandwidth=relative_bandwidth)
    assert params.mode is BandwidthMode.EXACT
    for seed in range(4):
        phi = build_phi(params, sample_codes(seed, 32, n_codes))
        sample = coherence(phi)
        assert sample.method == "shortcut"
        assert sample.mu == pytest.approx(coherence(phi.to_dense()).mu, abs=1e-12)


def _gram_mu(dense):
    """mu from the column-normalized Gram of a dense matrix, diagonal excluded."""
    normed = dense / np.linalg.norm(dense, axis=0)
    gram = np.abs(normed.conj().T @ normed)
    np.fill_diagonal(gram, 0.0)
    return gram.max()


@pytest.mark.parametrize("n_pulses", [1, 6, 63, 64, 100])
@pytest.mark.parametrize("n_hrr_bins", [1, 2, 3, 16])
def test_coherence_fft_route_matches_dense_gram(n_pulses, n_hrr_bins):
    # APPROXIMATE mode: discrete codes with M* = M and 2M, and continuous codes
    for n_codes in (n_hrr_bins, 2 * n_hrr_bins, None):
        params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes)
        for seed in range(3):
            phi = build_phi(params, sample_codes(seed, n_pulses, n_codes))
            sample = coherence(phi)
            assert sample.method == "shortcut"
            assert sample.mu == pytest.approx(_gram_mu(phi.to_dense()), abs=1e-12)
            if n_hrr_bins == 1:
                assert sample.mu == 0.0


@pytest.mark.parametrize("n_pulses, n_hrr_bins, n_codes", [
    (64, 16, 16),  # discrete, M* = M
    (64, 16, 40),  # discrete, M* > M
    (64, 16, None),  # continuous
    (16, 4, 7), (6, 1, 1), (1, 3, None),
])
def test_stacked_dft_coherence_is_coherence_bit_for_bit(n_pulses, n_hrr_bins, n_codes):
    # a chunk of raw draws scored as one stack gives each trial's own mu exactly
    params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes)
    seeds = range(100, 137)
    draws = np.array([_draw_codes(seed, n_pulses, n_codes) for seed in seeds])
    stack = _hop_responses(draws, n_codes, n_hrr_bins)
    kept = stack.copy()
    mus = _dft_coherence(stack)
    assert np.array_equal(stack, kept)  # without overwrite the stack is left as it was
    assert np.array_equal(_dft_coherence(stack, overwrite=True), mus)
    assert mus.shape == (len(seeds),)
    for seed, mu in zip(seeds, mus):
        phi = build_phi(params, sample_codes(seed, n_pulses, n_codes))
        assert mu == coherence(phi).mu  # bit for bit
        assert mu == pytest.approx(coherence(phi.to_dense()).mu, abs=1e-12)


def _extended_mu(codes, n_pulses, n_hrr_bins):
    """APPROXIMATE-mode mu in extended precision, every phase reduced to [0, 1) turns."""
    turn = 2 * np.longdouble("3.14159265358979323846264338327950288")
    m = np.arange(n_hrr_bins)
    if codes.is_discrete:  # m k_n / M*, reduced mod M*
        hop_turns = (np.outer(codes.hops, m) % codes.n_codes).astype(np.longdouble)
        hop_turns /= codes.n_codes
    else:
        hop_turns = np.outer(codes.codes.astype(np.longdouble), m) % 1
    n = np.arange(n_pulses)
    doppler_turns = (np.outer(n, n) % n_pulses).astype(np.longdouble) / n_pulses
    R = np.exp(1j * turn * hop_turns.astype(np.clongdouble))
    D = np.exp(1j * turn * doppler_turns.astype(np.clongdouble))
    return float(np.abs(D.T @ R[:, 1:]).max() / n_pulses)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("n_pulses", [64, 100])
@pytest.mark.parametrize("n_codes", [16, 32, None])
def test_coherence_fft_route_against_extended_precision(n_pulses, n_codes):
    # the FFT route is no farther from the exact mu than the dense products
    # D^T R and D^H R with the cached inverse DFT, whose phases are unreduced
    params = RadarParams.abstract(n_pulses, 16, n_codes=n_codes)
    fft_errors, gemm_errors = [], []
    for seed in range(20):
        codes = sample_codes(seed, n_pulses, n_codes)
        phi = build_phi(params, codes)
        exact = _extended_mu(codes, n_pulses, 16)
        R, D = phi.hop_response[:, 1:], phi.doppler_response
        gemm = max(np.abs(D.T @ R).max(), np.abs(D.conj().T @ R).max()) / n_pulses
        fft_errors.append(abs(coherence(phi).mu - exact))
        gemm_errors.append(abs(gemm - exact))
    assert max(fft_errors) <= 1e-14
    assert max(fft_errors) <= max(gemm_errors)


def test_coherence_single_bin_is_zero():
    params = RadarParams.abstract(8, 1, n_codes=1)
    codes = FrequencyCodes(np.zeros(8), n_codes=1)
    sample = coherence(build_phi(params, codes))
    assert sample.mu == 0.0


def test_coherence_single_bin_exact_mode_matches_gram():
    # per-pulse Doppler stretching leaves same-range-bin columns correlated
    params = RadarParams.abstract(8, 1, relative_bandwidth=0.5)
    phi = build_phi(params, sample_codes(3, 8, None))
    sample = coherence(phi)
    assert sample.mu > 0.1
    assert sample.mu == pytest.approx(coherence(phi.to_dense()).mu, abs=1e-12)


def test_coherence_constant_codes_is_one():
    # equal codes leave parallel columns across hop blocks
    params = RadarParams.abstract(8, 4, n_codes=4)
    codes = FrequencyCodes(np.zeros(8), n_codes=4)
    assert coherence(build_phi(params, codes)).mu == pytest.approx(1.0, abs=1e-12)


def test_coherence_of_orthogonal_basis_is_zero():
    # the inverse-weighting basis has exactly orthogonal columns
    psi = build_iwr_psi(RadarParams.abstract(8, 2))
    sample = coherence(psi)
    assert sample.method == "gram"
    assert sample.mu <= 1e-9


def test_coherence_plain_matrix_normalizes_columns():
    # gram route on a raw matrix divides by the actual column norms
    a = np.array([[3.0, 0.0], [0.0, 0.5]], dtype=complex)
    assert coherence(a).mu == 0.0
    b = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
    assert coherence(b).mu == pytest.approx(1.0, abs=1e-12)


def test_coherence_plain_matrix_rejections():
    a = np.eye(3, dtype=complex)
    a[:, 1] = 0.0
    with pytest.raises(DomainError):
        coherence(a)
    with pytest.raises(ShapeError):
        coherence(np.zeros(5, dtype=complex))


# --- tail bounds -----------------------------------------------------------------


def test_rayleigh_tail_bound_value_and_validity_edge():
    b = rayleigh_tail_bound(0.1, 64)
    assert b.value == pytest.approx(math.exp(-0.5 * 64 * 0.01), rel=1e-15)
    assert b.asymptotic_valid  # 64 * 0.01 = 0.64 > 2/pi
    assert not rayleigh_tail_bound(0.099, 64).asymptotic_valid  # 0.627 < 2/pi


def test_rayleigh_tail_bound_named_points():
    assert rayleigh_tail_bound(0.25, 64).value == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert rayleigh_tail_bound(0.25, 64).value == pytest.approx(0.13534, abs=5e-6)
    # huge deviation: the exponential underflows cleanly to zero
    assert rayleigh_tail_bound(1e6, 64).value == 0.0
    # below the asymptotic threshold the value is still returned, just flagged
    low = rayleigh_tail_bound(0.05, 64)
    assert low.value == pytest.approx(math.exp(-0.08), rel=1e-15)
    assert not low.asymptotic_valid


def test_rayleigh_tail_bound_rejects():
    with pytest.raises(DomainError):
        rayleigh_tail_bound(0.0, 64)
    with pytest.raises(ConfigurationError):
        rayleigh_tail_bound(0.1, 0)


def test_union_bound_raw_value():
    val = union_bound(0.3, 64, 8)
    assert val == pytest.approx((64 * 8 - 64) * math.exp(-0.5 * 64 * 0.09), rel=1e-15)
    # small eps: the raw bound exceeds 1 and is reported unclipped
    assert union_bound(0.01, 64, 8) > 1.0


def test_union_bound_named_value_and_single_bin():
    val = union_bound(0.5, 64, 16)
    assert val == pytest.approx(960 * math.exp(-8.0), rel=1e-15)
    assert val == pytest.approx(0.3221, abs=1e-3)
    # M=1 leaves no cross-bin column pairs, so the probability is zero
    assert union_bound(0.7, 64, 1) == 0.0


def test_union_bound_decreases_in_n_past_stationary_point():
    # (MN-N) e^{-N eps^2/2} peaks at N = 2/eps^2 = 8 for eps = 0.5, M = 16
    vals = [union_bound(0.5, n, 16) for n in range(9, 129)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_union_bound_rejects():
    with pytest.raises(DomainError):
        union_bound(-0.1, 64, 8)
    with pytest.raises(ConfigurationError):
        union_bound(0.1, 64, 0)


def test_tail_bounds_reject_nan_eps():
    # NaN fails every comparison, so `eps <= 0` would let it through
    with pytest.raises(DomainError):
        union_bound(math.nan, 64, 8)
    with pytest.raises(DomainError):
        rayleigh_tail_bound(math.nan, 64)


@pytest.mark.parametrize("value", ["a", "0.1", True, None, 0.1 + 0j], ids=repr)
@pytest.mark.parametrize("bound", [
    lambda value: rayleigh_tail_bound(value, 4),
    lambda value: union_bound(value, 4, 2),
    lambda value: max_recoverable_K(4, 2, value),
], ids=["rayleigh_eps", "union_eps", "max_K_delta"])
def test_tail_bounds_take_only_real_eps_and_delta(bound, value):
    # before the check, "a" raised a bare TypeError and True was taken as 1
    with pytest.raises(DomainError, match="must be a real number"):
        bound(value)


@pytest.mark.parametrize("count", [64.7, 64.5, True, "64"], ids=repr)
@pytest.mark.parametrize("bound", [
    lambda count: rayleigh_tail_bound(0.3, count),
    lambda count: union_bound(0.3, count, 8),
    lambda count: union_bound(0.3, 64, count),
    lambda count: max_recoverable_K(count, 8, 0.1),
    lambda count: max_recoverable_K(64, count, 0.1),
], ids=["rayleigh_N", "union_N", "union_M", "max_K_N", "max_K_M"])
def test_tail_bounds_take_only_integer_counts(bound, count):
    # before the check, 64.7 and True were taken as numbers and "64" raised a bare TypeError
    with pytest.raises(ConfigurationError):
        bound(count)


def test_max_recoverable_K_frozen_value():
    # sqrt(64 / (ln 448 - ln 0.1)) / (2 sqrt 2) + 1/2, frozen from a
    # 40-digit evaluation of the same expression
    assert max_recoverable_K(64, 8, 0.1) == pytest.approx(1.4754717534110120, abs=1e-12)


def test_max_recoverable_K_frozen_value_large():
    # sqrt(512 / (ln 15872 - ln 0.1)) / (2 sqrt 2) + 1/2, frozen from a
    # 40-digit evaluation of the same expression
    assert max_recoverable_K(512, 32, 0.1) == pytest.approx(2.8118204179846845, abs=1e-12)


def test_max_recoverable_K_monotonicity():
    assert max_recoverable_K(512, 8, 0.1) > max_recoverable_K(64, 8, 0.1)
    assert max_recoverable_K(64, 8, 0.01) < max_recoverable_K(64, 8, 0.1)


def test_max_recoverable_K_domain():
    with pytest.raises(DomainError):
        max_recoverable_K(64, 8, 0.0)
    with pytest.raises(DomainError):
        max_recoverable_K(64, 8, 1.0)
    with pytest.raises(DomainError):
        max_recoverable_K(1, 2, 0.1)  # only one off-bin offset


def test_l0_limit():
    assert l0_limit(6) == 3.0
    assert l0_limit(64) == 32.0
    assert l0_limit(512) == 256.0
    assert l0_limit(7) == 3.5
    with pytest.raises(ConfigurationError):
        l0_limit(0)


@pytest.mark.parametrize("n_pulses", [True, "6", 6.0, 6.5], ids=repr)
def test_l0_limit_takes_only_integer_pulse_counts(n_pulses):
    with pytest.raises(ConfigurationError, match="n_pulses must be an integer >= 1"):
        l0_limit(n_pulses)


# --- chi statistics ----------------------------------------------------------------


def test_chi_statistics_generic_offset():
    params = RadarParams.abstract(64, 8, n_codes=8)
    stats = chi_statistics(params, TWO_PI * 3 / 8, TWO_PI * 5 / 64,
                           n_trials=40000, seed=1)
    assert abs(stats.mean) < 3e-3
    assert stats.var_real == pytest.approx(1 / 128, rel=0.05)
    assert stats.var_imag == pytest.approx(1 / 128, rel=0.05)
    assert abs(stats.cov) < 5e-4
    assert stats.abs_sq_mean == pytest.approx(1 / 64, rel=0.05)
    assert stats.n_trials == 40000


def test_chi_statistics_all_real_offset():
    # p = q = pi puts every term on the real axis: the variance collapses
    # onto the real part
    params = RadarParams.abstract(64, 8, n_codes=8)
    stats = chi_statistics(params, np.pi, np.pi, n_trials=40000, seed=2)
    assert stats.var_imag < 1e-20
    assert stats.var_real == pytest.approx(1 / 64, rel=0.05)
    assert stats.abs_sq_mean == pytest.approx(1 / 64, rel=0.05)


def test_chi_statistics_deterministic():
    params = RadarParams.abstract(64, 8, n_codes=8)
    a = chi_statistics(params, TWO_PI / 8, 0.0, n_trials=500, seed=9)
    b = chi_statistics(params, TWO_PI / 8, 0.0, n_trials=500, seed=9)
    assert a == b


def test_chi_statistics_rejects():
    params = RadarParams.abstract(64, 8, n_codes=8)
    with pytest.raises(DomainError):
        chi_statistics(params, 0.0, np.pi, n_trials=100)
    # a p just under 2*pi rounds to grid index M, which is p = 0 again
    with pytest.raises(DomainError, match="p = 0 makes chi deterministic"):
        chi_statistics(RadarParams.abstract(16, 4, n_codes=4), TWO_PI - 1e-12,
                       TWO_PI * 3 / 16, n_trials=1000)
    for n_trials in (1, 2.5, 100.0, True, "100"):
        with pytest.raises(ConfigurationError, match="^n_trials must be an integer >= 2"):
            chi_statistics(params, np.pi, np.pi, n_trials=n_trials)
    wide = RadarParams.abstract(64, 8, n_codes=16)
    with pytest.raises(ConfigurationError):
        chi_statistics(wide, np.pi, np.pi, n_trials=100)
