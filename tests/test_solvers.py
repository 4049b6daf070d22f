"""Tests for the sparse recovery solvers against small exact oracles."""

import math

import numpy as np
import pytest

from farcs import (
    ConfigurationError,
    DomainError,
    FrequencyCodes,
    RadarParams,
    RecoveryResult,
    ResourceError,
    ShapeError,
    SolverConfig,
    SolverError,
    SolverSettings,
    add_noise,
    basis_pursuit,
    build_phi,
    chi,
    extract_support,
    l0_oracle,
    lasso,
    lasso_block,
    matched_filter,
    omp,
    sample_codes,
    subspace_pursuit,
)
from farcs import solvers
from farcs.solvers import _CERTIFICATE_MARGIN, _certified_fit, _shrink_floor, _shrink_into


def _problem(n_pulses=64, n_hrr_bins=8, k=3, seed=0, amp_seed=100):
    """Noiseless on-grid instance with continuous codes; returns phi, x, y, support."""
    params = RadarParams.abstract(n_pulses, n_hrr_bins)
    phi = build_phi(params, sample_codes(seed, n_pulses))
    rng = np.random.default_rng(amp_seed)
    support = np.sort(rng.choice(phi.n_columns, size=k, replace=False))
    x = np.zeros(phi.n_columns, dtype=np.complex128)
    x[support] = rng.uniform(1.0, 2.0, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    return phi, x, phi.matvec(x), tuple(int(i) for i in support)


def _mc_instance(seed, k):
    """Unit-amplitude random-phase scene on a fresh continuous-code operator."""
    rng = np.random.default_rng(seed)
    params = RadarParams.abstract(64, 8)
    phi = build_phi(params, sample_codes(rng, 64, 8))
    idx = np.sort(rng.choice(phi.n_columns, size=k, replace=False))
    amps = np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    return phi, tuple(int(i) for i in idx), phi.columns(idx) @ amps, rng


def _twin_columns():
    """N=4, M=2 with every code 0: column l + N is bit for bit column l."""
    params = RadarParams.abstract(4, 2, n_codes=2)
    return build_phi(params, FrequencyCodes(np.zeros(4), n_codes=2))


_SOLVER_CALLS = {
    "matched_filter": lambda phi, y: matched_filter(phi, y),
    "omp": lambda phi, y: omp(phi, y, K=1),
    "subspace_pursuit": lambda phi, y: subspace_pursuit(phi, y, 1),
    "basis_pursuit": lambda phi, y: basis_pursuit(phi, y),
    "lasso": lambda phi, y: lasso(phi, y, 0.1),
    "lasso_block": lambda phi, y: lasso_block([phi], [y], [0.1]),
    "l0_oracle": lambda phi, y: l0_oracle(phi, y, k_max=1),
}


# --- operands ----------------------------------------------------------------


@pytest.mark.parametrize("call", _SOLVER_CALLS.values(), ids=_SOLVER_CALLS.keys())
def test_solvers_take_only_an_approximate_mode_sensing_matrix(call, monkeypatch):
    params = RadarParams.abstract(8, 2, relative_bandwidth=0.3)
    exact = build_phi(params, sample_codes(0, 8))
    assert not exact.is_row_orthogonal()
    for name in ("matvec", "rmatvec", "columns"):  # refused before any product runs
        monkeypatch.setattr(exact, name, lambda *args: pytest.fail("a product ran"))
    y = np.ones(8, dtype=np.complex128)
    for phi in (exact, _problem(n_pulses=8, n_hrr_bins=2)[0].to_dense()):
        with pytest.raises(ConfigurationError):
            call(phi, y)


@pytest.mark.parametrize("call", _SOLVER_CALLS.values(), ids=_SOLVER_CALLS.keys())
def test_solvers_refuse_a_non_finite_measurement(call):
    phi, _, y, _ = _problem(n_pulses=8, n_hrr_bins=2)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        y_bad = y.copy()
        y_bad[3] = bad
        with pytest.raises(DomainError):
            call(phi, y_bad)


# --- config ------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"max_iter": 0},
    {"residual_tol": 0.0},
    {"residual_tol": -1e-9},
    {"magnitude_threshold": 0.0},
])
def test_solver_config_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("build", [
    lambda phi, y: SolverSettings(bp_max_iter="100"),
    lambda phi, y: SolverSettings(bp_max_iter=True),
    lambda phi, y: SolverSettings(bp_max_iter=2.5),
    lambda phi, y: SolverSettings(sp_max_iter=np.float64(3.0)),
    lambda phi, y: SolverSettings(bp_residual_tol=float("inf")),
    lambda phi, y: SolverSettings(support_threshold="0.01"),
    lambda phi, y: SolverSettings(lasso_lambda_factor=float("nan")),
    lambda phi, y: SolverSettings(lasso_lambda_factor=-1.0),
    lambda phi, y: SolverSettings(lasso_lambda_factor="3"),
    lambda phi, y: SolverConfig(max_iter=2.5),
    lambda phi, y: SolverConfig(magnitude_threshold=True),
    lambda phi, y: subspace_pursuit(phi, y, K=2.5),
    lambda phi, y: subspace_pursuit(phi, y, K=True),
    lambda phi, y: omp(phi, y, K=True),
    lambda phi, y: omp(phi, y, K=2.5),
    lambda phi, y: omp(phi, y, K=0),
    lambda phi, y: lasso(phi, y, float("nan")),
    lambda phi, y: lasso(phi, y, float("inf")),
    lambda phi, y: lasso(phi, y, float("-inf")),
    lambda phi, y: lasso(phi, y, -0.1),
    lambda phi, y: lasso(phi, y, True),
    lambda phi, y: lasso(phi, y, "0.3"),
    lambda phi, y: lasso_block([phi, phi], [y, y], [0.1, float("nan")]),
], ids=["bp_max_iter-str", "bp_max_iter-bool", "bp_max_iter-float", "sp_max_iter-npfloat",
        "bp_residual_tol-inf", "support_threshold-str", "lambda_factor-nan",
        "lambda_factor-negative", "lambda_factor-str", "max_iter-float", "threshold-bool",
        "sp-K-float", "sp-K-bool", "omp-K-bool", "omp-K-float", "omp-K-zero", "lam-nan",
        "lam-inf", "lam-minus-inf", "lam-negative", "lam-bool", "lam-str", "block-lam-nan"])
def test_solver_options_reject_bad_values_when_built(build):
    # non-numbers, non-finite and out-of-range values fail with a typed
    # error before any iteration runs
    phi, _, y, _ = _problem(n_pulses=8, n_hrr_bins=2)
    with pytest.raises(ConfigurationError):
        build(phi, y)


# --- matched filter -----------------------------------------------------------


def test_matched_filter_peaks_at_single_scatterer():
    phi, x, y, support = _problem(k=1, seed=3, amp_seed=7)
    img = matched_filter(phi, y) / phi.n_pulses
    peak = int(np.argmax(np.abs(img)))
    assert peak == support[0]
    assert img[peak] == pytest.approx(x[support[0]], abs=1e-12)


def test_matched_filter_shape_check():
    phi, _, _, _ = _problem()
    with pytest.raises(ShapeError):
        matched_filter(phi, np.zeros(phi.n_pulses + 1, dtype=complex))


def test_matched_filter_unit_column_response():
    phi, _, _, _ = _problem()
    img = matched_filter(phi, phi.column(0))
    # the matched column correlates to its squared norm
    assert img[0] == pytest.approx(phi.n_pulses + 0j, abs=1e-11)
    assert not np.any(matched_filter(phi, np.zeros(phi.n_pulses, dtype=complex)))


def test_matched_filter_image_is_column_correlation_magnitude():
    # a single unit scatterer turns |MF output|/N into the correlation
    # magnitude between the probed cell and the occupied one
    params = RadarParams.abstract(8, 4, n_codes=4)
    codes = sample_codes(11, 8, 4)
    phi = build_phi(params, codes)
    ell0, m0 = 3, 2
    img = matched_filter(phi, phi.column(ell0 + m0 * 8)) / 8
    assert int(np.argmax(np.abs(img))) == ell0 + m0 * 8
    for m in range(4):
        for ell in range(8):
            p = 2 * math.pi * ((m0 - m) % 4) / 4
            q = 2 * math.pi * ((ell0 - ell) % 8) / 8
            assert abs(img[ell + m * 8]) == pytest.approx(
                abs(chi(params, codes, p, q)), abs=1e-12)


# --- omp ------------------------------------------------------------------------


def test_omp_exact_recovery_matches_lstsq_oracle():
    phi, x, y, support = _problem(k=3, seed=0)
    result = omp(phi, y, K=3)
    assert result.support == support
    assert result.converged
    assert result.residual_norm <= 1e-8 * np.linalg.norm(y)
    # coefficients must equal the least-squares fit on the true support
    oracle, *_ = np.linalg.lstsq(phi.to_dense()[:, list(support)], y, rcond=None)
    np.testing.assert_allclose(result.x_hat[list(support)], oracle, atol=1e-10)
    np.testing.assert_allclose(result.x_hat[list(support)], x[list(support)], atol=1e-10)


def test_omp_single_scatterer_exact():
    phi, x, y, support = _problem(k=1, seed=21, amp_seed=43)
    result = omp(phi, y, K=1)
    assert result.converged
    assert result.support == support
    assert result.x_hat[support[0]] == pytest.approx(x[support[0]], abs=1e-9)


def test_omp_monte_carlo_recovery_rate():
    # K=3 at N=64, M=8 sits well inside the exact-recovery region
    hits = 0
    for t in range(200):
        phi, support, y, _ = _mc_instance(5000 + t, k=3)
        hits += omp(phi, y, K=3).support == support
    assert hits >= 190  # observed 200/200 with these seeds


def test_omp_residual_stopping_without_k():
    phi, _, y, support = _problem(k=2, seed=1)
    result = omp(phi, y)  # no K: stops on the residual criterion
    assert result.converged
    assert set(support) <= set(result.support)
    assert result.residual_norm <= 1e-8 * np.linalg.norm(y)


def test_omp_tie_breaks_to_lowest_index():
    phi = _twin_columns()
    y = phi.column(3)
    correlation = np.abs(phi.rmatvec(y))
    assert correlation[3] == correlation[7] == correlation.max()  # an exact tie
    assert omp(phi, y, K=1).support == (3,)


def test_omp_stagnates_when_y_outside_column_space(monkeypatch):
    # the correlations see only column 0, and y = col 0 + col 1 is outside
    # its span: once column 0 is fitted the best pick is column 0 again
    phi = _twin_columns()
    only_first = np.arange(phi.n_columns) == 0
    full = phi.rmatvec
    monkeypatch.setattr(phi, "rmatvec", lambda v: only_first * full(v))
    result = omp(phi, phi.column(0) + phi.column(1), K=2)
    assert not result.converged
    assert result.support == (0,)
    assert result.residual_norm == pytest.approx(2.0)  # ||col 1|| = sqrt(N)


def test_omp_rank_deficient_support_raises_with_partial(monkeypatch):
    # the correlation peaks fall on column 1 and then on its twin, column 5,
    # whose least-squares refit on the dependent support must fail
    phi = _twin_columns()
    picks = iter([1, 5])
    monkeypatch.setattr(phi, "rmatvec", lambda v: np.eye(phi.n_columns)[next(picks)])
    with pytest.raises(SolverError) as excinfo:
        omp(phi, 2.0 * phi.column(1) + phi.column(2), K=2)
    partial = excinfo.value.partial_result
    assert isinstance(partial, RecoveryResult)
    assert partial.support == (1,)
    assert not partial.converged
    np.testing.assert_allclose(partial.x_hat[1], 2.0, atol=1e-12)


def test_omp_zero_measurement():
    phi, _, _, _ = _problem()
    result = omp(phi, np.zeros(phi.n_pulses, dtype=complex))
    assert result.support == () and result.converged


# --- subspace pursuit -------------------------------------------------------------


def test_subspace_pursuit_exact_recovery():
    phi, x, y, support = _problem(k=3, seed=2, amp_seed=11)
    result = subspace_pursuit(phi, y, K=3)
    assert result.support == support
    assert result.converged
    np.testing.assert_allclose(result.x_hat[list(support)], x[list(support)], atol=1e-10)


def test_subspace_pursuit_rejects_bad_K():
    phi, _, y, _ = _problem()
    with pytest.raises(ConfigurationError):
        subspace_pursuit(phi, y, K=0)
    with pytest.raises(ConfigurationError):
        subspace_pursuit(phi, y, K=phi.n_pulses + 1)


def test_subspace_pursuit_zero_measurement():
    phi, _, _, _ = _problem()
    result = subspace_pursuit(phi, np.zeros(phi.n_pulses, dtype=complex), K=3)
    assert result.support == () and result.converged


def test_subspace_pursuit_noisy_support_recovery():
    phi, x, y, support = _problem(k=3, seed=5, amp_seed=13)
    rng = np.random.default_rng(99)
    noise = (rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y)))
    noisy = y + 0.05 * noise
    result = subspace_pursuit(phi, noisy, K=3)
    assert result.support == support


def test_subspace_pursuit_single_scatterer():
    phi, x, y, support = _problem(k=1, seed=22, amp_seed=44)
    result = subspace_pursuit(phi, y, 1)
    assert result.converged
    assert result.support == support
    assert result.x_hat[support[0]] == pytest.approx(x[support[0]], abs=1e-9)


def test_subspace_pursuit_iteration_fixed_point():
    # once the support stabilizes, extra iteration budget changes nothing
    phi, support, y, rng = _mc_instance(2300, k=3)
    noisy = add_noise(y, 0.01, rng)
    short = subspace_pursuit(phi, noisy, 3, SolverConfig(max_iter=30))
    long = subspace_pursuit(phi, noisy, 3, SolverConfig(max_iter=120))
    assert short.support == long.support
    assert np.array_equal(short.x_hat, long.x_hat)


def test_subspace_pursuit_monte_carlo_high_snr():
    # K=3 at sigma^2 = -15 dB: essentially certain recovery
    sigma2 = 10.0 ** -1.5
    hits = 0
    for t in range(200):
        phi, support, y, rng = _mc_instance(9000 + t, k=3)
        noisy = add_noise(y, sigma2, rng)
        hits += subspace_pursuit(phi, noisy, 3).support == support
    assert hits >= 196  # observed 200/200 with these seeds


# --- basis pursuit ------------------------------------------------------------------


def test_basis_pursuit_noiseless_recovery():
    phi, x, y, support = _problem(k=3, seed=6, amp_seed=17)
    result = basis_pursuit(phi, y)
    assert result.support == support
    # the returned iterate is the projected one: feasible to working precision
    assert result.residual_norm <= 1e-8 * np.linalg.norm(y)
    np.testing.assert_allclose(result.x_hat[list(support)], x[list(support)], atol=1e-4)


def test_basis_pursuit_single_atom_concentrates_mass():
    # an isolated atom is the unique l1 minimizer: everything lands on it
    for t in range(6):
        rng = np.random.default_rng(6000 + t)
        params = RadarParams.abstract(64, 8)
        phi = build_phi(params, sample_codes(rng, 64, 8))
        j = int(rng.integers(0, phi.n_columns))
        gamma = 1.7 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        y = phi.column(j) * gamma
        result = basis_pursuit(phi, y)
        off_mass = float(np.abs(np.delete(result.x_hat, j)).sum())
        assert off_mass <= 1e-6 * abs(gamma)
        assert result.x_hat[j] == pytest.approx(gamma, abs=1e-6)
        # the exhaustive one-atom fit lands on the same column
        assert l0_oracle(phi, y, k_max=1).support == (j,)


def test_basis_pursuit_monte_carlo_k5():
    # K=5 is still inside the l1 exact-recovery region at N=64, M=8
    hits = 0
    for t in range(200):
        phi, support, y, _ = _mc_instance(7000 + t, k=5)
        result = basis_pursuit(phi, y)
        hits += extract_support(result.x_hat, K=5) == support
    assert hits >= 180  # observed 200/200 with these seeds


def test_basis_pursuit_zero_measurement_and_validation():
    phi, _, _, _ = _problem()
    result = basis_pursuit(phi, np.zeros(phi.n_pulses, dtype=complex))
    assert result.support == () and result.converged
    with pytest.raises(ShapeError):
        basis_pursuit(phi, np.ones(phi.n_pulses + 1, dtype=complex))


# --- reference loops on the dense matrix ------------------------------------------------


def _reference_soft_threshold(v, kappa):
    mag = np.abs(v)
    return v * np.maximum(1.0 - kappa / np.maximum(mag, 1e-300), 0.0)


def _reference_admm(A, y, rho=1.0, alpha=1.8, tol=1e-8, max_iter=10000):
    """Over-relaxed ADMM basis pursuit written out on a dense A."""
    gram = A @ A.conj().T
    z = np.zeros(A.shape[1], dtype=np.complex128)
    u = np.zeros_like(z)
    for it in range(1, max_iter + 1):
        v = z - u
        x = v - A.conj().T @ np.linalg.solve(gram, A @ v - y)
        x_relaxed = alpha * x + (1.0 - alpha) * z
        z_new = _reference_soft_threshold(x_relaxed + u, 1.0 / rho)
        u = u + x_relaxed - z_new
        primal = np.linalg.norm(x - z_new)
        dual = rho * np.linalg.norm(z_new - z)
        z = z_new
        if (primal <= tol * max(np.linalg.norm(x), np.linalg.norm(z), 1e-12)
                and dual <= tol * max(rho * np.linalg.norm(u), 1e-12)):
            break
    return x, it


def _reference_fista(A, y, lam, tol=1e-6, max_iter=5000):
    """FISTA lasso written out on a dense A, with both products per iteration."""
    step = 1.0 / np.linalg.norm(A, 2) ** 2
    x = np.zeros(A.shape[1], dtype=np.complex128)
    w = x
    t = 1.0
    objective = 0.5 * np.linalg.norm(A @ x - y) ** 2
    for it in range(1, max_iter + 1):
        x_new = _reference_soft_threshold(w - step * (A.conj().T @ (A @ w - y)), step * lam)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        w = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        new_objective = 0.5 * np.linalg.norm(A @ x - y) ** 2 + lam * np.sum(np.abs(x))
        if abs(objective - new_objective) <= tol * max(new_objective, 1e-12):
            break
        objective = new_objective
    return x, it


def _reference_instance(seed, k, sigma2=0.0):
    rng = np.random.default_rng(seed)
    params = RadarParams.abstract(32, 4)
    phi = build_phi(params, sample_codes(rng, 32, 4))
    idx = rng.choice(phi.n_columns, size=k, replace=False)
    y = phi.columns(idx) @ np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    return phi, (add_noise(y, sigma2, rng) if sigma2 else y)


# At K=10 no stable support of these instances has a dual certificate, so
# ADMM runs to its tolerance.
@pytest.mark.parametrize("seed", [0, 1])
def test_basis_pursuit_matches_reference_admm(seed):
    phi, y = _reference_instance(9500 + seed, k=10)
    A = phi.to_dense()
    result = basis_pursuit(phi, y)
    x_ref, it_ref = _reference_admm(A, y)
    assert result.converged and not result.certified
    assert result.iterations == it_ref
    np.testing.assert_allclose(result.x_hat, x_ref, rtol=0, atol=1e-10)


# At K=3 the sparse iterate reaches a certifiable support within a few
# iterations; the exact minimizer is the least-squares fit on it
@pytest.mark.parametrize("seed", [0, 1])
def test_basis_pursuit_stops_on_dual_certificate(seed):
    # the draws of _reference_instance(9100 + seed, k=3)
    rng = np.random.default_rng(9100 + seed)
    phi = build_phi(RadarParams.abstract(32, 4), sample_codes(rng, 32, 4))
    idx = rng.choice(phi.n_columns, size=3, replace=False)
    y = phi.columns(idx) @ np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    support = np.sort(idx)
    A = phi.to_dense()
    result = basis_pursuit(phi, y)
    x_ref, it_ref = _reference_admm(A, y)
    assert result.converged and result.certified
    assert result.iterations < it_ref
    assert result.support == tuple(int(i) for i in support)
    fit = np.zeros_like(x_ref)
    fit[support] = np.linalg.lstsq(A[:, support], y, rcond=None)[0]
    np.testing.assert_allclose(result.x_hat, fit, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.x_hat, x_ref, rtol=0, atol=1e-7)
    assert result.residual_norm <= 1e-14 * np.linalg.norm(y)
    assert np.linalg.norm(A @ result.x_hat - y) <= 1e-14 * np.linalg.norm(y)


class _Dense:
    """A plain matrix with the two methods ``_certified_fit`` calls."""

    def __init__(self, matrix):
        self.matrix = matrix

    def columns(self, indices):
        return self.matrix[:, indices]

    def rmatvec(self, v):
        return self.matrix.conj().T @ v


def test_certified_fit_accepts_a_strict_certificate():
    # Phi^H w = (1, 0, conj(a)) for the support {0}: |a| is the off-support peak
    a = 1.0 - 2 * _CERTIFICATE_MARGIN
    phi = np.array([[1.0, 0.0, a], [0.0, 1.0, 0.0]], dtype=np.complex128)
    for gamma in (0.5, 2.0j):  # the certificate sees only the sign of x_S
        y = np.array([gamma, 0.0], dtype=np.complex128)
        x_s, residual = _certified_fit(_Dense(phi), y, np.array([0]), 1e-8)
        assert np.array_equal(x_s, [gamma]) and residual == 0.0


@pytest.mark.parametrize("case", ["rank_deficient", "infeasible", "peak_at_margin",
                                  "peak_above_margin", "zero_coefficient"])
def test_certified_fit_rejects(case):
    e1 = np.array([1.0, 0.0], dtype=np.complex128)
    support = np.array([0])
    if case == "rank_deficient":
        # parallel up to rounding (sigma_min ~ 1e-17), and no column off S
        # that could reject the nonsense fit
        c = np.array([0.6, 0.8j, 0.1])
        phi = np.stack([c, 0.1 * c], axis=1)
        y, support = c, np.array([0, 1])
    elif case == "infeasible":
        phi = np.eye(2, 3, dtype=np.complex128)
        y = np.array([1.0, 1.0], dtype=np.complex128)
    elif case == "zero_coefficient":
        phi = np.eye(2, 3, dtype=np.complex128)
        y, support = e1, np.array([0, 1])
    else:
        a = 1.0 - _CERTIFICATE_MARGIN * (1.0 if case == "peak_at_margin" else 0.5)
        phi = np.array([[1.0, 0.0, a], [0.0, 1.0, 0.0]], dtype=np.complex128)
        y = 0.5 * e1  # a certificate built from x_S instead of its sign would pass
    assert _certified_fit(_Dense(phi), y, support, 1e-8) is None


@pytest.mark.parametrize("sigma2_db", [-15.0, 0.0])
def test_lasso_matches_reference_fista(sigma2_db):
    sigma2 = 10.0 ** (sigma2_db / 10.0)
    phi, y = _reference_instance(9200, k=3, sigma2=sigma2)
    A = phi.to_dense()
    result = lasso(phi, y, 3.0 * sigma2)
    x_ref, it_ref = _reference_fista(A, y, 3.0 * sigma2)
    assert result.converged
    assert result.iterations == it_ref
    np.testing.assert_allclose(result.x_hat, x_ref, rtol=0, atol=1e-10)


def test_lasso_makes_one_product_each_way_per_iteration(monkeypatch):
    problems = [_reference_instance(9300 + i, k=3, sigma2=0.1) for i in range(3)]
    phis = [phi for phi, _ in problems]
    calls = {"_fft_matvec": 0, "_fft_rmatvec": 0}
    # every product of the block runs on its stacked hop factors, through
    # the two helpers that a lone matvec/rmatvec also calls
    for name in calls:
        def counted(*args, _name=name, _product=getattr(solvers, name), **kwargs):
            calls[_name] += 1
            return _product(*args, **kwargs)
        monkeypatch.setattr(solvers, name, counted)
    for phi in phis:
        for name in ("matvec", "rmatvec"):
            monkeypatch.setattr(phi, name, lambda *args, **kwargs: pytest.fail(
                "the block called a row's own product"))
    for n_rows in (1, 3):
        calls.update(_fft_matvec=0, _fft_rmatvec=0)
        results = lasso_block(phis[:n_rows], [y for _, y in problems[:n_rows]], [0.3] * n_rows)
        iterations = max(result.iterations for result in results)
        stops = {result.iterations for result in results}
        assert iterations > 1 and len(stops) == n_rows
        # one Phi at the zero start and one product each way per iteration for
        # the whole block, plus one Phi^H per iteration at which rows stop,
        # for their exit duality gaps
        assert calls == {"_fft_matvec": iterations + 1, "_fft_rmatvec": iterations + len(stops)}


def _lasso_problems(seed):
    """15 lasso problems at N=32, M=4, noise from -15 to 5 dB, lam = 3 sigma^2.

    Row 0's lam is above ||Phi^H y||_inf.  Under ``_BLOCK_CONFIG`` three rows
    of seed 9400 stop at max_iter and the others converge.
    """
    rng = np.random.default_rng(seed)
    params = RadarParams.abstract(32, 4)
    problems = []
    for _ in range(15):
        phi = build_phi(params, sample_codes(rng, 32, 4))
        idx = rng.choice(phi.n_columns, size=3, replace=False)
        sigma2 = 10.0 ** (rng.uniform(-15.0, 5.0) / 10.0)
        y = add_noise(phi.columns(idx) @ np.exp(1j * rng.uniform(0, 2 * np.pi, 3)), sigma2, rng)
        problems.append((phi, y, 3.0 * sigma2))
    phi, y, _ = problems[0]
    problems[0] = (phi, y, 1.01 * float(np.abs(phi.rmatvec(y)).max()))
    return problems


_BLOCK_CONFIG = SolverConfig(max_iter=120, residual_tol=1e-6)


def _assert_block_matches_lone_solves(problems, config=_BLOCK_CONFIG):
    phis, ys, lams = zip(*problems)
    for block, (phi, y, lam) in zip(lasso_block(phis, ys, lams, config), problems):
        lone = lasso(phi, y, lam, config)
        assert block.x_hat.tobytes() == lone.x_hat.tobytes()
        assert (block.iterations, block.converged, block.duality_gap, block.support,
                block.residual_norm) == (lone.iterations, lone.converged, lone.duality_gap,
                                         lone.support, lone.residual_norm)


def test_lasso_block_does_not_depend_on_block_size():
    problems = _lasso_problems(9400)
    lone = [lasso(phi, y, lam, _BLOCK_CONFIG) for phi, y, lam in problems]
    # the rows cover both exits: converged, and capped at max_iter
    assert sum(not r.converged and r.iterations == _BLOCK_CONFIG.max_iter for r in lone) == 3
    # lam >= ||Phi^H y||_inf stops at once on the zero vector with gap 0
    assert lone[0].iterations == 1 and not lone[0].x_hat.any() and lone[0].duality_gap == 0.0
    for size in (1, 2, 15):
        for start in range(0, 15, size):
            _assert_block_matches_lone_solves(problems[start:start + size])
    order = np.random.default_rng(0).permutation(15)
    _assert_block_matches_lone_solves([problems[i] for i in order])


@pytest.mark.parametrize("chunk_rows", [None, 5])
def test_lasso_block_over_the_chunk_cap_matches_lone_solves(monkeypatch, chunk_rows):
    # chunk_rows None keeps the module's cap; the block is more than two
    # chunks, and in every chunk rows take both exits at many iteration counts
    if chunk_rows is not None:
        monkeypatch.setattr(solvers, "_LASSO_CHUNK_ROWS", chunk_rows)
    cap = solvers._LASSO_CHUNK_ROWS
    problems = _lasso_problems(9400)
    block = [problems[i % 15] for i in range(2 * cap + 5)]
    _assert_block_matches_lone_solves(block)
    results = lasso_block(*zip(*block), _BLOCK_CONFIG)
    for start in range(0, len(block), cap):
        chunk = results[start:start + cap]
        assert {r.converged for r in chunk} == {True, False}
        assert len({r.iterations for r in chunk if r.converged}) > 2


def test_lasso_block_buffers_stay_private():
    problems = _lasso_problems(9400)
    phis, ys, lams = zip(*problems)
    hops = [phi.hop_response.copy() for phi in phis]
    ys_before = [y.copy() for y in ys]
    first = lasso_block(phis, ys, lams, _BLOCK_CONFIG)
    # no result is a view of a buffer that the block went on to overwrite
    for i, a in enumerate(first):
        for b in first[i + 1:]:
            assert not np.shares_memory(a.x_hat, b.x_hat)
    for y, before in zip(ys, ys_before):
        assert y.tobytes() == before.tobytes()
    for phi, hop in zip(phis, hops):  # the block stacks its factors from R
        assert phi.hop_response.tobytes() == hop.tobytes()
    for a, b in zip(first, lasso_block(phis, ys, lams, _BLOCK_CONFIG)):
        assert a.x_hat.tobytes() == b.x_hat.tobytes()
        assert (a.iterations, a.converged, a.duality_gap, a.support, a.residual_norm) == (
            b.iterations, b.converged, b.duality_gap, b.support, b.residual_norm)


def test_lasso_block_rejects():
    (phi, y, lam), (other, _, _) = _lasso_problems(9400)[:2]
    with pytest.raises(ShapeError):
        lasso_block([phi, other], [y], [lam, lam])
    with pytest.raises(ShapeError):
        lasso_block([], [], [])
    narrow = build_phi(RadarParams.abstract(32, 2), sample_codes(0, 32))
    with pytest.raises(ShapeError):  # operators of different shapes
        lasso_block([phi, narrow], [y, y], [lam, lam])
    with pytest.raises(ConfigurationError):
        lasso_block([phi, other], [y, y], [lam, -lam])


def test_lasso_reports_its_duality_gap():
    phi, y = _reference_instance(9300, k=3, sigma2=0.1)
    lam = 0.3

    def primal(x):
        r = phi.matvec(x) - y
        return 0.5 * np.vdot(r, r).real + lam * np.abs(x).sum()

    tight = lasso(phi, y, lam, SolverConfig(max_iter=20000, residual_tol=1e-15))
    early = lasso(phi, y, lam, SolverConfig(max_iter=3))
    assert 0.0 <= tight.duality_gap < 1e-4
    # weak duality: the gap bounds the primal suboptimality of the early exit
    assert primal(early.x_hat) - primal(tight.x_hat) <= early.duality_gap * primal(early.x_hat)
    assert early.duality_gap > 100 * tight.duality_gap
    # lam >= |Phi^H y|_inf: zero is the minimizer, certified by a zero gap
    zero = lasso(phi, y, 1.01 * np.abs(phi.rmatvec(y)).max())
    assert not zero.x_hat.any() and zero.duality_gap == 0.0
    # the other solvers report no gap
    assert basis_pursuit(phi, y).duality_gap is None


def _soft_threshold(v, kappa):
    """``_shrink_into`` with fresh buffers, out of place."""
    return _shrink_into(v, kappa, _shrink_floor(kappa), np.empty(v.shape),
                        np.empty(v.shape, np.complex128))


def test_soft_threshold_edges():
    v = np.array([0.0, 3.0 + 4.0j, -2.0, 1e-3j])
    # kappa = 0 returns v unchanged, zeros included (no 0/0)
    out = _soft_threshold(v, 0.0)
    assert np.array_equal(out, v) and out is not v
    # |v| = kappa lands exactly on zero; above it the magnitude shrinks by kappa
    np.testing.assert_array_equal(_soft_threshold(v, 5.0), [0, 0, 0, 0])
    np.testing.assert_array_equal(_soft_threshold(v, 2.0)[2:], [0, 0])
    np.testing.assert_allclose(_soft_threshold(v, 2.0)[1], (3.0 + 4.0j) * 3.0 / 5.0,
                               rtol=1e-15)
    for kappa in (2.0, 5.0, 1e-3, 0.5):
        np.testing.assert_array_equal(_soft_threshold(v, kappa),
                                      _reference_soft_threshold(v, kappa))
        # in place, as basis pursuit runs it, with the same bits
        inplace = v.copy()
        _shrink_into(inplace, kappa, _shrink_floor(kappa), np.empty(4), out=inplace)
        assert inplace.tobytes() == _soft_threshold(v, kappa).tobytes()


def test_shrink_into_a_block_is_the_float_factor_product():
    # 20 x 512 entries: more than numpy's cast buffer holds, so the promoted
    # factor is cast in chunks; every third row has kappa = 0 and keeps its zeros
    rng = np.random.default_rng(17)
    v = rng.standard_normal((20, 512)) + 1j * rng.standard_normal((20, 512))
    v[:, :8] = 0.0
    kappa = np.where(np.arange(20) % 3 == 0, 0.0, rng.uniform(0.0, 2.0, 20))[:, None]
    floor = _shrink_floor(kappa)
    expected = v * (1 - kappa / np.maximum(abs(v), floor))
    out = np.empty_like(v)
    assert _shrink_into(v, kappa, floor, np.empty(v.shape), out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert np.array_equal(out[::3], v[::3])
    inplace = v.copy()
    _shrink_into(inplace, kappa, floor, np.empty(v.shape), out=inplace)
    assert inplace.tobytes() == expected.tobytes()


# --- lasso ---------------------------------------------------------------------------


def test_lasso_large_lambda_returns_zero():
    phi, _, y, _ = _problem(k=2, seed=9)
    lam = float(np.abs(matched_filter(phi, y)).max()) * 1.01
    result = lasso(phi, y, lam)
    assert result.support == ()
    assert np.all(result.x_hat == 0)
    assert result.converged


def test_lasso_zero_lambda_solves_least_squares():
    # square unitary-up-to-scale system: lam = 0 reduces to plain LS
    params = RadarParams.abstract(8, 1, n_codes=1)
    phi = build_phi(params, sample_codes(0, 8, 1))
    rng = np.random.default_rng(23)
    x_true = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y = phi.matvec(x_true)
    result = lasso(phi, y, 0.0, SolverConfig(max_iter=5000, residual_tol=1e-14))
    np.testing.assert_allclose(result.x_hat, x_true, atol=1e-5)


def test_lasso_noisy_support_recovery():
    phi, x, y, support = _problem(k=3, seed=10, amp_seed=29)
    rng = np.random.default_rng(31)
    sigma2 = 10 ** (-15 / 10)  # strong signal regime
    noise = np.sqrt(sigma2 / 2) * (
        rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y))
    )
    result = lasso(phi, y + noise, 3.0 * sigma2)
    assert extract_support(result.x_hat, eps=0.2) == support


def test_lasso_monte_carlo_high_snr():
    # K=3 at sigma^2 = -15 dB with lambda = 3 sigma^2 and a 0.2 threshold
    sigma2 = 10.0 ** -1.5
    config = SolverConfig(max_iter=5000, residual_tol=1e-6, magnitude_threshold=0.2)
    hits = 0
    for t in range(200):
        phi, support, y, rng = _mc_instance(8000 + t, k=3)
        noisy = add_noise(y, sigma2, rng)
        hits += lasso(phi, noisy, 3.0 * sigma2, config).support == support
    assert hits >= 160  # observed 200/200 with these seeds


def test_lasso_rejects_negative_lambda():
    phi, _, y, _ = _problem()
    with pytest.raises(ConfigurationError):
        lasso(phi, y, -0.1)


# --- l0 oracle -------------------------------------------------------------------------


def test_l0_oracle_finds_minimal_support():
    phi, x, y, support = _problem(n_pulses=4, n_hrr_bins=2, k=2, seed=12, amp_seed=37)
    result = l0_oracle(phi, y, k_max=2)
    assert result.support == support
    assert result.converged
    np.testing.assert_allclose(result.x_hat[list(support)], x[list(support)], atol=1e-9)


def test_l0_oracle_budget_exhausted_returns_best_effort():
    phi, _, y, _ = _problem(n_pulses=4, n_hrr_bins=2, k=2, seed=13, amp_seed=41)
    result = l0_oracle(phi, y, k_max=1)
    assert not result.converged
    assert len(result.support) <= 1
    assert result.residual_norm > 0


def test_l0_oracle_single_atom_matches_matched_filter():
    rng = np.random.default_rng(31)
    params = RadarParams.abstract(4, 2)
    phi = build_phi(params, sample_codes(rng, 4, None))
    y = phi.column(5) * (0.8 - 0.3j)
    peak = int(np.argmax(np.abs(matched_filter(phi, y))))
    assert l0_oracle(phi, y, k_max=1).support == (peak,) == (5,)


def test_l0_oracle_skips_supports_with_dependent_columns(monkeypatch):
    phi = _twin_columns()
    fit, refused = solvers._ls_on, []

    def ls_on(phi, y, support):
        try:
            return fit(phi, y, support)
        except SolverError:
            refused.append(support)
            raise

    monkeypatch.setattr(solvers, "_ls_on", ls_on)
    result = l0_oracle(phi, phi.column(1) + phi.column(2), k_max=2)
    # {0, 4} (twin columns) is rank deficient and passed over; {1, 2} is the first fit
    assert refused == [(0, 4)]
    assert result.support == (1, 2) and result.converged
    assert result.iterations == 1 + 8 + 8  # the skipped support counts as a fit
    np.testing.assert_allclose(result.x_hat, [0, 1, 1, 0, 0, 0, 0, 0], atol=1e-12)


def test_l0_oracle_guards(monkeypatch):
    phi, _, y, _ = _problem(n_pulses=4, n_hrr_bins=2)
    with monkeypatch.context() as patch, pytest.raises(ResourceError):
        patch.setattr(solvers, "_L0_MAX_FITS", 10)
        l0_oracle(phi, y, k_max=2)
    with pytest.raises(ConfigurationError):
        l0_oracle(phi, y, k_max=-1)
    zero = l0_oracle(phi, np.zeros(4, dtype=complex), k_max=2)
    assert zero.support == () and zero.converged


# --- support extraction -----------------------------------------------------------------


def test_extract_support_threshold_and_k():
    x = np.array([3.0, 0.001, 2.0])
    assert extract_support(x, K=2, eps=1e-2) == (0, 2)
    assert extract_support(x, eps=1e-2) == (0, 2)
    # K above the number of above-threshold entries returns only those
    assert extract_support(x, K=3, eps=1e-2) == (0, 2)
    assert extract_support(x, K=1, eps=1e-2) == (0,)
    assert extract_support(x, K=0, eps=1e-2) == ()


def test_extract_support_tie_keeps_lowest_index():
    assert extract_support(np.ones(3), K=2) == (0, 1)


def test_extract_support_complex_and_validation():
    x = np.array([1e-3, 0.5j, -0.5])
    assert extract_support(x, eps=1e-2) == (1, 2)
    with pytest.raises(ConfigurationError):
        extract_support(x, eps=0.0)
    with pytest.raises(ConfigurationError):
        extract_support(x, K=-1)


@pytest.mark.parametrize("call", [
    lambda x, phi, y: extract_support(x, K=1.5),
    lambda x, phi, y: extract_support(x, K=True),
    lambda x, phi, y: extract_support(x, eps="0.1"),
    lambda x, phi, y: extract_support(x, eps=float("nan")),
    lambda x, phi, y: l0_oracle(phi, y, k_max=1.5),
], ids=["K-float", "K-bool", "eps-str", "eps-nan", "k_max-float"])
def test_support_and_oracle_options_of_wrong_type_are_typed_errors(call):
    phi, x, y, _ = _problem(n_pulses=4, n_hrr_bins=2)
    with pytest.raises(ConfigurationError):
        call(x, phi, y)


@pytest.mark.parametrize("K", [None, 1])
@pytest.mark.parametrize("x_hat", [[[0.5, 0.0], [0.0, 2.0]], 2.0, np.ones((1, 3))],
                         ids=["2x2", "0-D", "1x3"])
def test_extract_support_refuses_a_non_vector(x_hat, K):
    # before the check, a 2-D x_hat gave flat indices, and a 0-D one (0,) or,
    # with K = 1, a bare IndexError
    with pytest.raises(ShapeError, match="1-D"):
        extract_support(x_hat, K=K)


def test_extract_support_matches_the_sorted_scan():
    # the masks return what sorting the above-eps entries of the K largest did
    rng = np.random.default_rng(71)
    for _ in range(200):
        x = rng.choice([0.0, 1e-3, 0.5, 1.0, 2.0], size=24) * np.exp(1j * rng.uniform(0, 6, 24))
        for K in (None, 0, 1, 3, 8, 30):
            mag = np.abs(x)
            order = np.argsort(-mag, kind="stable")[:K]
            expected = tuple(sorted(int(i) for i in order if mag[i] > 0.1))
            assert extract_support(x, K=K, eps=0.1) == expected
