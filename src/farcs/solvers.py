"""Sparse recovery of range-Doppler scenes from slow-time samples.

All solvers accept either a ``SensingMatrix`` (preferred — products use the
factored form) or a plain complex ndarray.  Results report the estimated
coefficient vector, its support, the final residual norm, a convergence
flag and whether a dual certificate proved the result optimal; ties in
greedy selections and support extraction always resolve to the lowest
column index so runs are reproducible.

The iterative l1 solvers make one product each way per iteration: basis
pursuit one Phi and one Phi^H in its projection, lasso one Phi^H for the
gradient and one Phi at the new iterate.  Basis pursuit also tests each new
stable support S of its sparse iterate for a dual certificate, at the cost
of one SVD of Phi_S and one more Phi^H product, and stops with the exact
minimizer when the test passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, ResourceError, ShapeError, SolverError
from .sensing import SensingMatrix


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and thresholding knobs shared by the solvers."""

    max_iter: int = 1000
    residual_tol: float = 1e-8  # relative to ||y|| (or objective change, for lasso)
    magnitude_threshold: float = 1e-2  # support extraction cutoff
    K: int | None = None  # target sparsity for greedy solvers

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.residual_tol > 0:
            raise ConfigurationError(f"residual_tol must be > 0, got {self.residual_tol}")
        if not self.magnitude_threshold > 0:
            raise ConfigurationError(
                f"magnitude_threshold must be > 0, got {self.magnitude_threshold}"
            )
        if self.K is not None and self.K < 1:
            raise ConfigurationError(f"K must be >= 1, got {self.K}")


@dataclass
class RecoveryResult:
    """Output of one solver run."""

    x_hat: np.ndarray
    support: tuple[int, ...]  # ascending column indices
    residual_norm: float
    iterations: int
    converged: bool
    certified: bool = False  # basis pursuit stopped on a dual certificate
    duality_gap: float | None = None  # lasso: relative duality gap at exit


_BP_DEFAULTS = SolverConfig(max_iter=10000, residual_tol=1e-8)
_LASSO_DEFAULTS = SolverConfig(max_iter=5000, residual_tol=1e-6)
_GREEDY_DEFAULTS = SolverConfig()


# --- operator dispatch -------------------------------------------------------

def _op_shape(phi):
    return phi.shape


def _op_matvec(phi, x):
    return phi.matvec(x) if isinstance(phi, SensingMatrix) else phi @ x


def _op_rmatvec(phi, v):
    return phi.rmatvec(v) if isinstance(phi, SensingMatrix) else phi.conj().T @ v


def _op_columns(phi, indices):
    if isinstance(phi, SensingMatrix):
        return phi.columns(indices)
    return phi[:, np.asarray(indices, dtype=np.intp)]


def _op_row_gram(phi):
    if isinstance(phi, SensingMatrix):
        return phi.row_gram()
    return phi @ phi.conj().T


def _op_spectral_norm_sq(phi):
    if isinstance(phi, SensingMatrix) and phi.is_row_orthogonal():
        return float(phi.n_columns)  # Phi Phi^H = NM I exactly
    return float(np.linalg.eigvalsh(_op_row_gram(phi))[-1])


def _check_y(phi, y):
    y = np.asarray(y, dtype=np.complex128)
    n_rows = _op_shape(phi)[0]
    if y.shape != (n_rows,):
        raise ShapeError(f"y must have shape ({n_rows},), got {y.shape}")
    return y


# --- matched filter ----------------------------------------------------------

def matched_filter(phi, y) -> np.ndarray:
    """Back-projection Phi^H y onto the range-Doppler grid (unnormalized).

    Divide by N to read the values as amplitude estimates; on-grid scenes
    with a single scatterer then peak at the true cell with value
    amplitude * N / N.
    """
    y = _check_y(phi, y)
    return _op_rmatvec(phi, y)


# --- orthogonal matching pursuit ----------------------------------------------

class _GrowingQR:
    """Thin QR of an incrementally grown column set (re-orthogonalized MGS)."""

    def __init__(self, n_rows, capacity, rank_tol=1e-12):
        self._q = np.empty((n_rows, capacity), dtype=np.complex128)
        self._r = np.zeros((capacity, capacity), dtype=np.complex128)
        self.k = 0
        self.rank_tol = rank_tol

    def append(self, col) -> bool:
        """Add a column; False when it is numerically dependent on the rest."""
        q = self._q[:, : self.k]
        v = col.astype(np.complex128, copy=True)
        h = q.conj().T @ v
        v -= q @ h
        # second orthogonalization pass recovers the digits MGS loses
        h2 = q.conj().T @ v
        v -= q @ h2
        h += h2
        norm = np.linalg.norm(v)
        if norm <= self.rank_tol * np.linalg.norm(col):
            return False
        self._q[:, self.k] = v / norm
        self._r[: self.k, self.k] = h
        self._r[self.k, self.k] = norm
        self.k += 1
        return True

    def project_residual(self, y):
        q = self._q[:, : self.k]
        return y - q @ (q.conj().T @ y)

    def solve(self, y):
        q = self._q[:, : self.k]
        return scipy.linalg.solve_triangular(self._r[: self.k, : self.k], q.conj().T @ y)


def omp(phi, y, config: SolverConfig | None = None) -> RecoveryResult:
    """Orthogonal matching pursuit.

    Greedily picks the column most correlated with the residual (lowest
    index on ties), re-solves the least squares on the grown support via an
    incremental QR, and stops after ``config.K`` picks or once the residual
    drops under ``residual_tol * ||y||``.  A numerically rank-deficient
    support raises ``SolverError`` carrying the partial result.
    """
    cfg = config or _GREEDY_DEFAULTS
    y = _check_y(phi, y)
    n_rows, n_cols = _op_shape(phi)
    x_hat = np.zeros(n_cols, dtype=np.complex128)
    y_norm = np.linalg.norm(y)
    if y_norm == 0.0:
        return RecoveryResult(x_hat, (), 0.0, 0, True)
    target_k = min(cfg.K if cfg.K is not None else cfg.max_iter, n_rows)
    stop_norm = cfg.residual_tol * y_norm
    qr = _GrowingQR(n_rows, target_k)
    support: list[int] = []
    chosen = set()
    residual = y
    converged = False
    while len(support) < target_k:
        corr = np.abs(_op_rmatvec(phi, residual))
        j = int(np.argmax(corr))
        if j in chosen:  # residual orthogonal to everything new: stagnated
            break
        if not qr.append(_op_columns(phi, [j])[:, 0]):
            if support:
                for idx, val in zip(support, qr.solve(y)):
                    x_hat[idx] = val
            partial = RecoveryResult(
                x_hat, tuple(sorted(support)), float(np.linalg.norm(residual)),
                len(support), False,
            )
            raise SolverError(
                f"support became rank deficient after adding column {j}", partial
            )
        support.append(j)
        chosen.add(j)
        residual = qr.project_residual(y)
        if np.linalg.norm(residual) <= stop_norm:
            converged = True
            break
    if cfg.K is not None and len(support) == cfg.K:
        converged = True
    if support:
        coef = qr.solve(y)
        for idx, val in zip(support, coef):
            x_hat[idx] = val
    return RecoveryResult(
        x_hat, tuple(sorted(support)), float(np.linalg.norm(residual)),
        len(support), converged,
    )


# --- subspace pursuit ----------------------------------------------------------

def _top_k(values, k):
    """Indices of the k largest values, lowest index first on ties."""
    return np.argsort(-values, kind="stable")[:k]


def _ls_on(phi, y, support):
    cols = _op_columns(phi, support)
    coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
    if rank < len(support):
        raise SolverError(f"least squares on support {tuple(support)} is rank deficient")
    return coef, y - cols @ coef


def subspace_pursuit(phi, y, K: int, config: SolverConfig | None = None) -> RecoveryResult:
    """Subspace pursuit with known sparsity K.

    Each round merges the current support with the K residual-correlation
    leaders, least-squares fits on the union, prunes back to the K largest
    coefficients and re-fits.  Stops when the support stabilizes, when the
    residual would increase (previous iterate is returned), when it drops
    under ``residual_tol * ||y||``, or at ``max_iter``.
    """
    cfg = config or _GREEDY_DEFAULTS
    y = _check_y(phi, y)
    n_rows, n_cols = _op_shape(phi)
    if not 1 <= K <= n_rows:
        raise ConfigurationError(f"K must be in [1, {n_rows}], got {K}")
    y_norm = np.linalg.norm(y)
    if y_norm == 0.0:
        return RecoveryResult(np.zeros(n_cols, dtype=np.complex128), (), 0.0, 0, True)
    stop_norm = cfg.residual_tol * y_norm

    support = np.sort(_top_k(np.abs(_op_rmatvec(phi, y)), K))
    coef, residual = _ls_on(phi, y, support)
    res_norm = np.linalg.norm(residual)
    iterations = 0
    converged = res_norm <= stop_norm
    while not converged and iterations < cfg.max_iter:
        iterations += 1
        extra = _top_k(np.abs(_op_rmatvec(phi, residual)), K)
        union = np.union1d(support, extra)
        union_coef, _ = _ls_on(phi, y, union)
        new_support = np.sort(union[_top_k(np.abs(union_coef), K)])
        if np.array_equal(new_support, support):
            converged = True  # stabilized; state already matches this support
            break
        new_coef, new_residual = _ls_on(phi, y, new_support)
        new_norm = np.linalg.norm(new_residual)
        if new_norm > res_norm:
            converged = True  # refinement stopped paying off; keep previous iterate
            break
        support, coef, residual, res_norm = new_support, new_coef, new_residual, new_norm
        if res_norm <= stop_norm:
            converged = True
    x_hat = np.zeros(n_cols, dtype=np.complex128)
    x_hat[support] = coef
    return RecoveryResult(
        x_hat, tuple(int(i) for i in support), float(res_norm), iterations, converged
    )


# --- basis pursuit (ADMM) -------------------------------------------------------

def _norm(v) -> float:
    """Euclidean norm of a vector, as one BLAS dot product."""
    return math.sqrt(np.vdot(v, v).real)


def _soft_threshold(v, kappa):
    """Complex soft thresholding: shrink magnitudes by kappa, keep phases."""
    if kappa == 0:
        return v.copy()  # the form below would divide 0 by 0 where v = 0
    return v * (1.0 - kappa / np.maximum(np.abs(v), kappa))


# The off-support dual peak must stay this far under 1, so that a
# certificate never rests on rounding.
_CERTIFICATE_MARGIN = 1e-6


def _certified_fit(phi, y, support, stop_norm):
    """Least-squares fit on ``support`` if a dual certificate proves it l1-optimal.

    Fits x_S on Phi_S and builds w = Phi_S (Phi_S^H Phi_S)^-1 sgn(x_S), so that
    Phi_S^H w = sgn(x_S).  When Phi_S has full column rank, the fit leaves a
    residual of at most ``stop_norm``, no entry of x_S is zero and every
    off-support |(Phi^H w)_j| stays under 1 - margin, x_S is the unique
    minimizer of ||x||_1 subject to Phi x = Phi_S x_S (Fuchs 2004; Tropp
    2006).  Returns ``(x_S, residual norm)``, or None when a test fails.
    """
    cols = _op_columns(phi, support)
    u, sigma, vh = np.linalg.svd(cols, full_matrices=False)
    if sigma[-1] <= sigma[0] * max(cols.shape) * np.finfo(np.float64).eps:
        return None  # rank deficient: the fit is not unique
    x_s = vh.conj().T @ ((u.conj().T @ y) / sigma)
    residual = _norm(cols @ x_s - y)
    if residual > stop_norm or not np.all(x_s):
        return None
    w = u @ ((vh @ (x_s / np.abs(x_s))) / sigma)
    peak = np.abs(_op_rmatvec(phi, w))
    peak[support] = 0.0
    if not peak.max() < 1.0 - _CERTIFICATE_MARGIN:
        return None
    return x_s, residual


def basis_pursuit(phi, y, config: SolverConfig | None = None,
                  rho: float = 1.0, over_relaxation: float = 1.8) -> RecoveryResult:
    """Equality-constrained l1 minimization via ADMM, stopped early on a certificate.

    Alternates projection onto {x : Phi x = y} with soft thresholding.  The
    projection solves against the N x N row Gram, which is a scaled identity
    whenever the rows are orthogonal, so iterations stay O(NM).

    The thresholded iterate z is exactly sparse.  The first time its support
    S (1 <= |S| <= N) is the same after two successive iterations, S is
    tested for a dual certificate (``_certified_fit``).  If one exists, the
    least-squares fit on S is the exact minimizer and is returned with
    ``certified=True``; otherwise the iteration continues unchanged and S is
    not tested again.  Without a certificate the projected (feasible) iterate
    is returned once the ADMM residuals meet ``residual_tol``, or at
    ``max_iter``.  Either way the support is read off with the configured
    magnitude threshold.
    """
    cfg = config or _BP_DEFAULTS
    y = _check_y(phi, y)
    n_rows, n_cols = _op_shape(phi)
    if not rho > 0:
        raise ConfigurationError(f"rho must be > 0, got {rho}")
    if not 0 < over_relaxation < 2:
        raise ConfigurationError(f"over_relaxation must be in (0, 2), got {over_relaxation}")
    y_norm = np.linalg.norm(y)
    if y_norm == 0.0:
        return RecoveryResult(np.zeros(n_cols, dtype=np.complex128), (), 0.0, 0, True)

    if isinstance(phi, SensingMatrix) and phi.is_row_orthogonal():
        scale = float(n_cols)
        y_scaled = y / scale

        def project(v):
            return v - _op_rmatvec(phi, _op_matvec(phi, v) / scale - y_scaled)
    else:
        gram = _op_row_gram(phi)
        try:
            factor = scipy.linalg.cho_factor(gram)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SolverError(f"row Gram is singular: {exc}") from exc

        def project(v):
            return v - _op_rmatvec(phi, scipy.linalg.cho_solve(factor, _op_matvec(phi, v) - y))

    kappa = 1.0 / rho
    stop_norm = cfg.residual_tol * y_norm
    z = np.zeros(n_cols, dtype=np.complex128)
    u = np.zeros(n_cols, dtype=np.complex128)
    x = z
    pattern = (z != 0).tobytes()  # support of z, compared as bytes
    tested = set()
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        x = project(z - u)
        x_relaxed = over_relaxation * x + (1.0 - over_relaxation) * z
        z_new = _soft_threshold(x_relaxed + u, kappa)
        u = u + x_relaxed - z_new
        primal = _norm(x - z_new)
        dual = rho * _norm(z_new - z)
        z = z_new
        previous, pattern = pattern, (z != 0).tobytes()
        if pattern == previous and pattern not in tested:
            tested.add(pattern)
            support = np.flatnonzero(z)
            fit = (_certified_fit(phi, y, support, stop_norm)
                   if 1 <= support.size <= n_rows else None)
            if fit is not None:
                x = np.zeros(n_cols, dtype=np.complex128)
                x[support] = fit[0]
                return RecoveryResult(x, extract_support(x, eps=cfg.magnitude_threshold),
                                      fit[1], iterations, True, certified=True)
        tol_primal = cfg.residual_tol * max(_norm(x), _norm(z), 1e-12)
        tol_dual = cfg.residual_tol * max(rho * _norm(u), 1e-12)
        if primal <= tol_primal and dual <= tol_dual:
            converged = True
            break
    residual_norm = float(np.linalg.norm(_op_matvec(phi, x) - y))
    support = extract_support(x, eps=cfg.magnitude_threshold)
    return RecoveryResult(x, support, residual_norm, iterations, converged)


# --- lasso (FISTA) ---------------------------------------------------------------

def lasso(phi, y, lam: float, config: SolverConfig | None = None) -> RecoveryResult:
    """l1-regularized least squares, solved with FISTA.

    Minimizes 0.5 ||Phi x - y||^2 + lam ||x||_1 with the fixed step 1/L,
    L = ||Phi||_2^2 (exactly NM for row-orthogonal sensing matrices).  Stops
    when the relative objective change drops under ``residual_tol``.  Each
    iteration makes one product each way: Phi^H for the gradient and Phi at
    the new iterate.  The residual Phi x - y is carried between iterations,
    and the one at the extrapolated point w follows from linearity.  With
    lam >= ||Phi^H y||_inf the zero vector is already optimal and is
    returned from the zero initialization immediately.  The result reports
    the relative duality gap of the returned x (``_lasso_duality_gap``),
    which costs one more Phi^H product per solve; it does not enter the
    stopping rule.
    """
    cfg = config or _LASSO_DEFAULTS
    if lam < 0:
        raise ConfigurationError(f"lam must be >= 0, got {lam}")
    y = _check_y(phi, y)
    n_cols = _op_shape(phi)[1]
    step = 1.0 / _op_spectral_norm_sq(phi)
    x = np.zeros(n_cols, dtype=np.complex128)
    w = x
    momentum = 1.0
    residual = _op_matvec(phi, x) - y  # Phi x - y
    residual_w = residual  # Phi w - y
    objective = 0.5 * np.vdot(residual, residual).real
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        grad = _op_rmatvec(phi, residual_w)
        x_new = _soft_threshold(w - step * grad, step * lam)
        residual_new = _op_matvec(phi, x_new) - y
        momentum_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / momentum_new
        w = x_new + beta * (x_new - x)
        residual_w = residual_new + beta * (residual_new - residual)
        x, residual, momentum = x_new, residual_new, momentum_new
        new_objective = 0.5 * np.vdot(residual, residual).real + lam * np.sum(np.abs(x))
        if abs(objective - new_objective) <= cfg.residual_tol * max(new_objective, 1e-12):
            converged = True
            objective = new_objective
            break
        objective = new_objective
    support = extract_support(x, eps=cfg.magnitude_threshold)
    return RecoveryResult(
        x, support, float(np.linalg.norm(residual)), iterations, converged,
        duality_gap=_lasso_duality_gap(phi, y, x, residual, lam),
    )


def _lasso_duality_gap(phi, y, x, residual, lam: float) -> float:
    """Relative duality gap (P(x) - D(nu)) / P(x) of a lasso point x.

    P(x) = 0.5 ||Phi x - y||^2 + lam ||x||_1 and, for ||Phi^H nu||_inf <= lam,
    D(nu) = Re<nu, y> - 0.5 ||nu||^2 <= P(x*).  The dual point is the
    scaled residual nu = -s (Phi x - y), s = min(1, lam / ||Phi^H (Phi x - y)||_inf),
    so the gap bounds how far P(x) is from the minimum; it is 0 at the
    minimizer.  ``residual`` is Phi x - y.
    """
    peak = float(np.abs(_op_rmatvec(phi, residual)).max(initial=0.0))
    nu = residual * -(min(1.0, lam / peak) if peak > 0.0 else 1.0)
    primal = 0.5 * np.vdot(residual, residual).real + lam * np.sum(np.abs(x))
    dual = np.vdot(nu, y).real - 0.5 * np.vdot(nu, nu).real
    return float((primal - dual) / primal) if primal > 0.0 else 0.0


# --- exhaustive l0 oracle ---------------------------------------------------------

def l0_oracle(phi, y, k_max: int, residual_rtol: float = 1e-9,
              max_fits: int = 100_000) -> RecoveryResult:
    """Smallest support that fits y, by brute force.

    Scans supports of size 0, 1, ..., k_max in lexicographic order and
    returns the first whose least-squares residual is at most
    ``residual_rtol * ||y||``.  If none qualifies, the best fit seen is
    returned with ``converged=False``.  Refuses to run when the subset count
    exceeds ``max_fits``.
    """
    y = _check_y(phi, y)
    n_rows, n_cols = _op_shape(phi)
    if k_max < 0:
        raise ConfigurationError(f"k_max must be >= 0, got {k_max}")
    total = sum(math.comb(n_cols, k) for k in range(k_max + 1))
    if total > max_fits:
        raise ResourceError(
            f"{total} candidate supports exceed the budget of {max_fits}"
        )
    y_norm = np.linalg.norm(y)
    thresh = residual_rtol * y_norm
    x_hat = np.zeros(n_cols, dtype=np.complex128)
    if y_norm <= 0.0:
        return RecoveryResult(x_hat, (), 0.0, 0, True)
    best = (float(y_norm), (), None)  # (residual, support, coef)
    fits = 0
    for k in range(k_max + 1):
        if k == 0:
            fits += 1
            continue  # empty support fits only y = 0, handled above
        for subset in itertools.combinations(range(n_cols), k):
            fits += 1
            cols = _op_columns(phi, list(subset))
            coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
            if rank < k:
                continue  # dependent columns cannot give a smaller certificate
            res = float(np.linalg.norm(y - cols @ coef))
            if res <= thresh:
                x_hat[list(subset)] = coef
                return RecoveryResult(x_hat, subset, res, fits, True)
            if res < best[0]:
                best = (res, subset, coef)
    res, subset, coef = best
    if coef is not None:
        x_hat[list(subset)] = coef
    return RecoveryResult(x_hat, tuple(subset), res, fits, False)


# --- support extraction -------------------------------------------------------------

def extract_support(x_hat, K: int | None = None, eps: float = 1e-2) -> tuple[int, ...]:
    """Indices of the K largest magnitudes above eps, ascending.

    With ``K=None`` every entry above eps is kept.  Ties between equal
    magnitudes keep the lowest index.
    """
    if not eps > 0:
        raise ConfigurationError(f"eps must be > 0, got {eps}")
    if K is not None and K < 0:
        raise ConfigurationError(f"K must be >= 0, got {K}")
    mag = np.abs(np.asarray(x_hat))
    order = np.argsort(-mag, kind="stable")
    if K is not None:
        order = order[:K]
    return tuple(sorted(int(i) for i in order if mag[i] > eps))
