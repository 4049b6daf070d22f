"""Sparse recovery of range-Doppler scenes from slow-time samples.

Every solver takes one kind of operator: an APPROXIMATE-mode
``SensingMatrix``, whose rows are orthogonal, Phi Phi^H = NM I.  Anything
else (a plain ndarray, an EXACT-mode matrix) is a ``ConfigurationError``,
and a measurement with a NaN or infinite entry a ``DomainError``, before
any product runs.  Results report the estimated coefficient vector, its
support, the final residual norm, a convergence flag and whether a dual
certificate proved the result optimal; ties in greedy selections and
support extraction always resolve to the lowest column index so runs are
reproducible.

The iterative l1 solvers make one product each way per iteration: basis
pursuit one Phi and one Phi^H in its projection, lasso one Phi^H for the
gradient and one Phi at the new iterate.  Each product is M length-N FFTs
and one elementwise hop weighting, O(M N log N).  ``lasso_block`` solves
several lasso problems in one loop; each is solved exactly as alone, and
each product for the whole block is one batched FFT.  Basis pursuit also
tests each new stable support S of its sparse iterate for a dual
certificate, at the cost of one SVD of Phi_S and one more Phi^H product,
and stops with the exact minimizer when the test passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DomainError, ResourceError, ShapeError, SolverError,
                     check_integer, check_positive)
from .sensing import SensingMatrix, SensingStack


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and thresholding knobs shared by the solvers."""

    max_iter: int = 1000
    residual_tol: float = 1e-8  # relative to ||y|| (or objective change, for lasso)
    magnitude_threshold: float = 1e-2  # support extraction cutoff

    def __post_init__(self):
        check_integer("max_iter", self.max_iter, 1)
        for name in ("residual_tol", "magnitude_threshold"):
            check_positive(name, getattr(self, name))


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
_L0_RESIDUAL_RTOL = 1e-9  # l0_oracle accepts a fit with residual <= this * ||y||
_L0_MAX_FITS = 100_000  # l0_oracle refuses to scan more candidate supports


# --- operators ----------------------------------------------------------------

def _operands(phi, y):
    """``phi`` checked to be row-orthogonal, and y as a finite complex vector of its rows."""
    if not (isinstance(phi, SensingMatrix) and phi.is_row_orthogonal()):
        got = (f"one in {phi.params.mode.name} mode" if isinstance(phi, SensingMatrix)
               else type(phi).__name__)
        raise ConfigurationError(f"solvers take an APPROXIMATE-mode SensingMatrix, got {got}")
    y = np.asarray(y, dtype=np.complex128)
    n_rows = phi.shape[0]
    if y.shape != (n_rows,):
        raise ShapeError(f"y must have shape ({n_rows},), got {y.shape}")
    if not np.isfinite(y).all():
        raise DomainError("y has a NaN or infinite entry")
    return phi, y


def _ls_on(phi, y, support):
    """Least squares of y on the ``support`` columns: (coef, residual), or SolverError."""
    cols = phi.columns(support)
    coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
    if rank < len(support):
        raise SolverError(f"least squares on support {tuple(support)} is rank deficient")
    return coef, y - cols @ coef


# --- matched filter ----------------------------------------------------------

def matched_filter(phi, y) -> np.ndarray:
    """Back-projection Phi^H y onto the range-Doppler grid (unnormalized).

    Divide by N to read the values as amplitude estimates; on-grid scenes
    with a single scatterer then peak at the true cell with value
    amplitude * N / N.
    """
    phi, y = _operands(phi, y)
    return phi.rmatvec(y)


# --- orthogonal matching pursuit ----------------------------------------------

def omp(phi, y, K: int | None = None, config: SolverConfig | None = None) -> RecoveryResult:
    """Orthogonal matching pursuit, with known sparsity K or none.

    Greedily picks the column most correlated with the residual (lowest
    index on ties), re-fits the least squares on the grown support
    (``_ls_on``), and stops after K picks (``max_iter`` without K) or once the
    residual drops under ``residual_tol * ||y||``.  A numerically rank-deficient
    support raises ``SolverError`` carrying the fit before that pick.
    """
    cfg = config or _GREEDY_DEFAULTS
    if K is not None:
        K = check_integer("K", K, 1)
    phi, y = _operands(phi, y)
    n_rows, n_cols = phi.shape
    x_hat = np.zeros(n_cols, dtype=np.complex128)
    y_norm = np.linalg.norm(y)
    if y_norm == 0.0:
        return RecoveryResult(x_hat, (), 0.0, 0, True)
    target_k = min(K if K is not None else cfg.max_iter, n_rows)
    stop_norm = cfg.residual_tol * y_norm
    support: list[int] = []
    coef = np.zeros(0, dtype=np.complex128)
    residual = y
    converged = False
    rank_error = None
    while len(support) < target_k:
        j = int(np.argmax(np.abs(phi.rmatvec(residual))))
        if j in support:  # residual orthogonal to everything new: stagnated
            break
        try:
            coef, residual = _ls_on(phi, y, support + [j])
        except SolverError as exc:
            rank_error = exc  # the fit on the support so far is the partial result
            break
        support.append(j)
        if np.linalg.norm(residual) <= stop_norm:
            converged = True
            break
    if len(support) == K:
        converged = True
    x_hat[support] = coef
    result = RecoveryResult(
        x_hat, tuple(sorted(support)), float(np.linalg.norm(residual)),
        len(support), converged,
    )
    if rank_error is not None:
        raise SolverError(f"support became rank deficient after adding column {j}",
                          result) from rank_error
    return result


# --- subspace pursuit ----------------------------------------------------------

def _top_k(values, k):
    """Indices of the k largest values, lowest index first on ties."""
    return np.argsort(-values, kind="stable")[:k]


def subspace_pursuit(phi, y, K: int, config: SolverConfig | None = None) -> RecoveryResult:
    """Subspace pursuit with known sparsity K.

    Each round merges the current support with the K residual-correlation
    leaders, least-squares fits on the union, prunes back to the K largest
    coefficients and re-fits.  Stops when the support stabilizes, when the
    residual would increase (previous iterate is returned), when it drops
    under ``residual_tol * ||y||``, or at ``max_iter``.
    """
    cfg = config or _GREEDY_DEFAULTS
    phi, y = _operands(phi, y)
    n_rows, n_cols = phi.shape
    if check_integer("K", K, 1) > n_rows:
        raise ConfigurationError(f"K must be in [1, {n_rows}], got {K}")
    y_norm = np.linalg.norm(y)
    if y_norm == 0.0:
        return RecoveryResult(np.zeros(n_cols, dtype=np.complex128), (), 0.0, 0, True)
    stop_norm = cfg.residual_tol * y_norm

    support = np.sort(_top_k(np.abs(phi.rmatvec(y)), K))
    coef, residual = _ls_on(phi, y, support)
    res_norm = np.linalg.norm(residual)
    iterations = 0
    converged = res_norm <= stop_norm
    while not converged and iterations < cfg.max_iter:
        iterations += 1
        extra = _top_k(np.abs(phi.rmatvec(residual)), K)
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


def _shrink_floor(kappa):
    """The floor of |v| in ``_shrink_into``: kappa = 0 would divide 0 by 0 at v = 0."""
    return np.where(kappa > 0, kappa, np.inf)


def _shrink_into(v, kappa, floor, magnitude, out):
    """Complex soft thresholding, v * (1 - kappa / max(|v|, floor)) into ``out``.

    Magnitudes shrink by kappa and phases stay.  ``kappa`` is a scalar or
    broadcasts against ``v`` (one threshold per row of a block); where it
    is 0, ``v`` passes unchanged.  ``floor`` is ``_shrink_floor(kappa)``,
    ``magnitude`` a float buffer of v's shape that ends up holding the real
    factor (numpy casts it to complex in bounded chunks as it multiplies),
    and ``out`` may be ``v`` itself.
    """
    np.abs(v, out=magnitude)
    np.divide(kappa, np.maximum(magnitude, floor, out=magnitude), out=magnitude)
    return np.multiply(v, np.subtract(1.0, magnitude, out=magnitude), out=out)


# The off-support dual peak must stay this far under 1, so that a
# certificate never rests on rounding.
_CERTIFICATE_MARGIN = 1e-6

_ADMM_RHO = 1.0  # ADMM penalty rho and over-relaxation alpha (Boyd et al. 2011, 3.4.3)
_ADMM_RELAXATION = 1.8


def _certified_fit(phi, y, support, stop_norm):
    """Least-squares fit on ``support`` if a dual certificate proves it l1-optimal.

    Fits x_S on Phi_S and builds w = Phi_S (Phi_S^H Phi_S)^-1 sgn(x_S), so that
    Phi_S^H w = sgn(x_S).  When Phi_S has full column rank, the fit leaves a
    residual of at most ``stop_norm``, no entry of x_S is zero and every
    off-support |(Phi^H w)_j| stays under 1 - margin, x_S is the unique
    minimizer of ||x||_1 subject to Phi x = Phi_S x_S (Fuchs 2004; Tropp
    2006).  Returns ``(x_S, residual norm)``, or None when a test fails.
    """
    cols = phi.columns(support)
    u, sigma, vh = np.linalg.svd(cols, full_matrices=False)
    if sigma[-1] <= sigma[0] * max(cols.shape) * np.finfo(np.float64).eps:
        return None  # rank deficient: the fit is not unique
    x_s = vh.conj().T @ ((u.conj().T @ y) / sigma)
    residual = _norm(cols @ x_s - y)
    if residual > stop_norm or not np.all(x_s):
        return None
    w = u @ ((vh @ (x_s / np.abs(x_s))) / sigma)
    peak = np.abs(phi.rmatvec(w))
    peak[support] = 0.0
    if not peak.max() < 1.0 - _CERTIFICATE_MARGIN:
        return None
    return x_s, residual


def basis_pursuit(phi, y, config: SolverConfig | None = None) -> RecoveryResult:
    """Equality-constrained l1 minimization via ADMM, stopped early on a certificate.

    Alternates projection onto {x : Phi x = y} with soft thresholding, at
    the fixed penalty rho = 1 and over-relaxation alpha = 1.8.  The rows are
    orthogonal, Phi Phi^H = NM I, so the projection is
    v - Phi^H (Phi v - y) / NM: two FFT products, O(M N log N) each.

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
    phi, y = _operands(phi, y)
    n_rows, n_cols = phi.shape
    y_norm = np.linalg.norm(y)
    if y_norm == 0.0:
        return RecoveryResult(np.zeros(n_cols, dtype=np.complex128), (), 0.0, 0, True)

    scale = float(n_cols)
    y_scaled = y / scale

    def project(v):
        return v - phi.rmatvec(phi.matvec(v) / scale - y_scaled)

    kappa = 1.0 / _ADMM_RHO
    floor = _shrink_floor(kappa)
    magnitude = np.empty(n_cols)
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
        x_relaxed = _ADMM_RELAXATION * x + (1.0 - _ADMM_RELAXATION) * z
        z_new = x_relaxed + u
        _shrink_into(z_new, kappa, floor, magnitude, out=z_new)
        u = u + x_relaxed - z_new
        primal = _norm(x - z_new)
        dual = _ADMM_RHO * _norm(z_new - z)
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
        tol_dual = cfg.residual_tol * max(_ADMM_RHO * _norm(u), 1e-12)
        if primal <= tol_primal and dual <= tol_dual:
            converged = True
            break
    residual_norm = float(np.linalg.norm(phi.matvec(x) - y))
    support = extract_support(x, eps=cfg.magnitude_threshold)
    return RecoveryResult(x, support, residual_norm, iterations, converged)


# --- lasso (FISTA) ---------------------------------------------------------------

def lasso(phi, y, lam: float, config: SolverConfig | None = None) -> RecoveryResult:
    """l1-regularized least squares, solved with FISTA.

    Minimizes 0.5 ||Phi x - y||^2 + lam ||x||_1, lam a finite real >= 0,
    with the fixed step 1/L, L = ||Phi||_2^2 = NM (Phi Phi^H = NM I).  Stops
    when the relative objective change drops under ``residual_tol``.  Each
    iteration makes one product each way: Phi^H for the gradient and Phi at
    the new iterate.  The residual Phi x - y is carried between iterations,
    and the one at the extrapolated point w follows from linearity.  With
    lam >= ||Phi^H y||_inf the zero vector is already optimal and is
    returned from the zero initialization immediately.  The result reports
    the relative duality gap of the returned x (``_lasso_duality_gap``),
    which costs one more Phi^H product per solve; it does not enter the
    stopping rule.  This is ``lasso_block`` on a block of one.
    """
    return lasso_block([phi], [y], [lam], config)[0]


def lasso_block(phis, ys, lams, config: SolverConfig | None = None) -> list[RecoveryResult]:
    """``lasso(phis[i], ys[i], lams[i], config)`` for every i, in one FISTA loop per chunk.

    The problems (operators of one shape) advance in lockstep as the rows of
    a block, whose products are each one batched FFT (``SensingStack``): the
    step 1/NM and the momentum are the same for every row, and each row
    stops on its own objective change (or at ``max_iter``) and leaves the
    block.  A block of more than ``_LASSO_CHUNK_ROWS`` rows is solved as
    chunks of at most that many rows, one after another, so that its working
    set stays in cache.  Each chunk iterates in buffers allocated once: an
    iteration writes every product, shrinkage and momentum step into them,
    and when rows stop, the rest move up into the leading rows.  Each result,
    its iteration count and duality gap included, is bit for bit the one a
    lone ``lasso`` call returns; the block only changes how many products
    run at once.
    """
    cfg = config or _LASSO_DEFAULTS
    if not phis or not len(phis) == len(ys) == len(lams):
        raise ShapeError(f"a lasso block needs as many operators ({len(phis)}) as "
                         f"measurements ({len(ys)}) and lambdas ({len(lams)}), at least one")
    for lam_i in lams:
        check_positive("lam", lam_i, zero_ok=True)
    lam = np.array(lams, dtype=np.float64)
    ops, y = zip(*(_operands(phi, y_i) for phi, y_i in zip(phis, ys)))
    if any(op.shape != ops[0].shape for op in ops):
        raise ShapeError("the operators of a lasso block must share one shape")
    y = np.array(y)
    results = []
    for start in range(0, len(ops), _LASSO_CHUNK_ROWS):
        chunk = slice(start, start + _LASSO_CHUNK_ROWS)
        results += _fista_chunk(ops[chunk], y[chunk], lam[chunk], cfg)
    return results


# Rows per FISTA chunk: more rows share each batched FFT's call overhead, but
# past a few dozen the chunk's buffers and hop stacks (about 64 KiB a row at
# N=64, M=8) leave the cache.  Of 16, 32, 64 and 200 rows, 16 and 32 solved
# 200-row blocks fastest.
_LASSO_CHUNK_ROWS = 32


def _fista_chunk(ops, y, lam, cfg):
    """The lasso results of one chunk of ``lasso_block``, in row order."""
    n_rows, n_cols = len(ops), ops[0].shape[1]
    step = 1.0 / float(n_cols)  # Phi Phi^H = NM I, so ||Phi||_2^2 = NM
    kappa = step * lam[:, None]
    floor = _shrink_floor(kappa)
    rows = np.arange(n_rows)  # the problem each row of the chunk solves
    results = [None] * n_rows
    block = SensingStack.of(ops)  # row i goes through ops[i]
    # the iterates x and x_new and the extrapolated point w; the products of
    # both FFTs; |v|, then the shrink factor
    x, x_new, w = (np.zeros((n_rows, n_cols), dtype=np.complex128) for _ in range(3))
    products = np.empty((n_rows, ops[0].params.n_hrr_bins, ops[0].n_pulses), dtype=np.complex128)
    magnitude = np.empty((n_rows, n_cols))
    residual, residual_new, residual_w = (np.empty_like(y) for _ in range(3))
    momentum = 1.0
    np.subtract(block.matvec(x, out=residual, work=products), y, out=residual)  # Phi x - y
    residual_w[...] = residual  # Phi w - y
    objective = _lasso_objectives(residual, x, lam, magnitude)
    for iterations in range(1, cfg.max_iter + 1):
        v = block.rmatvec(residual_w, out=products)  # the gradient at w, then w - step grad
        np.subtract(w, np.multiply(step, v, out=v), out=v)
        _shrink_into(v, kappa, floor, magnitude, out=x_new)
        np.subtract(block.matvec(x_new, out=residual_new, work=products), y, out=residual_new)
        momentum_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / momentum_new
        for point, new, old in ((w, x_new, x), (residual_w, residual_new, residual)):
            np.add(new, np.multiply(beta, np.subtract(new, old, out=point), out=point), out=point)
        x, x_new, residual, residual_new = x_new, x, residual_new, residual
        momentum = momentum_new
        new_objective = _lasso_objectives(residual, x, lam, magnitude)
        done = np.abs(objective - new_objective) <= cfg.residual_tol * np.maximum(
            new_objective, 1e-12)
        objective = new_objective
        if not done.any():
            continue
        for i in np.flatnonzero(done):
            results[rows[i]] = _lasso_result(ops[i], y[i], x[i], residual[i], lam[i],
                                             iterations, True, cfg)
        keep = np.flatnonzero(~done)
        if not keep.size:
            break
        ops, block = [ops[i] for i in keep], block.take(keep)
        rows, y, kappa, floor, lam, objective = (
            a[keep] for a in (rows, y, kappa, floor, lam, objective))
        for a in (x, w, residual, residual_w):  # carried state moves to the leading rows
            a[:keep.size] = a[keep]
        x, x_new, w, products, magnitude, residual, residual_new, residual_w = (
            a[:keep.size] for a in (x, x_new, w, products, magnitude,
                                    residual, residual_new, residual_w))
    else:  # max_iter reached: the rows still in the chunk did not converge
        for i, row in enumerate(rows):
            results[row] = _lasso_result(ops[i], y[i], x[i], residual[i], lam[i],
                                         iterations, False, cfg)
    return results


def _lasso_objectives(residual, x, lam, magnitude):
    """0.5 ||Phi x - y||^2 + lam ||x||_1 per row, each as a lone solve computes it.

    |x| goes into ``magnitude``, a float buffer of x's shape.
    """
    parts = residual.view(np.float64)  # real and imaginary parts, interleaved
    return (0.5 * np.einsum("ij,ij->i", parts, parts)
            + lam * np.abs(x, out=magnitude).sum(axis=1))


def _lasso_result(phi, y, x, residual, lam, iterations, converged, cfg):
    x = x.copy()  # not a view of a buffer that the block goes on to overwrite
    return RecoveryResult(
        x, extract_support(x, eps=cfg.magnitude_threshold), float(np.linalg.norm(residual)),
        iterations, converged, duality_gap=_lasso_duality_gap(phi, y, x, residual, float(lam)),
    )


def _lasso_duality_gap(phi, y, x, residual, lam: float) -> float:
    """Relative duality gap (P(x) - D(nu)) / P(x) of a lasso point x.

    P(x) = 0.5 ||Phi x - y||^2 + lam ||x||_1 and, for ||Phi^H nu||_inf <= lam,
    D(nu) = Re<nu, y> - 0.5 ||nu||^2 <= P(x*).  The dual point is the
    scaled residual nu = -s (Phi x - y), s = min(1, lam / ||Phi^H (Phi x - y)||_inf),
    so the gap bounds how far P(x) is from the minimum; it is 0 at the
    minimizer.  ``residual`` is Phi x - y.
    """
    peak = float(np.abs(phi.rmatvec(residual)).max(initial=0.0))
    nu = residual * -(min(1.0, lam / peak) if peak > 0.0 else 1.0)
    primal = 0.5 * np.vdot(residual, residual).real + lam * np.sum(np.abs(x))
    dual = np.vdot(nu, y).real - 0.5 * np.vdot(nu, nu).real
    return float((primal - dual) / primal) if primal > 0.0 else 0.0


# --- exhaustive l0 oracle ---------------------------------------------------------

def l0_oracle(phi, y, k_max: int) -> RecoveryResult:
    """Smallest support that fits y, by brute force.

    Scans supports of size 0, 1, ..., k_max in lexicographic order and
    returns the first whose least-squares residual is at most
    ``_L0_RESIDUAL_RTOL * ||y||``.  If none qualifies, the best fit seen is
    returned with ``converged=False``.  Refuses to run when the subset count
    exceeds ``_L0_MAX_FITS``.
    """
    k_max = check_integer("k_max", k_max, 0)
    phi, y = _operands(phi, y)
    n_rows, n_cols = phi.shape
    total = sum(math.comb(n_cols, k) for k in range(k_max + 1))
    if total > _L0_MAX_FITS:
        raise ResourceError(f"{total} candidate supports exceed the budget of {_L0_MAX_FITS}")
    y_norm = np.linalg.norm(y)
    thresh = _L0_RESIDUAL_RTOL * y_norm
    x_hat = np.zeros(n_cols, dtype=np.complex128)
    if y_norm <= 0.0:
        return RecoveryResult(x_hat, (), 0.0, 0, True)
    best = (float(y_norm), (), np.zeros(0))  # (residual, support, coef)
    fits = 1  # the empty support, which fits only y = 0, handled above
    for k in range(1, k_max + 1):
        for subset in itertools.combinations(range(n_cols), k):
            fits += 1
            try:
                coef, residual = _ls_on(phi, y, subset)
            except SolverError:
                continue  # dependent columns cannot give a smaller certificate
            res = float(np.linalg.norm(residual))
            if res <= thresh:
                x_hat[list(subset)] = coef
                return RecoveryResult(x_hat, subset, res, fits, True)
            if res < best[0]:
                best = (res, subset, coef)
    res, subset, coef = best
    x_hat[list(subset)] = coef
    return RecoveryResult(x_hat, tuple(subset), res, fits, False)


# --- support extraction -------------------------------------------------------------

def extract_support(x_hat, K: int | None = None, eps: float = 1e-2) -> tuple[int, ...]:
    """Indices of the K largest magnitudes above eps, ascending.

    With ``K=None`` every entry above eps is kept.  Ties between equal
    magnitudes keep the lowest index.
    """
    check_positive("eps", eps)
    mag = np.abs(np.asarray(x_hat))
    if K is None:
        return tuple(np.flatnonzero(mag > eps).tolist())
    order = np.argsort(-mag, kind="stable")[:check_integer("K", K, 0)]
    return tuple(np.sort(order[mag[order] > eps]).tolist())
