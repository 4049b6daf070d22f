"""Sensing operators linking the range-Doppler grid to slow-time samples.

The measurement of pulse n for grid cell (m, l) — range bin m, Doppler bin
l — is R[n, m] * D[n, l] with

    R[n, m] = exp(1j * 2 pi * m * d_n)          (carrier-hop response)
    D[n, l] = exp(1j * 2 pi * l * n * zeta_n / N)  (slow-time Doppler response)

Stacking cells column-wise as j = l + m * N gives the N x NM sensing matrix
Phi.  Columns all have Euclidean norm sqrt(N) since every entry has unit
modulus.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    ResourceError,
    ShapeError,
    UnsupportedModeError,
)
from .signal_model import (
    BandwidthMode,
    FrequencyCodes,
    RadarParams,
    pulse_doppler_scalings,
)

# Default cap on materialized dense entries (complex128), ~512 MiB.
DEFAULT_DENSE_BUDGET = 1 << 25


def build_R(codes: FrequencyCodes, n_hrr_bins: int) -> np.ndarray:
    """Carrier-hop response matrix, shape (N, M): exp(1j 2 pi m d_n)."""
    if n_hrr_bins < 1:
        raise ConfigurationError(f"n_hrr_bins must be >= 1, got {n_hrr_bins}")
    m_idx = np.arange(n_hrr_bins)
    return np.exp(1j * 2.0 * np.pi * np.outer(codes.codes, m_idx))


def _doppler_matrix(n_scaled: np.ndarray) -> np.ndarray:
    N = n_scaled.size
    return np.exp(1j * 2.0 * np.pi * np.outer(n_scaled, np.arange(N)) / N)


@functools.lru_cache(maxsize=16)
def _inverse_dft(n_pulses: int) -> np.ndarray:
    D = _doppler_matrix(np.arange(n_pulses, dtype=np.float64))
    D.setflags(write=False)
    return D


@functools.lru_cache(maxsize=16)
def _inverse_dft_conj(n_pulses: int) -> np.ndarray:
    D_conj = _inverse_dft(n_pulses).conj()
    D_conj.setflags(write=False)
    return D_conj


def build_D(params: RadarParams, codes: FrequencyCodes) -> np.ndarray:
    """Doppler response matrix, shape (N, N): exp(1j 2 pi l n zeta_n / N).

    In APPROXIMATE mode (zeta = 1) this is the unnormalized inverse DFT
    matrix, the same for every code realization: one read-only copy per N is
    built and shared.  In EXACT mode each row n is stretched by its own
    zeta_n.
    """
    zetas = pulse_doppler_scalings(params, codes)
    if params.mode is BandwidthMode.APPROXIMATE:
        return _inverse_dft(params.n_pulses)
    return _doppler_matrix(np.arange(params.n_pulses) * zetas)


class SensingMatrix:
    """Lazy N x NM sensing operator for one code realization.

    Stores only the N x M and N x N factors, plus their transposed and
    conjugated copies once a product has run (in APPROXIMATE mode the
    Doppler ones are shared per N); columns, products and the dense matrix
    are formed on demand.  ``to_dense`` refuses to materialize
    more than ``max_dense_entries`` complex values.
    """

    def __init__(self, params: RadarParams, codes: FrequencyCodes,
                 max_dense_entries: int = DEFAULT_DENSE_BUDGET):
        if codes.n_pulses != params.n_pulses:
            raise ShapeError(
                f"codes has {codes.n_pulses} pulses, params expects {params.n_pulses}"
            )
        self.params = params
        self.codes = codes
        self.max_dense_entries = int(max_dense_entries)
        self._R = build_R(codes, params.n_hrr_bins)
        self._D = build_D(params, codes)
        self._dense: np.ndarray | None = None

    # --- shape bookkeeping -------------------------------------------------

    @property
    def n_pulses(self) -> int:
        return self.params.n_pulses

    @property
    def n_columns(self) -> int:
        return self.params.n_pulses * self.params.n_hrr_bins

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_pulses, self.n_columns)

    @property
    def hop_response(self) -> np.ndarray:
        return self._R

    @property
    def doppler_response(self) -> np.ndarray:
        return self._D

    # --- column access -----------------------------------------------------

    def _split_index(self, j):
        j = np.asarray(j)
        if np.any(j < 0) or np.any(j >= self.n_columns):
            raise DomainError(f"column index outside [0, {self.n_columns})")
        m, l = np.divmod(j, self.n_pulses)
        return m, l

    def column(self, j: int) -> np.ndarray:
        """Column j = l + m*N, shape (N,)."""
        m, l = self._split_index(int(j))
        return self._R[:, m] * self._D[:, l]

    def columns(self, indices) -> np.ndarray:
        """Submatrix of the given columns, shape (N, len(indices))."""
        m, l = self._split_index(np.asarray(indices, dtype=np.intp))
        return self._R[:, m] * self._D[:, l]

    def to_dense(self) -> np.ndarray:
        """Materialize the full N x NM matrix (cached)."""
        if self._dense is None:
            N, M = self.params.n_pulses, self.params.n_hrr_bins
            if N * N * M > self.max_dense_entries:
                raise ResourceError(
                    f"dense matrix has {N * N * M} entries, over the budget of "
                    f"{self.max_dense_entries}; raise max_dense_entries to force it"
                )
            dense = self._R[:, :, None] * self._D[:, None, :]  # (N, M, N)
            self._dense = dense.reshape(N, M * N)
        return self._dense

    # --- products ----------------------------------------------------------

    # The products work in the layout x[l + m*N] = X[m, l] (rows of X are
    # range bins), so x.reshape(M, N) is X with no copy; they read
    # contiguous copies of R^T, D^T, R^H and conj(D), built on first use.
    # In APPROXIMATE mode D is the shared inverse DFT matrix, which is
    # symmetric bit for bit (entry (n, l) is formed from the product n*l),
    # so D^T is D itself and conj(D) is shared per N as well.

    @functools.cached_property
    def _matvec_factors(self) -> tuple[np.ndarray, np.ndarray]:
        D_t = self._D if self.is_row_orthogonal() else np.ascontiguousarray(self._D.T)
        return np.ascontiguousarray(self._R.T), D_t

    @functools.cached_property
    def _rmatvec_factors(self) -> tuple[np.ndarray, np.ndarray]:
        D_conj = (_inverse_dft_conj(self.n_pulses) if self.is_row_orthogonal()
                  else self._D.conj())
        return np.ascontiguousarray(self._R.conj().T), D_conj

    def matvec(self, x) -> np.ndarray:
        """Phi @ x for a length-NM vector: R^T * (X D^T), summed over its rows."""
        x = np.asarray(x)
        if x.shape != (self.n_columns,):
            raise ShapeError(f"expected shape ({self.n_columns},), got {x.shape}")
        R_t, D_t = self._matvec_factors
        return (R_t * (x.reshape(R_t.shape) @ D_t)).sum(axis=0)

    def rmatvec(self, v) -> np.ndarray:
        """Phi^H @ v for a length-N vector: ((R^H * v) conj(D)), flattened."""
        v = np.asarray(v)
        if v.shape != (self.n_pulses,):
            raise ShapeError(f"expected shape ({self.n_pulses},), got {v.shape}")
        R_h, D_conj = self._rmatvec_factors
        return ((R_h * v) @ D_conj).ravel()

    def row_gram(self) -> np.ndarray:
        """Phi @ Phi^H, shape (N, N): (R R^H) * (D D^H) elementwise.

        In APPROXIMATE mode D / sqrt(N) is unitary, so D D^H = N I and only
        the diagonal of R R^H, all M, survives: the product is N*M*I for any
        codes.  In EXACT mode it is generally dense; for solvers it is cheap
        to factor once (N x N).
        """
        return (self._R @ self._R.conj().T) * (self._D @ self._D.conj().T)

    def is_row_orthogonal(self) -> bool:
        """Whether Phi Phi^H = N*M*I holds exactly (APPROXIMATE mode)."""
        return self.params.mode is BandwidthMode.APPROXIMATE


class SensingStack:
    """Row-wise products of sensing matrices that share one Doppler factor.

    In APPROXIMATE mode every sensing matrix of one shape uses the cached
    inverse DFT matrix, so a stack of them multiplies all their rows against
    it in one GEMM each way; only the hop factors are stacked, shape
    (rows, M, N).  Row i of ``matvec``/``rmatvec`` is bit for bit matrix i's
    own product: the elementwise steps and the sum over range bins run in
    the same order, and a GEMM row does not depend on the rows stacked with
    it (the tests check this).
    """

    def __init__(self, hop_t: np.ndarray, hop_h: np.ndarray,
                 doppler_t: np.ndarray, doppler_conj: np.ndarray):
        self._R_t, self._R_h = hop_t, hop_h
        self._D_t, self._D_conj = doppler_t, doppler_conj

    @classmethod
    def of(cls, operators) -> SensingStack | None:
        """The stack of ``operators``, or None unless all share the cached factor.

        That takes APPROXIMATE-mode ``SensingMatrix`` operators of one shape.
        """
        first = operators[0]
        if not all(isinstance(op, SensingMatrix) and op.is_row_orthogonal()
                   and op.shape == first.shape for op in operators):
            return None
        return cls(np.stack([op._matvec_factors[0] for op in operators]),
                   np.stack([op._rmatvec_factors[0] for op in operators]),
                   first._matvec_factors[1], first._rmatvec_factors[1])

    def take(self, rows) -> SensingStack:
        """The stack of the matrices at the given positions, in that order."""
        return SensingStack(self._R_t[rows], self._R_h[rows], self._D_t, self._D_conj)

    def matvec(self, X: np.ndarray) -> np.ndarray:
        """Phi_i @ X[i] for every row i of a (rows, NM) block; shape (rows, N)."""
        rows, M, N = self._R_t.shape
        products = (X.reshape(rows * M, N) @ self._D_t).reshape(rows, M, N)
        return (self._R_t * products).sum(axis=1)

    def rmatvec(self, V: np.ndarray) -> np.ndarray:
        """Phi_i^H @ V[i] for every row i of a (rows, N) block; shape (rows, NM)."""
        rows, M, N = self._R_h.shape
        scaled = (self._R_h * V[:, None, :]).reshape(rows * M, N)
        return (scaled @ self._D_conj).reshape(rows, M * N)


def build_phi(params: RadarParams, codes: FrequencyCodes,
              max_dense_entries: int = DEFAULT_DENSE_BUDGET) -> SensingMatrix:
    """Sensing operator for one code realization."""
    return SensingMatrix(params, codes, max_dense_entries=max_dense_entries)


def build_iwr_psi(params: RadarParams) -> np.ndarray:
    """Full MN x MN inverse-DFT dictionary of the stepped-frequency reference.

    Psi = F kron D with F[l, m] = exp(1j 2 pi m l / M) and D the N-point
    inverse DFT matrix; (1/MN) Psi^H Psi = I.  Only defined in APPROXIMATE
    mode — per-pulse Doppler stretching breaks the Kronecker structure.
    """
    if params.mode is not BandwidthMode.APPROXIMATE:
        raise UnsupportedModeError(
            "the stepped-frequency dictionary is only defined in APPROXIMATE mode"
        )
    M, N = params.n_hrr_bins, params.n_pulses
    lm = np.arange(M)
    F = np.exp(1j * 2.0 * np.pi * np.outer(lm, lm) / M)
    ln = np.arange(N)
    D = np.exp(1j * 2.0 * np.pi * np.outer(ln, ln) / N)
    return np.kron(F, D)


def phi_row_sampling_check(phi: SensingMatrix, psi: np.ndarray,
                           codes: FrequencyCodes, atol: float = 1e-12) -> bool:
    """Verify that Phi's rows are rows of Psi selected by the codes.

    Row n of Phi must equal row n + M * d_n * N of Psi.  Requires discrete
    codes with integer M * d_n (hop set size equal to the range-bin count).
    """
    M, N = phi.params.n_hrr_bins, phi.params.n_pulses
    if psi.shape != (M * N, M * N):
        raise ShapeError(f"psi must be ({M * N}, {M * N}), got {psi.shape}")
    offsets = np.asarray(codes.codes) * M
    if not codes.is_discrete or np.max(np.abs(offsets - np.round(offsets))) > 1e-9:
        raise DomainError(
            "row-sampling check needs discrete codes with integer M * d_n "
            "(continuous codes do not select dictionary rows)"
        )
    offsets = np.round(offsets).astype(int)
    dense = phi.to_dense()
    for n in range(N):
        if not np.allclose(dense[n], psi[n + offsets[n] * N], rtol=0.0, atol=atol):
            return False
    return True

