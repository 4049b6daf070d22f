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
    check_attributes,
    check_integer,
)
from .signal_model import (
    BandwidthMode,
    FrequencyCodes,
    RadarParams,
    pulse_doppler_scalings,
    zeta,
)

# Cap on materialized dense entries (complex128), ~512 MiB.
_DENSE_BUDGET = 1 << 25
# Cap on the entries of one cached phase table (complex128), 4 MiB; larger
# factors take the direct formulas.
_PHASE_TABLE_BUDGET = 1 << 18


def _hop_matrix(codes: np.ndarray, n_hrr_bins: int) -> np.ndarray:
    """exp(1j 2 pi m d) for every code d of an array of any shape, over a new last axis m."""
    phases = 1j * 2.0 * np.pi * (codes[..., None] * np.arange(n_hrr_bins))
    return np.exp(phases, out=phases)


@functools.lru_cache(maxsize=16)
def _hop_table(n_codes: int, n_hrr_bins: int) -> np.ndarray:
    """R rows of every grid code k / M*, shape (M*, M), read-only."""
    table = _hop_matrix(np.arange(n_codes) / n_codes, n_hrr_bins)
    table.setflags(write=False)
    return table


def build_R(codes: FrequencyCodes, n_hrr_bins: int) -> np.ndarray:
    """Carrier-hop response matrix, shape (N, M): exp(1j 2 pi m d_n).

    Discrete codes gather row k_n of a table cached per (M*, M), built by
    the same expression, so R is bit for bit the direct formula; continuous
    codes and tables over the entry budget use that formula.
    """
    n_hrr_bins = check_integer("n_hrr_bins", n_hrr_bins, 1)
    values, hops, n_codes = check_attributes("FrequencyCodes", codes, "codes", "hops", "n_codes")
    return _hop_responses(values if hops is None else hops, n_codes, n_hrr_bins)


def _hop_responses(draws: np.ndarray, n_codes: int | None, n_hrr_bins: int) -> np.ndarray:
    """R of every code vector in ``draws``, shape ``draws.shape + (M,)``, unchecked.

    ``draws`` holds hop indices k_n in [0, M*) for ``n_codes`` = M*, or
    continuous codes for None; a (T, N) array of T draws gives their (T, N, M)
    stack, each R bit for bit ``build_R``'s.  Hop indices gather from the
    table cached per (M*, M), or above its entry budget take the formula at
    k_n / M*.
    """
    if n_codes is None:
        return _hop_matrix(draws, n_hrr_bins)
    if n_codes * n_hrr_bins > _PHASE_TABLE_BUDGET:
        return _hop_matrix(draws / n_codes, n_hrr_bins)
    return _hop_table(n_codes, n_hrr_bins)[draws]


def _doppler_matrix(n_scaled: np.ndarray) -> np.ndarray:
    N = n_scaled.size
    return np.exp(1j * 2.0 * np.pi * np.outer(n_scaled, np.arange(N)) / N)


@functools.lru_cache(maxsize=4)
def _exact_doppler_table(n_pulses: int, n_codes: int,
                         relative_bandwidth: float) -> np.ndarray:
    """EXACT-mode D of the constant code k / M*, for every k: (M*, N, N), read-only.

    Row n of D depends only on (n, k_n), so table[k_n, n] is that row.
    """
    table = np.empty((n_codes, n_pulses, n_pulses), dtype=np.complex128)
    for k, z in enumerate(zeta(np.arange(n_codes) / n_codes, relative_bandwidth, 1.0)):
        table[k] = _doppler_matrix(np.arange(n_pulses) * z)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _inverse_dft(n_pulses: int) -> np.ndarray:
    D = _doppler_matrix(np.arange(n_pulses, dtype=np.float64))
    D.setflags(write=False)
    return D


def build_D(params: RadarParams, codes: FrequencyCodes) -> np.ndarray:
    """Doppler response matrix, shape (N, N): exp(1j 2 pi l n zeta_n / N).

    In APPROXIMATE mode (zeta = 1) this is the unnormalized inverse DFT
    matrix, the same for every code realization: one read-only copy per N is
    built and shared.  In EXACT mode each row n is stretched by its own
    zeta_n; discrete codes gather row n from a table cached per
    (N, M*, B/f_c) at their hop index k_n, built by the same expressions, so
    D is bit for bit the direct formula's.  Continuous codes, and tables
    over the entry budget, take the direct formula.
    """
    try:
        N, n_code_pulses = params.n_pulses, codes.n_pulses
    except AttributeError:
        raise ConfigurationError(f"build_D takes RadarParams and FrequencyCodes, got "
                                 f"{type(params).__name__} and {type(codes).__name__}") from None
    if n_code_pulses != N:
        raise ShapeError(f"codes has {n_code_pulses} pulses, params expects {N}")
    if params.mode is BandwidthMode.APPROXIMATE:
        return _inverse_dft(N)
    if codes.hops is None or codes.n_codes * N * N > _PHASE_TABLE_BUDGET:
        return _doppler_matrix(np.arange(N) * pulse_doppler_scalings(params, codes))
    table = _exact_doppler_table(N, codes.n_codes, params.relative_bandwidth)
    return table[codes.hops, np.arange(N)]


class SensingMatrix:
    """Lazy N x NM sensing operator for one code realization.

    Stores only the N x M and N x N factors, plus contiguous copies of R^T
    and R^H once a product has run; columns, products (APPROXIMATE mode
    only) and the dense matrix are formed on demand.  ``to_dense`` builds a
    new array per call, of at most ``_DENSE_BUDGET`` complex values.
    Discrete codes must use M* = params.n_codes.
    """

    def __init__(self, params: RadarParams, codes: FrequencyCodes):
        try:
            n_pulses, n_code_pulses = params.n_pulses, codes.n_pulses
        except AttributeError:
            raise ConfigurationError(
                f"a SensingMatrix takes RadarParams and FrequencyCodes, got "
                f"{type(params).__name__} and {type(codes).__name__}") from None
        if n_code_pulses != n_pulses:
            raise ShapeError(f"codes has {n_code_pulses} pulses, params expects {n_pulses}")
        if codes.is_discrete and codes.n_codes != params.n_codes:
            raise ConfigurationError(
                f"codes come from a hop set of {codes.n_codes}, params has {params.n_codes}"
            )
        self.params = params
        self.codes = codes
        # build_R without its check of M, which RadarParams made
        self._R = _hop_responses(codes.codes if codes.hops is None else codes.hops,
                                 codes.n_codes, params.n_hrr_bins)
        self._D = build_D(params, codes)

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
        """(m, l) of integer column indices j = l + m*N; an empty selection may have any dtype."""
        j = np.asarray(j)
        if j.dtype.kind not in "iu":
            if j.size:
                raise DomainError(f"column indices must be integers, got {j.dtype} values")
            j = j.astype(np.intp)
        if np.any(j < 0) or np.any(j >= self.n_columns):
            raise DomainError(f"column index outside [0, {self.n_columns})")
        return np.divmod(j, self.n_pulses)

    def columns(self, indices) -> np.ndarray:
        """Columns j = l + m*N, shape (N, len(indices)); a scalar j gives column j, shape (N,)."""
        m, l = self._split_index(indices)
        return self._R[:, m] * self._D[:, l]

    column = columns

    def to_dense(self) -> np.ndarray:
        """Materialize the full N x NM matrix, a new array on every call."""
        N, M = self.params.n_pulses, self.params.n_hrr_bins
        if N * N * M > _DENSE_BUDGET:
            raise ResourceError(f"dense matrix has {N * N * M} entries, over the "
                                f"budget of {_DENSE_BUDGET}")
        return (self._R[:, :, None] * self._D[:, None, :]).reshape(N, M * N)

    # --- products ----------------------------------------------------------

    # The products are defined in APPROXIMATE mode only, where D is the
    # unnormalized inverse DFT: X D^T is an inverse FFT of each row of X and
    # (R^H * v) conj(D) a forward FFT of each row (``_fft_matvec``/
    # ``_fft_rmatvec``).  They work in the layout x[l + m*N] = X[m, l] (rows
    # of X are range bins), so x.reshape(M, N) is X with no copy, and read
    # contiguous copies of R^T and R^H, built on first use.  In EXACT mode
    # they raise UnsupportedModeError; ``to_dense() @ x`` is the product
    # there.  ``lasso_block`` runs the same two helpers on the hop factors of
    # many matrices stacked (rows, M, N); row i of a stacked product is bit
    # for bit matrix i's own, since numpy's FFT transforms each row on its
    # own and the elementwise steps and the sum over range bins run in the
    # same order (the tests check this).

    @functools.cached_property
    def _hop_t(self) -> np.ndarray:
        return np.ascontiguousarray(self._R.T)

    @functools.cached_property
    def _hop_h(self) -> np.ndarray:
        return np.ascontiguousarray(self._R.conj().T)

    def _approximate_only(self):
        if not self.is_row_orthogonal():
            raise UnsupportedModeError("products need APPROXIMATE mode; use to_dense() in EXACT")

    def matvec(self, x) -> np.ndarray:
        """Phi @ x for a length-NM vector: R^T * (X D^T), summed over its rows."""
        self._approximate_only()
        x = np.asarray(x)
        if x.shape != (self.n_columns,):
            raise ShapeError(f"expected shape ({self.n_columns},), got {x.shape}")
        return _fft_matvec(self._hop_t, x.reshape(self._hop_t.shape))

    def rmatvec(self, v) -> np.ndarray:
        """Phi^H @ v for a length-N vector: ((R^H * v) conj(D)), flattened."""
        self._approximate_only()
        v = np.asarray(v)
        if v.shape != (self.n_pulses,):
            raise ShapeError(f"expected shape ({self.n_pulses},), got {v.shape}")
        return _fft_rmatvec(self._hop_h, v).ravel()

    def row_gram(self) -> np.ndarray:
        """Phi @ Phi^H, shape (N, N): (R R^H) * (D D^H) elementwise.

        In APPROXIMATE mode D / sqrt(N) is unitary, so D D^H = N I and only
        the diagonal of R R^H, all M, survives: the product is N*M*I for any
        codes.  In EXACT mode it is generally dense.
        """
        return (self._R @ self._R.conj().T) * (self._D @ self._D.conj().T)

    def is_row_orthogonal(self) -> bool:
        """Whether Phi Phi^H = N*M*I holds exactly (APPROXIMATE mode)."""
        return self.params.mode is BandwidthMode.APPROXIMATE


def _fft_matvec(hop_t, X, out=None, work=None):
    """R^T * (X D^T) summed over range bins, for X of shape (..., M, N) and D the inverse DFT.

    X D^T is the unnormalized inverse FFT of each length-N row, written into
    ``work`` (X's shape) when given; the hop weighting runs in place on it,
    and the sum goes into ``out`` when given.
    """
    products = np.fft.ifft(X, norm="forward",
                           out=np.empty(X.shape, np.complex128) if work is None else work)
    return np.add.reduce(np.multiply(hop_t, products, out=products), axis=-2, out=out)


def _fft_rmatvec(hop_h, v, out=None):
    """(R^H * v) conj(D), shape (..., M, N): the forward FFT of each row, in place in ``out``."""
    scaled = np.multiply(hop_h, v, out=out)
    return np.fft.fft(scaled, out=scaled)


def build_phi(params: RadarParams, codes: FrequencyCodes) -> SensingMatrix:
    """Sensing operator for one code realization."""
    return SensingMatrix(params, codes)


def build_iwr_psi(params: RadarParams) -> np.ndarray:
    """Full MN x MN inverse-DFT dictionary of the stepped-frequency reference.

    Psi = F kron D with F and D the M- and N-point inverse DFT matrices,
    F[l, m] = exp(1j 2 pi m l / M); (1/MN) Psi^H Psi = I.  Only defined in
    APPROXIMATE mode — per-pulse Doppler stretching breaks the Kronecker
    structure.
    """
    mode, M, N = check_attributes("RadarParams", params, "mode", "n_hrr_bins", "n_pulses")
    if mode is not BandwidthMode.APPROXIMATE:
        raise UnsupportedModeError(
            "the stepped-frequency dictionary is only defined in APPROXIMATE mode"
        )
    return np.kron(_inverse_dft(M), _inverse_dft(N))


def phi_row_sampling_check(phi: SensingMatrix, psi: np.ndarray) -> bool:
    """Verify that Phi's rows are rows of Psi selected by Phi's codes.

    Row n of Phi must equal row n + M * d_n * N of Psi to within 1e-12.
    Requires discrete codes whose offsets M * d_n = M * k_n / M* are
    integers, as every code's are when the hop set size M* equals M.
    """
    params, codes = check_attributes("a SensingMatrix", phi, "params", "codes")
    M, N = params.n_hrr_bins, params.n_pulses
    psi = np.asarray(psi)
    if psi.shape != (M * N, M * N):
        raise ShapeError(f"psi must be ({M * N}, {M * N}), got {psi.shape}")
    if not codes.is_discrete or np.any(codes.hops * M % codes.n_codes):
        raise DomainError(
            "row-sampling check needs discrete codes with integer M * d_n "
            "(continuous codes do not select dictionary rows)"
        )
    offsets = codes.hops * M // codes.n_codes
    dense = phi.to_dense()
    for n in range(N):
        if not np.allclose(dense[n], psi[n + offsets[n] * N], rtol=0.0, atol=1e-12):
            return False
    return True

