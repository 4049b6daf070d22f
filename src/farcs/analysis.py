"""Recovery-condition diagnostics for the agile-radar sensing matrix.

Covers the spark census over all N-column submatrices (one classification
per orbit of column subsets under the symmetries of the sensing matrix, by
the determinant gap where every minor is a Gaussian or Eisenstein integer),
the mutual coherence (a shortcut that reads the Gram matrix's dependence
on the column-cell difference alone from the operator's factors: one
Doppler FFT of the hop response in APPROXIMATE mode, one product of D with
the hop response and its conjugate in EXACT mode; a plain matrix takes its
Gram), Rayleigh tail bounds on the column cross-correlations, and the
resulting sparsity guarantees.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, DomainError, ResourceError, ShapeError, check_array,
                     check_attributes, check_integer, check_positive, check_real)
from .sensing import SensingMatrix
from .signal_model import (BandwidthMode, FrequencyCodes, RadarParams, _default_rng, _phase_cell,
                           pulse_doppler_scalings)


# bins 0.02 wide centred on 0, 0.02, ..., 1.2: sigma = 1 (orthogonal columns)
# sits in the middle of a bin, so rounding cannot move it across an edge
SIGMA_HIST_EDGES = np.linspace(-0.01, 1.21, 62)
SIGMA_HIST_EDGES.setflags(write=False)
_CHI_BLOCK = 20_000  # trials per code draw in chi_statistics
_CENSUS_BATCH = 8192  # orbit representatives per batched det, eigvalsh or SVD call


@dataclass
class SparkReport:
    """Census of smallest singular values over every N-column submatrix."""

    # normalized sigma_N per submatrix, enumeration order.  A sigma that the
    # census did not send to the SVD is its Gram estimate, which lies with
    # the SVD value in the interval of ``_gram_sigma_bounds`` (see
    # ``spark_enumeration``)
    sigma_values: np.ndarray
    sigma_omega: float  # the minimum over all submatrices
    n_submatrices: int
    eps_svd: float
    n_below_eps: int  # submatrices with sigma under eps_svd
    sigma_hist_counts: np.ndarray  # histogram of sigma_values over SIGMA_HIST_EDGES
    route: str  # "determinant_gap" or "eps_svd"
    # determinant-gap route only: largest |det| classified singular and
    # smallest classified nonsingular (None when there is none)
    det_singular_max: float | None = None
    det_nonsingular_min: float | None = None

    @property
    def full_spark(self) -> bool:
        """True when no submatrix fell below the numerical-zero threshold."""
        return self.n_below_eps == 0


@functools.lru_cache(maxsize=8)
def _combination_indices(n_cols: int, n_rows: int) -> np.ndarray:
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_cols), n_rows)),
        dtype=np.intp,
        count=math.comb(n_cols, n_rows) * n_rows,
    ).reshape(-1, n_rows)
    idx.setflags(write=False)
    return idx


def _lex_rank(subsets: np.ndarray, n_cols: int) -> np.ndarray:
    """Position of each sorted subset (one per row) in lexicographic order."""
    k = subsets.shape[1]
    binom = np.array([[math.comb(a, b) for b in range(k + 1)] for a in range(n_cols + 1)],
                     dtype=np.int64)
    tail = binom[n_cols - 1 - subsets, k - np.arange(k)].sum(axis=1)
    return math.comb(n_cols, k) - 1 - tail


class _OrbitTable(NamedTuple):
    """Column subsets grouped by a symmetry of the census."""

    reps: np.ndarray  # enumeration index of each orbit's first subset
    orbit_of: np.ndarray  # orbit index of every subset, enumeration order


@functools.lru_cache(maxsize=8)
def _orbit_table(n_pulses: int, n_hrr_bins: int, periodic: bool,
                 range_wrap: bool = False) -> _OrbitTable:
    """Orbits of the N-column subsets under the symmetries of Phi.

    With ``periodic`` (APPROXIMATE mode) the cell maps (m, l) -> (m, l + 1)
    and (m, l) -> (M - 1 - m, -l), l taken mod N, leave every subset's
    singular values unchanged: the first multiplies the submatrix by the row
    phases exp(2j pi n / N), the second conjugates it and applies the row
    phases exp(2j pi (M - 1) d_n).  They generate a group of order 2N.  With
    ``range_wrap`` as well (discrete codes with M* | M, so that
    R[n, m + M] = R[n, m]) the range shift (m, l) -> (m + 1 mod M, l), which
    applies the row phases exp(2j pi d_n), joins them: the translations of
    Z_M x Z_N and the reflection (m, l) -> (-m, -l) form a group of order
    2MN.  Without ``periodic`` only the identity applies and every subset is
    its own orbit.

    An orbit is named by its lexicographically first member.  Each subset
    starts with its own rank as label, and the smallest label is propagated
    along every generator's permutation of the subsets and its inverse until
    nothing changes, so no loop runs over the whole group.
    """
    N, M = n_pulses, n_hrr_bins
    n_cols = N * M
    subsets = _combination_indices(n_cols, N)
    label = np.arange(subsets.shape[0])  # each subset's own rank
    if periodic:
        m, l = np.divmod(np.arange(n_cols), N)
        generators = [m * N + (l + 1) % N, (M - 1 - m) * N + (-l) % N]
        if range_wrap:
            generators.append((m + 1) % M * N + l)
        # each generator's permutation of the subsets and its inverse, in one
        # block: one array per permutation fragmented the heap and raised the
        # process's peak RSS by about 1 MiB
        perms = np.empty((2 * len(generators), label.size), dtype=np.intp)
        for g, cell_map in enumerate(generators):
            perms[2 * g] = _lex_rank(np.sort(cell_map[subsets], axis=1), n_cols)
            perms[2 * g + 1, perms[2 * g]] = np.arange(label.size)
        while True:
            previous = label
            for perm in perms:
                label = np.minimum(label, label[perm])
            if np.array_equal(label, previous):
                break
    reps, orbit_of = np.unique(label, return_inverse=True)
    table = _OrbitTable(reps.astype(np.intp), orbit_of.astype(np.intp))
    for arr in table:
        arr.setflags(write=False)
    return table


# Z[exp(2j pi / L)] is the ring of Gaussian or Eisenstein integers exactly
# for these L: there a nonzero minor has |det| >= 1
_GAP_ORDERS = (1, 2, 3, 4, 6)


def _determinant_gap_applies(phi: SensingMatrix) -> bool:
    """True when every N x N minor of Phi is 0 or has |det| >= 1.

    In APPROXIMATE mode with discrete codes k_n / M*, entry (n, (m, l)) is
    exp(2j pi (m k_n / M* + l n / N)), an L-th root of unity with
    L = lcm(M*, N).  For L in ``_GAP_ORDERS`` every minor is a Gaussian or
    Eisenstein integer, whose modulus is 0 or at least 1.  The rounding
    error of a computed det, about N * N^(N/2) * eps (Hadamard:
    |det| <= N^(N/2)), stays far below the threshold 1/2: N divides L, so
    N <= 6 and the error is under 3e-13.
    """
    n_codes = phi.codes.n_codes
    if phi.params.mode is not BandwidthMode.APPROXIMATE or n_codes is None:
        return False
    return math.lcm(n_codes, phi.n_pulses) in _GAP_ORDERS


def _gram_sigma_bounds(lam: np.ndarray, n: int):
    """Normalized sigma estimates from Gram eigenvalues, and their intervals.

    ``lam`` holds the smallest computed eigenvalue of each N x N Gram A^H A
    of a submatrix A of Phi.  Every entry of A has modulus 1 up to
    rounding: within 2 eps where R takes one exponential per entry, and
    within about M/2 eps for continuous codes, whose R holds powers of one
    exponential per pulse (measured: 2 eps at N=6, M=3, 323 eps at N=2,
    M=700).  So ||A||_F^2 = N^2 (1 + rho) with rho about M eps, under 1e-9
    at any M the default census budget admits: the Gram's rounding error
    (inner products of N terms of modulus about 1) and the Hermitian
    eigensolver's backward error are each about N^3 eps (1 + rho)^2 in the
    2-norm, and by Weyl's inequality the exact sigma_N(A)^2 lies within
    delta = 16 N^3 eps of ``lam``, a factor of about 8 to spare.  The SVD's
    own absolute error is about N eps ||A||_2 <= N^2 eps (1 + rho), bounded
    by tau = 16 N^2 eps.  So the value the SVD returns, like the estimate
    sqrt(max(lam, 0)), lies in [sqrt(max(lam - delta, 0)) - tau,
    sqrt(lam + delta) + tau].  Returns the estimate and both ends, each
    divided by sqrt(N).
    """
    eps = np.finfo(np.float64).eps
    delta, tau = 16 * n ** 3 * eps, 16 * n ** 2 * eps
    sqrt_n = math.sqrt(n)
    estimate = np.sqrt(np.maximum(lam, 0.0)) / sqrt_n
    low = (np.sqrt(np.maximum(lam - delta, 0.0)) - tau) / sqrt_n
    high = (np.sqrt(np.maximum(lam + delta, 0.0)) + tau) / sqrt_n
    return estimate, low, high


def _svd_needed(low: np.ndarray, high: np.ndarray, eps_svd: float) -> np.ndarray:
    """Orbit representatives whose SVD value could change a census output.

    Each representative's sigma lies in [low, high]; where low == high it is
    exact already.  The outputs are each subset's side of ``eps_svd``, its
    bin of ``SIGMA_HIST_EDGES``, the smallest sigma, the largest sigma below
    ``eps_svd`` and the smallest at or above it.  An interval can change the
    first two only when it holds ``eps_svd`` or an edge, and an extreme only
    when it reaches past the bound that the intervals on its own side of
    ``eps_svd`` guarantee for that extreme.
    """
    below, above = high < eps_svd, low >= eps_svd
    edges = SIGMA_HIST_EDGES
    need = ~(below | above)
    need |= np.searchsorted(edges, low, "right") != np.searchsorted(edges, high, "right")
    if below.any():
        need |= below & (low <= high[below].min())  # the smallest sigma
        need |= below & (high >= low[below].max())  # the largest below eps_svd
    if above.any():
        need |= above & (low <= high[above].min())  # the smallest at or above it
    return need & (low < high)


def spark_enumeration(phi: SensingMatrix, eps_svd: float = 1e-15,
                      max_submatrices: int = 1_000_000) -> SparkReport:
    """Exhaustively test every N-column submatrix for rank deficiency.

    Covers the C(NM, N) column subsets in lexicographic order and flags those
    whose smallest singular value (normalized by sqrt(N)) is below
    ``eps_svd``.  Subsets related by a symmetry of Phi share their singular
    values, so the census runs once per orbit, on its first subset, and
    every subset takes its orbit's value.  In APPROXIMATE mode a Doppler
    shift and a range-Doppler reflection generate a group of order 2N (1,599
    orbits of the 18,564 subsets at N=6, M=3); discrete codes with M* | M
    add the range shift, for a group of order 2MN (564 orbits there).  EXACT
    mode stretches each pulse's Doppler by its own zeta_n, which breaks the
    wrap-around in l, and every subset is its own orbit.

    Where every minor is 0 or has |det| >= 1 (APPROXIMATE mode, discrete
    codes, lcm(M*, N) in {1, 2, 3, 4, 6}; see ``_determinant_gap_applies``),
    the census classifies on that gap (route ``"determinant_gap"``): a
    representative with |det| < 1/2 is singular and gets sigma = 0 exactly.
    The others have normalized sigma at least N^-(N - 1/2) (5.2e-5 at N=6),
    so any smaller ``eps_svd`` counts exactly the singular minors.
    Elsewhere, and always for continuous codes, every representative is
    compared with ``eps_svd`` (route ``"eps_svd"``).

    A representative's sigma, where the gap does not settle it, is first
    estimated from its N x N Gram, gathered from the Gram of the dense Phi:
    one batched Hermitian eigensolve gives sqrt(max(lambda_min, 0) / N),
    with an interval certain to hold the value the SVD would return (see
    ``_gram_sigma_bounds``; its half-width is about 1e-13 unless sigma is
    near 0).  The SVD runs only where the interval could change an output
    (see ``_svd_needed``): where it holds ``eps_svd`` or a histogram edge,
    or the representative could be the smallest sigma, the largest below
    ``eps_svd`` or the smallest at or above it.  That leaves about one SVD
    per continuous-code census at N=6, M=3 (at most 4 in 2000 draws).
    Every other entry of ``sigma_values`` is the Gram estimate, within its
    interval of the SVD value; ``sigma_omega``, ``n_below_eps``,
    ``sigma_hist_counts`` and those extremes are exactly what an SVD of
    every representative gives.  The representatives run in batches of
    ``_CENSUS_BATCH``, and the outcome does not depend on that size.
    Refuses to start when the subset count exceeds ``max_submatrices``, a
    real number (ConfigurationError); ``eps_svd`` must be a finite number
    > 0 (DomainError).
    """
    check_positive("eps_svd", eps_svd, error=DomainError)
    (N, n_cols), params, codes = check_attributes("a SensingMatrix", phi,
                                                  "shape", "params", "codes")
    total = math.comb(n_cols, N)
    if total > check_real("max_submatrices", max_submatrices):
        raise ResourceError(
            f"C({n_cols}, {N}) = {total} submatrices exceeds the budget of "
            f"{max_submatrices}; raise max_submatrices to force the enumeration"
        )
    M, n_codes = params.n_hrr_bins, codes.n_codes
    periodic = params.mode is BandwidthMode.APPROXIMATE
    range_wrap = periodic and n_codes is not None and M % n_codes == 0
    reps, orbit_of = _orbit_table(N, M, periodic, range_wrap)
    gap = _determinant_gap_applies(phi)
    dense = phi.to_dense()
    gram = dense.conj().T @ dense
    combos = _combination_indices(n_cols, N)
    lam = np.zeros(reps.size)  # smallest Gram eigenvalue of each representative
    rep_dets = np.empty(reps.size if gap else 0)
    for start in range(0, reps.size, _CENSUS_BATCH):
        idx = combos[reps[start:start + _CENSUS_BATCH]]
        batch = np.arange(start, start + idx.shape[0])
        if gap:
            rep_dets[batch] = np.abs(np.linalg.det(np.moveaxis(dense[:, idx], 1, 0)))
            nonsingular = rep_dets[batch] >= 0.5
            idx, batch = idx[nonsingular], batch[nonsingular]
        lam[batch] = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])[:, 0]
    rep_sigmas, low, high = _gram_sigma_bounds(lam, N)
    singular = rep_dets < 0.5
    if gap:  # exactly 0: a point interval
        rep_sigmas[singular] = low[singular] = high[singular] = 0.0
    todo = np.flatnonzero(_svd_needed(low, high, eps_svd))
    for start in range(0, todo.size, _CENSUS_BATCH):
        batch = todo[start:start + _CENSUS_BATCH]
        sub = np.moveaxis(dense[:, combos[reps[batch]]], 1, 0)
        rep_sigmas[batch] = np.linalg.svd(sub, compute_uv=False)[:, -1] / math.sqrt(N)
    sigmas = rep_sigmas[orbit_of]
    return SparkReport(
        sigma_values=sigmas,
        sigma_omega=float(sigmas.min()),
        n_submatrices=total,
        eps_svd=eps_svd,
        n_below_eps=int(np.count_nonzero(sigmas < eps_svd)),
        sigma_hist_counts=np.histogram(sigmas, bins=SIGMA_HIST_EDGES)[0],
        route="determinant_gap" if gap else "eps_svd",
        det_singular_max=float(rep_dets[singular].max()) if singular.any() else None,
        det_nonsingular_min=float(rep_dets[~singular].min()) if not singular.all() else None,
    )


def chi(params: RadarParams, codes: FrequencyCodes, p: float, q: float) -> complex:
    """Normalized cross-correlation of two sensing columns separated by (p, q).

    chi = (1/N) sum_n exp(1j * (p * M * d_n + q * n * zeta_n)) for on-grid
    phase offsets p = 2*pi*m/M and q = 2*pi*l/N, with zeta_n from
    ``pulse_doppler_scalings`` (1 in APPROXIMATE mode).  In either mode this
    is the Gram entry of any two columns whose cells differ by (+m, +l),
    divided by N.  APPROXIMATE mode is periodic in l, so the value also holds
    for Doppler offset l - N; EXACT mode is not, and its negative Doppler
    offsets are outside the q range accepted here.
    """
    M, N = check_attributes("RadarParams", params, "n_hrr_bins", "n_pulses")
    _phase_cell(p, M, "p")
    _phase_cell(q, N, "q")
    n_scaled = np.arange(N) * pulse_doppler_scalings(params, codes)
    vals = np.exp(1j * (p * M * codes.codes + q * n_scaled))
    return complex(vals.sum() / N)


@dataclass
class CoherenceSample:
    """Mutual coherence of one code realization."""

    mu: float
    method: str  # "shortcut" or "gram"


def coherence(phi) -> CoherenceSample:
    """Mutual coherence: the largest normalized column cross-correlation.

    A ``SensingMatrix`` takes the difference shortcut, which reads the
    operator's factors R (N x M) and D (N x N).  Since zeta_n depends only on
    the pulse, columns whose cells differ by (dm, dl) with dm >= 0 have inner
    product sum_n R[n, dm] D[n, dl] for dl >= 0 and sum_n R[n, dm] conj(D[n, -dl])
    for dl <= 0, whatever the base cell.  So chi+ = D^T R / N and
    chi- = D^H R / N hold every normalized Gram entry up to conjugation, and
    mu is their largest magnitude off (dm, dl) = (0, 0).  In EXACT mode
    they come from one dense product, D^T [R, conj(R)], since |D^H R| is
    |D^T conj(R)|.  In APPROXIMATE mode D is the unnormalized inverse DFT:
    its columns are orthogonal, so the dm = 0 entries vanish
    exactly and are not evaluated, and D^H R is the forward DFT of R's
    columns, whose magnitudes are those of D^T R with dl mirrored to
    (N - dl) mod N.  One FFT over the pulses of R's other M - 1 columns
    therefore gives mu, without reading D.  A plain complex matrix takes
    the Gram route: all pairwise inner products, each column normalized by
    its own norm.
    """
    if isinstance(phi, SensingMatrix):
        R = phi.hop_response
        if phi.is_row_orthogonal():
            return CoherenceSample(mu=float(_dft_coherence(R[None])[0]), method="shortcut")
        # |D^T conj(R)| = |D^H R|: (dl, dm) with dl >= 0, then (-dl, dm) with dl <= 0
        chi = np.abs(phi.doppler_response.T @ np.concatenate((R, R.conj()), axis=1))
        chi[0, 0] = chi[0, R.shape[1]] = 0.0  # each column with itself
        return CoherenceSample(mu=float(min(chi.max() / phi.n_pulses, 1.0)), method="shortcut")
    dense = check_array("phi", phi, np.complex128)
    if dense.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {dense.shape}")
    norms = np.linalg.norm(dense, axis=0)
    if np.any(norms == 0.0):
        raise DomainError("matrix has a zero column; coherence undefined")
    gram = np.abs(dense.conj().T @ dense) / np.outer(norms, norms)
    np.fill_diagonal(gram, 0.0)
    return CoherenceSample(mu=float(min(gram.max(), 1.0)), method="gram")


def _dft_coherence(hop_responses: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """APPROXIMATE-mode mu of each hop response R in a (T, N, M) stack, shape (T,).

    The largest magnitude of the FFT over the pulses of R's columns 1..M-1,
    divided by N and capped at 1 (see ``coherence``).  numpy's FFT
    transforms each column on its own, so each mu is bit for bit that of
    its R scored alone.  With ``overwrite`` the FFT runs in place in the
    stack, which then holds the spectra in its columns 1..M-1.
    """
    columns = hop_responses[:, :, 1:]
    spectra = np.fft.fft(columns, axis=1, out=columns if overwrite else None)
    peak = np.abs(spectra).max(axis=(1, 2), initial=0.0)
    return np.minimum(peak / hop_responses.shape[1], 1.0)


class TailBound(NamedTuple):
    """Tail probability bound with its validity flag."""

    value: float
    asymptotic_valid: bool  # N * eps^2 > 2/pi, where the Rayleigh bound holds


def rayleigh_tail_bound(eps: float, n_pulses: int) -> TailBound:
    """Asymptotic bound P(|chi| > eps) <= exp(-N eps^2 / 2) for one offset.

    exp(-N eps^2 / 2) is the exponent of the paper's union bound.  For a
    complex offset it is the looser of two: the Rayleigh limit of |chi|,
    with E|chi|^2 = 1/N, gives exp(-N eps^2).  Where chi is a real-valued
    walk of N independent +-1/N steps, Hoeffding's inequality gives it, as
    2 exp(-N eps^2 / 2).  The flag is True only where N * eps^2 > 2/pi;
    elsewhere the value is merely the evaluated expression.  ``eps`` must be
    a real number > 0 (DomainError) and N an integer >= 1
    (ConfigurationError).
    """
    if not check_real("eps", eps, DomainError) > 0:
        raise DomainError(f"eps must be a real number > 0, got {eps!r}")
    n_pulses = check_integer("n_pulses", n_pulses, 1)
    n_eps2 = n_pulses * eps * eps
    return TailBound(value=math.exp(-0.5 * n_eps2), asymptotic_valid=n_eps2 > 2.0 / math.pi)


def union_bound(eps: float, n_pulses: int, n_hrr_bins: int) -> float:
    """Union bound P(mu > eps) <= (MN - N) exp(-N eps^2 / 2), returned raw.

    Each offset counts at the paper's exponent (``rayleigh_tail_bound``).
    The value can exceed 1 for small eps; callers clip to [0, 1] when using
    it as a probability.  An ``eps`` that is not a real number > 0 (NaN, a
    bool, a string) is a DomainError; N and M must be integers >= 1
    (ConfigurationError).
    """
    if not check_real("eps", eps, DomainError) > 0:
        raise DomainError(f"eps must be a real number > 0, got {eps!r}")
    n_pulses = check_integer("n_pulses", n_pulses, 1)
    n_hrr_bins = check_integer("n_hrr_bins", n_hrr_bins, 1)
    n_offsets = n_pulses * n_hrr_bins - n_pulses
    return n_offsets * rayleigh_tail_bound(eps, n_pulses).value


def max_recoverable_K(n_pulses: int, n_hrr_bins: int, delta: float) -> float:
    """Sparsity supporting coherence-based recovery with probability 1 - delta.

    K = (1 / (2 sqrt(2))) * sqrt(N / (ln(MN - N) - ln(delta))) + 1/2.
    Requires a real number 0 < delta < 1 and N(M - 1) >= 2 so the logarithm
    is positive (DomainError); N and M must be integers >= 1
    (ConfigurationError).
    """
    if not 0.0 < check_real("delta", delta, DomainError) < 1.0:
        raise DomainError(f"delta must be a real number in (0, 1), got {delta!r}")
    n_pulses = check_integer("n_pulses", n_pulses, 1)
    n_hrr_bins = check_integer("n_hrr_bins", n_hrr_bins, 1)
    if n_pulses * (n_hrr_bins - 1) < 2:
        raise DomainError(
            f"need N(M-1) >= 2 off-bin offsets, got N={n_pulses}, M={n_hrr_bins}"
        )
    denom = math.log(n_pulses * n_hrr_bins - n_pulses) - math.log(delta)
    return math.sqrt(n_pulses / denom) / (2.0 * math.sqrt(2.0)) + 0.5


def l0_limit(n_pulses: int) -> float:
    """Largest sparsity with a unique l0 solution under full spark: N / 2.

    ``n_pulses`` must be an integer >= 1 (ConfigurationError).
    """
    return check_integer("n_pulses", n_pulses, 1) / 2.0


class ChiStatistics(NamedTuple):
    """Monte-Carlo moments of chi at one grid offset over random codes."""

    mean: complex
    var_real: float
    var_imag: float
    cov: float  # covariance of real and imaginary parts
    abs_sq_mean: float  # estimate of E|chi|^2
    n_trials: int


def chi_statistics(params: RadarParams, p: float, q: float, n_trials: int,
                   seed=0) -> ChiStatistics:
    """Sample moments of chi over fresh discrete code draws.

    Uses the full-alphabet hop set (n_codes == n_hrr_bins), for which the
    per-pulse terms are zero-mean: E|chi|^2 = 1/N at every off-bin offset,
    and away from the degenerate all-real offset (pi, pi) the real and
    imaginary parts each carry variance 1/(2N) with zero covariance.
    """
    N, M, n_codes = check_attributes("RadarParams", params, "n_pulses", "n_hrr_bins", "n_codes")
    if n_codes != M:
        raise ConfigurationError(
            "chi statistics are defined for the full-alphabet hop set "
            f"(n_codes == n_hrr_bins), got n_codes={n_codes}"
        )
    m = _phase_cell(p, M, "p")
    _phase_cell(q, N, "q")
    if m == 0:
        raise DomainError("p = 0 makes chi deterministic; pick an off-bin offset")
    n_trials = check_integer("n_trials", n_trials, 2)
    rng = _default_rng(seed)
    n_phase = q * np.arange(N)
    chi_vals = np.empty(n_trials, dtype=np.complex128)
    for start in range(0, n_trials, _CHI_BLOCK):
        stop = min(start + _CHI_BLOCK, n_trials)
        d = rng.integers(0, M, size=(stop - start, N)) / M
        chi_vals[start:stop] = np.exp(1j * (p * M * d + n_phase)).sum(axis=1) / N
    re, im = chi_vals.real, chi_vals.imag
    return ChiStatistics(
        mean=complex(chi_vals.mean()),
        var_real=float(re.var(ddof=1)),
        var_imag=float(im.var(ddof=1)),
        cov=float(np.cov(re, im, ddof=1)[0, 1]),
        abs_sq_mean=float(np.mean(re * re + im * im)),
        n_trials=n_trials,
    )
