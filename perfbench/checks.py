"""Output checks made apart from farcs.

Every reference here is computed from the signal model with numpy alone, or
is a property the method must have; nothing is compared with a saved copy of
earlier output. A per-trial check that fails marks its trial failed; a
run-level check that fails makes the run incorrect.

Tolerances were set from measurements on farcs outputs (see README.md) with
a wide margin, and each one is shown to reject a corrupted output by
``selftest.py``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

# Exact pooled singular-minor fraction at N=6, M=M*=3 over all 3**6 code
# vectors (selftest.py recomputes it), and the per-vector standard deviation.
CENSUS_POOLED_FRACTION = 0.36098
CENSUS_VECTOR_SD = 0.178
CENSUS_SE_MULTIPLE = 5.0
# Every minor at N=6, M*=3 is an Eisenstein integer: |det| is 0 or >= 1.
# Measured: singular minors |det| <= 4.6e-13, nonsingular >= 9.
CENSUS_DET_SINGULAR = 0.5

MU_ABS_TOL = 1e-11  # |mu - brute-force Gram mu|; measured agreement ~1e-15
BP_FEASIBILITY_RTOL = 1e-6  # ||Phi x - y|| / ||y||; measured <= 4e-14
SP_ORTHOGONALITY_RTOL = 1e-9  # |Phi_S^H r|_inf / (||Phi_S|| ||r||); measured <= 3e-14
# Lasso KKT: ||Phi^H (y - Phi x)||_inf <= lam (1 + LASSO_GRAD_TOL), measured
# up to lam * 1.51; on the support the gradient must equal lam * x_j / |x_j|,
# checked as the coordinate step |g_j - lam u_j| / ||phi_j||^2 that would
# restore equality, relative to max |x|; measured up to 0.014.
LASSO_GRAD_TOL = 1.0
LASSO_STATIONARITY_TOL = 0.05

BP_MIN_RATE = 0.95  # basis pursuit at K <= 3
SP_MIN_RATE = 0.90  # subspace pursuit at -15 dB
LASSO_MIN_RATE = 0.70  # lasso at -15 dB
MF_SPARSITY = 1  # matched filter must succeed on every trial at this K
RATE_NOISE_DB = -15.0


# --- independent model computations ------------------------------------------

def model_phi(codes, n_hrr_bins: int, relative_bandwidth: float = 0.0) -> np.ndarray:
    """Dense N x NM sensing matrix from the signal model.

    Entry (n, l + m N) is exp(2 pi i (m d_n + l n zeta_n / N)) with
    zeta_n = 1 + d_n B/f_c (1 in the narrowband approximation).
    """
    d = np.asarray(codes, dtype=float)
    n_pulses = d.size
    zeta = 1.0 + d * relative_bandwidth
    m, l = np.divmod(np.arange(n_pulses * n_hrr_bins), n_pulses)
    n = np.arange(n_pulses)[:, None]
    return np.exp(2j * np.pi * (d[:, None] * m + l * n * zeta[:, None] / n_pulses))


def trial_seed(master_seed: int, n_trials: int, sweep_idx: int, trial_idx: int) -> int:
    """farcs' documented seed of trial t at sweep point s."""
    return master_seed + sweep_idx * n_trials + trial_idx


def discrete_hops(seed: int, n_pulses: int, n_codes: int) -> tuple:
    """Hop indices k_n (codes k_n / M*) of a spark trial seeded with an int."""
    return tuple(int(k) for k in np.random.default_rng(seed).integers(0, n_codes, size=n_pulses))


def brute_force_mu(phi: np.ndarray) -> float:
    """Largest normalized off-diagonal Gram entry."""
    cols = phi / np.linalg.norm(phi, axis=0)
    gram = np.abs(cols.conj().T @ cols)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def union_bound(eps: np.ndarray, n_pulses: int, n_hrr_bins: int) -> np.ndarray:
    """(NM - N) exp(-N eps^2 / 2), the paper's union bound on P(mu > eps)."""
    return (n_pulses * n_hrr_bins - n_pulses) * np.exp(-0.5 * n_pulses * eps * eps)


class ExactCensus:
    """Exact singular-minor counts at N=6, M=M*=3 from determinants.

    A global code shift scales columns by unit-modulus factors, so the count
    depends only on the shift class; results are cached per class.
    """

    n_pulses = 6
    n_codes = 3

    def __init__(self):
        n_cols = self.n_pulses * self.n_codes
        self._combos = np.array(list(itertools.combinations(range(n_cols), self.n_pulses)))
        self._cache: dict[tuple, int] = {}

    @property
    def n_submatrices(self) -> int:
        return len(self._combos)

    def count(self, hops) -> int:
        key = shift_class(hops, self.n_codes)
        if key not in self._cache:
            phi = model_phi(np.asarray(hops) / self.n_codes, self.n_codes)
            minors = np.linalg.det(np.moveaxis(phi[:, self._combos], 1, 0))
            self._cache[key] = int(np.count_nonzero(np.abs(minors) < CENSUS_DET_SINGULAR))
        return self._cache[key]


def shift_class(hops, n_codes: int) -> tuple:
    """Canonical representative of a code vector up to a global hop shift."""
    return tuple((k - hops[0]) % n_codes for k in hops)


# --- per-output checks: None when the output passes, else a message -----------

def check_census_count(n_below: int, exact: int):
    if n_below != exact:
        return f"n_below_eps {n_below} != exact singular-minor count {exact}"
    return None


def check_sigma(sigma_omega: float, discrete: bool):
    low_ok = sigma_omega >= 0.0 if discrete else sigma_omega > 0.0
    if not (low_ok and sigma_omega <= 1.0):
        return f"sigma_omega {sigma_omega!r} outside {'[0' if discrete else '(0'}, 1]"
    return None


def check_mu_range(mu: float):
    if not 0.0 < mu <= 1.0:
        return f"mu {mu!r} outside (0, 1]"
    return None


def check_mu_reference(mu: float, phi: np.ndarray):
    ref = brute_force_mu(phi)
    if abs(mu - min(ref, 1.0)) > MU_ABS_TOL:
        return f"mu {mu!r} differs from brute-force Gram mu {ref!r}"
    return None


def check_bp(phi: np.ndarray, y: np.ndarray, x: np.ndarray):
    rel = np.linalg.norm(phi @ x - y) / np.linalg.norm(y)
    if not rel <= BP_FEASIBILITY_RTOL:
        return f"BP iterate infeasible: ||Phi x - y|| / ||y|| = {rel:.3e}"
    return None


def lasso_kkt(phi: np.ndarray, y: np.ndarray, x: np.ndarray, lam: float):
    """(gradient excess over lam, on-support stationarity) of a lasso point."""
    grad = phi.conj().T @ (y - phi @ x)
    excess = float(np.abs(grad).max() / lam - 1.0)
    nz = x != 0
    if not nz.any():
        return excess, 0.0
    col_sq = np.sum(np.abs(phi[:, nz]) ** 2, axis=0)
    step = np.abs(grad[nz] - lam * x[nz] / np.abs(x[nz])) / col_sq
    return excess, float(step.max() / np.abs(x).max())


def check_lasso(phi: np.ndarray, y: np.ndarray, x: np.ndarray, lam: float):
    excess, stationarity = lasso_kkt(phi, y, x, lam)
    if not excess <= LASSO_GRAD_TOL:
        return f"lasso gradient |Phi^H r|_inf = lam * {1 + excess:.3f}"
    if not stationarity <= LASSO_STATIONARITY_TOL:
        return f"lasso off stationarity on its support by {stationarity:.3e} of max|x|"
    return None


def check_sp(phi: np.ndarray, y: np.ndarray, x: np.ndarray, support):
    support = list(support)
    if np.any(np.delete(x, support) != 0):
        return "SP estimate is nonzero off its support"
    residual = y - phi @ x
    r_norm = np.linalg.norm(residual)
    if r_norm == 0.0 or not support:
        return None
    cols = phi[:, support]
    rel = np.abs(cols.conj().T @ residual).max() / (np.linalg.norm(cols, 2) * r_norm)
    if not rel <= SP_ORTHOGONALITY_RTOL:
        return f"SP residual not orthogonal to its support: {rel:.3e}"
    return None


def check_census_pooled(n_below_total: int, n_submatrices_total: int, n_trials: int):
    pooled = n_below_total / n_submatrices_total
    limit = CENSUS_SE_MULTIPLE * CENSUS_VECTOR_SD / math.sqrt(n_trials)
    if abs(pooled - CENSUS_POOLED_FRACTION) > limit:
        return (f"pooled deficient fraction {pooled:.5f} over {n_trials} trials is "
                f"{abs(pooled - CENSUS_POOLED_FRACTION):.5f} from {CENSUS_POOLED_FRACTION} "
                f"(limit {limit:.5f})")
    return None


def check_union_bound(grid, empirical, mus, n_pulses: int, n_hrr_bins: int):
    """The union bound dominates the empirical exceedance where it is <= 1."""
    grid = np.asarray(grid, dtype=float)
    mus = np.asarray(mus, dtype=float)
    recomputed = np.array([np.mean(mus > e) for e in grid])
    if not np.array_equal(recomputed, np.asarray(empirical, dtype=float)):
        return "sidecar empirical exceedance disagrees with the CSV mu values"
    bound = union_bound(grid, n_pulses, n_hrr_bins)
    valid = bound <= 1.0
    if not valid.any():
        return "union bound exceeds 1 on the whole epsilon grid"
    if np.any(recomputed[valid] > bound[valid]):
        worst = np.argmax(recomputed - np.where(valid, bound, np.inf))
        return (f"empirical exceedance {recomputed[worst]} above union bound "
                f"{bound[worst]:.3e} at eps {grid[worst]:.4f}")
    return None


def check_rate(label: str, successes: int, total: int, minimum: float):
    if total == 0:
        return f"{label}: no trials"
    if successes / total < minimum:
        return f"{label}: success rate {successes}/{total} below {minimum}"
    return None


# --- checks of the CSV and sidecar files a run leaves -------------------------

def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def trial_index(row: dict, sweep_keys: list, n_trials: int, key_field: str) -> int:
    return sweep_keys.index(row[key_field]) * n_trials + int(row["trial"])


class OutputChecker:
    """Checks every round's output files of one run and pools run-level stats.

    ``check_round`` returns the failed trials of the round, keyed by
    (round, config index, trial index within the config), with the reason;
    ``finish`` returns the run-level check failures.
    """

    def __init__(self, specs):
        self.specs = specs
        self.errors: list[str] = []
        self._census = None
        self._pooled = [0, 0, 0]  # singular minors, submatrices, trials
        self._rates = defaultdict(lambda: [0, 0])
        self._fixed_hops = fixed_census_hops(specs)

    @property
    def census(self) -> ExactCensus:
        if self._census is None:
            self._census = ExactCensus()
        return self._census

    def check_round(self, round_idx: int, masters: list[int], paths: list[Path]) -> dict:
        failed = {}
        for config_idx, (spec, master, path) in enumerate(zip(self.specs, masters, paths)):
            sidecar = json.loads(path.with_suffix(".json").read_text())
            if sidecar["config"]["master_seed"] != master:
                self.errors.append(f"{path.name}: sidecar master_seed "
                                   f"{sidecar['config']['master_seed']} != {master}")
            rows = read_csv(path)
            check = getattr(self, "_check_" + spec.experiment)
            for trial, message in check(spec, master, rows, sidecar):
                if trial is None:
                    self.errors.append(f"{path.name}: {message}")
                else:
                    failed[round_idx, config_idx, trial] = f"{path.name}: {message}"
        return failed

    def finish(self) -> list[str]:
        errors = list(self.errors)
        n_below, n_sub, n_trials = self._pooled
        if n_trials:
            msg = check_census_pooled(n_below, n_sub, n_trials)
            if msg:
                errors.append(msg)
        minimums = {"bp K<=3": BP_MIN_RATE, f"sp {RATE_NOISE_DB} dB": SP_MIN_RATE,
                    f"lasso {RATE_NOISE_DB} dB": LASSO_MIN_RATE}
        for label, (ok, total) in sorted(self._rates.items()):
            msg = check_rate(label, ok, total, minimums[label])
            if msg:
                errors.append(msg)
        return errors

    # one generator per experiment, yielding (trial or None, message)

    def _check_spark(self, spec, master, rows, sidecar):
        discrete = _is_discrete_census(spec)
        if len(rows) != spec.n_trials:
            yield None, f"{len(rows)} rows for {spec.n_trials} trials"
        n_sub = sidecar["aggregates"]["n_submatrices"]
        for row in rows:
            t = int(row["trial"])
            n_below = int(row["n_below_eps"])
            msg = check_sigma(float(row["sigma_omega"]), discrete)
            if msg is None and discrete:
                hops = discrete_hops(trial_seed(master, spec.n_trials, 0, t),
                                     spec.raw["n_pulses"], spec.raw["n_codes"])
                if spec.fixed_seed is not None or hops not in self._fixed_hops:
                    msg = check_census_count(n_below, self.census.count(hops))
                if spec.fixed_seed is None:
                    self._pooled[0] += n_below
                    self._pooled[1] += n_sub
                    self._pooled[2] += 1
            elif msg is None and n_below != 0:
                msg = f"{n_below} submatrices below eps_svd with continuous codes"
            if msg:
                yield t, msg
        if discrete and n_sub != self.census.n_submatrices:
            yield None, f"n_submatrices {n_sub} != {self.census.n_submatrices}"
        per_trial = sidecar["aggregates"]["fraction_trials_deficient"]
        if per_trial != (1.0 if discrete else 0.0):
            yield None, f"per-trial deficiency rate {per_trial}"

    def _check_mip(self, spec, master, rows, sidecar):
        keys = [a if isinstance(a, str) else repr(float(a)) for a in spec.sweep]
        if len(rows) != spec.trials:
            yield None, f"{len(rows)} rows for {spec.trials} trials"
        mus = defaultdict(list)
        for row in rows:
            mu = float(row["mu"])
            mus[row["arm"]].append(mu)
            msg = check_mu_range(mu)
            if msg:
                yield trial_index(row, keys, spec.n_trials, "arm"), msg
        ag = sidecar["aggregates"]
        if "0.0" in keys:
            msg = check_union_bound(ag["epsilon_grid"], ag["empirical_exceedance"]["0.0"],
                                    mus["0.0"], spec.raw["n_pulses"], spec.raw["n_hrr_bins"])
            if msg:
                yield None, msg

    def _check_phase(self, spec, master, rows, sidecar):
        keys = [str(k) for k in spec.sweep]
        yield from self._check_rates(spec, rows, sidecar, keys, "K")
        for row in rows:
            if row["solver"] == "mf" and int(row["K"]) == MF_SPARSITY and row["success"] != "1":
                yield trial_index(row, keys, spec.n_trials, "K"), "matched filter missed K=1"
            if row["solver"] == "bp" and int(row["K"]) <= 3:
                self._count_rate("bp K<=3", row)

    def _check_noisy(self, spec, master, rows, sidecar):
        keys = [repr(float(db)) for db in spec.sweep]
        yield from self._check_rates(spec, rows, sidecar, keys, "sigma2_db")
        for row in rows:
            if float(row["sigma2_db"]) == RATE_NOISE_DB:
                self._count_rate(f"{row['solver']} {RATE_NOISE_DB} dB", row)

    def _count_rate(self, label, row):
        self._rates[label][0] += row["success"] == "1"
        self._rates[label][1] += 1

    def _check_rates(self, spec, rows, sidecar, keys, key_field):
        """Rows cover every trial twice (two solvers); sidecar rates match them."""
        if len(rows) != 2 * spec.trials:
            yield None, f"{len(rows)} rows for {spec.trials} trials of two solvers"
        counts = defaultdict(int)
        for row in rows:
            counts[row["solver"], row[key_field]] += row["success"] == "1"
        for solver, by_key in sidecar["aggregates"]["success_rate"].items():
            for key, rate in by_key.items():
                if counts[solver, key] / spec.n_trials != rate:
                    yield None, f"sidecar {solver} rate {rate} at {key} disagrees with the CSV"


def fixed_census_hops(specs) -> set:
    """Code vectors drawn by the fixed-seed census configs of a workload.

    Their outcome is checked and counted through those configs in every
    round, so a random trial that draws one of them is not counted again.
    """
    hops = set()
    for spec in specs:
        if not _is_discrete_census(spec):
            continue
        if (spec.raw["n_pulses"], spec.raw["n_hrr_bins"], spec.raw["n_codes"]) != (6, 3, 3):
            raise ValueError(f"{spec.name}: exact census counts need N=6, M=M*=3")
        if spec.fixed_seed is not None:
            for t in range(spec.n_trials):
                hops.add(discrete_hops(trial_seed(spec.fixed_seed, spec.n_trials, 0, t),
                                       spec.raw["n_pulses"], spec.raw["n_codes"]))
    return hops


def _is_discrete_census(spec) -> bool:
    return spec.experiment == "spark" and spec.raw.get("code_distribution",
                                                       "discrete") == "discrete"
