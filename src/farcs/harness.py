"""Monte-Carlo experiment drivers with deterministic, file-backed outputs.

Five experiments: ``spark`` (submatrix rank census), ``mip`` (coherence
distribution vs. its union bound), ``phase`` (noiseless phase transition of
matched filtering vs. basis pursuit), ``noisy`` (subspace pursuit vs. lasso
under noise), and ``bounds`` (tabulated sparsity guarantees).

``run_experiment`` is the one driver.  It looks the experiment up in a
table that gives its CSV columns, a sweep check, a task list with the work
function that runs each task, and a function that collects the outcomes into
rows and aggregates.  Each task carries the frozen config, and in ``mip``,
``phase`` and ``noisy`` its sweep point's ``RadarParams``, which the task
list builds once per point before any task runs; the tasks run in order in
this process, or through one process pool with ``threads > 1``.
Trial t of sweep point s always runs on the seed
``master_seed + s * n_trials + t``, so results are reproducible record for
record regardless of worker count.

``spark`` censuses each discrete code class once per process, on its
canonical member, and keeps the outcome (one table per pool worker, at most
one outcome per class and 4,096 in all), so a later draw of any member of
the class reads the outcome instead of censusing; outputs are the same
whatever ran before.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (
    SIGMA_HIST_EDGES,
    coherence,
    l0_limit,
    max_recoverable_K,
    spark_enumeration,
    union_bound,
)
from .errors import ConfigurationError, check_integer, check_positive
from .sensing import build_phi
from .signal_model import FrequencyCodes, RadarParams, add_noise, sample_codes
# noisy runs lasso_block; lasso stays imported because perfbench's tracer
# wraps the solver names this module imports
from .solvers import (
    SolverConfig,
    basis_pursuit,
    extract_support,
    lasso,
    lasso_block,
    matched_filter,
    subspace_pursuit,
)

EXPERIMENTS = ("spark", "mip", "phase", "noisy", "bounds")

@dataclass(frozen=True)
class SolverSettings:
    """Recovery solver knobs; construction builds each solver's config once, not as a field."""

    bp_max_iter: int = 10000
    bp_residual_tol: float = 1e-8
    support_threshold: float = 1e-2  # noiseless support extraction
    lasso_lambda_factor: float = 3.0  # lam = factor * sigma2
    lasso_support_threshold: float = 0.2
    lasso_max_iter: int = 5000
    lasso_objective_tol: float = 1e-6
    sp_max_iter: int = 100

    def __post_init__(self):  # attributes, not fields: asdict and the sidecar leave them out
        # checked here so that an error names the settings key, not the SolverConfig field
        for name in ("bp_max_iter", "lasso_max_iter", "sp_max_iter"):
            check_integer(name, getattr(self, name), 1)
        for name in ("bp_residual_tol", "support_threshold", "lasso_support_threshold",
                     "lasso_objective_tol"):
            check_positive(name, getattr(self, name))
        check_positive("lasso_lambda_factor", self.lasso_lambda_factor, zero_ok=True)
        object.__setattr__(self, "bp_config", SolverConfig(
            max_iter=self.bp_max_iter, residual_tol=self.bp_residual_tol,
            magnitude_threshold=self.support_threshold))
        object.__setattr__(self, "sp_config", SolverConfig(max_iter=self.sp_max_iter))
        object.__setattr__(self, "lasso_config", SolverConfig(
            max_iter=self.lasso_max_iter, residual_tol=self.lasso_objective_tol,
            magnitude_threshold=self.lasso_support_threshold))


_INTEGER_MINIMUMS = {"n_pulses": 1, "n_hrr_bins": 1, "n_codes": 1, "n_trials": 1,
                     "master_seed": 0, "epsilon_count": 2, "n_scatterers": 1,
                     "max_submatrices": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment run.

    ``sweep`` holds the experiment's sweep points: B/f_c arms (floats or
    the string "continuous") for ``mip``, sparsity levels for ``phase``,
    noise powers in dB for ``noisy``, and (N, M, delta) triples for
    ``bounds``; ``spark`` takes no sweep.
    """

    experiment: str
    n_pulses: int = 64
    n_hrr_bins: int = 8
    n_codes: int | None = None
    n_trials: int = 200
    master_seed: int = 0
    sweep: tuple = ()
    output_path: str | None = None
    code_distribution: str = "discrete"  # spark only: "discrete" | "continuous"
    eps_svd: float = 1e-15
    max_submatrices: int = 1_000_000
    epsilon_max: float = 0.6  # coherence exceedance grid upper end
    epsilon_count: int = 200
    n_scatterers: int = 3  # noisy only: scene sparsity
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        for name, least in _INTEGER_MINIMUMS.items():
            if not (name == "n_codes" and self.n_codes is None):
                object.__setattr__(self, name, check_integer(name, getattr(self, name), least))
        if self.code_distribution not in ("discrete", "continuous"):
            raise ConfigurationError(
                f"code_distribution must be 'discrete' or 'continuous', "
                f"got {self.code_distribution!r}"
            )
        check_positive("epsilon_max", self.epsilon_max)
        check_positive("eps_svd", self.eps_svd)
        if self.experiment == "noisy" and self.n_scatterers > self.n_pulses:
            raise ConfigurationError(f"noisy fits n_scatterers columns to n_pulses samples: "
                                     f"{self.n_scatterers} > {self.n_pulses}")
        if not isinstance(self.sweep, (list, tuple)):
            raise ConfigurationError(f"sweep must be a list of points, got {self.sweep!r}")
        sweep = tuple(tuple(s) if isinstance(s, (list, tuple)) else s for s in self.sweep)
        object.__setattr__(self, "sweep", sweep)
        if self.experiment != "spark" and not sweep:
            raise ConfigurationError(f"experiment {self.experiment!r} needs a non-empty sweep")


def default_config(experiment: str) -> ExperimentConfig:
    """Desk-scale defaults for each experiment."""
    defaults = _EXPERIMENTS[experiment].defaults if experiment in _EXPERIMENTS else {}
    return ExperimentConfig(experiment=experiment, **defaults)


def load_config(path) -> ExperimentConfig:
    """Read a JSON config; keys not in ExperimentConfig are errors."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config root must be an object, got {type(raw).__name__}")
    if "experiment" not in raw:
        raise ConfigurationError("config is missing the 'experiment' key")
    if not isinstance(raw["experiment"], str):
        raise ConfigurationError(f"experiment must be a name, got {raw['experiment']!r}")
    solver_raw = raw.pop("solver", None)
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    base = default_config(raw["experiment"])
    if solver_raw is not None:
        if not isinstance(solver_raw, dict):
            raise ConfigurationError(f"solver must be an object, got {solver_raw!r}")
        solver_known = {f.name for f in fields(SolverSettings)}
        solver_unknown = sorted(set(solver_raw) - solver_known)
        if solver_unknown:
            raise ConfigurationError(f"unknown solver keys: {', '.join(solver_unknown)}")
        raw["solver"] = dataclasses.replace(base.solver, **solver_raw)
    return dataclasses.replace(base, **raw)


@dataclass(frozen=True)
class TrialRecord:
    """One output row of an experiment."""

    values: tuple


@dataclass
class ExperimentResult:
    """Per-trial records plus summary aggregates for one experiment run."""

    experiment: str
    columns: tuple[str, ...]
    rows: list[TrialRecord]
    aggregates: dict
    config: dict

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for rec in self.rows:
            lines.append(",".join(_fmt(v) for v in rec.values))
        return "\n".join(lines) + "\n"

    def write(self, out_path) -> tuple[Path, Path]:
        """Write the CSV and its JSON sidecar; returns both paths."""
        path = Path(out_path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv())
        sidecar = path.with_suffix(".json") if path.suffix == ".csv" \
            else Path(str(path) + ".json")
        payload = {
            "experiment": self.experiment,
            "columns": list(self.columns),
            "config": self.config,
            "aggregates": self.aggregates,
        }
        sidecar.write_text(json.dumps(payload, sort_keys=True, indent=2,
                                      default=_json_default) + "\n")
        return path, sidecar


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_default(obj):
    """json's hook for what it cannot write itself: numpy arrays and scalars as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _run_tasks(worker, tasks, threads):
    """``worker(task)`` for every task, in order.

    A serial run takes each task as the iterable yields it, so a lazy task
    list keeps its draws interleaved with the work; a pooled run lists the
    tasks first.
    """
    if threads > 1:
        tasks = list(tasks)
        if len(tasks) > 1:
            # imported here so that a serial run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            chunk = max(1, len(tasks) // (threads * 8))
            with ProcessPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(worker, tasks, chunksize=chunk))
    return [worker(t) for t in tasks]


def _trial_seed(config: ExperimentConfig, sweep_idx: int, trial_idx: int) -> int:
    return config.master_seed + sweep_idx * config.n_trials + trial_idx


def _trial_tasks(config: ExperimentConfig, params: list):
    """One task ``(config, s, t, params[s])`` per trial t of sweep point s, in sweep order."""
    return ((config, s, t, params[s])
            for s in range(len(config.sweep)) for t in range(config.n_trials))


def _convergence(runs) -> dict:
    """Convergence summary of one solver's (converged, iterations) runs."""
    iterations = np.array([it for _, it in runs])
    return {
        "not_converged": sum(not ok for ok, _ in runs),
        "iterations_p50": float(np.median(iterations)),
        "iterations_max": int(iterations.max()),
    }


def _union_curves(grid, n_pulses, n_hrr_bins) -> dict:
    """The union bound over ``grid``, raw (off-diagonal count at 0) and clamped."""
    n_off = n_pulses * n_hrr_bins - n_pulses
    raw = np.array([union_bound(e, n_pulses, n_hrr_bins) if e > 0 else float(n_off)
                    for e in grid])
    return {"union_bound_raw": raw, "union_bound_clamped": np.minimum(raw, 1.0)}


# --- spark -------------------------------------------------------------------

class _CensusOutcome(NamedTuple):
    """What the spark experiment keeps of one code vector's census."""

    sigma_omega: float
    n_below_eps: int
    hist: np.ndarray
    n_submatrices: int
    below_max: float | None  # largest sigma under eps_svd
    above_min: float | None  # smallest sigma at or above it
    route: str
    det_singular_max: float | None
    det_nonsingular_min: float | None


def _no_sweep(config, point):
    raise ConfigurationError(f"{config.experiment} takes no sweep, got {point!r}")


# Census outcomes of discrete code vectors, oldest first, kept for the life of
# the process; each pool worker keeps its own table
_CENSUS_TABLE_CAP = 4096  # about 1.2 KB an outcome
_census_table: dict[tuple, _CensusOutcome] = {}


def _spark_work(task) -> _CensusOutcome:
    """The census outcome of one code vector.

    A discrete vector's outcome is a pure function of (N, M, M*, its hops,
    ``eps_svd``, ``max_submatrices``), so it is kept under that key in one
    table per process, its ``hist`` read-only, and a later task on the
    same vector reads it back instead of censusing again.  ``_SparkDraws``
    passes only the canonical member of each class, so the table holds at
    most one outcome per class (122 at N=6, M*=3).  It keeps at most
    ``_CENSUS_TABLE_CAP`` outcomes and drops the oldest first.  Continuous
    vectors are censused every time.  A miss runs ``spark_enumeration`` on
    the vector it is given, so outputs are the same whatever ran earlier in
    the process.
    """
    config, codes = task
    key = None
    if codes.is_discrete:
        key = (codes.codes.size, config.n_hrr_bins, codes.n_codes, codes.hops.tobytes(),
               config.eps_svd, config.max_submatrices)
        if key in _census_table:
            return _census_table[key]
    params = RadarParams.abstract(codes.codes.size, config.n_hrr_bins, n_codes=codes.n_codes)
    report = spark_enumeration(build_phi(params, codes), config.eps_svd,
                               config.max_submatrices)
    sigmas = report.sigma_values
    below = sigmas < config.eps_svd
    below_max = float(sigmas[below].max()) if below.any() else None
    above_min = float(sigmas[~below].min()) if not below.all() else None
    outcome = _CensusOutcome(report.sigma_omega, report.n_below_eps, report.sigma_hist_counts,
                             report.n_submatrices, below_max, above_min, report.route,
                             report.det_singular_max, report.det_nonsingular_min)
    if key is not None:
        if len(_census_table) >= _CENSUS_TABLE_CAP:
            del _census_table[next(iter(_census_table))]
        outcome.hist.setflags(write=False)
        _census_table[key] = outcome
    return outcome


def _census_key(codes) -> tuple | bytes:
    """Key under which the spark experiment reuses a census outcome.

    The spark experiment runs in APPROXIMATE mode, where the images
    d -> +-d + c (mod 1) of a discrete code vector, c a multiple of 1/M*,
    have the same multiset of subset singular values: a shift multiplies
    column (m, l) by exp(2j pi m c), and negation conjugates Phi and maps
    the Doppler bin l to -l.  A discrete vector is keyed on its smallest
    image as hop indices (the 729 vectors at N=6, M*=3 form 122 classes); a
    continuous one on its exact values.
    """
    if not codes.is_discrete:
        return codes.codes.tobytes()
    q, hops = codes.n_codes, codes.hops
    images = (np.stack([hops, -hops])[:, None, :] + np.arange(q)[:, None]) % q
    return tuple(min(images.reshape(-1, hops.size).tolist()))


class _SparkDraws:
    """The spark task list: one census per code class (``_census_key``).

    Iterating draws the trials in order and yields one task per class,
    right after the first draw of that class, so a serial run takes each
    census right after its draw (the 2000 default discrete trials hold 122
    classes).  A discrete class is censused on its canonical member, the
    smallest image that ``_census_key`` returns as hop indices, so its
    outcome does not depend on which member was drawn first, and
    ``_spark_work`` may read it from its process's table; a continuous
    vector is its own class and is censused as drawn.  ``classes`` holds
    each trial's class as the position of its task.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.classes = []

    def __iter__(self):
        config = self.config
        n_codes = (config.n_codes or config.n_hrr_bins
                   if config.code_distribution == "discrete" else None)
        positions = {}  # census key -> position of its task
        for t in range(config.n_trials):
            codes = sample_codes(_trial_seed(config, 0, t), config.n_pulses, n_codes)
            key = _census_key(codes)
            if key not in positions:
                positions[key] = len(positions)
                if codes.is_discrete:
                    codes = FrequencyCodes._from_hops(np.array(key), n_codes)
                yield config, codes
            self.classes.append(positions[key])


def _spark_collect(config, keys, draws, censuses):
    """One row per trial, from its class's census.

    The sidecar records which route classified the census (``census_route``)
    and, on the determinant-gap route, its margins.
    """
    outcomes = [censuses[c] for c in draws.classes]
    rows = [(t, o.sigma_omega, o.n_below_eps) for t, o in enumerate(outcomes)]
    sigma_omegas = np.array([o.sigma_omega for o in outcomes])
    n_below = np.array([o.n_below_eps for o in outcomes])
    n_evaluated = np.array([o.n_submatrices for o in outcomes])
    hist_total = np.sum([o.hist for o in outcomes], axis=0)
    below_max = [o.below_max for o in outcomes if o.below_max is not None]
    above_min = [o.above_min for o in outcomes if o.above_min is not None]
    route = outcomes[0].route  # fixed by the mode and the code distribution
    aggregates = {
        "n_trials": config.n_trials,
        "n_submatrices": int(n_evaluated[0]),
        "eps_svd": config.eps_svd,
        # two deficiency rates: per trial (any submatrix below eps) and pooled
        # over every (trial, submatrix) pair
        "fraction_trials_deficient": float(np.mean(sigma_omegas < config.eps_svd)),
        "fraction_submatrices_deficient": float(n_below.sum() / n_evaluated.sum()),
        "sigma_omega_min": float(sigma_omegas.min()),
        "sigma_omega_max": float(sigma_omegas.max()),
        # classification margins on either side of eps_svd (None when empty)
        "sigma_below_eps_max": max(below_max, default=None),
        "sigma_above_eps_min": min(above_min, default=None),
        "sigma_hist_edges": SIGMA_HIST_EDGES,
        "sigma_hist_counts": hist_total,
        "sigma_omega_hist_counts": np.histogram(sigma_omegas, bins=SIGMA_HIST_EDGES)[0],
        "census_route": route,
    }
    if route == "determinant_gap":
        # |det| margins on either side of the threshold 1/2 (None when empty)
        singular = [o.det_singular_max for o in outcomes if o.det_singular_max is not None]
        nonsingular = [o.det_nonsingular_min for o in outcomes
                       if o.det_nonsingular_min is not None]
        aggregates["det_singular_max"] = max(singular, default=None)
        aggregates["det_nonsingular_min"] = min(nonsingular, default=None)
    return rows, aggregates


# --- mip ---------------------------------------------------------------------

def _mip_key(config, arm) -> str:
    if arm == "continuous":
        return arm
    if (isinstance(arm, bool) or not isinstance(arm, (int, float)) or not math.isfinite(arm)
            or arm < 0):
        raise ConfigurationError(f"mip sweep entries must be finite B/f_c floats >= 0 or "
                                 f"'continuous', got {arm!r}")
    return repr(abs(float(arm)))  # -0.0 is the arm 0.0


def _mip_tasks(config):
    """One task per trial; each arm's ``RadarParams`` is built once."""
    params = [RadarParams.abstract(config.n_pulses, config.n_hrr_bins, n_codes=config.n_codes,
                                   relative_bandwidth=0.0 if arm == "continuous" else float(arm))
              for arm in config.sweep]
    return _trial_tasks(config, params)


def _mip_work(task) -> float:
    config, s, t, params = task
    continuous = config.sweep[s] == "continuous"
    codes = sample_codes(_trial_seed(config, s, t), config.n_pulses,
                         None if continuous else config.n_codes or config.n_hrr_bins)
    return coherence(build_phi(params, codes)).mu


def _mip_collect(config, keys, tasks, mus):
    """Coherence draws per arm, with the union-bound exceedance curve."""
    n = config.n_trials
    per_arm = {key: np.array(mus[s * n:(s + 1) * n]) for s, key in enumerate(keys)}
    rows = [(key, t, float(mu)) for key, arm_mus in per_arm.items()
            for t, mu in enumerate(arm_mus)]
    grid = np.linspace(0.0, config.epsilon_max, config.epsilon_count)
    aggregates = {
        "epsilon_grid": grid,
        **_union_curves(grid, config.n_pulses, config.n_hrr_bins),
        "empirical_exceedance": {
            key: (arm_mus[:, None] > grid).mean(axis=0) for key, arm_mus in per_arm.items()
        },
        "mean_mu": {key: float(arm_mus.mean()) for key, arm_mus in per_arm.items()},
        "max_mu": {key: float(arm_mus.max()) for key, arm_mus in per_arm.items()},
    }
    return rows, aggregates


# --- phase transition and noisy recovery -----------------------------------------

def _recovery_collect(config, keys, outcomes, solvers, values):
    """Rows, success rates and convergence of a two-solver recovery sweep.

    ``outcomes`` holds one ``(successes, runs, extra)`` per trial, in sweep
    order: each solver's exact-support verdict, the (converged, iterations)
    run of each iterative solver by name, and a value that comes back per
    point as is.  Point s shows as ``values[s]`` in rows, ``keys[s]`` in
    the summaries.
    """
    n = config.n_trials
    rows = []
    rates = {solver: {} for solver in solvers}
    convergence = {solver: {} for solver in outcomes[0][1]}
    extras = {}
    for s, (key, value) in enumerate(zip(keys, values)):
        successes, runs, extras[key] = zip(*outcomes[s * n:(s + 1) * n])
        rows.extend((solver, value, t, bool(ok))
                    for t, oks in enumerate(successes) for solver, ok in zip(solvers, oks))
        for solver, oks in zip(solvers, zip(*successes)):
            rates[solver][key] = sum(oks) / n
        for solver, summary in convergence.items():
            summary[key] = _convergence([run[solver] for run in runs])
    return rows, rates, convergence, extras


def _recovery_params(config) -> RadarParams:
    """The APPROXIMATE-mode ``RadarParams`` every recovery trial runs on."""
    return RadarParams.abstract(config.n_pulses, config.n_hrr_bins, n_codes=config.n_codes)


def _recovery_trial(config, s, t, params, sparsity):
    """Draw trial t of point s: (rng, Phi, noiseless y, true support) of a scene."""
    rng = np.random.default_rng(_trial_seed(config, s, t))
    codes = sample_codes(rng, config.n_pulses, config.n_codes or config.n_hrr_bins)
    phi = build_phi(params, codes)
    support = np.sort(rng.choice(phi.n_columns, size=sparsity, replace=False))
    amplitudes = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=sparsity))
    return rng, phi, phi.columns(support) @ amplitudes, tuple(int(i) for i in support)


def _phase_key(config, k) -> str:
    n_columns = config.n_pulses * config.n_hrr_bins
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n_columns:
        raise ConfigurationError(f"phase sweep entries must be sparsities in [1, NM], got {k!r}")
    return str(k)


def _phase_tasks(config):
    """One task per trial; every trial runs on the same ``RadarParams``."""
    return _trial_tasks(config, [_recovery_params(config)] * len(config.sweep))


def _phase_work(task):
    config, s, t, params = task
    sparsity, settings = config.sweep[s], config.solver
    _, phi, y, truth = _recovery_trial(config, s, t, params, sparsity)
    mf_est = extract_support(matched_filter(phi, y) / config.n_pulses, K=sparsity,
                             eps=settings.support_threshold)
    bp = basis_pursuit(phi, y, settings.bp_config)
    bp_est = extract_support(bp.x_hat, K=sparsity, eps=settings.support_threshold)
    return ((mf_est == truth, bp_est == truth), {"bp": (bp.converged, bp.iterations)},
            bp.certified)


def _phase_collect(config, keys, tasks, outcomes):
    """Noiseless exact-support rates for matched filtering and basis pursuit.

    The sidecar also records, per sparsity, how many basis-pursuit solves
    did not converge, how many stopped on a dual certificate, and the median
    and maximum of their iteration counts.
    """
    rows, rates, convergence, certified = _recovery_collect(
        config, keys, outcomes, ("mf", "bp"), config.sweep)
    for key, flags in certified.items():
        convergence["bp"][key]["certified"] = sum(flags)
    aggregates = {"success_rate": rates, "sparsities": list(config.sweep),
                  "convergence": convergence}
    return rows, aggregates


def _noisy_db(db) -> float:
    return float(db) + 0.0  # -0.0 + 0.0 is 0.0: -0.0 dB is the point 0.0


def _noisy_key(config, db) -> str:
    if isinstance(db, bool) or not isinstance(db, (int, float)) or not math.isfinite(db):
        raise ConfigurationError(f"noisy sweep entries must be finite dB floats, got {db!r}")
    return _fmt(_noisy_db(db))


def _noisy_tasks(config):
    """One task per noise point; every point runs on the same ``RadarParams``."""
    params = _recovery_params(config)
    return [(config, s, params) for s in range(len(config.sweep))]


def _noisy_work(task):
    """Outcomes of one noise point's trials, in trial order.

    The trials are drawn in order and subspace pursuit runs on each as it is
    drawn; lasso then solves all of them as one block (``lasso_block``).
    """
    config, s, params = task
    settings = config.solver
    sigma2 = 10.0 ** (float(config.sweep[s]) / 10.0)
    trials = []
    for t in range(config.n_trials):
        rng, phi, y, truth = _recovery_trial(config, s, t, params, config.n_scatterers)
        y = add_noise(y, sigma2, rng)
        sp = subspace_pursuit(phi, y, config.n_scatterers, settings.sp_config)
        trials.append((phi, y, truth, sp))
    phis, ys, truths, sp_results = zip(*trials)
    lam = settings.lasso_lambda_factor * sigma2
    la_results = lasso_block(phis, ys, [lam] * len(phis), settings.lasso_config)
    return [((sp.support == truth, la.support == truth),
             {"sp": (sp.converged, sp.iterations), "lasso": (la.converged, la.iterations)},
             (la.duality_gap, int(np.count_nonzero(la.x_hat))))
            for truth, sp, la in zip(truths, sp_results, la_results)]


def _noisy_collect(config, keys, tasks, points):
    """Exact-support rates vs. noise power for subspace pursuit and lasso.

    The sidecar also records, per noise power and solver, how many solves
    did not converge and the median and maximum of their iteration counts,
    and, under ``lasso_exit``, the median and maximum relative duality gap
    of the lasso solutions and the median count of their nonzero entries.
    """
    sigma2_db = [_noisy_db(db) for db in config.sweep]
    rows, rates, convergence, exits = _recovery_collect(
        config, keys, [trial for point in points for trial in point], ("sp", "lasso"), sigma2_db)
    lasso_exit = {}
    for key, point_exits in exits.items():
        gaps, nonzeros = np.array(point_exits).T
        lasso_exit[key] = {"duality_gap_p50": float(np.median(gaps)),
                           "duality_gap_max": float(gaps.max()),
                           "nonzeros_p50": float(np.median(nonzeros))}
    aggregates = {"success_rate": rates, "sigma2_db": sigma2_db,
                  "n_scatterers": config.n_scatterers, "convergence": convergence,
                  "lasso_exit": lasso_exit}
    return rows, aggregates


# --- bounds ----------------------------------------------------------------------

def _bounds_key(config, case) -> tuple[int, int, float]:
    """An (N, M, delta) sweep triple as int, int, float.

    N and M must be integers >= 1 and delta a real number, or the entry is a
    ConfigurationError; ``max_recoverable_K`` checks delta's range.
    """
    try:
        n_pulses, n_hrr_bins, delta = case
    except (TypeError, ValueError):
        raise ConfigurationError(f"bounds sweep entries must be (N, M, delta) triples, "
                                 f"got {case!r}") from None
    n_pulses = check_integer(f"N of bounds sweep entry {case!r}", n_pulses, 1)
    n_hrr_bins = check_integer(f"M of bounds sweep entry {case!r}", n_hrr_bins, 1)
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real):
        raise ConfigurationError(f"delta of bounds sweep entry {case!r} must be a real number, "
                                 f"got {delta!r}")
    return n_pulses, n_hrr_bins, float(delta)


def _bounds_collect(config, cases, tasks, outcomes):
    """Tabulate the coherence-based and l0 sparsity guarantees per setup.

    A table, not a Monte-Carlo study: it has no tasks.
    """
    rows = []
    curves = {}
    grid = np.linspace(0.0, config.epsilon_max, config.epsilon_count)
    for n_pulses, n_hrr_bins, delta in cases:
        rows.append((n_pulses, n_hrr_bins, delta, max_recoverable_K(n_pulses, n_hrr_bins, delta),
                     l0_limit(n_pulses)))
        curves[f"N={n_pulses},M={n_hrr_bins}"] = _union_curves(grid, n_pulses, n_hrr_bins)
    return rows, {"epsilon_grid": grid, "curves": curves}


# --- the driver ----------------------------------------------------------------------

class _Experiment(NamedTuple):
    """How ``run_experiment`` runs one experiment."""

    columns: tuple[str, ...]
    sweep_key: Callable  # (config, sweep point) -> its key; raises on a bad point
    tasks: Callable  # config -> the units of work, in order
    work: Callable | None  # task -> outcome; runs in a pool worker when threads > 1
    collect: Callable  # (config, sweep keys, tasks, outcomes) -> (rows, aggregates)
    defaults: dict  # the fields ``default_config`` sets


_EXPERIMENTS = {
    "spark": _Experiment(("trial", "sigma_omega", "n_below_eps"),
                         _no_sweep, _SparkDraws, _spark_work, _spark_collect,
                         dict(n_pulses=6, n_hrr_bins=3, n_codes=3, n_trials=2000)),
    "mip": _Experiment(("arm", "trial", "mu"),
                       _mip_key, _mip_tasks, _mip_work, _mip_collect,
                       dict(n_pulses=64, n_hrr_bins=16, n_trials=10_000,
                            sweep=(0.0, 0.1, 0.5, "continuous"))),
    "phase": _Experiment(("solver", "K", "trial", "success"),
                         _phase_key, _phase_tasks, _phase_work, _phase_collect,
                         dict(n_pulses=64, n_hrr_bins=8, n_trials=200, sweep=tuple(range(1, 11)))),
    "noisy": _Experiment(("solver", "sigma2_db", "trial", "success"),
                         _noisy_key, _noisy_tasks, _noisy_work, _noisy_collect,
                         dict(n_pulses=64, n_hrr_bins=8, n_trials=200, n_scatterers=3,
                              sweep=(-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0))),
    "bounds": _Experiment(("n_pulses", "n_hrr_bins", "delta", "k_mip", "k_l0"),
                          _bounds_key, lambda config: [], None, _bounds_collect,
                          dict(n_pulses=64, n_hrr_bins=8, n_trials=1,
                               sweep=((64, 8, 0.1), (512, 32, 0.1)))),
}


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run any experiment from its config; ``threads > 1`` pools its tasks.

    A bad or repeated sweep point, or a point whose ``RadarParams`` cannot
    be built, or a ``threads`` that is not an integer >= 1, raises
    ``ConfigurationError`` before any task runs.
    """
    check_integer("threads", threads, 1)
    experiment = _EXPERIMENTS[config.experiment]
    keys = [experiment.sweep_key(config, point) for point in config.sweep]
    if len(set(keys)) < len(keys):
        raise ConfigurationError(f"{config.experiment} sweep repeats a point: {config.sweep!r}")
    tasks = experiment.tasks(config)
    rows, aggregates = experiment.collect(config, keys, tasks,
                                          _run_tasks(experiment.work, tasks, threads))
    return ExperimentResult(config.experiment, experiment.columns,
                            [TrialRecord(values) for values in rows],
                            aggregates, dataclasses.asdict(config))
