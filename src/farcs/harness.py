"""Monte-Carlo experiment drivers with deterministic, file-backed outputs.

Five experiments: ``spark`` (submatrix rank census), ``mip`` (coherence
distribution vs. its union bound), ``phase`` (noiseless phase transition of
matched filtering vs. basis pursuit), ``noisy`` (subspace pursuit vs. lasso
under noise), and ``bounds`` (tabulated sparsity guarantees).

Trial t of sweep point s always runs on the seed
``master_seed + s * n_trials + t``, so results are reproducible record for
record regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import (
    coherence,
    l0_limit,
    max_recoverable_K,
    spark_enumeration,
    union_bound,
)
from .errors import ConfigurationError
from .sensing import build_phi
from .signal_model import RadarParams, add_noise, sample_codes
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

# bins 0.02 wide centred on 0, 0.02, ..., 1.2: sigma = 1 (orthogonal columns)
# sits in the middle of a bin, so rounding cannot move it across an edge
_SIGMA_HIST_EDGES = np.linspace(-0.01, 1.21, 62)


@dataclass(frozen=True)
class SolverSettings:
    """Solver knobs used by the recovery experiments."""

    bp_max_iter: int = 10000
    bp_residual_tol: float = 1e-8
    support_threshold: float = 1e-2  # noiseless support extraction
    lasso_lambda_factor: float = 3.0  # lam = factor * sigma2
    lasso_support_threshold: float = 0.2
    lasso_max_iter: int = 5000
    lasso_objective_tol: float = 1e-6
    sp_max_iter: int = 100


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
        if self.n_trials < 1:
            raise ConfigurationError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.code_distribution not in ("discrete", "continuous"):
            raise ConfigurationError(
                f"code_distribution must be 'discrete' or 'continuous', "
                f"got {self.code_distribution!r}"
            )
        if self.epsilon_count < 2:
            raise ConfigurationError(f"epsilon_count must be >= 2, got {self.epsilon_count}")
        if not self.epsilon_max > 0:
            raise ConfigurationError(f"epsilon_max must be > 0, got {self.epsilon_max}")
        if self.n_scatterers < 1:
            raise ConfigurationError(f"n_scatterers must be >= 1, got {self.n_scatterers}")
        sweep = tuple(tuple(s) if isinstance(s, (list, tuple)) else s for s in self.sweep)
        object.__setattr__(self, "sweep", sweep)
        if self.experiment != "spark" and not sweep:
            raise ConfigurationError(f"experiment {self.experiment!r} needs a non-empty sweep")

    def radar_params(self, relative_bandwidth: float = 0.0) -> RadarParams:
        return RadarParams.abstract(
            self.n_pulses, self.n_hrr_bins, n_codes=self.n_codes,
            relative_bandwidth=relative_bandwidth,
        )


def default_config(experiment: str) -> ExperimentConfig:
    """Desk-scale defaults for each experiment."""
    if experiment == "spark":
        return ExperimentConfig(experiment="spark", n_pulses=6, n_hrr_bins=3,
                                n_codes=3, n_trials=2000)
    if experiment == "mip":
        return ExperimentConfig(experiment="mip", n_pulses=64, n_hrr_bins=16,
                                n_trials=10_000, sweep=(0.0, 0.1, 0.5, "continuous"))
    if experiment == "phase":
        return ExperimentConfig(experiment="phase", n_pulses=64, n_hrr_bins=8,
                                n_trials=200, sweep=tuple(range(1, 11)))
    if experiment == "noisy":
        return ExperimentConfig(experiment="noisy", n_pulses=64, n_hrr_bins=8,
                                n_trials=200, n_scatterers=3,
                                sweep=(-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0))
    if experiment == "bounds":
        return ExperimentConfig(experiment="bounds", n_pulses=64, n_hrr_bins=8,
                                n_trials=1, sweep=((64, 8, 0.1), (512, 32, 0.1)))
    raise ConfigurationError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")


def load_config(path) -> ExperimentConfig:
    """Read a JSON config; keys not in ExperimentConfig are errors."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config root must be an object, got {type(raw).__name__}")
    if "experiment" not in raw:
        raise ConfigurationError("config is missing the 'experiment' key")
    solver_raw = raw.pop("solver", None)
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    base = default_config(raw["experiment"])
    if solver_raw is not None:
        solver_known = {f.name for f in fields(SolverSettings)}
        solver_unknown = sorted(set(solver_raw) - solver_known)
        if solver_unknown:
            raise ConfigurationError(f"unknown solver keys: {', '.join(solver_unknown)}")
        raw["solver"] = dataclasses.replace(base.solver, **solver_raw)
    return dataclasses.replace(base, **raw)


def config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


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
            "config": _jsonable(self.config),
            "aggregates": _jsonable(self.aggregates),
        }
        sidecar.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return path, sidecar


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _run_tasks(worker, tasks, threads):
    if threads is not None and threads > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, tasks, chunksize=chunk))
    return [worker(t) for t in tasks]


def _trial_seed(config: ExperimentConfig, sweep_idx: int, trial_idx: int) -> int:
    return config.master_seed + sweep_idx * config.n_trials + trial_idx


def _convergence(runs) -> dict:
    """Convergence summary of one solver's (converged, iterations) runs."""
    iterations = np.array([it for _, it in runs])
    return {
        "not_converged": sum(not ok for ok, _ in runs),
        "iterations_p50": float(np.median(iterations)),
        "iterations_max": int(iterations.max()),
    }


# --- spark -------------------------------------------------------------------

class _CensusOutcome(NamedTuple):
    """What ``run_spark`` keeps of one code vector's census."""

    sigma_omega: float
    n_below_eps: int
    hist: np.ndarray
    n_submatrices: int
    below_max: float | None  # largest sigma under eps_svd
    above_min: float | None  # smallest sigma at or above it
    route: str
    det_singular_max: float | None
    det_nonsingular_min: float | None


def _spark_census(task):
    codes, n_hrr_bins, eps_svd, max_submatrices = task
    params = RadarParams.abstract(codes.codes.size, n_hrr_bins, n_codes=codes.n_codes)
    report = spark_enumeration(build_phi(params, codes), eps_svd, max_submatrices)
    sigmas = report.sigma_values
    hist = np.histogram(sigmas, bins=_SIGMA_HIST_EDGES)[0]
    below = sigmas < eps_svd
    below_max = float(sigmas[below].max()) if below.any() else None
    above_min = float(sigmas[~below].min()) if not below.all() else None
    return _CensusOutcome(report.sigma_omega, report.n_below_eps, hist, report.n_submatrices,
                          below_max, above_min, report.route, report.det_singular_max,
                          report.det_nonsingular_min)


def _census_key(codes) -> tuple | bytes:
    """Key under which ``run_spark`` reuses a census outcome.

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
    q = codes.n_codes
    hops = np.rint(codes.codes * q).astype(np.int64)
    images = (np.stack([hops, -hops])[:, None, :] + np.arange(q)[:, None]) % q
    return tuple(min(images.reshape(-1, hops.size).tolist()))


def run_spark(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Rank census over random code draws; one record per trial.

    The census depends on nothing but the code vector's class under global
    hop shifts and negation (see ``_census_key``), so each class is
    enumerated once, on the first vector drawn from it, and its outcome is
    reused by every trial that draws a member (the 2000 default discrete
    trials hold 122 classes).  Serial runs take each census in trial order,
    right after its draw.  The sidecar records which route classified the
    census (``census_route``) and, on the determinant-gap route, its margins.
    """
    if config.experiment != "spark":
        raise ConfigurationError(f"config is for {config.experiment!r}, not 'spark'")
    n_codes = config.n_codes if config.code_distribution == "discrete" else None
    if config.code_distribution == "discrete" and n_codes is None:
        n_codes = config.n_hrr_bins
    pooled = threads is not None and threads > 1
    censuses = {}  # census key -> census outcome
    pending = {}  # pooled runs: one vector per class, left for the workers
    keys = []
    for t in range(config.n_trials):
        codes = sample_codes(_trial_seed(config, 0, t), config.n_pulses, n_codes)
        key = _census_key(codes)
        keys.append(key)
        if key in censuses or key in pending:
            continue
        task = (codes, config.n_hrr_bins, config.eps_svd, config.max_submatrices)
        if pooled:
            pending[key] = task
        else:
            censuses[key] = _spark_census(task)
    censuses.update(zip(pending, _run_tasks(_spark_census, list(pending.values()), threads)))
    outcomes = [censuses[key] for key in keys]
    rows = [TrialRecord((t, o.sigma_omega, o.n_below_eps)) for t, o in enumerate(outcomes)]
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
        "sigma_hist_edges": _SIGMA_HIST_EDGES,
        "sigma_hist_counts": hist_total,
        "sigma_omega_hist_counts": np.histogram(sigma_omegas, bins=_SIGMA_HIST_EDGES)[0],
        "census_route": route,
    }
    if route == "determinant_gap":
        # |det| margins on either side of the threshold 1/2 (None when empty)
        singular = [o.det_singular_max for o in outcomes if o.det_singular_max is not None]
        nonsingular = [o.det_nonsingular_min for o in outcomes
                       if o.det_nonsingular_min is not None]
        aggregates["det_singular_max"] = max(singular, default=None)
        aggregates["det_nonsingular_min"] = min(nonsingular, default=None)
    return ExperimentResult("spark", ("trial", "sigma_omega", "n_below_eps"),
                            rows, aggregates, config_to_dict(config))


# --- mip ---------------------------------------------------------------------

def _mip_trial(task):
    seed, n_pulses, n_hrr_bins, n_codes, arm = task
    if arm == "continuous":
        codes = sample_codes(seed, n_pulses, None)
        params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes)
    else:
        codes = sample_codes(seed, n_pulses, n_codes or n_hrr_bins)
        params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes,
                                      relative_bandwidth=float(arm))
    return coherence(build_phi(params, codes)).mu


def _arm_key(arm) -> str:
    return arm if isinstance(arm, str) else repr(float(arm))


def run_mip(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Coherence draws per arm, with the union-bound exceedance curve."""
    if config.experiment != "mip":
        raise ConfigurationError(f"config is for {config.experiment!r}, not 'mip'")
    for arm in config.sweep:
        if arm != "continuous" and not isinstance(arm, (int, float)):
            raise ConfigurationError(f"mip sweep entries must be B/f_c floats or "
                                     f"'continuous', got {arm!r}")
    tasks = []
    for s, arm in enumerate(config.sweep):
        for t in range(config.n_trials):
            tasks.append((_trial_seed(config, s, t), config.n_pulses,
                          config.n_hrr_bins, config.n_codes, arm))
    mus = _run_tasks(_mip_trial, tasks, threads)
    rows = []
    per_arm = {}
    idx = 0
    for arm in config.sweep:
        key = _arm_key(arm)
        arm_mus = np.array(mus[idx:idx + config.n_trials])
        idx += config.n_trials
        for t, mu in enumerate(arm_mus):
            rows.append(TrialRecord((key, t, float(mu))))
        per_arm[key] = arm_mus
    grid = np.linspace(0.0, config.epsilon_max, config.epsilon_count)
    n_off = config.n_pulses * config.n_hrr_bins - config.n_pulses
    bound_raw = np.array(
        [union_bound(e, config.n_pulses, config.n_hrr_bins) if e > 0 else float(n_off)
         for e in grid]
    )
    aggregates = {
        "epsilon_grid": grid,
        "union_bound_raw": bound_raw,
        "union_bound_clamped": np.minimum(bound_raw, 1.0),
        "empirical_exceedance": {
            key: np.array([float(np.mean(arm_mus > e)) for e in grid])
            for key, arm_mus in per_arm.items()
        },
        "mean_mu": {key: float(arm_mus.mean()) for key, arm_mus in per_arm.items()},
        "max_mu": {key: float(arm_mus.max()) for key, arm_mus in per_arm.items()},
    }
    return ExperimentResult("mip", ("arm", "trial", "mu"), rows, aggregates,
                            config_to_dict(config))


# --- phase transition ----------------------------------------------------------

def _random_scene(rng, n_columns, sparsity):
    support = np.sort(rng.choice(n_columns, size=sparsity, replace=False))
    amplitudes = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=sparsity))
    return support, amplitudes


def _phase_trial(task):
    seed, n_pulses, n_hrr_bins, n_codes, sparsity, settings = task
    rng = np.random.default_rng(seed)
    codes = sample_codes(rng, n_pulses, n_codes or n_hrr_bins)
    params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes)
    phi = build_phi(params, codes)
    support, amplitudes = _random_scene(rng, phi.n_columns, sparsity)
    y = phi.columns(support) @ amplitudes
    truth = tuple(int(i) for i in support)

    mf_est = extract_support(matched_filter(phi, y) / n_pulses, K=sparsity,
                             eps=settings.support_threshold)
    bp_cfg = SolverConfig(max_iter=settings.bp_max_iter,
                          residual_tol=settings.bp_residual_tol,
                          magnitude_threshold=settings.support_threshold)
    bp = basis_pursuit(phi, y, bp_cfg)
    bp_est = extract_support(bp.x_hat, K=sparsity, eps=settings.support_threshold)
    return mf_est == truth, bp_est == truth, (bp.converged, bp.iterations), bp.certified


def run_phase(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Noiseless exact-support rates for matched filtering and basis pursuit.

    The sidecar also records, per sparsity, how many basis-pursuit solves
    did not converge, how many stopped on a dual certificate, and the median
    and maximum of their iteration counts.
    """
    if config.experiment != "phase":
        raise ConfigurationError(f"config is for {config.experiment!r}, not 'phase'")
    for k in config.sweep:
        if not isinstance(k, int) or k < 1 or k > config.n_pulses * config.n_hrr_bins:
            raise ConfigurationError(f"phase sweep entries must be sparsities in "
                                     f"[1, NM], got {k!r}")
    tasks = []
    for s, k in enumerate(config.sweep):
        for t in range(config.n_trials):
            tasks.append((_trial_seed(config, s, t), config.n_pulses,
                          config.n_hrr_bins, config.n_codes, k, config.solver))
    outcomes = _run_tasks(_phase_trial, tasks, threads)
    rows = []
    rates = {"mf": {}, "bp": {}}
    convergence = {"bp": {}}
    idx = 0
    for k in config.sweep:
        mf_ok = bp_ok = certified = 0
        bp_runs = []
        for t in range(config.n_trials):
            mf_success, bp_success, bp_run, bp_certified = outcomes[idx]
            idx += 1
            rows.append(TrialRecord(("mf", k, t, bool(mf_success))))
            rows.append(TrialRecord(("bp", k, t, bool(bp_success))))
            mf_ok += mf_success
            bp_ok += bp_success
            certified += bp_certified
            bp_runs.append(bp_run)
        rates["mf"][str(k)] = mf_ok / config.n_trials
        rates["bp"][str(k)] = bp_ok / config.n_trials
        convergence["bp"][str(k)] = {**_convergence(bp_runs), "certified": certified}
    aggregates = {"success_rate": rates, "sparsities": list(config.sweep),
                  "convergence": convergence}
    return ExperimentResult("phase", ("solver", "K", "trial", "success"),
                            rows, aggregates, config_to_dict(config))


# --- noisy recovery --------------------------------------------------------------

def _noisy_point(task):
    """Outcomes of one noise point's trials, in trial order.

    The trials are drawn in order and subspace pursuit runs on each as it is
    drawn; lasso then solves all of them as one block (``lasso_block``).
    """
    seeds, n_pulses, n_hrr_bins, n_codes, sparsity, sigma2_db, settings = task
    sigma2 = 10.0 ** (sigma2_db / 10.0)
    params = RadarParams.abstract(n_pulses, n_hrr_bins, n_codes=n_codes)
    sp_cfg = SolverConfig(max_iter=settings.sp_max_iter)
    phis, ys, truths, sp_results = [], [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        codes = sample_codes(rng, n_pulses, n_codes or n_hrr_bins)
        phi = build_phi(params, codes)
        support, amplitudes = _random_scene(rng, phi.n_columns, sparsity)
        y = add_noise(phi.columns(support) @ amplitudes, sigma2, rng)
        phis.append(phi)
        ys.append(y)
        truths.append(tuple(int(i) for i in support))
        sp_results.append(subspace_pursuit(phi, y, sparsity, sp_cfg))
    lasso_cfg = SolverConfig(max_iter=settings.lasso_max_iter,
                             residual_tol=settings.lasso_objective_tol,
                             magnitude_threshold=settings.lasso_support_threshold)
    lam = settings.lasso_lambda_factor * sigma2
    la_results = lasso_block(phis, ys, [lam] * len(phis), lasso_cfg)
    return [(sp.support == truth, la.support == truth,
             (sp.converged, sp.iterations), (la.converged, la.iterations),
             (la.duality_gap, int(np.count_nonzero(la.x_hat))))
            for truth, sp, la in zip(truths, sp_results, la_results)]


def run_noisy(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Exact-support rates vs. noise power for subspace pursuit and lasso.

    The sidecar also records, per noise power and solver, how many solves
    did not converge and the median and maximum of their iteration counts,
    and, under ``lasso_exit``, the median and maximum relative duality gap
    of the lasso solutions and the median count of their nonzero entries.
    """
    if config.experiment != "noisy":
        raise ConfigurationError(f"config is for {config.experiment!r}, not 'noisy'")
    for db in config.sweep:
        if not isinstance(db, (int, float)):
            raise ConfigurationError(f"noisy sweep entries must be dB floats, got {db!r}")
    tasks = [(tuple(_trial_seed(config, s, t) for t in range(config.n_trials)),
              config.n_pulses, config.n_hrr_bins, config.n_codes,
              config.n_scatterers, float(db), config.solver)
             for s, db in enumerate(config.sweep)]
    points = _run_tasks(_noisy_point, tasks, threads)
    rows = []
    rates = {"sp": {}, "lasso": {}}
    convergence = {"sp": {}, "lasso": {}}
    lasso_exit = {}
    for db, outcomes in zip(config.sweep, points):
        key = _fmt(float(db))
        sp_ok = la_ok = 0
        sp_runs, la_runs, la_exits = [], [], []
        for t, (sp_success, la_success, sp_run, la_run, la_exit) in enumerate(outcomes):
            rows.append(TrialRecord(("sp", float(db), t, bool(sp_success))))
            rows.append(TrialRecord(("lasso", float(db), t, bool(la_success))))
            sp_ok += sp_success
            la_ok += la_success
            sp_runs.append(sp_run)
            la_runs.append(la_run)
            la_exits.append(la_exit)
        rates["sp"][key] = sp_ok / config.n_trials
        rates["lasso"][key] = la_ok / config.n_trials
        convergence["sp"][key] = _convergence(sp_runs)
        convergence["lasso"][key] = _convergence(la_runs)
        gaps, nonzeros = np.array(la_exits).T
        lasso_exit[key] = {"duality_gap_p50": float(np.median(gaps)),
                           "duality_gap_max": float(gaps.max()),
                           "nonzeros_p50": float(np.median(nonzeros))}
    aggregates = {"success_rate": rates, "sigma2_db": [float(d) for d in config.sweep],
                  "n_scatterers": config.n_scatterers, "convergence": convergence,
                  "lasso_exit": lasso_exit}
    return ExperimentResult("noisy", ("solver", "sigma2_db", "trial", "success"),
                            rows, aggregates, config_to_dict(config))


# --- bounds ----------------------------------------------------------------------

def run_bounds(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Tabulate the coherence-based and l0 sparsity guarantees per setup."""
    if config.experiment != "bounds":
        raise ConfigurationError(f"config is for {config.experiment!r}, not 'bounds'")
    rows = []
    curves = {}
    grid = np.linspace(0.0, config.epsilon_max, config.epsilon_count)
    for case in config.sweep:
        try:
            n_pulses, n_hrr_bins, delta = case
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"bounds sweep entries must be (N, M, delta) triples, got {case!r}"
            ) from None
        n_pulses, n_hrr_bins, delta = int(n_pulses), int(n_hrr_bins), float(delta)
        k_mip = max_recoverable_K(n_pulses, n_hrr_bins, delta)
        k_l0 = l0_limit(n_pulses)
        rows.append(TrialRecord((n_pulses, n_hrr_bins, delta, k_mip, k_l0)))
        n_off = n_pulses * n_hrr_bins - n_pulses
        raw = np.array(
            [union_bound(e, n_pulses, n_hrr_bins) if e > 0 else float(n_off)
             for e in grid]
        )
        curves[f"N={n_pulses},M={n_hrr_bins}"] = {
            "union_bound_raw": raw,
            "union_bound_clamped": np.minimum(raw, 1.0),
        }
    aggregates = {"epsilon_grid": grid, "curves": curves}
    return ExperimentResult("bounds", ("n_pulses", "n_hrr_bins", "delta", "k_mip", "k_l0"),
                            rows, aggregates, config_to_dict(config))


# --- dispatch ----------------------------------------------------------------------

_RUNNERS = {
    "spark": run_spark,
    "mip": run_mip,
    "phase": run_phase,
    "noisy": run_noisy,
    "bounds": run_bounds,
}


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run any experiment from its config."""
    return _RUNNERS[config.experiment](config, threads=threads)
