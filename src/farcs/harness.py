"""Monte-Carlo experiment drivers with deterministic, file-backed outputs.

Five experiments: ``spark`` (submatrix rank census), ``mip`` (coherence
distribution vs. its union bound), ``phase`` (noiseless phase transition of
matched filtering vs. basis pursuit), ``noisy`` (subspace pursuit vs. lasso
under noise), and ``bounds`` (tabulated sparsity guarantees).

``run_experiment`` is the one driver.  It looks the experiment up in a
table that gives its CSV columns, a point function, the work function that
runs each task, and a function that collects the outcomes into rows and
aggregates.  The point function reads one sweep point (``spark`` has one,
``None``) once, before any task runs: it refuses a bad point and returns the
point's key and value, everything the point's trials use (its
``RadarParams``, and M*, sparsity or noise power).  Every Monte-Carlo task
is ``(config, s, trials, value)``: a chunk of at most ``_CHUNK`` trials of
sweep point s.  The work function returns one outcome per trial of its
chunk, and the driver flattens them in sweep and trial order; the tasks run
in order in this process, or through one process pool with ``threads > 1``.
Neither the work function nor the collector reads ``config.sweep``: they
read the values.  ``bounds`` has no tasks.  Trial t of sweep point s
always runs on the seed ``master_seed + s * n_trials + t``, whatever task
it falls in, so results are reproducible record for record regardless of
worker count or chunk size.

``spark`` censuses each discrete code class once per process, on its
canonical member, through the ``lru_cache`` of ``_class_census`` (one per
pool worker, at most 4,096 outcomes, the least recently used dropped
first), so a later draw of any member of the class reads the outcome
instead of censusing; outputs are the same whatever ran before.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (
    SIGMA_HIST_EDGES,
    _dft_coherence,
    coherence,
    l0_limit,
    max_recoverable_K,
    spark_enumeration,
    union_bound,
)
from .errors import ConfigurationError, check_integer, check_positive, check_real
from .sensing import _hop_responses, build_phi
from .signal_model import (BandwidthMode, FrequencyCodes, RadarParams, _draw_codes, add_noise,
                           sample_codes)
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

    def __post_init__(self):  # attributes, not fields: the sidecar's config leaves them out
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
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise ConfigurationError(f"output_path must be a file name or None, "
                                     f"got {self.output_path!r}")
        if self.code_distribution not in ("discrete", "continuous"):
            raise ConfigurationError(
                f"code_distribution must be 'discrete' or 'continuous', "
                f"got {self.code_distribution!r}"
            )
        if not isinstance(self.solver, SolverSettings):
            raise ConfigurationError(f"solver must be SolverSettings, got {self.solver!r}")
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
    """Read a JSON config; keys not in ExperimentConfig are errors.

    ``path`` names a file (str, bytes or ``os.PathLike``): anything else,
    an integer that ``open`` would take as a file descriptor included, is a
    ConfigurationError.
    """
    try:
        path = os.fspath(path)
    except TypeError:
        raise ConfigurationError(f"config path must name a file, got {path!r}") from None
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
        lines += [",".join(map(_fmt, rec.values)) for rec in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The sidecar text of ``write``."""
        payload = {
            "experiment": self.experiment,
            "columns": list(self.columns),
            "config": self.config,
            "aggregates": self.aggregates,
        }
        return _json_text(payload) + "\n"

    def write(self, out_path) -> tuple[Path, Path]:
        """Write the CSV and its JSON sidecar; returns both paths.

        ``out_path`` is a str or ``os.PathLike``, else ConfigurationError.
        The CSV holds ``to_csv()``.  The sidecar holds ``to_json()``: exactly
        the text ``json.dumps(payload, sort_keys=True, indent=2)`` writes,
        numpy values taken as their ``.tolist()``, and a newline.
        """
        try:
            path = Path(out_path)
        except TypeError:
            raise ConfigurationError(f"output path must name a file, got {out_path!r}") from None
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv())
        sidecar = path.with_suffix(".json") if path.suffix == ".csv" \
            else Path(str(path) + ".json")
        sidecar.write_text(self.to_json())
        return path, sidecar


def _fmt(v) -> str:
    kind = type(v)  # the cells are mostly floats, ints and strings: tested first, exactly
    if kind is float:
        return repr(v)
    if kind is int or kind is str:
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_float(v: float) -> str:
    """A float as json writes it."""
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return float.__repr__(v)


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, numpy values taken as their ``.tolist()``.

    ``pad`` is a newline and the indent of ``obj``'s own level.  A finite
    1-D int or float array is written in one join of its elements' reprs,
    which is the text json writes for them; anything json cannot write is a
    ``TypeError``.  It stands in for the pure-Python encoder that json
    falls back to whenever it indents (CPython 3.10 to 3.12).
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            f"{_json_key(key)}: {_json_text(value, inner)}" for key, value in sorted(obj.items()))
            + pad + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in obj) + pad + "]"
    if (isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.size and obj.dtype.kind in "iuf"
            and (obj.dtype.kind != "f" or np.isfinite(obj).all())):
        return "[" + inner + ("," + inner).join(map(repr, obj.tolist())) + pad + "]"
    if isinstance(obj, (np.ndarray, np.generic)):
        return _json_text(obj.tolist(), pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as json writes it: a string, or a bool, None or number as its quoted text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_json_text(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _run_tasks(worker, tasks, threads):
    """``worker(task)`` for every task, in order; ``threads > 1`` runs them in one process pool."""
    if threads > 1 and len(tasks) > 1:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(tasks) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, tasks, chunksize=chunk))
    return [worker(t) for t in tasks]


def _trial_seed(config: ExperimentConfig, sweep_idx: int, trial_idx: int) -> int:
    return config.master_seed + sweep_idx * config.n_trials + trial_idx


# trials per task, at most: a noisy chunk is then one lasso_block chunk
# (solvers._LASSO_CHUNK_ROWS).  The outputs do not depend on it
_CHUNK = 32


def _chunk_tasks(config: ExperimentConfig, values) -> list:
    """One task ``(config, s, trials, values[s])`` per chunk of point s, in sweep and trial order.

    ``trials`` is a range of at most ``_CHUNK`` trial indices.
    """
    n = config.n_trials
    return [(config, s, range(start, min(start + _CHUNK, n)), value)
            for s, value in enumerate(values) for start in range(0, n, _CHUNK)]


def _convergence(runs) -> dict:
    """Convergence summary of one solver's (converged, iterations) runs."""
    iterations = np.array([it for _, it in runs])
    return {
        "not_converged": sum(not ok for ok, _ in runs),
        "iterations_p50": float(np.median(iterations)),
        "iterations_max": int(iterations.max()),
    }


@functools.lru_cache(maxsize=16)
def _union_curves(epsilon_max, epsilon_count, n_pulses, n_hrr_bins):
    """The exceedance grid and the union bound over it, raw (off-diagonal count at 0) and clamped.

    Built once per process for each argument tuple; the three arrays are
    read-only, so no run can change what a later run writes.
    """
    grid = np.linspace(0.0, epsilon_max, epsilon_count)
    n_off = n_pulses * n_hrr_bins - n_pulses
    raw = np.array([union_bound(e, n_pulses, n_hrr_bins) if e > 0 else float(n_off)
                    for e in grid])
    curves = grid, raw, np.minimum(raw, 1.0)
    for arr in curves:
        arr.setflags(write=False)
    return curves


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


def _spark_point(config, point):
    """Spark's one point, ``None``: the APPROXIMATE-mode ``RadarParams`` of every census, and M*.

    M* is None for continuous codes, whose ``RadarParams`` take M* = M
    whatever ``n_codes`` says.  A sweep point is a ConfigurationError.
    """
    if point is not None:
        raise ConfigurationError(f"spark takes no sweep, got {point!r}")
    discrete = config.code_distribution == "discrete"
    params = RadarParams.abstract(config.n_pulses, config.n_hrr_bins,
                                  n_codes=config.n_codes if discrete else None)
    return None, (params, params.n_codes if discrete else None)


def _spark_work(task) -> list[_CensusOutcome]:
    """The census outcome of each trial of one chunk, read or censused right after its draw.

    A discrete draw reads ``_class_census`` of its ``_census_key``; a continuous one is censused.
    """
    config, s, trials, (params, n_codes) = task
    draws = (sample_codes(_trial_seed(config, s, t), config.n_pulses, n_codes) for t in trials)
    if n_codes is None:
        return [_census(params, codes, config.eps_svd, config.max_submatrices) for codes in draws]
    return [_class_census(params, _census_key(codes), config.eps_svd, config.max_submatrices)
            for codes in draws]


@functools.lru_cache(maxsize=4096)  # about 1.2 KB an outcome; one cache per pool worker
def _class_census(params, hops, eps_svd, max_submatrices) -> _CensusOutcome:
    """The census outcome, ``hist`` read-only, of the class whose canonical hops are ``hops``.

    The census runs on that canonical member, whichever member was drawn.
    """
    codes = FrequencyCodes._from_hops(np.array(hops), params.n_codes)
    outcome = _census(params, codes, eps_svd, max_submatrices)
    outcome.hist.setflags(write=False)
    return outcome


def _census(params, codes, eps_svd, max_submatrices) -> _CensusOutcome:
    """What the spark experiment keeps of the census of ``codes``."""
    report = spark_enumeration(build_phi(params, codes), eps_svd, max_submatrices)
    sigmas = report.sigma_values
    below = sigmas < eps_svd
    below_max = float(sigmas[below].max()) if below.any() else None
    above_min = float(sigmas[~below].min()) if not below.all() else None
    return _CensusOutcome(report.sigma_omega, report.n_below_eps, report.sigma_hist_counts,
                          report.n_submatrices, below_max, above_min, report.route,
                          report.det_singular_max, report.det_nonsingular_min)


def _census_key(codes) -> tuple:
    """Canonical hops of a discrete code vector's class, the key of ``_class_census``.

    The spark experiment runs in APPROXIMATE mode, where the images
    d -> +-d + c (mod 1) of a discrete code vector, c a multiple of 1/M*,
    have the same multiset of subset singular values: a shift multiplies
    column (m, l) by exp(2j pi m c), and negation conjugates Phi and maps
    the Doppler bin l to -l.  The key is the smallest image as hop indices
    (the 729 vectors at N=6, M*=3 form 122 classes).
    """
    q, hops = codes.n_codes, codes.hops.tolist()
    # of the 2 M* images the smallest starts at 0, so it is one of the two, one
    # per sign, whose shift takes the first hop to 0
    return min(tuple([(k - hops[0]) % q for k in hops]), tuple([(hops[0] - k) % q for k in hops]))


def _spark_collect(config, keys, values, outcomes):
    """One row per trial, from its census outcome.

    The sidecar records which route classified the census (``census_route``)
    and, on the determinant-gap route, its margins.
    """
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

def _mip_point(config, arm):
    """An arm's key, and its ``RadarParams`` with M*, or None for continuous codes."""
    continuous = arm == "continuous"
    bandwidth = 0.0 if continuous else abs(float(check_positive(  # -0.0 is the arm 0.0
        "mip sweep entries (B/f_c, or 'continuous')", arm, zero_ok=True)))
    params = RadarParams.abstract(config.n_pulses, config.n_hrr_bins, n_codes=config.n_codes,
                                  relative_bandwidth=bandwidth)
    if continuous:
        return arm, (params, None)
    return repr(bandwidth), (params, params.n_codes)


def _mip_work(task) -> list[float]:
    """mu of each trial of one chunk of an arm, bit for bit its own operator's.

    An EXACT-mode arm builds each trial's operator and takes its
    ``coherence``.  An APPROXIMATE-mode arm draws the trials' raw codes as
    ``sample_codes`` does, forms their hop responses as one (T, N, M) stack
    and scores it with the FFT shortcut ``coherence`` runs on one operator
    (at N=64, M=16 a 32-trial chunk peaks at 0.9 MiB under tracemalloc).
    """
    config, s, trials, (params, n_codes) = task
    seeds = [_trial_seed(config, s, t) for t in trials]
    if params.mode is BandwidthMode.EXACT:
        return [coherence(build_phi(params, sample_codes(seed, config.n_pulses, n_codes))).mu
                for seed in seeds]
    draws = np.array([_draw_codes(seed, config.n_pulses, n_codes) for seed in seeds])
    responses = _hop_responses(draws, n_codes, config.n_hrr_bins)
    return _dft_coherence(responses, overwrite=True).tolist()


def _mip_collect(config, keys, values, mus):
    """Coherence draws per arm, with the union-bound exceedance curve."""
    n = config.n_trials
    per_arm = {key: np.array(mus[s * n:(s + 1) * n]) for s, key in enumerate(keys)}
    rows = [(key, t, float(mu)) for key, arm_mus in per_arm.items()
            for t, mu in enumerate(arm_mus)]
    grid, raw, clamped = _union_curves(config.epsilon_max, config.epsilon_count,
                                       config.n_pulses, config.n_hrr_bins)
    aggregates = {
        "epsilon_grid": grid,
        "union_bound_raw": raw,
        "union_bound_clamped": clamped,
        "empirical_exceedance": {
            key: (arm_mus[:, None] > grid).mean(axis=0) for key, arm_mus in per_arm.items()
        },
        "mean_mu": {key: float(arm_mus.mean()) for key, arm_mus in per_arm.items()},
        "max_mu": {key: float(arm_mus.max()) for key, arm_mus in per_arm.items()},
    }
    return rows, aggregates


# --- phase transition and noisy recovery -----------------------------------------

def _recovery_collect(config, keys, outcomes, solvers, labels):
    """Rows, success rates and convergence of a two-solver recovery sweep.

    ``outcomes`` holds one ``(successes, runs, extra)`` per trial, in sweep
    order: each solver's exact-support verdict, the (converged, iterations)
    run of each iterative solver by name, and a value that comes back per
    point as is.  Point s shows as ``labels[s]`` in rows, ``keys[s]`` in
    the summaries.
    """
    n = config.n_trials
    rows = []
    rates = {solver: {} for solver in solvers}
    convergence = {solver: {} for solver in outcomes[0][1]}
    extras = {}
    for s, (key, label) in enumerate(zip(keys, labels)):
        successes, runs, extras[key] = zip(*outcomes[s * n:(s + 1) * n])
        rows.extend((solver, label, t, bool(ok))
                    for t, oks in enumerate(successes) for solver, ok in zip(solvers, oks))
        for solver, oks in zip(solvers, zip(*successes)):
            rates[solver][key] = sum(oks) / n
        for solver, summary in convergence.items():
            summary[key] = _convergence([run[solver] for run in runs])
    return rows, rates, convergence, extras


def _recovery_trial(config, s, t, params, sparsity):
    """Draw trial t of point s: (rng, Phi, noiseless y, true support) of a scene."""
    rng = np.random.default_rng(_trial_seed(config, s, t))
    codes = sample_codes(rng, config.n_pulses, params.n_codes)
    phi = build_phi(params, codes)
    support = np.sort(rng.choice(phi.n_columns, size=sparsity, replace=False))
    amplitudes = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=sparsity))
    return rng, phi, phi.columns(support) @ amplitudes, tuple(int(i) for i in support)


def _phase_point(config, k):
    """A sparsity's key, and the point's APPROXIMATE-mode ``RadarParams`` with the sparsity."""
    k = check_integer("phase sweep entries", k, 1)
    if k > config.n_pulses * config.n_hrr_bins:
        raise ConfigurationError(f"phase sweep entries must be sparsities in [1, NM], got {k!r}")
    return str(k), (RadarParams.abstract(config.n_pulses, config.n_hrr_bins,
                                         n_codes=config.n_codes), k)


def _phase_work(task):
    """Outcomes of one chunk's trials, each solved right after its draw."""
    config, s, trials, (params, sparsity) = task
    settings = config.solver
    outcomes = []
    for t in trials:
        _, phi, y, truth = _recovery_trial(config, s, t, params, sparsity)
        mf_est = extract_support(matched_filter(phi, y) / config.n_pulses, K=sparsity,
                                 eps=settings.support_threshold)
        bp = basis_pursuit(phi, y, settings.bp_config)
        bp_est = extract_support(bp.x_hat, K=sparsity, eps=settings.support_threshold)
        outcomes.append(((mf_est == truth, bp_est == truth),
                         {"bp": (bp.converged, bp.iterations)}, bp.certified))
    return outcomes


def _phase_collect(config, keys, values, outcomes):
    """Noiseless exact-support rates for matched filtering and basis pursuit.

    The sidecar also records, per sparsity, how many basis-pursuit solves
    did not converge, how many stopped on a dual certificate, and the median
    and maximum of their iteration counts.
    """
    sparsities = [k for _, k in values]
    rows, rates, convergence, certified = _recovery_collect(
        config, keys, outcomes, ("mf", "bp"), sparsities)
    for key, flags in certified.items():
        convergence["bp"][key]["certified"] = sum(flags)
    aggregates = {"success_rate": rates, "sparsities": sparsities,
                  "convergence": convergence}
    return rows, aggregates


_NOISE_HEADROOM = 1024.0  # times N sigma^2, the expected ||noise||^2; see _noisy_point


def _noisy_point(config, db):
    """A noise point's key, and its ``RadarParams``, sigma^2, lam and dB.

    A point at which no trial can run is a ConfigurationError.  The point must be a real
    number of dB (``errors.check_real``), and sigma^2 = 10^(dB/10) must be > 0, and 1,024 N
    sigma^2 and lam = ``lasso_lambda_factor`` sigma^2 finite: the solvers form sums of squares
    up to about twice ||y||^2 (the lasso objective, its duality gap), and ||y||^2 exceeds
    100 N sigma^2 with probability below 1e-43 at any N.  Those tests refuse NaN and +-inf dB
    too, and a dB too large for a float takes sigma^2 = inf.  This lam is the one the lasso
    solves with.
    """
    check_real("noisy sweep entries (dB)", db)
    try:
        sigma2 = 10.0 ** (float(db) / 10.0)
    except OverflowError:
        sigma2 = math.inf
    headroom = _NOISE_HEADROOM * config.n_pulses * sigma2
    lam = config.solver.lasso_lambda_factor * sigma2
    if not (sigma2 > 0.0 and math.isfinite(headroom) and math.isfinite(lam)):
        raise ConfigurationError(f"noisy sweep entry {db!r} dB: sigma2 = {sigma2!r} must be > 0, "
                                 f"1024 N sigma2 = {headroom!r} and lam = {lam!r} finite")
    db = float(db) + 0.0  # -0.0 + 0.0 is 0.0: -0.0 dB is the point 0.0
    params = RadarParams.abstract(config.n_pulses, config.n_hrr_bins, n_codes=config.n_codes)
    return _fmt(db), (params, sigma2, lam, db)


def _noisy_work(task):
    """Outcomes of one chunk's trials, in trial order.

    The trials are drawn in order and subspace pursuit runs on each as it is
    drawn; lasso then solves all of them as one block (``lasso_block``).
    """
    config, s, trials, (params, sigma2, lam, _) = task
    settings = config.solver
    draws = []
    for t in trials:
        rng, phi, y, truth = _recovery_trial(config, s, t, params, config.n_scatterers)
        y = add_noise(y, sigma2, rng)
        sp = subspace_pursuit(phi, y, config.n_scatterers, settings.sp_config)
        draws.append((phi, y, truth, sp))
    phis, ys, truths, sp_results = zip(*draws)
    la_results = lasso_block(phis, ys, [lam] * len(phis), settings.lasso_config)
    return [((sp.support == truth, la.support == truth),
             {"sp": (sp.converged, sp.iterations), "lasso": (la.converged, la.iterations)},
             (la.duality_gap, int(np.count_nonzero(la.x_hat))))
            for truth, sp, la in zip(truths, sp_results, la_results)]


def _noisy_collect(config, keys, values, outcomes):
    """Exact-support rates vs. noise power for subspace pursuit and lasso.

    The sidecar also records, per noise power and solver, how many solves
    did not converge and the median and maximum of their iteration counts,
    and, under ``lasso_exit``, the median and maximum relative duality gap
    of the lasso solutions and the median count of their nonzero entries.
    """
    sigma2_db = [db for *_, db in values]
    rows, rates, convergence, exits = _recovery_collect(
        config, keys, outcomes, ("sp", "lasso"), sigma2_db)
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

def _bounds_point(config, case):
    """An (N, M, delta) sweep triple as int, int, float: the point's key; it has no value.

    N and M must be integers >= 1 (``errors.check_integer``) and delta a real
    number (``errors.check_real``) within the float range, or the entry is a
    ConfigurationError; ``max_recoverable_K`` checks delta's range.
    """
    try:
        n_pulses, n_hrr_bins, delta = case
    except (TypeError, ValueError):
        raise ConfigurationError(f"bounds sweep entries must be (N, M, delta) triples, "
                                 f"got {case!r}") from None
    n_pulses = check_integer(f"N of bounds sweep entry {case!r}", n_pulses, 1)
    n_hrr_bins = check_integer(f"M of bounds sweep entry {case!r}", n_hrr_bins, 1)
    try:
        delta = float(check_real(f"delta of bounds sweep entry {case!r}", delta))
    except OverflowError:  # an integer too large for a float
        raise ConfigurationError(f"delta of bounds sweep entry {case!r} exceeds floats") from None
    return (n_pulses, n_hrr_bins, delta), None


def _bounds_collect(config, cases, values, outcomes):
    """Tabulate the coherence-based and l0 sparsity guarantees per setup.

    A table, not a Monte-Carlo study: it has no tasks.
    """
    rows = []
    curves = {}
    for n_pulses, n_hrr_bins, delta in cases:
        rows.append((n_pulses, n_hrr_bins, delta, max_recoverable_K(n_pulses, n_hrr_bins, delta),
                     l0_limit(n_pulses)))
        grid, raw, clamped = _union_curves(config.epsilon_max, config.epsilon_count,
                                           n_pulses, n_hrr_bins)
        curves[f"N={n_pulses},M={n_hrr_bins}"] = {"union_bound_raw": raw,
                                                  "union_bound_clamped": clamped}
    return rows, {"epsilon_grid": grid, "curves": curves}


# --- the driver ----------------------------------------------------------------------

class _Experiment(NamedTuple):
    """How ``run_experiment`` runs one experiment."""

    columns: tuple[str, ...]
    point: Callable  # (config, sweep point) -> (key, value); raises on a bad point
    work: Callable | None  # task (config, s, trials, value) -> one outcome per trial; runs in a
    #                        pool worker when threads > 1; None: the experiment has no tasks
    collect: Callable  # (config, keys, values, outcomes of all trials) -> (rows, aggregates)
    defaults: dict  # the fields ``default_config`` sets


_EXPERIMENTS = {
    "spark": _Experiment(("trial", "sigma_omega", "n_below_eps"),
                         _spark_point, _spark_work, _spark_collect,
                         dict(n_pulses=6, n_hrr_bins=3, n_codes=3, n_trials=2000)),
    "mip": _Experiment(("arm", "trial", "mu"),
                       _mip_point, _mip_work, _mip_collect,
                       dict(n_pulses=64, n_hrr_bins=16, n_trials=10_000,
                            sweep=(0.0, 0.1, 0.5, "continuous"))),
    "phase": _Experiment(("solver", "K", "trial", "success"),
                         _phase_point, _phase_work, _phase_collect,
                         dict(n_pulses=64, n_hrr_bins=8, n_trials=200, sweep=tuple(range(1, 11)))),
    "noisy": _Experiment(("solver", "sigma2_db", "trial", "success"),
                         _noisy_point, _noisy_work, _noisy_collect,
                         dict(n_pulses=64, n_hrr_bins=8, n_trials=200, n_scatterers=3,
                              sweep=(-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0))),
    "bounds": _Experiment(("n_pulses", "n_hrr_bins", "delta", "k_mip", "k_l0"),
                          _bounds_point, None, _bounds_collect,
                          dict(n_pulses=64, n_hrr_bins=8, n_trials=1,
                               sweep=((64, 8, 0.1), (512, 32, 0.1)))),
}


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run any experiment from its config; ``threads > 1`` pools its tasks.

    A ``config`` that is not an ``ExperimentConfig``, a bad or repeated
    sweep point, or a point whose ``RadarParams`` cannot be built, or a
    ``threads`` that is not an integer >= 1, raises ``ConfigurationError``
    before any task runs.
    """
    if not isinstance(config, ExperimentConfig):
        raise ConfigurationError(f"run_experiment takes an ExperimentConfig, got {config!r}")
    check_integer("threads", threads, 1)
    experiment = _EXPERIMENTS[config.experiment]
    keys, values = zip(*[experiment.point(config, point) for point in config.sweep or (None,)])
    if len(set(keys)) < len(keys):
        raise ConfigurationError(f"{config.experiment} sweep repeats a point: {config.sweep!r}")
    outcomes = []
    if experiment.work is not None:
        chunks = _run_tasks(experiment.work, _chunk_tasks(config, values), threads)
        outcomes = [outcome for chunk in chunks for outcome in chunk]
    rows, aggregates = experiment.collect(config, keys, values, outcomes)
    return ExperimentResult(config.experiment, experiment.columns,
                            [TrialRecord(values) for values in rows],
                            aggregates, _config_record(config))


def _config_record(config: ExperimentConfig) -> dict:
    """``dataclasses.asdict(config)`` without its deep copy.

    Every field value but ``solver`` is immutable and kept as is; the solver
    settings are recorded the same way, as a dict of their fields.
    """
    record = {f.name: getattr(config, f.name) for f in fields(config)}
    record["solver"] = {f.name: getattr(config.solver, f.name) for f in fields(SolverSettings)}
    return record
