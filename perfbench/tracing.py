"""Outside-in tracing of farcs from the benchmark's own code.

``Tracer.install`` replaces, for one round, the names ``farcs.harness``
imports from the other modules (plus ``run_experiment`` itself), the
``SensingMatrix`` methods and ``ExperimentResult.write`` with wrappers that
record a span per call: name, start, end, parent span, and the trial the
call belongs to. A trial starts at each ``sample_codes`` call the harness
makes, the first boundary of every trial visible from outside; trials are
numbered per ``run_experiment`` call. ``uninstall`` restores the originals,
so untraced rounds run the program as it is. The classes ``harness`` imports
(``RadarParams``, ``SolverConfig``) are not wrapped: their construction
counts as harness self time.

The wrappers also keep what each call returned, because ``harness`` discards
solver iteration counts and convergence flags, and the traced checks need the
solver inputs and outputs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

import checks
from reference import nominal_rate

# the names farcs.harness imports, and run_experiment itself, by module
LAYER_OF = {
    "sample_codes": "signal_model", "add_noise": "signal_model", "build_phi": "sensing",
    "spark_enumeration": "analysis", "coherence": "analysis", "union_bound": "analysis",
    "max_recoverable_K": "analysis", "l0_limit": "analysis", "matched_filter": "solvers",
    "basis_pursuit": "solvers", "lasso": "solvers", "subspace_pursuit": "solvers",
    "extract_support": "solvers", "run_experiment": "harness",
}
SENSING_METHODS = ("column", "columns", "matvec", "rmatvec", "to_dense", "row_gram")
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "round", "config", "trial")

# metrics reported per traced round
PER_ROUND = (".calls", ".busy_s", ".self_s", ".submatrices", ".distinct_codes",
             ".distinct_shift_classes", ".count_mismatches", ".not_converged", ".bytes")

# every COHERENCE_SAMPLE-th coherence call is checked against a brute-force Gram
COHERENCE_SAMPLE = 8

PER_LAYER = (
    ("analysis.spark_enumeration.calls", "count"),
    ("analysis.spark_enumeration.ms_p50", "ms"),
    ("analysis.spark_enumeration.busy_s", "s"),
    ("analysis.spark_enumeration.submatrices", "count"),
    ("analysis.spark_enumeration.submatrices_per_s", "1/s"),
    ("analysis.spark_enumeration.distinct_codes", "count"),
    ("analysis.spark_enumeration.distinct_shift_classes", "count"),
    ("analysis.spark_enumeration.count_mismatches", "count"),
    ("analysis.coherence.gram.calls", "count"),
    ("analysis.coherence.gram.ms_p50", "ms"),
    ("analysis.coherence.shortcut.calls", "count"),
    ("analysis.coherence.shortcut.us_p50", "us"),
    ("analysis.coherence.busy_s", "s"),
    ("signal_model.sample_codes.calls", "count"),
    ("signal_model.sample_codes.us_p50", "us"),
    ("signal_model.sample_codes.busy_s", "s"),
    ("signal_model.add_noise.busy_s", "s"),
    ("sensing.build_phi.calls", "count"),
    ("sensing.build_phi.us_p50", "us"),
    ("sensing.to_dense.busy_s", "s"),
    ("sensing.matvec.calls", "count"),
    ("sensing.matvec.us_p50", "us"),
    ("sensing.matvec.busy_s", "s"),
    ("sensing.rmatvec.calls", "count"),
    ("sensing.rmatvec.us_p50", "us"),
    ("sensing.rmatvec.busy_s", "s"),
    ("sensing.columns.busy_s", "s"),
    *((f"solvers.{solver}.{field}", unit)
      for solver in ("basis_pursuit", "lasso")
      for field, unit in (("calls", "count"), ("ms_p50", "ms"), ("busy_s", "s"),
                          ("self_s", "s"), ("iterations_p50", "count"),
                          ("iterations_p90", "count"), ("us_per_iteration", "us"),
                          ("not_converged", "count"))),
    ("solvers.subspace_pursuit.calls", "count"),
    ("solvers.subspace_pursuit.busy_s", "s"),
    ("solvers.subspace_pursuit.iterations_p50", "count"),
    ("solvers.subspace_pursuit.not_converged", "count"),
    ("solvers.matched_filter.busy_s", "s"),
    ("solvers.extract_support.busy_s", "s"),
    ("harness.self_s", "s"),
    ("harness.write.ms", "ms"),
    ("harness.write.bytes", "B"),
    ("trace.rounds", "count"),
    ("trace.trials_per_s", "trials/s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Spans and returned values of the farcs calls made in traced rounds."""

    def __init__(self, harness, sensing_matrix_cls, result_cls):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.round = self.config = self.trial = -1
        self.captures: list = []  # inputs/outputs for this round's checks
        self.stats = defaultdict(list)  # returned values kept for the metrics
        self._patches = []
        for name, layer in LAYER_OF.items():
            self._patch(harness, name, f"{layer}.{name}")
        for name in SENSING_METHODS:
            self._patch(sensing_matrix_cls, name, f"sensing.{name}")
        self._patch(result_cls, "write", "harness.write")

    # --- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr, span_name):
        original = getattr(owner, attr)
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        on_enter = getattr(self, "_enter_" + attr, None)
        on_return = getattr(self, "_return_" + attr, None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.round, self.config, self.trial)
            if on_return is not None:
                on_return(out, *args, **kwargs)
            return out

        self._patches.append((owner, attr, original, wrapper))

    def install(self, round_idx: int):
        self.round, self.config, self.trial = round_idx, -1, -1
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --- trial boundaries and returned values -----------------------------------

    def _key(self):
        return (self.round, self.config, self.trial)

    def _enter_run_experiment(self):
        self.config += 1
        self.trial = -1

    def _enter_sample_codes(self):
        self.trial += 1

    def _return_spark_enumeration(self, report, phi, *args, **kwargs):
        self.captures.append(("spark", self._key(), phi, report))

    def _return_coherence(self, sample, phi, *args, **kwargs):
        self.stats["coherence.method"].append(sample.method)
        if len(self.stats["coherence.method"]) % COHERENCE_SAMPLE == 1:
            self.captures.append(("coherence", self._key(), phi, sample.mu))

    def _return_basis_pursuit(self, result, phi, y, *args, **kwargs):
        self._solver_stats("basis_pursuit", result)
        self.captures.append(("basis_pursuit", self._key(), phi, y, result))

    def _return_lasso(self, result, phi, y, lam, *args, **kwargs):
        self._solver_stats("lasso", result)
        self.captures.append(("lasso", self._key(), phi, y, lam, result))

    def _return_subspace_pursuit(self, result, phi, y, *args, **kwargs):
        self._solver_stats("subspace_pursuit", result)
        self.captures.append(("subspace_pursuit", self._key(), phi, y, result))

    def _return_write(self, paths, *args, **kwargs):
        self.stats["write.bytes"].append(sum(p.stat().st_size for p in paths))

    def _solver_stats(self, solver, result):
        self.stats[solver + ".iterations"].append(result.iterations)
        self.stats[solver + ".converged"].append(result.converged)

    # --- checks of the captured calls ---------------------------------------------

    def check_round(self, census: checks.ExactCensus, fixed_hops: set,
                    fixed_configs: set) -> set:
        """Check this round's captured calls; returns {failed trial key: reason}."""
        failed = {}
        for kind, key, phi, *rest in self.captures:
            dense = checks.model_phi(phi.codes.codes, phi.params.n_hrr_bins,
                                     _relative_bandwidth(phi))
            if kind == "spark":
                msg = self._check_spark(key, phi, rest[0], census, fixed_hops, fixed_configs)
            elif kind == "coherence":
                msg = checks.check_mu_reference(rest[0], dense)
            elif kind == "basis_pursuit":
                msg = checks.check_bp(dense, rest[0], rest[1].x_hat)
            elif kind == "lasso":
                msg = checks.check_lasso(dense, rest[0], rest[2].x_hat, rest[1])
            else:
                msg = checks.check_sp(dense, rest[0], rest[1].x_hat, rest[1].support)
            if msg:
                failed[key] = f"traced {kind}: {msg}"
        self.captures.clear()
        return failed

    def _check_spark(self, key, phi, report, census, fixed_hops, fixed_configs):
        codes = phi.codes
        sigmas = report.sigma_values
        self.stats["spark.submatrices"].append(report.n_submatrices)
        if codes.is_discrete:
            hops = tuple(int(k) for k in np.rint(codes.codes * codes.n_codes))
            self.stats["spark.codes"].append(hops)
            self.stats["spark.shift_classes"].append(checks.shift_class(hops, codes.n_codes))
            if not (sigmas.min() >= 0.0 and sigmas.max() <= 1.0 + 1e-12):
                return "sigma outside [0, 1]"
            if report.n_below_eps != int(np.count_nonzero(sigmas < report.eps_svd)):
                return "n_below_eps disagrees with sigma_values"
            msg = checks.check_census_count(report.n_below_eps, census.count(hops))
            if msg:
                self.stats["spark.mismatches"].append(key)
            if key[1] not in fixed_configs and hops in fixed_hops:
                return None  # the fixed-seed config checks and counts this vector
            return msg
        values = tuple(float(c) for c in codes.codes)
        self.stats["spark.codes"].append(values)
        self.stats["spark.shift_classes"].append(tuple(round((c - values[0]) % 1.0, 12)
                                                       for c in values))
        if not (sigmas.min() > 0.0 and sigmas.max() <= 1.0 + 1e-12):
            return "sigma outside (0, 1] with continuous codes"
        return None if report.n_below_eps == 0 else "deficient submatrix with continuous codes"

    # --- output ---------------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, rounds: list[dict]) -> dict:
        """Every PER_LAYER metric over the traced rounds (0 for unused layers).

        Counts, busy and self times and bytes are per traced round, so they
        compare across commits that fit a different number of rounds into a
        run. Distinct code vectors are counted over all traced calls and also
        divided by the rounds, so their ratio to ``calls`` is the share of
        distinct inputs over the traced part of the run.
        """
        spans = np.array(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
        name, start, end, parent = spans[:, 0], spans[:, 1], spans[:, 2], spans[:, 3]
        dur = (end - start) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))

        def durations(span_name):
            if span_name not in self._name_ids:
                return np.empty(0)
            return dur[name == self._name_ids[span_name]]

        def busy(span_name):
            return float(durations(span_name).sum())

        def p50(span_name, scale):
            d = durations(span_name)
            return float(np.median(d)) * scale if d.size else 0.0

        def self_time(span_name):
            mask = name == self._name_ids.get(span_name, -1)
            return float((dur[mask] - child[mask]).sum())

        def quantile(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        m = {}
        spark = "analysis.spark_enumeration"
        submatrices = sum(self.stats["spark.submatrices"])
        m[spark + ".calls"] = durations(spark).size
        m[spark + ".ms_p50"] = p50(spark, 1e3)
        m[spark + ".busy_s"] = busy(spark)
        m[spark + ".submatrices"] = submatrices
        m[spark + ".submatrices_per_s"] = submatrices / busy(spark) if submatrices else 0.0
        m[spark + ".distinct_codes"] = len(set(self.stats["spark.codes"]))
        m[spark + ".distinct_shift_classes"] = len(set(self.stats["spark.shift_classes"]))
        m[spark + ".count_mismatches"] = len(self.stats["spark.mismatches"])

        coh = "analysis.coherence"
        methods = self.stats["coherence.method"]
        coh_d = durations(coh)
        is_gram = np.array([mth == "gram" for mth in methods], dtype=bool)
        m[coh + ".gram.calls"] = int(is_gram.sum())
        m[coh + ".gram.ms_p50"] = float(np.median(coh_d[is_gram])) * 1e3 if is_gram.any() else 0.0
        m[coh + ".shortcut.calls"] = int((~is_gram).sum())
        m[coh + ".shortcut.us_p50"] = (float(np.median(coh_d[~is_gram])) * 1e6
                                       if (~is_gram).any() else 0.0)
        m[coh + ".busy_s"] = busy(coh)

        for span_name in ("signal_model.sample_codes", "sensing.build_phi",
                          "sensing.matvec", "sensing.rmatvec"):
            m[span_name + ".calls"] = durations(span_name).size
            m[span_name + ".us_p50"] = p50(span_name, 1e6)
        for span_name in ("signal_model.sample_codes", "signal_model.add_noise",
                          "sensing.to_dense", "sensing.matvec", "sensing.rmatvec",
                          "sensing.columns", "solvers.subspace_pursuit",
                          "solvers.matched_filter", "solvers.extract_support"):
            m[span_name + ".busy_s"] = busy(span_name)

        for solver in ("basis_pursuit", "lasso"):
            span_name = "solvers." + solver
            iterations = self.stats[solver + ".iterations"]
            m[span_name + ".calls"] = durations(span_name).size
            m[span_name + ".ms_p50"] = p50(span_name, 1e3)
            m[span_name + ".busy_s"] = busy(span_name)
            m[span_name + ".self_s"] = self_time(span_name)
            m[span_name + ".iterations_p50"] = quantile(iterations, 50)
            m[span_name + ".iterations_p90"] = quantile(iterations, 90)
            m[span_name + ".us_per_iteration"] = (busy(span_name) / sum(iterations) * 1e6
                                                  if iterations else 0.0)
            m[span_name + ".not_converged"] = self.stats[solver + ".converged"].count(False)
        sp = "solvers.subspace_pursuit"
        m[sp + ".calls"] = durations(sp).size
        m[sp + ".iterations_p50"] = quantile(self.stats["subspace_pursuit.iterations"], 50)
        m[sp + ".not_converged"] = self.stats["subspace_pursuit.converged"].count(False)

        m["harness.self_s"] = self_time("harness.run_experiment")
        m["harness.write.ms"] = p50("harness.write", 1e3)
        m["harness.write.bytes"] = sum(self.stats["write.bytes"])

        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        traced_rate = nominal_rate(traced)
        for key in m:
            if key.endswith(PER_ROUND):
                m[key] /= len(traced)
        m["trace.rounds"] = len(traced)
        m["trace.trials_per_s"] = traced_rate
        m["trace.overhead_pct"] = 100.0 * (nominal_rate(plain) / traced_rate - 1.0)
        return {key: {"value": m[key], "unit": unit} for key, unit in PER_LAYER}


def _relative_bandwidth(phi) -> float:
    return phi.params.relative_bandwidth if phi.params.mode.value == "exact" else 0.0
