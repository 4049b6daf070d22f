"""Time farcs's solver, coherence and output layers one by one.

The solver layers run at the default ``noisy`` size (N=64, M=8), the
coherence layers at the default ``mip`` size (N=64, M=M*=16), the output
layer on a default ``spark`` and a default ``mip`` result.  Prints one JSON
line of times in microseconds:

- ``matvec``/``rmatvec``: one lone product of a ``SensingMatrix``, and
  ``stack_matvec_15``/``stack_rmatvec_15``: one ``sensing._fft_matvec``/
  ``_fft_rmatvec`` over the stacked hop factors of 15 rows (the rows of a
  benchmark noise point), the products a ``lasso_block`` iteration makes;
- ``lasso_iteration``: one FISTA iteration of a ``lasso_block`` call at 1, 15
  and 200 rows (200 is a default ``noisy`` noise point), per call and per row;
- ``lasso_solve_15``: one 15-row ``lasso_block`` at -5 dB (the size of the
  benchmark's ``recovery-noisy`` point), each row solved to its own stop at
  the default settings;
- ``admm_iteration``: one basis pursuit (ADMM) iteration;
- ``bp_solve_3``: one whole basis pursuit solve of a noiseless 3-scatterer
  scene, as the benchmark's ``recovery-phase`` config draws at K = 3; it must
  end on a certificate.  ``bp_solve_3_fixed`` is its per-solve fixed cost,
  the solve less ``bp_solve_3_iterations`` times ``admm_iteration``;
- ``coherence_approximate``/``coherence_exact``: one lone ``coherence`` call
  on an operator already built, APPROXIMATE mode (the FFT shortcut) and
  EXACT mode at B/f_c = 0.5 (one product of D with [R, conj(R)]);
- ``coherence_chunk_30_per_trial``: 30 trials' discrete draws (one arm of
  the benchmark's ``coherence`` config) scored the way a ``mip`` chunk
  scores its trials, the gather of their (30, N, M) hop-response stack and
  one batched FFT shortcut, divided by 30;
- ``hop_responses_continuous_30``: the (30, N, M) hop-response stack of 30
  trials' continuous codes, ``sensing._hop_responses``, which the
  continuous arm of a ``coherence`` chunk builds before scoring it, each
  stack dropped before the next, as a chunk drops it;
- ``census_hit_per_trial``: one warm ``harness._spark_work`` call on the
  first 32-trial chunk of a default ``spark`` run (every class's census
  already kept), divided by 32: the draw, the class key and the cache read;
- ``census_miss``: one census of a class at N=6, M=M*=3,
  ``spark_enumeration(build_phi(...))``, which a trial of a new class runs;
- ``census_round_random``/``census_round_probe``: one warm round of the
  benchmark's ``census-random`` (10 trials, master seed fixed at
  ``CENSUS_SEED``) or ``census-probe`` config (1 trial, its own seed):
  ``run_experiment`` with every class already censused, then ``to_csv()``
  and ``to_json()`` of the result, the per-run cost that the ``census``
  workload's ``trials_per_s`` mostly measures;
- ``census_round_write_random``: the same ``census-random`` round with
  ``ExperimentResult.write`` in place of the two texts, each round's CSV and
  sidecar new files in one temporary directory, as the benchmark's round
  clock covers them;
- ``sample_codes_6_3``: one ``sample_codes(seed, 6, 3)`` call on an int
  seed, the draw of a default ``spark`` trial, and ``build_phi_exact``: one
  ``build_phi`` at N=64, M=M*=16 in EXACT mode at B/f_c = 0.5, its Doppler
  table already cached, as an EXACT ``mip`` arm builds each trial's operator.
  These per-trial entry points check their arguments on every call;
- ``csv_text_spark``/``sidecar_text_spark`` and ``csv_text_mip``/
  ``sidecar_text_mip``: the CSV text (``to_csv``) and the sidecar text
  (``to_json``) that ``ExperimentResult.write`` puts on disk, without the
  disk, for a default ``spark`` (2,000 rows) and ``mip`` (40,000 rows) run.

An iteration's cost is the difference between two solves capped at
``SHORT`` and ``LONG`` iterations, divided by ``LONG - SHORT``, so set-up
and exit work cancel.  The solves never converge: the stopping tolerance is
1e-300, and a solve that stops before its cap anyway is an error.  Each
timing is the fastest of ``REPEATS``, as ``timeit`` advises, since on a
shared machine the slower ones measure other load.  OpenBLAS, OpenMP and
MKL are pinned to one thread, and the source tree next to this script is
imported.

    python3 scripts/time_layers.py
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads BLAS
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from farcs import (RadarParams, SolverConfig, add_noise, basis_pursuit, build_phi,  # noqa: E402
                   coherence, default_config, harness, lasso_block, load_config,
                   run_experiment, sample_codes, spark_enumeration)
from farcs.analysis import _dft_coherence  # noqa: E402
from farcs.sensing import _fft_matvec, _fft_rmatvec, _hop_responses  # noqa: E402

N_PULSES, N_HRR_BINS, N_SCATTERERS = 64, 8, 3
MIP_HRR_BINS, CHUNK_TRIALS, EXACT_BANDWIDTH = 16, 30, 0.5
STACK_ROWS = 15
LASSO_ROWS = (1, 15, 200)
SHORT, LONG = 20, 120
REPEATS = 7
CENSUS_SEED = 8_101  # the census-random master seed of scripts/output_hashes.py
NEVER = 1e-300  # a relative objective change this small only comes from an exact fixed point


def _problems(n_rows, seed=0):
    """``n_rows`` 3-scatterer scenes, each with its own codes, noiseless and at -5 dB.

    Returns the operators, the noiseless scenes, the noisy ones and lam = 3 sigma^2.
    """
    rng = np.random.default_rng(seed)
    params = RadarParams.abstract(N_PULSES, N_HRR_BINS)
    sigma2 = 10.0 ** (-5.0 / 10.0)
    phis, scenes, ys = [], [], []
    for _ in range(n_rows):
        phi = build_phi(params, sample_codes(rng, N_PULSES, N_HRR_BINS))
        idx = rng.choice(phi.n_columns, size=N_SCATTERERS, replace=False)
        scene = phi.columns(idx) @ np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N_SCATTERERS))
        phis.append(phi)
        scenes.append(scene)
        ys.append(add_noise(scene, sigma2, rng))
    return phis, scenes, ys, 3.0 * sigma2


def _best_us(run, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return 1e6 * min(times)


def _per_call_us(product, operand, calls=200):
    return _best_us(lambda: [product(operand) for _ in range(calls)]) / calls


def _each_call_us(call, calls=2000):
    """Per-call time of ``call()``, each result dropped before the next call.

    Keeping 2,000 operators alive, as ``_per_call_us`` keeps its results,
    would time the allocation of 128 MiB of Doppler matrices instead.
    """
    def run():
        for _ in range(calls):
            call()
    return _best_us(run) / calls


def _per_iteration_us(solve):
    """Cost of one iteration of ``solve(max_iter)``, which must run to its cap."""
    def capped(max_iter):
        def run():
            for result in solve(SolverConfig(max_iter=max_iter, residual_tol=NEVER)):
                if result.converged or result.iterations != max_iter:
                    raise RuntimeError("a timed solve stopped before its iteration cap")
        return run
    return (_best_us(capped(LONG)) - _best_us(capped(SHORT))) / (LONG - SHORT)


def _coherence_us() -> dict:
    """The coherence layers at N=64, M=M*=16."""
    codes = [sample_codes(seed, N_PULSES, MIP_HRR_BINS) for seed in range(CHUNK_TRIALS)]
    approximate, exact = (build_phi(RadarParams.abstract(N_PULSES, MIP_HRR_BINS,
                                                         relative_bandwidth=bandwidth), codes[0])
                          for bandwidth in (0.0, EXACT_BANDWIDTH))
    hops = np.array([c.hops for c in codes])
    continuous = np.array([sample_codes(seed, N_PULSES, None).codes
                           for seed in range(CHUNK_TRIALS)])
    return {
        "coherence_approximate": _per_call_us(coherence, approximate),
        "coherence_exact": _per_call_us(coherence, exact),
        "coherence_chunk_30_per_trial": _per_call_us(
            lambda draws: _dft_coherence(_hop_responses(draws, MIP_HRR_BINS, MIP_HRR_BINS),
                                         overwrite=True), hops, calls=20) / CHUNK_TRIALS,
        f"hop_responses_continuous_{CHUNK_TRIALS}": _each_call_us(
            lambda: _hop_responses(continuous, None, MIP_HRR_BINS), calls=200),
    }


def _census_us() -> dict:
    """A warm spark chunk per trial, and one census of a new class."""
    config = default_config("spark")
    chunk = harness._chunk_tasks(config, [harness._spark_point(config, None)[1]])[0]
    _, _, trials, (params, _) = chunk
    harness._spark_work(chunk)  # every class of the chunk is censused once here
    codes = sample_codes(0, config.n_pulses, params.n_codes)
    return {
        "census_hit_per_trial": _per_call_us(harness._spark_work, chunk, calls=100) / len(trials),
        "census_miss": _per_call_us(lambda _: spark_enumeration(build_phi(params, codes)),
                                    None, calls=5),
    }


def _census_config(name: str):
    """The benchmark's ``census-<name>`` config; the random one at master seed ``CENSUS_SEED``."""
    config = load_config(ROOT / "perfbench" / "configs" / f"census-{name}.json")
    if name == "random":  # the benchmark draws a new seed each round
        config = dataclasses.replace(config, master_seed=CENSUS_SEED)
    return config


def _census_round_us() -> dict:
    """One warm round of each census config of the benchmark, its result's text included.

    The ``census-random`` round is also timed with its two files written.
    """
    us = {}
    for name in ("random", "probe"):
        def round_(_, config=_census_config(name)):
            result = run_experiment(config)
            return result.to_csv(), result.to_json()

        round_(None)  # every class of the round's draws is censused once here
        us[f"census_round_{name}"] = _per_call_us(round_, None, calls=100)
    config = _census_config("random")
    with tempfile.TemporaryDirectory() as out_dir:
        # new files each round, as the benchmark writes them
        paths = (Path(out_dir) / f"r{r}.csv" for r in itertools.count())
        us["census_round_write_random"] = _per_call_us(
            lambda _: run_experiment(config).write(next(paths)), None, calls=100)
    return us


def _entry_us() -> dict:
    """One code draw of a spark trial, and one EXACT-mode operator of a mip trial."""
    params = RadarParams.abstract(N_PULSES, MIP_HRR_BINS, relative_bandwidth=EXACT_BANDWIDTH)
    codes = sample_codes(0, N_PULSES, MIP_HRR_BINS)
    build_phi(params, codes)  # builds the cached Doppler table
    return {"sample_codes_6_3": _each_call_us(lambda: sample_codes(7, 6, 3)),
            "build_phi_exact": _each_call_us(lambda: build_phi(params, codes))}


def _output_us() -> dict:
    """The text of a default ``spark`` and a default ``mip`` run's CSV and sidecar."""
    us = {}
    for experiment in ("spark", "mip"):
        result = run_experiment(default_config(experiment))
        us[f"csv_text_{experiment}"] = _best_us(result.to_csv)
        us[f"sidecar_text_{experiment}"] = _per_call_us(lambda _: result.to_json(), None,
                                                        calls=20)
    return us


def main() -> int:
    phis, scenes, ys, lam = _problems(max(LASSO_ROWS))
    rng = np.random.default_rng(1)
    x = rng.standard_normal(phis[0].n_columns) + 1j * rng.standard_normal(phis[0].n_columns)
    hop_t = np.array([phi.hop_response.T for phi in phis[:STACK_ROWS]])
    hop_h = np.conj(hop_t)
    X = np.tile(x, (STACK_ROWS, 1)).reshape(hop_t.shape)
    V = np.array(ys[:STACK_ROWS])[:, None, :]
    us = {
        "matvec": _per_call_us(phis[0].matvec, x),
        "rmatvec": _per_call_us(phis[0].rmatvec, ys[0]),
        f"stack_matvec_{STACK_ROWS}": _per_call_us(functools.partial(_fft_matvec, hop_t), X),
        f"stack_rmatvec_{STACK_ROWS}": _per_call_us(functools.partial(_fft_rmatvec, hop_h), V),
        f"lasso_solve_{STACK_ROWS}": _best_us(
            lambda: lasso_block(phis[:STACK_ROWS], ys[:STACK_ROWS], [lam] * STACK_ROWS)),
    }
    for rows in LASSO_ROWS:
        per_iteration = _per_iteration_us(
            lambda config, rows=rows: lasso_block(phis[:rows], ys[:rows], [lam] * rows, config))
        us[f"lasso_iteration_{rows}"] = per_iteration
        us[f"lasso_iteration_{rows}_per_row"] = per_iteration / rows
    # a dense random measurement: its l1 minimizer is not sparse, so no
    # certificate ends the ADMM early
    dense_y = rng.standard_normal(N_PULSES) + 1j * rng.standard_normal(N_PULSES)
    us["admm_iteration"] = _per_iteration_us(
        lambda config: [basis_pursuit(phis[0], dense_y, config)])
    solve = basis_pursuit(phis[0], scenes[0])
    if not solve.certified:
        raise RuntimeError("the timed basis pursuit solve ended without a certificate")
    us["bp_solve_3"] = _per_call_us(functools.partial(basis_pursuit, phis[0]), scenes[0], calls=20)
    us["bp_solve_3_fixed"] = us["bp_solve_3"] - solve.iterations * us["admm_iteration"]
    us.update(_coherence_us())
    us.update(_census_us())
    us.update(_census_round_us())
    us.update(_entry_us())
    us.update(_output_us())
    print(json.dumps({"us": {name: round(value, 2) for name, value in us.items()},
                      "bp_solve_3_iterations": solve.iterations,
                      "n_pulses": N_PULSES, "n_hrr_bins": N_HRR_BINS,
                      "mip_n_hrr_bins": MIP_HRR_BINS, "blas_threads": 1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
