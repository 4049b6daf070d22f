"""Time farcs's solver layers one by one, at the default ``noisy`` size (N=64, M=8).

Prints one JSON line of times in microseconds:

- ``matvec``/``rmatvec``: one lone product of a ``SensingMatrix``, and one
  ``SensingStack`` product over 15 rows (the rows of a benchmark noise point);
- ``lasso_iteration``: one FISTA iteration of a ``lasso_block`` call at 1, 15
  and 200 rows (200 is a default ``noisy`` noise point), per call and per row;
- ``admm_iteration``: one basis pursuit (ADMM) iteration.

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

import json
import os
import sys
import time
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads BLAS
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from farcs import (RadarParams, SolverConfig, add_noise, basis_pursuit, build_phi,  # noqa: E402
                   lasso_block, sample_codes)
from farcs.sensing import SensingStack  # noqa: E402

N_PULSES, N_HRR_BINS, N_SCATTERERS = 64, 8, 3
STACK_ROWS = 15
LASSO_ROWS = (1, 15, 200)
SHORT, LONG = 20, 120
REPEATS = 7
NEVER = 1e-300  # a relative objective change this small only comes from an exact fixed point


def _problems(n_rows, seed=0):
    """``n_rows`` noisy 3-scatterer scenes at -5 dB, each with its own codes; lam = 3 sigma^2."""
    rng = np.random.default_rng(seed)
    params = RadarParams.abstract(N_PULSES, N_HRR_BINS)
    sigma2 = 10.0 ** (-5.0 / 10.0)
    phis, ys = [], []
    for _ in range(n_rows):
        phi = build_phi(params, sample_codes(rng, N_PULSES, N_HRR_BINS))
        idx = rng.choice(phi.n_columns, size=N_SCATTERERS, replace=False)
        scene = phi.columns(idx) @ np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N_SCATTERERS))
        phis.append(phi)
        ys.append(add_noise(scene, sigma2, rng))
    return phis, ys, 3.0 * sigma2


def _best_us(run, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return 1e6 * min(times)


def _per_call_us(product, operand, calls=200):
    return _best_us(lambda: [product(operand) for _ in range(calls)]) / calls


def _per_iteration_us(solve):
    """Cost of one iteration of ``solve(max_iter)``, which must run to its cap."""
    def capped(max_iter):
        def run():
            for result in solve(SolverConfig(max_iter=max_iter, residual_tol=NEVER)):
                if result.converged or result.iterations != max_iter:
                    raise RuntimeError("a timed solve stopped before its iteration cap")
        return run
    return (_best_us(capped(LONG)) - _best_us(capped(SHORT))) / (LONG - SHORT)


def main() -> int:
    phis, ys, lam = _problems(max(LASSO_ROWS))
    rng = np.random.default_rng(1)
    x = rng.standard_normal(phis[0].n_columns) + 1j * rng.standard_normal(phis[0].n_columns)
    stack = SensingStack.of(phis[:STACK_ROWS])
    X = np.tile(x, (STACK_ROWS, 1))
    V = np.array(ys[:STACK_ROWS])
    us = {
        "matvec": _per_call_us(phis[0].matvec, x),
        "rmatvec": _per_call_us(phis[0].rmatvec, ys[0]),
        f"stack_matvec_{STACK_ROWS}": _per_call_us(stack.matvec, X),
        f"stack_rmatvec_{STACK_ROWS}": _per_call_us(stack.rmatvec, V),
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
    print(json.dumps({"us": {name: round(value, 2) for name, value in us.items()},
                      "n_pulses": N_PULSES, "n_hrr_bins": N_HRR_BINS, "blas_threads": 1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
