"""A fixed reference computation that tracks the speed of the machine.

On the shared 2-core box the benchmark was built on, the same computation
runs up to ±25% slower or faster from one half-minute to the next (see
README.md), and a batched SVD, a pure-Python loop and a matrix product slow
down together. Timing this block next to every round lets the benchmark
report throughput at the box's nominal speed: a measured rate times
``block time / REFERENCE_BLOCK_S``. The block uses numpy only, so no change
to farcs can change its time.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal block time: reported figures are for a machine that runs the block
# in this time. On the 2.1 GHz Xeon (2 vCPU, OpenBLAS 1 thread) box the
# reference figures come from, one-minute medians ranged from 29 to 50 ms.
REFERENCE_BLOCK_S = 0.05

_rng = np.random.default_rng(20181)


def _complex(*shape):
    return _rng.standard_normal(shape) + 1j * _rng.standard_normal(shape)


# one piece per kind of work the workloads do
_BATCH = _complex(1024, 6, 6)  # batched 6x6 SVDs (census)
_TALL = _complex(64, 512)  # Gram product (coherence)
_FACTOR = _complex(64, 64)  # many small products and reductions (solvers)
_BLOCK = _complex(64, 8)


def reference_block() -> float:
    """Run the fixed block; returns its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(4):
        np.linalg.svd(_BATCH, compute_uv=False)
        np.abs(_TALL.conj().T @ _TALL).max()
        for _ in range(150):
            v = np.sum(_BLOCK * (_FACTOR @ _BLOCK), axis=1)
            np.linalg.norm(v)
        total = 0
        for i in range(5000):  # the interpreter
            total += i * i
    return time.perf_counter() - start


def scale(seconds_per_block: float) -> float:
    """Factor that turns a rate measured at this block time into a nominal rate."""
    return seconds_per_block / REFERENCE_BLOCK_S


def nominal_rate(rounds: list[dict]) -> float:
    """Median over rounds of trials per second at the nominal machine speed.

    Each round carries the mean block time measured just before and just
    after it.
    """
    return float(np.median([r["trials"] / r["seconds"] * scale(r["reference_s"])
                            for r in rounds]))
