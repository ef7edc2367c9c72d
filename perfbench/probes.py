"""Per-call costs of public kernels at the sizes the workloads use.

Each probe times batches of calls on seeded inputs and reports the median and
interquartile range of the per-call time in microseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import maxentsum as mx
from maxentsum.ulc import ulc_order_margins

SAMPLES = 21


def _per_call_us(fn, calls: int) -> tuple[float, float]:
    """Median and IQR of ``fn``'s per-call time; ``fn`` makes ``calls`` calls."""
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q2, q3 - q1


def run(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 0x9E3779B9])
    vectors = [mx.Pmf(rng.dirichlet(np.ones(k))) for k in (5, 9, 13, 17, 21)]
    pairs = list(zip(vectors, vectors[1:] + vectors[:1]))
    point = [mx.Pmf(rng.dirichlet(np.ones(5))) for _ in range(5)]  # (n, r) = (5, 4)
    config = mx.OptimizerConfig()
    batch = rng.dirichlet(np.ones(5), size=4096)

    def convolve():
        for _ in range(40):
            for a, b in pairs:
                mx.convolve(a, b)

    def entropy():
        for _ in range(200):
            for p in vectors:
                mx.entropy(p)

    def gradient():
        for _ in range(40):
            for i in range(5):
                mx.objective_gradient(point, i)

    def ascend():
        for i in range(5):
            mx.block_ascend(point, i, config)

    def margins():
        for _ in range(20):
            ulc_order_margins(batch, 4)

    out = {}
    for name, fn, calls in (
        ("pmf.convolve_us", convolve, 40 * len(pairs)),
        ("pmf.entropy_us", entropy, 200 * len(vectors)),
        ("optimize.objective_gradient_us", gradient, 40 * 5),
        ("optimize.block_ascend_us", ascend, 5),
        ("ulc.ulc_order_margins_us", margins, 20),
    ):
        median, iqr = _per_call_us(fn, calls)
        out[name] = median
        out[f"{name}_iqr"] = iqr
    return out
