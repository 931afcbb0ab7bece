"""A fixed reference workload that gauges how fast the host runs right now.

Other guests on the host slow every stage of a run together, by up to 1.9
times for stretches of seconds to minutes. The benchmark runs this
workload between the stage passes of a round; the mean of its times over
the round, divided by NOMINAL_S, is the round's host factor, and every
stage wall of the round is divided by it (see README.md, "Noise on this
machine"). The workload is benchmark code only, with fixed inputs, so a
change to the program cannot move it. It holds one kernel for each kind of
work the pipeline does: dense matrix products (train, encode), lookups of
Python objects in a shuffled order (labels, ids, CSV rows), a stable sort
(ranking), table gathers (distance look-up tables) and normal sampling
(set-up).
"""

from __future__ import annotations

import time

import numpy as np

# about the median of measure() on the machine the bounds were set on
# (2-vCPU Xeon guest, 2.1 GHz, one BLAS thread); a constant, so the scaled
# walls keep their units
NOMINAL_S = 0.11


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20240917)
        self.x = rng.standard_normal((128, 512))
        self.w = rng.standard_normal((512, 512))
        self.keys = [f"n{i % 16}_{i}" for i in range(40_000)]
        self.row = {k: i for i, k in enumerate(self.keys)}
        self.order = rng.permutation(len(self.keys)).tolist()
        self.dist = rng.standard_normal(20_000)
        self.table = rng.standard_normal(1 << 19)
        self.index = rng.integers(0, len(self.table), 100_000)
        self.measure()  # first calls pay for lazy set-up; not counted

    def measure(self) -> float:
        """Wall time of one pass over every kernel."""
        t0 = time.perf_counter()
        for _ in range(20):
            self.x @ self.w
        for _ in range(2):
            sum(self.row[self.keys[i]] for i in self.order)
        for _ in range(8):
            self.dist[np.argsort(self.dist, kind="stable")]
        for _ in range(32):
            self.table[self.index].sum()
        for _ in range(2):
            np.random.default_rng(7).standard_normal((8_000, 64))
        return time.perf_counter() - t0
