"""Machine-speed calibration timed next to every pass.

The host's speed drifts by tens of percent within a minute, with CPU
time tracking wall time, so the drift comes from the machine and not
from scheduling.  A fixed reference kernel, which calls no drtrack
code, is timed after every pass; a pass's wall time is rescaled by the
ratio of the kernel's reference time to its mean time before and after
that pass.  A
change to drtrack cannot move the kernel, so the rescaled time still
moves with drtrack and no longer with the machine.

The kernel repeats the shape of drtrack's hot loop on an array of the
workload's size: a quadratic form and a softmax over N x m samples, the
weighted products that form a gradient, and the eigendecomposition of
an m x m matrix.
"""

from __future__ import annotations

import time

import numpy as np


class Calibrator:
    """Times the reference kernel on an ``rows`` x ``cols`` array."""

    def __init__(self, rows: int, cols: int, seconds: float = 0.1) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((rows, cols))
        self._m = np.cov(self._a.T)
        self._q = rng.standard_normal(cols)
        self._seconds = seconds

    def _kernel(self) -> float:
        a = self._a
        v = np.sum((a @ self._m) * a, axis=1) + a @ self._q
        top = float(v.max())
        w = np.exp((v - top) / 0.1)
        g = a.T @ (w / w.sum()) + ((a * w[:, None]).T @ a)[0]
        vals, vecs = np.linalg.eigh(self._m)
        p = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        return top + float(g[0]) + float(p[0, 0])

    def measure(self) -> float:
        """Seconds per kernel call, averaged over ``seconds`` of calls."""
        begin = time.perf_counter()
        calls = 0
        while True:
            self._kernel()
            calls += 1
            elapsed = time.perf_counter() - begin
            if elapsed >= self._seconds:
                return elapsed / calls
