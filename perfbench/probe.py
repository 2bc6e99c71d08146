"""Host-speed probes: fixed numpy work that no change to ``blan`` can touch.

A workload's timings are divided by the median time of its probe, run in
the same process between steps, which cancels most of the drift that other
tenants of a shared host cause. The probes import nothing from ``blan`` and
their inputs do not depend on the workload seed, so they do identical work
on every run.

Contention slows small and large numpy operations by different amounts, so
there are two probes of about 20 ms each on one core:

* ``large``: a few stride-2 4x4 convolutions done the im2col way (strided
  copies into a fresh patch matrix, then a float32 GEMM), one large GEMM
  and one large strided copy; the mix of the batch-8 and reference-size
  forward passes.
* ``small``: many small elementwise calls; the per-op dispatch that
  dominates the batch-4 training iteration and its backward pass.

Each workload names the probe that matches its op sizes. One probe mixing
both halves, or a plain GEMM and copy, tracked the workloads less well.
"""

from __future__ import annotations

import time

import numpy as np

# (input N,C,H,W), (filters F,C,kh,kw): stride 2, pad 1
CONV_SHAPES = (
    ((8, 3, 64, 64), (16, 3, 4, 4)),
    ((8, 16, 32, 32), (32, 16, 4, 4)),
    ((8, 32, 16, 16), (64, 32, 4, 4)),
    ((8, 64, 8, 8), (128, 64, 4, 4)),
    ((1, 64, 64, 64), (128, 64, 4, 4)),
)
GEMM_N = 768
COPY_SHAPE = (32, 384, 384)
SMALL_SHAPE = (16, 16, 8, 8)
SMALL_REPS = 2100


def _conv_s2(x, w):
    n, c, h, wd = x.shape
    f, _c, kh, kw = w.shape
    oh, ow = h // 2, wd // 2
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + 2 * oh : 2, j : j + 2 * ow : 2]
    out = np.matmul(w.reshape(f, -1), cols.reshape(n, c * kh * kw, oh * ow))
    return out.reshape(n, f, oh, ow)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


class LargeOpProbe:
    """im2col convolutions, a large GEMM and a large strided copy."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.convs = [
            (rng.standard_normal(xs).astype(np.float32), rng.standard_normal(ws).astype(np.float32))
            for xs, ws in CONV_SHAPES
        ]
        self.a = rng.standard_normal((GEMM_N, GEMM_N)).astype(np.float32)
        self.b = rng.standard_normal((GEMM_N, GEMM_N)).astype(np.float32)
        self.src = rng.standard_normal(COPY_SHAPE).astype(np.float32)

    def _work(self):
        for x, w in self.convs:
            y = _conv_s2(x, w)
            np.maximum(y, 0.2 * y)
        self.a @ self.b
        np.ascontiguousarray(self.src[:, ::3, ::2])

    def __call__(self):
        """Run the probe once; returns its wall time in ms."""
        return _timed(self._work)


class SmallOpProbe:
    """Many elementwise numpy calls on a small array."""

    def __init__(self):
        self.x = np.random.default_rng(12345).standard_normal(SMALL_SHAPE).astype(np.float32)

    def _work(self):
        x = self.x
        for _ in range(SMALL_REPS):
            np.maximum(x, 0.2 * x) * 1.5

    def __call__(self):
        """Run the probe once; returns its wall time in ms."""
        return _timed(self._work)


PROBES = {"large": LargeOpProbe, "small": SmallOpProbe}
