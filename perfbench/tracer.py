"""Outside-in op trace for the benchmark's traced run.

``Tracer.installed()`` replaces every public op in ``blan.engine``, the
forward of each network class and ``Tensor.backward`` with timing wrappers,
and restores the originals on exit. Nothing under ``src/`` changes.

* Op spans are keyed by ``(op, input shapes)``. Self time is the span's
  time minus the time of op spans nested in it (``tmean`` calls ``tsum``,
  then ``scale``, which calls ``mul``).
* The ``_backward`` closure of every graph node an op creates is wrapped, so
  backward time is keyed like the forward and attributed to the network
  whose forward created the node; ops created outside any network count as
  ``losses``.
* ``walk`` is the time in ``Tensor.backward`` minus the time in closures.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict

import numpy as np

from blan import engine, networks

NOT_OPS = frozenset({"no_grad", "as_tensor", "grad_check"})
# forward entry points; F's forward calls features, so only features is wrapped
NETWORK_METHODS = (
    ("G", networks.Generator, "forward"),
    ("D_p", networks.PatchDiscriminator, "forward"),
    ("D_f", networks.FeatureDiscriminator, "forward"),
    ("F", networks.FeatureExtractor, "features"),
)
CATEGORIES = ("conv2d", "conv_transpose2d", "batchnorm2d", "getitem", "concat", "matmul")
OUTSIDE_NETWORKS = "losses"


def public_ops():
    """Names of the public op functions defined in ``blan.engine``."""
    return sorted(
        name for name, fn in vars(engine).items()
        if inspect.isfunction(fn) and fn.__module__ == engine.__name__
        and not name.startswith("_") and name not in NOT_OPS
    )


def category(op):
    """The per-layer bucket of an op: its own name, or ``pointwise``."""
    return op if op in CATEGORIES else "pointwise"


def _shape_of(a):
    if isinstance(a, (engine.Tensor, np.ndarray)):
        return tuple(a.shape)
    if isinstance(a, (list, tuple)) and a and isinstance(a[0], engine.Tensor):
        return tuple(tuple(t.shape) for t in a)
    return None


def _shapes(args):
    return tuple(s for s in map(_shape_of, args) if s is not None)


def _requires_grad(a):
    return isinstance(a, engine.Tensor) and a.requires_grad


def conv_flops(op, args, out):
    """(forward, backward) FLOPs of a conv call, from its shapes.

    Backward counts one GEMM per operand (input, weight) that needs a
    gradient; bias terms are ignored.
    """
    x, w = args[0], args[1]
    f, c, kh, kw = w.shape
    if op == "conv2d":
        n, _f, oh, ow = out.shape
        fwd = 2 * n * f * oh * ow * c * kh * kw
    else:
        n, _f, h, wd = x.shape
        fwd = 2 * n * f * h * wd * c * kh * kw
    return fwd, fwd * (int(_requires_grad(x)) + int(_requires_grad(w)))


class OpStats:
    __slots__ = ("calls", "fwd_s", "bwd_calls", "bwd_s", "fwd_flops", "bwd_flops")

    def __init__(self):
        self.calls = self.bwd_calls = 0
        self.fwd_s = self.bwd_s = 0.0
        self.fwd_flops = self.bwd_flops = 0


class _TimedBackward:
    """Stands in for a node's ``_backward`` closure and times it."""

    __slots__ = ("fn", "stats", "net", "flops", "tracer")

    def __init__(self, fn, stats, net, flops, tracer):
        self.fn, self.stats, self.net, self.flops, self.tracer = fn, stats, net, flops, tracer

    def __call__(self, g):
        t0 = time.perf_counter()
        self.fn(g)
        dt = time.perf_counter() - t0
        self.stats.bwd_calls += 1
        self.stats.bwd_s += dt
        self.stats.bwd_flops += self.flops
        self.tracer.net_bwd_s[self.net] += dt
        self.tracer.closure_s += dt


class Tracer:
    """Accumulates op and network spans while installed."""

    def __init__(self):
        self.ops = defaultdict(OpStats)          # (op, shapes) -> OpStats
        self.net_fwd_s = defaultdict(float)
        self.net_bwd_s = defaultdict(float)
        self.net_self_fwd_s = defaultdict(float)  # op self time by creating network
        self.walk_s = 0.0
        self.closure_s = 0.0
        self.nodes = 0
        self.out_bytes = 0
        self._child_s = []                        # one accumulator per open op span
        self._nets = []                           # open network spans
        self._originals = []

    # -- wrappers --------------------------------------------------------------

    def _wrap_op(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._child_s.pop()
            if tracer._child_s:
                tracer._child_s[-1] += dt
            net = tracer._nets[-1] if tracer._nets else OUTSIDE_NETWORKS
            stats = tracer.ops[(name, _shapes(args))]
            stats.calls += 1
            stats.fwd_s += dt - child
            tracer.net_self_fwd_s[net] += dt - child
            fwd_flops = bwd_flops = 0
            if name in ("conv2d", "conv_transpose2d"):
                fwd_flops, bwd_flops = conv_flops(name, args, out)
                stats.fwd_flops += fwd_flops
            if child == 0.0:  # a leaf span allocated this output
                tracer.out_bytes += out.data.nbytes
            if out._backward is not None and not isinstance(out._backward, _TimedBackward):
                out._backward = _TimedBackward(out._backward, stats, net, bwd_flops, tracer)
                tracer.nodes += 1
            return out

        return traced

    def _wrap_network(self, net, fn):
        tracer = self

        def traced(module, *args):
            tracer._nets.append(net)
            t0 = time.perf_counter()
            try:
                return fn(module, *args)
            finally:
                tracer.net_fwd_s[net] += time.perf_counter() - t0
                tracer._nets.pop()

        return traced

    def _wrap_backward(self, fn):
        tracer = self

        def traced(tensor):
            closures_before = tracer.closure_s
            t0 = time.perf_counter()
            try:
                return fn(tensor)
            finally:
                dt = time.perf_counter() - t0
                tracer.walk_s += dt - (tracer.closure_s - closures_before)

        return traced

    # -- install / remove ------------------------------------------------------

    def _replace(self, owner, name, value):
        self._originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name in public_ops():
            self._replace(engine, name, self._wrap_op(name, getattr(engine, name)))
        for net, cls, method in NETWORK_METHODS:
            self._replace(cls, method, self._wrap_network(net, cls.__dict__[method]))
        self._replace(engine.Tensor, "backward",
                      self._wrap_backward(engine.Tensor.__dict__["backward"]))

    def uninstall(self):
        while self._originals:
            owner, name, value = self._originals.pop()
            setattr(owner, name, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------------

    def by_category(self):
        """category -> OpStats summed over all keys of that category."""
        out = {c: OpStats() for c in CATEGORIES + ("pointwise",)}
        for (op, _shapes), s in self.ops.items():
            t = out[category(op)]
            t.calls += s.calls
            t.bwd_calls += s.bwd_calls
            t.fwd_s += s.fwd_s
            t.bwd_s += s.bwd_s
            t.fwd_flops += s.fwd_flops
            t.bwd_flops += s.bwd_flops
        return out

    def table(self, per, scale=1.0, top=25):
        """The ``(op, shapes)`` rows with the most self time, per operation.

        ``per`` is the number of traced operations; times are in ms and
        multiplied by ``scale`` (the host normalization factor).
        """
        rows = []
        for (op, shapes), s in self.ops.items():
            rows.append(dict(
                op=op, shapes=" ".join(map(str, shapes)),
                calls=s.calls / per, bwd_calls=s.bwd_calls / per,
                fwd_ms=s.fwd_s * 1e3 * scale / per, bwd_ms=s.bwd_s * 1e3 * scale / per,
            ))
        rows.sort(key=lambda r: r["fwd_ms"] + r["bwd_ms"], reverse=True)
        return rows[:top]
