"""Training: the Adam update of a parameter list.

Adam is plain numpy over ``Tensor.data`` and ``Tensor.grad``, not an engine
op: the benchmark's tracer wraps every public function of ``blan.engine`` as
an op that returns a Tensor.
"""

from __future__ import annotations

import numpy as np

from . import defaults, engine


class AdamState:
    """First and second moments and the step count of each parameter of a list."""

    def __init__(self, params):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = [0] * len(params)


def adam_step(params, state):
    """One bias-corrected Adam update, in place, of every parameter with a gradient.

    Step size LEARNING_RATE, moments ADAM_BETA1/ADAM_BETA2, ADAM_EPS added to
    the root of the corrected second moment (``defaults``). A parameter whose
    grad is None -- a frozen network -- keeps its data, moments and step
    count. A non-finite gradient raises ``engine.NumericalError`` naming the
    parameter's index, and a state built for another list (of another length,
    or with a parameter of another shape) a ValueError, before any parameter
    or moment changes.
    """
    if len(params) != len(state.t):
        raise ValueError(f"adam_step: {len(params)} parameters, state for {len(state.t)}")
    for i, (p, m) in enumerate(zip(params, state.m)):
        if p.data.shape != m.shape:
            raise ValueError(f"adam_step: parameter {i} has shape {p.data.shape}, state for {m.shape}")
    live = [i for i, p in enumerate(params) if p.grad is not None]
    for i in live:
        if not np.isfinite(params[i].grad).all():
            raise engine.NumericalError(f"adam_step: non-finite gradient in parameter {i}")
    b1, b2 = defaults.ADAM_BETA1, defaults.ADAM_BETA2
    for i in live:
        p, g, m, v = params[i], params[i].grad, state.m[i], state.v[i]
        state.t[i] += 1
        t = state.t[i]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        p.data -= (defaults.LEARNING_RATE / (1 - b1 ** t)) * m / (
            np.sqrt(v / (1 - b2 ** t)) + defaults.ADAM_EPS)
