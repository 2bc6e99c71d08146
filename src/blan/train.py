"""Training: Adam, the optimizer of one parameter list.

Adam is plain numpy over ``Tensor.data`` and ``Tensor.grad``, not an engine
op: the benchmark's tracer wraps every public function of ``blan.engine`` as
an op that returns a Tensor.
"""

from __future__ import annotations

import numpy as np

from . import defaults, engine


class Adam:
    """The parameter list it updates, and each parameter's first and second
    moments and step count."""

    def __init__(self, params):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = [0] * len(self.params)

    def step(self):
        """One bias-corrected Adam update, in place, of every parameter with a gradient.

        Step size LEARNING_RATE, moments ADAM_BETA1/ADAM_BETA2, ADAM_EPS added
        to the root of the corrected second moment (``defaults``). A parameter
        whose grad is None -- a frozen network -- keeps its data, moments and
        step count. A non-finite gradient raises ``engine.NumericalError``
        naming the parameter's index, before any parameter or moment changes.
        """
        live = [i for i, p in enumerate(self.params) if p.grad is not None]
        for i in live:
            if not np.isfinite(self.params[i].grad).all():
                raise engine.NumericalError(f"Adam.step: non-finite gradient in parameter {i}")
        b1, b2 = defaults.ADAM_BETA1, defaults.ADAM_BETA2
        for i in live:
            p, g, m, v = self.params[i], self.params[i].grad, self.m[i], self.v[i]
            self.t[i] += 1
            t = self.t[i]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= (defaults.LEARNING_RATE / (1 - b1 ** t)) * m / (
                np.sqrt(v / (1 - b2 ** t)) + defaults.ADAM_EPS)
