"""The generator's loss suite and the discriminator objective.

All functions are pure and differentiable: they accept engine Tensors
(single images (C,H,W) or batches (N,C,H,W)) and return scalar Tensors,
so the same code serves training, reporting and gradient verification.
Every log() is clamped by LOG_EPS; L1 terms are means, not sums, so the
default weights keep their meaning across image sizes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

from . import defaults, engine
from .engine import ShapeError, as_tensor


@dataclass
class LossWeights:
    lambda1: float = defaults.LAMBDA_ADV_PIXEL      # pixel-level adversarial
    lambda2: float = defaults.LAMBDA_CONS_FEATURE   # feature reconstruction
    lambda3: float = defaults.LAMBDA_ADV_FEATURE    # feature-level adversarial
    w_edge: float = defaults.WEIGHT_EDGE
    w_sym: float = defaults.WEIGHT_SYM

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < float("inf"):  # NaN fails both
                raise ValueError(f"loss weight {f.name} must be finite and nonnegative")


@dataclass
class LossReport:
    """Per-iteration loss values; cons_p and total_G are the weighted sums."""

    pxl: float = 0.0
    edg: float = 0.0
    sym: float = 0.0
    cons_p: float = 0.0
    adv_p: float = 0.0
    cons_f: float = 0.0
    adv_f: float = 0.0
    total_G: float = 0.0
    loss_Dp: float = 0.0
    loss_Df: float = 0.0

    def row(self):
        return [getattr(self, name) for name in self.FIELDS]


LossReport.FIELDS = tuple(f.name for f in fields(LossReport))


class LossLog:
    """Appends LossReport rows to a CSV training log, 9 significant digits."""

    HEADER = ("iteration",) + LossReport.FIELDS

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(self.HEADER)

    def append(self, iteration, report: LossReport):
        self._writer.writerow([iteration] + [f"{v:.9g}" for v in report.row()])

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _check_same_shape(a, b, what):
    if a.shape != b.shape:
        raise ShapeError(f"{what}: shapes {a.shape} and {b.shape} differ")


def loss_pxl(gen, gt):
    """Mean absolute difference between synthesized and target, of either
    kind: pixels of G(x) against I_B, or features F(G(x)) against F(I_B)."""
    gen, gt = as_tensor(gen), as_tensor(gt)
    _check_same_shape(gen, gt, "pixel or feature L1 loss")
    return engine.tmean(engine.tabs(gen - gt))


def loss_edge(gen, gt):
    """First-order loss: the images' gradient magnitudes should agree.

    Horizontal terms compare |x[i,j+1]-x[i,j]| between the two images,
    vertical terms |x[i+1,j]-x[i,j]|; positions without a right/lower
    neighbour are skipped. Normalized by h*w per channel (and averaged over
    channels and batch), not by the number of valid positions.
    """
    gen, gt = as_tensor(gen), as_tensor(gt)
    _check_same_shape(gen, gt, "edge loss")
    h, w = gen.shape[-2], gen.shape[-1]
    if h < 2 or w < 2:
        raise ShapeError(f"edge loss needs at least 2x2 images, got {h}x{w}")

    def grad_h(x):
        return engine.tabs(x[..., :, 1:] - x[..., :, :-1])

    def grad_v(x):
        return engine.tabs(x[..., 1:, :] - x[..., :-1, :])

    terms = engine.tsum(engine.tabs(grad_h(gen) - grad_h(gt))) + engine.tsum(
        engine.tabs(grad_v(gen) - grad_v(gt))
    )
    return engine.scale(terms, 1.0 / gen.size)


def loss_sym(gen):
    """Left-right asymmetry: mean |x[i,j] - x[i,w-1-j]| over mirror pairs.

    Each pair is counted once (columns j < w/2 against their mirrors), with
    the 1/(h*w/2) normalizer per channel.
    """
    gen = as_tensor(gen)
    w = gen.shape[-1]
    if w % 2:
        raise ShapeError(f"symmetry loss needs even width, got {w}")
    left = gen[..., :, : w // 2]
    right = gen[..., :, : w // 2 - 1 : -1]  # columns w-1 down to w/2
    return engine.tmean(engine.tabs(left - right))


def loss_adv_pixel_G(d_fake):
    """Generator-side adversarial loss of either level: mean of -log D on
    the generator's output, D_p's patch map or D_f's score of F(G(x))."""
    d_fake = as_tensor(d_fake)
    return engine.tmean(-engine.tlog(d_fake + defaults.LOG_EPS))


loss_adv_feature_G = loss_adv_pixel_G


loss_cons_feature = loss_pxl


def loss_D_p(d_real, d_fake):
    """Discriminator objective of either level, D_p or D_f: mean log D(real)
    plus mean log(1 - D(fake)), negated for minimization."""
    d_real, d_fake = as_tensor(d_real), as_tensor(d_fake)
    return -(engine.tmean(engine.tlog(d_real + defaults.LOG_EPS))
             + engine.tmean(engine.tlog((1.0 - d_fake) + defaults.LOG_EPS)))


loss_D_f = loss_D_p


def compose_total(pxl, edg, sym, adv_p, cons_f, adv_f, weights: LossWeights):
    """Weighted generator objective; works on floats and on Tensors alike."""
    cons_p = pxl + weights.w_edge * edg + weights.w_sym * sym
    return cons_p + weights.lambda1 * adv_p + weights.lambda2 * cons_f + weights.lambda3 * adv_f


def loss_total_G(parts: LossReport, weights: LossWeights):
    """Composite generator loss recomputed from a report's raw terms."""
    return compose_total(parts.pxl, parts.edg, parts.sym, parts.adv_p,
                         parts.cons_f, parts.adv_f, weights)
