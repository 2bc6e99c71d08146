"""Loss suite: brute-force loop oracles, hand-computed worked examples,
invariant properties, and finite-difference gradient checks."""

import csv
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blan import engine, losses
from blan.engine import ShapeError, Tensor, grad_check
from blan.losses import LossLog, LossReport, LossWeights

LN2 = float(np.log(2.0))


# -- independent loop oracles (no engine code) --------------------------------

def oracle_pxl(gen, gt):
    total, n = 0.0, 0
    for a, b in zip(gen.reshape(-1), gt.reshape(-1)):
        total += abs(a - b)
        n += 1
    return total / n


def oracle_edge(gen, gt):
    gen = gen.reshape((-1,) + gen.shape[-2:])
    gt = gt.reshape((-1,) + gt.shape[-2:])
    k, h, w = gen.shape
    total = 0.0
    for c in range(k):
        for i in range(h):
            for j in range(w):
                if j + 1 < w:
                    total += abs(abs(gen[c, i, j] - gen[c, i, j + 1])
                                 - abs(gt[c, i, j] - gt[c, i, j + 1]))
                if i + 1 < h:
                    total += abs(abs(gen[c, i, j] - gen[c, i + 1, j])
                                 - abs(gt[c, i, j] - gt[c, i + 1, j]))
    return total / (k * h * w)


def oracle_sym(gen):
    gen = gen.reshape((-1,) + gen.shape[-2:])
    k, h, w = gen.shape
    total = 0.0
    for c in range(k):
        for i in range(h):
            for j in range(w // 2):
                total += abs(gen[c, i, j] - gen[c, i, w - 1 - j])
    return total / (k * h * (w // 2))


def oracle_feature(a, b):
    return sum(abs(x - y) for x, y in zip(a, b)) / len(a)


def rnd(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


class TestPixelLoss:
    def test_identical_images_zero(self):
        x = rnd(np.random.default_rng(0), 3, 4, 4)
        assert losses.loss_pxl(x, x.copy()).item() == 0.0

    def test_constant_images(self):
        gen = np.full((3, 4, 4), 0.5, dtype=np.float32)
        gt = np.full((3, 4, 4), 0.25, dtype=np.float32)
        assert losses.loss_pxl(gen, gt).item() == pytest.approx(0.25, abs=1e-7)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        gen, gt = rnd(rng, 1, 3, 3), rnd(rng, 1, 3, 3)
        assert losses.loss_pxl(gen, gt).item() == pytest.approx(oracle_pxl(gen, gt), abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            losses.loss_pxl(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))


class TestEdgeLoss:
    def test_constant_images_zero(self):
        gen = np.full((1, 4, 4), 0.7)
        gt = np.full((1, 4, 4), -0.3)
        assert losses.loss_edge(gen, gt).item() == pytest.approx(0.0, abs=1e-7)

    def test_identical_images_zero(self):
        x = rnd(np.random.default_rng(2), 3, 5, 5)
        assert losses.loss_edge(x, x.copy()).item() == pytest.approx(0.0, abs=1e-7)

    def test_hand_computed_2x2(self):
        gen = np.array([[[0.0, 1.0], [0.0, 1.0]]])
        gt = np.zeros((1, 2, 2))
        # horizontal |1|-|0| per row -> 1+1; vertical 0; sum 2 over h*w=4
        assert losses.loss_edge(gen, gt).item() == pytest.approx(0.5, abs=1e-7)
        assert oracle_edge(gen, gt) == pytest.approx(0.5, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        gen, gt = rnd(rng, 2, 4, 5), rnd(rng, 2, 4, 5)
        assert losses.loss_edge(gen, gt).item() == pytest.approx(oracle_edge(gen, gt), abs=1e-6)

    def test_translation_blindness(self):
        rng = np.random.default_rng(4)
        gen, gt = rnd(rng, 1, 4, 4) * 0.4, rnd(rng, 1, 4, 4) * 0.4
        base = losses.loss_edge(gen, gt).item()
        both = losses.loss_edge(gen + 0.3, gt + 0.3).item()
        gen_only = losses.loss_edge(gen + 0.3, gt).item()
        assert both == pytest.approx(base, abs=1e-6)
        assert gen_only == pytest.approx(base, abs=1e-6)
        assert losses.loss_pxl(gen + 0.3, gt).item() > losses.loss_pxl(gen, gt).item()

    def test_too_small_rejected(self):
        with pytest.raises(ShapeError):
            losses.loss_edge(np.zeros((1, 1, 4)), np.zeros((1, 1, 4)))


class TestSymmetryLoss:
    def test_mirror_symmetric_zero(self):
        rng = np.random.default_rng(5)
        half = rnd(rng, 3, 4, 2)
        img = np.concatenate([half, half[:, :, ::-1]], axis=2)
        assert losses.loss_sym(img).item() == pytest.approx(0.0, abs=1e-7)

    def test_hand_computed_2x2(self):
        img = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        assert losses.loss_sym(img).item() == pytest.approx(1.0, abs=1e-7)
        assert oracle_sym(img) == pytest.approx(1.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        img = rnd(rng, 3, 4, 6)
        assert losses.loss_sym(img).item() == pytest.approx(oracle_sym(img), abs=1e-6)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mirror_invariance(self, seed):
        img = rnd(np.random.default_rng(seed), 2, 4, 6)
        a = losses.loss_sym(img).item()
        b = losses.loss_sym(img[:, :, ::-1].copy()).item()
        assert a == pytest.approx(b, abs=1e-6)

    def test_odd_width_rejected(self):
        with pytest.raises(ShapeError):
            losses.loss_sym(np.zeros((1, 2, 3)))


class TestAdversarialLosses:
    def test_adv_pixel_perfect_fool_near_zero(self):
        m = np.full((2, 2), 1.0 - 1e-7)
        assert losses.loss_adv_pixel_G(m).item() == pytest.approx(0.0, abs=1e-6)

    def test_adv_pixel_half(self):
        m = np.full((2, 2), 0.5)
        assert losses.loss_adv_pixel_G(m).item() == pytest.approx(LN2, abs=1e-6)

    def test_adv_pixel_mixed_map(self):
        m = np.array([[0.5, 0.5], [1.0 - 1e-7, 1.0 - 1e-7]])
        assert losses.loss_adv_pixel_G(m).item() == pytest.approx(LN2 / 2, abs=1e-6)

    def test_adv_feature_values(self):
        assert losses.loss_adv_feature_G(np.float64(1.0 - 1e-7)).item() == pytest.approx(0.0, abs=1e-6)
        assert losses.loss_adv_feature_G(np.float64(0.5)).item() == pytest.approx(LN2, abs=1e-6)
        assert losses.loss_adv_feature_G(np.exp(np.float64(-1.0))).item() == pytest.approx(1.0, abs=1e-6)

    def test_disc_pixel_values(self):
        perfect = losses.loss_D_p(np.full((2, 2), 1.0 - 1e-7), np.full((2, 2), 1e-7))
        assert perfect.item() == pytest.approx(0.0, abs=1e-5)
        half = losses.loss_D_p(np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        assert half.item() == pytest.approx(2 * LN2, abs=1e-6)

    def test_disc_feature_values(self):
        assert losses.loss_D_f(np.float64(1 - 1e-7), np.float64(1e-7)).item() == pytest.approx(0.0, abs=1e-5)
        assert losses.loss_D_f(np.float64(0.5), np.float64(0.5)).item() == pytest.approx(2 * LN2, abs=1e-6)
        e = np.exp(np.float64(-1.0))
        assert losses.loss_D_f(e, 1.0 - e).item() == pytest.approx(2.0, abs=1e-6)


class TestFeatureConsistency:
    def test_identical_zero(self):
        f = np.arange(8.0)
        assert losses.loss_cons_feature(f, f.copy()).item() == 0.0

    def test_unit_case(self):
        assert losses.loss_cons_feature(np.array([1.0, 0.0]), np.array([0.0, 1.0])).item() == pytest.approx(1.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        a, b = rnd(rng, 8), rnd(rng, 8)
        assert losses.loss_cons_feature(a, b).item() == pytest.approx(oracle_feature(a, b), abs=1e-6)


@pytest.mark.parametrize("loss,args", [
    (losses.loss_sym, [np.zeros((3, 4, 0))]),
    (losses.loss_pxl, [np.zeros((0, 3)), np.zeros((0, 3))]),
    (losses.loss_adv_pixel_G, [np.zeros((0,))]),
], ids=["sym", "pxl", "adv_pixel_G"])
def test_loss_of_an_empty_input_rejected(loss, args):
    # a mean over no terms has no value
    with pytest.raises(ShapeError, match="tmean"):
        loss(*args)


class TestComposite:
    def test_all_zero(self):
        assert losses.loss_total_G(LossReport(), LossWeights()) == 0.0

    def test_single_term(self):
        w = LossWeights(lambda1=1.0, lambda2=0.0, lambda3=0.0)
        parts = LossReport(adv_p=0.7, edg=0.0, sym=0.0)
        assert losses.loss_total_G(parts, w) == pytest.approx(0.7)

    def test_default_weights_worked_example(self):
        parts = LossReport(pxl=0.2, edg=0.1, sym=0.1, adv_p=0.69, cons_f=0.5, adv_f=0.69)
        got = losses.loss_total_G(parts, LossWeights())
        # oracle: plain sum of the weighted terms
        expected = 0.2 + 0.1 * 0.1 + 0.3 * 0.1 + 3e-3 * 0.69 + 0.02 * 0.5 + 3e-3 * 0.69
        assert expected == pytest.approx(0.25414, abs=1e-9)
        assert got == pytest.approx(0.25414, abs=1e-9)

    def test_affine_in_each_weight(self):
        rng = np.random.default_rng(8)
        parts = LossReport(pxl=rng.uniform(), edg=rng.uniform(), sym=rng.uniform(),
                           adv_p=rng.uniform(), cons_f=rng.uniform(), adv_f=rng.uniform())
        base = losses.loss_total_G(parts, LossWeights(lambda1=0.0))
        bumped = losses.loss_total_G(parts, LossWeights(lambda1=2.0))
        assert bumped - base == pytest.approx(2.0 * parts.adv_p, rel=1e-9)

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
    def test_negative_weight_rejected(self, value):
        with pytest.raises(ValueError, match="lambda1"):
            LossWeights(lambda1=value)


class TestLossLog:
    VALUES = [1 / 3, 2 / 3, 3.14159265358979, 123456.789123, 1e-10 / 3, 0.5, 0.0, -7 / 9, 2.0, 1e20 / 7]
    WRITTEN = ["0.333333333", "0.666666667", "3.14159265", "123456.789", "3.33333333e-11",
               "0.5", "0", "-0.777777778", "2", "1.42857143e+19"]

    def _read(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_header_is_iteration_then_the_report_fields_in_order(self, tmp_path):
        with LossLog(tmp_path / "log.csv"):
            pass
        header = ["iteration"] + [f.name for f in fields(LossReport)]
        assert list(LossLog.HEADER) == header
        assert self._read(tmp_path / "log.csv") == [header]

    def test_values_come_back_at_9_significant_digits(self, tmp_path):
        with LossLog(tmp_path / "log.csv") as log:
            log.append(0, LossReport(*self.VALUES))
            log.append(12, LossReport())
        rows = self._read(tmp_path / "log.csv")[1:]
        assert rows == [["0"] + self.WRITTEN, ["12"] + ["0"] * len(LossReport.FIELDS)]
        assert [float(v) for v in rows[0][1:]] == pytest.approx(self.VALUES, rel=5e-9)

    def test_with_closes_the_file(self, tmp_path):
        with LossLog(tmp_path / "a.csv") as log:
            pass
        assert log._fh.closed
        with pytest.raises(RuntimeError), LossLog(tmp_path / "b.csv") as log:
            raise RuntimeError
        assert log._fh.closed


class TestProperties:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        gen, gt = rnd(rng, 2, 4, 4), rnd(rng, 2, 4, 4)
        probs = rng.uniform(1e-6, 1 - 1e-6, size=(2, 2))
        assert losses.loss_pxl(gen, gt).item() >= 0.0
        assert losses.loss_edge(gen, gt).item() >= 0.0
        assert losses.loss_sym(gen).item() >= 0.0
        assert losses.loss_adv_pixel_G(probs).item() >= 0.0
        assert losses.loss_D_p(probs, probs).item() >= 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pxl_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        gen = rnd(rng, 1, 3, 4)
        assert losses.loss_pxl(gen, gen.copy()).item() == 0.0
        gt = gen.copy()
        gt[0, 1, 2] += 0.5
        assert losses.loss_pxl(gen, gt).item() > 0.0

    def test_sym_zero_iff_mirror_symmetric(self):
        rng = np.random.default_rng(9)
        half = rnd(rng, 1, 3, 2)
        img = np.concatenate([half, half[:, :, ::-1]], axis=2)
        assert losses.loss_sym(img).item() == pytest.approx(0.0, abs=1e-9)
        img[0, 0, 0] += 0.25
        assert losses.loss_sym(img).item() > 0.0


def _away_from_kinks(rng, shape, other=None, margin=1e-3):
    """Random values whose pairwise differences stay away from |.| kinks."""
    x = rng.uniform(-1, 1, size=shape)
    if other is not None:
        close = np.abs(x - other) < margin
        x = np.where(close, x + 3 * margin, x)
    return x


class TestLossGradients:
    """Finite-difference checks of every generator-facing loss (64-bit)."""

    def test_pxl_gradient(self):
        rng = np.random.default_rng(20)
        gt = _away_from_kinks(rng, (1, 4, 4))
        gen = Tensor(_away_from_kinks(rng, (1, 4, 4), other=gt).astype(np.float64),
                     requires_grad=True)
        f = lambda p: losses.loss_pxl(p[0], Tensor(gt))
        assert grad_check(f, [gen]) < 1e-4

    def test_edge_gradient(self):
        rng = np.random.default_rng(21)
        gt = rnd(rng, 1, 4, 4)
        gen = Tensor((gt + rng.uniform(0.05, 0.4, size=gt.shape)).astype(np.float64),
                     requires_grad=True)
        f = lambda p: losses.loss_edge(p[0], Tensor(gt))
        assert grad_check(f, [gen]) < 1e-4

    def test_sym_gradient_on_asymmetric_input(self):
        rng = np.random.default_rng(22)
        img = rnd(rng, 1, 4, 4)
        img[:, :, :2] += 0.5  # guarantee asymmetry away from kinks
        gen = Tensor(img.astype(np.float64), requires_grad=True)
        assert grad_check(lambda p: losses.loss_sym(p[0]), [gen]) < 1e-4

    def test_adv_and_disc_gradients_through_sigmoid(self):
        rng = np.random.default_rng(23)
        z_real = Tensor(rng.normal(size=(2, 2)).astype(np.float64), requires_grad=True)
        z_fake = Tensor(rng.normal(size=(2, 2)).astype(np.float64), requires_grad=True)

        def f_adv(p):
            return losses.loss_adv_pixel_G(engine.sigmoid(p[0]))

        def f_disc(p):
            return losses.loss_D_p(engine.sigmoid(p[0]), engine.sigmoid(p[1]))

        assert grad_check(f_adv, [z_real]) < 1e-4
        assert grad_check(f_disc, [z_real, z_fake]) < 1e-4

    def test_feature_losses_gradients(self):
        rng = np.random.default_rng(24)
        f_gt = rnd(rng, 8)
        f_gen = Tensor(_away_from_kinks(rng, (8,), other=f_gt).astype(np.float64),
                       requires_grad=True)
        assert grad_check(lambda p: losses.loss_cons_feature(p[0], Tensor(f_gt)), [f_gen]) < 1e-4

        z = Tensor(rng.normal(size=()).astype(np.float64), requires_grad=True)
        assert grad_check(lambda p: losses.loss_adv_feature_G(engine.sigmoid(p[0])), [z]) < 1e-4

    def test_constant_function_zero_error(self):
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        assert grad_check(lambda p: engine.tsum(p[0] * 0.0), [x]) == 0.0
