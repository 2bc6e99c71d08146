"""Adam: a hand-computed two-step oracle, frozen parameters, and the
refusal of non-finite gradients; and the hand-off of a pretrained F to
BlanModel."""

import numpy as np
import pytest

from blan import defaults, engine, synth
from blan.engine import NumericalError, Tensor
from blan.layers import Linear
from blan.networks import (
    BlanConfig, BlanModel, FeatureExtractor, FeatureExtractorConfig, extract_feature,
    load_network_state, network_state_vector,
)
from blan.train import Adam


def param(values, grad=None, dtype=np.float64):
    p = Tensor(np.asarray(values, dtype=dtype), requires_grad=True)
    p.grad = None if grad is None else np.asarray(grad, dtype=dtype)
    return p


def test_defaults_are_the_conditional_gan_convention():
    assert (defaults.LEARNING_RATE, defaults.ADAM_BETA1, defaults.ADAM_BETA2,
            defaults.ADAM_EPS) == (1e-4, 0.5, 0.999, 1e-8)


def test_two_steps_match_hand_computed_oracle():
    g1, g2 = np.array([1.0, -2.0, 0.0]), np.array([3.0, 2.0, 0.0])
    p = param([0.5, 0.5, 0.5])
    adam = Adam([p])
    p.grad = g1
    adam.step()
    # step 1: m = 0.5*g1 and v = 0.001*g1^2, corrected by 1 - 0.5 and
    # 1 - 0.999 to g1 and g1^2, so each coordinate moves lr * sign(g1)
    np.testing.assert_allclose(p.data, [0.5 - 1e-4 / (1 + 1e-8), 0.5 + 2e-4 / (2 + 1e-8), 0.5],
                               rtol=0, atol=1e-16)
    p.grad = g2
    adam.step()
    # step 2: m = 0.25*g1 + 0.5*g2 = [1.75, 0.5, 0], corrected by 1 - 0.25;
    # v = 0.000999*g1^2 + 0.001*g2^2 = [0.009999, 0.007996, 0], by 1 - 0.998001
    mhat = np.array([1.75, 0.5, 0.0]) / 0.75
    vhat = np.array([0.009999, 0.007996, 0.0]) / 0.001999
    step2 = 1e-4 * mhat / (np.sqrt(vhat) + 1e-8)
    expected = np.array([0.5 - 1e-4 / (1 + 1e-8), 0.5 + 2e-4 / (2 + 1e-8), 0.5]) - step2
    np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(adam.m[0], [1.75, 0.5, 0.0], rtol=1e-15)
    np.testing.assert_allclose(adam.v[0], [0.009999, 0.007996, 0.0], rtol=1e-12)
    assert adam.t == [2]


def test_float32_parameters_stay_float32_in_place():
    p = param(np.ones((2, 3)), np.full((2, 3), 0.25), dtype=np.float32)
    data = p.data
    Adam([p]).step()
    assert p.data is data and data.dtype == np.float32
    np.testing.assert_allclose(data, 1 - 1e-4, rtol=0, atol=1e-7)


def test_parameter_without_gradient_is_untouched():
    live, frozen = param([1.0, 2.0], [0.5, -0.5]), param([3.0, 4.0])
    adam = Adam([live, frozen])
    adam.step()
    assert frozen.data.tolist() == [3.0, 4.0]
    assert adam.t == [1, 0]
    assert not adam.m[1].any() and not adam.v[1].any()
    assert live.data.tolist() != [1.0, 2.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_changes_nothing(bad):
    params = [param([1.0, 2.0], [0.1, 0.2]), param([3.0, 4.0], [0.3, 0.4])]
    adam = Adam(params)
    adam.step()
    data = [p.data.copy() for p in params]
    moments = [a.copy() for a in adam.m + adam.v]
    # parameter 0 comes first and has a finite gradient: it must not move either
    params[0].grad = np.array([0.5, 0.5])
    params[1].grad = np.array([0.3, bad])
    with pytest.raises(NumericalError, match="parameter 1"):
        adam.step()
    assert adam.t == [1, 1]
    for p, d in zip(params, data):
        assert p.data.tobytes() == d.tobytes()
    for a, b in zip(adam.m + adam.v, moments):
        assert a.tobytes() == b.tobytes()


def test_freeze_drops_gradients_so_adam_leaves_the_network():
    """Pretrain, then freeze: a gradient left from before the freeze must not
    move the frozen F."""
    F = FeatureExtractor(FeatureExtractorConfig(input_size=(16, 16, 3)),
                         rng=np.random.default_rng(1))
    images = np.random.default_rng(2).uniform(-1, 1, size=(4, 3, 16, 16)).astype(np.float32)
    adam = Adam(F.parameters())
    engine.tsum(F(Tensor(images))).backward()
    assert all(p.grad is not None for p in F.parameters())
    F.freeze()
    assert all(p.grad is None for p in F.parameters())
    state = network_state_vector(F).tobytes()
    adam.step()
    assert network_state_vector(F).tobytes() == state
    assert adam.t == [0] * len(F.parameters())


def test_pretrained_extractor_loads_into_blan_model():
    """Pretraining trains F under a classifier head of its own, outside F, so
    the trained F's state loads into BlanModel's F as it is."""
    images, labels = synth.render_variations(4, 2, seed=0, size=(16, 16))
    F = FeatureExtractor(FeatureExtractorConfig(input_size=(16, 16, 3)),
                         rng=np.random.default_rng(1))
    head = Linear(defaults.FEATURE_DIM, 4, rng=np.random.default_rng(2))
    assert not {id(p) for p in head.parameters()} & {id(p) for p in F.parameters()}
    params = F.parameters() + head.parameters()
    before = [p.data.copy() for p in params]
    engine.softmax_cross_entropy(head(F(Tensor(images))), labels).backward()
    Adam(params).step()
    moved = [not np.array_equal(p.data, b) for p, b in zip(params, before)]
    n_f = len(F.parameters())
    assert any(moved[:n_f]) and all(moved[n_f:])  # one step trained F and its head

    model = BlanModel(BlanConfig.for_size(16), seed=0)
    load_network_state(model.F, network_state_vector(F))
    F.freeze()
    model.F.freeze()
    probe = Tensor(images[::2])
    assert (extract_feature(model.F, probe).data.tobytes()
            == extract_feature(F, probe).data.tobytes())
