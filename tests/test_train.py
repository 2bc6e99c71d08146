"""Adam: a hand-computed two-step oracle, frozen parameters, and the
refusal of non-finite gradients."""

import numpy as np
import pytest

from blan import defaults
from blan.engine import NumericalError, Tensor
from blan.train import AdamState, adam_step


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
    state = AdamState([p])
    p.grad = g1
    adam_step([p], state)
    # step 1: m = 0.5*g1 and v = 0.001*g1^2, corrected by 1 - 0.5 and
    # 1 - 0.999 to g1 and g1^2, so each coordinate moves lr * sign(g1)
    np.testing.assert_allclose(p.data, [0.5 - 1e-4 / (1 + 1e-8), 0.5 + 2e-4 / (2 + 1e-8), 0.5],
                               rtol=0, atol=1e-16)
    p.grad = g2
    adam_step([p], state)
    # step 2: m = 0.25*g1 + 0.5*g2 = [1.75, 0.5, 0], corrected by 1 - 0.25;
    # v = 0.000999*g1^2 + 0.001*g2^2 = [0.009999, 0.007996, 0], by 1 - 0.998001
    mhat = np.array([1.75, 0.5, 0.0]) / 0.75
    vhat = np.array([0.009999, 0.007996, 0.0]) / 0.001999
    step2 = 1e-4 * mhat / (np.sqrt(vhat) + 1e-8)
    expected = np.array([0.5 - 1e-4 / (1 + 1e-8), 0.5 + 2e-4 / (2 + 1e-8), 0.5]) - step2
    np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(state.m[0], [1.75, 0.5, 0.0], rtol=1e-15)
    np.testing.assert_allclose(state.v[0], [0.009999, 0.007996, 0.0], rtol=1e-12)
    assert state.t == [2]


def test_float32_parameters_stay_float32_in_place():
    p = param(np.ones((2, 3)), np.full((2, 3), 0.25), dtype=np.float32)
    data = p.data
    adam_step([p], AdamState([p]))
    assert p.data is data and data.dtype == np.float32
    np.testing.assert_allclose(data, 1 - 1e-4, rtol=0, atol=1e-7)


def test_parameter_without_gradient_is_untouched():
    live, frozen = param([1.0, 2.0], [0.5, -0.5]), param([3.0, 4.0])
    state = AdamState([live, frozen])
    adam_step([live, frozen], state)
    assert frozen.data.tolist() == [3.0, 4.0]
    assert state.t == [1, 0]
    assert not state.m[1].any() and not state.v[1].any()
    assert live.data.tolist() != [1.0, 2.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_changes_nothing(bad):
    params = [param([1.0, 2.0], [0.1, 0.2]), param([3.0, 4.0], [0.3, 0.4])]
    state = AdamState(params)
    adam_step(params, state)
    data = [p.data.copy() for p in params]
    moments = [a.copy() for a in state.m + state.v]
    # parameter 0 comes first and has a finite gradient: it must not move either
    params[0].grad = np.array([0.5, 0.5])
    params[1].grad = np.array([0.3, bad])
    with pytest.raises(NumericalError, match="parameter 1"):
        adam_step(params, state)
    assert state.t == [1, 1]
    for p, d in zip(params, data):
        assert p.data.tobytes() == d.tobytes()
    for a, b in zip(state.m + state.v, moments):
        assert a.tobytes() == b.tobytes()


def test_state_for_another_list_rejected():
    p = param([1.0], [1.0])
    with pytest.raises(ValueError, match="2 parameters, state for 1"):
        adam_step([p, p], AdamState([p]))


def test_state_for_other_shapes_rejected_by_index():
    """A state of the right length but built for other parameters is refused
    before anything moves, not with numpy's broadcast error mid-update."""
    params = [param([1.0, 2.0], [0.1, 0.2]), param([3.0, 4.0], [0.3, 0.4])]
    state = AdamState([params[0], param([[3.0, 4.0]])])
    with pytest.raises(ValueError, match=r"parameter 1 has shape \(2,\), state for \(1, 2\)"):
        adam_step(params, state)
    assert state.t == [0, 0] and [p.data.tolist() for p in params] == [[1.0, 2.0], [3.0, 4.0]]
