"""Autodiff engine: op-level gradients vs finite differences, adjoint and
normalization identities, and the grad_check harness itself."""

import contextlib
import gc
import re
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blan import engine
from blan.engine import (
    NumericalError, ShapeError, Tensor, conv2d, conv_transpose2d, grad_check,
)

F64 = np.float64


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=F64), requires_grad=grad)


def rand64(rng, *shape):
    return t64(rng.normal(size=shape))


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = t64(np.arange(12.0).reshape(3, 4))
        engine.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_mean_abs_diff_gradient_is_sign_over_n(self):
        rng = np.random.default_rng(0)
        x = t64(rng.normal(size=(2, 3)))
        y = t64(rng.normal(size=(2, 3)), grad=False)
        engine.tmean(engine.tabs(x - y)).backward()
        expected = np.sign(x.data - y.data) / x.data.size
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12)

    def test_sigmoid_chain_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        w = rand64(rng, 5)
        x = np.asarray(rng.normal(size=5), dtype=F64)

        def f(params):
            return engine.sigmoid(engine.tsum(params[0] * Tensor(x)))

        assert grad_check(f, [w]) < 1e-4

    def test_non_scalar_root_rejected(self):
        x = t64(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    def test_grad_accumulates_across_uses(self):
        x = t64(3.0)
        y = x * 2.0 + x * 4.0
        y.backward()
        assert x.grad == pytest.approx(6.0)

    def test_requires_grad_propagates(self):
        a = t64(1.0)
        b = Tensor(np.float64(2.0))
        out = a * b
        assert out.requires_grad
        out2 = b * 3.0
        assert not out2.requires_grad

    def test_no_grad_suppresses_graph(self):
        x = t64(2.0)
        with engine.no_grad():
            y = x * x
        assert y._backward is None and not y.requires_grad

    def test_no_grad_is_per_thread(self):
        """A no_grad block in one thread neither stops another from recording
        nor, when blocks overlap, leaves the flag off after both have left."""
        x = t64(2.0)
        entered, release = threading.Event(), threading.Event()

        def hold():
            with engine.no_grad():
                entered.set()
                release.wait(10)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(10)
            assert (x * x).requires_grad
            with engine.no_grad():
                release.set()
                thread.join(10)
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert (x * x).requires_grad

    def test_detach_cuts_graph(self):
        x = t64(2.0)
        y = (x * 3.0).detach() * 5.0
        with pytest.raises(ValueError, match="records no graph"):
            y.backward()
        assert x.grad is None

    def test_root_without_a_graph_rejected(self):
        # a step run under no_grad, or on constants, would otherwise train nothing
        x = t64(2.0)
        with engine.no_grad():
            under_no_grad = x * x
        for root in (under_no_grad, t64(2.0, grad=False) * 3.0):
            with pytest.raises(ValueError, match="records no graph"):
                root.backward()
        assert x.grad is None

    def test_leaf_root_gets_gradient_one(self):
        x = t64(np.array([2.0]))
        x.backward()
        assert x.grad.tobytes() == np.ones(1).tobytes()

    def test_python_scalars_do_not_upcast_float32(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert (x * 0.5 + 1.0).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, bool])
    def test_int_array_becomes_float32(self, dtype):
        x = Tensor(np.array([0, 1, 1], dtype=dtype))
        assert x.data.dtype == np.float32 and x.data.tolist() == [0.0, 1.0, 1.0]


class TestGraphLifetime:
    """backward() walks a graph once and frees each node as it is walked."""

    def test_walk_frees_what_the_caller_does_not_hold(self):
        # relu's closure reads y's data and the sum's closure reads relu's
        # output, so y lives on for as long as a walked node keeps its closure
        x = t64(np.arange(-2.0, 4.0).reshape(2, 3))

        def build():
            y = x * 3.0
            return engine.tsum(engine.relu(y)), weakref.ref(y.data)

        gc.disable()  # refcounts alone must free the graph: it holds no cycle
        try:
            root, y_data = build()
            assert y_data() is not None
            root.backward()
            assert y_data() is None
        finally:
            gc.enable()
        np.testing.assert_array_equal(x.grad, 3.0 * (x.data > 0))

    def test_second_backward_of_a_root_rejected(self):
        # walking the graph again would add every intermediate gradient again:
        # x.grad would read 8 after two walks, not 4
        x = t64(1.0)
        z = engine.tsum(x * 2.0)
        z.backward()
        with pytest.raises(ValueError, match=re.escape(
                "backward(): the graph through sum was freed by an earlier backward()")):
            z.backward()
        assert x.grad == 2.0

    def test_root_built_on_a_walked_tensor_rejected(self):
        x = t64(1.0)
        y = x * 2.0
        engine.tsum(y).backward()
        root = engine.tsum(y * 3.0)
        with pytest.raises(ValueError, match="the graph through mul was freed"):
            root.backward()
        assert x.grad == 2.0 and y.grad == 1.0 and root.grad is None

    def test_leaf_root_walked_twice_accumulates(self):
        x = t64(np.array([2.0]))
        x.backward()
        x.backward()
        assert x.grad.tobytes() == np.full(1, 2.0).tobytes()


ELEMENTWISE = [
    ("relu", lambda t: engine.relu(t), 0.3),  # shift inputs away from the kink
    ("leaky_relu", engine.leaky_relu, 0.3),
    ("sigmoid", engine.sigmoid, 0.0),
    ("tanh", engine.tanh, 0.0),
    ("abs", engine.tabs, 0.3),
]


class TestOpGradients:
    @pytest.mark.parametrize("name,op,shift", ELEMENTWISE, ids=[e[0] for e in ELEMENTWISE])
    def test_elementwise_matches_finite_difference(self, name, op, shift):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(3, 4))
        if shift:
            vals = np.where(np.abs(vals) < shift, vals + 2 * shift, vals)
        x = t64(vals)
        assert grad_check(lambda p: engine.tsum(op(p[0])), [x]) < 1e-4

    def test_log_gradient(self):
        rng = np.random.default_rng(8)
        x = t64(rng.uniform(0.5, 2.0, size=(3, 3)))
        assert grad_check(lambda p: engine.tsum(engine.tlog(p[0])), [x]) < 1e-4

    @pytest.mark.parametrize("a_shape,b_shape",
                             [((2, 3), (4, 2)), ((3,), (3, 2)), ((2, 3), (3, 2, 1))])
    def test_matmul_rejects_incompatible_shapes(self, a_shape, b_shape):
        message = f"matmul: incompatible shapes {a_shape} and {b_shape}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            engine.matmul(np.zeros(a_shape), np.zeros(b_shape))

    def test_matmul_gradient(self):
        rng = np.random.default_rng(9)
        a, b = rand64(rng, 3, 4), rand64(rng, 4, 2)
        assert grad_check(lambda p: engine.tsum(engine.matmul(p[0], p[1]) * 0.5), [a, b]) < 1e-4

    def test_getitem_and_concat_gradients(self):
        rng = np.random.default_rng(10)
        x = rand64(rng, 4, 6)

        def f(p):
            parts = engine.concat([p[0][:2, :], p[0][2:, :]], axis=0)
            return engine.tsum(parts * parts)

        assert grad_check(f, [x]) < 1e-4

    @pytest.mark.parametrize("axis", [1, -1])
    def test_concat_gradient_along_a_later_axis_skips_a_constant(self, axis):
        # G's skip connections concatenate (N, C, H, W) maps along axis 1
        rng = np.random.default_rng(35)

        def part(n, grad=True):
            shape = [2, 4, 3, 5]
            shape[axis] = n
            return t64(rng.normal(size=shape), grad)

        x, c, y = part(2), part(3, grad=False), part(1)
        out = engine.concat([x, c, y], axis=axis)
        w = rng.normal(size=out.shape)
        engine.tsum(out * Tensor(w)).backward()
        wx, _, wy = np.split(w, [2, 5], axis=axis)
        np.testing.assert_array_equal(x.grad, wx)
        np.testing.assert_array_equal(y.grad, wy)
        assert c.grad is None

    @pytest.mark.parametrize("shapes,axis",
                             [([], 0), ([(2, 3), (3, 3)], 1), ([(2, 3), (2, 3)], 2)],
                             ids=["empty", "mismatched-dimension", "axis-out-of-range"])
    def test_concat_rejects_inputs_that_do_not_join(self, shapes, axis):
        rng = np.random.default_rng(36)
        with pytest.raises(ShapeError, match="concat"):
            engine.concat([rand64(rng, *shape) for shape in shapes], axis=axis)

    @pytest.mark.parametrize("key", [[0, 0], np.array([1, 0]), (slice(None), [2, 2])],
                             ids=["list", "array", "tuple-with-list"])
    def test_getitem_rejects_list_and_array_keys(self, key):
        # a repeated index would drop gradient contributions without an error
        x = rand64(np.random.default_rng(13), 2, 3)
        with pytest.raises(TypeError, match="list and array keys"):
            engine.getitem(x, key)

    @pytest.mark.parametrize("shape,key", [((2, 3), (0, 1)), ((4,), 2), ((4,), -1)],
                             ids=["2-d", "1-d", "1-d-negative"])
    def test_getitem_all_integer_key_gives_a_0d_element(self, shape, key):
        x = rand64(np.random.default_rng(15), *shape)
        y = x[key]
        assert y.shape == () and y.data.tobytes() == x.data[key].tobytes()
        y.backward()
        expected = np.zeros(shape)
        expected[key] = 1.0
        assert x.grad.tobytes() == expected.tobytes()

    def test_transpose_without_axes_rejected(self):
        # numpy reverses the axes for None, but the backward needs the permutation
        x = rand64(np.random.default_rng(14), 2, 3)
        with pytest.raises(TypeError, match="transpose"):
            engine.transpose(x, None)

    def test_flip_transpose_reshape_gradients(self):
        rng = np.random.default_rng(11)
        x = rand64(rng, 2, 3, 4)

        def f(p):
            y = p[0][..., ::-1]
            y = engine.transpose(y, (1, 0, 2))
            return engine.tsum(engine.reshape(y, (6, 4)) * 0.25)

        assert grad_check(f, [x]) < 1e-4

    def test_broadcast_add_unbroadcasts(self):
        x = t64(np.ones((2, 3, 2, 2)))
        b = t64(np.zeros(3))
        out = x + engine.reshape(b, (1, 3, 1, 1))
        engine.tsum(out).backward()
        np.testing.assert_array_equal(b.grad, np.full(3, 8.0))


class TestActivationKernels:
    def test_leaky_relu_float32_bit_identical_to_factor_form(self):
        vals = np.random.default_rng(30).normal(size=64).astype(np.float32)
        vals[:4] = [0.0, -0.0, np.finfo(np.float32).tiny, -np.finfo(np.float32).tiny]
        out = engine.leaky_relu(Tensor(vals)).data
        expected = vals * np.where(vals > 0, 1, engine.LEAKY_SLOPE).astype(np.float32)
        assert out.dtype == np.float32
        assert out.tobytes() == expected.tobytes()  # the sign of -0 survives too

    def test_leaky_relu_gradient_is_one_or_slope(self):
        x = Tensor(np.array([-2.0, -0.0, 0.0, 3.0], dtype=np.float32), requires_grad=True)
        engine.tsum(engine.leaky_relu(x)).backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.float32([0.2, 0.2, 0.2, 1.0]))

    def test_leaky_relu_of_a_scalar(self):
        x = Tensor(np.float32(-2.0), requires_grad=True)
        out = engine.leaky_relu(x)
        out.backward()
        assert out.shape == () and out.item() == np.float32(-2.0) * np.float32(0.2)
        assert x.grad.shape == () and x.grad == np.float32(0.2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bit_identical_to_three_exp_form(self, dtype):
        x = np.random.default_rng(31).normal(scale=6.0, size=64).astype(dtype)
        x[:2] = [0.0, -0.0]
        expected = np.where(
            x >= 0,
            1.0 / (1.0 + np.exp(-np.abs(x))),
            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
        )
        out = engine.sigmoid(Tensor(x)).data
        assert out.dtype == dtype
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_extreme_inputs_finite_in_unit_interval(self, dtype):
        out = engine.sigmoid(Tensor(np.array([-1e4, 1e4], dtype=dtype))).data
        assert np.isfinite(out).all() and ((out >= 0) & (out <= 1)).all()
        np.testing.assert_array_equal(out, [0.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_is_max_with_zero_bitwise(self, dtype):
        x = np.array([0.0, -0.0, np.nan, 1.0, -1.0, np.inf, -np.inf], dtype=dtype)
        out = engine.relu(Tensor(x)).data
        expected = np.array([0.0, 0.0, np.nan, 1.0, 0.0, np.inf, 0.0], dtype=dtype)
        assert out.dtype == dtype
        assert out.tobytes() == expected.tobytes()  # +0, never -0; relu(-inf) is 0

    def test_relu_gradient_is_one_above_zero_else_zero(self):
        x = Tensor(np.array([-2.0, -0.0, 0.0, 3.0, np.inf], dtype=np.float32), requires_grad=True)
        engine.tsum(engine.relu(x)).backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.float32([0.0, 0.0, 0.0, 1.0, 1.0]))

    def test_relu_of_a_scalar(self):
        x = Tensor(np.float32(-2.0), requires_grad=True)
        out = engine.relu(x)
        out.backward()
        assert out.shape == () and out.item() == 0.0
        assert x.grad.shape == () and float(x.grad) == 0.0
        y = Tensor(np.float32(1.5), requires_grad=True)
        engine.relu(y).backward()
        assert float(y.grad) == 1.0


# ops whose backward hands on the incoming gradient or a view of it
PASS_THROUGH = [
    ("add", lambda t: t + 0.0),
    ("sub", lambda t: t - 0.0),
    ("reshape", lambda t: engine.reshape(t, (3, 2))),
    ("transpose", lambda t: engine.transpose(t, (1, 0))),
    ("transpose_negative_axes", lambda t: engine.transpose(t, (-1, 0))),
    ("concat", lambda t: engine.concat([t, t], axis=0)),
    ("sum", lambda t: engine.tsum(t)),
]


def _batchnorm(training):
    return lambda x, gamma, beta: engine.batchnorm2d(x, gamma, beta, np.zeros(3), np.ones(3),
                                                     training)


# every op that records a node (tmean and scale are sum and mul), with the
# shapes of its inputs: broadcasts, views of g that are C-contiguous (a size-1
# axis, a leading slab), 0-d results and every hand-written backward
OWNERSHIP = [
    ("add", engine.add, [(2, 3), (2, 3)]),
    ("add_broadcast", engine.add, [(4, 2, 3), (1, 3)]),
    ("sub", engine.sub, [(2, 3), (2, 3)]),
    ("sub_broadcast", engine.sub, [(2, 1), (2, 3)]),
    ("mul", engine.mul, [(2, 3), (2, 3)]),
    ("mul_broadcast", engine.mul, [(2, 3), (3,)]),
    ("mul_by_0d", engine.mul, [(), (2, 3)]),
    ("abs", engine.tabs, [(2, 3)]),
    ("log", engine.tlog, [(2, 3)]),
    ("relu", engine.relu, [(2, 3)]),
    ("leaky_relu", engine.leaky_relu, [(2, 3)]),
    ("sigmoid", engine.sigmoid, [(2, 3)]),
    ("tanh", engine.tanh, [(2, 3)]),
    ("sum", engine.tsum, [(2, 3)]),
    ("sum_of_one", engine.tsum, [(1, 1)]),
    ("reshape", lambda t: engine.reshape(t, (3, 2)), [(2, 3)]),
    ("transpose", lambda t: engine.transpose(t, (1, 0)), [(2, 3)]),
    ("transpose_size_1", lambda t: engine.transpose(t, (1, 0)), [(1, 3)]),
    ("getitem", lambda t: t[:, 1:], [(2, 3)]),
    ("getitem_element", lambda t: t[1, 2], [(2, 3)]),
    ("concat", lambda a, b: engine.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    ("concat_leading_slab", lambda a, b: engine.concat([a, b], axis=0), [(1, 3), (2, 3)]),
    ("matmul", engine.matmul, [(2, 3), (3, 4)]),
    ("softmax_cross_entropy", lambda x: engine.softmax_cross_entropy(x, [0, 2]), [(2, 3)]),
    ("conv2d", lambda x, w, b: conv2d(x, w, b, stride=2, pad=1),
     [(2, 3, 6, 6), (4, 3, 4, 4), (4,)]),
    ("conv2d_one_image", lambda x, w, b: conv2d(x, w, b, stride=1, pad=0),
     [(1, 2, 4, 4), (3, 2, 4, 4), (3,)]),
    ("conv_transpose2d", lambda y, w, b: conv_transpose2d(y, w, b, stride=2, pad=1),
     [(2, 4, 3, 3), (3, 4, 4, 4), (3,)]),
    ("conv_transpose2d_one_image", lambda y, w, b: conv_transpose2d(y, w, b, stride=1, pad=0),
     [(1, 4, 1, 1), (3, 4, 4, 4), (3,)]),
    ("batchnorm2d_train", _batchnorm(True), [(2, 3, 4, 4), (3,), (3,)]),
    ("batchnorm2d_eval", _batchnorm(False), [(2, 3, 4, 4), (3,), (3,)]),
]


class TestGradientOwnership:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name,op,shapes", OWNERSHIP, ids=[c[0] for c in OWNERSHIP])
    def test_every_gradient_owns_its_memory(self, monkeypatch, name, op, shapes, dtype):
        # _accumulate keeps a gradient that shares no memory with g; one that
        # shared g, another grad or any tensor's data would change with it
        rng = np.random.default_rng(34)
        inputs = [Tensor(rng.uniform(0.5, 2.0, size=shape).astype(dtype), requires_grad=True)
                  for shape in shapes]
        out = op(*inputs)
        calls = []
        accumulate = Tensor._accumulate

        def spy(self, grad, upstream):
            calls.append((self, upstream))
            accumulate(self, grad, upstream)

        monkeypatch.setattr(Tensor, "_accumulate", spy)
        g = rng.normal(size=out.shape).astype(dtype)
        out._backward(g)
        # conv and batchnorm reach their inputs in an order of their own
        assert sorted(id(t) for t, _ in calls) == sorted(id(x) for x in inputs)
        assert all(u is g for _, u in calls)
        grads = [x.grad for x in inputs]
        for i, (x, grad) in enumerate(zip(inputs, grads)):
            assert grad.shape == x.shape and grad.dtype == x.dtype
            assert grad.flags.c_contiguous and grad.flags.writeable
            for other in [g, *grads[i + 1 :], *(t.data for t in inputs), out.data]:
                assert not np.shares_memory(grad, other)

    def test_gradient_apart_from_upstream_is_kept_and_others_copied(self):
        g = np.ones((2, 3))
        new = np.full((2, 3), 2.0)
        x = t64(np.zeros((2, 3)))
        x._accumulate(new, g)
        assert x.grad is new
        read_only = np.ones((2, 3))
        read_only.flags.writeable = False
        # g itself, a C-contiguous view of it, a strided array, a read-only
        # array and one of another dtype are all copied
        for handed, upstream in [(g, g), (g[:1], g), (np.ones((3, 2)).T, g), (read_only, g),
                                 (np.ones((2, 3), np.float32), g)]:
            y = t64(np.zeros(handed.shape))
            y._accumulate(handed, upstream)
            assert y.grad is not handed and not np.shares_memory(y.grad, handed)
            assert y.grad.flags.c_contiguous and y.grad.flags.writeable
            assert y.grad.dtype == np.float64 and np.array_equal(y.grad, handed)

    def test_fan_out_through_views_gives_right_grads(self):
        rng = np.random.default_rng(32)
        x = rand64(rng, 2, 3)
        wr, wt, wc = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(4, 3))
        r = engine.reshape(x, (3, 2))
        t = engine.transpose(x, (1, 0))
        c = engine.concat([x, x], axis=0)
        loss = (engine.tsum(r * Tensor(wr)) + engine.tsum(t * Tensor(wt))
                + engine.tsum(c * Tensor(wc)) + engine.tsum(x + x) + engine.tsum(x))
        loss.backward()
        np.testing.assert_allclose(x.grad, wr.reshape(2, 3) + wt.T + wc[:2] + wc[2:] + 3.0,
                                   rtol=1e-12)
        np.testing.assert_array_equal(r.grad, wr)
        np.testing.assert_array_equal(t.grad, wt)
        np.testing.assert_array_equal(c.grad, wc)
        grads = [x.grad, r.grad, t.grad, c.grad]
        for i, gi in enumerate(grads):
            assert gi.flags.c_contiguous and gi.flags.writeable
            for gj in grads[i + 1 :]:
                assert not np.shares_memory(gi, gj)

    @pytest.mark.parametrize("name,view", PASS_THROUGH, ids=[v[0] for v in PASS_THROUGH])
    def test_pass_through_gradient_is_copied(self, name, view):
        # the view's backward runs first; if x kept that array, the second
        # contribution (+= 2x) would also land in y.grad
        rng = np.random.default_rng(33)
        x = rand64(rng, 2, 3)
        y = view(x)
        w = rng.normal(size=y.shape)
        (engine.tsum(y * Tensor(w)) + engine.tsum(x * x)).backward()
        np.testing.assert_array_equal(y.grad, w)
        assert not np.shares_memory(x.grad, y.grad)
        z = t64(np.zeros((2, 3)))  # the view is linear: its grad does not depend on z
        engine.tsum(view(z) * Tensor(w)).backward()
        np.testing.assert_allclose(x.grad, z.grad + 2.0 * x.data, rtol=1e-12)

    @pytest.mark.parametrize("view,shape", [
        (lambda t: engine.transpose(t, (1, 0)), (1, 3)),
        (engine.tsum, (1, 1)),
    ], ids=["transpose", "sum"])
    def test_contiguous_view_gradient_is_copied(self, view, shape):
        # with a size-1 axis (for sum, one element) these views of g are
        # C-contiguous, so only the overlap test keeps x from taking y's gradient
        rng = np.random.default_rng(34)
        x = rand64(rng, *shape)
        y = view(x)
        w = rng.normal(size=y.shape)
        (engine.tsum(y * Tensor(w)) + engine.tsum(x * x)).backward()
        np.testing.assert_array_equal(y.grad, w)
        np.testing.assert_allclose(x.grad, w.reshape(shape) + 2.0 * x.data, rtol=1e-12)

    def test_second_backward_accumulates_onto_read_only_first_grad(self):
        # tsum's backward hands on a read-only broadcast view; the first
        # gradient must be a writable copy, or the second += would fail
        x = t64(np.arange(6.0).reshape(2, 3))
        engine.tsum(x).backward()
        engine.tsum(x * x).backward()
        np.testing.assert_allclose(x.grad, 1.0 + 2.0 * x.data, rtol=1e-12)


# (kernel, stride, pad): G's and F's 4x4/s2/p1, D_p's collapse conv, a 3x3 "same" conv
GEOMETRIES = [(4, 2, 1), (4, 1, 0), (3, 1, 1)]
GEOMETRY_IDS = [f"k{k}s{s}p{p}" for k, s, p in GEOMETRIES]


def direct_conv2d(x, w, b, stride, pad):
    """Loop oracle: every output pixel is one patch dotted with one filter."""
    n, _c, h, wd = x.shape
    f, _, k, _ = w.shape
    oh, ow = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, f, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            out[:, :, i, j] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3])) + b
    return out


def direct_conv_transpose2d(y, w, b, stride, pad):
    """Scatter oracle: every input pixel adds its weighted filter to the output."""
    n, _f, h, wd = y.shape
    _, c, k, _ = w.shape
    oh, ow = (h - 1) * stride + k, (wd - 1) * stride + k
    out = np.zeros((n, c, oh, ow))
    for i in range(h):
        for j in range(wd):
            contrib = np.tensordot(y[:, :, i, j], w, axes=([1], [0]))  # (n, c, k, k)
            out[:, :, i * stride : i * stride + k, j * stride : j * stride + k] += contrib
    return out[:, :, pad : oh - pad, pad : ow - pad] + b[None, :, None, None]


class TestConv:
    def test_zero_kernel_gives_zero_output(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 8, 8)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        out = conv2d(x, w, Tensor(np.zeros(1)), stride=1, pad=1)
        assert out.shape == (1, 1, 8, 8)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_size_formula(self):
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        w = Tensor(np.zeros((8, 3, 4, 4), dtype=np.float32))
        b = Tensor(np.zeros(8, dtype=np.float32))
        assert conv2d(x, w, b, stride=2, pad=1).shape == (1, 8, 16, 16)

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 4, 4))
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4)), stride=2, pad=1).data

        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros((2, 4, 3, 3))
        for n in range(2):
            for f in range(4):
                for i in range(3):
                    for j in range(3):
                        patch = xp[n, :, 2 * i : 2 * i + 4, 2 * j : 2 * j + 4]
                        expected[n, f, i, j] = np.sum(patch * w[f])
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv2d_gradients(self, batch):
        rng = np.random.default_rng(4)
        x = rand64(rng, batch, 2, 6, 6)
        w = rand64(rng, 3, 2, 4, 4)
        b = rand64(rng, 3)

        def f(p):
            out = conv2d(p[0], p[1], p[2], stride=2, pad=1)
            return engine.tmean(out * out)

        assert grad_check(f, [x, w, b], max_coords=40) < 1e-4

    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv_transpose_gradients(self, batch):
        rng = np.random.default_rng(5)
        y = rand64(rng, batch, 3, 3, 3)
        w = rand64(rng, 2, 4, 4, 3)
        b = rand64(rng, 2)

        def f(p):
            return engine.tmean(conv_transpose2d(p[0], p[1], p[2], stride=2, pad=1))

        assert grad_check(f, [y, w, b], max_coords=40) < 1e-4

    @pytest.mark.parametrize("k,s,p", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_conv2d_matches_loop_oracle_batched_non_square(self, k, s, p):
        # batch 3 and H != W: a mixed-up batch fold or swapped axis changes the output
        rng = np.random.default_rng(20)
        x = rng.normal(size=(3, 2, 8, 6))
        w = rng.normal(size=(4, 2, k, k))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=s, pad=p).data
        np.testing.assert_allclose(out, direct_conv2d(x, w, b, s, p), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k,s,p", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_conv_transpose2d_matches_scatter_oracle(self, k, s, p):
        rng = np.random.default_rng(21)
        y = rng.normal(size=(3, 4, 4, 3))
        w = rng.normal(size=(4, 2, k, k))
        b = rng.normal(size=2)
        out = conv_transpose2d(Tensor(y), Tensor(w.transpose(1, 2, 3, 0)), Tensor(b),
                               stride=s, pad=p).data
        np.testing.assert_allclose(
            out, direct_conv_transpose2d(y, w, b, s, p), rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d], ids=["conv2d", "conv_transpose2d"])
    def test_batched_call_equals_stacked_single_calls(self, op):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(3, 4, 6, 4))
        w = rng.normal(size=(4, 4, 4, 4))
        b = Tensor(np.zeros(4))  # 4 filters of 4 channels: a bias for either op
        g = rng.normal(size=op(Tensor(x), Tensor(w), b, stride=2, pad=1).shape)

        def run(xs, gs):
            xt, wt = t64(xs), t64(w)
            out = op(xt, wt, b, stride=2, pad=1)
            engine.tsum(out * Tensor(gs)).backward()
            return out.data, xt.grad, wt.grad

        out, dx, dw = run(x, g)
        singles = [run(x[i : i + 1], g[i : i + 1]) for i in range(3)]
        np.testing.assert_allclose(out, np.concatenate([s[0] for s in singles]), rtol=1e-12)
        np.testing.assert_allclose(dx, np.concatenate([s[1] for s in singles]), rtol=1e-12)
        np.testing.assert_allclose(dw, sum(s[2] for s in singles), rtol=1e-10)

    @pytest.mark.parametrize("k,s,p", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_conv2d_input_grad_is_c_contiguous(self, k, s, p, monkeypatch):
        # _col2im scatters into an unpadded image, so _accumulate keeps it as is
        # (a strided view would be copied, and x.grad would still look contiguous)
        rng = np.random.default_rng(23)
        x = rand64(rng, 2, 3, 8, 6)
        w = rand64(rng, 4, 3, k, k)
        out = conv2d(x, w, Tensor(np.zeros(4)), stride=s, pad=p)
        handed = []
        accumulate = Tensor._accumulate

        def spy(self, grad, upstream):
            if self is x:
                handed.append(grad)
            accumulate(self, grad, upstream)

        monkeypatch.setattr(Tensor, "_accumulate", spy)
        engine.tsum(out * Tensor(rng.normal(size=out.shape))).backward()
        assert len(handed) == 1 and handed[0].flags.c_contiguous
        assert x.grad is handed[0] and x.grad.shape == x.shape

    @pytest.mark.parametrize("k,s,p", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_conv_transpose2d_weight_memory_order_does_not_change_results(self, k, s, p):
        # the (C,k,k,F) weight as a strided view of (F,C,k,k) memory
        rng = np.random.default_rng(24)
        y = rng.normal(size=(2, 4, 4, 3))
        w = rng.normal(size=(2, k, k, 4))
        b = rng.normal(size=2)
        w_perm = np.ascontiguousarray(w.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
        assert not w_perm.flags.c_contiguous
        g = rng.normal(size=conv_transpose2d(Tensor(y), Tensor(w), Tensor(np.zeros(2)),
                                             stride=s, pad=p).shape)

        def run(weight):
            yt, wt, bt = t64(y), t64(weight), t64(b)
            out = conv_transpose2d(yt, wt, bt, stride=s, pad=p)
            engine.tsum(out * Tensor(g)).backward()
            return out.data, yt.grad, wt.grad, bt.grad

        for ref, got in zip(run(w), run(w_perm)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        assert run(w_perm)[2].flags.c_contiguous

    def test_adjoint_identity(self):
        # <conv(x, w, 0), y> == <x, conv_T(y, w.transpose(1, 2, 3, 0), 0)> for random operands
        rng = np.random.default_rng(6)
        for stride, pad in [(1, 0), (2, 1), (1, 1)]:
            x = Tensor(rng.normal(size=(2, 3, 8, 8)))
            w = Tensor(rng.normal(size=(5, 3, 4, 4)))
            cx = conv2d(x, w, Tensor(np.zeros(5)), stride=stride, pad=pad)
            y = Tensor(rng.normal(size=cx.shape))
            cty = conv_transpose2d(y, Tensor(w.data.transpose(1, 2, 3, 0)), Tensor(np.zeros(3)),
                                   stride=stride, pad=pad)
            lhs = float(np.sum(cx.data * y.data))
            rhs = float(np.sum(x.data * cty.data))
            assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_channel_mismatch_names_shapes(self):
        x = Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32))
        w = Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(ShapeError, match="4 channels.*expects 3"):
            conv2d(x, w, b, pad=1)
        # the adjoint reads its input channels from the weight's last axis
        w_t = Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="^conv_transpose2d: input has 4 channels.*expects 3"):
            conv_transpose2d(x, w_t, b, pad=1)

    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d], ids=["conv2d", "conv_transpose2d"])
    def test_non_4d_input_rejected(self, op):
        w = Tensor(np.zeros((2, 2, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(ShapeError, match=f"^{op.__name__} expects 4-d input and weight"):
            op(Tensor(np.zeros((2, 8, 8), dtype=np.float32)), w, b, pad=1)

    # 3 output channels from 2 input channels: (F, C, k, k) and (C_out, k, k, C_in)
    @pytest.mark.parametrize("op,weight_shape",
                             [(conv2d, (3, 2, 3, 3)), (conv_transpose2d, (3, 3, 3, 2))],
                             ids=["conv2d", "conv_transpose2d"])
    @pytest.mark.parametrize("bias_shape", [(1,), (4,), ()], ids=["1", "F+1", "0-d"])
    def test_bias_must_have_one_value_per_output_channel(self, op, weight_shape, bias_shape):
        # a (1,) bias would broadcast, and backward would then leave a (3,)
        # gradient on the (1,) parameter
        x = Tensor(np.zeros((1, 2, 6, 6), dtype=np.float32))
        w = Tensor(np.zeros(weight_shape, dtype=np.float32))
        b = Tensor(np.zeros(bias_shape, dtype=np.float32), requires_grad=True)
        message = f"{op.__name__}: bias {bias_shape} does not match"
        with pytest.raises(ShapeError, match=re.escape(message)):
            op(x, w, b, pad=1)

    def test_bad_geometry_rejected(self):
        x = Tensor(np.zeros((1, 1, 7, 7), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ShapeError, match="integer output size"):
            conv2d(x, w, b, stride=2, pad=0)
        # a 1x1 input with a 4x4 kernel and pad 2 leaves 0 output rows
        y, w_t = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32)), w.data.transpose(1, 2, 3, 0)
        with pytest.raises(ShapeError, match="gives non-positive output 0x0"):
            conv_transpose2d(y, w_t, b, stride=1, pad=2)

    @pytest.mark.parametrize("op,weight_shape", [
        (conv2d, (3, 2, 4, 4)),
        (conv_transpose2d, (3, 4, 4, 2)),
    ], ids=["conv2d", "conv_transpose2d"])
    @pytest.mark.parametrize("stride,pad", [(0, 1), (-1, 1), (2, -1)],
                             ids=["stride0", "stride-1", "pad-1"])
    def test_stride_below_one_or_negative_pad_rejected(self, op, weight_shape, stride, pad):
        x = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        w = Tensor(np.zeros(weight_shape, dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32))
        message = f"{op.__name__}: stride must be >= 1 and pad >= 0, got stride {stride}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            op(x, w, b, stride=stride, pad=pad)


def scatter_col2im(cols, x_shape, k, stride, pad):
    """Tap-by-tap reference for _col2im on a (C*k*k, N*OH*OW) patch matrix.

    Each tap adds the outputs that land inside the image with one strided
    slice; every pixel sums its taps in (i, j) order.
    """

    def span(i, size, n_out):
        # output o reads pixel i + stride*o - pad
        lo = max(0, -((i - pad) // stride))
        hi = min(n_out, (size - 1 + pad - i) // stride + 1)
        if hi <= lo:
            return slice(0, 0), slice(0, 0)
        first = i + stride * lo - pad
        return slice(lo, hi), slice(first, first + stride * (hi - lo - 1) + 1, stride)

    n, c, h, w = x_shape
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    cols = cols.reshape(c, k, k, n, oh, ow)
    buf = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(k):
        rows, ys = span(i, h, oh)
        for j in range(k):
            cs, xs = span(j, w, ow)
            buf[:, :, ys, xs] += cols[:, i, j, :, rows, cs].transpose(1, 0, 2, 3)
    return buf


@st.composite
def conv_geometries(draw):
    """(kernel, stride, pad, batch, H, W) of a conv with an exact output size."""
    k, s = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    p = draw(st.integers(0, k - 1))
    oh, ow = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = (oh - 1) * s + k - 2 * p, (ow - 1) * s + k - 2 * p
    assume(h >= 1 and w >= 1)
    return k, s, p, draw(st.sampled_from([1, 3])), h, w


class TestPhasePlaneLowering:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(geometry=conv_geometries())
    # kernel smaller than stride: phases that no tap reads
    @example(geometry=(1, 2, 0, 3, 5, 3))
    @example(geometry=(2, 3, 1, 1, 3, 6))
    # valid convs: a plane pitch wider than OW with two output rows, one output
    # row (D_p's last); then k = 2*pad + stride at strides 2 and 3
    @example(geometry=(3, 1, 0, 3, 4, 5))
    @example(geometry=(4, 1, 0, 3, 4, 5))
    @example(geometry=(4, 2, 1, 3, 6, 4))
    @example(geometry=(5, 3, 1, 1, 9, 6))
    # a kernel column reaching more than a plane row past the edge (d > pitch)
    @example(geometry=(7, 1, 3, 1, 2, 2))
    @example(geometry=(9, 1, 4, 3, 3, 3))
    def test_geometry_sweep(self, geometry):
        k, s, p, n, h, w = geometry
        rng = np.random.default_rng(list(geometry))
        geo = engine._lowering(h, w, k, k, s, p)
        x = rng.normal(size=(n, 2, h, w))
        cols = engine._im2col(x, k, k, s, p)
        assert cols.shape == (2 * k * k, n * geo.oh * geo.ow)  # one column per output pixel
        assert geo.length % geo.pitch == 0  # whole rows: _col2im adds in place, not via a copy

        # adjoint: <im2col(x), c> == <x, col2im(c)> for any c
        c = rng.normal(size=cols.shape)
        back = engine._col2im(c.copy(), x.shape, k, k, s, p)
        assert np.vdot(cols, c) == pytest.approx(np.vdot(x, back), rel=1e-12, abs=1e-12)
        # and bit for bit the tap-by-tap scatter
        assert back.tobytes() == scatter_col2im(c, x.shape, k, s, p).tobytes()

        wt, b = rng.normal(size=(3, 2, k, k)), rng.normal(size=3)
        out = conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=s, pad=p).data
        np.testing.assert_allclose(out, direct_conv2d(x, wt, b, s, p), rtol=1e-10, atol=1e-12)
        y, bc = rng.normal(size=(n, 3, geo.oh, geo.ow)), rng.normal(size=2)
        out_t = conv_transpose2d(Tensor(y), Tensor(wt.transpose(1, 2, 3, 0)), Tensor(bc),
                                 stride=s, pad=p).data
        np.testing.assert_allclose(
            out_t, direct_conv_transpose2d(y, wt, bc, s, p), rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("k,s,p", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_col2im_matches_tap_by_tap_scatter_bitwise_float32(self, k, s, p):
        rng = np.random.default_rng(30)
        x_shape = (3, 4, 8, 6)
        geo = engine._lowering(8, 6, k, k, s, p)
        c = rng.normal(size=(4 * k * k, 3 * geo.oh * geo.ow)).astype(np.float32)
        got = engine._col2im(c.copy(), x_shape, k, k, s, p)
        assert got.tobytes() == scatter_col2im(c, x_shape, k, s, p).tobytes()

    @pytest.mark.parametrize("k,s,p,shape", [
        (4, 2, 1, (1, 3, 8, 6)), (4, 2, 1, (3, 3, 8, 6)),
        (4, 1, 0, (1, 3, 4, 4)), (4, 1, 0, (3, 3, 4, 5)), (1, 2, 0, (2, 3, 5, 3)),
    ], ids=["k4s2p1-n1", "k4s2p1-n3", "valid-n1", "valid-n3", "k1s2p0"])
    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d], ids=["conv2d", "conv_transpose2d"])
    def test_no_input_is_mutated(self, op, k, s, p, shape):
        # _col2im zeroes entries of the patch matrix it is given; none of
        # them may be x, the weight, the bias or the incoming gradient
        rng = np.random.default_rng(31)
        n, c, h, w = shape
        if op is conv_transpose2d:
            geo = engine._lowering(h, w, k, k, s, p)
            shape = (n, c, geo.oh, geo.ow)
        arrays = [rng.normal(size=shape), rng.normal(size=(2, k, k, c)), rng.normal(size=2)]
        if op is conv2d:
            arrays[1:] = [rng.normal(size=(2, c, k, k)), rng.normal(size=2)]
        before = [a.copy() for a in arrays]
        out = op(*(t64(a) for a in arrays), stride=s, pad=p)
        g = rng.normal(size=out.shape)
        g_before = g.copy()
        out._backward(g)
        for a, a0 in zip(arrays + [g], before + [g_before]):
            assert a.tobytes() == a0.tobytes()


class TestBatchNorm:
    def test_inference_identity_with_unit_stats(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = engine.batchnorm2d(x, gamma, beta, np.zeros(3), np.ones(3), training=False)
        np.testing.assert_allclose(out.data, x.data, atol=1e-4)

    def test_training_mode_normalizes(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(3.0, 2.0, size=(4, 2, 5, 5)))
        out = engine.batchnorm2d(
            x, Tensor(np.ones(2)), Tensor(np.zeros(2)), np.zeros(2), np.ones(2), training=True
        )
        assert np.abs(out.data.mean(axis=(0, 2, 3))).max() < 1e-6
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self):
        rm, rv = np.zeros(1), np.ones(1)
        x = Tensor(np.full((1, 1, 2, 2), 10.0))
        engine.batchnorm2d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv, training=True)
        assert rm[0] == pytest.approx(1.0)  # 0.9*0 + 0.1*10
        assert rv[0] == pytest.approx(0.9)  # 0.9*1 + 0.1*0

    def test_train_mode_gradients(self):
        rng = np.random.default_rng(16)
        x = rand64(rng, 3, 2, 4, 4)
        gamma = t64(rng.uniform(0.5, 1.5, size=2))
        beta = t64(rng.normal(size=2))
        rm, rv = np.zeros(2, dtype=F64), np.ones(2, dtype=F64)

        def f(p):
            out = engine.batchnorm2d(p[0], p[1], p[2], rm.copy(), rv.copy(), training=True)
            return engine.tsum(out * out)

        assert grad_check(f, [x, gamma, beta], max_coords=48) < 1e-4

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_folded_forward_matches_textbook(self, training):
        rng = np.random.default_rng(18)
        x = rng.normal(1.5, 2.0, size=(3, 4, 5, 5))
        gamma, beta = rng.uniform(0.5, 1.5, size=4), rng.normal(size=4)
        rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        mean, var = (x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))) if training else (rm, rv)
        out = engine.batchnorm2d(
            Tensor(x), Tensor(gamma), Tensor(beta), rm.copy(), rv.copy(), training=training
        ).data
        c = (slice(None), None, None)
        expected = gamma[c] * (x - mean[c]) / np.sqrt(var[c] + 1e-5) + beta[c]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x_shape,affine,match", [
        ((2, 3, 4), 3, "expects (N,C,H,W), got (2, 3, 4)"),
        ((2, 3, 4, 4), 2, "affine shape (2,)/(2,) does not match 3 channels"),
    ])
    def test_wrong_shapes_rejected(self, x_shape, affine, match):
        gamma, beta = Tensor(np.ones(affine)), Tensor(np.zeros(affine))
        with pytest.raises(ShapeError, match=re.escape(match)):
            engine.batchnorm2d(np.zeros(x_shape), gamma, beta, np.zeros(3), np.ones(3),
                               training=True)

    def test_eval_mode_gradients_flow_to_input(self):
        rng = np.random.default_rng(17)
        x = rand64(rng, 2, 2, 3, 3)
        gamma = t64(rng.uniform(0.5, 1.5, size=2))
        beta = t64(rng.normal(size=2))
        rm = rng.normal(size=2)
        rv = rng.uniform(0.5, 2.0, size=2)

        def f(p):
            out = engine.batchnorm2d(p[0], p[1], p[2], rm, rv, training=False)
            return engine.tsum(out * out)

        assert grad_check(f, [x, gamma, beta]) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_hand_computed_2x3(self):
        x = t64([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        out = engine.softmax_cross_entropy(x, np.array([2, 1]))
        # row 0: -log(e^3 / (e^1 + e^2 + e^3)) = log(1 + e^-1 + e^-2); row 1: log 3
        s = 1 + np.exp(-1) + np.exp(-2)
        assert out.shape == () and out.op == "softmax_cross_entropy"
        np.testing.assert_allclose(out.item(), (np.log(s) + np.log(3)) / 2, rtol=1e-15)
        out.backward()
        # (softmax - one-hot) / N
        expected = np.array([[np.exp(-2) / s, np.exp(-1) / s, 1 / s - 1],
                             [1 / 3, 1 / 3 - 1, 1 / 3]]) / 2
        np.testing.assert_allclose(x.grad, expected, rtol=1e-14, atol=1e-16)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        x = rand64(rng, 5, 4)
        labels = np.array([0, 3, 1, 3, 2])
        err = grad_check(lambda ps: engine.softmax_cross_entropy(ps[0], labels), [x], eps=1e-6)
        assert err < 1e-8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extreme_logits_are_finite(self, dtype):
        x = Tensor(np.array([[1e4, -1e4, 0.0], [-1e4, -1e4, 1e4]], dtype=dtype),
                   requires_grad=True)
        out = engine.softmax_cross_entropy(x, np.array([1, 2]))
        out.backward()
        # row 0 costs 1e4 - (-1e4) = 2e4, row 1 (its max is the label) about 0
        assert out.dtype == dtype and out.item() == 1e4
        assert np.isfinite(x.grad).all() and x.grad.dtype == dtype

    @pytest.mark.parametrize("logits, labels", [
        (np.zeros(3), np.array([0])),
        (np.zeros((2, 3)), np.array([0])),
        (np.zeros((2, 3)), np.array([[0], [1]])),
        (np.zeros((0, 3)), np.zeros(0, dtype=int)),
        (np.zeros((2, 0)), np.array([0, 0])),
    ])
    def test_wrong_shapes_rejected(self, logits, labels):
        with pytest.raises(ShapeError, match="softmax_cross_entropy"):
            engine.softmax_cross_entropy(t64(logits), labels)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_classes_rejected(self, label):
        with pytest.raises(ValueError, match=rf"label {label} outside \[0, 3\)"):
            engine.softmax_cross_entropy(t64(np.zeros((2, 3))), np.array([0, label]))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            engine.softmax_cross_entropy(t64(np.zeros((2, 3))), np.array([0.0, 1.0]))


class TestGradCheckHarness:
    def test_perturbs_a_parameter_in_any_memory_order(self):
        # a transposed view: reshape(-1) of it would perturb a copy and every
        # numeric derivative would read 0
        rng = np.random.default_rng(34)
        w = Tensor(np.ascontiguousarray(rng.normal(size=(3, 4))).T, requires_grad=True)
        c = rng.normal(size=(4, 3))
        assert not w.data.flags.c_contiguous
        assert grad_check(lambda p: engine.tsum(p[0] * p[0] * Tensor(c)), [w]) < 1e-6

    def test_constant_function_reports_zero(self):
        x = t64(np.ones(4))
        assert grad_check(lambda p: Tensor(np.float64(2.5)) + engine.tsum(p[0] * 0.0), [x]) == 0.0

    def test_rejects_nonpositive_eps(self):
        x = t64(np.ones(2))
        with pytest.raises(ValueError):
            grad_check(lambda p: engine.tsum(p[0]), [x], eps=0.0)

    def test_rejects_no_coordinate(self):
        x = t64(np.ones(2))
        with pytest.raises(ValueError, match="max_coords"):
            grad_check(lambda p: engine.tsum(p[0] * p[0].detach()), [x], max_coords=0)

    def test_rejects_parameters_without_grad(self):
        x = t64(np.ones(2), grad=False)
        with pytest.raises(ValueError, match="no parameter requires grad"):
            grad_check(lambda p: engine.tsum(p[0] * p[0].detach()), [x])

    def test_skips_a_parameter_without_grad(self):
        # were the constant c checked, its missing gradient would read 0
        # against a numeric derivative of 1
        x, c = t64(np.full(2, 0.5)), t64(np.ones(2), grad=False)
        assert grad_check(lambda p: engine.tsum(p[0] * p[1]), [x, c]) < 1e-6
        assert c.grad is None and c.data.tolist() == [1.0, 1.0]

    @staticmethod
    def nan_gradient(p):
        """A finite value whose gradient is NaN, through a test-local op."""
        return engine._op(p[0].data.sum(), "nan_gradient",
                          (p[0], lambda g: np.full_like(p[0].data, np.nan)))

    @staticmethod
    def nan_off_the_point(p):
        """sum(x) at x = 1, NaN once a coordinate moves, with the right gradient."""
        value = p[0].data.sum() if (p[0].data == 1.0).all() else np.nan
        return engine._op(np.float64(value), "nan_off_the_point",
                          (p[0], lambda g: g * np.ones_like(p[0].data)))

    def test_flags_nonfinite(self):
        x = t64(np.zeros(2))
        with np.errstate(divide="ignore"), pytest.raises(NumericalError):
            grad_check(lambda p: engine.tsum(engine.tlog(p[0])), [x])

    @pytest.mark.parametrize("f,match", [
        (nan_gradient, "non-finite analytic gradient in parameter 0"),
        (nan_off_the_point, "non-finite perturbed value in parameter 0"),
    ], ids=["analytic", "perturbed"])
    def test_flags_nonfinite_gradient_and_perturbed_value(self, f, match):
        with pytest.raises(NumericalError, match=match):
            grad_check(f, [t64(np.ones(2))])

    def test_detects_wrong_gradient(self):
        # a deliberately corrupted gradient must produce a large error
        x = t64(np.ones(3) * 0.7)

        def f(p):
            out = engine.tsum(p[0] * p[0])
            return out + engine.tsum(p[0].detach() * 0.0)

        base = grad_check(f, [x])
        assert base < 1e-6

        def f_corrupt(p):
            return engine.tsum(p[0] * p[0].detach())  # analytic grad misses half

        assert grad_check(f_corrupt, [x]) > 0.3


class SpyPool:
    """Passes every submit on to a real pool and records the (task, lo, hi)
    of the block: _fan_out submits engine._block(task, grad, lo, hi)."""

    def __init__(self, pool):
        self.pool, self.calls = pool, []

    def submit(self, fn, task, grad, lo, hi):
        self.calls.append((task, lo, hi))
        return self.pool.submit(fn, task, grad, lo, hi)


class FailFirstPool:
    """Block 0 fails at once; every later block runs on a thread of its own
    after 50 ms, and is recorded as finished before its future resolves."""

    def __init__(self):
        self.submitted, self.finished, self.threads = 0, [], []

    def submit(self, fn, *args, **kwargs):
        future, i = Future(), self.submitted
        self.submitted += 1
        if i == 0:
            future.set_exception(RuntimeError("block 0 failed"))
            return future

        def run():
            time.sleep(0.05)
            result = fn(*args, **kwargs)
            self.finished.append(i)
            future.set_result(result)

        self.threads.append(threading.Thread(target=run))
        self.threads[-1].start()
        return future


def int_valued(rng, *shape, dtype=np.float32):
    """Small integers, so every product and sum is exact in any order."""
    return rng.integers(-8, 9, size=shape).astype(dtype)


class TestFanOut:
    """engine._fan_out: min(WIDTH, n) contiguous blocks of range(n), the
    last on the calling thread, every block finished before it returns or raises."""

    def test_blocks_in_order(self, monkeypatch):
        monkeypatch.setattr(engine, "WIDTH", 3)
        assert engine._fan_out(lambda lo, hi: (lo, hi), 7) == [(0, 2), (2, 4), (4, 7)]
        assert engine._fan_out(lambda lo, hi: (lo, hi), 2) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("width", [2, 3])
    def test_one_block_runs_on_the_caller_and_submits_nothing(self, monkeypatch, width):
        """A single image or a batch of one is one block, at every width."""
        monkeypatch.setattr(engine, "WIDTH", width)
        spy = SpyPool(engine._pool)
        monkeypatch.setattr(engine, "_pool", spy)
        main = threading.current_thread()
        seen = engine._fan_out(lambda lo, hi: (lo, hi, threading.current_thread() is main), 1)
        assert seen == [(0, 1, True)] and spy.calls == []

    @pytest.mark.parametrize("caller_fails", [False, True])
    def test_a_failed_block_raises_after_every_block_finished(self, monkeypatch, caller_fails):
        monkeypatch.setattr(engine, "WIDTH", 3)
        pool = FailFirstPool()
        monkeypatch.setattr(engine, "_pool", pool)

        def task(lo, hi):
            if caller_fails and hi == 6:
                raise ValueError("the caller's block failed")
            return lo

        error = ValueError if caller_fails else RuntimeError  # the caller's own error wins
        with pytest.raises(error, match="the caller's block failed|block 0 failed"):
            engine._fan_out(task, 6)
        assert pool.finished == [1]  # the slow block 1 had finished
        for t in pool.threads:
            t.join()

    @pytest.mark.parametrize("grad", [True, False])
    def test_every_block_runs_inside_in_the_callers_grad_mode(self, monkeypatch, grad):
        """On the pool and on the caller; afterwards both threads have their
        own flags back, so a task submitted straight to the pool is unmarked."""
        monkeypatch.setattr(engine, "WIDTH", 3)
        main = threading.current_thread()

        def task(lo, hi):
            return threading.current_thread() is main, engine._state.grad, engine._state.inside

        with ThreadPoolExecutor(1) as pool:  # one pool thread runs both pool blocks
            monkeypatch.setattr(engine, "_pool", pool)
            with contextlib.nullcontext() if grad else engine.no_grad():
                seen = engine._fan_out(task, 3)
                assert (engine._state.grad, engine._state.inside) == (grad, False)
            assert seen == [(False, grad, True), (False, grad, True), (True, grad, True)]
            assert pool.submit(task, 0, 0).result(timeout=60) == (False, True, False)
        assert engine._state.grad and not engine._state.inside

    def test_a_fan_out_inside_a_block_is_one_call_that_submits_nothing(self, monkeypatch):
        def outer(lo, hi):
            return engine._fan_out(lambda a, b: (a, b), 4)

        with ThreadPoolExecutor(2) as pool:  # room for a nested block: a regression fails, not hangs
            spy = SpyPool(pool)
            monkeypatch.setattr(engine, "_pool", spy)
            assert engine._fan_out(outer, 2) == [[(0, 4)], [(0, 4)]]
        assert spy.calls == [(outer, 0, 1)]

    def test_grad_mode_belongs_to_the_calling_thread(self):
        seen = []
        with engine.no_grad():
            with engine.no_grad():
                seen.append((engine._state.grad, engine._state.inside))
            seen.append((engine._state.grad, engine._state.inside))
            worker = threading.Thread(
                target=lambda: seen.append((engine._state.grad, engine._state.inside)))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert seen == [(False, False), (False, False), (True, False)]
        assert engine._state.grad and not engine._state.inside


def small_conv(op, rng, n, c, dtype=np.float32):
    """A stride-2, 4x4 call of op on integer-valued operands, whose split
    channels (conv2d's input, conv_transpose2d's output) number c."""
    if op is conv2d:
        args = (int_valued(rng, n, c, 6, 6, dtype=dtype), int_valued(rng, 4, c, 4, 4, dtype=dtype),
                int_valued(rng, 4, dtype=dtype))
    else:
        args = (int_valued(rng, n, 4, 3, 3, dtype=dtype), int_valued(rng, c, 4, 4, 4, dtype=dtype),
                int_valued(rng, c, dtype=dtype))
    return [Tensor(a, requires_grad=True) for a in args]


class TestConvSplit:
    """engine._conv_blocks: a no-grad conv of at least SPLIT_MACS
    multiply-adds is cut into min(WIDTH, channels) contiguous channel
    blocks, the last on the calling thread; conv2d by input channel,
    conv_transpose2d by output channel. A conv that records a graph, and so
    every backward, runs whole."""

    @pytest.fixture(scope="class")
    def real_pool(self):
        with ThreadPoolExecutor(2) as pool:
            yield pool

    @pytest.fixture
    def spy(self, real_pool, monkeypatch):
        """A SpyPool over a real pool, as engine._pool."""
        spy = SpyPool(real_pool)
        monkeypatch.setattr(engine, "_pool", spy)
        return spy

    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d])
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("n", [1, 2])
    # fewer channels than blocks, as many, and more: 3 and 5 at widths 2 and 3
    @pytest.mark.parametrize("c,k", [(1, 2), (2, 3), (2, 2), (3, 3), (3, 2), (5, 2), (5, 3)])
    def test_equals_the_whole_conv(self, spy, monkeypatch, op, dtype, n, c, k):
        monkeypatch.setattr(engine, "SPLIT_MACS", 0)  # every conv is large enough
        monkeypatch.setattr(engine, "WIDTH", k)
        x, w, b = small_conv(op, np.random.default_rng(10 * c + k), n, c, dtype)
        ref = op(x, w, b, stride=2, pad=1)
        engine.tsum(ref * ref).backward()
        assert ref.requires_grad and spy.calls == []  # recorded and walked, each conv whole
        with engine.no_grad():
            out = op(x, w, b, stride=2, pad=1)
        assert out.data.dtype == dtype and out.data.flags.c_contiguous
        np.testing.assert_array_equal(out.data, ref.data)
        # min(k, c) - 1 contiguous channel blocks on the pool, from channel 0
        # on; the last one ran on the caller
        blocks = min(k, c)
        cuts = [c * i // blocks for i in range(blocks + 1)]
        assert [(lo, hi) for _task, lo, hi in spy.calls] == list(zip(cuts[:-2], cuts[1:-1]))

    # 1x1 convs: (split channels, other channels, h, w) with 39*105*17*241 =
    # 2**24 - 1 and 64*64*64*64 = 2**24 multiply-adds
    @pytest.mark.parametrize("shape,blocks", [((39, 105, 17, 241), 1), ((64, 64, 64, 64), None)])
    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d])
    @pytest.mark.parametrize("k", [2, 3])
    def test_a_conv_splits_from_2_to_the_24_multiply_adds(self, spy, monkeypatch, op, k, shape, blocks):
        monkeypatch.setattr(engine, "WIDTH", k)
        c, other, h, w = shape
        if op is conv2d:
            x, weight = np.zeros((1, c, h, w), np.float32), np.zeros((other, c, 1, 1), np.float32)
        else:
            x, weight = np.zeros((1, other, h, w), np.float32), np.zeros((c, 1, 1, other), np.float32)
        bias = np.zeros(weight.shape[0], np.float32)
        with engine.no_grad():
            op(x, weight, bias)
        assert len(spy.calls) == (blocks or k) - 1  # the blocks beside the caller's


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
            b = Tensor(np.zeros(4, dtype=np.float32))
            out = engine.tmean(engine.tabs(conv2d(x, w, b, stride=1, pad=1)))
            out.backward()
            return x.grad.tobytes() + w.grad.tobytes() + out.data.tobytes()

        assert run() == run()
