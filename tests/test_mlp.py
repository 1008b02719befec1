import numpy as np
import pytest

from helpers import max_relative_gradient_error
from flowcomm.mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, Mlp, adam_step


class TestForward:
    def test_identity_net(self):
        net = Mlp((3, 3), ("identity",), seed=0)
        net.weights[0][...] = np.eye(3)
        net.biases[0][...] = np.zeros(3)
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(net.forward(x), x)

    def test_matches_hand_rolled_arithmetic(self):
        net = Mlp((4, 5, 2), ("relu", "identity"), seed=42)
        x = np.random.default_rng(1).standard_normal(4)
        z1 = net.weights[0] @ x + net.biases[0]
        a1 = np.maximum(z1, 0.0)
        expected = net.weights[1] @ a1 + net.biases[1]
        assert np.allclose(net.forward(x), expected, atol=1e-12)

    def test_dim_mismatch(self):
        net = Mlp((4, 2), ("identity",), seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros(3))

    def test_batch_forward(self):
        net = Mlp((3, 4, 2), ("relu", "identity"), seed=3)
        xs = np.random.default_rng(2).standard_normal((5, 3))
        batch = net.forward(xs)
        singles = np.stack([net.forward(x) for x in xs])
        assert np.allclose(batch, singles, atol=1e-12)


class TestBackward:
    def test_linear_gradients(self):
        net = Mlp((3, 1), ("identity",), seed=0)
        x = np.array([2.0, -1.0, 0.5])
        net.forward(x, record=True)
        grads, gx = net.backward(np.array([1.0]))
        assert np.allclose(grads[0][0], x.reshape(1, -1))  # dy/dW = x
        assert np.allclose(grads[0][1], [1.0])
        assert np.allclose(gx, net.weights[0][0])           # dy/dx = w

    def test_gradcheck_three_layer(self):
        net = Mlp((4, 8, 8, 3), ("relu", "relu", "identity"), seed=5)
        rng = np.random.default_rng(6)
        worst = max_relative_gradient_error(net, rng.standard_normal(4), rng.standard_normal(3))
        assert worst < 1e-4

    def test_zero_upstream_zero_grads(self):
        net = Mlp((3, 5, 2), ("relu", "identity"), seed=9)
        net.forward(np.ones(3), record=True)
        grads, gx = net.backward(np.zeros(2))
        assert all(not dw.any() and not db.any() for dw, db in grads)
        assert not gx.any()

    def test_requires_recorded_forward(self):
        net = Mlp((2, 2), ("identity",), seed=0)
        with pytest.raises(RuntimeError, match="recorded"):
            net.backward(np.zeros(2))

    def test_batch_input_gradient(self):
        net = Mlp((3, 6, 2), ("relu", "identity"), seed=10)
        xs = np.random.default_rng(11).standard_normal((4, 3))
        net.forward(xs, record=True)
        _, gx = net.backward(np.ones((4, 2)))
        assert gx.shape == (4, 3)


class TestAdam:
    def test_zero_gradient_no_move(self):
        net = Mlp((2, 2), ("identity",), seed=12)
        before = [w.copy() for w in net.weights]
        state = AdamState.for_net(net, lr=1e-3)
        adam_step(net, np.zeros(6), state)
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_descent_direction(self):
        net = Mlp((1, 1), ("identity",), seed=13)
        start = net.weights[0][0, 0]
        state = AdamState.for_net(net, lr=1e-2)
        for _ in range(100):
            adam_step(net, np.array([1.0, 0.0]), state)  # (dW, db) of the one layer
        assert net.weights[0][0, 0] < start  # moves against a positive gradient

    def test_first_step_magnitude(self):
        net = Mlp((1, 1), ("identity",), seed=14)
        start = net.weights[0].copy()
        state = AdamState.for_net(net, lr=1e-3)
        adam_step(net, np.array([0.37, 0.0]), state)
        delta = net.weights[0] - start
        assert abs(delta[0, 0] + 1e-3) < 1e-6  # ~ lr * sign(g)

    def test_shape_mismatch(self):
        net = Mlp((2, 2), ("identity",), seed=15)
        state = AdamState.for_net(net, lr=1e-3)
        with pytest.raises(ValueError):
            adam_step(net, np.zeros(3 * 3 + 2), state)


class TestFlatLayout:
    def test_views_share_the_flat_buffers(self):
        net = Mlp((3, 5, 4, 2), ("relu", "relu", "identity"), seed=16)
        assert net.params.size == net.grad.size == 5 * 4 + 4 * 6 + 2 * 5
        net.forward(np.ones(3), record=True)
        grads, _ = net.backward(np.ones(2))
        for w, b, (dw, db) in zip(net.weights, net.biases, grads):
            assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
            assert np.shares_memory(dw, net.grad) and np.shares_memory(db, net.grad)
        grads[0] = None  # rebinding the returned list leaves the next backward's intact
        again, _ = net.backward(np.ones(2))
        assert again is not grads and np.shares_memory(again[0][0], net.grad)
        dup = net.copy()
        assert np.array_equal(dup.params, net.params)
        for arr in (dup.params, dup.grad, *dup.weights, *dup.biases):
            assert not np.shares_memory(arr, net.params)
            assert not np.shares_memory(arr, net.grad)
        assert all(np.shares_memory(w, dup.params) for w in dup.weights)

    # start=400 also covers late steps, where 1 - 0.9**step has rounded to 1.0.
    @pytest.mark.parametrize("start", [0, 400])
    def test_adam_matches_a_per_array_update_bit_for_bit(self, start):
        net = Mlp((4, 6, 3), ("relu", "identity"), seed=17)
        rng = np.random.default_rng(18)
        net.forward(np.ones(4), record=True)
        grad_views, _ = net.backward(np.ones(3))  # per-layer views into net.grad
        state = AdamState.for_net(net, lr=1e-2)
        state.step = start
        params = [p.copy() for layer in zip(net.weights, net.biases) for p in layer]
        moments = [np.zeros_like(p) for p in params]
        seconds = [np.zeros_like(p) for p in params]
        b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, state.lr
        for step in range(start + 1, start + 6):
            net.grad[...] = rng.standard_normal(net.grad.size)
            grads = [g.copy() for layer in grad_views for g in layer]
            adam_step(net, net.grad, state)
            bc1, bc2 = 1.0 - b1**step, 1.0 - b2**step
            for param, grad, mom, sec in zip(params, grads, moments, seconds):
                mom *= b1
                mom += (1.0 - b1) * grad
                sec *= b2
                sec += (1.0 - b2) * grad * grad
                param -= lr * (mom / bc1) / (np.sqrt(sec / bc2) + eps)
        flat = [p for layer in zip(net.weights, net.biases) for p in layer]
        assert all(np.array_equal(a, b) for a, b in zip(flat, params))

    def test_parameter_free_backward(self):
        net = Mlp((5, 7, 1), ("relu", "identity"), seed=19)
        xs = np.random.default_rng(20).standard_normal((6, 5))
        upstream = np.full((6, 1), 1.0 / 6)
        net.forward(xs, record=True)
        _, gx_full = net.backward(upstream)
        sentinel = np.arange(net.grad.size, dtype=np.float64)
        net.grad[...] = sentinel
        grads, gx = net.backward(upstream, param_grads=False)
        assert grads is None
        assert np.array_equal(gx, gx_full)
        assert np.array_equal(net.grad, sentinel)


def test_forward_determinism_given_seed():
    a = Mlp((3, 8, 2), ("relu", "identity"), seed=99)
    b = Mlp((3, 8, 2), ("relu", "identity"), seed=99)
    x = np.ones(3)
    assert np.array_equal(a.forward(x), b.forward(x))
