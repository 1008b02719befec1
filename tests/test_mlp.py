import numpy as np
import pytest

from helpers import max_relative_gradient_error
from flowcomm.mlp import AdamState, Mlp, adam_step


class TestForward:
    def test_identity_net(self):
        net = Mlp((3, 3), ("identity",), seed=0)
        net.weights[0] = np.eye(3)
        net.biases[0] = np.zeros(3)
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
        adam_step(net, [(np.zeros((2, 2)), np.zeros(2))], state)
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_descent_direction(self):
        net = Mlp((1, 1), ("identity",), seed=13)
        start = net.weights[0][0, 0]
        state = AdamState.for_net(net, lr=1e-2)
        for _ in range(100):
            adam_step(net, [(np.array([[1.0]]), np.array([0.0]))], state)
        assert net.weights[0][0, 0] < start  # moves against a positive gradient

    def test_first_step_magnitude(self):
        net = Mlp((1, 1), ("identity",), seed=14)
        start = net.weights[0].copy()
        state = AdamState.for_net(net, lr=1e-3)
        g = np.array([[0.37]])
        adam_step(net, [(g, np.array([0.0]))], state)
        delta = net.weights[0] - start
        assert abs(delta[0, 0] + 1e-3) < 1e-6  # ~ lr * sign(g)

    def test_shape_mismatch(self):
        net = Mlp((2, 2), ("identity",), seed=15)
        state = AdamState.for_net(net, lr=1e-3)
        with pytest.raises(ValueError):
            adam_step(net, [(np.zeros((3, 3)), np.zeros(2))], state)


def test_forward_determinism_given_seed():
    a = Mlp((3, 8, 2), ("relu", "identity"), seed=99)
    b = Mlp((3, 8, 2), ("relu", "identity"), seed=99)
    x = np.ones(3)
    assert np.array_equal(a.forward(x), b.forward(x))
