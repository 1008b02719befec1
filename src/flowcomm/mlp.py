"""Dense feedforward networks with exact reverse-mode gradients and Adam."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "identity")
# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _activation_backward(name: str, z: np.ndarray, g: np.ndarray) -> np.ndarray:
    if name == "relu":
        return g * (z > 0)
    if name == "identity":
        return g
    raise ValueError(f"unknown activation {name!r}")


def _layer_views(buf: np.ndarray, dims: tuple) -> tuple[list, list]:
    """(W_l, b_l) views into a flat buffer laid out W_0, b_0, W_1, b_1, ..."""
    weights, biases, k = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(buf[k : k + fan_out * fan_in].reshape(fan_out, fan_in))
        k += fan_out * fan_in
        biases.append(buf[k : k + fan_out])
        k += fan_out
    return weights, biases


class Mlp:
    """Affine + activation stack. Layer l maps dims[l] -> dims[l+1].

    Every parameter lives in one flat float64 buffer, `params`; `weights[l]`
    (fan_out x fan_in) and `biases[l]` are views into it. `grad` has the same
    layout and receives the parameter gradients of `backward`.
    """

    def __init__(self, dims, activations, seed: int = 0):
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        for a in activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        rng = np.random.default_rng(seed)
        self.dims = tuple(int(d) for d in dims)
        self.activations = tuple(activations)
        n_params = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]))
        self._bind(np.zeros(n_params))
        for w in self.weights:
            bound = np.sqrt(6.0 / sum(w.shape))  # fan_in + fan_out
            w[...] = rng.uniform(-bound, bound, size=w.shape)

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        self.grad = np.zeros_like(params)
        self.weights, self.biases = _layer_views(params, self.dims)
        self._grads = list(zip(*_layer_views(self.grad, self.dims)))
        self._cache = None

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    def forward(self, x: np.ndarray, record: bool = False) -> np.ndarray:
        """Evaluate the network; x is (in_dim,) or (batch, in_dim)."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        a = x.reshape(1, -1) if squeeze else x
        if a.shape[1] != self.in_dim:
            raise ValueError(f"input dim {a.shape[1]} != expected {self.in_dim}")
        inputs, zs = [a], []
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = a @ w.T
            z += b
            a = _apply_activation(act, z)
            zs.append(z)
            inputs.append(a)
        if record:
            self._cache = (inputs[:-1], zs, squeeze)
        return a[0] if squeeze else a

    def backward(self, upstream: np.ndarray, param_grads: bool = True):
        """Gradients from the last recorded forward pass.

        Returns ([(dW, db) per layer], input gradient). Parameter gradients
        are summed over the batch and written into `grad`, so the (dW, db)
        pairs are views that the next backward overwrites. With
        param_grads=False only the input gradient is computed, `grad` is left
        as it was, and None stands in for the list. The input gradient keeps
        the batch shape.
        """
        if self._cache is None:
            raise RuntimeError("no recorded forward pass; call forward(record=True) first")
        inputs, zs, squeeze = self._cache
        g = np.asarray(upstream, dtype=np.float64)
        if squeeze:
            g = g.reshape(1, -1)
        if g.shape != zs[-1].shape:
            raise ValueError(f"upstream shape {g.shape} != output shape {zs[-1].shape}")
        for l in range(len(self.weights) - 1, -1, -1):
            gz = _activation_backward(self.activations[l], zs[l], g)
            if param_grads:
                dw, db = self._grads[l]
                np.matmul(gz.T, inputs[l], out=dw)
                np.sum(gz, axis=0, out=db)
            g = gz @ self.weights[l]
        return (list(self._grads) if param_grads else None), (g[0] if squeeze else g)

    def copy(self) -> "Mlp":
        dup = Mlp.__new__(Mlp)
        dup.dims = self.dims
        dup.activations = self.activations
        dup._bind(self.params.copy())
        return dup


@dataclass
class AdamState:
    """Adam moments for one network, flat and laid out like its `params`."""

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3
    step: int = 0
    scratch: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_net(cls, net: Mlp, lr: float) -> "AdamState":
        return cls(np.zeros_like(net.params), np.zeros_like(net.params), lr=lr)


def adam_step(net: Mlp, grad: np.ndarray, state: AdamState) -> None:
    """One Adam update of net.params from a flat gradient laid out like it.

    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, and
    params -= lr (m / bc1) / (sqrt(v / bc2) + eps), each operation in this
    order, so every element gets the bits a per-array update would give it.
    """
    params = net.params
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    state.step = step = state.step + 1
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    m, v, (t, u) = state.m, state.v, state.scratch
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=t)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=t)
    t *= grad
    v += t
    np.sqrt(np.divide(v, bc2, out=t), out=t)
    t += ADAM_EPS
    np.divide(m, bc1, out=u)
    u *= state.lr
    u /= t
    params -= u
