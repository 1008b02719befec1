"""Dense feedforward networks with exact reverse-mode gradients and Adam."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "identity")


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


class Mlp:
    """Affine + activation stack. Layer l maps dims[l] -> dims[l+1]."""

    def __init__(self, dims, activations, seed: int = 0):
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        for a in activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        rng = np.random.default_rng(seed)
        self.dims = tuple(int(d) for d in dims)
        self.activations = tuple(activations)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self._cache = None

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def out_dim(self) -> int:
        return self.dims[-1]

    def forward(self, x: np.ndarray, record: bool = False) -> np.ndarray:
        """Evaluate the network; x is (in_dim,) or (batch, in_dim)."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        a = x.reshape(1, -1) if squeeze else x
        if a.shape[1] != self.in_dim:
            raise ValueError(f"input dim {a.shape[1]} != expected {self.in_dim}")
        inputs, zs = [a], []
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = a @ w.T + b
            a = _apply_activation(act, z)
            zs.append(z)
            inputs.append(a)
        if record:
            self._cache = (inputs[:-1], zs, squeeze)
        return a[0] if squeeze else a

    def backward(self, upstream: np.ndarray):
        """Gradients from the last recorded forward pass.

        Returns ([(dW, db) per layer], input gradient). Parameter gradients
        are summed over the batch; the input gradient keeps the batch shape.
        """
        if self._cache is None:
            raise RuntimeError("no recorded forward pass; call forward(record=True) first")
        inputs, zs, squeeze = self._cache
        g = np.asarray(upstream, dtype=np.float64)
        if squeeze:
            g = g.reshape(1, -1)
        if g.shape != zs[-1].shape:
            raise ValueError(f"upstream shape {g.shape} != output shape {zs[-1].shape}")
        grads = [None] * len(self.weights)
        for l in range(len(self.weights) - 1, -1, -1):
            gz = _activation_backward(self.activations[l], zs[l], g)
            grads[l] = (gz.T @ inputs[l], gz.sum(axis=0))
            g = gz @ self.weights[l]
        return grads, (g[0] if squeeze else g)

    def copy(self) -> "Mlp":
        dup = Mlp.__new__(Mlp)
        dup.dims = self.dims
        dup.activations = self.activations
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        dup._cache = None
        return dup


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_net(cls, net: Mlp, lr: float) -> "AdamState":
        m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.weights, net.biases)]
        v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.weights, net.biases)]
        return cls(lr=lr, m=m, v=v)


def adam_step(net: Mlp, grads, state: AdamState) -> None:
    """One Adam update of net parameters from per-layer (dW, db) gradients."""
    if len(grads) != len(net.weights):
        raise ValueError("gradient list does not match layer count")
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for l, (dw, db) in enumerate(grads):
        if dw.shape != net.weights[l].shape or db.shape != net.biases[l].shape:
            raise ValueError(f"gradient shape mismatch at layer {l}")
        for param, grad, mom, sec in (
            (net.weights[l], dw, state.m[l][0], state.v[l][0]),
            (net.biases[l], db, state.m[l][1], state.v[l][1]),
        ):
            mom *= state.beta1
            mom += (1.0 - state.beta1) * grad
            sec *= state.beta2
            sec += (1.0 - state.beta2) * grad * grad
            param -= state.lr * (mom / bc1) / (np.sqrt(sec / bc2) + state.eps)

