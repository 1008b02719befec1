"""Multi-user bandwidth split minimizing the longest transmission time.

Three routes to an allocation: a closed-form equal-time oracle, an
equal-split baseline, and a DDPG agent trained against the simulated
environment. Actions live on the simplex via softmax, so the bandwidth
budget holds by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .mlp import AdamState, Mlp, adam_step


@dataclass(frozen=True)
class AllocationScenario:
    loads: tuple          # bits per UE
    snrs: tuple           # linear SNR per UE
    bandwidth_hz: float   # total budget B
    mask_ratios: tuple    # rho per UE (state features)

    def __post_init__(self):
        n = len(self.loads)
        if n < 2:
            raise ValueError("need at least 2 UEs")
        if len(self.snrs) != n or len(self.mask_ratios) != n:
            raise ValueError("per-UE field lengths differ")
        positive = (("loads", self.loads), ("snrs", self.snrs), ("bandwidth_hz", (self.bandwidth_hz,)))
        for name, values in positive:
            for value in values:
                if not 0.0 < value < math.inf:
                    raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for rho in self.mask_ratios:
            if not 0.0 <= rho < 1.0:
                raise ValueError(f"mask_ratios must lie in [0, 1), got {rho!r}")
        with np.errstate(divide="ignore", over="ignore"):
            times = transmission_times(self, np.full(n, self.bandwidth_hz / n))
        for load, snr, t in zip(self.loads, self.snrs, times):
            if 1.0 + snr == 1.0:  # log2(1 + snr) = 0: no rate
                raise ValueError(f"snrs must make log2(1 + snr) positive, got {snr!r}: 1 + snr rounds to 1")
            if not 0.0 < t < math.inf:
                raise ValueError(f"bandwidth_hz {self.bandwidth_hz!r} split equally sends a UE's {load!r} "
                                 f"bits at snr {snr!r} in {float(t)!r} s; it must be finite and positive")
        # The oracle splits the band as bandwidth_hz * w / sum(w): each factor must be finite.
        with np.errstate(over="ignore"):
            w = self.oracle_weights
            factors = (("weight w = load_bits / log2(1 + snr)", w), ("sum of w", [w.sum()]),
                       (f"bandwidth_hz {self.bandwidth_hz!r} times w", self.bandwidth_hz * w))
        for name, values in factors:
            for value in values:
                if not math.isfinite(value):
                    raise ValueError(f"the oracle {name} is {float(value)!r} for load_bits {self.loads!r} "
                                     f"and snrs {self.snrs!r}; it must be finite")
        # A tiny weight's share of the band can underflow to 0, which leaves its UE no time, and
        # a dominant weight's can round past the whole band.
        with np.errstate(divide="ignore", under="ignore"):
            b, _ = oracle_allocate(self)
            times = transmission_times(self, b)
        for load, snr, fraction, t in zip(self.loads, self.snrs, b / self.bandwidth_hz, times):
            if not (0.0 < fraction <= 1.0 and 0.0 < t < math.inf):
                raise ValueError(f"bandwidth_hz {self.bandwidth_hz!r} gives the oracle share {float(fraction)!r} "
                                 f"of the band and a time of {float(t)!r} s to a UE with load_bits {load!r} "
                                 f"and snr {snr!r}; the share must lie in (0, 1] and the time be finite "
                                 "and positive")

    @property
    def n_ue(self) -> int:
        return len(self.loads)

    @property
    def spectral_efficiency(self) -> np.ndarray:
        """bits/s/Hz per UE: log2(1 + snr)."""
        return np.log2(1.0 + np.asarray(self.snrs, dtype=np.float64))

    @property
    def oracle_weights(self) -> np.ndarray:
        """load / log2(1 + snr) per UE: the oracle's bandwidth is proportional to it."""
        return np.asarray(self.loads, dtype=np.float64) / self.spectral_efficiency


@dataclass
class DdpgHyper:
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    gamma: float = 0.99
    tau: float = 0.005
    noise_scale: float = 0.2
    noise_floor: float = 0.01
    noise_decay: float = 0.999
    batch_size: int = 64
    buffer_capacity: int = 100_000
    episode_len: int = 50          # TTIs per episode
    episodes: int = 500
    hidden: ClassVar[tuple] = (64, 64)  # actor and critic hidden widths; no config sets them

    def __post_init__(self):
        at_least_1 = "at least 1"
        rules = (
            ("batch_size", self.batch_size >= 1, at_least_1),
            ("episodes", self.episodes >= 1, at_least_1),
            ("episode_len", self.episode_len >= 1, at_least_1),
            ("buffer_capacity", self.buffer_capacity >= self.batch_size, f"at least batch_size {self.batch_size}"),
            ("tau", 0.0 < self.tau <= 1.0, "in (0, 1]"),
            ("gamma", 0.0 <= self.gamma < 1.0, "in [0, 1)"),
            ("actor_lr", 0.0 < self.actor_lr < math.inf, "finite and positive"),
            ("critic_lr", 0.0 < self.critic_lr < math.inf, "finite and positive"),
            ("noise_scale", 0.0 <= self.noise_scale < math.inf, "finite and non-negative"),
            ("noise_floor", 0.0 <= self.noise_floor < math.inf, "finite and non-negative"),
            ("noise_decay", 0.0 < self.noise_decay <= 1.0, "in (0, 1]"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")


def transmission_times(sc: AllocationScenario, bandwidths: np.ndarray) -> np.ndarray:
    """t_i = load_i / (B_i * log2(1 + snr_i))."""
    return np.asarray(sc.loads, dtype=np.float64) / (bandwidths * sc.spectral_efficiency)


def oracle_allocate(sc: AllocationScenario) -> tuple[np.ndarray, float]:
    """Equal-time split: B_i proportional to load_i / log2(1 + snr_i).

    All transmission times coincide at t_max = sum(w) / B, the minimum of the
    max-time objective (any other feasible split leaves some UE slower).
    """
    w = sc.oracle_weights
    b = sc.bandwidth_hz * w / w.sum()
    return b, float(w.sum() / sc.bandwidth_hz)


def equal_split_baseline(sc: AllocationScenario) -> tuple[np.ndarray, float]:
    b = np.full(sc.n_ue, sc.bandwidth_hz / sc.n_ue)
    return b, float(transmission_times(sc, b).max())


def softmax(z: np.ndarray) -> np.ndarray:
    """Simplex projection with a floor so components never underflow to 0."""
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    a = np.maximum(a, 1e-12)
    return a / a.sum(axis=-1, keepdims=True)


def softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Jacobian-vector product of softmax output y against upstream g."""
    return y * (g - np.sum(g * y, axis=-1, keepdims=True))


class DivergedError(ValueError):
    """A policy's allocation, or the time it gives, is not finite: its training diverged."""


class AllocationEnv:
    """Fixed-scenario environment; state is [rho_1..rho_n, t_max / t_ref].

    The normalized-time feature is clipped at T_NORM_CAP: a starved UE can
    make t_max arbitrarily large, and an unbounded state feature feeds back
    into the actor until its logits overflow.
    """

    T_NORM_CAP = 10.0

    def __init__(self, sc: AllocationScenario):
        self.sc = sc
        _, self.t_ref = equal_split_baseline(sc)
        self.alpha_r = math.log(10.0) / self.t_ref

    @property
    def state_dim(self) -> int:
        return self.sc.n_ue + 1

    def reset(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.sc.mask_ratios, dtype=np.float64), [1.0]])

    def step(self, action: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Apply allocation fractions; returns (reward, next_state, t_max)."""
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.sc.n_ue,) or np.any(action <= 0.0) or abs(action.sum() - 1.0) > 1e-6:
            raise ValueError("action must be positive fractions summing to 1")
        t = transmission_times(self.sc, action * self.sc.bandwidth_hz)
        t_max = float(t.max())
        if math.isnan(t_max):  # a NaN fraction passes the checks above, and only it makes t_max NaN
            raise DivergedError(f"the policy's allocation {action} is not finite")
        reward = math.exp(-self.alpha_r * t_max)
        t_norm = min(t_max / self.t_ref, self.T_NORM_CAP)
        state = np.concatenate([np.asarray(self.sc.mask_ratios, dtype=np.float64), [t_norm]])
        return reward, state, t_max


def select_action(actor: Mlp, state: np.ndarray, noise_scale: float, rng: np.random.Generator) -> np.ndarray:
    """Softmax of actor logits with exploration noise added pre-softmax."""
    logits = actor.forward(state)
    if noise_scale > 0.0:
        logits = logits + noise_scale * rng.standard_normal(logits.shape)
    return softmax(logits)


def greedy_action(actor: Mlp, state: np.ndarray) -> np.ndarray:
    return softmax(actor.forward(state))


def td_target(
    rewards: np.ndarray,
    next_states: np.ndarray,
    critic_target: Mlp,
    actor_target: Mlp,
    gamma: float,
) -> np.ndarray:
    """y = R + gamma * Q'(S', mu'(S')); episodes are continuing, no terminal mask."""
    next_actions = softmax(actor_target.forward(next_states))
    q_next = critic_target.forward(np.concatenate([next_states, next_actions], axis=1))
    return rewards.reshape(-1, 1) + gamma * q_next


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """theta' <- tau * theta + (1 - tau) * theta', over the flat parameter buffers."""
    target.params *= 1.0 - tau
    target.params += tau * source.params


class ReplayBuffer:
    """A ring of at most `capacity` transitions, whose arrays double as it fills."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        self.capacity = capacity
        self.states = np.zeros((1, state_dim))
        self.actions = np.zeros((1, action_dim))
        self.rewards = np.zeros(1)
        self.next_states = np.zeros((1, state_dim))
        self.size = 0
        self._next = 0

    def add(self, s, a, r, s2) -> None:
        k = self._next
        if k == len(self.rewards):  # every row is full, and there are fewer than `capacity`
            rows = min(2 * k, self.capacity)
            self.states, self.actions, self.rewards, self.next_states = (
                np.concatenate([x, np.zeros((rows - k, *x.shape[1:]))])
                for x in (self.states, self.actions, self.rewards, self.next_states)
            )
        self.states[k] = s
        self.actions[k] = a
        self.rewards[k] = r
        self.next_states[k] = s2
        self._next = (k + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator):
        idx = rng.integers(0, self.size, size=n)
        return self.states[idx], self.actions[idx], self.rewards[idx], self.next_states[idx]


@dataclass
class DdpgAgent:
    actor: Mlp
    critic: Mlp
    actor_target: Mlp
    critic_target: Mlp

    def allocate(self, env: AllocationEnv) -> tuple[np.ndarray, float]:
        """Noise-free policy evaluated on the reset state."""
        fractions = greedy_action(self.actor, env.reset())
        _, _, t_max = env.step(fractions)
        if math.isinf(t_max):  # a share near the softmax floor can overflow a UE's time
            raise DivergedError(f"the policy's allocation {fractions} gives a UE a time of inf s")
        return fractions, t_max


def build_agent(n_ue: int, seed: int) -> DdpgAgent:
    state_dim = n_ue + 1
    hidden = DdpgHyper.hidden
    activations = ("relu",) * len(hidden) + ("identity",)
    actor = Mlp((state_dim, *hidden, n_ue), activations, seed)
    critic = Mlp((state_dim + n_ue, *hidden, 1), activations, seed + 1)
    return DdpgAgent(actor, critic, actor.copy(), critic.copy())


def train_ddpg(
    sc: AllocationScenario, hyper: DdpgHyper, seed: int
) -> tuple[DdpgAgent, list[tuple[int, float, float]]]:
    """Run the episode/TTI training loop on one scenario.

    Per TTI: act with decaying pre-softmax noise, store the transition, and
    once the buffer holds a batch, update the critic on the squared TD error,
    ascend the actor through the critic's action gradient, and soft-update
    both targets. Returns the agent and (episode, mean reward, greedy t_max)
    learning-curve rows. Deterministic for a given seed.
    """
    env = AllocationEnv(sc)
    agent = build_agent(sc.n_ue, seed)
    actor_opt = AdamState.for_net(agent.actor, hyper.actor_lr)
    critic_opt = AdamState.for_net(agent.critic, hyper.critic_lr)
    buffer = ReplayBuffer(hyper.buffer_capacity, env.state_dim, sc.n_ue)
    rng = np.random.default_rng(seed)
    curve = []
    for episode in range(hyper.episodes):
        state = env.reset()
        noise = hyper.noise_scale
        rewards = []
        for _ in range(hyper.episode_len):
            action = select_action(agent.actor, state, noise, rng)
            noise = max(hyper.noise_floor, noise * hyper.noise_decay)
            reward, next_state, _ = env.step(action)
            buffer.add(state, action, reward, next_state)
            rewards.append(reward)
            if buffer.size >= hyper.batch_size:
                _update(agent, buffer, actor_opt, critic_opt, hyper, rng)
            state = next_state
        _, greedy_t = agent.allocate(env)
        curve.append((episode, float(np.mean(rewards)), greedy_t))
    return agent, curve


def _update(agent, buffer, actor_opt, critic_opt, hyper, rng) -> None:
    s, a, r, s2 = buffer.sample(hyper.batch_size, rng)
    n = hyper.batch_size

    y = td_target(r, s2, agent.critic_target, agent.actor_target, hyper.gamma)
    q = agent.critic.forward(np.concatenate([s, a], axis=1), record=True)
    agent.critic.backward(2.0 * (q - y) / n)
    adam_step(agent.critic, agent.critic.grad, critic_opt)

    logits = agent.actor.forward(s, record=True)
    actions = softmax(logits)
    agent.critic.forward(np.concatenate([s, actions], axis=1), record=True)
    _, dq_dinput = agent.critic.backward(np.full((n, 1), 1.0 / n), param_grads=False)
    dq_daction = dq_dinput[:, s.shape[1] :]
    upstream = softmax_grad(actions, dq_daction)
    agent.actor.backward(upstream)
    # ascend Q: Adam minimizes, so feed the negated gradient
    np.negative(agent.actor.grad, out=agent.actor.grad)
    adam_step(agent.actor, agent.actor.grad, actor_opt)

    soft_update(agent.critic_target, agent.critic, hyper.tau)
    soft_update(agent.actor_target, agent.actor, hyper.tau)
