import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from helpers import grid_search_allocation
from flowcomm import allocator as al
from flowcomm.mlp import Mlp


def scenario(loads, snrs, bandwidth=4e6, rhos=None):
    rhos = rhos or tuple(0.5 for _ in loads)
    return al.AllocationScenario(tuple(loads), tuple(snrs), bandwidth, tuple(rhos))


HETERO_3UE = scenario((4e6, 2e6, 2e6), (3.0, 3.0, 3.0))  # oracle 1.0 s, equal split 1.5 s


@pytest.fixture(scope="module")
def trained_hetero():
    agent, curve = al.train_ddpg(HETERO_3UE, al.DdpgHyper(episodes=500), seed=0)
    return agent, curve


class TestOracle:
    def test_symmetric_scenario(self):
        sc = scenario((1e6, 1e6), (1.0, 1.0), bandwidth=2e6)
        b, t_max = al.oracle_allocate(sc)
        assert np.allclose(b, [1e6, 1e6])

    def test_worked_example(self):
        sc = scenario((2e6, 1e6), (1.0, 1.0), bandwidth=3e6)  # c = log2(2) = 1
        b, t_max = al.oracle_allocate(sc)
        assert np.allclose(b, [2e6, 1e6])
        assert t_max == pytest.approx(1.0)
        _, t_eq = al.equal_split_baseline(sc)
        assert t_eq == pytest.approx(4.0 / 3.0)

    def test_times_equalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sc = scenario(rng.uniform(1e5, 1e7, n), rng.uniform(0.2, 30.0, n))
            b, t_max = al.oracle_allocate(sc)
            t = al.transmission_times(sc, b)
            assert (t.max() - t.min()) < 1e-9 * t_max
            assert t_max <= al.equal_split_baseline(sc)[1] + 1e-12

    def test_matches_grid_search(self):
        rng = np.random.default_rng(1)
        for k in range(12):
            n = 2 if k % 2 == 0 else 3
            loads = rng.uniform(5e5, 5e6, n)
            snrs = rng.uniform(0.5, 20.0, n)
            bandwidth = 3e6
            sc = scenario(loads, snrs, bandwidth)
            b, t_max = al.oracle_allocate(sc)
            grid_frac, grid_t = grid_search_allocation(loads, snrs, bandwidth)
            assert np.abs(b / bandwidth - grid_frac).max() <= 1e-3 + 1e-12
            assert t_max <= grid_t + 1e-12

    @pytest.mark.parametrize(
        "loads, snrs, bandwidth, message",
        [
            # Each UE's equal-share time is finite, but the oracle wrote fraction and
            # b_hz inf and t_seconds 0.0 for every UE.
            ((1e308,) * 3, (3.0,) * 3, 4e6, "the oracle bandwidth_hz 4000000.0 times w is inf"),
            ((1e300, 1e300), (1e-10, 1e-10), 1e12, "the oracle weight w = load_bits / log2(1 + snr) is inf"),
            ((0.7e308,) * 3, (1.0,) * 3, 2.0, "the oracle sum of w is inf"),
        ],
        ids=["product", "weight", "sum"],
    )
    def test_scenario_whose_oracle_overflows_rejected(self, loads, snrs, bandwidth, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning on the way
            with pytest.raises(ValueError, match=re.escape(message)):
                scenario(loads, snrs, bandwidth)


    @pytest.mark.parametrize(
        "loads, snrs, bandwidth, message",
        [
            # Every equal-share time is finite, but UE 0's oracle share underflowed: the CLI
            # wrote fraction 0.0, b_hz 0.0 and t_seconds inf, with a divide-by-zero warning.
            ((1e-300, 1e10), (3.0, 3.0), 1e-290, "gives the oracle share 0.0 of the band and a time of inf s"),
            # UE 0's share is 1e-175 Hz of 1e150 Hz: the fraction it wrote underflowed to 0.0.
            ((1e-170, 1e155), (1.0, 1.0), 1e150, "gives the oracle share 0.0 of the band and a time of 1"),
            # UE 1's weight is all of the sum, and B * w / sum(w) rounds past B: fraction 1 + 2^-52.
            ((1.0, 1.549646721527582e38), (1.0, 8.186698881752946e307), 3.0,
             "gives the oracle share 1.0000000000000002 of the band"),
        ],
        ids=["underflow", "fraction-underflow", "past-the-band"],
    )
    def test_scenario_whose_oracle_share_leaves_0_1_rejected(self, loads, snrs, bandwidth, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no divide-by-zero or underflow warning
            with pytest.raises(ValueError, match=re.escape(message)):
                scenario(loads, snrs, bandwidth)

    def test_valid_scenario_keeps_its_oracle_bits(self):
        sc = scenario((1e6, 3e6, 2e-300), (1.5, 7.0, 3.0), bandwidth=1e7)
        w = np.asarray(sc.loads) / np.log2(1.0 + np.asarray(sc.snrs))
        b, t_max = al.oracle_allocate(sc)
        assert b.tobytes() == (sc.bandwidth_hz * w / w.sum()).tobytes()
        assert t_max == float(w.sum() / sc.bandwidth_hz)


class TestEqualSplit:
    def test_symmetric_equals_oracle(self):
        sc = scenario((2e6, 2e6, 2e6), (4.0, 4.0, 4.0))
        b_eq, t_eq = al.equal_split_baseline(sc)
        b_or, t_or = al.oracle_allocate(sc)
        assert np.allclose(b_eq, b_or)
        assert t_eq == pytest.approx(t_or)

    def test_max_semantics(self):
        sc = scenario((1e6, 4e6), (1.0, 1.0), bandwidth=2e6)
        _, t_eq = al.equal_split_baseline(sc)
        assert t_eq == pytest.approx(4e6 / 1e6)  # slowest UE sets the time


class TestEnv:
    def test_reward_exponential(self):
        env = al.AllocationEnv(HETERO_3UE)
        # alpha_r * t_max = ln 2  =>  reward = 0.5
        env.alpha_r = math.log(2.0)
        fractions, _ = al.oracle_allocate(HETERO_3UE)
        reward, _, t_max = env.step(fractions / HETERO_3UE.bandwidth_hz)
        assert t_max == pytest.approx(1.0)
        assert reward == pytest.approx(0.5)

    def test_reward_approaches_one_for_tiny_times(self):
        sc = scenario((1.0, 1.0), (1.0, 1.0), bandwidth=1e9)
        env = al.AllocationEnv(sc)
        env.alpha_r = 1e-12
        reward, _, _ = env.step(np.array([0.5, 0.5]))
        assert reward == pytest.approx(1.0)

    def test_oracle_action_beats_equal_split_reward(self):
        env = al.AllocationEnv(HETERO_3UE)
        b_or, _ = al.oracle_allocate(HETERO_3UE)
        r_or, _, _ = env.step(b_or / HETERO_3UE.bandwidth_hz)
        r_eq, _, _ = env.step(np.full(3, 1.0 / 3.0))
        assert r_or > r_eq

    def test_invalid_action_rejected(self):
        env = al.AllocationEnv(HETERO_3UE)
        with pytest.raises(ValueError):
            env.step(np.array([0.9, 0.9, 0.9]))

    def test_state_layout(self):
        env = al.AllocationEnv(HETERO_3UE)
        state = env.reset()
        assert state.shape == (4,)
        assert np.allclose(state[:3], HETERO_3UE.mask_ratios)
        assert state[3] == 1.0


class TestSelectAction:
    def test_zero_noise_deterministic_policy(self):
        actor = Mlp((4, 8, 3), ("relu", "identity"), seed=0)
        state = np.array([0.5, 0.5, 0.5, 1.0])
        a = al.select_action(actor, state, 0.0, np.random.default_rng(0))
        assert np.allclose(a, al.greedy_action(actor, state))

    def test_simplex_invariant(self):
        actor = Mlp((4, 8, 3), ("relu", "identity"), seed=1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = al.select_action(actor, rng.standard_normal(4), 5.0, rng)
            assert abs(a.sum() - 1.0) < 1e-9
            assert np.all(a > 0)

    def test_seeded_reproducibility(self):
        actor = Mlp((4, 8, 3), ("relu", "identity"), seed=3)
        state = np.zeros(4)
        a = al.select_action(actor, state, 0.3, np.random.default_rng(7))
        b = al.select_action(actor, state, 0.3, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestSoftmax:
    def test_softmax_grad_matches_central_differences(self):
        rng = np.random.default_rng(20)
        z = rng.standard_normal((10, 4))
        g = rng.standard_normal((10, 4))
        eps = 1e-6
        numeric = np.empty_like(z)
        for k in range(z.shape[1]):
            step = np.zeros(z.shape[1])
            step[k] = eps
            up = np.sum(g * al.softmax(z + step), axis=-1)
            down = np.sum(g * al.softmax(z - step), axis=-1)
            numeric[:, k] = (up - down) / (2.0 * eps)
        analytic = al.softmax_grad(al.softmax(z), g)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestTdTarget:
    def test_gamma_zero_is_reward(self):
        critic = Mlp((7, 8, 1), ("relu", "identity"), seed=4)
        actor = Mlp((4, 8, 3), ("relu", "identity"), seed=5)
        r = np.array([0.3, 0.7])
        s2 = np.zeros((2, 4))
        y = al.td_target(r, s2, critic, actor, gamma=0.0)
        assert np.allclose(y[:, 0], r)

    def test_zero_critic_is_reward(self):
        critic = Mlp((7, 8, 1), ("relu", "identity"), seed=6)
        for w in critic.weights:
            w[:] = 0.0
        actor = Mlp((4, 8, 3), ("relu", "identity"), seed=7)
        r = np.array([0.25])
        y = al.td_target(r, np.ones((1, 4)), critic, actor, gamma=0.9)
        assert y[0, 0] == pytest.approx(0.25)

    def test_hand_built_sample(self):
        critic = Mlp((7, 1), ("identity",), seed=8)
        critic.weights[0][:] = 0.0
        critic.biases[0][:] = 2.5  # Q' == 2.5 everywhere
        actor = Mlp((4, 3), ("identity",), seed=9)
        y = al.td_target(np.array([0.1]), np.zeros((1, 4)), critic, actor, gamma=0.5)
        assert y[0, 0] == pytest.approx(0.1 + 0.5 * 2.5)


class TestSoftUpdate:
    def test_exact_interpolation(self):
        src = Mlp((3, 4, 2), ("relu", "identity"), seed=10)
        tgt = Mlp((3, 4, 2), ("relu", "identity"), seed=11)
        before = [w.copy() for w in tgt.weights]
        tau = 0.25
        al.soft_update(tgt, src, tau)
        for w_t, w_s, w_0 in zip(tgt.weights, src.weights, before):
            assert np.allclose(w_t, tau * w_s + (1 - tau) * w_0, atol=1e-15)

    def test_matches_per_array_interpolation_bit_for_bit(self):
        src = Mlp((3, 4, 2), ("relu", "identity"), seed=12)
        tgt = Mlp((3, 4, 2), ("relu", "identity"), seed=13)
        rng = np.random.default_rng(14)
        for b in (*src.biases, *tgt.biases):
            b[...] = rng.standard_normal(b.size)
        tau = 0.005
        expected = [
            (1 - tau) * p_t + tau * p_s
            for p_t, p_s in zip((*tgt.weights, *tgt.biases), (*src.weights, *src.biases))
        ]
        al.soft_update(tgt, src, tau)
        assert all(np.array_equal(p, e) for p, e in zip((*tgt.weights, *tgt.biases), expected))


class TestReplay:
    def test_uniform_sampling_chi_square(self):
        buf = al.ReplayBuffer(1000, 1, 1)
        for k in range(1000):
            buf.add([float(k)], [0.0], 0.0, [0.0])
        rng = np.random.default_rng(12)
        states, _, _, _ = buf.sample(50_000, rng)
        counts = np.bincount(states[:, 0].astype(int), minlength=1000)
        expected = 50_000 / 1000
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        critical = stats.chi2.ppf(0.99, df=999)
        assert chi2 < critical

    def test_capacity_wraps(self):
        buf = al.ReplayBuffer(4, 1, 1)
        for k in range(6):
            buf.add([float(k)], [0.0], float(k), [0.0])
        assert buf.size == 4
        assert set(buf.rewards.tolist()) == {2.0, 3.0, 4.0, 5.0}


class TestTraining:
    def test_greedy_policy_near_oracle(self, trained_hetero):
        agent, _ = trained_hetero
        _, t_or = al.oracle_allocate(HETERO_3UE)
        _, t_eq = al.equal_split_baseline(HETERO_3UE)
        _, t_greedy = agent.allocate(al.AllocationEnv(HETERO_3UE))
        assert t_greedy <= 1.05 * t_or
        assert t_greedy <= 0.85 * t_eq

    def test_learning_curve_improves(self, trained_hetero):
        _, curve = trained_hetero
        tenth = max(1, len(curve) // 10)
        first = np.mean([row[1] for row in curve[:tenth]])
        last = np.mean([row[1] for row in curve[-tenth:]])
        assert last > first

    def test_determinism(self):
        hyper = al.DdpgHyper(episodes=12)
        a_agent, a_curve = al.train_ddpg(HETERO_3UE, hyper, seed=3)
        b_agent, b_curve = al.train_ddpg(HETERO_3UE, hyper, seed=3)
        assert a_curve == b_curve
        assert all(np.array_equal(w1, w2) for w1, w2 in zip(a_agent.actor.weights, b_agent.actor.weights))

    def test_memory_at_the_first_update_does_not_grow_with_the_run(self, monkeypatch):
        """The replay buffer grows with what it stores: a run of 10^12 TTIs holds no more
        before its first update than a run of 10 (it allocated 21.3 PiB up front)."""

        class FirstUpdate(Exception):
            pass

        def first_update(*args):
            raise FirstUpdate

        monkeypatch.setattr(al, "_update", first_update)
        peaks = {}
        for episodes, episode_len in ((2, 5), (2, 5), (10**6, 10**6)):  # the first run warms up
            hyper = al.DdpgHyper(episodes=episodes, episode_len=episode_len, batch_size=4,
                                 buffer_capacity=10**15)
            tracemalloc.start()
            try:
                with pytest.raises(FirstUpdate):
                    al.train_ddpg(HETERO_3UE, hyper, seed=0)
                peaks[episodes * episode_len] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # The interpreter's own caches move the peak by a few hundred bytes from run to run.
        assert abs(peaks[10**12] - peaks[10]) < 1024, peaks

    def test_symmetric_converges_to_even_split(self):
        sc = scenario((1e6, 1e6, 1e6), (2.0, 2.0, 2.0), bandwidth=3e6)
        agent, _ = al.train_ddpg(sc, al.DdpgHyper(episodes=500), seed=0)
        fractions, t_greedy = agent.allocate(al.AllocationEnv(sc))
        assert np.abs(fractions - 1.0 / 3.0).max() < 0.05
        # symmetry: all three methods agree on t_max within 1%
        _, t_oracle = al.oracle_allocate(sc)
        _, t_equal = al.equal_split_baseline(sc)
        assert t_equal == pytest.approx(t_oracle)
        assert t_greedy <= 1.01 * t_oracle
