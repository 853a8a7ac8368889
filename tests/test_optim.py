"""Tests for the optimizer step rules.

Independent references used here:
  * hand-substituted one-step arithmetic for every half-step kind,
  * a geometric-form re-implementation of the double-averaging method,
  * scalar closed forms for the slow-momentum and server-round methods,
  * the per-worker reference loop as a cross-check of the stacked matrix
    recursion.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from qgm_sim.consensus import consensus_distance, qg_consensus
from qgm_sim.oracles import quadratic_family, rosenbrock_gradient
from qgm_sim.optim import (
    HALF_STEP_KINDS,
    HyperParams,
    StackedState,
    _average_model,
    _column_norms,
    _norm,
    column_mean,
    mix,
    stacked_dsgd_step,
    stacked_mimelite_round,
    stacked_slowmo_round,
    stacked_step,
)
from qgm_sim.topology import (
    MixingMatrix,
    OnePeerExponential,
    build_graph,
    mixing_matrix,
)


def ring(n):
    return mixing_matrix(build_graph("ring", n))


def complete(n):
    return mixing_matrix(build_graph("complete", n))


W1 = MixingMatrix(1, np.array([[1.0]]), 1.0)


def single(x0):
    return StackedState.init(np.asarray(x0, dtype=float), 1)


@ref.per_worker
def rosenbrock_fn(i, x, t):
    return rosenbrock_gradient(x).grad


# ---------------------------------------------------------------------------
# hyperparameters
# ---------------------------------------------------------------------------

class TestHyperParams:
    def test_mu_defaults_to_beta(self):
        assert HyperParams(eta=0.1, beta=0.8).mu == 0.8

    def test_explicit_mu_kept(self):
        assert HyperParams(eta=0.1, beta=0.8, mu=0.3).mu == 0.3

    @pytest.mark.parametrize("kw", [
        {"eta": 0.0},
        {"eta": -1.0},
        {"eta": 0.1, "beta": 1.0},
        {"eta": 0.1, "mu": -0.1},
        {"eta": 0.1, "beta2": 1.5},
        {"eta": 0.1, "tau": 0},
        {"eta": 0.1, "epsilon": 0.0},
        {"eta": 0.1, "slowmo_alpha": 0.0},
        {"eta": 0.1, "slowmo_beta": 1.0},
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            HyperParams(**kw)

    @given(beta=st.floats(min_value=0.0, max_value=0.99))
    def test_mu_default_tracks_any_beta(self, beta):
        assert HyperParams(eta=0.1, beta=beta).mu == beta


# ---------------------------------------------------------------------------
# half steps: one-step hand substitutions
# ---------------------------------------------------------------------------

def half_step(kind, S, g, hp):
    """The pre-gossip models of one step: with the one-worker identity
    mixing and no buffer refresh, the step leaves exactly its half step."""
    stacked_dsgd_step(kind, S, g, W1, hp, refresh=False)
    return S.X


class TestLocalHalfStep:
    def setup_method(self):
        self.hp = HyperParams(eta=0.1, beta=0.9)
        self.S = single([1.0])
        self.g = np.array([[0.5]])

    def test_plain_descent_substitution(self):
        X = half_step("dsgd", self.S, self.g, self.hp)
        assert X[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_heavy_ball_first_step_equals_descent(self):
        X = half_step("dsgdm", self.S, self.g, self.hp)
        assert self.S.M_local[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert X[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_nesterov_first_step_applies_buffer_twice(self):
        X = half_step("dsgdm_n", self.S, self.g, self.hp)
        # m = g, then x - eta (beta m + g) = x - eta (1 + beta) g
        assert self.S.M_local[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert X[0, 0] == pytest.approx(1.0 - 0.1 * 1.9 * 0.5, abs=1e-15)

    def test_quasi_global_first_step_equals_descent(self):
        X = half_step("qg_dsgdm", self.S, self.g, self.hp)
        assert X[0, 0] == pytest.approx(0.95, abs=1e-15)
        # the buffer is read, never written, by the half step
        assert self.S.M_hat[0, 0] == 0.0

    def test_quasi_global_nesterov_first_step(self):
        X = half_step("qg_dsgdm_n", self.S, self.g, self.hp)
        assert X[0, 0] == pytest.approx(1.0 - 0.1 * 1.9 * 0.5, abs=1e-15)

    def test_quasi_global_reads_buffer(self):
        self.S.M_hat = m_hat = np.array([[2.0]])
        X = half_step("qg_dsgdm", self.S, self.g, self.hp)
        assert X[0, 0] == pytest.approx(1.0 - 0.1 * (0.9 * 2.0 + 0.5), abs=1e-15)
        assert np.array_equal(self.S.M_hat, m_hat)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown half-step kind"):
            stacked_dsgd_step("adamw", self.S, self.g, W1, self.hp)

    def test_kind_catalogue(self):
        assert HALF_STEP_KINDS == ("dsgd", "dsgdm", "dsgdm_n", "qg_dsgdm", "qg_dsgdm_n")


# ---------------------------------------------------------------------------
# gossip
# ---------------------------------------------------------------------------

class TestGossip:
    def test_three_node_ring_averages_everything(self):
        # a 3-ring's Metropolis weights are all 1/3, so one round averages
        out = mix(np.array([[1.0, 2.0, 3.0]]), ring(3))
        for x in out[0]:
            assert x == pytest.approx(2.0, abs=1e-12)

    def test_identity_matrix_is_noop(self):
        X = np.array([[3.0], [-1.0]])
        assert np.array_equal(mix(X, W1), X)

    def test_buffers_stay_local(self):
        # a zero-gradient plain step is one gossip round and nothing else
        S = StackedState.init(np.arange(3.0), 4)
        S.M_hat = m_hat = np.stack([np.full(3, float(i)) for i in range(4)], axis=1)
        S.M_local = m_local = np.stack([np.full(3, 2.0 * i) for i in range(4)], axis=1)
        stacked_dsgd_step("dsgd", S, np.zeros((3, 4)), ring(4), HyperParams(eta=0.1))
        assert np.array_equal(S.M_hat, m_hat)
        assert np.array_equal(S.M_local, m_local)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            mix(np.zeros((2, 3)), ring(4))

    @given(n=st.integers(min_value=2, max_value=6),
           dim=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_average_is_preserved(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        X = np.stack([rng.standard_normal(dim) for _ in range(n)], axis=1)
        before = column_mean(X)
        after = column_mean(mix(X, ring(n)))
        np.testing.assert_allclose(after, before, rtol=1e-10, atol=1e-12)


class TestOnePeerGossip:
    """The one-peer schedule mixes without a matrix: each column averages
    halfway with its one peer's."""

    @given(m=st.integers(min_value=0, max_value=10),
           dim=st.integers(min_value=1, max_value=6),
           t_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_the_dense_product(self, m, dim, t_frac, seed):
        # n from 1 to 1024, t over two sweeps, magnitudes from 1e-300 to
        # 1e300 of both signs: halving is exact there, so the two agree in
        # every bit
        n = 1 << m
        schedule = OnePeerExponential(n)
        t = int(t_frac * 2 * schedule.sweep)
        rng = np.random.default_rng(seed)
        X = rng.uniform(1.0, 2.0, (dim, n)) * rng.choice([-1.0, 1.0], (dim, n)) \
            * 10.0 ** rng.integers(-300, 301, (dim, n))
        want = X @ ref.one_peer_exponential_matrix(n, t).weights.T
        got = mix(X, schedule.at(t))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,dim", [(512, 512), (512, 100), (1024, 65), (2, 20000)])
    def test_row_blocks_keep_the_dense_products_bits(self, n, dim):
        # states larger than one block of halves: eight full blocks, full
        # blocks and a remainder block, and a tall two-worker state
        schedule = OnePeerExponential(n)
        X = np.random.default_rng(dim).standard_normal((dim, n))
        X.setflags(write=False)
        for t in range(schedule.sweep):
            want = X @ ref.one_peer_exponential_matrix(n, t).weights.T
            got = mix(X, schedule.at(t))
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), t

    def test_offsets_and_sweep(self):
        schedule = OnePeerExponential(8)
        assert schedule.sweep == 3
        assert [schedule.offset(t) for t in range(7)] == [1, 2, 4, 1, 2, 4, 1]
        assert (OnePeerExponential(1).sweep, OnePeerExponential(1).offset(5)) == (1, 0)
        with pytest.raises(ValueError, match="power of two"):
            OnePeerExponential(12)

    def test_one_worker_gets_a_fresh_copy(self):
        X = np.array([[3.0], [-1.0]])
        out = mix(X, OnePeerExponential(1).at(4))
        assert out is not X and np.array_equal(out, X)

    @pytest.mark.parametrize("t", range(3))
    def test_an_inf_reaches_only_its_reader(self, t):
        # the dense product multiplies the zero weights by inf and spreads
        # NaN to every worker; the one-peer average reaches worker 3's one
        # reader, the worker whose peer is 3
        X = np.random.default_rng(t).standard_normal((4, 8))
        X[1, 3] = np.inf
        out = mix(X, OnePeerExponential(8).at(t))
        reader = (3 - OnePeerExponential(8).offset(t)) % 8
        bad = set(np.flatnonzero(~np.isfinite(out).all(axis=0)).tolist())
        assert bad == {3, reader}

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            mix(np.zeros((2, 3)), OnePeerExponential(4).at(0))

    def test_a_static_matrix_is_its_own_mixing_at_every_step(self):
        W = ring(4)
        assert W.at(0) is W and W.at(7) is W


# ---------------------------------------------------------------------------
# quasi-global buffer
# ---------------------------------------------------------------------------

class TestQgBuffer:
    def test_two_update_unroll(self):
        # starting from zero, two updates give mu(1-mu) d1 + (1-mu) d2; with
        # beta = 0 a single worker moves from eta d to 0 under gradient d
        mu, eta = 0.9, 0.1
        d1, d2 = 2.0, -1.0
        hp = HyperParams(eta=eta, beta=0.0, mu=mu)
        S = single([eta * d1])
        stacked_dsgd_step("qg_dsgdm", S, np.array([[d1]]), W1, hp)
        assert S.X[0, 0] == 0.0
        assert S.M_hat[0, 0] == pytest.approx((1 - mu) * d1, rel=1e-14)
        S.X = np.array([[eta * d2]])
        stacked_dsgd_step("qg_dsgdm", S, np.array([[d2]]), W1, hp)
        assert S.X[0, 0] == 0.0
        assert S.M_hat[0, 0] == pytest.approx(mu * (1 - mu) * d1 + (1 - mu) * d2, rel=1e-13)

    @staticmethod
    def _buffer_changes(tau, steps):
        """The 1-based steps at which ``stacked_step`` moves ``M_hat`` of a
        two-worker ``qg_dsgdm`` run with ``hp.tau = tau``."""
        hp = HyperParams(eta=0.1, beta=0.5, tau=tau)
        S = StackedState.init(np.zeros(2), 2)
        grad_fn = ref.per_worker(lambda i, x, t: x - (1.0 + i + t))
        changed = []
        for t in range(1, steps + 1):
            before = S.M_hat
            stacked_step("qg_dsgdm", S, ring(2), hp, t, grad_fn)
            if not np.array_equal(S.M_hat, before):
                changed.append(t)
        return changed

    def test_gate_every_fourth_step(self):
        assert self._buffer_changes(4, 8) == [4, 8]

    def test_gate_tau_one_always_fires(self):
        assert self._buffer_changes(1, 19) == list(range(1, 20))

    def test_gate_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            HyperParams(eta=0.1, tau=0)

    @given(step=st.integers(min_value=1, max_value=1000),
           tau=st.integers(min_value=1, max_value=50))
    def test_gate_matches_modulus(self, step, tau):
        assert ref.qg_multistep_gate(step, tau) == (step % tau == 0)


# ---------------------------------------------------------------------------
# full decentralized steps: collapses and identities
# ---------------------------------------------------------------------------

class TestDecentralizedStep:
    def test_beta_zero_reduces_to_plain_descent(self):
        # with beta = 0 the buffer is never read, so models match bitwise
        prob = quadratic_family(dim=4, n_workers=4, zeta_c=1.0)
        grad_fn = ref.per_worker(lambda i, x, t: prob.sample(i, x, t).grad)
        W = ring(4)
        hp_qg = HyperParams(eta=0.05, beta=0.0, mu=0.9)
        hp_plain = HyperParams(eta=0.05, beta=0.0)
        a = StackedState.init(np.zeros(4), 4)
        b = StackedState.init(np.zeros(4), 4)
        for t in range(20):
            stacked_step("qg_dsgdm", a, W, hp_qg, t, grad_fn)
            stacked_step("dsgd", b, W, hp_plain, t, grad_fn)
            assert np.array_equal(a.X, b.X)

    def test_mu_zero_single_worker_equals_heavy_ball(self):
        hp_qg = HyperParams(eta=0.001, beta=0.9, mu=0.0)
        hp_hb = HyperParams(eta=0.001, beta=0.9)
        a = single([0.0, 0.0])
        b = single([0.0, 0.0])
        for t in range(100):
            stacked_step("qg_dsgdm", a, W1, hp_qg, t, rosenbrock_fn)
            stacked_step("dsgdm", b, W1, hp_hb, t, rosenbrock_fn)
        np.testing.assert_allclose(a.X[:, 0], b.X[:, 0], atol=1e-12)

    def test_mu_zero_complete_graph_matches_heavy_ball_models(self):
        # a complete graph synchronizes every step, so the mu = 0 buffer
        # equals the mean heavy-ball buffer and the models coincide
        prob = quadratic_family(dim=4, n_workers=4, zeta_c=1.0, sigma_c=0.3)
        grad_fn = ref.per_worker(lambda i, x, t: prob.sample(i, x, t).grad)
        W = complete(4)
        a = StackedState.init(np.zeros(4), 4)
        b = StackedState.init(np.zeros(4), 4)
        hp_qg = HyperParams(eta=0.05, beta=0.9, mu=0.0)
        hp_hb = HyperParams(eta=0.05, beta=0.9)
        for t in range(50):
            stacked_step("qg_dsgdm", a, W, hp_qg, t, grad_fn)
            stacked_step("dsgdm", b, W, hp_hb, t, grad_fn)
        np.testing.assert_allclose(a.X, b.X, atol=1e-12)

    def test_homogeneous_workers_collapse_to_single_worker(self):
        # identical data + identical start: any doubly stochastic mixing
        # leaves the run indistinguishable from one worker
        prob = quadratic_family(dim=4, n_workers=4, zeta_c=0.0)
        grad_fn = ref.per_worker(lambda i, x, t: prob.sample(i, x, t).grad)
        W = ring(4)
        hp = HyperParams(eta=0.05, beta=0.9, mu=0.5)
        multi = StackedState.init(np.ones(4), 4)
        solo = StackedState.init(np.ones(4), 1)
        for t in range(50):
            stacked_step("qg_dsgdm", multi, W, hp, t, grad_fn)
            stacked_step("qg_dsgdm", solo, W1, hp, t, grad_fn)
            for i in range(4):
                np.testing.assert_allclose(multi.X[:, i], solo.X[:, 0], atol=1e-12)

    def test_minimum_is_a_fixed_point(self):
        # zero gradient, zero buffer: the state never moves, bit for bit
        S = single([1.0, 1.0])
        hp = HyperParams(eta=0.1, beta=0.9, mu=0.9)
        for _ in range(5):
            g = rosenbrock_gradient(S.X[:, 0]).grad
            assert np.array_equal(g, np.zeros(2))
            stacked_dsgd_step("qg_dsgdm", S, g[:, None], W1, hp)
            assert np.array_equal(S.X[:, 0], np.array([1.0, 1.0]))
            assert np.array_equal(S.M_hat[:, 0], np.zeros(2))

    def test_averaged_iterate_follows_centralized_recursion(self):
        # mean model moves by eta (beta mean-buffer + mean-gradient): mixing
        # redistributes but never shifts the average
        prob = quadratic_family(dim=5, n_workers=4, zeta_c=1.0, sigma_c=0.3)
        W = ring(4)
        hp = HyperParams(eta=0.05, beta=0.9, mu=0.9)
        S = StackedState.init(np.zeros(5), 4)
        for t in range(30):
            G = np.stack([prob.sample(i, S.X[:, i], t).grad for i in range(4)], axis=1)
            x_bar = column_mean(S.X)
            m_bar = column_mean(S.M_hat)
            g_bar = column_mean(G)
            stacked_dsgd_step("qg_dsgdm", S, G, W, hp)
            x_bar_next = column_mean(S.X)
            np.testing.assert_allclose(
                x_bar_next, x_bar - hp.eta * (hp.beta * m_bar + g_bar), atol=1e-12)

    def test_multistep_gate_freezes_buffer_between_refreshes(self):
        prob = quadratic_family(dim=3, n_workers=3, zeta_c=0.5, sigma_c=0.2)
        W = ring(3)
        eta, beta, mu, tau = 0.05, 0.9, 0.7, 2
        hp = HyperParams(eta=eta, beta=beta, mu=mu, tau=tau)
        S = StackedState.init(np.zeros(3), 3)

        # independent reference: same loop, buffer refreshed only when
        # the 1-based step index is a multiple of tau
        xs = [np.zeros(3) for _ in range(3)]
        ms = [np.zeros(3) for _ in range(3)]
        Wm = W.weights
        for t in range(1, 9):
            stacked_step("qg_dsgdm", S, W, hp, t,
                         ref.per_worker(lambda i, x, t: prob.sample(i, x, t).grad))

            ref_grads = [prob.sample(i, xs[i], t).grad for i in range(3)]
            halves = [xs[i] - eta * (beta * ms[i] + ref_grads[i]) for i in range(3)]
            Xn = np.stack(halves, axis=1) @ Wm.T
            new_xs = [Xn[:, i].copy() for i in range(3)]
            if t % tau == 0:
                ms = [mu * ms[i] + (1 - mu) * (xs[i] - new_xs[i]) / eta for i in range(3)]
            xs = new_xs

            for i, (x_ref, m_ref) in enumerate(zip(xs, ms)):
                np.testing.assert_allclose(S.X[:, i], x_ref, atol=1e-13)
                np.testing.assert_allclose(S.M_hat[:, i], m_ref, atol=1e-13)

    def test_matrix_recursion_matches_per_worker_loop(self):
        n, dim, steps = 5, 8, 200
        eta, beta, mu = 0.05, 0.9, 0.5
        W = ring(n)
        rng = np.random.default_rng(12345)
        grads_seq = [rng.standard_normal((dim, n)) for _ in range(steps)]

        states = ref.to_workers(StackedState.init(np.zeros(dim), n))
        hp = HyperParams(eta=eta, beta=beta, mu=mu)
        for G in grads_seq:
            states = ref.decentralized_step(
                "qg_dsgdm", states, [G[:, i] for i in range(n)], W, hp)

        S = StackedState.from_matrix(np.zeros((dim, n)))
        for G in grads_seq:
            stacked_dsgd_step("qg_dsgdm", S, G, W, hp)
        for i, s in enumerate(states):
            np.testing.assert_allclose(s.x, S.X[:, i], atol=1e-12)
            np.testing.assert_allclose(s.m_hat, S.M_hat[:, i], atol=1e-12)


# ---------------------------------------------------------------------------
# single-worker closed forms
# ---------------------------------------------------------------------------

class TestClosedForms:
    def test_quasi_hyperbolic_mu_zero_is_heavy_ball(self):
        hp = HyperParams(eta=0.001, beta=0.9, mu=0.0)
        a = single([0.0, 0.0])
        b = single([0.0, 0.0])
        for t in range(100):
            stacked_step("qhm", a, W1, hp, t, rosenbrock_fn)
            stacked_step("dsgdm", b, W1, hp, t, rosenbrock_fn)
        np.testing.assert_allclose(a.X[:, 0], b.X[:, 0], atol=1e-12)

    def test_zero_decay_core_is_plain_descent(self):
        # beta = mu = 0 makes beta_hat = 0: plain SGD, the buffer the gradient
        S = single([1.0])
        S.M_hat = np.array([[5.0]])
        stacked_step("qhm", S, W1, HyperParams(eta=0.1, beta=0.0, mu=0.0), 1,
                     ref.per_worker(lambda i, x, t: np.array([0.5])))
        assert S.X[0, 0] == pytest.approx(0.95, abs=1e-15)
        assert S.M_hat[0, 0] == 0.5

    def test_single_worker_quasi_global_is_quasi_hyperbolic(self):
        # closed form: one quasi-global worker follows the quasi-hyperbolic
        # recursion with merged decay mu + (1 - mu) beta
        for beta, mu in [(0.9, 0.5), (0.5, 0.9), (0.9, 0.9)]:
            hp = HyperParams(eta=0.001, beta=beta, mu=mu)
            a = single([0.0, 0.0])
            b = single([0.0, 0.0])
            for t in range(200):
                stacked_step("qg_dsgdm", a, W1, hp, t, rosenbrock_fn)
                stacked_step("qhm", b, W1, hp, t, rosenbrock_fn)
            np.testing.assert_allclose(a.X[:, 0], b.X[:, 0], atol=1e-10)

    def test_single_worker_nesterov_variant_closed_form(self):
        # the double-application variant matches the quasi-hyperbolic core
        # at step size eta (1 + beta) with merged decay mu + (1 - mu) beta^2
        beta, mu, eta = 0.9, 0.5, 0.001
        hp = HyperParams(eta=eta, beta=beta, mu=mu)
        a = single([0.0, 0.0])
        x = np.zeros(2)
        m = np.zeros(2)
        beta_hat = mu + (1 - mu) * beta * beta
        for t in range(100):
            gb = rosenbrock_gradient(x).grad
            stacked_step("qg_dsgdm_n", a, W1, hp, t, rosenbrock_fn)
            x, m = ref.qhm_core(x, m, gb, eta * (1 + beta), beta_hat, mu)
        np.testing.assert_allclose(a.X[:, 0], x, atol=1e-10)

    def test_nesterov_variant_rescales_to_weighted_form(self):
        # m <- beta m + (1-beta) g; x <- x - r ((1-beta) g + beta m) with
        # r = eta / (1-beta) retraces the double-application update exactly
        eta, beta = 0.001, 0.9
        hp = HyperParams(eta=eta, beta=beta)
        a = single([0.0, 0.0])
        x = np.zeros(2)
        m = np.zeros(2)
        r = eta / (1 - beta)
        for t in range(100):
            gb = rosenbrock_gradient(x).grad
            stacked_step("dsgdm_n", a, W1, hp, t, rosenbrock_fn)
            m = beta * m + (1 - beta) * gb
            x = x - r * ((1 - beta) * gb + beta * m)
        np.testing.assert_allclose(a.X[:, 0], x, atol=1e-10)


# ---------------------------------------------------------------------------
# adaptive variant
# ---------------------------------------------------------------------------

class TestQgDadam:
    def test_first_step_moment_arithmetic(self):
        hp = HyperParams(eta=0.1, beta1=0.9, beta2=0.99, epsilon=1e-8)
        g = np.array([2.0, -1.0])
        S = single([1.0, 1.0])
        stacked_step("qg_dadam", S, W1, hp, 1, ref.per_worker(lambda i, x, t: g))
        m = 0.1 * g
        v = 0.01 * g * g
        x_expected = np.array([1.0, 1.0]) - 0.1 * m / (np.sqrt(v) + 1e-8)
        np.testing.assert_allclose(S.X[:, 0], x_expected, atol=1e-15)
        # buffers rebuild from the unit synchronized movement
        d = np.array([1.0, 1.0]) - S.X[:, 0]
        d_unit = d / np.linalg.norm(d)
        np.testing.assert_allclose(S.M_hat[:, 0], 0.1 * d_unit, atol=1e-15)
        np.testing.assert_allclose(S.V[:, 0], 0.01 * d_unit * d_unit, atol=1e-15)

    def test_movement_is_normalized_or_zero(self):
        W = ring(2)
        hp = HyperParams(eta=0.01)
        S = StackedState.from_matrix(np.array([[0.0, 2.0], [0.0, 1.0]]))
        for t in range(10):
            before = S.X.copy()
            stacked_step("qg_dadam", S, W, hp, t, rosenbrock_fn)
            for i in range(2):
                norm = np.linalg.norm(before[:, i] - S.X[:, i])
                if norm > 0:
                    # buffers absorb a unit vector, so they stay bounded
                    assert np.linalg.norm(S.M_hat[:, i]) <= 1.0 + 1e-12
                assert np.all(S.V[:, i] >= 0.0)
                assert np.all(S.V[:, i] <= 1.0 + 1e-12)

    def test_no_movement_decays_buffers(self):
        hp = HyperParams(eta=0.1, beta2=0.99)
        S = single([3.0])
        S.V = np.array([[0.16]])
        stacked_step("qg_dadam", S, W1, hp, 1, ref.per_worker(lambda i, x, t: np.zeros(1)))
        # zero gradient and zero first moment: the model cannot move, the
        # unit movement is zero, and the stored buffers shrink geometrically
        assert np.array_equal(S.X[:, 0], np.array([3.0]))
        assert np.array_equal(S.M_hat[:, 0], np.zeros(1))
        assert S.V[0, 0] == pytest.approx(0.99 * 0.16, rel=1e-15)

    @given(dim=st.integers(1, 300), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e160, 1e-170]),
           special=st.lists(st.sampled_from(["zero", "negative_zero", "subnormal"]),
                            max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_column_norms_match_a_norm_per_column(self, dim, n, seed, scale, special):
        # one transposed copy and a ddot per row gives the bits of
        # np.linalg.norm(D[:, i]), zero columns and underflowing ones included
        D = np.random.default_rng(seed).standard_normal((dim, n)) * scale
        for i, what in enumerate(special[:n]):
            D[:, i] = {"zero": 0.0, "negative_zero": -0.0, "subnormal": 5e-324}[what]
        with np.errstate(over="ignore"):  # squares past 1e308 are inf both ways
            got = _column_norms(D)
            want = np.array([np.linalg.norm(D[:, i]) for i in range(n)])
        assert got.shape == (n,) and got.tobytes() == want.tobytes()
        for i, what in enumerate(special[:n]):
            assert got[i] == 0.0, what  # so the unit movement is zero there


def _with_specials(dim, n, what):
    """A ``(dim, n)`` array of standard normals with special values put in:
    signed zeros, subnormals, infinities or NaN in a few entries (the last
    entry among them), or huge entries whose squares overflow."""
    X = np.random.default_rng(dim * 10007 + n).standard_normal((dim, n))
    idx = [0, X.size // 2, X.size - 1]
    values = {
        "normal": [],
        "zeros": [0.0, -0.0, -0.0],
        "all_negative_zero": None,
        "subnormal": [5e-324, -2.5e-310, 1e-320],
        "inf": [np.inf, 1.0, -np.inf],
        "nan": [1.0, np.nan, 2.0],
        "huge": [1.7e308, -1.7e308, 1.7e308],
    }[what]
    if values is None:
        return np.full((dim, n), -0.0)
    X.flat[idx[:len(values)]] = values
    return X


class TestWrapperFreeKernels:
    """The step's bookkeeping calls the numpy kernels under ``ndarray.mean``
    and ``np.linalg.norm`` directly; both must keep their bits, across
    numpy's 8-term pairwise-summation blocks and on special values."""

    SPECIALS = ("normal", "zeros", "all_negative_zero", "subnormal", "inf", "nan", "huge")

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 64, 1024])
    @pytest.mark.parametrize("dim", [1, 2, 8, 64, 512])
    def test_average_model_and_norm_keep_the_wrapped_bits(self, dim, n):
        for what in self.SPECIALS:
            X = _with_specials(dim, n, what)
            with np.errstate(over="ignore", invalid="ignore"):
                x_bar = _average_model(X)
                assert x_bar.tobytes() == X.mean(axis=1).tobytes(), what
                for v in (X, X.T, X[:, 0], X[0], x_bar):  # C, F, strided, row
                    got, want = _norm(v), float(np.linalg.norm(v))
                    assert type(got) is float
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), what

    def test_average_model_is_a_fresh_array(self):
        X = np.arange(6.0).reshape(2, 3)
        x_bar = _average_model(X)
        x_bar += 1.0
        assert np.array_equal(X, np.arange(6.0).reshape(2, 3))


# ---------------------------------------------------------------------------
# double-averaging momentum
# ---------------------------------------------------------------------------

def _dmsgd_geometric(x0, cs, W, eta, beta, mu, option, steps):
    """Independent geometric-form reference on f_i = 0.5 (x - c_i)^2.

    The buffer is rebuilt every step from raw iterate differences:
    m = [ mu (half_prev - half) + (1 - mu)(x - x_new) ] / eta.
    """
    n = len(cs)
    x = [np.asarray(x0, dtype=float).copy() for _ in range(n)]
    half_prev = [np.asarray(x0, dtype=float).copy() for _ in range(n)]
    m = [np.zeros_like(x[0]) for _ in range(n)]
    for _ in range(steps):
        halves = []
        for i in range(n):
            anchor = x[i] if option == "I" else half_prev[i]
            g = anchor - cs[i]
            halves.append(anchor - eta * (beta * m[i] + g))
        Xn = np.stack(halves, axis=1) @ W.weights.T
        x_new = [Xn[:, i].copy() for i in range(n)]
        m = [(mu * (half_prev[i] - halves[i]) + (1 - mu) * (x[i] - x_new[i])) / eta
             for i in range(n)]
        half_prev = halves
        x = x_new
    return x, m


class TestDmsgd:
    @pytest.mark.parametrize("option", ["I", "II"])
    def test_matches_geometric_form(self, option):
        cs = [np.array([1.0]), np.array([-2.0])]
        W = complete(2)
        eta, beta, mu = 0.1, 0.8, 0.6
        hp = HyperParams(eta=eta, beta=beta, mu=mu)
        S = StackedState.init(np.array([0.5]), 2)
        # stacked_step samples at x (option I) or at x_half_prev (option II)
        for t in range(5):
            stacked_step({"I": "dmsgd_i", "II": "dmsgd_ii"}[option], S, W, hp, t,
                         ref.per_worker(lambda i, anchor, t: anchor - cs[i]))
        x_ref, m_ref = _dmsgd_geometric(np.array([0.5]), cs, W, eta, beta, mu,
                                        option, 5)
        for i, (xr, mr) in enumerate(zip(x_ref, m_ref)):
            np.testing.assert_allclose(S.X[:, i], xr, atol=1e-13)
            np.testing.assert_allclose(S.M_hat[:, i], mr, atol=1e-13)

    def test_mu_one_anchored_option_is_local_heavy_ball(self):
        # mu = 1 with the half-anchored option never consults the gossip
        # outcome, leaving a single worker exactly on the heavy-ball path
        hp = HyperParams(eta=0.05, beta=0.8, mu=0.999999999)
        hp = dataclasses.replace(hp, mu=1.0 - 1e-12)  # mu must stay < 1
        a = single([2.0])
        b = single([2.0])
        for t in range(30):
            stacked_step("dmsgd_ii", a, W1, hp, t, ref.per_worker(lambda i, x, t: x - 0.0))
            stacked_step("dsgdm", b, W1, hp, t, ref.per_worker(lambda i, x, t: x - 0.0))
        np.testing.assert_allclose(a.X[:, 0], b.X[:, 0], atol=1e-8)

    def test_mu_zero_buffer_is_synchronized_drift(self):
        hp = HyperParams(eta=0.1, beta=0.8, mu=0.0)
        S = StackedState.init(np.array([0.5]), 2)
        cs = [1.0, -2.0]
        X0 = S.X.copy()
        stacked_step("dmsgd_ii", S, complete(2), hp, 1,
                     ref.per_worker(lambda i, x, t: x - np.array([cs[i]])))
        for i in range(2):
            np.testing.assert_allclose(S.M_hat[:, i], (X0[:, i] - S.X[:, i]) / 0.1, atol=1e-14)

    def test_bad_option_rejected(self):
        with pytest.raises(ValueError, match="dmsgd_iii"):
            stacked_step("dmsgd_iii", single([0.0]), W1, HyperParams(eta=0.1), 1,
                         ref.per_worker(lambda i, x, t: np.zeros(1)))


# ---------------------------------------------------------------------------
# previous-gradient correction methods
# ---------------------------------------------------------------------------

class TestD2:
    def test_variants_agree_under_constant_step_size(self):
        prob = quadratic_family(dim=3, n_workers=3, zeta_c=1.0)
        grad_fn = ref.per_worker(lambda i, x, t: prob.sample(i, x, t).grad)
        W = ring(3)
        hp = HyperParams(eta=0.1)
        a = StackedState.init(np.zeros(3), 3)
        b = StackedState.init(np.zeros(3), 3)
        for t in range(5):
            stacked_step("d2", a, W, hp, t, grad_fn)
            stacked_step("d2_plus", b, W, hp, t, grad_fn)
            assert np.array_equal(a.X, b.X)

    def test_homogeneous_equals_plain_descent(self):
        # identical local objectives: the correction telescopes away
        prob = quadratic_family(dim=3, n_workers=3, zeta_c=0.0)
        grad_fn = ref.per_worker(lambda i, x, t: prob.sample(i, x, t).grad)
        W = complete(3)
        hp = HyperParams(eta=0.3)
        a = StackedState.init(np.ones(3), 3)
        b = StackedState.init(np.ones(3), 3)
        for t in range(50):
            stacked_step("d2", a, W, hp, t, grad_fn)
            stacked_step("dsgd", b, W, hp, t, grad_fn)
        np.testing.assert_allclose(a.X, b.X, atol=1e-13)

    def test_step_size_decay_inflates_plain_correction_tenfold(self):
        # after a 10x decay the plain variant divides history by the *new*
        # step size, blowing the correction term up by exactly 10
        g = np.array([0.2])

        def with_history():
            S = single([0.75])
            S.X_prev, S.G_prev, S.eta_prev = np.array([[1.0]]), np.array([[0.3]]), 0.1
            return S

        hp = HyperParams(eta=0.01)
        out_plain, out_plus = with_history(), with_history()
        stacked_step("d2", out_plain, W1, hp, 1, ref.per_worker(lambda i, x, t: g))
        stacked_step("d2_plus", out_plus, W1, hp, 1, ref.per_worker(lambda i, x, t: g))
        # the history term is divided by the new step size (plain) or the
        # old one (plus): exactly a factor-10 inflation of the correction
        corr_plain = (1.0 - 0.75) / 0.01
        corr_plus = (1.0 - 0.75) / 0.1
        assert corr_plain / corr_plus == 10.0
        assert out_plain.X[0, 0] == 0.75 - 0.01 * (corr_plain + (g[0] - 0.3))
        assert out_plus.X[0, 0] == 0.75 - 0.01 * (corr_plus + (g[0] - 0.3))

    def test_first_step_is_plain_descent(self):
        hp = HyperParams(eta=0.1)
        S = single([1.0])
        stacked_step("d2", S, W1, hp, 1, ref.per_worker(lambda i, x, t: np.array([0.5])))
        assert S.X[0, 0] == pytest.approx(0.95, abs=1e-15)
        assert S.eta_prev == 0.1
        assert S.X_prev[0, 0] == 1.0

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="d3"):
            stacked_step("d3", single([0.0]), W1, HyperParams(eta=0.1), 1,
                         ref.per_worker(lambda i, x, t: np.zeros(1)))


class TestGradientTracking:
    def test_single_worker_is_plain_descent(self):
        hp = HyperParams(eta=0.001, beta=0.0)
        a = single([0.0, 0.0])
        x = np.zeros(2)
        for t in range(1, 51):
            stacked_step("gt", a, W1, hp, t, rosenbrock_fn)
            x = x - hp.eta * rosenbrock_gradient(x).grad
            np.testing.assert_allclose(a.X[:, 0], x, atol=1e-12)

    def test_single_worker_momentum_matches_double_application(self):
        hp = HyperParams(eta=0.001, beta=0.9)
        a = single([0.0, 0.0])
        b = single([0.0, 0.0])
        for t in range(1, 51):
            stacked_step("gt_momentum", a, W1, hp, t, rosenbrock_fn)
            stacked_step("dsgdm_n", b, W1, hp, t, rosenbrock_fn)
            np.testing.assert_allclose(a.X[:, 0], b.X[:, 0], atol=1e-12)

    def test_tracker_sum_equals_gradient_sum(self):
        prob = quadratic_family(dim=4, n_workers=4, zeta_c=1.5)
        grad_fn = ref.per_worker(lambda i, x, s: prob.sample(i, x, s).grad)
        W = ring(4)
        hp = HyperParams(eta=0.1, beta=0.0)
        S = StackedState.init(np.zeros(4), 4)
        for t in range(1, 31):
            stacked_step("gt", S, W, hp, t, grad_fn)
            y_sum = S.Y.sum(axis=1)
            g_sum = np.sum([prob.sample_mean_part(i, S.X[:, i]) for i in range(4)], axis=0)
            np.testing.assert_allclose(y_sum, g_sum, atol=1e-10)

    def test_removes_heterogeneity_bias(self):
        # plain decentralized descent stalls at a spread fixed point under
        # strong heterogeneity; tracking drives every worker to the optimum
        prob = quadratic_family(dim=8, n_workers=4, zeta_c=2.0)
        grad_fn = ref.per_worker(lambda i, x, s: prob.sample(i, x, s).grad)
        W = ring(4)
        hp = HyperParams(eta=0.2, beta=0.0)

        tracked = StackedState.init(np.zeros(8), 4)
        plain = StackedState.init(np.zeros(8), 4)
        for t in range(300):
            stacked_step("gt", tracked, W, hp, t + 1, grad_fn)
            stacked_step("dsgd", plain, W, hp, t, grad_fn)

        err_tracked = max(np.linalg.norm(tracked.X[:, i] - prob.x_star) for i in range(4))
        err_plain = max(np.linalg.norm(plain.X[:, i] - prob.x_star) for i in range(4))
        assert err_tracked <= 1e-6
        assert err_plain > 1e-3

    @pytest.mark.parametrize("kind", ["gt", "gt_momentum"])
    def test_first_step_starts_the_tracker(self, kind):
        # a fresh state's first step is the reference's gt_init followed by
        # its first gt_step, bit for bit, with the oracle called at step 0
        # and then step 1
        prob = quadratic_family(dim=4, n_workers=4, zeta_c=1.5, sigma_c=0.3, master_seed=2)
        calls = []

        def oracle(i, x, t):
            calls.append(t)
            return prob.sample(i, x, t).grad

        hp = HyperParams(eta=0.1, beta=0.9)
        S = StackedState.init(np.linspace(-1.0, 1.0, 4), 4)
        want = ref.gt_init(ref.to_workers(S), oracle, 0)
        want = ref.gt_step(want, ring(4), hp, oracle, 0, with_momentum=kind == "gt_momentum")
        calls.clear()
        stacked_step(kind, S, ring(4), hp, 1, ref.per_worker(oracle))
        assert calls == [0] * 4 + [1] * 4
        for a, b in zip(ref.to_workers(S), want):
            for f in dataclasses.fields(a):
                va, vb = getattr(a, f.name), getattr(b, f.name)
                assert (va is None and vb is None) or va.tobytes() == vb.tobytes(), f.name


# ---------------------------------------------------------------------------
# round-structured methods
# ---------------------------------------------------------------------------

class TestSlowmo:
    def test_zero_slow_momentum_unit_alpha_recovers_round_average(self):
        prob = quadratic_family(dim=4, n_workers=4, zeta_c=1.0)
        grad_fn = ref.per_worker(lambda i, x, s: prob.sample(i, x, s).grad)
        W = ring(4)
        hp = HyperParams(eta=0.05, beta=0.9, tau=3,
                         slowmo_alpha=1.0, slowmo_beta=0.0)
        S = StackedState.init(np.zeros(4), 4)
        stacked_slowmo_round(S, W, hp, "dsgdm", grad_fn, step0=0)

        # reference: replay the inner steps and average
        R = StackedState.init(np.zeros(4), 4)
        inner_hp = dataclasses.replace(hp, tau=1)
        for k in range(3):
            stacked_step("dsgdm", R, W, inner_hp, k, grad_fn)
        x_tau = column_mean(R.X)
        for i in range(4):
            np.testing.assert_allclose(S.X[:, i], x_tau, atol=1e-12)

    def test_single_worker_single_step_rescales_to_descent(self):
        # tau = 1, one worker, no slow momentum: each round is one descent
        # step with effective step size alpha * eta
        grad_fn = ref.per_worker(lambda i, x, s: x - np.array([4.0]))
        hp = HyperParams(eta=0.05, beta=0.0, tau=1,
                         slowmo_alpha=2.0, slowmo_beta=0.0)
        S = single([0.0])
        x = np.array([0.0])
        for r in range(10):
            stacked_slowmo_round(S, W1, hp, "dsgd", grad_fn, step0=r)
            x = x - 2.0 * 0.05 * (x - 4.0)
            np.testing.assert_allclose(S.X[:, 0], x, atol=1e-12)

    def test_round_losses_decrease_monotonically(self):
        # small inner step keeps the two-term slow recursion overdamped
        # (real eigenvalues), so the averaged loss decays without ringing
        prob = quadratic_family(dim=6, n_workers=4, zeta_c=1.0, b_scale=1.5)
        grad_fn = ref.per_worker(lambda i, x, s: prob.sample(i, x, s).grad)
        W = ring(4)
        hp = HyperParams(eta=0.002, beta=0.9, tau=12,
                         slowmo_alpha=1.0, slowmo_beta=0.7)
        S = StackedState.init(np.zeros(6), 4)
        losses = []
        step = 0
        for _ in range(12):
            stacked_slowmo_round(S, W, hp, "dsgd", grad_fn, step0=step)
            step += hp.tau
            losses.append(prob.mean_loss(column_mean(S.X)))
        assert all(b < a for a, b in zip(losses[1:], losses[2:]))

    def test_slow_momentum_accumulates(self):
        grad_fn = ref.per_worker(lambda i, x, s: x - 1.0)
        hp = HyperParams(eta=0.25, beta=0.0, tau=1,
                         slowmo_alpha=1.0, slowmo_beta=0.5)
        S = single([0.0])
        stacked_slowmo_round(S, W1, hp, "dsgd", grad_fn, step0=0)
        m1 = S.slow_m.copy()
        x0 = S.X[:, 0].copy()  # the second round's anchor
        stacked_slowmo_round(S, W1, hp, "dsgd", grad_fn, step0=1)
        # second round's buffer blends the decayed first with the new drift
        drift2 = (x0 - (x0 - 0.25 * (x0 - 1.0))) / 0.25
        np.testing.assert_allclose(S.slow_m, 0.5 * m1 + drift2, atol=1e-12)


class AlternatingSchedule:
    """A test-local time-varying mixing: ring-4 at even steps, complete-4 at
    odd ones.  It answers only ``n`` and ``at(t)``."""

    n = 4

    def __init__(self):
        self.steps = (ring(4), complete(4))

    def at(self, t):
        return self.steps[t % 2]


class TestAnySchedule:
    # any object with n and at(t) drives the core, with no dispatch on its
    # type: each result is the hand-written sequence of stacked_dsgd_step
    # calls on that step's matrices

    def test_qg_consensus_mixes_with_each_steps_matrix(self):
        schedule = AlternatingSchedule()
        X0 = np.random.default_rng(5).standard_normal((3, 4))
        got = qg_consensus(X0, schedule, beta=0.9, mu=0.8, T=5)

        S = StackedState.from_matrix(X0)
        hp = HyperParams(eta=1.0, beta=0.9, mu=0.8)
        trace = [consensus_distance(S.X)]
        for t in range(5):
            stacked_dsgd_step("qg_dsgdm", S, None, schedule.steps[t % 2], hp)
            trace.append(consensus_distance(S.X))
        assert got.x_final.tobytes() == S.X.tobytes()
        assert got.trace.tobytes() == np.array(trace).tobytes()

    def test_slowmo_round_mixes_with_each_steps_matrix(self):
        schedule = AlternatingSchedule()
        rng = np.random.default_rng(6)
        X0, B = rng.standard_normal((2, 3, 4))
        grad_fn = lambda P, t: (1.0 + 0.25 * t) * P - B
        hp = HyperParams(eta=0.1, beta=0.9, mu=0.7, tau=3, slowmo_beta=0.5)
        S = StackedState.from_matrix(X0)
        stacked_slowmo_round(S, schedule, hp, "qg_dsgdm", grad_fn, step0=1)

        R = StackedState.from_matrix(X0)
        x0 = R.X[:, 0].copy()
        for t in range(1, 4):
            stacked_dsgd_step("qg_dsgdm", R, grad_fn(R.X, t), schedule.steps[t % 2], hp)
        slow_m = hp.slowmo_beta * np.zeros_like(x0) + (x0 - column_mean(R.X)) / hp.eta
        x_new = x0 - hp.slowmo_alpha * hp.eta * slow_m
        assert S.slow_m.tobytes() == slow_m.tobytes()
        assert S.M_hat.tobytes() == R.M_hat.tobytes()
        assert S.X.tobytes() == np.repeat(x_new[:, None], 4, axis=1).tobytes()


class TestMimelite:
    def test_zero_momentum_single_local_step_is_parallel_descent(self):
        prob = quadratic_family(dim=4, n_workers=3, zeta_c=1.0)
        hp = HyperParams(eta=0.1, beta=0.0, tau=1)
        x0 = np.ones(4)
        local = ref.per_worker(lambda i, y, s: prob.sample(i, y, s).grad)
        full = lambda i, x: prob.sample_mean_part(i, x)
        S = StackedState.init(x0, 3)
        stacked_mimelite_round(S, hp, local, ref.per_worker(full), step0=0)
        grads = [prob.sample(i, x0, 0).grad for i in range(3)]
        for i in range(3):
            np.testing.assert_allclose(S.X[:, i], x0 - 0.1 * np.mean(grads, axis=0),
                                       atol=1e-14)
        np.testing.assert_allclose(S.server_s, np.mean([full(i, x0) for i in range(3)],
                                                       axis=0), atol=1e-14)

    def test_first_round_server_momentum(self):
        prob = quadratic_family(dim=4, n_workers=3, zeta_c=1.0)
        hp = HyperParams(eta=0.1, beta=0.9, tau=2)
        x0 = np.ones(4)
        local = ref.per_worker(lambda i, y, s: prob.sample(i, y, s).grad)
        full = lambda i, x: prob.sample_mean_part(i, x)
        S = StackedState.init(x0, 3)
        stacked_mimelite_round(S, hp, local, ref.per_worker(full), step0=0)
        expected = 0.1 * np.mean([full(i, x0) for i in range(3)], axis=0)
        np.testing.assert_allclose(S.server_s, expected, rtol=1e-14)

    def test_rounds_drive_loss_down(self):
        prob = quadratic_family(dim=6, n_workers=4, zeta_c=1.0, b_scale=1.5)
        hp = HyperParams(eta=0.1, beta=0.9, tau=5)
        local = ref.per_worker(lambda i, y, s: prob.sample(i, y, s).grad)
        full = lambda i, x: prob.sample_mean_part(i, x)
        S = StackedState.init(np.zeros(6), 4)
        first = prob.mean_loss(S.X[:, 0])
        step = 0
        for _ in range(20):
            stacked_mimelite_round(S, hp, local, ref.per_worker(full), step0=step)
            step += hp.tau
        assert first / prob.mean_loss(S.X[:, 0]) >= 10.0
