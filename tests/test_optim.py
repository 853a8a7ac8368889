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
from qgm_sim.oracles import quadratic_family, rosenbrock_gradient
from qgm_sim.optim import (
    HALF_STEP_KINDS,
    HyperParams,
    StackedState,
    _half_step,
    column_mean,
    mix,
    qg_multistep_gate,
    qhm_core,
    stacked_dsgd_step,
    stacked_gt_init,
    stacked_mimelite_round,
    stacked_slowmo_round,
    stacked_step,
)
from qgm_sim.topology import build_graph, mixing_matrix


def ring(n):
    return mixing_matrix(build_graph("ring", n))


def complete(n):
    return mixing_matrix(build_graph("complete", n))


W1 = np.array([[1.0]])


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

class TestLocalHalfStep:
    def setup_method(self):
        self.hp = HyperParams(eta=0.1, beta=0.9)
        self.S = single([1.0])
        self.g = np.array([[0.5]])

    def test_plain_descent_substitution(self):
        X = _half_step("dsgd", self.S, self.g, self.hp)
        assert X[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_heavy_ball_first_step_equals_descent(self):
        X = _half_step("dsgdm", self.S, self.g, self.hp)
        assert self.S.M_local[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert X[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_nesterov_first_step_applies_buffer_twice(self):
        X = _half_step("dsgdm_n", self.S, self.g, self.hp)
        # m = g, then x - eta (beta m + g) = x - eta (1 + beta) g
        assert self.S.M_local[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert X[0, 0] == pytest.approx(1.0 - 0.1 * 1.9 * 0.5, abs=1e-15)

    def test_quasi_global_first_step_equals_descent(self):
        X = _half_step("qg_dsgdm", self.S, self.g, self.hp)
        assert X[0, 0] == pytest.approx(0.95, abs=1e-15)
        # the buffer is read, never written, by the half step
        assert self.S.M_hat[0, 0] == 0.0

    def test_quasi_global_nesterov_first_step(self):
        X = _half_step("qg_dsgdm_n", self.S, self.g, self.hp)
        assert X[0, 0] == pytest.approx(1.0 - 0.1 * 1.9 * 0.5, abs=1e-15)

    def test_quasi_global_reads_buffer(self):
        self.S.M_hat = m_hat = np.array([[2.0]])
        X = _half_step("qg_dsgdm", self.S, self.g, self.hp)
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
        assert np.array_equal(mix(X, np.eye(1)), X)

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

    def test_gate_every_fourth_step(self):
        assert [qg_multistep_gate(k, 4) for k in range(1, 9)] == [
            False, False, False, True, False, False, False, True]

    def test_gate_tau_one_always_fires(self):
        assert all(qg_multistep_gate(k, 1) for k in range(1, 20))

    def test_gate_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            qg_multistep_gate(3, 0)

    @given(step=st.integers(min_value=1, max_value=1000),
           tau=st.integers(min_value=1, max_value=50))
    def test_gate_matches_modulus(self, step, tau):
        assert qg_multistep_gate(step, tau) == (step % tau == 0)


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
        x, m = np.array([1.0]), np.array([5.0])
        x_new, m_new = qhm_core(x, m, np.array([0.5]), 0.1, 0.0, 0.0)
        assert x_new[0] == pytest.approx(0.95, abs=1e-15)
        assert m_new[0] == 0.5

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
            x, m = qhm_core(x, m, gb, eta * (1 + beta), beta_hat, mu)
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
        stacked_gt_init(a, rosenbrock_fn)
        x = np.zeros(2)
        for t in range(1, 51):
            stacked_step("gt", a, W1, hp, t, rosenbrock_fn)
            x = x - hp.eta * rosenbrock_gradient(x).grad
            np.testing.assert_allclose(a.X[:, 0], x, atol=1e-12)

    def test_single_worker_momentum_matches_double_application(self):
        hp = HyperParams(eta=0.001, beta=0.9)
        a = single([0.0, 0.0])
        stacked_gt_init(a, rosenbrock_fn)
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
        stacked_gt_init(S, grad_fn)
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
        stacked_gt_init(tracked, grad_fn)
        plain = StackedState.init(np.zeros(8), 4)
        for t in range(300):
            stacked_step("gt", tracked, W, hp, t + 1, grad_fn)
            stacked_step("dsgd", plain, W, hp, t, grad_fn)

        err_tracked = max(np.linalg.norm(tracked.X[:, i] - prob.x_star) for i in range(4))
        err_plain = max(np.linalg.norm(plain.X[:, i] - prob.x_star) for i in range(4))
        assert err_tracked <= 1e-6
        assert err_plain > 1e-3

    def test_requires_initialization(self):
        with pytest.raises(ValueError, match="gt_init"):
            stacked_step("gt", single([0.0]), W1, HyperParams(eta=0.1), 1,
                         ref.per_worker(lambda i, x, s: np.zeros(1)))


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
        np.testing.assert_allclose(S.slow_x, np.zeros(4), atol=0)

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
        stacked_slowmo_round(S, W1, hp, "dsgd", grad_fn, step0=1)
        # second round's buffer blends the decayed first with the new drift
        drift2 = (S.slow_x - (S.slow_x - 0.25 * (S.slow_x - 1.0))) / 0.25
        np.testing.assert_allclose(S.slow_m, 0.5 * m1 + drift2, atol=1e-12)


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
