"""Tests for the gradient-free consensus recursions.

Independent references: the root-mean-square definition expanded by hand,
the eigendecomposition contraction rate of a ring, and the finite products
of the time-varying pairing matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgm_sim.consensus import (
    ConsensusRun,
    consensus_distance,
    gossip_consensus,
    iterations_to_threshold,
    qg_consensus,
)
from qgm_sim.topology import MixingMatrix, OnePeerExponential, build_graph, mixing_matrix


def ring(n):
    return mixing_matrix(build_graph("ring", n))


def gaussian(d, n, seed):
    return np.random.default_rng(seed).standard_normal((d, n))


class TestConsensusDistance:
    def test_equal_columns_have_zero_distance(self):
        X = np.tile(np.array([[1.5], [-2.0]]), (1, 5))
        assert consensus_distance(X) == 0.0

    def test_two_scalar_workers(self):
        assert consensus_distance(np.array([[0.0, 2.0]])) == pytest.approx(1.0)

    def test_matches_frobenius_identity(self):
        X = gaussian(6, 9, seed=3)
        xbar = X.mean(axis=1)
        by_definition = np.sqrt(
            np.mean([np.sum((X[:, i] - xbar) ** 2) for i in range(9)]))
        frobenius = np.linalg.norm(X - xbar[:, None]) / np.sqrt(9)
        assert consensus_distance(X) == pytest.approx(by_definition, rel=1e-12)
        assert consensus_distance(X) == pytest.approx(frobenius, rel=1e-12)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="d x n"):
            consensus_distance(np.zeros(4))


class TestGossipConsensus:
    def test_trace_shape_and_start(self):
        X0 = gaussian(4, 8, seed=0)
        run = gossip_consensus(X0, ring(8), T=25)
        assert len(run.trace) == 26
        assert run.trace[0] == pytest.approx(consensus_distance(X0))
        assert len(run.mean_drift) == 26
        assert run.mean_drift[0] == 0.0

    def test_zero_iterations_allowed(self):
        X0 = gaussian(3, 4, seed=1)
        run = gossip_consensus(X0, ring(4), T=0)
        assert len(run.trace) == 1
        assert np.array_equal(run.x_final, X0)

    def test_complete_graph_averages_in_one_step(self):
        X0 = gaussian(5, 4, seed=2)
        run = gossip_consensus(X0, mixing_matrix(build_graph("complete", 4)), T=3)
        assert run.trace[0] > 0.1
        np.testing.assert_allclose(run.trace[1:], 0.0, atol=1e-14)

    def test_identity_matrix_keeps_distance_constant(self):
        X0 = gaussian(3, 6, seed=3)
        run = gossip_consensus(X0, MixingMatrix(6, np.eye(6), 0.0), T=10)
        np.testing.assert_allclose(run.trace, run.trace[0], rtol=1e-15)

    def test_distance_non_increasing_and_vanishing(self):
        for kind, n in [("ring", 8), ("torus", 16), ("star", 6), ("complete", 5)]:
            for seed in (0, 1, 2):
                W = mixing_matrix(build_graph(kind, n))
                run = gossip_consensus(gaussian(4, n, seed), W, T=400)
                diffs = np.diff(run.trace)
                assert np.all(diffs <= 1e-12), f"{kind}-{n} seed {seed}"
                assert run.trace[-1] <= 1e-8, f"{kind}-{n} seed {seed}"

    def test_contraction_rate_approaches_second_singular_value(self):
        W = ring(16)
        sigma2 = np.sort(np.abs(np.linalg.eigvalsh(W.weights)))[-2]
        run = gossip_consensus(gaussian(4, 16, seed=7), W, T=500)
        ratios = run.trace[301:401] / run.trace[300:400]
        np.testing.assert_allclose(ratios, sigma2, atol=1e-6)
        assert np.all(ratios <= sigma2 + 1e-6)

    def test_mean_is_preserved(self):
        run = gossip_consensus(gaussian(4, 8, seed=5), ring(8), T=200)
        assert np.max(run.mean_drift) <= 1e-12

    def test_start_must_be_a_matrix(self):
        with pytest.raises(ValueError, match=r"^X0 must be a d x n matrix; got shape \(4,\)$"):
            gossip_consensus(np.ones(4), ring(4), T=1)

    @pytest.mark.parametrize("mixing", [ring(4), OnePeerExponential(4)])
    @pytest.mark.parametrize("T", [0, 3])
    def test_column_count_must_match_the_mixing(self, mixing, T):
        # checked before the first round, so T=0 raises as well
        with pytest.raises(ValueError, match="state count 5 does not match mixing matrix size 4"):
            gossip_consensus(np.ones((3, 5)), mixing, T=T)

    def test_time_varying_pairing_sequence_finishes_in_log_n(self):
        # the exponential pairing sequence multiplies out to the exact
        # average after log2(n) rounds
        X0 = gaussian(3, 8, seed=11)
        run = gossip_consensus(X0, OnePeerExponential(8), T=3)
        assert run.trace[3] <= 1e-14
        np.testing.assert_allclose(
            run.x_final, np.tile(X0.mean(axis=1, keepdims=True), (1, 8)), atol=1e-13)


class TestQgConsensus:
    def test_beta_zero_bit_matches_gossip(self):
        X0 = gaussian(5, 8, seed=9)
        W = ring(8)
        a = gossip_consensus(X0, W, T=60)
        b = qg_consensus(X0, W, beta=0.0, mu=0.9, T=60)
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.x_final, b.x_final)

    def test_complete_graph_zero_from_first_step(self):
        X0 = gaussian(4, 4, seed=13)
        run = qg_consensus(X0, mixing_matrix(build_graph("complete", 4)),
                           beta=0.9, mu=0.9, T=10)
        assert run.trace[0] > 0.1
        np.testing.assert_allclose(run.trace[1:], 0.0, atol=1e-13)

    def test_faster_than_gossip_on_sparse_ring(self):
        X0 = gaussian(8, 16, seed=7)
        W = ring(16)
        plain = gossip_consensus(X0, W, T=2000)
        buffered = qg_consensus(X0, W, beta=0.9, mu=0.9, T=2000)
        assert (iterations_to_threshold(buffered, 1e-2)
                < iterations_to_threshold(plain, 1e-2))

    def test_mean_drift_recorded(self):
        # the drift channel is telemetry: with a doubly stochastic mixing
        # matrix and a zero-initialized buffer the column mean is an exact
        # invariant of the recursion, so only rounding noise shows up here
        run = qg_consensus(gaussian(4, 8, seed=3), ring(8), beta=0.9, mu=0.9, T=100)
        assert run.mean_drift[0] == 0.0
        assert np.all(np.isfinite(run.mean_drift))
        assert np.max(run.mean_drift) <= 1e-10

    def test_rejects_out_of_range_momentum(self):
        X0 = gaussian(2, 4, seed=0)
        with pytest.raises(ValueError, match="beta"):
            qg_consensus(X0, ring(4), beta=1.0, mu=0.5, T=5)
        with pytest.raises(ValueError, match="mu"):
            qg_consensus(X0, ring(4), beta=0.5, mu=-0.1, T=5)


class TestIterationsToThreshold:
    def test_first_hit_index(self):
        assert iterations_to_threshold(np.array([1.0, 0.5, 0.009, 0.001]), 1e-2) == 2

    def test_initial_hit_is_zero(self):
        assert iterations_to_threshold(np.array([0.0, 0.0]), 1e-2) == 0

    def test_accepts_run_object(self):
        run = gossip_consensus(gaussian(3, 8, seed=1), ring(8), T=600)
        k = iterations_to_threshold(run, 1e-2)
        assert run.trace[k] <= 1e-2
        assert np.all(run.trace[:k] > 1e-2)

    def test_raises_when_never_reached(self):
        run = gossip_consensus(gaussian(3, 6, seed=1),
                               MixingMatrix(6, np.eye(6), 0.0), T=10)
        with pytest.raises(ValueError, match="never reached"):
            iterations_to_threshold(run, 1e-6)

    def test_trace_is_read_only(self):
        run = gossip_consensus(gaussian(3, 6, seed=1), ring(6), T=5)
        assert isinstance(run, ConsensusRun)
        with pytest.raises(ValueError):
            run.trace[0] = 99.0

    @pytest.mark.parametrize("name", ["trace", "mean_drift"])
    @pytest.mark.parametrize("length", [3, 5])
    def test_a_trace_not_of_length_T_plus_1_is_refused(self, name, length):
        arrays = {"trace": np.zeros(4), "mean_drift": np.zeros(4), name: np.zeros(length)}
        with pytest.raises(ValueError, match=rf"^{name} must have length T\+1 = 4; "
                                             rf"got {length}$"):
            ConsensusRun(iterations=3, x_final=np.zeros((2, 2)), **arrays)


@given(d=st.integers(1, 40), n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e160, 1e-170]))
@settings(max_examples=80, deadline=None)
def test_distance_from_a_given_mean_matches_the_distance_alone(d, n, seed, scale):
    # an offset makes the mean's rounding show in the distance, so a mean
    # summed in another order gives other bits in about one case in five
    X = (gaussian(d, n, seed) + 3.0) * scale
    x_bar = X.mean(axis=1)
    with np.errstate(over="ignore"):  # squares past 1e308 are inf both ways
        got, alone = consensus_distance(X, x_bar), consensus_distance(X)
    assert np.float64(got).tobytes() == np.float64(alone).tobytes()
