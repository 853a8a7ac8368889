"""Tests for graph construction, mixing matrices, and spectral gaps."""

import hashlib
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_loops as ref
from qgm_sim import topology
from qgm_sim.topology import (
    DAVIS_SOUTHERN_WOMEN_EDGES,
    MIXING_SCHEMES,
    Graph,
    MixingMatrix,
    OnePeerExponential,
    build_graph,
    mixing_for,
    mixing_matrix,
    spectral_gap,
)


def _consensus_residual(Z):
    return Z - Z.mean(axis=1, keepdims=True)


def _svd_gap(W):
    """Reference spectral gap from the SVD of ``A = W - J/n``, with the clamp
    to 0 that spectral_gap applies; valid for any doubly stochastic W.

    ``sigma_2^2`` is taken as ``||A v||^2`` for the SVD's top right singular
    vector ``v``, summed in long double: it errs by about the square of
    ``v``'s error, whereas the SVD's own ``sigma_2`` is off by 1e-14 on the
    star graph n=255, whose top singular value is 253-fold."""
    n = W.shape[0]
    if n == 1:
        return 1.0
    A = W - np.full((n, n), 1.0 / n)
    v = np.linalg.svd(A)[2][0].astype(np.longdouble)
    Av = A.astype(np.longdouble) @ v
    rho = max(0.0, 1.0 - float((Av @ Av) / (v @ v)))
    return 0.0 if rho <= 1e-12 else rho


def _random_graph(n, seed, p):
    """A random spanning tree on ``n`` nodes plus each other pair with
    probability ``p``."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = {tuple(sorted((int(order[i]), int(order[rng.integers(i)]))))
             for i in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph("random", n, frozenset(edges))


class TestGraphConstruction:
    def test_ring_edges(self):
        g = build_graph("ring", 5)
        assert g.edges.tolist() == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]
        assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
        assert list(g.degrees()) == [2] * 5

    def test_ring_degenerate_sizes(self):
        assert build_graph("ring", 1).edges.shape == (0, 2)
        assert build_graph("ring", 2).edges.tolist() == [[0, 1]]

    def test_torus_4x4_degrees(self):
        """Every node of a 4x4 periodic grid has 4 distinct neighbors."""
        g = build_graph("torus", 16)
        assert g.params == {"rows": 4, "cols": 4}
        assert list(g.degrees()) == [4] * 16
        assert len(g.edges) == 32  # 16 nodes * 4 / 2

    def test_torus_rows_override_and_collapsed_wraparound(self):
        g = build_graph("torus", 8, rows=2)
        assert g.params == {"rows": 2, "cols": 4}
        # with only two rows the up/down wraparound neighbors coincide,
        # so degree is 3, not 4
        assert list(g.degrees()) == [3] * 8

    def test_torus_most_square_default(self):
        assert build_graph("torus", 12).params == {"rows": 3, "cols": 4}
        assert build_graph("torus", 100).params == {"rows": 10, "cols": 10}

    def test_torus_rejects_prime_n(self):
        with pytest.raises(ValueError, match="rows"):
            build_graph("torus", 7)

    @pytest.mark.parametrize("rows", [0, -2, 1, 3, 16])
    def test_torus_rejects_rows_that_make_no_grid(self, rows):
        # rows = 0 is refused before anything divides by it
        with pytest.raises(ValueError, match=r"^torus requires n = rows x cols with rows >= 2 "
                                             rf"and cols >= 2; got n=16, rows={rows}$"):
            build_graph("torus", 16, rows=rows)

    def test_star_structure(self):
        g = build_graph("star", 5)
        assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [0, 4]]
        assert list(g.degrees()) == [4, 1, 1, 1, 1]
        for node, peers in ((0, [1, 2, 3, 4]), (3, [0])):
            assert sorted(v if u == node else u for u, v in g.edges if node in (u, v)) == peers

    def test_complete_edge_count(self):
        g = build_graph("complete", 8)
        assert len(g.edges) == 8 * 7 // 2
        assert list(g.degrees()) == [7] * 8

    def test_social_graph_shape(self):
        """32-node affiliation network: 18 + 14 bipartition, 89 edges."""
        g = build_graph("social", 32)
        assert g.n == 32
        assert len(g.edges) == 89
        # bipartite: every edge joins a node < 18 to a node >= 18
        assert all(u < 18 <= v for u, v in g.edges)
        deg = g.degrees()
        assert deg.min() == 2 and deg.max() == 14

    def test_social_fixed_size(self):
        with pytest.raises(ValueError, match="32"):
            build_graph("social", 16)

    def test_one_peer_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            mixing_for("one_peer_exponential", 6)
        assert mixing_for("one_peer_exponential", 8) == OnePeerExponential(8)

    def test_rejects_unknown_kind_and_stray_params(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            build_graph("hypercube", 8)
        with pytest.raises(ValueError, match="unexpected parameters"):
            build_graph("ring", 8, rows=2)

    def test_a_pair_in_both_orientations_is_one_edge(self):
        both = Graph("x", 3, frozenset({(0, 1), (1, 0), (1, 2)}))
        once = Graph("x", 3, frozenset({(0, 1), (1, 2)}))
        assert both.edges.tolist() == once.edges.tolist() == [[0, 1], [1, 2]]
        assert both.degrees().tolist() == [1, 2, 1]
        assert (mixing_matrix(both).weights.tobytes()
                == mixing_matrix(once).weights.tobytes())

    def test_edges_given_as_an_array_or_pairs_are_the_same(self):
        pairs = [(3, 1), (0, 2), (1, 0)]
        assert (Graph("x", 4, np.array(pairs)).edges.tolist()
                == Graph("x", 4, iter(pairs)).edges.tolist() == [[0, 1], [0, 2], [1, 3]])

    @pytest.mark.parametrize("n,edges,message", [
        (0, (), r"graph size must satisfy n >= 1; got n=0"),
        (3, [(0, 1), (2, 2)],
         r"graph edges must join two distinct nodes; got a self-loop at node 2"),
        (3, [(0, 1), (1, 3)], r"graph edges must join nodes in 0 \.\. n-1 = 0 \.\. 2; got node 3"),
        (3, [(-1, 1)], r"graph edges must join nodes in 0 \.\. n-1 = 0 \.\. 2; got node -1"),
        (3, [(0, 1, 2)], r"graph edges must be \(u, v\) pairs; got shape \(1, 3\)"),
    ], ids=["n0", "self_loop", "node_past_n", "negative_node", "not_pairs"])
    def test_graph_refuses_what_is_no_graph_on_n_nodes(self, n, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph("x", n, edges)


class TestMixingMatrix:
    def test_ring3_metropolis_is_uniform_third(self):
        """Ring of 3 = triangle: all degrees 2, so every edge weight is
        1/(1+2) = 1/3 and the diagonal is also 1/3."""
        W = mixing_matrix(build_graph("ring", 3)).weights
        np.testing.assert_allclose(W, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_complete4_uniform_neighbor_is_quarter(self):
        W = mixing_matrix(build_graph("complete", 4), "uniform_neighbor").weights
        np.testing.assert_allclose(W, np.full((4, 4), 0.25), atol=1e-15)

    def test_uniform_neighbor_rejects_irregular_graph(self):
        with pytest.raises(ValueError, match="regular"):
            mixing_matrix(build_graph("star", 5), "uniform_neighbor")

    def test_star_metropolis_weights(self):
        """Star on 5 nodes: hub degree 4, leaves degree 1.  Every edge gets
        1/(1+max(4,1)) = 1/5; hub keeps 1 - 4/5 = 1/5, leaves keep 4/5."""
        W = mixing_matrix(build_graph("star", 5)).weights
        np.testing.assert_allclose(W[0], [0.2, 0.2, 0.2, 0.2, 0.2], atol=1e-15)
        np.testing.assert_allclose(np.diag(W), [0.2, 0.8, 0.8, 0.8, 0.8], atol=1e-15)

    def test_time_varying_graph_rejected(self):
        with pytest.raises(ValueError, match=r"^one_peer_exponential pairs workers anew at "
                                             r"every step and has no graph"):
            build_graph("one_peer_exponential", 8)

    def test_mixing_for_gives_the_schedule_or_the_static_matrix(self):
        assert mixing_for("one_peer_exponential", 8, "uniform_neighbor") == OnePeerExponential(8)
        got = mixing_for("torus", 8, "uniform_neighbor", rows=2)
        want = mixing_matrix(build_graph("torus", 8, rows=2), "uniform_neighbor")
        assert got.weights.tobytes() == want.weights.tobytes() and got.rho == want.rho

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown mixing scheme"):
            mixing_matrix(build_graph("ring", 4), "laplacian")

    @given(
        kind=st.sampled_from(["ring", "complete", "star", "torus"]),
        n=st.integers(min_value=4, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_doubly_stochastic_symmetric_supported(self, kind, n):
        """Invariants for every static topology and size: rows and columns
        sum to 1, entries are nonnegative, W is symmetric, and off-diagonal
        support is exactly the edge set."""
        if kind == "torus":
            try:
                g = build_graph(kind, n)
            except ValueError:
                return  # primes have no rows x cols factorization
        else:
            g = build_graph(kind, n)
        W = mixing_matrix(g).weights
        np.testing.assert_allclose(W.sum(axis=0), np.ones(n), atol=1e-12)
        np.testing.assert_allclose(W.sum(axis=1), np.ones(n), atol=1e-12)
        assert W.min() >= -1e-15
        np.testing.assert_allclose(W, W.T, atol=1e-15)
        assert np.array_equal(np.argwhere(np.triu(W, 1)), g.edges)

    @pytest.mark.parametrize("shape", [(6, 6), (4, 6), (4,), (1, 4, 4)])
    def test_weights_must_be_n_by_n(self, shape):
        # mix reads the worker count from n and trusts the weights to match
        with pytest.raises(ValueError, match=r"n=4 workers needs weights of shape \(4, 4\)"):
            MixingMatrix(4, np.full(shape, 0.25), 0.0)

    def test_weights_are_kept_not_copied(self):
        weights = np.full((4, 4), 0.25)
        W = MixingMatrix(4, weights, 1.0)
        assert W.weights is weights and W.at(3) is W

    def test_mixing_weights_are_read_only(self):
        W = mixing_matrix(build_graph("ring", 4))
        with pytest.raises(ValueError):
            W.weights[0, 0] = 0.5

    @pytest.mark.parametrize("W,message", [
        (np.full((2, 3), 0.5), r"must be square; got shape \(2, 3\)"),
        (np.array([[1.5, -0.5], [-0.5, 1.5]]), r"must be nonnegative \(min entry -5\.000e-01\)"),
        (np.array([[0.5, 0.25], [0.25, 0.5]]),
         r"must be doubly stochastic \(row-sum error 2\.500e-01, column-sum error 2\.500e-01\)"),
    ], ids=["non_square", "negative", "not_stochastic"])
    def test_validation_names_what_is_wrong(self, W, message):
        with pytest.raises(ValueError, match=rf"^ctx: mixing (matrix|weights) {message}"):
            topology._validate_doubly_stochastic(W, "ctx")

    def test_self_loop_edge_rejected(self):
        # a loop would count twice in its node's degree and put its weight
        # on the diagonal, so the graph refuses it when it is built
        with pytest.raises(ValueError, match="^graph edges must join two distinct nodes; "
                                             "got a self-loop at node 1$"):
            Graph("looped", 3, frozenset({(0, 1), (1, 2), (0, 2), (1, 1)}))


def _assert_per_edge_bits(graph):
    """``graph``'s degrees and both schemes' weights equal the per-edge
    loops' bit for bit; a scheme the loops refuse, ``mixing_matrix``
    refuses too."""
    deg = graph.degrees()
    assert deg.dtype == np.int64 and deg.tobytes() == ref.degrees(graph).tobytes()
    for scheme in MIXING_SCHEMES:
        try:
            want = ref.mixing_weights(graph, scheme)
        except ValueError:
            with pytest.raises(ValueError, match="regular graph"):
                mixing_matrix(graph, scheme)
            continue
        assert mixing_matrix(graph, scheme).weights.tobytes() == want.tobytes(), scheme


class TestPerEdgeReference:
    """The array weights against the per-edge loops they replaced."""

    @pytest.mark.parametrize("kind,n,params", [
        ("ring", 1, {}), ("ring", 2, {}), ("ring", 3, {}), ("ring", 1024, {}),
        ("torus", 4, {}), ("torus", 8, {"rows": 2}), ("torus", 8, {"rows": 4}),
        ("torus", 12, {"rows": 3}), ("torus", 12, {"rows": 6}), ("torus", 100, {}),
        ("torus", 256, {"rows": 2}), ("star", 1, {}), ("star", 2, {}), ("star", 33, {}),
        ("social", 32, {}), ("complete", 1, {}), ("complete", 2, {}), ("complete", 256, {})])
    def test_every_kind_keeps_the_per_edge_bits(self, kind, n, params):
        _assert_per_edge_bits(build_graph(kind, n, **params))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["ring", "torus", "complete", "star"]), n=st.integers(1, 256))
    def test_any_size_keeps_the_per_edge_bits(self, kind, n):
        try:  # a torus needs a grid factorization
            graph = build_graph(kind, n)
        except ValueError:
            assume(False)
        _assert_per_edge_bits(graph)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
    def test_random_graphs_keep_the_per_edge_bits(self, n, seed, p):
        _assert_per_edge_bits(_random_graph(n, seed, p))


# SHA-256 of ``weights.tobytes()``, frozen before the graph became its edge
# array.  A regular graph's weights are the same bytes under both schemes;
# star and social are irregular, and uniform_neighbor refuses them.
WEIGHT_PINS = {
    ("ring", 4, None): "30c66ce1d9bb5d68e995fa549f248c7b636385f23ade748d116ac8b2710f3d7e",
    ("ring", 16, None): "12eac83372477cf5e6dc5a2dfc4c698f4351eb6b6cb51512959aaba9362431b3",
    ("ring", 64, None): "babd35f6874ede662886d5a924993e5bb0c79960e639952e178f631d84baaf14",
    ("ring", 1024, None): "1fbe83e73469885a284c70615d34b4e3005009dda023cf9cb74f4b6808b9ea47",
    ("torus", 16, None): "57085081d16a5a8bddbc53d6af51849b81824d625fb44f07ffd3ec3beaba8755",
    ("torus", 16, 2): "3f8a3d20044cafa0a27424f0c2109690cd94b785c61a93e34e5f1efe70cb5a93",
    ("torus", 100, None): "154f65f83efc7032548afee96ba3b66e14313b0ecb55bbda6ff26a1d2a0c908b",
    ("torus", 100, 2): "3eb1c10605b198c0436bed92e99c787fc3ea481dfebbfe68c52a358f15a7d267",
    ("star", 33, None): "f73045c8e5b81db1165fe621ab70ec8b06add3fa40c9d021def7ce0f2e450979",
    ("social", 32, None): "07967fc29812a6ad6db3efd3de4536cf60fd6ced523e2858c2f89cf41fa4dcf8",
    ("complete", 2, None): "5e5c794534608bdcc5f3c19fd8d94ad66ab3aedaeb79694b00adab9d1df8e25f",
    ("complete", 256, None): "9d4ade33b4e77e27774a7dc23246a646ee2640a796a540ca14810e688581f668",
    ("complete", 1024, None): "988167d99f739e44a10ea3c0b2ea04d1982d47280c277672b30475d7c4815544",
}


@pytest.mark.parametrize("scheme", MIXING_SCHEMES)
@pytest.mark.parametrize("kind,n,rows", list(WEIGHT_PINS))
def test_weights_keep_their_pinned_bytes(kind, n, rows, scheme):
    if scheme == "uniform_neighbor" and kind in ("star", "social"):
        with pytest.raises(ValueError, match="regular graph"):
            mixing_for(kind, n, scheme, rows)
        return
    weights = mixing_for(kind, n, scheme, rows).weights
    assert hashlib.sha256(weights.tobytes()).hexdigest() == WEIGHT_PINS[kind, n, rows]


class TestSpectralGap:
    def test_ring16_matches_circulant_eigenvalue(self):
        """MH weights on a ring are the circulant [1/3, 1/3, 0, ..., 0, 1/3]
        whose eigenvalues are (1 + 2 cos(2 pi k / 16)) / 3.  The second
        largest in magnitude is (1 + 2 cos(pi/8)) / 3, computed
        independently of the eigensolver route used by spectral_gap."""
        sigma2 = (1 + 2 * math.cos(math.pi / 8)) / 3
        expected = 1 - sigma2**2  # 0.0989187008424176
        got = mixing_matrix(build_graph("ring", 16)).rho
        assert got == pytest.approx(expected, abs=1e-12)

    def test_ring5_matches_circulant_eigenvalue(self):
        sigma2 = max(abs(1 + 2 * math.cos(2 * math.pi * k / 5)) / 3 for k in (1, 2))
        got = mixing_matrix(build_graph("ring", 5)).rho
        assert got == pytest.approx(1 - sigma2**2, abs=1e-12)
        assert got == pytest.approx(0.709107334583345, abs=1e-12)

    def test_torus16_gap_is_exactly_rational(self):
        """4x4 torus with MH weights: W = (I + A)/5 where A is the adjacency
        of C4 x C4, whose eigenvalues are 2cos(pi a/2) + 2cos(pi b/2).  The
        second-largest |eigenvalue| of W is (1 + 2 - 2)/5 ... = 3/5, giving
        rho = 1 - 9/25 = 0.64 exactly."""
        assert mixing_matrix(build_graph("torus", 16)).rho == pytest.approx(0.64, abs=1e-12)

    def test_social_gap_frozen_value(self):
        """Frozen from an independent dense-SVD evaluation of the fixed
        32-node matrix."""
        got = mixing_matrix(build_graph("social", 32)).rho
        assert got == pytest.approx(0.15745500546487412, abs=1e-12)

    def test_complete_graph_averages_in_one_round(self):
        assert mixing_matrix(build_graph("complete", 6)).rho == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_ring_matches_circulant_eigenvalue_to_1e_14(self, n):
        expected = 1 - ((1 + 2 * math.cos(2 * math.pi / n)) / 3) ** 2
        assert abs(mixing_matrix(build_graph("ring", n)).rho - expected) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
           p=st.floats(0.0, 1.0))
    def test_random_connected_graph_matches_svd(self, n, seed, p):
        W = mixing_matrix(_random_graph(n, seed, p))
        assert abs(W.rho - _svd_gap(W.weights)) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["ring", "torus", "complete", "star", "social"]),
           n=st.integers(1, 256),
           scheme=st.sampled_from(["metropolis_hastings", "uniform_neighbor"]))
    def test_every_static_kind_matches_svd(self, kind, n, scheme):
        n = 32 if kind == "social" else n
        try:  # torus needs a grid factorization, uniform weights a regular graph
            W = mixing_matrix(build_graph(kind, n), scheme=scheme)
        except ValueError:
            assume(False)
        assert abs(W.rho - _svd_gap(W.weights)) <= 1e-14

    def test_asymmetric_input_raises(self):
        W = mixing_matrix(build_graph("ring", 8)).weights.copy()
        W[0, 1] = np.nextafter(W[0, 1], 1.0)  # one ulp off symmetric
        for bad in (W, ref.one_peer_exponential_matrix(8, 0).weights, np.full((2, 3), 0.5),
                    np.ones(3)):
            with pytest.raises(ValueError, match="transpose"):
                spectral_gap(bad)

    def test_identity_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="spectral gap 0"):
            assert spectral_gap(np.eye(4)) == 0.0

    def test_disconnected_warns(self):
        """Block-diagonal doubly stochastic matrix = two isolated cliques."""
        W = np.zeros((4, 4))
        W[:2, :2] = 0.5
        W[2:, 2:] = 0.5
        with pytest.warns(UserWarning, match="consensus will never be reached"):
            assert spectral_gap(W) == 0.0

    def test_contraction_bound_is_tight(self):
        """One gossip round satisfies
        ||Z W^T - Zbar||_F^2 <= (1 - rho) ||Z - Zbar||_F^2  for every Z,
        with equality for Z built from the second singular vector."""
        rng = np.random.default_rng(7)
        for kind, n in [("ring", 16), ("torus", 16), ("star", 8), ("social", 32)]:
            W = mixing_matrix(build_graph(kind, n))
            for _ in range(5):
                Z = rng.normal(size=(6, n))
                before = np.linalg.norm(_consensus_residual(Z)) ** 2
                after = np.linalg.norm(_consensus_residual(Z @ W.weights.T)) ** 2
                assert after <= (1 - W.rho) * before + 1e-9 * before
            # tightness: worst case saturates the bound
            resid = W.weights - np.full((n, n), 1 / n)
            _, s, vt = np.linalg.svd(resid)
            Z = vt[0][None, :]  # top right-singular vector, orthogonal to 1
            before = np.linalg.norm(_consensus_residual(Z)) ** 2
            after = np.linalg.norm(_consensus_residual(Z @ W.weights.T)) ** 2
            assert after == pytest.approx((1 - W.rho) * before, rel=1e-9)

    def test_powers_converge_monotonically_to_average(self):
        """sigma_2(W^k) = sigma_2(W)^k, so ||W^k - J/n|| shrinks geometrically."""
        W = mixing_matrix(build_graph("ring", 8)).weights
        J = np.full((8, 8), 1 / 8)
        dists = []
        P = np.eye(8)
        for _ in range(6):
            P = P @ W
            dists.append(np.linalg.norm(P - J, 2))
        assert all(b < a for a, b in zip(dists, dists[1:]))
        # sigma_2 = (1 + sqrt(2))/3 ~ 0.805, so 150 rounds leave < 1e-12
        assert np.linalg.norm(np.linalg.matrix_power(W, 150) - J, 2) < 1e-12

    def test_permutation_invariance(self):
        """Relabeling nodes conjugates W by a permutation matrix and leaves
        the spectral gap unchanged."""
        g = build_graph("ring", 7)
        rng = np.random.default_rng(3)
        perm = rng.permutation(7)
        relabeled = Graph("ring", 7, perm[g.edges])  # pairs in either orientation
        assert mixing_matrix(relabeled).rho == pytest.approx(
            mixing_matrix(g).rho, abs=1e-12
        )


def _eigvalsh_gap(W):
    """The gap of the symmetric eigensolver route, bit for bit: what every
    matrix that is not circulant keeps."""
    n = W.shape[0]
    ev = np.linalg.eigvalsh(W - np.full((n, n), 1.0 / n))
    sigma2 = float(max(-ev[0], ev[-1]))
    rho = max(0.0, 1.0 - sigma2 * sigma2)
    return 0.0 if rho <= 1e-12 else rho


def _mp_gap(W):
    """The gap of the symmetric circulant ``W`` in 40-digit arithmetic from
    every eigenvalue ``lambda_k = sum_j W[0, j] cos(2 pi j k / n)``, k = 1
    .. n - 1, each weight as stored (the clamp to 0 is not needed here)."""
    mp = pytest.importorskip("mpmath")
    n = W.shape[0]
    with mp.workdps(40):
        c = [(j, mp.mpf(float(w))) for j, w in enumerate(W[0]) if w]
        cos = [mp.cospi(mp.mpf(2 * m) / n) for m in range(n)]
        sigma2 = max(abs(mp.fsum(w * cos[j * k % n] for j, w in c)) for k in range(1, n))
        return float(1 - sigma2 * sigma2)


def _per_pair_sigma2(row):
    """``topology._circulant_sigma2`` with one ``math.cos`` per offset and
    frequency, as it stood before it took one per residue: the bits its
    cosine table must keep."""
    n, c = len(row), row.tolist()
    offsets = [(j, cj) for j, cj in enumerate(c) if j and cj]
    sigma2 = 0.0
    for k in range(1, n // 2 + 1):
        lam = c[0]
        for j, cj in offsets:
            lam += cj * math.cos(2.0 * math.pi * (j * k % n) / n)
        sigma2 = max(sigma2, abs(lam))
    return sigma2


def _circulant_rows():
    """``(name, first row)`` of rings under both schemes and of complete
    graphs n 2-1024; past n 256 a complete graph's row is built as
    ``mixing_matrix`` builds it (1/n off the diagonal, the rest of the mass
    on it), without its ``n (n - 1) / 2`` edges."""
    for scheme in MIXING_SCHEMES:
        for n in RING_SIZES:
            yield f"ring {scheme} n={n}", mixing_matrix(build_graph("ring", n), scheme).weights[0]
    for n in [*range(2, 33), 63, 64, 65, 100, 127, 128, 255, 256]:
        yield f"complete n={n}", mixing_matrix(build_graph("complete", n)).weights[0]
    for n in (257, 511, 512, 997, 1000, 1023, 1024):
        row = np.full(n, 1.0 / n)
        row[0] = 0.0
        row[0] = 1.0 - row.sum()
        yield f"complete n={n}", row


def _circulant(c):
    """The matrix whose row ``i`` is ``c`` rotated right by ``i``."""
    return np.array([np.roll(c, i) for i in range(len(c))])


RING_SIZES = [*range(3, 33), 63, 64, 65, 127, 128, 255, 256, 511, 512, 997, 1000, 1023, 1024]


class TestCirculantGap:
    """A circulant matrix's gap comes from its first row in closed form;
    every other matrix keeps the eigensolver's bits."""

    @pytest.mark.parametrize("scheme", ["metropolis_hastings", "uniform_neighbor"])
    def test_rings_match_mpmath(self, scheme):
        worst = max(abs(mixing_matrix(build_graph("ring", n), scheme).rho
                        - _mp_gap(mixing_matrix(build_graph("ring", n), scheme).weights))
                    for n in RING_SIZES)
        assert worst <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 16, 17, 64, 100, 256])
    def test_complete_graphs_match_mpmath(self, n):
        W = mixing_matrix(build_graph("complete", n))
        assert abs(W.rho - _mp_gap(W.weights)) <= 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9])
    def test_mpmath_reference_is_the_spectrum(self, n):
        # the reference's DFT eigenvalues are the matrix's: mpmath's own
        # symmetric eigensolver on W - J/n agrees to 1e-30
        mp = pytest.importorskip("mpmath")
        W = mixing_matrix(build_graph("ring", n)).weights
        with mp.workdps(40):
            A = mp.matrix([[mp.mpf(float(w)) - mp.mpf(1) / n for w in row] for row in W])
            sigma2 = max(abs(ev) for ev in mp.eigsy(A, eigvals_only=True))
            assert abs(float(1 - sigma2 * sigma2) - _mp_gap(W)) <= 1e-30

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 64), data=st.data())
    def test_random_circulant_matches_eigvalsh(self, n, data):
        # a symmetric doubly stochastic circulant: weight c_j = c_{n-j} on
        # offset j, the rest of each row's mass on the diagonal
        c = np.zeros(n)
        for j in range(1, n // 2 + 1):
            c[j] = c[n - j] = data.draw(st.floats(0.0, 1.0))
        if c.sum() > 0.0:  # scaled after the division: 1 / a subnormal sum overflows
            c = c / c.sum() * data.draw(st.floats(0.0, 1.0))
        c[0] = 1.0 - c[1:].sum()
        W = _circulant(c)
        assert np.array_equal(W, W.T)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a matrix that does not mix
            assert abs(spectral_gap(W) - _eigvalsh_gap(W)) <= 1e-14

    def test_complete_rows_past_256_are_the_matrix_rows(self):
        rows = dict(_circulant_rows())
        assert np.array_equal(rows["complete n=512"],
                              mixing_matrix(build_graph("complete", 512)).weights[0])

    def test_cosine_table_keeps_the_per_pair_bits(self):
        for name, row in _circulant_rows():
            assert topology._circulant_sigma2(row).hex() == _per_pair_sigma2(row).hex(), name

    def test_at_most_n_cosines_per_matrix(self, monkeypatch):
        calls = []

        def cos(x):
            calls.append(x)
            return math.cos(x)

        monkeypatch.setattr(topology, "math", SimpleNamespace(cos=cos, pi=math.pi))
        for name, row in _circulant_rows():
            del calls[:]
            topology._circulant_sigma2(row)
            assert len(calls) <= len(row), name

    def test_a_ring_takes_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on a circulant matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for n in (3, 64, 1024):
            assert mixing_matrix(build_graph("ring", n)).rho > 0.0
        assert mixing_matrix(build_graph("complete", 32)).rho == 1.0

    @pytest.mark.parametrize("kind,n,params", [
        ("torus", 16, {}), ("torus", 8, {"rows": 2}), ("torus", 64, {}), ("torus", 100, {}),
        ("torus", 12, {"rows": 3}), ("torus", 256, {}), ("star", 3, {}), ("star", 8, {}),
        ("star", 40, {}), ("social", 32, {})])
    def test_other_graphs_keep_the_eigensolver_bits(self, kind, n, params):
        for scheme in MIXING_SCHEMES:
            try:  # uniform weights need a regular graph
                W = mixing_matrix(build_graph(kind, n, **params), scheme)
            except ValueError:
                continue
            assert not np.array_equal(W.weights[1:, 1:], W.weights[:-1, :-1])
            assert W.rho == _eigvalsh_gap(W.weights)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 48), seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 0.5))
    def test_random_graphs_keep_the_eigensolver_bits(self, n, seed, p):
        W = mixing_matrix(_random_graph(n, seed, p)).weights
        circulant = (np.array_equal(W[1:, 0], W[:-1, -1])
                     and np.array_equal(W[1:, 1:], W[:-1, :-1]))
        assume(not circulant)  # a relabelled ring or the complete graph
        assert spectral_gap(W) == _eigvalsh_gap(W)


class TestOnePeerExponential:
    def test_sweep_product_is_exact_average(self):
        """W_0 W_1 W_2 for n=8 averages exactly: all weights are powers of
        two, so the product equals (1/8) 1 1^T with no floating error."""
        P = np.eye(8)
        for t in range(3):
            P = P @ ref.one_peer_exponential_matrix(8, t).weights
        assert np.array_equal(P, np.full((8, 8), 1 / 8))

    def test_each_step_doubly_stochastic_two_entry_rows(self):
        for t in range(6):
            W = ref.one_peer_exponential_matrix(8, t).weights
            np.testing.assert_allclose(W.sum(axis=0), np.ones(8), atol=0)
            np.testing.assert_allclose(W.sum(axis=1), np.ones(8), atol=0)
            assert np.all(np.count_nonzero(W, axis=1) == 2)
            assert np.all(np.diag(W) == 0.5)

    def test_offset_cycles_through_powers_of_two(self):
        # k = t mod log2(n): offsets 1, 2, 4, then back to 1
        for t, offset in [(0, 1), (1, 2), (2, 4), (3, 1), (5, 4)]:
            W = ref.one_peer_exponential_matrix(8, t).weights
            assert W[0, offset] == 0.5

    def test_closed_form_rho_matches_svd(self):
        # offset 1: sigma_2 = cos(pi/n); larger offsets do not mix (rho 0)
        for m in range(10):
            n = 1 << m
            for t in range(max(m, 1)):
                W = ref.one_peer_exponential_matrix(n, t)
                svd_rho = _svd_gap(W.weights)
                assert abs(W.rho - svd_rho) <= 1e-14, (n, t)
                assert (W.rho == 0.0) == (svd_rho == 0.0), (n, t)

    def test_single_node(self):
        W = ref.one_peer_exponential_matrix(1, 0)
        assert np.array_equal(W.weights, np.ones((1, 1)))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ref.one_peer_exponential_matrix(12, 0)
