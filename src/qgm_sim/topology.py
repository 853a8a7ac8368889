"""Communication topologies and doubly stochastic gossip matrices.

Workers in a decentralized run communicate over an undirected graph (or, for
the time-varying one-peer scheme, a step-indexed sequence of directed
pairings).  This module builds those graphs, turns them into doubly
stochastic mixing matrices ``W``, and measures how fast repeated mixing
contracts disagreement:

    spectral gap  rho = 1 - sigma_2(W)^2,

where ``sigma_2`` is the largest singular value of ``W - (1/n) 1 1^T``.  One
gossip round contracts the consensus residual by exactly ``sigma_2^2`` in
squared Frobenius norm, so ``rho = 1`` means one-shot averaging (complete
graph) and ``rho = 0`` means no mixing at all (disconnected graph or ``W =
I``).  Every static ``W`` built here is exactly symmetric, so ``sigma_2`` is
the largest absolute eigenvalue of ``W - (1/n) 1 1^T``, which
:func:`spectral_gap` takes from the symmetric eigensolver
``np.linalg.eigvalsh`` and refuses to compute for a matrix that is not
symmetric.  The last bits of ``rho`` depend on the LAPACK build and the BLAS
thread count.

The one-peer scheme is :class:`OnePeerExponential`, a schedule that holds no
array: it names each step's peer offset, and the optimizer averages each
worker with that one peer directly (:func:`qgm_sim.optim.mix`).  Both kinds
of mixing answer ``n``, ``rho`` and ``at(t)``, step ``t``'s mixing: a static
matrix returns itself, the schedule its :class:`OnePeerStep`.

Convention used everywhere in this package: ``W[i, j]`` is the weight worker
``i`` places on worker ``j``'s model, i.e. one gossip round maps the stacked
column-per-worker matrix ``X`` to ``X @ W.T``.  All static topologies here
produce symmetric ``W``, for which this coincides with ``X @ W``; the
distinction only matters for the directed one-peer matrices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "MixingMatrix",
    "OnePeerExponential",
    "OnePeerStep",
    "build_graph",
    "mixing_matrix",
    "spectral_gap",
    "DAVIS_SOUTHERN_WOMEN_EDGES",
]

GRAPH_KINDS = ("ring", "torus", "complete", "star", "social", "one_peer_exponential")
MIXING_SCHEMES = ("metropolis_hastings", "uniform_neighbor")

# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

# Davis Southern Women affiliation network: the classic two-mode social
# network of 18 women (nodes 0-17) and 14 social events (nodes 18-31); an
# edge joins a woman to each event she attended.  89 edges, connected,
# degrees ranging from 2 to 14 -- a convenient irregular 32-node testbed.
DAVIS_SOUTHERN_WOMEN_EDGES: tuple[tuple[int, int], ...] = (
    (0, 18), (0, 19), (0, 20), (0, 21), (0, 22), (0, 23), (0, 25), (0, 26),
    (1, 18), (1, 19), (1, 20), (1, 22), (1, 23), (1, 24), (1, 25),
    (2, 19), (2, 20), (2, 21), (2, 22), (2, 23), (2, 24), (2, 25), (2, 26),
    (3, 18), (3, 20), (3, 21), (3, 22), (3, 23), (3, 24), (3, 25),
    (4, 20), (4, 21), (4, 22), (4, 24),
    (5, 20), (5, 22), (5, 23), (5, 25),
    (6, 22), (6, 23), (6, 24), (6, 25),
    (7, 23), (7, 25), (7, 26),
    (8, 22), (8, 24), (8, 25), (8, 26),
    (9, 24), (9, 25), (9, 26), (9, 29),
    (10, 25), (10, 26), (10, 27), (10, 29),
    (11, 25), (11, 26), (11, 27), (11, 29), (11, 30), (11, 31),
    (12, 24), (12, 25), (12, 26), (12, 27), (12, 29), (12, 30), (12, 31),
    (13, 23), (13, 24), (13, 26), (13, 27), (13, 28), (13, 29), (13, 30), (13, 31),
    (14, 24), (14, 25), (14, 27), (14, 28), (14, 29),
    (15, 25), (15, 26),
    (16, 26), (16, 28),
    (17, 26), (17, 28),
)


@dataclass(frozen=True)
class Graph:
    """An undirected communication graph on nodes ``0 .. n-1``.

    ``edges`` holds each undirected pair once as ``(u, v)`` with ``u < v``
    and never contains self-loops.  For the time-varying
    ``one_peer_exponential`` kind the pairing changes every step, so
    ``edges`` is empty and ``time_varying`` is set; its mixing is the
    schedule :class:`OnePeerExponential`.
    """

    kind: str
    n: int
    edges: frozenset[tuple[int, int]]
    time_varying: bool = False
    params: dict = field(default_factory=dict)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self, i: int) -> list[int]:
        out = [v if u == i else u for u, v in self.edges if i in (u, v)]
        return sorted(out)


def _ring_edges(n: int) -> set[tuple[int, int]]:
    if n == 1:
        return set()
    if n == 2:
        return {(0, 1)}
    return {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}


def _torus_dims(n: int, rows: int | None) -> tuple[int, int]:
    if rows is not None:
        cols, rem = divmod(n, rows)
        if rem or rows < 2 or cols < 2:
            raise ValueError(
                f"torus requires n = rows x cols with rows >= 2 and cols >= 2; "
                f"got n={n}, rows={rows}"
            )
        return rows, cols
    # most-square factorization with both sides >= 2
    for r in range(int(math.isqrt(n)), 1, -1):
        if n % r == 0:
            return r, n // r
    raise ValueError(
        f"torus requires n = rows x cols with rows >= 2 and cols >= 2; "
        f"n={n} has no such factorization"
    )


def _torus_edges(rows: int, cols: int) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for j in (((r + 1) % rows) * cols + c, r * cols + (c + 1) % cols):
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return edges


def build_graph(kind: str, n: int, **params) -> Graph:
    """Construct a communication graph.

    Kinds: ``ring`` (cycle), ``torus`` (2-d periodic grid; pass ``rows`` to
    pick the factorization, default is the most-square one), ``complete``,
    ``star`` (hub is node 0), ``social`` (the fixed 32-node affiliation
    network above; requires ``n == 32``), and ``one_peer_exponential``
    (time-varying directed pairings; requires ``n`` to be a power of two).
    """
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")
    if n < 1:
        raise ValueError(f"graph size must satisfy n >= 1; got n={n}")

    extra = set(params) - ({"rows"} if kind == "torus" else set())
    if extra:
        raise ValueError(f"unexpected parameters {sorted(extra)} for graph kind {kind!r}")

    if kind == "ring":
        return Graph("ring", n, frozenset(_ring_edges(n)))
    if kind == "torus":
        rows, cols = _torus_dims(n, params.get("rows"))
        return Graph("torus", n, frozenset(_torus_edges(rows, cols)),
                     params={"rows": rows, "cols": cols})
    if kind == "complete":
        return Graph("complete", n,
                     frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
    if kind == "star":
        return Graph("star", n, frozenset((0, i) for i in range(1, n)))
    if kind == "social":
        if n != 32:
            raise ValueError(f"the social graph is fixed at 32 nodes; got n={n}")
        return Graph("social", 32, frozenset(DAVIS_SOUTHERN_WOMEN_EDGES))
    # one_peer_exponential
    if n & (n - 1):
        raise ValueError(f"one_peer_exponential requires n to be a power of two; got n={n}")
    return Graph("one_peer_exponential", n, frozenset(), time_varying=True)


# ---------------------------------------------------------------------------
# mixing matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """A doubly stochastic gossip matrix over ``n`` workers.

    ``weights[i, j]`` is the weight worker ``i`` places on worker ``j``;
    rows and columns each sum to one and every entry is nonnegative.
    ``rho`` is the spectral gap ``1 - sigma_2(W)^2``.  ``==`` is identity:
    the weights are an array, which has no one truth value.
    """

    n: int
    weights: np.ndarray
    rho: float

    def __post_init__(self):
        if self.weights.shape != (self.n, self.n):
            raise ValueError(f"mixing matrix over n={self.n} workers needs weights of "
                             f"shape ({self.n}, {self.n}); got {self.weights.shape}")
        self.weights.setflags(write=False)

    def at(self, t: int) -> "MixingMatrix":
        """Step ``t``'s mixing: the matrix itself."""
        return self


def _validate_doubly_stochastic(W: np.ndarray, context: str) -> None:
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"{context}: mixing matrix must be square; got shape {W.shape}")
    if np.min(W) < -1e-12:
        raise ValueError(f"{context}: mixing weights must be nonnegative "
                         f"(min entry {np.min(W):.3e})")
    ones = np.ones(W.shape[0])
    row_err = np.max(np.abs(W.sum(axis=1) - ones))
    col_err = np.max(np.abs(W.sum(axis=0) - ones))
    if row_err > 1e-12 or col_err > 1e-12:
        raise ValueError(f"{context}: mixing matrix must be doubly stochastic "
                         f"(row-sum error {row_err:.3e}, column-sum error {col_err:.3e})")


def mixing_matrix(graph: Graph, scheme: str = "metropolis_hastings") -> MixingMatrix:
    """Build a doubly stochastic mixing matrix supported on ``graph``.

    * ``metropolis_hastings``: ``W[i, j] = 1 / (1 + max(deg_i, deg_j))`` on
      each edge, with the remaining mass on the diagonal.  Doubly stochastic
      on any connected graph.
    * ``uniform_neighbor``: ``W[i, j] = 1 / (deg + 1)`` for neighbors and
      self.  Only doubly stochastic when the graph is regular, so irregular
      graphs are rejected.
    """
    if scheme not in MIXING_SCHEMES:
        raise ValueError(f"unknown mixing scheme {scheme!r}; expected one of {MIXING_SCHEMES}")
    if graph.time_varying:
        raise ValueError("one_peer_exponential is time-varying; use "
                         "OnePeerExponential(n) instead of mixing_matrix()")

    n = graph.n
    deg = graph.degrees()
    W = np.zeros((n, n))
    if scheme == "metropolis_hastings":
        for u, v in graph.edges:
            w = 1.0 / (1.0 + max(deg[u], deg[v]))
            W[u, v] = w
            W[v, u] = w
    else:  # uniform_neighbor
        if n > 1 and np.any(deg != deg[0]):
            raise ValueError(
                "uniform_neighbor weights require a regular graph (all degrees equal); "
                f"graph kind {graph.kind!r} has degrees in [{deg.min()}, {deg.max()}] -- "
                "use metropolis_hastings instead"
            )
        for u, v in graph.edges:
            w = 1.0 / (deg[0] + 1.0)
            W[u, v] = w
            W[v, u] = w
    W[np.arange(n), np.arange(n)] = 1.0 - W.sum(axis=1)

    _validate_doubly_stochastic(W, f"{graph.kind}/{scheme}")
    return MixingMatrix(n=n, weights=W, rho=spectral_gap(W))


@dataclass(frozen=True)
class OnePeerStep:
    """One step of the one-peer exponential scheme: worker ``i`` averages
    halfway with worker ``(i + offset) mod n``."""

    n: int
    offset: int


@dataclass(frozen=True)
class OnePeerExponential:
    """The time-varying one-peer exponential schedule over ``n = 2^m``
    workers (Assran et al., 2019; Ying et al., 2021).

    At step ``t`` worker ``i`` averages halfway with the single peer
    ``(i + 2^k) mod n``, ``k = t mod m``, so a step touches two entries per
    row.  One sweep of ``m`` steps multiplies out to exact averaging, so
    ``rho``, the spectral gap of one sweep's product, is 1.  The schedule
    holds no array: step ``t``'s matrix would be ``(I + P) / 2`` with ``P``
    the cyclic shift by the offset, doubly stochastic but not symmetric.
    """

    n: int
    rho = 1.0

    def __post_init__(self):
        if self.n < 1 or (self.n & (self.n - 1)):
            raise ValueError(
                f"one_peer_exponential requires n to be a power of two; got n={self.n}")

    @property
    def sweep(self) -> int:
        """Steps in one sweep: ``log2(n)``, and 1 for a single worker."""
        return max(1, self.n.bit_length() - 1)

    def offset(self, t: int) -> int:
        """Peer offset ``2^(t mod log2 n)`` of step ``t`` (0 at ``n = 1``)."""
        return (1 << (t % self.sweep)) % self.n

    def at(self, t: int) -> OnePeerStep:
        """Step ``t`` of the schedule."""
        return OnePeerStep(self.n, self.offset(t))


# ---------------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------------

def spectral_gap(W: np.ndarray) -> float:
    """Spectral gap ``rho = 1 - sigma_2(W)^2`` of a symmetric doubly
    stochastic matrix.

    ``sigma_2`` is the largest singular value of ``W - (1/n) 1 1^T``, i.e.
    of ``W`` restricted to the subspace orthogonal to consensus.  A gossip
    round contracts the consensus residual by exactly this factor:

        || Z W - Zbar ||_F^2 <= (1 - rho) || Z - Zbar ||_F^2 ,

    with equality attained in the worst case over ``Z``.  For symmetric
    ``W`` the singular values are the absolute eigenvalues, so ``sigma_2``
    is the larger of ``-ev[0]`` and ``ev[-1]`` for the ascending
    eigenvalues ``ev`` of ``W - (1/n) 1 1^T`` (``np.linalg.eigvalsh``).
    ``W`` must therefore equal its transpose exactly; every static matrix
    :func:`mixing_matrix` builds does, and anything else (such as a directed
    one-peer matrix) raises ``ValueError``.  The last bits of ``rho`` depend
    on the LAPACK build and the BLAS thread count.

    ``rho == 0`` (sigma_2 == 1) means the matrix does not mix at all -- the
    underlying graph is disconnected, or ``W = I`` -- and a warning is
    emitted since consensus will never be reached.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or not np.array_equal(W, W.T):
        raise ValueError("spectral_gap needs a square matrix exactly equal to its "
                         f"transpose; got one of shape {W.shape} that is not")
    n = W.shape[0]
    sigma2 = 0.0
    if n > 1:
        ev = np.linalg.eigvalsh(W - np.full((n, n), 1.0 / n))
        sigma2 = float(max(-ev[0], ev[-1]))
    rho = max(0.0, 1.0 - sigma2 * sigma2)
    if n > 1 and rho <= 1e-12:
        warnings.warn(
            "mixing matrix has spectral gap 0 (sigma_2 = 1): the communication "
            "graph does not mix and consensus will never be reached",
            stacklevel=2,
        )
        return 0.0
    return rho
