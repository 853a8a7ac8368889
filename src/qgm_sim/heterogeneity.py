"""Non-iid data shards via per-class Dirichlet allocation.

To emulate heterogeneous clients, the indices of each class are split across
the ``n`` clients according to a proportion vector drawn from
``Dirichlet(alpha * 1_n)``.  Small ``alpha`` concentrates each class on few
clients (in the limit every client sees a single class); large ``alpha``
approaches an even, iid-like split.  Largest-remainder rounding turns
proportions into integer counts, and the split is one owner array, the
client of every sample, filled class by class: each sample has exactly one
owner, so coverage and disjointness hold by construction, and one stable
sort of that array cuts the shards.  Every sample belongs to one class of
``np.unique(labels)``, NaN labels to one class of their own.

Determinism: draws come from numpy's counter-based Philox generator, keyed
by ``SeedSequence(entropy=seed, spawn_key=(class_position,))`` — the same
(labels, n, alpha, seed) always reproduces the same shards, on any platform.
Shards are fixed at construction and never reshuffled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Partition", "dirichlet_partition", "partition_stats"]


@dataclass(frozen=True)
class Partition:
    """Disjoint client shards covering ``{0, ..., N-1}``.

    ``shards[c]`` is the ascending index array owned by client ``c``.  Every
    shard is non-empty whenever ``N >= n`` (enforced by a deterministic
    reallocation step; see ``dirichlet_partition``).
    """

    n: int
    shards: tuple[np.ndarray, ...]
    alpha: float
    seed: int

    def __post_init__(self):
        for s in self.shards:
            s.setflags(write=False)

    def sizes(self) -> np.ndarray:
        return np.array([len(s) for s in self.shards], dtype=np.int64)


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``, proportional to ``proportions``.

    Floor the targets, then hand the remaining units to the largest
    fractional parts; ties go to the lower client id so the result is
    deterministic.
    """
    target = proportions * total
    counts = np.floor(target).astype(np.int64)
    remainder = total - int(counts.sum())
    if remainder:
        frac = target - counts
        order = np.lexsort((np.arange(len(frac)), -frac))
        counts[order[:remainder]] += 1
    return counts


def _check_split(n: int, alpha: float) -> None:
    """Raise ``ValueError`` unless ``n >= 1`` and ``0 < alpha < inf``."""
    if n < 1:
        raise ValueError(f"client count must satisfy n >= 1; got n={n}")
    # an infinite alpha makes the Dirichlet draw NaN, which the counts turn
    # into overlapping shards
    if not 0 < alpha < math.inf:
        raise ValueError(
            f"Dirichlet concentration alpha must be finite and satisfy alpha > 0; "
            f"got alpha={alpha}")


def dirichlet_partition(labels, n: int, alpha: float, seed: int) -> Partition:
    """Split sample indices across ``n`` clients, class by class.

    For each distinct class (in sorted class order) a proportion vector over
    clients is drawn from ``Dirichlet(alpha * 1_n)`` and the class's indices
    (in ascending order) are dealt out contiguously per the rounded counts.

    If the draw leaves some client empty and there are at least as many
    samples as clients, indices are reassigned deterministically: repeatedly
    move the lowest index held by the lowest-id largest shard to the
    lowest-id empty shard.  The shards are slices of one stable argsort of
    the owner array, which keeps each one ascending.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-d array")
    _check_split(n, alpha)

    # each sample is in one class, so the loop writes its client into owner
    classes, inverse = np.unique(labels, return_inverse=True)
    owner = np.empty(labels.size, dtype=np.intp)
    for pos in range(len(classes)):
        idx = np.flatnonzero(inverse == pos)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(pos,)))
        )
        proportions = rng.dirichlet(np.full(n, alpha)) if n > 1 else np.ones(1)
        # a draw sums to 1 unless the gamma draws it normalizes overflowed,
        # which leaves every proportion 0 and the counts short of the class
        if not math.isclose(float(proportions.sum()), 1.0, rel_tol=1e-9):
            raise ValueError(
                f"Dirichlet concentration alpha={alpha} is too large for {n} clients: "
                f"its gamma draws overflow")
        owner[idx] = np.repeat(np.arange(n), _largest_remainder_counts(proportions, len(idx)))

    # deterministic repair: no client stays empty when there is enough data
    sizes = np.bincount(owner, minlength=n)
    if labels.size >= n:
        while (sizes == 0).any():
            donor = int(np.argmax(sizes))          # lowest id among the largest
            receiver = int(np.argmin(sizes != 0))  # lowest-id empty shard
            owner[np.argmax(owner == donor)] = receiver  # the donor's lowest index
            sizes[donor] -= 1
            sizes[receiver] += 1

    shards = np.split(np.argsort(owner, kind="stable"), np.cumsum(sizes)[:-1])
    return Partition(n=n, shards=tuple(shards), alpha=float(alpha), seed=int(seed))


def partition_stats(partition: Partition, labels) -> np.ndarray:
    """Per-client class-count matrix (``n`` rows, one column per class).

    Columns follow sorted class order.  Row ``c`` sums to ``len(shards[c])``
    and each column sums to the global count of that class: one
    ``np.bincount`` over the cells ``owner * classes + class``.
    """
    labels = np.asarray(labels)
    sizes = partition.sizes()
    total = int(sizes.sum())
    if labels.ndim != 1 or labels.size != total:
        raise ValueError(
            f"labels length {labels.size} does not match the partitioned "
            f"sample count {total}"
        )
    classes, inverse = np.unique(labels, return_inverse=True)
    owner = np.repeat(np.arange(partition.n), sizes)
    cells = owner * len(classes) + inverse[np.concatenate(partition.shards)]
    return np.bincount(cells, minlength=partition.n * len(classes)).reshape(partition.n, -1)
