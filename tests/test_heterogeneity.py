"""Tests for Dirichlet client partitioning."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgm_sim.heterogeneity import Partition, dirichlet_partition, partition_stats


def _balanced_labels(classes: int, samples: int) -> np.ndarray:
    return np.arange(samples) % classes


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        labels = _balanced_labels(10, 57)
        p = dirichlet_partition(labels, n=1, alpha=0.5, seed=3)
        assert np.array_equal(p.shards[0], np.arange(57))

    def test_same_seed_is_bit_identical(self):
        labels = _balanced_labels(10, 500)
        a = dirichlet_partition(labels, 8, 0.3, seed=42)
        b = dirichlet_partition(labels, 8, 0.3, seed=42)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.shards, b.shards))

    def test_different_seed_differs(self):
        labels = _balanced_labels(10, 500)
        a = dirichlet_partition(labels, 8, 0.3, seed=42)
        b = dirichlet_partition(labels, 8, 0.3, seed=43)
        assert any(not np.array_equal(x, y) for x, y in zip(a.shards, b.shards))

    def test_large_alpha_approaches_uniform_split(self):
        """alpha -> inf forces near-equal proportions, so the only deviation
        left is largest-remainder rounding: with 1000 samples, 10 classes,
        16 clients, each client/class cell is 6 or 7 samples and every
        client's class proportions stay within +-20% of the global 1/10."""
        labels = _balanced_labels(10, 1000)
        for seed in range(50):
            p = dirichlet_partition(labels, n=16, alpha=1e6, seed=seed)
            counts = partition_stats(p, labels)
            shares = counts / counts.sum(axis=1, keepdims=True)
            assert np.all(np.abs(shares - 0.1) <= 0.02 + 1e-12), seed

    def test_small_alpha_concentrates_each_client(self):
        """alpha -> 0 gives every class to essentially one client, so the
        median client holds at least 80% of its samples in a single class
        (clients repaired with a single sample trivially hold 100%)."""
        labels = _balanced_labels(10, 1000)
        for seed in range(50):
            p = dirichlet_partition(labels, n=16, alpha=0.01, seed=seed)
            counts = partition_stats(p, labels)
            max_share = counts.max(axis=1) / counts.sum(axis=1)
            assert np.median(max_share) >= 0.8, seed

    def test_empty_shard_repair_spreads_singletons(self):
        """10 one-class samples on 10 clients at tiny alpha: the Dirichlet
        draw dumps the class on one client and the repair loop must leave
        every client exactly one sample."""
        labels = np.zeros(10, dtype=int)
        p = dirichlet_partition(labels, n=10, alpha=1e-3, seed=0)
        assert list(p.sizes()) == [1] * 10
        joined = np.sort(np.concatenate(p.shards))
        assert np.array_equal(joined, np.arange(10))

    def test_fewer_samples_than_clients_allowed(self):
        p = dirichlet_partition(np.array([0, 1, 0]), n=5, alpha=1.0, seed=9)
        assert sum(len(s) for s in p.shards) == 3

    def test_rejects_bad_parameters(self):
        labels = np.array([0, 1])
        with pytest.raises(ValueError, match="alpha > 0"):
            dirichlet_partition(labels, 2, 0.0, seed=0)
        with pytest.raises(ValueError, match="n >= 1"):
            dirichlet_partition(labels, 0, 1.0, seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            dirichlet_partition(np.array([]), 2, 1.0, seed=0)

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_alpha_by_name(self, alpha):
        # an infinite alpha once made NaN proportions and shards holding
        # 1560 indices for 1000 samples
        labels = _balanced_labels(10, 1000)
        with pytest.raises(ValueError, match="alpha must be finite"):
            dirichlet_partition(labels, 16, alpha, seed=0)

    @pytest.mark.parametrize("alpha", [1e308, 1.7e308])
    def test_rejects_alpha_whose_gamma_draws_overflow(self, alpha):
        # the draws' sum overflowed, every proportion was 0, and the last
        # client took 850 of 1000 samples
        labels = _balanced_labels(10, 1000)
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha} is too large")):
            dirichlet_partition(labels, 16, alpha, seed=0)

    def test_huge_finite_alpha_still_splits_evenly(self):
        p = dirichlet_partition(_balanced_labels(10, 1000), 16, 1e300, seed=0)
        assert p.sizes().sum() == 1000
        assert 60 <= p.sizes().min() and p.sizes().max() <= 70

    def test_shards_are_read_only(self):
        p = dirichlet_partition(_balanced_labels(3, 30), 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            p.shards[0][0] = 99

    @given(
        n=st.integers(min_value=1, max_value=8),
        alpha=st.sampled_from([0.05, 0.5, 5.0]),
        seed=st.integers(min_value=0, max_value=2**32),
        labels=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60),
    )
    @settings(max_examples=120, deadline=None)
    def test_disjoint_cover_nonempty(self, n, alpha, seed, labels):
        """Core partition invariants for arbitrary label arrays: shards are
        pairwise disjoint, cover {0..N-1} exactly, and are all non-empty
        whenever N >= n."""
        labels = np.asarray(labels)
        p = dirichlet_partition(labels, n, alpha, seed)
        assert len(p.shards) == n
        joined = np.concatenate([s for s in p.shards])
        assert len(joined) == len(labels)
        assert np.array_equal(np.sort(joined), np.arange(len(labels)))
        if len(labels) >= n:
            assert all(len(s) > 0 for s in p.shards)


class TestPartitionStats:
    def test_single_client_matches_global_histogram(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        p = dirichlet_partition(labels, 1, 1.0, seed=0)
        counts = partition_stats(p, labels)
        assert counts.shape == (1, 3)
        assert list(counts[0]) == [2, 1, 3]

    def test_column_sums_are_class_totals(self):
        labels = _balanced_labels(7, 430)
        p = dirichlet_partition(labels, 6, 0.2, seed=11)
        counts = partition_stats(p, labels)
        expected = [len(np.flatnonzero(labels == k)) for k in range(7)]
        assert list(counts.sum(axis=0)) == expected
        assert list(counts.sum(axis=1)) == list(p.sizes())

    def test_two_clients_high_alpha_halves_histogram(self):
        """With two clients and alpha -> inf each row is within rounding of
        half the global histogram (100 per class -> 50 +- 1)."""
        labels = _balanced_labels(2, 200)
        p = dirichlet_partition(labels, 2, 1e6, seed=5)
        counts = partition_stats(p, labels)
        assert np.all(np.abs(counts - 50) <= 1)

    def test_mismatched_labels_rejected(self):
        labels = _balanced_labels(3, 30)
        p = dirichlet_partition(labels, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            partition_stats(p, labels[:-1])

    def test_stats_work_with_noninteger_labels(self):
        labels = np.array(["cat", "dog", "cat", "bird"])
        p = dirichlet_partition(labels, 2, 1.0, seed=1)
        counts = partition_stats(p, labels)
        # columns in sorted class order: bird, cat, dog
        assert list(counts.sum(axis=0)) == [1, 2, 1]
