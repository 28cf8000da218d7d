"""Unit tests for the k-means clustering implementation."""

import numpy as np
import pytest

from repro.core import (choose_k, cluster_regions, kmeans, silhouette_score)
from repro.errors import ClusteringError


def two_blobs(n=20, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, (n, 2))
    b = rng.normal(separation, 0.5, (n, 2))
    return np.vstack([a, b])


class TestKMeans:
    def test_recovers_two_blobs(self):
        data = two_blobs()
        result = kmeans(data, 2, seed=1)
        labels = result.labels
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1
        assert labels[0] != labels[20]

    def test_inertia_positive_and_finite(self):
        result = kmeans(two_blobs(), 2, seed=1)
        assert 0.0 <= result.inertia < np.inf

    def test_k_equals_points_gives_zero_inertia(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = kmeans(data, 3, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_one_center_is_mean(self):
        data = two_blobs()
        result = kmeans(data, 1, seed=0)
        np.testing.assert_allclose(result.centers[0], data.mean(axis=0))

    def test_deterministic_given_seed(self):
        data = two_blobs(seed=3)
        first = kmeans(data, 3, seed=42)
        second = kmeans(data, 3, seed=42)
        np.testing.assert_array_equal(first.labels, second.labels)
        assert first.inertia == second.inertia

    def test_refinement_never_worse(self):
        data = two_blobs(separation=3.0, seed=5)
        plain = kmeans(data, 3, refine=False, seed=9, restarts=1)
        refined = kmeans(data, 3, refine=True, seed=9, restarts=1)
        assert refined.inertia <= plain.inertia + 1e-9

    def test_rejects_bad_k(self):
        data = two_blobs()
        with pytest.raises(ClusteringError):
            kmeans(data, 0)
        with pytest.raises(ClusteringError):
            kmeans(data, data.shape[0] + 1)

    def test_rejects_bad_points(self):
        with pytest.raises(ClusteringError):
            kmeans(np.empty((0, 2)), 1)
        with pytest.raises(ClusteringError):
            kmeans([[np.nan, 0.0]], 1)

    def test_rejects_zero_restarts(self):
        with pytest.raises(ClusteringError):
            kmeans(two_blobs(), 2, restarts=0)

    def test_duplicate_points_handled(self):
        data = np.zeros((5, 2))
        result = kmeans(data, 2, seed=0)
        assert result.inertia == pytest.approx(0.0)

    def test_groups(self):
        data = np.array([[0.0], [0.1], [5.0], [5.1]])
        result = kmeans(data, 2, seed=0)
        groups = result.groups(["a", "b", "c", "d"])
        assert set(map(frozenset, groups)) == {frozenset({"a", "b"}),
                                               frozenset({"c", "d"})}

    def test_groups_name_count_checked(self):
        result = kmeans(two_blobs(), 2, seed=0)
        with pytest.raises(ClusteringError):
            result.groups(["too", "few"])


class TestSilhouette:
    def test_well_separated_near_one(self):
        data = two_blobs()
        result = kmeans(data, 2, seed=0)
        assert silhouette_score(data, result.labels) > 0.8

    def test_bad_clustering_scores_lower(self):
        data = two_blobs()
        good = kmeans(data, 2, seed=0)
        arbitrary = np.arange(data.shape[0]) % 2      # interleaved labels
        assert silhouette_score(data, arbitrary) < \
            silhouette_score(data, good.labels)

    def test_requires_two_clusters(self):
        data = two_blobs()
        with pytest.raises(ClusteringError):
            silhouette_score(data, np.zeros(data.shape[0], dtype=int))

    def test_label_shape_checked(self):
        with pytest.raises(ClusteringError):
            silhouette_score(two_blobs(), [0, 1])


class TestChooseK:
    def test_finds_two_blobs(self):
        assert choose_k(two_blobs(), k_max=6, seed=0) == 2

    def test_finds_three_blobs(self):
        rng = np.random.default_rng(0)
        data = np.vstack([rng.normal(center, 0.3, (15, 2))
                          for center in (0.0, 8.0, 16.0)])
        assert choose_k(data, k_max=6, seed=0) == 3

    def test_rejects_small_k_max(self):
        with pytest.raises(ClusteringError):
            choose_k(two_blobs(), k_max=1)


class TestClusterRegions:
    def test_paper_partition(self, paper_measurements):
        groups = cluster_regions(paper_measurements, 2, seed=0)
        assert set(map(frozenset, groups)) == {
            frozenset({"loop 1", "loop 2"}),
            frozenset({"loop 3", "loop 4", "loop 5", "loop 6", "loop 7"})}

    def test_paper_partition_has_positive_silhouette(self,
                                                     paper_measurements):
        """The two groups are genuine structure in the z-scored loop x
        activity times, not an artifact of asking for k = 2."""
        features = paper_measurements.region_activity_times
        spread = features.std(axis=0)
        z = (features - features.mean(axis=0)) / np.where(spread > 0,
                                                          spread, 1)
        assert silhouette_score(z, kmeans(z, 2, seed=0).labels) > 0.2

    def test_raw_scaling_differs(self, paper_measurements):
        # Clustering raw seconds lets loop 4/5's computation time pull
        # them toward the heavy group — the documented reason the
        # default is z-scoring.
        raw = cluster_regions(paper_measurements, 2, scale="none", seed=0)
        z = cluster_regions(paper_measurements, 2, scale="zscore", seed=0)
        assert raw != z

    def test_bad_scale_rejected(self, paper_measurements):
        with pytest.raises(ClusteringError):
            cluster_regions(paper_measurements, 2, scale="log")


class TestEmptyClusterReseed:
    """_update_centers must re-seed an empty cluster on the point
    farthest from its assigned center (the documented farthest-point
    rule), deterministically."""

    def test_farthest_point_becomes_the_new_center(self):
        from repro.core.clustering import _update_centers
        data = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        labels = np.array([0, 0, 0])
        centers = _update_centers(data, labels, 2)
        # Cluster 1 is empty; [10, 0] is farthest from cluster 0's
        # mean and must seed it.
        np.testing.assert_allclose(centers[1], [10.0, 0.0])

    def test_reseed_is_deterministic(self):
        from repro.core.clustering import _update_centers
        rng = np.random.default_rng(3)
        data = rng.normal(size=(40, 2))
        labels = np.zeros(40, dtype=int)
        first = _update_centers(data, labels, 3)
        second = _update_centers(data, labels, 3)
        np.testing.assert_array_equal(first, second)

    def test_distinct_points_for_multiple_empty_clusters(self):
        from repro.core.clustering import _update_centers
        data = np.array([[0.0, 0.0], [5.0, 0.0], [-7.0, 0.0], [0.1, 0.0]])
        labels = np.array([0, 0, 0, 0])
        centers = _update_centers(data, labels, 3)
        np.testing.assert_allclose(centers[1], [-7.0, 0.0])
        np.testing.assert_allclose(centers[2], [5.0, 0.0])

    def test_kmeans_survives_forced_empty_cluster(self):
        # Three near-duplicate points and one far outlier with k=3:
        # some restart inevitably empties a cluster mid-iteration.
        data = np.array([[0.0, 0.0], [0.01, 0.0], [0.02, 0.0],
                         [100.0, 0.0]])
        result = kmeans(data, 3, seed=0, restarts=4)
        assert np.isfinite(result.inertia)
        assert len(set(result.labels.tolist())) <= 3
