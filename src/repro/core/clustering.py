"""Clustering of code regions (paper §2 and §4, after Hartigan 1975).

The paper summarizes the properties of a program by grouping code
regions with similar behaviour: each region is described by its wall
clock times in the K activities and k-means partitions this K-dimensional
space.  In the application example, clustering the seven loops yields two
groups — the heavy loops {1, 2} and the rest.

This module implements k-means from scratch:

* Lloyd's batch iterations with k-means++ seeding and multiple restarts;
* an optional Hartigan–Wong single-point refinement pass, which can
  escape some Lloyd fixed points;
* inertia (within-cluster sum of squares) and silhouette score to choose
  and judge ``k``.

Everything is deterministic given a ``seed``: the k-means++ draws come
from the standard library's ``random.Random(seed)``, so clustering
loads no ``numpy.random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ClusteringError
from .measurements import MeasurementSet


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run."""

    #: (n_points,) cluster label of each point.
    labels: np.ndarray
    #: (k, dims) final cluster centers.
    centers: np.ndarray
    #: Within-cluster sum of squared distances.
    inertia: float
    #: Lloyd iterations executed (over the best restart).
    iterations: int

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    def groups(self, names: Sequence[str]) -> Tuple[Tuple[str, ...], ...]:
        """Partition of ``names`` induced by the labels, clusters ordered
        by their first member for determinism."""
        if len(names) != self.labels.size:
            raise ClusteringError(
                f"{self.labels.size} points but {len(names)} names")
        clusters = {}
        for name, label in zip(names, self.labels):
            clusters.setdefault(int(label), []).append(name)
        ordered = sorted(clusters.values(), key=lambda members: members[0])
        return tuple(tuple(members) for members in ordered)


def _validate_points(points: Sequence) -> np.ndarray:
    data = np.asarray(points, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ClusteringError(
            f"points must be a non-empty 2-d array, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ClusteringError("points contain non-finite values")
    return data


def _kmeans_plus_plus(data: np.ndarray, k: int,
                      rng: random.Random) -> np.ndarray:
    """k-means++ seeding: spread the initial centers out proportionally
    to squared distance from the nearest chosen center."""
    n_points = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.randrange(n_points)]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        if closest_sq.sum() <= 0.0:
            # All remaining points coincide with a chosen center.
            choice = rng.randrange(n_points)
        else:
            choice = rng.choices(range(n_points),
                                 weights=closest_sq.tolist())[0]
        centers[index] = data[choice]
        distance_sq = ((data - centers[index]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centers


def _assign(data: np.ndarray, centers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    distances = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = distances.argmin(axis=1)
    return labels, distances


def _update_centers(data: np.ndarray, labels: np.ndarray,
                    k: int) -> np.ndarray:
    centers = np.empty((k, data.shape[1]))
    empty = []
    for cluster in range(k):
        members = data[labels == cluster]
        if members.shape[0] == 0:
            empty.append(cluster)
        else:
            centers[cluster] = members.mean(axis=0)
    if empty:
        # Re-seed each empty cluster on the point farthest from its own
        # (non-empty) cluster's new center — the worst-served point —
        # taking the next-farthest for every further empty cluster.
        # Deterministic: ties break on the lowest point index.
        distances = ((data - centers[labels]) ** 2).sum(axis=1)
        order = np.argsort(-distances, kind="stable")
        for point, cluster in zip(order, empty):
            centers[cluster] = data[point]
    return centers


def _inertia(data: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> float:
    return float(((data - centers[labels]) ** 2).sum())


def _hartigan_wong_pass(data: np.ndarray, labels: np.ndarray,
                        centers: np.ndarray) -> Tuple[np.ndarray, np.ndarray, bool]:
    """One sweep of single-point moves accepted when they reduce the
    exact inertia change (Hartigan & Wong 1979)."""
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k).astype(float)
    moved = False
    for point_index in range(data.shape[0]):
        source = int(labels[point_index])
        if counts[source] <= 1.0:
            continue
        point = data[point_index]
        removal_gain = (counts[source] / (counts[source] - 1.0)) * \
            ((point - centers[source]) ** 2).sum()
        best_target, best_cost = source, 0.0
        for target in range(k):
            if target == source:
                continue
            insertion_cost = (counts[target] / (counts[target] + 1.0)) * \
                ((point - centers[target]) ** 2).sum()
            change = insertion_cost - removal_gain
            if change < best_cost - 1e-12:
                best_cost = change
                best_target = target
        if best_target != source:
            centers[source] = (centers[source] * counts[source] - point) / \
                (counts[source] - 1.0)
            centers[best_target] = (centers[best_target] * counts[best_target] +
                                    point) / (counts[best_target] + 1.0)
            counts[source] -= 1.0
            counts[best_target] += 1.0
            labels[point_index] = best_target
            moved = True
    return labels, centers, moved


def _converge(data: np.ndarray, centers: np.ndarray, *,
              max_iterations: int, tolerance: float,
              refine: bool) -> KMeansResult:
    """One restart from seeded ``centers``: Lloyd iterations, then the
    optional Hartigan–Wong sweeps."""
    k = centers.shape[0]
    labels, _ = _assign(data, centers)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        centers_new = _update_centers(data, labels, k)
        labels_new, _ = _assign(data, centers_new)
        movement = float(np.abs(centers_new - centers).max())
        centers, labels = centers_new, labels_new
        if movement <= tolerance:
            break
    if refine:
        for _ in range(max_iterations):
            labels, centers, moved = _hartigan_wong_pass(data, labels, centers)
            if not moved:
                break
    return KMeansResult(labels=labels.copy(), centers=centers.copy(),
                        inertia=_inertia(data, labels, centers),
                        iterations=iterations)


def kmeans(points: Sequence, k: int, *, restarts: int = 10,
           max_iterations: int = 300, tolerance: float = 1e-10,
           refine: bool = True, seed: int = 0) -> KMeansResult:
    """Run k-means and return the best of ``restarts`` runs.

    Parameters mirror standard practice: k-means++ seeding, Lloyd
    iterations until center movement falls below ``tolerance``, and an
    optional Hartigan–Wong refinement sweep (``refine``).  The seeds
    are drawn from ``random.Random(seed)``.
    """
    data = _validate_points(points)
    n_points = data.shape[0]
    if not 1 <= k <= n_points:
        raise ClusteringError(
            f"k must lie in [1, {n_points}] for {n_points} points, got {k}")
    if restarts < 1:
        raise ClusteringError("restarts must be at least 1")
    rng = random.Random(seed)
    best: Optional[KMeansResult] = None
    for _ in range(restarts):
        candidate = _converge(data, _kmeans_plus_plus(data, k, rng),
                              max_iterations=max_iterations,
                              tolerance=tolerance, refine=refine)
        if best is None or candidate.inertia < best.inertia - 1e-12:
            best = candidate
    assert best is not None
    return best


def silhouette_score(points: Sequence, labels: Sequence[int]) -> float:
    """Mean silhouette coefficient of a clustering (in [-1, 1]).

    Points in singleton clusters get silhouette 0, following the usual
    convention.
    """
    data = _validate_points(points)
    label_array = np.asarray(labels, dtype=int)
    if label_array.shape != (data.shape[0],):
        raise ClusteringError("labels must have one entry per point")
    unique = np.unique(label_array)
    if unique.size < 2:
        raise ClusteringError("silhouette requires at least two clusters")
    distances = np.sqrt(((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2))
    scores = np.zeros(data.shape[0])
    for index in range(data.shape[0]):
        own = label_array[index]
        own_mask = label_array == own
        own_count = own_mask.sum()
        if own_count <= 1:
            scores[index] = 0.0
            continue
        a = distances[index, own_mask].sum() / (own_count - 1)
        b = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = label_array == other
            b = min(b, distances[index, other_mask].mean())
        scores[index] = (b - a) / max(a, b) if max(a, b) > 0.0 else 0.0
    return float(scores.mean())


def choose_k(points: Sequence, k_max: int, *, seed: int = 0) -> int:
    """Pick ``k`` in [2, k_max] maximizing the silhouette score."""
    data = _validate_points(points)
    if k_max < 2:
        raise ClusteringError("k_max must be at least 2")
    best_k, best_score = 2, -np.inf
    for k in range(2, min(k_max, data.shape[0] - 1) + 1):
        result = kmeans(data, k, seed=seed)
        if np.unique(result.labels).size < 2:
            continue
        score = silhouette_score(data, result.labels)
        if score > best_score + 1e-12:
            best_k, best_score = k, score
    return best_k


def cluster_regions(measurements: MeasurementSet, k: int = 2, *,
                    scale: str = "zscore",
                    seed: int = 0) -> Tuple[Tuple[str, ...], ...]:
    """Cluster the code regions by their activity wall clock times.

    Each region is described by its ``t_ij`` vector, as in the paper's
    application example.  ``scale`` controls feature preprocessing:
    ``"zscore"`` (default) standardizes each activity column to zero mean
    and unit variance before clustering — the usual workload-
    characterization practice (and the one that reproduces the paper's
    {loop 1, loop 2} vs rest partition); ``"none"`` clusters raw seconds,
    which lets long but dissimilar loops dominate.  Returns the groups as
    tuples of region names.
    """
    if scale not in ("zscore", "none"):
        raise ClusteringError(f"scale must be 'zscore' or 'none', got {scale!r}")
    features = measurements.region_activity_times
    if scale == "zscore":
        spread = features.std(axis=0)
        spread = np.where(spread > 0.0, spread, 1.0)
        features = (features - features.mean(axis=0)) / spread
    result = kmeans(features, k, seed=seed)
    return result.groups(measurements.regions)
