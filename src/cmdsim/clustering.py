"""Density clustering over explanation embeddings and its consumers:
testing-set deduplication, least-similar negative mining, and
per-source cluster coverage.

The distance is cosine distance d(u, v) = 1 - u.v over unit vectors.
Traversal order is pinned (points visited in index order, FIFO seed
expansion, neighbors enumerated ascending) so labelings are fully
deterministic and border points go to the first cluster that reaches
them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DbscanParams:
    """eps is a cosine-distance radius; neighborhoods are inclusive
    (distance <= eps)."""

    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


NOISE = -1


@dataclass(frozen=True)
class ClusterLabeling:
    """Per-point labels: -1 for noise, 0..num_clusters-1 otherwise."""

    labels: tuple[int, ...]
    num_clusters: int

    def __post_init__(self) -> None:
        for label in self.labels:
            if label != NOISE and not 0 <= label < self.num_clusters:
                raise ValueError(f"label {label} outside [-1, {self.num_clusters})")


def dbscan(vectors: np.ndarray, params: DbscanParams) -> ClusterLabeling:
    """Standard DBSCAN over unit vectors with cosine distance.

    Empty input yields an empty labeling.  Cluster ids are assigned in
    discovery order.
    """
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.size == 0:
        return ClusterLabeling(labels=(), num_clusters=0)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix of row vectors, got shape {matrix.shape}")
    n = matrix.shape[0]
    threshold = 1.0 - params.eps

    def neighbors(i: int) -> np.ndarray:
        # Inclusive radius: distance <= eps, i.e. similarity >= 1 - eps.
        return np.flatnonzero(matrix @ matrix[i] >= threshold)

    labels = [NOISE] * n
    visited = [False] * n
    next_cluster = 0
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        seed_neighbors = neighbors(start)
        if len(seed_neighbors) < params.min_pts:
            continue
        cluster = next_cluster
        next_cluster += 1
        labels[start] = cluster
        queue = deque(int(j) for j in seed_neighbors if j != start)
        while queue:
            point = queue.popleft()
            if labels[point] == NOISE:
                labels[point] = cluster
            if visited[point]:
                continue
            visited[point] = True
            point_neighbors = neighbors(point)
            if len(point_neighbors) >= params.min_pts:
                # Filtered enqueue: skipping already-visited, already-
                # labeled points changes nothing about the outcome, only
                # the queue volume.
                queue.extend(
                    int(j) for j in point_neighbors if not visited[j] or labels[j] == NOISE
                )
    return ClusterLabeling(labels=tuple(labels), num_clusters=next_cluster)


def dedup_by_clusters(
    items: Sequence[object],
    labeling: ClusterLabeling,
    keep_per_cluster: int = 2,
) -> list[int]:
    """Indices surviving deduplication, ascending.

    From each non-noise cluster the first ``keep_per_cluster`` members
    by index are kept; noise points are all kept.
    """
    if len(items) != len(labeling.labels):
        raise ValueError(
            f"labeling covers {len(labeling.labels)} points but got {len(items)} items"
        )
    if keep_per_cluster < 1:
        raise ValueError("keep_per_cluster must be >= 1")
    kept: list[int] = []
    taken: dict[int, int] = {}
    for index, label in enumerate(labeling.labels):
        if label == NOISE:
            kept.append(index)
            continue
        if taken.get(label, 0) < keep_per_cluster:
            taken[label] = taken.get(label, 0) + 1
            kept.append(index)
    return kept


def mine_negatives(
    query_index: int,
    embeddings: np.ndarray,
    n: int = 1000,
    positive_index: int | None = None,
) -> list[int]:
    """The n corpus indices least cosine-similar to the query.

    Excludes the query itself and, when given, its paired positive.
    Result is in ascending-similarity order; equal similarities break
    toward the smaller index.  Similarities, and so ties, are those of
    the computed vector ``embeddings @ embeddings[query_index]``; a
    per-pair ``np.dot`` can differ from it in the last bit.

    Cost per query: O(N*d) for the mat-vec, then O(N + n log n) to
    select and order the n smallest.
    """
    matrix = np.asarray(embeddings, dtype=np.float64)
    count = matrix.shape[0]
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= query_index < count:
        raise ValueError(f"query_index {query_index} outside corpus of {count}")
    if positive_index is not None and not 0 <= positive_index < count:
        raise ValueError(f"positive_index {positive_index} outside corpus of {count}")
    excluded = {query_index}
    if positive_index is not None:
        excluded.add(positive_index)
    available = count - len(excluded)
    if n > available:
        raise ValueError(f"requested {n} negatives but only {available} candidates exist")
    similarities = matrix @ matrix[query_index]
    similarities[list(excluded)] = np.inf
    # n <= available keeps the cut finite, so no excluded point is in
    # the head; the head holds every point tied with the cut, in index
    # order, and a stable sort of it is the (similarity, index) order.
    cut = np.partition(similarities, n - 1)[n - 1]
    head = np.flatnonzero(similarities <= cut)
    return head[np.argsort(similarities[head], kind="stable")][:n].tolist()


def cluster_coverage(
    labeling: ClusterLabeling,
    source_tags: Sequence[str],
) -> dict[str, float]:
    """Percentage of non-noise clusters containing each source.

    Also useful for a pooled tag: callers wanting the union coverage tag
    every point with one shared name.  With zero clusters every rate is
    0.0.
    """
    if len(source_tags) != len(labeling.labels):
        raise ValueError(
            f"labeling covers {len(labeling.labels)} points but got {len(source_tags)} tags"
        )
    clusters_by_source: dict[str, set[int]] = {tag: set() for tag in source_tags}
    cluster_count = labeling.num_clusters
    for label, tag in zip(labeling.labels, source_tags):
        if label != NOISE:
            clusters_by_source[tag].add(label)
    return {
        tag: (100.0 * len(hit) / cluster_count if cluster_count else 0.0)
        for tag, hit in sorted(clusters_by_source.items())
    }
