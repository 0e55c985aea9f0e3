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

import logging
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .embedding import similarities

logger = logging.getLogger(__name__)

# Edge of the square similarity tiles that dbscan computes: a 256 x 256
# float64 tile is 512 KiB, and BLAS runs near full speed on it.
TILE = 256

# Similarities per mine_negatives call that callers aim for: 2**15
# float64 is 256 KiB.  A call takes at least NEGATIVES_MIN_QUERIES
# queries, so that on a large corpus one GEMM reads the matrix once for
# that many queries rather than once per query.
NEGATIVES_BLOCK = 2**15
NEGATIVES_MIN_QUERIES = 16


def query_blocks(count: int) -> list[range]:
    """Consecutive blocks of ``range(count)``, one per mine_negatives call, of
    max(NEGATIVES_MIN_QUERIES, NEGATIVES_BLOCK // count) queries, the last
    one shorter."""
    step = max(NEGATIVES_MIN_QUERIES, NEGATIVES_BLOCK // count)
    return [range(start, min(start + step, count)) for start in range(0, count, step)]


@dataclass(frozen=True)
class DbscanParams:
    """eps is a cosine-distance radius; neighborhoods are inclusive
    (distance <= eps)."""

    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be finite and positive")
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
    discovery order.  A row with a NaN or infinite value is an error.

    All neighbour lists are built up front by ``_neighbour_lists``, one
    pass over the ``similarities`` tiles of the matrix on or above the
    diagonal (about n^2 d / 2 multiply-adds).  Rows i <= j are neighbours
    when the entry of i's row and j's column in the tile that holds it is
    >= 1 - eps, so the lists are symmetric, as DBSCAN assumes, and depend on
    the BLAS build but not on its thread count.  Extra memory is
    O(tile^2 + neighbour pairs).
    """
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.size == 0:
        return ClusterLabeling(labels=(), num_clusters=0)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix of row vectors, got shape {matrix.shape}")
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} has a non-finite value")
    n = matrix.shape[0]
    indptr, indices = _neighbour_lists(matrix, 1.0 - params.eps)
    # Only core points expand, and a point outside every cluster so far
    # joins the first cluster that reaches it, so claiming it there, once,
    # gives the labels of the textbook FIFO, whose later copies of a point
    # change nothing.  A non-core point visited in index order stays noise
    # until claimed either way, so it needs no mark of its own.
    core = (np.diff(indptr) >= params.min_pts).tolist()
    bounds = indptr.tolist()
    labels = [NOISE] * n
    next_cluster = 0
    for start in range(n):
        if not core[start] or labels[start] != NOISE:
            continue
        cluster = next_cluster
        next_cluster += 1
        labels[start] = cluster
        queue = deque([start])
        while queue:
            point = queue.popleft()
            for j in indices[bounds[point]:bounds[point + 1]].tolist():
                if labels[j] == NOISE:
                    labels[j] = cluster
                    if core[j]:
                        queue.append(j)
    logger.info(
        "dbscan: %d points, %d clusters, %d noise, %d neighbour pairs",
        n, next_cluster, labels.count(NOISE), len(indices),
    )
    return ClusterLabeling(labels=tuple(labels), num_clusters=next_cluster)


def _neighbour_lists(matrix: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Every row's inclusive neighbour list, as CSR.

    Row i's list is ``indices[indptr[i]:indptr[i + 1]]``, ascending.  Rows
    i <= j, in tiles starting at rows ``top`` and ``left``, are neighbours
    when entry (i - top, j - left) of ``similarities(matrix[left:left +
    TILE], matrix[top:top + TILE])`` is >= threshold.  One entry decides
    each pair, so the lists are symmetric.
    """
    n = matrix.shape[0]
    # Pair (i, j) is the key i * n + j, kept in the bucket of i's row
    # block, so sorting a bucket puts its lists in row order, each
    # ascending.
    buckets: list[list[np.ndarray]] = [[] for _ in range(0, n, TILE)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices: list[np.ndarray] = []
    for top in range(0, n, TILE):
        block = matrix[top:top + TILE]
        for left in range(top, n, TILE):
            other = matrix[left:left + TILE]
            hits = similarities(other, block) >= threshold
            if left == top:
                hits = np.triu(hits)
            r, c = np.divmod(np.flatnonzero(hits), len(other))
            r, c = top + r, left + c
            mirror = r != c
            buckets[top // TILE].append(r * n + c)
            buckets[left // TILE].append(c[mirror] * n + r[mirror])
        # Every tile that holds a row of this block is done, so the
        # block's lists are final.
        pairs = np.concatenate(buckets[top // TILE])
        buckets[top // TILE] = []
        pairs.sort()
        indptr[top + 1:top + len(block) + 1] = np.bincount(pairs // n - top, minlength=len(block))
        indices.append(np.remainder(pairs, n, out=pairs).astype(np.int32))
    return np.cumsum(indptr), np.concatenate(indices)


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


def check_negatives(
    count: int,
    queries: Sequence[int],
    n: int,
    positives: Sequence[int | None] | None = None,
) -> None:
    """Raise ``ValueError`` unless every query of a corpus of ``count``
    rows can get ``n`` negatives.  ``positives[r]``, when given, is the
    positive of ``queries[r]``; a query is named as the record it is."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for r, query in enumerate(queries):
        if not 0 <= query < count:
            raise ValueError(f"query {query} outside corpus of {count}")
        positive = None if positives is None else positives[r]
        if positive is not None and not 0 <= positive < count:
            raise ValueError(f"record {query}: positive_id {positive} outside corpus of {count}")
        available = count - (1 if positive is None or positive == query else 2)
        if n > available:
            raise ValueError(
                f"record {query}: requested {n} negatives but only {available} candidates exist"
            )


def mine_negatives(
    queries: Sequence[int],
    embeddings: np.ndarray,
    n: int = 1000,
    positives: Sequence[int | None] | None = None,
) -> np.ndarray:
    """Row r: the n corpus indices least cosine-similar to ``queries[r]``.

    Excludes the query itself and, when given, its positive
    ``positives[r]``.  Each row is in ascending-similarity order; equal
    similarities break toward the smaller index.  Row r's similarities,
    and so its ties, are row r of :func:`~cmdsim.embedding.similarities`
    of the corpus and the queries' rows; a row can differ in the last bit
    from the same query's in a block of another size.  The result
    depends on the input, the block and the BLAS build.

    Returns a ``(len(queries), n)`` integer array.  Holds one
    ``len(queries) x N`` block of similarities and its partitioned copy,
    so callers pass the blocks of :func:`query_blocks`.  Cost:
    O(len(queries)*N*d) in matrix products that read the corpus once per
    block, then O(N + n log n) per query to select and order the n
    smallest.
    """
    matrix = np.asarray(embeddings, dtype=np.float64)
    check_negatives(matrix.shape[0], queries, n, positives)
    rows = np.asarray(queries, dtype=np.intp)
    block = similarities(matrix, matrix[rows])
    block[np.arange(len(rows)), rows] = np.inf
    if positives is not None:
        given = [r for r, positive in enumerate(positives) if positive is not None]
        block[given, [positives[r] for r in given]] = np.inf
    # n <= available keeps each cut finite, so no excluded point is in
    # a head; a head holds every point tied with its cut, in index
    # order, and a stable sort of it is the (similarity, index) order.
    cuts = np.partition(block, n - 1, axis=1)[:, n - 1]
    negatives = np.empty((len(queries), n), dtype=np.intp)
    for r, (row, cut) in enumerate(zip(block, cuts)):
        head = np.flatnonzero(row <= cut)
        negatives[r] = head[np.argsort(row[head], kind="stable")[:n]]
    return negatives


def cluster_coverage(
    labeling: ClusterLabeling,
    source_tags: Sequence[str],
) -> dict[str, float]:
    """Percentage of non-noise clusters containing each source, keyed by
    source in sorted order.  With zero clusters every rate is 0.0.
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
