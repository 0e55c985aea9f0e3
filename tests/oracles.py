"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way on purpose: textbook
algorithms, exhaustive pair counting, full DP tables, central finite
differences.  None of it shares code with the package under test.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from decimal import Decimal

import numpy as np


def naive_distance_matrix(matrix: np.ndarray) -> np.ndarray:
    """O(n^2) cosine distances via per-pair dot products, no shortcuts."""
    n = matrix.shape[0]
    distance = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            d = 1.0 - float(np.dot(matrix[i], matrix[j]))
            distance[i, j] = d
            distance[j, i] = d
    return distance


def naive_neighbor_lists(distance: np.ndarray, eps: float) -> list[list[int]]:
    return [
        [int(j) for j in np.nonzero(distance[i] <= eps)[0]]
        for i in range(distance.shape[0])
    ]


def naive_dbscan_from_neighbors(
    neighbors: list[list[int]], min_pts: int
) -> tuple[list[int], int]:
    """Textbook DBSCAN given precomputed inclusive neighborhoods.

    Index-order outer loop, FIFO expansion, unconditional enqueue of a
    core point's whole neighborhood.  Returns (labels, num_clusters)
    with -1 for noise.
    """
    n = len(neighbors)
    labels = [-1] * n
    visited = [False] * n
    cluster = -1
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        if len(neighbors[i]) < min_pts:
            continue
        cluster += 1
        labels[i] = cluster
        queue = deque(j for j in neighbors[i] if j != i)
        while queue:
            j = queue.popleft()
            if labels[j] == -1:
                labels[j] = cluster
            if visited[j]:
                continue
            visited[j] = True
            if len(neighbors[j]) >= min_pts:
                queue.extend(neighbors[j])
    return labels, cluster + 1


def naive_dbscan(matrix: np.ndarray, eps: float, min_pts: int) -> tuple[list[int], int]:
    """Textbook DBSCAN over unit row vectors with cosine distance."""
    distance = naive_distance_matrix(matrix)
    return naive_dbscan_from_neighbors(naive_neighbor_lists(distance, eps), min_pts)


def full_sort_rank(positive_score: float, negative_scores: list[float]) -> int:
    """Rank of the positive after a full descending sort.

    Ties are pessimistic: a negative with an equal score sorts ahead of
    the positive.
    """
    entries = [(score, 0) for score in negative_scores] + [(positive_score, 1)]
    entries.sort(key=lambda entry: (-entry[0], entry[1]))
    return entries.index((positive_score, 1)) + 1


def mrr_from_ranks(ranks: list[int], k: int) -> float:
    total = 0.0
    for rank in ranks:
        if rank <= k:
            total += 1.0 / rank
    return 100.0 * total / len(ranks)


def top_from_ranks(ranks: list[int], k: int) -> float:
    return 100.0 * sum(1 for rank in ranks if rank <= k) / len(ranks)


def pair_count_auc(positive_scores, negative_scores) -> float:
    """Exhaustive Mann-Whitney statistic: wins + half-ties over all pairs."""
    wins = 0.0
    for p in positive_scores:
        for n in negative_scores:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(positive_scores) * len(negative_scores))


def lcs_table(a, b) -> int:
    """Longest common subsequence length via the full DP table."""
    rows, cols = len(a), len(b)
    table = [[0] * (cols + 1) for _ in range(rows + 1)]
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[rows][cols]


def rouge_scores(a, b) -> tuple[float, float, float]:
    """(precision, recall, f1) computed straight from the definitions."""
    if not a or not b:
        return 0.0, 0.0, 0.0
    lcs = lcs_table(a, b)
    if lcs == 0:
        return 0.0, 0.0, 0.0
    precision = lcs / len(b)
    recall = lcs / len(a)
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def central_difference_gradient(function, point: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Per-coordinate central finite differences of a scalar function."""
    point = np.asarray(point, dtype=np.float64)
    gradient = np.zeros_like(point)
    flat = gradient.reshape(-1)
    flat_point = point.reshape(-1)
    for index in range(flat_point.size):
        saved = flat_point[index]
        flat_point[index] = saved + step
        upper = function(point)
        flat_point[index] = saved - step
        lower = function(point)
        flat_point[index] = saved
        flat[index] = (upper - lower) / (2.0 * step)
    return gradient


def naive_mine_negatives(
    query_index: int,
    embeddings: np.ndarray,
    n: int,
    positive_index: int | None = None,
) -> list[int]:
    """Full sort by (similarity, index) ascending, then take the first n."""
    scored = []
    for i in range(embeddings.shape[0]):
        if i == query_index or i == positive_index:
            continue
        scored.append((float(np.dot(embeddings[i], embeddings[query_index])), i))
    scored.sort()
    return [i for _, i in scored[:n]]


def hash3_embed(texts, dim: int) -> np.ndarray:
    """Hashed character trigrams, one gram at a time: each gram of the
    lowercased, whitespace-collapsed text (its trigrams, or the whole of
    a 1-2 character text) adds or subtracts 1.0 at the coordinate its
    blake2b digest picks."""

    def embed_one(text: str) -> np.ndarray:
        canonical = " ".join(text.lower().split())
        if not canonical:
            raise ValueError("cannot embed blank text")
        if len(canonical) < 3:
            grams = [canonical]
        else:
            grams = [canonical[i:i + 3] for i in range(len(canonical) - 2)]
        vector = np.zeros(dim, dtype=np.float64)
        for gram in grams:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            index = int.from_bytes(digest[:4], "little") % dim
            sign = 1.0 if digest[4] & 1 else -1.0
            vector[index] += sign
        return vector

    return np.stack([embed_one(t) for t in texts])


def clustered_unit_vectors(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Random unit vectors with genuine density structure.

    A few tight blobs around random centers plus a uniform background,
    so DBSCAN at small cosine radii has real clusters to find.
    """
    centers = rng.normal(size=(max(2, n // 30), dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = []
    for _ in range(n):
        if rng.random() < 0.7:
            center = centers[rng.integers(len(centers))]
            spread = rng.choice([0.05, 0.15, 0.4])
            row = center + spread * rng.normal(size=dim)
        else:
            row = rng.normal(size=dim)
        norm = np.linalg.norm(row)
        if norm == 0.0:
            row = np.ones(dim)
            norm = np.linalg.norm(row)
        rows.append(row / norm)
    return np.asarray(rows)


def fit_multinomial_reference(
    features: np.ndarray,
    class_indices: np.ndarray,
    num_classes: int,
    l2: float,
    learning_rate: float,
    iterations: int,
) -> np.ndarray:
    """One grid entry's full-batch gradient descent on the multinomial
    cross-entropy, alone: (d+1, C) weights, bias in the last row and
    never penalized."""

    def softmax_rows(logits: np.ndarray) -> np.ndarray:
        shift = logits.max(axis=1, keepdims=True)
        exp = np.exp(logits - shift)
        return exp / exp.sum(axis=1, keepdims=True)

    n = features.shape[0]
    design = np.hstack([features, np.ones((n, 1))])
    weights = np.zeros((design.shape[1], num_classes))
    one_hot = np.zeros((n, num_classes))
    one_hot[np.arange(n), class_indices] = 1.0
    for _ in range(int(iterations)):
        probabilities = softmax_rows(design @ weights)
        gradient = design.T @ (probabilities - one_hot) / n
        gradient[:-1] += l2 * weights[:-1]
        weights = weights - learning_rate * gradient
    return weights


def logreg_probe_reference(
    train_x: np.ndarray,
    train_labels,
    test_x: np.ndarray,
    test_labels,
    hyper_grid,
    rng,
) -> tuple[np.ndarray, float]:
    """The classification probe one grid entry at a time: shuffle, hold
    out 20% for validation, fit every entry on the rest, keep the first
    entry of best validation accuracy, refit it on all training rows and
    return (weights, test accuracy in percent)."""

    def predict(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
        design = np.hstack([features, np.ones((features.shape[0], 1))])
        return np.argmax(design @ weights, axis=1)

    classes = sorted(set(train_labels))
    index = {label: i for i, label in enumerate(classes)}
    train_y = np.asarray([index[label] for label in train_labels])
    test_y = np.asarray([index[label] for label in test_labels])
    order = list(range(train_x.shape[0]))
    rng.shuffle(order)
    val_count = max(1, round(0.2 * len(order)))
    val_idx, fit_idx = order[:val_count], order[val_count:]
    best_accuracy, best_hyper = -1.0, None
    for hyper in hyper_grid:
        weights = fit_multinomial_reference(
            train_x[fit_idx], train_y[fit_idx], len(classes),
            hyper["l2"], hyper["learning_rate"], hyper["iterations"],
        )
        accuracy = float(np.mean(predict(weights, train_x[val_idx]) == train_y[val_idx]))
        if accuracy > best_accuracy:
            best_accuracy, best_hyper = accuracy, hyper
    weights = fit_multinomial_reference(
        train_x, train_y, len(classes),
        best_hyper["l2"], best_hyper["learning_rate"], best_hyper["iterations"],
    )
    return weights, 100.0 * float(np.mean(predict(weights, test_x) == test_y))


def midrank_auc(positive_scores, negative_scores) -> float:
    """Mann-Whitney AUC from midranks, each tie group found by walking
    the stably sorted scores one element at a time."""
    positives = np.asarray(positive_scores, dtype=np.float64)
    negatives = np.asarray(negative_scores, dtype=np.float64)
    combined = np.concatenate([positives, negatives])
    order = np.argsort(combined, kind="mergesort")
    sorted_values = combined[order]
    midranks = np.empty(combined.size, dtype=np.float64)
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        midranks[order[i:j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    rank_sum = float(np.sum(midranks[: positives.size]))
    wins = rank_sum - positives.size * (positives.size + 1) / 2.0
    return wins / (positives.size * negatives.size)


def naive_gene_pool_auc(techniques, vectors, rate, mode: str) -> float:
    """Gene-pool detection AUC from one dot product per pair.

    ``techniques`` lists (technique id, commands); ``vectors`` maps each
    command to its unit embedding.  A technique of 9 or more commands
    pools its first ceil(rate% of its size) commands, the rate read as
    the decimal it prints as.  Its other commands are positives, every
    command of every other technique is a negative, and each scores its
    largest dot product with a pool command.  ``concatenated`` counts the
    pairs of all techniques at once; ``averaged`` means the per-technique
    AUCs.
    """
    positives, negatives, aucs = [], [], []
    for index, (_, commands) in enumerate(techniques):
        if len(commands) < 9:
            continue
        pool_size = math.ceil(Decimal(repr(float(rate))) * len(commands) / 100)
        pool = [vectors[command] for command in commands[:pool_size]]

        def score(command):
            return max(float(np.dot(vectors[command], member)) for member in pool)

        own = [score(command) for command in commands[pool_size:]]
        others = [score(command) for other, (_, rest) in enumerate(techniques)
                  if other != index for command in rest]
        positives += own
        negatives += others
        aucs.append(pair_count_auc(own, others))
    if mode == "concatenated":
        return pair_count_auc(positives, negatives)
    return sum(aucs) / len(aucs)
