"""Density clustering, cluster dedup, negative mining, coverage."""

from __future__ import annotations

import numpy as np
import pytest

from cmdsim.clustering import (
    NOISE,
    ClusterLabeling,
    DbscanParams,
    cluster_coverage,
    dbscan,
    dedup_by_clusters,
    mine_negatives,
)
from cmdsim.embedding import HashingEmbeddingBackend, embed_batch

from oracles import clustered_unit_vectors, naive_dbscan, naive_mine_negatives


def unit_rows(rows) -> np.ndarray:
    matrix = np.asarray(rows, dtype=np.float64)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


class TestDbscanParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DbscanParams(eps=0.0, min_pts=5)
        with pytest.raises(ValueError):
            DbscanParams(eps=0.1, min_pts=0)


class TestClusterLabeling:
    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            ClusterLabeling(labels=(0, 3), num_clusters=2)


class TestDbscan:
    def test_empty(self):
        labeling = dbscan(np.zeros((0, 4)), DbscanParams(eps=0.1, min_pts=2))
        assert labeling.labels == ()
        assert labeling.num_clusters == 0

    def test_all_identical_points(self):
        matrix = unit_rows([[1.0, 0.0]] * 5)
        labeling = dbscan(matrix, DbscanParams(eps=0.05, min_pts=5))
        assert labeling.labels == (0, 0, 0, 0, 0)
        assert labeling.num_clusters == 1

    def test_min_pts_counts_the_point_itself(self):
        matrix = unit_rows([[1.0, 0.0]] * 4)
        labeling = dbscan(matrix, DbscanParams(eps=0.05, min_pts=5))
        assert labeling.labels == (NOISE,) * 4

    def test_two_separated_groups(self):
        matrix = unit_rows([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
        labeling = dbscan(matrix, DbscanParams(eps=0.1, min_pts=3))
        assert labeling.labels == (0, 0, 0, 1, 1, 1)

    def test_inclusive_radius(self):
        # Two unit vectors at cosine distance exactly eps are neighbors.
        eps = 0.5
        angle = np.arccos(1.0 - eps)
        matrix = np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)]])
        labeling = dbscan(matrix, DbscanParams(eps=eps, min_pts=2))
        assert labeling.num_clusters == 1

    def test_border_point_goes_to_first_cluster(self):
        # Dense blobs at +x and +y; a lone border point between them is
        # density-reachable from both but must join the first-discovered
        # cluster.
        blob_a = [[1.0, 0.0]] * 4
        blob_b = [[0.0, 1.0]] * 4
        border = [[np.cos(np.pi / 4), np.sin(np.pi / 4)]]
        matrix = unit_rows(blob_a + blob_b + border)
        params = DbscanParams(eps=0.30, min_pts=4)
        labeling = dbscan(matrix, params)
        reference_labels, reference_count = naive_dbscan(matrix, params.eps, params.min_pts)
        assert list(labeling.labels) == reference_labels
        assert labeling.labels[-1] == 0

    def test_requires_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            dbscan(np.ones(4), DbscanParams(eps=0.1, min_pts=2))

    @pytest.mark.parametrize("eps", [0.05, 0.08, 0.2])
    @pytest.mark.parametrize("min_pts", [2, 5])
    def test_matches_naive_reference(self, eps, min_pts):
        rng = np.random.default_rng(hash((eps, min_pts)) % 2**32)
        for _ in range(8):
            matrix = clustered_unit_vectors(rng, int(rng.integers(20, 120)), 6)
            ours = dbscan(matrix, DbscanParams(eps=eps, min_pts=min_pts))
            reference_labels, reference_count = naive_dbscan(matrix, eps, min_pts)
            assert list(ours.labels) == reference_labels
            assert ours.num_clusters == reference_count


class TestDedupByClusters:
    def test_keeps_two_per_cluster_and_all_noise(self):
        labeling = ClusterLabeling(
            labels=(0, 0, 0, NOISE, 1, 1, NOISE, 0), num_clusters=2
        )
        kept = dedup_by_clusters(list("abcdefgh"), labeling, keep_per_cluster=2)
        assert kept == [0, 1, 3, 4, 5, 6]

    def test_keep_one(self):
        labeling = ClusterLabeling(labels=(0, 0, 1, 1), num_clusters=2)
        assert dedup_by_clusters(list("abcd"), labeling, keep_per_cluster=1) == [0, 2]

    def test_length_mismatch(self):
        labeling = ClusterLabeling(labels=(0,), num_clusters=1)
        with pytest.raises(ValueError):
            dedup_by_clusters(["a", "b"], labeling)

    def test_keep_validation(self):
        labeling = ClusterLabeling(labels=(0,), num_clusters=1)
        with pytest.raises(ValueError):
            dedup_by_clusters(["a"], labeling, keep_per_cluster=0)

    def test_exact_survivor_count(self):
        rng = np.random.default_rng(5)
        matrix = clustered_unit_vectors(rng, 150, 5)
        labeling = dbscan(matrix, DbscanParams(eps=0.2, min_pts=3))
        kept = dedup_by_clusters(list(range(150)), labeling, keep_per_cluster=2)
        noise = sum(1 for label in labeling.labels if label == NOISE)
        expected = noise + sum(
            min(labeling.labels.count(c), 2) for c in range(labeling.num_clusters)
        )
        assert len(kept) == expected
        assert kept == sorted(kept)


class TestMineNegatives:
    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            count = int(rng.integers(5, 40))
            matrix = clustered_unit_vectors(rng, count, 4)
            query = int(rng.integers(count))
            positive = int(rng.integers(count))
            if positive == query:
                positive = None
            n = int(rng.integers(1, count - (2 if positive is not None else 1)))
            ours = mine_negatives(query, matrix, n, positive_index=positive)
            reference = naive_mine_negatives(query, matrix, n, positive)
            assert ours == reference
            assert len(ours) == n
            assert query not in ours
            if positive is not None:
                assert positive not in ours

    def test_least_similar_first(self):
        matrix = unit_rows([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [0.0, 1.0]])
        assert mine_negatives(0, matrix, 3) == [2, 3, 1]

    def test_all_remaining_when_n_equals_available(self):
        matrix = unit_rows([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.5, 0.5]])
        result = mine_negatives(0, matrix, 2, positive_index=1)
        assert sorted(result) == [2, 3]

    def test_too_many_requested(self):
        matrix = unit_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="only 1 candidates exist"):
            mine_negatives(0, matrix, 2)

    def test_bad_indices(self):
        matrix = unit_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            mine_negatives(5, matrix, 1)
        with pytest.raises(ValueError):
            mine_negatives(0, matrix, 1, positive_index=9)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        matrix = unit_rows([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        with pytest.raises(ValueError, match="n must be >= 1"):
            mine_negatives(0, matrix, n)

    def test_tie_heavy_corpus_matches_sort_of_computed_vector(self):
        # Few distinct texts, so every query has long runs of exactly
        # equal similarities for the tie rule to order.
        rng = np.random.default_rng(29)
        distinct = [f"copies archive {i % 7} onto share {i % 5} nightly" for i in range(25)]
        texts = [distinct[int(rng.integers(len(distinct)))] for _ in range(300)]
        matrix = embed_batch(HashingEmbeddingBackend(64), texts)
        count = len(texts)
        for _ in range(40):
            query = int(rng.integers(count))
            positive = int(rng.integers(count)) if rng.random() < 0.7 else None
            sims = matrix @ matrix[query]
            candidates = [i for i in range(count) if i not in (query, positive)]
            reference = sorted(candidates, key=lambda i: (sims[i], i))
            # n = p puts the cut between two equal similarities.
            tied = [p for p in range(1, len(reference))
                    if sims[reference[p - 1]] == sims[reference[p]]]
            sizes = {len(reference), int(rng.integers(1, len(reference) + 1)),
                     tied[int(rng.integers(len(tied)))]}
            for n in sizes:
                assert mine_negatives(query, matrix, n, positive_index=positive) == reference[:n]


class TestClusterCoverage:
    def test_hand_case(self):
        labeling = ClusterLabeling(
            labels=(0, 0, 1, 1, 2, NOISE), num_clusters=3
        )
        tags = ["red", "blue", "red", "red", "blue", "red"]
        rates = cluster_coverage(labeling, tags)
        # red reaches clusters {0, 1}; blue reaches {0, 2}; noise ignored.
        assert rates == {
            "blue": pytest.approx(200.0 / 3.0),
            "red": pytest.approx(200.0 / 3.0),
        }

    def test_pooled_tag_hits_everything(self):
        labeling = ClusterLabeling(labels=(0, 1, 1, NOISE), num_clusters=2)
        rates = cluster_coverage(labeling, ["pool"] * 4)
        assert rates == {"pool": 100.0}

    def test_zero_clusters(self):
        labeling = ClusterLabeling(labels=(NOISE, NOISE), num_clusters=0)
        assert cluster_coverage(labeling, ["a", "b"]) == {"a": 0.0, "b": 0.0}

    def test_length_mismatch(self):
        labeling = ClusterLabeling(labels=(0,), num_clusters=1)
        with pytest.raises(ValueError):
            cluster_coverage(labeling, ["a", "b"])
