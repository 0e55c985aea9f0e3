"""Density clustering, cluster dedup, negative mining, coverage."""

from __future__ import annotations

import numpy as np
import pytest

from cmdsim import clustering, embedding
from cmdsim.clustering import (
    NEGATIVES_BLOCK,
    NEGATIVES_MIN_QUERIES,
    NOISE,
    TILE,
    ClusterLabeling,
    DbscanParams,
    cluster_coverage,
    dbscan,
    dedup_by_clusters,
    mine_negatives,
    query_blocks,
    _neighbour_lists,
)
from cmdsim.embedding import NEGATIVES_SLICE, HashingEmbeddingBackend, embed_batch, similarities

from oracles import (
    clustered_unit_vectors,
    naive_dbscan,
    naive_dbscan_from_neighbors,
    naive_mine_negatives,
)


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


def matvec_neighbour_lists(matrix: np.ndarray, eps: float) -> list[list[int]]:
    """The reference lists: one mat-vec per row, inclusive radius."""
    return [np.flatnonzero(matrix @ matrix[i] >= 1.0 - eps).tolist() for i in range(len(matrix))]


def assert_matches_matvec_reference(matrix: np.ndarray, eps: float, min_pts: int) -> int:
    """Check the tiled lists and the labeling against the per-row
    mat-vec reference; returns the number of rows recomputed."""
    reference = matvec_neighbour_lists(matrix, eps)
    indptr, indices, recomputed = _neighbour_lists(matrix, 1.0 - eps)
    assert indices.dtype == np.int32
    assert [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(len(matrix))] == reference
    labels, count = naive_dbscan_from_neighbors(reference, min_pts)
    ours = dbscan(matrix, DbscanParams(eps=eps, min_pts=min_pts))
    assert list(ours.labels) == labels
    assert ours.num_clusters == count
    return recomputed


class TestDbscanTiles:
    @pytest.mark.parametrize("n", [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3])
    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_tile_edges_and_mirror(self, n, eps):
        rng = np.random.default_rng(n)
        assert_matches_matvec_reference(clustered_unit_vectors(rng, n, 6), eps, min_pts=3)

    def test_exact_duplicates_across_tiles(self):
        rng = np.random.default_rng(11)
        matrix = clustered_unit_vectors(rng, 2 * TILE + 3, 8)
        # Rows 10..19 repeat rows 0..9 inside tile 0, and row i + TILE
        # repeats row i across an off-diagonal tile.
        matrix[10:20] = matrix[:10]
        matrix[TILE:2 * TILE] = matrix[:TILE]
        assert_matches_matvec_reference(matrix, 0.05, min_pts=2)
        assert_matches_matvec_reference(matrix, 1e-12, min_pts=2)

    @pytest.mark.parametrize("j", [6, TILE + 40])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_pair_at_the_threshold_is_recomputed(self, j, ulps):
        rng = np.random.default_rng(j)
        matrix = clustered_unit_vectors(rng, TILE + 60, 16)
        matrix[j] = matrix[5] + 0.3 * rng.normal(size=16)
        matrix[j] /= np.linalg.norm(matrix[j])
        similarity = (matrix @ matrix[5])[j]
        assert 0.5 <= similarity < 1.0
        # 1 - s is exact for s in [0.5, 1], so the threshold 1 - eps is
        # the computed similarity itself, or one ulp away from it.
        threshold = similarity
        for _ in range(abs(ulps)):
            threshold = np.nextafter(threshold, 2.0 if ulps > 0 else 0.0)
        eps = 1.0 - threshold
        assert 1.0 - eps == threshold
        assert (j in matvec_neighbour_lists(matrix, eps)[5]) == (ulps <= 0)
        # Exactly rows 5 and j: for j in another tile, j is marked as a column.
        assert assert_matches_matvec_reference(matrix, eps, min_pts=2) == 2

    @pytest.mark.parametrize("min_pts", [1, 2, 3, 5])
    def test_chains_border_points_and_noise_starts(self, min_pts):
        # Points on an arc: chains of core points, border points that two
        # clusters reach, and points visited as noise before a later
        # cluster claims them.  Each point joins the first cluster that
        # reaches it, whatever order its claims are made in.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            angles = rng.uniform(0.0, 3.0, size=60)
            matrix = np.column_stack([np.cos(angles), np.sin(angles)])
            assert_matches_matvec_reference(matrix, 1.0 - np.cos(0.06), min_pts)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_underflowing_and_overflowing_rows(self, scale):
        # Finite rows whose products underflow to subnormals or zero, or
        # overflow to inf and, summed with -inf, to NaN.
        rng = np.random.default_rng(3)
        matrix = scale * np.vstack([clustered_unit_vectors(rng, 40, 4), [[1.0, -1.0, 0.0, 0.0]] * 3])
        with np.errstate(over="ignore", invalid="ignore"):
            for eps in (0.5, 1.0, 1.5):
                assert_matches_matvec_reference(matrix, eps, min_pts=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        matrix = np.array([[1.0, 0.0]] * 5 + [[bad, 0.0], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="row 5 has a non-finite value"):
            dbscan(matrix, DbscanParams(eps=0.05, min_pts=3))

    def test_logs_counts(self, caplog):
        matrix = unit_rows([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3 + [[-1.0, 0.0]])
        with caplog.at_level("INFO", logger="cmdsim.clustering"):
            dbscan(matrix, DbscanParams(eps=0.1, min_pts=3))
        assert caplog.messages == [
            "dbscan: 7 points, 2 clusters, 1 noise, 19 neighbour pairs, "
            "0 rows recomputed in the band"
        ]


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
    def test_query_blocks_leave_no_lone_query(self):
        # The blocks tile range(count) in order, each of the step of
        # max(NEGATIVES_MIN_QUERIES, NEGATIVES_BLOCK // count) queries but
        # the last, which takes 1 to step.
        for count in range(2, 5001):
            step = max(NEGATIVES_MIN_QUERIES, NEGATIVES_BLOCK // count)
            blocks = query_blocks(count)
            assert blocks[0].start == 0 and blocks[-1].stop == count
            assert all(a.stop == b.start and b.step == 1 for a, b in zip(blocks, blocks[1:]))
            assert {len(block) for block in blocks[:-1]} <= {step}
            assert 1 <= len(blocks[-1]) <= step
        assert query_blocks(1) == [range(1)]

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
            ours = mine_negatives([query], matrix, n, [positive])[0].tolist()
            reference = naive_mine_negatives(query, matrix, n, positive)
            assert ours == reference
            assert len(ours) == n
            assert query not in ours
            if positive is not None:
                assert positive not in ours

    def test_least_similar_first(self):
        matrix = unit_rows([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [0.0, 1.0]])
        assert mine_negatives([0], matrix, 3).tolist() == [[2, 3, 1]]

    def test_all_remaining_when_n_equals_available(self):
        matrix = unit_rows([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.5, 0.5]])
        result = mine_negatives([0], matrix, 2, [1])[0].tolist()
        assert sorted(result) == [2, 3]

    def test_too_many_requested(self):
        matrix = unit_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="only 1 candidates exist"):
            mine_negatives([0], matrix, 2)

    def test_bad_indices(self):
        matrix = unit_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            mine_negatives([5], matrix, 1)
        with pytest.raises(ValueError):
            mine_negatives([0], matrix, 1, [9])

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        matrix = unit_rows([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        with pytest.raises(ValueError, match="n must be >= 1"):
            mine_negatives([0], matrix, n)

    def test_tie_heavy_corpus_matches_sort_of_computed_vector(self):
        # Few distinct texts, so every query has long runs of exactly
        # equal similarities for the tie rule to order.  A lone query's
        # similarities are the helper's doubled-operand product, which
        # rounds unlike numpy's matrix-vector product.
        rng = np.random.default_rng(29)
        distinct = [f"copies archive {i % 7} onto share {i % 5} nightly" for i in range(25)]
        texts = [distinct[int(rng.integers(len(distinct)))] for _ in range(300)]
        matrix = embed_batch(HashingEmbeddingBackend(64), texts)
        count = len(texts)
        for _ in range(40):
            query = int(rng.integers(count))
            positive = int(rng.integers(count)) if rng.random() < 0.7 else None
            sims = similarities(matrix, matrix[[query]])[0]
            candidates = [i for i in range(count) if i not in (query, positive)]
            reference = sorted(candidates, key=lambda i: (sims[i], i))
            # n = p puts the cut between two equal similarities.
            tied = [p for p in range(1, len(reference))
                    if sims[reference[p - 1]] == sims[reference[p]]]
            sizes = {len(reference), int(rng.integers(1, len(reference) + 1)),
                     tied[int(rng.integers(len(tied)))]}
            for n in sizes:
                assert mine_negatives([query], matrix, n, [positive])[0].tolist() == reference[:n]

    @pytest.mark.parametrize("n", [7, 298])
    def test_blocks_of_a_tie_heavy_corpus_match_the_oracle(self, n):
        # Small-integer rows: every dot product is exact in any summation
        # order, so the per-pair oracle sees the very ties the mat-vec
        # does, and most similarities are tied.  n = 298 is every
        # candidate of a query with a positive of its own.
        rng = np.random.default_rng(31)
        count = 300
        matrix = rng.integers(-2, 3, size=(count, 4)).astype(np.float64)
        positives = [int(p) if rng.random() < 0.8 else None for p in rng.integers(count, size=count)]
        step = NEGATIVES_BLOCK // count
        assert 1 < step < count and count % step, "several blocks, the last one short"
        ours = np.concatenate([
            mine_negatives(range(top, min(top + step, count)), matrix, n, positives[top:top + step])
            for top in range(0, count, step)
        ])
        assert ours.shape == (count, n)
        for query, row in enumerate(ours.tolist()):
            assert row == naive_mine_negatives(query, matrix, n, positives[query])

    @pytest.mark.parametrize("size", [2, 5, 16])
    @pytest.mark.parametrize("slice_rows", [NEGATIVES_SLICE, 128])
    def test_rows_are_the_sort_of_their_blocks_product(self, monkeypatch, size, slice_rows):
        # The contract: row r's similarities are column r of the products
        # matrix[s] @ matrix[block].T over slices s of the corpus (one
        # slice, or three).  Few distinct texts give long runs of equal
        # similarities, and n sits at a tie as well as off one.
        monkeypatch.setattr(embedding, "NEGATIVES_SLICE", slice_rows)
        rng = np.random.default_rng(37 + size)
        distinct = [f"copies archive {i % 7} onto share {i % 5} nightly" for i in range(25)]
        texts = [distinct[int(rng.integers(len(distinct)))] for _ in range(300)]
        matrix = embed_batch(HashingEmbeddingBackend(64), texts)
        count = len(texts)
        for _ in range(6):
            block = rng.choice(count, size=size, replace=False).tolist()
            positives = [int(p) if rng.random() < 0.7 else None for p in rng.integers(count, size=size)]
            sims = np.concatenate([matrix[top:top + slice_rows] @ matrix[block].T
                                   for top in range(0, count, slice_rows)]).T
            references = [
                sorted((i for i in range(count) if i not in (query, positive)),
                       key=lambda i, r=r: (sims[r, i], i))
                for r, (query, positive) in enumerate(zip(block, positives))
            ]
            first = references[0]
            tied = [p for p in range(1, len(first)) if sims[0, first[p - 1]] == sims[0, first[p]]]
            assert tied, "a tie-heavy corpus"
            for n in {tied[int(rng.integers(len(tied)))], int(rng.integers(1, 298)), 298}:
                ours = mine_negatives(block, matrix, n, positives).tolist()
                assert ours == [reference[:n] for reference in references]

    def test_blocks_of_near_duplicates_agree_with_the_oracle_within_rounding(self):
        # Near-duplicate texts give similarities equal in exact arithmetic,
        # which a GEMM row and the oracle's per-pair dot can round an ulp
        # apart, and so order differently.  Positions are compared by
        # similarity within the float64 error bound of a d-term dot product
        # of unit vectors, 2 * d * 2**-53, as perfbench curate compares.
        rng = np.random.default_rng(41)
        stems = [f"rotates {w} logs on node {i}" for i, w in enumerate(
            ["audit", "backup", "print", "session", "service", "archive", "index", "mail"])]
        texts = [f"{stems[int(rng.integers(len(stems)))]}{' nightly' * int(rng.integers(3))}"
                 for _ in range(200)]
        matrix = embed_batch(HashingEmbeddingBackend(256), texts)
        count, dim = matrix.shape
        tolerance = 2 * dim * 2.0**-53
        positives = [int(p) if rng.random() < 0.5 else None for p in rng.integers(count, size=count)]
        n = 150
        step = NEGATIVES_MIN_QUERIES
        ours = np.concatenate([
            mine_negatives(range(top, min(top + step, count)), matrix, n, positives[top:top + step])
            for top in range(0, count, step)
        ])
        for query, row in enumerate(ours.tolist()):
            expected = naive_mine_negatives(query, matrix, n, positives[query])
            assert len(set(row)) == n
            assert query not in row and positives[query] not in row
            similarity = matrix @ matrix[query]
            assert all(abs(similarity[a] - similarity[b]) <= tolerance for a, b in zip(row, expected))


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
