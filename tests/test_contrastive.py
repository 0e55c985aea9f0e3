"""Adapter model, InfoNCE loss/gradients, and the training loop."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdsim.contrastive import (
    VALIDATION_BLOCK,
    AdapterModel,
    TrainConfig,
    TrainEvent,
    _validation_mrr3,
    info_nce_gradients,
    info_nce_loss,
    train,
)
from cmdsim.core import CommandLine, CommandLinePair, Source
from cmdsim.embedding import NORMALIZE_ROWS, HashingEmbeddingBackend, unit_normalize
from cmdsim.gateway import MOCK_FLAG_SYNONYMS, MOCK_TARGETS, MOCK_VERB_SYNONYMS

from oracles import central_difference_gradient, full_sort_rank, mrr_from_ranks


def synonym_pairs(count: int) -> list[CommandLinePair]:
    """Anchor/positive pairs in the mock vocabulary, trigram-disjoint."""
    pairs = []
    pair_id = 0
    for verb, verb_synonym in MOCK_VERB_SYNONYMS:
        for flag, flag_synonym in MOCK_FLAG_SYNONYMS:
            if pair_id >= count:
                return pairs
            target = MOCK_TARGETS[pair_id % len(MOCK_TARGETS)]
            tag = format(pair_id % 16, "x")
            pairs.append(
                CommandLinePair(
                    CommandLine(f"{verb} {flag} {target}{tag}", Source.PAIR_GENERATED),
                    CommandLine(
                        f"{verb_synonym} {flag_synonym} {target}{tag}",
                        Source.PAIR_GENERATED,
                    ),
                    pair_id,
                )
            )
            pair_id += 1
    if len(pairs) < count:
        raise AssertionError(f"vocabulary exhausted at {len(pairs)} pairs")
    return pairs


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.batch_pairs == 64
        assert cfg.temperature == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_pairs": 1},
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"epochs": 0},
            {"val_pairs": 0},
            {"eval_every_steps": 0},
            {"learning_rate": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_zero_learning_rate_allowed(self):
        TrainConfig(learning_rate=0.0)


class TestAdapterModel:
    def test_weights_must_be_2d_and_finite(self):
        with pytest.raises(ValueError, match="2-D"):
            AdapterModel(np.ones(4))
        with pytest.raises(ValueError, match="finite"):
            AdapterModel(np.array([[1.0, np.nan]]))

    def test_transform_vector(self):
        model = AdapterModel(np.array([[2.0, 0.0], [0.0, 1.0]]))
        out = model.transform(np.array([[1.0, 1.0]]))
        expected = np.array([[2.0, 1.0]]) / math.sqrt(5.0)
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_transform_matrix_rows_unit(self):
        rng = np.random.default_rng(0)
        model = AdapterModel(rng.normal(size=(5, 3)))
        out = model.transform(rng.normal(size=(7, 5)))
        assert out.shape == (7, 3)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_transform_dim_mismatch(self):
        model = AdapterModel(np.eye(4))
        with pytest.raises(ValueError, match=r"dim 4, got shape \(2, 3\)"):
            model.transform(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"dim 4, got shape \(4,\)"):
            model.transform(np.ones(4))

    def test_transform_degenerate_rejected(self):
        model = AdapterModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero vector"):
            model.transform(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_transform_is_bit_equal_to_normalizing_a_copy(self):
        # transform divides base @ W in place; the bits must be those of
        # unit_normalize(base @ W), over more rows than one block of it.
        rng = np.random.default_rng(8)
        weights = rng.normal(size=(6, 4))
        weights[2] = 0.0
        model = AdapterModel(weights)
        base = rng.normal(size=(2 * NORMALIZE_ROWS + 5, 6))
        np.testing.assert_array_equal(model.transform(base), unit_normalize(base @ weights))
        # A row that W maps to zero, past the first block, is still refused.
        base[NORMALIZE_ROWS + 2] = np.eye(6)[2]
        with pytest.raises(ValueError, match="zero vector"):
            model.transform(base)

    def test_save_load_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        model = AdapterModel(rng.normal(size=(4, 2)), backend_identity="hash3-4", step=17)
        path = tmp_path / "adapter.json"
        model.save(path)
        loaded = AdapterModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.backend_identity == "hash3-4"
        assert loaded.step == 17
        assert loaded.d_in == 4 and loaded.d_out == 2


class TestInfoNceLoss:
    def test_single_pair_is_exactly_zero(self):
        assert info_nce_loss(np.array([[4.2]]), 0.3) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_uniform_matrix_gives_k_log_k(self, k):
        loss = info_nce_loss(np.full((k, k), 0.37), 0.8)
        assert loss == pytest.approx(k * math.log(k), abs=1e-9)

    def test_identity_two_by_two(self):
        loss = info_nce_loss(np.eye(2), 1.0)
        assert loss == pytest.approx(2 * math.log(1 + math.exp(-1)), rel=1e-12)

    def test_hand_case(self):
        sims = np.array([[1.0, 0.5], [0.2, 1.0]])
        temperature = 0.5
        expected = 0.0
        for i in range(2):
            row = sims[i] / temperature
            expected += math.log(math.exp(row[0]) + math.exp(row[1])) - row[i]
        assert info_nce_loss(sims, temperature) == pytest.approx(expected, rel=1e-12)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(9)
        sims = rng.normal(size=(5, 5))
        base = info_nce_loss(sims, 0.1)
        for shift in (-3.0, 0.25, 10.0):
            shifted = sims.copy()
            shifted[2] += shift
            assert info_nce_loss(shifted, 0.1) == pytest.approx(base, abs=1e-9)

    def test_full_constant_shift_invariance(self):
        rng = np.random.default_rng(10)
        sims = rng.normal(size=(4, 4))
        base = info_nce_loss(sims, 0.3)
        assert info_nce_loss(sims + 7.5, 0.3) == pytest.approx(base, abs=1e-9)

    def test_sharper_temperature_lowers_loss_when_diagonal_wins(self):
        sims = np.array([[0.9, 0.1], [0.2, 0.8]])
        losses = [info_nce_loss(sims, tau) for tau in (1.0, 0.5, 0.1, 0.02)]
        assert losses == sorted(losses, reverse=True)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            info_nce_loss(np.ones((2, 3)), 1.0)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            info_nce_loss(np.eye(2), 0.0)


class TestInfoNceGradients:
    def test_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            info_nce_gradients(np.ones((2, 2)), np.ones((2, 2)), np.eye(2), 0.0)
        with pytest.raises(ValueError, match="batch shape"):
            info_nce_gradients(np.ones((2, 2)), np.ones((3, 2)), np.eye(2), 1.0)
        with pytest.raises(ValueError, match="incompatible"):
            info_nce_gradients(np.ones((2, 2)), np.ones((2, 2)), np.eye(3), 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 9))
        d_in = int(rng.integers(2, 9))
        d_out = int(rng.integers(2, 5))
        anchors = rng.normal(size=(k, d_in))
        positives = rng.normal(size=(k, d_in))
        weights = rng.normal(size=(d_in, d_out)) + 0.5 * np.eye(d_in, d_out)
        temperature = float(rng.uniform(0.05, 1.0))

        def loss_of(w: np.ndarray) -> float:
            mapped_a = anchors @ w
            mapped_b = positives @ w
            unit_a = mapped_a / np.linalg.norm(mapped_a, axis=1, keepdims=True)
            unit_b = mapped_b / np.linalg.norm(mapped_b, axis=1, keepdims=True)
            return info_nce_loss(unit_a @ unit_b.T, temperature)

        analytic = info_nce_gradients(anchors, positives, weights, temperature)
        numeric = central_difference_gradient(loss_of, weights.copy())
        scale = max(np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / scale < 1e-4

    def test_gradient_descends(self):
        rng = np.random.default_rng(2)
        anchors = rng.normal(size=(4, 3))
        positives = anchors + 0.05 * rng.normal(size=(4, 3))
        weights = np.eye(3)

        def loss_of(w):
            unit_a = (anchors @ w) / np.linalg.norm(anchors @ w, axis=1, keepdims=True)
            unit_b = (positives @ w) / np.linalg.norm(positives @ w, axis=1, keepdims=True)
            return info_nce_loss(unit_a @ unit_b.T, 0.2)

        gradient = info_nce_gradients(anchors, positives, weights, 0.2)
        assert loss_of(weights - 1e-3 * gradient) < loss_of(weights)


class PassThrough:
    """An adapter whose transform leaves the base vectors as they are."""

    def transform(self, base: np.ndarray) -> np.ndarray:
        return base


def oracle_validation_mrr3(sims: np.ndarray) -> float:
    """Row i ranks its diagonal among the other entries of the row."""
    ranks = [
        full_sort_rank(sims[i, i], [sims[i, j] for j in range(len(sims)) if j != i])
        for i in range(len(sims))
    ]
    return mrr_from_ranks(ranks, 3)


class TestValidationMrr3:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        adapter = AdapterModel(rng.normal(size=(16, 8)))
        anchors, positives = rng.normal(size=(2, 40, 16))
        sims = adapter.transform(anchors) @ adapter.transform(positives).T
        assert _validation_mrr3(adapter, anchors, positives) == oracle_validation_mrr3(sims)

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicated_rows_tie_against_the_positive(self, seed):
        rng = np.random.default_rng(seed)
        adapter = AdapterModel(np.eye(6))
        rows = rng.integers(0, 20, size=30)
        anchors = rng.normal(size=(20, 6))[rows]
        positives = rng.normal(size=(20, 6))[rows]
        sims = adapter.transform(anchors) @ adapter.transform(positives).T
        off_diagonal = ~np.eye(len(rows), dtype=bool)
        assert np.any((sims == sims.diagonal()[:, None]) & off_diagonal)
        assert _validation_mrr3(adapter, anchors, positives) == oracle_validation_mrr3(sims)

    def test_anchors_past_one_block(self):
        # Two blocks, the second short; repeated rows tie positives across blocks.
        rng = np.random.default_rng(7)
        adapter = AdapterModel(rng.normal(size=(16, 8)))
        rows = rng.integers(0, 200, size=VALIDATION_BLOCK + 44)
        anchors = rng.normal(size=(200, 16))[rows]
        positives = anchors + 2.0 * rng.normal(size=(200, 16))[rows]
        sims = adapter.transform(anchors) @ adapter.transform(positives).T
        assert _validation_mrr3(adapter, anchors, positives) == oracle_validation_mrr3(sims)

    def test_nan_positive_ranks_first(self):
        # inf * 0 puts NaN on row 0's diagonal and inf beside it
        anchors = np.array([[np.inf, 0.0], [1.0, 0.0], [0.0, 1.0]])
        positives = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with np.errstate(invalid="ignore"):
            sims = anchors @ positives.T
            mrr3 = _validation_mrr3(PassThrough(), anchors, positives)
        assert math.isnan(sims[0, 0]) and sims[0, 1] == np.inf
        # ranks 1, 1 and 2 (row 2 ties its positive)
        assert mrr3 == 100.0 * 2.5 / 3


class TestTrain:
    def make_backend(self):
        return HashingEmbeddingBackend(dim=64)

    def test_insufficient_pairs(self):
        cfg = TrainConfig(batch_pairs=8, val_pairs=8)
        pairs = synonym_pairs(10)
        with pytest.raises(ValueError, match="insufficient pairs: need >= 16"):
            train(pairs, self.make_backend(), cfg)

    def test_history_structure(self):
        cfg = TrainConfig(
            batch_pairs=4,
            val_pairs=4,
            epochs=2,
            eval_every_steps=3,
            learning_rate=0.01,
            temperature=0.1,
            rng_seed=5,
        )
        pairs = synonym_pairs(26)
        model, history = train(pairs, self.make_backend(), cfg)
        # 22 train pairs -> 5 batches/epoch -> 10 steps total.
        assert history[0] == TrainEvent(0, None, history[0].val_mrr3)
        steps = [event.step for event in history]
        assert steps == [0, 3, 6, 9, 10]
        assert history[1].train_loss is not None
        assert history[-1].train_loss is None  # off-cadence final eval
        assert all(0.0 <= event.val_mrr3 <= 100.0 for event in history)

    def test_best_checkpoint_is_argmax_earliest(self):
        cfg = TrainConfig(
            batch_pairs=4,
            val_pairs=6,
            epochs=2,
            eval_every_steps=2,
            learning_rate=0.01,
            temperature=0.1,
            rng_seed=1,
        )
        pairs = synonym_pairs(30)
        model, history = train(pairs, self.make_backend(), cfg)
        best = max(event.val_mrr3 for event in history)
        first_best_step = next(e.step for e in history if e.val_mrr3 == best)
        assert model.step == first_best_step

    def test_zero_learning_rate_returns_identity_at_step_zero(self):
        cfg = TrainConfig(
            batch_pairs=4, val_pairs=4, epochs=1, eval_every_steps=2, learning_rate=0.0
        )
        backend = self.make_backend()
        model, history = train(synonym_pairs(20), backend, cfg)
        assert model.step == 0
        assert np.array_equal(model.weights, np.eye(backend.dim))
        assert len({event.val_mrr3 for event in history}) == 1
        assert model.backend_identity == backend.identity

    def test_deterministic(self):
        cfg = TrainConfig(
            batch_pairs=4,
            val_pairs=4,
            epochs=2,
            eval_every_steps=2,
            learning_rate=0.01,
            temperature=0.1,
            rng_seed=3,
        )
        pairs = synonym_pairs(24)
        model_a, history_a = train(pairs, self.make_backend(), cfg)
        model_b, history_b = train(pairs, self.make_backend(), cfg)
        assert np.array_equal(model_a.weights, model_b.weights)
        assert history_a == history_b

    def test_learns_synonym_alignment(self):
        # Trigram-disjoint synonyms start unaligned; training must beat
        # the identity baseline on held-out validation pairs.
        cfg = TrainConfig(
            batch_pairs=8,
            val_pairs=8,
            epochs=4,
            eval_every_steps=2,
            learning_rate=0.01,
            temperature=0.05,
            rng_seed=7,
        )
        pairs = synonym_pairs(36)
        model, history = train(pairs, self.make_backend(), cfg)
        identity_mrr = history[0].val_mrr3
        best_mrr = max(event.val_mrr3 for event in history)
        assert best_mrr > identity_mrr
        assert model.step > 0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_loss_nonnegative_gap_to_uniform(k, temperature, seed):
    """Loss is bounded below by 0 when the diagonal is the row max."""
    rng = np.random.default_rng(seed)
    sims = rng.uniform(-1, 1, size=(k, k))
    strongest = sims.max() + 0.5
    np.fill_diagonal(sims, strongest)
    loss = info_nce_loss(sims, temperature)
    assert 0.0 <= loss <= k * math.log(k) + 1e-9
