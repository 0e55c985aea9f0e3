"""In-batch-negative contrastive training of a linear embedding adapter.

The backend stays frozen; a single matrix W maps base embeddings to the
trained space, followed by unit normalization so dot products remain
cosine similarities.  For a batch of k (anchor, positive) pairs the
similarity matrix S has S[i][j] = adapted(anchor_i) . adapted(positive_j)
and the loss is

    L = -sum_i log( exp(S[i][i]/tau) / sum_j exp(S[i][j]/tau) )

summed (not averaged) over rows, computed with the log-sum-exp shift.
Gradients through the adapter, the row normalization, and the softmax
are derived analytically and checked against finite differences in the
test suite.
"""

from __future__ import annotations

import json
import logging
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import CommandLinePair
from .embedding import EmbeddingCache, embed_batch, similarities, unit_normalize
from .evaluation import _softmax_rows, mrr_at_k, rank_rows
from .jsonl import _replacing

logger = logging.getLogger(__name__)

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Validation anchors per similarities product: 256 anchors over 1,000
# positives hold 4 MB of scores and their transposed copy at once, where
# one product of all 1,000 held 16 MB.
VALIDATION_BLOCK = 256


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the adapter training loop."""

    batch_pairs: int = 64
    learning_rate: float = 2e-5
    epochs: int = 2
    temperature: float = 0.05
    val_pairs: int = 1000
    eval_every_steps: int = 50
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_pairs < 2:
            raise ValueError("batch_pairs must be >= 2 (in-batch negatives need company)")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.val_pairs < 1:
            raise ValueError("val_pairs must be >= 1")
        if self.eval_every_steps < 1:
            raise ValueError("eval_every_steps must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")


class AdapterModel:
    """A d_in x d_out linear map applied to base embeddings.

    Output rule: y = normalize(x @ W), unit length.
    """

    def __init__(self, weights: np.ndarray, backend_identity: str = "", step: int = 0) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        self.weights = weights
        self.backend_identity = backend_identity
        self.step = step

    @property
    def d_in(self) -> int:
        return self.weights.shape[0]

    @property
    def d_out(self) -> int:
        return self.weights.shape[1]

    def transform(self, base: np.ndarray) -> np.ndarray:
        """Map a matrix of base row vectors into the adapted unit-normalized
        space (a ``ValueError`` when W maps one to the zero vector)."""
        base = np.asarray(base, dtype=np.float64)
        if base.ndim != 2 or base.shape[1] != self.d_in:
            raise ValueError(f"expected rows of dim {self.d_in}, got shape {base.shape}")
        return unit_normalize(base @ self.weights, in_place=True)

    def save(self, path: str | Path) -> None:
        payload = {
            "d_in": self.d_in,
            "d_out": self.d_out,
            "W": self.weights.reshape(-1).tolist(),
            "backend_identity": self.backend_identity,
            "step": self.step,
        }
        with _replacing(path) as handle:
            handle.write(json.dumps(payload) + "\n")

    @classmethod
    def load(cls, path: str | Path, data: bytes | None = None) -> "AdapterModel":
        """The adapter :meth:`save` wrote to ``path``, parsed from ``data``
        when given, the file's bytes as already read; a file that is no such
        checkpoint is a ``ValueError`` that names it."""
        try:
            payload = json.loads((Path(path).read_bytes() if data is None else data).decode("utf-8"))
            weights = np.asarray(payload["W"], dtype=np.float64).reshape(payload["d_in"], payload["d_out"])
            return cls(weights, backend_identity=payload.get("backend_identity", ""), step=payload.get("step", 0))
        except (ValueError, LookupError, TypeError) as exc:
            raise ValueError(f"{path}: not an adapter checkpoint: {exc}") from exc


def info_nce_loss(sims: np.ndarray, temperature: float) -> float:
    """The in-batch-negative contrastive loss, summed over rows."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    matrix = np.asarray(sims, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"similarity matrix must be square, got shape {matrix.shape}")
    scaled = matrix / temperature
    shift = scaled.max(axis=1, keepdims=True)
    log_denominator = shift[:, 0] + np.log(np.exp(scaled - shift).sum(axis=1))
    return float(np.sum(log_denominator - np.diag(scaled)))


def _normalize_backward(grad_unit: np.ndarray, unit: np.ndarray, mapped: np.ndarray) -> np.ndarray:
    # d/da of a/|a| applied to an incoming gradient g:
    # (g - (g . a_hat) a_hat) / |a|, rowwise.
    radial = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - radial * unit) / np.linalg.norm(mapped, axis=1, keepdims=True)


def info_nce_gradients(
    anchor_base: np.ndarray,
    positive_base: np.ndarray,
    weights: np.ndarray,
    temperature: float,
) -> np.ndarray:
    """Analytic dL/dW for the adapter -> normalize -> similarity -> loss map."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    anchors = np.asarray(anchor_base, dtype=np.float64)
    positives = np.asarray(positive_base, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if anchors.shape != positives.shape or anchors.ndim != 2:
        raise ValueError(f"batch shape mismatch: {anchors.shape} vs {positives.shape}")
    if w.ndim != 2 or w.shape[0] != anchors.shape[1]:
        raise ValueError(
            f"weights shape {w.shape} incompatible with base dim {anchors.shape[1]}"
        )
    mapped_a = anchors @ w
    mapped_b = positives @ w
    unit_a = unit_normalize(mapped_a)
    unit_b = unit_normalize(mapped_b)
    sims = unit_a @ unit_b.T

    probabilities = _softmax_rows(sims / temperature)
    grad_sims = (probabilities - np.eye(sims.shape[0])) / temperature

    grad_unit_a = grad_sims @ unit_b
    grad_unit_b = grad_sims.T @ unit_a
    grad_mapped_a = _normalize_backward(grad_unit_a, unit_a, mapped_a)
    grad_mapped_b = _normalize_backward(grad_unit_b, unit_b, mapped_b)
    return anchors.T @ grad_mapped_a + positives.T @ grad_mapped_b


class TrainEvent(NamedTuple):
    """One point of the training history."""

    step: int
    train_loss: float | None
    val_mrr3: float


def _validation_mrr3(
    adapter: AdapterModel,
    anchor_base: np.ndarray,
    positive_base: np.ndarray,
) -> float:
    anchors, positives = adapter.transform(anchor_base), adapter.transform(positive_base)
    ranks: list[int] = []
    for top in range(0, len(anchors), VALIDATION_BLOCK):
        sims = similarities(positives, anchors[top:top + VALIDATION_BLOCK])
        rows = np.arange(len(sims))
        own = sims[rows, top + rows]
        sims[rows, top + rows] = np.nan  # a row's other positives are its negatives
        ranks += rank_rows(own, sims).tolist()
    return mrr_at_k(ranks, 3)


def train(
    pairs: Sequence[CommandLinePair],
    backend,
    cfg: TrainConfig,
    cache: EmbeddingCache | None = None,
) -> tuple[AdapterModel, list[TrainEvent]]:
    """Train the adapter; returns the best checkpoint and the history.

    The validation split (cfg.val_pairs pairs) is drawn first from a
    seeded shuffle and never trained on.  Validation MRR@3 treats the
    other val positives as in-split negatives.  The returned model is
    the eval checkpoint with the highest validation MRR@3, earliest
    step on ties; step 0 (the identity adapter) is a candidate, so
    training that never helps returns the identity map.
    """
    needed = cfg.batch_pairs + cfg.val_pairs
    if len(pairs) < needed:
        raise ValueError(
            f"insufficient pairs: need >= {needed} "
            f"(batch {cfg.batch_pairs} + validation {cfg.val_pairs}), got {len(pairs)}"
        )
    anchor_vectors = embed_batch(backend, [p.anchor.text for p in pairs], cache)
    positive_vectors = embed_batch(backend, [p.positive.text for p in pairs], cache)

    rng = random.Random(cfg.rng_seed)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    val_indices = order[: cfg.val_pairs]
    train_indices = order[cfg.val_pairs:]
    val_anchors = anchor_vectors[val_indices]
    val_positives = positive_vectors[val_indices]

    dim = backend.dim
    weights = np.eye(dim)
    moment1 = np.zeros_like(weights)
    moment2 = np.zeros_like(weights)

    history: list[TrainEvent] = []
    best: tuple[TrainEvent, np.ndarray] | None = None

    def evaluate(step: int, train_loss: float | None) -> None:
        nonlocal best
        event = TrainEvent(step, train_loss, _validation_mrr3(AdapterModel(weights), val_anchors, val_positives))
        history.append(event)
        # Strictly greater, so the earliest step wins a tie.
        if best is None or event.val_mrr3 > best[0].val_mrr3:
            best = event, weights.copy()

    step = 0
    evaluate(step, None)
    for _ in range(cfg.epochs):
        epoch_order = list(train_indices)
        rng.shuffle(epoch_order)
        for offset in range(0, len(epoch_order) - cfg.batch_pairs + 1, cfg.batch_pairs):
            batch = epoch_order[offset: offset + cfg.batch_pairs]
            batch_anchors = anchor_vectors[batch]
            batch_positives = positive_vectors[batch]
            gradient = info_nce_gradients(batch_anchors, batch_positives, weights, cfg.temperature)
            step += 1
            moment1 = ADAM_BETA1 * moment1 + (1 - ADAM_BETA1) * gradient
            moment2 = ADAM_BETA2 * moment2 + (1 - ADAM_BETA2) * gradient * gradient
            corrected1 = moment1 / (1 - ADAM_BETA1 ** step)
            corrected2 = moment2 / (1 - ADAM_BETA2 ** step)
            weights = weights - cfg.learning_rate * corrected1 / (np.sqrt(corrected2) + ADAM_EPS)
            if step % cfg.eval_every_steps == 0:
                adapter = AdapterModel(weights)
                sims = adapter.transform(batch_anchors) @ adapter.transform(batch_positives).T
                evaluate(step, info_nce_loss(sims, cfg.temperature))
    if step % cfg.eval_every_steps != 0:
        # Final state always gets considered even off the eval cadence.
        evaluate(step, None)
    best_event, best_weights = best
    logger.info("best checkpoint: step %d, val MRR@3 %.3f", best_event.step, best_event.val_mrr3)
    model = AdapterModel(best_weights, backend_identity=backend.identity, step=best_event.step)
    return model, history
