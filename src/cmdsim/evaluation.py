"""Evaluation harnesses: similar-command retrieval (MRR@K / Top@K),
gene-pool malicious-command detection (Mann-Whitney AUC), and the
seven-command classification benchmark.

Scores and metrics use fixed summation orders, so repeated runs over
the same inputs are bit-identical on one BLAS build.
"""

from __future__ import annotations

import logging
import math
import random
import string
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CommandLine, canonical_dedup_key
from .embedding import ROW_GROUP, EmbeddingCache, embed_batch, similarities
from .jsonl import read_records

logger = logging.getLogger(__name__)

# A technique must have at least this many commands to take part in the
# detection benchmark; below that the pool/query split degenerates.
MIN_TECHNIQUE_SIZE = 9

# How detection_auc aggregates: one AUC over all techniques (the
# default), or their mean.
DETECTION_MODES = ("concatenated", "averaged")


@dataclass(frozen=True)
class RetrievalTestset:
    """Retrieval cases as indices into ``texts``, which holds each text once:
    case i ranks ``pairs[i]``, its (query, positive), against ``negatives[i]``."""

    texts: tuple[str, ...]
    pairs: np.ndarray
    negatives: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.pairs)


def rank_rows(positive_scores: np.ndarray, negative_scores: np.ndarray) -> np.ndarray:
    """The 1-based rank of each row's positive among its (cases, negatives)
    scores, by descending score, ties counting against the positive.  NaN never
    satisfies ``>=``: a NaN negative never counts, so it pads shorter rows."""
    return 1 + np.count_nonzero(negative_scores >= positive_scores[:, None], axis=1)


def _check_ranks(ranks: Sequence[int], k: int) -> None:
    if not ranks:
        raise ValueError("cannot aggregate an empty list of ranks")
    if k < 1:
        raise ValueError("K must be >= 1")
    for rank in ranks:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")


def mrr_at_k(ranks: Sequence[int], k: int) -> float:
    """Mean reciprocal rank, zero beyond K, as a percentage."""
    _check_ranks(ranks, k)
    return 100.0 * sum(1.0 / r if r <= k else 0.0 for r in ranks) / len(ranks)


def top_at_k(ranks: Sequence[int], k: int) -> float:
    """Share of cases ranked within the top K, as a percentage."""
    _check_ranks(ranks, k)
    return 100.0 * sum(1 for r in ranks if r <= k) / len(ranks)


@dataclass(frozen=True)
class RetrievalReport:
    ranks: tuple[int, ...]
    metrics: dict[str, float]


def load_retrieval_cases(testset_path: str | Path, corpus_texts: Sequence[str]) -> RetrievalTestset:
    """Read {query, positive, negative_ids} records; ids index ``corpus_texts``.
    A record that is no valid case is a ``ValueError`` naming the file and line."""
    index: dict[str, int] = {}
    corpus_rows = np.array([index.setdefault(text, len(index)) for text in corpus_texts], dtype=np.intp)
    pairs: list[tuple[int, int]] = []
    negatives: list[np.ndarray] = []
    for lineno, record in read_records(testset_path, required=("query", "positive")):
        where = f"{testset_path}:{lineno}"
        ids = record.get("negative_ids")
        if not isinstance(ids, list) or set(map(type, ids)) - {int}:
            raise ValueError(f"{where}: negative_ids must be a list of integer indices")
        # Compared as Python ints: 2**70 does not fit an intp.
        if ids and (min(ids) < 0 or max(ids) >= len(corpus_rows)):
            bad = next(i for i in ids if not 0 <= i < len(corpus_rows))
            raise ValueError(f"{where}: negative id {bad} outside corpus of {len(corpus_rows)}")
        negatives.append(corpus_rows[np.array(ids, dtype=np.intp)])
        try:
            query, positive = (index.setdefault(CommandLine(record[key]).text, len(index))
                               for key in ("query", "positive"))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if positive in negatives[-1]:
            raise ValueError(f"{where}: positive must not appear among the negatives")
        if query in negatives[-1]:
            raise ValueError(f"{where}: query must not appear among the negatives")
        pairs.append((query, positive))
    return RetrievalTestset(tuple(index), np.array(pairs, dtype=np.intp).reshape(-1, 2), tuple(negatives))


def evaluate_retrieval(
    cases: RetrievalTestset,
    backend,
    ks: Sequence[int] = (3, 10),
    adapter=None,
    cache: EmbeddingCache | None = None,
) -> RetrievalReport:
    """Cosine-score every case and aggregate MRR@K / Top@K per K.

    Each text is embedded once, in order of first appearance: query,
    positive, then negatives, case by case.  A case's positive and
    negatives are scored in one :func:`~cmdsim.embedding.similarities`
    product, the positive first, so a negative whose vector equals the
    positive's ties it in a case of up to 1,023 negatives (one slice), and
    ties count against the positive (:func:`rank_rows`).  ``adapter`` is a
    :class:`~cmdsim.contrastive.AdapterModel` (identity when None); one
    that records a backend identity other than ``backend.identity`` is
    refused before anything is embedded.
    """
    if not cases:
        raise ValueError("no retrieval cases given")
    if adapter is not None and adapter.backend_identity not in ("", backend.identity):
        raise ValueError(
            f"adapter was trained on backend {adapter.backend_identity!r}, "
            f"not {backend.identity!r}"
        )
    appearances = np.concatenate([part for case in zip(cases.pairs, cases.negatives) for part in case])
    distinct, first = np.unique(appearances, return_index=True)
    embedded = distinct[np.argsort(first)]
    matrix = embed_batch(backend, [cases.texts[i] for i in embedded], cache)
    if adapter is not None:
        matrix = adapter.transform(matrix)
    row = np.empty(len(cases.texts), dtype=np.intp)
    row[embedded] = np.arange(len(embedded))

    scores = np.full((len(cases), 1 + max(map(len, cases.negatives))), np.nan)
    for i, ((query, positive), negatives) in enumerate(zip(cases.pairs, cases.negatives)):
        # Copies of the positive pad the rows to whole groups, so similarities copies nothing.
        count = 1 + len(negatives)
        candidates = row[np.concatenate([[positive], negatives, np.full(-count % ROW_GROUP, positive)])]
        scores[i, :count] = similarities(matrix[candidates], matrix[row[[query]]])[0, :count]
    ranks = rank_rows(scores[:, 0], scores[:, 1:]).tolist()
    metrics: dict[str, float] = {}
    for k in ks:
        metrics[f"mrr@{k}"] = mrr_at_k(ranks, k)
        metrics[f"top@{k}"] = top_at_k(ranks, k)
    return RetrievalReport(ranks=tuple(ranks), metrics=metrics)


@dataclass(frozen=True)
class Technique:
    """One technique id and its command lines, in file order: the id is not
    empty, no command is blank, and no two share a canonical dedup key."""

    technique_id: str
    commands: tuple[str, ...]

    def __post_init__(self) -> None:
        if (fault := _technique_fault(self.technique_id, self.commands)) is not None:
            raise ValueError(fault[1])


def _technique_fault(technique_id: str, commands: Sequence[str]) -> tuple[int, str] | None:
    """The position of the first command that breaks a :class:`Technique`
    rule and the reason, or None; an empty id is the first command's fault."""
    if not technique_id:
        return 0, "technique_id must not be empty"
    keys: set[str] = set()
    for position, command in enumerate(commands):
        if not command.strip():
            return position, f"technique {technique_id}: blank command"
        key = canonical_dedup_key(command)
        if key in keys:
            return position, f"technique {technique_id}: duplicate command {command!r}"
        keys.add(key)
    return None


class TechniqueCorpus:
    """All techniques of the detection benchmark, order-preserving."""

    def __init__(self, techniques: Sequence[Technique]) -> None:
        ids = [t.technique_id for t in techniques]
        if len(set(ids)) != len(ids):
            raise ValueError("technique ids must be unique")
        self.techniques = tuple(techniques)

    @property
    def all_commands(self) -> list[str]:
        """Every technique's commands in corpus order, a shared one once per technique."""
        return [c for t in self.techniques for c in t.commands]


def load_technique_corpus(path: str | Path) -> TechniqueCorpus:
    """Read {technique_id, command} records grouped by technique id.

    Records of one technique keep their file order; techniques appear in
    order of first occurrence.  A record that breaks a :class:`Technique`
    rule is a ``ValueError`` naming the file and its line.
    """
    grouped: dict[str, list[tuple[int, str]]] = {}
    for lineno, record in read_records(path, required=("technique_id", "command")):
        grouped.setdefault(record["technique_id"], []).append((lineno, record["command"]))
    techniques = []
    for technique_id, lines in grouped.items():
        linenos, commands = zip(*lines)
        if (fault := _technique_fault(technique_id, commands)) is not None:
            raise ValueError(f"{path}:{linenos[fault[0]]}: {fault[1]}")
        techniques.append(Technique(technique_id, commands))
    return TechniqueCorpus(techniques)


@dataclass(frozen=True)
class GenePoolSplit:
    """Reference-versus-query split of one technique at sample rate r.

    ``pool`` is the technique's first ceil((r/100) * size) commands in
    corpus order, ``queries`` the remainder.  ``start`` is the position of
    the technique's first command in ``TechniqueCorpus.all_commands``.
    """

    technique_id: str
    pool: tuple[str, ...]
    queries: tuple[str, ...]
    start: int


def build_gene_pools(corpus: TechniqueCorpus, rate: float) -> list[GenePoolSplit]:
    """Split every eligible technique (size >= 9) at sample rate ``rate``,
    taken as the decimal it prints as: 7.2% of 125 commands pools 9, where
    ``7.2 / 100.0 * 125`` is 9.000000000000002."""
    from fractions import Fraction  # imported here: no other stage needs it

    if not 0 < rate < 100:
        raise ValueError(f"sample rate must be strictly between 0 and 100, got {rate}")
    share = Fraction(repr(float(rate))) / 100
    splits: list[GenePoolSplit] = []
    start = 0
    for technique in corpus.techniques:
        size = len(technique.commands)
        if size >= MIN_TECHNIQUE_SIZE:
            pool_size = math.ceil(share * size)
            splits.append(GenePoolSplit(technique.technique_id, technique.commands[:pool_size],
                                        technique.commands[pool_size:], start))
        start += size
    return splits


def mann_whitney_auc(
    positive_scores: Sequence[float],
    negative_scores: Sequence[float],
) -> float:
    """ROC AUC as the Mann-Whitney statistic with midrank tie handling.

    Algebraically identical to exhaustive pair counting with ties worth
    one half, including in floating point (ranks are halves of
    integers, exact in binary).
    """
    positives = np.asarray(positive_scores, dtype=np.float64)
    negatives = np.asarray(negative_scores, dtype=np.float64)
    if positives.size == 0 or negatives.size == 0:
        raise ValueError("AUC needs at least one positive and one negative score")
    combined = np.concatenate([positives, negatives])
    order = np.argsort(combined, kind="mergesort")
    sorted_values = combined[order]
    # Tie groups of the sorted scores: NaN never equals itself, so each
    # NaN is a group of its own, while -0.0 and 0.0 tie.
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_values[1:] != sorted_values[:-1]])
    )
    ends = np.append(starts[1:], combined.size)
    midranks = np.empty(combined.size, dtype=np.float64)
    midranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum = float(np.sum(midranks[: positives.size]))
    wins = rank_sum - positives.size * (positives.size + 1) / 2.0
    return wins / (positives.size * negatives.size)


def detection_auc(
    corpus: TechniqueCorpus,
    rate: float,
    backend,
    mode: str = DETECTION_MODES[0],
    cache: EmbeddingCache | None = None,
) -> float:
    """Gene-pool detection AUC over the whole corpus.

    Per technique, positives are its held-out queries and negatives are
    every other technique's commands, each scored by maximum pool
    similarity.  ``concatenated`` pools all scored items into a single
    AUC; ``averaged`` means the per-technique AUCs.  Row i of the embedded
    matrix is ``corpus.all_commands[i]``: one pool product per technique.
    """
    if mode not in DETECTION_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    splits = build_gene_pools(corpus, rate)
    if not splits:
        raise ValueError(
            f"no technique has >= {MIN_TECHNIQUE_SIZE} commands; nothing to evaluate"
        )
    # embed_batch embeds a repeated text once and copies its row.
    matrix = embed_batch(backend, corpus.all_commands, cache)
    scored: list[tuple[np.ndarray, np.ndarray]] = []
    for split in splits:
        if not split.queries:
            raise ValueError(f"technique {split.technique_id}: no query commands at rate {rate}")
        middle = split.start + len(split.pool)
        end = middle + len(split.queries)
        if end - split.start == len(matrix):
            raise ValueError(f"technique {split.technique_id}: spans the whole corpus, no negatives")
        scores = similarities(matrix, matrix[split.start:middle]).max(axis=0)
        scored.append((scores[middle:end], np.concatenate([scores[:split.start], scores[end:]])))
    if mode == "concatenated":
        return mann_whitney_auc(*(np.concatenate(side) for side in zip(*scored)))
    return float(np.mean([mann_whitney_auc(*pair) for pair in scored]))


CLASS_COMMANDS: tuple[str, ...] = (
    "find",
    "robocopy",
    "msiexec",
    "rundll32",
    "sc query",
    "certutil",
    "print",
)

_ARGUMENT_ALPHABET = string.ascii_letters + string.digits
# The paper's probe: 7,000 lines per command, each slot a decoy half the time.
DEFAULT_PER_COMMAND = 7000
DEFAULT_DECOY_PROBABILITY = 0.5


@dataclass(frozen=True)
class ClassificationDataset:
    """Balanced (label, text) records split half/half per class."""

    train: tuple[tuple[str, str], ...]
    test: tuple[tuple[str, str], ...]


def _random_argument(rng: random.Random, decoy_probability: float) -> str:
    """Seven slots: a command name with ``decoy_probability``, else 1-20
    alphabet characters.

    The draws are those of ``rng.choice`` and ``rng.randint(1, 20)``.
    CPython's ``Random._randbelow(n)`` takes ``getrandbits(n.bit_length())``
    until the value is below n; that rule is written out inline, so no
    Python call is made per character.  ``test_random_stream_is_pinned``
    holds the texts and the generator state after them.
    """
    draw, getrandbits = rng.random, rng.getrandbits
    commands, command_bits = len(CLASS_COMMANDS), len(CLASS_COMMANDS).bit_length()
    letters, letter_bits = len(_ARGUMENT_ALPHABET), len(_ARGUMENT_ALPHABET).bit_length()
    slots = []
    for _ in range(7):
        if draw() < decoy_probability:
            index = getrandbits(command_bits)
            while index >= commands:
                index = getrandbits(command_bits)
            slots.append(CLASS_COMMANDS[index])
        else:
            # randint(1, 20) is 1 + _randbelow(20), and 20 takes 5 bits.
            length = getrandbits(5)
            while length >= 20:
                length = getrandbits(5)
            word = ""
            for _ in range(length + 1):
                index = getrandbits(letter_bits)
                while index >= letters:
                    index = getrandbits(letter_bits)
                word += _ARGUMENT_ALPHABET[index]
            slots.append(word)
    return " ".join(slots)


def synth_classification_dataset(
    rng,
    per_command: int = DEFAULT_PER_COMMAND,
    decoy_probability: float = DEFAULT_DECOY_PROBABILITY,
) -> ClassificationDataset:
    """Generate the seven-command benchmark: ``<command> '<argument>'``.

    Arguments are seven space-separated random alphanumeric strings of
    length 1 to 20; each slot is independently replaced by one of the
    seven command names with ``decoy_probability``, so decoys appear
    inside the quoted argument while the label stays the leading
    command.  Each class is split evenly into train and test.
    """
    if per_command < 2 or per_command % 2 != 0:
        raise ValueError("per_command must be an even number >= 2")
    if not 0 <= decoy_probability <= 1:
        raise ValueError("decoy_probability must be within [0, 1]")
    train: list[tuple[str, str]] = []
    test: list[tuple[str, str]] = []
    half = per_command // 2
    for command in CLASS_COMMANDS:
        lines = [
            (command, f"{command} '{_random_argument(rng, decoy_probability)}'")
            for _ in range(per_command)
        ]
        train.extend(lines[:half])
        test.extend(lines[half:])
    return ClassificationDataset(train=tuple(train), test=tuple(test))


DEFAULT_HYPER_GRID: tuple[dict[str, float], ...] = (
    {"l2": 1e-4, "learning_rate": 1.0, "iterations": 200},
    {"l2": 1e-3, "learning_rate": 1.0, "iterations": 200},
    {"l2": 1e-2, "learning_rate": 0.5, "iterations": 200},
)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis.

    The shift is a column chain of ``np.maximum``, bit-equal to
    ``max(axis=-1)`` (which reduces short rows one by one); the sum
    stays a reduction, as numpy adds pairwise from 8 columns on.
    """
    shift = logits[..., 0].copy()
    for column in range(1, logits.shape[-1]):
        np.maximum(shift, logits[..., column], out=shift)
    exp = np.exp(logits - shift[..., None])
    return exp / exp.sum(axis=-1, keepdims=True)


def _with_bias(features: np.ndarray) -> np.ndarray:
    """``features`` with a column of ones appended, in one allocation."""
    design = np.empty((features.shape[0], features.shape[1] + 1))
    design[:, :-1] = features
    design[:, -1] = 1.0
    return design


def _fit_multinomial(
    design: np.ndarray,
    class_indices: np.ndarray,
    num_classes: int,
    hyper_grid: Sequence[dict[str, float]],
) -> np.ndarray:
    """Full-batch gradient descent on the multinomial cross-entropy, for
    every grid entry at once.

    ``design`` is the (n, d+1) feature matrix with a trailing column of
    ones.  Returns (G, d+1, C) weights, one C-contiguous (d+1, C) block
    per grid entry, with the bias in the last row (never penalized).

    The entries' weights sit side by side in one (d+1, G*C) matrix, so
    an iteration is one logits GEMM, a softmax over each entry's C
    columns and one gradient GEMM through ``design.T``, whatever G is.
    ``l2`` and ``learning_rate`` are per-column vectors.  An entry with
    fewer iterations than the largest keeps its columns as they stood
    after its own count.

    Bits: the elementwise steps and the C-wide reductions are the same
    per element as fitting each entry alone, and with one entry every
    call is a lone fit's.  The wider GEMMs are not equal by construction
    (a BLAS may pick its kernel by shape), so ``tests/test_evaluation.py``
    asserts bit equality with the per-entry reference fit on the shapes
    the probe and its tests use.  Those bits hold for one BLAS build and
    thread count: the same fit under another thread count can round its
    GEMMs differently.  The gradient reads the strided view
    ``design.T``, as a lone fit does: a contiguous copy is faster at
    large n but rounds differently on small 2-class shapes.
    """
    n = design.shape[0]
    entries = len(hyper_grid)
    width = entries * num_classes
    l2 = np.repeat([float(h["l2"]) for h in hyper_grid], num_classes)
    learning_rate = np.repeat(
        [float(h["learning_rate"]) for h in hyper_grid], num_classes
    )
    iterations = [int(h["iterations"]) for h in hyper_grid]
    one_hot = np.zeros((n, num_classes))
    one_hot[np.arange(n), class_indices] = 1.0
    one_hot = np.tile(one_hot, entries)
    weights = np.zeros((design.shape[1], width))
    fitted = np.zeros((entries, design.shape[1], num_classes))
    for step in range(1, max(iterations) + 1):
        logits = (design @ weights).reshape(n, entries, num_classes)
        probabilities = _softmax_rows(logits).reshape(n, width)
        gradient = design.T @ (probabilities - one_hot) / n
        gradient[:-1] += l2 * weights[:-1]
        weights = weights - learning_rate * gradient
        for entry, count in enumerate(iterations):
            if count == step:
                fitted[entry] = weights[:, entry * num_classes:(entry + 1) * num_classes]
    return fitted


def _predict(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    return np.argmax(_with_bias(features) @ weights, axis=1)


def train_logreg(
    train_embeddings: np.ndarray,
    train_labels: Sequence[str],
    test_embeddings: np.ndarray,
    test_labels: Sequence[str],
    hyper_grid: Sequence[dict[str, float]] | None = None,
    rng=None,
) -> tuple[np.ndarray, float]:
    """Multinomial logistic-regression probe over fixed embeddings.

    Hyperparameters are chosen by accuracy on a random 20% slice of the
    training set (ties resolved toward the earlier grid entry), then the
    winner is refit on the full training set.  The whole grid is fit in
    one joint pass over the other 80% (see :func:`_fit_multinomial`),
    with weights bit-equal to fitting each entry alone.  Returns the
    fitted weights and the test accuracy as a percentage.
    """
    if hyper_grid is None:
        hyper_grid = DEFAULT_HYPER_GRID
    if not hyper_grid:
        raise ValueError("hyper_grid must not be empty")
    if rng is None:
        rng = random.Random(0)
    train_x = np.asarray(train_embeddings, dtype=np.float64)
    test_x = np.asarray(test_embeddings, dtype=np.float64)
    if train_x.shape[0] != len(train_labels):
        raise ValueError("train embeddings and labels disagree in length")
    if test_x.shape[0] != len(test_labels):
        raise ValueError("test embeddings and labels disagree in length")
    classes = sorted(set(train_labels))
    if len(classes) < 2:
        raise ValueError("need at least two classes to train a classifier")
    class_index = {label: i for i, label in enumerate(classes)}
    for label in test_labels:
        if label not in class_index:
            raise ValueError(f"test label {label!r} never seen in training")
    train_y = np.asarray([class_index[label] for label in train_labels])
    test_y = np.asarray([class_index[label] for label in test_labels])

    order = list(range(train_x.shape[0]))
    rng.shuffle(order)
    val_count = max(1, round(0.2 * len(order)))
    if val_count >= len(order):
        raise ValueError("training set too small for a 20% validation slice")
    val_idx = order[:val_count]
    fit_idx = order[val_count:]

    grid_weights = _fit_multinomial(
        _with_bias(train_x[fit_idx]), train_y[fit_idx], len(classes), hyper_grid
    )
    best_accuracy = -1.0
    best_hyper = None
    val_x, val_y = train_x[val_idx], train_y[val_idx]
    for hyper, weights in zip(hyper_grid, grid_weights):
        accuracy = float(np.mean(_predict(weights, val_x) == val_y))
        logger.debug("hyper %s: validation accuracy %.4f", hyper, accuracy)
        if accuracy > best_accuracy:
            best_accuracy = accuracy
            best_hyper = hyper
    assert best_hyper is not None
    (weights,) = _fit_multinomial(_with_bias(train_x), train_y, len(classes), [best_hyper])
    test_accuracy = 100.0 * float(np.mean(_predict(weights, test_x) == test_y))
    return weights, test_accuracy
