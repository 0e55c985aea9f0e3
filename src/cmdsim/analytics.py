"""Diversity analytics: longest-common-subsequence overlap between
command lines and coverage of fixed command/extension universes.

Overlap distributions are reported as 20-bin histograms over [0, 1],
emitted as CSV for external plotting.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CommandLine, CommandLinePair, text_of, tokenize
from .jsonl import _undecodable_line, write_csv

ROUGE_MODES = ("f1", "precision", "recall")  # the first is the default
HISTOGRAM_BINS = 20


@dataclass(frozen=True)
class OverlapHistogram:
    """Counts of overlap scores across 20 equal bins spanning [0, 1]."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if len(self.bin_edges) != len(self.counts) + 1:
            raise ValueError("need exactly one more edge than bins")
        if sum(self.counts) != self.n:
            raise ValueError("histogram counts must sum to n")
        edges = self.bin_edges
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("bin edges must be strictly increasing")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError("histogram must cover [0, 1]")


@dataclass(frozen=True)
class CoverageReport:
    """How much of a fixed universe a command-line set touches."""

    universe_size: int
    covered: int
    rate: float

    def __post_init__(self) -> None:
        if not 0 <= self.covered <= self.universe_size:
            raise ValueError("covered must lie within [0, universe_size]")


def _check_mode(mode: str) -> None:
    if mode not in ROUGE_MODES:
        raise ValueError(f"mode must be one of {ROUGE_MODES}, got {mode!r}")


def _position_masks(tokens: Sequence[str]) -> dict[str, int]:
    """Bit i of ``masks[t]`` is set when ``tokens[i] == t``."""
    masks: dict[str, int] = {}
    for i, token in enumerate(tokens):
        masks[token] = masks.get(token, 0) | (1 << i)
    return masks


def _lcs_length(masks: dict[str, int], length: int, tokens: Sequence[str]) -> int:
    """LCS length of ``tokens`` and the ``length``-token sequence whose
    :func:`_position_masks` are ``masks``.

    Bit-parallel LCS (Allison & Dix 1986; Hyyrö 2004): the zero bits of
    ``v`` mark the positions of the masked side where the DP row of the
    tokens read so far steps up by one, so their count is the LCS length.
    Each token of ``tokens`` updates all positions at once with one add,
    one subtract and three logical operations on Python ints.  Cost:
    O(len(tokens) * ceil(length / w)) word operations for a w-bit word.
    """
    full = (1 << length) - 1
    v = full
    for token in tokens:
        m = masks.get(token)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return length - v.bit_count()


def _score(lcs: int, len_a: int, len_b: int, mode: str) -> float:
    if lcs == 0:
        return 0.0
    precision = lcs / len_b
    recall = lcs / len_a
    if mode == "precision":
        return precision
    if mode == "recall":
        return recall
    return 2.0 * precision * recall / (precision + recall)


def rouge_l(a: Sequence[str], b: Sequence[str], mode: str = ROUGE_MODES[0]) -> float:
    """Longest-common-subsequence overlap of two token sequences.

    With L the LCS length, precision = L/|b|, recall = L/|a|, and f1
    their harmonic mean.  Returns 0.0 when either sequence is empty or
    nothing is shared.  L is exact, computed bit-parallel over position
    masks of ``b`` in O(|a| * ceil(|b|/w)) word operations.
    """
    _check_mode(mode)
    return _score(_lcs_length(_position_masks(b), len(b), a), len(a), len(b), mode)


def overlap_histogram(scores: Sequence[float]) -> OverlapHistogram:
    """Histogram scores into 20 equal bins over [0, 1] (1.0 in the top bin)."""
    values = np.asarray(scores, dtype=np.float64)
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise ValueError("overlap scores must lie within [0, 1]")
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return OverlapHistogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        n=int(values.size),
    )


def max_overlap_vs_seeds(
    generated: Sequence[CommandLine | str],
    seeds: Sequence[CommandLine | str],
    mode: str = ROUGE_MODES[0],
) -> tuple[list[float], OverlapHistogram]:
    """Per generated command, its highest overlap against any seed.

    Each seed is tokenized and masked once.  A seed is skipped when its
    score with L = min(|a|, |b|), an upper bound since the score grows
    with L, cannot beat the best so far; ties never replace the best, so
    the result is the plain maximum of :func:`rouge_l` over the seeds.
    """
    _check_mode(mode)
    if not seeds:
        raise ValueError("seed list must not be empty")
    references = [(len(t), _position_masks(t)) for t in map(tokenize, seeds)]
    scores: list[float] = []
    for command in generated:
        tokens = tokenize(command)
        size = len(tokens)
        best = 0.0
        for length, masks in references:
            if _score(min(size, length), size, length, mode) <= best:
                continue
            score = _score(_lcs_length(masks, length, tokens), size, length, mode)
            if score > best:
                best = score
                if best == 1.0:
                    break
        scores.append(best)
    return scores, overlap_histogram(scores)


def pair_overlap_distribution(
    pairs: Sequence[CommandLinePair],
    mode: str = ROUGE_MODES[0],
) -> OverlapHistogram:
    """Distribution of anchor-versus-positive overlap over a pair set."""
    _check_mode(mode)
    scores = [
        rouge_l(tokenize(p.anchor), tokenize(p.positive), mode) for p in pairs
    ]
    return overlap_histogram(scores)


def write_histogram_csv(path: str | Path, histogram: OverlapHistogram) -> None:
    """Write bin_start,bin_end,count rows for external plotting, replacing
    ``path`` whole."""
    edges = histogram.bin_edges
    write_csv(path, ["bin_start", "bin_end", "count"], zip(edges, edges[1:], histogram.counts))


def load_universe(path: str | Path) -> list[str]:
    """Read a universe file: one entry per line, # comments allowed.  A
    byte that is not UTF-8 is a ``ValueError`` naming its ``PATH:LINE``."""
    entries: list[str] = []
    with open(path, encoding="utf-8") as handle:
        try:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("#"):
                    entries.append(line)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{_undecodable_line(path)}: not valid UTF-8: {exc.reason}") from exc
    if not entries:
        raise ValueError(f"universe file {path} has no entries")
    return entries


def command_coverage(
    commands: Sequence[CommandLine | str],
    command_universe: Sequence[str],
) -> CoverageReport:
    """Coverage of executable groups.

    A group is covered when some command line's first token (case-folded,
    with a trailing ``.exe`` stripped) equals the group name.
    """
    if not command_universe:
        raise ValueError("command universe must not be empty")
    groups = {g.casefold() for g in command_universe}
    if len(groups) != len(command_universe):
        raise ValueError("command universe contains duplicate groups")
    covered: set[str] = set()
    for command in commands:
        tokens = tokenize(command)
        if not tokens:
            continue
        head = tokens[0]
        if head.endswith(".exe"):
            head = head[: -len(".exe")]
        if head in groups:
            covered.add(head)
    return CoverageReport(
        universe_size=len(groups),
        covered=len(covered),
        rate=100.0 * len(covered) / len(groups),
    )


def extension_coverage(
    commands: Sequence[CommandLine | str],
    extension_universe: Sequence[str],
) -> CoverageReport:
    """Coverage of file extensions.

    An extension is covered when ``.ext`` occurs in any command line,
    case-insensitive, followed by a non-alphanumeric character or the
    end of the line ("x.dllx" does not cover .dll).
    """
    if not extension_universe:
        raise ValueError("extension universe must not be empty")
    normalized = []
    for extension in extension_universe:
        cleaned = extension.strip().lstrip(".").casefold()
        if not cleaned:
            raise ValueError(f"blank extension in universe: {extension!r}")
        normalized.append(cleaned)
    if len(set(normalized)) != len(normalized):
        raise ValueError("extension universe contains duplicates")
    patterns = {
        ext: re.compile(re.escape("." + ext) + r"(?![a-z0-9])", re.IGNORECASE)
        for ext in normalized
    }
    texts = [text_of(c) for c in commands]
    covered = {
        ext
        for ext, pattern in patterns.items()
        if any(pattern.search(text) for text in texts)
    }
    return CoverageReport(
        universe_size=len(normalized),
        covered=len(covered),
        rate=100.0 * len(covered) / len(normalized),
    )
