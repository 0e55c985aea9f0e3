"""Core domain model for Windows command lines.

Everything downstream (synthesis, embedding, clustering, training,
evaluation) builds on the types and normalization rules defined here, so
the rules are deliberately small and frozen:

* a command line is non-blank text of at least two characters,
* duplicate detection is case-insensitive and whitespace-collapsing,
* tokenization splits on whitespace and then on a fixed set of
  punctuation characters that carry structure in command lines.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

MIN_COMMAND_LENGTH = 2

# Marker the chat models are instructed to put in front of every generated
# command line.  Parsing keys off this exact string.
CMD_MARKER = "<CMD>"


class Source(str, Enum):
    """Where a command line came from."""

    INITIAL_SEED = "initial_seed"
    LLM_SYNTHESIZED = "llm_synthesized"
    PAIR_GENERATED = "pair_generated"
    REAL_WORLD = "real_world"


@dataclass(frozen=True)
class CommandLine:
    """A single command line plus bookkeeping about its origin.

    ``text`` is stored as given (no normalization); normalization only
    happens when comparing via :func:`canonical_dedup_key`.
    """

    text: str
    source: Source = Source.REAL_WORLD
    provenance: str | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("command line text must not be blank")
        if len(self.text) < MIN_COMMAND_LENGTH:
            raise ValueError(
                f"command line must be at least {MIN_COMMAND_LENGTH} characters: {self.text!r}"
            )


def canonical_dedup_key(command: CommandLine | str) -> str:
    """Normalize a command line for duplicate detection.

    Lowercase, with every run of whitespace collapsed to a single space
    and leading/trailing whitespace removed.  Two command lines are
    considered duplicates exactly when their keys are equal.
    """
    text = command.text if isinstance(command, CommandLine) else command
    return " ".join(text.lower().split())


# Punctuation characters that become standalone tokens.  "." is absent on
# purpose: it would shred paths and filenames like C:\x.y.exe.
TOKEN_PUNCTUATION = '/\\:;,"\'|=()<>'

_TOKEN_RE = re.compile(
    "[%(p)s]|[^%(p)s\\s]+" % {"p": re.escape(TOKEN_PUNCTUATION)}
)


def tokenize(command: CommandLine | str) -> list[str]:
    """Split a command line into case-folded tokens.

    Whitespace separates tokens and is dropped; each character in
    :data:`TOKEN_PUNCTUATION` becomes a token of its own.
    """
    text = command.text if isinstance(command, CommandLine) else command
    return _TOKEN_RE.findall(text.casefold())


def parse_llm_response(
    response: str,
    *,
    source: Source = Source.LLM_SYNTHESIZED,
    provenance: str | None = None,
) -> list[CommandLine]:
    """Extract command lines from a chat completion.

    A line contributes a command when, after stripping leading
    whitespace, it starts with ``<CMD>``.  The remainder of the line is
    trimmed; results shorter than :data:`MIN_COMMAND_LENGTH` (including
    empty ones) are dropped because they cannot form a valid
    :class:`CommandLine`.  Order of appearance is preserved.
    """
    commands: list[CommandLine] = []
    for line in response.splitlines():
        stripped = line.lstrip()
        if not stripped.startswith(CMD_MARKER):
            continue
        content = stripped[len(CMD_MARKER):].strip()
        if len(content) < MIN_COMMAND_LENGTH:
            continue
        commands.append(CommandLine(content, source=source, provenance=provenance))
    return commands


@dataclass(frozen=True)
class CommandLinePair:
    """An anchor command line and a positive meant to share its intent."""

    anchor: CommandLine
    positive: CommandLine
    pair_id: int

    def __post_init__(self) -> None:
        if self.pair_id < 0:
            raise ValueError("pair_id must be non-negative")
        if canonical_dedup_key(self.anchor) == canonical_dedup_key(self.positive):
            raise ValueError(
                f"pair {self.pair_id}: anchor and positive are duplicates after normalization"
            )


class SeedPool:
    """Insertion-ordered, duplicate-free pool of command lines.

    Membership is decided by :func:`canonical_dedup_key`, so re-adding a
    command that differs only in case or spacing is a no-op.
    """

    def __init__(self, initial: Iterable[CommandLine] = ()) -> None:
        self._entries: list[CommandLine] = []
        self._keys: set[str] = set()
        for command in initial:
            self.add(command)

    def add(self, command: CommandLine) -> bool:
        """Add a command; return True when it was new."""
        key = canonical_dedup_key(command)
        if key in self._keys:
            return False
        self._keys.add(key)
        self._entries.append(command)
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CommandLine]:
        return iter(self._entries)

    def __contains__(self, command: CommandLine | str) -> bool:
        return canonical_dedup_key(command) in self._keys

    def sample(self, rng, k: int) -> list[CommandLine]:
        """Draw ``k`` distinct entries without replacement using ``rng``."""
        if k > len(self._entries):
            raise ValueError(f"cannot sample {k} from pool of {len(self._entries)}")
        return rng.sample(self._entries, k)


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics of a pair dataset.

    Lengths are measured in characters of the raw text, over the unique
    command lines only (each distinct canonical key counted once, with
    the first occurrence supplying the representative text).
    """

    num_pairs: int
    num_unique: int
    max_len: int
    min_len: int
    avg_len: float
    std_len: float


def dataset_stats(pairs: Sequence[CommandLinePair]) -> DatasetStats:
    """Compute :class:`DatasetStats` for a non-empty pair dataset.

    ``std_len`` is the population standard deviation (divisor N).
    """
    if not pairs:
        raise ValueError("cannot compute statistics of an empty dataset")
    first_lengths: dict[str, int] = {}
    for pair in pairs:
        for command in (pair.anchor, pair.positive):
            key = canonical_dedup_key(command)
            if key not in first_lengths:
                first_lengths[key] = len(command.text)
    lengths = list(first_lengths.values())
    n = len(lengths)
    total = sum(lengths)
    total_squares = sum(length * length for length in lengths)
    avg = total / n
    # Integer sums keep the result exact and independent of input order.
    variance = (n * total_squares - total * total) / (n * n)
    return DatasetStats(
        num_pairs=len(pairs),
        num_unique=n,
        max_len=max(lengths),
        min_len=min(lengths),
        avg_len=avg,
        std_len=math.sqrt(variance),
    )
