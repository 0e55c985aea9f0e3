"""JSON Lines readers and writers for the toolkit's on-disk formats.

All files are UTF-8 with one JSON object per line and LF line endings.
Writers emit keys in a fixed order and never include timestamps, so a
rerun with the same inputs produces byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from .core import CommandLine, CommandLinePair, Source


def read_records(path: str | Path, required: Sequence[str] = ()) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(line number, record)`` for each non-blank line, 1-based.

    A line that is not a JSON object, or whose record lacks a field named
    in ``required`` or holds a non-string there, is a ``ValueError``
    naming the file and line.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            for key in required:
                if key not in record:
                    raise ValueError(f"{path}:{lineno}: missing required field {key!r}")
                if not isinstance(record[key], str):
                    raise ValueError(f"{path}:{lineno}: field {key!r} must be a string")
            yield lineno, record


@contextlib.contextmanager
def _replacing(path: str | Path) -> Iterator[Any]:
    """A text handle on ``path + ".tmp"`` that replaces ``path`` when the
    block ends cleanly.  A crash or an exception mid-write leaves the old
    ``path`` whole; an exception also removes the temp file.  The parent
    directory is created if it is missing."""
    tmp = f"{path}.tmp"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_csv(path: str | Path, header: Sequence[Any], rows: Iterable[Sequence[Any]]) -> None:
    """Write ``header`` and then ``rows`` as CSV with LF line endings,
    replacing ``path`` whole."""
    with _replacing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_records(path: str | Path, records: Iterable[dict[str, Any] | str]) -> int:
    """Write records one per line, replacing ``path`` whole; returns the
    number written.  A ``str`` item is a record already encoded as
    ``json.dumps(record, ensure_ascii=False)`` would, and is written as is."""
    count = 0
    with _replacing(path) as handle:
        for record in records:
            handle.write(record if isinstance(record, str) else json.dumps(record, ensure_ascii=False))
            handle.write("\n")
            count += 1
    return count


# Rows of vector_records per np.unique call: 128 rows of 256 floats are
# 256 KiB of bit patterns.
VECTOR_ROWS = 128


def vector_records(texts: Sequence[Any], vectors: np.ndarray) -> Iterator[str]:
    """``json.dumps({"text": t, "vector": row.tolist()}, ensure_ascii=False)``
    for each text and row of ``vectors``, with one ``repr`` per distinct
    value of a 128-row slice instead of one per float.

    A slice's values are keyed by their bit patterns, so ``-0.0`` and
    ``0.0`` stay apart; the distinct ones are encoded by one
    ``json.dumps`` (``repr``, or ``NaN``, ``Infinity``, ``-Infinity``),
    and each row joins its values' strings.  hash3 rows hold a few
    distinct values each; rows with no value repeated cost a sort of the
    slice more than ``json.dumps`` would.
    """
    matrix = np.ascontiguousarray(vectors, dtype=np.float64)
    for top in range(0, len(matrix), VECTOR_ROWS):
        rows = matrix[top:top + VECTOR_ROWS]
        bits, inverse = np.unique(rows.view(np.uint64), return_inverse=True)
        # json.dumps of the distinct values spells each one as it would
        # inside a row; no float's spelling holds ", ".
        strings = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
        cells = np.array(strings, dtype=object)[inverse.reshape(rows.shape)]
        for text, row in zip(texts[top:top + VECTOR_ROWS], cells):
            yield (f'{{"text": {json.dumps(text, ensure_ascii=False)}, '
                   f'"vector": [{", ".join(row.tolist())}]}}')


def read_commands(path: str | Path, *, default_source: Source = Source.REAL_WORLD) -> list[CommandLine]:
    """Read ``{"text": ..., "source": ...}`` records into command lines.

    ``source`` is optional in the file; an unknown source name, like a
    text too short for a command line, is a ``ValueError`` naming the
    file and line.
    """
    commands: list[CommandLine] = []
    for lineno, record in read_records(path, required=("text",)):
        raw_source = record.get("source")
        try:
            source = Source(raw_source) if raw_source is not None else default_source
            commands.append(
                CommandLine(record["text"], source=source, provenance=record.get("provenance"))
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return commands


def write_commands(path: str | Path, commands: Iterable[CommandLine]) -> int:
    def as_record(command: CommandLine) -> dict[str, Any]:
        record: dict[str, Any] = {"text": command.text, "source": command.source.value}
        if command.provenance is not None:
            record["provenance"] = command.provenance
        return record

    return write_records(path, (as_record(c) for c in commands))


def read_pairs(path: str | Path) -> list[CommandLinePair]:
    """Read ``{"anchor": ..., "positive": ...}`` records into pairs.

    ``pair_id`` defaults to the zero-based record index when absent, and
    must be an integer when present.  A value a pair cannot hold is a
    ``ValueError`` naming the file and line.
    """
    pairs: list[CommandLinePair] = []
    for index, (lineno, record) in enumerate(read_records(path, required=("anchor", "positive"))):
        pair_id = record.get("pair_id", index)
        try:
            if not isinstance(pair_id, int) or isinstance(pair_id, bool):
                raise ValueError(f"field 'pair_id' must be an integer, got {pair_id!r}")
            pairs.append(
                CommandLinePair(
                    anchor=CommandLine(record["anchor"], source=Source.LLM_SYNTHESIZED),
                    positive=CommandLine(record["positive"], source=Source.PAIR_GENERATED),
                    pair_id=pair_id,
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return pairs


def write_pairs(path: str | Path, pairs: Iterable[CommandLinePair]) -> int:
    return write_records(
        path,
        (
            {"anchor": p.anchor.text, "positive": p.positive.text, "pair_id": p.pair_id}
            for p in pairs
        ),
    )


def write_meta(path: str | Path, stage: str, *, seed: int | None = None, **extra: Any) -> Path:
    """Write a ``<path>.meta.json`` sidecar describing how a file was made.

    The main data files stay schema-pure; provenance (stage name, seed,
    tool and template versions, stage-specific settings) lives here.
    """
    from . import __version__
    from .gateway import TEMPLATE_VERSION

    meta_path = Path(str(path) + ".meta.json")
    payload: dict[str, Any] = {
        "stage": stage,
        "toolkit_version": __version__,
        "template_version": TEMPLATE_VERSION,
    }
    if seed is not None:
        payload["seed"] = seed
    payload.update(extra)
    with _replacing(meta_path) as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2, sort_keys=True)
        handle.write("\n")
    return meta_path
