"""Embedding backends, a persistent vector cache, and batch embedding.

Vectors are plain numpy float64 arrays.  All vectors leaving
:func:`embed_batch` are L2-normalized exactly once, so downstream dot
products are cosine similarities.  The cache keeps them as raw float64
rows, so its hits are bitwise equal to the vectors of the original miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np
import requests

from .core import canonical_dedup_key
from .gateway import post_json

logger = logging.getLogger(__name__)

DEFAULT_DIM = 256

# Texts per backend call, for every backend.  OpenAI documents 2,048
# inputs as the cap of one request to its embeddings endpoint; stay at
# or under it.
REMOTE_CHUNK = 2048


class EmbeddingIntegrityError(ValueError):
    """Backend returned vectors of the wrong shape or with non-finite
    values, or a vector to normalize was zero."""


def unit_normalize(vectors: np.ndarray) -> np.ndarray:
    """L2-normalize a vector or a matrix of row vectors.

    Raises on zero-norm rows: a zero vector carries no direction and
    would poison every cosine downstream.
    """
    array = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(array) if array.ndim == 1 else np.linalg.norm(array, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise EmbeddingIntegrityError("cannot normalize a zero vector")
    return array / norms


class HashingEmbeddingBackend:
    """Offline deterministic backend: character trigrams of the
    canonicalized text hashed into a signed feature vector.

    Pure function of the text; no model, no network.  Deliberately
    lexical: synonym words land in unrelated coordinates, which is what
    the adapter-training stage is for.
    """

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.identity = f"hash3-{dim}"
        self.calls = 0
        self._gram_slots: dict[str, tuple[int, float]] = {}

    def _slot(self, gram: str) -> tuple[int, float]:
        cached = self._gram_slots.get(gram)
        if cached is None:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            index = int.from_bytes(digest[:4], "little") % self.dim
            sign = 1.0 if digest[4] & 1 else -1.0
            cached = (index, sign)
            self._gram_slots[gram] = cached
        return cached

    def _embed_one(self, text: str) -> np.ndarray:
        canonical = canonical_dedup_key(text)
        if not canonical:
            raise ValueError("cannot embed blank text")
        if len(canonical) < 3:
            grams = [canonical]
        else:
            grams = [canonical[i:i + 3] for i in range(len(canonical) - 2)]
        vector = np.zeros(self.dim, dtype=np.float64)
        for gram in grams:
            index, sign = self._slot(gram)
            vector[index] += sign
        return vector

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        self.calls += 1
        return np.stack([self._embed_one(t) for t in texts])


class RemoteEmbeddingBackend:
    """Backend speaking the common embeddings HTTP JSON shape:
    {input: [texts], model: id} -> {data: [{embedding: [...]}]}.

    One :meth:`embed` is one request through :func:`cmdsim.gateway.post_json`,
    with the chat calls' retries; :func:`embed_batch` keeps it to
    REMOTE_CHUNK texts."""

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        dim: int,
        api_key_env: str = "",
        *,
        timeout: float = 60.0,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.endpoint = endpoint
        self.model_id = model_id
        self.dim = dim
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.identity = f"{model_id}-{dim}"
        self.calls = 0
        self._session = session
        self._sleep = sleep

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        self.calls += 1
        rows = post_json(self.endpoint, {"input": list(texts), "model": self.model_id},
                         lambda reply: [item["embedding"] for item in reply["data"]],
                         owner=f"embedding backend {self.model_id}", payload="embeddings",
                         api_key_env=self.api_key_env, timeout=self.timeout,
                         session=self._session, sleep=self._sleep)
        return np.asarray(rows, dtype=np.float64)


class EmbeddingCache:
    """Append-only store of unit vectors keyed by (backend identity, text).

    ``path`` indexes batches, one ``{"identity", "dim", "offset", "texts"}``
    line each, of rows kept in ``path + ".f64"`` as little-endian float64.
    A load keeps the complete lines whose rows are all there, cutting the rest.
    """

    def __init__(self, path: str | Path) -> None:
        self.path, self.rows_path = Path(path), Path(f"{path}.f64")
        self._entries: dict[tuple[str, str], np.ndarray] = {}
        self.hits = self.misses = self._values = self._index_bytes = 0
        index = self.path.read_bytes() if self.path.exists() else b""
        rows = np.fromfile(self.rows_path, "<f8") if self.rows_path.exists() else np.empty(0)
        rows.flags.writeable = False  # served vectors are views into it
        # Only the last line can be torn, and a torn line has no newline.
        for lineno, line in enumerate(index[:index.rfind(b"\n") + 1].splitlines(True), start=1):
            try:
                batch = json.loads(line)
                identity, dim, offset, texts = (batch[k] for k in ("identity", "dim", "offset", "texts"))
                if offset != self._values:
                    raise ValueError(f"batch starts at value {offset}, not {self._values}")
                end = offset + dim * len(texts)
                if end > rows.size:
                    break  # its rows were cut short
                self._entries.update(zip(((identity, t) for t in texts), rows[offset:end].reshape(-1, dim)))
            except (ValueError, LookupError, TypeError) as exc:
                if isinstance(exc, KeyError) and "vector" in batch:
                    raise ValueError(f"{self.path}: old JSONL cache; delete it to rebuild") from None
                raise ValueError(f"{self.path}:{lineno}: corrupt cache line: {exc}") from exc
            self._values, self._index_bytes = end, self._index_bytes + len(line)
        for file, keep in ((self.path, self._index_bytes), (self.rows_path, 8 * self._values)):
            if file.exists() and file.stat().st_size > keep:
                logger.warning("%s: cutting off what a crash left after byte %d", file, keep)
                os.truncate(file, keep)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, identity: str, text: str) -> np.ndarray | None:
        vector = self._entries.get((identity, text))
        self.hits += vector is not None
        self.misses += vector is None
        return vector

    def put(self, identity: str, texts: Sequence[str], vectors: np.ndarray) -> None:
        """Append the rows of the uncached ``texts`` as one batch; may keep views of ``vectors``."""
        fresh = {text: i for i, text in enumerate(texts) if (identity, text) not in self._entries}
        if fresh:
            block = np.ascontiguousarray(vectors, dtype="<f8")
            block = block[list(fresh.values())] if len(fresh) < len(block) else block.view()
            block.flags.writeable = False
            line = json.dumps({"identity": identity, "dim": block.shape[1], "offset": self._values,
                               "texts": list(fresh)}, ensure_ascii=False).encode() + b"\n"
            # Rows before their index line; cutting back to the kept ends drops a failed put.
            for file, keep, data in ((self.rows_path, 8 * self._values, block.data),
                                     (self.path, self._index_bytes, line)):
                with open(file, "ab") as handle:
                    handle.truncate(keep)
                    handle.write(data)
            self._entries.update(zip(((identity, text) for text in fresh), block))
            self._values, self._index_bytes = self._values + block.size, self._index_bytes + len(line)


def embed_batch(
    backend,
    texts: Sequence[str],
    cache: EmbeddingCache | None = None,
) -> np.ndarray:
    """Embed texts in order, L2-normalized, with write-through caching.

    Returns an (n, backend.dim) float64 matrix of unit rows.  Texts
    already in the cache never reach the backend; duplicate texts within
    one call are embedded once.  The backend gets at most REMOTE_CHUNK
    texts per call, and each chunk is checked, normalized and cached
    before the next is sent, so a failure keeps the chunks answered.
    """
    texts = list(texts)
    for text in texts:
        if not isinstance(text, str) or not text.strip():
            raise ValueError("texts must be non-empty strings")
    if not texts:
        return np.zeros((0, backend.dim), dtype=np.float64)
    resolved: dict[str, np.ndarray] = {}
    if cache is not None:
        for text in texts:
            if text not in resolved:
                hit = cache.get(backend.identity, text)
                if hit is not None:
                    resolved[text] = hit
    missing = [t for t in dict.fromkeys(texts) if t not in resolved]
    for start in range(0, len(missing), REMOTE_CHUNK):
        chunk = missing[start:start + REMOTE_CHUNK]
        raw = np.asarray(backend.embed(chunk), dtype=np.float64)
        # Per chunk: a short chunk followed by a long one would shift every later row.
        if raw.shape != (len(chunk), backend.dim):
            raise EmbeddingIntegrityError(
                f"backend {backend.identity} returned shape {raw.shape}, "
                f"expected {(len(chunk), backend.dim)}"
            )
        if not np.all(np.isfinite(raw)):
            raise EmbeddingIntegrityError(
                f"backend {backend.identity} returned non-finite values"
            )
        normalized = unit_normalize(raw)
        del raw  # one chunk x d matrix fewer held while the cache writes and the result is stacked
        resolved.update(zip(chunk, normalized))
        if cache is not None:
            cache.put(backend.identity, chunk, normalized)
    return np.stack([resolved[t] for t in texts])
