"""Embedding backends, a persistent vector cache, and batch embedding.

Vectors are plain numpy float64 arrays.  All vectors leaving
:func:`embed_batch` are L2-normalized exactly once, so downstream dot
products are cosine similarities and cache hits are bitwise identical
to the vectors produced on the original miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import requests

from .gateway import ProviderError, TransportError, json_headers

logger = logging.getLogger(__name__)

DEFAULT_DIM = 256


class EmbeddingIntegrityError(Exception):
    """Backend returned vectors of the wrong shape or with non-finite values."""


def unit_normalize(vectors: np.ndarray) -> np.ndarray:
    """L2-normalize a vector or a matrix of row vectors.

    Raises on zero-norm rows: a zero embedding carries no direction and
    would poison every cosine downstream.
    """
    array = np.asarray(vectors, dtype=np.float64)
    if array.ndim == 1:
        norm = np.linalg.norm(array)
        if norm == 0.0:
            raise EmbeddingIntegrityError("cannot normalize a zero vector")
        return array / norm
    norms = np.linalg.norm(array, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise EmbeddingIntegrityError("cannot normalize zero rows")
    return array / norms


class HashingEmbeddingBackend:
    """Offline deterministic backend: character trigrams of the
    canonicalized text hashed into a signed feature vector.

    Pure function of the text; no model, no network.  Deliberately
    lexical: synonym words land in unrelated coordinates, which is what
    the adapter-training stage is for.
    """

    kind = "local_deterministic"

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
        canonical = " ".join(text.lower().split())
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
    {input: [texts], model: id} -> {data: [{embedding: [...]}]}."""

    kind = "remote_api"

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        dim: int,
        api_key_env: str = "",
        *,
        timeout: float = 60.0,
        session: requests.Session | None = None,
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

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        self.calls += 1
        headers = json_headers(self.api_key_env, f"embedding backend {self.model_id}")
        post = self._session.post if self._session is not None else requests.post
        try:
            response = post(
                self.endpoint,
                json={"input": list(texts), "model": self.model_id},
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(f"embedding backend {self.model_id}: {exc}") from exc
        if response.status_code != 200:
            raise ProviderError(
                f"embedding backend {self.model_id}: HTTP {response.status_code}",
                status=response.status_code,
                body=response.text[:2000],
            )
        try:
            rows = [item["embedding"] for item in response.json()["data"]]
        except (ValueError, LookupError, TypeError) as exc:
            raise ProviderError(
                f"embedding backend {self.model_id}: malformed payload: {exc}",
                status=200,
                body=response.text[:2000],
            ) from exc
        return np.asarray(rows, dtype=np.float64)


class EmbeddingCache:
    """Append-only JSON Lines store of {identity, text, vector}.

    Keys are (backend identity, exact raw text).  Vectors are stored
    after normalization; JSON's shortest-repr floats round-trip float64
    exactly, so reloaded vectors are bitwise equal to what was written.
    A final line left unterminated and unparseable by a crash is dropped
    and cut from the file on load; a corrupt line anywhere else raises.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[tuple[str, str], np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        if self.path.exists():
            torn_at = None
            with open(self.path, "rb") as handle:
                offset = 0
                for lineno, raw in enumerate(handle, start=1):
                    start, offset = offset, offset + len(raw)
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line.decode("utf-8"))
                        key = (record["identity"], record["text"])
                        vector = np.asarray(record["vector"], dtype=np.float64)
                    except (ValueError, LookupError, TypeError) as exc:
                        # Every put ends its line with a newline, so an
                        # unterminated last line is a write cut short.
                        if raw.endswith(b"\n"):
                            raise ValueError(f"{self.path}:{lineno}: corrupt cache line: {exc}") from exc
                        torn_at = start
                        break
                    self._entries[key] = vector
            if torn_at is not None:
                # Cut the fragment off so the next put starts a fresh line.
                logger.warning("%s: dropping torn final line at byte %d", self.path, torn_at)
                os.truncate(self.path, torn_at)
            logger.debug("loaded %d cached embeddings from %s", len(self._entries), self.path)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, identity: str, text: str) -> np.ndarray | None:
        vector = self._entries.get((identity, text))
        if vector is None:
            self.misses += 1
            return None
        self.hits += 1
        return vector

    def put(self, identity: str, text: str, vector: np.ndarray) -> None:
        key = (identity, text)
        if key in self._entries:
            return
        self._entries[key] = np.asarray(vector, dtype=np.float64)
        record = {"identity": identity, "text": text, "vector": [float(x) for x in vector]}
        with open(self.path, "a", encoding="utf-8", newline="\n") as handle:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")


def embed_batch(
    backend,
    texts: Sequence[str],
    cache: EmbeddingCache | None = None,
) -> np.ndarray:
    """Embed texts in order, L2-normalized, with write-through caching.

    Returns an (n, backend.dim) float64 matrix of unit rows.  Texts
    already in the cache never reach the backend; duplicate texts within
    one call are embedded once.
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
    if missing:
        raw = np.asarray(backend.embed(missing), dtype=np.float64)
        if raw.shape != (len(missing), backend.dim):
            raise EmbeddingIntegrityError(
                f"backend {backend.identity} returned shape {raw.shape}, "
                f"expected {(len(missing), backend.dim)}"
            )
        if not np.all(np.isfinite(raw)):
            raise EmbeddingIntegrityError(
                f"backend {backend.identity} returned non-finite values"
            )
        normalized = unit_normalize(raw)
        for text, vector in zip(missing, normalized):
            resolved[text] = vector
            if cache is not None:
                cache.put(backend.identity, text, vector)
    return np.stack([resolved[t] for t in texts])
