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
from collections.abc import Callable, Collection, Sequence
from pathlib import Path

import numpy as np

from .core import canonical_dedup_key
from .gateway import check_endpoint, post_json

logger = logging.getLogger(__name__)

DEFAULT_DIM = 256

# Texts per backend call, for every backend.  OpenAI documents 2,048
# inputs as the cap of one request to its embeddings endpoint; stay at
# or under it.
REMOTE_CHUNK = 2048

# Texts per array pass of HashingEmbeddingBackend.embed.  A slice's
# count matrix is HASH_SLICE x 2 x dim int64, 512 KiB at dim 256; larger
# slices were no faster and raised peak memory.
HASH_SLICE = 128
# Rows per block of unit_normalize: a block's squares, its one
# temporary, are 2 MiB at dim 256.
NORMALIZE_ROWS = 1024
# Corpus rows per product in similarities.  OpenBLAS packs only these
# rows: against one product over the whole corpus, 45 MB less peak
# memory and half the time at N = 28,521, with the same bits there.
NEGATIVES_SLICE = 1024
# A gram key packs three 21-bit code points; this one, above every code
# point, pads the single gram of a 1-2 character text.
_PAD = 0x1FFFFF


class EmbeddingIntegrityError(ValueError):
    """Backend returned vectors of the wrong shape or with non-finite
    values, or a vector to normalize was zero."""


def unit_normalize(vectors: np.ndarray, *, in_place: bool = False) -> np.ndarray:
    """L2-normalize a matrix of row vectors.

    Raises on zero-norm rows: a zero vector carries no direction and
    would poison every cosine downstream.  With ``in_place``, a float64
    ``vectors`` is itself divided and returned (partly divided if this
    raises).  Norms are taken a block of rows at a time, so the only
    temporary is one block's squares; each row's bits are those of
    ``vectors / np.linalg.norm(vectors, axis=1, keepdims=True)``.
    """
    array = np.asarray(vectors, dtype=np.float64)
    out = array if in_place else np.empty_like(array)
    for top in range(0, len(array), NORMALIZE_ROWS):
        block = array[top:top + NORMALIZE_ROWS]
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise EmbeddingIntegrityError("cannot normalize a zero vector")
        np.divide(block, norms, out=out[top:top + NORMALIZE_ROWS])
    return out


def similarities(corpus: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The C-contiguous (len(queries), len(corpus)) dot products of the
    query rows with the corpus rows: cosine scores for unit rows.

    They come from products ``corpus[s] @ queries.T`` over slices s of
    NEGATIVES_SLICE corpus rows, a lone query repeated into a C-contiguous
    d x 2 operand, so their bits depend on the BLAS build but not on its
    thread count: a matrix-vector product, or the corpus as the column
    side, changed bits with it (see README).
    """
    columns = np.repeat(queries.T, 2, axis=1) if len(queries) == 1 else queries.T
    scores = np.empty((len(queries), len(corpus)))
    for top in range(0, len(corpus), NEGATIVES_SLICE):
        scores[:, top:top + NEGATIVES_SLICE] = (corpus[top:top + NEGATIVES_SLICE] @ columns).T[:len(queries)]
    return scores


class HashingEmbeddingBackend:
    """Offline deterministic backend: character trigrams of the
    canonicalized text hashed into a signed feature vector.

    Pure function of the text; no model, no network.  Deliberately
    lexical: synonym words land in unrelated coordinates, which is what
    the adapter-training stage is for.  One thread at a time may call
    :meth:`embed`, which replaces the gram table's two arrays one by one.
    """

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.identity = f"hash3-{dim}"
        # The packed keys of the grams seen so far, sorted, and each one's
        # 2 * coordinate + (1 if the gram adds, 0 if it subtracts).  The
        # last key, above every gram key, keeps searchsorted in bounds.
        self._keys = np.array([np.iinfo(np.uint64).max], dtype=np.uint64)
        self._codes = np.zeros(1, dtype=np.int64)

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        """The code of each gram key, from the blake2b digest of the gram's UTF-8."""
        points = np.stack([keys >> np.uint64(42), keys >> np.uint64(21) & np.uint64(_PAD),
                           keys & np.uint64(_PAD)], axis=1)
        lengths = 3 - np.count_nonzero(points == _PAD, axis=1)
        # Pads only trail, so NUL can stand in for them: the slices below cut them off.
        points[points == _PAD] = 0
        text = points.astype("<u4").tobytes().decode("utf-32-le")
        digests = b"".join([hashlib.blake2b(text[i:i + n].encode("utf-8"), digest_size=8).digest()
                            for i, n in zip(range(0, len(text), 3), lengths.tolist())])
        words = np.frombuffer(digests, dtype="<u4").reshape(-1, 2).astype(np.int64)
        return 2 * (words[:, 0] % self.dim) + (words[:, 1] & 1)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text: over the grams of its canonical form (its
        trigrams, or the whole of a 1-2 character form), the count of those
        that add to each coordinate minus the count of those that subtract.

        A coordinate is a sum of +-1.0 terms whose partial sums are small
        integers, so the float64 count difference is exactly what adding
        the terms one by one gives, in any order.  Texts go through in
        slices of HASH_SLICE.  A slice looks its distinct grams up in the
        backend's sorted key table in one search; Python touches only the
        grams new to the table, once each, to hash them.
        """
        vectors = np.empty((len(texts), self.dim), dtype=np.float64)
        for start in range(0, len(texts), HASH_SLICE):
            canonicals = [canonical_dedup_key(text) for text in texts[start:start + HASH_SLICE]]
            blank = next((i for i, canonical in enumerate(canonicals) if not canonical), None)
            # Texts before a blank one are encoded first, so the first bad text
            # decides the error: UnicodeEncodeError for a lone surrogate.
            codes = np.frombuffer("".join(canonicals[:blank]).encode("utf-32-le"), dtype="<u4")
            if blank is not None:
                raise ValueError("cannot embed blank text")
            lengths = np.array([len(canonical) for canonical in canonicals])
            # Each text followed by two pads, so the gram at a text's first
            # position is (a, b, pad) or (a, pad, pad) when it has 2 or 1 chars.
            padded = np.full(len(codes) + 2 * len(lengths), _PAD, dtype=np.uint64)
            padded[np.arange(len(codes)) + np.repeat(2 * np.arange(len(lengths)), lengths)] = codes
            keys = padded[:-2] << np.uint64(42)
            keys |= padded[1:-1] << np.uint64(21)
            keys |= padded[2:]
            del padded
            grams = np.maximum(lengths - 2, 1)
            firsts = np.cumsum(lengths + 2) - (lengths + 2)
            positions = np.arange(grams.sum()) + np.repeat(firsts - (np.cumsum(grams) - grams), grams)
            distinct, inverse = np.unique(keys[positions], return_inverse=True)
            # Each temporary goes once used: kept until the next slice, they
            # raised the peak RSS of a cold 7,546-text embed by about 3 MB.
            del keys, positions
            at = np.searchsorted(self._keys, distinct)
            codes = self._codes[at]
            fresh = self._keys[at] != distinct
            if fresh.any():
                codes[fresh] = self._hash(distinct[fresh])
                self._keys = np.insert(self._keys, at[fresh], distinct[fresh])
                self._codes = np.insert(self._codes, at[fresh], codes[fresh])
            del distinct, at, fresh
            # Bin row * 2 * dim + code of every gram: a text's row of
            # 2 * dim bins holds, per coordinate, its subtracting count and
            # then its adding count.
            bins = codes[inverse]
            del codes, inverse
            bins += np.repeat(np.arange(0, len(lengths) * 2 * self.dim, 2 * self.dim), grams)
            counts = np.bincount(bins, minlength=len(lengths) * 2 * self.dim).reshape(-1, self.dim, 2)
            del bins
            vectors[start:start + len(lengths)] = counts[:, :, 1] - counts[:, :, 0]
            del counts
        return vectors


class RemoteEmbeddingBackend:
    """Backend speaking the common embeddings HTTP JSON shape:
    {input: [texts], model: id} -> {data: [{embedding: [...]}]}.

    One :meth:`embed` is one request through :func:`cmdsim.gateway.post_json`,
    with the chat calls' retries; :func:`embed_batch` keeps it to
    REMOTE_CHUNK texts.  ``sleep`` is ``post_json``'s."""

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        dim: int,
        api_key_env: str = "",
        *,
        timeout: float = 60.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        check_endpoint(endpoint, f"embedding backend {model_id}")
        self.endpoint = endpoint
        self.model_id = model_id
        self.dim = dim
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.identity = f"{model_id}-{dim}"
        self._sleep = sleep

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        rows = post_json(self.endpoint, {"input": list(texts), "model": self.model_id},
                         lambda reply: [item["embedding"] for item in reply["data"]],
                         owner=f"embedding backend {self.model_id}", payload="embeddings",
                         api_key_env=self.api_key_env, timeout=self.timeout,
                         sleep=self._sleep)
        return np.asarray(rows, dtype=np.float64)


class EmbeddingCache:
    """Append-only store of unit vectors keyed by (backend identity, text).

    ``path`` indexes batches, one ``{"identity", "dim", "offset", "texts"}``
    line each, of rows kept in ``path + ".f64"`` as little-endian float64.
    A load keeps the complete lines whose rows are all there, cutting the
    rest, and reads no rows: :meth:`get` serves read-only views of a map of
    the rows file, which :meth:`release` lets go.  Truncating the rows file
    under a live map crashes its process (SIGBUS).
    """

    def __init__(self, path: str | Path) -> None:
        self.path, self.rows_path = Path(path), Path(f"{path}.f64")
        # Where each vector's values sit in the rows file.
        self._rows: dict[tuple[str, str], slice] = {}
        self._map: np.ndarray | None = None
        self._values = self._index_bytes = 0
        index = self.path.read_bytes() if self.path.exists() else b""
        size = self.rows_path.stat().st_size // 8 if self.rows_path.exists() else 0
        # Only the last line can be torn, and a torn line has no newline.
        for lineno, line in enumerate(index[:index.rfind(b"\n") + 1].splitlines(True), start=1):
            try:
                batch = json.loads(line)
                identity, dim, offset, texts = (batch[k] for k in ("identity", "dim", "offset", "texts"))
                if offset != self._values:
                    raise ValueError(f"batch starts at value {offset}, not {self._values}")
                if not dim > 0:
                    raise ValueError(f"dim {dim} is not positive")
                end = offset + dim * len(texts)
                if end > size:
                    break  # its rows were cut short
                self._place(identity, texts, offset, dim)
            except (ValueError, LookupError, TypeError) as exc:
                if isinstance(exc, KeyError) and "vector" in batch:
                    raise ValueError(f"{self.path}: old JSONL cache; delete it to rebuild") from None
                raise ValueError(f"{self.path}:{lineno}: corrupt cache line: {exc}") from exc
            self._values, self._index_bytes = end, self._index_bytes + len(line)
        for file, keep in ((self.path, self._index_bytes), (self.rows_path, 8 * self._values)):
            if file.exists() and file.stat().st_size > keep:
                logger.warning("%s: cutting off what a crash left after byte %d", file, keep)
                os.truncate(file, keep)

    def _place(self, identity: str, texts: Collection[str], offset: int, dim: int) -> None:
        """Note the rows of ``texts``, ``dim`` values each, as starting at value ``offset``."""
        starts = range(offset, offset + dim * len(texts), dim)
        self._rows.update(((identity, text), slice(at, at + dim)) for text, at in zip(texts, starts))

    def get(self, identity: str, text: str) -> np.ndarray | None:
        where = self._rows.get((identity, text))
        if where is None:
            return None
        if self._map is None or where.stop > self._map.size:
            # Exactly the whole rows: numpy refuses an empty map or a torn float.
            self._map = np.memmap(self.rows_path, "<f8", "r", shape=(self._values,)).view(np.ndarray)
        return self._map[where]

    def release(self) -> None:
        """Let go of the rows map; vectors served from it keep it alive."""
        self._map = None

    def put(self, identity: str, texts: Sequence[str], vectors: np.ndarray) -> None:
        """Append the rows of the uncached ``texts`` as one batch."""
        fresh = {text: i for i, text in enumerate(texts) if (identity, text) not in self._rows}
        if fresh:
            block = np.ascontiguousarray(vectors, dtype="<f8")
            if len(fresh) < len(block):
                block = block[list(fresh.values())]
            dim = block.shape[1]
            line = json.dumps({"identity": identity, "dim": dim, "offset": self._values,
                               "texts": list(fresh)}, ensure_ascii=False).encode() + b"\n"
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Rows before their index line; cutting back to the kept ends drops a failed put.
            for file, keep, data in ((self.rows_path, 8 * self._values, block.data),
                                     (self.path, self._index_bytes, line)):
                with open(file, "ab") as handle:
                    handle.truncate(keep)
                    handle.write(data)
            self._place(identity, fresh, self._values, dim)
            self._values, self._index_bytes = self._values + block.size, self._index_bytes + len(line)


def embed_batch(
    backend,
    texts: Sequence[str],
    cache: EmbeddingCache | None = None,
) -> np.ndarray:
    """Embed texts in order, L2-normalized, with write-through caching.

    Returns a new (n, backend.dim) float64 matrix of unit rows, sharing
    no memory with the cache.  Texts already in the cache never reach the
    backend; duplicate texts within one call are embedded once, and each
    distinct text is looked up once.  The backend gets at most REMOTE_CHUNK
    texts per call, and each chunk is checked, normalized and cached
    before the next is sent, so a failure keeps the chunks answered.
    """
    texts = list(texts)
    for text in texts:
        if not isinstance(text, str) or not text.strip():
            raise ValueError("texts must be non-empty strings")
    out = np.empty((len(texts), backend.dim), dtype=np.float64)
    # The row of each text's first occurrence; repeats are copied from it last.
    first: dict[str, int] = {}
    for i, text in enumerate(texts):
        first.setdefault(text, i)
    missing = list(first)
    if cache is not None:
        missing = []
        for looked, (text, i) in enumerate(first.items(), start=1):
            hit = cache.get(backend.identity, text)
            if hit is None:
                missing.append(text)
            else:
                out[i] = hit
            if looked % REMOTE_CHUNK == 0:
                # Mapped pages count in RSS until unmapped: hold a chunk's, not the call's.
                cache.release()
        cache.release()
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
        del raw  # one chunk x d matrix fewer held while the cache writes
        out[[first[text] for text in chunk]] = normalized
        if cache is not None:
            cache.put(backend.identity, chunk, normalized)
        del normalized
    sources = np.array([first[text] for text in texts], dtype=np.intp)
    repeats = sources != np.arange(len(texts))
    out[repeats] = out[sources[repeats]]
    return out
