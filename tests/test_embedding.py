"""Embedding backends, cache behavior, and normalization guarantees."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdsim.embedding import (
    DEFAULT_DIM,
    HASH_SLICE,
    NEGATIVES_SLICE,
    NORMALIZE_ROWS,
    EmbeddingCache,
    EmbeddingIntegrityError,
    REMOTE_CHUNK,
    HashingEmbeddingBackend,
    RemoteEmbeddingBackend,
    embed_batch,
    similarities,
    unit_normalize,
)
from cmdsim.gateway import ConfigurationError, ProviderError, TransportError

from conftest import ScriptedPost, outputs_under_blas_threads, reply
from oracles import hash3_embed

texts_strategy = st.text(min_size=1, max_size=40).filter(lambda s: s.strip())


class TestUnitNormalize:
    def test_vector(self):
        out = unit_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]])

    def test_matrix_rows(self):
        out = unit_normalize(np.array([[3.0, 4.0], [0.0, 2.0]]))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), [1.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(EmbeddingIntegrityError):
            unit_normalize(np.zeros((1, 4)))

    def test_zero_row_rejected(self):
        with pytest.raises(EmbeddingIntegrityError):
            unit_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("in_place", [False, True])
    def test_blocks_give_the_bits_of_one_division(self, in_place):
        # Over NORMALIZE_ROWS rows, norms are taken a block at a time.
        rows = np.random.default_rng(5).normal(size=(2 * NORMALIZE_ROWS + 7, 33))
        expected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        given = rows.copy()
        out = unit_normalize(given, in_place=in_place)
        assert (out is given) == in_place
        np.testing.assert_array_equal(out, expected)

    def test_zero_row_in_a_later_block_rejected(self):
        rows = np.ones((NORMALIZE_ROWS + 3, 4))
        rows[NORMALIZE_ROWS + 1] = 0.0
        with pytest.raises(EmbeddingIntegrityError):
            unit_normalize(rows, in_place=True)


# (rows, width) of random unit rows.  On OpenBLAS 0.3.31, a 2-core host,
# the sliced matrix-vector product of one random query changed bits
# between 1 and 2 threads at seven of these nine shapes.
PROBE_SHAPES = ((361, 1536), (801, 1536), (1001, 768), (1001, 1536), (1601, 1536),
                (5003, 768), (5003, 1536), (801, 768), (3900, 256))

_SIMILARITIES_DIGESTS = """
import hashlib, sys
from pathlib import Path
import numpy as np
from cmdsim.embedding import similarities, unit_normalize
out = Path(sys.argv[2])
out.mkdir()
lines = []
for rows, dim in SHAPES:
    rng = np.random.default_rng(rows * dim)
    corpus = unit_normalize(rng.standard_normal((rows, dim)))
    for count in (1, 2):
        scores = similarities(corpus, unit_normalize(rng.standard_normal((count, dim))))
        lines.append(f"{rows} {dim} {count} {hashlib.sha256(scores.tobytes()).hexdigest()}\\n")
(out / "digests.txt").write_text("".join(lines))
"""


class TestSimilarities:
    @pytest.mark.parametrize("count", [0, 1, 2, 5])
    def test_slices_of_the_corpus_times_the_queries(self, count):
        # Three slices, the last one short.  A lone query is one column of
        # its C-contiguous doubled operand.
        rng = np.random.default_rng(count)
        corpus = unit_normalize(rng.standard_normal((2 * NEGATIVES_SLICE + 7, 24)))
        queries = unit_normalize(rng.standard_normal((count, 24))) if count else np.empty((0, 24))
        columns = np.repeat(queries.T, 2, axis=1) if count == 1 else queries.T
        expected = np.concatenate([corpus[top:top + NEGATIVES_SLICE] @ columns
                                   for top in range(0, len(corpus), NEGATIVES_SLICE)]).T[:count]
        scores = similarities(corpus, queries)
        assert scores.shape == (count, len(corpus)) and scores.flags.c_contiguous
        assert scores.tobytes() == expected.tobytes()
        np.testing.assert_allclose(scores, queries @ corpus.T, rtol=0, atol=1e-14)

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        code = f"SHAPES = {PROBE_SHAPES!r}\n{_SIMILARITIES_DIGESTS}"
        written = outputs_under_blas_threads(tmp_path, ["-c", code], "digests.txt")
        assert written["1"].count(b"\n") == 2 * len(PROBE_SHAPES)
        assert written["1"] == written["2"]


class TestHashingBackend:
    def test_identity_and_dim(self):
        backend = HashingEmbeddingBackend(64)
        assert backend.dim == 64
        assert backend.identity == "hash3-64"
        assert HashingEmbeddingBackend().dim == DEFAULT_DIM

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashingEmbeddingBackend(0)

    def test_deterministic_across_instances(self):
        a = HashingEmbeddingBackend(64).embed(["net user admin"])
        b = HashingEmbeddingBackend(64).embed(["net user admin"])
        np.testing.assert_array_equal(a, b)

    def test_case_and_spacing_insensitive(self):
        backend = HashingEmbeddingBackend(64)
        matrix = backend.embed(["NET  USER", "net user"])
        np.testing.assert_array_equal(matrix[0], matrix[1])

    def test_short_text_uses_whole_string(self):
        backend = HashingEmbeddingBackend(64)
        vector = backend.embed(["ab"])[0]
        assert np.count_nonzero(vector) == 1

    def test_blank_text_rejected(self):
        with pytest.raises(ValueError):
            HashingEmbeddingBackend(64).embed(["   "])

    def test_different_texts_usually_differ(self):
        backend = HashingEmbeddingBackend(256)
        matrix = backend.embed(["ipconfig /all", "netstat -ano"])
        assert not np.array_equal(matrix[0], matrix[1])

    @given(texts_strategy)
    @settings(max_examples=50)
    def test_trigram_count_conservation(self, text):
        # Total signed mass is bounded by the number of grams.
        backend = HashingEmbeddingBackend(128)
        canonical = " ".join(text.lower().split())
        grams = max(1, len(canonical) - 2) if len(canonical) >= 3 else 1
        vector = backend.embed([text])[0]
        assert np.abs(vector).sum() <= grams + 1e-9


# Astral-plane characters, whitespace runs and case pairs; texts are
# short, so 1-2 character canonical forms are common.
hash_texts = st.text(
    alphabet=list("aAbB /\\:.-é \t\n\u3000\U0001F600\U00010348"),
    min_size=1, max_size=12,
).filter(lambda s: s.strip())


class TestHashingMatchesOracle:
    """The array kernel against the one-gram-at-a-time loop, bit for bit."""

    @given(st.lists(hash_texts, min_size=1, max_size=8), st.sampled_from([1, 7, 64, 256]))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal(self, texts, dim):
        ours = HashingEmbeddingBackend(dim).embed(texts)
        assert ours.tobytes() == hash3_embed(texts, dim).tobytes()

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_batches_straddling_the_slice(self, data):
        count = data.draw(st.sampled_from([HASH_SLICE - 1, HASH_SLICE, HASH_SLICE + 1, 2 * HASH_SLICE + 5]))
        texts = data.draw(st.lists(hash_texts, min_size=count, max_size=count))
        backend = HashingEmbeddingBackend(64)
        # Twice, so the second pass is served from the gram cache.
        for _ in range(2):
            assert backend.embed(texts).tobytes() == hash3_embed(texts, 64).tobytes()

    def test_one_and_two_character_texts(self):
        texts = ["a", " B ", "ab", "a b", "\U0001F600", "\U0001F600x", "abc"]
        ours = HashingEmbeddingBackend(64).embed(texts)
        assert ours.tobytes() == hash3_embed(texts, 64).tobytes()
        assert [np.abs(row).sum() for row in ours[:6]] == [1.0] * 6

    def test_gram_table_across_calls(self):
        # One backend keeps the grams it has hashed in a sorted table; each
        # call below brings grams that sort before, between and after the
        # ones it already holds, in one slice with 1-2 character texts, a
        # NUL and characters outside the BMP.
        backend = HashingEmbeddingBackend(64)
        calls = [
            ["mmm nnn", "mnm"],
            ["aaa", "zzz", "mmn", "mnm", "n", "\x00ab", "\U0001F600\U0001F601"],
            ["ab", "a\x00", "\x00", "mmm nnn", "yzz\U00010348", "\U0001F600", "mno", "\U0010FFFF" * 3],
            ["z\x00\x00z", "aaa mnm zzz", "\uffff\U00010000", "na"],
        ]
        for texts in calls:
            assert backend.embed(texts).tobytes() == hash3_embed(texts, 64).tobytes()
        everything = [text for texts in calls for text in texts]
        assert backend.embed(everything).tobytes() == hash3_embed(everything, 64).tobytes()

    @pytest.mark.parametrize("at", [0, 3, HASH_SLICE + 2])
    def test_blank_text_mid_batch(self, at):
        texts = ["net user"] * (HASH_SLICE + 4)
        texts[at] = " \t "
        with pytest.raises(ValueError, match="blank"):
            HashingEmbeddingBackend(64).embed(texts)
        with pytest.raises(ValueError, match="blank"):
            hash3_embed(texts, 64)

    @pytest.mark.parametrize("texts, error", [
        (["ok", "a\ud800b"], UnicodeEncodeError),
        (["\udfff"], UnicodeEncodeError),
        (["x\ud83d\ude00", "  "], UnicodeEncodeError),
        (["ok", " ", "a\ud800b"], ValueError),
    ])
    def test_first_bad_text_decides_the_error(self, texts, error):
        # Lone surrogates cannot be encoded; UnicodeEncodeError is a ValueError.
        with pytest.raises(error) as ours:
            HashingEmbeddingBackend(64).embed(texts)
        with pytest.raises(error) as oracle:
            hash3_embed(texts, 64)
        assert type(ours.value) is type(oracle.value) is error


class FakeBackend:
    """Configurable stand-in for shape and finiteness failure modes."""

    def __init__(self, dim=4, rows=None):
        self.dim = dim
        self.identity = "fake"
        self.calls = 0
        self._rows = rows

    def embed(self, texts):
        self.calls += 1
        if self._rows is not None:
            return np.asarray(self._rows)
        out = np.zeros((len(texts), self.dim))
        for i, text in enumerate(texts):
            out[i, hash(text) % self.dim] = 1.0
            out[i, 0] += 0.5
        return out


class CountingBackend(HashingEmbeddingBackend):
    """The hashing backend, counting its :meth:`embed` calls."""

    calls = 0

    def embed(self, texts):
        self.calls += 1
        return super().embed(texts)


def cached_texts(cache, identity, texts):
    """Those of ``texts`` that ``cache`` holds for ``identity``."""
    return [text for text in texts if cache.get(identity, text) is not None]


class TestEmbedBatch:
    def test_rows_are_unit_norm(self):
        matrix = embed_batch(HashingEmbeddingBackend(64), ["whoami", "net view"])
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), [1.0, 1.0])

    def test_empty_input(self):
        matrix = embed_batch(HashingEmbeddingBackend(64), [])
        assert matrix.shape == (0, 64)

    def test_duplicates_embedded_once(self):
        backend = FakeBackend()
        matrix = embed_batch(backend, ["aa", "bb", "aa"])
        assert backend.calls == 1
        np.testing.assert_array_equal(matrix[0], matrix[2])

    def test_rejects_blank(self):
        with pytest.raises(ValueError):
            embed_batch(HashingEmbeddingBackend(64), ["ok", " "])

    def test_shape_mismatch_detected(self):
        backend = FakeBackend(rows=[[1.0, 2.0]])
        with pytest.raises(EmbeddingIntegrityError, match="shape"):
            embed_batch(backend, ["aa"])

    def test_non_finite_detected(self):
        backend = FakeBackend(rows=[[np.nan, 0.0, 0.0, 1.0]])
        with pytest.raises(EmbeddingIntegrityError, match="non-finite"):
            embed_batch(backend, ["aa"])

    def test_cache_write_through_and_bitwise_hits(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(cache_path)
        backend = CountingBackend(64)
        first = embed_batch(backend, ["net user", "net view"], cache)
        assert backend.calls == 1
        again = embed_batch(backend, ["net user", "net view"], cache)
        assert backend.calls == 1  # served from cache
        np.testing.assert_array_equal(first, again)

        # A fresh cache instance reloads from disk bitwise-identically.
        reloaded = EmbeddingCache(cache_path)
        fresh = CountingBackend(64)
        served = embed_batch(fresh, ["net user"], reloaded)
        np.testing.assert_array_equal(served[0], first[0])
        assert fresh.calls == 0

    def test_cache_keys_include_backend_identity(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "cache.jsonl")
        embed_batch(HashingEmbeddingBackend(64), ["whoami"], cache)
        other = CountingBackend(32)
        embed_batch(other, ["whoami"], cache)
        assert other.calls == 1  # different identity, not a hit

    def test_input_order_preserved(self):
        backend = HashingEmbeddingBackend(64)
        separate = [embed_batch(backend, [t])[0] for t in ["cc", "aa", "bb"]]
        together = embed_batch(backend, ["cc", "aa", "bb"])
        np.testing.assert_array_equal(together, np.stack(separate))

    def test_hits_misses_and_repeats_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr("cmdsim.embedding.REMOTE_CHUNK", 2)
        backend = HashingEmbeddingBackend(16)
        sent = []
        embed = backend.embed
        backend.embed = lambda chunk: sent.append(list(chunk)) or embed(chunk)
        cache = EmbeddingCache(tmp_path / "cache.jsonl")
        embed_batch(backend, ["net view", "whoami"], cache)
        sent.clear()
        gets = []
        get = cache.get
        cache.get = lambda identity, text: gets.append(text) or get(identity, text)
        texts = ["net user", "net view", "net user", "ipconfig", "whoami", "hostname",
                 "ipconfig", "net view", "tasklist", "net user"]
        matrix = embed_batch(backend, texts, cache)
        assert sent == [["net user", "ipconfig"], ["hostname", "tasklist"]]
        assert sorted(gets) == sorted(set(texts))  # one get per distinct text
        expected = np.stack([embed_batch(HashingEmbeddingBackend(16), [text])[0] for text in texts])
        assert matrix.tobytes() == expected.tobytes()
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous and matrix.flags.writeable
        assert not any(np.shares_memory(matrix, cache.get(backend.identity, text)) for text in texts)


def _two_batches(path):
    """A cache at ``path`` holding one 16-d batch of one text, then one of
    two; returns the backend and the three vectors in that order."""
    backend = CountingBackend(16)
    first = embed_batch(backend, ["net user"], EmbeddingCache(path))
    second = embed_batch(backend, ["net view", "net use"], EmbeddingCache(path))
    return backend, np.concatenate([first, second])


def _rows_path(path):
    return path.parent / (path.name + ".f64")


def _assert_recovers(path, backend, vectors, kept, index):
    """Loading the damaged cache at ``path`` keeps its first ``kept``
    vectors, cuts the index back to ``index`` and the rows to the kept
    vectors' bytes; the lost texts are embedded again, bitwise equal."""
    cache = EmbeddingCache(path)
    texts = ["net user", "net view", "net use"]
    assert cached_texts(cache, backend.identity, texts) == texts[:kept]
    assert path.read_bytes() == index
    assert _rows_path(path).read_bytes() == vectors[:kept].tobytes()
    np.testing.assert_array_equal(embed_batch(backend, texts, cache), vectors)
    assert backend.calls == 2 + (kept < 3)
    reloaded = EmbeddingCache(path)
    for text, vector in zip(texts, vectors):
        assert reloaded.get(backend.identity, text).tobytes() == vector.tobytes()


class TestEmbeddingCache:
    def test_corrupt_line_reported(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"identity": "x"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="cache.jsonl:1"):
            EmbeddingCache(path)

    @pytest.mark.parametrize("dim", [-2, 0, 2.5])
    def test_dim_that_places_no_rows_reported(self, tmp_path, dim):
        path = tmp_path / "cache.jsonl"
        path.write_text(f'{{"identity": "x", "dim": {dim}, "offset": 0, "texts": ["a", "b"]}}\n', encoding="utf-8")
        _rows_path(path).write_bytes(np.ones(8).tobytes())
        with pytest.raises(ValueError, match="cache.jsonl:1: corrupt cache line"):
            EmbeddingCache(path)

    def test_corrupt_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put("id", ["a"], np.array([[1.0, 0.0]]))
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2] + b"\n" + good)
        with pytest.raises(ValueError, match="cache.jsonl:1: corrupt cache line"):
            EmbeddingCache(path)

    def test_batch_not_starting_where_the_last_ended_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _two_batches(path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(lines[0] + lines[1].replace('"offset": 16', '"offset": 8'), encoding="utf-8")
        with pytest.raises(ValueError, match="cache.jsonl:2: corrupt cache line: batch starts at value 8"):
            EmbeddingCache(path)

    def test_torn_final_line_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend, vectors = _two_batches(path)
        index = path.read_bytes()
        path.write_bytes(index[:-7])  # cut inside the second index line
        _assert_recovers(path, backend, vectors, 1, index[: index.index(b"\n") + 1])

    @pytest.mark.parametrize("damage", ["short_rows", "orphan_rows", "partial_float"])
    def test_crash_leftovers_cut(self, tmp_path, damage):
        path = tmp_path / "cache.jsonl"
        backend, vectors = _two_batches(path)
        index, rows = path.read_bytes(), _rows_path(path).read_bytes()
        first_line = index[: index.index(b"\n") + 1]
        if damage == "short_rows":
            _rows_path(path).write_bytes(rows[:-8])
        elif damage == "orphan_rows":  # a crash between the rows and their index line
            path.write_bytes(first_line)
        else:
            _rows_path(path).write_bytes(rows + b"\x01\x02\x03")
        kept = 3 if damage == "partial_float" else 1
        _assert_recovers(path, backend, vectors, kept, index if kept == 3 else first_line)

    def test_put_is_idempotent(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        cache.put("id", ["text", "text"], vectors)
        cache.put("id", ["text"], vectors[:1])
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        assert _rows_path(path).stat().st_size == 2 * 8

    def test_put_cuts_what_a_failed_put_left(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend, vectors = _two_batches(path)
        cache = EmbeddingCache(path)
        # A put of this process that failed between the two writes.
        with open(_rows_path(path), "ab") as handle:
            handle.write(np.ones(16).tobytes())
        with open(path, "ab") as handle:
            handle.write(b'{"identity": "hash3-16", "dim"')
        again = embed_batch(backend, ["net use", "net start"], cache)
        reloaded = EmbeddingCache(path)
        texts = ["net user", "net view", "net use", "net start"]
        assert cached_texts(reloaded, backend.identity, texts) == texts
        assert reloaded.get(backend.identity, "net start").tobytes() == again[1].tobytes()
        assert _rows_path(path).read_bytes() == vectors.tobytes() + again[1].tobytes()

    def test_old_format_names_the_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"identity": "hash3-2", "text": "a", "vector": [1.0, 0.0]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="cache.jsonl: old JSONL cache; delete it to rebuild"):
            EmbeddingCache(path)

    def test_mixed_dims_reload_bitwise(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        wide, narrow = HashingEmbeddingBackend(64), HashingEmbeddingBackend(32)
        cache = EmbeddingCache(path)
        expected = {(b.identity, t): embed_batch(b, [t], cache)[0]
                    for b in (wide, narrow, wide) for t in (f"whoami /{b.dim}", "hostname")}
        reloaded = EmbeddingCache(path)
        assert _rows_path(path).stat().st_size == 8 * (2 * 64 + 2 * 32)  # the repeats added no rows
        for (identity, text), vector in expected.items():
            served = reloaded.get(identity, text)
            assert served.shape == vector.shape
            assert served.tobytes() == vector.tobytes()

    def test_cached_vectors_are_read_only(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = HashingEmbeddingBackend(16)
        embed_batch(backend, ["net user"], EmbeddingCache(path))
        cache = EmbeddingCache(path)
        embed_batch(backend, ["net view"], cache)
        for text in ("net user", "net view"):
            with pytest.raises(ValueError, match="read-only"):
                cache.get(backend.identity, text)[0] = 2.0

        c_order, f_order = np.array([[0.6, 0.8], [0.8, 0.6]]), np.asfortranarray([[0.0, 1.0], [1.0, 0.0]])
        cache.put("id", ["a", "b"], c_order)
        cache.put("id", ["c", "d"], f_order)
        assert c_order.flags.writeable  # only the cache's view is read-only
        reloaded = EmbeddingCache(path)
        assert reloaded.get("id", "b").tobytes() == c_order[1].tobytes()
        assert reloaded.get("id", "d").tobytes() == f_order[1].tobytes()

    def test_get_after_put_serves_the_appended_rows(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend, vectors = _two_batches(path)
        cache = EmbeddingCache(path)
        assert cache.get(backend.identity, "net user").tobytes() == vectors[0].tobytes()
        appended = np.array([[0.6, 0.8], [0.8, 0.6]])
        cache.put("id", ["a", "b"], appended)
        assert cache.get("id", "b").tobytes() == appended[1].tobytes()
        assert cache.get(backend.identity, "net use").tobytes() == vectors[2].tobytes()

    def test_served_vector_outlives_release(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend, vectors = _two_batches(path)
        cache = EmbeddingCache(path)
        served = cache.get(backend.identity, "net view")
        cache.release()
        embed_batch(backend, ["net start"], cache)
        del cache
        assert served.tobytes() == vectors[1].tobytes()
        assert not served.flags.writeable

    @pytest.mark.parametrize("rows", [b"", b"\x01\x02\x03"])
    @pytest.mark.parametrize("index", [b"", b'{"identity": "hash3-16", "dim"'])
    def test_no_whole_batch_loads_empty(self, tmp_path, rows, index):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(index)
        _rows_path(path).write_bytes(rows)
        cache = EmbeddingCache(path)
        assert cache.get("hash3-16", "net user") is None
        assert path.read_bytes() == _rows_path(path).read_bytes() == b""
        backend = HashingEmbeddingBackend(16)
        first = embed_batch(backend, ["net user"], cache)
        assert EmbeddingCache(path).get(backend.identity, "net user").tobytes() == first[0].tobytes()


def no_sleep(_):
    pass


def _numbered_rows_of(numbers):
    return np.array([[float(i), 1.0] for i in numbers])


def _numbered_rows(body):
    """A 200 reply whose row for the text "i" is [i, 1]."""
    rows = _numbered_rows_of(map(int, body["input"]))
    return reply(200, {"data": [{"embedding": row} for row in rows.tolist()]})


# A local endpoint, so that a test that forgets to patch the POST stays on the host.
ENDPOINT = "http://127.0.0.1:9/v1/embed"


class TestRemoteBackend:
    def test_success(self, use_post):
        post = use_post(ScriptedPost(
            reply(200, {"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 2.0]}]})
        ))
        backend = RemoteEmbeddingBackend(ENDPOINT, "emb-1", 2)
        matrix = backend.embed(["aa", "bb"])
        np.testing.assert_array_equal(matrix, [[1.0, 0.0], [0.0, 2.0]])
        assert post.calls[0]["json"] == {"input": ["aa", "bb"], "model": "emb-1"}

    def test_http_error(self, use_post):
        use_post(ScriptedPost(reply(500, text="boom")))
        backend = RemoteEmbeddingBackend(ENDPOINT, "emb-1", 2, sleep=no_sleep)
        with pytest.raises(ProviderError):
            backend.embed(["aa"])

    def test_transport_error(self, use_post):
        use_post(ScriptedPost(ConnectionError("down")))
        backend = RemoteEmbeddingBackend(ENDPOINT, "emb-1", 2, sleep=no_sleep)
        with pytest.raises(TransportError):
            backend.embed(["aa"])

    @pytest.mark.parametrize("endpoint", ["", "api.example/v1", "ftp://x", "mock:"])
    def test_unusable_endpoint_rejected(self, endpoint):
        with pytest.raises(ValueError, match="embedding backend emb-1: endpoint .* must start with one of http://"):
            RemoteEmbeddingBackend(endpoint, "emb-1", 2)

    def test_chunk_under_documented_cap(self):
        assert 1 <= REMOTE_CHUNK <= 2048

    @pytest.mark.parametrize("n", [1, REMOTE_CHUNK, REMOTE_CHUNK + 1, 2 * REMOTE_CHUNK + 3])
    def test_requests_chunked_in_order(self, n, use_post):
        post = use_post(ScriptedPost(_numbered_rows))
        backend = RemoteEmbeddingBackend(ENDPOINT, "emb-1", 2)
        matrix = embed_batch(backend, [str(i) for i in range(n)])
        assert len(post.calls) == -(-n // REMOTE_CHUNK)
        assert all(len(call["json"]["input"]) <= REMOTE_CHUNK for call in post.calls)
        np.testing.assert_array_equal(matrix, unit_normalize(_numbered_rows_of(range(n))))

    def test_chunk_row_count_checked(self, use_post):
        # One row short in the first chunk, one extra in the second: the
        # total matches, so only a per-chunk check sees the shift.
        def reply_for(body):
            count = len(body["input"]) + (-1 if body["input"][0] == "0" else 1)
            return reply(200, {"data": [{"embedding": [1.0, 0.0]}] * count})

        use_post(ScriptedPost(reply_for))
        backend = RemoteEmbeddingBackend(ENDPOINT, "emb-1", 2)
        with pytest.raises(EmbeddingIntegrityError, match="shape"):
            embed_batch(backend, [str(i) for i in range(REMOTE_CHUNK + 1)])

    def test_failed_chunk_keeps_the_cached_ones(self, tmp_path, use_post):
        n = REMOTE_CHUNK + 5
        texts = [str(i) for i in range(n)]
        path = tmp_path / "cache.jsonl"
        post = use_post(ScriptedPost(lambda body: (
            reply(400, text="bad") if body["input"][0] != "0" else _numbered_rows(body))))
        backend = RemoteEmbeddingBackend(ENDPOINT, "emb-1", 2, sleep=no_sleep)
        with pytest.raises(ProviderError, match="HTTP 400"):
            embed_batch(backend, texts, EmbeddingCache(path))
        assert len(post.calls) == 2
        assert cached_texts(EmbeddingCache(path), backend.identity, texts) == texts[:REMOTE_CHUNK]

        post.script = _numbered_rows
        matrix = embed_batch(backend, texts, EmbeddingCache(path))
        assert [call["json"]["input"] for call in post.calls[2:]] == [texts[REMOTE_CHUNK:]]
        np.testing.assert_array_equal(matrix, unit_normalize(_numbered_rows_of(range(n))))

    def test_missing_key_env(self, monkeypatch):
        monkeypatch.delenv("CMDSIM_EMB_KEY", raising=False)
        backend = RemoteEmbeddingBackend(ENDPOINT, "emb-1", 2, api_key_env="CMDSIM_EMB_KEY")
        with pytest.raises(ConfigurationError, match="CMDSIM_EMB_KEY"):
            backend.embed(["aa"])

    def test_malformed_payload(self, use_post):
        use_post(ScriptedPost(reply(200, {"data": "oops"})))
        backend = RemoteEmbeddingBackend(ENDPOINT, "emb-1", 2)
        with pytest.raises(ProviderError, match="malformed"):
            backend.embed(["aa"])
