"""End-to-end checks of the cmdsim CLI, driven in-process via cli.run."""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import inspect
import json
import random
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cmdsim import analytics, cli, clustering, evaluation
from cmdsim.contrastive import AdapterModel, TrainConfig
from cmdsim.embedding import DEFAULT_DIM, HashingEmbeddingBackend, embed_batch, similarities, unit_normalize
from cmdsim.gateway import MOCK_FLAG_SYNONYMS, MOCK_TARGETS, MOCK_VERB_SYNONYMS
from cmdsim.synthesis import SynthesisConfig

from conftest import mock_vocab_commands, outputs_under_blas_threads, write_jsonl


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def write_synonym_pairs(path: Path, count: int) -> Path:
    records = []
    pair_id = 0
    for verb, verb_synonym in MOCK_VERB_SYNONYMS:
        for flag, flag_synonym in MOCK_FLAG_SYNONYMS:
            if pair_id >= count:
                return write_jsonl(path, records)
            target = MOCK_TARGETS[pair_id % len(MOCK_TARGETS)]
            tag = format(pair_id % 16, "x")
            records.append(
                {
                    "anchor": f"{verb} {flag} {target}{tag}",
                    "positive": f"{verb_synonym} {flag_synonym} {target}{tag}",
                    "pair_id": pair_id,
                }
            )
            pair_id += 1
    return write_jsonl(path, records)


class TestParsing:
    def test_version(self, capsys):
        assert cli.run(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "cmdsim 0.1.0 (templates v1)"

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["bogus"]) == 2

    def test_no_subcommand_prints_help(self, capsys):
        assert cli.run([]) == 2
        assert "synth" in capsys.readouterr().out

    def test_bare_group_prints_help(self, capsys):
        assert cli.run(["synth"]) == 2

    def test_handler_errors_exit_one(self, capsys):
        assert cli.run(["stats", "--pairs", "/no/such/file.jsonl"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_file(self, tmp_path, capsys):
        pairs = write_synonym_pairs(tmp_path / "pairs.jsonl", 4)
        code = cli.run(["stats", "--pairs", str(pairs), "--config", str(tmp_path / "nope.ini")])
        assert code == 1
        assert "config file not found" in capsys.readouterr().err

    def test_config_file_not_utf8_is_named(self, tmp_path, capsys):
        pairs = write_synonym_pairs(tmp_path / "pairs.jsonl", 4)
        config = tmp_path / "config.ini"
        config.write_bytes(b"\xff\xfe[common]\ndim = 8\n")
        assert cli.run(["stats", "--pairs", str(pairs), "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config file {config}: 'utf-8' codec can't decode")


_BACKEND_FLAGS = ["--backend", "--dim", "--embed-endpoint", "--embed-model", "--embed-key-env", "--cache"]
_COMMON_FLAGS = ["--config", "--output-dir", "--verbose", "-h", "--help"]

# Every option string each stage accepts; a refactor of the parser must
# keep this surface exactly.
STAGE_OPTIONS = {
    "synth.run": ["--seeds", "--providers", "--target", "--seed", "--max-failures", "--out"],
    "synth.pairs": ["--in", "--providers", "--provider", "--out", "--rejects", "--jobs"],
    "synth.explain": ["--in", "--providers", "--provider", "--out", "--rejects", "--jobs"],
    "embed": ["--in", "--text-field", "--out", *_BACKEND_FLAGS],
    "cluster.dedup": ["--in", "--eps", "--min-pts", "--keep", "--out", *_BACKEND_FLAGS],
    "cluster.negatives": ["--in", "--n", "--out", *_BACKEND_FLAGS],
    "cluster.coverage": ["--in", "--eps", "--min-pts", "--tag-field", "--out", *_BACKEND_FLAGS],
    "train": ["--pairs", "--out", "--history", "--batch", "--lr", "--epochs", "--tau", "--val-pairs",
              "--eval-every", "--seed", *_BACKEND_FLAGS],
    "eval.retrieval": ["--testset", "--corpus", "--k", "--adapter", "--out", "--ranks", *_BACKEND_FLAGS],
    "eval.detect": ["--corpus", "--rate", "--mode", "--out", *_BACKEND_FLAGS],
    "eval.classify": ["--seed", "--per-command", "--decoy-probability", "--out", *_BACKEND_FLAGS],
    "stats": ["--pairs"],
    "analyze.rouge": ["--pairs", "--generated", "--seeds", "--rouge-mode", "--out", "--scores"],
    "analyze.coverage": ["--in", "--command-universe", "--extension-universe", "--out"],
}


@pytest.mark.parametrize("stage", sorted(STAGE_OPTIONS))
def test_stage_flag_surface(stage, capsys):
    assert cli.run([*stage.split("."), "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
    assert listed == set(STAGE_OPTIONS[stage] + _COMMON_FLAGS)


class TestSynthRun:
    def test_writes_pool_and_meta(self, tmp_path, seeds_file, providers_file, capsys):
        out_dir = tmp_path / "run"
        code = cli.run(
            [
                "synth", "run",
                "--seeds", str(seeds_file),
                "--providers", str(providers_file),
                "--target", "20",
                "--seed", "3",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        records = read_jsonl(out_dir / "synthesized.jsonl")
        assert len(records) == 20
        assert all(r["source"] == "llm_synthesized" for r in records)
        meta = json.loads((out_dir / "synthesized.jsonl.meta.json").read_text())
        assert meta["stage"] == "synth.run"
        assert meta["seed"] == 3
        assert meta["synthesized"] == 20
        assert meta["providers"] == ["mock-a", "mock-b"]
        assert len(read_jsonl(out_dir / "synthesized.jsonl.replies.jsonl")) == 5  # 4 kept per step
        assert not (out_dir / "checkpoint").exists()
        assert "synthesized 20 commands" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path, seeds_file, providers_file):
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert cli.run(
                [
                    "synth", "run",
                    "--seeds", str(seeds_file),
                    "--providers", str(providers_file),
                    "--target", "16",
                    "--seed", "9",
                    "--output-dir", str(out_dir),
                ]
            ) == 0
            outputs.append((out_dir / "synthesized.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(("entry", "message"), [
        ({"endpoint": "api.example/v1"}, "endpoint 'api.example/v1' must start with one of http://, https://, mock:"),
        ({"endpoint": "ftp://x"}, "endpoint 'ftp://x' must start with one of http://, https://, mock:"),
        ({"temperature": "nan"}, "temperature must be finite and >= 0"),
        ({"timeout": "nan"}, "timeout must be finite and positive"),
        ({"max_retries": "-1"}, "max_retries must be >= 0"),
    ])
    def test_unusable_provider_exits_before_any_call(self, tmp_path, seeds_file, capsys, monkeypatch,
                                                     entry, message):
        settings = {"endpoint": "http://127.0.0.1:9/v1", "model": "m", **entry}
        providers = tmp_path / "pool.conf"
        providers.write_text("[live]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()),
                             encoding="utf-8")
        monkeypatch.setattr("cmdsim.gateway._urlopen_post", lambda *a, **k: pytest.fail("called"))
        out_dir = tmp_path / "out"
        code = cli.run(["synth", "run", "--seeds", str(seeds_file), "--providers", str(providers),
                        "--target", "4", "--output-dir", str(out_dir)])
        assert code == 1
        # ``message`` is the spec's own "KEY REASON"; the file's error puts a colon after KEY.
        key, reason = message.split(" ", 1)
        assert capsys.readouterr().err == f"error: provider configuration file {providers}: [live] {key}: {reason}\n"
        assert not out_dir.exists()

    def test_unsendable_api_key_exits_at_the_first_call(self, tmp_path, seeds_file, capsys, monkeypatch):
        providers = tmp_path / "pool.conf"
        providers.write_text("[live]\nendpoint = http://127.0.0.1:9/v1\nmodel = m\napi_key_env = CMDSIM_TEST_KEY\n",
                             encoding="utf-8")
        monkeypatch.setenv("CMDSIM_TEST_KEY", "sek\nrit")
        monkeypatch.setattr("cmdsim.gateway._urlopen_post", lambda *a, **k: pytest.fail("called"))
        code = cli.run(["synth", "run", "--seeds", str(seeds_file), "--providers", str(providers),
                        "--target", "4", "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: environment variable CMDSIM_TEST_KEY must hold ASCII with no line break"
            " (required by provider live)\n")


class TestSynthPairsAndExplain:
    def test_pairs_stage(self, tmp_path, seeds_file, providers_file, capsys):
        out_dir = tmp_path / "pairs_out"
        code = cli.run(
            [
                "synth", "pairs",
                "--in", str(seeds_file),
                "--providers", str(providers_file),
                "--provider", "mock-b",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        records = read_jsonl(out_dir / "pairs.jsonl")
        assert len(records) == 12  # every in-vocabulary command maps cleanly
        assert records[0].keys() == {"anchor", "positive", "pair_id"}
        assert (out_dir / "pairs.jsonl.rejects.jsonl").exists()
        meta = json.loads((out_dir / "pairs.jsonl.meta.json").read_text())
        assert meta["provider"] == "mock-b"
        assert meta["rejects"] == 0

    def test_explain_stage(self, tmp_path, seeds_file, providers_file):
        out_dir = tmp_path / "explain_out"
        code = cli.run(
            [
                "synth", "explain",
                "--in", str(seeds_file),
                "--providers", str(providers_file),
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        records = read_jsonl(out_dir / "explanations.jsonl")
        assert len(records) == 12
        assert all(r.keys() == {"text", "explanation", "source"} for r in records)
        assert all(r["explanation"].startswith("This command") for r in records)

    @pytest.mark.parametrize("stage", ["pairs", "explain"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_one(self, tmp_path, seeds_file, providers_file, capsys, monkeypatch,
                                     stage, jobs):
        # From --config the stage exits 1; as a flag, argparse refuses it with its usual 2.
        monkeypatch.setattr(cli, "load_provider_pool", lambda *a: pytest.fail("pool read"))
        out_dir = tmp_path / "out"
        config = tmp_path / "config.ini"
        config.write_text(f"[synth.{stage}]\njobs = {jobs}\n", encoding="utf-8")
        base = ["synth", stage, "--in", str(seeds_file), "--providers", str(providers_file),
                "--output-dir", str(out_dir)]
        assert cli.run([*base, "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: config file {config}: [synth.{stage}] jobs: must be >= 1, got {jobs}\n"
        assert cli.run([*base, "--jobs", jobs]) == 2
        assert capsys.readouterr().err.endswith(f"error: argument --jobs: must be >= 1, got {jobs}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("stage", ["pairs", "explain"])
    def test_unknown_provider_exits_one(self, tmp_path, seeds_file, providers_file, capsys, stage):
        out_dir = tmp_path / "out"
        code = cli.run(["synth", stage, "--in", str(seeds_file), "--providers", str(providers_file),
                        "--provider", "zz", "--output-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "error: no provider named 'zz' in pool\n"
        assert not out_dir.exists()


class TestEmbed:
    def test_vectors_and_meta(self, tmp_path, seeds_file):
        out_dir = tmp_path / "embed_out"
        code = cli.run(
            [
                "embed",
                "--in", str(seeds_file),
                "--dim", "32",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        records = read_jsonl(out_dir / "embeddings.jsonl")
        assert len(records) == 12
        assert all(len(r["vector"]) == 32 for r in records)
        meta = json.loads((out_dir / "embeddings.jsonl.meta.json").read_text())
        assert meta["backend"] == "hash3-32"

    @pytest.mark.parametrize("backend", ["hash3", "no-repeats"])
    def test_lines_are_json_dumps(self, tmp_path, monkeypatch, backend):
        # 300 rows span three 128-row slices of the encoder.
        texts = [f"copies archive {i} onto share {i % 7} é" for i in range(300)]
        input_path = write_jsonl(tmp_path / "texts.jsonl", [{"text": t} for t in texts])
        if backend == "hash3":
            fake = HashingEmbeddingBackend(64)
        else:
            # Unit rows in which no value repeats.
            fake = SimpleNamespace(identity="fake-48", dim=48, embed=lambda chunk: unit_normalize(
                np.random.default_rng(len(chunk)).standard_normal((len(chunk), 48))))
            monkeypatch.setattr(cli, "_backend", lambda args: fake)
        code = cli.run(["embed", "--in", str(input_path), "--dim", "64",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        matrix = embed_batch(fake, texts)
        if backend == "no-repeats":
            assert len(np.unique(matrix)) == matrix.size
        lines = (tmp_path / "embeddings.jsonl").read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        assert lines == [json.dumps({"text": t, "vector": row.tolist()}, ensure_ascii=False)
                         for t, row in zip(texts, matrix)]

    def test_unusable_remote_endpoint_exits_before_any_call(self, tmp_path, seeds_file, capsys, monkeypatch):
        monkeypatch.setattr("cmdsim.gateway._urlopen_post", lambda *a, **k: pytest.fail("called"))
        code = cli.run(["embed", "--in", str(seeds_file), "--backend", "remote", "--embed-endpoint",
                        "ftp://x", "--embed-model", "emb", "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: embedding backend emb: endpoint 'ftp://x' must start with one of http://, https://\n")

    def test_missing_text_field(self, tmp_path, capsys):
        bad = write_jsonl(tmp_path / "bad.jsonl", [{"name": "no text here"}])
        assert cli.run(["embed", "--in", str(bad), "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {bad}:1: missing required field 'text'\n"

    def test_cache_reuse_is_byte_stable(self, tmp_path, seeds_file):
        out_dir = tmp_path / "cached"
        argv = [
            "embed", "--in", str(seeds_file), "--dim", "16",
            "--cache", "cache.jsonl", "--output-dir", str(out_dir),
        ]
        assert cli.run(argv) == 0
        first = (out_dir / "embeddings.jsonl").read_bytes()
        assert (out_dir / "cache.jsonl").exists()
        assert cli.run(argv) == 0
        assert (out_dir / "embeddings.jsonl").read_bytes() == first


def explanation_records() -> list[dict]:
    """Nine records: two exact-duplicate groups plus two singletons."""
    texts = {
        "dup_a": "copies every account file onto the backup share",
        "dup_b": "terminates the indexing service on the print node",
        "solo_1": "rotates archived transaction logs nightly",
        "solo_2": "enumerates open sessions for the audit report",
    }
    layout = [
        ("dup_a", "synth"), ("dup_a", "seed"), ("dup_a", "synth"), ("dup_a", "seed"),
        ("dup_b", "synth"), ("dup_b", "synth"), ("dup_b", "synth"),
        ("solo_1", "synth"), ("solo_2", "synth"),
    ]
    return [
        {"text": f"cmd {i:02d}", "explanation": texts[key], "source": tag}
        for i, (key, tag) in enumerate(layout)
    ]


# ``cluster dedup`` of INPUT at each eps of EPS, at width 768 and min_pts 2;
# the testsets are joined into one file of the directory in sys.argv[2].
_DEDUP_SWEEP = """
import sys
from pathlib import Path
from cmdsim import cli
out = Path(sys.argv[2])
for k, eps in enumerate(EPS):
    assert cli.run(["cluster", "dedup", "--in", INPUT, "--eps", repr(eps), "--min-pts", "2",
                    "--dim", "768", "--out", f"testset{k}.jsonl", "--output-dir", str(out)]) == 0
(out / "testset.jsonl").write_bytes(b"".join((out / f"testset{k}.jsonl").read_bytes() for k in range(len(EPS))))
"""


class TestClusterStages:
    def test_dedup_keeps_two_per_duplicate_group(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "explained.jsonl", explanation_records())
        out_dir = tmp_path / "dedup_out"
        code = cli.run(
            [
                "cluster", "dedup",
                "--in", str(input_path),
                "--eps", "0.05",
                "--min-pts", "2",
                "--dim", "64",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        kept = read_jsonl(out_dir / "testset.jsonl")
        # groups of 4 and 3 shrink to 2 each; the two noise singletons stay
        assert [r["text"] for r in kept] == [
            "cmd 00", "cmd 01", "cmd 04", "cmd 05", "cmd 07", "cmd 08",
        ]
        meta = json.loads((out_dir / "testset.jsonl.meta.json").read_text())
        assert meta["clusters"] == 2
        assert meta["kept"] == 6
        assert meta["dropped"] == 3

    def test_negatives_exclude_query_and_positive(self, tmp_path):
        records = explanation_records()
        records[0]["positive_id"] = 1
        input_path = write_jsonl(tmp_path / "explained.jsonl", records)
        out_dir = tmp_path / "negatives_out"
        code = cli.run(
            [
                "cluster", "negatives",
                "--in", str(input_path),
                "--n", "5",
                "--dim", "64",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        rows = read_jsonl(out_dir / "negatives.jsonl")
        assert len(rows) == 9
        first = rows[0]
        assert first["query_id"] == 0
        assert len(first["negative_ids"]) == 5
        assert 0 not in first["negative_ids"]
        assert 1 not in first["negative_ids"]

    @pytest.mark.parametrize("n", [1, 7])
    def test_negatives_bytes_are_json_dumps(self, tmp_path, n):
        # Every record but the last has a positive, so 7 is every candidate.
        records = explanation_records()
        for i, record in enumerate(records[:-1]):
            record["positive_id"] = (i + 3) % len(records)
        input_path = write_jsonl(tmp_path / "explained.jsonl", records)
        code = cli.run(["cluster", "negatives", "--in", str(input_path), "--n", str(n),
                        "--dim", "64", "--output-dir", str(tmp_path)])
        assert code == 0
        matrix = embed_batch(HashingEmbeddingBackend(64), [r["explanation"] for r in records])

        def per_query(i, positive):
            # One mat-vec per query, then a stable sort by (similarity, index).
            similarities = matrix @ matrix[i]
            candidates = [j for j in range(len(records)) if j not in (i, positive)]
            return sorted(candidates, key=lambda j: (similarities[j], j))[:n]

        expected = "".join(
            json.dumps({"query_id": i, "negative_ids": per_query(i, record.get("positive_id"))},
                       ensure_ascii=False) + "\n"
            for i, record in enumerate(records)
        )
        assert (tmp_path / "negatives.jsonl").read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("block", [1, 20])
    def test_negatives_bytes_do_not_depend_on_the_block(self, tmp_path, monkeypatch, block):
        # 9 records, whole in one block of 9 queries, against blocks of 1
        # query and of 2 queries, the last of those a lone query, with the
        # floor on queries per block lowered to 1 so that such blocks occur.
        # Equal bytes pin that the stage writes each block's rows in query
        # order, and that on this input a row of a 1-, 2- or 9-query
        # product orders its negatives alike.
        records = explanation_records()
        for i, record in enumerate(records[:-1]):
            record["positive_id"] = (i + 3) % len(records)
        input_path = write_jsonl(tmp_path / "explained.jsonl", records)
        argv = ["cluster", "negatives", "--in", str(input_path), "--n", "4", "--dim", "64"]
        assert cli.run([*argv, "--output-dir", str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(clustering, "NEGATIVES_BLOCK", block)
        monkeypatch.setattr(clustering, "NEGATIVES_MIN_QUERIES", 1)
        calls = []
        mine = clustering.mine_negatives
        monkeypatch.setattr(clustering, "mine_negatives",
                            lambda queries, *a: calls.append(len(queries)) or mine(queries, *a))
        assert cli.run([*argv, "--output-dir", str(tmp_path / "blocks")]) == 0
        assert calls == ([1] * 9 if block == 1 else [2, 2, 2, 2, 1])
        assert ((tmp_path / "blocks" / "negatives.jsonl").read_bytes()
                == (tmp_path / "whole" / "negatives.jsonl").read_bytes())

    @pytest.mark.parametrize(("block", "calls"), [
        (2**15, [40]), (800, [20, 20]), (100, [16, 16, 8]),
    ])
    def test_negatives_queries_per_block(self, tmp_path, monkeypatch, block, calls):
        # max(NEGATIVES_MIN_QUERIES, NEGATIVES_BLOCK // N) queries at N = 40:
        # the whole corpus, 800 // 40 = 20, and the floor of 16 over 100 // 40.
        records = [{"explanation": f"rotates log {i} on node {i % 7}"} for i in range(40)]
        input_path = write_jsonl(tmp_path / "explained.jsonl", records)
        monkeypatch.setattr(clustering, "NEGATIVES_BLOCK", block)
        seen = []
        mine = clustering.mine_negatives
        monkeypatch.setattr(clustering, "mine_negatives",
                            lambda queries, *a: seen.append(len(queries)) or mine(queries, *a))
        assert cli.run(["cluster", "negatives", "--in", str(input_path), "--n", "5", "--dim", "64",
                        "--output-dir", str(tmp_path / "out")]) == 0
        assert seen == calls

    @staticmethod
    def negatives_under_threads(tmp_path, count, dim, seed):
        """``negatives.jsonl`` of ``count`` records under 1 and 2 OpenBLAS
        threads.  Repeated texts and stems tie many similarities, so a
        change in any bit could reorder."""
        rng = random.Random(seed)
        stems = [f"copies archive {i % 7} onto share {i % 5}" for i in range(25)]
        records = []
        for i in range(count):
            record = {"explanation": rng.choice(stems) + " nightly" * rng.randrange(3)}
            if rng.random() < 0.5:
                record["positive_id"] = rng.randrange(count)
            records.append(record)
        input_path = write_jsonl(tmp_path / "explained.jsonl", records)
        written = outputs_under_blas_threads(
            tmp_path, ["-m", "cmdsim.cli", "cluster", "negatives", "--in", str(input_path),
                       "--n", "250", "--dim", str(dim)], "negatives.jsonl")
        assert written["1"].count(b"\n") == count
        return written

    @pytest.mark.parametrize("count", [300, 1100])
    def test_negatives_bytes_do_not_depend_on_blas_threads(self, tmp_path, count):
        # 300 rows go in blocks of 109, 109 and 82 queries, each a GEMM big
        # enough for OpenBLAS to split over two threads; 1,100 rows go in
        # blocks of 29 queries, over two slices of the corpus.
        written = self.negatives_under_threads(tmp_path, count, 256, 43)
        assert written["1"] == written["2"]

    def test_lone_last_query_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 801 rows go in blocks of 40 queries and a last one of 41.  As a
        # block of its own, the lone last query's matrix-vector product over
        # 768-wide rows ordered its negatives differently under 1 and 2
        # threads.
        written = self.negatives_under_threads(tmp_path, 801, 768, 1)
        assert written["1"] == written["2"]

    def test_dedup_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 1,001 explanations of width 768, a shape where one matrix-vector
        # product per row changed bits with the thread count, at its last
        # row among others.  Rows 0 and 1 are near copies; row 1,000 is the
        # planted pair's other end, and is dropped from their cluster exactly
        # when the pair is within eps.  The sweep puts the pair's similarity
        # at the threshold 1 - eps and up to 8 ulps either side of it, so
        # every rounding of the pair's tile entry lands on both sides.
        rng = random.Random(0)
        anchor = "creates a scheduled task named updater that runs a powershell script at every logon of any user"
        explanations = [anchor, f"{anchor} now"]
        explanations += ["reads " + "".join(rng.choices("abcdefghijklmnopqrstuvwxyz ", k=60)) for _ in range(998)]
        explanations.append(anchor.replace("scheduled task named updater", "service called updater"))
        input_path = write_jsonl(tmp_path / "explained.jsonl", [{"explanation": text} for text in explanations])
        matrix = embed_batch(HashingEmbeddingBackend(768), explanations)
        thresholds = [similarities(matrix, matrix[[0]])[0, -1]]
        for toward in (0.0, 2.0) * 8:
            thresholds.append(np.nextafter(thresholds[-2 if len(thresholds) > 1 else -1], toward))
        eps = [float(1.0 - threshold) for threshold in thresholds]
        assert [1.0 - e for e in eps] == thresholds and len(set(eps)) == 17
        code = f"INPUT = {str(input_path)!r}\nEPS = {eps!r}\n{_DEDUP_SWEEP}"
        written = outputs_under_blas_threads(tmp_path, ["-c", code], "testset.jsonl")
        # Each outcome happens: 1,000 or 1,001 records survive each run.
        assert 17 * 1000 < written["1"].count(b"\n") < 17 * 1001
        assert written["1"] == written["2"]

    @pytest.mark.parametrize(("n", "positive", "message"), [
        ("3", 9, "record 5: positive_id 9 outside corpus of 9"),
        ("3", -1, "record 5: positive_id -1 outside corpus of 9"),
        ("8", 2, "record 5: requested 8 negatives but only 7 candidates exist"),
    ])
    def test_negatives_checked_before_any_embedding(self, tmp_path, capsys, monkeypatch,
                                                     n, positive, message):
        records = explanation_records()
        records[5]["positive_id"] = positive
        input_path = write_jsonl(tmp_path / "explained.jsonl", records)
        monkeypatch.setattr(clustering, "mine_negatives", lambda *a: pytest.fail("mined"))
        monkeypatch.setattr(cli, "embed_batch", lambda *a: pytest.fail("embedded"))
        out_dir = tmp_path / "out"
        code = cli.run(["cluster", "negatives", "--in", str(input_path), "--n", n,
                        "--dim", "64", "--cache", "cache.jsonl", "--output-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("positive", ["3", True, 1.0])
    def test_negatives_reject_non_integer_positive_id(self, tmp_path, capsys, positive):
        records = explanation_records()
        records[2]["positive_id"] = positive
        input_path = write_jsonl(tmp_path / "explained.jsonl", records)
        code = cli.run(
            ["cluster", "negatives", "--in", str(input_path), "--n", "3",
             "--dim", "64", "--output-dir", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {input_path}:3: positive_id must be an integer index\n"

    def test_negatives_name_a_bad_positive_id_by_its_line_past_blank_lines(self, tmp_path, capsys):
        records = explanation_records()
        records[2]["positive_id"] = "3"
        input_path = tmp_path / "explained.jsonl"
        input_path.write_text("\n\n" + "".join(json.dumps(r) + "\n\n" for r in records), encoding="utf-8")
        code = cli.run(["cluster", "negatives", "--in", str(input_path), "--n", "3",
                        "--dim", "64", "--output-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {input_path}:7: positive_id must be an integer index\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_negatives_reject_n_below_one(self, tmp_path, capsys, n):
        input_path = write_jsonl(tmp_path / "explained.jsonl", explanation_records())
        code = cli.run(
            ["cluster", "negatives", "--in", str(input_path), f"--n={n}",
             "--dim", "64", "--output-dir", str(tmp_path)]
        )
        assert code == 1
        assert "n must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", ["0", "-2"])
    def test_dedup_refuses_keep_below_one_before_embedding(self, tmp_path, capsys, keep):
        # From --config the stage exits 1; as a flag, argparse refuses it with its usual 2.
        input_path = write_jsonl(tmp_path / "explained.jsonl", explanation_records())
        out_dir = tmp_path / "out"
        config = tmp_path / "config.ini"
        config.write_text(f"[cluster.dedup]\nkeep = {keep}\n", encoding="utf-8")
        base = ["cluster", "dedup", "--in", str(input_path), "--dim", "64",
                "--cache", "c.jsonl", "--output-dir", str(out_dir)]
        assert cli.run([*base, "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: config file {config}: [cluster.dedup] keep: must be >= 1, got {keep}\n"
        assert cli.run([*base, f"--keep={keep}"]) == 2
        assert capsys.readouterr().err.endswith(f"error: argument --keep: must be >= 1, got {keep}\n")
        assert not out_dir.exists()

    def test_each_run_logs_at_its_own_level(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "explained.jsonl", explanation_records())
        argv = ["cluster", "dedup", "--in", str(input_path), "--eps", "0.05", "--min-pts", "2",
                "--dim", "64", "--output-dir", str(tmp_path)]
        info_lines = []
        for extra in ([], ["--verbose"], []):
            assert cli.run(argv + extra) == 0
            err = capsys.readouterr().err
            info_lines.append([line for line in err.splitlines() if line.startswith("INFO")])
        assert info_lines[0] == info_lines[2] == []
        assert info_lines[1] == [
            "INFO cmdsim.clustering: dbscan: 9 points, 2 clusters, 2 noise, "
            "27 neighbour pairs"
        ]

    @pytest.mark.parametrize("stage", ["dedup", "coverage"])
    def test_non_finite_eps_exits_before_any_embedding(self, tmp_path, capsys, stage):
        input_path = write_jsonl(tmp_path / "explained.jsonl", explanation_records())
        code = cli.run(["cluster", stage, "--in", str(input_path), "--eps", "nan", "--min-pts", "1",
                        "--dim", "64", "--cache", "cache.jsonl", "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: eps must be finite and positive\n"
        assert not (tmp_path / "out" / "cache.jsonl").exists()

    def test_coverage_report(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "explained.jsonl", explanation_records())
        code = cli.run(
            [
                "cluster", "coverage",
                "--in", str(input_path),
                "--eps", "0.05",
                "--min-pts", "2",
                "--dim", "64",
                "--output-dir", str(tmp_path),
                "--out", "coverage.txt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["clusters"] == "2"
        # "seed" records sit only in the first duplicate group
        assert lines["rate.seed"] == "50.0"
        assert lines["rate.synth"] == "100.0"
        assert (tmp_path / "coverage.txt").read_text() == out

    def test_coverage_source_named_pool_gets_one_line(self, tmp_path, capsys):
        records = [{**record, "source": "pool" if record["source"] == "seed" else "synth"}
                   for record in explanation_records()]
        input_path = write_jsonl(tmp_path / "explained.jsonl", records)
        code = cli.run(["cluster", "coverage", "--in", str(input_path), "--eps", "0.05", "--min-pts", "2",
                        "--dim", "64", "--output-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out == "clusters=2\nrate.pool=50.0\nrate.synth=100.0\n"

    def test_coverage_source_named_clusters_does_not_shadow_the_count(self, tmp_path, capsys):
        records = [{**record, "source": "clusters" if record["source"] == "seed" else "synth"}
                   for record in explanation_records()]
        input_path = write_jsonl(tmp_path / "explained.jsonl", records)
        code = cli.run(["cluster", "coverage", "--in", str(input_path), "--eps", "0.05", "--min-pts", "2",
                        "--dim", "64", "--output-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out == "clusters=2\nrate.clusters=50.0\nrate.synth=100.0\n"

    @pytest.mark.parametrize("stage, record, message", [
        ("dedup", {"text": "cmd", "explanation": 7}, "field 'explanation' must be a string"),
        ("coverage", {"text": "cmd", "explanation": "x"}, "missing required field 'source'"),
        ("coverage", {"text": "cmd", "explanation": "x", "source": None}, "field 'source' must be a string"),
    ])
    def test_bad_field_names_its_line_before_any_embedding(self, tmp_path, capsys, monkeypatch,
                                                           stage, record, message):
        monkeypatch.setattr(cli, "embed_batch", lambda *a, **k: pytest.fail("embedded"))
        input_path = tmp_path / "explained.jsonl"
        input_path.write_text("\n" + json.dumps(explanation_records()[0]) + "\n\n" + json.dumps(record) + "\n",
                              encoding="utf-8")
        assert cli.run(["cluster", stage, "--in", str(input_path), "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {input_path}:4: {message}\n"


class TestTrainCli:
    def test_trains_and_writes_artifacts(self, tmp_path, capsys):
        pairs = write_synonym_pairs(tmp_path / "pairs.jsonl", 36)
        out_dir = tmp_path / "train_out"
        code = cli.run(
            [
                "train",
                "--pairs", str(pairs),
                "--batch", "4",
                "--val-pairs", "4",
                "--epochs", "1",
                "--eval-every", "2",
                "--lr", "0.01",
                "--dim", "64",
                "--seed", "3",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        adapter = AdapterModel.load(out_dir / "adapter.json")
        assert adapter.d_in == 64 and adapter.d_out == 64
        assert adapter.backend_identity == "hash3-64"
        with open(out_dir / "adapter.json.history.csv", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["step", "train_loss", "val_mrr3"]
        assert rows[1][0] == "0" and rows[1][1] == ""  # step-0 eval has no loss
        meta = json.loads((out_dir / "adapter.json.meta.json").read_text())
        assert meta["best_step"] == adapter.step
        assert "trained adapter" in capsys.readouterr().out

    def test_insufficient_pairs(self, tmp_path, capsys):
        pairs = write_synonym_pairs(tmp_path / "pairs.jsonl", 6)
        code = cli.run(
            [
                "train", "--pairs", str(pairs),
                "--batch", "4", "--val-pairs", "4",
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "insufficient pairs" in capsys.readouterr().err


    @pytest.mark.parametrize(("flag", "value", "message"), [
        ("--tau", "inf", "temperature must be finite and positive"),
        ("--lr", "nan", "learning_rate must be finite and >= 0"),
    ])
    def test_non_finite_setting_exits_before_training(self, tmp_path, capsys, flag, value, message):
        pairs = write_synonym_pairs(tmp_path / "pairs.jsonl", 36)
        out_dir = tmp_path / "out"
        code = cli.run(["train", "--pairs", str(pairs), "--batch", "4", "--val-pairs", "4",
                        "--dim", "64", flag, value, "--output-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out_dir / "adapter.json").exists()


class TestEvalRetrievalCli:
    def build_inputs(self, tmp_path):
        anchors = mock_vocab_commands(6)
        positives = [f"{text} extra" for text in anchors]
        corpus = write_jsonl(tmp_path / "corpus.jsonl", [{"text": t} for t in positives])
        testset = write_jsonl(
            tmp_path / "testset.jsonl",
            [
                {
                    "query": anchors[i],
                    "positive": positives[i],
                    "negative_ids": [j for j in range(6) if j != i],
                }
                for i in range(6)
            ],
        )
        return corpus, testset

    def test_report_and_ranks(self, tmp_path, capsys):
        corpus, testset = self.build_inputs(tmp_path)
        out_dir = tmp_path / "retrieval_out"
        code = cli.run(
            [
                "eval", "retrieval",
                "--testset", str(testset),
                "--corpus", str(corpus),
                "--k", "1,3",
                "--dim", "64",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        report = (out_dir / "retrieval_report.txt").read_text()
        assert report.splitlines()[0] == "cases=6"
        assert any(line.startswith("mrr@1=") for line in report.splitlines())
        assert any(line.startswith("top@3=") for line in report.splitlines())
        assert capsys.readouterr().out == report
        with open(out_dir / "retrieval_ranks.csv", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["case", "rank"]
        assert len(rows) == 7
        assert all(int(rank) >= 1 for _, rank in rows[1:])

    def test_bad_k_from_config_exits_one(self, tmp_path, capsys):
        corpus, testset = self.build_inputs(tmp_path)
        config = tmp_path / "config.ini"
        config.write_text("[eval.retrieval]\nk = 0\n", encoding="utf-8")
        code = cli.run(
            [
                "eval", "retrieval",
                "--testset", str(testset),
                "--corpus", str(corpus),
                "--config", str(config),
                "--dim", "64",
                "--output-dir", str(tmp_path / "bad_k"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: config file {config}: [eval.retrieval] k: K values must be >= 1: '0'\n"

    def test_adapter_flag_and_determinism(self, tmp_path):
        corpus, testset = self.build_inputs(tmp_path)
        adapter_path = tmp_path / "identity.json"
        AdapterModel(np.eye(64), backend_identity="hash3-64").save(adapter_path)
        outputs = []
        for name in ("p", "q"):
            out_dir = tmp_path / name
            code = cli.run(
                [
                    "eval", "retrieval",
                    "--testset", str(testset),
                    "--corpus", str(corpus),
                    "--adapter", str(adapter_path),
                    "--dim", "64",
                    "--output-dir", str(out_dir),
                ]
            )
            assert code == 0
            outputs.append(
                (out_dir / "retrieval_report.txt").read_bytes()
                + (out_dir / "retrieval_ranks.csv").read_bytes()
            )
        assert outputs[0] == outputs[1]

    def test_adapter_of_another_backend_exits_one(self, tmp_path, capsys):
        corpus, testset = self.build_inputs(tmp_path)
        adapter_path = tmp_path / "remote.json"
        AdapterModel(np.eye(64), backend_identity="some-remote-model-64").save(adapter_path)
        out_dir = tmp_path / "out"
        code = cli.run(
            [
                "eval", "retrieval",
                "--testset", str(testset),
                "--corpus", str(corpus),
                "--adapter", str(adapter_path),
                "--dim", "64",
                "--cache", "cache.jsonl",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'some-remote-model-64'" in err and "'hash3-64'" in err
        assert not (out_dir / "cache.jsonl").exists()  # refused before embedding
        assert not (out_dir / "retrieval_report.txt").exists()

    @pytest.mark.parametrize("content, reason", [
        (b'{"d_in": 3, "d_out": 3}', "'W'"),
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"d_in": 3, "d_out": 3, "W": [1, 2, 3, 4]}', "cannot reshape array of size 4 into shape"),
        (b'{"W": [\xff]}', "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
        (b'{"d_in": 1, "d_out": 1, "W": [NaN]}', "weights must be finite"),
    ], ids=["missing-key", "not-json", "wrong-length", "not-utf8", "nan-weight"])
    def test_bad_adapter_file_is_named(self, tmp_path, capsys, content, reason):
        corpus, testset = self.build_inputs(tmp_path)
        adapter_path = tmp_path / "adapter.json"
        adapter_path.write_bytes(content)
        out_dir = tmp_path / "out"
        code = cli.run(["eval", "retrieval", "--testset", str(testset), "--corpus", str(corpus),
                        "--adapter", str(adapter_path), "--dim", "64", "--output-dir", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {adapter_path}: not an adapter checkpoint: {reason}")
        assert not out_dir.exists()

    def test_bad_adapter_is_reported_before_the_testset_is_read(self, tmp_path, capsys):
        corpus, _ = self.build_inputs(tmp_path)
        testset = tmp_path / "bad_testset.jsonl"
        testset.write_text("not json\n", encoding="utf-8")
        adapter_path = tmp_path / "adapter.json"
        adapter_path.write_text("not json", encoding="utf-8")
        code = cli.run(["eval", "retrieval", "--testset", str(testset), "--corpus", str(corpus),
                        "--adapter", str(adapter_path), "--dim", "64", "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {adapter_path}: not an adapter checkpoint: ")

    @pytest.mark.parametrize("adapter", [False, True])
    def test_negative_equal_to_the_positive_ties_it(self, tmp_path, adapter):
        # hash3 embeds the canonical form, so a negative that differs from the
        # positive only in case and spacing has the positive's vector.  It ties
        # the positive wherever it sits, and the tie counts against the
        # positive.  Case c has 1 + c negatives with the twin last, so the
        # twin takes every position up to the ninth candidate; the last case
        # puts it first.  A dot product for the positive, or the last
        # candidates % 4 rows of an unpadded product, scored these vectors
        # other bits, and ranked some cases 1.
        query = "z: copy -enc /y wmic updater wmic"
        positive = f"{query} /persistent:yes"
        twin = "Z:  COPY  -ENC  /Y  WMIC  UPDATER  WMIC  /PERSISTENT:YES"
        corpus = write_jsonl(tmp_path / "corpus.jsonl",
                             [{"text": text} for text in [twin, *mock_vocab_commands(8)]])
        negatives = [[*range(1, 1 + c), 0] for c in range(9)] + [list(range(9))]
        testset = write_jsonl(tmp_path / "testset.jsonl", [
            {"query": query, "positive": positive, "negative_ids": ids} for ids in negatives
        ])
        argv = ["eval", "retrieval", "--testset", str(testset), "--corpus", str(corpus),
                "--dim", "256", "--output-dir", str(tmp_path / "out")]
        if adapter:
            weights = np.random.default_rng(5).standard_normal((256, 256))
            AdapterModel(weights, backend_identity="hash3-256").save(tmp_path / "adapter.json")
            argv += ["--adapter", str(tmp_path / "adapter.json")]
        assert cli.run(argv) == 0
        with open(tmp_path / "out" / "retrieval_ranks.csv", encoding="utf-8") as handle:
            ranks = [int(rank) for _, rank in list(csv.reader(handle))[1:]]
        assert ranks == [2] * len(negatives)

    def test_sidecar_records_the_adapter_digest_not_its_path(self, tmp_path):
        corpus, testset = self.build_inputs(tmp_path)
        checkpoint = tmp_path / "adapter.json"
        AdapterModel(np.eye(64), backend_identity="hash3-64").save(checkpoint)
        sidecars = []
        for name in ("a", "b", None):
            argv = ["eval", "retrieval", "--testset", str(testset), "--corpus", str(corpus),
                    "--dim", "64", "--output-dir", str(tmp_path / f"out_{name}")]
            if name:
                copy = tmp_path / name / "adapter.json"
                copy.parent.mkdir()
                copy.write_bytes(checkpoint.read_bytes())
                argv += ["--adapter", str(copy)]
            assert cli.run(argv) == 0
            sidecars.append((tmp_path / f"out_{name}" / "retrieval_report.txt.meta.json").read_bytes())
        assert sidecars[0] == sidecars[1]
        digest = hashlib.sha256(checkpoint.read_bytes()).hexdigest()
        assert json.loads(sidecars[0])["adapter_sha256"] == digest
        assert json.loads(sidecars[2])["adapter_sha256"] is None

    def test_sidecar_hashes_the_adapter_bytes_it_parsed(self, tmp_path, monkeypatch):
        # A train that replaces the checkpoint right after the load must not
        # make the sidecar name weights the stage did not use.
        corpus, testset = self.build_inputs(tmp_path)
        checkpoint = tmp_path / "adapter.json"
        AdapterModel(np.eye(64), backend_identity="hash3-64").save(checkpoint)
        original = checkpoint.read_bytes()
        load = AdapterModel.load.__func__

        def load_then_replace(cls, *args):
            model = load(cls, *args)
            AdapterModel(2 * np.eye(64), backend_identity="hash3-64").save(checkpoint)
            return model

        monkeypatch.setattr(AdapterModel, "load", classmethod(load_then_replace))
        assert cli.run(["eval", "retrieval", "--testset", str(testset), "--corpus", str(corpus),
                        "--adapter", str(checkpoint), "--dim", "64", "--output-dir", str(tmp_path / "out")]) == 0
        assert checkpoint.read_bytes() != original
        sidecar = json.loads((tmp_path / "out" / "retrieval_report.txt.meta.json").read_bytes())
        assert sidecar["adapter_sha256"] == hashlib.sha256(original).hexdigest()


class TestEvalDetectCli:
    def test_detect_report(self, tmp_path, capsys):
        records = []
        for vi, (verb, _) in enumerate(MOCK_VERB_SYNONYMS):
            for i in range(10):
                flag = MOCK_FLAG_SYNONYMS[i % 6][0]
                target = MOCK_TARGETS[(vi + i) % 6]
                records.append(
                    {"technique_id": f"T{vi:04d}", "command": f"{verb} {flag} {target}{i:x}"}
                )
        corpus = write_jsonl(tmp_path / "techniques.jsonl", records)
        code = cli.run(
            [
                "eval", "detect",
                "--corpus", str(corpus),
                "--rate", "25",
                "--dim", "64",
                "--output-dir", str(tmp_path),
                "--out", "detect.txt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["techniques"] == "6"
        assert lines["mode"] == "concatenated"
        assert 0.5 < float(lines["auc"]) <= 1.0
        assert (tmp_path / "detect.txt").read_text() == out

    def test_bad_technique_record_is_named_by_its_line(self, tmp_path, capsys):
        # The loader's tests cover each rule; this one, the exit status and
        # message.  A blank line first, so the record's line is not its index.
        records = [{"technique_id": "T1", "command": "whoami /all"},
                   {"technique_id": "T2", "command": "net view"},
                   {"technique_id": "T1", "command": "WHOAMI  /ALL"}]
        corpus = tmp_path / "techniques.jsonl"
        corpus.write_text("\n" + "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code = cli.run(["eval", "detect", "--corpus", str(corpus), "--dim", "16",
                        "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {corpus}:4: technique T1: duplicate command 'WHOAMI  /ALL'\n"
        assert not (tmp_path / "out").exists()

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 60 techniques of 9 to 14 commands at the default width: each
        # technique's negatives product is about 680 x 256 by 256 x 2.
        rng = random.Random(28)
        records = []
        for t in range(60):
            verb = MOCK_VERB_SYNONYMS[t % len(MOCK_VERB_SYNONYMS)][0]
            for i in range(9 + t % 6):
                flag, target = rng.choice(MOCK_FLAG_SYNONYMS)[0], rng.choice(MOCK_TARGETS)
                records.append({"technique_id": f"T{t:04d}",
                                "command": f"{verb} {flag} {target}{i:x} {rng.randrange(10**6)}"})
        corpus = write_jsonl(tmp_path / "techniques.jsonl", records)
        for mode in evaluation.DETECTION_MODES:
            (tmp_path / mode).mkdir()
            written = outputs_under_blas_threads(
                tmp_path / mode, ["-m", "cmdsim.cli", "eval", "detect", "--corpus", str(corpus),
                                  "--rate", "12.5", "--mode", mode, "--out", "detect.txt"], "detect.txt")
            assert b"auc=" in written["1"]
            assert written["1"] == written["2"]

    @pytest.mark.parametrize("rate", ["1", "7.2"])
    def test_small_pool_report_bytes_do_not_depend_on_blas_threads(self, tmp_path, rate):
        # The benchmark's 200 techniques of 9 to 30 commands, 3,880 rows.
        # At these rates pools hold 1 to 3 commands, and a matrix-vector
        # or thin product over the corpus changed bits with the thread count.
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        records = inputs.technique_corpus(random.Random(9), 200, 9, 30)
        assert len(records) == 3_880
        corpus = write_jsonl(tmp_path / "techniques.jsonl", records)
        written = outputs_under_blas_threads(
            tmp_path, ["-m", "cmdsim.cli", "eval", "detect", "--corpus", str(corpus),
                       "--rate", rate, "--out", "detect.txt"], "detect.txt")
        assert b"auc=" in written["1"]
        assert written["1"] == written["2"]


class TestEvalClassifyCli:
    def test_accuracy_line(self, tmp_path, capsys):
        code = cli.run(
            [
                "eval", "classify",
                "--seed", "1",
                "--per-command", "20",
                "--dim", "32",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        lines = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["train_records"] == "70"
        assert lines["test_records"] == "70"
        assert lines["seed"] == "1"
        assert 0.0 <= float(lines["accuracy"]) <= 100.0

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 1,400 training lines, as the benchmark's train-eval runs: the
        # refit's weights round differently under 1 and 2 threads, but not
        # enough to move the accuracy.
        written = outputs_under_blas_threads(
            tmp_path, ["-m", "cmdsim.cli", "eval", "classify", "--seed", "1",
                       "--per-command", "400", "--out", "classify.txt"], "classify.txt")
        assert b"accuracy=" in written["1"]
        assert written["1"] == written["2"]


class TestStatsCli:
    def test_known_values(self, tmp_path, capsys):
        pairs = write_jsonl(
            tmp_path / "pairs.jsonl", [{"anchor": "ab", "positive": "cde"}]
        )
        assert cli.run(["stats", "--pairs", str(pairs)]) == 0
        lines = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["num_pairs"] == "1"
        assert lines["num_unique"] == "2"
        assert lines["max_len"] == "3"
        assert lines["min_len"] == "2"
        assert abs(float(lines["avg_len"]) - 2.5) < 1e-3
        assert abs(float(lines["std_len"]) - 0.5) < 1e-3


class TestAnalyzeRougeCli:
    def test_pairs_mode(self, tmp_path):
        pairs = write_synonym_pairs(tmp_path / "pairs.jsonl", 8)
        out_dir = tmp_path / "rouge_out"
        code = cli.run(
            ["analyze", "rouge", "--pairs", str(pairs), "--output-dir", str(out_dir)]
        )
        assert code == 0
        lines = (out_dir / "rouge_hist.csv").read_text().splitlines()
        assert lines[0] == "bin_start,bin_end,count"
        assert len(lines) == 21
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 8

    def test_generated_mode_with_scores(self, tmp_path, seeds_file):
        generated = write_jsonl(
            tmp_path / "generated.jsonl",
            [{"text": t} for t in mock_vocab_commands(6)],
        )
        out_dir = tmp_path / "rouge_gen"
        code = cli.run(
            [
                "analyze", "rouge",
                "--generated", str(generated),
                "--seeds", str(seeds_file),
                "--scores", "scores.csv",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        with open(out_dir / "scores.csv", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "max_overlap"]
        assert len(rows) == 7
        # generated texts are literal copies of seeds, so overlap is 1.0
        assert all(float(score) == 1.0 for _, score in rows[1:])

    def test_requires_exactly_one_input_mode(self, tmp_path, seeds_file, capsys):
        pairs = write_synonym_pairs(tmp_path / "pairs.jsonl", 4)
        code = cli.run(
            [
                "analyze", "rouge",
                "--pairs", str(pairs),
                "--generated", str(seeds_file),
                "--seeds", str(seeds_file),
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 1
        assert "exactly one" in capsys.readouterr().err
        assert cli.run(["analyze", "rouge", "--output-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("flag", ["--seeds", "--scores"])
    def test_pairs_mode_refuses_generated_mode_flags(self, tmp_path, seeds_file, capsys, flag):
        pairs = write_synonym_pairs(tmp_path / "pairs.jsonl", 4)
        out_dir = tmp_path / "out"
        code = cli.run(["analyze", "rouge", "--pairs", str(pairs), flag, str(seeds_file),
                        "--output-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "error: --seeds and --scores go with --generated, not --pairs\n"
        assert not out_dir.exists()

    def test_bad_mode_from_config_exits_one(self, tmp_path, seeds_file, capsys):
        config = tmp_path / "config.ini"
        config.write_text("[analyze.rouge]\nrouge_mode = fscore\n", encoding="utf-8")
        empty = write_jsonl(tmp_path / "empty.jsonl", [])
        for inputs in (["--pairs", str(empty)], ["--generated", str(empty), "--seeds", str(seeds_file)]):
            code = cli.run(["analyze", "rouge", *inputs, "--config", str(config),
                            "--output-dir", str(tmp_path / "out")])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: config file {config}: [analyze.rouge] rouge_mode: invalid choice: 'fscore'"
                " (choose from 'f1', 'precision', 'recall')\n")
            assert not (tmp_path / "out" / "rouge_hist.csv.meta.json").exists()


class TestAnalyzeCoverageCli:
    def test_explicit_universes(self, tmp_path, capsys):
        commands = write_jsonl(
            tmp_path / "commands.jsonl",
            [{"text": "copy /aa lib.dll"}, {"text": "halt now"}],
        )
        groups = tmp_path / "groups.txt"
        groups.write_text("copy\nlist\n", encoding="utf-8")
        extensions = tmp_path / "extensions.txt"
        extensions.write_text("dll\nexe\n", encoding="utf-8")
        code = cli.run(
            [
                "analyze", "coverage",
                "--in", str(commands),
                "--command-universe", str(groups),
                "--extension-universe", str(extensions),
                "--output-dir", str(tmp_path),
                "--out", "coverage.txt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["command_groups_covered"] == "1"
        assert lines["command_groups_universe"] == "2"
        assert lines["extensions_covered"] == "1"
        assert lines["extensions_universe"] == "2"
        assert (tmp_path / "coverage.txt").read_text() == out
        meta = json.loads((tmp_path / "coverage.txt.meta.json").read_text())
        assert meta["stage"] == "analyze.coverage"

    def test_universe_not_utf8_names_path_and_line(self, tmp_path, seeds_file, capsys):
        groups = tmp_path / "u.txt"
        groups.write_bytes(b"copy\nlist\xff\nnet\n")
        code = cli.run(["analyze", "coverage", "--in", str(seeds_file), "--command-universe", str(groups),
                        "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {groups}:2: not valid UTF-8: invalid start byte\n"
        assert not (tmp_path / "out").exists()

    def test_bundled_universes(self, tmp_path, seeds_file, capsys):
        code = cli.run(
            ["analyze", "coverage", "--in", str(seeds_file), "--output-dir", str(tmp_path)]
        )
        assert code == 0
        lines = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["command_groups_universe"] == "306"
        assert lines["extensions_universe"] == "75"


class TestConfigPrecedence:
    def test_flag_beats_stage_beats_common(self, tmp_path, seeds_file):
        config = tmp_path / "config.ini"
        config.write_text(
            "[common]\ndim = 16\n\n[embed]\ndim = 24\n", encoding="utf-8"
        )
        base = ["embed", "--in", str(seeds_file), "--config", str(config)]

        out_a = tmp_path / "stage_wins"
        assert cli.run(base + ["--output-dir", str(out_a)]) == 0
        assert len(read_jsonl(out_a / "embeddings.jsonl")[0]["vector"]) == 24

        out_b = tmp_path / "flag_wins"
        assert cli.run(base + ["--dim", "8", "--output-dir", str(out_b)]) == 0
        assert len(read_jsonl(out_b / "embeddings.jsonl")[0]["vector"]) == 8

        common_only = tmp_path / "common.ini"
        common_only.write_text("[common]\ndim = 16\n", encoding="utf-8")
        out_c = tmp_path / "common_wins"
        assert cli.run(
            ["embed", "--in", str(seeds_file), "--config", str(common_only),
             "--output-dir", str(out_c)]
        ) == 0
        assert len(read_jsonl(out_c / "embeddings.jsonl")[0]["vector"]) == 16

    def test_dotted_stage_section(self, tmp_path, seeds_file, providers_file):
        config = tmp_path / "config.ini"
        config.write_text("[synth.run]\ntarget = 6\n", encoding="utf-8")
        out_dir = tmp_path / "from_config"
        code = cli.run(
            [
                "synth", "run",
                "--seeds", str(seeds_file),
                "--providers", str(providers_file),
                "--config", str(config),
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert len(read_jsonl(out_dir / "synthesized.jsonl")) == 6

    def test_config_defaults_end_with_their_run(self, tmp_path, monkeypatch):
        # One parser serves every run of a process, so a run's --config
        # must not become the next run's default.
        input_path = write_jsonl(tmp_path / "explained.jsonl", [{"explanation": "rotates logs"}])
        config = tmp_path / "config.ini"
        config.write_text("[cluster.negatives]\nn = 3\n", encoding="utf-8")
        seen = []

        def stop(count, queries, n, positives):
            seen.append(n)
            raise ValueError("stopped")

        monkeypatch.setattr(clustering, "check_negatives", stop)
        base = ["cluster", "negatives", "--in", str(input_path), "--output-dir", str(tmp_path / "out")]
        assert cli.run([*base, "--config", str(config)]) == 1
        assert cli.run(base) == 1
        assert seen == [3, 1000]

    def test_config_without_section_header_exits_one(self, tmp_path, capsys):
        pairs = write_jsonl(tmp_path / "p.jsonl", [{"anchor": "ab", "positive": "cde"}])
        config = tmp_path / "bad.ini"
        config.write_text("dim = 3\n", encoding="utf-8")
        assert cli.run(["stats", "--pairs", str(pairs), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config}: ")

    def test_percent_in_config_value_exits_one(self, tmp_path, seeds_file, capsys):
        config = tmp_path / "percent.ini"
        config.write_text("[common]\ndim = 5%\n", encoding="utf-8")
        base = ["embed", "--in", str(seeds_file), "--text-field", "text", "--config", str(config),
                "--output-dir", str(tmp_path / "out")]
        assert cli.run(base) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config}: [common] dim: ")

        config.write_text("[common]\ndim = 16\nout = vec%%.jsonl\n", encoding="utf-8")
        assert cli.run(base) == 0
        assert len(read_jsonl(tmp_path / "out" / "vec%.jsonl")[0]["vector"]) == 16

    def test_providers_without_section_header_exits_one(self, tmp_path, seeds_file, capsys):
        providers = tmp_path / "bad.conf"
        providers.write_text("endpoint = mock:\n", encoding="utf-8")
        code = cli.run(
            ["synth", "run", "--seeds", str(seeds_file), "--providers", str(providers),
             "--target", "2", "--output-dir", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: provider configuration file {providers}: ")

    def test_providers_bad_value_names_file_section_and_key(self, tmp_path, seeds_file, capsys):
        providers = tmp_path / "bad.conf"
        providers.write_text("[mock-a]\nendpoint = mock:\nmodel = alpha\ntemperature = hot\n", encoding="utf-8")
        code = cli.run(["synth", "run", "--seeds", str(seeds_file), "--providers", str(providers),
                        "--target", "2", "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: provider configuration file {providers}: [mock-a] "
                                           "temperature: could not convert string to float: 'hot'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(("argv", "section", "key", "value", "detail"), [
        (["train", "--pairs", "p.jsonl"], "train", "batch", "x",
         "invalid literal for int() with base 10: 'x'"),
        (["eval", "detect", "--corpus", "c.jsonl"], "eval.detect", "rate", "fast",
         "could not convert string to float: 'fast'"),
        (["eval", "retrieval", "--testset", "t.jsonl", "--corpus", "c.jsonl"], "eval.retrieval", "k", "3,x",
         "bad K list '3,x'"),
        (["eval", "detect", "--corpus", "c.jsonl"], "eval.detect", "mode", "sum",
         "invalid choice: 'sum' (choose from 'concatenated', 'averaged')"),
    ], ids=["int", "float", "k-list", "choice"])
    def test_bad_value_names_file_section_and_key(self, tmp_path, capsys, argv, section, key, value, detail):
        config = tmp_path / "config.ini"
        config.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert cli.run([*argv, "--config", str(config), "--output-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: config file {config}: [{section}] {key}: {detail}\n"
        assert not out_dir.exists()

    def test_keys_a_config_cannot_set_are_ignored(self, tmp_path, capsys):
        pairs = write_jsonl(tmp_path / "p.jsonl", [{"anchor": "ab", "positive": "cde"}])
        config = tmp_path / "config.ini"
        config.write_text("[common]\ndim = x\nbogus = 1\n\n[stats]\nverbose = y\npairs = nope\n",
                          encoding="utf-8")
        assert cli.run(["stats", "--pairs", str(pairs), "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("num_pairs=1\n")


class TestDefaults:
    @staticmethod
    def stop(configs):
        """A stand-in for train or run_synthesis: keeps the config, then refuses."""
        def record(*args, **kwargs):
            configs.append(args[2])
            raise ValueError("stopped")
        return record

    def test_train_defaults_are_train_config(self, tmp_path, monkeypatch):
        pairs = write_synonym_pairs(tmp_path / "pairs.jsonl", 4)
        configs = []
        monkeypatch.setattr(cli.contrastive, "train", self.stop(configs))
        assert cli.run(["train", "--pairs", str(pairs), "--output-dir", str(tmp_path / "out")]) == 1
        assert configs == [TrainConfig()]

    def test_synth_run_defaults_are_synthesis_config(self, tmp_path, seeds_file, providers_file, monkeypatch):
        configs = []
        monkeypatch.setattr(cli.synthesis, "run_synthesis", self.stop(configs))
        assert cli.run(["synth", "run", "--seeds", str(seeds_file), "--providers", str(providers_file),
                        "--output-dir", str(tmp_path / "out")]) == 1
        assert configs == [SynthesisConfig()]

    @pytest.mark.parametrize("argv", [
        ["embed", "--in", "x"], ["cluster", "dedup", "--in", "x"], ["cluster", "negatives", "--in", "x"],
        ["cluster", "coverage", "--in", "x"], ["train", "--pairs", "x"],
        ["eval", "retrieval", "--testset", "x", "--corpus", "x"], ["eval", "detect", "--corpus", "x"],
        ["eval", "classify"],
    ])
    def test_dim_default_is_default_dim(self, argv):
        assert cli.build_parser().parse_args(argv).dim == DEFAULT_DIM

    @pytest.mark.parametrize("argv, dest, function, keyword", [
        (["eval", "classify"], "per_command", evaluation.synth_classification_dataset, "per_command"),
        (["eval", "classify"], "decoy_probability", evaluation.synth_classification_dataset, "decoy_probability"),
        (["eval", "detect", "--corpus", "x"], "mode", evaluation.detection_auc, "mode"),
        (["analyze", "rouge"], "rouge_mode", analytics.pair_overlap_distribution, "mode"),
        (["analyze", "rouge"], "rouge_mode", analytics.max_overlap_vs_seeds, "mode"),
    ])
    def test_defaults_are_the_library_keyword_defaults(self, argv, dest, function, keyword):
        expected = inspect.signature(function).parameters[keyword].default
        assert getattr(cli.build_parser().parse_args(argv), dest) == expected


class TestOutputConfinement:
    def test_relative_outputs_land_in_output_dir(self, tmp_path, monkeypatch, seeds_file):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out_dir = tmp_path / "artifacts"
        code = cli.run(
            [
                "embed",
                "--in", str(seeds_file),
                "--out", "vectors.jsonl",
                "--dim", "16",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "vectors.jsonl").exists()
        assert (out_dir / "vectors.jsonl.meta.json").exists()
        assert list(workdir.iterdir()) == []

    def test_refused_runs_create_no_output_dir(self, tmp_path, seeds_file, providers_file, capsys):
        corpus, testset = TestEvalRetrievalCli().build_inputs(tmp_path)
        adapter_path = tmp_path / "adapter.json"
        AdapterModel(np.eye(64), backend_identity="hash3-64").save(adapter_path)
        out_dir = tmp_path / "out"
        assert cli.run(["eval", "retrieval", "--testset", str(testset), "--corpus", str(corpus),
                        "--adapter", str(adapter_path), "--dim", "32", "--cache", "c.jsonl",
                        "--output-dir", str(out_dir)]) == 1
        assert "'hash3-64'" in capsys.readouterr().err
        assert not out_dir.exists()

        config = tmp_path / "config.ini"
        config.write_text("[synth.run]\ntarget = -1\n", encoding="utf-8")
        assert cli.run(["synth", "run", "--seeds", str(seeds_file), "--providers", str(providers_file),
                        "--config", str(config), "--output-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: config file {config}: [synth.run] target: must be >= 0, got -1\n"
        assert not out_dir.exists()
