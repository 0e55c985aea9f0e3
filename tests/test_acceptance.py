"""Acceptance gate: one test per contract criterion.

Each test prints a single ``criterion NN PASS/FAIL/SKIP`` line on the
live terminal (bypassing capture) so the gate's outcome is readable at
a glance, and asserts its own runtime budget.

Criterion 1 measures the published command-pair datasets, which are not
bundled here.  Point CMDSIM_REFERENCE_TRAIN_PAIRS and
CMDSIM_REFERENCE_TEST_PAIRS at the files (converted to JSON Lines with
``anchor`` and ``positive`` string fields) to enable it; otherwise it
skips with an explanation rather than asserting against data it never
saw.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cmdsim import cli
from cmdsim.clustering import DbscanParams, dbscan, dedup_by_clusters, mine_negatives
from cmdsim.contrastive import info_nce_gradients, info_nce_loss
from cmdsim.core import dataset_stats
from cmdsim.evaluation import (
    Technique,
    TechniqueCorpus,
    build_gene_pools,
    mann_whitney_auc,
    mrr_at_k,
    rank_from_scores,
    synth_classification_dataset,
    top_at_k,
    train_logreg,
)
from cmdsim.analytics import rouge_l
from cmdsim.jsonl import read_pairs

from conftest import mock_vocab_commands
from oracles import (
    central_difference_gradient,
    clustered_unit_vectors,
    full_sort_rank,
    mrr_from_ranks,
    naive_dbscan_from_neighbors,
    naive_distance_matrix,
    naive_mine_negatives,
    naive_neighbor_lists,
    pair_count_auc,
    rouge_scores,
    top_from_ranks,
)


@contextmanager
def criterion(capfd, number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception:
        with capfd.disabled():
            print(f"criterion {number:02d} SKIP: {label}")
        raise
    except BaseException:
        with capfd.disabled():
            print(f"criterion {number:02d} FAIL: {label}")
        raise
    else:
        elapsed = time.perf_counter() - start
        with capfd.disabled():
            print(f"criterion {number:02d} PASS: {label} ({elapsed:.1f}s)")


def test_criterion_01_dataset_statistics(capfd):
    with criterion(capfd, 1, "reference dataset statistics reproduced exactly"):
        train_path = os.environ.get("CMDSIM_REFERENCE_TRAIN_PAIRS")
        test_path = os.environ.get("CMDSIM_REFERENCE_TEST_PAIRS")
        if not train_path or not test_path:
            pytest.skip(
                "reference pair datasets not available in this environment; "
                "set CMDSIM_REFERENCE_TRAIN_PAIRS and CMDSIM_REFERENCE_TEST_PAIRS "
                "to JSONL files of {anchor, positive} records to enable"
            )
        start = time.perf_counter()
        train_stats = dataset_stats(read_pairs(train_path))
        assert train_stats.num_pairs == 28_520
        assert train_stats.num_unique == 55_909
        assert abs(train_stats.avg_len - 91.635) <= 0.001
        assert abs(train_stats.std_len - 60.794) <= 0.001
        test_stats = dataset_stats(read_pairs(test_path))
        assert test_stats.num_pairs == 2_807
        assert test_stats.num_unique == 5_576
        assert abs(test_stats.std_len - 196.675) <= 0.001
        assert time.perf_counter() - start < 10.0


def test_criterion_02_info_nce_correctness(capfd):
    with criterion(capfd, 2, "InfoNCE gradients and loss identities"):
        start = time.perf_counter()
        rng = np.random.default_rng(2026)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            d_in = int(rng.integers(1, 9))
            d_out = int(rng.integers(1, 5))
            anchors = rng.normal(size=(k, d_in))
            positives = rng.normal(size=(k, d_in))
            weights = rng.normal(size=(d_in, d_out)) + 0.5 * np.eye(d_in, d_out)
            temperature = float(rng.uniform(0.05, 1.0))

            def loss_of(w: np.ndarray) -> float:
                mapped_a = anchors @ w
                mapped_b = positives @ w
                unit_a = mapped_a / np.linalg.norm(mapped_a, axis=1, keepdims=True)
                unit_b = mapped_b / np.linalg.norm(mapped_b, axis=1, keepdims=True)
                return info_nce_loss(unit_a @ unit_b.T, temperature)

            analytic = info_nce_gradients(anchors, positives, weights, temperature)
            numeric = central_difference_gradient(loss_of, weights.copy(), step=1e-5)
            scale = max(float(np.abs(numeric).max()), 1e-8)
            relative_error = float(np.abs(analytic - numeric).max()) / scale
            assert relative_error < 1e-4

        sims = rng.normal(size=(6, 6))
        base = info_nce_loss(sims, 0.1)
        for row in range(6):
            shifted = sims.copy()
            shifted[row] += 2.75
            assert abs(info_nce_loss(shifted, 0.1) - base) <= 1e-9
        assert abs(info_nce_loss(sims + 5.0, 0.1) - base) <= 1e-9

        assert info_nce_loss(np.array([[3.7]]), 0.4) == 0.0
        for k in range(1, 9):
            uniform_loss = info_nce_loss(np.full((k, k), 0.21), 0.6)
            assert abs(uniform_loss - k * math.log(k)) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_03_retrieval_metric_oracle(capfd):
    with criterion(capfd, 3, "MRR@K / Top@K match the full-sort oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        levels = np.round(np.linspace(-1.0, 1.0, 21), 6)
        total_cases = 0
        for _ in range(20):  # 20 case sets x 50 cases = 1,000 cases
            ranks = []
            for _ in range(50):
                candidates = int(rng.integers(1, 51))
                positive = float(rng.choice(levels))
                negatives = [float(x) for x in rng.choice(levels, size=candidates - 1)]
                rank = rank_from_scores(positive, negatives)
                assert rank == full_sort_rank(positive, negatives)
                ranks.append(rank)
                total_cases += 1
            previous_mrr = 0.0
            previous_top = 0.0
            for k in range(1, 11):
                mrr = mrr_at_k(ranks, k)
                top = top_at_k(ranks, k)
                assert mrr == mrr_from_ranks(ranks, k)
                assert top == top_from_ranks(ranks, k)
                assert top >= mrr
                assert mrr >= previous_mrr
                assert top >= previous_top
                previous_mrr, previous_top = mrr, top
        assert total_cases == 1_000
        assert time.perf_counter() - start < 5.0


def test_criterion_04_auc_oracle(capfd):
    with criterion(capfd, 4, "AUC equals exhaustive pair counting"):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        levels = np.linspace(-1.0, 1.0, 9)  # coarse grid to force ties
        for _ in range(200):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(1, 40 - m + 1))
            positives = [float(x) for x in rng.choice(levels, size=m)]
            negatives = [float(x) for x in rng.choice(levels, size=n)]
            base = mann_whitney_auc(positives, negatives)
            assert base == pair_count_auc(positives, negatives)
            for transform in (np.exp, lambda x: 3.0 * np.asarray(x) + 2.0):
                assert mann_whitney_auc(
                    [float(v) for v in transform(np.asarray(positives))],
                    [float(v) for v in transform(np.asarray(negatives))],
                ) == base
        assert mann_whitney_auc([0.7, 0.8, 0.9], [0.1, 0.2]) == 1.0
        assert time.perf_counter() - start < 5.0


def test_criterion_05_gene_pool_algebra(capfd):
    with criterion(capfd, 5, "gene-pool split sizes and partitioning, exhaustive"):
        start = time.perf_counter()
        for size in range(9, 31):
            commands = tuple(f"cmd number {i}" for i in range(size))
            corpus = TechniqueCorpus(
                [
                    Technique("probe", commands),
                    Technique("other", tuple(f"other {i}" for i in range(9))),
                ]
            )
            for rate in range(1, 100):
                split = next(
                    s for s in build_gene_pools(corpus, rate)
                    if s.technique_id == "probe"
                )
                expected = math.ceil(Fraction(rate, 100) * size)
                assert len(split.pool) == expected
                assert split.pool + split.queries == commands
                assert set(split.pool).isdisjoint(split.queries)
        for size in range(1, 9):
            corpus = TechniqueCorpus(
                [Technique("tiny", tuple(f"c {i}" for i in range(size)))]
            )
            assert build_gene_pools(corpus, 50) == []
        assert time.perf_counter() - start < 2.0


def test_criterion_06_dbscan_reference(capfd):
    with criterion(capfd, 6, "DBSCAN labeling matches the naive reference"):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(5, 301))
            matrix = clustered_unit_vectors(rng, n, int(rng.integers(3, 7)))
            distance = naive_distance_matrix(matrix)
            for eps in (0.05, 0.08, 0.2):
                neighbors = naive_neighbor_lists(distance, eps)
                for min_pts in (2, 5):
                    ours = dbscan(matrix, DbscanParams(eps=eps, min_pts=min_pts))
                    reference_labels, reference_count = naive_dbscan_from_neighbors(
                        neighbors, min_pts
                    )
                    assert list(ours.labels) == reference_labels
                    assert ours.num_clusters == reference_count
                    kept = dedup_by_clusters(list(range(n)), ours, keep_per_cluster=2)
                    expected = reference_labels.count(-1) + sum(
                        min(reference_labels.count(c), 2)
                        for c in range(reference_count)
                    )
                    assert len(kept) == expected
        assert time.perf_counter() - start < 30.0


def test_criterion_07_rouge_oracle(capfd):
    with criterion(capfd, 7, "ROUGE-L matches the DP oracle with F1 bounds"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        alphabet = ["copy", "del", "srv", "x", "share"]
        for _ in range(1_000):
            a = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 15))]
            b = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 15))]
            precision, recall, f1 = rouge_scores(a, b)
            assert rouge_l(a, b, "precision") == precision
            assert rouge_l(a, b, "recall") == recall
            assert rouge_l(a, b, "f1") == f1
            assert rouge_l(a, b, "f1") == rouge_l(b, a, "f1")
            assert f1 <= max(precision, recall) + 1e-12
            assert 0.0 <= f1 <= 1.0
        assert time.perf_counter() - start < 5.0


@functools.cache
def _cli_env() -> dict[str, str]:
    """Environment for CLI child processes that run in a temp directory.

    A relative PYTHONPATH entry (``PYTHONPATH=src``) does not resolve from
    the child's ``cwd``, so the ``src`` directory of the cmdsim this suite
    imported goes first, as an absolute path.  One child start, also in a
    temp directory, then checks that the child imports that same cmdsim,
    not an installed or stale copy.
    """
    cli_file = Path(cli.__file__).resolve()
    entries = [str(cli_file.parents[1])]
    if os.environ.get("PYTHONPATH"):
        entries.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}
    with tempfile.TemporaryDirectory() as probe_dir:
        probe = subprocess.run(
            [sys.executable, "-c", "import cmdsim.cli; print(cmdsim.cli.__file__)"],
            cwd=probe_dir,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert probe.returncode == 0, f"child cannot import cmdsim:\n{probe.stderr}"
    child_file = Path(probe.stdout.strip()).resolve()
    assert child_file == cli_file, (
        f"child imports {child_file}, the suite imported {cli_file}"
    )
    return env


def _cli(workdir: Path, *args: str) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "cmdsim.cli", *args],
        cwd=workdir,
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, (
        f"cmdsim {' '.join(args)} failed ({result.returncode}):\n{result.stderr}"
    )


def _mock_pipeline(workdir: Path) -> dict[str, float]:
    workdir.mkdir(parents=True)
    seeds = workdir / "seeds.jsonl"
    with open(seeds, "w", encoding="utf-8") as handle:
        for text in mock_vocab_commands(12):
            handle.write(json.dumps({"text": text, "source": "initial_seed"}) + "\n")
    providers = workdir / "providers.conf"
    providers.write_text(
        "[pool]\nrng_seed = 7\n\n"
        "[mock-a]\nendpoint = mock:\nmodel = alpha\n\n"
        "[mock-b]\nendpoint = mock:\nmodel = beta\n",
        encoding="utf-8",
    )
    out = str(workdir)
    _cli(
        workdir, "synth", "run",
        "--seeds", str(seeds), "--providers", str(providers),
        "--target", "200", "--seed", "7", "--output-dir", out,
    )
    _cli(
        workdir, "synth", "pairs",
        "--in", str(workdir / "synthesized.jsonl"),
        "--providers", str(providers), "--output-dir", out,
    )
    pair_lines = (workdir / "pairs.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(pair_lines) >= 200, f"expected >= 200 pairs, got {len(pair_lines)}"
    (workdir / "train_pairs.jsonl").write_text(
        "\n".join(pair_lines[:160]) + "\n", encoding="utf-8"
    )
    held_out = [json.loads(line) for line in pair_lines[160:200]]
    with open(workdir / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for record in held_out:
            handle.write(json.dumps({"text": record["positive"]}) + "\n")
    with open(workdir / "testset.jsonl", "w", encoding="utf-8") as handle:
        for i, record in enumerate(held_out):
            handle.write(
                json.dumps(
                    {
                        "query": record["anchor"],
                        "positive": record["positive"],
                        "negative_ids": [j for j in range(len(held_out)) if j != i],
                    }
                )
                + "\n"
            )
    _cli(
        workdir, "train",
        "--pairs", str(workdir / "train_pairs.jsonl"),
        "--batch", "32", "--val-pairs", "32", "--eval-every", "5",
        "--epochs", "2", "--lr", "0.01", "--seed", "7", "--output-dir", out,
    )
    metrics: dict[str, float] = {}
    for tag, extra in (("identity", []), ("adapter", ["--adapter", str(workdir / "adapter.json")])):
        _cli(
            workdir, "eval", "retrieval",
            "--testset", str(workdir / "testset.jsonl"),
            "--corpus", str(workdir / "corpus.jsonl"),
            "--out", f"report_{tag}.txt", "--ranks", f"ranks_{tag}.csv",
            "--output-dir", out, *extra,
        )
        report = (workdir / f"report_{tag}.txt").read_text(encoding="utf-8")
        fields = dict(line.split("=", 1) for line in report.strip().splitlines())
        metrics[tag] = float(fields["mrr@3"])
    return metrics


def test_criterion_08_end_to_end_pipeline(capfd, tmp_path):
    with criterion(capfd, 8, "deterministic mock pipeline, adapter beats identity"):
        start = time.perf_counter()
        metrics_a = _mock_pipeline(tmp_path / "run_a")
        metrics_b = _mock_pipeline(tmp_path / "run_b")
        assert metrics_a == metrics_b
        assert metrics_a["adapter"] > metrics_a["identity"]
        artifacts = [
            "synthesized.jsonl", "pairs.jsonl", "pairs.jsonl.rejects.jsonl",
            "train_pairs.jsonl", "corpus.jsonl", "testset.jsonl",
            "adapter.json", "adapter.json.history.csv",
            "report_identity.txt", "ranks_identity.csv",
            "report_adapter.txt", "ranks_adapter.csv",
        ]
        for name in artifacts:
            bytes_a = (tmp_path / "run_a" / name).read_bytes()
            bytes_b = (tmp_path / "run_b" / name).read_bytes()
            assert bytes_a == bytes_b, f"{name} differs between runs"
        assert time.perf_counter() - start < 60.0


def test_criterion_09_classification_benchmark(capfd):
    with criterion(capfd, 9, "classification dataset shape and probe behavior"):
        start = time.perf_counter()
        dataset = synth_classification_dataset(random.Random(0), per_command=7_000)
        assert len(dataset.train) == 24_500
        assert len(dataset.test) == 24_500
        for split in (dataset.train, dataset.test):
            per_label: dict[str, int] = {}
            for label, _ in split:
                per_label[label] = per_label.get(label, 0) + 1
            assert sorted(per_label.values()) == [3_500] * 7

        # linearly separable synthetic embeddings: 7 well-spread classes
        rng = np.random.default_rng(9)
        labels7 = [f"class_{i}" for i in range(7)]
        centers = 2.0 * np.eye(8)[:7]

        def blobs(per_class: int):
            features, labels = [], []
            for i, label in enumerate(labels7):
                features.append(centers[i] + 0.05 * rng.standard_normal((per_class, 8)))
                labels.extend([label] * per_class)
            return np.vstack(features), labels

        train_x, train_labels = blobs(300)
        test_x, test_labels = blobs(400)
        _, accuracy = train_logreg(
            train_x, train_labels, test_x, test_labels, rng=random.Random(0)
        )
        assert accuracy >= 99.0

        # shuffling train labels alone quantizes accuracy to multiples of
        # 1/7 (the probe memorizes each blob's plurality label), so the
        # permutation control shuffles the full label column
        for seed in range(5):
            shuffle_rng = random.Random(seed)
            pooled = list(train_labels) + list(test_labels)
            shuffle_rng.shuffle(pooled)
            _, shuffled_accuracy = train_logreg(
                train_x,
                pooled[: len(train_labels)],
                test_x,
                pooled[len(train_labels):],
                rng=shuffle_rng,
            )
            assert abs(shuffled_accuracy - 14.3) <= 2.0, (
                f"seed {seed}: label-shuffled accuracy {shuffled_accuracy}"
            )
        assert time.perf_counter() - start < 60.0


def test_criterion_10_negative_mining(capfd):
    with criterion(capfd, 10, "mine_negatives matches the full-sort oracle"):
        rng = np.random.default_rng(10)
        for _ in range(100):
            count = int(rng.integers(5, 60))
            matrix = clustered_unit_vectors(rng, count, int(rng.integers(3, 8)))
            query = int(rng.integers(count))
            positive = int(rng.integers(count))
            if positive == query:
                positive = None
            available = count - (2 if positive is not None else 1)
            n = int(rng.integers(1, available + 1))
            ours = mine_negatives([query], matrix, n, [positive])[0].tolist()
            assert ours == naive_mine_negatives(query, matrix, n, positive)
            assert len(ours) == n
            assert query not in ours
            if positive is not None:
                assert positive not in ours
