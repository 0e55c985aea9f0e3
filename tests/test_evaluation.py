"""Retrieval metrics, gene-pool detection, and the classification probe."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdsim.embedding import HashingEmbeddingBackend, embed_batch
from cmdsim.evaluation import (
    CLASS_COMMANDS,
    DEFAULT_HYPER_GRID,
    DETECTION_MODES,
    MIN_TECHNIQUE_SIZE,
    Technique,
    TechniqueCorpus,
    build_gene_pools,
    detection_auc,
    evaluate_retrieval,
    load_retrieval_cases,
    load_technique_corpus,
    mann_whitney_auc,
    mrr_at_k,
    rank_rows,
    synth_classification_dataset,
    top_at_k,
    train_logreg,
    _fit_multinomial,
    _softmax_rows,
)
from cmdsim.gateway import MOCK_FLAG_SYNONYMS, MOCK_TARGETS, MOCK_VERB_SYNONYMS

from oracles import (
    fit_multinomial_reference,
    full_sort_rank,
    logreg_probe_reference,
    midrank_auc,
    mrr_from_ranks,
    naive_gene_pool_auc,
    pair_count_auc,
    top_from_ranks,
)


class VectorBackend:
    """Maps known texts to fixed vectors; embed_batch normalizes them."""

    def __init__(self, table: dict[str, list[float]]):
        self.table = table
        self.dim = len(next(iter(table.values())))
        self.identity = "fixed-vectors"

    def embed(self, texts):
        return np.array([self.table[t] for t in texts], dtype=np.float64)


def rank_one(positive, negatives) -> int:
    """``rank_rows`` of one case."""
    row = np.array(list(negatives), dtype=np.float64).reshape(1, -1)
    return int(rank_rows(np.array([positive]), row)[0])


class TestRankFromScores:
    def test_clear_winner(self):
        assert rank_one(0.9, [0.1, 0.2, 0.3]) == 1

    def test_ties_count_against_the_positive(self):
        assert rank_one(0.5, [0.5, 0.4]) == 2
        assert rank_one(0.5, [0.5, 0.5]) == 3

    def test_no_negatives(self):
        assert rank_one(0.0, []) == 1

    def test_dead_last(self):
        assert rank_one(0.1, [0.2, 0.3, 0.4]) == 4

    def test_nan_never_counts_for_any_iterable(self):
        scores = [0.5, math.nan, 0.7, 0.1]
        for negatives in (scores, np.array(scores), iter(scores)):
            assert rank_one(0.5, negatives) == 3
        assert rank_one(math.nan, np.array(scores)) == 1
        assert rank_one(0.0, iter([])) == 1


class TestMetricAggregation:
    def test_hand_values(self):
        ranks = [1, 2, 4]
        assert mrr_at_k(ranks, 3) == pytest.approx(50.0)
        assert top_at_k(ranks, 3) == pytest.approx(200.0 / 3.0)
        assert mrr_at_k(ranks, 1) == pytest.approx(100.0 / 3.0)
        assert mrr_at_k(ranks, 10) == pytest.approx(100.0 * (1.75 / 3.0))
        assert top_at_k(ranks, 10) == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            mrr_at_k([], 3)
        with pytest.raises(ValueError, match="K"):
            top_at_k([1], 0)
        with pytest.raises(ValueError, match="1-based"):
            mrr_at_k([0], 3)

    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=20),
    )
    def test_matches_oracle(self, ranks, k):
        assert mrr_at_k(ranks, k) == pytest.approx(mrr_from_ranks(ranks, k))
        assert top_at_k(ranks, k) == pytest.approx(top_from_ranks(ranks, k))

    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=19),
    )
    def test_monotone_in_k_and_top_dominates(self, ranks, k):
        assert mrr_at_k(ranks, k) <= mrr_at_k(ranks, k + 1) + 1e-12
        assert top_at_k(ranks, k) <= top_at_k(ranks, k + 1) + 1e-12
        assert top_at_k(ranks, k) >= mrr_at_k(ranks, k) - 1e-12


def load_cases(tmp_path, corpus, records):
    """Write ``records`` as a testset JSONL and load it over the ``corpus`` texts."""
    testset = tmp_path / "cases.jsonl"
    testset.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    return load_retrieval_cases(testset, corpus)


class TestLoadRetrievalCases:
    def test_happy_path(self, tmp_path):
        corpus = [f"corpus item {i}" for i in range(4)]
        cases = load_cases(
            tmp_path,
            corpus,
            [
                {"query": "q one", "positive": "p one", "negative_ids": [0, 2]},
                {"query": "q two", "positive": "p two", "negative_ids": [3]},
            ],
        )
        assert len(cases) == 2
        assert [cases.texts[i] for i in cases.negatives[0]] == [corpus[0], corpus[2]]
        assert [cases.texts[i] for i in cases.pairs[1]] == ["q two", "p two"]

    def test_missing_field(self, tmp_path):
        with pytest.raises(ValueError, match="cases.jsonl:1: missing required field 'positive'"):
            load_cases(tmp_path, [], [{"query": "q", "negative_ids": []}])

    @pytest.mark.parametrize("negative_ids", [["1"], [1.0], 5, [True], None, {"0": 1}])
    def test_malformed_negative_ids_name_file_and_line(self, tmp_path, negative_ids):
        testset = tmp_path / "cases.jsonl"
        record = {"query": "q", "positive": "p"}
        if negative_ids is not None:
            record["negative_ids"] = negative_ids
        testset.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(testset))}:2: negative_ids must be a list of integer indices$"):
            load_retrieval_cases(testset, ["a b", "c d"])

    def test_negative_id_out_of_range(self, tmp_path):
        # -1 and 2**70 are range errors too, not an intp overflow.
        testset = re.escape(str(tmp_path / "cases.jsonl"))
        for negative_id in (5, -1, 2**70):
            record = {"query": "q cmd", "positive": "p cmd", "negative_ids": [0, negative_id]}
            with pytest.raises(ValueError, match=f"^{testset}:1: negative id {negative_id} outside corpus of 2$"):
                load_cases(tmp_path, ["a b", "c d"], [record])

    @pytest.mark.parametrize("field", ["positive", "query"])
    def test_positive_or_query_in_negatives_rejected(self, tmp_path, field):
        # Ids 1 and 2 hold the same text, and the second record lists only id 2.
        records = [{"query": "q cmd", "positive": "p cmd", "negative_ids": [0]},
                   {"query": "q cmd", "positive": "p cmd", "negative_ids": [0, 2]}]
        testset = re.escape(str(tmp_path / "cases.jsonl"))
        with pytest.raises(ValueError, match=f"^{testset}:2: {field} must not appear among the negatives$"):
            load_cases(tmp_path, ["a b", f"{field[0]} cmd", f"{field[0]} cmd"], records)

    @pytest.mark.parametrize("field", ["query", "positive"])
    def test_too_short_command_names_file_and_line(self, tmp_path, field):
        record = {"query": "q cmd", "positive": "p cmd", "negative_ids": [], field: "x"}
        testset = re.escape(str(tmp_path / "cases.jsonl"))
        with pytest.raises(ValueError, match=f"^{testset}:1: command line must be at least 2 characters: 'x'$"):
            load_cases(tmp_path, ["a b"], [record])


class TestEvaluateRetrieval:
    # Vectors chosen so every comparison is either an exact-zero tie or
    # separated by a wide margin; no BLAS last-ulp hazards.
    TABLE = {
        "alpha one": [1.0, 0.0, 0.0],
        "alpha two": [1.0, 1.0, 0.0],
        "alpha deep": [2.0, 1.0, 0.0],
        "beta one": [0.0, 1.0, 0.0],
        "beta two": [0.0, 1.0, 1.0],
        "gamma one": [0.0, 0.0, 1.0],
    }

    def cases(self, tmp_path):
        corpus = list(self.TABLE)
        ids = {text: i for i, text in enumerate(corpus)}
        return load_cases(tmp_path, corpus, [
            # rank 1: positive is an exact duplicate direction
            {"query": "alpha one", "positive": "alpha one", "negative_ids": [ids["beta one"], ids["gamma one"]]},
            # rank 2: "alpha deep" is closer to the query than the positive
            {"query": "alpha one", "positive": "alpha two", "negative_ids": [ids["alpha deep"], ids["beta one"]]},
            # rank 4: positive orthogonal, one exact-zero tie, two clear wins
            {"query": "beta one", "positive": "gamma one",
             "negative_ids": [ids["alpha two"], ids["beta two"], ids["alpha one"]]},
        ])

    def test_ranks_and_metrics(self, tmp_path):
        report = evaluate_retrieval(self.cases(tmp_path), VectorBackend(self.TABLE), ks=(1, 3, 10))
        assert report.ranks == (1, 2, 4)
        assert report.metrics["mrr@3"] == pytest.approx(50.0)
        assert report.metrics["top@3"] == pytest.approx(200.0 / 3.0)
        assert report.metrics["mrr@1"] == pytest.approx(100.0 / 3.0)
        assert report.metrics["top@10"] == pytest.approx(100.0)

    def test_orthogonal_adapter_preserves_ranks(self, tmp_path):
        from cmdsim.contrastive import AdapterModel

        permutation = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        plain = evaluate_retrieval(self.cases(tmp_path), VectorBackend(self.TABLE))
        rotated = evaluate_retrieval(
            self.cases(tmp_path), VectorBackend(self.TABLE), adapter=AdapterModel(permutation)
        )
        assert rotated.ranks == plain.ranks

    def test_empty_cases_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no retrieval cases"):
            evaluate_retrieval(load_cases(tmp_path, list(self.TABLE), []), VectorBackend(self.TABLE))

    def test_ragged_cases_match_the_full_sort_oracle(self, tmp_path):
        # Cases of 0 to 6 negatives are ranked in one NaN-padded matrix.
        # Vectors on a {1, 2} grid repeat directions, so exact ties occur.
        rng = np.random.default_rng(5)
        table = {f"text {i}": [float(v) for v in rng.integers(1, 3, size=3)] for i in range(12)}
        corpus = list(table)
        records = []
        for size in [0, 6, 1, 3, 0, 6, 2, 5, 4]:
            query, positive, *negatives = rng.choice(len(corpus), size=size + 2, replace=False).tolist()
            records.append({"query": corpus[query], "positive": corpus[positive], "negative_ids": negatives})
        report = evaluate_retrieval(load_cases(tmp_path, corpus, records), VectorBackend(table))
        matrix = embed_batch(VectorBackend(table), corpus)
        expected = []
        for record in records:
            query_vector = matrix[corpus.index(record["query"])]
            negative_rows = matrix[record["negative_ids"]]
            expected.append(full_sort_rank(float(query_vector @ matrix[corpus.index(record["positive"])]),
                                           list(negative_rows @ query_vector)))
        assert report.ranks == tuple(expected)
        assert len(set(expected)) > 3

    def test_texts_are_embedded_once_in_order_of_first_appearance(self, tmp_path):
        # A cold --cache appends the texts in this order.
        class RecordingBackend(VectorBackend):
            def embed(self, texts):
                self.embedded.extend(texts)
                return super().embed(texts)

        backend = RecordingBackend(self.TABLE)
        backend.embedded = []
        cases = self.cases(tmp_path)
        evaluate_retrieval(cases, backend)
        corpus = list(self.TABLE)
        expected = list(dict.fromkeys([
            "alpha one", "alpha one", "beta one", "gamma one",
            "alpha one", "alpha two", "alpha deep", "beta one",
            "beta one", "gamma one", "alpha two", "beta two", "alpha one",
        ]))
        assert backend.embedded == expected != corpus


class TestTechniqueCorpus:
    def test_duplicate_commands_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Technique("t1", ("whoami /all", "WHOAMI  /ALL"))

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="technique_id"):
            Technique("", ("a b",))

    def test_corpus_unique_ids(self):
        t = Technique("t1", ("a b",))
        with pytest.raises(ValueError, match="unique"):
            TechniqueCorpus([t, Technique("t1", ("c d",))])

    def test_all_commands_order(self):
        corpus = TechniqueCorpus(
            [Technique("t1", ("a b", "c d")), Technique("t2", ("e f",))]
        )
        assert corpus.all_commands == ["a b", "c d", "e f"]

    def test_load_groups_by_first_occurrence(self, tmp_path):
        path = tmp_path / "techniques.jsonl"
        records = [
            {"technique_id": "t2", "command": "x one"},
            {"technique_id": "t1", "command": "y one"},
            {"technique_id": "t2", "command": "x two"},
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        corpus = load_technique_corpus(path)
        assert [t.technique_id for t in corpus.techniques] == ["t2", "t1"]
        assert corpus.techniques[0].commands == ("x one", "x two")

    def test_load_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"technique_id": "t"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:1: missing required field 'command'"):
            load_technique_corpus(path)

    @pytest.mark.parametrize(("bad", "reason"), [
        ({"technique_id": "t1", "command": "WHOAMI  /ALL"}, "technique t1: duplicate command 'WHOAMI  /ALL'"),
        ({"technique_id": "", "command": "net user"}, "technique_id must not be empty"),
        ({"technique_id": "t2", "command": "   "}, "technique t2: blank command"),
    ], ids=["duplicate", "empty-id", "blank-command"])
    def test_load_names_the_line_that_breaks_a_technique_rule(self, tmp_path, bad, reason):
        # A blank first line, so line numbers are not record indices; t3's
        # blank command on line 5 comes after the fault on line 4.
        path = tmp_path / "tech.jsonl"
        records = [{"technique_id": "t1", "command": "whoami /all"},
                   {"technique_id": "t2", "command": "net view"}, bad,
                   {"technique_id": "t3", "command": " "}]
        path.write_text("\n" + "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:4: {reason}')}$"):
            load_technique_corpus(path)

    def test_load_names_the_true_line(self, tmp_path):
        path = tmp_path / "tech.jsonl"
        path.write_text('\n\n{"technique_id": "t", "command": 3}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="tech.jsonl:3: field 'command' must be a string"):
            load_technique_corpus(path)


def technique_of_size(technique_id: str, size: int, stamp: str = "") -> Technique:
    return Technique(
        technique_id,
        tuple(f"{technique_id}{stamp} cmd {i:03d}" for i in range(size)),
    )


class TestBuildGenePools:
    @pytest.mark.parametrize("rate", [0, 100, -5, 120])
    def test_rate_bounds(self, rate):
        corpus = TechniqueCorpus([technique_of_size("t1", 10)])
        with pytest.raises(ValueError, match="strictly between 0 and 100"):
            build_gene_pools(corpus, rate)

    def test_small_techniques_excluded(self):
        corpus = TechniqueCorpus(
            [technique_of_size("small", MIN_TECHNIQUE_SIZE - 1),
             technique_of_size("big", MIN_TECHNIQUE_SIZE)]
        )
        splits = build_gene_pools(corpus, 20)
        assert [s.technique_id for s in splits] == ["big"]

    def test_integer_rate_is_exact(self):
        # 20% of 10 is exactly 2; float ceil would give 3.
        corpus = TechniqueCorpus([technique_of_size("t1", 10)])
        split = build_gene_pools(corpus, 20)[0]
        assert len(split.pool) == 2

    @pytest.mark.parametrize(
        "rate,size,expected",
        [(50, 9, 5), (1, 9, 1), (99, 30, 30), (10, 30, 3), (33, 12, 4), (7.2, 125, 9), (0.8, 125, 1)],
    )
    def test_pool_sizes(self, rate, size, expected):
        corpus = TechniqueCorpus([technique_of_size("t1", size)])
        assert len(build_gene_pools(corpus, rate)[0].pool) == expected

    def test_fractional_rate(self):
        corpus = TechniqueCorpus([technique_of_size("t1", 16)])
        split = build_gene_pools(corpus, 12.5)[0]
        assert len(split.pool) == 2  # ceil(0.125 * 16) = 2

    def test_partition_and_composition(self):
        corpus = TechniqueCorpus(
            [technique_of_size("t0", 3), technique_of_size("t1", 10), technique_of_size("t2", 12)]
        )
        for split in build_gene_pools(corpus, 30):
            technique = next(
                t for t in corpus.techniques if t.technique_id == split.technique_id
            )
            assert split.pool + split.queries == technique.commands
            end = split.start + len(technique.commands)
            assert corpus.all_commands[split.start:end] == list(technique.commands)


class TestMannWhitneyAuc:
    def test_perfect_separation(self):
        assert mann_whitney_auc([0.8, 0.9], [0.1, 0.2, 0.3]) == 1.0

    def test_perfectly_wrong(self):
        assert mann_whitney_auc([0.1, 0.2], [0.8, 0.9]) == 0.0

    def test_all_tied(self):
        assert mann_whitney_auc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_hand_case_with_tie(self):
        # pairs: 0.9>0.5 win, 0.9>0.1 win, 0.5=0.5 half, 0.5>0.1 win
        assert mann_whitney_auc([0.9, 0.5], [0.5, 0.1]) == pytest.approx(0.875)

    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            mann_whitney_auc([], [0.5])
        with pytest.raises(ValueError, match="at least one"):
            mann_whitney_auc([0.5], [])

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(17)
        levels = np.linspace(-1.0, 1.0, 9)
        for _ in range(60):
            m = int(rng.integers(1, 40))
            n = int(rng.integers(1, 40))
            positives = rng.choice(levels, size=m).tolist()
            negatives = rng.choice(levels, size=n).tolist()
            assert mann_whitney_auc(positives, negatives) == pair_count_auc(
                positives, negatives
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        positives = rng.uniform(-1, 1, size=25).tolist()
        negatives = rng.uniform(-1, 1, size=30).tolist()
        base = mann_whitney_auc(positives, negatives)
        for transform in (np.exp, lambda x: 3.0 * np.asarray(x) + 2.0):
            assert mann_whitney_auc(
                transform(np.asarray(positives)).tolist(),
                transform(np.asarray(negatives)).tolist(),
            ) == pytest.approx(base, abs=0)


def mock_technique_corpus(per_technique: int = 12) -> TechniqueCorpus:
    """One technique per mock verb; same-verb commands share trigrams."""
    techniques = []
    for vi, (verb, _) in enumerate(MOCK_VERB_SYNONYMS):
        commands = []
        for i in range(per_technique):
            flag = MOCK_FLAG_SYNONYMS[i % len(MOCK_FLAG_SYNONYMS)][0]
            target = MOCK_TARGETS[(vi + i) % len(MOCK_TARGETS)]
            commands.append(f"{verb} {flag} {target}{i:x}")
        techniques.append(Technique(f"T{vi:04d}", tuple(commands)))
    return TechniqueCorpus(techniques)


class TestDetectionAuc:
    def test_verb_structure_is_detectable(self):
        corpus = mock_technique_corpus()
        backend = HashingEmbeddingBackend(dim=64)
        auc = detection_auc(corpus, 25, backend, mode="concatenated")
        assert 0.75 < auc <= 1.0

    def test_modes_agree_on_direction_and_are_deterministic(self):
        corpus = mock_technique_corpus()
        backend = HashingEmbeddingBackend(dim=64)
        concatenated = detection_auc(corpus, 25, backend, mode="concatenated")
        averaged = detection_auc(corpus, 25, backend, mode="averaged")
        assert 0.75 < averaged <= 1.0
        assert detection_auc(corpus, 25, backend, mode="concatenated") == concatenated
        assert detection_auc(corpus, 25, backend, mode="averaged") == averaged

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            detection_auc(mock_technique_corpus(), 25, HashingEmbeddingBackend(dim=16), mode="median")

    @pytest.mark.parametrize("mode", DETECTION_MODES)
    @pytest.mark.parametrize("rate", [5, 12.5, 50])
    def test_matches_the_naive_oracle(self, mode, rate):
        # Each command is a vector of four +-0.5 entries, three of them on
        # its technique's six axes: unit length, with dot products that are
        # multiples of 0.25 in any summation order, so a tie is a tie both
        # here and in the oracle.  T0 also holds T1's first command, which
        # is then a query of T0 and twice a negative of every other
        # technique; the 5-command technique is too small to score but is
        # a negative of every other.
        rng = random.Random(5)
        table: dict[str, list[float]] = {}
        techniques = []
        for t in range(6):
            home = rng.sample(range(16), 6)
            commands = []
            for i in range(12 if t < 5 else 5):
                axes = rng.sample(home, 3)
                axes.append(rng.choice([a for a in range(16) if a not in axes]))
                vector = [0.0] * 16
                for axis in axes:
                    vector[axis] = rng.choice([0.5, 0.5, -0.5])
                commands.append(f"T{t} cmd {i}")
                table[commands[-1]] = vector
            techniques.append((f"T{t}", tuple(commands)))
        techniques[0] = ("T0", techniques[0][1] + techniques[1][1][:1])
        corpus = TechniqueCorpus([Technique(*t) for t in techniques])
        backend = VectorBackend(table)
        vectors = dict(zip(corpus.all_commands, embed_batch(backend, corpus.all_commands)))
        expected = naive_gene_pool_auc(techniques, vectors, rate, mode)
        assert detection_auc(corpus, rate, backend, mode) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_technique_spanning_the_corpus(self):
        corpus = TechniqueCorpus([technique_of_size("t1", 10), technique_of_size("tiny", 0)])
        with pytest.raises(ValueError, match="^technique t1: spans the whole corpus"):
            detection_auc(corpus, 25, HashingEmbeddingBackend(dim=16))

    def test_all_techniques_too_small(self):
        corpus = TechniqueCorpus([technique_of_size("tiny", 5)])
        with pytest.raises(ValueError, match="nothing to evaluate"):
            detection_auc(corpus, 25, HashingEmbeddingBackend(dim=16))

    def test_rate_leaving_no_queries(self):
        corpus = TechniqueCorpus([technique_of_size("t1", 9), technique_of_size("t2", 9)])
        with pytest.raises(ValueError, match="no query commands"):
            detection_auc(corpus, 99, HashingEmbeddingBackend(dim=16))


class TestSynthClassificationDataset:
    def test_counts_and_balance(self):
        dataset = synth_classification_dataset(random.Random(0), per_command=4)
        assert len(dataset.train) == len(CLASS_COMMANDS) * 2
        assert len(dataset.test) == len(CLASS_COMMANDS) * 2
        for split in (dataset.train, dataset.test):
            for command in CLASS_COMMANDS:
                assert sum(1 for label, _ in split if label == command) == 2

    def test_text_shape(self):
        # decoys off: slots are pure alphanumerics, so exactly 7 tokens
        dataset = synth_classification_dataset(
            random.Random(1), per_command=2, decoy_probability=0.0
        )
        for label, text in dataset.train + dataset.test:
            assert text.startswith(f"{label} '")
            assert text.endswith("'")
            argument = text[len(label) + 2 : -1]
            tokens = argument.split(" ")
            assert len(tokens) == 7
            assert all(token.isalnum() for token in tokens)

    def test_decoy_probability_extremes(self):
        no_decoys = synth_classification_dataset(
            random.Random(2), per_command=4, decoy_probability=0.0
        )
        for label, text in no_decoys.train:
            argument = text[len(label) + 2 : -1]
            assert not any(slot in CLASS_COMMANDS for slot in argument.split(" "))
        all_decoys = synth_classification_dataset(
            random.Random(3), per_command=4, decoy_probability=1.0
        )
        # "sc query" is two tokens when re-split; every "sc" accounts
        # for one extra token beyond the 7 slots
        vocabulary = {w for name in CLASS_COMMANDS for w in name.split(" ")}
        for label, text in all_decoys.train:
            argument = text[len(label) + 2 : -1]
            tokens = argument.split(" ")
            assert all(token in vocabulary for token in tokens)
            assert len(tokens) - tokens.count("sc") == 7

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            synth_classification_dataset(random.Random(0), per_command=3)
        with pytest.raises(ValueError, match="even"):
            synth_classification_dataset(random.Random(0), per_command=0)
        with pytest.raises(ValueError, match="decoy_probability"):
            synth_classification_dataset(random.Random(0), per_command=2, decoy_probability=1.5)

    @pytest.mark.parametrize(
        "seed, per_command, digest, next_draw, decoy_probability",
        [
            (0, 4, "677cb581e86f02763a26f2e76d39a2bca1fa7c982bd300fe84e6084de12e28b2",
             0.6100819970747507, 0.5),
            (1, 400, "42d53dfb17b70a65ede0e1762fc3b7f0ebb8b50a67a01857bf7adec7d9f293d9",
             0.23104093854150598, 0.5),
            # No decoys, but each slot still draws its random() first.
            (2, 6, "d48d64ab3e77ca4220a0e3fbd94a2c87d18105aa1d208076d4f0885005bc7d2d",
             0.846826442994519, 0.0),
            (3, 6, "716194d045d955f1f413b809bbe90d28bf354aa70238f90d3c1ec0420af7ee66",
             0.4201375212887214, 1.0),
            (4, 2, "0d38f3888cf5093807c3eb1afc6de978916943a2826e643a61e8e22dea87183d",
             0.9713945412345196, 0.5),
        ],
    )
    def test_random_stream_is_pinned(self, seed, per_command, digest, next_draw, decoy_probability):
        # classify.txt comes from these texts, and train_logreg shuffles
        # with the same rng afterwards: a faster generator must keep both.
        # The literals come from the rng.choice / rng.randint generator.
        rng = random.Random(seed)
        dataset = synth_classification_dataset(rng, per_command=per_command,
                                               decoy_probability=decoy_probability)
        joined = "\n".join(text for _, text in dataset.train + dataset.test)
        assert hashlib.sha256(joined.encode("utf-8")).hexdigest() == digest
        assert rng.random() == next_draw

    def test_seeded_determinism(self):
        a = synth_classification_dataset(random.Random(42), per_command=4)
        b = synth_classification_dataset(random.Random(42), per_command=4)
        assert a == b
        c = synth_classification_dataset(random.Random(43), per_command=4)
        assert a != c


def gaussian_blobs(rng: np.random.Generator, per_class: int):
    centers = {"left": np.array([-2.0, 0.0]), "right": np.array([2.0, 0.0])}
    features, labels = [], []
    for label, center in centers.items():
        features.append(center + 0.1 * rng.standard_normal((per_class, 2)))
        labels.extend([label] * per_class)
    return np.vstack(features), labels


class TestTrainLogreg:
    def test_separable_blobs_reach_full_accuracy(self):
        rng = np.random.default_rng(0)
        train_x, train_labels = gaussian_blobs(rng, 40)
        test_x, test_labels = gaussian_blobs(rng, 20)
        weights, accuracy = train_logreg(train_x, train_labels, test_x, test_labels)
        assert accuracy == 100.0
        assert weights.shape == (3, 2)  # bias row appended

    def test_unseen_test_label(self):
        rng = np.random.default_rng(1)
        train_x, train_labels = gaussian_blobs(rng, 10)
        with pytest.raises(ValueError, match="never seen in training"):
            train_logreg(train_x, train_labels, train_x[:1], ["weird"])

    def test_length_mismatches(self):
        rng = np.random.default_rng(2)
        train_x, train_labels = gaussian_blobs(rng, 5)
        with pytest.raises(ValueError, match="disagree"):
            train_logreg(train_x, train_labels[:-1], train_x, train_labels)
        with pytest.raises(ValueError, match="disagree"):
            train_logreg(train_x, train_labels, train_x[:-1], train_labels)

    def test_needs_two_classes(self):
        features = np.zeros((4, 2))
        with pytest.raises(ValueError, match="two classes"):
            train_logreg(features, ["same"] * 4, features, ["same"] * 4)

    def test_empty_grid(self):
        rng = np.random.default_rng(3)
        train_x, train_labels = gaussian_blobs(rng, 5)
        with pytest.raises(ValueError, match="hyper_grid"):
            train_logreg(train_x, train_labels, train_x, train_labels, hyper_grid=[])

    def test_deterministic_under_seeded_rng(self):
        rng = np.random.default_rng(4)
        train_x, train_labels = gaussian_blobs(rng, 30)
        test_x, test_labels = gaussian_blobs(rng, 10)
        w1, a1 = train_logreg(
            train_x, train_labels, test_x, test_labels, rng=random.Random(9)
        )
        w2, a2 = train_logreg(
            train_x, train_labels, test_x, test_labels, rng=random.Random(9)
        )
        assert np.array_equal(w1, w2)
        assert a1 == a2

    def test_grid_ties_resolve_to_first_entry(self):
        rng = np.random.default_rng(5)
        train_x, train_labels = gaussian_blobs(rng, 30)
        test_x, test_labels = gaussian_blobs(rng, 10)
        h1 = {"l2": 1e-4, "learning_rate": 1.0, "iterations": 50}
        h2 = {"l2": 1e-2, "learning_rate": 0.5, "iterations": 50}
        w_pair, _ = train_logreg(
            train_x, train_labels, test_x, test_labels,
            hyper_grid=[h1, h2], rng=random.Random(1),
        )
        w_single, _ = train_logreg(
            train_x, train_labels, test_x, test_labels,
            hyper_grid=[h1], rng=random.Random(1),
        )
        # both entries hit 100% validation on separable blobs; the tie
        # must go to the first entry
        assert np.array_equal(w_pair, w_single)


def probe_blobs8(rng: np.random.Generator, per_class: int):
    """Criterion 09's seven well-spread 8-d classes."""
    centers = 2.0 * np.eye(8)[:7]
    features, labels = [], []
    for i, center in enumerate(centers):
        features.append(center + 0.05 * rng.standard_normal((per_class, 8)))
        labels.extend([f"class_{i}"] * per_class)
    return np.vstack(features), labels


@pytest.fixture(scope="module", params=["hash3", "blobs8", "blobs2"])
def probe_data(request):
    """(train_x, train_labels, test_x, test_labels) of one probe shape:
    ``hash3`` is the train-eval benchmark's `eval classify` input (1,400
    training rows x 256 dims, 7 classes)."""
    if request.param == "hash3":
        dataset = synth_classification_dataset(random.Random(1), per_command=400)
        backend = HashingEmbeddingBackend(dim=256)
        return (
            backend.embed([text for _, text in dataset.train]),
            [label for label, _ in dataset.train],
            backend.embed([text for _, text in dataset.test]),
            [label for label, _ in dataset.test],
        )
    rng = np.random.default_rng(9)
    if request.param == "blobs8":
        return (*probe_blobs8(rng, 300), *probe_blobs8(rng, 400))
    return (*gaussian_blobs(rng, 40), *gaussian_blobs(rng, 20))


PROBE_GRIDS = {
    "default": DEFAULT_HYPER_GRID,
    "single": DEFAULT_HYPER_GRID[1:2],
    "mixed": (
        {"l2": 1e-3, "learning_rate": 1.0, "iterations": 50},
        {"l2": 0.0, "learning_rate": 0.5, "iterations": 120},
        {"l2": 1e-2, "learning_rate": 1.0, "iterations": 0},
    ),
}


class TestJointGridFitMatchesPerEntryFit:
    """The joint fit of a whole grid gives, bit for bit, the weights of
    fitting each entry alone, and so the same probe."""

    @pytest.mark.parametrize("grid", PROBE_GRIDS)
    def test_every_entry(self, probe_data, grid):
        train_x, train_labels, _, _ = probe_data
        classes = sorted(set(train_labels))
        train_y = np.asarray([classes.index(label) for label in train_labels])
        # the fit rows of the probe's 80/20 split
        rows = list(range(train_x.shape[0]))
        random.Random(0).shuffle(rows)
        rows = rows[round(0.2 * len(rows)):]
        features, class_indices = train_x[rows], train_y[rows]
        design = np.hstack([features, np.ones((len(rows), 1))])
        fitted = _fit_multinomial(design, class_indices, len(classes), PROBE_GRIDS[grid])
        assert fitted.shape == (len(PROBE_GRIDS[grid]), design.shape[1], len(classes))
        for weights, hyper in zip(fitted, PROBE_GRIDS[grid]):
            reference = fit_multinomial_reference(
                features, class_indices, len(classes),
                hyper["l2"], hyper["learning_rate"], hyper["iterations"],
            )
            assert weights.tobytes() == reference.tobytes(), hyper

    @pytest.mark.parametrize("grid", PROBE_GRIDS)
    def test_probe(self, probe_data, grid):
        weights, accuracy = train_logreg(
            *probe_data, hyper_grid=PROBE_GRIDS[grid], rng=random.Random(3)
        )
        reference_weights, reference_accuracy = logreg_probe_reference(
            *probe_data, hyper_grid=PROBE_GRIDS[grid], rng=random.Random(3)
        )
        assert weights.shape == reference_weights.shape
        assert weights.tobytes() == reference_weights.tobytes()
        assert accuracy == reference_accuracy


def softmax_max_reduce(logits: np.ndarray) -> np.ndarray:
    shift = logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits - shift)
    return exp / exp.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(1120, 3, 7), (1400, 1, 7), (64, 64), (5, 2)])
def test_softmax_shift_chain_matches_max_reduce(shape):
    """The column chain of ``np.maximum`` gives the bits of
    ``max(axis=-1)``, with +-0 maxima, infinities and NaN."""
    rng = np.random.default_rng(sum(shape))
    logits = 10.0 * rng.standard_normal(shape)
    rows = logits.reshape(-1, shape[-1])
    # rows whose maximum is 0.0 and -0.0 at once
    rows[::3] = -np.abs(rows[::3])
    rows[::3, 0] = 0.0
    rows[::3, -1] = -0.0
    specials = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=rows.size // 20)
    flat = rows.reshape(-1)
    flat[rng.choice(rows.size, size=specials.size, replace=False)] = specials
    rows[1] = -np.inf
    with np.errstate(invalid="ignore"):
        ours = _softmax_rows(logits)
        reference = softmax_max_reduce(logits)
    assert np.isnan(ours).any() and np.isfinite(ours).any()
    assert np.array_equal(ours.view(np.uint64), reference.view(np.uint64))


TIED_SCORES = st.lists(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, math.nan, math.inf]) | st.floats(),
    min_size=1, max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(TIED_SCORES, TIED_SCORES)
def test_auc_matches_sequential_midranks(positives, negatives):
    """Heavy ties, NaN (each its own tie group) and +-0.0 (one group)."""
    ours = mann_whitney_auc(positives, negatives)
    assert np.float64(ours).tobytes() == np.float64(midrank_auc(positives, negatives)).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_auc_oracle_property(data):
    m = data.draw(st.integers(min_value=1, max_value=15))
    n = data.draw(st.integers(min_value=1, max_value=15))
    levels = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5, 0.75])
    positives = data.draw(st.lists(levels, min_size=m, max_size=m))
    negatives = data.draw(st.lists(levels, min_size=n, max_size=n))
    assert mann_whitney_auc(positives, negatives) == pair_count_auc(positives, negatives)
