"""LCS overlap scoring, histograms, and universe coverage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdsim import analytics
from cmdsim.analytics import (
    HISTOGRAM_BINS,
    CoverageReport,
    OverlapHistogram,
    command_coverage,
    extension_coverage,
    load_universe,
    max_overlap_vs_seeds,
    overlap_histogram,
    pair_overlap_distribution,
    rouge_l,
    write_histogram_csv,
)
from cmdsim.core import CommandLine, CommandLinePair, tokenize

from oracles import rouge_scores

tokens_strategy = st.lists(
    st.sampled_from(["copy", "del", "srv", "x", "y", "all"]), min_size=0, max_size=12
)


class TestRougeL:
    def test_mode_checked_first(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            rouge_l([], [], "fscore")

    def test_empty_sides(self):
        assert rouge_l([], ["a"]) == 0.0
        assert rouge_l(["a"], []) == 0.0
        assert rouge_l([], []) == 0.0

    def test_disjoint(self):
        assert rouge_l(["a", "b"], ["c", "d"]) == 0.0

    def test_identical(self):
        tokens = ["net", "user", "admin"]
        for mode in ("f1", "precision", "recall"):
            assert rouge_l(tokens, tokens, mode) == 1.0

    def test_hand_case(self):
        a = ["a", "b", "c"]
        b = ["a", "c"]
        assert rouge_l(a, b, "precision") == pytest.approx(1.0)
        assert rouge_l(a, b, "recall") == pytest.approx(2.0 / 3.0)
        assert rouge_l(a, b, "f1") == pytest.approx(0.8)

    def test_subsequence_not_substring(self):
        a = ["x", "q", "y", "q", "z"]
        b = ["x", "y", "z"]
        assert rouge_l(a, b, "precision") == pytest.approx(1.0)
        assert rouge_l(a, b, "recall") == pytest.approx(3.0 / 5.0)

    def test_precision_recall_swap(self):
        a = ["one", "two", "three", "four"]
        b = ["two", "four", "five"]
        assert rouge_l(a, b, "precision") == rouge_l(b, a, "recall")
        assert rouge_l(a, b, "recall") == rouge_l(b, a, "precision")

    def test_matches_full_table_oracle(self):
        rng = np.random.default_rng(21)
        alphabet = ["cmd", "run", "dll", "srv"]
        for _ in range(200):
            a = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 10))]
            b = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 10))]
            precision, recall, f1 = rouge_scores(a, b)
            assert rouge_l(a, b, "precision") == pytest.approx(precision, abs=0)
            assert rouge_l(a, b, "recall") == pytest.approx(recall, abs=0)
            assert rouge_l(a, b, "f1") == pytest.approx(f1, abs=0)

    def test_long_repetitive_sequences_match_oracle(self):
        # Three tokens give many repeats and long carry chains; lengths run
        # past the 30- and 64-bit word boundaries of the position masks.
        rng = np.random.default_rng(7)
        alphabet = ["a", "b", "c"]
        lengths = [0, 1, 29, 30, 31, 32, 63, 64, 65, 128, 129, 200]
        cases = [(m, n) for m in lengths for n in (0, 30, 64, 65, 200)]
        cases += [tuple(rng.integers(0, 201, size=2)) for _ in range(60)]
        for m, n in cases:
            a = [alphabet[i] for i in rng.integers(0, 3, size=m)]
            b = [alphabet[i] for i in rng.integers(0, 3, size=n)]
            expected = dict(zip(("precision", "recall", "f1"), rouge_scores(a, b)))
            for mode in ("f1", "precision", "recall"):
                assert rouge_l(a, b, mode) == expected[mode], (m, n, mode)

    @given(tokens_strategy, tokens_strategy)
    def test_f1_symmetry_and_bound(self, a, b):
        f1 = rouge_l(a, b, "f1")
        assert f1 == rouge_l(b, a, "f1")
        precision = rouge_l(a, b, "precision")
        recall = rouge_l(a, b, "recall")
        assert 0.0 <= f1 <= max(precision, recall) + 1e-12
        assert f1 <= 1.0


class TestOverlapHistogram:
    def test_bin_structure(self):
        histogram = overlap_histogram([0.0, 0.42, 1.0])
        assert histogram.n == 3
        assert len(histogram.counts) == HISTOGRAM_BINS
        assert histogram.bin_edges[0] == 0.0
        assert histogram.bin_edges[-1] == 1.0
        assert histogram.counts[0] == 1   # 0.0
        assert histogram.counts[8] == 1   # 0.42 in [0.40, 0.45)
        assert histogram.counts[-1] == 1  # 1.0 closes the top bin

    def test_empty_scores(self):
        histogram = overlap_histogram([])
        assert histogram.n == 0
        assert sum(histogram.counts) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="within"):
            overlap_histogram([0.5, 1.2])
        with pytest.raises(ValueError, match="within"):
            overlap_histogram([-0.1])

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="one more edge"):
            OverlapHistogram(bin_edges=(0.0, 1.0), counts=(1, 2), n=3)
        with pytest.raises(ValueError, match="sum to n"):
            OverlapHistogram(bin_edges=(0.0, 0.5, 1.0), counts=(1, 1), n=3)
        with pytest.raises(ValueError, match="increasing"):
            OverlapHistogram(bin_edges=(0.0, 0.5, 0.5), counts=(1, 1), n=2)
        with pytest.raises(ValueError, match="cover"):
            OverlapHistogram(bin_edges=(0.1, 0.5, 1.0), counts=(1, 1), n=2)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=60))
    def test_counts_always_sum_to_n(self, scores):
        histogram = overlap_histogram(scores)
        assert sum(histogram.counts) == len(scores) == histogram.n


class TestMaxOverlapVsSeeds:
    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed list"):
            max_overlap_vs_seeds(["copy /aa x"], [])

    def test_per_command_best(self):
        generated = ["copy /aa srv", "wipe /yy srv"]
        seeds = ["copy /aa srv", "list /cc srv"]
        scores, histogram = max_overlap_vs_seeds(generated, seeds)
        assert scores[0] == 1.0
        assert 0.0 < scores[1] < 1.0  # shares "/" and "srv" with each seed
        assert histogram.n == 2

    def test_picks_maximum_across_seeds(self):
        scores, _ = max_overlap_vs_seeds(
            ["alpha beta"], ["alpha zeta", "alpha beta", "beta"]
        )
        assert scores == [1.0]

    def test_accepts_command_line_objects(self):
        scores, _ = max_overlap_vs_seeds(
            [CommandLine("whoami /all")], [CommandLine("whoami /priv")]
        )
        assert 0.0 < scores[0] < 1.0

    def test_no_generated_commands(self):
        scores, histogram = max_overlap_vs_seeds([], ["whoami /all"])
        assert scores == []
        assert histogram.n == 0

    # Per mode, seeds for "a b c d": a seed scoring s, then one whose bound
    # equals s, one whose bound beats s while it scores 0, and one that
    # scores s again.
    @pytest.mark.parametrize(
        "mode, crafted",
        [
            ("f1", ["a b c", "a b x", "w x y z", "b c d"]),
            ("precision", ["a b c d x y", "a b x y z w", "w x y z", "x a b c d y"]),
            ("recall", ["a b c", "a b x", "w x y z", "b c d"]),
        ],
    )
    def test_matches_brute_force_oracle(self, mode, crafted):
        column = ("precision", "recall", "f1").index(mode)
        rng = np.random.default_rng(11)

        def command(size):
            return " ".join(["a", "b", "c"][i] for i in rng.integers(0, 3, size=size))

        cases = [
            (["", "   "] + [command(rng.integers(0, 70)) for _ in range(60)],
             ["", "  "] + [command(rng.integers(0, 70)) for _ in range(25)]),
            (["a b c d", ""], ["", *crafted]),
        ]
        for generated, seeds in cases:
            scores, histogram = max_overlap_vs_seeds(generated, seeds, mode)
            expected = [
                max(rouge_scores(tokenize(g), tokenize(s))[column] for s in seeds)
                for g in generated
            ]
            assert scores == expected
            assert histogram.n == len(generated)
        assert 0.0 < scores[0] < 1.0


def _words(rng, alphabet, size):
    return " ".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=size))


def _packed_cases():
    """(generated, seeds) per property of the packed (seed-per-word) path."""
    rng = np.random.default_rng(5)
    abc = ["a", "b", "c"]
    mixed = ["a", "b", "c", "d", "e", "f", "g", "h"]
    return {
        "repeated seed tokens": (
            [_words(rng, abc, rng.integers(1, 20)) for _ in range(30)] + ["a a a a", "b a b a b"],
            ["a a a", "b a a b a a", "c c c c c c c c c", "a b a b a b a b"]
            + [_words(rng, abc, rng.integers(1, 30)) for _ in range(10)],
        ),
        "empty commands and seeds": (
            ["", "  ", "a b", "", "c"],
            ["", "a", " ", "b c"],
        ),
        "empty seeds only": (["a b", ""], ["", "   "]),
        "seeds of 63, 64 and 65 tokens": (
            [_words(rng, abc, size) for size in (0, 1, 40, 63, 64, 65, 100, 130)],
            [_words(rng, abc, size) for size in (63, 64, 64, 65, 65, 1)],
        ),
        "tokens no seed has": (
            ["zz yy xx", "a zz b yy c", "qq", "b qq b qq"]
            + [_words(rng, mixed, rng.integers(1, 15)) for _ in range(10)],
            [_words(rng, abc, rng.integers(1, 10)) for _ in range(8)],
        ),
        # Random lengths, so that the length sort reorders the commands.
        "several blocks and chunks": (
            [_words(rng, mixed, rng.integers(0, 16)) for _ in range(2 * analytics.COMMAND_BLOCK + 7)],
            [_words(rng, mixed, rng.integers(0, 12)) for _ in range(analytics.SEED_CHUNK + 5)],
        ),
    }


class TestPackedSeeds:
    """``max_overlap_vs_seeds`` equals the full-table oracle by ``repr``."""

    @pytest.mark.parametrize("case", sorted(_packed_cases()))
    def test_matches_oracle_in_every_mode(self, case):
        generated, seeds = _packed_cases()[case]
        oracle = [[rouge_scores(tokenize(g), tokenize(s)) for s in seeds] for g in generated]
        for column, mode in enumerate(("precision", "recall", "f1")):
            scores, histogram = max_overlap_vs_seeds(generated, seeds, mode)
            assert repr(scores) == repr([max(row[column] for row in rows) for rows in oracle]), mode
            assert histogram.n == len(generated)


class TestPairOverlapDistribution:
    def test_known_pair_bin(self):
        # tokens [copy,/,aa,x] vs [copy,/,aa,y]: LCS 3 of 4, f1 = 0.75
        pair = CommandLinePair(
            CommandLine("copy /aa x"), CommandLine("copy /aa y"), 0
        )
        histogram = pair_overlap_distribution([pair])
        assert histogram.n == 1
        assert histogram.counts[15] == 1  # [0.75, 0.80)

    def test_empty_pairs(self):
        assert pair_overlap_distribution([]).n == 0


def test_mode_checked_before_any_work():
    with pytest.raises(ValueError, match="mode must be one of"):
        pair_overlap_distribution([], "fscore")
    with pytest.raises(ValueError, match="mode must be one of"):
        max_overlap_vs_seeds([], ["whoami"], "fscore")
    with pytest.raises(ValueError, match="mode must be one of"):
        max_overlap_vs_seeds([], [], "fscore")


class TestWriteHistogramCsv:
    def test_parseable_and_deterministic(self, tmp_path):
        histogram = overlap_histogram([0.0, 0.42, 0.77, 1.0])
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, histogram)
        raw = path.read_bytes()
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "bin_start,bin_end,count"
        assert len(lines) == 1 + HISTOGRAM_BINS
        starts, ends, counts = [], [], []
        for line in lines[1:]:
            start, end, count = line.split(",")
            starts.append(float(start))
            ends.append(float(end))
            counts.append(int(count))
        assert counts == list(histogram.counts)
        assert starts[0] == 0.0
        assert ends[-1] == 1.0
        assert starts[1:] == ends[:-1]
        write_histogram_csv(tmp_path / "again.csv", histogram)
        assert (tmp_path / "again.csv").read_bytes() == raw

    def test_trailing_newline_and_lf_only(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, overlap_histogram([0.5]))
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert b"\r" not in raw


class TestLoadUniverse:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "universe.txt"
        path.write_text(
            "# header comment\nrobocopy\n\nfind\n  # indented comment\n",
            encoding="utf-8",
        )
        assert load_universe(path) == ["robocopy", "find"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ValueError, match="has no entries"):
            load_universe(path)


class TestCommandCoverage:
    def test_exe_suffix_and_case(self):
        report = command_coverage(
            ["ROBOCOPY.EXE src dst", "unknown thing"], ["robocopy", "find"]
        )
        assert report.universe_size == 2
        assert report.covered == 1
        assert report.rate == pytest.approx(50.0)

    def test_plain_name_and_commandline_objects(self):
        report = command_coverage(
            [CommandLine("find /i pattern"), CommandLine("find again")],
            ["find"],
        )
        assert report.covered == 1
        assert report.rate == 100.0

    def test_only_first_token_counts(self):
        report = command_coverage(["echo robocopy"], ["robocopy"])
        assert report.covered == 0

    def test_universe_validation(self):
        with pytest.raises(ValueError, match="must not be empty"):
            command_coverage(["x y"], [])
        with pytest.raises(ValueError, match="duplicate"):
            command_coverage(["x y"], ["find", "FIND"])

    def test_report_bounds_enforced(self):
        with pytest.raises(ValueError, match="covered"):
            CoverageReport(universe_size=2, covered=3, rate=150.0)


class TestExtensionCoverage:
    def test_boundary_matching(self):
        report = extension_coverage(
            ["run x.ps1", "load y.ps1x"], ["ps1"]
        )
        # ".ps1" at a boundary counts; ".ps1x" alone would not
        assert report.covered == 1
        report = extension_coverage(["load y.ps1x"], ["ps1"])
        assert report.covered == 0

    def test_end_of_line_and_punctuation_boundaries(self):
        assert extension_coverage(["load lib.dll"], ["dll"]).covered == 1
        assert extension_coverage(["rundll32 lib.dll,Entry"], ["dll"]).covered == 1

    def test_case_insensitive_both_sides(self):
        assert extension_coverage(["start X.DLL"], ["dll"]).covered == 1
        assert extension_coverage(["start x.dll"], ["DLL"]).covered == 1

    def test_dot_prefix_normalized(self):
        assert extension_coverage(["run a.bat now"], [".bat"]).covered == 1

    def test_duplicates_after_normalization(self):
        with pytest.raises(ValueError, match="duplicates"):
            extension_coverage(["x"], ["ps1", ".PS1"])

    def test_blank_extension(self):
        with pytest.raises(ValueError, match="blank extension"):
            extension_coverage(["x"], ["."])

    def test_empty_universe(self):
        with pytest.raises(ValueError, match="must not be empty"):
            extension_coverage(["x"], [])

    def test_rate(self):
        report = extension_coverage(
            ["copy a.dll b.exe", "run c.bat"], ["dll", "exe", "bat", "ps1"]
        )
        assert report.covered == 3
        assert report.rate == pytest.approx(75.0)


@settings(max_examples=60, deadline=None)
@given(tokens_strategy, tokens_strategy, tokens_strategy)
def test_rouge_triangle_of_modes(a, b, c):
    """f1 of (a, b) never exceeds 1 and equals 1 only with equal token
    multisets arranged as a common subsequence of full length."""
    f1 = rouge_l(a, b, "f1")
    if f1 == 1.0:
        assert len(a) == len(b)
        assert a == b or rouge_l(a, b, "precision") == 1.0
