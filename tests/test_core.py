"""Domain model: command lines, normalization, tokenization, statistics."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmdsim.core import (
    CommandLine,
    CommandLinePair,
    DatasetStats,
    SeedPool,
    Source,
    canonical_dedup_key,
    dataset_stats,
    parse_llm_response,
    tokenize,
)

command_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=2, max_size=60
).filter(lambda s: s.strip())


class TestCommandLine:
    def test_defaults(self):
        command = CommandLine("whoami")
        assert command.source is Source.REAL_WORLD
        assert command.provenance is None

    def test_blank_rejected(self):
        with pytest.raises(ValueError):
            CommandLine("   ")

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            CommandLine("x")

    def test_two_characters_is_the_floor(self):
        assert CommandLine("ab").text == "ab"

    def test_frozen(self):
        command = CommandLine("whoami")
        with pytest.raises(AttributeError):
            command.text = "other"


class TestCanonicalDedupKey:
    def test_case_and_whitespace(self):
        assert canonical_dedup_key("  WHOAMI ") == "whoami"

    def test_inner_whitespace_collapsed(self):
        assert canonical_dedup_key("dir   C:\\") == canonical_dedup_key("dir C:\\")

    def test_distinct_commands_distinct_keys(self):
        assert canonical_dedup_key("net use X:") != canonical_dedup_key("net use Y:")

    def test_accepts_command_objects(self):
        assert canonical_dedup_key(CommandLine("Dir  C:")) == "dir c:"

    @given(command_texts)
    def test_idempotent(self, text):
        key = canonical_dedup_key(text)
        assert canonical_dedup_key(key) == key


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("reg query HKLM") == ["reg", "query", "hklm"]

    def test_punctuation_becomes_tokens(self):
        assert tokenize("cmd /c dir") == ["cmd", "/", "c", "dir"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_path_splitting(self):
        assert tokenize("type C:\\a.txt") == ["type", "c", ":", "\\", "a.txt"]

    def test_dot_not_split(self):
        # "." must stay inside tokens or filenames shred into noise.
        assert tokenize("x.y.exe") == ["x.y.exe"]

    def test_quotes_and_equals(self):
        assert tokenize("set \"a=b\"") == ["set", '"', "a", "=", "b", '"']

    @given(command_texts)
    def test_casefolded_and_no_blank_tokens(self, text):
        tokens = tokenize(text)
        assert all(token == token.casefold() for token in tokens)
        assert all(token for token in tokens)

    @given(command_texts)
    def test_rejoining_loses_only_whitespace(self, text):
        # Tokens concatenated must equal the casefolded text minus whitespace.
        assert "".join(tokenize(text)) == "".join(text.casefold().split())


class TestParseLlmResponse:
    def test_two_markers(self):
        commands = parse_llm_response("<CMD>whoami\n<CMD>ipconfig /all")
        assert [c.text for c in commands] == ["whoami", "ipconfig /all"]

    def test_no_marker(self):
        assert parse_llm_response("Here are your commands: none") == []

    def test_trimming_and_empty_extractions(self):
        commands = parse_llm_response("junk\n<CMD>  dir C:\\  \nnote\n<CMD>")
        assert [c.text for c in commands] == ["dir C:\\"]

    def test_indented_marker_counts(self):
        assert [c.text for c in parse_llm_response("   <CMD>whoami")] == ["whoami"]

    def test_source_and_provenance(self):
        commands = parse_llm_response("<CMD>whoami", provenance="prov-x")
        assert commands[0].source is Source.LLM_SYNTHESIZED
        assert commands[0].provenance == "prov-x"

    def test_single_char_extraction_dropped(self):
        # One-character extractions cannot form a valid CommandLine.
        assert parse_llm_response("<CMD>x") == []

    @given(st.lists(command_texts.filter(lambda s: "\n" not in s), max_size=6))
    def test_reserialization_roundtrip(self, texts):
        first = parse_llm_response("\n".join("<CMD>" + t for t in texts))
        again = parse_llm_response("\n".join("<CMD>" + c.text for c in first))
        assert [c.text for c in again] == [c.text for c in first]


class TestCommandLinePair:
    def test_valid(self):
        pair = CommandLinePair(CommandLine("whoami"), CommandLine("whoami /all"), 0)
        assert pair.pair_id == 0

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            CommandLinePair(CommandLine("whoami"), CommandLine("  WHOAMI "), 1)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            CommandLinePair(CommandLine("whoami"), CommandLine("hostname"), -1)


class TestSeedPool:
    def test_insertion_order_and_dedup(self):
        pool = SeedPool()
        assert pool.add(CommandLine("net user"))
        assert pool.add(CommandLine("net view"))
        assert not pool.add(CommandLine("NET  USER"))
        assert len(pool) == 2
        # A seeded sample draws by position, so equal draws mean equal order.
        drawn = [c.text for c in pool.sample(random.Random(4), 2)]
        assert drawn == random.Random(4).sample(["net user", "net view"], 2)

    def test_contains_by_key(self):
        pool = SeedPool([CommandLine("whoami")])
        assert not pool.add(CommandLine("WHOAMI"))
        assert pool.add(CommandLine("whoami /all"))

    def test_sample_without_replacement(self):
        pool = SeedPool([CommandLine(f"cmd-{i}") for i in range(20)])
        rng = random.Random(1)
        drawn = pool.sample(rng, 12)
        assert len(drawn) == 12
        assert len({c.text for c in drawn}) == 12

    def test_sample_too_many(self):
        pool = SeedPool([CommandLine("whoami")])
        with pytest.raises(ValueError):
            pool.sample(random.Random(0), 2)

    def test_sample_deterministic(self):
        pool = SeedPool([CommandLine(f"cmd-{i}") for i in range(30)])
        first = [c.text for c in pool.sample(random.Random(9), 12)]
        second = [c.text for c in pool.sample(random.Random(9), 12)]
        assert first == second


def make_pair(anchor: str, positive: str, pair_id: int = 0) -> CommandLinePair:
    return CommandLinePair(CommandLine(anchor), CommandLine(positive), pair_id)


class TestDatasetStats:
    def test_single_pair(self):
        stats = dataset_stats([make_pair("ab", "cde")])
        assert stats == DatasetStats(
            num_pairs=1, num_unique=2, max_len=3, min_len=2, avg_len=2.5, std_len=0.5
        )

    def test_shared_member_counted_once(self):
        # "aa" appears in both pairs; unique lengths are [2, 2, 4].
        stats = dataset_stats([make_pair("aa", "bb"), make_pair("aa", "cccc", 1)])
        assert stats.num_pairs == 2
        assert stats.num_unique == 3
        assert stats.min_len == 2
        assert stats.max_len == 4
        assert stats.avg_len == pytest.approx(8.0 / 3.0)
        variance = (2 * (2 - 8 / 3) ** 2 + (4 - 8 / 3) ** 2) / 3
        assert stats.std_len == pytest.approx(math.sqrt(variance))

    def test_first_occurrence_supplies_length(self):
        # " AB " and "ab" share a key; representative length is the first seen.
        stats = dataset_stats([make_pair(" ab ", "xy"), make_pair("ab", "zw", 1)])
        assert stats.num_unique == 3
        assert stats.max_len == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            dataset_stats([])

    @given(
        st.lists(
            st.tuples(command_texts, command_texts).filter(
                lambda t: canonical_dedup_key(t[0]) != canonical_dedup_key(t[1])
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_permutation_invariance_and_bounds(self, raw_pairs):
        pairs = [make_pair(a, b, i) for i, (a, b) in enumerate(raw_pairs)]
        stats = dataset_stats(pairs)
        shuffled = list(pairs)
        random.Random(4).shuffle(shuffled)
        assert dataset_stats(shuffled) == stats
        assert stats.num_unique <= 2 * stats.num_pairs
        assert stats.min_len <= stats.avg_len <= stats.max_len
        assert stats.std_len >= 0.0
