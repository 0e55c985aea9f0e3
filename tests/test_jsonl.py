"""On-disk JSONL formats: round-trips, error locations, meta sidecars."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from cmdsim import analytics, cli, jsonl
from cmdsim.contrastive import AdapterModel
from cmdsim.core import CommandLine, CommandLinePair, Source


def test_records_roundtrip(tmp_path):
    path = tmp_path / "r.jsonl"
    records = [{"a": 1}, {"b": "xé", "c": [1, 2]}]
    assert jsonl.write_records(path, records) == 2
    assert list(jsonl.read_records(path)) == [(1, records[0]), (2, records[1])]


def test_read_records_skips_blank_lines(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"a": 2}\n', encoding="utf-8")
    assert [(lineno, r["a"]) for lineno, r in jsonl.read_records(path)] == [(1, 1), (4, 2)]


@pytest.mark.parametrize("record, message", [
    ({"b": "x"}, "missing required field 'a'"),
    ({"a": 1, "b": "x"}, "field 'a' must be a string"),
    ({"a": "x", "b": None}, "field 'b' must be a string"),
    ({"a": "x", "b": ["x"]}, "field 'b' must be a string"),
])
def test_read_records_required_names_the_true_line(tmp_path, record, message):
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": "ok", "b": "ok"}\n\n' + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {re.escape(message)}$"):
        list(jsonl.read_records(path, required=("a", "b")))


def test_read_records_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        list(jsonl.read_records(path))


@pytest.mark.parametrize("text, line", [
    (b'{"a": "x"}\n{"a": "\xffy"}\n{"a": "z"}\n', 2),
    # \r and \r\n end a line as \n does; a truncated sequence at the end counts too.
    (b'{"a": "x"}\r{"a": "y"}\r\n\n{"a": "\xe2\x82', 4),
    # Past the decoder's first read buffer.
    (b'{"a": "x"}\n' * 20_000 + b'{"a": "\xc3("}\n', 20_001),
], ids=["lf", "cr-and-crlf", "past-first-buffer"])
def test_read_records_names_the_first_undecodable_line(tmp_path, text, line):
    path = tmp_path / "r.jsonl"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: not valid UTF-8: "):
        list(jsonl.read_records(path))


def test_read_records_rejects_non_objects(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected a JSON object"):
        list(jsonl.read_records(path))


def test_write_records_uses_lf_and_utf8(tmp_path):
    path = tmp_path / "r.jsonl"
    jsonl.write_records(path, [{"t": "café"}])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert "café".encode("utf-8") in raw


def test_write_records_writes_str_items_as_encoded_lines(tmp_path):
    path = tmp_path / "r.jsonl"
    assert jsonl.write_records(path, ['{"a": [1, 2]}', {"b": "é"}]) == 2
    assert path.read_bytes() == '{"a": [1, 2]}\n{"b": "é"}\n'.encode("utf-8")


def test_vector_records_are_json_dumps_on_edge_values():
    # Signed zeros, the smallest subnormal, repr's switch to exponents
    # at 1e-05 and 1e+16, and the non-finite spellings of json.dumps.
    edge = [-0.0, 0.0, 5e-324, 1e-05, 1e+16, float("nan"), float("inf"), -float("inf"),
            -float("nan"), 0.1, -1 / 3]
    vectors = np.array([edge, edge[::-1], [0.0] * len(edge), [-0.0] * len(edge)])
    texts = ["a", 'é "quoted"\n', "b", "c"]
    assert list(jsonl.vector_records(texts, vectors)) == [
        json.dumps({"text": t, "vector": row.tolist()}, ensure_ascii=False)
        for t, row in zip(texts, vectors)
    ]


def _rows(items, fail):
    """``items``, or with ``fail`` a generator that raises after the first."""
    if not fail:
        return items

    def first_then_raise():
        yield items[0]
        raise RuntimeError("source failed")

    return first_then_raise()


def _report(path, value):
    args = argparse.Namespace(stage="eval.detect", out=str(path), output_dir=".")
    with contextlib.redirect_stdout(io.StringIO()):
        cli._report(args, [("auc", 0.5), ("mode", value)])


# Each writer, given fail=True, raises after it has opened its target.
_WRITERS = {
    "write_records": lambda path, fail: jsonl.write_records(
        path, _rows([{"a": 1}, {"a": 2}], fail)
    ),
    "write_histogram_csv": lambda path, fail: analytics.write_histogram_csv(
        path, SimpleNamespace(bin_edges=(0.0, 0.5, 1.0), counts=_rows([1, 1], fail))
    ),
    "jsonl.write_csv": lambda path, fail: jsonl.write_csv(
        path, ["case", "rank"], _rows([[0, 1], [1, 3]], fail)
    ),
    # A lone surrogate cannot be encoded as UTF-8.
    "cli._report": lambda path, fail: _report(path, "\ud800" if fail else "averaged"),
    "AdapterModel.save": lambda path, fail: AdapterModel(
        np.eye(2), step=object() if fail else 3
    ).save(path),
}


def test_write_that_raises_midway_leaves_the_old_file(tmp_path):
    path = tmp_path / "r.jsonl"
    jsonl.write_records(path, [{"a": 1}, {"a": 2}])
    before = path.read_bytes()

    def records():
        yield {"a": 3}
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        jsonl.write_records(path, records())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_every_writer_that_raises_midway_leaves_the_old_file(tmp_path, writer):
    path = tmp_path / "out"
    _WRITERS[writer](path, False)
    before = path.read_bytes()
    assert before

    with pytest.raises((RuntimeError, UnicodeEncodeError, TypeError)):
        _WRITERS[writer](path, True)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".json") == ["out"]


def test_commands_roundtrip(tmp_path):
    path = tmp_path / "c.jsonl"
    commands = [
        CommandLine("whoami", source=Source.INITIAL_SEED),
        CommandLine("net user", source=Source.LLM_SYNTHESIZED, provenance="prov"),
    ]
    jsonl.write_commands(path, commands)
    assert jsonl.read_commands(path) == commands


def test_read_commands_default_source(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"text": "whoami"}\n', encoding="utf-8")
    assert jsonl.read_commands(path)[0].source is Source.REAL_WORLD
    loaded = jsonl.read_commands(path, default_source=Source.INITIAL_SEED)
    assert loaded[0].source is Source.INITIAL_SEED


def test_read_commands_missing_text(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"source": "real_world"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="missing required field 'text'"):
        jsonl.read_commands(path)


def test_read_commands_unknown_source(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"text": "whoami", "source": "martian"}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        jsonl.read_commands(path)


def test_pairs_roundtrip_and_default_ids(tmp_path):
    path = tmp_path / "p.jsonl"
    pairs = [
        CommandLinePair(
            CommandLine("whoami", source=Source.LLM_SYNTHESIZED),
            CommandLine("whoami /all", source=Source.PAIR_GENERATED),
            pair_id=5,
        )
    ]
    jsonl.write_pairs(path, pairs)
    assert jsonl.read_pairs(path) == pairs

    bare = tmp_path / "bare.jsonl"
    bare.write_text(
        '{"anchor": "aa", "positive": "bb"}\n{"anchor": "cc", "positive": "dd"}\n',
        encoding="utf-8",
    )
    assert [p.pair_id for p in jsonl.read_pairs(bare)] == [0, 1]


def test_read_pairs_rejects_duplicate_members(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"anchor": "whoami", "positive": "WHOAMI"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="duplicates"):
        jsonl.read_pairs(path)


@pytest.mark.parametrize(("read", "line", "message"), [
    (jsonl.read_commands, '{"text": "whoami", "source": "martian"}', "'martian' is not a valid Source"),
    (jsonl.read_commands, '{"text": "x"}', "command line must be at least 2 characters: 'x'"),
    (jsonl.read_pairs, '{"anchor": "aa", "positive": "bb", "pair_id": "x"}',
     "field 'pair_id' must be an integer, got 'x'"),
    (jsonl.read_pairs, '{"anchor": "aa", "positive": "bb", "pair_id": true}',
     "field 'pair_id' must be an integer, got True"),
    (jsonl.read_pairs, '{"anchor": "aa", "positive": "bb", "pair_id": -1}', "pair_id must be non-negative"),
])
def test_bad_value_in_a_present_field_names_file_and_line(tmp_path, read, line, message):
    path = tmp_path / "in.jsonl"
    good = '{"text": "net user", "anchor": "cc", "positive": "dd", "pair_id": 0}'
    path.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{path}:3: {message}"


def test_write_is_deterministic(tmp_path):
    pairs = [
        CommandLinePair(CommandLine("aa"), CommandLine("bb"), 0),
        CommandLinePair(CommandLine("cc"), CommandLine("dd"), 1),
    ]
    first = tmp_path / "one.jsonl"
    second = tmp_path / "two.jsonl"
    jsonl.write_pairs(first, pairs)
    jsonl.write_pairs(second, pairs)
    assert first.read_bytes() == second.read_bytes()


def test_write_meta_sidecar(tmp_path):
    out = tmp_path / "pairs.jsonl"
    out.write_text("", encoding="utf-8")
    meta_path = jsonl.write_meta(out, "synth.pairs", seed=7, provider="mock-a")
    assert meta_path.name == "pairs.jsonl.meta.json"
    payload = json.loads(meta_path.read_text(encoding="utf-8"))
    assert payload["stage"] == "synth.pairs"
    assert payload["seed"] == 7
    assert payload["provider"] == "mock-a"
    assert "toolkit_version" in payload
    assert "template_version" in payload


def test_write_meta_omits_absent_seed(tmp_path):
    meta_path = jsonl.write_meta(tmp_path / "x.jsonl", "embed")
    payload = json.loads(meta_path.read_text(encoding="utf-8"))
    assert "seed" not in payload
