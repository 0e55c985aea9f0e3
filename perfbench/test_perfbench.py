"""Tests of the benchmark's own code.  Run: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _generate(directory: Path, seed: int) -> dict[str, bytes]:
    """Every generated input of every workload, as file bytes."""
    directory.mkdir()
    files = {
        "commands": inputs.realistic_commands(random.Random(seed), run.SYNTH_SEEDS),
        "explanations": inputs.explanation_corpus(
            random.Random(seed), run.CURATE_RECORDS, run.CURATE_NOISE_SHARE, run.CURATE_LARGEST_CLUSTER),
        "pairs": inputs.mock_pairs(random.Random(seed), run.TRAIN_PAIRS),
        "techniques": inputs.technique_corpus(random.Random(seed), run.TECHNIQUES, 9, 14),
    }
    for name, records in files.items():
        inputs.write_jsonl(directory / f"{name}.jsonl", records)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_same_seed_gives_same_bytes(tmp_path):
    first = _generate(tmp_path / "a", 7)
    assert first == _generate(tmp_path / "b", 7)
    other = _generate(tmp_path / "c", 8)
    assert all(first[name] != other[name] for name in first)


def test_generated_inputs_have_the_promised_shape():
    rng = random.Random(3)
    commands = inputs.realistic_commands(rng, 200)
    assert len({" ".join(c.lower().split()) for c in commands}) == 200
    lengths = [len(c.split()) for c in commands]
    assert min(lengths) <= 4 and max(lengths) >= 15
    sizes = inputs.cluster_sizes(1125, 120)
    assert sum(sizes) == 1125 and min(sizes) >= 5 and sizes[0] >= 120
    corpus = inputs.explanation_corpus(rng, 400, 0.25, 40)
    assert len({r["explanation"] for r in corpus}) == 400
    techniques = {}
    for record in inputs.technique_corpus(rng, 10, 9, 12):
        techniques.setdefault(record["technique_id"], []).append(record["command"])
    assert len(techniques) == 10 and all(len(c) >= 9 for c in techniques.values())
    for anchor, positive in inputs.mock_pairs(rng, 50):
        assert set(anchor.split()[:2]).isdisjoint(positive.split()[:2])
        assert anchor.split()[2] == positive.split()[2]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, cls.why) for name, cls in run.WORKLOADS.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_self_time_subtracts_children_and_generators_span_consumption():
    tracer = Tracer()

    def child():
        time.sleep(0.01)

    def parent():
        child()
        time.sleep(0.01)

    def numbers():
        yield from range(3)

    child = tracer.span_wrapper(child, "child")
    parent = tracer.span_wrapper(parent, "parent")
    numbers = tracer.span_wrapper(numbers, "numbers")
    with tracer.stage("0:test", "cli.test"):
        parent()
        assert list(numbers()) == [0, 1, 2]
    spans = {s[3]: s for s in tracer.spans}
    own = tracer.self_times()
    assert spans["child"][1] == spans["parent"][0]
    assert spans["parent"][1] == spans["cli.test"][0] == spans["numbers"][1]
    assert {s[2] for s in tracer.spans} == {"0:test"}
    parent_span = spans["parent"]
    assert own[parent_span[0]] < parent_span[5] - parent_span[4] - 0.009
