"""Offline benchmark of the cmdsim pipeline, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload curate --seed 1 --seconds 36 --trace 0

Each repetition sets a workload up from ``--seed`` (inputs, the stub
chat endpoint, a pre-filled embedding cache where the workload needs
one) and then runs the workload's CLI stage sequence in a fresh worker
process, in-process through ``cmdsim.cli.run``.  Repetitions continue
for ``--seconds``; see ``summarize`` for how they are reduced to one
value per metric.  The outputs are then checked
outside the timed region, against a same-seed mock-provider run and the
oracles in ``tests/oracles.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, prints the per-layer metrics and
writes the spans to ``.perfbench_work/traces/``.  The last stdout line
is one JSON object; the exit code is 1 when a check fails and 2 when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import inputs
import layers
from stub import key_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"

WORKER_TIMEOUT_S = 120

# synth-http: closed loop, one process, at most two outstanding requests.
SYNTH_TARGET = 200            # commands grown by `synth run`
SYNTH_SEEDS = 120             # realistic seed commands (also the ROUGE references)
STUB_DELAY_MS = 5.0           # fixed service time of every stub reply
FAILURES_PER_STAGE = 3        # first-request 503s per provider stage, each retried after 0.5 s
PROVIDER_JOBS = 2             # concurrent requests of `synth pairs` and `synth explain`

# curate: N x 256 float64 is 2.3 MiB, above a 2 MiB per-core L2.
CURATE_RECORDS = 1200
CURATE_NOISE_SHARE = 0.25
CURATE_LARGEST_CLUSTER = 100

# train-eval: the embedding cache is warm before the first stage.
TRAIN_PAIRS = 1600            # CLI defaults hold 1000 of them out for validation
RETRIEVAL_CASES = 200
RETRIEVAL_DISTRACTORS = 300
RETRIEVAL_NEGATIVES = 50
TECHNIQUES = 48
CLASSIFY_PER_COMMAND = 400
ORACLE_SAMPLES = 6


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


class Session:
    """What a repetition's set-up leaves running: the stage list and,
    for synth-http, the stub process."""

    def __init__(self, stages: list[dict], stub=None) -> None:
        self.stages = stages
        self.stub = stub
        self.port: int | None = None

    def stub_stats(self) -> dict:
        if self.stub is None:
            return {}
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as reply:
            return json.load(reply)

    def close(self) -> None:
        if self.stub is None:
            return
        try:
            self.stub.stdin.close()
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        finally:
            self.stub.stdout.close()


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _stage(name: str, *argv: str) -> dict:
    return {"name": name, "argv": [*name.split("."), *argv]}


class Workload:
    """Set-up, checks and operation counts of one workload."""

    why = ""

    def prepare(self, run_dir: Path, seed: int) -> None:
        """Untimed work done once per run, before the repetitions."""

    def setup(self, rep_dir: Path, seed: int) -> Session:
        raise NotImplementedError

    def completions(self, rep_dir: Path, result: dict, stub_stats: dict) -> tuple[int, int]:
        """Provider completions (attempted, failed) of one repetition."""
        return 0, 0

    def check(self, rep_dir: Path, seed: int) -> list[str]:
        raise NotImplementedError


class SynthHttp(Workload):
    why = ("the only workload on the provider pool, HTTP path and retry loop; "
           "it mostly waits, and it carries the ROUGE-L kernel")

    def _seeds(self, directory: Path, seed: int) -> Path:
        path = directory / "seeds.jsonl"
        inputs.write_jsonl(path, ({"text": text, "source": "initial_seed"}
                                  for text in inputs.realistic_commands(random.Random(seed), SYNTH_SEEDS)))
        return path

    def _providers(self, path: Path, seed: int, endpoint: str) -> None:
        sections = "".join(f"[{name}]\nendpoint = {endpoint}\nmodel = {name}\n\n"
                           for name in ("alpha", "beta"))
        _write_text(path, f"[pool]\nrng_seed = {seed}\n\n{sections}")

    def _provider_stages(self, directory: Path, seed: int) -> list[dict]:
        seeds, providers, out = directory / "seeds.jsonl", directory / "providers.conf", directory / "out"
        common = ["--providers", str(providers), "--output-dir", str(out)]
        jobs = ["--jobs", str(PROVIDER_JOBS)]
        return [
            _stage("synth.run", "--seeds", str(seeds), "--target", str(SYNTH_TARGET),
                   "--seed", str(seed), *common),
            _stage("synth.pairs", "--in", str(out / "synthesized.jsonl"), *jobs, *common),
            _stage("synth.explain", "--in", str(out / "synthesized.jsonl"), *jobs, *common),
        ]

    def prepare(self, run_dir: Path, seed: int) -> None:
        """Run the provider stages once through ``endpoint = mock:``.

        The outputs are the byte-equality reference.  The recorded
        prompts give each provider stage's (model, prompt) keys; the
        ``FAILURES_PER_STAGE`` keys with the lowest seeded hash get a
        503 on their first request, so the retry count is the same for
        every seed and independent of thread interleaving.
        """
        from cmdsim import cli, gateway

        reference = run_dir / "reference"
        (reference / "out").mkdir(parents=True)
        self._seeds(reference, seed)
        self._providers(reference / "providers.conf", seed, "mock:")
        keys: dict[str, dict[str, None]] = {}
        original = gateway.MockProvider.complete

        def recording(provider, prompt):
            keys[current].setdefault(key_digest(provider.salt, prompt))
            return original(provider, prompt)

        gateway.MockProvider.complete = recording
        try:
            for stage in self._provider_stages(reference, seed):
                current = stage["name"]
                keys[current] = {}
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(stage["argv"])
                if code != 0:
                    raise RuntimeError(f"reference run: {stage['name']} failed")
        finally:
            gateway.MockProvider.complete = original
        self.fail_keys = []
        for stage_keys in keys.values():
            ranked = sorted(stage_keys, key=lambda d: hashlib.sha256(f"{seed}:{d}".encode()).digest())
            self.fail_keys += ranked[:FAILURES_PER_STAGE]
        self.reference = reference / "out"

    def setup(self, rep_dir: Path, seed: int) -> Session:
        seeds = self._seeds(rep_dir, seed)
        fail_keys = rep_dir / "fail_keys.txt"
        _write_text(fail_keys, "".join(f"{key}\n" for key in self.fail_keys))
        stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--src", str(SRC),
             "--delay-ms", str(STUB_DELAY_MS), "--fail-keys", str(fail_keys)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        session = Session([], stub)
        try:
            line = stub.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"stub did not start: {line!r}")
            session.port = int(line.split()[1])
            self._providers(rep_dir / "providers.conf", seed,
                            f"http://127.0.0.1:{session.port}/v1/chat/completions")
        except BaseException:
            session.close()
            raise
        out = rep_dir / "out"
        session.stages = self._provider_stages(rep_dir, seed) + [
            _stage("analyze.rouge", "--generated", str(out / "synthesized.jsonl"), "--seeds", str(seeds),
                   "--scores", "rouge_scores.csv", "--out", "rouge_seeds_hist.csv", "--output-dir", str(out)),
            _stage("analyze.rouge", "--pairs", str(out / "pairs.jsonl"), "--out", "rouge_pairs_hist.csv",
                   "--output-dir", str(out)),
            _stage("analyze.coverage", "--in", str(out / "synthesized.jsonl"), "--out", "coverage.txt",
                   "--output-dir", str(out)),
            _stage("stats", "--pairs", str(out / "pairs.jsonl")),
        ]
        return session

    def completions(self, rep_dir: Path, result: dict, stub_stats: dict) -> tuple[int, int]:
        # Every injected 503 is followed by exactly one retry of the same key.
        attempted = stub_stats["requests"] - stub_stats["injected"]
        failed = result["provider_failures"]
        for name in ("pairs.jsonl.rejects.jsonl", "explanations.jsonl.rejects.jsonl"):
            path = rep_dir / "out" / name
            if path.exists():
                failed += sum(1 for record in _records(path)
                              if record["reason"].startswith("provider failure"))
        return attempted, failed

    def check(self, rep_dir: Path, seed: int) -> list[str]:
        from cmdsim.core import tokenize
        from oracles import rouge_scores

        errors = []
        out = rep_dir / "out"
        for name in ("synthesized.jsonl", "pairs.jsonl", "explanations.jsonl",
                     "pairs.jsonl.rejects.jsonl", "explanations.jsonl.rejects.jsonl"):
            if (out / name).read_bytes() != (self.reference / name).read_bytes():
                errors.append(f"{name} differs from the same-seed mock-provider run")
        generated = [record["text"] for record in _records(out / "synthesized.jsonl")]
        seed_tokens = [tokenize(record["text"]) for record in _records(rep_dir / "seeds.jsonl")]
        rows = (out / "rouge_scores.csv").read_text(encoding="utf-8").splitlines()[1:]
        scores = {int(i): float(s) for i, s in (row.split(",") for row in rows)}
        if len(scores) != len(generated):
            errors.append(f"rouge_scores.csv has {len(scores)} rows for {len(generated)} commands")
        for index in random.Random(seed).sample(range(len(generated)), ORACLE_SAMPLES):
            tokens = tokenize(generated[index])
            expected = max(rouge_scores(tokens, reference)[2] for reference in seed_tokens)
            if not math.isclose(scores.get(index, -1.0), expected, rel_tol=1e-12, abs_tol=1e-12):
                errors.append(f"rouge score of command {index}: {scores.get(index)} != oracle {expected}")
        return errors


class Curate(Workload):
    why = ("explanation corpus with planted near-duplicate clusters: cold-cache embedding writes, "
           "DBSCAN neighbourhoods and negative mining")

    def setup(self, rep_dir: Path, seed: int) -> Session:
        corpus = rep_dir / "explanations.jsonl"
        inputs.write_jsonl(corpus, inputs.explanation_corpus(
            random.Random(seed), CURATE_RECORDS, CURATE_NOISE_SHARE, CURATE_LARGEST_CLUSTER))
        common = ["--in", str(corpus), "--cache", "cache.jsonl", "--output-dir", str(rep_dir / "out")]
        return Session([
            _stage("embed", "--text-field", "explanation", *common),
            _stage("cluster.dedup", *common),
            _stage("cluster.coverage", "--out", "coverage.txt", *common),
            _stage("cluster.negatives", *common),
        ])

    def check(self, rep_dir: Path, seed: int) -> list[str]:
        import numpy as np
        from oracles import naive_mine_negatives

        out = rep_dir / "out"
        matrix = np.asarray([record["vector"] for record in _records(out / "embeddings.jsonl")])
        negatives = [record["negative_ids"] for record in _records(out / "negatives.jsonl")]
        errors = []
        if len(negatives) != CURATE_RECORDS:
            errors.append(f"negatives.jsonl has {len(negatives)} rows, expected {CURATE_RECORDS}")
        # Planted near-duplicates give candidates whose similarities to a
        # query are equal in exact arithmetic.  The oracle's per-pair dot
        # and the program's matrix-vector product round such values up to
        # an ulp apart in either direction, so the two lists can order
        # them differently.  Positions are therefore compared by
        # similarity within the float64 error bound of a d-term dot
        # product of unit vectors, 2 * d * 2**-53; the number of positions
        # holding a different id is reported.
        tolerance = 2 * matrix.shape[1] * 2.0 ** -53
        reordered = 0
        for query in random.Random(seed).sample(range(len(negatives)), ORACLE_SAMPLES):
            ours = negatives[query]
            expected = naive_mine_negatives(query, matrix, len(ours))
            if ours == expected:
                continue
            similarity = matrix @ matrix[query]
            if (query in ours or len(set(ours)) != len(ours) or len(ours) != len(expected)
                    or any(abs(similarity[a] - similarity[b]) > tolerance
                           for a, b in zip(ours, expected))):
                errors.append(f"negatives of query {query} differ from the full-sort oracle")
            reordered += sum(1 for a, b in zip(ours, expected) if a != b)
        if reordered:
            print(f"note: {reordered} negatives of {ORACLE_SAMPLES} sampled queries sit at another "
                  f"position than in the oracle, among similarities equal within {tolerance:.1e}",
                  file=sys.stderr)
        return errors


class TrainEval(Workload):
    why = ("adapter training and the three evaluations on a warm, read-only embedding cache: "
           "small dense GEMMs and Python ranking loops")

    def setup(self, rep_dir: Path, seed: int) -> Session:
        from cmdsim.embedding import EmbeddingCache, HashingEmbeddingBackend, embed_batch
        from cmdsim.evaluation import synth_classification_dataset

        rng = random.Random(seed)
        pairs = inputs.mock_pairs(rng, TRAIN_PAIRS + RETRIEVAL_CASES + RETRIEVAL_DISTRACTORS)
        train, held_out = pairs[:TRAIN_PAIRS], pairs[TRAIN_PAIRS:]
        inputs.write_jsonl(rep_dir / "pairs.jsonl", (
            {"anchor": a, "positive": p, "pair_id": i} for i, (a, p) in enumerate(train)))
        corpus = [positive for _, positive in held_out]
        inputs.write_jsonl(rep_dir / "corpus.jsonl", ({"text": text} for text in corpus))
        cases = []
        for i, (anchor, positive) in enumerate(held_out[:RETRIEVAL_CASES]):
            others = [j for j in range(len(corpus)) if j != i]
            cases.append({"query": anchor, "positive": positive,
                          "negative_ids": sorted(rng.sample(others, RETRIEVAL_NEGATIVES))})
        inputs.write_jsonl(rep_dir / "testset.jsonl", cases)
        techniques = inputs.technique_corpus(rng, TECHNIQUES, 9, 14)
        inputs.write_jsonl(rep_dir / "techniques.jsonl", techniques)
        dataset = synth_classification_dataset(random.Random(seed), per_command=CLASSIFY_PER_COMMAND)
        texts = ([t for pair in pairs for t in pair] + [r["command"] for r in techniques]
                 + [text for _, text in dataset.train + dataset.test])
        embed_batch(HashingEmbeddingBackend(), texts, EmbeddingCache(rep_dir / "out" / "cache.jsonl"))

        out = str(rep_dir / "out")
        common = ["--cache", "cache.jsonl", "--output-dir", out]
        retrieval = ["--testset", str(rep_dir / "testset.jsonl"), "--corpus", str(rep_dir / "corpus.jsonl")]
        return Session([
            _stage("train", "--pairs", str(rep_dir / "pairs.jsonl"), *common),
            _stage("eval.retrieval", *retrieval, "--out", "report_identity.txt",
                   "--ranks", "ranks_identity.csv", *common),
            _stage("eval.retrieval", *retrieval, "--adapter", str(rep_dir / "out" / "adapter.json"),
                   "--out", "report_adapter.txt", "--ranks", "ranks_adapter.csv", *common),
            _stage("eval.detect", "--corpus", str(rep_dir / "techniques.jsonl"), "--out", "detect.txt", *common),
            _stage("eval.classify", "--per-command", str(CLASSIFY_PER_COMMAND), "--seed", str(seed),
                   "--out", "classify.txt", *common),
        ])

    def check(self, rep_dir: Path, seed: int) -> list[str]:
        from oracles import mrr_from_ranks, top_from_ranks

        out = rep_dir / "out"
        errors = []
        mrr3 = {}
        for tag in ("identity", "adapter"):
            report = dict(line.split("=", 1) for line in
                          (out / f"report_{tag}.txt").read_text(encoding="utf-8").splitlines())
            rows = (out / f"ranks_{tag}.csv").read_text(encoding="utf-8").splitlines()[1:]
            ranks = [int(row.split(",")[1]) for row in rows]
            if len(ranks) != RETRIEVAL_CASES or int(report["cases"]) != RETRIEVAL_CASES:
                errors.append(f"{tag}: {len(ranks)} ranks for {RETRIEVAL_CASES} cases")
                continue
            for k in (3, 10):
                for metric, oracle in (("mrr", mrr_from_ranks), ("top", top_from_ranks)):
                    expected = oracle(ranks, k)
                    if not math.isclose(float(report[f"{metric}@{k}"]), expected, rel_tol=1e-12):
                        errors.append(f"{tag}: {metric}@{k} {report[f'{metric}@{k}']} != oracle {expected}")
            mrr3[tag] = float(report["mrr@3"])
        if len(mrr3) == 2 and not mrr3["adapter"] > mrr3["identity"]:
            errors.append(f"adapter MRR@3 {mrr3['adapter']} does not beat identity {mrr3['identity']}")
        return errors


WORKLOADS = {"synth-http": SynthHttp, "curate": Curate, "train-eval": TrainEval}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def _artifact_hashes(out: Path) -> dict[str, str]:
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def run_repetition(workload, rep_dir: Path, seed: int, traced: bool, spans: Path) -> dict:
    """Set up and run one repetition in ``rep_dir``.  Every repetition
    uses the same directory, because some artifacts record paths."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    (rep_dir / "out").mkdir(parents=True)
    start = time.perf_counter()
    session = workload.setup(rep_dir, seed)
    try:
        generate_s = time.perf_counter() - start
        spec = {"src": str(SRC), "stages": session.stages, "trace": traced,
                "spans": str(spans), "result": str(rep_dir / "result.json")}
        spec_path = rep_dir / "spec.json"
        _write_text(spec_path, json.dumps(spec))
        with open(rep_dir / "worker.log", "w", encoding="utf-8") as log:
            subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                           stdout=subprocess.DEVNULL, stderr=log, timeout=WORKER_TIMEOUT_S, check=True)
        result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
        stub_stats = session.stub_stats()
    finally:
        session.close()
    result["setup_s"] = generate_s + result["import_s"]
    result["traced"] = traced
    result["stub"] = stub_stats
    result["hashes"] = _artifact_hashes(rep_dir / "out")
    completions, failed_completions = workload.completions(rep_dir, result, stub_stats)
    result["attempted"] = len(result["stages"]) + completions
    result["failed"] = sum(1 for s in result["stages"] if s["code"] != 0) + failed_completions
    return result


def summarize(name: str, values: list[float]) -> float:
    """One run's value of an end-to-end metric from its repetitions.

    Other tenants of a shared host only ever slow a repetition down, in
    bursts that can cover several whole repetitions.  The lower quartile
    of the repetitions follows the program's own cost more steadily than
    their median: over ten seeds of ``curate`` on a shared 2-core host,
    the spread (IQR / median) of ``wall_s`` was 0.21 for the median and
    0.11 for the lower quartile.  ``setup_s`` keeps the median.
    """
    if name == "setup_s":
        return statistics.median(values)
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def layer_metrics(results: list[dict]) -> dict[str, float]:
    traced = [r for r in results if r["traced"]]
    untraced = [r for r in results if not r["traced"]]
    for result in traced:
        stub = result["stub"]
        result["layers"].update({
            "gateway.requests": stub.get("requests", 0),
            "gateway.retries": stub.get("injected", 0),
            "stub.service_s": stub.get("service_s", 0.0),
            "stub.cpu_s": stub.get("cpu_s", 0.0),
        })
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    values["proc.cpu_util"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in untraced)
    values["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1.0
    values["failed_frac"] = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cmdsim offline pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the finally blocks stop the worker
    # and the stub before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cmdsim" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: package sources or test oracles not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]

    workload = WORKLOADS[args.workload]()
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spans = WORK / "traces" / f"{args.workload}-seed{args.seed}.spans.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(run_dir, args.seed)
        results: list[dict] = []
        begin = time.perf_counter()
        minimum = 2 if args.trace else 3
        while True:
            traced = bool(args.trace) and len(results) % 2 == 1
            result = run_repetition(workload, run_dir / "rep", args.seed, traced, spans)
            results.append(result)
            print(f"repetition {len(results)}{' (traced)' if traced else ''}: "
                  + ", ".join(f"{name} {result[name]:.4f}" for name, _ in END_TO_END), file=sys.stderr)
            if len(results) == 1:
                (run_dir / "rep").rename(run_dir / "first")
            elapsed = time.perf_counter() - begin
            if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > args.seconds:
                break
        errors = [f"repetition {i}: artifact hashes differ from repetition 0"
                  for i, r in enumerate(results) if r["hashes"] != results[0]["hashes"]]
        try:
            errors += workload.check(run_dir / "first", args.seed)
        except (OSError, ValueError, LookupError) as exc:
            errors.append(f"outputs missing or malformed: {exc!r}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layer_metrics(results).items()}
        metrics = {name: metrics[name] for name in units}
        print(f"spans: {spans.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": summarize(name, [r[name] for r in results]), "unit": unit}
                   for name, unit in END_TO_END}
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} repetitions")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
