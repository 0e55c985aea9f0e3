"""Per-layer instrumentation for the traced run and the metrics it yields.

``install`` wraps the public functions of each package module (the
layers) with spans or counters; ``metrics`` turns one traced stage
sequence into the per-layer metrics named in ``PER_LAYER``.  Layers a
workload never calls report 0.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

CLI_STAGES = (
    "synth.run", "synth.pairs", "synth.explain", "analyze.rouge", "analyze.coverage",
    "stats", "embed", "cluster.dedup", "cluster.coverage", "cluster.negatives",
    "train", "eval.retrieval", "eval.detect", "eval.classify",
)
# Stages that call a chat provider; their --jobs value is the number of
# threads that can wait on it at once.
PROVIDER_STAGES = ("synth.run", "synth.pairs", "synth.explain")

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"cli.stage_s.{stage}", "s", "lower") for stage in CLI_STAGES),
    ("embedding.embed_batch_s", "s", "lower"),
    ("embedding.texts", "count", "lower"),
    ("embedding.backend_s", "s", "lower"),
    ("embedding.cache_load_s", "s", "lower"),
    ("embedding.cache_put_s", "s", "lower"),
    ("embedding.cache_puts", "count", "lower"),
    ("embedding.cache_hit_ratio", "ratio", "higher"),
    ("clustering.dbscan_s", "s", "lower"),
    ("clustering.dbscan_calls", "count", "lower"),
    ("clustering.clusters", "count", "higher"),
    ("clustering.noise_frac", "ratio", "lower"),
    ("clustering.mine_negatives_s", "s", "lower"),
    ("clustering.mine_negatives_calls", "count", "lower"),
    ("clustering.mine_negatives_ms.p50", "ms", "lower"),
    ("clustering.mine_negatives_ms.p99", "ms", "lower"),
    ("clustering.dedup_kept_frac", "ratio", "lower"),
    ("jsonl.read_s", "s", "lower"),
    ("jsonl.write_s", "s", "lower"),
    ("jsonl.bytes_written", "bytes", "lower"),
    ("contrastive.train_s", "s", "lower"),
    ("contrastive.train_self_s", "s", "lower"),
    ("contrastive.steps", "count", "lower"),
    ("contrastive.step_ms.p50", "ms", "lower"),
    ("evaluation.retrieval_s", "s", "lower"),
    ("evaluation.retrieval_cases", "count", "lower"),
    ("evaluation.detect_s", "s", "lower"),
    ("evaluation.gene_pools_s", "s", "lower"),
    ("evaluation.auc_s", "s", "lower"),
    ("evaluation.classify_dataset_s", "s", "lower"),
    ("evaluation.logreg_s", "s", "lower"),
    ("gateway.completions", "count", "lower"),
    ("gateway.complete_ms.p50", "ms", "lower"),
    ("gateway.complete_ms.p99", "ms", "lower"),
    ("gateway.requests", "count", "lower"),
    ("gateway.retries", "count", "lower"),
    ("gateway.failed", "count", "lower"),
    ("gateway.wait_frac", "ratio", "lower"),
    ("stub.service_s", "s", "lower"),
    ("stub.cpu_s", "s", "lower"),
    ("synthesis.steps", "count", "lower"),
    ("synthesis.accept_ratio", "ratio", "higher"),
    ("synthesis.rejects", "count", "lower"),
    ("synthesis.checkpoint_s", "s", "lower"),
    ("core.seedpool_dup_frac", "ratio", "lower"),
    ("core.parse_s", "s", "lower"),
    ("analytics.rouge_seeds_s", "s", "lower"),
    ("analytics.rouge_calls", "count", "lower"),
    ("analytics.rouge_pairs_s", "s", "lower"),
    ("analytics.coverage_s", "s", "lower"),
    ("proc.cpu_util", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
)


def install(tracer) -> None:
    """Wrap every listed function at each of its bindings."""
    from cmdsim import analytics, clustering, contrastive, core, embedding, evaluation
    from cmdsim import gateway, jsonl, synthesis

    add = tracer.add

    def span(name, hook=None):
        return lambda fn: tracer.span_wrapper(fn, name, hook)

    def count(hook):
        return lambda fn: tracer.count_wrapper(fn, hook)

    tracer.patch_function(embedding, "embed_batch", span(
        "embedding.embed_batch", lambda a, k, r: add("embedding.texts", len(r))))
    tracer.patch_method(embedding.HashingEmbeddingBackend, "embed", span("embedding.backend"))
    tracer.patch_method(embedding.EmbeddingCache, "__init__", span("embedding.cache_load"))
    tracer.patch_method(embedding.EmbeddingCache, "put", span("embedding.cache_put"))
    tracer.patch_method(embedding.EmbeddingCache, "get", count(
        lambda a, k, r: add("embedding.cache_hits" if r is not None else "embedding.cache_misses")))

    def on_dbscan(a, k, labeling):
        add("clustering.clusters", labeling.num_clusters)
        add("clustering.points", len(labeling.labels))
        add("clustering.noise", sum(1 for label in labeling.labels if label == clustering.NOISE))

    def on_dedup(a, k, kept):
        add("clustering.dedup_items", len(a[0]))
        add("clustering.dedup_kept", len(kept))

    tracer.patch_function(clustering, "dbscan", span("clustering.dbscan", on_dbscan))
    tracer.patch_function(clustering, "mine_negatives", span("clustering.mine_negatives"))
    tracer.patch_function(clustering, "dedup_by_clusters", span("clustering.dedup", on_dedup))

    def on_write(a, k, _):
        add("jsonl.bytes_written", os.path.getsize(a[0] if a else k["path"]))

    tracer.patch_function(jsonl, "read_records", span("jsonl.read"))
    tracer.patch_function(jsonl, "write_records", span("jsonl.write", on_write))

    tracer.patch_function(contrastive, "train", span("contrastive.train"))
    tracer.patch_function(contrastive, "info_nce_gradients", span("contrastive.step"))

    tracer.patch_function(evaluation, "evaluate_retrieval", span(
        "evaluation.retrieval", lambda a, k, r: add("evaluation.retrieval_cases", len(a[0]))))
    tracer.patch_function(evaluation, "detection_auc", span("evaluation.detect"))
    tracer.patch_function(evaluation, "build_gene_pools", span("evaluation.gene_pools"))
    tracer.patch_function(evaluation, "mann_whitney_auc", span("evaluation.auc"))
    tracer.patch_function(evaluation, "synth_classification_dataset",
                          span("evaluation.classify_dataset"))
    tracer.patch_function(evaluation, "train_logreg", span("evaluation.logreg"))

    tracer.patch_function(gateway, "complete", span("gateway.complete"))

    tracer.patch_function(synthesis, "synthesize_step", span(
        "synthesis.step", lambda a, k, r: add("synthesis.accepted", len(r))))
    tracer.patch_function(synthesis, "_checkpoint", span("synthesis.checkpoint"))
    for name in ("generate_pairs", "generate_explanations"):
        tracer.patch_function(synthesis, name, span(
            f"synthesis.{name}", lambda a, k, r: add("synthesis.rejects", len(r[1]))))

    def on_seedpool_add(a, k, added):
        add("core.seedpool_adds")
        add("core.seedpool_dups", 0 if added else 1)

    tracer.patch_method(core.SeedPool, "add", count(on_seedpool_add))
    tracer.patch_function(core, "parse_llm_response", span("core.parse"))

    tracer.patch_function(analytics, "max_overlap_vs_seeds", span("analytics.rouge_seeds"))
    tracer.patch_function(analytics, "pair_overlap_distribution", span("analytics.rouge_pairs"))
    tracer.patch_function(analytics, "rouge_l", count(lambda a, k, r: add("analytics.rouge_calls")))
    tracer.patch_function(analytics, "command_coverage", span("analytics.coverage"))
    tracer.patch_function(analytics, "extension_coverage", span("analytics.coverage"))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(tracer, stages: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced stage sequence.

    ``stages`` holds one ``{"name", "argv"}`` entry per CLI invocation,
    in the order run.  Metrics that need the stub or the untraced runs
    (``gateway.requests``, ``stub.*``, ``proc.*``, ``trace.*``,
    ``failed_frac``) are filled in by the caller.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for _, _, _, name, start, end, _ in tracer.spans:
        durations[name].append(end - start)
    own = tracer.self_times()
    total = {name: sum(values) for name, values in durations.items()}
    c = tracer.counts

    def seconds(name):
        return total.get(name, 0.0)

    out: dict[str, float] = {}
    for stage in CLI_STAGES:
        out[f"cli.stage_s.{stage}"] = seconds(f"cli.{stage}")
    out.update({
        "embedding.embed_batch_s": seconds("embedding.embed_batch"),
        "embedding.texts": c["embedding.texts"],
        "embedding.backend_s": seconds("embedding.backend"),
        "embedding.cache_load_s": seconds("embedding.cache_load"),
        "embedding.cache_put_s": seconds("embedding.cache_put"),
        "embedding.cache_puts": len(durations["embedding.cache_put"]),
        "embedding.cache_hit_ratio": _ratio(
            c["embedding.cache_hits"], c["embedding.cache_hits"] + c["embedding.cache_misses"]),
        "clustering.dbscan_s": seconds("clustering.dbscan"),
        "clustering.dbscan_calls": len(durations["clustering.dbscan"]),
        "clustering.clusters": c["clustering.clusters"],
        "clustering.noise_frac": _ratio(c["clustering.noise"], c["clustering.points"]),
        "clustering.mine_negatives_s": seconds("clustering.mine_negatives"),
        "clustering.mine_negatives_calls": len(durations["clustering.mine_negatives"]),
        "clustering.mine_negatives_ms.p50": 1000 * _percentile(durations["clustering.mine_negatives"], 0.5),
        "clustering.mine_negatives_ms.p99": 1000 * _percentile(durations["clustering.mine_negatives"], 0.99),
        "clustering.dedup_kept_frac": _ratio(c["clustering.dedup_kept"], c["clustering.dedup_items"]),
        "jsonl.read_s": seconds("jsonl.read"),
        "jsonl.write_s": seconds("jsonl.write"),
        "jsonl.bytes_written": c["jsonl.bytes_written"],
        "contrastive.train_s": seconds("contrastive.train"),
        "contrastive.train_self_s": sum(
            (own[s[0]] for s in tracer.spans if s[3] == "contrastive.train"), 0.0),
        "contrastive.steps": len(durations["contrastive.step"]),
        "contrastive.step_ms.p50": 1000 * _percentile(durations["contrastive.step"], 0.5),
        "evaluation.retrieval_s": seconds("evaluation.retrieval"),
        "evaluation.retrieval_cases": c["evaluation.retrieval_cases"],
        "evaluation.detect_s": seconds("evaluation.detect"),
        "evaluation.gene_pools_s": seconds("evaluation.gene_pools"),
        "evaluation.auc_s": seconds("evaluation.auc"),
        "evaluation.classify_dataset_s": seconds("evaluation.classify_dataset"),
        "evaluation.logreg_s": seconds("evaluation.logreg"),
        "gateway.completions": len(durations["gateway.complete"]),
        "gateway.complete_ms.p50": 1000 * _percentile(durations["gateway.complete"], 0.5),
        "gateway.complete_ms.p99": 1000 * _percentile(durations["gateway.complete"], 0.99),
        "gateway.failed": c["gateway.complete.raised"],
        "synthesis.steps": len(durations["synthesis.step"]),
        "synthesis.accept_ratio": _ratio(c["synthesis.accepted"], 4 * len(durations["synthesis.step"])),
        "synthesis.rejects": c["synthesis.rejects"],
        "synthesis.checkpoint_s": seconds("synthesis.checkpoint"),
        "core.seedpool_dup_frac": _ratio(c["core.seedpool_dups"], c["core.seedpool_adds"]),
        "core.parse_s": seconds("core.parse"),
        "analytics.rouge_seeds_s": seconds("analytics.rouge_seeds"),
        "analytics.rouge_calls": c["analytics.rouge_calls"],
        "analytics.rouge_pairs_s": seconds("analytics.rouge_pairs"),
        "analytics.coverage_s": seconds("analytics.coverage"),
    })
    # Thread-seconds the provider stages could spend waiting on a reply.
    capacity = 0.0
    for stage in stages:
        if stage["name"] in PROVIDER_STAGES:
            argv = stage["argv"]
            jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
            capacity += stage["seconds"] * jobs
    out["gateway.wait_frac"] = _ratio(seconds("gateway.complete"), capacity)
    return out
