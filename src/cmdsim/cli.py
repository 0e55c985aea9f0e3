"""cmdsim command-line interface.

One binary, one subcommand per pipeline stage, stage outputs as files:

    synth run        grow the seed pool until the target count is reached
    synth pairs      generate one similar command per input command
    synth explain    generate a natural-language explanation per command
    embed            embed texts with a backend, write vectors as JSONL
    cluster dedup    density-cluster explanations, keep 2 per cluster
    cluster negatives  mine least-similar negatives per entry
    cluster coverage per-source explanation-cluster coverage
    train            fit the linear embedding adapter contrastively
    eval retrieval   MRR@K / Top@K over a testset file
    eval detect      gene-pool detection AUC over a technique corpus
    eval classify    seven-command classification benchmark
    stats            dataset statistics of a pair file
    analyze rouge    overlap histograms (pairs, or generated vs seeds)
    analyze coverage command-group and extension coverage

Every randomized stage takes --seed and records it in a ``.meta.json``
sidecar next to its primary output.  A plain-text INI config file
(--config) may supply defaults per stage; precedence is CLI flag, then
[stage] section, then [common] section, then built-in default.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import random
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, analytics, clustering, contrastive, evaluation, jsonl, synthesis
from .core import Source, dataset_stats
from .embedding import (
    EmbeddingCache,
    HashingEmbeddingBackend,
    RemoteEmbeddingBackend,
    embed_batch,
)
from .gateway import (
    TEMPLATE_VERSION,
    GatewayError,
    build_client,
    load_provider_pool,
)

logger = logging.getLogger(__name__)


class Settings:
    """Flag/config/default resolution for one subcommand invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.stage = args.stage
        self.config = configparser.ConfigParser()
        config_path = getattr(args, "config", None)
        if config_path:
            try:
                read = self.config.read(config_path, encoding="utf-8")
            except configparser.Error as exc:
                raise ValueError(f"config file {config_path}: {exc}") from exc
            if not read:
                raise ValueError(f"config file not found: {config_path}")

    def get(self, key: str, default=None, cast=None):
        value = getattr(self.args, key, None)
        if value is None:
            for section in (self.stage, "common"):
                if self.config.has_option(section, key):
                    try:
                        value = self.config.get(section, key)
                    except configparser.Error as exc:
                        raise ValueError(f"config file {self.args.config}: [{section}] {key}: {exc}") from exc
                    break
        if value is None:
            return default
        if cast is not None and isinstance(value, str):
            return cast(value)
        return value

    def output_dir(self) -> Path:
        directory = Path(self.get("output_dir", "."))
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def out_path(self, value: str | Path) -> Path:
        path = Path(value)
        return path if path.is_absolute() else self.output_dir() / path

    def path_or(self, key: str, default: Path) -> Path:
        """The path given for ``key``, else ``default`` (derived by the caller)."""
        value = self.get(key)
        return self.out_path(value) if value else default

    def backend(self):
        kind = self.get("backend", "local")
        dim = self.get("dim", 256, int)
        if kind == "local":
            return HashingEmbeddingBackend(dim)
        if kind == "remote":
            endpoint = self.get("embed_endpoint")
            model = self.get("embed_model")
            if not endpoint or not model:
                raise ValueError(
                    "remote backend needs --embed-endpoint and --embed-model"
                )
            return RemoteEmbeddingBackend(
                endpoint, model, dim, self.get("embed_key_env", "")
            )
        raise ValueError(f"unknown backend {kind!r}")

    def cache(self) -> EmbeddingCache | None:
        path = self.get("cache")
        return EmbeddingCache(self.out_path(path)) if path else None

    def report(self, fields, default_out: str | None = None, **meta) -> None:
        """Print ``key=value`` lines for ``fields`` (pairs, in order).

        With an output path (``--out``, config, or ``default_out``) the
        same text also goes to that file, with a ``.meta.json`` sidecar
        holding ``meta``.
        """
        text = "".join(f"{key}={value}\n" for key, value in fields)
        print(text, end="")
        out_value = self.get("out", default_out)
        if out_value:
            out = self.out_path(out_value)
            with jsonl._replacing(out) as handle:
                handle.write(text)
            jsonl.write_meta(out, self.stage, **meta)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _k_list(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad K list {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError(f"K values must be >= 1: {text!r}")
    return ks


def _add_stage(subparsers, stage: str, help: str, handler, backend: bool = False) -> argparse.ArgumentParser:
    """Register one pipeline stage with the flags every stage takes.

    ``stage`` (``group.name`` or ``name``) also names the config section
    and the ``.meta.json`` stage; ``backend`` adds the embedding-backend
    flags.
    """
    parser = subparsers.add_parser(stage.rpartition(".")[2], help=help)
    if backend:
        parser.add_argument("--backend", choices=("local", "remote"), help="embedding backend (default local)")
        parser.add_argument("--dim", type=int, help="embedding dimension (default 256)")
        parser.add_argument("--embed-endpoint", dest="embed_endpoint", help="remote embeddings URL")
        parser.add_argument("--embed-model", dest="embed_model", help="remote embeddings model id")
        parser.add_argument("--embed-key-env", dest="embed_key_env", help="env var holding the embeddings API key")
        parser.add_argument("--cache", help="embedding cache index; rows go to the same path + .f64")
    parser.add_argument("--config", help="INI config file with per-stage sections")
    parser.add_argument("--output-dir", dest="output_dir", help="directory for all outputs (default .)")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    parser.set_defaults(handler=handler, stage=stage)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmdsim",
        description="Command-line similarity toolkit: synthesis, training, evaluation.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"cmdsim {__version__} (templates v{TEMPLATE_VERSION})",
    )
    subparsers = parser.add_subparsers(dest="command")

    synth = subparsers.add_parser("synth", help="generation stages")
    synth_sub = synth.add_subparsers(dest="subcommand")

    run_p = _add_stage(synth_sub, "synth.run", "grow the pool of synthesized commands", cmd_synth_run)
    run_p.add_argument("--seeds", required=True, help="initial seeds JSONL ({text, source})")
    run_p.add_argument("--providers", help="provider pool INI file")
    run_p.add_argument("--target", type=_positive_int, help="number of new commands (default 28520)")
    run_p.add_argument("--seed", type=int, help="rng seed (default 0)")
    run_p.add_argument("--max-failures", dest="max_failures", type=int, help="consecutive empty steps before aborting (default 20)")
    run_p.add_argument("--out", help="output JSONL (default synthesized.jsonl)")

    pairs_p = _add_stage(synth_sub, "synth.pairs", "generate similar-command positives", cmd_synth_generate)
    pairs_p.add_argument("--in", dest="input", required=True, help="commands JSONL")
    pairs_p.add_argument("--providers", help="provider pool INI file")
    pairs_p.add_argument("--provider", help="provider name (default: first in pool)")
    pairs_p.add_argument("--out", help="pairs JSONL (default pairs.jsonl)")
    pairs_p.add_argument("--rejects", help="rejects JSONL (default <out>.rejects.jsonl)")
    pairs_p.add_argument("--jobs", type=int, help="concurrent provider calls (default 1)")

    explain_p = _add_stage(synth_sub, "synth.explain", "generate explanations", cmd_synth_generate)
    explain_p.add_argument("--in", dest="input", required=True, help="commands JSONL")
    explain_p.add_argument("--providers", help="provider pool INI file")
    explain_p.add_argument("--provider", help="provider name (default: first in pool)")
    explain_p.add_argument("--out", help="explanations JSONL (default explanations.jsonl)")
    explain_p.add_argument("--rejects", help="rejects JSONL (default <out>.rejects.jsonl)")
    explain_p.add_argument("--jobs", type=int, help="concurrent provider calls (default 1)")

    embed_p = _add_stage(subparsers, "embed", "embed texts to vectors", cmd_embed, backend=True)
    embed_p.add_argument("--in", dest="input", required=True, help="JSONL with a text field")
    embed_p.add_argument("--text-field", dest="text_field", help="record field to embed (default text)")
    embed_p.add_argument("--out", help="vectors JSONL (default embeddings.jsonl)")

    cluster = subparsers.add_parser("cluster", help="clustering stages")
    cluster_sub = cluster.add_subparsers(dest="subcommand")

    dedup_p = _add_stage(cluster_sub, "cluster.dedup", "deduplicate by explanation clusters", cmd_cluster_dedup, backend=True)
    dedup_p.add_argument("--in", dest="input", required=True, help="explanations JSONL ({text, explanation})")
    dedup_p.add_argument("--eps", type=float, help="cosine-distance radius (default 0.08)")
    dedup_p.add_argument("--min-pts", dest="min_pts", type=int, help="core-point threshold (default 5)")
    dedup_p.add_argument("--keep", type=int, help="entries kept per cluster (default 2)")
    dedup_p.add_argument("--out", help="surviving records JSONL (default testset.jsonl)")

    negatives_p = _add_stage(cluster_sub, "cluster.negatives", "mine least-similar negatives", cmd_cluster_negatives, backend=True)
    negatives_p.add_argument("--in", dest="input", required=True, help="explanations JSONL")
    negatives_p.add_argument("--n", type=int, help="negatives per query (default 1000)")
    negatives_p.add_argument("--out", help="output JSONL of {query_id, negative_ids} (default negatives.jsonl)")

    coverage_p = _add_stage(cluster_sub, "cluster.coverage", "per-source cluster coverage", cmd_cluster_coverage, backend=True)
    coverage_p.add_argument("--in", dest="input", required=True, help="explanations JSONL with a source field")
    coverage_p.add_argument("--eps", type=float, help="cosine-distance radius (default 0.08)")
    coverage_p.add_argument("--min-pts", dest="min_pts", type=int, help="core-point threshold (default 5)")
    coverage_p.add_argument("--tag-field", dest="tag_field", help="record field naming the source (default source)")
    coverage_p.add_argument("--out", help="optional report file")

    train_p = _add_stage(subparsers, "train", "train the embedding adapter", cmd_train, backend=True)
    train_p.add_argument("--pairs", required=True, help="pairs JSONL ({anchor, positive})")
    train_p.add_argument("--out", help="adapter checkpoint JSON (default adapter.json)")
    train_p.add_argument("--history", help="history CSV (default <out>.history.csv)")
    train_p.add_argument("--batch", type=int, help="pairs per batch (default 64)")
    train_p.add_argument("--lr", type=float, help="learning rate (default 2e-5)")
    train_p.add_argument("--epochs", type=int, help="epochs (default 2)")
    train_p.add_argument("--tau", type=float, help="softmax temperature (default 0.05)")
    train_p.add_argument("--val-pairs", dest="val_pairs", type=int, help="validation pairs (default 1000)")
    train_p.add_argument("--eval-every", dest="eval_every", type=int, help="steps between evals (default 50)")
    train_p.add_argument("--seed", type=int, help="rng seed (default 0)")

    evaluate = subparsers.add_parser("eval", help="evaluation suites")
    eval_sub = evaluate.add_subparsers(dest="subcommand")

    retrieval_p = _add_stage(eval_sub, "eval.retrieval", "MRR@K / Top@K retrieval", cmd_eval_retrieval, backend=True)
    retrieval_p.add_argument("--testset", required=True, help="JSONL of {query, positive, negative_ids}")
    retrieval_p.add_argument("--corpus", required=True, help="commands JSONL the negative ids index into")
    retrieval_p.add_argument("--k", type=_k_list, help="comma-separated K values (default 3,10)")
    retrieval_p.add_argument("--adapter", help="adapter checkpoint JSON (default: identity)")
    retrieval_p.add_argument("--out", help="report file (default retrieval_report.txt)")
    retrieval_p.add_argument("--ranks", help="per-case ranks CSV (default retrieval_ranks.csv)")

    detect_p = _add_stage(eval_sub, "eval.detect", "gene-pool detection AUC", cmd_eval_detect, backend=True)
    detect_p.add_argument("--corpus", required=True, help="technique corpus JSONL ({technique_id, command})")
    detect_p.add_argument("--rate", type=float, help="pool sample rate percent (default 20)")
    detect_p.add_argument("--mode", choices=("concatenated", "averaged"), help="AUC aggregation (default concatenated)")
    detect_p.add_argument("--out", help="optional report file")

    classify_p = _add_stage(eval_sub, "eval.classify", "seven-command classification probe", cmd_eval_classify, backend=True)
    classify_p.add_argument("--seed", type=int, help="rng seed (default 0)")
    classify_p.add_argument("--per-command", dest="per_command", type=int, help="lines per command (default 7000)")
    classify_p.add_argument("--decoy-probability", dest="decoy_probability", type=float, help="per-slot decoy probability (default 0.5)")
    classify_p.add_argument("--out", help="optional report file")

    stats_p = _add_stage(subparsers, "stats", "pair-dataset statistics", cmd_stats)
    stats_p.add_argument("--pairs", required=True, help="pairs JSONL")

    analyze = subparsers.add_parser("analyze", help="diversity analytics")
    analyze_sub = analyze.add_subparsers(dest="subcommand")

    rouge_p = _add_stage(analyze_sub, "analyze.rouge", "overlap histograms", cmd_analyze_rouge)
    rouge_p.add_argument("--pairs", help="pairs JSONL: anchor-vs-positive overlap")
    rouge_p.add_argument("--generated", help="generated commands JSONL: max overlap vs seeds")
    rouge_p.add_argument("--seeds", help="seeds JSONL (required with --generated)")
    rouge_p.add_argument("--rouge-mode", dest="rouge_mode", choices=analytics.ROUGE_MODES, help="score variant (default f1)")
    rouge_p.add_argument("--out", help="histogram CSV (default rouge_hist.csv)")
    rouge_p.add_argument("--scores", help="optional per-command scores CSV (--generated mode)")

    an_cov_p = _add_stage(analyze_sub, "analyze.coverage", "command-group and extension coverage", cmd_analyze_coverage)
    an_cov_p.add_argument("--in", dest="input", required=True, help="commands JSONL")
    an_cov_p.add_argument("--command-universe", dest="command_universe", help="groups file (default: bundled 306 groups)")
    an_cov_p.add_argument("--extension-universe", dest="extension_universe", help="extensions file (default: bundled 75 extensions)")
    an_cov_p.add_argument("--out", help="optional report file")

    return parser


def _dbscan_params(settings: Settings) -> clustering.DbscanParams:
    return clustering.DbscanParams(
        eps=settings.get("eps", 0.08, float),
        min_pts=settings.get("min_pts", 5, int),
    )


def _load_pool(settings: Settings):
    providers = settings.get("providers")
    if not providers:
        raise ValueError("no provider pool given (use --providers or the config file)")
    return load_provider_pool(providers)


def _pick_client(settings: Settings):
    pool = _load_pool(settings)
    name = settings.get("provider")
    spec = pool.by_name(name) if name else pool.providers[0]
    return build_client(spec)


def _journal(out: Path) -> synthesis.ReplyJournal:
    """The replies journal of the provider stage writing ``out``."""
    return synthesis.ReplyJournal(Path(f"{out}.replies.jsonl"))


def cmd_synth_run(settings: Settings) -> int:
    seeds = jsonl.read_commands(settings.get("seeds"), default_source=Source.INITIAL_SEED)
    pool = _load_pool(settings)
    out = settings.out_path(settings.get("out", "synthesized.jsonl"))
    seed = settings.get("seed", 0, int)
    cfg = synthesis.SynthesisConfig(
        target_count=settings.get("target", synthesis.DEFAULT_TARGET_COUNT, int),
        rng_seed=seed,
        max_consecutive_failures=settings.get("max_failures", 20, int),
    )
    try:
        with _journal(out) as journal:
            synthesized = synthesis.run_synthesis(pool, seeds, cfg, journal=journal)
    except synthesis.SynthesisAborted as exc:
        jsonl.write_commands(out, exc.partial)
        jsonl.write_meta(out, settings.stage, seed=seed, target=cfg.target_count,
                         aborted=True, synthesized=len(exc.partial))
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial results: {len(exc.partial)} commands written to {out}", file=sys.stderr)
        return 1
    jsonl.write_commands(out, synthesized)
    jsonl.write_meta(out, settings.stage, seed=seed, target=cfg.target_count,
                     providers=[p.name for p in pool.providers], synthesized=len(synthesized))
    print(f"synthesized {len(synthesized)} commands -> {out}")
    return 0


def cmd_synth_generate(settings: Settings) -> int:
    """``synth pairs`` and ``synth explain``: one provider call per command."""
    commands = jsonl.read_commands(settings.get("input"))
    client = _pick_client(settings)
    pairs = settings.stage == "synth.pairs"
    noun = "pairs" if pairs else "explanations"
    generate = synthesis.generate_pairs if pairs else synthesis.generate_explanations
    jobs = settings.get("jobs", 1, int)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out = settings.out_path(settings.get("out", f"{noun}.jsonl"))
    with _journal(out) as journal:
        results, rejects = generate(commands, client, jobs=jobs, journal=journal)
    if pairs:
        jsonl.write_pairs(out, results)
    else:
        jsonl.write_records(
            out,
            (
                {"text": command.text, "explanation": explanation, "source": command.source.value}
                for command, explanation in results
            ),
        )
    rejects_path = settings.path_or("rejects", Path(str(out) + ".rejects.jsonl"))
    jsonl.write_records(
        rejects_path,
        ({"text": r.command.text, "reason": r.reason} for r in rejects),
    )
    jsonl.write_meta(out, settings.stage, provider=getattr(client, "name", "?"),
                     rejects=len(rejects), **{noun: len(results)})
    print(f"{len(results)} {noun} -> {out} ({len(rejects)} rejects -> {rejects_path})")
    return 0


def _column(records: list[dict], field: str) -> list:
    """Each record's ``field``; raises on the first record without it."""
    values = []
    for i, record in enumerate(records):
        if field not in record:
            raise ValueError(f"record {i} has no field {field!r}")
        values.append(record[field])
    return values


def cmd_embed(settings: Settings) -> int:
    records = list(jsonl.read_records(settings.get("input")))
    texts = _column(records, settings.get("text_field", "text"))
    backend = settings.backend()
    matrix = embed_batch(backend, texts, settings.cache())
    out = settings.out_path(settings.get("out", "embeddings.jsonl"))
    jsonl.write_records(out, jsonl.vector_records(texts, matrix))
    jsonl.write_meta(out, settings.stage, backend=backend.identity, vectors=len(texts))
    print(f"{len(texts)} vectors ({backend.identity}) -> {out}")
    return 0


def _read_explanations(settings: Settings) -> tuple[list[dict], list[str]]:
    records = list(jsonl.read_records(settings.get("input")))
    if not records:
        raise ValueError("input file has no records")
    return records, _column(records, "explanation")


def cmd_cluster_dedup(settings: Settings) -> int:
    records, explanations = _read_explanations(settings)
    params = _dbscan_params(settings)
    backend = settings.backend()
    matrix = embed_batch(backend, explanations, settings.cache())
    labeling = clustering.dbscan(matrix, params)
    keep = settings.get("keep", 2, int)
    kept = clustering.dedup_by_clusters(records, labeling, keep)
    out = settings.out_path(settings.get("out", "testset.jsonl"))
    jsonl.write_records(out, (records[i] for i in kept))
    jsonl.write_meta(out, settings.stage, eps=params.eps, min_pts=params.min_pts,
                     keep=keep, clusters=labeling.num_clusters,
                     kept=len(kept), dropped=len(records) - len(kept),
                     backend=backend.identity)
    print(
        f"{labeling.num_clusters} clusters; kept {len(kept)} of {len(records)} -> {out}"
    )
    return 0


def cmd_cluster_negatives(settings: Settings) -> int:
    records, explanations = _read_explanations(settings)
    positives = [record.get("positive_id") for record in records]
    for i, positive in enumerate(positives):
        if positive is not None and (not isinstance(positive, int) or isinstance(positive, bool)):
            raise ValueError(f"record {i}: positive_id must be an integer index")
    n = settings.get("n", 1000, int)
    queries = range(len(records))
    clustering.check_negatives(len(records), queries, n, positives)
    backend = settings.backend()
    matrix = embed_batch(backend, explanations, settings.cache())
    out = settings.out_path(settings.get("out", "negatives.jsonl"))

    # Each row as json.dumps would write {"query_id": i, "negative_ids": [...]},
    # joined from the ids' strings instead of encoding n ints a row.
    ids = np.array([str(i) for i in queries], dtype=object)
    step = max(1, clustering.NEGATIVES_BLOCK // len(records))

    def rows():
        for top in range(0, len(records), step):
            block = queries[top:top + step]
            negatives = clustering.mine_negatives(block, matrix, n, positives[top:top + step])
            for i, row in zip(block, negatives):
                yield f'{{"query_id": {i}, "negative_ids": [{", ".join(ids[row].tolist())}]}}'

    jsonl.write_records(out, rows())
    jsonl.write_meta(out, settings.stage, n=n, queries=len(records),
                     backend=backend.identity)
    print(f"{len(records)} queries x {n} negatives -> {out}")
    return 0


def cmd_cluster_coverage(settings: Settings) -> int:
    records, explanations = _read_explanations(settings)
    tags = [str(tag) for tag in _column(records, settings.get("tag_field", "source"))]
    params = _dbscan_params(settings)
    backend = settings.backend()
    matrix = embed_batch(backend, explanations, settings.cache())
    labeling = clustering.dbscan(matrix, params)
    rates = clustering.cluster_coverage(labeling, tags)
    pooled = clustering.cluster_coverage(labeling, ["pool"] * len(tags))["pool"]
    settings.report(
        [("clusters", labeling.num_clusters), ("pool", pooled), *rates.items()],
        eps=params.eps, min_pts=params.min_pts,
    )
    return 0


def cmd_train(settings: Settings) -> int:
    pairs = jsonl.read_pairs(settings.get("pairs"))
    backend = settings.backend()
    seed = settings.get("seed", 0, int)
    cfg = contrastive.TrainConfig(
        batch_pairs=settings.get("batch", 64, int),
        learning_rate=settings.get("lr", 2e-5, float),
        epochs=settings.get("epochs", 2, int),
        temperature=settings.get("tau", 0.05, float),
        val_pairs=settings.get("val_pairs", 1000, int),
        eval_every_steps=settings.get("eval_every", 50, int),
        rng_seed=seed,
    )
    model, history = contrastive.train(pairs, backend, cfg, settings.cache())
    out = settings.out_path(settings.get("out", "adapter.json"))
    model.save(out)
    jsonl.write_csv(
        settings.path_or("history", Path(str(out) + ".history.csv")),
        ["step", "train_loss", "val_mrr3"],
        (
            [event.step, "" if event.train_loss is None else repr(event.train_loss), repr(event.val_mrr3)]
            for event in history
        ),
    )
    jsonl.write_meta(out, settings.stage, seed=seed, pairs=len(pairs),
                     backend=backend.identity, best_step=model.step,
                     batch=cfg.batch_pairs, lr=cfg.learning_rate,
                     epochs=cfg.epochs, tau=cfg.temperature)
    best = next(event for event in history if event.step == model.step)
    print(
        f"trained adapter (best step {model.step}, val MRR@3 {best.val_mrr3:.3f}) -> {out}"
    )
    return 0


def cmd_eval_retrieval(settings: Settings) -> int:
    corpus = jsonl.read_commands(settings.get("corpus"))
    cases = evaluation.load_retrieval_cases(settings.get("testset"), corpus)
    backend = settings.backend()
    adapter_value = settings.get("adapter")
    adapter = contrastive.AdapterModel.load(adapter_value) if adapter_value else None
    ks = settings.get("k", [3, 10], _k_list)
    report = evaluation.evaluate_retrieval(cases, backend, ks, adapter, settings.cache())
    settings.report(
        [("cases", len(cases)), *report.metrics.items()], "retrieval_report.txt",
        backend=backend.identity, adapter=str(adapter_value) if adapter_value else None,
        cases=len(cases),
    )
    jsonl.write_csv(
        settings.path_or("ranks", settings.out_path("retrieval_ranks.csv")),
        ["case", "rank"],
        enumerate(report.ranks),
    )
    return 0


def cmd_eval_detect(settings: Settings) -> int:
    corpus = evaluation.load_technique_corpus(settings.get("corpus"))
    backend = settings.backend()
    rate = settings.get("rate", 20.0, float)
    mode = settings.get("mode", "concatenated")
    auc = evaluation.detection_auc(corpus, rate, backend, mode, settings.cache())
    settings.report(
        [("techniques", len(corpus)), ("rate", rate), ("mode", mode), ("auc", auc)],
        rate=rate, mode=mode, backend=backend.identity,
    )
    return 0


def cmd_eval_classify(settings: Settings) -> int:
    seed = settings.get("seed", 0, int)
    rng = random.Random(seed)
    dataset = evaluation.synth_classification_dataset(
        rng,
        per_command=settings.get("per_command", 7000, int),
        decoy_probability=settings.get("decoy_probability", 0.5, float),
    )
    backend = settings.backend()
    cache = settings.cache()
    train_x = embed_batch(backend, [text for _, text in dataset.train], cache)
    test_x = embed_batch(backend, [text for _, text in dataset.test], cache)
    _, accuracy = evaluation.train_logreg(
        train_x,
        [label for label, _ in dataset.train],
        test_x,
        [label for label, _ in dataset.test],
        rng=rng,
    )
    settings.report(
        [("train_records", len(dataset.train)), ("test_records", len(dataset.test)),
         ("seed", seed), ("accuracy", accuracy)],
        seed=seed, backend=backend.identity,
    )
    return 0


def cmd_stats(settings: Settings) -> int:
    pairs = jsonl.read_pairs(settings.get("pairs"))
    stats = dataset_stats(pairs)
    print(f"num_pairs={stats.num_pairs}")
    print(f"num_unique={stats.num_unique}")
    print(f"max_len={stats.max_len}")
    print(f"min_len={stats.min_len}")
    print(f"avg_len={stats.avg_len!r}")
    print(f"std_len={stats.std_len!r}")
    return 0


def cmd_analyze_rouge(settings: Settings) -> int:
    mode = settings.get("rouge_mode", "f1")
    pairs_value = settings.get("pairs")
    generated_value = settings.get("generated")
    if bool(pairs_value) == bool(generated_value):
        raise ValueError("give exactly one of --pairs or --generated/--seeds")
    if pairs_value and (settings.get("seeds") or settings.get("scores")):
        raise ValueError("--seeds and --scores go with --generated, not --pairs")
    out = settings.out_path(settings.get("out", "rouge_hist.csv"))
    if pairs_value:
        pairs = jsonl.read_pairs(pairs_value)
        histogram = analytics.pair_overlap_distribution(pairs, mode)
        jsonl.write_meta(out, settings.stage, mode=mode, source="pairs", n=histogram.n)
    else:
        seeds_value = settings.get("seeds")
        if not seeds_value:
            raise ValueError("--generated requires --seeds")
        generated = jsonl.read_commands(generated_value)
        seeds = jsonl.read_commands(seeds_value)
        scores, histogram = analytics.max_overlap_vs_seeds(generated, seeds, mode)
        scores_value = settings.get("scores")
        if scores_value:
            jsonl.write_csv(
                settings.out_path(scores_value),
                ["index", "max_overlap"],
                ([i, repr(score)] for i, score in enumerate(scores)),
            )
        jsonl.write_meta(out, settings.stage, mode=mode, source="generated-vs-seeds",
                         n=histogram.n)
    analytics.write_histogram_csv(out, histogram)
    print(f"histogram of {histogram.n} scores -> {out}")
    return 0


def _bundled_universe(filename: str) -> list[str]:
    with resources.as_file(resources.files("cmdsim").joinpath("data", filename)) as path:
        return analytics.load_universe(path)


def cmd_analyze_coverage(settings: Settings) -> int:
    commands = jsonl.read_commands(settings.get("input"))
    groups_value = settings.get("command_universe")
    extensions_value = settings.get("extension_universe")
    groups = analytics.load_universe(groups_value) if groups_value else _bundled_universe("windows_command_groups.txt")
    extensions = analytics.load_universe(extensions_value) if extensions_value else _bundled_universe("windows_file_extensions.txt")
    group_report = analytics.command_coverage(commands, groups)
    extension_report = analytics.extension_coverage(commands, extensions)
    settings.report([
        ("command_groups_covered", group_report.covered),
        ("command_groups_universe", group_report.universe_size),
        ("command_groups_rate", group_report.rate),
        ("extensions_covered", extension_report.covered),
        ("extensions_universe", extension_report.universe_size),
        ("extensions_rate", extension_report.rate),
    ])
    return 0


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    # The root logger gets this run's level and a stderr handler, and has
    # both undone at the end, so each run in one process logs as its flags say.
    root = logging.getLogger()
    level = root.level
    log_handler = logging.StreamHandler(sys.stderr)
    log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(log_handler)
    root.setLevel(logging.INFO if getattr(args, "verbose", False) else logging.WARNING)
    try:
        return handler(Settings(args))
    except (ValueError, KeyError, OSError, GatewayError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        root.removeHandler(log_handler)
        root.setLevel(level)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
