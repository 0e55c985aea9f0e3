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
import functools
import hashlib
import logging
import random
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, analytics, clustering, contrastive, evaluation, jsonl, synthesis
from .core import Source, dataset_stats
from .embedding import (
    DEFAULT_DIM,
    EmbeddingCache,
    HashingEmbeddingBackend,
    RemoteEmbeddingBackend,
    embed_batch,
)
from .gateway import TEMPLATE_VERSION, GatewayError, load_provider_pool

def _int_at_least(minimum: int):
    """An argparse ``type``: an int, refused below ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


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
        parser.add_argument("--backend", choices=("local", "remote"), default="local",
                            help="embedding backend (default %(default)s)")
        parser.add_argument("--dim", type=int, default=DEFAULT_DIM, help="embedding dimension (default %(default)s)")
        parser.add_argument("--embed-endpoint", dest="embed_endpoint", help="remote embeddings URL")
        parser.add_argument("--embed-model", dest="embed_model", help="remote embeddings model id")
        parser.add_argument("--embed-key-env", dest="embed_key_env", default="", help="env var holding the embeddings API key")
        parser.add_argument("--cache", help="embedding cache index; rows go to the same path + .f64")
    parser.add_argument("--config", help="INI config file with per-stage sections")
    parser.add_argument("--output-dir", dest="output_dir", default=".", help="directory for all outputs (default %(default)s)")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    parser.set_defaults(handler=handler, stage=stage, stage_parser=parser)
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

    synth_defaults = synthesis.SynthesisConfig()
    run_p = _add_stage(synth_sub, "synth.run", "grow the pool of synthesized commands", cmd_synth_run)
    run_p.add_argument("--seeds", required=True, help="initial seeds JSONL ({text, source})")
    run_p.add_argument("--providers", help="provider pool INI file")
    run_p.add_argument("--target", type=_int_at_least(0), default=synth_defaults.target_count,
                       help="number of new commands (default %(default)s)")
    run_p.add_argument("--seed", type=int, default=synth_defaults.rng_seed, help="rng seed (default %(default)s)")
    run_p.add_argument("--max-failures", dest="max_failures", type=int,
                       default=synth_defaults.max_consecutive_failures,
                       help="consecutive empty steps before aborting (default %(default)s)")
    run_p.add_argument("--out", default="synthesized.jsonl", help="output JSONL (default %(default)s)")

    for stage, help, noun in (("synth.pairs", "generate similar-command positives", "pairs"),
                              ("synth.explain", "generate explanations", "explanations")):
        generate_p = _add_stage(synth_sub, stage, help, cmd_synth_generate)
        generate_p.add_argument("--in", dest="input", required=True, help="commands JSONL")
        generate_p.add_argument("--providers", help="provider pool INI file")
        generate_p.add_argument("--provider", help="provider name (default: first in pool)")
        generate_p.add_argument("--out", default=f"{noun}.jsonl", help=f"{noun} JSONL (default %(default)s)")
        generate_p.add_argument("--rejects", help="rejects JSONL (default <out>.rejects.jsonl)")
        generate_p.add_argument("--jobs", type=_int_at_least(1), default=1,
                                help="requests in flight at once; a call waiting out a retry "
                                     "backoff does not hold one (default %(default)s)")

    embed_p = _add_stage(subparsers, "embed", "embed texts to vectors", cmd_embed, backend=True)
    embed_p.add_argument("--in", dest="input", required=True, help="JSONL with a text field")
    embed_p.add_argument("--text-field", dest="text_field", default="text", help="record field to embed (default %(default)s)")
    embed_p.add_argument("--out", default="embeddings.jsonl", help="vectors JSONL (default %(default)s)")

    cluster = subparsers.add_parser("cluster", help="clustering stages")
    cluster_sub = cluster.add_subparsers(dest="subcommand")

    dedup_p = _add_stage(cluster_sub, "cluster.dedup", "deduplicate by explanation clusters", cmd_cluster_dbscan, backend=True)
    dedup_p.add_argument("--in", dest="input", required=True, help="explanations JSONL ({text, explanation})")
    dedup_p.add_argument("--keep", type=_int_at_least(1), default=2, help="entries kept per cluster (default %(default)s)")
    dedup_p.add_argument("--out", default="testset.jsonl", help="surviving records JSONL (default %(default)s)")

    negatives_p = _add_stage(cluster_sub, "cluster.negatives", "mine least-similar negatives", cmd_cluster_negatives, backend=True)
    negatives_p.add_argument("--in", dest="input", required=True, help="explanations JSONL")
    negatives_p.add_argument("--n", type=int, default=1000, help="negatives per query (default %(default)s)")
    negatives_p.add_argument("--out", default="negatives.jsonl",
                             help="output JSONL of {query_id, negative_ids} (default %(default)s)")

    coverage_p = _add_stage(cluster_sub, "cluster.coverage", "per-source cluster coverage", cmd_cluster_dbscan, backend=True)
    coverage_p.add_argument("--in", dest="input", required=True, help="explanations JSONL with a source field")
    coverage_p.add_argument("--tag-field", dest="tag_field", default="source",
                            help="record field naming the source (default %(default)s)")
    coverage_p.add_argument("--out", help="optional report file")

    for dbscan_p in (dedup_p, coverage_p):
        dbscan_p.add_argument("--eps", type=float, default=0.08, help="cosine-distance radius (default %(default)s)")
        dbscan_p.add_argument("--min-pts", dest="min_pts", type=int, default=5, help="core-point threshold (default %(default)s)")

    train_defaults = contrastive.TrainConfig()
    train_p = _add_stage(subparsers, "train", "train the embedding adapter", cmd_train, backend=True)
    train_p.add_argument("--pairs", required=True, help="pairs JSONL ({anchor, positive})")
    train_p.add_argument("--out", default="adapter.json", help="adapter checkpoint JSON (default %(default)s)")
    train_p.add_argument("--history", help="history CSV (default <out>.history.csv)")
    train_p.add_argument("--batch", type=int, default=train_defaults.batch_pairs, help="pairs per batch (default %(default)s)")
    train_p.add_argument("--lr", type=float, default=train_defaults.learning_rate, help="learning rate (default %(default)s)")
    train_p.add_argument("--epochs", type=int, default=train_defaults.epochs, help="epochs (default %(default)s)")
    train_p.add_argument("--tau", type=float, default=train_defaults.temperature,
                         help="softmax temperature (default %(default)s)")
    train_p.add_argument("--val-pairs", dest="val_pairs", type=int, default=train_defaults.val_pairs,
                         help="validation pairs (default %(default)s)")
    train_p.add_argument("--eval-every", dest="eval_every", type=int, default=train_defaults.eval_every_steps,
                         help="steps between evals (default %(default)s)")
    train_p.add_argument("--seed", type=int, default=train_defaults.rng_seed, help="rng seed (default %(default)s)")

    evaluate = subparsers.add_parser("eval", help="evaluation suites")
    eval_sub = evaluate.add_subparsers(dest="subcommand")

    retrieval_p = _add_stage(eval_sub, "eval.retrieval", "MRR@K / Top@K retrieval", cmd_eval_retrieval, backend=True)
    retrieval_p.add_argument("--testset", required=True, help="JSONL of {query, positive, negative_ids}")
    retrieval_p.add_argument("--corpus", required=True, help="commands JSONL the negative ids index into")
    retrieval_p.add_argument("--k", type=_k_list, default="3,10", help="comma-separated K values (default %(default)s)")
    retrieval_p.add_argument("--adapter", help="adapter checkpoint JSON (default: identity)")
    retrieval_p.add_argument("--out", default="retrieval_report.txt", help="report file (default %(default)s)")
    retrieval_p.add_argument("--ranks", default="retrieval_ranks.csv", help="per-case ranks CSV (default %(default)s)")

    detect_p = _add_stage(eval_sub, "eval.detect", "gene-pool detection AUC", cmd_eval_detect, backend=True)
    detect_p.add_argument("--corpus", required=True, help="technique corpus JSONL ({technique_id, command})")
    detect_p.add_argument("--rate", type=float, default=20.0, help="pool sample rate percent (default %(default)s)")
    detect_p.add_argument("--mode", choices=evaluation.DETECTION_MODES, default=evaluation.DETECTION_MODES[0],
                          help="AUC aggregation (default %(default)s)")
    detect_p.add_argument("--out", help="optional report file")

    classify_p = _add_stage(eval_sub, "eval.classify", "seven-command classification probe", cmd_eval_classify, backend=True)
    classify_p.add_argument("--seed", type=int, default=0, help="rng seed (default %(default)s)")
    classify_p.add_argument("--per-command", dest="per_command", type=int, default=evaluation.DEFAULT_PER_COMMAND,
                            help="lines per command (default %(default)s)")
    classify_p.add_argument("--decoy-probability", dest="decoy_probability", type=float,
                            default=evaluation.DEFAULT_DECOY_PROBABILITY,
                            help="per-slot decoy probability (default %(default)s)")
    classify_p.add_argument("--out", help="optional report file")

    stats_p = _add_stage(subparsers, "stats", "pair-dataset statistics", cmd_stats)
    stats_p.add_argument("--pairs", required=True, help="pairs JSONL")

    analyze = subparsers.add_parser("analyze", help="diversity analytics")
    analyze_sub = analyze.add_subparsers(dest="subcommand")

    rouge_p = _add_stage(analyze_sub, "analyze.rouge", "overlap histograms", cmd_analyze_rouge)
    rouge_p.add_argument("--pairs", help="pairs JSONL: anchor-vs-positive overlap")
    rouge_p.add_argument("--generated", help="generated commands JSONL: max overlap vs seeds")
    rouge_p.add_argument("--seeds", help="seeds JSONL (required with --generated)")
    rouge_p.add_argument("--rouge-mode", dest="rouge_mode", choices=analytics.ROUGE_MODES, default=analytics.ROUGE_MODES[0],
                         help="score variant (default %(default)s)")
    rouge_p.add_argument("--out", default="rouge_hist.csv", help="histogram CSV (default %(default)s)")
    rouge_p.add_argument("--scores", help="optional per-command scores CSV (--generated mode)")

    an_cov_p = _add_stage(analyze_sub, "analyze.coverage", "command-group and extension coverage", cmd_analyze_coverage)
    an_cov_p.add_argument("--in", dest="input", required=True, help="commands JSONL")
    an_cov_p.add_argument("--command-universe", dest="command_universe", help="groups file (default: bundled 306 groups)")
    an_cov_p.add_argument("--extension-universe", dest="extension_universe", help="extensions file (default: bundled 75 extensions)")
    an_cov_p.add_argument("--out", help="optional report file")

    return parser


# One parser per process: building it costs about 130 add_argument calls,
# and a process may run many stages.  ``run`` undoes what --config sets
# before it returns, so runs in one process must not overlap in threads.
_parser = functools.cache(build_parser)


def _config_defaults(args: argparse.Namespace) -> dict:
    """The values ``--config`` gives the stage's optional flags, keyed by
    dest: from the ``[stage]`` section, else ``[common]``, each passed
    through its flag's ``type`` and ``choices``.  Switches, required flags
    and ``--config`` itself are not read; keys that name no flag are ignored.
    """
    config = configparser.ConfigParser()
    try:
        read = config.read(args.config, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"config file {args.config}: {exc}") from exc
    if not read:
        raise ValueError(f"config file not found: {args.config}")
    defaults = {}
    for action in args.stage_parser._actions:
        sections = [s for s in (args.stage, "common") if config.has_option(s, action.dest)]
        if not sections or action.nargs == 0 or action.required or action.dest == "config":
            continue
        try:
            value = config.get(sections[0], action.dest)
            if action.type is not None:
                value = action.type(value)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"invalid choice: {value!r} (choose from {', '.join(map(repr, action.choices))})")
        except (configparser.Error, ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config file {args.config}: [{sections[0]}] {action.dest}: {exc}") from exc
        defaults[action.dest] = value
    return defaults


def _out_path(args: argparse.Namespace, value: str) -> Path:
    """``value`` under ``--output-dir``, or as given when absolute."""
    return Path(args.output_dir, value)


def _backend(args: argparse.Namespace):
    if args.backend == "local":
        return HashingEmbeddingBackend(args.dim)
    if not args.embed_endpoint or not args.embed_model:
        raise ValueError("remote backend needs --embed-endpoint and --embed-model")
    return RemoteEmbeddingBackend(args.embed_endpoint, args.embed_model, args.dim, args.embed_key_env)


def _cache(args: argparse.Namespace) -> EmbeddingCache | None:
    return EmbeddingCache(_out_path(args, args.cache)) if args.cache else None


def _report(args: argparse.Namespace, fields, **meta) -> None:
    """Print ``key=value`` lines for ``fields`` (pairs, in order).

    With an output path (``--out`` or its default) the same text also goes
    to that file, with a ``.meta.json`` sidecar holding ``meta``.
    """
    text = "".join(f"{key}={value}\n" for key, value in fields)
    print(text, end="")
    if args.out:
        out = _out_path(args, args.out)
        with jsonl._replacing(out) as handle:
            handle.write(text)
        jsonl.write_meta(out, args.stage, **meta)


def _load_pool(args: argparse.Namespace):
    if not args.providers:
        raise ValueError("no provider pool given (use --providers or the config file)")
    return load_provider_pool(args.providers)


def _journal(out: Path) -> synthesis.ReplyJournal:
    """The replies journal of the provider stage writing ``out``."""
    return synthesis.ReplyJournal(Path(f"{out}.replies.jsonl"))


def cmd_synth_run(args: argparse.Namespace) -> int:
    seeds = jsonl.read_commands(args.seeds, default_source=Source.INITIAL_SEED)
    pool = _load_pool(args)
    out = _out_path(args, args.out)
    cfg = synthesis.SynthesisConfig(
        target_count=args.target,
        rng_seed=args.seed,
        max_consecutive_failures=args.max_failures,
    )
    try:
        with _journal(out) as journal:
            synthesized = synthesis.run_synthesis(pool, seeds, cfg, journal=journal)
    except synthesis.SynthesisAborted as exc:
        jsonl.write_commands(out, exc.partial)
        jsonl.write_meta(out, args.stage, seed=args.seed, target=cfg.target_count,
                         aborted=True, synthesized=len(exc.partial))
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial results: {len(exc.partial)} commands written to {out}", file=sys.stderr)
        return 1
    jsonl.write_commands(out, synthesized)
    jsonl.write_meta(out, args.stage, seed=args.seed, target=cfg.target_count,
                     providers=[p.name for p in pool], synthesized=len(synthesized))
    print(f"synthesized {len(synthesized)} commands -> {out}")
    return 0


def cmd_synth_generate(args: argparse.Namespace) -> int:
    """``synth pairs`` and ``synth explain``: one provider call per command."""
    commands = jsonl.read_commands(args.input)
    pool = _load_pool(args)
    spec = next((p for p in pool if p.name == args.provider), None) if args.provider else pool[0]
    if spec is None:
        raise ValueError(f"no provider named {args.provider!r} in pool")
    pairs = args.stage == "synth.pairs"
    noun = "pairs" if pairs else "explanations"
    generate = synthesis.generate_pairs if pairs else synthesis.generate_explanations
    out = _out_path(args, args.out)
    with _journal(out) as journal:
        results, rejects = generate(commands, spec, jobs=args.jobs, journal=journal)
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
    rejects_path = _out_path(args, args.rejects) if args.rejects else Path(f"{out}.rejects.jsonl")
    jsonl.write_records(
        rejects_path,
        ({"text": r.command.text, "reason": r.reason} for r in rejects),
    )
    jsonl.write_meta(out, args.stage, provider=spec.name,
                     rejects=len(rejects), **{noun: len(results)})
    print(f"{len(results)} {noun} -> {out} ({len(rejects)} rejects -> {rejects_path})")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    records = jsonl.read_records(args.input, required=[args.text_field])
    texts = [record[args.text_field] for _, record in records]
    backend = _backend(args)
    matrix = embed_batch(backend, texts, _cache(args))
    out = _out_path(args, args.out)
    jsonl.write_records(out, jsonl.vector_records(texts, matrix))
    jsonl.write_meta(out, args.stage, backend=backend.identity, vectors=len(texts))
    print(f"{len(texts)} vectors ({backend.identity}) -> {out}")
    return 0


def _read_explanations(args: argparse.Namespace, *fields: str) -> tuple[list[int], list[dict], list[str]]:
    """The records of ``--in``, each with a string ``explanation`` and
    ``fields``, with their line numbers and their explanations."""
    numbered = list(jsonl.read_records(args.input, required=["explanation", *fields]))
    if not numbered:
        raise ValueError("input file has no records")
    records = [record for _, record in numbered]
    return [lineno for lineno, _ in numbered], records, [record["explanation"] for record in records]


def cmd_cluster_negatives(args: argparse.Namespace) -> int:
    linenos, records, explanations = _read_explanations(args)
    positives = [record.get("positive_id") for record in records]
    for lineno, positive in zip(linenos, positives):
        if positive is not None and (not isinstance(positive, int) or isinstance(positive, bool)):
            raise ValueError(f"{args.input}:{lineno}: positive_id must be an integer index")
    n = args.n
    queries = range(len(records))
    clustering.check_negatives(len(records), queries, n, positives)
    backend = _backend(args)
    matrix = embed_batch(backend, explanations, _cache(args))
    out = _out_path(args, args.out)

    # Each row as json.dumps would write {"query_id": i, "negative_ids": [...]},
    # joined from the ids' strings instead of encoding n ints a row.
    ids = np.array([str(i) for i in queries], dtype=object)

    def rows():
        for block in clustering.query_blocks(len(records)):
            negatives = clustering.mine_negatives(block, matrix, n, positives[block.start:block.stop])
            for i, row in zip(block, negatives):
                yield f'{{"query_id": {i}, "negative_ids": [{", ".join(ids[row].tolist())}]}}'

    jsonl.write_records(out, rows())
    jsonl.write_meta(out, args.stage, n=n, queries=len(records),
                     backend=backend.identity)
    print(f"{len(records)} queries x {n} negatives -> {out}")
    return 0


def cmd_cluster_dbscan(args: argparse.Namespace) -> int:
    """``cluster dedup`` and ``cluster coverage``: DBSCAN over the
    embedded explanations, then the survivors or the per-source rates."""
    dedup = args.stage == "cluster.dedup"
    # The tag column is checked with the explanations, before anything is embedded.
    _, records, explanations = _read_explanations(args, *([] if dedup else [args.tag_field]))
    params = clustering.DbscanParams(eps=args.eps, min_pts=args.min_pts)
    backend = _backend(args)
    matrix = embed_batch(backend, explanations, _cache(args))
    labeling = clustering.dbscan(matrix, params)
    if not dedup:
        rates = clustering.cluster_coverage(labeling, [record[args.tag_field] for record in records])
        # A rate's key has a prefix, so no tag can shadow the clusters= line.
        _report(args, [("clusters", labeling.num_clusters), *((f"rate.{tag}", r) for tag, r in rates.items())],
                eps=params.eps, min_pts=params.min_pts)
        return 0
    kept = clustering.dedup_by_clusters(records, labeling, args.keep)
    out = _out_path(args, args.out)
    jsonl.write_records(out, (records[i] for i in kept))
    jsonl.write_meta(out, args.stage, eps=params.eps, min_pts=params.min_pts,
                     keep=args.keep, clusters=labeling.num_clusters,
                     kept=len(kept), dropped=len(records) - len(kept),
                     backend=backend.identity)
    print(f"{labeling.num_clusters} clusters; kept {len(kept)} of {len(records)} -> {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    pairs = jsonl.read_pairs(args.pairs)
    backend = _backend(args)
    cfg = contrastive.TrainConfig(
        batch_pairs=args.batch,
        learning_rate=args.lr,
        epochs=args.epochs,
        temperature=args.tau,
        val_pairs=args.val_pairs,
        eval_every_steps=args.eval_every,
        rng_seed=args.seed,
    )
    model, history = contrastive.train(pairs, backend, cfg, _cache(args))
    out = _out_path(args, args.out)
    model.save(out)
    jsonl.write_csv(
        _out_path(args, args.history) if args.history else Path(f"{out}.history.csv"),
        ["step", "train_loss", "val_mrr3"],
        (
            [event.step, "" if event.train_loss is None else repr(event.train_loss), repr(event.val_mrr3)]
            for event in history
        ),
    )
    jsonl.write_meta(out, args.stage, seed=args.seed, pairs=len(pairs),
                     backend=backend.identity, best_step=model.step,
                     batch=cfg.batch_pairs, lr=cfg.learning_rate,
                     epochs=cfg.epochs, tau=cfg.temperature)
    best = next(event for event in history if event.step == model.step)
    print(
        f"trained adapter (best step {model.step}, val MRR@3 {best.val_mrr3:.3f}) -> {out}"
    )
    return 0


def cmd_eval_retrieval(args: argparse.Namespace) -> int:
    checkpoint = Path(args.adapter).read_bytes() if args.adapter else None
    adapter = contrastive.AdapterModel.load(args.adapter, checkpoint) if args.adapter else None
    adapter_sha256 = hashlib.sha256(checkpoint).hexdigest() if args.adapter else None
    corpus_texts = [command.text for command in jsonl.read_commands(args.corpus)]
    cases = evaluation.load_retrieval_cases(args.testset, corpus_texts)
    backend = _backend(args)
    report = evaluation.evaluate_retrieval(cases, backend, args.k, adapter, _cache(args))
    _report(
        args, [("cases", len(cases)), *report.metrics.items()],
        backend=backend.identity, adapter_sha256=adapter_sha256, cases=len(cases),
    )
    jsonl.write_csv(_out_path(args, args.ranks), ["case", "rank"], enumerate(report.ranks))
    return 0


def cmd_eval_detect(args: argparse.Namespace) -> int:
    corpus = evaluation.load_technique_corpus(args.corpus)
    backend = _backend(args)
    auc = evaluation.detection_auc(corpus, args.rate, backend, args.mode, _cache(args))
    _report(
        args,
        [("techniques", len(corpus.techniques)), ("rate", args.rate), ("mode", args.mode), ("auc", auc)],
        rate=args.rate, mode=args.mode, backend=backend.identity,
    )
    return 0


def cmd_eval_classify(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    dataset = evaluation.synth_classification_dataset(
        rng,
        per_command=args.per_command,
        decoy_probability=args.decoy_probability,
    )
    backend = _backend(args)
    cache = _cache(args)
    train_x = embed_batch(backend, [text for _, text in dataset.train], cache)
    test_x = embed_batch(backend, [text for _, text in dataset.test], cache)
    _, accuracy = evaluation.train_logreg(
        train_x,
        [label for label, _ in dataset.train],
        test_x,
        [label for label, _ in dataset.test],
        rng=rng,
    )
    _report(
        args,
        [("train_records", len(dataset.train)), ("test_records", len(dataset.test)),
         ("seed", args.seed), ("accuracy", accuracy)],
        seed=args.seed, backend=backend.identity,
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    pairs = jsonl.read_pairs(args.pairs)
    stats = dataset_stats(pairs)
    print(f"num_pairs={stats.num_pairs}")
    print(f"num_unique={stats.num_unique}")
    print(f"max_len={stats.max_len}")
    print(f"min_len={stats.min_len}")
    print(f"avg_len={stats.avg_len!r}")
    print(f"std_len={stats.std_len!r}")
    return 0


def cmd_analyze_rouge(args: argparse.Namespace) -> int:
    mode = args.rouge_mode
    if bool(args.pairs) == bool(args.generated):
        raise ValueError("give exactly one of --pairs or --generated/--seeds")
    if args.pairs and (args.seeds or args.scores):
        raise ValueError("--seeds and --scores go with --generated, not --pairs")
    out = _out_path(args, args.out)
    if args.pairs:
        pairs = jsonl.read_pairs(args.pairs)
        histogram = analytics.pair_overlap_distribution(pairs, mode)
        jsonl.write_meta(out, args.stage, mode=mode, source="pairs", n=histogram.n)
    else:
        if not args.seeds:
            raise ValueError("--generated requires --seeds")
        generated = jsonl.read_commands(args.generated)
        seeds = jsonl.read_commands(args.seeds)
        scores, histogram = analytics.max_overlap_vs_seeds(generated, seeds, mode)
        if args.scores:
            jsonl.write_csv(
                _out_path(args, args.scores),
                ["index", "max_overlap"],
                ([i, repr(score)] for i, score in enumerate(scores)),
            )
        jsonl.write_meta(out, args.stage, mode=mode, source="generated-vs-seeds",
                         n=histogram.n)
    analytics.write_histogram_csv(out, histogram)
    print(f"histogram of {histogram.n} scores -> {out}")
    return 0


def _bundled_universe(filename: str) -> list[str]:
    with resources.as_file(resources.files("cmdsim").joinpath("data", filename)) as path:
        return analytics.load_universe(path)


def cmd_analyze_coverage(args: argparse.Namespace) -> int:
    commands = jsonl.read_commands(args.input)
    groups = (analytics.load_universe(args.command_universe) if args.command_universe
              else _bundled_universe("windows_command_groups.txt"))
    extensions = (analytics.load_universe(args.extension_universe) if args.extension_universe
                  else _bundled_universe("windows_file_extensions.txt"))
    group_report = analytics.command_coverage(commands, groups)
    extension_report = analytics.extension_coverage(commands, extensions)
    _report(args, [
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
    parser = _parser()
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
    root.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        if args.config:
            # Config values become the stage's defaults, so a flag still
            # wins; the parser's own defaults are back before the stage runs.
            stage_parser, defaults = args.stage_parser, _config_defaults(args)
            saved = {dest: stage_parser.get_default(dest) for dest in defaults}
            stage_parser.set_defaults(**defaults)
            try:
                args = parser.parse_args(argv)
            finally:
                stage_parser.set_defaults(**saved)
        return handler(args)
    except (ValueError, KeyError, OSError, GatewayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        root.removeHandler(log_handler)
        root.setLevel(level)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
