"""Generation loop for new command lines, similar pairs, and explanations.

The loop follows a grow-the-pool protocol: sample 12 seeds without
replacement from the union of initial seeds and everything synthesized
so far, ask one randomly picked provider for 4 new command lines, keep
the valid non-duplicates, repeat until the target count is reached.
"""

from __future__ import annotations

import logging
import random
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .core import CommandLine, CommandLinePair, SeedPool, Source, parse_llm_response
from .gateway import (
    SEEDS_PER_PROMPT,
    ConfigurationError,
    GatewayError,
    ProviderPool,
    ProviderSpec,
    build_client,
    build_explanation_prompt,
    build_pair_prompt,
    build_synthesis_prompt,
    pick_provider,
)

logger = logging.getLogger(__name__)

DEFAULT_TARGET_COUNT = 28_520
CHECKPOINT_EVERY = 100


# The generation protocol: SEEDS_PER_PROMPT (12) seeds in, at most
# REQUESTED_PER_CALL command lines kept per call.
REQUESTED_PER_CALL = 4


@dataclass(frozen=True)
class SynthesisConfig:
    """Settings for one synthesis run."""

    target_count: int = DEFAULT_TARGET_COUNT
    rng_seed: int = 0
    max_consecutive_failures: int = 20
    checkpoint_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.target_count < 0:
            raise ValueError("target_count must be >= 0")
        if self.max_consecutive_failures < 1:
            raise ValueError("max_consecutive_failures must be >= 1")


class SynthesisAborted(Exception):
    """Raised when too many consecutive steps yield nothing.

    Carries whatever was synthesized so far in ``partial`` so callers
    can persist it.
    """

    def __init__(self, message: str, partial: list[CommandLine]) -> None:
        super().__init__(message)
        self.partial = partial


def _ask(client, prompt: str) -> str | GatewayError:
    """The client's reply, or the provider failure (transport or HTTP,
    after the gateway's retries) that stands in for it.  Configuration
    errors propagate, since retrying cannot fix a missing API key."""
    try:
        return client.complete(prompt)
    except ConfigurationError:
        raise
    except GatewayError as exc:
        return exc


def synthesize_step(
    pool: ProviderPool,
    seeds: SeedPool,
    rng: random.Random,
    *,
    client_for: Callable[[ProviderSpec], object],
) -> list[CommandLine]:
    """Run one generation step; returns the newly accepted command lines.

    A provider failure (see :func:`_ask`) returns an empty list, and the
    caller's failure counter decides when to give up.
    """
    if len(seeds) < SEEDS_PER_PROMPT:
        raise ValueError(
            f"seed pool has {len(seeds)} entries, needs >= {SEEDS_PER_PROMPT}"
        )
    sampled = seeds.sample(rng, SEEDS_PER_PROMPT)
    prompt = build_synthesis_prompt(sampled)
    spec = pick_provider(pool, rng)
    response = _ask(client_for(spec), prompt)
    if isinstance(response, GatewayError):
        logger.warning("provider %s failed: %s", spec.name, response)
        return []
    parsed = parse_llm_response(response, provenance=spec.name)
    accepted: list[CommandLine] = []
    for command in parsed[:REQUESTED_PER_CALL]:
        if seeds.add(command):
            accepted.append(command)
    return accepted


def _checkpoint(cfg: SynthesisConfig, seeds: SeedPool, synthesized: list[CommandLine]) -> None:
    logger.info("synthesized %d/%d", len(synthesized), cfg.target_count)
    if cfg.checkpoint_dir is None:
        return
    from . import jsonl

    cfg.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    jsonl.write_commands(cfg.checkpoint_dir / "seed_pool.jsonl", seeds)
    jsonl.write_commands(cfg.checkpoint_dir / "synthesized.jsonl", synthesized)


def load_checkpoint(checkpoint_dir: Path) -> tuple[list[CommandLine], list[CommandLine]] | None:
    """Return (seed pool entries, synthesized list) or None if absent."""
    from . import jsonl

    pool_path = checkpoint_dir / "seed_pool.jsonl"
    synth_path = checkpoint_dir / "synthesized.jsonl"
    if not pool_path.exists() or not synth_path.exists():
        return None
    return jsonl.read_commands(pool_path), jsonl.read_commands(synth_path)


def run_synthesis(
    pool: ProviderPool,
    initial_seeds: Sequence[CommandLine],
    cfg: SynthesisConfig,
    *,
    client_for: Callable[[ProviderSpec], object] = build_client,
    resume: tuple[list[CommandLine], list[CommandLine]] | None = None,
) -> list[CommandLine]:
    """Generate until ``cfg.target_count`` new command lines exist.

    Returns the synthesized (non-initial) command lines in generation
    order, truncated to exactly the target.  A step that accepts nothing
    counts as a failure; ``cfg.max_consecutive_failures`` such steps in
    a row abort the run with the partial result attached, after writing
    a final checkpoint.

    ``resume`` restarts from a prior checkpoint's (pool, synthesized)
    state; the rng is still seeded fresh from cfg, so a resumed run is
    deterministic but not byte-identical to an uninterrupted one.
    """
    if cfg.target_count == 0:
        return []
    seeds = SeedPool(initial_seeds)
    synthesized: list[CommandLine] = []
    if resume is not None:
        pool_entries, synthesized = list(resume[0]), list(resume[1])
        seeds = SeedPool(pool_entries)
        logger.info(
            "resuming with %d pool entries, %d already synthesized",
            len(seeds),
            len(synthesized),
        )
    if len(seeds) < SEEDS_PER_PROMPT:
        raise ValueError(
            f"need >= {SEEDS_PER_PROMPT} distinct initial seeds, got {len(seeds)}"
        )
    rng = random.Random(cfg.rng_seed)
    consecutive_failures = 0
    accepted_since_checkpoint = 0
    while len(synthesized) < cfg.target_count:
        accepted = synthesize_step(pool, seeds, rng, client_for=client_for)
        if accepted:
            synthesized.extend(accepted)
            consecutive_failures = 0
            accepted_since_checkpoint += len(accepted)
            if accepted_since_checkpoint >= CHECKPOINT_EVERY:
                _checkpoint(cfg, seeds, synthesized)
                accepted_since_checkpoint = 0
        else:
            consecutive_failures += 1
            if consecutive_failures >= cfg.max_consecutive_failures:
                _checkpoint(cfg, seeds, synthesized)
                raise SynthesisAborted(
                    f"aborted after {consecutive_failures} consecutive steps "
                    f"with no accepted command lines "
                    f"({len(synthesized)}/{cfg.target_count} synthesized)",
                    partial=synthesized,
                )
    result = synthesized[: cfg.target_count]
    _checkpoint(cfg, seeds, result)
    return result


@dataclass(frozen=True)
class Reject:
    """One input command whose generation attempt produced nothing usable."""

    command: CommandLine
    reason: str


def _run_per_command(
    commands: Sequence[CommandLine],
    provider,
    prompt_for: Callable[[CommandLine], str],
    read: Callable[[CommandLine, str], object],
    jobs: int,
) -> list[object]:
    """One provider call per command: ``read(command, reply)``, or a
    :class:`Reject` when the call failed (see :func:`_ask`).  ``jobs``
    calls run at once; it must be >= 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    def worker(command: CommandLine):
        response = _ask(provider, prompt_for(command))
        if isinstance(response, GatewayError):
            return Reject(command, f"provider failure: {response}")
        return read(command, response)

    # Results stay in input order regardless of jobs; only the wall-clock
    # interleaving of provider calls changes with jobs > 1.
    if jobs == 1:
        return [worker(c) for c in commands]
    with ThreadPoolExecutor(max_workers=jobs) as executor:
        return list(executor.map(worker, commands))


def generate_pairs(
    commands: Sequence[CommandLine],
    provider,
    *,
    jobs: int = 1,
) -> tuple[list[CommandLinePair], list[Reject]]:
    """Ask the provider for one similar command per input.

    The FIRST extracted command of each response becomes the positive.
    Inputs whose response yields nothing usable (no markers, duplicate
    of the anchor, or a provider failure) are returned in the rejects
    list, never silently dropped.  ``pair_id`` numbers accepted pairs
    sequentially from 0.
    """

    def read(command: CommandLine, response: str):
        candidates = parse_llm_response(
            response, source=Source.PAIR_GENERATED, provenance=getattr(provider, "name", None)
        )
        if not candidates:
            return Reject(command, "response contained no command lines")
        return candidates[0]

    outcomes = _run_per_command(commands, provider, build_pair_prompt, read, jobs)
    pairs: list[CommandLinePair] = []
    rejects: list[Reject] = []
    for command, outcome in zip(commands, outcomes):
        if isinstance(outcome, Reject):
            rejects.append(outcome)
            continue
        try:
            pairs.append(CommandLinePair(anchor=command, positive=outcome, pair_id=len(pairs)))
        except ValueError:
            rejects.append(Reject(command, f"positive duplicates the anchor: {outcome.text!r}"))
    return pairs, rejects


def generate_explanations(
    commands: Sequence[CommandLine],
    provider,
    *,
    jobs: int = 1,
) -> tuple[list[tuple[CommandLine, str]], list[Reject]]:
    """Ask the provider to describe each command line.

    The whole assistant text, trimmed, is the explanation; empty
    responses are rejects.  Order follows the input.
    """

    def read(command: CommandLine, response: str):
        explanation = response.strip()
        if not explanation:
            return Reject(command, "empty explanation")
        return explanation

    outcomes = _run_per_command(commands, provider, build_explanation_prompt, read, jobs)
    explanations: list[tuple[CommandLine, str]] = []
    rejects: list[Reject] = []
    for command, outcome in zip(commands, outcomes):
        if isinstance(outcome, Reject):
            rejects.append(outcome)
        else:
            explanations.append((command, outcome))
    return explanations, rejects
