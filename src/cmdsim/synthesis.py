"""Generation loop for new command lines, similar pairs, and explanations.

The loop follows a grow-the-pool protocol: sample 12 seeds without
replacement from the union of initial seeds and everything synthesized
so far, ask one randomly picked provider for 4 new command lines, keep
the valid non-duplicates, repeat until the target count is reached.
"""

from __future__ import annotations

import collections
import hashlib
import json
import logging
import os
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
# Accepted command lines between two ``synthesized k/target`` progress lines.
PROGRESS_EVERY = 100


# The generation protocol: SEEDS_PER_PROMPT (12) seeds in, at most
# REQUESTED_PER_CALL command lines kept per call.
REQUESTED_PER_CALL = 4


@dataclass(frozen=True)
class SynthesisConfig:
    """Settings for one synthesis run."""

    target_count: int = DEFAULT_TARGET_COUNT
    rng_seed: int = 0
    max_consecutive_failures: int = 20

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


class ReplyJournal:
    """The successful provider replies of one stage, one JSON line each,
    appended to ``path`` as the stage takes them.

    A call's key is (provider name, model, SHA-256 of the prompt, k),
    where k counts the earlier calls of this run with the same first three.
    Prompts follow from the seeded rng and the inputs, so a rerun with the
    same seed, pool, model and inputs asks for the same keys in the same
    order: it takes the journaled replies from here, calls the provider
    for the rest, and writes the bytes of an uninterrupted run.  Failed
    calls are not journaled, so a rerun retries them.  Without a path
    nothing is read or written.  One process may write a journal at a time.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = path
        self.calls = self.replayed = 0
        self._replies: dict[tuple[str, str, str, int], str] = {}
        self._occurrences: collections.Counter[tuple[str, str, str]] = collections.Counter()
        self._handle = None
        if path is None or not os.path.exists(path):
            return
        data = Path(path).read_bytes()
        # Only the last line can be torn, and a torn line has no newline.
        complete = data.rfind(b"\n") + 1
        for lineno, line in enumerate(data[:complete].splitlines(), start=1):
            try:
                record = json.loads(line)
                if not isinstance(record["reply"], str):
                    raise TypeError("reply is not a string")
                key = (record["provider"], record["model"], record["prompt_sha256"], record["k"])
                self._replies[key] = record["reply"]
            except (ValueError, LookupError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: corrupt journal line: {exc}") from exc
        if complete < len(data):
            logger.warning("%s: cutting off what a crash left after byte %d", path, complete)
            os.truncate(path, complete)

    def lookup(self, provider: str, model: str, prompt: str) -> tuple[tuple[str, str, str, int], str | None]:
        """The key of this run's next call of ``prompt`` to ``provider`` and
        ``model``, and its journaled reply, or None when it must be made."""
        base = (provider, model, hashlib.sha256(prompt.encode("utf-8")).hexdigest())
        key = (*base, self._occurrences[base])
        self._occurrences[base] += 1
        reply = self._replies.pop(key, None)
        self.calls += 1
        self.replayed += reply is not None
        return key, reply

    def put(self, key: tuple[str, str, str, int], reply: str) -> None:
        """Append ``key``'s reply and flush it, so that a kill after this keeps it."""
        if self.path is None:
            return
        if self._handle is None:
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8", newline="\n")
        provider, model, digest, k = key
        self._handle.write(json.dumps({"provider": provider, "model": model, "prompt_sha256": digest,
                                       "k": k, "reply": reply}) + "\n")
        self._handle.flush()

    def __enter__(self) -> ReplyJournal:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            self._handle.close()
        logger.info("replayed %d of %d calls from %s", self.replayed, self.calls, self.path)


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
    journal: ReplyJournal | None = None,
) -> list[CommandLine]:
    """Run one generation step; returns the newly accepted command lines.

    The reply comes from ``journal`` when it holds one, else from the
    provider, and then goes into it.  A provider failure (see :func:`_ask`)
    returns an empty list, and the caller's failure counter decides when
    to give up.
    """
    if len(seeds) < SEEDS_PER_PROMPT:
        raise ValueError(
            f"seed pool has {len(seeds)} entries, needs >= {SEEDS_PER_PROMPT}"
        )
    sampled = seeds.sample(rng, SEEDS_PER_PROMPT)
    prompt = build_synthesis_prompt(sampled)
    spec = pick_provider(pool, rng)
    journal = journal if journal is not None else ReplyJournal()
    key, response = journal.lookup(spec.name, spec.model_id, prompt)
    if response is None:
        response = _ask(client_for(spec), prompt)
        if isinstance(response, GatewayError):
            logger.warning("provider %s failed: %s", spec.name, response)
            return []
        journal.put(key, response)
    parsed = parse_llm_response(response, provenance=spec.name)
    accepted: list[CommandLine] = []
    for command in parsed[:REQUESTED_PER_CALL]:
        if seeds.add(command):
            accepted.append(command)
    return accepted


def _checkpoint(cfg: SynthesisConfig, synthesized: list[CommandLine]) -> None:
    """The progress log; perfbench/layers.py times it under this name."""
    logger.info("synthesized %d/%d", len(synthesized), cfg.target_count)


def run_synthesis(
    pool: ProviderPool,
    initial_seeds: Sequence[CommandLine],
    cfg: SynthesisConfig,
    *,
    client_for: Callable[[ProviderSpec], object] = build_client,
    journal: ReplyJournal | None = None,
) -> list[CommandLine]:
    """Generate until ``cfg.target_count`` new command lines exist.

    Returns the synthesized (non-initial) command lines in generation
    order, truncated to exactly the target.  A step that accepts nothing
    counts as a failure; ``cfg.max_consecutive_failures`` such steps in
    a row abort the run with the partial result attached.  Every step's
    call goes through ``journal`` (see :func:`synthesize_step`), so a
    rerun of a killed run replays the replies it took.
    """
    if cfg.target_count == 0:
        return []
    seeds = SeedPool(initial_seeds)
    if len(seeds) < SEEDS_PER_PROMPT:
        raise ValueError(
            f"need >= {SEEDS_PER_PROMPT} distinct initial seeds, got {len(seeds)}"
        )
    journal = journal if journal is not None else ReplyJournal()
    rng = random.Random(cfg.rng_seed)
    synthesized: list[CommandLine] = []
    consecutive_failures = 0
    accepted_since_progress = 0
    while len(synthesized) < cfg.target_count:
        accepted = synthesize_step(pool, seeds, rng, client_for=client_for, journal=journal)
        if accepted:
            synthesized.extend(accepted)
            consecutive_failures = 0
            accepted_since_progress += len(accepted)
            if accepted_since_progress >= PROGRESS_EVERY:
                _checkpoint(cfg, synthesized)
                accepted_since_progress = 0
        else:
            consecutive_failures += 1
            if consecutive_failures >= cfg.max_consecutive_failures:
                _checkpoint(cfg, synthesized)
                raise SynthesisAborted(
                    f"aborted after {consecutive_failures} consecutive steps "
                    f"with no accepted command lines "
                    f"({len(synthesized)}/{cfg.target_count} synthesized)",
                    partial=synthesized,
                )
    result = synthesized[: cfg.target_count]
    _checkpoint(cfg, result)
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
    journal: ReplyJournal | None,
) -> list[object]:
    """One provider call per command: ``read(command, reply)``, or a
    :class:`Reject` when the call failed (see :func:`_ask`).  ``jobs``
    calls run at once; it must be >= 1.  Replies in ``journal`` are taken
    from it, and the others are appended to it."""
    journal = journal if journal is not None else ReplyJournal()
    name, model = getattr(provider, "name", ""), getattr(provider, "model", "")
    prompts = [prompt_for(c) for c in commands]
    looked_up = [journal.lookup(name, model, prompt) for prompt in prompts]

    def call(index: int) -> str | GatewayError:
        reply = looked_up[index][1]
        return _ask(provider, prompts[index]) if reply is None else reply

    # Both maps yield in input order, whatever the jobs; only the wall-clock
    # interleaving of provider calls changes with jobs > 1.  So this thread
    # appends every journal line, and the journal's bytes do not depend on
    # jobs or on thread timing.
    outcomes: list[object] = []
    with ThreadPoolExecutor(max_workers=jobs) as executor:
        replies = (executor.map if jobs > 1 else map)(call, range(len(commands)))
        for command, (key, journaled), reply in zip(commands, looked_up, replies):
            if isinstance(reply, GatewayError):
                outcomes.append(Reject(command, f"provider failure: {reply}"))
                continue
            if journaled is None:
                journal.put(key, reply)
            outcomes.append(read(command, reply))
    return outcomes


def generate_pairs(
    commands: Sequence[CommandLine],
    provider,
    *,
    jobs: int = 1,
    journal: ReplyJournal | None = None,
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

    outcomes = _run_per_command(commands, provider, build_pair_prompt, read, jobs, journal)
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
    journal: ReplyJournal | None = None,
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

    outcomes = _run_per_command(commands, provider, build_explanation_prompt, read, jobs, journal)
    explanations: list[tuple[CommandLine, str]] = []
    rejects: list[Reject] = []
    for command, outcome in zip(commands, outcomes):
        if isinstance(outcome, Reject):
            rejects.append(outcome)
        else:
            explanations.append((command, outcome))
    return explanations, rejects
