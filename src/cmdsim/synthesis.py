"""Generation loop for new command lines, similar pairs, and explanations.

The loop follows a grow-the-pool protocol: sample 12 seeds without
replacement from the union of initial seeds and everything synthesized
so far, ask one randomly picked provider for 4 new command lines, keep
the valid non-duplicates, repeat until the target count is reached.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import logging
import os
import random
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from . import gateway
from .core import CommandLine, CommandLinePair, SeedPool, Source, parse_llm_response
from .gateway import (
    SEEDS_PER_PROMPT,
    ConfigurationError,
    GatewayError,
    ProviderPool,
    ProviderSpec,
    build_explanation_prompt,
    build_pair_prompt,
    build_synthesis_prompt,
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


def _journaled_replies(
    prompts: Sequence[str],
    spec: ProviderSpec,
    jobs: int,
    journal: ReplyJournal | None,
) -> list[str | GatewayError]:
    """Each prompt's reply from ``spec``, in prompt order: from ``journal``
    when it holds one, else from :func:`gateway.complete` and then appended
    to ``journal``.  A provider failure (transport or HTTP, after the
    gateway's retries) stands in for its reply, unjournaled so that a rerun
    retries it; a configuration error propagates, since retrying cannot fix
    it.  ``jobs`` (>= 1) requests are in flight at once; a call waiting out
    a retry backoff does not hold one.
    """
    journal = journal if journal is not None else ReplyJournal()
    looked_up = [journal.lookup(spec.name, spec.model_id, prompt) for prompt in prompts]
    # A call holds a slot while it is on the network.  Its backoff before a
    # retry gives the slot to another call and waits for it again after.
    slots = threading.BoundedSemaphore(jobs)

    def backoff(seconds: float) -> None:
        slots.release()
        try:
            time.sleep(seconds)
        finally:
            slots.acquire()

    def call(index: int) -> str | GatewayError:
        reply = looked_up[index][1]
        if reply is not None:
            return reply
        try:
            with slots:
                # Looked up per call, so that a patched gateway.complete takes effect.
                return gateway.complete(spec, prompts[index], sleep=backoff)
        except ConfigurationError:
            raise
        except GatewayError as exc:
            return exc

    # Both maps yield in prompt order, whatever the jobs; only the wall-clock
    # interleaving of provider calls changes with jobs > 1.  So this thread
    # appends every journal line, and the journal's bytes do not depend on
    # jobs or on thread timing.  The builtin map makes no call after one raises.
    # With 2 * jobs threads, up to jobs calls can back off while jobs others
    # post; the pool does not grow with the prompts or the failures.  With
    # jobs == 1 there is no pool, and concurrent.futures is never loaded.
    replies: list[str | GatewayError] = []
    with contextlib.ExitStack() as stack:
        if jobs > 1:
            from concurrent.futures import ThreadPoolExecutor

            executor = stack.enter_context(ThreadPoolExecutor(max_workers=2 * jobs))
            answers = executor.map(call, range(len(prompts)))
        else:
            answers = map(call, range(len(prompts)))
        for (key, journaled), reply in zip(looked_up, answers):
            if journaled is None and not isinstance(reply, GatewayError):
                journal.put(key, reply)
            replies.append(reply)
    return replies


def synthesize_step(
    pool: ProviderPool,
    seeds: SeedPool,
    rng: random.Random,
    *,
    journal: ReplyJournal | None = None,
) -> list[CommandLine]:
    """Run one generation step; returns the newly accepted command lines.

    It samples the seeds, then picks a provider uniformly from ``pool``,
    both from ``rng``; its one call goes through :func:`_journaled_replies`.
    A provider failure returns an empty list, and the caller's failure
    counter decides when to give up.
    """
    if len(seeds) < SEEDS_PER_PROMPT:
        raise ValueError(
            f"seed pool has {len(seeds)} entries, needs >= {SEEDS_PER_PROMPT}"
        )
    sampled = seeds.sample(rng, SEEDS_PER_PROMPT)
    prompt = build_synthesis_prompt(sampled)
    spec = rng.choice(pool.providers)
    [response] = _journaled_replies([prompt], spec, 1, journal)
    if isinstance(response, GatewayError):
        logger.warning("provider %s failed: %s", spec.name, response)
        return []
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
    rng = random.Random(cfg.rng_seed)
    synthesized: list[CommandLine] = []
    consecutive_failures = 0
    accepted_since_progress = 0
    while len(synthesized) < cfg.target_count:
        accepted = synthesize_step(pool, seeds, rng, journal=journal)
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


def _generate(
    commands: Sequence[CommandLine],
    spec: ProviderSpec,
    prompt_for: Callable[[CommandLine], str],
    read: Callable[[CommandLine, str, int], object],
    jobs: int,
    journal: ReplyJournal | None,
) -> tuple[list, list[Reject]]:
    """One provider call per command, split into results and rejects in input
    order.  ``read(command, reply, n)`` makes the result that follows n others,
    or a :class:`Reject`; a provider failure is a reject."""
    replies = _journaled_replies([prompt_for(c) for c in commands], spec, jobs, journal)
    results: list = []
    rejects: list[Reject] = []
    for command, reply in zip(commands, replies):
        outcome = (Reject(command, f"provider failure: {reply}") if isinstance(reply, GatewayError)
                   else read(command, reply, len(results)))
        (rejects if isinstance(outcome, Reject) else results).append(outcome)
    return results, rejects


def generate_pairs(
    commands: Sequence[CommandLine],
    spec: ProviderSpec,
    *,
    jobs: int = 1,
    journal: ReplyJournal | None = None,
) -> tuple[list[CommandLinePair], list[Reject]]:
    """Ask ``spec``'s provider for one similar command per input.

    The FIRST extracted command of each response becomes the positive.
    Inputs whose response yields nothing usable (no markers, duplicate
    of the anchor, or a provider failure) are returned in the rejects
    list, never silently dropped.  ``pair_id`` numbers accepted pairs
    sequentially from 0.
    """

    def read(command: CommandLine, response: str, pair_id: int):
        candidates = parse_llm_response(
            response, source=Source.PAIR_GENERATED, provenance=spec.name
        )
        if not candidates:
            return Reject(command, "response contained no command lines")
        try:
            return CommandLinePair(anchor=command, positive=candidates[0], pair_id=pair_id)
        except ValueError:
            return Reject(command, f"positive duplicates the anchor: {candidates[0].text!r}")

    return _generate(commands, spec, build_pair_prompt, read, jobs, journal)


def generate_explanations(
    commands: Sequence[CommandLine],
    spec: ProviderSpec,
    *,
    jobs: int = 1,
    journal: ReplyJournal | None = None,
) -> tuple[list[tuple[CommandLine, str]], list[Reject]]:
    """Ask ``spec``'s provider to describe each command line.

    The whole assistant text, trimmed, is the explanation; empty
    responses are rejects.  Order follows the input.
    """

    def read(command: CommandLine, response: str, _: int):
        explanation = response.strip()
        return (command, explanation) if explanation else Reject(command, "empty explanation")

    return _generate(commands, spec, build_explanation_prompt, read, jobs, journal)
