"""Crash-and-rerun checks of the replies journal, ``<out>.replies.jsonl``.

Each provider stage is stopped part-way in one of three ways: SIGKILL of
a ``python -m cmdsim.cli`` child at a seeded provider call, a provider
that raises ConfigurationError after k calls, or a journal whose last
line a crash tore.  The rerun must leave every file of the output
directory, the journal too, byte-equal to an uninterrupted run's, and
call the provider only for the calls the journal does not hold.  This is
the crash-and-check method of Pillai et al., "All File Systems Are Not
Created Equal" (OSDI 2014).

The MockProvider's replies are a pure function of the prompt, so equal
bytes alone would hold even if nothing were replayed: the count of live
calls is what shows the replay.  The repeated input commands give
prompts with occurrence k > 0.
"""

from __future__ import annotations

import logging
import random
import signal
import threading
import time
from pathlib import Path

import pytest

from cmdsim import cli
from cmdsim.gateway import ConfigurationError, MockProvider

from conftest import mock_vocab_commands, run_cli_killed_at, write_jsonl

CASES = [("run", 1), ("pairs", 1), ("pairs", 2), ("explain", 1), ("explain", 2)]
OUTPUTS = {"run": "synthesized.jsonl", "pairs": "pairs.jsonl", "explain": "explanations.jsonl"}


@pytest.fixture
def argv_for(tmp_path, seeds_file, providers_file):
    # Every third command comes twice in a row, so a kill anywhere has
    # journaled both calls of some repeated prompt.
    texts = [text for i, text in enumerate(mock_vocab_commands(24)) for _ in range(1 + (i % 3 == 0))]
    texts.append("whoami /priv")
    commands = write_jsonl(tmp_path / "commands.jsonl", [{"text": text} for text in texts])

    def argv(stage: str, jobs: int, out_dir: Path) -> list[str]:
        if stage == "run":
            inputs = ["--seeds", str(seeds_file), "--target", "60", "--seed", "5"]
        else:
            inputs = ["--in", str(commands), "--jobs", str(jobs)]
        return ["synth", stage, *inputs, "--providers", str(providers_file), "--output-dir", str(out_dir)]

    return argv


def _run(argv: list[str], fail_after: int | None = None) -> tuple[int, int]:
    """``cli.run(argv)`` with the MockProvider counting its calls, and
    raising ConfigurationError on each call after the ``fail_after``-th;
    returns the exit status and the number of calls.  Calls take 0-2 ms
    by prompt, so that with two in flight they finish out of input order."""
    original, calls, lock = MockProvider.complete, [0], threading.Lock()

    def complete(provider, prompt):
        with lock:
            calls[0] += 1
            failing = fail_after is not None and calls[0] > fail_after
        time.sleep(len(prompt) % 3 / 1000)
        if failing:
            raise ConfigurationError("API key revoked")
        return original(provider, prompt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MockProvider, "complete", complete)
        code = cli.run(argv)
    return code, calls[0]


def _files(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def _journal(out_dir: Path, stage: str) -> Path:
    return out_dir / f"{OUTPUTS[stage]}.replies.jsonl"


def _journaled(out_dir: Path, stage: str) -> int:
    path = _journal(out_dir, stage)
    return len(path.read_bytes().splitlines()) if path.exists() else 0


@pytest.fixture
def uninterrupted(tmp_path, argv_for):
    """The files and the provider calls of an uninterrupted run."""

    def run(stage: str, jobs: int) -> tuple[dict[str, bytes], int]:
        out_dir = tmp_path / f"whole-{stage}-{jobs}"
        code, calls = _run(argv_for(stage, jobs, out_dir))
        assert code == 0
        assert _journaled(out_dir, stage) == calls
        return _files(out_dir), calls

    return run


@pytest.mark.parametrize(("stage", "jobs"), CASES)
def test_rerun_after_sigkill_matches_uninterrupted_run(tmp_path, argv_for, uninterrupted, stage, jobs):
    expected, total = uninterrupted(stage, jobs)
    kill_at = random.Random(f"kill/{stage}/{jobs}").randint(3, total - 1)
    out_dir = tmp_path / "killed"
    child = run_cli_killed_at(tmp_path, argv_for(stage, jobs, out_dir), kill_at)
    assert child.returncode == -signal.SIGKILL, child.stderr
    assert list(out_dir.iterdir()) in ([], [_journal(out_dir, stage)])
    journaled = _journaled(out_dir, stage)
    # Serial calls are journaled up to the kill; two in flight may leave the
    # consumer of results a call or two behind.
    assert journaled == kill_at - 1 if jobs == 1 else journaled < kill_at

    code, live = _run(argv_for(stage, jobs, out_dir))
    assert code == 0
    assert _files(out_dir) == expected
    assert live == total - journaled


@pytest.mark.parametrize(("stage", "jobs"), CASES)
def test_rerun_after_configuration_error_matches_uninterrupted_run(tmp_path, argv_for, uninterrupted,
                                                                    capsys, stage, jobs):
    expected, total = uninterrupted(stage, jobs)
    fail_after = random.Random(f"fail/{stage}/{jobs}").randint(2, total - 1)
    out_dir = tmp_path / "failed"
    code, _ = _run(argv_for(stage, jobs, out_dir), fail_after)
    assert code == 1
    assert capsys.readouterr().err == "error: API key revoked\n"
    journaled = _journaled(out_dir, stage)
    assert journaled == fail_after if jobs == 1 else journaled <= fail_after

    code, live = _run(argv_for(stage, jobs, out_dir))
    assert code == 0
    assert _files(out_dir) == expected
    assert live == total - journaled


@pytest.mark.parametrize(("stage", "jobs"), CASES)
def test_rerun_after_torn_last_line_matches_uninterrupted_run(tmp_path, argv_for, uninterrupted, caplog,
                                                              stage, jobs):
    expected, total = uninterrupted(stage, jobs)
    out_dir = tmp_path / "torn"
    out_dir.mkdir()
    journal = _journal(out_dir, stage)
    lines = expected[journal.name].splitlines(keepends=True)
    kept = random.Random(f"torn/{stage}/{jobs}").randint(2, total - 1)
    journal.write_bytes(b"".join(lines[:kept]) + lines[kept][:len(lines[kept]) // 2])

    with caplog.at_level(logging.INFO, logger="cmdsim.synthesis"):
        code, live = _run(argv_for(stage, jobs, out_dir))
    assert code == 0
    assert _files(out_dir) == expected
    assert live == total - kept
    messages = [record.getMessage() for record in caplog.records if record.name == "cmdsim.synthesis"]
    assert f"{journal}: cutting off what a crash left after byte {len(b''.join(lines[:kept]))}" in messages
    assert [m for m in messages if m.startswith("replayed")] == [
        f"replayed {kept} of {total} calls from {journal}"]


@pytest.mark.parametrize("stage", ["pairs", "explain"])
def test_files_do_not_depend_on_jobs(uninterrupted, stage):
    assert uninterrupted(stage, 1)[0] == uninterrupted(stage, 2)[0]


@pytest.mark.parametrize(("stage", "jobs"), CASES)
def test_each_stage_logs_one_replay_line(tmp_path, argv_for, caplog, stage, jobs):
    out_dir = tmp_path / "fresh"
    with caplog.at_level(logging.INFO, logger="cmdsim.synthesis"):
        code, calls = _run(argv_for(stage, jobs, out_dir))
    assert code == 0
    replay_lines = [record.getMessage() for record in caplog.records if record.getMessage().startswith("replayed")]
    assert replay_lines == [f"replayed 0 of {calls} calls from {_journal(out_dir, stage)}"]
    assert "replayed" not in (out_dir / f"{OUTPUTS[stage]}.meta.json").read_text(encoding="utf-8")


def test_corrupt_journal_line_exits_one(tmp_path, argv_for, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    journal = _journal(out_dir, "pairs")
    journal.write_text("{not json}\n", encoding="utf-8")
    code, calls = _run(argv_for("pairs", 1, out_dir))
    assert (code, calls) == (1, 0)
    assert capsys.readouterr().err.startswith(f"error: {journal}:1: corrupt journal line: ")
