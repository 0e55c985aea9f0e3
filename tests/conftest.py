"""Shared fixtures: mock-vocabulary seed data, provider configs, and CLI
child processes."""

from __future__ import annotations

import functools
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from cmdsim import cli, gateway
from cmdsim.gateway import (
    MOCK_FLAG_SYNONYMS,
    MOCK_TARGETS,
    MOCK_VERB_SYNONYMS,
    _MOCK_TAGS,
)


def mock_vocab_commands(count: int = 12) -> list[str]:
    """Distinct in-vocabulary commands for seeding the mock pipeline."""
    commands = []
    combos = itertools.product(range(6), range(6))
    for i, (v, f) in enumerate(itertools.islice(combos, count)):
        verb = MOCK_VERB_SYNONYMS[v][0]
        flag = MOCK_FLAG_SYNONYMS[f][0]
        target = MOCK_TARGETS[(v + f) % 6]
        tag = _MOCK_TAGS[i % 16]
        commands.append(f"{verb} {flag} {target}{tag}")
    if len(set(commands)) != count:
        raise AssertionError("mock vocabulary too small for requested seed count")
    return commands


def reply(status: int, payload=None, text: str = "") -> tuple[int, bytes]:
    """A finished POST as ``gateway._urlopen_post`` returns it: the JSON of
    ``payload``, or ``text``."""
    return status, (json.dumps(payload) if payload is not None else text).encode()


class ScriptedPost:
    """A stand-in for ``gateway._urlopen_post`` that records each call.

    A list ``script`` is popped one step per call; anything else answers
    every call.  A step is a :func:`reply`, an exception to raise, or a
    callable that takes the request's JSON body and returns a reply.
    """

    def __init__(self, script):
        self.script = script
        self.calls = []

    def __call__(self, url, json, headers, timeout):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        step = self.script.pop(0) if isinstance(self.script, list) else self.script
        if isinstance(step, Exception):
            raise step
        return step(json) if callable(step) else step


@pytest.fixture
def use_post(monkeypatch):
    """Install ``post`` as ``gateway._urlopen_post``, the one attempt behind
    every chat and embeddings request, for one test; returns ``post``."""

    def install(post):
        monkeypatch.setattr(gateway, "_urlopen_post", post)
        return post

    return install


@pytest.fixture
def use_complete(monkeypatch):
    """Install ``fn(spec, prompt) -> reply`` as ``gateway.complete`` for one
    test; every provider stage asks its provider through that name.  The
    keyword arguments a stage passes (``sleep=``) are dropped."""
    return lambda fn: monkeypatch.setattr(gateway, "complete", lambda spec, prompt, **_: fn(spec, prompt))


@pytest.fixture
def seeds_file(tmp_path: Path) -> Path:
    path = tmp_path / "seeds.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for text in mock_vocab_commands(12):
            handle.write(json.dumps({"text": text, "source": "initial_seed"}) + "\n")
    return path


@pytest.fixture
def providers_file(tmp_path: Path) -> Path:
    path = tmp_path / "providers.conf"
    path.write_text(
        "[pool]\nrng_seed = 7\n\n"
        "[mock-a]\nendpoint = mock:\nmodel = alpha\n\n"
        "[mock-b]\nendpoint = mock:\nmodel = beta\n",
        encoding="utf-8",
    )
    return path


def write_jsonl(path: Path, records) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


def cli_env() -> dict[str, str]:
    """Environment for CLI child processes that run in a temp directory:
    the current ``os.environ`` with the PYTHONPATH of :func:`_child_path`."""
    return {**os.environ, "PYTHONPATH": _child_path()}


@functools.cache
def _child_path() -> str:
    """PYTHONPATH for CLI child processes.

    A relative PYTHONPATH entry (``PYTHONPATH=src``) does not resolve from
    the child's ``cwd``, so the ``src`` directory of the cmdsim this suite
    imported goes first, as an absolute path.  One child start, also in a
    temp directory, then checks that the child imports that same cmdsim,
    not an installed or stale copy.
    """
    cli_file = Path(cli.__file__).resolve()
    entries = [str(cli_file.parents[1])]
    if os.environ.get("PYTHONPATH"):
        entries.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}
    with tempfile.TemporaryDirectory() as probe_dir:
        probe = subprocess.run(
            [sys.executable, "-c", "import cmdsim.cli; print(cmdsim.cli.__file__)"],
            cwd=probe_dir,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert probe.returncode == 0, f"child cannot import cmdsim:\n{probe.stderr}"
    child_file = Path(probe.stdout.strip()).resolve()
    assert child_file == cli_file, (
        f"child imports {child_file}, the suite imported {cli_file}"
    )
    return env["PYTHONPATH"]


def outputs_under_blas_threads(workdir: Path, args: list[str], output: str) -> dict[str, bytes]:
    """Run ``python ARGS --output-dir workdir/T`` in ``workdir`` under
    ``OPENBLAS_NUM_THREADS=T``, for T = "1" and "2", and return the bytes
    each run wrote to ``workdir/T/output``, keyed by T.

    ARGS is ``-m cmdsim.cli STAGE ...``, or ``-c CODE`` for a CODE that
    writes into the directory it gets as ``sys.argv[2]``.
    """
    written = {}
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, *args, "--output-dir", str(workdir / threads)],
            cwd=workdir, env={**cli_env(), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        written[threads] = (workdir / threads / output).read_bytes()
    return written


# ``python -c _KILL_BOOTSTRAP KILL_AT ARGV...`` runs ``python -m cmdsim.cli
# ARGV...`` with a MockProvider that sends SIGKILL to its own process at
# call KILL_AT, counted over every thread.
_KILL_BOOTSTRAP = """
import os, runpy, signal, sys, threading
from cmdsim import gateway
kill_at = int(sys.argv.pop(1))
original, calls, lock = gateway.MockProvider.complete, [0], threading.Lock()
def complete(self, prompt):
    with lock:
        calls[0] += 1
        if calls[0] == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
    return original(self, prompt)
gateway.MockProvider.complete = complete
runpy.run_module("cmdsim.cli", run_name="__main__", alter_sys=True)
"""


def run_cli_killed_at(workdir: Path, argv: list[str], kill_at: int) -> subprocess.CompletedProcess:
    """Run the CLI on ``argv`` in a child process in ``workdir`` that dies
    by SIGKILL at its ``kill_at``-th provider call (1-based)."""
    return subprocess.run(
        [sys.executable, "-c", _KILL_BOOTSTRAP, str(kill_at), *argv],
        cwd=workdir,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
