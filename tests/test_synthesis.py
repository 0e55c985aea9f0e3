"""The generation loop: sampling protocol, dedup, abort, replies journal."""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import time

import pytest
from conftest import reply

from cmdsim import gateway
from cmdsim.core import CommandLine, SeedPool, Source
from cmdsim.gateway import (
    ConfigurationError,
    MockProvider,
    ProviderError,
    ProviderSpec,
    TransportError,
)
from cmdsim.synthesis import (
    Reject,
    _journaled_replies,
    ReplyJournal,
    SynthesisAborted,
    SynthesisConfig,
    generate_explanations,
    generate_pairs,
    run_synthesis,
    synthesize_step,
)

# The deterministic mock provider, as a one-provider stage uses it.
MOCK = ProviderSpec(name="mock", endpoint="mock:", model_id="m")


def make_pool(count: int = 1) -> tuple[ProviderSpec, ...]:
    return tuple(ProviderSpec(name=f"mock-{i}", endpoint="mock:", model_id=f"salt-{i}") for i in range(count))


def make_seeds(count: int) -> list[CommandLine]:
    return [CommandLine(f"seed-cmd-{i:03d}", source=Source.INITIAL_SEED) for i in range(count)]


def scripted(responses, prompts=None):
    """A ``complete`` that returns canned responses in order and repeats the
    last one forever, raising it when it is an exception; each prompt is
    appended to ``prompts`` when given."""
    responses = list(responses)

    def complete(spec, prompt):
        if prompts is not None:
            prompts.append(prompt)
        if len(responses) > 1:
            return responses.pop(0)
        if isinstance(responses[0], Exception):
            raise responses[0]
        return responses[0]

    return complete


def failing(error):
    """A ``complete`` that raises ``error`` on every call."""

    def complete(spec, prompt):
        raise error

    return complete


def fresh():
    """A ``complete`` whose every reply is four commands never seen before."""
    counter = [0]

    def complete(spec, prompt):
        counter[0] += 4
        return "\n".join(f"<CMD>generated-{counter[0] - k:05d}" for k in range(4))

    return complete


class TestSynthesisConfig:
    def test_target_bounds(self):
        with pytest.raises(ValueError):
            SynthesisConfig(target_count=-1)
        assert SynthesisConfig(target_count=0).target_count == 0


class TestSynthesizeStep:
    def test_samples_twelve_and_accepts_four(self, use_complete):
        prompts = []
        use_complete(scripted(["\n".join(f"<CMD>new-cmd-{i}" for i in range(4))], prompts))
        seeds = SeedPool(make_seeds(12))
        accepted = synthesize_step(make_pool(), seeds, random.Random(0))
        assert [c.text for c in accepted] == [f"new-cmd-{i}" for i in range(4)]
        assert len(seeds) == 16
        numbered = re.findall(r"^\d+\. ", prompts[0], flags=re.M)
        assert len(numbered) == 12

    def test_excess_commands_truncated(self, use_complete):
        use_complete(scripted(["\n".join(f"<CMD>new-cmd-{i}" for i in range(7))]))
        seeds = SeedPool(make_seeds(12))
        accepted = synthesize_step(make_pool(), seeds, random.Random(0))
        assert len(accepted) == 4

    def test_duplicates_not_accepted(self, use_complete):
        use_complete(scripted(["<CMD>seed-cmd-000\n<CMD>SEED-CMD-001\n<CMD>brand-new"]))
        seeds = SeedPool(make_seeds(12))
        accepted = synthesize_step(make_pool(), seeds, random.Random(0))
        assert [c.text for c in accepted] == ["brand-new"]

    def test_provider_failure_returns_empty(self, use_complete):
        use_complete(failing(TransportError("down")))
        seeds = SeedPool(make_seeds(12))
        accepted = synthesize_step(make_pool(), seeds, random.Random(0))
        assert accepted == []

    def test_configuration_error_propagates(self, use_complete):
        use_complete(failing(ConfigurationError("no key")))
        seeds = SeedPool(make_seeds(12))
        with pytest.raises(ConfigurationError):
            synthesize_step(make_pool(), seeds, random.Random(0))

    def test_small_pool_rejected(self, use_complete):
        use_complete(scripted(["x"]))
        with pytest.raises(ValueError, match="needs >= 12"):
            synthesize_step(make_pool(), SeedPool(make_seeds(11)), random.Random(0))


class TestRunSynthesis:
    def test_reaches_exact_target(self, use_complete):
        use_complete(fresh())
        result = run_synthesis(make_pool(), make_seeds(12), SynthesisConfig(target_count=10))
        assert len(result) == 10
        assert len({c.text for c in result}) == 10

    def test_target_zero(self, use_complete):
        use_complete(failing(TransportError("never called")))
        result = run_synthesis(make_pool(), make_seeds(12), SynthesisConfig(target_count=0))
        assert result == []

    def test_requires_twelve_distinct_seeds(self, use_complete):
        use_complete(scripted(["<CMD>whatever"]))
        seeds = make_seeds(11) + [CommandLine("SEED-CMD-000")]
        with pytest.raises(ValueError, match="distinct initial seeds"):
            run_synthesis(make_pool(), seeds, SynthesisConfig(target_count=4))

    def test_abort_after_consecutive_failures(self, use_complete):
        responses = ["<CMD>only-one-accept"] + ["no markers here"] * 10
        use_complete(scripted(responses + ["no markers here"]))
        cfg = SynthesisConfig(target_count=50, max_consecutive_failures=3)
        with pytest.raises(SynthesisAborted) as excinfo:
            run_synthesis(make_pool(), make_seeds(12), cfg)
        assert [c.text for c in excinfo.value.partial] == ["only-one-accept"]

    def test_success_resets_failure_counter(self, use_complete):
        # fail, fail, succeed, fail, fail, succeed ... max_failures=3 never hit
        script = []
        for i in range(6):
            script += ["junk", "junk", f"<CMD>fresh-{i}\n<CMD>fresh-{i}-b"]
        use_complete(scripted(script + ["<CMD>tail-1\n<CMD>tail-2"]))
        cfg = SynthesisConfig(target_count=12, max_consecutive_failures=3)
        result = run_synthesis(make_pool(), make_seeds(12), cfg)
        assert len(result) == 12

    def test_rerun_with_higher_target_replays_the_journal(self, tmp_path, monkeypatch):
        path = tmp_path / "synthesized.jsonl.replies.jsonl"
        with ReplyJournal(path) as journal:
            first = run_synthesis(make_pool(2), make_seeds(12), SynthesisConfig(target_count=6, rng_seed=3),
                                  journal=journal)
        journaled = len(path.read_text(encoding="utf-8").splitlines())
        assert journaled == journal.calls

        live = []
        original = MockProvider.complete

        def complete(provider, prompt):
            live.append(provider.salt)
            return original(provider, prompt)

        cfg_more = SynthesisConfig(target_count=10, rng_seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(MockProvider, "complete", complete)
            with ReplyJournal(path) as journal:
                more = run_synthesis(make_pool(2), make_seeds(12), cfg_more, journal=journal)
        assert [c.text for c in more[:6]] == [c.text for c in first]
        assert more == run_synthesis(make_pool(2), make_seeds(12), cfg_more)
        assert journal.replayed == journaled
        assert len(live) == journal.calls - journaled > 0

    def test_deterministic_with_mock_pool(self):
        def run_once():
            return run_synthesis(
                make_pool(3), make_seeds(12), SynthesisConfig(target_count=30, rng_seed=4)
            )

        first = run_once()
        second = run_once()
        assert [c.text for c in first] == [c.text for c in second]
        assert [c.provenance for c in first] == [c.provenance for c in second]

    def test_mock_provenance_recorded(self):
        result = run_synthesis(
            make_pool(2), make_seeds(12), SynthesisConfig(target_count=8, rng_seed=1)
        )
        assert all(c.source is Source.LLM_SYNTHESIZED for c in result)
        assert all(c.provenance in {"mock-0", "mock-1"} for c in result)

    def test_progress_logged_at_each_checkpoint(self, caplog, use_complete):
        use_complete(fresh())
        with caplog.at_level("INFO", logger="cmdsim.synthesis"):
            run_synthesis(make_pool(), make_seeds(12), SynthesisConfig(target_count=250))
        progress = [r.getMessage() for r in caplog.records if r.getMessage().startswith("synthesized")]
        assert progress == ["synthesized 100/250", "synthesized 200/250", "synthesized 250/250"]


class TestGeneratePairs:
    def test_happy_path(self):
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(5)]
        pairs, rejects = generate_pairs(commands, MOCK)
        assert len(pairs) == 5
        assert rejects == []
        assert [p.pair_id for p in pairs] == [0, 1, 2, 3, 4]
        for pair, command in zip(pairs, commands):
            assert pair.anchor == command
            assert pair.positive.source is Source.PAIR_GENERATED
            assert pair.positive.provenance == "mock"

    def test_first_candidate_wins(self, use_complete):
        use_complete(lambda spec, prompt: "<CMD>first-pick\n<CMD>second-pick")
        pairs, rejects = generate_pairs([CommandLine("auditpol /get")], MOCK)
        assert pairs[0].positive.text == "first-pick"

    def test_no_markers_rejected(self, use_complete):
        use_complete(lambda spec, prompt: "I cannot help with that.")
        pairs, rejects = generate_pairs([CommandLine("auditpol /get")], MOCK)
        assert pairs == []
        assert rejects[0].reason == "response contained no command lines"

    def test_duplicate_of_anchor_rejected(self, use_complete):
        use_complete(lambda spec, prompt: "<CMD>AUDITPOL  /GET")
        pairs, rejects = generate_pairs([CommandLine("auditpol /get")], MOCK)
        assert pairs == []
        assert "duplicates the anchor" in rejects[0].reason

    def test_provider_failure_rejected_not_fatal(self, use_complete):
        use_complete(failing(ProviderError("HTTP 500")))
        pairs, rejects = generate_pairs([CommandLine("auditpol /get")], MOCK)
        assert pairs == []
        assert rejects[0].reason.startswith("provider failure")

    def test_configuration_error_fatal(self, use_complete):
        use_complete(failing(ConfigurationError("no key")))
        with pytest.raises(ConfigurationError):
            generate_pairs([CommandLine("auditpol /get")], MOCK)

    def test_pair_ids_skip_rejects(self, use_complete):
        def complete(spec, prompt):
            if "cmd-01" in prompt:
                return "no markers"
            query = prompt.split("\n")[4]  # the substituted command line
            return f"<CMD>twin of {query}"

        use_complete(complete)
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(3)]
        pairs, rejects = generate_pairs(commands, MOCK)
        assert [p.pair_id for p in pairs] == [0, 1]
        assert len(rejects) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rejects_and_pair_ids_keep_input_order(self, jobs, use_complete):
        def complete(spec, prompt):
            query = prompt.split("\n")[4]  # the substituted command line
            if query in ("cmd-02", "cmd-05"):
                raise TransportError(f"provider p: {query} timed out")
            if query == "cmd-04":
                return "no markers"
            if query in ("cmd-01", "cmd-06"):
                return f"<CMD>{query.upper()}"
            return f"<CMD>twin of {query}"

        use_complete(complete)
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(8)]
        pairs, rejects = generate_pairs(commands, MOCK, jobs=jobs)
        assert [(p.anchor.text, p.pair_id) for p in pairs] == [("cmd-00", 0), ("cmd-03", 1), ("cmd-07", 2)]
        assert [(r.command.text, r.reason) for r in rejects] == [
            ("cmd-01", "positive duplicates the anchor: 'CMD-01'"),
            ("cmd-02", "provider failure: provider p: cmd-02 timed out"),
            ("cmd-04", "response contained no command lines"),
            ("cmd-05", "provider failure: provider p: cmd-05 timed out"),
            ("cmd-06", "positive duplicates the anchor: 'CMD-06'"),
        ]

    def test_jobs_do_not_change_results(self):
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(12)]
        serial_pairs, serial_rejects = generate_pairs(commands, MOCK, jobs=1)
        threaded_pairs, threaded_rejects = generate_pairs(commands, MOCK, jobs=4)
        assert [(p.anchor.text, p.positive.text, p.pair_id) for p in serial_pairs] == [
            (p.anchor.text, p.positive.text, p.pair_id) for p in threaded_pairs
        ]
        assert len(serial_rejects) == len(threaded_rejects)


class TestGenerateExplanations:
    def test_happy_path(self):
        commands = [CommandLine("copy /aa c:\\srv\\alpha0"), CommandLine("whoami /priv")]
        explanations, rejects = generate_explanations(commands, MOCK)
        assert rejects == []
        assert len(explanations) == 2
        assert explanations[0][0] == commands[0]
        assert "c:\\srv\\alpha" in explanations[0][1]

    def test_whitespace_only_rejected(self, use_complete):
        use_complete(lambda spec, prompt: "   \n  ")
        explanations, rejects = generate_explanations([CommandLine("whoami")], MOCK)
        assert explanations == []
        assert rejects[0].reason == "empty explanation"

    def test_response_trimmed(self, use_complete):
        use_complete(lambda spec, prompt: "  Lists users.  \n")
        explanations, _ = generate_explanations([CommandLine("net user")], MOCK)
        assert explanations[0][1] == "Lists users."

    def test_provider_failure_rejected_not_fatal(self, use_complete):
        use_complete(failing(TransportError("provider p1: down")))
        explanations, rejects = generate_explanations([CommandLine("whoami")], MOCK)
        assert explanations == []
        assert rejects[0].reason == "provider failure: provider p1: down"

    def test_configuration_error_fatal(self, use_complete):
        use_complete(failing(ConfigurationError("no key")))
        with pytest.raises(ConfigurationError):
            generate_explanations([CommandLine("whoami")], MOCK)

    def test_jobs_preserve_order(self):
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(10)]
        serial, _ = generate_explanations(commands, MOCK, jobs=1)
        threaded, _ = generate_explanations(commands, MOCK, jobs=3)
        assert serial == threaded


# A provider behind HTTP; its tests patch gateway._urlopen_post, so nothing is sent.
HTTP = ProviderSpec(name="local", endpoint="http://127.0.0.1:9/v1", model_id="m")


def completion(text: str) -> tuple[int, bytes]:
    return reply(200, {"choices": [{"message": {"content": text}}]})


def prompt_of(body: dict) -> str:
    return body["messages"][0]["content"]


class TestJobSlots:
    """``jobs`` requests in flight at once; a call backing off holds none."""

    def test_a_call_backing_off_gives_its_slot_to_another(self, monkeypatch):
        # The first post of the stage is refused with a 503.  While its call
        # waits out the backoff, the other two commands' posts must be in
        # flight together, which the barrier needs to let either through.
        barrier, met, lock = threading.Barrier(2, timeout=10), threading.Event(), threading.Lock()
        refused, retried_after_meeting = [], []

        def post(url, json, headers, timeout):
            prompt = prompt_of(json)
            with lock:
                first = not refused
                refused.extend([prompt] if first else [])
            if first:
                return reply(503, text="busy")
            if prompt == refused[0]:
                retried_after_meeting.append(met.is_set())
            else:
                barrier.wait()
                met.set()
            return completion("Explained.")

        monkeypatch.setattr(gateway, "_urlopen_post", post)
        monkeypatch.setattr(time, "sleep", lambda seconds: met.wait(10))
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(3)]
        explanations, rejects = generate_explanations(commands, HTTP, jobs=2)
        assert (len(explanations), rejects, retried_after_meeting) == (3, [], [True])

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_no_more_than_jobs_posts_in_flight(self, monkeypatch, jobs):
        lock, seen = threading.Lock(), set()
        in_flight = most = 0

        def post(url, json, headers, timeout):
            nonlocal in_flight, most
            prompt = prompt_of(json)
            with lock:
                in_flight += 1
                most = max(most, in_flight)
                first = prompt not in seen
                seen.add(prompt)
            try:
                threading.Event().wait(0.002)  # the time on the network
                return reply(503, text="busy") if first else completion(f"Explains {prompt[-8:]}")
            finally:
                with lock:
                    in_flight -= 1

        monkeypatch.setattr(gateway, "_urlopen_post", post)
        monkeypatch.setattr(time, "sleep", lambda seconds: threading.Event().wait(seconds / 100))
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(24)]
        explanations, rejects = generate_explanations(commands, HTTP, jobs=jobs)
        assert (len(explanations), rejects, len(seen)) == (24, [], 24)
        assert 1 <= most <= jobs

    def test_replies_and_journal_bytes_do_not_depend_on_jobs(self, tmp_path, monkeypatch):
        # alpha00 and every third command after it are refused once; alpha04
        # is refused on every attempt, so it ends as a provider failure.
        lock, attempts = threading.Lock(), {}

        def post(url, json, headers, timeout):
            prompt = prompt_of(json)
            with lock:
                attempts[prompt] = attempts.get(prompt, 0) + 1
                attempt = attempts[prompt]
            refused = "alpha04" in prompt or (attempt == 1 and int(prompt.split("\n")[4][-2:]) % 3 == 0)
            return reply(503, text="busy") if refused else completion(MockProvider().complete(prompt))

        monkeypatch.setattr(gateway, "_urlopen_post", post)
        monkeypatch.setattr(time, "sleep", lambda seconds: threading.Event().wait(seconds / 100))
        commands = [CommandLine(f"copy /aa c:\\srv\\alpha{i:02d}") for i in range(10)]
        runs = []
        for jobs in (1, 2):
            attempts.clear()
            path = tmp_path / f"jobs{jobs}.replies.jsonl"
            with ReplyJournal(path) as journal:
                pairs, rejects = generate_pairs(commands, HTTP, jobs=jobs, journal=journal)
            runs.append((pairs, [(r.command, r.reason) for r in rejects], path.read_bytes()))
        assert runs[0] == runs[1]
        assert [r[0].text for r in runs[0][1]] == [commands[4].text]
        assert len(runs[0][2].splitlines()) == 9

    def test_configuration_error_leaves_no_thread_behind(self, monkeypatch):
        lock, seen = threading.Lock(), set()

        def post(url, json, headers, timeout):
            prompt = prompt_of(json)
            if "cmd-05" in prompt:
                raise gateway.ConfigurationError("cannot send a request")
            with lock:
                first = prompt not in seen
                seen.add(prompt)
            return reply(503, text="busy") if first else completion("Explained.")

        monkeypatch.setattr(gateway, "_urlopen_post", post)
        monkeypatch.setattr(time, "sleep", lambda seconds: threading.Event().wait(seconds / 100))
        before = threading.active_count()
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(12)]
        with pytest.raises(ConfigurationError, match="cannot send a request"):
            generate_explanations(commands, HTTP, jobs=2)
        assert threading.active_count() == before

    def test_worker_threads_do_not_grow_with_prompts_or_retries(self, monkeypatch):
        # 1,000 prompts, each refused once: the pool stays at 2 * jobs threads,
        # and with a short switch interval no more than jobs posts overlap.
        jobs, lock, seen, workers = 4, threading.Lock(), set(), set()
        before = threading.active_count()
        most_threads = in_flight = most_in_flight = 0

        def post(url, json, headers, timeout):
            nonlocal most_threads, in_flight, most_in_flight
            prompt = prompt_of(json)
            with lock:
                most_threads = max(most_threads, threading.active_count() - before)
                workers.add(threading.get_ident())
                in_flight += 1
                most_in_flight = max(most_in_flight, in_flight)
                first = prompt not in seen
                seen.add(prompt)
            answer = reply(503, text="busy") if first else completion("Explained.")
            with lock:
                in_flight -= 1
            return answer

        monkeypatch.setattr(gateway, "_urlopen_post", post)
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            replies = _journaled_replies([f"prompt {i}" for i in range(1000)], HTTP, jobs, None)
        finally:
            sys.setswitchinterval(interval)
        assert replies == ["Explained."] * 1000
        assert len(seen) == 1000
        assert most_threads <= 2 * jobs
        assert len(workers) <= 2 * jobs
        assert 1 <= most_in_flight <= jobs


class TestReject:
    def test_fields(self):
        reject = Reject(CommandLine("whoami"), "why not")
        assert reject.command.text == "whoami"
        assert reject.reason == "why not"


FLAKY = ProviderSpec(name="flaky", endpoint="mock:", model_id="m")


def flaky(texts, calls):
    """A ``complete`` giving mock replies, except that the first call for each
    prompt holding one of ``texts`` raises a transport error; each call's
    prompt is appended to ``calls``."""
    pending = set(texts)

    def complete(spec, prompt):
        calls.append(prompt)
        for text in list(pending):
            if text in prompt:
                pending.discard(text)
                raise TransportError(f"provider flaky: {text} timed out")
        return MockProvider().complete(prompt)

    return complete


class TestReplyJournal:
    def test_failed_calls_are_not_journaled_and_a_rerun_retries_them(self, tmp_path, use_complete):
        path = tmp_path / "pairs.jsonl.replies.jsonl"
        commands = [CommandLine(f"copy /aa c:\\srv\\alpha{i}") for i in range(4)]
        use_complete(flaky(["alpha1"], []))
        with ReplyJournal(path) as journal:
            pairs, rejects = generate_pairs(commands, FLAKY, journal=journal)
        assert [r.command.text for r in rejects] == [commands[1].text]
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

        calls = []
        use_complete(flaky([], calls))
        with ReplyJournal(path) as journal:
            pairs, rejects = generate_pairs(commands, FLAKY, journal=journal)
        assert (len(calls), journal.replayed, len(pairs), rejects) == (1, 3, 4, [])
        assert [p.positive.text for p in pairs] == [
            p.positive.text for p in generate_pairs(commands, MOCK)[0]]

    def test_repeated_prompts_get_their_own_occurrence(self, tmp_path, use_complete):
        path = tmp_path / "explanations.jsonl.replies.jsonl"
        commands = [CommandLine("whoami"), CommandLine("net user"), CommandLine("whoami")]
        use_complete(flaky([], []))
        with ReplyJournal(path) as journal:
            generate_explanations(commands, FLAKY, journal=journal)
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [(r["provider"], r["model"], r["k"]) for r in records] == [
            ("flaky", "m", 0), ("flaky", "m", 0), ("flaky", "m", 1)]
        assert records[0]["prompt_sha256"] == records[2]["prompt_sha256"] != records[1]["prompt_sha256"]

    @pytest.mark.parametrize("line", [b"not json", b"[]", b'{"provider": "p"}',
                                      b'{"provider": "p", "model": "m", "prompt_sha256": "0", "k": 0, "reply": 1}'])
    def test_corrupt_complete_line_names_its_place(self, tmp_path, line):
        path = tmp_path / "journal.jsonl"
        good = json.dumps({"provider": "p", "model": "m", "prompt_sha256": "0", "k": 0, "reply": "r"})
        path.write_bytes(good.encode() + b"\n" + line + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: corrupt journal line"):
            ReplyJournal(path)
