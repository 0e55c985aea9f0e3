"""The generation loop: sampling protocol, dedup, abort, replies journal."""

from __future__ import annotations

import json
import random
import re

import pytest

from cmdsim.core import CommandLine, SeedPool, Source
from cmdsim.gateway import (
    ConfigurationError,
    MockProvider,
    ProviderError,
    ProviderPool,
    ProviderSpec,
    TransportError,
    build_client,
)
from cmdsim.synthesis import (
    Reject,
    ReplyJournal,
    SynthesisAborted,
    SynthesisConfig,
    generate_explanations,
    generate_pairs,
    run_synthesis,
    synthesize_step,
)


def make_pool(count: int = 1) -> ProviderPool:
    return ProviderPool(
        providers=tuple(
            ProviderSpec(name=f"mock-{i}", endpoint="mock:", model_id=f"salt-{i}")
            for i in range(count)
        )
    )


def make_seeds(count: int) -> list[CommandLine]:
    return [CommandLine(f"seed-cmd-{i:03d}", source=Source.INITIAL_SEED) for i in range(count)]


class ScriptedClient:
    """Returns canned responses in order; repeats the last one forever."""

    name = "scripted"

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if len(self.responses) > 1:
            return self.responses.pop(0)
        if isinstance(self.responses[0], Exception):
            raise self.responses[0]
        return self.responses[0]


class FailingClient:
    name = "failing"

    def __init__(self, error):
        self.error = error

    def complete(self, prompt: str) -> str:
        raise self.error


class TestSynthesisConfig:
    def test_target_bounds(self):
        with pytest.raises(ValueError):
            SynthesisConfig(target_count=-1)
        assert SynthesisConfig(target_count=0).target_count == 0


class TestSynthesizeStep:
    def test_samples_twelve_and_accepts_four(self):
        client = ScriptedClient(["\n".join(f"<CMD>new-cmd-{i}" for i in range(4))])
        seeds = SeedPool(make_seeds(12))
        accepted = synthesize_step(
            make_pool(), seeds, random.Random(0),
            client_for=lambda spec: client,
        )
        assert [c.text for c in accepted] == [f"new-cmd-{i}" for i in range(4)]
        assert len(seeds) == 16
        numbered = re.findall(r"^\d+\. ", client.prompts[0], flags=re.M)
        assert len(numbered) == 12

    def test_excess_commands_truncated(self):
        client = ScriptedClient(["\n".join(f"<CMD>new-cmd-{i}" for i in range(7))])
        seeds = SeedPool(make_seeds(12))
        accepted = synthesize_step(
            make_pool(), seeds, random.Random(0),
            client_for=lambda spec: client,
        )
        assert len(accepted) == 4

    def test_duplicates_not_accepted(self):
        client = ScriptedClient(["<CMD>seed-cmd-000\n<CMD>SEED-CMD-001\n<CMD>brand-new"])
        seeds = SeedPool(make_seeds(12))
        accepted = synthesize_step(
            make_pool(), seeds, random.Random(0),
            client_for=lambda spec: client,
        )
        assert [c.text for c in accepted] == ["brand-new"]

    def test_provider_failure_returns_empty(self):
        client = FailingClient(TransportError("down"))
        seeds = SeedPool(make_seeds(12))
        accepted = synthesize_step(
            make_pool(), seeds, random.Random(0),
            client_for=lambda spec: client,
        )
        assert accepted == []

    def test_configuration_error_propagates(self):
        client = FailingClient(ConfigurationError("no key"))
        seeds = SeedPool(make_seeds(12))
        with pytest.raises(ConfigurationError):
            synthesize_step(
                make_pool(), seeds, random.Random(0),
                client_for=lambda spec: client,
            )

    def test_small_pool_rejected(self):
        with pytest.raises(ValueError, match="needs >= 12"):
            synthesize_step(
                make_pool(), SeedPool(make_seeds(11)), random.Random(0),
                client_for=lambda spec: ScriptedClient(["x"]),
            )


class TestRunSynthesis:
    def test_reaches_exact_target(self, seeds_file, tmp_path):
        counter = [0]

        class Fresh:
            name = "fresh"

            def complete(self, prompt):
                lines = []
                for _ in range(4):
                    counter[0] += 1
                    lines.append(f"<CMD>generated-{counter[0]:05d}")
                return "\n".join(lines)

        result = run_synthesis(
            make_pool(), make_seeds(12), SynthesisConfig(target_count=10),
            client_for=lambda spec: Fresh(),
        )
        assert len(result) == 10
        assert len({c.text for c in result}) == 10

    def test_target_zero(self):
        result = run_synthesis(
            make_pool(), make_seeds(12), SynthesisConfig(target_count=0),
            client_for=lambda spec: FailingClient(TransportError("never called")),
        )
        assert result == []

    def test_requires_twelve_distinct_seeds(self):
        seeds = make_seeds(11) + [CommandLine("SEED-CMD-000")]
        with pytest.raises(ValueError, match="distinct initial seeds"):
            run_synthesis(
                make_pool(), seeds, SynthesisConfig(target_count=4),
                client_for=lambda spec: ScriptedClient(["<CMD>whatever"]),
            )

    def test_abort_after_consecutive_failures(self):
        responses = ["<CMD>only-one-accept"] + ["no markers here"] * 10
        client = ScriptedClient(responses + ["no markers here"])
        cfg = SynthesisConfig(target_count=50, max_consecutive_failures=3)
        with pytest.raises(SynthesisAborted) as excinfo:
            run_synthesis(make_pool(), make_seeds(12), cfg, client_for=lambda spec: client)
        assert [c.text for c in excinfo.value.partial] == ["only-one-accept"]

    def test_success_resets_failure_counter(self):
        # fail, fail, succeed, fail, fail, succeed ... max_failures=3 never hit
        script = []
        for i in range(6):
            script += ["junk", "junk", f"<CMD>fresh-{i}\n<CMD>fresh-{i}-b"]
        client = ScriptedClient(script + ["<CMD>tail-1\n<CMD>tail-2"])
        cfg = SynthesisConfig(target_count=12, max_consecutive_failures=3)
        result = run_synthesis(make_pool(), make_seeds(12), cfg, client_for=lambda spec: client)
        assert len(result) == 12

    def test_rerun_with_higher_target_replays_the_journal(self, tmp_path):
        path = tmp_path / "synthesized.jsonl.replies.jsonl"
        with ReplyJournal(path) as journal:
            first = run_synthesis(make_pool(2), make_seeds(12), SynthesisConfig(target_count=6, rng_seed=3),
                                  journal=journal)
        journaled = len(path.read_text(encoding="utf-8").splitlines())
        assert journaled == journal.calls

        live = []

        def client_for(spec):
            live.append(spec.name)
            return build_client(spec)

        cfg_more = SynthesisConfig(target_count=10, rng_seed=3)
        with ReplyJournal(path) as journal:
            more = run_synthesis(make_pool(2), make_seeds(12), cfg_more, client_for=client_for, journal=journal)
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

    def test_progress_logged_at_each_checkpoint(self, caplog):
        counter = [0]

        class Fresh:
            def complete(self, prompt):
                counter[0] += 4
                return "\n".join(f"<CMD>generated-{counter[0] - k:05d}" for k in range(4))

        with caplog.at_level("INFO", logger="cmdsim.synthesis"):
            run_synthesis(
                make_pool(), make_seeds(12), SynthesisConfig(target_count=250),
                client_for=lambda spec: Fresh(),
            )
        progress = [r.getMessage() for r in caplog.records if r.getMessage().startswith("synthesized")]
        assert progress == ["synthesized 100/250", "synthesized 200/250", "synthesized 250/250"]


class PairClient:
    """Deterministic similar-command responder with scriptable quirks."""

    name = "pair-client"

    def __init__(self, behavior):
        self.behavior = behavior

    def complete(self, prompt: str) -> str:
        return self.behavior(prompt)


class TestGeneratePairs:
    def test_happy_path(self):
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(5)]
        provider = MockProvider()
        pairs, rejects = generate_pairs(commands, provider)
        assert len(pairs) == 5
        assert rejects == []
        assert [p.pair_id for p in pairs] == [0, 1, 2, 3, 4]
        for pair, command in zip(pairs, commands):
            assert pair.anchor == command
            assert pair.positive.source is Source.PAIR_GENERATED
            assert pair.positive.provenance == "mock"

    def test_first_candidate_wins(self):
        provider = PairClient(lambda prompt: "<CMD>first-pick\n<CMD>second-pick")
        pairs, rejects = generate_pairs([CommandLine("auditpol /get")], provider)
        assert pairs[0].positive.text == "first-pick"

    def test_no_markers_rejected(self):
        provider = PairClient(lambda prompt: "I cannot help with that.")
        pairs, rejects = generate_pairs([CommandLine("auditpol /get")], provider)
        assert pairs == []
        assert rejects[0].reason == "response contained no command lines"

    def test_duplicate_of_anchor_rejected(self):
        provider = PairClient(lambda prompt: "<CMD>AUDITPOL  /GET")
        pairs, rejects = generate_pairs([CommandLine("auditpol /get")], provider)
        assert pairs == []
        assert "duplicates the anchor" in rejects[0].reason

    def test_provider_failure_rejected_not_fatal(self):
        provider = FailingClient(ProviderError("HTTP 500", status=500, body=""))
        pairs, rejects = generate_pairs([CommandLine("auditpol /get")], provider)
        assert pairs == []
        assert rejects[0].reason.startswith("provider failure")

    def test_configuration_error_fatal(self):
        provider = FailingClient(ConfigurationError("no key"))
        with pytest.raises(ConfigurationError):
            generate_pairs([CommandLine("auditpol /get")], provider)

    def test_pair_ids_skip_rejects(self):
        def behavior(prompt):
            if "cmd-01" in prompt:
                return "no markers"
            query = prompt.split("\n")[4]  # the substituted command line
            return f"<CMD>twin of {query}"

        commands = [CommandLine(f"cmd-{i:02d}") for i in range(3)]
        pairs, rejects = generate_pairs(commands, PairClient(behavior))
        assert [p.pair_id for p in pairs] == [0, 1]
        assert len(rejects) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rejects_and_pair_ids_keep_input_order(self, jobs):
        def behavior(prompt):
            query = prompt.split("\n")[4]  # the substituted command line
            if query in ("cmd-02", "cmd-05"):
                raise TransportError(f"provider p: {query} timed out")
            if query == "cmd-04":
                return "no markers"
            if query in ("cmd-01", "cmd-06"):
                return f"<CMD>{query.upper()}"
            return f"<CMD>twin of {query}"

        commands = [CommandLine(f"cmd-{i:02d}") for i in range(8)]
        pairs, rejects = generate_pairs(commands, PairClient(behavior), jobs=jobs)
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
        provider = MockProvider()
        serial_pairs, serial_rejects = generate_pairs(commands, provider, jobs=1)
        threaded_pairs, threaded_rejects = generate_pairs(commands, provider, jobs=4)
        assert [(p.anchor.text, p.positive.text, p.pair_id) for p in serial_pairs] == [
            (p.anchor.text, p.positive.text, p.pair_id) for p in threaded_pairs
        ]
        assert len(serial_rejects) == len(threaded_rejects)


class TestGenerateExplanations:
    def test_happy_path(self):
        commands = [CommandLine("copy /aa c:\\srv\\alpha0"), CommandLine("whoami /priv")]
        explanations, rejects = generate_explanations(commands, MockProvider())
        assert rejects == []
        assert len(explanations) == 2
        assert explanations[0][0] == commands[0]
        assert "c:\\srv\\alpha" in explanations[0][1]

    def test_whitespace_only_rejected(self):
        provider = PairClient(lambda prompt: "   \n  ")
        explanations, rejects = generate_explanations([CommandLine("whoami")], provider)
        assert explanations == []
        assert rejects[0].reason == "empty explanation"

    def test_response_trimmed(self):
        provider = PairClient(lambda prompt: "  Lists users.  \n")
        explanations, _ = generate_explanations([CommandLine("net user")], provider)
        assert explanations[0][1] == "Lists users."

    def test_provider_failure_rejected_not_fatal(self):
        provider = FailingClient(TransportError("provider p1: down"))
        explanations, rejects = generate_explanations([CommandLine("whoami")], provider)
        assert explanations == []
        assert rejects[0].reason == "provider failure: provider p1: down"

    def test_configuration_error_fatal(self):
        provider = FailingClient(ConfigurationError("no key"))
        with pytest.raises(ConfigurationError):
            generate_explanations([CommandLine("whoami")], provider)

    def test_jobs_preserve_order(self):
        commands = [CommandLine(f"cmd-{i:02d}") for i in range(10)]
        provider = MockProvider()
        serial, _ = generate_explanations(commands, provider, jobs=1)
        threaded, _ = generate_explanations(commands, provider, jobs=3)
        assert serial == threaded


class TestReject:
    def test_fields(self):
        reject = Reject(CommandLine("whoami"), "why not")
        assert reject.command.text == "whoami"
        assert reject.reason == "why not"


class FlakyClient:
    """Mock replies, except that the first call for each prompt in ``flaky``
    raises a transport error; counts its calls."""

    name, model = "flaky", "m"

    def __init__(self, flaky):
        self.flaky = set(flaky)
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        for text in list(self.flaky):
            if text in prompt:
                self.flaky.discard(text)
                raise TransportError(f"provider flaky: {text} timed out")
        return MockProvider().complete(prompt)


class TestReplyJournal:
    def test_failed_calls_are_not_journaled_and_a_rerun_retries_them(self, tmp_path):
        path = tmp_path / "pairs.jsonl.replies.jsonl"
        commands = [CommandLine(f"copy /aa c:\\srv\\alpha{i}") for i in range(4)]
        client = FlakyClient(["alpha1"])
        with ReplyJournal(path) as journal:
            pairs, rejects = generate_pairs(commands, client, journal=journal)
        assert [r.command.text for r in rejects] == [commands[1].text]
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

        rerun = FlakyClient([])
        with ReplyJournal(path) as journal:
            pairs, rejects = generate_pairs(commands, rerun, journal=journal)
        assert (rerun.calls, journal.replayed, len(pairs), rejects) == (1, 3, 4, [])
        assert [p.positive.text for p in pairs] == [
            p.positive.text for p in generate_pairs(commands, MockProvider())[0]]

    def test_repeated_prompts_get_their_own_occurrence(self, tmp_path):
        path = tmp_path / "explanations.jsonl.replies.jsonl"
        commands = [CommandLine("whoami"), CommandLine("net user"), CommandLine("whoami")]
        with ReplyJournal(path) as journal:
            generate_explanations(commands, FlakyClient([]), journal=journal)
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
