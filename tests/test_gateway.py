"""Providers, prompt builders, retry logic, and the mock."""

from __future__ import annotations

import itertools
import random

import pytest

from cmdsim.core import CommandLine, SeedPool, parse_llm_response
from cmdsim.embedding import RemoteEmbeddingBackend
from cmdsim.gateway import (
    MAX_RETRIES,
    MOCK_FLAG_SYNONYMS,
    MOCK_VERB_SYNONYMS,
    ConfigurationError,
    MockProvider,
    ProviderError,
    ProviderPool,
    ProviderSpec,
    TransportError,
    build_explanation_prompt,
    build_pair_prompt,
    build_synthesis_prompt,
    complete,
    load_provider_pool,
)
from cmdsim.synthesis import synthesize_step

from conftest import ScriptedPost, reply


def make_spec(**overrides) -> ProviderSpec:
    settings = dict(name="p1", endpoint="https://api.example/v1/chat", model_id="m1")
    settings.update(overrides)
    return ProviderSpec(**settings)


class TestProviderSpec:
    def test_defaults(self):
        spec = make_spec()
        assert spec.temperature == 1.0
        assert spec.max_retries == 2
        assert spec.timeout == 30.0
        assert spec.api_key_env == ""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"endpoint": ""},
            {"model_id": ""},
            {"temperature": -0.1},
            {"max_retries": -1},
            {"timeout": 0.0},
            {"endpoint": "api.example/v1"},
            {"endpoint": "ftp://x"},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
            {"timeout": float("nan")},
            {"timeout": float("inf")},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            make_spec(**overrides)


class TestProviderPool:
    def test_requires_providers(self):
        with pytest.raises(ValueError):
            ProviderPool(providers=())

    def test_unique_names(self):
        with pytest.raises(ValueError):
            ProviderPool(providers=(make_spec(), make_spec()))

    def test_by_name(self):
        pool = ProviderPool(providers=(make_spec(), make_spec(name="p2")))
        assert pool.by_name("p2").name == "p2"
        with pytest.raises(ConfigurationError, match="^no provider named 'missing' in pool$"):
            pool.by_name("missing")


SEEDS = [f"seed-cmd-{i:02d}" for i in range(12)]


class TestPromptBuilders:
    def test_synthesis_numbering(self):
        prompt = build_synthesis_prompt(SEEDS)
        for i, seed in enumerate(SEEDS, start=1):
            assert f"{i}. {seed}" in prompt
            assert prompt.count(seed) == 1

    def test_synthesis_count_enforced(self):
        with pytest.raises(ValueError, match="requires exactly 12 seeds"):
            build_synthesis_prompt(SEEDS[:11])
        with pytest.raises(ValueError, match="requires exactly 12 seeds"):
            build_synthesis_prompt(SEEDS + ["extra-cmd"])

    def test_synthesis_marker_instruction_at_end(self):
        prompt = build_synthesis_prompt(SEEDS)
        assert '"<CMD>"' in prompt.splitlines()[-1]

    def test_synthesis_accepts_command_objects(self):
        prompt = build_synthesis_prompt([CommandLine(s) for s in SEEDS])
        assert "1. seed-cmd-00" in prompt

    def test_synthesis_pure(self):
        assert build_synthesis_prompt(SEEDS) == build_synthesis_prompt(list(SEEDS))

    def test_pair_prompt_slot(self):
        prompt = build_pair_prompt("whoami")
        assert prompt.count("whoami") == 1

    def test_pair_prompt_preserves_backslashes(self):
        command = "dir C:\\Users\\{admin}\\AppData"
        assert command in build_pair_prompt(command)

    def test_pair_prompt_empty(self):
        with pytest.raises(ValueError, match="empty query"):
            build_pair_prompt("   ")

    def test_explanation_prompt(self):
        prompt = build_explanation_prompt("whoami")
        assert "whoami" in prompt
        assert "purpose" in prompt
        assert "intention" in prompt

    def test_explanation_prompt_empty(self):
        with pytest.raises(ValueError, match="empty command"):
            build_explanation_prompt("")


def step_providers(pool: ProviderPool, rng: random.Random, steps: int) -> list[str]:
    """The provider each of ``steps`` synthesis steps picked, read from the
    provenance of the command it accepted; every reply is fresh."""
    seeds = SeedPool(CommandLine(text) for text in SEEDS)
    picked = []
    for _ in range(steps):
        [accepted] = synthesize_step(pool, seeds, rng)
        picked.append(accepted.provenance)
    return picked


class TestPickProvider:
    """Each synthesis step picks its provider uniformly from the pool,
    deterministically under a seeded rng."""

    @pytest.fixture(autouse=True)
    def fresh_replies(self, use_complete):
        counter = itertools.count()
        use_complete(lambda spec, prompt: f"<CMD>generated-{next(counter):05d}")

    def test_single_provider(self):
        pool = ProviderPool(providers=(make_spec(endpoint="mock:"),))
        assert step_providers(pool, random.Random(0), 3) == [pool.providers[0].name] * 3

    def test_deterministic_sequence(self):
        pool = ProviderPool(
            providers=tuple(make_spec(name=f"p{i}", endpoint="mock:") for i in range(6))
        )
        seq_a = step_providers(pool, random.Random(5), 50)
        seq_b = step_providers(pool, random.Random(5), 50)
        assert seq_a == seq_b
        assert len(set(seq_a)) > 1

    def test_empirical_uniformity(self):
        # 6,000 seeded steps over 6 providers: each frequency within
        # 1/6 +- 0.03.
        pool = ProviderPool(
            providers=tuple(make_spec(name=f"p{i}", endpoint="mock:") for i in range(6))
        )
        picked = step_providers(pool, random.Random(123), 6000)
        for i in range(6):
            assert abs(picked.count(f"p{i}") / 6000 - 1 / 6) <= 0.03


def chat_payload(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


def ask_chat(post, sleep):
    return complete(make_spec(), "p", post=post, sleep=sleep)


def ask_embeddings(post, sleep):
    backend = RemoteEmbeddingBackend("https://e.example", "emb-1", 2, post=post, sleep=sleep)
    return backend.embed(["aa"]).tolist()


# Chat and embeddings share one retrying POST, so each retry case below
# runs through both: name -> (call, its 200 reply, the call's result).
CALLERS = {
    "chat": (ask_chat, reply(200, chat_payload("ok")), "ok"),
    "embeddings": (ask_embeddings, reply(200, {"data": [{"embedding": [1.0, 0.0]}]}), [[1.0, 0.0]]),
}


class TestComplete:
    def test_retry_on_429_then_success(self):
        for name, (ask, ok, expected) in CALLERS.items():
            post = ScriptedPost([reply(429, text="slow down"), ok])
            sleeps = []
            assert ask(post, sleeps.append) == expected, name
            assert len(post.calls) == 2, name
            assert sleeps == [0.5], name

    def test_exponential_backoff_sequence(self):
        for name, (ask, ok, expected) in CALLERS.items():
            post = ScriptedPost([reply(503), reply(503), ok])
            sleeps = []
            assert ask(post, sleeps.append) == expected, name
            assert sleeps == [0.5, 1.0], name

    def test_backoff_doubles_each_retry(self):
        # Two retries cannot tell doubling from linear growth; a third can.
        post = ScriptedPost([reply(503)] * 3 + [reply(200, chat_payload("ok"))])
        sleeps = []
        assert complete(make_spec(max_retries=3), "p", post=post, sleep=sleeps.append) == "ok"
        assert sleeps == [0.5, 1.0, 2.0]

    def test_non_retryable_status_fails_immediately(self):
        for name, (ask, _, _) in CALLERS.items():
            post = ScriptedPost([reply(404, text="nope")])
            sleeps = []
            with pytest.raises(ProviderError) as excinfo:
                ask(post, sleeps.append)
            assert excinfo.value.status == 404, name
            assert excinfo.value.body == "nope", name
            assert len(post.calls) == 1, name
            assert sleeps == [], name

    def test_retries_exhausted_raises_last_error(self):
        for name, (ask, _, _) in CALLERS.items():
            post = ScriptedPost([reply(500)] * (MAX_RETRIES + 1))
            sleeps = []
            with pytest.raises(ProviderError) as excinfo:
                ask(post, sleeps.append)
            assert excinfo.value.status == 500, name
            assert len(post.calls) == MAX_RETRIES + 1, name
            assert sleeps == [0.5, 1.0], name

    def test_transport_failures_retried(self):
        for name, (ask, ok, expected) in CALLERS.items():
            post = ScriptedPost([ConnectionError("boom"), ok])
            sleeps = []
            assert ask(post, sleeps.append) == expected, name
            assert sleeps == [0.5], name

    def test_transport_failures_exhausted(self):
        for name, (ask, _, _) in CALLERS.items():
            post = ScriptedPost([ConnectionError("boom")] * (MAX_RETRIES + 1))
            sleeps = []
            with pytest.raises(TransportError):
                ask(post, sleeps.append)
            assert len(post.calls) == MAX_RETRIES + 1, name
            assert sleeps == [0.5, 1.0], name

    def test_success_extracts_content(self):
        post = ScriptedPost([reply(200, chat_payload("<CMD>whoami"))])
        result = complete(make_spec(), "prompt text", post=post, sleep=lambda _: None)
        assert result == "<CMD>whoami"
        call = post.calls[0]
        assert call["json"]["messages"] == [{"role": "user", "content": "prompt text"}]
        assert call["json"]["model"] == "m1"
        assert call["json"]["temperature"] == 1.0
        assert "Authorization" not in call["headers"]

    def test_malformed_payload(self):
        post = ScriptedPost([reply(200, {"unexpected": True})])
        with pytest.raises(ProviderError, match="provider p1: malformed completion payload") as excinfo:
            complete(make_spec(), "p", post=post, sleep=lambda _: None)
        assert excinfo.value.status == 200

    def test_missing_api_key_env(self, monkeypatch):
        monkeypatch.delenv("CMDSIM_TEST_KEY", raising=False)
        spec = make_spec(api_key_env="CMDSIM_TEST_KEY")
        with pytest.raises(ConfigurationError, match="CMDSIM_TEST_KEY"):
            complete(spec, "p", post=ScriptedPost([]))

    def test_default_post_is_the_module_one_at_call_time(self, monkeypatch):
        # A local endpoint, so that a seam bound too early fails without leaving the host.
        post = ScriptedPost([reply(200, chat_payload("ok"))])
        monkeypatch.setattr("cmdsim.gateway._urlopen_post", post)
        assert complete(make_spec(endpoint="http://127.0.0.1:9/v1"), "p", sleep=lambda _: None) == "ok"
        assert [call["url"] for call in post.calls] == ["http://127.0.0.1:9/v1"]

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("CMDSIM_TEST_KEY", "sekrit")
        post = ScriptedPost([reply(200, chat_payload("ok"))])
        complete(make_spec(api_key_env="CMDSIM_TEST_KEY"), "p", post=post)
        assert post.calls[0]["headers"]["Authorization"] == "Bearer sekrit"


def token_trigrams(token: str) -> set[str]:
    if len(token) < 3:
        return {token}
    return {token[i: i + 3] for i in range(len(token) - 2)}


class TestMockProvider:
    def test_deterministic(self):
        prompt = build_synthesis_prompt(SEEDS)
        assert MockProvider().complete(prompt) == MockProvider().complete(prompt)

    def test_salt_changes_output(self):
        prompt = build_synthesis_prompt(SEEDS)
        assert MockProvider(salt="a").complete(prompt) != MockProvider(salt="b").complete(prompt)

    def test_synthesis_response_parses_to_four(self):
        response = MockProvider().complete(build_synthesis_prompt(SEEDS))
        commands = parse_llm_response(response)
        assert len(commands) == 4
        for command in commands:
            tokens = command.text.split(" ")
            assert len(tokens) == 3

    def test_unknown_prompt_echoes(self):
        assert MockProvider().complete("free-form prompt") == "free-form prompt"

    def test_pair_response_maps_synonyms(self):
        response = MockProvider().complete(build_pair_prompt("copy /aa c:\\srv\\alpha3"))
        assert response == "<CMD>xfer -zz c:\\srv\\alpha3"

    def test_pair_response_out_of_vocabulary(self):
        response = MockProvider().complete(build_pair_prompt("whoami /priv"))
        assert response == "<CMD>rerun whoami /priv"

    def test_synonyms_share_no_trigrams(self):
        # The lexical backend sees character trigrams; synonym columns
        # must be invisible to it for the training signal to be real.
        for a, b in MOCK_VERB_SYNONYMS + MOCK_FLAG_SYNONYMS:
            assert not token_trigrams(a) & token_trigrams(b), (a, b)

    def test_explanations_ignore_tag(self):
        provider = MockProvider()
        first = provider.complete(build_explanation_prompt("copy /aa c:\\srv\\alpha0"))
        second = provider.complete(build_explanation_prompt("copy /aa c:\\srv\\alphaf"))
        assert first == second

    def test_explanations_distinguish_verbs(self):
        provider = MockProvider()
        first = provider.complete(build_explanation_prompt("copy /aa c:\\srv\\alpha0"))
        second = provider.complete(build_explanation_prompt("purge /aa c:\\srv\\alpha0"))
        assert first != second

    def test_explanation_of_synonym_form_matches(self):
        provider = MockProvider()
        original = provider.complete(build_explanation_prompt("copy /aa c:\\srv\\alpha0"))
        synonym = provider.complete(build_explanation_prompt("xfer -zz c:\\srv\\alpha0"))
        assert original == synonym


class TestMockEndpoint:
    def test_mock_spec_is_answered_in_process_and_never_posts(self, monkeypatch):
        monkeypatch.setattr("cmdsim.gateway._urlopen_post", lambda *a, **k: pytest.fail("posted"))
        prompt = build_synthesis_prompt(SEEDS)
        for endpoint in ("mock:", "mock:whatever"):
            spec = make_spec(endpoint=endpoint, model_id="salt-1")
            post = ScriptedPost([])
            assert complete(spec, prompt, post=post) == MockProvider(salt="salt-1").complete(prompt)
            assert complete(spec, prompt) == MockProvider(salt="salt-1").complete(prompt)
            assert post.calls == []
        # The model id salts the reply.
        assert complete(make_spec(endpoint="mock:", model_id="salt-2"), prompt) != complete(
            make_spec(endpoint="mock:", model_id="salt-1"), prompt)


class TestLoadProviderPool:
    def test_parse(self, tmp_path):
        path = tmp_path / "providers.conf"
        path.write_text(
            "[pool]\nrng_seed = 3\n\n"
            "[alpha]\nendpoint = https://a.example\nmodel = m-a\n"
            "api_key_env = A_KEY\ntemperature = 0.5\nmax_retries = 4\ntimeout = 10\n\n"
            "[beta]\nendpoint = mock:\nmodel = m-b\n",
            encoding="utf-8",
        )
        pool = load_provider_pool(path)
        assert [p.name for p in pool.providers] == ["alpha", "beta"]
        alpha = pool.by_name("alpha")
        assert alpha.temperature == 0.5
        assert alpha.max_retries == 4
        assert alpha.timeout == 10.0
        assert alpha.api_key_env == "A_KEY"
        beta = pool.by_name("beta")
        assert beta.temperature == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_provider_pool(tmp_path / "absent.conf")

    def test_file_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "providers.conf"
        path.write_bytes(b"\xff\xfe[a]\nendpoint = mock:\nmodel = m\n")
        with pytest.raises(ConfigurationError) as excinfo:
            load_provider_pool(path)
        assert str(excinfo.value).startswith(f"provider configuration file {path}: 'utf-8' codec can't decode")

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "providers.conf"
        path.write_text("[a]\nendpoint = mock:\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="model"):
            load_provider_pool(path)

    def test_no_sections(self, tmp_path):
        path = tmp_path / "providers.conf"
        path.write_text("[pool]\nrng_seed = 1\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="no provider sections"):
            load_provider_pool(path)

    @pytest.mark.parametrize("entry, message", [
        ("temperature = hot", "[a] temperature: could not convert string to float: 'hot'"),
        ("max_retries = 2.5", "[a] max_retries: invalid literal for int() with base 10: '2.5'"),
        ("timeout = soon", "[a] timeout: could not convert string to float: 'soon'"),
        ("api_key_env = KEY%", "[a] api_key_env: '%' must be followed by '%' or '(', found: '%'"),
        # Out of range: ProviderSpec's own checks, placed in the file.
        ("max_retries = -1", "[a] max_retries: must be >= 0"),
        ("temperature = nan", "[a] temperature: must be finite and >= 0"),
        ("temperature = -0.5", "[a] temperature: must be finite and >= 0"),
        ("timeout = 0", "[a] timeout: must be finite and positive"),
        ("timeout = inf", "[a] timeout: must be finite and positive"),
    ])
    def test_bad_value_names_file_section_and_key(self, tmp_path, entry, message):
        path = tmp_path / "providers.conf"
        path.write_text(f"[ok]\nendpoint = mock:\nmodel = m\n\n[a]\nendpoint = mock:\nmodel = m\n{entry}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigurationError) as excinfo:
            load_provider_pool(path)
        assert str(excinfo.value) == f"provider configuration file {path}: {message}"

    def test_missing_required_key_names_file_section_and_key(self, tmp_path):
        path = tmp_path / "providers.conf"
        path.write_text("[a]\nmodel = m\n", encoding="utf-8")
        with pytest.raises(ConfigurationError) as excinfo:
            load_provider_pool(path)
        assert str(excinfo.value) == f"provider configuration file {path}: [a] endpoint: missing required key"

    def test_empty_model_names_the_file_key(self, tmp_path):
        path = tmp_path / "providers.conf"
        path.write_text("[a]\nendpoint = mock:\nmodel =\n", encoding="utf-8")
        with pytest.raises(ConfigurationError) as excinfo:
            load_provider_pool(path)
        assert str(excinfo.value) == f"provider configuration file {path}: [a] model: must not be empty"
