"""Providers, prompt builders, retry logic, and the mock."""

from __future__ import annotations

import random

import pytest

from cmdsim.core import CommandLine, parse_llm_response
from cmdsim.embedding import RemoteEmbeddingBackend
from cmdsim.gateway import (
    MAX_RETRIES,
    MOCK_FLAG_SYNONYMS,
    MOCK_VERB_SYNONYMS,
    ConfigurationError,
    HttpChatProvider,
    MockProvider,
    ProviderError,
    ProviderPool,
    ProviderSpec,
    TransportError,
    build_client,
    build_explanation_prompt,
    build_pair_prompt,
    build_synthesis_prompt,
    complete,
    load_provider_pool,
    pick_provider,
)


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
        with pytest.raises(KeyError):
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


class TestPickProvider:
    def test_single_provider(self):
        pool = ProviderPool(providers=(make_spec(),))
        assert pick_provider(pool, random.Random(0)) is pool.providers[0]

    def test_deterministic_sequence(self):
        pool = ProviderPool(
            providers=tuple(make_spec(name=f"p{i}") for i in range(6))
        )
        first = [pick_provider(pool, random.Random(11)).name for _ in range(1)]
        rng_a, rng_b = random.Random(5), random.Random(5)
        seq_a = [pick_provider(pool, rng_a).name for _ in range(50)]
        seq_b = [pick_provider(pool, rng_b).name for _ in range(50)]
        assert seq_a == seq_b
        assert first  # silence unused warning path

    def test_empirical_uniformity(self):
        # 6,000 seeded draws from 6 providers: each frequency within
        # 1/6 +- 0.03.
        pool = ProviderPool(
            providers=tuple(make_spec(name=f"p{i}") for i in range(6))
        )
        rng = random.Random(123)
        counts = {f"p{i}": 0 for i in range(6)}
        for _ in range(6000):
            counts[pick_provider(pool, rng).name] += 1
        for count in counts.values():
            assert abs(count / 6000 - 1 / 6) <= 0.03


class FakeResponse:
    def __init__(self, status_code: int, payload=None, text: str = ""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (str(payload) if payload is not None else "")

    def json(self):
        if self._payload is None:
            raise ValueError("no JSON")
        return self._payload


def chat_payload(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


class FakeSession:
    """Scripted session: pops one canned result per post call."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def ask_chat(session, sleep):
    return complete(make_spec(), "p", session=session, sleep=sleep)


def ask_embeddings(session, sleep):
    backend = RemoteEmbeddingBackend("https://e.example", "emb-1", 2, session=session, sleep=sleep)
    return backend.embed(["aa"]).tolist()


# Chat and embeddings share one retrying POST, so each retry case below
# runs through both: name -> (call, its 200 reply, the call's result).
CALLERS = {
    "chat": (ask_chat, FakeResponse(200, chat_payload("ok")), "ok"),
    "embeddings": (ask_embeddings, FakeResponse(200, {"data": [{"embedding": [1.0, 0.0]}]}), [[1.0, 0.0]]),
}


class TestComplete:
    def test_retry_on_429_then_success(self):
        for name, (ask, ok, expected) in CALLERS.items():
            session = FakeSession([FakeResponse(429, text="slow down"), ok])
            sleeps = []
            assert ask(session, sleeps.append) == expected, name
            assert len(session.calls) == 2, name
            assert sleeps == [0.5], name

    def test_exponential_backoff_sequence(self):
        for name, (ask, ok, expected) in CALLERS.items():
            session = FakeSession([FakeResponse(503), FakeResponse(503), ok])
            sleeps = []
            assert ask(session, sleeps.append) == expected, name
            assert sleeps == [0.5, 1.0], name

    def test_backoff_doubles_each_retry(self):
        # Two retries cannot tell doubling from linear growth; a third can.
        session = FakeSession([FakeResponse(503)] * 3 + [FakeResponse(200, chat_payload("ok"))])
        sleeps = []
        assert complete(make_spec(max_retries=3), "p", session=session, sleep=sleeps.append) == "ok"
        assert sleeps == [0.5, 1.0, 2.0]

    def test_non_retryable_status_fails_immediately(self):
        for name, (ask, _, _) in CALLERS.items():
            session = FakeSession([FakeResponse(404, text="nope")])
            sleeps = []
            with pytest.raises(ProviderError) as excinfo:
                ask(session, sleeps.append)
            assert excinfo.value.status == 404, name
            assert excinfo.value.body == "nope", name
            assert len(session.calls) == 1, name
            assert sleeps == [], name

    def test_retries_exhausted_raises_last_error(self):
        for name, (ask, _, _) in CALLERS.items():
            session = FakeSession([FakeResponse(500)] * (MAX_RETRIES + 1))
            sleeps = []
            with pytest.raises(ProviderError) as excinfo:
                ask(session, sleeps.append)
            assert excinfo.value.status == 500, name
            assert len(session.calls) == MAX_RETRIES + 1, name
            assert sleeps == [0.5, 1.0], name

    def test_transport_failures_retried(self):
        for name, (ask, ok, expected) in CALLERS.items():
            session = FakeSession([ConnectionError("boom"), ok])
            sleeps = []
            assert ask(session, sleeps.append) == expected, name
            assert sleeps == [0.5], name

    def test_transport_failures_exhausted(self):
        for name, (ask, _, _) in CALLERS.items():
            session = FakeSession([ConnectionError("boom")] * (MAX_RETRIES + 1))
            sleeps = []
            with pytest.raises(TransportError):
                ask(session, sleeps.append)
            assert len(session.calls) == MAX_RETRIES + 1, name
            assert sleeps == [0.5, 1.0], name

    def test_success_extracts_content(self):
        session = FakeSession([FakeResponse(200, chat_payload("<CMD>whoami"))])
        result = complete(make_spec(), "prompt text", session=session, sleep=lambda _: None)
        assert result == "<CMD>whoami"
        call = session.calls[0]
        assert call["json"]["messages"] == [{"role": "user", "content": "prompt text"}]
        assert call["json"]["model"] == "m1"
        assert call["json"]["temperature"] == 1.0
        assert "Authorization" not in call["headers"]

    def test_malformed_payload(self):
        session = FakeSession([FakeResponse(200, {"unexpected": True})])
        with pytest.raises(ProviderError, match="provider p1: malformed completion payload") as excinfo:
            complete(make_spec(), "p", session=session, sleep=lambda _: None)
        assert excinfo.value.status == 200

    def test_missing_api_key_env(self, monkeypatch):
        monkeypatch.delenv("CMDSIM_TEST_KEY", raising=False)
        spec = make_spec(api_key_env="CMDSIM_TEST_KEY")
        with pytest.raises(ConfigurationError, match="CMDSIM_TEST_KEY"):
            complete(spec, "p", session=FakeSession([]))

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("CMDSIM_TEST_KEY", "sekrit")
        session = FakeSession([FakeResponse(200, chat_payload("ok"))])
        complete(make_spec(api_key_env="CMDSIM_TEST_KEY"), "p", session=session)
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sekrit"


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

    def test_table_takes_priority(self):
        provider = MockProvider(table={"ping": "<CMD>pong"})
        assert provider.complete("ping") == "<CMD>pong"

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


class TestClientFactory:
    def test_build_client_kinds(self):
        mock = build_client(make_spec(endpoint="mock:", model_id="salt-1"))
        assert isinstance(mock, MockProvider)
        assert isinstance(build_client(make_spec(endpoint="mock:whatever")), MockProvider)
        http = build_client(make_spec())
        assert isinstance(http, HttpChatProvider)
        assert http.name == "p1"


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
