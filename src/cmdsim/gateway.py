"""Chat-completion providers, the provider pool, and prompt builders.

A provider is a :class:`ProviderSpec`, and every generation stage asks
one through :func:`complete` ``(spec, prompt) -> assistant text``.  Real
providers speak the common chat-completion JSON HTTP shape; a ``mock:``
endpoint is answered by the deterministic in-tree :class:`MockProvider`,
so the whole pipeline runs offline and reproducibly.

Prompt wording lives in versioned template files under
``cmdsim/templates/`` and is substituted, never rebuilt, so prompts are
byte-stable across releases of this package.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json as jsonlib
import logging
import math
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import CommandLine, canonical_dedup_key, text_of

logger = logging.getLogger(__name__)

SEEDS_PER_PROMPT = 12

# One failure policy for every external service, chat and embeddings:
# MAX_RETRIES extra attempts after the first, waiting BACKOFF_BASE_S and
# then twice as long before each.
MAX_RETRIES = 2
BACKOFF_BASE_S = 0.5
_HTTP_RETRYABLE = frozenset({429, 500, 502, 503, 504})
_HTTP_SCHEMES = ("http://", "https://")


class GatewayError(Exception):
    """Base class for provider-related failures."""


class TransportError(GatewayError):
    """Network-level failure (connection, timeout) after retries."""


class ProviderError(GatewayError):
    """Non-success HTTP response or malformed payload from a provider."""


class ConfigurationError(GatewayError):
    """Local misconfiguration, e.g. a missing API-key environment variable."""


class SettingError(ValueError):
    """A setting out of range: ``key`` names it and ``reason`` says why,
    so that a loader can point at the line that set it."""

    def __init__(self, owner: str, key: str, reason: str) -> None:
        super().__init__(f"{owner}: {key} {reason}")
        self.key = key
        self.reason = reason


@dataclass(frozen=True)
class ProviderSpec:
    """Connection settings for one chat-completion provider."""

    name: str
    endpoint: str
    model_id: str
    api_key_env: str = ""
    temperature: float = 1.0
    max_retries: int = MAX_RETRIES
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("provider name must not be empty")
        owner = f"provider {self.name}"
        check_endpoint(self.endpoint, owner, _HTTP_SCHEMES + ("mock:",))
        if not self.model_id:
            raise SettingError(owner, "model_id", "must not be empty")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise SettingError(owner, "temperature", "must be finite and >= 0")
        if self.max_retries < 0:
            raise SettingError(owner, "max_retries", "must be >= 0")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise SettingError(owner, "timeout", "must be finite and positive")


def check_endpoint(endpoint: str, owner: str, schemes: tuple[str, ...] = _HTTP_SCHEMES) -> None:
    """Reject an endpoint that starts with none of ``schemes``, at load
    rather than after a call's retries."""
    if not endpoint.startswith(schemes):
        raise SettingError(owner, "endpoint", f"{endpoint!r} must start with one of {', '.join(schemes)}")


def _load_template(filename: str) -> str:
    text = resources.files("cmdsim").joinpath("templates", filename).read_text("utf-8")
    return text.rstrip("\n")


SYNTHESIS_TEMPLATE = _load_template("synthesis.txt")
SIMILAR_PAIR_TEMPLATE = _load_template("similar_pair.txt")
EXPLANATION_TEMPLATE = _load_template("explanation.txt")
TEMPLATE_VERSION = _load_template("VERSION")

_SEEDS_SLOT = "{command_line_seeds}"
_QUERY_SLOT = "{query_command_line}"
_COMMAND_SLOT = "{command_line}"


def build_synthesis_prompt(seeds: Sequence[CommandLine | str]) -> str:
    """Render the generation prompt with the 12 sampled seeds numbered 1..12.

    Substitution uses plain string replacement (not str.format) because
    command lines routinely contain braces.
    """
    if len(seeds) != SEEDS_PER_PROMPT:
        raise ValueError(
            f"requires exactly {SEEDS_PER_PROMPT} seeds, got {len(seeds)}"
        )
    block = "\n".join(
        f"{i}. {text_of(seed)}" for i, seed in enumerate(seeds, start=1)
    )
    return SYNTHESIS_TEMPLATE.replace(_SEEDS_SLOT, block, 1)


def build_pair_prompt(query: CommandLine | str) -> str:
    """Render the similar-command prompt for one query command line."""
    text = text_of(query)
    if not text.strip():
        raise ValueError("empty query")
    return SIMILAR_PAIR_TEMPLATE.replace(_QUERY_SLOT, text, 1)


def build_explanation_prompt(command: CommandLine | str) -> str:
    """Render the description-request prompt for one command line.

    The wording is this package's own (versioned in the template file);
    it asks for one to two sentences about purpose and intention.
    """
    text = text_of(command)
    if not text.strip():
        raise ValueError("empty command")
    return EXPLANATION_TEMPLATE.replace(_COMMAND_SLOT, text, 1)


@functools.cache
def _opener():
    """The :mod:`urllib.request` opener every POST goes through, built on
    first use, as urlopen's own opener is: building one reads the proxy
    variables and costs about as much as a request.  The HTTP client, and
    with it ``ssl``, ``email`` and ``socket``, loads here and not at
    import, so a stage that sends no request never pays for it."""
    import urllib.error
    import urllib.request

    class _RefuseRedirect(urllib.request.HTTPRedirectHandler):
        """Follow no redirect.  The stock handler re-sends a 301, 302 or 303
        as a GET carrying every header, Authorization too, to whatever
        location the reply names; here each 3xx is an HTTP error instead."""

        def redirect_request(self, req, fp, code, msg, headers, newurl):
            raise urllib.error.HTTPError(req.full_url, code, msg, headers, fp)

    return urllib.request.build_opener(_RefuseRedirect)


def _urlopen_post(url: str, json: dict, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
    """One attempt of :func:`post_json`: a :mod:`urllib.request` POST on a
    new connection, returning the reply's status and body.
    Proxies come from the ``*_proxy`` environment variables, TLS is
    verified against the default CA store, and no redirect is followed.
    An HTTP error status is returned, not raised.  A URL or header that
    cannot be sent (say, a malformed IPv6 host) is a
    :class:`ConfigurationError`, which retrying cannot fix."""
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(url, jsonlib.dumps(json).encode(), headers, method="POST")
        with _opener().open(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.read()
    except ValueError as exc:
        raise ConfigurationError(f"cannot send a request to {url!r}: {exc}") from exc


def post_json(
    url: str,
    body: dict,
    read: Callable[[object], object],
    *,
    owner: str,
    payload: str,
    api_key_env: str,
    timeout: float,
    max_retries: int = MAX_RETRIES,
    sleep: Callable[[float], None] = time.sleep,
):
    """POST ``body`` as JSON to ``url`` and return ``read`` of the reply's JSON.

    The one place external-service failures are handled.  Transport
    failures (``OSError`` or ``http.client.HTTPException``) and retryable
    HTTP statuses (429, 5xx) are retried with exponential backoff up to
    ``max_retries`` extra attempts, then the last error is raised.  Other
    HTTP statuses fail at once.  A 200 reply that ``read`` cannot take
    apart is a :class:`ProviderError` naming the ``payload`` kind.
    ``owner`` names the caller in errors and logs; a bearer token is read
    from ``api_key_env`` when one is named, and a missing key or one that
    cannot go in a header is a :class:`ConfigurationError` before any
    attempt.  Each attempt is one :func:`_urlopen_post`, looked up per
    call, which tests patch to stand in for the network.
    """
    headers = {"Content-Type": "application/json"}
    if api_key_env:
        key = os.environ.get(api_key_env)
        if key is None:
            raise ConfigurationError(
                f"environment variable {api_key_env} is not set (required by {owner})"
            )
        if not key.isascii() or "\r" in key or "\n" in key:
            # Checked here so that no error message ever quotes the key.
            raise ConfigurationError(
                f"environment variable {api_key_env} must hold ASCII with no line break (required by {owner})"
            )
        headers["Authorization"] = f"Bearer {key}"
    import http.client  # loaded with the first request, not at import

    last_error: GatewayError | None = None
    for attempt in range(max_retries + 1):
        if attempt > 0:
            sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
        try:
            status, content = _urlopen_post(url, json=body, headers=headers, timeout=timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_error = TransportError(f"{owner}: {exc}")
            logger.warning("transport failure on %s (attempt %d): %s", owner, attempt + 1, exc)
            continue
        if status == 200:
            try:
                return read(jsonlib.loads(content))
            except (ValueError, LookupError, TypeError) as exc:
                raise ProviderError(f"{owner}: malformed {payload} payload: {exc}") from exc
        error = ProviderError(f"{owner}: HTTP {status}")
        if status not in _HTTP_RETRYABLE:
            raise error
        last_error = error
        logger.warning("retryable HTTP %d from %s (attempt %d)", status, owner, attempt + 1)
    assert last_error is not None
    raise last_error


def complete(
    spec: ProviderSpec,
    prompt: str,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """The assistant text ``spec``'s provider gives for ``prompt``: the one
    place a provider stage gets a reply.

    A ``mock:`` endpoint is answered in-process by :class:`MockProvider`,
    salted with ``spec.model_id``.  Any other endpoint gets one
    chat-completion request, with :func:`post_json`'s retries up to
    ``spec.max_retries``; ``sleep`` is :func:`post_json`'s."""
    if spec.endpoint.startswith("mock:"):
        return MockProvider(salt=spec.model_id).complete(prompt)
    body = {
        "model": spec.model_id,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": spec.temperature,
    }
    return post_json(spec.endpoint, body, lambda reply: reply["choices"][0]["message"]["content"],
                     owner=f"provider {spec.name}", payload="completion",
                     api_key_env=spec.api_key_env, timeout=spec.timeout,
                     max_retries=spec.max_retries, sleep=sleep)


# Vocabulary for the deterministic mock.  The two columns are synonym
# forms that share no character trigram, so a deliberately weak lexical
# embedding cannot see the correspondence while a trained adapter can.
MOCK_VERB_SYNONYMS: tuple[tuple[str, str], ...] = (
    ("copy", "xfer"),
    ("purge", "wipe"),
    ("list", "show"),
    ("query", "seek"),
    ("start", "begin"),
    ("stop", "halt"),
)
MOCK_FLAG_SYNONYMS: tuple[tuple[str, str], ...] = (
    ("/aa", "-zz"),
    ("/bb", "-yy"),
    ("/cc", "-xx"),
    ("/dd", "-ww"),
    ("/ee", "-vv"),
    ("/ff", "-uu"),
)
MOCK_TARGETS: tuple[str, ...] = (
    "c:\\srv\\alpha",
    "c:\\srv\\beta",
    "c:\\srv\\gamma",
    "c:\\srv\\delta",
    "c:\\srv\\omega",
    "c:\\srv\\sigma",
)
_MOCK_VERB_MAP = dict(MOCK_VERB_SYNONYMS)
_MOCK_FLAG_MAP = dict(MOCK_FLAG_SYNONYMS)
_MOCK_TAGS = "0123456789abcdef"
_MOCK_CONCEPTS: tuple[str, ...] = (
    "duplicates files",
    "removes records",
    "enumerates accounts",
    "inspects shares",
    "launches a service",
    "terminates a service",
)

_SYNTH_PREFIX = SYNTHESIS_TEMPLATE.split(_SEEDS_SLOT)[0]
_PAIR_PREFIX, _PAIR_SUFFIX = SIMILAR_PAIR_TEMPLATE.split(_QUERY_SLOT)
_EXPL_PREFIX, _EXPL_SUFFIX = EXPLANATION_TEMPLATE.split(_COMMAND_SLOT)


def _slot_content(prompt: str, prefix: str, suffix: str) -> str | None:
    if prompt.startswith(prefix) and prompt.endswith(suffix):
        return prompt[len(prefix):len(prompt) - len(suffix)]
    return None


class MockProvider:
    """Deterministic offline provider.

    Responses are a pure function of the salt and the prompt text: the
    three shipped prompt templates are recognized structurally, and
    anything else is echoed back.  Synthesis responses draw commands
    from a small closed vocabulary (verb, flag, target path, hex tag),
    salted by the spec's model id; pair responses map each verb and flag
    to a trigram-disjoint synonym; explanation responses describe the
    verb concept, flag profile, and target while ignoring the tag, so
    near-duplicate commands explain identically.
    """

    def __init__(self, salt: str = "") -> None:
        self.salt = salt

    def complete(self, prompt: str) -> str:
        if prompt.startswith(_SYNTH_PREFIX):
            return self._synthesize(prompt)
        query = _slot_content(prompt, _PAIR_PREFIX, _PAIR_SUFFIX)
        if query is not None:
            return "<CMD>" + self._similar(query)
        command = _slot_content(prompt, _EXPL_PREFIX, _EXPL_SUFFIX)
        if command is not None:
            return self._explain(command)
        return prompt

    def _pick(self, prompt: str, counter: int) -> str:
        digest = hashlib.sha256(f"{self.salt}|{counter}|{prompt}".encode("utf-8")).digest()
        verb = MOCK_VERB_SYNONYMS[digest[0] % 6][0]
        flag = MOCK_FLAG_SYNONYMS[digest[1] % 6][0]
        target = MOCK_TARGETS[digest[2] % 6]
        tag = _MOCK_TAGS[digest[3] % 16]
        return f"{verb} {flag} {target}{tag}"

    def _synthesize(self, prompt: str) -> str:
        return "\n".join("<CMD>" + self._pick(prompt, i) for i in range(4))

    def _similar(self, query: str) -> str:
        tokens = query.split(" ")
        mapped = [_MOCK_FLAG_MAP.get(t, _MOCK_VERB_MAP.get(t, t)) for t in tokens]
        candidate = " ".join(mapped)
        if canonical_dedup_key(candidate) == canonical_dedup_key(query):
            # Out-of-vocabulary command: fall back to a visible rewrite.
            candidate = "rerun " + query
        return candidate

    def _parse_command(self, command: str) -> tuple[int, int, str] | None:
        tokens = command.split(" ")
        if len(tokens) != 3:
            return None
        verb_index = flag_index = -1
        for i, (a, b) in enumerate(MOCK_VERB_SYNONYMS):
            if tokens[0] in (a, b):
                verb_index = i
        for i, (a, b) in enumerate(MOCK_FLAG_SYNONYMS):
            if tokens[1] in (a, b):
                flag_index = i
        if verb_index < 0 or flag_index < 0:
            return None
        target = tokens[2]
        if target[:-1] in MOCK_TARGETS and target[-1] in _MOCK_TAGS:
            target = target[:-1]
        if target not in MOCK_TARGETS:
            return None
        return verb_index, flag_index, target

    def _explain(self, command: str) -> str:
        parsed = self._parse_command(command)
        if parsed is None:
            return f"This command runs {command} to accomplish its stated purpose."
        verb_index, flag_index, target = parsed
        return (
            f"This command {_MOCK_CONCEPTS[verb_index]} under {target} "
            f"with profile {flag_index}."
        )


def load_provider_pool(path: str | Path) -> tuple[ProviderSpec, ...]:
    """Read a provider pool, one spec per provider in file order, from an
    INI-style configuration file.

    Each section defines one provider (section name = provider name, so
    configparser refuses a name given twice) with keys endpoint, model,
    and optionally api_key_env, temperature, max_retries, timeout.  A ``[pool]`` section, where older files set
    an ``rng_seed`` that nothing read, is skipped.
    Secrets never appear in the file, only environment-variable names.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"provider configuration file {path}: {exc}") from exc
    if not read:
        raise ConfigurationError(f"provider configuration file not found: {path}")

    def entry(section: str, key: str, convert: Callable[[str], object] = str, fallback: object = None):
        """``convert`` of ``section``'s ``key``; ``fallback`` when the
        section lacks the key, which is an error when there is none."""
        entries = parser[section]
        try:
            if key in entries:
                return convert(entries[key])
            if fallback is None:
                raise ValueError("missing required key")
            return fallback
        except (ValueError, configparser.Error) as exc:
            raise ConfigurationError(f"provider configuration file {path}: [{section}] {key}: {exc}") from exc

    def spec(section: str) -> ProviderSpec:
        try:
            return ProviderSpec(
                name=section,
                endpoint=entry(section, "endpoint"),
                model_id=entry(section, "model"),
                api_key_env=entry(section, "api_key_env", fallback=""),
                temperature=entry(section, "temperature", float, 1.0),
                max_retries=entry(section, "max_retries", int, MAX_RETRIES),
                timeout=entry(section, "timeout", float, 30.0),
            )
        except SettingError as exc:
            # The spec's model_id is the file's model key; the other keys match.
            key = "model" if exc.key == "model_id" else exc.key
            raise ConfigurationError(
                f"provider configuration file {path}: [{section}] {key}: {exc.reason}") from exc

    specs = tuple(spec(section) for section in parser.sections() if section != "pool")
    if not specs:
        raise ConfigurationError(f"no provider sections found in {path}")
    return specs
