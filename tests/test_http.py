"""The standard-library POST behind chat and embeddings, against a real
HTTP server on 127.0.0.1."""

from __future__ import annotations

import json
import logging
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

import cmdsim
from cmdsim.embedding import RemoteEmbeddingBackend
from cmdsim.gateway import (
    MAX_RETRIES,
    ConfigurationError,
    ProviderError,
    ProviderSpec,
    TransportError,
    complete,
)

STALL = object()
TRUNCATED = object()


@pytest.fixture(autouse=True)
def no_proxy(monkeypatch):
    # A proxy from the environment must not see these requests.
    monkeypatch.setenv("no_proxy", "127.0.0.1")


@pytest.fixture
def server():
    """A server whose POSTs pop (status, payload) from ``replies`` and are
    recorded in ``seen`` as (path, headers, body), as is any GET.  A
    STALL reply holds the request open until the test ends; a TRUNCATED
    one closes the connection partway through its announced body; a 3xx
    one names ``/elsewhere`` as its Location."""
    replies, seen, release = [], [], threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # noqa: A002 - silence access log
            pass

        def do_GET(self):  # noqa: N802 - http.server naming
            seen.append((self.path, self.headers, b""))
            self.send_response(200)
            self.send_header("Content-Length", "2")
            self.end_headers()
            self.wfile.write(b"{}")

        def do_POST(self):  # noqa: N802 - http.server naming
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.append((self.path, self.headers, body))
            status, payload = replies.pop(0)
            if status is STALL:
                release.wait(10)
                return
            if status is TRUNCATED:
                self.send_response(200)
                self.send_header("Content-Length", "100")
                self.end_headers()
                self.wfile.write(b'{"choices": ')
                return
            data = payload if isinstance(payload, bytes) else json.dumps(payload, ensure_ascii=False).encode()
            self.send_response(status)
            if 300 <= status < 400:
                self.send_header("Location", "/elsewhere")
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield SimpleNamespace(url=f"http://127.0.0.1:{httpd.server_address[1]}/v1/x",
                              replies=replies, seen=seen)
    finally:
        release.set()
        httpd.shutdown()
        httpd.server_close()
        thread.join(5)
    assert not thread.is_alive()


def ask_chat(url, text, sleep, timeout=5.0, **spec):
    return complete(ProviderSpec(name="p1", endpoint=url, model_id="m1", timeout=timeout, **spec),
                    text, sleep=sleep)


def ask_embeddings(url, text, sleep, timeout=5.0, **backend):
    return RemoteEmbeddingBackend(url, "emb-1", 2, timeout=timeout, sleep=sleep, **backend).embed([text]).tolist()


# name -> (call, its request body for the text "t", a 200 reply for "t", the call's result)
CALLERS = {
    "chat": (ask_chat,
             lambda t: {"model": "m1", "messages": [{"role": "user", "content": t}], "temperature": 1.0},
             lambda t: {"choices": [{"message": {"role": "assistant", "content": t + "!"}}]},
             lambda t: t + "!"),
    "embeddings": (ask_embeddings,
                   lambda t: {"input": [t], "model": "emb-1"},
                   lambda t: {"data": [{"embedding": [float(len(t)), 0.5]}]},
                   lambda t: [[float(len(t)), 0.5]]),
}
PAYLOAD_KIND = {"chat": "completion", "embeddings": "embeddings"}


@pytest.fixture(params=list(CALLERS))
def caller(request):
    ask, body, reply, result = CALLERS[request.param]
    return SimpleNamespace(name=request.param, ask=ask, body=body, reply=reply, result=result)


def test_ok(server, caller):
    server.replies.append((200, caller.reply("t")))
    sleeps = []
    assert caller.ask(server.url, "t", sleeps.append) == caller.result("t")
    [(path, headers, body)] = server.seen
    assert path == "/v1/x"
    assert headers["Content-Type"] == "application/json"
    assert "Authorization" not in headers
    assert json.loads(body) == caller.body("t")
    assert sleeps == []


def test_503_retried_then_ok(server, caller):
    server.replies.extend([(503, {"error": "busy"}), (200, caller.reply("t"))])
    sleeps = []
    assert caller.ask(server.url, "t", sleeps.append) == caller.result("t")
    assert len(server.seen) == 2
    assert sleeps == [0.5]


@pytest.mark.parametrize("status", [404, 301, 302, 303, 307, 308])
def test_other_status_not_retried_and_body_capped(server, caller, status, monkeypatch):
    # A followed redirect would carry the key to the Location.
    monkeypatch.setenv("CMDSIM_TEST_KEY", "sekrit")
    text = "route « absente » " + "x" * 3000
    server.replies.append((status, text.encode()))
    sleeps = []
    with pytest.raises(ProviderError) as excinfo:
        caller.ask(server.url, "t", sleeps.append, api_key_env="CMDSIM_TEST_KEY")
    # The message names the status and keeps the reply's body out, whatever its length.
    assert str(excinfo.value).endswith(f": HTTP {status}")
    assert [path for path, _, _ in server.seen] == ["/v1/x"]
    assert sleeps == []


@pytest.mark.parametrize("payload", [b"not json", {"unexpected": True}])
def test_malformed_200(server, caller, payload):
    server.replies.append((200, payload))
    with pytest.raises(ProviderError, match=f"malformed {PAYLOAD_KIND[caller.name]} payload"):
        caller.ask(server.url, "t", lambda _: None)
    assert len(server.seen) == 1


def test_refused_port_is_a_transport_error_after_every_attempt(caller, caplog):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    sleeps = []
    with caplog.at_level(logging.WARNING, logger="cmdsim.gateway"):
        with pytest.raises(TransportError):
            caller.ask(f"http://127.0.0.1:{port}/v1", "t", sleeps.append)
    assert sleeps == [0.5, 1.0]
    assert sum("transport failure" in r.getMessage() for r in caplog.records) == MAX_RETRIES + 1


def test_stall_past_timeout_is_a_transport_error(server, caller):
    server.replies.extend([(STALL, None)] * (MAX_RETRIES + 1))
    sleeps = []
    with pytest.raises(TransportError, match="timed out"):
        caller.ask(server.url, "t", sleeps.append, timeout=0.2)
    assert len(server.seen) == MAX_RETRIES + 1
    assert sleeps == [0.5, 1.0]


def test_truncated_reply_is_a_transport_error(server, caller):
    server.replies.extend([(TRUNCATED, None)] * (MAX_RETRIES + 1))
    sleeps = []
    with pytest.raises(TransportError, match="IncompleteRead"):
        caller.ask(server.url, "t", sleeps.append)
    assert len(server.seen) == MAX_RETRIES + 1
    assert sleeps == [0.5, 1.0]


def test_non_ascii_text_round_trips(server, caller):
    text = "copie « C:\\données » vers 共有 — ok 😀"
    server.replies.append((200, caller.reply(text)))
    assert caller.ask(server.url, text, lambda _: None) == caller.result(text)
    assert json.loads(server.seen[0][2].decode("utf-8")) == caller.body(text)


def test_bearer_header_reaches_the_server(server, caller, monkeypatch):
    monkeypatch.setenv("CMDSIM_TEST_KEY", "sekrit")
    server.replies.append((200, caller.reply("t")))
    caller.ask(server.url, "t", lambda _: None, api_key_env="CMDSIM_TEST_KEY")
    assert server.seen[0][1]["Authorization"] == "Bearer sekrit"


@pytest.mark.parametrize("key", ["a\nb", "a\rb", "clé"])
def test_unsendable_key_is_a_configuration_error_before_any_request(server, caller, monkeypatch, key):
    monkeypatch.setenv("CMDSIM_TEST_KEY", key)
    with pytest.raises(ConfigurationError, match="CMDSIM_TEST_KEY must hold ASCII") as excinfo:
        caller.ask(server.url, "t", lambda _: None, api_key_env="CMDSIM_TEST_KEY")
    assert key not in str(excinfo.value)
    assert server.seen == []


def test_unsendable_url_is_a_configuration_error_without_retries(caller):
    sleeps = []
    with pytest.raises(ConfigurationError, match="Invalid IPv6 URL"):
        caller.ask("http://[::1/v1", "t", sleeps.append)
    assert sleeps == []


# The HTTP client with what it pulls in, and the thread pool: each loads
# with the first request or the first pool that needs it, not at import.
_ON_FIRST_USE = ("requests", "http.client", "urllib.request", "ssl", "email", "socket", "concurrent.futures")


def _loaded_on_first_use(tmp_path, stages):
    """Which of ``_ON_FIRST_USE`` a fresh process holds after ``import
    cmdsim.cli``, and then after each argv of ``stages`` has run through
    ``cli.run`` (each must exit 0): one sorted list per point."""
    src = str(Path(cmdsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import json, sys\n"
        "from cmdsim import cli\n"
        f"watched = {_ON_FIRST_USE!r}\n"
        "loaded = [sorted(m for m in watched if m in sys.modules)]\n"
        f"for argv in {stages!r}:\n"
        "    assert cli.run(argv) == 0, argv\n"
        "    loaded.append(sorted(m for m in watched if m in sys.modules))\n"
        "print(json.dumps(loaded))\n"
    )
    probe = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    return json.loads(probe.stdout.splitlines()[-1])


def test_offline_stages_load_no_http_client_or_thread_pool(tmp_path):
    records = tmp_path / "explanations.jsonl"
    records.write_text("".join(
        json.dumps({"text": f"copy /aa c:\\srv\\alpha{i}", "explanation": f"This command duplicates files {i % 2}."})
        + "\n" for i in range(6)), encoding="utf-8")
    out = str(tmp_path / "out")
    loaded = _loaded_on_first_use(tmp_path, [
        ["embed", "--in", str(records), "--output-dir", out],
        ["cluster", "dedup", "--in", str(records), "--min-pts", "2", "--output-dir", out],
    ])
    assert loaded == [[], [], []]


def test_provider_stages_load_the_thread_pool_only_for_jobs_above_one(tmp_path, seeds_file, providers_file):
    out = str(tmp_path / "out")
    loaded = _loaded_on_first_use(tmp_path, [
        ["synth", "run", "--seeds", str(seeds_file), "--providers", str(providers_file),
         "--target", "8", "--output-dir", out],
        ["synth", "pairs", "--in", str(seeds_file), "--providers", str(providers_file),
         "--jobs", "2", "--output-dir", out],
    ])
    # mock: providers answer in-process, so no HTTP client loads either.
    assert loaded == [[], [], ["concurrent.futures"]]
