"""Localhost chat-completion stub for the ``synth-http`` workload.

Run as a separate process::

    python3 stub.py --src <abs path to src> --delay-ms 5 --fail-keys keys.txt

It binds ``127.0.0.1`` on a free port and prints ``PORT <n>`` on stdout.
``POST`` answers in the common chat-completion JSON shape with
``MockProvider(salt=model).complete(prompt)`` after a fixed service
delay.  The first request for each ``(model, prompt)`` key whose digest
is listed in ``--fail-keys`` gets a retryable 503 instead; the list is
chosen from a seeded hash before the run, so which requests fail does
not depend on thread interleaving.  ``GET /stats`` returns the request,
failure, busy-time and CPU-time counters.  The server stops when its
stdin closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def key_digest(model: str, prompt: str) -> str:
    """Identity of one (model, prompt) key, shared with the planner."""
    return hashlib.sha256(f"{model}\x00{prompt}".encode("utf-8")).hexdigest()


class StubState:
    def __init__(self, delay_s: float, fail_keys: set[str]) -> None:
        from cmdsim.gateway import MockProvider

        self._mock = MockProvider
        self._providers: dict[str, object] = {}
        self.delay_s = delay_s
        self.pending_failures = set(fail_keys)
        self.lock = threading.Lock()
        self.requests = 0
        self.injected = 0
        self.service_s = 0.0
        self.cpu_start = time.process_time()

    def provider(self, model: str):
        with self.lock:
            provider = self._providers.get(model)
            if provider is None:
                provider = self._providers[model] = self._mock(salt=model)
            return provider

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "injected": self.injected,
                "service_s": self.service_s,
                "cpu_s": time.process_time() - self.cpu_start,
            }


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # noqa: A002 - silence access log
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802 - http.server naming
            if self.path == "/stats":
                self._send(200, state.stats())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):  # noqa: N802 - http.server naming
            start = time.perf_counter()
            length = int(self.headers.get("Content-Length", 0))
            request = json.loads(self.rfile.read(length))
            model = request["model"]
            prompt = request["messages"][0]["content"]
            digest = key_digest(model, prompt)
            with state.lock:
                state.requests += 1
                fail = digest in state.pending_failures
                if fail:
                    state.pending_failures.discard(digest)
                    state.injected += 1
            time.sleep(state.delay_s)
            if fail:
                self._send(503, {"error": "injected: service unavailable"})
            else:
                text = state.provider(model).complete(prompt)
                self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})
            elapsed = time.perf_counter() - start
            with state.lock:
                state.service_s += elapsed

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="absolute path to the package's src directory")
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--fail-keys", required=True, help="file of key digests, one per line")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    with open(args.fail_keys, encoding="utf-8") as handle:
        fail_keys = {line.strip() for line in handle if line.strip()}
    state = StubState(args.delay_ms / 1000.0, fail_keys)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    watcher = threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True)
    watcher.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
