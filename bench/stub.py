"""Loopback OpenAI-style chat endpoint for the opro-gateway workload.

One stdlib ``HTTPServer`` on 127.0.0.1 served from one thread, so there is
one connection at a time and the benchmark process never has more than two
threads.  Each POST to ``/v1/chat/completions`` is answered by the engine
``use()`` names: the same ``MockLocalSearchEngine`` the in-process
``opro_mock`` method builds, so record runs must reproduce its results.
The engine is built on the server thread at the first request, so none of
the endpoint's work lands in the client's spans.
The stub counts requests and its own handling time; the client-side
remainder of ``chat_complete`` is transport wait.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - stdlib handler name
        stub: ChatStub = self.server.stub
        t0 = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        prompt = json.loads(body)["messages"][-1]["content"]
        if stub.engine is None:
            stub.engine = stub.engine_factory()
        text = stub.engine.propose(prompt)
        reply = json.dumps({"choices": [{"message": {
            "role": "assistant", "content": text}}]}).encode("utf-8")
        # Count before replying so the client never sees a response whose
        # request is not yet counted.
        with stub.lock:
            stub.requests += 1
            stub.handle_s += time.perf_counter() - t0
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, fmt, *args):
        pass


class ChatStub:
    """Start with the constructor, stop with ``close()`` (or ``with``)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.handle_s = 0.0
        self.engine = None
        self.engine_factory = None
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            name="chat-stub", daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return (f"http://127.0.0.1:{self._server.server_address[1]}"
                "/v1/chat/completions")

    def use(self, engine_factory) -> None:
        """Answer the following requests with ``engine_factory().propose``."""
        self.engine_factory = engine_factory
        self.engine = None

    def snapshot(self) -> tuple[int, float]:
        """(requests served, handling seconds) so far."""
        with self.lock:
            return self.requests, self.handle_s

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "ChatStub":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
