"""Chat-completion gateway with cassette record/replay.

The proposal loop needs a text-in/text-out engine; this module provides one
backed by an HTTP chat endpoint plus a cassette layer so every networked
run can be replayed byte-for-byte offline.  Replay never falls back to the
network: a missing or mismatching cassette line is an error, because a
silent live call would make an offline test nondeterministic and leak
prompts.  A line left over when a run ends is an error too: the run did
not replay what was recorded.

Requests go out through the standard library's http.client.  A
ChatProposalEngine keeps one connection for its life: reused while the
server keeps it alive, reopened when the server closes it.  The connection
reads the environment once, when it is made: the proxy for the URL's
scheme (http_proxy, https_proxy, no_proxy) and, for https, a CA bundle
named by REQUESTS_CA_BUNDLE or CURL_CA_BUNDLE.  netrc is not read: the API
key is the only credential sent to the endpoint.

Credentials come from the environment and are kept out of reprs, cassette
files, and error messages.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import math
import os
import select
import socket
import ssl
import time
import urllib.parse
import urllib.request
from contextlib import closing
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .configs import bounded, check_fields

API_KEY_ENV = "AUTOCOMM_API_KEY"

Message = dict[str, str]


class GatewayError(RuntimeError):
    pass


class HttpError(GatewayError):
    def __init__(self, status: int, body_excerpt: str):
        self.status = status
        self.body_excerpt = body_excerpt
        super().__init__(f"chat endpoint returned HTTP {status}: {body_excerpt}")


class CassetteError(GatewayError):
    pass


@dataclass
class EndpointConfig:
    """Where and how to reach the chat-completion endpoint.

    base_url is the full URL POSTed to.  The api key is read from the
    AUTOCOMM_API_KEY environment variable when not given explicitly and is
    excluded from repr and any serialized form.
    """

    base_url: str
    model: str
    api_key: Optional[str] = field(default=None, repr=False)
    temperature: float = 1.0
    timeout_s: float = bounded(30.0, gt=0)
    max_retries: int = bounded(3, ge=0)
    backoff_base_s: float = bounded(0.5, ge=0)

    def __post_init__(self) -> None:
        if self.api_key is None:
            self.api_key = os.environ.get(API_KEY_ENV)
        check_fields(self, "endpoint")

    def headers(self) -> dict[str, str]:
        h = {"Content-Type": "application/json"}
        if self.api_key:
            h["Authorization"] = f"Bearer {self.api_key}"
        return h


@dataclass(frozen=True)
class ChatResponse:
    text: str
    latency_ms: float


def request_digest(messages: Sequence[Message]) -> str:
    """sha256 over the canonical JSON form of the message list."""
    canon = json.dumps(list(messages), sort_keys=True,
                       separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


def _closed_by_peer(sock: socket.socket) -> bool:
    """True when an idle kept-alive socket has been closed by the server.

    Between requests a live connection has nothing to read, so a readable
    one holds the server's FIN (or bytes nobody asked for) and must not
    carry the next request.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _environment_proxy(scheme: str, host: str
                       ) -> Optional[tuple[str, int, dict[str, str]]]:
    """(host, port, auth headers) of the proxy the environment names for
    `scheme`, or None when it names none or exempts `host`."""
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(host):
        return None
    parts = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
    auth = {}
    if parts.username is not None:
        credentials = (f"{urllib.parse.unquote(parts.username)}:"
                       f"{urllib.parse.unquote(parts.password or '')}")
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
            credentials.encode("latin-1")).decode("ascii")
    return parts.hostname, parts.port or 80, auth


class EndpointConnection:
    """One HTTP(S) connection to the endpoint at `url`.

    The environment is read here, once: the proxy urllib.request.getproxies()
    names for the URL's scheme, unless proxy_bypass() exempts the host, and
    for https a CA bundle named by REQUESTS_CA_BUNDLE or CURL_CA_BUNDLE (the
    system's CAs otherwise).  An https request reaches its proxy through a
    CONNECT tunnel; a plain one names the absolute URL to the proxy.
    Credentials in the proxy URL go to the proxy as Basic
    Proxy-Authorization.  The socket opens at the first post, stays open
    while the server keeps it alive and reopens after the server closed it.
    close() closes the socket; closing twice is harmless.
    """

    def __init__(self, url: str, timeout_s: float):
        parts = urllib.parse.urlsplit(url)
        try:
            host, port = parts.hostname, parts.port
        except ValueError as exc:
            raise GatewayError(f"bad endpoint URL {url!r}: {exc}") from exc
        if parts.scheme not in ("http", "https") or not host:
            raise GatewayError(f"endpoint URL {url!r} is not an http:// or "
                               "https:// URL with a host")
        self._target = urllib.parse.urlunsplit(
            ("", "", parts.path or "/", parts.query, ""))
        self._proxy_headers: dict[str, str] = {}
        proxy = _environment_proxy(parts.scheme, host)
        self._conn: http.client.HTTPConnection
        if parts.scheme == "https":
            bundle = (os.environ.get("REQUESTS_CA_BUNDLE")
                      or os.environ.get("CURL_CA_BUNDLE"))
            context = ssl.create_default_context(cafile=bundle)
            if proxy is None:
                self._conn = http.client.HTTPSConnection(
                    host, port, timeout=timeout_s, context=context)
            else:
                proxy_host, proxy_port, auth = proxy
                self._conn = http.client.HTTPSConnection(
                    proxy_host, proxy_port, timeout=timeout_s, context=context)
                self._conn.set_tunnel(host, port, headers=auth)
        elif proxy is None:
            self._conn = http.client.HTTPConnection(host, port,
                                                    timeout=timeout_s)
        else:
            proxy_host, proxy_port, self._proxy_headers = proxy
            self._conn = http.client.HTTPConnection(proxy_host, proxy_port,
                                                    timeout=timeout_s)
            self._target = (f"http://{parts.netloc.rpartition('@')[2]}"
                            f"{self._target}")

    def post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """POST `body`; the response's status and its whole body."""
        conn = self._conn
        if conn.sock is not None and _closed_by_peer(conn.sock):
            conn.close()
        try:
            conn.request("POST", self._target, body,
                         headers | self._proxy_headers)
            response = conn.getresponse()
            return response.status, response.read()
        except BaseException:
            # A request cut off midway leaves the connection unusable.
            conn.close()
            raise

    def close(self) -> None:
        self._conn.close()


def _excerpt(body: bytes) -> str:
    return body.decode("utf-8", errors="replace")[:200]


def chat_complete(endpoint: EndpointConfig, messages: Sequence[Message],
                  connection: Optional[EndpointConnection] = None
                  ) -> ChatResponse:
    """One chat completion over HTTP.

    Retries connection failures and transient statuses with exponential
    backoff up to max_retries; any other status outside 2xx, a redirect
    included, raises with a short body excerpt (never the request, which
    contains the prompt and would sit next to the redacted key in logs).
    POSTs through `connection` when one is given, and through a connection
    opened and closed for this call otherwise.
    """
    body = json.dumps({
        "model": endpoint.model,
        "messages": list(messages),
        "temperature": endpoint.temperature,
    }, allow_nan=False).encode("utf-8")
    if connection is None:
        with closing(EndpointConnection(endpoint.base_url,
                                        endpoint.timeout_s)) as once:
            return _post_with_retries(endpoint, body, once)
    return _post_with_retries(endpoint, body, connection)


def _post_with_retries(endpoint: EndpointConfig, body: bytes,
                       connection: EndpointConnection) -> ChatResponse:
    last_exc: Optional[Exception] = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(endpoint.backoff_base_s * (2 ** (attempt - 1)))
        t0 = time.perf_counter()
        try:
            status, raw = connection.post(body, endpoint.headers())
        except (OSError, http.client.HTTPException) as exc:
            last_exc = exc
            continue
        latency_ms = (time.perf_counter() - t0) * 1000.0
        if status in _RETRYABLE_STATUS:
            last_exc = HttpError(status, _excerpt(raw))
            continue
        if not 200 <= status < 300:
            raise HttpError(status, _excerpt(raw))
        try:
            text = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed chat response body: {exc}") from exc
        if not isinstance(text, str):
            raise GatewayError(f"malformed chat response body: message content "
                               f"is {type(text).__name__}, not a string")
        return ChatResponse(text=text, latency_ms=latency_ms)
    raise GatewayError(
        f"chat endpoint unreachable after {endpoint.max_retries + 1} attempts: "
        f"{last_exc}")


def _is_entry(entry) -> bool:
    """A replayable cassette line: string digest and text, finite latency."""
    if not isinstance(entry, dict):
        return False
    latency = entry.get("latency_ms", 0.0)
    return (isinstance(entry.get("request_digest"), str)
            and isinstance(entry.get("response_text"), str)
            and isinstance(latency, (int, float))
            and not isinstance(latency, bool) and math.isfinite(latency))


class Cassette:
    """JSON-lines request/response log for offline replay.

    Each line is {"request_digest", "response_text", "latency_ms"}.  Record
    mode truncates the file, then writes responses as they arrive, so a
    re-recording never leaves stale entries behind.  Replay mode checks
    every line on load: an object with string request_digest and
    response_text and, when present, a finite numeric latency_ms.  The next line
    must then match the incoming request digest, in order; a mismatch or
    an exhausted file raises instead of touching the network.
    """

    def __init__(self, path: str, mode: str):
        if mode not in ("record", "replay"):
            raise ValueError(f"cassette mode must be record or replay, got {mode!r}")
        self.path = str(path)
        self.mode = mode
        self._entries: list[dict] = []
        self._cursor = 0
        self._fh = None
        if mode == "replay":
            with open(self.path, "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError as exc:
                        raise CassetteError(
                            f"{self.path}:{line_no}: bad cassette line: {exc}")
                    if not _is_entry(entry):
                        raise CassetteError(
                            f"{self.path}:{line_no}: bad cassette line: not an "
                            "object with string request_digest and "
                            "response_text and a finite latency_ms")
                    self._entries.append(entry)
        else:
            self._fh = open(self.path, "w", encoding="utf-8")

    def __enter__(self) -> "Cassette":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def remaining(self) -> int:
        return len(self._entries) - self._cursor

    def record(self, digest: str, response: ChatResponse) -> None:
        if self.mode != "record":
            raise CassetteError("cassette is not in record mode")
        assert self._fh is not None
        line = json.dumps({
            "request_digest": digest,
            "response_text": response.text,
            "latency_ms": response.latency_ms,
        }, sort_keys=True, ensure_ascii=False)
        self._fh.write(line + "\n")
        self._fh.flush()

    def replay(self, digest: str) -> ChatResponse:
        if self.mode != "replay":
            raise CassetteError("cassette is not in replay mode")
        if self._cursor >= len(self._entries):
            raise CassetteError(
                f"cassette {self.path} exhausted at request {self._cursor + 1}")
        entry = self._entries[self._cursor]
        if entry["request_digest"] != digest:
            raise CassetteError(
                f"cassette {self.path} entry {self._cursor + 1} digest mismatch: "
                f"expected {entry['request_digest']}, got {digest}")
        self._cursor += 1
        return ChatResponse(text=entry["response_text"],
                            latency_ms=float(entry.get("latency_ms", 0.0)))


class ChatProposalEngine:
    """Adapter from the chat gateway to the proposal-engine interface.

    With a replay cassette no endpoint is contacted at all; with a record
    cassette every live response is appended before being returned.  Live
    calls share one EndpointConnection, made at the first of them: it reads
    the environment's proxy and CA bundle once, keeps its socket open
    between calls while the server allows, and reopens it, with no retry
    and no backoff, when the server has closed it.  close() closes the
    connection and the cassette; closing twice is harmless.  Used as a
    context manager, it also checks on a clean exit that a replay cassette
    was consumed to its end.
    """

    def __init__(self, endpoint: EndpointConfig,
                 cassette: Optional[Cassette] = None):
        self.endpoint = endpoint
        self.cassette = cassette
        self._conn: Optional[EndpointConnection] = None

    def __enter__(self) -> "ChatProposalEngine":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close()
        # An error already in flight (a digest mismatch, say) explains the
        # leftovers; raising here would hide it.
        left = self.cassette.remaining if self.cassette is not None else 0
        if exc_type is None and left:
            raise CassetteError(f"cassette {self.cassette.path}: {left} "
                                f"entries left over after the run")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self.cassette is not None:
            self.cassette.close()

    def propose(self, prompt: str) -> str:
        messages = [{"role": "user", "content": prompt}]
        digest = request_digest(messages)
        if self.cassette is not None and self.cassette.mode == "replay":
            return self.cassette.replay(digest).text
        if self._conn is None:
            self._conn = EndpointConnection(self.endpoint.base_url,
                                            self.endpoint.timeout_s)
        response = chat_complete(self.endpoint, messages, self._conn)
        if self.cassette is not None:
            self.cassette.record(digest, response)
        return response.text
