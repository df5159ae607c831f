"""Chat-completion gateway with cassette record/replay.

The proposal loop needs a text-in/text-out engine; this module provides one
backed by an HTTP chat endpoint plus a cassette layer so every networked
run can be replayed byte-for-byte offline.  Replay never falls back to the
network: a missing or mismatching cassette line is an error, because a
silent live call would make an offline test nondeterministic and leak
prompts.  A line left over when a run ends is an error too: the run did
not replay what was recorded.

Credentials come from the environment and are kept out of reprs, cassette
files, and error messages.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import requests

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
    timeout_s: float = 30.0
    max_retries: int = 3
    backoff_base_s: float = 0.5

    def __post_init__(self) -> None:
        if self.api_key is None:
            self.api_key = os.environ.get(API_KEY_ENV)

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


def chat_complete(endpoint: EndpointConfig, messages: Sequence[Message],
                  session: Optional[requests.Session] = None) -> ChatResponse:
    """One chat completion over HTTP.

    Retries connection failures and transient statuses with exponential
    backoff up to max_retries; any other HTTP error raises with a short
    body excerpt (never the request, which contains the prompt and would
    sit next to the redacted key in logs).  POSTs through `session` when
    one is given, keeping its connection alive between calls, and through
    a one-request session otherwise.
    """
    payload = {
        "model": endpoint.model,
        "messages": list(messages),
        "temperature": endpoint.temperature,
    }
    last_exc: Optional[Exception] = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(endpoint.backoff_base_s * (2 ** (attempt - 1)))
        t0 = time.perf_counter()
        try:
            resp = (session or requests).post(
                endpoint.base_url, json=payload, headers=endpoint.headers(),
                timeout=endpoint.timeout_s)
        except requests.RequestException as exc:
            last_exc = exc
            continue
        latency_ms = (time.perf_counter() - t0) * 1000.0
        if resp.status_code in _RETRYABLE_STATUS:
            last_exc = HttpError(resp.status_code, resp.text[:200])
            continue
        if resp.status_code >= 400:
            raise HttpError(resp.status_code, resp.text[:200])
        try:
            text = resp.json()["choices"][0]["message"]["content"]
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
    calls share one HTTP session, opened at the first of them; it reads the
    environment's proxies, CA bundle and netrc credentials for the endpoint
    once, when it opens, instead of on every request.  close() releases
    the session and closes the cassette; closing twice is harmless.  Used
    as a context manager, it also checks on a clean exit that a replay
    cassette was consumed to its end.
    """

    def __init__(self, endpoint: EndpointConfig,
                 cassette: Optional[Cassette] = None):
        self.endpoint = endpoint
        self.cassette = cassette
        self._session: Optional[requests.Session] = None

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
        if self._session is not None:
            self._session.close()
            self._session = None
        if self.cassette is not None:
            self.cassette.close()

    def _live_session(self) -> requests.Session:
        if self._session is None:
            session = requests.Session()
            url = self.endpoint.base_url
            env = session.merge_environment_settings(url, {}, None, None, None)
            session.proxies, session.verify = env["proxies"], env["verify"]
            session.auth = requests.utils.get_netrc_auth(url)
            session.trust_env = False
            self._session = session
        return self._session

    def propose(self, prompt: str) -> str:
        messages = [{"role": "user", "content": prompt}]
        digest = request_digest(messages)
        if self.cassette is not None and self.cassette.mode == "replay":
            return self.cassette.replay(digest).text
        response = chat_complete(self.endpoint, messages, self._live_session())
        if self.cassette is not None:
            self.cassette.record(digest, response)
        return response.text
