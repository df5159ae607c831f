"""HTTP chat gateway, retry policy, and record/replay cassettes."""

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from autocomm.configs import ScenarioConfig, SchedulingConfig, Track
from autocomm.gateway import (
    API_KEY_ENV,
    Cassette,
    CassetteError,
    ChatProposalEngine,
    ChatResponse,
    EndpointConfig,
    GatewayError,
    HttpError,
    chat_complete,
    request_digest,
)
from autocomm.report import run


def chat_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


class StubHandler(BaseHTTPRequestHandler):
    """Plays back (status, body) pairs and logs each incoming request."""

    script = []
    seen = []

    def do_POST(self):
        n = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(n)
        type(self).seen.append({
            "headers": dict(self.headers),
            "json": json.loads(body) if body else None,
        })
        status, payload = self.script.pop(0) if len(self.script) > 1 \
            else self.script[0]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    StubHandler.script = []
    StubHandler.seen = []
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    yield url
    server.shutdown()
    server.server_close()


@pytest.fixture()
def no_sleep(monkeypatch):
    slept = []
    monkeypatch.setattr("autocomm.gateway.time.sleep", slept.append)
    return slept


MESSAGES = [{"role": "user", "content": "hello"}]


# ---------------------------------------------------------------------------
# Digest and endpoint config


def test_request_digest_matches_canonical_sha256():
    canon = json.dumps(MESSAGES, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=False)
    assert request_digest(MESSAGES) == \
        hashlib.sha256(canon.encode("utf-8")).hexdigest()


def test_request_digest_key_order_insensitive_content_sensitive():
    a = [{"role": "user", "content": "x"}]
    b = [{"content": "x", "role": "user"}]
    assert request_digest(a) == request_digest(b)
    assert request_digest(a) != request_digest([{"role": "user",
                                                 "content": "y"}])


def test_endpoint_reads_key_from_env(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-test-123")
    ep = EndpointConfig(base_url="http://x", model="m")
    assert ep.api_key == "sk-test-123"
    assert ep.headers()["Authorization"] == "Bearer sk-test-123"
    assert "sk-test-123" not in repr(ep)


def test_endpoint_explicit_key_wins(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-env")
    ep = EndpointConfig(base_url="http://x", model="m", api_key="sk-mine")
    assert ep.api_key == "sk-mine"


def test_endpoint_no_key_no_auth_header(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    ep = EndpointConfig(base_url="http://x", model="m")
    assert "Authorization" not in ep.headers()


# ---------------------------------------------------------------------------
# chat_complete over a local stub


def test_chat_complete_success(stub_server):
    StubHandler.script = [(200, chat_body("the reply"))]
    ep = EndpointConfig(base_url=stub_server, model="test-model",
                        api_key="sk-abc", temperature=0.25)
    out = chat_complete(ep, MESSAGES)
    assert out.text == "the reply"
    assert out.latency_ms > 0
    req = StubHandler.seen[0]
    assert req["json"] == {"model": "test-model", "messages": MESSAGES,
                           "temperature": 0.25}
    assert req["headers"]["Authorization"] == "Bearer sk-abc"


def test_chat_complete_temperature_override(stub_server):
    StubHandler.script = [(200, chat_body("ok"))]
    ep = EndpointConfig(base_url=stub_server, model="m", temperature=1.0)
    chat_complete(ep, MESSAGES, temperature=0.0)
    assert StubHandler.seen[0]["json"]["temperature"] == 0.0


def test_chat_complete_retries_transient_status(stub_server, no_sleep):
    StubHandler.script = [(500, "boom"), (200, chat_body("recovered"))]
    ep = EndpointConfig(base_url=stub_server, model="m",
                        backoff_base_s=0.5, max_retries=3)
    out = chat_complete(ep, MESSAGES)
    assert out.text == "recovered"
    assert len(StubHandler.seen) == 2
    assert no_sleep == [0.5]


def test_chat_complete_client_error_does_not_retry(stub_server, no_sleep):
    StubHandler.script = [(404, "no such model")]
    ep = EndpointConfig(base_url=stub_server, model="m")
    with pytest.raises(HttpError) as err:
        chat_complete(ep, MESSAGES)
    assert err.value.status == 404
    assert "no such model" in str(err.value)
    assert len(StubHandler.seen) == 1
    assert no_sleep == []


def test_chat_complete_malformed_body(stub_server):
    StubHandler.script = [(200, json.dumps({"choices": []}))]
    ep = EndpointConfig(base_url=stub_server, model="m")
    with pytest.raises(GatewayError, match="malformed chat response body"):
        chat_complete(ep, MESSAGES)


def test_chat_complete_exhausts_retries(stub_server, no_sleep):
    StubHandler.script = [(503, "down")]
    ep = EndpointConfig(base_url=stub_server, model="m", max_retries=2)
    with pytest.raises(GatewayError, match="after 3 attempts"):
        chat_complete(ep, MESSAGES)
    assert len(StubHandler.seen) == 3


def test_chat_complete_connection_refused(no_sleep):
    ep = EndpointConfig(base_url="http://127.0.0.1:9/", model="m",
                        max_retries=1, timeout_s=1)
    with pytest.raises(GatewayError, match="after 2 attempts"):
        chat_complete(ep, MESSAGES)


# ---------------------------------------------------------------------------
# Cassettes


def test_cassette_round_trip(tmp_path):
    path = tmp_path / "run.jsonl"
    with Cassette(path, "record") as rec:
        rec.record("d1", ChatResponse(text="first", latency_ms=12.5))
        rec.record("d2", ChatResponse(text="second", latency_ms=3.0))

    with Cassette(path, "replay") as rep:
        assert rep.remaining == 2
        assert rep.replay("d1").text == "first"
        assert rep.replay("d2") == ChatResponse(text="second", latency_ms=3.0)
        assert rep.remaining == 0
        with pytest.raises(CassetteError, match="exhausted at request 3"):
            rep.replay("d3")


def test_cassette_rerecord_replaces_old_entries(tmp_path):
    path = tmp_path / "run.jsonl"
    with Cassette(path, "record") as rec:
        rec.record("a", ChatResponse(text="stale", latency_ms=1.0))
    with Cassette(path, "record") as rec:
        rec.record("b", ChatResponse(text="fresh", latency_ms=2.0))

    with Cassette(path, "replay") as rep:
        assert rep.replay("b") == ChatResponse(text="fresh", latency_ms=2.0)
        assert rep.remaining == 0


def test_scheduling_run_closes_its_cassette(stub_server, tmp_path, monkeypatch):
    StubHandler.script = [(200, chat_body("[1, 2, 1, 2, 1, 2, 1, 2, 1]"))]
    closed = []
    real_close = Cassette.close

    def close(self):
        closed.append(self.mode)
        real_close(self)

    monkeypatch.setattr(Cassette, "close", close)
    scenario = ScenarioConfig(track=Track.SCHEDULING, seed=3,
                              scheduling=SchedulingConfig(num_robots=2))
    path = tmp_path / "run.jsonl"
    opts = {"endpoint_url": stub_server, "model": "m", "cassette": str(path),
            "opro_params": {"max_iterations": 2}}
    run(scenario, "opro_chat", dict(opts, cassette_mode="record"))
    assert closed == ["record"]
    run(scenario, "opro_chat", dict(opts, cassette_mode="replay"))
    assert closed == ["record", "replay"]


def test_cassette_digest_mismatch(tmp_path):
    path = tmp_path / "run.jsonl"
    with Cassette(path, "record") as rec:
        rec.record("expected", ChatResponse(text="x", latency_ms=1.0))
    with Cassette(path, "replay") as rep:
        with pytest.raises(CassetteError,
                           match="digest mismatch: expected expected, got other"):
            rep.replay("other")


def test_cassette_line_format(tmp_path):
    path = tmp_path / "run.jsonl"
    with Cassette(path, "record") as rec:
        rec.record("abc", ChatResponse(text="hi", latency_ms=7.25))
    line = path.read_text(encoding="utf-8")
    assert line.endswith("\n")
    assert json.loads(line) == {"request_digest": "abc",
                                "response_text": "hi", "latency_ms": 7.25}
    assert list(json.loads(line)) == sorted(json.loads(line))


def test_cassette_blank_lines_skipped_bad_line_raises(tmp_path):
    path = tmp_path / "run.jsonl"
    entry = json.dumps({"request_digest": "d", "response_text": "t",
                        "latency_ms": 0})
    path.write_text(entry + "\n\n" + entry + "\n", encoding="utf-8")
    assert Cassette(path, "replay").remaining == 2

    path.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(CassetteError, match=r":1: bad cassette line"):
        Cassette(path, "replay")


def test_cassette_mode_errors(tmp_path):
    path = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match="record or replay"):
        Cassette(path, "append")
    path.write_text("", encoding="utf-8")
    with pytest.raises(CassetteError, match="not in record mode"):
        Cassette(path, "replay").record("d", ChatResponse("x", 0.0))
    with pytest.raises(CassetteError, match="not in replay mode"):
        Cassette(path, "record").replay("d")


# ---------------------------------------------------------------------------
# Proposal engine adapter


def test_engine_record_then_replay_offline(stub_server, tmp_path, monkeypatch):
    StubHandler.script = [(200, chat_body("proposal A")),
                          (200, chat_body("proposal B"))]
    path = tmp_path / "session.jsonl"
    ep = EndpointConfig(base_url=stub_server, model="m", api_key="sk-secret")
    with Cassette(path, "record") as rec:
        live = ChatProposalEngine(ep, cassette=rec, system_prompt="be terse")
        assert live.propose("p1") == "proposal A"
        assert live.propose("p2") == "proposal B"
    assert len(StubHandler.seen) == 2

    # Replay must not touch the network at all.
    def forbidden(*args, **kwargs):
        raise AssertionError("network call during replay")

    monkeypatch.setattr("autocomm.gateway.requests.post", forbidden)
    dead = EndpointConfig(base_url="http://127.0.0.1:9/", model="m")
    with Cassette(path, "replay") as rep:
        offline = ChatProposalEngine(dead, cassette=rep,
                                     system_prompt="be terse")
        assert offline.propose("p1") == "proposal A"
        assert offline.propose("p2") == "proposal B"


def test_engine_replay_detects_prompt_drift(stub_server, tmp_path):
    StubHandler.script = [(200, chat_body("x"))]
    ep = EndpointConfig(base_url=stub_server, model="m")
    path = tmp_path / "session.jsonl"
    with Cassette(path, "record") as rec:
        ChatProposalEngine(ep, cassette=rec,
                           system_prompt="style A").propose("p")
    with Cassette(path, "replay") as rep:
        drifted = ChatProposalEngine(ep, cassette=rep,
                                     system_prompt="style B")
        with pytest.raises(CassetteError, match="digest mismatch"):
            drifted.propose("p")


def test_cassette_never_contains_api_key(stub_server, tmp_path):
    StubHandler.script = [(200, chat_body("y"))]
    ep = EndpointConfig(base_url=stub_server, model="m",
                        api_key="sk-very-secret")
    path = tmp_path / "session.jsonl"
    with Cassette(path, "record") as rec:
        ChatProposalEngine(ep, cassette=rec).propose("p")
    assert "sk-very-secret" not in path.read_text(encoding="utf-8")
