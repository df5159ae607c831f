"""HTTP chat gateway, retry policy, and record/replay cassettes."""

import base64
import hashlib
import json
import math
import socket
import ssl
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from autocomm.cli import main
from autocomm.configs import (
    MAX_BANDWIDTH_HZ,
    ConfigError,
    ObjectiveKind,
    ObjectiveSpec,
    ScenarioConfig,
    SchedulingConfig,
    Track,
    scenario_to_json,
)
from autocomm.gateway import (
    API_KEY_ENV,
    Cassette,
    CassetteError,
    ChatProposalEngine,
    ChatResponse,
    EndpointConfig,
    EndpointConnection,
    GatewayError,
    HttpError,
    chat_complete,
    request_digest,
)
from autocomm.report import OPRO_METHODS, SCHEDULING_METHODS, run, sweep


def chat_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


class StubHandler(BaseHTTPRequestHandler):
    """Plays back (status, body) pairs and logs each incoming request and
    each accepted connection.  Speaks HTTP/1.0: the server closes the
    connection after every response."""

    script = []
    seen = []
    connections = []
    # A threading.Event here makes the server close the connection after
    # its next response without saying so in the headers, as a server that
    # times out an idle keep-alive connection does; the handler sets the
    # event once the socket is shut.
    drop = None

    def setup(self):
        super().setup()
        type(self).connections.append(self.client_address)

    def do_POST(self):
        n = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(n)
        type(self).seen.append({
            "path": self.path,
            "headers": dict(self.headers),
            "json": json.loads(body) if body else None,
        })
        status, payload = self.script.pop(0) if len(self.script) > 1 \
            else self.script[0]
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if 300 <= status < 400:
            self.send_header("Location", "/v1/elsewhere")
        self.end_headers()
        self.wfile.write(payload)
        drop = type(self).drop
        if drop is not None and not drop.is_set():
            self.wfile.flush()
            self.connection.shutdown(socket.SHUT_RDWR)
            self.close_connection = True
            drop.set()

    def do_CONNECT(self):
        type(self).seen.append({"connect": self.path,
                                "headers": dict(self.headers)})
        self.send_error(502, "no tunnels here")

    def log_message(self, *args):
        pass


class KeepAliveHandler(StubHandler):
    """The same stub over HTTP/1.1: connections stay open between requests.
    The stdlib handler writes headers and body apart, so Nagle's algorithm
    must be off or every response waits for a delayed ACK."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True


def _serve(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    StubHandler.script = []
    StubHandler.seen = []
    StubHandler.connections = []
    StubHandler.drop = None
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    server.shutdown()
    server.server_close()


@pytest.fixture()
def stub_server():
    yield from _serve(StubHandler)


@pytest.fixture()
def keepalive_server():
    yield from _serve(KeepAliveHandler)


@pytest.fixture()
def clean_proxy_env(monkeypatch):
    """No proxy settings from the host environment; tests set their own."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def forbid_network(monkeypatch):
    """From here on the test fails if any socket tries to connect."""
    def forbidden(*args, **kwargs):
        raise AssertionError("network call during replay")

    monkeypatch.setattr(socket.socket, "connect", forbidden)
    monkeypatch.setattr(socket.socket, "connect_ex", forbidden)
    monkeypatch.setattr(socket, "create_connection", forbidden)


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


NOT_INT = "must be an integer in float range"
NOT_NUMBER = "must be a number in float range"

# Per field: values refused at construction with the rule each breaks,
# then values kept.
ENDPOINT_NUMBERS = {
    # -1 made no attempt at all and reported "after 0 attempts: None".
    "max_retries": (((-1, "must be >= 0"), (1.0, NOT_INT), (2.5, NOT_INT),
                     (True, NOT_INT), (None, NOT_INT), ("3", NOT_INT)),
                    (0, 3)),
    # 0 retried with backoff, then reported "Operation now in progress".
    "timeout_s": (((0, "must be > 0"), (0.0, "must be > 0"),
                   (-1.0, "must be > 0"), (math.nan, NOT_NUMBER),
                   (math.inf, NOT_NUMBER), (True, NOT_NUMBER),
                   (None, NOT_NUMBER)),
                  (1, 0.5)),
    "backoff_base_s": (((-0.5, "must be >= 0"), (math.nan, NOT_NUMBER),
                        (math.inf, NOT_NUMBER), (True, NOT_NUMBER),
                        ("0.5", NOT_NUMBER)),
                       (0, 0.5)),
    "temperature": (((math.nan, NOT_NUMBER), (math.inf, NOT_NUMBER),
                     (-math.inf, NOT_NUMBER), (None, NOT_NUMBER)),
                    (0, 0.25, -1.0)),
}


@pytest.mark.parametrize("field", sorted(ENDPOINT_NUMBERS))
def test_endpoint_refuses_a_bad_number_at_construction(field):
    bad, good = ENDPOINT_NUMBERS[field]
    for value, rule in bad:
        with pytest.raises(ConfigError) as err:
            EndpointConfig(base_url="http://x", model="m", **{field: value})
        assert str(err.value) == f"endpoint.{field}: {rule}, got {value!r}"
    for value in good:
        ep = EndpointConfig(base_url="http://x", model="m", **{field: value})
        assert getattr(ep, field) == value


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


@pytest.mark.parametrize("content", [None, 42])
def test_chat_reply_that_is_not_a_string_is_malformed(stub_server, tmp_path,
                                                      content):
    # A null reply used to come back, and go into the cassette, as "None".
    StubHandler.script = [(200, chat_body(content))]
    ep = EndpointConfig(base_url=stub_server, model="m")
    with pytest.raises(GatewayError, match="malformed chat response body"):
        chat_complete(ep, MESSAGES)
    path = tmp_path / "session.jsonl"
    with Cassette(path, "record") as rec:
        with pytest.raises(GatewayError, match="malformed chat response"):
            ChatProposalEngine(ep, cassette=rec).propose("p1")
    assert path.read_text(encoding="utf-8") == ""


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


def test_chat_complete_does_not_follow_a_redirect(stub_server, no_sleep):
    StubHandler.script = [(302, "moved")]
    ep = EndpointConfig(base_url=stub_server, model="m")
    with pytest.raises(HttpError, match="HTTP 302: moved") as err:
        chat_complete(ep, MESSAGES)
    assert err.value.status == 302
    assert [seen["path"] for seen in StubHandler.seen] == ["/v1/chat"]
    assert no_sleep == []


def test_error_body_that_is_not_utf8_is_excerpted(stub_server, no_sleep):
    StubHandler.script = [(500, b"\xff\xfe boom")]
    ep = EndpointConfig(base_url=stub_server, model="m", max_retries=0)
    with pytest.raises(GatewayError,
                       match="after 1 attempts: chat endpoint returned "
                             "HTTP 500: \ufffd\ufffd boom"):
        chat_complete(ep, MESSAGES)


def test_netrc_does_not_replace_the_api_key(stub_server, tmp_path,
                                            monkeypatch):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password pw\n",
                     encoding="utf-8")
    monkeypatch.setenv("NETRC", str(netrc))
    StubHandler.script = [(200, chat_body("A"))]
    ep = EndpointConfig(base_url=stub_server, model="m", api_key="sk-test")
    assert chat_complete(ep, MESSAGES).text == "A"
    with ChatProposalEngine(ep) as engine:
        assert engine.propose("p") == "A"
    assert [seen["headers"]["Authorization"] for seen in StubHandler.seen] \
        == ["Bearer sk-test"] * 2


# ---------------------------------------------------------------------------
# Transport: one connection per engine, reused while the server allows


def _five_proposals(url):
    StubHandler.script = [(200, chat_body(f"r{i}")) for i in range(5)]
    with ChatProposalEngine(EndpointConfig(base_url=url, model="m")) as engine:
        assert [engine.propose(f"p{i}") for i in range(5)] == \
            [f"r{i}" for i in range(5)]
    assert len(StubHandler.seen) == 5


def test_keepalive_server_sees_one_connection(keepalive_server,
                                              clean_proxy_env, no_sleep):
    _five_proposals(keepalive_server)
    assert len(StubHandler.connections) == 1
    assert no_sleep == []


def test_http10_server_sees_a_connection_per_request(stub_server,
                                                     clean_proxy_env,
                                                     no_sleep):
    _five_proposals(stub_server)
    assert len(StubHandler.connections) == 5
    assert no_sleep == []


def test_dropped_keepalive_connection_is_reopened(keepalive_server,
                                                  clean_proxy_env, no_sleep):
    StubHandler.script = [(200, chat_body("A")), (200, chat_body("B"))]
    StubHandler.drop = threading.Event()
    with ChatProposalEngine(EndpointConfig(base_url=keepalive_server,
                                           model="m")) as engine:
        assert engine.propose("p1") == "A"
        assert StubHandler.drop.wait(5)
        assert engine.propose("p2") == "B"
    assert len(StubHandler.seen) == 2
    assert len(StubHandler.connections) == 2
    assert no_sleep == []


def test_no_proxy_keeps_loopback_calls_direct(stub_server, clean_proxy_env,
                                              monkeypatch, no_sleep):
    # Both proxies point at a port nobody listens on.
    monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
    monkeypatch.setenv("https_proxy", "http://127.0.0.1:9")
    monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
    StubHandler.script = [(200, chat_body("direct"))]
    ep = EndpointConfig(base_url=stub_server, model="m")
    assert chat_complete(ep, MESSAGES).text == "direct"
    assert StubHandler.seen[0]["path"] == "/v1/chat"
    assert no_sleep == []


def test_plain_http_names_the_absolute_url_to_its_proxy(
        stub_server, clean_proxy_env, monkeypatch):
    # The stub stands in for the proxy; the endpoint's host never resolves.
    proxy = stub_server.rsplit("/v1/", 1)[0].replace("://", "://u:pw@")
    monkeypatch.setenv("http_proxy", proxy)
    StubHandler.script = [(200, chat_body("via proxy"))]
    ep = EndpointConfig(base_url="http://chat.example.invalid:8000/v1/chat?x=1",
                        model="m", api_key="sk-test")
    assert chat_complete(ep, MESSAGES).text == "via proxy"
    seen = StubHandler.seen[0]
    assert seen["path"] == "http://chat.example.invalid:8000/v1/chat?x=1"
    assert seen["headers"]["Host"] == "chat.example.invalid:8000"
    assert seen["headers"]["Authorization"] == "Bearer sk-test"
    assert seen["headers"]["Proxy-Authorization"] == \
        "Basic " + base64.b64encode(b"u:pw").decode("ascii")


@pytest.mark.parametrize("url", ["", "ftp://host/x", "http:///path",
                                 "http://host:port/x"])
def test_endpoint_url_that_is_not_http_raises_at_once(url, no_sleep):
    ep = EndpointConfig(base_url=url, model="m")
    with pytest.raises(GatewayError, match="endpoint URL"):
        chat_complete(ep, MESSAGES)
    assert no_sleep == []


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


@pytest.mark.parametrize("kind", [ObjectiveKind.PF,
                                  ObjectiveKind.QOS_SUM_RATE])
def test_every_scheduling_method_scores_finitely_at_the_bandwidth_bound(
        stub_server, kind):
    StubHandler.script = [(200, chat_body("[1, 2, 3, 4, 1, 2, 3, 4, 1]"))]
    scenario = ScenarioConfig(
        track=Track.SCHEDULING, seed=3,
        scheduling=SchedulingConfig(num_robots=4,
                                    bandwidth_hz=MAX_BANDWIDTH_HZ,
                                    objective=ObjectiveSpec(kind, 1e6)))
    for method in SCHEDULING_METHODS:
        opts = ({"opro_params": {"max_iterations": 20}}
                if method in OPRO_METHODS else {})
        if method == "opro_chat":
            opts.update(endpoint_url=stub_server, model="m")
        rec = run(scenario, method, opts)
        assert rec.status == "ok", (method, rec.error)
        assert rec.metrics["score"] > 0
        assert all(map(math.isfinite, rec.metrics.values())), method


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


@pytest.mark.parametrize("bad", [
    "[1]",
    '"s"',
    '{"request_digest": "x"}',
    '{"request_digest": "x", "response_text": 5}',
    '{"request_digest": "x", "response_text": "t", "latency_ms": "5"}',
    '{"request_digest": "x", "response_text": "t", "latency_ms": true}',
    '{"request_digest": "x", "response_text": "t", "latency_ms": NaN}',
])
def test_cassette_rejects_malformed_entries_on_load(tmp_path, bad):
    # Replay reads these fields without further checks, so a bad line must
    # fail here, naming its line, and not at some later request.
    path = tmp_path / "run.jsonl"
    good = json.dumps({"request_digest": "d", "response_text": "t"})
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(CassetteError, match=rf"run\.jsonl:2: bad cassette line"):
        Cassette(path, "replay")


def test_cassette_mode_errors(tmp_path):
    path = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match="record or replay"):
        Cassette(path, "append")
    path.write_text("", encoding="utf-8")
    with pytest.raises(CassetteError, match="not in record mode"):
        Cassette(path, "replay").record("d", ChatResponse("x", 0.0))
    with Cassette(path, "record") as cassette, \
            pytest.raises(CassetteError, match="not in replay mode"):
        cassette.replay("d")


# ---------------------------------------------------------------------------
# Proposal engine adapter


def test_engine_record_then_replay_offline(stub_server, tmp_path, monkeypatch):
    StubHandler.script = [(200, chat_body("proposal A")),
                          (200, chat_body("proposal B"))]
    path = tmp_path / "session.jsonl"
    ep = EndpointConfig(base_url=stub_server, model="m", api_key="sk-secret")
    with Cassette(path, "record") as rec:
        live = ChatProposalEngine(ep, cassette=rec)
        assert live.propose("p1") == "proposal A"
        assert live.propose("p2") == "proposal B"
    assert len(StubHandler.seen) == 2

    # Replay must not touch the network at all.
    forbid_network(monkeypatch)
    dead = EndpointConfig(base_url="http://127.0.0.1:9/", model="m")
    with Cassette(path, "replay") as rep:
        offline = ChatProposalEngine(dead, cassette=rep)
        assert offline.propose("p1") == "proposal A"
        assert offline.propose("p2") == "proposal B"


def test_engine_replay_detects_prompt_drift(stub_server, tmp_path):
    StubHandler.script = [(200, chat_body("x"))]
    ep = EndpointConfig(base_url=stub_server, model="m")
    path = tmp_path / "session.jsonl"
    with Cassette(path, "record") as rec:
        ChatProposalEngine(ep, cassette=rec).propose("p")
    with Cassette(path, "replay") as rep:
        drifted = ChatProposalEngine(ep, cassette=rep)
        with pytest.raises(CassetteError, match="digest mismatch"):
            drifted.propose("p, reworded")


def test_cassette_never_contains_api_key(stub_server, tmp_path):
    StubHandler.script = [(200, chat_body("y"))]
    ep = EndpointConfig(base_url=stub_server, model="m",
                        api_key="sk-very-secret")
    path = tmp_path / "session.jsonl"
    with Cassette(path, "record") as rec:
        ChatProposalEngine(ep, cassette=rec).propose("p")
    assert "sk-very-secret" not in path.read_text(encoding="utf-8")


def test_engine_keeps_one_session_and_reads_the_environment_once(
        keepalive_server, clean_proxy_env, monkeypatch):
    StubHandler.script = [(200, chat_body("A")), (200, chat_body("B"))]
    opened = []

    class Counted(EndpointConnection):
        def __init__(self, *args):
            opened.append(self)
            super().__init__(*args)

    monkeypatch.setattr("autocomm.gateway.EndpointConnection", Counted)
    engine = ChatProposalEngine(EndpointConfig(base_url=keepalive_server,
                                               model="m"))
    assert opened == []                 # nothing opens before a live call
    assert engine.propose("p1") == "A"
    # A proxy appearing now is not read: the connection was made already.
    monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
    assert engine.propose("p2") == "B"
    assert len(opened) == 1 and len(StubHandler.seen) == 2
    assert len(StubHandler.connections) == 1
    engine.close()
    assert engine._conn is None and opened[0]._conn.sock is None
    engine.close()                      # closing twice is harmless


def test_engine_reads_the_ca_bundle_once_and_tunnels_https(
        stub_server, clean_proxy_env, monkeypatch, no_sleep):
    # The stub stands in for an https proxy: it logs the CONNECT and
    # refuses it, so both proposals fail after their retries.
    proxy = stub_server.rsplit("/v1/", 1)[0].replace("://", "://u%40x:pw@")
    monkeypatch.setenv("https_proxy", proxy)
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", "/etc/first-bundle.pem")
    cafiles = []
    real_context = ssl.create_default_context

    def context(cafile=None):
        cafiles.append(cafile)
        return real_context()

    monkeypatch.setattr("autocomm.gateway.ssl.create_default_context",
                        context)
    engine = ChatProposalEngine(EndpointConfig(
        base_url="https://chat.example.invalid/v1/chat", model="m",
        max_retries=1))
    with pytest.raises(GatewayError, match="after 2 attempts"):
        engine.propose("p1")
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", "/etc/second-bundle.pem")
    with pytest.raises(GatewayError, match="after 2 attempts"):
        engine.propose("p2")
    engine.close()
    assert cafiles == ["/etc/first-bundle.pem"]
    assert [seen["connect"] for seen in StubHandler.seen] == \
        ["chat.example.invalid:443"] * 4
    assert StubHandler.seen[0]["headers"]["Proxy-Authorization"] == \
        "Basic " + base64.b64encode(b"u@x:pw").decode("ascii")
    assert no_sleep == [0.5, 0.5]


def test_engine_close_closes_its_cassette(tmp_path):
    rec = Cassette(tmp_path / "session.jsonl", "record")
    engine = ChatProposalEngine(
        EndpointConfig(base_url="http://127.0.0.1:9/", model="m"),
        cassette=rec)
    engine.close()
    assert rec._fh is None
    engine.close()                      # closing twice is harmless


def test_engine_replay_never_opens_a_session(stub_server, tmp_path,
                                             monkeypatch):
    StubHandler.script = [(200, chat_body("A"))]
    path = tmp_path / "session.jsonl"
    ep = EndpointConfig(base_url=stub_server, model="m")
    with Cassette(path, "record") as rec:
        ChatProposalEngine(ep, cassette=rec).propose("p")

    forbid_network(monkeypatch)
    with Cassette(path, "replay") as rep:
        engine = ChatProposalEngine(ep, cassette=rep)
        assert engine.propose("p") == "A"
        assert engine._conn is None
        engine.close()


def test_engine_exit_raises_on_leftover_replay_entries(stub_server, tmp_path):
    StubHandler.script = [(200, chat_body("A"))]
    path = tmp_path / "session.jsonl"
    ep = EndpointConfig(base_url=stub_server, model="m")
    with ChatProposalEngine(ep, Cassette(path, "record")) as live:
        live.propose("p1")
        live.propose("p2")
    with ChatProposalEngine(ep, Cassette(path, "replay")) as engine:
        assert engine.propose("p1") == "A"
        assert engine.propose("p2") == "A"
    with pytest.raises(CassetteError, match="1 entries left over"):
        with ChatProposalEngine(ep, Cassette(path, "replay")) as engine:
            engine.propose("p1")
    assert engine.cassette.remaining == 1


def test_cli_opro_chat_records_then_replays_offline(stub_server, tmp_path,
                                                    monkeypatch, capsys):
    StubHandler.script = [(200, chat_body("[1, 2, 1, 2, 1, 2, 1, 2, 1]"))]
    config = tmp_path / "cfg.json"
    config.write_text(scenario_to_json(ScenarioConfig(
        track=Track.SCHEDULING, seed=3,
        scheduling=SchedulingConfig(num_robots=2))), encoding="utf-8")
    cassette = tmp_path / "chat.jsonl"
    argv = ["opro", "--config", str(config), "--engine", "chat",
            "--endpoint-url", stub_server, "--model", "m",
            "--cassette", str(cassette)]
    assert main(argv + ["--cassette-mode", "record"]) == 0
    recorded = capsys.readouterr().out
    assert json.loads(recorded)["status"] == "ok"
    assert StubHandler.seen and cassette.exists()
    requests_seen = len(StubHandler.seen)

    forbid_network(monkeypatch)
    assert main(argv + ["--cassette-mode", "replay"]) == 0
    assert capsys.readouterr().out == recorded
    assert len(StubHandler.seen) == requests_seen


def _scheduling_chat_run(scenario, url, path, mode, iterations):
    return run(scenario, "opro_chat", {
        "endpoint_url": url, "model": "m", "cassette": str(path),
        "cassette_mode": mode,
        "opro_params": {"max_iterations": iterations}})


def test_replay_run_with_leftover_entries_raises(stub_server, tmp_path):
    StubHandler.script = [(200, chat_body("[1, 2, 1, 2, 1, 2, 1, 2, 1]"))]
    scenario = ScenarioConfig(track=Track.SCHEDULING, seed=3,
                              scheduling=SchedulingConfig(num_robots=2))
    path = tmp_path / "run.jsonl"
    _scheduling_chat_run(scenario, stub_server, path, "record", 3)
    assert _scheduling_chat_run(scenario, stub_server, path, "replay",
                                3).status == "ok"
    # One entry more than the run asks for, as from a longer recording.
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines + lines[-1:]), encoding="utf-8")
    with pytest.raises(CassetteError, match="1 entries left over"):
        _scheduling_chat_run(scenario, stub_server, path, "replay", 3)


def _chat_opts(url, path, mode):
    return {"endpoint_url": url, "model": "m", "cassette": str(path),
            "cassette_mode": mode, "opro_params": {"max_iterations": 3}}


@pytest.mark.parametrize("methods, seeds, axis_values", [
    (["opro_chat"], [1, 2], [2]),
    (["opro_chat", "opro_chat"], [1], [2]),
    (["round_robin", "opro_chat"], [1], [2, 3]),
])
def test_sweep_refuses_one_cassette_for_many_chat_cells(
        stub_server, tmp_path, methods, seeds, axis_values):
    # Every cell would open the same file: recording keeps only the last
    # cell's exchanges, and replay serves every cell from entry 1.
    path = tmp_path / "run.jsonl"
    scenario = ScenarioConfig(track=Track.SCHEDULING, seed=3,
                              scheduling=SchedulingConfig(num_robots=2))
    with pytest.raises(ValueError, match="opro_chat cells"):
        sweep(scenario, methods, seeds, "scheduling.num_robots", axis_values,
              _chat_opts(stub_server, path, "record"))
    assert not path.exists() and not StubHandler.seen


def test_sweep_allows_one_cassette_for_one_chat_cell(stub_server, tmp_path):
    StubHandler.script = [(200, chat_body("[1, 2, 1, 2, 1, 2, 1, 2, 1]"))]
    scenario = ScenarioConfig(track=Track.SCHEDULING, seed=3,
                              scheduling=SchedulingConfig(num_robots=2))
    path = tmp_path / "run.jsonl"
    methods = ["round_robin", "opro_chat"]
    live = sweep(scenario, methods, [3],
                 opts=_chat_opts(stub_server, path, "record"))
    replayed = sweep(scenario, methods, [3],
                     opts=_chat_opts(stub_server, path, "replay"))
    assert live.all_ok and replayed.all_ok
    assert [c.record for c in replayed.cells] == [c.record for c in live.cells]
    assert len(StubHandler.seen) == 3


def test_leftover_check_keeps_the_first_error(stub_server, tmp_path):
    StubHandler.script = [(200, chat_body("[1, 2, 1, 2, 1, 2, 1, 2, 1]"))]
    path = tmp_path / "run.jsonl"
    recorded = ScenarioConfig(track=Track.SCHEDULING, seed=3,
                              scheduling=SchedulingConfig(num_robots=2))
    _scheduling_chat_run(recorded, stub_server, path, "record", 3)
    other = ScenarioConfig(track=Track.SCHEDULING, seed=4,
                           scheduling=SchedulingConfig(num_robots=2))
    with pytest.raises(CassetteError, match="entry 1 digest mismatch"):
        _scheduling_chat_run(other, stub_server, path, "replay", 3)


def test_scheduling_run_closes_its_chat_session(stub_server, tmp_path,
                                                monkeypatch):
    StubHandler.script = [(200, chat_body("[1, 2, 1, 2, 1, 2, 1, 2, 1]"))]
    closed = []
    real_close = EndpointConnection.close

    def close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(EndpointConnection, "close", close)
    scenario = ScenarioConfig(track=Track.SCHEDULING, seed=3,
                              scheduling=SchedulingConfig(num_robots=2))
    opts = {"endpoint_url": stub_server, "model": "m",
            "opro_params": {"max_iterations": 3}}
    assert run(scenario, "opro_chat", opts).status == "ok"
    assert len(StubHandler.seen) == 3
    assert len(closed) == 1
