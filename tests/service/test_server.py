"""End-to-end HTTP round-trips on an ephemeral port."""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from urllib.parse import quote, urlparse

import pytest

from repro.core.query import QueryEngine
from repro.service.cache import EnrichmentService, build_service
from repro.service.server import (
    KEEPALIVE_IDLE_S,
    IntelRequestHandler,
    create_server,
    server_address,
)


@contextmanager
def _serving(service, **options):
    """A server running on an ephemeral port; yields (host, port, server)."""
    server = create_server(service, port=0, **options)
    host, port = server_address(server)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield host, port, server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="module")
def live(engine):
    """A running server over the small-world service; yields the base URL."""
    service = EnrichmentService(engine, capacity=1024)
    with _serving(service) as (host, port, _):
        yield f"http://{host}:{port}", service


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.load(response)


def _post(url: str, payload) -> tuple:
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.load(response)


def test_healthz(live):
    base, service = live
    status, body = _get(f"{base}/v1/healthz")
    assert status == 200
    assert body == {
        "status": "ok",
        "packages": service.index.package_count,
        "epoch": service.index.epoch,
        "last_delta_at": service.index.last_delta_at,
    }
    assert body["epoch"] == 0 and body["last_delta_at"] is None


def test_enrich_roundtrip(live, small_dataset):
    base, _ = live
    e = small_dataset.entries[0]
    status, body = _get(
        f"{base}/v1/enrich?name={quote(e.package.name)}"
        f"&version={quote(e.package.version)}&ecosystem={e.package.ecosystem}"
    )
    assert status == 200
    assert body["verdict"] == "malicious"
    assert str(e.package) in body["matches"]
    assert body["sources"]


def test_enrich_by_sha(live, small_dataset):
    base, _ = live
    e = small_dataset.available_entries()[0]
    status, body = _get(f"{base}/v1/enrich?sha256={e.sha256()}")
    assert status == 200
    assert body["verdict"] == "malicious"


def test_enrich_requires_an_indicator(live):
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _get(f"{base}/v1/enrich?ecosystem=pypi")
    assert failure.value.code == 400


def test_unknown_path_is_404(live):
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _get(f"{base}/v1/nope")
    assert failure.value.code == 404


def test_batch_roundtrip(live, small_dataset):
    base, service = live
    names = [e.package.name for e in small_dataset.entries[:3]]
    indicators = [{"name": n} for n in names] + [{"name": names[0]}]
    status, body = _post(f"{base}/v1/enrich/batch", {"indicators": indicators})
    assert status == 200
    assert body["count"] == 4
    assert [r["verdict"] for r in body["results"]] == ["malicious"] * 4
    assert body["results"][0] == body["results"][3]  # deduplicated
    assert service.cache.stats()["size"] > 0


def test_batch_rejects_bad_json(live):
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _post(f"{base}/v1/enrich/batch", b"this is not json")
    assert failure.value.code == 400


def test_batch_rejects_non_list(live):
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _post(f"{base}/v1/enrich/batch", {"indicators": "nope"})
    assert failure.value.code == 400


def test_batch_rejects_empty_indicator(live):
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _post(f"{base}/v1/enrich/batch", {"indicators": [{"ecosystem": "pypi"}]})
    assert failure.value.code == 400


def test_post_to_unknown_path_is_404(live):
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _post(f"{base}/v1/enrich", {"indicators": []})
    assert failure.value.code == 404


def test_stats_endpoint_reports_traffic(live):
    base, service = live
    status, body = _get(f"{base}/v1/stats")
    assert status == 200
    assert set(body) == {"cache", "index", "generation", "collection"}
    assert body["cache"]["capacity"] == service.cache.capacity
    assert body["index"]["packages"] == service.index.package_count


# -- error boundary ----------------------------------------------------------

def _error_body(failure: urllib.error.HTTPError) -> dict:
    return json.load(failure)


def test_batch_rejects_non_dict_item_with_index(live):
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _post(f"{base}/v1/enrich/batch", {"indicators": [{"name": "ok"}, "nope"]})
    assert failure.value.code == 400
    body = _error_body(failure.value)
    assert body["index"] == 1
    assert "indicator 1" in body["error"]


def test_batch_rejects_wrong_typed_fields_with_index(live):
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _post(
            f"{base}/v1/enrich/batch",
            {"indicators": [{"name": 123, "version": "1.0"}]},
        )
    assert failure.value.code == 400
    body = _error_body(failure.value)
    assert body["index"] == 0
    assert "name must be a string" in body["error"]


def test_batch_oversize_is_413(live, monkeypatch):
    import repro.service.server as server_module

    monkeypatch.setattr(server_module, "MAX_BATCH_SIZE", 3)
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _post(
            f"{base}/v1/enrich/batch",
            {"indicators": [{"name": f"p{i}"} for i in range(4)]},
        )
    assert failure.value.code == 413
    assert "batch larger than 3" in _error_body(failure.value)["error"]


def test_handler_crash_returns_json_500_with_error_id(live, monkeypatch, capsys):
    base, service = live

    def boom(indicator):
        raise RuntimeError("index corrupted")

    monkeypatch.setattr(service, "enrich", boom)
    with pytest.raises(urllib.error.HTTPError) as failure:
        _get(f"{base}/v1/enrich?name=anything")
    assert failure.value.code == 500
    assert failure.value.headers["Connection"] == "close"
    body = _error_body(failure.value)
    assert body["error"] == "internal server error"
    assert len(body["error_id"]) == 12  # correlates with the server log


def test_metrics_endpoint_shape(live):
    base, _ = live
    status, body = _get(f"{base}/v1/metrics")
    assert status == 200
    assert set(body) == {"endpoints", "total_requests"}
    assert body["total_requests"] >= 1
    for row in body["endpoints"].values():
        assert set(row) == {"requests", "status", "latency", "rows_returned"}
        assert sum(row["status"].values()) == row["requests"]
        assert row["latency"]["count"] == row["requests"]


# -- request framing (Content-Length, body caps, query strings) --------------


def _raw_post_headers(base: str, path: str, headers):
    """POST with hand-rolled headers (urllib always sends a valid CL).

    ``headers`` is a dict or a list of (name, value) pairs.
    """
    url = urlparse(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    pairs = headers.items() if isinstance(headers, dict) else headers
    try:
        conn.putrequest("POST", path)
        for name, value in pairs:
            conn.putheader(name, value)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def test_non_numeric_content_length_is_structured_400(live):
    base, _ = live
    status, body = _raw_post_headers(
        base,
        "/v1/enrich/batch",
        {"Content-Type": "application/json", "Content-Length": "banana"},
    )
    assert status == 400
    assert "Content-Length" in body["error"]
    assert "banana" in body["error"]


def test_negative_content_length_is_400_not_a_hang(live):
    """A negative length must answer promptly — never rfile.read(-n)."""
    import time as _time

    base, _ = live
    started = _time.perf_counter()
    status, body = _raw_post_headers(
        base,
        "/v1/enrich/batch",
        {"Content-Type": "application/json", "Content-Length": "-5"},
    )
    assert status == 400
    assert "negative Content-Length" in body["error"]
    assert _time.perf_counter() - started < 5.0


def test_conflicting_content_lengths_are_400(live):
    """Either length would misframe the next request on the connection."""
    base, _ = live
    status, body = _raw_post_headers(
        base,
        "/v1/enrich/batch",
        [("Content-Length", "0"), ("Content-Length", "44")],
    )
    assert status == 400
    assert "conflicting Content-Length" in body["error"]


def test_float_content_length_is_400(live):
    base, _ = live
    status, body = _raw_post_headers(
        base,
        "/v1/enrich/batch",
        {"Content-Type": "application/json", "Content-Length": "1e9"},
    )
    assert status == 400
    assert "Content-Length" in body["error"]


def test_oversized_body_is_413_before_the_read(engine):
    """The cap applies to the declared length — no body bytes needed."""
    import time as _time

    service = EnrichmentService(engine, capacity=16)
    server = create_server(service, port=0, max_body_bytes=64)
    host, port = server_address(server)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        started = _time.perf_counter()
        # declare a huge body and never send it: the server must answer
        # 413 from the header alone instead of blocking on the read
        status, body = _raw_post_headers(
            f"http://{host}:{port}",
            "/v1/enrich/batch",
            {"Content-Type": "application/json", "Content-Length": "100000"},
        )
        assert status == 413
        assert "exceeds the 64 byte limit" in body["error"]
        assert _time.perf_counter() - started < 5.0
        # an in-cap request on a fresh connection still works
        with pytest.raises(urllib.error.HTTPError) as failure:
            _post(f"http://{host}:{port}/v1/enrich/batch", {"indicators": "x"})
        assert failure.value.code == 400
    finally:
        server.shutdown()
        server.server_close()


def test_blank_query_value_is_rejected_not_dropped(live):
    """``?name=&sha256=x`` used to silently lose ``name``."""
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _get(f"{base}/v1/enrich?name=&sha256=ab12")
    assert failure.value.code == 400
    assert "blank value" in _error_body(failure.value)["error"]


def test_repeated_query_parameter_is_rejected(live, small_dataset):
    """``?name=a&name=b`` used to silently take the first value."""
    base, _ = live
    name = small_dataset.entries[0].package.name
    with pytest.raises(urllib.error.HTTPError) as failure:
        _get(f"{base}/v1/enrich?name={quote(name)}&name=other")
    assert failure.value.code == 400
    assert "repeated query parameter" in _error_body(failure.value)["error"]


def test_unknown_query_parameter_is_rejected(live):
    base, _ = live
    with pytest.raises(urllib.error.HTTPError) as failure:
        _get(f"{base}/v1/enrich?nmae=left-pad")
    assert failure.value.code == 400
    body = _error_body(failure.value)
    assert "unknown query parameter" in body["error"]
    assert "nmae" in body["error"]


def test_serve_reports_port_already_in_use(engine, capsys):
    import socket

    from repro.service.cache import EnrichmentService
    from repro.service.server import serve

    service = EnrichmentService(engine, capacity=16)
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        assert serve(service, host="127.0.0.1", port=port) is None
    finally:
        blocker.close()
    err = capsys.readouterr().err
    assert f"127.0.0.1:{port} is already in use" in err
    assert "Traceback" not in err


# -- persistent connections (HTTP/1.1) ----------------------------------------

#: A complete request hidden in a body: it must never be executed.
SMUGGLED = b"GET /v1/healthz HTTP/1.1\r\nHost: smuggled\r\n\r\n"


@contextmanager
def _raw_socket(host: str, port: int):
    """A raw client socket plus a buffered reader over it."""
    sock = socket.create_connection((host, port), timeout=10)
    reader = sock.makefile("rb")
    try:
        yield sock, reader
    finally:
        reader.close()
        sock.close()


def _read_reply(reader):
    """(status, lower-cased headers, body) of the next response."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    for line in iter(reader.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def _smuggling_post(path: str, client: str, chunked: bool = False) -> bytes:
    """A POST whose body is the bytes of a complete second request."""
    head = f"POST {path} HTTP/1.1\r\nHost: t\r\nX-Client-Id: {client}\r\n"
    if chunked:
        return (
            f"{head}Transfer-Encoding: chunked\r\n\r\n{len(SMUGGLED):x}\r\n".encode()
            + SMUGGLED
            + b"\r\n0\r\n\r\n"
        )
    return f"{head}Content-Length: {len(SMUGGLED)}\r\n\r\n".encode() + SMUGGLED


def test_unread_bodies_close_the_connection_instead_of_desyncing(engine):
    """A refused body's bytes are never parsed as the next request."""
    service = EnrichmentService(engine, capacity=16)  # no query engine: 503

    def get(host, port, path, client):
        request = urllib.request.Request(
            f"http://{host}:{port}{path}", headers={"X-Client-Id": client}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.load(response)

    with _serving(service, rate_limit=0.001, rate_burst=1) as (host, port, _):
        assert get(host, port, "/v1/stats", "spent")[0] == 200  # burst of one gone
        cases = [
            (_smuggling_post("/v1/nope", "a"), 404),
            (_smuggling_post("/v1/enrich/batch", "spent"), 429),
            (_smuggling_post("/v1/query", "b"), 503),
            (_smuggling_post("/v1/enrich/batch", "c", chunked=True), 400),
        ]
        for request, expected in cases:
            with _raw_socket(host, port) as (sock, reader):
                sock.sendall(request)
                status, headers, _ = _read_reply(reader)
                assert status == expected, request
                assert headers["connection"] == "close", request
                assert reader.read() == b"", request  # EOF: nothing else ran
        books = get(host, port, "/v1/metrics", "observer")[1]["endpoints"]
    assert "/v1/healthz" not in books
    assert books["other"]["status"] == {"404": 1}
    assert books["/v1/enrich/batch"]["status"] == {"400": 1, "429": 1}
    assert books["/v1/query"]["status"] == {"503": 1}


def test_pipelined_requests_are_answered_in_order(live, small_dataset):
    base, _ = live
    url = urlparse(base)
    name = small_dataset.entries[0].package.name
    with _raw_socket(url.hostname, url.port) as (sock, reader):
        sock.sendall(
            f"GET /v1/enrich?name={quote(name)} HTTP/1.1\r\nHost: t\r\n\r\n"
            "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n".encode()
        )
        first, second = _read_reply(reader), _read_reply(reader)
        assert first[0] == second[0] == 200
        assert json.loads(first[2])["indicator"]["name"] == name
        assert "cache" in json.loads(second[2])
        assert "connection" not in first[1] and "connection" not in second[1]
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert _read_reply(reader)[0] == 200  # the socket is still open


def test_expect_100_continue_is_sent_only_for_an_accepted_length(engine):
    service = EnrichmentService(engine, capacity=16)
    body = json.dumps({"indicators": []}).encode()
    head = (
        "POST /v1/enrich/batch HTTP/1.1\r\nHost: t\r\n"
        "Expect: 100-continue\r\nContent-Length: {}\r\n\r\n"
    )
    with _serving(service, max_body_bytes=64) as (host, port, _):
        with _raw_socket(host, port) as (sock, reader):
            sock.sendall(head.format(100_000).encode())
            status, headers, reply = _read_reply(reader)
            assert status == 413  # no 100 first: the body is never invited
            assert headers["connection"] == "close"
            assert "exceeds the 64 byte limit" in json.loads(reply)["error"]
            assert reader.read() == b""
        with _raw_socket(host, port) as (sock, reader):
            sock.sendall(head.format(len(body)).encode())
            assert _read_reply(reader)[0] == 100
            sock.sendall(body)
            status, headers, reply = _read_reply(reader)
            assert status == 200 and "connection" not in headers
            assert json.loads(reply) == {"count": 0, "results": []}


def test_one_connection_serves_a_mix_of_requests(service_malgraph, small_dataset):
    service = build_service(service_malgraph, capacity=256)
    name = next(
        e.package.name for e in small_dataset.entries if "'" not in e.package.name
    )
    json_headers = {"Content-Type": "application/json"}
    pattern = f"MATCH (a) WHERE a.name = '{name}' RETURN a.name"
    script = [
        ("GET", f"/v1/enrich?name={quote(name)}", None, 200),
        ("POST", "/v1/enrich/batch", {"indicators": [{"name": name}]}, 200),
        ("POST", "/v1/query", {"pattern": pattern}, 200),
        ("GET", "/v1/feed?limit=5", None, 200),
        ("GET", "/v1/enrich?ecosystem=pypi", None, 400),
        ("GET", "/v1/healthz", None, 200),
    ]
    with _serving(service) as (host, port, _):
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            sockets = []
            for method, path, payload, expected in script:
                body = None if payload is None else json.dumps(payload)
                conn.request(method, path, body=body, headers=json_headers)
                response = conn.getresponse()
                response.read()
                assert response.status == expected, path
                assert response.version == 11
                assert response.getheader("Connection") is None, path
                sockets.append(conn.sock)
            assert sockets[0] is not None
            assert all(held is sockets[0] for held in sockets)
        finally:
            conn.close()


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"GET /v1/healthz HTTP/1.0\r\n\r\n",
        b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    ],
    ids=["http-1.0", "connection-close"],
)
def test_one_response_per_connection_when_the_client_asks(live, request_bytes):
    url = urlparse(live[0])
    with _raw_socket(url.hostname, url.port) as (sock, reader):
        sock.sendall(request_bytes)
        assert _read_reply(reader)[0] == 200
        assert reader.read() == b""


def test_idle_connection_is_closed_after_the_timeout(live, monkeypatch):
    assert IntelRequestHandler.timeout == KEEPALIVE_IDLE_S
    monkeypatch.setattr(IntelRequestHandler, "timeout", 0.2)
    url = urlparse(live[0])
    with _raw_socket(url.hostname, url.port) as (sock, reader):
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert _read_reply(reader)[0] == 200
        started = time.perf_counter()
        assert reader.read() == b""  # the server hung up on the idle socket
        assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize("path", ["/v1/enrich/batch", "/v1/query"])
def test_stalled_body_gets_a_408_and_the_connection_closes(
    engine, monkeypatch, capsys, path
):
    """A client that declares a body and stops sending it gets a 408, not
    a 500: the body's end is unknown, so the connection closes."""
    monkeypatch.setattr(IntelRequestHandler, "timeout", 0.2)
    queries = QueryEngine.pinned(engine.index.indexes)
    service = EnrichmentService(engine, capacity=16, query_engine=queries)
    with _serving(service) as (host, port, _):
        with _raw_socket(host, port) as (sock, reader):
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                "Content-Length: 100\r\n\r\n{".encode()
            )
            status, headers, body = _read_reply(reader)
            assert status == 408
            assert headers["connection"] == "close"
            assert "error" in json.loads(body)
            assert reader.read() == b""
        with _raw_socket(host, port) as (sock, reader):
            sock.sendall(b"GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            books = json.loads(_read_reply(reader)[2])["endpoints"]
    assert books[path]["status"] == {"408": 1}
    assert capsys.readouterr().err == ""


def test_server_close_does_not_wait_for_idle_connections(engine):
    """Closing the server ends a held-open connection at once instead of
    joining its handler thread only after the idle timeout."""
    server = create_server(EnrichmentService(engine, capacity=16), port=0)
    host, port = server_address(server)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    with _raw_socket(host, port) as (sock, reader):
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert _read_reply(reader)[0] == 200
        started = time.perf_counter()
        server.shutdown()
        server.server_close()
        assert time.perf_counter() - started < 2.0
        assert reader.read() == b""


def test_client_reset_between_requests_is_not_logged(engine, capsys):
    with _serving(EnrichmentService(engine, capacity=16)) as (host, port, _):
        with _raw_socket(host, port) as (sock, reader):
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert _read_reply(reader)[0] == 200
            # linger 0: closing sends RST while the handler waits to read
            linger = struct.pack("ii", 1, 0)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
        time.sleep(0.2)
    assert "Traceback" not in capsys.readouterr().err


def test_reused_connection_replies_without_nagle_stalls(live, small_dataset):
    """20 batch POSTs on one socket: with Nagle on, each reply's body
    waited ~44 ms for the client's delayed ACK of its headers."""
    base, _ = live
    url = urlparse(base)
    body = json.dumps({"indicators": [{"name": small_dataset.entries[0].package.name}]})
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        started = time.perf_counter()
        for _ in range(20):
            conn.request("POST", "/v1/enrich/batch", body=body)
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        assert time.perf_counter() - started < 0.5
    finally:
        conn.close()
