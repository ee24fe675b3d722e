"""Stdlib JSON HTTP API over the enrichment service.

A :class:`~http.server.ThreadingHTTPServer` (one thread per connection,
no new dependencies) exposing:

* ``GET /v1/healthz`` — liveness plus indexed-package count;
* ``GET /v1/stats`` — cache hit/miss counters and index shape;
* ``GET /v1/metrics`` — per-endpoint request counts, status-code counts
  and latency percentiles (p50/p95/p99), plus the rate limiter's books
  when one is configured;
* ``GET /v1/enrich?name=&version=&sha256=&ecosystem=`` — one indicator;
* ``POST /v1/enrich/batch`` — ``{"indicators": [{...}, ...]}``;
* ``POST /v1/query`` — ``{"pattern": "MATCH ..."}`` run through the
  MALGRAPH query engine (``repro.core.query``); parse failures return a
  structured 400 carrying the syntax-error offset.

Every request runs inside an error boundary: validation failures come
back as structured ``400`` JSON (``{"error": ...}``, plus ``"index"``
for the offending batch item), unexpected exceptions come back as
``500`` JSON carrying an ``"error_id"`` correlating with the server log
instead of a connection dropped without a reply, and client disconnects
(``BrokenPipeError`` / ``ConnectionResetError``) are swallowed without
a traceback. Each request is timed into the server's shared
:class:`~repro.service.metrics.ServiceMetrics`.

Request hygiene (what a production front end cannot ship without):

* ``Content-Length`` is validated before anything is read — a
  non-numeric header is a structured ``400`` (not an opaque ``500``),
  a negative one is a ``400`` (not an ``rfile.read(-n)`` read-to-EOF
  hang), and conflicting duplicates are a ``400`` (reading either
  length would misframe the next request);
* bodies are capped at ``max_body_bytes`` **before** the read — an
  oversized ``Content-Length`` answers ``413`` without buffering or
  parsing a single byte of payload;
* ``/v1/enrich`` and ``/v1/feed`` query strings keep blank values
  (``?name=&sha256=x`` rejects the blank ``name`` instead of silently
  dropping it), reject repeated parameters instead of silently taking
  the first, and reject unknown parameter names.

With ``rate_limit`` set, every non-``/v1/healthz`` request first passes
a per-client token bucket (:mod:`repro.service.ratelimit`); a client
over budget gets ``429`` with a ``Retry-After`` header and the refusal
is visible in ``/v1/metrics`` (status counter + ``rate_limiter``
section).

Connections (HTTP/1.1):

* a client's connection, and the handler thread serving it, persist
  across requests: an HTTP/1.1 client sends its next request on the
  same socket instead of paying a TCP connect, an accept and a thread
  start per request. Pipelined requests are answered in order. An
  HTTP/1.0 request or a ``Connection: close`` request still gets one
  response per connection;
* replies go out with TCP_NODELAY: headers and body are two writes,
  and on a reused socket Nagle's algorithm would hold the second one
  until the client's delayed ACK (~40 ms per reply);
* a connection idle (or stalled mid-request) for ``KEEPALIVE_IDLE_S``
  seconds is closed, so idle clients cannot hold threads forever, and
  closing the server ends the connections still open without waiting
  out that timeout. A request whose declared body stalls that long is
  answered ``408`` before the close;
* the server closes the connection after a reply when the request
  declared a body (a ``Content-Length`` other than 0, or any
  ``Transfer-Encoding``) that the handler did not read in full — its
  bytes would otherwise be parsed as the next request — and after
  every ``500``. ``Expect: 100-continue`` is answered with ``100`` only
  for a body within the cap; a refused one gets its ``400``/``413``
  straight away.

``create_server`` binds (``port=0`` picks an ephemeral port, which the
tests and the smoke script use); ``serve`` blocks until interrupted and
exits with a one-line message — not a traceback — when the port is
already in use.
"""

from __future__ import annotations

import errno
import json
import math
import socket
import sys
import threading
import time
import traceback
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.query import QueryError, QuerySyntaxError
from repro.errors import ValidationError
from repro.service.cache import EnrichmentService
from repro.service.enrich import Indicator
from repro.service.feed import MAX_PAGE_SIZE, CursorError, CursorExpired
from repro.service.metrics import ServiceMetrics
from repro.service.ratelimit import RateLimiter

#: Refuse batches beyond this size so one request cannot pin a worker.
MAX_BATCH_SIZE = 100_000

#: Refuse request bodies beyond this many bytes *before* reading them
#: (create_server's ``max_body_bytes`` overrides per server). 16 MiB
#: comfortably fits a MAX_BATCH_SIZE batch of indicators.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Refuse query patterns beyond this many characters (create_server's
#: ``max_query_length`` overrides per server).
MAX_QUERY_LENGTH = 4096

#: Query parameters /v1/enrich understands; anything else is a 400.
ENRICH_PARAMS = ("name", "version", "sha256", "ecosystem")

#: Query parameters /v1/feed understands; anything else is a 400.
FEED_PARAMS = ("cursor", "limit")

#: Paths recorded individually in metrics; anything else pools as "other".
KNOWN_ENDPOINTS = (
    "/v1/healthz",
    "/v1/stats",
    "/v1/metrics",
    "/v1/enrich",
    "/v1/enrich/batch",
    "/v1/query",
    "/v1/feed",
)

#: Endpoints never rate limited: liveness probes must not 429.
RATE_LIMIT_EXEMPT = ("/v1/healthz",)

#: Connection-level errors meaning the client went away mid-reply.
CLIENT_GONE = (BrokenPipeError, ConnectionResetError)

#: Seconds a persistent connection may sit idle (or stall mid-request)
#: before the server closes it and frees its handler thread.
KEEPALIVE_IDLE_S = 30.0


class IntelRequestHandler(BaseHTTPRequestHandler):
    """Routes the six ``/v1`` endpoints onto the service."""

    server_version = "repro-intel/1.3"
    # One connection, and this handler's thread, serve many requests.
    protocol_version = "HTTP/1.1"
    # Headers and body are two writes: send the body without waiting
    # for the client to ACK the headers.
    disable_nagle_algorithm = True
    # Socket timeout: an idle connection is closed after this long.
    timeout = KEEPALIVE_IDLE_S

    @property
    def service(self) -> EnrichmentService:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def metrics(self) -> ServiceMetrics:
        return self.server.metrics  # type: ignore[attr-defined]

    # -- plumbing ---------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def handle(self) -> None:
        try:
            super().handle()
        except CLIENT_GONE:
            pass  # the client reset the connection between requests

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` only for a body the length checks accept.

        Otherwise no ``100`` goes out and the route answers ``400`` or
        ``413`` at once, instead of inviting a body it then refuses.
        """
        if "Content-Length" in self.headers and self._declared_length()[1] is None:
            return super().handle_expect_100()
        return True

    def _reply(self, status: int, payload: Dict, headers: Optional[Dict] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        # Observe before the first byte goes out: a client that has read
        # its response is then guaranteed to find it in /v1/metrics.
        self._observe(status)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        if status == 500 or self._body_unread():
            # Unread body bytes would be parsed as the next request, and
            # a 500 leaves the request's framing unknown.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _body_unread(self) -> bool:
        """True when the request declared a body not read in full."""
        if "Transfer-Encoding" in self.headers:
            return True  # never decoded, so its end is unknown
        if self._body_read:
            return False
        length, refusal = self._declared_length()
        return refusal is not None or length > 0

    def _error(self, status: int, message: str, **extra) -> None:
        self._reply(status, {"error": message, **extra})

    def _endpoint_label(self) -> str:
        path = urlparse(self.path).path
        return path if path in KNOWN_ENDPOINTS else "other"

    def _observe(self, status: int) -> None:
        """Record this request once (status 0 = client went away)."""
        if self._observed:
            return
        self._observed = True
        self.metrics.observe(
            self._endpoint,
            status,
            time.perf_counter() - self._started,
            rows=self._rows,
        )

    def _client_id(self) -> str:
        """Who the rate limiter budgets: header identity, else peer IP."""
        held = self.headers.get("X-Client-Id")
        if held:
            return held.strip()
        return str(self.client_address[0])

    def _over_rate_limit(self) -> bool:
        """Apply the per-client token bucket; True = 429 already sent."""
        limiter: Optional[RateLimiter] = getattr(self.server, "rate_limiter", None)
        if limiter is None or self._endpoint in RATE_LIMIT_EXEMPT:
            return False
        wait = limiter.check(self._client_id())
        if wait is None:
            return False
        retry_after = max(1, math.ceil(wait))
        self._reply(
            429,
            {
                "error": "rate limit exceeded",
                "retry_after_seconds": retry_after,
            },
            headers={"Retry-After": retry_after},
        )
        return True

    def _guarded(self, route) -> None:
        """Error boundary + rate limit + metrics around one request.

        Every request produces exactly one metrics observation.
        """
        self._endpoint = self._endpoint_label()
        self._started = time.perf_counter()
        self._observed = False
        self._rows = None  # row count for row-returning endpoints
        self._body_read = False
        try:
            if not self._over_rate_limit():
                route()
        except CLIENT_GONE:
            pass  # the client hung up; nothing to send, nothing to log
        except ValidationError as failure:
            self._safe_reply(400, {"error": str(failure)})
        except Exception as failure:  # noqa: BLE001 - the 500 boundary
            error_id = uuid.uuid4().hex[:12]
            print(
                f"[{error_id}] unhandled {type(failure).__name__} "
                f"on {self.path}: {failure}",
                file=sys.stderr,
            )
            if getattr(self.server, "verbose", False):
                traceback.print_exc()
            self._safe_reply(
                500, {"error": "internal server error", "error_id": error_id}
            )
        finally:
            self._observe(0)

    def _safe_reply(self, status: int, payload: Dict) -> None:
        """Best-effort reply: the connection may already be gone."""
        try:
            self._reply(status, payload)
        except CLIENT_GONE:
            pass

    def _declared_length(self) -> Tuple[int, Optional[Tuple[int, str]]]:
        """``(Content-Length, None)`` (0 when absent), or ``(0, (status,
        message))`` when the declared length is refused.

        Checked before touching the socket: a non-numeric header answers
        a structured 400 instead of crashing into the 500 boundary, a
        negative one answers 400 instead of ``rfile.read(-n)`` (which
        reads to EOF), conflicting duplicates answer 400 (either length
        would misframe the next request), and a length over the body cap
        answers 413 without reading — one request can neither pin a
        worker on an endless body nor balloon memory before validation.
        """
        values = self.headers.get_all("Content-Length", ())
        if len({value.strip() for value in values}) > 1:
            return 0, (400, f"conflicting Content-Length headers: {values!r}")
        raw = values[0].strip() if values else ""
        try:
            length = int(raw) if raw else 0
        except ValueError:
            return 0, (400, f"invalid Content-Length header: {values[0]!r}")
        if length < 0:
            return 0, (400, f"negative Content-Length: {length}")
        cap = getattr(self.server, "max_body_bytes", MAX_BODY_BYTES)
        if length > cap:
            return 0, (413, f"body of {length} bytes exceeds the {cap} byte limit")
        return length, None

    def _read_json_body(self):
        """The request body parsed as JSON, or None (error already sent).

        A refused length (``_declared_length``) is answered without
        reading the body, and a body that stops arriving for ``timeout``
        seconds is answered ``408``; ``_reply`` then closes the
        connection, since the body's end is unknown.
        """
        length, refusal = self._declared_length()
        if refusal is not None:
            self._error(*refusal)
            return None
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self._error(408, f"request body stalled for {self.timeout:g} s")
            return None
        self._body_read = len(raw) == length
        try:
            return json.loads(raw or b"")
        except json.JSONDecodeError:
            self._error(400, "body is not valid JSON")
            return None

    # -- GET --------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._guarded(self._route_get)

    def _query_params(
        self, query: str, known: Tuple[str, ...]
    ) -> Optional[Dict[str, str]]:
        """One value per query parameter, or None (400 sent).

        ``keep_blank_values`` stops ``parse_qs`` silently dropping
        ``?name=&sha256=x`` style blanks (each route decides what a
        blank means), repeated parameters are rejected instead of
        silently taking the first value, and parameter names outside
        ``known`` are rejected instead of silently ignored.
        """
        pairs = parse_qs(query, keep_blank_values=True)
        unknown = sorted(k for k in pairs if k not in known)
        if unknown:
            self._error(
                400,
                f"unknown query parameter(s): {', '.join(unknown)} "
                f"(expected {', '.join(known)})",
            )
            return None
        repeated = sorted(k for k, v in pairs.items() if len(v) > 1)
        if repeated:
            self._error(
                400, f"repeated query parameter(s): {', '.join(repeated)}"
            )
            return None
        return {k: v[0] for k, v in pairs.items()}

    def _route_get(self) -> None:
        url = urlparse(self.path)
        if url.path == "/v1/healthz":
            # A degraded backing artifact is worth surfacing but the
            # service itself is healthy — still HTTP 200.
            status = "degraded" if getattr(self.service, "degraded", False) else "ok"
            index = self.service.index
            body = {
                "status": status,
                "packages": index.package_count,
                "epoch": index.epoch,
                "last_delta_at": index.last_delta_at,
            }
            # Per-source lifecycle states, only for services built over
            # connector-era artifacts (the key stays absent otherwise).
            source_health = getattr(self.service, "source_health", None)
            if source_health:
                body["sources"] = {
                    key: held.get("state", "healthy")
                    for key, held in source_health.items()
                }
            self._reply(200, body)
        elif url.path == "/v1/stats":
            self._reply(200, self.service.stats())
        elif url.path == "/v1/metrics":
            self._reply(200, self.metrics.snapshot())
        elif url.path == "/v1/enrich":
            params = self._query_params(url.query, ENRICH_PARAMS)
            if params is None:
                return
            # a blank is an explicit client mistake, not a missing key
            blank = sorted(k for k, v in params.items() if v == "")
            if blank:
                self._error(
                    400, f"blank value for query parameter(s): {', '.join(blank)}"
                )
                return
            indicator = Indicator.from_dict(params)
            if indicator.is_empty:
                self._error(400, "need at least ?name= or ?sha256=")
                return
            self._reply(200, self.service.enrich(indicator).to_dict())
        elif url.path == "/v1/feed":
            self._route_feed(url.query)
        else:
            self._error(404, f"unknown path {url.path!r}")

    def _route_feed(self, query: str) -> None:
        """``GET /v1/feed[?cursor=&limit=]`` — one page of the STIX-ish
        detection feed.

        Cursors are generation-tagged and survive index refreshes; an
        expired cursor (its generation was evicted) answers ``410 Gone``
        with a restart hint instead of silently double- or under-serving
        items.
        """
        exporter = getattr(self.service, "feed", None)
        if exporter is None:
            self._error(503, "feed exporter not configured on this service")
            return
        params = self._query_params(query, FEED_PARAMS)
        if params is None:
            return
        cursor = params.get("cursor")
        if cursor == "":
            self._error(400, "blank value for query parameter(s): cursor")
            return
        limit: Optional[int] = None
        raw_limit = params.get("limit")
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError:
                self._error(400, f"limit must be an integer, got {raw_limit!r}")
                return
            if limit < 1 or limit > MAX_PAGE_SIZE:
                self._error(
                    400,
                    f"limit must be between 1 and {MAX_PAGE_SIZE}, "
                    f"got {limit}",
                )
                return
        try:
            page = exporter.page(cursor=cursor, limit=limit)
        except CursorExpired as expired:
            self._reply(
                410,
                {
                    "error": str(expired),
                    "expired_generation": expired.generation,
                    "current_generation": expired.current,
                    "restart": "/v1/feed",
                },
            )
            return
        except CursorError as failure:
            self._error(400, str(failure))
            return
        self._rows = page["count"]
        self._reply(200, page)

    # -- POST -------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._guarded(self._route_post)

    def _route_post(self) -> None:
        path = urlparse(self.path).path
        if path == "/v1/query":
            self._route_query()
            return
        if path != "/v1/enrich/batch":
            self._error(404, f"unknown path {self.path!r}")
            return
        payload = self._read_json_body()
        if payload is None:
            return
        raw = payload.get("indicators") if isinstance(payload, dict) else None
        if not isinstance(raw, list):
            self._error(400, 'body must be {"indicators": [...]}')
            return
        if len(raw) > MAX_BATCH_SIZE:
            self._error(413, f"batch larger than {MAX_BATCH_SIZE}")
            return
        indicators = []
        for index, item in enumerate(raw):
            try:
                indicator = Indicator.from_dict(item)
            except ValidationError as failure:
                self._error(400, f"indicator {index}: {failure}", index=index)
                return
            if indicator.is_empty:
                self._error(
                    400,
                    f"indicator {index}: needs a name or sha256",
                    index=index,
                )
                return
            indicators.append(indicator)
        results = self.service.batch_enrich(indicators)
        self._reply(
            200,
            {"count": len(results), "results": [r.to_dict() for r in results]},
        )

    def _route_query(self) -> None:
        """``POST /v1/query`` — run one MALGRAPH query.

        Body: ``{"pattern": "MATCH ... RETURN ..."}``. Bad input comes
        back as structured 400s (syntax errors additionally carry the
        ``offset`` and the caret-rendered ``detail``); a well-formed
        query answers 200 with columns / rows / row_count / elapsed_ms.
        """
        engine = getattr(self.service, "query_engine", None)
        if engine is None:
            self._error(503, "query engine not configured on this service")
            return
        payload = self._read_json_body()
        if payload is None:
            return
        if not isinstance(payload, dict):
            self._error(400, 'body must be {"pattern": "<query>"}')
            return
        pattern = payload.get("pattern")
        if not isinstance(pattern, str) or not pattern.strip():
            self._error(400, '"pattern" must be a non-empty string')
            return
        cap = getattr(self.server, "max_query_length", MAX_QUERY_LENGTH)
        if len(pattern) > cap:
            self._error(
                400, f"pattern longer than {cap} characters ({len(pattern)})"
            )
            return
        try:
            result = engine.run(pattern)
        except QuerySyntaxError as failure:
            self._error(
                400,
                failure.reason,
                offset=failure.offset,
                detail=str(failure),
            )
            return
        except QueryError as failure:
            self._error(400, str(failure))
            return
        self._rows = result.row_count
        self._reply(200, result.to_dict())


class IntelHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer whose close also ends open connections.

    ``server_close`` joins every handler thread, and a persistent
    connection's thread waits for the client's next request. Shutting
    down the read side of each open connection first makes a waiting
    handler see EOF at once, while one mid-request still sends its
    reply.
    """

    def __init__(self, server_address, handler_class) -> None:
        self._open = set()
        self._open_lock = threading.Lock()
        super().__init__(server_address, handler_class)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        with self._open_lock:
            held = list(self._open)
        for request in held:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler
        super().server_close()


def create_server(
    service: EnrichmentService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    max_query_length: int = MAX_QUERY_LENGTH,
    max_body_bytes: int = MAX_BODY_BYTES,
    rate_limit: Optional[float] = None,
    rate_burst: Optional[int] = None,
) -> ThreadingHTTPServer:
    """Bind (but do not run) the API server; port 0 = ephemeral.

    ``max_query_length`` caps ``/v1/query`` pattern sizes (characters);
    ``max_body_bytes`` caps POST bodies (bytes, refused with 413 before
    the body is read). ``rate_limit`` enables per-client token-bucket
    limiting at that many requests/second (burst ``rate_burst``,
    default = the rate); ``None`` disables limiting entirely.
    """
    server = IntelHTTPServer((host, port), IntelRequestHandler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.metrics = ServiceMetrics()  # type: ignore[attr-defined]
    server.max_query_length = max_query_length  # type: ignore[attr-defined]
    server.max_body_bytes = max_body_bytes  # type: ignore[attr-defined]
    limiter = None
    if rate_limit is not None:
        limiter = RateLimiter(rate_limit, burst=rate_burst)
        server.metrics.attach_gauges(  # type: ignore[attr-defined]
            "rate_limiter", limiter.stats
        )
    server.rate_limiter = limiter  # type: ignore[attr-defined]
    if getattr(service, "source_health", None):
        # Per-source lifecycle health + feed pagination books, only when
        # the service was built over a connector-era artifact.
        server.metrics.attach_gauges(  # type: ignore[attr-defined]
            "connectors",
            lambda: {
                "sources": {
                    key: dict(held)
                    for key, held in service.source_health.items()
                },
                "feed": service.feed.stats(),
            },
        )
    if getattr(service, "webhook", None) is not None:
        server.metrics.attach_gauges(  # type: ignore[attr-defined]
            "webhooks", service.webhook.stats
        )
    return server


def server_address(server: ThreadingHTTPServer) -> Tuple[str, int]:
    """The (host, port) the server actually bound."""
    host, port = server.server_address[:2]
    return str(host), int(port)


def serve(
    service: EnrichmentService,
    host: str = "127.0.0.1",
    port: int = 8742,
    verbose: bool = True,
    rate_limit: Optional[float] = None,
    rate_burst: Optional[int] = None,
) -> Optional[ThreadingHTTPServer]:
    """Run the API until interrupted (the ``repro serve`` entry point).

    Returns None (after a one-line message on stderr, no traceback) when
    the requested port is already bound by another process.
    """
    try:
        server = create_server(
            service,
            host=host,
            port=port,
            verbose=verbose,
            rate_limit=rate_limit,
            rate_burst=rate_burst,
        )
    except OSError as failure:
        if failure.errno == errno.EADDRINUSE:
            print(
                f"error: {host}:{port} is already in use "
                "(another server running? pick a different --port)",
                file=sys.stderr,
            )
            return None
        raise
    bound_host, bound_port = server_address(server)
    print(f"repro intel service on http://{bound_host}:{bound_port}/v1/enrich")
    if rate_limit is not None:
        print(
            f"rate limit: {rate_limit:g} req/s per client "
            f"(burst {server.rate_limiter.burst:g})"  # type: ignore[attr-defined]
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("shutting down")
    finally:
        server.server_close()
        if verbose:
            print(server.metrics.render())  # type: ignore[attr-defined]
    return server
