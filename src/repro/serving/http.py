"""JSON-over-HTTP serving endpoints over a request reader of our own.

The ``runtime-serve`` CLI command and the tests/examples both run this
tiny server: a :class:`CatalogHTTPServer` (HTTP/1.1 keep-alive over a
bounded worker pool that idle connections do not occupy) that answers

* ``GET /search?q=<text>&k=<top-k>&category=<id>&attr=<Name=Value>`` —
  ranked top-k search (``attr`` may repeat; every pair must match),
* ``GET /product/<product-id>`` — full product JSON by id,
* ``GET /health`` — liveness: fleet/replica health, 503 when no replica
  can serve,
* ``GET /lag`` — per-replica pinned ``commit_count`` vs the store head,
* ``GET /stats`` — service, index, and snapshot statistics, plus the
  serving process's memory under ``"process"``,
* ``GET /metrics`` — the process metrics registry in Prometheus text
  exposition format (scrape target; see docs/observability.md),
* ``GET /metrics.json`` — the same snapshot as JSON (what the
  ``runtime-obs`` CLI pretty-prints).

The request reader is this module's own (no ``http.server``): each
connection owns a byte buffer, a head is whatever precedes the first
blank line (:func:`_parse_head`: the request line and the three headers
that frame a connection), a target is parsed once however often it
repeats (:func:`_parse_target`), a response leaves in one ``send``, and
no pool worker waits for bytes.  A head the reader does not accept gets
one JSON error with ``Connection: close`` and is counted in
``http_requests_refused_total{reason=...}``; every request, refused or
not, is timed into ``http_request_seconds``, labelled by endpoint.

The server fronts a :class:`~repro.serving.fleet.ServingFleet` over a
store file and nothing else.  The fleet hands ``/search`` and
``/product`` back as serialised bodies (from its response cache when the
pinned snapshot already answered the request) and builds the
``/health``, ``/lag`` and ``/stats`` payloads.  All query semantics
(ranking, filters, snapshot discipline, load balancing, route-around)
live below the HTTP layer.
"""

from __future__ import annotations

import functools
import http
import json
import queue
import re
import select
import selectors
import socket
import socketserver
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlparse

from repro.obs import (
    Histogram,
    MetricsRegistry,
    get_registry,
    process_memory,
    register_process_gauges,
)
from repro.serving.fleet import FleetUnavailableError, ServingFleet

__all__ = ["CatalogHTTPServer", "CatalogRequestHandler", "serve"]

#: Hard cap on ``k`` so a typo cannot ask the index for a million hits.
_MAX_TOP_K = 1000

#: Seconds a pool worker that just answered waits on the same connection
#: for the client's next request before parking the connection.
_LINGER_SECONDS = 0.002

#: Bounds on one request head: bytes before the blank line, header lines.
_MAX_HEAD_BYTES, _MAX_HEADER_LINES = 65536, 100
#: Longer targets are parsed on every request: the memo holds its keys.
_MAX_MEMO_TARGET_CHARS = 512

_JSON = b"application/json"
#: What an endpoint hands back to be sent: status, content type, body.
Response = Tuple[int, bytes, bytes]
_ENDPOINTS = ("/search", "/health", "/lag", "/stats", "/metrics", "/metrics.json")

_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\nServer: repro-serving\r\n".encode()
    for status in http.HTTPStatus
}
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()

#: ``METHOD SP target SP HTTP/major.minor``: visible ASCII, single spaces.
_REQUEST_LINE = re.compile(rb"([!-~]+) ([!-~\x80-\xff]+) HTTP/(\d+)\.\d+")
#: Every header line is ``token ":" value`` (no folding, no control bytes).
_HEADER_LINES = re.compile(rb"(?:\r\n[!#$%&'*+.^_`|~0-9A-Za-z-]+:[^\x00\r\n]*)*")
#: The only headers read: they decide where a request ends and whether the connection does.
_FRAMING = re.compile(
    rb"\r\n(connection|content-length|transfer-encoding):[ \t]*([^\r\n]*)", re.IGNORECASE
)
#: Access-log escaping of control characters and backslashes, as the stdlib's.
_LOG_ESCAPES = {code: f"\\x{code:02x}" for code in (*range(0x20), *range(0x7F, 0xA0))}
_LOG_ESCAPES[ord("\\")] = "\\\\"


def _json(status: int, payload: Dict[str, object]) -> Response:
    return status, _JSON, json.dumps(payload, sort_keys=True).encode("utf-8")


def _error(status: int, message: str) -> Response:
    return _json(status, {"error": message})


class _Refused(Exception):
    """A request head this front does not accept: status, counter label, message."""


def _parse_head(line: bytes, headers: bytes) -> Tuple[str, bool]:
    """The target of a ``GET`` head and whether its connection stays open, or :class:`_Refused`.

    ``headers`` is the rest of the head, each line still behind its CRLF.
    """
    if len(line) + len(headers) > _MAX_HEAD_BYTES or headers.count(b"\r\n") > _MAX_HEADER_LINES:
        limits = f"{_MAX_HEAD_BYTES} bytes or {_MAX_HEADER_LINES} header lines"
        raise _Refused(431, "head_too_large", f"request head exceeds {limits}")
    match = _REQUEST_LINE.fullmatch(line)
    if match is None:
        raise _Refused(400, "bad_request_line", f"malformed request line {line[:80]!r}")
    method, target, major = match.groups()
    if major != b"1":
        raise _Refused(505, "bad_version", "only HTTP/1.x is spoken here")
    if method != b"GET":
        raise _Refused(501, "unsupported_method", f"unsupported method {method[:40].decode()!r}")
    if _HEADER_LINES.fullmatch(headers) is None:
        raise _Refused(400, "bad_header", "malformed header line")
    keep_alive = line.endswith(b" HTTP/1.1")  # keep-alive is offered to 1.1 clients only
    for name, value in _FRAMING.findall(headers):
        if name.lower() == b"connection":
            keep_alive = keep_alive and b"close" not in value.lower()
        elif name.lower() != b"content-length" or value.strip() != b"0":
            raise _Refused(400, "body_not_accepted", "this API takes no request bodies")
    return target.decode("latin-1"), keep_alive


def _parse_search_params(params: Dict[str, list]) -> tuple:
    query = params.get("q", [""])[0]
    if not query.strip():
        raise ValueError("missing or empty query parameter 'q'")
    raw_k = params.get("k", ["10"])[0]
    try:
        top_k = int(raw_k)
    except ValueError:
        raise ValueError(f"parameter 'k' must be an integer, got {raw_k!r}")
    if not 1 <= top_k <= _MAX_TOP_K:
        raise ValueError(f"parameter 'k' must be in [1, {_MAX_TOP_K}], got {top_k}")
    attributes: Dict[str, str] = {}
    for pair in params.get("attr", []):
        name, separator, value = pair.partition("=")
        if not separator or not name or not value:
            raise ValueError(f"parameter 'attr' must look like Name=Value, got {pair!r}")
        attributes[name] = value
    return query, top_k, params.get("category", [None])[0], tuple(attributes.items())


@functools.lru_cache(maxsize=1024)
def _parse_target(target: str) -> Tuple[str, str, Union[None, str, tuple]]:
    """Endpoint label, path and checked argument of a raw request target (pure, memoised).

    Labels are bounded: a known endpoint's path, ``/product`` for any lookup, else ``other``.
    The argument: ``/search``'s tuple, ``(product id,)``, or the message of a 400.
    """
    try:
        parsed = urlparse(target)
    except ValueError as error:
        return "other", target, f"malformed request target: {error}"
    path = parsed.path
    if path == "/search":
        try:
            return path, path, _parse_search_params(parse_qs(parsed.query))
        except ValueError as error:
            return path, path, str(error)
    if path.startswith("/product/"):
        product_id = unquote(path[len("/product/") :])
        return "/product", path, (product_id,) if product_id else "missing product id"
    return (path if path in _ENDPOINTS else "other"), path, None


class CatalogRequestHandler:
    """One client connection: its read buffer, the request reader and the route table."""

    #: Seconds a connection may idle between requests, or take over one
    #: request head counted from its first byte, before it is closed.
    timeout = 5.0

    def __init__(
        self, request: socket.socket, client_address: tuple, server: "CatalogHTTPServer"
    ) -> None:
        self.connection, self.client_address, self.server = request, client_address, server
        # Small writes leave at once, and no call on the socket ever blocks.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        self.connection.setblocking(False)
        self.buffer, self.close_connection = bytearray(), False
        #: Accepted, last answered, or began its current head: where ``timeout`` counts from.
        self.stamp = time.monotonic()
        self._poll = select.poll()
        self._poll.register(self.connection, select.POLLIN)

    def readable_within(self, seconds: float) -> bool:
        """Whether input (or the end of the stream) is here within ``seconds``: one ``poll``."""
        return bool(self._poll.poll(seconds * 1000.0))

    def _receive(self) -> None:
        """One ``recv`` into the buffer; a stream that ended or broke closes the connection."""
        try:
            data = self.connection.recv(65536)
        except BlockingIOError:
            return  # woken for nothing
        except OSError:
            data = b""
        if not data:
            self.close_connection = True
        elif not self.buffer:
            self.stamp = time.monotonic()  # a head begins: its one deadline runs from here
        self.buffer += data

    def handle_one_request(self) -> bool:
        """Answer the next request if its head is complete, after one ``recv`` if it is not.

        Never waits for bytes.  False: nothing answered, because the head is
        still incomplete (kept buffered, ``stamp`` untouched) or the stream ended.
        """
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            self._receive()
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                if len(self.buffer) <= _MAX_HEAD_BYTES:
                    return False
                end = len(self.buffer)  # no blank line within the bound: refused below
        self._started = time.perf_counter()
        head = bytes(self.buffer[:end])
        del self.buffer[: end + 4]
        self._request_line = head.partition(b"\r\n")[0]
        try:
            target, keep_alive = _parse_head(self._request_line, head[len(self._request_line) :])
        except _Refused as refused:
            status, reason, message = refused.args
            self.server.registry.counter(
                "http_requests_refused_total",
                help="Request heads refused before routing (JSON error, connection closed).",
                labels={"reason": reason},
            ).inc()
            self.close_connection = True
            self._send("other", *_error(status, message))
            return True
        self.close_connection = not keep_alive
        cached = len(target) <= _MAX_MEMO_TARGET_CHARS
        endpoint, path, argument = (_parse_target if cached else _parse_target.__wrapped__)(target)
        try:
            response = self._route(endpoint, path, argument)
        except FleetUnavailableError as error:
            response = _error(503, str(error))
        except Exception as error:  # noqa: BLE001 - answered, counted, worker lives
            self.server.registry.counter(
                "http_requests_failed_total",
                help="Requests answered 500 because the endpoint raised.",
                labels={"endpoint": endpoint},
            ).inc()
            if self.server.log_requests:
                sys.stderr.write(f"GET {target!r} raised:\n{traceback.format_exc()}")
            self.close_connection = True
            response = _error(500, f"{type(error).__name__}: {error}")
        self._send(endpoint, *response)  # outside the try: a client that went away is not a 500
        return True

    def _route(self, endpoint: str, path: str, argument: Union[None, str, tuple]) -> Response:
        fleet, registry = self.server.fleet, self.server.registry
        if isinstance(argument, str):
            return _error(400, argument)
        if endpoint == "/search":
            query, top_k, category, attributes = argument
            body = fleet.search_body(
                query, top_k=top_k, category=category, attributes=dict(attributes) or None
            )
            return 200, _JSON, body
        if endpoint == "/product":
            body = fleet.product_body(argument[0])
            if body is None:
                return _error(404, f"no product with id {argument[0]!r}")
            return 200, _JSON, body
        if path == "/health":
            health = fleet.health()
            return _json(200 if health["healthy"] else 503, health)
        if path == "/lag":
            return _json(200, fleet.lag())
        if path == "/stats":
            return _json(200, dict(fleet.stats(), process=process_memory()))
        if path == "/metrics":
            body = registry.render().encode("utf-8")
            return 200, b"text/plain; version=0.0.4; charset=utf-8", body
        if path == "/metrics.json":
            return _json(200, registry.snapshot())
        return _error(404, f"unknown endpoint {path!r}")

    def _send(self, endpoint: str, status: int, content_type: bytes, body: bytes) -> None:
        """Count the request, log it, then write status line, headers and body in one send."""
        self.server.request_seconds(endpoint).observe(time.perf_counter() - self._started)
        _, date, logged_at = self.server.stamps()
        if self.server.log_requests:
            request_line = self._request_line.decode("latin-1").translate(_LOG_ESCAPES)
            client = self.client_address[0]
            sys.stderr.write(f'{client} - - [{logged_at}] "{request_line}" {status} {len(body)}\n')
        closing = b"Connection: close\r\n" if self.close_connection else b""
        self._write(
            b"%sDate: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%s\r\n%s"
            % (_STATUS_LINES[status], date, content_type, len(body), closing, body)
        )
        self.stamp = time.monotonic()

    def _write(self, data: bytes) -> None:
        """The one way bytes leave: a single ``send``, more only for a client that reads slowly."""
        try:
            sent = self.connection.send(data)
        except BlockingIOError:
            sent = 0
        if sent < len(data):  # the socket buffer is full: wait for the reader, at most `timeout`
            self.connection.settimeout(self.timeout)
            try:
                self.connection.sendall(memoryview(data)[sent:])
            finally:
                self.connection.setblocking(False)


class CatalogHTTPServer(socketserver.TCPServer):
    """An HTTP/1.1 keep-alive server bound to one serving fleet.

    The fleet stays the caller's to close.

    ``port=0`` binds an ephemeral port (tests and examples);
    ``server_address`` reports the actual one after construction.
    Start it with ``serve_forever()`` (blocking) or on a daemon thread.

    Requests are answered by a **bounded worker pool** with one worker
    per *ready request*, not per connection: open connections wait in a
    selector, one that turns readable is queued, and one of
    ``max_workers`` pre-started workers (default: two per replica of the
    fleet) reads what arrived, answers the request if its head is
    complete, and parks the connection again.  Idle connections and
    half-sent requests cost no worker, and a burst degrades into
    queueing delay instead of thousands of threads.  A connection that
    idles, or takes longer over one head, than
    ``CatalogRequestHandler.timeout`` is closed.
    """

    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        fleet: ServingFleet,
        log_requests: bool = False,
        max_workers: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        super().__init__(address, CatalogRequestHandler)
        self.fleet = fleet
        #: Size of the worker pool.
        self.max_workers = 2 * fleet.num_replicas if max_workers is None else max_workers
        self.registry = registry if registry is not None else get_registry()
        self.log_requests = log_requests
        self._accepted = self.registry.counter(
            "http_connections_accepted_total", help="Client connections accepted."
        )
        self._open = self.registry.gauge(
            "http_connections_open", help="Client connections currently open."
        )
        register_process_gauges(self.registry)
        self._request_seconds: Dict[str, Histogram] = {}
        self._stamps: Tuple[int, bytes, str] = (0, b"", "")
        self._ready: "queue.SimpleQueue[Optional[CatalogRequestHandler]]" = queue.SimpleQueue()
        self._parked = selectors.DefaultSelector()
        self._park_lock = threading.Lock()
        self._closing = False
        loops = [self._worker_loop] * self.max_workers + [self._selector_loop]
        self._pool = [
            threading.Thread(target=loop, name=f"http{loop.__name__}-{n}", daemon=True)
            for n, loop in enumerate(loops)
        ]
        for thread in self._pool:
            thread.start()

    def request_seconds(self, endpoint: str) -> Histogram:
        """The ``http_request_seconds`` series of one endpoint label.

        Resolved through the registry on the label's first request and
        kept: the handler's label set is bounded, and a series that was
        never requested stays out of ``/metrics``.
        """
        histogram = self._request_seconds.get(endpoint)
        if histogram is None:
            histogram = self._request_seconds[endpoint] = self.registry.histogram(
                "http_request_seconds",
                help="Serving endpoint latency, by endpoint.",
                labels={"endpoint": endpoint},
            )
        return histogram

    def stamps(self) -> Tuple[int, bytes, str]:
        """This second, its ``Date`` header value and access-log timestamp (built once a second)."""
        second = int(time.time())
        if second != self._stamps[0]:
            utc, local = time.gmtime(second), time.localtime(second)  # names from the tables:
            day, month = _DAYS[utc.tm_wday], _MONTHS[utc.tm_mon - 1]  # strftime's follow the locale
            date = time.strftime(f"{day}, %d {month} %Y %H:%M:%S GMT", utc).encode("ascii")
            logged_at = time.strftime(f"%d/{_MONTHS[local.tm_mon - 1]}/%Y %H:%M:%S", local)
            self._stamps = (second, date, logged_at)
        return self._stamps

    def process_request(self, request, client_address) -> None:  # noqa: ANN001
        """Park the accepted connection for the pool."""
        self._accepted.inc()
        self._open.inc()
        self._park(CatalogRequestHandler(request, client_address, self))

    def shutdown_request(self, request) -> None:  # noqa: ANN001
        """Close one client connection (every connection ends here)."""
        self._open.dec()
        super().shutdown_request(request)

    def _park(self, handler: CatalogRequestHandler) -> None:
        """Wait for the connection's next bytes in the selector (``stamp`` keeps running)."""
        with self._park_lock:
            if not self._closing:
                self._parked.register(handler.connection, selectors.EVENT_READ, handler)
                return
        self.shutdown_request(handler.connection)

    def _selector_loop(self) -> None:
        """Queue parked connections that turned readable; close overdue ones."""
        next_sweep = 0.0
        while not self._closing:
            ready = self._parked.select(timeout=0.1)
            now = time.monotonic()
            overdue: List[CatalogRequestHandler] = []
            with self._park_lock:
                if now >= next_sweep:  # before queueing: a dribbled head is readable every time
                    next_sweep, cutoff = now + 0.5, now - CatalogRequestHandler.timeout
                    parked = self._parked.get_map().values()
                    overdue = [key.data for key in parked if key.data.stamp < cutoff]
                    for handler in overdue:
                        self._parked.unregister(handler.connection)
                for key, _ in ready:
                    if key.data not in overdue:
                        self._parked.unregister(key.fileobj)
                        self._ready.put(key.data)
            for handler in overdue:
                self.shutdown_request(handler.connection)

    def _worker_loop(self) -> None:
        """Answer one ready request at a time, then hand its connection back.

        A head still incomplete after the one ``recv`` goes back to the
        selector: a worker never waits for bytes.  Only while nothing else
        is queued does the worker linger on the connection it just answered
        (a closed-loop client's next request is a fraction of a millisecond
        away; taking it here saves the selector -> queue -> worker hand-off).
        Otherwise it moves on, and a pipelining client's buffered input queues last.
        """
        while True:
            handler = self._ready.get()
            if handler is None:
                return
            try:
                answered = handler.handle_one_request()
                while (
                    answered
                    and not handler.close_connection
                    and self._ready.empty()
                    and (handler.buffer or handler.readable_within(_LINGER_SECONDS))
                ):
                    answered = handler.handle_one_request()
                if not handler.close_connection:
                    if answered and handler.buffer:
                        self._ready.put(handler)  # pipelined: no selector sees the buffer
                    else:
                        self._park(handler)
                    continue
            except Exception:  # noqa: BLE001 - reported by socketserver; the worker lives
                self.handle_error(handler.connection, handler.client_address)
            self.shutdown_request(handler.connection)

    def server_close(self) -> None:
        """Stop the listener and the pool; close every parked connection."""
        super().server_close()
        self._stop_pool()

    def _stop_pool(self) -> None:
        if self._closing:
            return
        self._closing = True
        self._pool.pop().join(timeout=5)  # the selector: nothing is queued after it
        for _ in self._pool:
            self._ready.put(None)  # behind every queued request, which is still answered
        for worker in self._pool:
            worker.join(timeout=5)
        while not self._ready.empty():  # pipelining connections re-queued behind the sentinels
            self.shutdown_request(self._ready.get().connection)
        for key in list(self._parked.get_map().values()):
            self.shutdown_request(key.data.connection)
        self._parked.close()


def serve(
    fleet: ServingFleet,
    host: str = "127.0.0.1",
    port: int = 8080,
    log_requests: bool = True,
    max_workers: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Serve ``fleet`` until interrupted, then close it (the CLI entry point)."""
    server = CatalogHTTPServer(
        (host, port),
        fleet,
        log_requests=log_requests,
        max_workers=max_workers,
        registry=registry,
    )
    bound_host, bound_port = server.server_address[:2]
    print(
        f"runtime-serve: listening on http://{bound_host}:{bound_port} "
        f"({server.fleet.num_replicas} replica(s), {server.max_workers} workers)"
    )
    print(
        "  endpoints: /search?q=...&k=10  /product/<id>  /health  /lag  /stats"
        "  /metrics  /metrics.json"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nruntime-serve: shutting down")
    finally:
        server.server_close()
        fleet.close()
