"""JSON-over-HTTP serving endpoints (stdlib ``http.server`` only).

The ``runtime-serve`` CLI command and the tests/examples both run this
tiny server: a :class:`CatalogHTTPServer` (HTTP/1.1 keep-alive; a thread
per connection, or a bounded worker pool that idle connections do not
occupy) that answers

* ``GET /search?q=<text>&k=<top-k>&category=<id>&attr=<Name=Value>`` —
  ranked top-k search (``attr`` may repeat; every pair must match),
* ``GET /product/<product-id>`` — full product JSON by id,
* ``GET /health`` — liveness: fleet/replica health, 503 when no replica
  can serve,
* ``GET /lag`` — per-replica pinned ``commit_count`` vs the store head,
* ``GET /stats`` — service, index, and snapshot statistics,
* ``GET /metrics`` — the process metrics registry in Prometheus text
  exposition format (scrape target; see docs/observability.md),
* ``GET /metrics.json`` — the same snapshot as JSON (what the
  ``runtime-obs`` CLI pretty-prints).

Every request is timed into the ``http_request_seconds`` histogram,
labelled by endpoint.

The server fronts a :class:`~repro.serving.fleet.ServingFleet` (a bare
:class:`~repro.serving.service.CatalogSearchService` becomes a fleet of
one when the server is built), which hands ``/search`` and ``/product``
back as serialised bodies (from its response cache when the pinned
snapshot already answered the request) and builds the ``/health``,
``/lag`` and ``/stats`` payloads.  All query semantics (ranking,
filters, snapshot discipline, load balancing, route-around) live below
the HTTP layer.
"""

from __future__ import annotations

import json
import queue
import selectors
import socket
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlparse

from repro.obs import Histogram, MetricsRegistry, get_registry
from repro.serving.fleet import FleetUnavailableError, ServingFleet
from repro.serving.service import CatalogSearchService

__all__ = ["CatalogHTTPServer", "CatalogRequestHandler", "serve"]

#: Hard cap on ``k`` so a typo cannot ask the index for a million hits.
_MAX_TOP_K = 1000

#: Seconds a pool worker that just answered waits on the same connection
#: for the client's next request before parking the connection.
_LINGER_SECONDS = 0.002

_JSON = "application/json"

#: What an endpoint hands back to be sent: status, content type, body.
Response = Tuple[int, str, bytes]


def _json(status: int, payload: Dict[str, object]) -> Response:
    return status, _JSON, json.dumps(payload, sort_keys=True).encode("utf-8")


def _error(status: int, message: str) -> Response:
    return _json(status, {"error": message})


class CatalogRequestHandler(BaseHTTPRequestHandler):
    """One client connection and the route table for its requests."""

    protocol_version = "HTTP/1.1"
    #: Seconds a connection may idle between requests, or stall inside
    #: one, before the server closes it.
    timeout = 5.0
    #: Responses are one small write each; never wait to coalesce them.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Quiet by default; benchmark traffic would spam one line per request.

        ``CatalogHTTPServer(log_requests=True)`` restores the stdlib
        per-request stderr logging for interactive runs.
        """
        if getattr(self.server, "log_requests", False):
            super().log_message(format, *args)

    @property
    def _fleet(self) -> ServingFleet:
        return self.server.fleet  # type: ignore[attr-defined]

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        """Count the request, then write status line, headers and body in one send."""
        self.server.request_seconds(self._endpoint).observe(  # type: ignore[attr-defined]
            time.perf_counter() - self._started
        )
        if self.request_version != "HTTP/1.1":
            self.close_connection = True  # keep-alive is offered to 1.1 clients only
        closing = "Connection: close\r\n" if self.close_connection else ""
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\nDate: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n{closing}\r\n"
        )
        self.log_request(status, len(body))
        self.wfile.write(head.encode("latin-1") + body)

    _ENDPOINTS = ("/search", "/health", "/lag", "/stats", "/metrics", "/metrics.json")

    @property
    def _registry(self) -> "MetricsRegistry":
        return self.server.registry  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        """Route one GET request, then send its one response (timed per endpoint)."""
        parsed = urlparse(self.path)
        # Bounded label cardinality: known endpoints by literal path,
        # point lookups collapse to "/product", everything else "other".
        if parsed.path in self._ENDPOINTS:
            self._endpoint = parsed.path
        elif parsed.path.startswith("/product/"):
            self._endpoint = "/product"
        else:
            self._endpoint = "other"
        self._started = time.perf_counter()
        try:
            response = self._route(parsed.path, parsed.query)
        except FleetUnavailableError as error:
            response = _error(503, str(error))
        except Exception as error:  # noqa: BLE001 - answered, counted, worker lives
            self._registry.counter(
                "http_requests_failed_total",
                help="Requests answered 500 because the endpoint raised.",
                labels={"endpoint": self._endpoint},
            ).inc()
            self.log_error("GET %s raised:\n%s", self.path, traceback.format_exc())
            self.close_connection = True
            response = _error(500, f"{type(error).__name__}: {error}")
        self._send(*response)  # outside the try: a client that went away is not a 500

    def _route(self, path: str, query: str) -> Response:
        if path == "/search":
            return self._search(parse_qs(query))
        if path.startswith("/product/"):
            return self._product(unquote(path[len("/product/") :]))
        if path == "/health":
            health = self._fleet.health()
            return _json(200 if health["healthy"] else 503, health)
        if path == "/lag":
            return _json(200, self._fleet.lag())
        if path == "/stats":
            return _json(200, self._fleet.stats())
        if path == "/metrics":
            body = self._registry.render().encode("utf-8")
            return 200, "text/plain; version=0.0.4; charset=utf-8", body
        if path == "/metrics.json":
            return _json(200, self._registry.snapshot())
        return _error(404, f"unknown endpoint {path!r}")

    def _parse_search_params(
        self, params: Dict[str, list]
    ) -> Tuple[str, int, Optional[str], Optional[Dict[str, str]]]:
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
        category = params.get("category", [None])[0]
        attributes: Optional[Dict[str, str]] = None
        for pair in params.get("attr", []):
            name, separator, value = pair.partition("=")
            if not separator or not name or not value:
                raise ValueError(
                    f"parameter 'attr' must look like Name=Value, got {pair!r}"
                )
            attributes = attributes or {}
            attributes[name] = value
        return query, top_k, category, attributes

    def _search(self, params: Dict[str, list]) -> Response:
        try:
            query, top_k, category, attributes = self._parse_search_params(params)
        except ValueError as error:
            return _error(400, str(error))
        body = self._fleet.search_body(
            query, top_k=top_k, category=category, attributes=attributes
        )
        return 200, _JSON, body

    def _product(self, product_id: str) -> Response:
        if not product_id:
            return _error(400, "missing product id")
        body = self._fleet.product_body(product_id)
        if body is None:
            return _error(404, f"no product with id {product_id!r}")
        return 200, _JSON, body


def _next_request_within(handler: CatalogRequestHandler, wait: float) -> bool:
    """Whether more input is here already (``rfile``'s buffer included, where a
    pipelined request hides from any selector) or arrives within ``wait`` seconds."""
    connection = handler.connection
    try:
        connection.settimeout(0)  # peek at what has arrived without waiting
        if handler.rfile.peek(1):
            return True
        if wait <= 0:
            return False
        connection.settimeout(wait)
        connection.recv(1, socket.MSG_PEEK)  # returns on data or end of stream
        return True
    except socket.timeout:
        return False
    except (OSError, ValueError):
        return True  # broken: let the next read close it
    finally:
        connection.settimeout(handler.timeout)


class CatalogHTTPServer(ThreadingHTTPServer):
    """An HTTP/1.1 keep-alive server bound to one serving fleet.

    A bare :class:`CatalogSearchService` is wrapped as a fleet of one
    (lag bound 0, no head watcher: every request reads its last commit);
    the wrapper, and the service with it, is closed by
    :meth:`server_close`.  A fleet handed in stays the caller's to close.

    ``port=0`` binds an ephemeral port (tests and examples);
    ``server_address`` reports the actual one after construction.
    Start it with ``serve_forever()`` (blocking) or on a daemon thread.

    By default every connection gets its own thread while it stays open
    (the stdlib ``ThreadingHTTPServer`` behaviour).  ``max_workers=N``
    switches to a **bounded worker pool** with one worker per *ready
    request*, not per connection: open connections wait in a selector,
    one that turns readable is queued, and one of ``N`` pre-started
    workers answers that request and parks the connection again.  Idle
    keep-alive connections cost no worker, and a burst degrades into
    queueing delay instead of thousands of threads.  Either way a
    connection that idles (or stalls mid-request) longer than
    ``CatalogRequestHandler.timeout`` is closed.
    """

    #: Connection threads die with the process; a hung client never
    #: blocks shutdown of a drill or test run.
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: Union[CatalogSearchService, ServingFleet],
        log_requests: bool = False,
        max_workers: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        super().__init__(address, CatalogRequestHandler)
        self._wrapper: Optional[ServingFleet] = None
        if isinstance(service, CatalogSearchService):
            service = self._wrapper = ServingFleet([service])
        self.fleet = service
        self.registry = registry if registry is not None else get_registry()
        self.log_requests = log_requests
        self._accepted = self.registry.counter(
            "http_connections_accepted_total", help="Client connections accepted."
        )
        self._open = self.registry.gauge(
            "http_connections_open", help="Client connections currently open."
        )
        self._request_seconds: Dict[str, Histogram] = {}
        self._ready: Optional["queue.SimpleQueue[Optional[CatalogRequestHandler]]"] = None
        self._pool: List[threading.Thread] = []
        if max_workers is not None:
            self._ready = queue.SimpleQueue()
            self._parked = selectors.DefaultSelector()
            self._park_lock = threading.Lock()
            self._closing = False
            loops = [self._worker_loop] * max_workers + [self._selector_loop]
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

    def process_request(self, request, client_address) -> None:  # noqa: ANN001
        """Give the accepted connection a thread, or park it for the pool."""
        self._accepted.inc()
        self._open.inc()
        if self._ready is None:
            super().process_request(request, client_address)
            return
        # Set up but not served (the constructor would serve it to the
        # end): workers call handle_one_request() as requests arrive.
        handler = CatalogRequestHandler.__new__(CatalogRequestHandler)
        handler.request, handler.client_address, handler.server = request, client_address, self
        handler.setup()
        self._park(handler)

    def shutdown_request(self, request) -> None:  # noqa: ANN001
        """Close one client connection (every mode ends a connection here)."""
        self._open.dec()
        super().shutdown_request(request)

    def _close(self, handler: CatalogRequestHandler) -> None:
        handler.finish()
        self.shutdown_request(handler.request)

    def _park(self, handler: CatalogRequestHandler) -> None:
        """Wait for the connection's next request in the selector."""
        handler.parked_at = time.monotonic()
        with self._park_lock:
            if not self._closing:
                self._parked.register(handler.request, selectors.EVENT_READ, handler)
                return
        self._close(handler)

    def _selector_loop(self) -> None:
        """Queue parked connections that turned readable; close overdue ones."""
        next_sweep = 0.0
        while not self._closing:
            ready = self._parked.select(timeout=0.1)
            now = time.monotonic()
            overdue: List[CatalogRequestHandler] = []
            with self._park_lock:
                for key, _ in ready:
                    self._parked.unregister(key.fileobj)
                    self._ready.put(key.data)
                if now >= next_sweep:
                    next_sweep, cutoff = now + 0.5, now - CatalogRequestHandler.timeout
                    parked = self._parked.get_map().values()
                    overdue = [key.data for key in parked if key.data.parked_at < cutoff]
                    for handler in overdue:
                        self._parked.unregister(handler.request)
            for handler in overdue:
                self._close(handler)

    def _worker_loop(self) -> None:
        """Answer one ready request at a time, then hand its connection back.

        Only while nothing else is queued does the worker linger on the
        connection it just answered (a closed-loop client's next request is
        a fraction of a millisecond away; taking it here saves the selector
        -> queue -> worker hand-off).  Otherwise it moves on after one
        request, and a pipelining client's buffered input queues last.
        """
        while True:
            handler = self._ready.get()
            if handler is None:
                return
            try:
                handler.handle_one_request()
                while (
                    not handler.close_connection
                    and self._ready.empty()
                    and _next_request_within(handler, _LINGER_SECONDS)
                ):
                    handler.handle_one_request()
                if not handler.close_connection:
                    if _next_request_within(handler, 0.0):
                        self._ready.put(handler)  # pipelined: no selector sees rfile's buffer
                    else:
                        self._park(handler)
                    continue
            except Exception:  # noqa: BLE001 - reported like a connection thread's; worker lives
                self.handle_error(handler.request, handler.client_address)
            self._close(handler)

    def server_close(self) -> None:
        """Stop the listener and the pool; close every parked connection."""
        super().server_close()
        self._stop_pool()
        if self._wrapper is not None:
            self._wrapper.close()  # after the pool answered what was queued

    def _stop_pool(self) -> None:
        if self._ready is None or self._closing:
            return
        self._closing = True
        self._pool.pop().join(timeout=5)  # the selector: nothing is queued after it
        for _ in self._pool:
            self._ready.put(None)  # behind every queued request, which is still answered
        for worker in self._pool:
            worker.join(timeout=5)
        while not self._ready.empty():  # pipelining connections re-queued behind the sentinels
            self._close(self._ready.get())
        for key in list(self._parked.get_map().values()):
            self._close(key.data)
        self._parked.close()


def serve(
    service: Union[CatalogSearchService, ServingFleet],
    host: str = "127.0.0.1",
    port: int = 8080,
    log_requests: bool = True,
    max_workers: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Run the serving endpoints until interrupted (the CLI entry point)."""
    server = CatalogHTTPServer(
        (host, port),
        service,
        log_requests=log_requests,
        max_workers=max_workers,
        registry=registry,
    )
    bound_host, bound_port = server.server_address[:2]
    pool = f", {max_workers} workers" if max_workers is not None else ""
    print(
        f"runtime-serve: listening on http://{bound_host}:{bound_port} "
        f"({server.fleet.num_replicas} replica(s){pool})"
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
        service.close()
