"""Connection-level tests for the keep-alive HTTP front.

Everything here talks to the server over raw sockets or ``http.client``
connections (``urllib`` sends ``Connection: close`` and would hide the
connection lifecycle): persistent connections, single-write responses,
the multiplexed worker pool (idle connections hold no worker), and the
bounded refusals — a 500 for a raising endpoint, a timeout for a stalled
or idle client.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.model.attributes import Specification
from repro.model.products import Product
from repro.obs import MetricsRegistry
from repro.serving import CatalogHTTPServer, CatalogIndex, CatalogSearchService
from repro.serving.http import CatalogRequestHandler

PRODUCTS = [
    Product(
        product_id=f"p-{number}",
        category_id="computing.hdd",
        title=f"Seagate Barracuda {number}00GB hard drive",
        specification=Specification([("Brand", "Seagate")]),
    )
    for number in range(1, 4)
]

#: Both connection models: a thread per connection, and the worker pool.
MODES = pytest.mark.parametrize("max_workers", [None, 2], ids=["threads", "pool"])


class Front:
    """A served catalog plus the handles the tests poke at."""

    def __init__(self, max_workers):
        self.registry = MetricsRegistry()
        self.service = CatalogSearchService(CatalogIndex(PRODUCTS))
        self.server = CatalogHTTPServer(
            ("127.0.0.1", 0), self.service, max_workers=max_workers, registry=self.registry
        )
        self.port = self.server.server_address[1]
        self._clients = []
        threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        ).start()

    def connect(self):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        self._clients.append(connection)
        return connection

    def raw(self):
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=5)
        self._clients.append(sock)
        return sock

    def counter(self, name):
        counters = self.registry.snapshot()["counters"]
        return sum(value for key, value in counters.items() if key.startswith(name))

    def close(self):
        for client in self._clients:
            client.close()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


def get(connection, path):
    connection.request("GET", path)
    response = connection.getresponse()
    return response, response.read()


def read_until_closed(sock, limit=5.0):
    """Everything the server sends until it closes; fails if it never does."""
    sock.settimeout(limit)
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


@MODES
class TestKeepAlive:
    @pytest.fixture
    def front(self, max_workers):
        served = Front(max_workers)
        yield served
        served.close()

    def test_one_connection_serves_many_requests(self, front):
        connection = front.connect()
        for _ in range(5):
            response, body = get(connection, "/search?q=seagate")
            assert response.status == 200
            assert response.version == 11
            assert not response.will_close
            assert json.loads(body)["num_results"] == 3
        connection.close()
        assert front.counter("http_connections_accepted_total") == 1

    def test_http10_client_gets_a_closed_connection(self, front):
        with front.raw() as sock:
            sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
            reply = read_until_closed(sock)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"200 OK" in head.splitlines()[0]
        assert b"Connection: close" in head
        assert json.loads(body)["healthy"] is True

    def test_http10_keep_alive_request_is_still_closed(self, front):
        with front.raw() as sock:
            sock.sendall(b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            assert b"Connection: close" in read_until_closed(sock)

    def test_connection_close_header_is_honoured(self, front):
        connection = front.connect()
        connection.request("GET", "/health", headers={"Connection": "close"})
        response = connection.getresponse()
        response.read()
        assert response.will_close
        assert response.getheader("Connection") == "close"

    def test_every_response_is_one_write_with_a_content_length(self, front, monkeypatch):
        """Headers and body leave in one send: two small sends on a
        keep-alive connection meet Nagle + delayed ACK (~40 ms each)."""
        writes = []
        setup = CatalogRequestHandler.setup

        def counting_setup(handler):
            setup(handler)
            write = handler.wfile.write

            def counted(data):
                writes.append(bytes(data))
                return write(data)

            handler.wfile.write = counted

        monkeypatch.setattr(CatalogRequestHandler, "setup", counting_setup)
        connection = front.connect()
        paths = ["/search?q=seagate", "/product/p-1", "/product/p-9", "/stats", "/metrics", "/nope"]
        for path in paths:
            response, body = get(connection, path)
            assert int(response.getheader("Content-Length")) == len(body)
        assert len(writes) == len(paths)
        for data in writes:
            head, _, body = data.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 ") and body

    def test_nodelay_is_set_on_accepted_sockets(self, front, monkeypatch):
        seen = []
        setup = CatalogRequestHandler.setup

        def checking_setup(handler):
            setup(handler)
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(CatalogRequestHandler, "setup", checking_setup)
        get(front.connect(), "/health")
        assert seen and all(seen)

    def test_pipelined_requests_are_all_answered_in_order(self, front):
        """Both requests arrive in one segment; the second sits in the
        read buffer where no selector sees it and must still be served."""
        with front.raw() as sock:
            sock.sendall(
                b"GET /product/p-1 HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /product/p-2 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            reply = read_until_closed(sock)
        assert reply.count(b"HTTP/1.1 200 OK") == 2
        assert reply.index(b'"product_id": "p-1"') < reply.index(b'"product_id": "p-2"')

    def test_idle_connection_is_closed_by_the_timeout(self, front, monkeypatch):
        monkeypatch.setattr(CatalogRequestHandler, "timeout", 0.3)
        with front.raw() as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            started = time.monotonic()
            reply = read_until_closed(sock)
            assert time.monotonic() - started < 3.0
        assert reply.count(b"HTTP/1.1 200 OK") == 1

    def test_stalled_half_request_is_closed_by_the_timeout(self, front, monkeypatch):
        monkeypatch.setattr(CatalogRequestHandler, "timeout", 0.3)
        with front.raw() as sock:
            sock.sendall(b"GET /hea")
            started = time.monotonic()
            read_until_closed(sock)
            assert time.monotonic() - started < 3.0
        # The front is still there for everybody else.
        response, _ = get(front.connect(), "/health")
        assert response.status == 200

    def test_connection_gauge_follows_opens_and_closes(self, front):
        connections = [front.connect() for _ in range(3)]
        for connection in connections:
            get(connection, "/health")
        assert front.registry.snapshot()["gauges"]["http_connections_open"] == 3
        for connection in connections:
            connection.close()
        deadline = time.monotonic() + 5
        while front.registry.snapshot()["gauges"]["http_connections_open"] and (
            time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert front.registry.snapshot()["gauges"]["http_connections_open"] == 0
        assert front.counter("http_connections_accepted_total") == 3


class TestMultiplexedPool:
    """Regression: with keep-alive, a pool that pins a worker to a
    connection for its lifetime starves connection N+1 on N workers."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_more_open_connections_than_workers_are_all_answered(self, workers):
        front = Front(workers)
        try:
            connections = [front.connect() for _ in range(workers + 1)]
            started = time.monotonic()
            for _ in range(4):
                for connection in connections:
                    response, body = get(connection, "/search?q=barracuda")
                    assert response.status == 200 and not response.will_close
                    assert json.loads(body)["num_results"] == 3
            assert time.monotonic() - started < 5.0
            assert front.counter("http_connections_accepted_total") == workers + 1
        finally:
            front.close()

    def test_concurrent_clients_beyond_the_pool_size(self):
        front = Front(2)
        outcomes, errors = [], []

        def client():
            try:
                connection = front.connect()
                for _ in range(10):
                    response, _ = get(connection, "/search?q=hard+drive")
                    outcomes.append(response.status)
            except Exception as error:  # pragma: no cover - diagnostic aid
                errors.append(error)

        try:
            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert outcomes == [200] * 60
        finally:
            front.close()

    def test_server_close_joins_with_parked_connections_open(self):
        front = Front(2)
        try:
            sockets = [front.raw() for _ in range(3)]
            for sock in sockets:
                sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
                assert b"200 OK" in sock.recv(65536)
            pool = list(front.server._pool)
            started = time.monotonic()
            front.server.shutdown()
            front.server.server_close()
            assert time.monotonic() - started < 3.0
            assert not any(thread.is_alive() for thread in pool)
            for sock in sockets:  # the parked connections were closed, not leaked
                assert read_until_closed(sock) == b""
            front.server.server_close()  # idempotent
        finally:
            front.close()

    def test_a_pipelining_flood_does_not_starve_other_connections(self, monkeypatch):
        """Input already buffered is no licence to keep the worker: with
        another connection queued, the flood goes to the back of the line."""
        flood, answered = 60, []

        def slow_stats():
            answered.append(time.monotonic())
            time.sleep(0.01)
            return {}

        front = Front(1)
        monkeypatch.setattr(front.service, "stats", slow_stats)
        try:
            flooder, replies = front.raw(), []
            reader = threading.Thread(target=lambda: replies.append(read_until_closed(flooder)))
            request = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
            closing = b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            flooder.sendall(request * (flood - 1) + closing)
            reader.start()
            while not answered:  # the only worker is on the flood now
                time.sleep(0.001)
            response, _ = get(front.connect(), "/health")
            assert response.status == 200
            assert len(answered) < flood // 2  # old pool: all of them came first
            reader.join(timeout=10)
            assert replies and replies[0].count(b"HTTP/1.1 200 OK") == flood  # none lost
        finally:
            front.close()

    def test_a_stalled_client_does_not_hold_the_only_worker_forever(self, monkeypatch):
        monkeypatch.setattr(CatalogRequestHandler, "timeout", 0.3)
        front = Front(1)
        try:
            with front.raw() as stalled:
                stalled.sendall(b"GET /sea")
                time.sleep(0.05)  # the worker is now blocked reading the rest
                started = time.monotonic()
                response, _ = get(front.connect(), "/health")
                assert response.status == 200
                assert time.monotonic() - started < 3.0
        finally:
            front.close()


@MODES
class TestBoundedRefusal:
    @pytest.fixture
    def front(self, max_workers):
        served = Front(1 if max_workers else None)
        yield served
        served.close()

    def test_raising_endpoint_answers_500_and_the_worker_lives(self, front, monkeypatch):
        def boom():
            raise RuntimeError("index on fire")

        monkeypatch.setattr(front.service, "stats", boom)
        connection = front.connect()
        response, body = get(connection, "/stats")
        assert response.status == 500
        assert response.getheader("Content-Type") == "application/json"
        assert response.will_close
        assert json.loads(body) == {"error": "RuntimeError: index on fire"}
        failed = front.registry.snapshot()["counters"]
        assert failed['http_requests_failed_total{endpoint="/stats"}'] == 1
        # Same (single) worker, next connection: still serving.
        response, _ = get(front.connect(), "/health")
        assert response.status == 200

    def test_a_client_gone_before_the_reply_is_not_a_failed_request(self, front, monkeypatch):
        """The send is outside the endpoint's try: no 500, no second write,
        one latency observation, and the worker lives."""
        writes = []
        setup = CatalogRequestHandler.setup

        def broken_setup(handler):
            setup(handler)

            def gone(data):
                writes.append(data)
                raise BrokenPipeError("client went away")

            if not writes:
                handler.wfile.write = gone

        monkeypatch.setattr(CatalogRequestHandler, "setup", broken_setup)
        monkeypatch.setattr(front.server, "handle_error", lambda *_: None)  # no traceback
        with front.raw() as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            assert read_until_closed(sock) == b""
        assert len(writes) == 1
        assert front.counter("http_requests_failed_total") == 0
        response, _ = get(front.connect(), "/health")
        assert response.status == 200
        timed = front.registry.snapshot()["histograms"]
        assert timed['http_request_seconds{endpoint="/health"}']["count"] == 2

    def test_unsupported_method_is_refused_and_closed(self, front):
        with front.raw() as sock:
            sock.sendall(b"BREW /pot HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = read_until_closed(sock)
        assert b" 501 " in reply.splitlines()[0]
        response, _ = get(front.connect(), "/health")
        assert response.status == 200
