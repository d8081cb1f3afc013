"""Connection-level tests for the keep-alive HTTP front.

Everything here talks to the server over raw sockets or ``http.client``
connections (``urllib`` sends ``Connection: close`` and would hide the
connection lifecycle): persistent connections, single-write responses,
the multiplexed worker pool (idle connections and half-sent requests
hold no worker), and the bounded refusals — a 500 for a raising
endpoint, one deadline for a request head however slowly it arrives, a
counted JSON error for every head the reader does not accept.
"""

import http.client
import json
import re
import os
import socket
import tempfile
import threading
import time

import pytest

from conftest import write_store
from repro.model.attributes import Specification
from repro.model.products import Product
from repro.obs import MetricsRegistry
from repro.serving import CatalogHTTPServer, ServingFleet
from repro.serving.http import CatalogRequestHandler, serve

PRODUCTS = [
    Product(
        product_id=f"p-{number}",
        category_id="computing.hdd",
        title=f"Seagate Barracuda {number}00GB hard drive",
        specification=Specification([("Brand", "Seagate")]),
    )
    for number in range(1, 4)
]

#: Both ends of the worker pool: one worker multiplexing every
#: connection, and the size the server picks (two per replica).
MODES = pytest.mark.parametrize("max_workers", [1, None], ids=["one-worker", "default"])


def catalog_fleet(directory, replicas=1):
    """A fleet of ``replicas`` over a new store file in ``directory`` holding ``PRODUCTS``."""
    path = write_store(os.path.join(directory, "catalog.sqlite3"), PRODUCTS)
    return ServingFleet.from_store_path(path, num_replicas=replicas)


class Front:
    """A served catalog plus the handles the tests poke at."""

    def __init__(self, max_workers=2, log_requests=False):
        self.registry = MetricsRegistry()
        self._directory = tempfile.TemporaryDirectory()
        self.fleet = catalog_fleet(self._directory.name)
        self.server = CatalogHTTPServer(
            ("127.0.0.1", 0),
            self.fleet,
            log_requests=log_requests,
            max_workers=max_workers,
            registry=self.registry,
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
        self.fleet.close()
        self._directory.cleanup()


def get(connection, path):
    connection.request("GET", path)
    response = connection.getresponse()
    return response, response.read()


def read_until_closed(sock, limit=5.0):
    """Everything the server sends until it closes; fails if it never does."""
    sock.settimeout(limit)
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:  # closed with bytes of ours unread
            chunk = b""
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
        write = CatalogRequestHandler._write

        def counted(handler, data):
            writes.append(bytes(data))
            return write(handler, data)

        monkeypatch.setattr(CatalogRequestHandler, "_write", counted)
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
        init = CatalogRequestHandler.__init__

        def checking_init(handler, *args):
            init(handler, *args)
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(CatalogRequestHandler, "__init__", checking_init)
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

    def test_a_dribbled_head_has_one_deadline_from_its_first_byte(self, front, monkeypatch):
        """Regression: every byte used to re-arm the timeout, so a client
        sending one byte per 0.4 s was served for ever (and got a 200)."""
        monkeypatch.setattr(CatalogRequestHandler, "timeout", 0.3)
        with front.raw() as sock:
            started = time.monotonic()
            try:
                for byte in b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n":
                    sock.sendall(bytes([byte]))
                    time.sleep(0.1)
            except OSError:
                pass  # closed on us mid-head, as it should be
            reply = read_until_closed(sock)
            elapsed = time.monotonic() - started
        assert reply == b""  # unanswered
        assert 0.3 <= elapsed < 1.5  # the pool's sweep runs every 0.5 s

    def test_a_response_larger_than_the_socket_buffer_arrives_whole(self, front, monkeypatch):
        """The one send is not the only one when the client reads slowly."""
        monkeypatch.setattr(front.fleet, "stats", lambda: {"padding": "x" * 8_000_000})
        with front.raw() as sock:
            sock.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            time.sleep(0.2)  # the server has filled the socket buffers by now
            reply = read_until_closed(sock)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"200 OK" in head.splitlines()[0]
        assert len(body) > 8_000_000 and json.loads(body)["padding"]
        response, _ = get(front.connect(), "/health")
        assert response.status == 200

    def test_the_stdlib_header_parser_is_not_on_the_request_path(self, front, monkeypatch):
        import email.feedparser

        def entered(*_):
            raise AssertionError("email.feedparser entered on the request path")

        monkeypatch.setattr(email.feedparser.FeedParser, "feed", entered)
        with front.raw() as sock:
            for _ in range(100):
                sock.sendall(b"GET /search?q=seagate HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
                reply = b""
                while b'"num_results": 3' not in reply:
                    chunk = sock.recv(65536)
                    assert chunk, reply
                    reply += chunk
                assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert front.counter("http_connections_accepted_total") == 1

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

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_the_default_pool_has_two_workers_per_replica(self, tmp_path, replicas):
        fleet = catalog_fleet(tmp_path, replicas)
        server = CatalogHTTPServer(("127.0.0.1", 0), fleet, registry=MetricsRegistry())
        try:
            assert server.max_workers == 2 * replicas
            assert len(server._pool) == 2 * replicas + 1  # the workers and the selector
        finally:
            server.server_close()
            fleet.close()

    @pytest.mark.parametrize(
        "replicas,max_workers,workers", [(1, None, 2), (3, None, 6), (3, 2, 2)]
    )
    def test_serve_reports_the_pool_the_server_sized(
        self, tmp_path, monkeypatch, capsys, replicas, max_workers, workers
    ):
        """Without ``--threads`` the server sizes the pool; with it, the value given."""

        def interrupted(server, poll_interval=0.5):
            raise KeyboardInterrupt

        monkeypatch.setattr(CatalogHTTPServer, "serve_forever", interrupted)
        fleet = catalog_fleet(tmp_path, replicas)
        serve(fleet, port=0, max_workers=max_workers, registry=MetricsRegistry())
        out = capsys.readouterr().out
        assert f"({replicas} replica(s), {workers} workers)" in out
        assert "shutting down" in out
        assert fleet._reader.closed  # serve closed the fleet it served

    def test_a_pool_without_workers_is_refused(self, tmp_path):
        with catalog_fleet(tmp_path) as fleet, pytest.raises(ValueError, match="max_workers"):
            CatalogHTTPServer(("127.0.0.1", 0), fleet, max_workers=0)

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
        monkeypatch.setattr(front.fleet, "stats", slow_stats)
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

    def test_stalled_heads_hold_no_worker(self):
        """Regression: two sockets that sent ``GET /hea`` and stopped held both
        workers of a pool of two until the timeout (4.8 s for the third client)."""
        front = Front(2)
        try:
            stalled = [front.raw() for _ in range(2)]
            for sock in stalled:
                sock.sendall(b"GET /hea")
            time.sleep(0.05)  # both half-requests were read and parked again
            started = time.monotonic()
            response, _ = get(front.connect(), "/health")
            assert response.status == 200
            assert time.monotonic() - started < 0.5
            for sock in stalled:  # and a head that arrives in two pieces is still a request
                sock.sendall(b"lth HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                assert read_until_closed(sock).startswith(b"HTTP/1.1 200 OK\r\n")
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
        served = Front(max_workers)
        yield served
        served.close()

    def test_raising_endpoint_answers_500_and_the_worker_lives(self, front, monkeypatch):
        def boom():
            raise RuntimeError("index on fire")

        monkeypatch.setattr(front.fleet, "stats", boom)
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
        write = CatalogRequestHandler._write

        def gone_once(handler, data):
            writes.append(data)
            if len(writes) > 1:
                return write(handler, data)
            raise BrokenPipeError("client went away")

        monkeypatch.setattr(CatalogRequestHandler, "_write", gone_once)
        monkeypatch.setattr(front.server, "handle_error", lambda *_: None)  # no traceback
        with front.raw() as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            assert read_until_closed(sock) == b""
        assert len(writes) == 1
        assert front.counter("http_requests_failed_total") == 0
        response, _ = get(front.connect(), "/health")
        assert response.status == 200 and len(writes) == 2
        timed = front.registry.snapshot()["histograms"]
        assert timed['http_request_seconds{endpoint="/health"}']["count"] == 2

    def test_unsupported_method_is_refused_and_closed(self, front):
        with front.raw() as sock:
            sock.sendall(b"BREW /pot HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = read_until_closed(sock)
        assert b" 501 " in reply.splitlines()[0]
        response, _ = get(front.connect(), "/health")
        assert response.status == 200

    @pytest.mark.parametrize(
        "payload, status_line, reason, fragment",
        [
            (b"BREW /pot HTTP/1.1\r\n\r\n", b"501 Not Implemented", "unsupported_method", "BREW"),
            (b"GET / HTTP/2.0\r\n\r\n", b"505 HTTP Version Not Supported", "bad_version", "1.x"),
            (b"GET /health\r\n\r\n", b"400 Bad Request", "bad_request_line", "GET /health"),
            (b"\xff\xfe\x00 garbage\r\n\r\n", b"400 Bad Request", "bad_request_line", "garbage"),
            (b"GET /a  HTTP/1.1\r\n\r\n", b"400 Bad Request", "bad_request_line", "/a"),
            (
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                b"431 Request Header Fields Too Large",
                "head_too_large",
                "65536",
            ),
            (
                b"GET / HTTP/1.1\r\n" + b"X-Filler: 1\r\n" * 101 + b"\r\n",
                b"431 Request Header Fields Too Large",
                "head_too_large",
                "100 header lines",
            ),
            (b"GET / HTTP/1.1\r\nNo colon\r\n\r\n", b"400 Bad Request", "bad_header", "header"),
            (b"GET / HTTP/1.1\r\n folded: x\r\n\r\n", b"400 Bad Request", "bad_header", "header"),
            (
                b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
                b"400 Bad Request",
                "body_not_accepted",
                "no request bodies",
            ),
        ],
        ids=["method", "http2", "no-version", "garbage", "two-spaces", "70k-target"]
        + ["101-headers", "no-colon", "folded", "chunked"],
    )
    def test_a_refusal_is_one_counted_json_error(
        self, front, payload, status_line, reason, fragment
    ):
        """Regression: these were HTML pages (two of them without a status
        line), echoed client bytes into the reason phrase and were counted
        nowhere."""
        with front.raw() as sock:
            sock.sendall(payload)
            reply = read_until_closed(sock)
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 " + status_line  # a fixed phrase: no client bytes
        assert b"Content-Type: application/json" in lines
        assert b"Connection: close" in lines
        assert b"Content-Length: %d" % len(body) in lines
        assert fragment in json.loads(body)["error"]
        snapshot = front.registry.snapshot()
        refused = {key: n for key, n in snapshot["counters"].items() if "refused" in key}
        assert refused == {f'http_requests_refused_total{{reason="{reason}"}}': 1}
        assert snapshot["histograms"]['http_request_seconds{endpoint="other"}']["count"] == 1
        assert front.counter("http_requests_failed_total") == 0

    def test_a_request_body_is_refused_not_read_as_the_next_request(self, front):
        """Regression: the body stayed in the stream, so ``hello`` + the next
        request line became a request with method ``helloGET``."""
        with front.raw() as sock:
            sock.sendall(
                b"GET /health HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
                b"GET /health HTTP/1.1\r\n\r\n"
            )
            reply = read_until_closed(sock)
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert front.counter("http_requests_refused_total") == 1
        with front.raw() as sock:  # an explicit empty body is not a body
            sock.sendall(b"GET /health HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            assert read_until_closed(sock).startswith(b"HTTP/1.1 200 OK\r\n")

    def test_a_target_urlparse_rejects_is_a_400_and_the_connection_lives(self, front):
        connection = front.connect()
        response, body = get(connection, "//[")
        assert response.status == 400 and not response.will_close
        assert "malformed request target" in json.loads(body)["error"]
        response, _ = get(connection, "/health")
        assert response.status == 200


class TestAccessLog:
    """``log_requests=True`` (the CLI's default): one line per request, stdlib format."""

    LINE = re.compile(
        r'127\.0\.0\.1 - - \[\d\d/[A-Z][a-z]{2}/\d{4} \d\d:\d\d:\d\d\] "(.*)" (\d{3}) (\d+)'
    )

    @MODES
    def test_one_line_per_request_with_control_characters_escaped(self, max_workers, capsys):
        front = Front(max_workers, log_requests=True)
        try:
            with front.raw() as sock:
                sock.sendall(b"GET /health HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n")
                sock.sendall(b"GET /\x1b[31m\\ \x7f\xe9\r\nX: y\r\n\r\n")
                replies = read_until_closed(sock)
        finally:
            front.close()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3, lines
        logged = [self.LINE.fullmatch(line).groups() for line in lines]
        bodies = [reply.partition(b"\r\n\r\n")[2] for reply in replies.split(b"HTTP/1.1 ")[1:]]
        sizes = [str(len(body)) for body in bodies]
        assert logged == [
            ("GET /health HTTP/1.1", "200", sizes[0]),
            ("GET /nope HTTP/1.1", "404", sizes[1]),
            ("GET /\\x1b[31m\\\\ \\x7f\xe9", "400", sizes[2]),
        ]
