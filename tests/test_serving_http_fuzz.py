"""Fuzzing the HTTP front: hostile bytes degrade into bounded, counted refusals.

Hypothesis drives raw sockets against one server per connection model
(a thread per connection, and the worker pool) with (a) raw bytes,
(b) well-formed heads whose method / target / version / header lines /
line endings are mutated, (c) percent-encodings and oversized ``k`` /
``attr`` / ``category`` values, (d) a valid request followed by
pipelined garbage and (e) the same bytes delivered in arbitrary splits.
Whatever arrives, the only outcomes are complete responses (a status
line, a status from ``ALLOWED``, a ``Content-Length`` the body matches)
or a closed connection: never a 500, an ``http_requests_failed_total``
increment, a reply without a status line, a worker that stops answering
a fresh ``/health``, or a connection still counted open once its socket
is gone.  The last class pins the memoised target parse as invisible.
"""

import re
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_serving_http_front import Front

ALLOWED = {200, 400, 404, 414, 431, 501, 503, 505}

VALID = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"


class Fuzzed(Front):
    """A served catalog (three Seagate drives), raw exchanges and what must hold after each."""

    def exchange(self, chunks):
        """Send ``chunks`` one ``send`` each, half-close, and read until the server closes."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            received = []
            try:
                for chunk in chunks:
                    sock.sendall(chunk)
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # refused and closed before everything was sent
            try:
                while True:
                    data = sock.recv(65536)  # socket.timeout here = the server hangs
                    if not data:
                        break
                    received.append(data)
            except ConnectionError:
                pass  # closed with our bytes unread: a reset instead of an end of stream
        return b"".join(received)

    def gauge(self, name):
        return self.registry.snapshot()["gauges"].get(name, 0)

    def check(self, chunks):
        """One fuzz case: every reply is complete and allowed, and the front is unharmed."""
        statuses = statuses_of(self.exchange(chunks))
        assert set(statuses) <= ALLOWED, statuses
        assert self.counter("http_requests_failed_total") == 0
        assert statuses_of(self.exchange([VALID])) == [200]  # every worker still answers
        deadline = time.monotonic() + 5
        while self.gauge("http_connections_open") and time.monotonic() < deadline:
            time.sleep(0.0005)
        assert self.gauge("http_connections_open") == 0
        return statuses


def statuses_of(reply):
    """The status of every response in ``reply``; fails on anything but whole responses."""
    statuses = []
    while reply:
        head, separator, rest = reply.partition(b"\r\n\r\n")
        assert separator, f"no complete response head in {reply[:80]!r}"
        status_line, *lines = head.split(b"\r\n")
        match = re.fullmatch(rb"HTTP/1\.[01] (\d{3}) [ -~]+", status_line)
        assert match, f"no status line: {status_line[:80]!r}"
        headers = dict(line.lower().split(b": ", 1) for line in lines)
        length = int(headers[b"content-length"])
        assert len(rest) >= length, f"body shorter than its Content-Length: {reply[:80]!r}"
        statuses.append(int(match[1]))
        reply = rest[length:]
    return statuses


@pytest.fixture(scope="module", params=[None, 2], ids=["threads", "pool"])
def front(request):
    served = Fuzzed(request.param)
    yield served
    served.close()


FRAGMENTS = st.sampled_from(
    [
        b"GET ",
        b"GET",
        b"POST ",
        b"/health",
        b"/search?q=drive",
        b" ",
        b" HTTP/1.1",
        b" HTTP/1.0",
        b" HTTP/2.0",
        b"HTTP/",
        b"\r\n",
        b"\n",
        b"\r",
        b"\r\n\r\n",
        b"Host: x",
        b"Content-Length: ",
        b"Connection: close",
        b":",
        b"\x00",
        b"\xff\xfe",
        b"%",
        b"5",
    ]
)
GARBAGE = st.lists(FRAGMENTS | st.binary(max_size=12), max_size=24).map(b"".join)

VERSIONS = [b"HTTP/1.1", b"HTTP/1.1", b"HTTP/1.0"]
GOOD_TARGETS = st.sampled_from(
    [
        b"/health",
        b"/search?q=drive&k=3",
        b"/search?q=seagate&attr=Brand%3DSeagate",
        b"/product/p-1",
        b"/stats",
        b"http://x/health",
    ]
)
BAD = {
    "method": st.sampled_from([b"POST", b"HEAD", b"BREW", b"get", b"G ET", b"", b"GET\t"]),
    "target": st.sampled_from(
        [
            b"/search",
            b"/search?q=%",
            b"/product/",
            b"/nope",
            b"*",
            b"",
            b"//[",
            b"/health?\x00",
            b"/h\xc3\xa9alth",
            b"/health /stats",
        ]
    )
    | st.binary(min_size=1, max_size=40).map(lambda raw: b"/" + raw),
    "version": st.sampled_from(
        [
            b"HTTP/2.0",
            b"HTTP/3",
            b"HTTP/0.9",
            b"HTTP/1.9",
            b"HTTP/11",
            b"HTTP/1.1.1",
            b"HTTP/-1.1",
            b"http/1.1",
            b"HTTP/1.1 ",
            b"HTTP/",
            b"",
        ]
    ),
    "header": st.sampled_from(
        [
            b"Content-Length: 5",
            b"Content-Length: -1",
            b"Content-Length: five",
            b"Content-Length : 5",
            b"content-length:5",
            b"Transfer-Encoding: chunked",
            b"X-No-Colon",
            b" folded: x",
            b": nameless",
            b"X-Ctl: a\x00b",
            b"X-Long: " + b"a" * 5000,
        ]
    )
    | st.binary(max_size=30),
    "ending": st.sampled_from([b"\n", b"\r", b"\r\r\n", b""]),
}
GOOD_HEADER_LINES = st.sampled_from(
    [
        b"Host: x",
        b"Connection: close",
        b"Connection: keep-alive",
        b"connection:CLOSE",
        b"Content-Length: 0",
        b"Expect: 100-continue",
        b"Accept-Encoding: identity",
    ]
)


@st.composite
def mutated_heads(draw):
    """A request head built the right way, up to two kinds of its parts replaced by wrong ones."""
    wrong = draw(st.sets(st.sampled_from(sorted(BAD)), max_size=2))
    method = draw(BAD["method"]) if "method" in wrong else b"GET"
    target = draw(BAD["target"] if "target" in wrong else GOOD_TARGETS)
    version = draw(BAD["version"] if "version" in wrong else st.sampled_from(VERSIONS))
    header_lines = GOOD_HEADER_LINES | BAD["header"] if "header" in wrong else GOOD_HEADER_LINES
    endings = st.just(b"\r\n") | BAD["ending"] if "ending" in wrong else st.just(b"\r\n")
    lines = [b" ".join([method, target, version])] + draw(st.lists(header_lines, max_size=5))
    head = b"".join(line + draw(endings) for line in lines) + draw(endings)
    return head + draw(st.sampled_from([b"", b"", b"hello", VALID]))


def percent_encoded(raw):
    return b"".join(b"%%%02X" % byte for byte in raw)


VALUES = (
    st.binary(max_size=12).map(percent_encoded)
    | st.sampled_from([b"%", b"%zz", b"%c3%28", b"%00", b"+", b"a=b", b"=", b"a%3Db", b"&", b"#"])
    | st.integers(-(10**30), 10**30).map(lambda number: b"%d" % number)
    | st.sampled_from([1_000, 70_000]).map(lambda size: b"v" * size)
)


@st.composite
def encoded_targets(draw):
    """``/search`` and ``/product`` targets with hostile parameter values."""
    if draw(st.booleans()):
        return b"/product/" + draw(VALUES)
    names = st.sampled_from([b"q", b"k", b"attr", b"category", b"nope"])
    pairs = draw(st.lists(st.tuples(names, VALUES), max_size=5))
    return b"/search?q=drive&" + b"&".join(name + b"=" + value for name, value in pairs)


def split_at(payload, cuts):
    edges = sorted({0, len(payload), *(cut % (len(payload) + 1) for cut in cuts)})
    return [payload[start:end] for start, end in zip(edges, edges[1:])]


class TestFuzzedBytes:
    @settings(max_examples=120, deadline=None)
    @given(payload=GARBAGE)
    def test_raw_bytes(self, front, payload):
        front.check([payload])

    @settings(max_examples=200, deadline=None)
    @given(payload=mutated_heads())
    def test_mutated_heads(self, front, payload):
        front.check([payload])

    @settings(max_examples=100, deadline=None)
    @given(target=encoded_targets())
    def test_percent_encodings_and_oversized_values(self, front, target):
        statuses = front.check([b"GET " + target + b" HTTP/1.1\r\nHost: x\r\n\r\n"])
        assert len(statuses) <= 1

    @settings(max_examples=120, deadline=None)
    @given(garbage=GARBAGE | mutated_heads())
    def test_a_valid_request_then_pipelined_garbage(self, front, garbage):
        statuses = front.check([VALID + garbage])
        assert statuses[:1] == [200]  # the valid request is answered whatever follows it

    @settings(max_examples=120, deadline=None)
    @given(
        payload=st.builds(bytes.__add__, st.sampled_from([b"", VALID]), mutated_heads() | GARBAGE),
        cuts=st.lists(st.integers(min_value=0), max_size=6),
    )
    def test_the_same_bytes_in_arbitrary_splits(self, front, payload, cuts):
        whole = front.check([payload])
        assert front.check(split_at(payload, cuts)) == whole


class TestTheTargetMemoIsInvisible:
    """Parsing a target once changes nothing a client or the fleet can observe."""

    @pytest.fixture(scope="class")
    def front(self):
        # /stats carries the process's memory, which moves between any two
        # requests; held still here so every other byte can be compared.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.serving.http.process_memory", lambda: {"resident_bytes": 1})
            served = Fuzzed(2)
            yield served
            served.close()

    @staticmethod
    def undated(reply):
        return re.sub(rb"\r\nDate: [^\r]*", b"", reply)

    @settings(max_examples=100, deadline=None)
    @given(target=encoded_targets() | GOOD_TARGETS | BAD["target"])
    def test_responses_are_byte_equal_with_the_cache_cleared(self, front, target):
        from repro.serving.http import _parse_target

        request = b"GET " + target + b" HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        replies = []
        for clear in (True, False, False, True):
            if clear:
                _parse_target.cache_clear()
            replies.append(self.undated(front.exchange([request])))
        assert len(set(replies)) == 1, replies

    def test_attribute_filters_are_fresh_objects(self, front, monkeypatch):
        seen = []
        search_body = front.server.fleet.search_body

        def poisoning(query, **arguments):
            body = search_body(query, **arguments)
            seen.append(dict(arguments["attributes"]))
            arguments["attributes"]["Brand"] = "poisoned"
            return body

        monkeypatch.setattr(front.server.fleet, "search_body", poisoning)
        request = b"GET /search?q=seagate&attr=Brand%3DSeagate HTTP/1.1\r\nHost: x\r\n\r\n"
        replies = [front.exchange([request]) for _ in range(3)]
        assert seen == [{"Brand": "Seagate"}] * 3
        assert all(b'"num_results": 3' in reply for reply in replies)

    def test_the_memo_is_bounded(self):
        from repro.serving.http import _parse_target

        for number in range(5000):
            _parse_target(f"/search?q=drive+{number}")
            assert _parse_target.cache_info().currsize <= 1024
        assert _parse_target.cache_info().maxsize == 1024
