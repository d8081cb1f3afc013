"""The query path: the server child, the load generator, the live writer.

``runtime-serve`` runs as a child process (its own interpreter, its own
GIL), exactly as an operator would start it.  Its stdout/stderr go to a
file: ``serve()`` logs every request, and an undrained pipe stalls the
server after a few hundred requests.

The load generator holds one ``http.client`` connection per client
thread, reuses it whenever the response allows and re-opens (and counts)
it when the server closes — so a keep-alive front shows up as
``connects_per_request`` falling from 1.0 towards 0.

All clocks here are ``time.monotonic()`` (``CLOCK_MONOTONIC``), which is
comparable across the bench, writer and server processes.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench import SRC
from bench.checks import SAMPLE_EVERY
from bench.inputs import NUM_SHARDS, Inputs, Request
from bench.stats import peak_rss_mb
from bench.tracing import Tracer
from repro.model.offers import Offer
from repro.runtime import SynthesisEngine

__all__ = [
    "CLIENTS",
    "OPEN_LOOP_RATE",
    "COMMITS_PER_SECOND",
    "ServerChild",
    "HttpClient",
    "ClientLog",
    "CommitRecord",
    "closed_loop_window",
    "open_loop_window",
    "LiveWriter",
    "first_visible",
]

#: Client threads of both serve workloads (= cores of the sizing box).
CLIENTS = 2
#: Requests per second ``serve_mixed`` sends in total, whatever comes back.
OPEN_LOOP_RATE = 300.0
#: Live commits per second the ``serve_mixed`` writer is scheduled at.
COMMITS_PER_SECOND = 4.0
#: Seconds a request may take before it counts as failed.
REQUEST_TIMEOUT = 5.0
#: An open-loop send this late is abandoned and counted as failed.
LATE_LIMIT = 1.0

_SNAPSHOT = re.compile(rb'"snapshot_commit_count": (\d+)')
_LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")


class ServerChild:
    """One ``runtime-serve`` child process over a store file."""

    def __init__(self, store_path: str, log_path: str, extra_args: Sequence[str] = ()) -> None:
        self.store_path = store_path
        self.log_path = log_path
        self.extra_args = list(extra_args)
        self.port = 0
        self._process: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> None:
        """Spawn the server and wait until it reports its listening port.

        The CLI builds the index before it binds (the priming rebuild
        of ``from_store_path``), so the wait covers index priming too.
        """
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(SRC)
        command = [
            sys.executable,
            "-u",
            "-m",
            "repro.experiments.cli",
            "runtime-serve",
            "--store-path",
            self.store_path,
            "--port",
            "0",
            "--threads",
            str(CLIENTS),
            *self.extra_args,
        ]
        with open(self.log_path, "w", encoding="utf-8") as log:
            self._process = subprocess.Popen(  # noqa: S603 - our own interpreter
                command, stdout=log, stderr=subprocess.STDOUT, env=environment
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as log:
                match = _LISTENING.search(log.read())
            if match:
                self.port = int(match.group(1))
                return
            if self._process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"runtime-serve did not start; see {self.log_path}")

    @property
    def pid(self) -> int:
        """Process id of the running child."""
        assert self._process is not None
        return self._process.pid

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM`` so far, in MiB."""
        return peak_rss_mb(self.pid)

    def stop(self) -> None:
        """Terminate the child and wait until it has ended."""
        process, self._process = self._process, None
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


class HttpClient:
    """One persistent connection, re-opened (and counted) when closed."""

    def __init__(self, port: int, tracer: Tracer) -> None:
        self._port = port
        self._tracer = tracer
        self._connection: Optional[http.client.HTTPConnection] = None
        self.connects = 0

    def _open(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection("127.0.0.1", self._port, timeout=REQUEST_TIMEOUT)
        with self._tracer.span("http.connect"):
            connection.connect()
        self.connects += 1
        return connection

    def get(self, path: str) -> Tuple[int, bytes]:
        """GET ``path``; returns ``(status, body)`` or raises ``OSError``.

        A request that fails on a *reused* connection is retried once on
        a fresh one: the server may have closed an idle keep-alive
        connection, which is not the request's fault.
        """
        reused = self._connection is not None
        try:
            return self._exchange(path)
        except OSError:
            self.close()
            if not reused:
                raise
        return self._exchange(path)

    def _exchange(self, path: str) -> Tuple[int, bytes]:
        if self._connection is None:
            self._connection = self._open()
        try:
            with self._tracer.span("http.exchange"):
                self._connection.request("GET", path)
                response = self._connection.getresponse()
                body = response.read()
        except http.client.HTTPException as error:
            raise OSError(str(error)) from error
        if response.will_close:
            self.close()
        return response.status, body

    def close(self) -> None:
        """Drop the connection (the next request re-opens it)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None


@dataclass
class ClientLog:
    """What one client thread (or several, merged) observed."""

    attempted: int = 0
    failed: int = 0
    connects: int = 0
    #: Per completed request: monotonic completion time, latency seconds
    #: (from send, or from due time in an open loop), snapshot served,
    #: and whether spans were being recorded.
    completed: List[Tuple[float, float, int, bool]] = field(default_factory=list)
    #: Open loop: how late each send started, in seconds.
    lateness: List[float] = field(default_factory=list)
    #: Every fiftieth response, kept for re-execution.
    samples: List[Tuple[Request, int, Dict[str, object]]] = field(default_factory=list)

    @property
    def latencies(self) -> List[float]:
        """Latency (seconds) of every completed request."""
        return [row[1] for row in self.completed]


def _issue(
    client: HttpClient, request: Request, timed_from: float, log: ClientLog, tracer: Tracer
) -> None:
    """Send one request and record its outcome in ``log``."""
    log.attempted += 1
    traced = tracer.enabled
    try:
        with tracer.span("http.request", op=log.attempted):
            status, body = client.get(request.path)
    except OSError:
        log.failed += 1
        return
    ended = time.monotonic()
    match = _SNAPSHOT.search(body)
    if status != 200 or match is None:
        log.failed += 1
        return
    snapshot = int(match.group(1))
    log.completed.append((ended, ended - timed_from, snapshot, traced))
    if log.attempted % SAMPLE_EVERY == 0:
        log.samples.append((request, snapshot, json.loads(body)))


def _run_clients(
    targets: Sequence[threading.Thread], monitor: Optional[Callable[[], None]]
) -> None:
    for thread in targets:
        thread.start()
    if monitor is not None:
        monitor()
    for thread in targets:
        thread.join()


def _merged(logs: Sequence[ClientLog]) -> ClientLog:
    """All clients' observations in one log, in completion order."""
    merged = ClientLog()
    for log in logs:
        merged.attempted += log.attempted
        merged.failed += log.failed
        merged.connects += log.connects
        merged.completed.extend(log.completed)
        merged.lateness.extend(log.lateness)
        merged.samples.extend(log.samples)
    merged.completed.sort()
    return merged


def closed_loop_window(
    port: int,
    plans: Sequence[Sequence[Request]],
    seconds: float,
    tracer: Tracer,
    offset: int = 0,
    monitor: Optional[Callable[[], None]] = None,
) -> ClientLog:
    """Each client sends its next request as soon as the last one returned.

    ``offset`` is where in its plan every client starts, so a window
    after the warm-up continues the request sequence instead of
    replaying it.  ``monitor`` runs on the calling thread meanwhile.
    """
    logs = [ClientLog() for _ in plans]
    deadline = time.monotonic() + seconds

    def loop(plan: Sequence[Request], log: ClientLog) -> None:
        client = HttpClient(port, tracer)
        position = offset
        while time.monotonic() < deadline:
            _issue(client, plan[position % len(plan)], time.monotonic(), log, tracer)
            position += 1
        client.close()
        log.connects = client.connects

    _run_clients(
        [threading.Thread(target=loop, args=(plan, log)) for plan, log in zip(plans, logs)],
        monitor,
    )
    return _merged(logs)


def open_loop_window(
    port: int,
    plans: Sequence[Sequence[Request]],
    start_at: float,
    seconds: float,
    rate: float,
    tracer: Tracer,
    monitor: Optional[Callable[[], None]] = None,
) -> ClientLog:
    """Send on a fixed schedule, whatever comes back.

    Client ``i`` of ``n`` owns every ``n``-th slot of the ``rate``
    schedule.  Each request is timed from when it was *due*, so a stall
    charges the requests queued behind it; a send more than a second
    late is abandoned and counted as failed.  ``monitor`` runs on the
    calling thread while the clients send.
    """
    logs = [ClientLog() for _ in plans]
    period = 1.0 / rate
    slots = int(seconds * rate)

    def loop(offset: int, plan: Sequence[Request], log: ClientLog) -> None:
        client = HttpClient(port, tracer)
        for slot in range(offset, slots, len(plans)):
            due = start_at + slot * period
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            late = max(0.0, time.monotonic() - due)
            log.lateness.append(late)
            if late > LATE_LIMIT:
                log.attempted += 1
                log.failed += 1
                continue
            _issue(client, plan[(slot // len(plans)) % len(plan)], due, log, tracer)
        client.close()
        log.connects = client.connects

    _run_clients(
        [
            threading.Thread(target=loop, args=(offset, plan, log))
            for offset, (plan, log) in enumerate(zip(plans, logs))
        ],
        monitor,
    )
    return _merged(logs)


# -- the live writer -----------------------------------------------------------


@dataclass
class CommitRecord:
    """One scheduled live commit, as the writer process timed it."""

    #: Position of the batch in the live stream.
    batch: int
    #: Store commit counter after the batch (what responses report).
    commit_count: int
    #: Monotonic time ``ingest`` returned.
    done_at: float
    #: Wall seconds of the ``ingest(batch)`` call.
    seconds: float
    ok: bool


def _writer_main(
    channel: "multiprocessing.connection.Connection",
    inputs: Inputs,
    store_path: str,
    batches: List[List[Offer]],
) -> None:
    """Writer process: resume the store, then ingest on the schedule."""
    engine = SynthesisEngine(
        num_shards=NUM_SHARDS,
        executor="serial",
        store="sqlite",
        store_path=store_path,
        **inputs.engine_kwargs(),
    )
    channel.send(engine.store.commit_count)
    start_at, interval = channel.recv()
    records: List[CommitRecord] = []
    for position, batch in enumerate(batches):
        delay = start_at + (position + 1) * interval - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        started = time.monotonic()
        ok = True
        try:
            engine.ingest(batch)
        except Exception:  # noqa: BLE001 - a raised ingest is a counted failure
            traceback.print_exc(file=sys.stderr)
            ok = False
        done = time.monotonic()
        records.append(
            CommitRecord(position, engine.store.commit_count, done, done - started, ok)
        )
    engine.close()
    # Closing commits once more (an empty commit): report the counter so
    # a response served from it is recognised.
    channel.send((records, engine.store.commit_count))


class LiveWriter:
    """A forked writer process ingesting live batches on a schedule.

    Forked (not spawned) so it inherits the learned components instead
    of repeating set-up; it must therefore be started while the bench
    process has no other threads, i.e. before the client threads.
    """

    def __init__(self, inputs: Inputs, store_path: str, batches: List[List[Offer]]) -> None:
        context = multiprocessing.get_context("fork")
        self._channel, child_channel = context.Pipe()
        self._process = context.Process(
            target=_writer_main,
            args=(child_channel, inputs, store_path, batches),
            daemon=True,
        )
        self._process.start()
        child_channel.close()
        if not self._channel.poll(60.0):
            self.stop()
            raise RuntimeError("live writer did not open the store")
        #: Commit counter of the store as the writer found it.
        self.base_commit_count: int = self._channel.recv()

    def schedule(self, start_at: float, interval: float) -> None:
        """Tell the writer when the window starts and how often to commit."""
        self._channel.send((start_at, interval))

    def finish(self, timeout: float = 60.0) -> Tuple[List[CommitRecord], int]:
        """Collect the commit records and the store's final commit counter.

        Waits for the writer process to end.
        """
        try:
            if not self._channel.poll(timeout):
                raise RuntimeError("live writer did not finish")
            result = self._channel.recv()
            self._process.join(timeout=10)
            return result
        finally:
            self.stop()

    def stop(self) -> None:
        """Make sure the writer process has ended (kill it if still running)."""
        if self._process.is_alive():
            self._process.kill()
        self._process.join()
        self._channel.close()


def first_visible(log: ClientLog, commit_count: int) -> Optional[float]:
    """Monotonic time of the first response served from ``commit_count`` or later."""
    for ended, _, snapshot, _ in log.completed:
        if snapshot >= commit_count:
            return ended
    return None
