"""True multi-process cluster nodes over the shared WAL store.

:class:`~repro.runtime.cluster.MultiNodeEngine` runs its nodes inside
the coordinator's process, one after the other.  This module is the
transport that removes that wall: :class:`MultiProcessEngine` is the
same :class:`~repro.runtime.cluster.ClusterEngine` coordinator with
every node in its **own OS process** (:class:`ProcessNode` is the
coordinator-side handle): each node opens its own
:class:`~repro.runtime.store.sqlite.SqliteCatalogStore` connection and
mirror over the shared WAL file, and nothing on the ingest critical
path crosses a shared lock — real multi-core scaling, bounded only by
the coordinator's routing work.

**Starting a node.**  A node process is a fresh interpreter: its launch
fork-execs ``sys.executable`` with a boot line that sets this process's
``sys.path`` and calls :func:`repro.runtime.node.serve` on the node's
pipe end.  It maps none of the coordinator's heap and never re-imports
the caller's ``__main__`` (a script needs no ``__main__`` guard), yet it
is a :mod:`multiprocessing` child: ``active_children()`` lists it and
``join`` reaps it.  The constructor launches every node first, pickles
the engine components once — the extractor over an empty page map —
sends the same bytes to each node, and returns only after every node
answered ``ready`` (store opened, engine built) — so the boot is paid in
parallel and before the first ingest.
:meth:`~repro.runtime.cluster.ClusterEngine.add_node` boots its node
the same way.  A node that dies or fails before ``ready`` fails the
call at once with :class:`~repro.runtime.cluster.NodeDeadError`.

The coordinator and its nodes speak a small message protocol over pipes
(one duplex pipe per node, strictly request/reply per node, fanned out
across nodes — every send of a round goes out before any receive):

``ingest`` / ``classify`` / ``apply``
    The node half of the cluster protocol —
    :class:`~repro.runtime.node.NodeProtocol`, the same code an
    in-process node runs.  An ``ingest`` or ``apply`` frame carries the
    landing page of every offer without a specification that it makes
    the node ingest; the node extracts from them and drops them before
    it votes.  A node's mutations land in its store's *journal*, nothing
    touches the file; its ``vote`` carries the ingest report, busy time
    and transport counters on success, the error otherwise.
``commit`` / ``abort``
    The cluster commit barrier.  When every involved node voted ready,
    the coordinator durably records a *commit intent* (the batch's
    offers, pickled into the store) and tells the voters to flush their
    journals (each node's flush is one SQLite transaction; WAL + busy
    timeouts serialise the concurrent writers).  Any failed or dead
    node instead aborts the others: they roll their journals away and
    rebuild their mirrors from the last barrier, the coordinator fences
    the failure, and the whole batch replays on the survivors.  With
    ``pipeline_depth=2`` the coordinator does not wait for the flush
    acks: it returns to the caller and collects them at the *next*
    ingest, overlapping batch N's node-side flushes with batch N+1's
    coordinator-side dedup and routing.  A death discovered at the
    barrier is replayed from the intent (only the offers the file does
    not already hold), and a coordinator that dies mid-barrier leaves
    the intent behind — a reopened cluster replays it on startup, so
    the "commit barrier failed partway" state is self-healing.
``lease``
    Fence/handoff: the new epoch map of the node, plus the shards it
    just gained and must reload from the file
    (:meth:`~repro.runtime.store.sqlite.SqliteCatalogStore.refresh_shards`).
``stats``
    The node's whole metrics-registry snapshot, for
    :meth:`~repro.runtime.cluster.ClusterEngine.node_metrics`.
``crash``
    Test/drill hook: arm a fault that hard-kills the node process
    (``os._exit``) at the Nth store operation — a genuine mid-batch
    death, exercised by the crash suites and the ops example.
``shutdown``
    Graceful leave; the node releases its workers and closes its store.

**Reading.**  The coordinator's connection restores the file once, at
open, and never rebuilds its mirror: ``products()``, ``snapshot()``,
``num_clusters()``, ``rebalance()``'s loads and barrier recovery read
the committed rows (``iter_products`` and the store's ``committed_*``
reads).

**Safety.**  The shared-row strategy keeps cross-process writes
race-free: each offer is routed to exactly one node (seen-set rows are
disjoint), each shard has exactly one owner (cluster rows are disjoint),
and reconciliation totals live in per-node partition rows merged on
read.  Fencing is the store-side epoch check every cluster uses — but a
node process reads epochs *from the file*, so a zombie that the
coordinator fenced from another process still bounces on its very next
write.  Because a node journals everything until the barrier, a killed
node leaves **zero** bytes of the in-flight batch behind; crash recovery
is: abort survivors, fence, reassign, replay, byte-identical.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import sys
from multiprocessing import popen_fork, util
from multiprocessing.process import BaseProcess
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro.corpus.webstore import WebStore
from repro.extraction.extractor import WebPageAttributeExtractor
from repro.model.offers import Offer
from repro.runtime.cluster import (
    ClusterEngine,
    ClusterNode,
    NodeDeadError,
    NodeTransport,
    NodeVote,
    ShardLease,
)
from repro.runtime.delta import TransportStats
from repro.runtime.store.sqlite import SqliteCatalogStore

__all__ = [
    "NodeDeadError",
    "NodeVote",
    "ProcessNode",
    "ProcessTransport",
    "MultiProcessEngine",
]


def _boot_command(channel_fd: int) -> List[str]:
    """The command line of a node process serving the pipe end ``channel_fd``.

    A fresh interpreter with this one's flags, without ``site`` (its
    ``.pth`` files are start-up time a node has no use for), on this
    process's ``sys.path`` — with the directory ``repro`` was imported
    from in front when an import hook rather than a path entry found it.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = [os.fsdecode(entry) for entry in sys.path]  # entries may be path objects
    if root not in path:
        path.insert(0, root)
    source = (
        f"import sys; sys.path[:] = {path!r}; "
        f"from repro.runtime.node import serve; serve({channel_fd})"
    )
    return [sys.executable, *util._args_from_interpreter_flags(), "-S", "-c", source]


class _ExecPopen(popen_fork.Popen):
    """Start the child by fork-exec of a new interpreter.

    The fork half of ``popen_fork`` (waiting, signals, the sentinel) with
    the launch replaced by :func:`multiprocessing.util.spawnv_passfds`:
    the child maps none of this process's heap, re-imports no
    ``__main__``, and inherits only the descriptors passed to it — its
    pipe end and the write end of the sentinel pipe, which it holds
    until it exits.  No resource tracker or fork server is started.
    """

    method = "exec"

    def _launch(self, process_obj: "_NodeProcess") -> None:
        channel_fd = process_obj.channel_fd
        sentinel, child_sentinel = os.pipe()
        try:
            self.pid = util.spawnv_passfds(
                os.fsencode(sys.executable),
                _boot_command(channel_fd),
                (channel_fd, child_sentinel),
            )
        except BaseException:
            os.close(sentinel)
            raise
        finally:
            os.close(child_sentinel)
        self.sentinel = sentinel
        self.finalizer = util.Finalize(self, util.close_fds, (sentinel,))


class _NodeProcess(BaseProcess):
    """A ``multiprocessing`` child that is a fresh interpreter running one node.

    Being a ``multiprocessing`` process, it is listed by
    :func:`multiprocessing.active_children`, reaped by ``join`` and, as
    a daemon, terminated at interpreter exit if still running.
    """

    def __init__(self, channel_fd: int, name: str) -> None:
        super().__init__(name=name, daemon=True)
        self.channel_fd = channel_fd

    @staticmethod
    def _Popen(process_obj: "_NodeProcess") -> _ExecPopen:
        return _ExecPopen(process_obj)


class ProcessNode(ClusterNode):
    """Coordinator-side handle of one node process.

    Owns the process object and the coordinator's end of the pipe.  All
    protocol I/O funnels through :meth:`send` / :meth:`recv`, which
    translate a dead or silent process into
    :class:`~repro.runtime.cluster.NodeDeadError`.  Each message
    travels as one explicitly pickled frame, and every frame and its
    payload bytes are counted into ``pipe_stats`` — the engine-level
    :class:`~repro.runtime.delta.TransportStats` that makes the pipe
    protocol's cost measurable (and regressions visible).  The boot
    frames of :meth:`boot` are set-up, not protocol, and are not counted.
    """

    def __init__(
        self,
        node_id: str,
        lease: ShardLease,
        timeout: float,
        pipe_stats: TransportStats,
    ) -> None:
        """Launch the node process; it waits for :meth:`boot`.

        ``pipe_stats`` is the frame-accounting sink shared by every
        node of one engine.
        """
        super().__init__(node_id, lease)
        self.pipe_stats = pipe_stats
        self._timeout = timeout
        self._channel, child_end = multiprocessing.Pipe(duplex=True)
        try:
            self._process = _NodeProcess(child_end.fileno(), name=f"repro-{node_id}")
            self._process.start()
        except BaseException:
            self._channel.close()
            raise
        finally:
            # Only the child holds its end now, so its exit is our EOF.
            child_end.close()

    @property
    def channel(self) -> multiprocessing.connection.Connection:
        """The coordinator-side end of this node's pipe."""
        return self._channel

    def alive(self) -> bool:
        """Whether the node process is currently running."""
        return self._process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        """OS process id of the node (``None`` before start)."""
        return self._process.pid

    def boot(self, store_path: str, num_shards: int, components: bytes) -> None:
        """Send the node its header, then the engine components pickled once.

        ``components`` are the same bytes for every node started
        together.  Raises :class:`~repro.runtime.cluster.NodeDeadError`
        when the node died before it read them.
        """
        header = {
            "node_id": self.node_id,
            "store_path": store_path,
            "num_shards": num_shards,
            "epochs": dict(self.lease.epochs),
        }
        try:
            self._channel.send_bytes(pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL))
            self._channel.send_bytes(components)
        except OSError as exc:
            raise self._boot_failure(f"send failed: {exc!r}") from exc

    def await_ready(self) -> None:
        """Wait for the node's ``ready``; :class:`NodeDeadError` if it failed to boot."""
        try:
            kind, reply = pickle.loads(self._read_frame())
        except NodeDeadError as exc:
            raise self._boot_failure(exc.reason) from exc
        if kind != "ready":
            raise self._boot_failure(f"{kind}: {reply}")

    def _boot_failure(self, reason: str) -> NodeDeadError:
        """The error of a node that did not boot, with its exit code once it has one."""
        self._process.join(timeout=1)
        if self._process.exitcode is not None:
            reason = f"{reason} (exit code {self._process.exitcode})"
        return NodeDeadError(self.node_id, f"failed to boot: {reason}")

    def send(self, kind: str, payload: object = None) -> None:
        """Ship one protocol message as one pickled frame.

        The whole message is serialized here (highest pickle protocol)
        and written with ``send_bytes`` — a single frame whose size is
        known and counted, rather than whatever the connection's
        implicit pickler produces.  Raises
        :class:`~repro.runtime.cluster.NodeDeadError` when the process
        is gone.
        """
        frame = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._channel.send_bytes(frame)
        except OSError as exc:
            raise NodeDeadError(self.node_id, f"send failed: {exc!r}") from exc
        self.pipe_stats.frames_sent += 1
        self.pipe_stats.frame_bytes_sent += len(frame)

    def recv(self) -> Tuple[str, object]:
        """Await one reply frame; raises
        :class:`~repro.runtime.cluster.NodeDeadError` on death/timeout."""
        frame = self._read_frame()
        self.pipe_stats.frames_received += 1
        self.pipe_stats.frame_bytes_received += len(frame)
        return pickle.loads(frame)

    def _read_frame(self) -> bytes:
        """One reply frame; :class:`NodeDeadError` on death or timeout."""
        try:
            if not self._channel.poll(self._timeout):
                raise NodeDeadError(
                    self.node_id, f"no reply within {self._timeout:.0f}s"
                )
            return self._channel.recv_bytes()
        except (EOFError, OSError) as exc:
            raise NodeDeadError(self.node_id, f"connection lost: {exc!r}") from exc

    def request(self, kind: str, payload: object = None) -> object:
        """Send one message and await its reply, checking the reply kind.

        Error replies (``commit-error`` and friends) surface as
        :class:`RuntimeError`; transport failures as
        :class:`~repro.runtime.cluster.NodeDeadError`.
        """
        self.send(kind, payload)
        reply_kind, reply = self.recv()
        if reply_kind.endswith("-error") or reply_kind == "error":
            raise RuntimeError(f"node {self.node_id!r} answered {reply_kind}: {reply}")
        return reply

    def push_lease(self, gained: List[int]) -> None:
        """Ship the node its epoch map and the shards to reload from the file.

        Those are the shards it ``gained``: their previous owner's
        commits never touched this node's mirror.
        """
        self.request("lease", {"epochs": dict(self.lease.epochs), "refresh": gained})

    def metrics(self) -> Dict[str, object]:
        """One ``stats`` round: the node process's registry snapshot."""
        try:
            fragment = self.request("stats")
        except (NodeDeadError, RuntimeError):
            return {}
        return fragment if isinstance(fragment, dict) else {}

    def shutdown(self) -> bool:
        """Ask the process to release its workers and store, then reap it."""
        try:
            self.request("shutdown")
            graceful = True
        except (NodeDeadError, RuntimeError):
            graceful = False
        self.destroy()
        return graceful

    def kill(self) -> None:
        """SIGKILL the node process (crash simulation; no bookkeeping)."""
        self._process.kill()
        self._process.join(timeout=10)

    def destroy(self) -> None:
        """Tear the handle down: close the pipe, terminate, reap."""
        try:
            self._channel.close()
        except OSError:  # pragma: no cover - already gone
            pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=10)


class ProcessTransport(NodeTransport):
    """Nodes as OS processes over a shared SQLite WAL file.

    The file is the only state the processes share: the coordinator
    keeps its own connection (epochs as the authoritative writer, the
    restore at open, and reads of the committed rows), every node a
    private one.  A message is one pickled frame per direction, and the
    barrier is a durable *commit intent* followed by a ``commit`` round.
    Nodes get the extractor over an empty page map; the coordinator
    keeps the caller's and sends each ingest the pages it needs.
    """

    def __init__(
        self,
        num_shards: int,
        engine_kwargs: Dict[str, object],
        store_path: Optional[str] = None,
        node_timeout: float = 300.0,
    ) -> None:
        super().__init__()
        if store_path is None:
            raise ValueError(
                "MultiProcessEngine requires store_path: the shared WAL "
                "file is the only state its node processes have in common"
            )
        self.store = SqliteCatalogStore(store_path)
        self.store.bind(num_shards)
        self._num_shards = num_shards
        extractor = engine_kwargs.get("extractor")
        self._web = None if extractor is None else extractor.web
        # The node processes are the parallelism: each runs a serial
        # engine, whose extractor reads only the pages sent with an ingest.
        self._engine_kwargs = dict(
            engine_kwargs,
            executor="serial",
            extractor=None if extractor is None else WebPageAttributeExtractor(WebStore()),
        )
        self._timeout = node_timeout
        self._intent_sequence = itertools.count(1)
        # The open commit round: voters whose ack is outstanding, and
        # the voters already known lost (node id -> error).
        self._awaiting: List[ProcessNode] = []
        self._lost: Dict[str, str] = {}

    def start_nodes(self, leases: Dict[str, ShardLease]) -> Dict[str, ProcessNode]:
        """Boot one node process per lease; returns once every one is ready.

        Every process is launched first, so the interpreters boot in
        parallel; the engine components are pickled once and the same
        bytes go to each node, which restores the whole file and builds
        its engine.  If any node fails to boot, every node of the call
        is taken down before :class:`NodeDeadError` propagates.
        """
        nodes: Dict[str, ProcessNode] = {}
        try:
            for node_id, lease in leases.items():
                nodes[node_id] = ProcessNode(node_id, lease, self._timeout, self.stats)
            components = pickle.dumps(self._engine_kwargs, protocol=pickle.HIGHEST_PROTOCOL)
            for node in nodes.values():
                node.boot(self.store.path, self._num_shards, components)
            del components
            for node in nodes.values():
                node.await_ready()
        except BaseException:
            for node in nodes.values():
                node.destroy()
            raise
        return nodes

    def abort(self, answered: Sequence[ClusterNode], failures: Dict[str, BaseException]) -> bool:
        """Roll every answering node's journal (and retained offers) back.

        Ready voters and failed-but-alive nodes alike: a node whose
        engine raised mid-ingest holds a *partial* journal; left in
        place it would flush half-processed offers at the next barrier
        (or survive a caller retry with auto_recover off).
        """
        for node in answered:
            try:
                node.request("abort")
            except NodeDeadError as exc:
                failures.setdefault(node.node_id, exc)
        return True

    def barrier_begin(self, voters: Sequence[ClusterNode], fresh: Sequence[Offer]) -> None:
        """Record the intent, then tell the voters to flush their journals.

        The intent — the batch's fresh offers, pickled into the shared
        store *before* any node flushes — is what turns a mid-barrier
        death (node or coordinator) from a fatal partway state into a
        replayable one.
        """
        payload = pickle.dumps(list(fresh), protocol=pickle.HIGHEST_PROTOCOL)
        self.store.write_commit_intent(next(self._intent_sequence), payload)
        for node in voters:
            try:
                node.send("commit")
                self._awaiting.append(node)
            except NodeDeadError as exc:
                self._lost[node.node_id] = str(exc)

    def barrier_end(self) -> Dict[str, str]:
        """Await one commit ack per voter; clear the intent when all arrived."""
        awaiting, self._awaiting = self._awaiting, []
        lost, self._lost = self._lost, {}
        for node in awaiting:
            try:
                kind, payload = node.recv()
            except NodeDeadError as exc:
                lost[node.node_id] = str(exc)
                continue
            if kind != "committed":
                lost[node.node_id] = f"node {node.node_id!r}: {payload}"
        if not lost:
            self.store.clear_commit_intent()
        return lost

    def leftover_batch(self) -> Optional[List[Offer]]:
        """The offers of a commit intent a dead coordinator left in the file."""
        pending = self.store.pending_commit_intent()
        return None if pending is None else pickle.loads(pending[1])

    def pages_for(self, offers: Sequence[Offer]) -> Dict[str, str]:
        """The stored page of every offer that has no specification.

        Those are the offers the node engine extracts; an offer whose
        page is missing gets none, and so an empty specification, as it
        would from the caller's extractor.
        """
        pages: Dict[str, str] = {}
        if self._web is None:
            return pages
        for offer in offers:
            if len(offer.specification) == 0:
                html = self._web.fetch_or_none(offer.url)
                if html is not None:
                    pages[offer.url] = html
        return pages

    def close(self) -> None:
        """Close the coordinator's connection (the file stays)."""
        if not self.store.closed:
            self.store.close()


class MultiProcessEngine(ClusterEngine):
    """N synthesis engines in N OS processes over one shared WAL store.

    The :class:`~repro.runtime.cluster.ClusterEngine` coordinator over
    :class:`ProcessTransport` — same ``ingest`` / ``products`` /
    ``snapshot`` facade and the same byte-identity contract against a
    single engine as :class:`~repro.runtime.cluster.MultiNodeEngine`.
    What the processes change:

    * a durable shared store is **required** (``store_path``): the WAL
      file is the only state the processes share;
    * each node runs a private engine + store connection in its own
      process — no shared mirror, no cluster lock, true multi-core
      ingest;
    * the commit barrier is a vote/commit message round instead of one
      in-process flush, preceded by a durable *commit intent* in the
      shared file, so a node or coordinator death at any point of the
      round is replayable (the module docstring walks through it).

    Parameters are :class:`~repro.runtime.cluster.ClusterEngine`'s, plus:

    store_path:
        The shared SQLite WAL file (required).
    node_timeout:
        Seconds to wait for a node's reply before declaring it dead.
    """

    _transport_class = ProcessTransport

    def kill_node(self, node_id: str) -> None:
        """SIGKILL a node process *without* any coordinator bookkeeping.

        Crash simulation for tests and drills: the membership still
        lists the node, and the next :meth:`ingest` discovers the death
        and runs the real recovery path.
        """
        self._member(node_id).kill()

    def inject_crash(
        self, node_id: str, operation: str, countdown: int = 1, hard: bool = True
    ) -> None:
        """Arm a mid-batch node failure (tests/drills).

        The node fails at the ``countdown``-th occurrence of the named
        store operation (``"append_offers"``, ``"mark_seen"``,
        ``"set_product"``, ``"commit"``) during a later ingest.
        ``hard=True`` (default) hard-exits the process (``os._exit``) —
        a genuine kill at a precise point in the write path;
        ``hard=False`` raises inside the node instead, so it survives
        and votes not-ready (the alive-but-failed recovery path).
        """
        self.flush()
        self._member(node_id).request(
            "crash", {"operation": operation, "countdown": countdown, "hard": hard}
        )
