"""True multi-process cluster nodes over the shared WAL store.

:class:`~repro.runtime.cluster.MultiNodeEngine` runs its nodes inside
the coordinator's process, one after the other.  This module is the
transport that removes that wall: :class:`MultiProcessEngine` is the
same :class:`~repro.runtime.cluster.ClusterEngine` coordinator with
every node in its **own OS process** (:class:`ProcessNode` is the
coordinator-side handle): each node opens its own read-only
:class:`~repro.runtime.store.sqlite.SqliteCatalogStore` mirror of the
shared WAL file, and nothing on the ingest critical path crosses a
shared lock — real multi-core scaling, bounded only by
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
    it votes.  A node's mutations land in its read-only mirror and its
    store's journal; its ``vote`` carries the ingest report, busy time,
    transport counters and — on success — the drained journal, with
    the lease epochs it was written under.  A failure votes the error.
The commit barrier
    When every involved node voted ready, the coordinator writes all
    the voters' journals in **one** transaction of its own store
    (:meth:`~repro.runtime.store.sqlite.SqliteCatalogStore.write_journals`):
    one ``commit_count`` step and one ``commit_journal`` entry per
    batch, so a reader never sees half a batch.  Inside it each
    journal's epochs are checked against the file, so a fenced node's
    journal raises :class:`~repro.runtime.state.StaleEpochError` and
    nothing lands.  No barrier message reaches a node.  With
    ``pipeline_depth=2`` the write of batch N happens at the next
    ingest: under hint routing after the ``classify`` frames of batch
    N+1 went out and before their replies are read, so it overlaps the
    nodes' classification (that round mutates no store).
``abort``
    Roll the node back to the last barrier: drop its journal and
    retained offers and rebuild its mirror from the file.  Sent to every
    node that answered a failed wave, and to every node after a failed
    barrier write.
``lease``
    Fence/handoff: the new epoch map of the node, plus the shards it
    just gained and must reload from the file
    (:meth:`~repro.runtime.store.sqlite.SqliteCatalogStore.refresh_shards`).
``stats``
    The node's whole metrics-registry snapshot, for
    :meth:`~repro.runtime.cluster.ClusterEngine.node_metrics`.
``crash``
    Test/drill hook: arm a fault that hard-kills the node process
    (``os._exit``) at the Nth store operation, or right after its Nth
    vote — a genuine death, exercised by the crash suites and the ops
    example.
``shutdown``
    Graceful leave; the node releases its workers and closes its store.

**Reading.**  The coordinator's connection restores the file once, at
open, and never rebuilds its mirror: ``products()``, ``snapshot()``,
``num_clusters()`` and ``rebalance()``'s loads read the committed rows
(``iter_products`` and the store's ``committed_*`` reads).

**Safety.**  The file has one writer, the coordinator, and a batch is
one transaction of it.  Routing sends each offer to exactly one node
and each shard has exactly one owner, so the voters' journals never
write the same rows, and reconciliation totals are added to the one
global row.  A node that dies before its vote arrives leaves nothing
behind: the survivors abort, the node is fenced, and the batch replays
on the new layout.  A node that dies after voting has already handed
its journal over, so its batch lands whole, and the next round fences
it.  A coordinator that dies mid-write leaves the file at the previous
barrier.  Either way the resumed catalog is byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

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
from repro.runtime.engine import TransportStats
from repro.runtime.store.sqlite import SqliteCatalogStore

__all__ = [
    "NodeDeadError",
    "NodeVote",
    "ProcessNode",
    "ProcessTransport",
    "MultiProcessEngine",
]

#: Seconds the coordinator waits for a node's reply before declaring it dead.
NODE_TIMEOUT_S = 300.0


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
    :class:`~repro.runtime.engine.TransportStats` that makes the pipe
    protocol's cost measurable (and regressions visible).  The boot
    frames of :meth:`boot` are set-up, not protocol, and are not counted.
    """

    def __init__(
        self,
        node_id: str,
        lease: ShardLease,
        pipe_stats: TransportStats,
    ) -> None:
        """Launch the node process; it waits for :meth:`boot`.

        ``pipe_stats`` is the frame-accounting sink shared by every
        node of one engine.
        """
        super().__init__(node_id, lease)
        self.pipe_stats = pipe_stats
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
            if not self._channel.poll(NODE_TIMEOUT_S):
                raise NodeDeadError(self.node_id, f"no reply within {NODE_TIMEOUT_S:.0f}s")
            return self._channel.recv_bytes()
        except (EOFError, OSError) as exc:
            raise NodeDeadError(self.node_id, f"connection lost: {exc!r}") from exc

    def request(self, kind: str, payload: object = None) -> object:
        """Send one message and await its reply, checking the reply kind.

        Error replies (``error`` and ``*-error``) surface as
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

    The file is the only state the processes share.  The coordinator's
    connection is its one writer: epochs, and at every barrier the
    voters' journals in one transaction.  It also restores the file at
    open and reads the committed rows.  Every node opens a read-only
    mirror.  A message is one pickled frame per direction.  Nodes get
    the extractor over an empty page map; the coordinator keeps the
    caller's and sends each ingest the pages it needs.
    """

    def __init__(
        self,
        num_shards: int,
        engine_kwargs: Dict[str, object],
        store_path: Optional[str] = None,
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
        # A node engine's extractor reads only the pages sent with an ingest.
        self._engine_kwargs = dict(
            engine_kwargs,
            extractor=None if extractor is None else WebPageAttributeExtractor(WebStore()),
        )

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
                nodes[node_id] = ProcessNode(node_id, lease, self.stats)
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
        (or survive a caller's retry after an unrecoverable failure).
        """
        for node in answered:
            try:
                node.request("abort")
            except NodeDeadError as exc:
                failures.setdefault(node.node_id, exc)
        return True

    def commit(self, votes: Dict[str, NodeVote]) -> None:
        """Write every voter's journal in one transaction of the coordinator's store.

        The journals' lease epochs are checked inside it, so a journal
        a fenced node wrote raises
        :class:`~repro.runtime.state.StaleEpochError` and nothing lands.
        """
        self.store.write_journals([vote.journal for _, vote in sorted(votes.items())])

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
    * each node runs a private engine over a read-only mirror of the
      file in its own process — no shared mirror, no cluster lock, true
      multi-core ingest;
    * the nodes' votes carry their journals, and the commit barrier is
      the coordinator writing all of them in one transaction: a batch
      lands whole or not at all, whoever dies when (the module
      docstring walks through it).

    Parameters are :class:`~repro.runtime.cluster.ClusterEngine`'s, plus:

    store_path:
        The shared SQLite WAL file (required).

    A node that does not reply within :data:`NODE_TIMEOUT_S` seconds is
    declared dead.
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
        ``"set_product"``) during a later ingest, or right after its
        ``countdown``-th later vote (``"vote"``, a death after the node
        handed its journal over).  ``hard=True`` (default) hard-exits
        the process (``os._exit``) — a genuine kill at a precise point;
        ``hard=False`` raises inside the node instead, so at a store
        operation it survives and votes not-ready (the alive-but-failed
        recovery path).
        """
        self.flush()
        self._member(node_id).request(
            "crash", {"operation": operation, "countdown": countdown, "hard": hard}
        )
