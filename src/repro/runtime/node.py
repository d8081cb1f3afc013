"""The node half of a cluster: everything that runs where a node lives.

A cluster node is a :class:`~repro.runtime.engine.SynthesisEngine`
writing through a :class:`FencedStoreView` under a :class:`ShardLease`,
driven by the coordinator's messages through :class:`NodeProtocol`.
:class:`~repro.runtime.cluster.MultiNodeEngine` builds those pieces in
its own process; a process node (:func:`serve`) builds them in a fresh
interpreter that
:class:`~repro.runtime.procnode.ProcessNode` started.  This module
imports the engine and the stores but nothing of the coordinator, so a
node process loads only what it runs.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.corpus.webstore import WebStore
from repro.model.offers import Offer
from repro.model.products import Product
from repro.obs import get_registry
from repro.runtime.engine import IngestReport, SynthesisEngine, TransportStats
from repro.runtime.sharding import shard_for_category
from repro.runtime.state import CatalogStore, ClusterId, ClusterState, StaleEpochError
from repro.runtime.store.sqlite import SqliteCatalogStore, StoreJournal
from repro.synthesis.reconciliation import ReconciliationStats

__all__ = ["ShardLease", "FencedStoreView", "NodeVote", "NodeProtocol", "serve"]


@dataclass
class ShardLease:
    """The shards one node currently holds, with their granted epochs.

    The coordinator mutates the lease in place on every grant or
    revocation, so the node's :class:`FencedStoreView` always writes with
    the epochs it actually holds.  When a node is *fenced* the lease is
    deliberately left stale instead: its epochs no longer match the
    store, which is exactly what makes the node's writes bounce.
    """

    node_id: str
    #: shard index -> epoch the store had when the shard was granted.
    epochs: Dict[int, int] = field(default_factory=dict)
    #: Set (never cleared) when the coordinator forcibly fences the node.
    #: The in-process fast path: a fenced node's very first write raises,
    #: before it can touch even the globally-scoped state.  The epochs
    #: above stay authoritative for writers the coordinator cannot reach
    #: (a lagging node fenced by someone else hits the store-side check).
    fenced: bool = False

    def shards(self) -> List[int]:
        """The shard indices this lease covers, ascending."""
        return sorted(self.epochs)


class FencedStoreView(CatalogStore):
    """One node's epoch-carrying, lock-serialised view of a shared store.

    Reads and global writes delegate to the base store under the cluster
    lock; cluster-scoped writes (create/append/product) first
    present the leased epoch of the target shard for validation, so a
    fenced-out node fails fast instead of corrupting reassigned shards.
    Global writes are fenced at the commit barrier.

    The view's ``commit`` only validates the whole lease: the coordinator
    commits once per cluster batch (the shared store of an in-process
    cluster, every process node's drained journal otherwise), giving all
    nodes one shared commit barrier.
    """

    def __init__(
        self,
        base: CatalogStore,
        lease: ShardLease,
        lock: Optional[threading.RLock] = None,
    ) -> None:
        super().__init__()
        self._base = base
        self._lease = lease
        self._lock = lock if lock is not None else threading.RLock()
        self.name = f"fenced-{base.name}"
        self._num_shards = base.num_shards

    @property
    def lease(self) -> ShardLease:
        """The shard lease this view writes under."""
        return self._lease

    @property
    def base(self) -> CatalogStore:
        """The shared store this view delegates to."""
        return self._base

    @property
    def commit_count(self) -> int:
        """The *base* store's snapshot counter.

        The view never counts commits itself: its ``commit`` only
        validates the lease, and the snapshot identity readers care
        about is the shared store's.  A node engine therefore sees the
        same counter a reader of the shared file would.
        """
        return self._base.commit_count

    # -- fencing ---------------------------------------------------------------

    def _check_writable(self) -> None:
        if self._lease.fenced:
            raise StaleEpochError(
                f"node {self._lease.node_id!r} was fenced: its lease is "
                "revoked and no write of it may reach the shared store"
            )

    def _check_shard(self, shard_index: int) -> None:
        self._check_writable()
        epoch = self._lease.epochs.get(shard_index)
        if epoch is None:
            raise StaleEpochError(
                f"node {self._lease.node_id!r} holds no lease on shard "
                f"{shard_index}: the shard was reassigned (or never granted)"
            )
        self._base.check_shard_epoch(shard_index, epoch)

    def validate_lease(self) -> None:
        """Raise :class:`StaleEpochError` unless every held epoch is current."""
        self._check_writable()
        for shard_index, epoch in self._lease.epochs.items():
            self._base.check_shard_epoch(shard_index, epoch)

    # -- lifecycle -------------------------------------------------------------

    def bind(self, num_shards: int) -> None:
        """Validate the engine's shard count against the cluster store's."""
        if num_shards != self._base.num_shards:
            raise ValueError(
                f"node engine wants {num_shards} shards but the cluster "
                f"store is bound to {self._base.num_shards}"
            )
        self._num_shards = num_shards

    def commit(self) -> None:
        """Validate the whole lease; the coordinator flushes the base."""
        with self._lock:
            self.validate_lease()

    def close(self) -> None:
        """Views release nothing: the cluster owns the base store."""

    @property
    def closed(self) -> bool:
        """Whether the shared base store can no longer accept writes."""
        return self._base.closed

    # -- seen offers -----------------------------------------------------------

    def is_seen(self, offer_id: str) -> bool:
        """Whether an offer id was absorbed, read under the cluster lock."""
        with self._lock:
            return self._base.is_seen(offer_id)

    def mark_seen(self, offer_id: str) -> bool:
        """Record an offer id (global write; fence flag checked first)."""
        with self._lock:
            self._check_writable()
            return self._base.mark_seen(offer_id)

    def num_seen(self) -> int:
        """Distinct offer ids absorbed cluster-wide."""
        with self._lock:
            return self._base.num_seen()

    # -- assigned categories ---------------------------------------------------

    def record_category(self, offer_id: str, category_id: str) -> None:
        """Remember an offer's category (global, fence-flag-checked write)."""
        with self._lock:
            self._check_writable()
            self._base.record_category(offer_id, category_id)

    def assigned_categories(self) -> Dict[str, str]:
        """A copy of the cluster-wide offer-id -> category-id map."""
        with self._lock:
            return self._base.assigned_categories()

    # -- clusters (epoch-checked writes) ---------------------------------------

    def get_cluster(self, cluster_id: ClusterId) -> Optional[ClusterState]:
        """One cluster's shared state, read under the cluster lock."""
        with self._lock:
            return self._base.get_cluster(cluster_id)

    def create_cluster(self, shard_index: int, cluster_id: ClusterId) -> ClusterState:
        """Create a cluster after validating this node's shard epoch."""
        with self._lock:
            self._check_shard(shard_index)
            return self._base.create_cluster(shard_index, cluster_id)

    def append_offers(self, cluster_id: ClusterId, offers: List[Offer]) -> None:
        """Append offers after validating the owning shard's epoch."""
        with self._lock:
            state = self._base.get_cluster(cluster_id)
            if state is not None:
                self._check_shard(state.shard_index)
            self._base.append_offers(cluster_id, offers)

    def set_product(self, cluster_id: ClusterId, product: Optional[Product]) -> None:
        """Record a fused product after validating the shard's epoch."""
        with self._lock:
            state = self._base.get_cluster(cluster_id)
            if state is not None:
                self._check_shard(state.shard_index)
            self._base.set_product(cluster_id, product)

    def iter_clusters(self) -> Iterator[Tuple[ClusterId, ClusterState]]:
        """Iterate over a stable copy of every tracked cluster."""
        with self._lock:
            return iter(list(self._base.iter_clusters()))

    def shard_cluster_ids(self, shard_index: int) -> List[ClusterId]:
        """Ids of every cluster living in one shard."""
        with self._lock:
            return self._base.shard_cluster_ids(shard_index)

    def num_clusters(self) -> int:
        """Number of clusters tracked cluster-wide."""
        with self._lock:
            return self._base.num_clusters()

    # -- reconciliation stats --------------------------------------------------

    def merge_reconciliation_stats(self, stats: ReconciliationStats) -> None:
        """Fold batch counters into the shared totals (fence-checked)."""
        with self._lock:
            self._check_writable()
            self._base.merge_reconciliation_stats(stats)

    def reconciliation_stats(self) -> ReconciliationStats:
        """A copy of the cluster-wide reconciliation totals."""
        with self._lock:
            return self._base.reconciliation_stats()

    # -- shard epochs ----------------------------------------------------------

    def shard_epoch(self, shard_index: int) -> int:
        """The authoritative fencing epoch of one shard."""
        with self._lock:
            return self._base.shard_epoch(shard_index)

    def advance_shard_epoch(self, shard_index: int) -> int:
        """Always refused: only the shard coordinator fences shards."""
        raise RuntimeError(
            "only the shard coordinator advances fencing epochs; a node "
            "bumping its own epoch would un-fence itself"
        )


@dataclass
class NodeVote:
    """A node's answer to one ``ingest`` / ``apply`` message (its barrier vote)."""

    #: Whether the sub-batch was absorbed (into the node's mirror, or
    #: the shared store for an in-process node).
    ready: bool
    #: ``repr`` of the node-side exception when ``ready`` is false.
    error: Optional[str] = None
    #: The node engine's report for the sub-batch (when ready).
    report: Optional[IngestReport] = None
    #: Seconds the node spent in ``engine.ingest`` for this sub-batch.
    busy_seconds: float = 0.0
    #: The node engine's *cumulative* executor-payload accounting.
    transport: TransportStats = field(default_factory=TransportStats)
    #: The live node-side exception: what an in-process cluster
    #: re-raises.  Never crosses a pipe — only ``error`` does.
    cause: Optional[BaseException] = None
    #: A process node's ready vote carries the rows its sub-batch adds,
    #: for the coordinator to write at the barrier.  ``None`` for an
    #: in-process node, which wrote into the shared store.
    journal: Optional[StoreJournal] = None

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["cause"]
        return state


class NodeProtocol:
    """The node half of the cluster's message protocol, written once.

    ``ingest`` absorbs a routed sub-batch and answers with a
    :class:`NodeVote`.  The hint-routing rounds: ``classify`` runs the
    real classifier over a hinted, position-tagged sub-batch, retains
    what this node truly owns and answers with the misrouted remainder;
    ``apply`` merges the retained offers with the misroutes other nodes
    sent back, in original batch order, and ingests — so placement and
    order (and every output byte) match coordinator-side classification.

    An ``ingest`` or ``apply`` frame also carries ``pages``: the landing
    page of every offer it makes this node ingest that has no
    specification (a missing page is simply absent).  They go into
    ``pages`` — the page map the node engine's extractor reads — for the
    one ingest, and are dropped before the vote is sent.  A node that
    shares the caller's extractor (an in-process node) has ``pages=None``
    and is sent none.

    A process node's pipe loop calls :meth:`handle` once per frame; an
    in-process node calls it directly.  Both clusters therefore run the
    same node-side code, whatever carries the messages.
    """

    def __init__(
        self,
        node_id: str,
        num_shards: int,
        engine: SynthesisEngine,
        pages: Optional[WebStore] = None,
    ) -> None:
        self._node_id = node_id
        self._num_shards = num_shards
        self._engine = engine
        self._pages = pages
        # Offers retained from a ``classify`` round, position-tagged,
        # until the following ``apply`` (or a :meth:`discard`).
        self._retained: List[Tuple[int, Offer]] = []

    def handle(self, kind: str, payload: object) -> Tuple[str, object]:
        """Answer one protocol message with its ``(reply kind, reply)``."""
        if kind == "ingest":
            return "vote", self._vote(payload["offers"], payload["pages"])
        if kind == "classify":
            return self._classify(payload["offers"], payload["assignment"], payload["fallback"])
        if kind == "apply":
            merged = self._retained + list(payload["incoming"])
            self._retained = []
            merged.sort(key=lambda item: item[0])
            return "vote", self._vote([offer for _, offer in merged], payload["pages"])
        return "error", f"unknown message kind {kind!r}"

    def discard(self) -> None:
        """Drop the retained offers of an aborted batch."""
        self._retained = []

    def _vote(self, sub_batch: Sequence[Offer], pages: Dict[str, str]) -> NodeVote:
        """Ingest one routed sub-batch over the pages it came with; build the vote."""
        started = time.perf_counter()
        report = cause = None
        try:
            for url, html in pages.items():
                self._pages.put(url, html)
            report = self._engine.ingest(sub_batch)
        except Exception as exc:  # noqa: BLE001 - shipped to the coordinator
            cause = exc
        finally:
            if pages:
                self._pages.clear()
        return NodeVote(
            ready=cause is None,
            error=None if cause is None else repr(cause),
            report=report,
            busy_seconds=time.perf_counter() - started,
            transport=self._engine.transport_stats(),
            cause=cause,
        )

    def _classify(
        self,
        positioned: Sequence[Tuple[int, Offer]],
        assignment: Dict[int, str],
        fallback: str,
    ) -> Tuple[str, object]:
        """Classify a hinted sub-batch; keep what is owned, return the rest."""
        started = time.perf_counter()
        try:
            categorised = self._engine.classify_offers([offer for _, offer in positioned])
            owned: List[Tuple[int, Offer]] = []
            outgoing: Dict[str, List[Tuple[int, Offer]]] = {}
            for (position, _), offer in zip(positioned, categorised):
                if offer.category_id is None:
                    destination = fallback
                else:
                    destination = assignment[
                        shard_for_category(offer.category_id, self._num_shards)
                    ]
                if destination == self._node_id:
                    owned.append((position, offer))
                else:
                    outgoing.setdefault(destination, []).append((position, offer))
        except Exception as exc:  # noqa: BLE001 - shipped to the coordinator
            self._retained = []
            return "classify-error", repr(exc)
        self._retained = owned
        return "classified", {
            "outgoing": outgoing,
            "busy_seconds": time.perf_counter() - started,
        }


def serve(channel_fd: int) -> None:
    """Run one process node over the pipe end at ``channel_fd``; returns on leave.

    The boot handshake comes first.  The coordinator sends two frames:
    the node's header (id, store path, shard count, lease epochs), then
    the pickled engine components, the same bytes for every node it
    starts, with the extractor over an empty page map (the pages an
    ingest needs travel in its frame, see :class:`NodeProtocol`).  The
    node opens the shared WAL file as a read-only mirror
    (``partition=`` its node id), builds its engine over a
    :class:`FencedStoreView`, and answers
    ``ready``.  A failure on the way (a component that does not
    unpickle here, a store that does not open) is answered with
    ``boot-error`` and ends the process with exit code 1, so the
    coordinator's constructor fails at once instead of waiting out its
    reply timeout.

    Then it serves protocol messages until ``shutdown``.  The node never
    writes the file.  A ready vote carries its store's drained journal,
    with the lease epochs it was written under, and the coordinator
    writes every voter's journal in one transaction at the barrier.
    ``abort`` rebuilds the mirror from the file: the wave failed, or the
    coordinator's write did.  A vanished coordinator (``EOFError``) ends
    the node, and a batch lands only if the coordinator holds its vote.
    """
    channel = multiprocessing.connection.Connection(channel_fd)
    try:
        header = pickle.loads(channel.recv_bytes())
        components = channel.recv_bytes()
    except (EOFError, OSError, KeyboardInterrupt):
        return  # the coordinator went away before this node booted
    try:
        engine_kwargs = pickle.loads(components)
        del components
        node_id, num_shards = header["node_id"], header["num_shards"]
        store = SqliteCatalogStore(header["store_path"], partition=node_id)
        store.bind(num_shards)
        lease = ShardLease(node_id=node_id, epochs=header["epochs"])
        view = FencedStoreView(store, lease)
        engine = SynthesisEngine(num_shards=num_shards, store=view, **engine_kwargs)
    except Exception as exc:  # noqa: BLE001 - shipped to coordinator
        channel.send(("boot-error", repr(exc)))
        raise SystemExit(1) from exc
    channel.send(("ready", None))
    # The coordinator sent the extractor over an empty page map; the
    # pages an ingest needs arrive in its frame.
    extractor = engine_kwargs.get("extractor")
    protocol = NodeProtocol(
        node_id, num_shards, engine, pages=None if extractor is None else extractor.web
    )
    try:
        while True:
            kind, payload = channel.recv()
            if kind == "abort":
                store.rollback()
                protocol.discard()
                channel.send(("aborted", None))
            elif kind == "lease":
                lease.epochs.clear()
                lease.epochs.update(payload["epochs"])
                store.refresh_shards(payload["refresh"])
                channel.send(("lease-ok", None))
            elif kind == "stats":
                # The node's whole registry snapshot (engine counters,
                # spans, its store series, the bridged transport stats)
                # rides the pipe back; the coordinator folds the live
                # nodes' fragments into one fleet view with
                # merge_snapshot (counters sum across processes).
                channel.send(("stats", get_registry().snapshot()))
            elif kind == "crash":
                _arm_fault(
                    store,
                    payload["operation"],
                    payload["countdown"],
                    payload.get("hard", True),
                )
                channel.send(("crash-armed", None))
            elif kind == "shutdown":
                engine.release_workers()
                store.close()
                channel.send(("bye", None))
                return
            else:
                reply_kind, reply = protocol.handle(kind, payload)
                if reply_kind == "vote" and reply.ready:
                    reply.journal = store.drain_journal(lease.epochs)
                channel.send((reply_kind, reply))
                if reply_kind == "vote":
                    store._fault_point("vote")
    except (EOFError, OSError, KeyboardInterrupt):
        # The coordinator went away: nothing more of this node lands.
        engine.release_workers()


def _arm_fault(
    store: SqliteCatalogStore, operation: str, countdown: int, hard: bool
) -> None:
    """Install a fault hook that fails this node at the Nth store op.

    ``operation`` is a store write (``"append_offers"``, ``"mark_seen"``,
    ``"set_product"``) or ``"vote"``, which fires right after the node
    sent a vote.  ``hard=True`` hard-kills the process with ``os._exit``
    — no reply, no cleanup — a genuine death at that point.
    ``hard=False`` raises instead (one-shot): at a store write the
    process survives, its engine fails mid-ingest, and the node votes
    not-ready — the alive-but-failed path whose partial journal the
    coordinator must abort.
    """
    remaining = {"count": countdown}

    def hook(name: str) -> None:
        """Fail (hard or soft) at the armed store operation."""
        if name != operation:
            return
        remaining["count"] -= 1
        if remaining["count"] == 0:
            if hard:
                os._exit(17)
            store.set_fault_hook(None)
            raise RuntimeError(f"injected node fault at {operation}")

    store.set_fault_hook(hook)
