"""Multi-node shard coordination with per-shard version fencing.

One :class:`~repro.runtime.engine.SynthesisEngine` scales vertically
(sharded executors); this module scales it *horizontally*: a
:class:`ShardCoordinator` partitions the category shards across N engine
nodes that cooperate over one shared :class:`~repro.runtime.state.CatalogStore`
— the paper's catalog-at-web-scale scenario, with the authoritative
state kept in a single fenced store and only compact per-batch deltas
moving between processes.

The safety mechanism is **epoch fencing**.  Every shard carries a
monotonic *epoch* in the store (distinct from the delta protocol's
per-dispatch *version* counter): granting a shard to a node bumps the
epoch, and the grant — a :class:`ShardLease` — records the epoch the
node was given.  Every cluster write a node issues travels through its
:class:`FencedStoreView`, carries the leased epoch, and is checked
against the store's authoritative epoch
(:meth:`~repro.runtime.state.CatalogStore.check_shard_epoch`).  A node
that lags, restarts, or loses a shard to reassignment therefore cannot
commit stale cluster state: its next write (or at latest its commit)
raises :class:`~repro.runtime.state.StaleEpochError`.

:class:`ClusterEngine` is the one coordinator: it exposes the same
``ingest`` / ``products`` / ``snapshot`` API as a single engine, routes
each batch to the owning nodes (category -> shard -> node), runs the
commit barrier, and handles membership:

* **join** (:meth:`ClusterEngine.add_node`) — the coordinator
  rebalances; moved shards get fresh epochs and their new owners pick
  the cluster state up from the shared store.
* **leave** (:meth:`ClusterEngine.remove_node`) — drain (ingest is a
  batch barrier, so the node is quiescent between batches and its state
  already lives in the shared store), reassign with fresh epochs, shut
  the node down.
* **crash** (:meth:`ClusterEngine.fence_node`, or automatic when a node
  fails mid-batch) — the wave is aborted back to the last commit
  barrier, the dead node's epochs are fenced, its shards are reassigned,
  and the in-flight batch is replayed on the survivors.  With a durable
  store the resumed catalog is byte-identical to an uninterrupted run.

Where the nodes live is a :class:`NodeTransport`, chosen by the public
class that is constructed: :class:`MultiNodeEngine` keeps them in this
process (:class:`InProcessTransport`: engines over fenced views of one
store, messages as direct calls);
:class:`~repro.runtime.procnode.MultiProcessEngine` runs each in its own
OS process over a shared WAL file.  The node half of the protocol
(:class:`NodeProtocol`) is the same code under both.

Determinism: batches commit through a single barrier per cluster ingest,
offers of one category always land on one node in stream order, and
fusion is content-deterministic — so the product set is byte-identical
to a single engine's for any node count, transport, and store backend
(the property-based equivalence suite pins this down).
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.extraction.extractor import WebPageAttributeExtractor
from repro.matching.correspondence import CorrespondenceSet
from repro.model.catalog import Catalog
from repro.model.offers import Offer
from repro.model.products import Product
from repro.obs import get_registry, merge_snapshot
from repro.runtime.delta import TransportStats
from repro.runtime.engine import EngineSnapshot, IngestReport, SynthesisEngine
from repro.runtime.executors import ShardExecutor
from repro.runtime.sharding import shard_for_category
from repro.runtime.state import (
    CatalogStore,
    ClusterId,
    ClusterState,
    StaleEpochError,
    resolve_store,
)
from repro.synthesis.category_classifier import TitleCategoryClassifier
from repro.synthesis.clustering import KeyAttributeClusterer
from repro.synthesis.fusion import CentroidValueFusion
from repro.synthesis.reconciliation import ReconciliationStats

__all__ = [
    "ShardLease",
    "FencedStoreView",
    "ShardCoordinator",
    "CategoryHinter",
    "LoadSkewWatcher",
    "NodeStats",
    "NodeDeadError",
    "NodeVote",
    "NodeProtocol",
    "ClusterNode",
    "NodeTransport",
    "ClusterEngine",
    "InProcessTransport",
    "MultiNodeEngine",
]


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
    lock; cluster-scoped writes (create/append/product/version) first
    present the leased epoch of the target shard for validation, so a
    fenced-out node fails fast instead of corrupting reassigned shards.
    Global writes are fenced at the commit barrier: ``commit`` validates
    the whole lease before anything is flushed.

    With ``deferred_commit=True`` (how every cluster node mounts
    it) the view's ``commit`` only validates — the cluster engine flushes
    the base store once per cluster batch, giving all nodes one shared
    commit barrier.
    """

    def __init__(
        self,
        base: CatalogStore,
        lease: ShardLease,
        lock: Optional[threading.RLock] = None,
        deferred_commit: bool = False,
    ) -> None:
        super().__init__()
        self._base = base
        self._lease = lease
        self._lock = lock if lock is not None else threading.RLock()
        self._deferred_commit = deferred_commit
        # The delta protocol keys worker-resident caches on the token:
        # views must share the base store's generation, or every node
        # restart would needlessly orphan worker state.
        self.token = base.token
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

        The view never counts commits itself: with ``deferred_commit``
        its ``commit`` only validates the lease, and either way the
        snapshot identity readers care about is the shared store's.  A
        node engine therefore sees the same counter a reader of the
        shared file would.
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
        """Validate the whole lease; flush the base unless deferred."""
        with self._lock:
            self.validate_lease()
            if not self._deferred_commit:
                self._base.commit()

    def close(self) -> None:
        """Views release nothing: the cluster owns the base store.

        Best-effort commit only — ``close`` must stay safe on any path
        (the ``CatalogStore`` contract), and a fenced node has nothing
        it is allowed to flush anyway.
        """
        try:
            self.commit()
        except StaleEpochError:
            pass

    @property
    def closed(self) -> bool:
        """Whether the shared base store can no longer accept writes."""
        return self._base.closed

    def worker_resync_path(self) -> Optional[str]:
        """The base store's durable resync location (or ``None``)."""
        return self._base.worker_resync_path()

    # -- changed-cluster commit journal (delegated) ----------------------------
    # Mutations delegate to the base store, so the touched-cluster set —
    # and therefore the journal written at the barrier — lives there;
    # the read API follows it.

    def journal_floor(self) -> int:
        """The shared base store's journal floor."""
        with self._lock:
            return self._base.journal_floor()

    def journal_entries(self, since: int):
        """The shared base store's per-commit deltas after ``since``."""
        with self._lock:
            return self._base.journal_entries(since)

    def compact_journal(self, retain_commits: int = 0, auto: bool = False) -> int:
        """Compact the shared base store's journal."""
        with self._lock:
            return self._base.compact_journal(retain_commits, auto=auto)

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

    # -- shard versions / epochs -----------------------------------------------

    def shard_version(self, shard_index: int) -> int:
        """The delta-protocol version counter of one shard."""
        with self._lock:
            return self._base.shard_version(shard_index)

    def advance_shard_version(self, shard_index: int) -> Tuple[int, int]:
        """Bump an owned shard's version counter (epoch-checked)."""
        with self._lock:
            self._check_shard(shard_index)
            return self._base.advance_shard_version(shard_index)

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


class ShardCoordinator:
    """Authoritative shard -> node assignment with epoch fencing.

    Assignment is deterministic — shard ``i`` belongs to the ``i mod N``-th
    node in node-id order — so any observer can recompute the layout, and
    membership changes move the minimal ``1/N`` slice of shards.  Every
    ownership change bumps the shard's epoch *in the store* before the
    new lease is granted: fence first, hand over second.
    """

    def __init__(self, store: CatalogStore, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self._store = store
        self._num_shards = num_shards
        self._assignment: Dict[int, str] = {}
        self._leases: Dict[str, ShardLease] = {}

    @property
    def num_shards(self) -> int:
        """Number of category shards under coordination."""
        return self._num_shards

    def nodes(self) -> List[str]:
        """Registered node ids, ascending."""
        return sorted(self._leases)

    def assignment(self) -> Dict[int, str]:
        """A copy of the current shard -> node-id map."""
        return dict(self._assignment)

    def node_for_shard(self, shard_index: int) -> str:
        """The node currently owning one shard."""
        return self._assignment[shard_index]

    def lease_for(self, node_id: str) -> ShardLease:
        """The live lease of one registered node."""
        return self._leases[node_id]

    def register_node(self, node_id: str, rebalance: bool = True) -> ShardLease:
        """Add a node and rebalance; returns its (live) lease.

        ``rebalance=False`` defers the layout change: callers registering
        several nodes at once (cluster bootstrap) apply one final
        :meth:`apply_layout` instead of re-fencing shards through every
        intermediate membership.
        """
        if node_id in self._leases:
            raise ValueError(f"node {node_id!r} is already registered")
        lease = ShardLease(node_id=node_id)
        self._leases[node_id] = lease
        if rebalance:
            self._rebalance()
        return lease

    def apply_layout(self) -> None:
        """(Re-)apply the deterministic modulo layout for the current
        membership — the explicit finish of deferred registrations."""
        self._rebalance()

    def retire_node(self, node_id: str, fence: bool = False) -> None:
        """Remove a node and reassign its shards (with fresh epochs).

        ``fence=False`` is the graceful leave: the departing lease is
        emptied so the node object, if kept around, knows it holds
        nothing.  ``fence=True`` is the crash path: the lease is left
        *stale* on purpose — a zombie still holding the object presents
        outdated epochs and every write it attempts is rejected.
        """
        if node_id not in self._leases:
            raise ValueError(f"node {node_id!r} is not registered")
        if len(self._leases) == 1:
            raise RuntimeError(
                f"cannot retire {node_id!r}: it is the last node of the cluster"
            )
        lease = self._leases.pop(node_id)
        if fence:
            # Flag first: the zombie's next write bounces before the
            # reassignment below even finishes.
            lease.fenced = True
        self._rebalance()
        if not fence:
            lease.epochs.clear()

    def rebalance_by_load(self, loads: Dict[int, float]) -> Dict[int, str]:
        """Reassign shards greedily by observed load (largest first).

        ``loads`` maps shard index to any monotone load measure (offers
        held, ingest seconds); unknown or zero-load shards weigh 1 so
        they still spread.  Deterministic: ties break on shard index and
        node id.  Every shard that changes owner is re-fenced exactly as
        in a membership change, so in-flight holders are cut off and the
        new owner's workers resync through the delta protocol.  Returns
        the new assignment.
        """
        nodes = self.nodes()
        bins = {node_id: 0.0 for node_id in nodes}
        order = sorted(
            range(self._num_shards),
            key=lambda shard: (-loads.get(shard, 0.0), shard),
        )
        for shard_index in order:
            target = min(nodes, key=lambda node_id: (bins[node_id], node_id))
            bins[target] += loads.get(shard_index, 0.0) or 1.0
            self._grant(shard_index, target)
        return self.assignment()

    def _grant(self, shard_index: int, owner: str) -> None:
        """Move one shard to ``owner`` (no-op if already there).

        Fence first: the epoch is bumped in the store before the new
        lease entry exists, so no previous holder can write in between.
        """
        previous = self._assignment.get(shard_index)
        if previous == owner:
            return
        epoch = self._store.advance_shard_epoch(shard_index)
        if previous is not None and previous in self._leases:
            self._leases[previous].epochs.pop(shard_index, None)
        self._leases[owner].epochs[shard_index] = epoch
        self._assignment[shard_index] = owner

    def _rebalance(self) -> None:
        """Recompute the deterministic modulo layout after a membership
        change (a load-aware layout can be re-applied afterwards via
        :meth:`rebalance_by_load`)."""
        nodes = self.nodes()
        for shard_index in range(self._num_shards):
            self._grant(shard_index, nodes[shard_index % len(nodes)])


class CategoryHinter:
    """Cheap per-offer routing hints derived from the real classifier.

    The full classifier scores every category's posterior for every
    title — that sweep is the dominant serial cost when a coordinator
    classifies whole batches before routing them.  A hinter instead
    looks each title feature up in a precomputed ``feature -> dominant
    category`` table (:meth:`TitleCategoryClassifier.routing_hints`) and
    majority-votes, which is an order of magnitude cheaper and needs no
    model state beyond one dict.

    Hints are allowed to be *wrong*: a cluster coordinator routes on the
    hint, the receiving node runs the real classifier, and misrouted
    offers are re-shipped to their true owner before ingest — so hint
    accuracy only affects transport volume, never the output bytes.
    """

    def __init__(self, table: Dict[str, str], features) -> None:
        """Wrap a ``feature -> category`` table and a feature extractor.

        ``features`` may be ``None`` (no trained model): every offer
        without a pre-assigned category then hints ``None`` and falls
        back to the coordinator's stable fallback node.
        """
        self._table = table
        self._features = features

    @classmethod
    def from_classifier(cls, classifier: Optional[TitleCategoryClassifier]) -> "CategoryHinter":
        """Build a hinter from a classifier; untrained/absent = empty table."""
        if classifier is None or not classifier.is_trained:
            return cls({}, None)
        return cls(classifier.routing_hints(), classifier.routing_features)

    def hint(self, offer: Offer) -> Optional[str]:
        """Best-effort category guess for ``offer`` (``None`` = no idea).

        Pre-assigned categories are authoritative (the node-side
        classifier keeps them too, so such hints are always right);
        otherwise the dominant categories of the title's features vote,
        ties breaking on the lexicographically smallest category so the
        guess is deterministic.
        """
        if offer.category_id is not None:
            return offer.category_id
        if self._features is None:
            return None
        votes: Dict[str, int] = {}
        for feature in self._features(offer.title):
            category = self._table.get(feature)
            if category is not None:
                votes[category] = votes.get(category, 0) + 1
        if not votes:
            return None
        return min(votes.items(), key=lambda item: (-item[1], item[0]))[0]


class LoadSkewWatcher:
    """Watches per-batch busy-time skew and fires automatic rebalances.

    The coordinator's modulo layout ignores how skewed the category
    distribution is; this watcher closes the manual-`rebalance` gap.
    After every cluster batch it observes each node's busy seconds; when
    the busiest node exceeds ``threshold`` times the mean for
    ``patience`` *consecutive* batches (the hysteresis — one noisy batch
    never triggers a layout change), it reports that a load-aware
    rebalance is due and resets.  Batches with fewer than two nodes or
    no measurable work reset the streak: there is nothing to balance.
    """

    def __init__(self, threshold: float = 1.5, patience: int = 2) -> None:
        """Configure the trigger.

        threshold:
            Minimum ``max(busy) / mean(busy)`` ratio that counts as a
            skewed batch; must be >= 1.0 (1.0 = any imbalance counts).
        patience:
            Consecutive skewed batches required before firing (>= 1).
        """
        if threshold < 1.0:
            raise ValueError(f"threshold must be >= 1.0, got {threshold}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.threshold = threshold
        self.patience = patience
        self._streak = 0

    @property
    def streak(self) -> int:
        """Consecutive skewed batches observed so far (diagnostics)."""
        return self._streak

    def observe(self, busy_by_node: Dict[str, float]) -> bool:
        """Record one batch's per-node busy seconds; ``True`` = rebalance.

        Returns whether the skew streak just reached ``patience`` (the
        caller should run a load-aware rebalance now); the streak resets
        on firing, so back-to-back triggers need the skew to persist for
        another full ``patience`` window after the layout change.
        """
        total = sum(busy_by_node.values())
        if len(busy_by_node) < 2 or total <= 0.0:
            self._streak = 0
            return False
        skew = max(busy_by_node.values()) * len(busy_by_node) / total
        if skew < self.threshold:
            self._streak = 0
            return False
        self._streak += 1
        if self._streak >= self.patience:
            self._streak = 0
            return True
        return False


@dataclass
class NodeStats:
    """Per-node accounting of one cluster engine."""

    node_id: str
    shards: List[int]
    offers_routed: int
    batches: int
    busy_seconds: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible summary."""
        return {
            "node_id": self.node_id,
            "shards": list(self.shards),
            "offers_routed": self.offers_routed,
            "batches": self.batches,
            "busy_seconds": round(self.busy_seconds, 4),
        }


class NodeDeadError(RuntimeError):
    """A node died (or stopped answering) mid-conversation."""

    def __init__(self, node_id: str, reason: str) -> None:
        """Record which node failed and how the failure was observed."""
        super().__init__(f"node {node_id!r} is dead: {reason}")
        self.node_id = node_id
        self.reason = reason


@dataclass
class NodeVote:
    """A node's answer to one ``ingest`` / ``apply`` message (its barrier vote)."""

    #: Whether the sub-batch was absorbed (into the node's journal, or
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

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["cause"]
        return state


# Votes have always crossed the node pipes pickled under this path
# (procnode re-exports the class, so the lookup resolves); moving it
# with the class would change every vote frame's bytes, which the
# gating benchmark pins as the proof the wire protocol is unchanged.
NodeVote.__module__ = "repro.runtime.procnode"


class NodeProtocol:
    """The node half of the cluster's message protocol, written once.

    ``ingest`` absorbs a routed sub-batch and answers with a
    :class:`NodeVote`.  The hint-routing rounds: ``classify`` runs the
    real classifier over a hinted, position-tagged sub-batch, retains
    what this node truly owns and answers with the misrouted remainder;
    ``apply`` merges the retained offers with the misroutes other nodes
    sent back, in original batch order, and ingests — so placement and
    order (and every output byte) match coordinator-side classification.

    A process node's pipe loop calls :meth:`handle` once per frame; an
    in-process node calls it directly.  Both clusters therefore run the
    same node-side code, whatever carries the messages.
    """

    def __init__(self, node_id: str, num_shards: int, engine: SynthesisEngine) -> None:
        self._node_id = node_id
        self._num_shards = num_shards
        self._engine = engine
        # Offers retained from a ``classify`` round, position-tagged,
        # until the following ``apply`` (or a :meth:`discard`).
        self._retained: List[Tuple[int, Offer]] = []

    def handle(self, kind: str, payload: object) -> Tuple[str, object]:
        """Answer one protocol message with its ``(reply kind, reply)``."""
        if kind == "ingest":
            return "vote", self._vote(payload)
        if kind == "classify":
            return self._classify(payload["offers"], payload["assignment"], payload["fallback"])
        if kind == "apply":
            merged = self._retained + list(payload["incoming"])
            self._retained = []
            merged.sort(key=lambda item: item[0])
            return "vote", self._vote([offer for _, offer in merged])
        return "error", f"unknown message kind {kind!r}"

    def discard(self) -> None:
        """Drop the retained offers of an aborted batch."""
        self._retained = []

    def _vote(self, sub_batch: Sequence[Offer]) -> NodeVote:
        """Ingest one routed sub-batch and build the vote reply."""
        started = time.perf_counter()
        report = cause = None
        try:
            report = self._engine.ingest(sub_batch)
        except Exception as exc:  # noqa: BLE001 - shipped to the coordinator
            cause = exc
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


class ClusterNode:
    """Coordinator-side handle of one cluster member.

    Carries the routing/timing accounting the coordinator keeps per
    node; a transport subclasses it with how a message reaches the node
    and how the node is told about leases and taken down.
    """

    def __init__(self, node_id: str, lease: ShardLease) -> None:
        self.node_id = node_id
        self.lease = lease
        self.offers_routed = 0
        self.batches = 0
        self.busy_seconds = 0.0
        #: The node engine's cumulative executor-payload accounting, as
        #: of its last vote.
        self.transport = TransportStats()

    def send(self, kind: str, payload: object = None) -> None:
        """Ship one protocol message; :class:`NodeDeadError` if the node is gone."""
        raise NotImplementedError

    def recv(self) -> Tuple[str, object]:
        """The reply to the last :meth:`send`; :class:`NodeDeadError` on death."""
        raise NotImplementedError

    def push_lease(self, gained: List[int]) -> None:
        """Tell the node its lease changed and which shards it ``gained``.

        Raises :class:`NodeDeadError` when the node cannot be told (the
        coordinator then fences it).
        """
        raise NotImplementedError

    def metrics(self) -> Dict[str, object]:
        """The node's metrics that this process's registry does not already hold."""
        return {}

    def shutdown(self) -> bool:
        """Graceful leave; ``False`` when the node did not acknowledge.

        A node that need not be asked is simply taken down.
        """
        self.destroy()
        return True

    def destroy(self) -> None:
        """Take the node down without asking (crash/fence path)."""
        raise NotImplementedError


class NodeTransport:
    """Where a cluster's nodes live — everything the coordinator cannot decide.

    One instance per cluster engine.  It opens the coordinator's store,
    starts nodes (:class:`ClusterNode` handles), and implements the
    commit barrier and the two consequences of the coordinator's store
    not being the nodes' store (aborting a failed wave, refreshing a
    stale mirror).  Constructors take ``(num_shards, engine_kwargs,
    **options)``; the options are the transport-specific constructor
    arguments of the public engine class that selects the transport.
    """

    #: The coordinator's store: epochs, dedup and the view surface.
    store: CatalogStore

    def __init__(self) -> None:
        #: Frame accounting of the transport's own wire (stays zero when
        #: messages are direct calls).
        self.stats = TransportStats()

    def start_node(
        self, node_id: str, lease: ShardLease, peers: Sequence[ClusterNode]
    ) -> ClusterNode:
        """Bring up the node that holds ``lease``; ``peers`` already run."""
        raise NotImplementedError

    def abort(self, answered: Sequence[ClusterNode], failures: Dict[str, BaseException]) -> bool:
        """Return a failed wave's nodes to the last commit barrier.

        ``answered`` are the nodes that replied in the wave (a ready
        voter and a failed-but-alive node alike hold partial state);
        nodes found dead while aborting are added to ``failures``.
        Returns whether the barrier state was restored — without that
        the batch cannot be replayed.
        """
        raise NotImplementedError

    def barrier_begin(self, voters: Sequence[ClusterNode], fresh: Sequence[Offer]) -> None:
        """Start committing the batch ``fresh`` that ``voters`` absorbed."""
        raise NotImplementedError

    def barrier_end(self) -> Dict[str, str]:
        """Finish the begun barrier; returns ``{node id: error}`` of lost voters.

        An empty result means the batch is durably committed.  With no
        barrier begun it only settles what a replay found already done.
        Raises when the store itself fails (nothing was committed).
        """
        raise NotImplementedError

    def leftover_batch(self) -> Optional[List[Offer]]:
        """The batch of a barrier a previous coordinator died in, if any."""
        raise NotImplementedError

    def refresh_mirror(self) -> None:
        """Fold what the nodes committed into the coordinator's store."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the coordinator's store (the nodes are already down)."""
        raise NotImplementedError


class _BatchFailure(Exception):
    """Internal: one dispatch wave failed; carries the node to fence."""

    def __init__(self, node_id: str, cause: BaseException, recoverable: bool) -> None:
        """Record the first failed node (id order), its cause, and
        whether the wave was rolled back to the barrier."""
        super().__init__(f"batch failed on node {node_id!r}: {cause}")
        self.node_id = node_id
        self.cause = cause
        self.recoverable = recoverable


class ClusterEngine:
    """The cluster coordinator: N synthesis engines behind one engine's API.

    Same ``ingest`` / ``products`` / ``snapshot`` surface as
    :class:`~repro.runtime.engine.SynthesisEngine` (the module docstring
    describes what happens behind it).  Everything that depends on
    *where* the nodes live goes through a :class:`NodeTransport`,
    selected by the public subclass that is constructed
    (:class:`MultiNodeEngine`,
    :class:`~repro.runtime.procnode.MultiProcessEngine`); this class is
    not instantiated directly.

    Parameters mirror the single engine's; the additional ones:

    num_nodes:
        Initial cluster size (nodes are named ``node-1`` ... ``node-N``;
        membership can change later via :meth:`add_node` /
        :meth:`remove_node` / :meth:`fence_node`).
    auto_recover:
        When a node fails mid-batch (or at the barrier) and the state of
        the last barrier can be restored, fence the node, reassign its
        shards and replay the batch on the survivors (default on).
    auto_rebalance_skew, auto_rebalance_patience:
        Automatic load-aware rebalancing: when set, a
        :class:`LoadSkewWatcher` observes every batch's per-node busy
        seconds and triggers :meth:`rebalance` once the busiest node
        exceeds ``auto_rebalance_skew`` times the mean for
        ``auto_rebalance_patience`` consecutive batches.  ``None``
        (default) keeps rebalancing manual.  Rebalancing never changes
        the synthesized products, only the layout.
    pipeline_depth:
        ``1`` (default) finishes every batch's commit barrier before
        ``ingest`` returns.  ``2`` leaves it open until the next ingest
        (after that batch's dedup and routing) or any view/membership
        call — see :meth:`flush` — so a barrier that takes real time
        overlaps the coordinator's serial work.  Products are
        byte-identical either way.
    hint_routing:
        Route each batch on a cheap :class:`CategoryHinter` guess and
        run the real per-offer classifier on the nodes instead of the
        coordinator.  Misrouted offers are re-shipped to their true
        owner before ingest with their batch positions, so per-node
        stream order — and every output byte — matches coordinator
        routing.
    **transport_options:
        The constructor arguments of the selected transport (store and
        executor choices; documented on the public subclasses).
    """

    #: The :class:`NodeTransport` subclass this engine's nodes live in.
    _transport_class: type

    def __init__(
        self,
        catalog: Catalog,
        correspondences: CorrespondenceSet,
        extractor: Optional[WebPageAttributeExtractor] = None,
        category_classifier: Optional[TitleCategoryClassifier] = None,
        clusterer: Optional[KeyAttributeClusterer] = None,
        fusion: Optional[CentroidValueFusion] = None,
        min_cluster_size: int = 1,
        num_nodes: int = 2,
        num_shards: int = 8,
        max_workers: Optional[int] = None,
        auto_recover: bool = True,
        auto_rebalance_skew: Optional[float] = None,
        auto_rebalance_patience: int = 2,
        pipeline_depth: int = 1,
        hint_routing: bool = False,
        **transport_options: object,
    ) -> None:
        """Open the store, compute the layout, start the nodes.

        Replays the batch of a barrier a previous coordinator died in
        (where the transport keeps one) before returning, so the resumed
        catalog equals an uninterrupted run's.
        """
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if pipeline_depth not in (1, 2):
            raise ValueError(f"pipeline_depth must be 1 or 2, got {pipeline_depth}")
        self._classifier = category_classifier
        self._num_shards = num_shards
        self._auto_recover = auto_recover
        self._skew_watcher: Optional[LoadSkewWatcher] = None
        if auto_rebalance_skew is not None:
            self._skew_watcher = LoadSkewWatcher(
                threshold=auto_rebalance_skew, patience=auto_rebalance_patience
            )
        self._pipeline_depth = pipeline_depth
        self._hint_routing = hint_routing
        self._hinter: Optional[CategoryHinter] = None
        self._transport: NodeTransport = self._transport_class(
            num_shards,
            dict(
                catalog=catalog,
                correspondences=correspondences,
                extractor=extractor,
                category_classifier=category_classifier,
                clusterer=clusterer,
                fusion=fusion,
                min_cluster_size=min_cluster_size,
                max_workers=max_workers,
            ),
            **transport_options,
        )
        self._store = self._transport.store
        self._coordinator = ShardCoordinator(self._store, num_shards)
        self._nodes: Dict[str, ClusterNode] = {}
        self._node_counter = itertools.count(1)
        self._retired_transport = TransportStats()
        # Hint/misroute counters, and the routing / barrier-wait split
        # of the coordinator's serial overhead the cluster bench reports.
        self._hint_stats = TransportStats()
        self._routing_seconds = 0.0
        self._barrier_seconds = 0.0
        # Coordinator-side dedup: offers absorbed since the store last
        # reflected every node commit.  Updated only once a batch's
        # barrier began, so a recovered or replayed batch is never
        # half-seen; the store's own seen set covers the rest.
        self._seen = set()
        self._dirty = False
        # The batch whose commit barrier is begun but not finished.
        self._pending: Optional[List[Offer]] = None
        self._closed = False
        # Observability: the coordinator publishes its *own* accounting
        # (retired nodes, hint counters, wire frames) plus the cached
        # fragments node_metrics() fetched — an in-process node engine
        # bridges its transport into the registry itself, and a scrape
        # must never talk to a node, so the cache is only as fresh as
        # the last explicit fetch.  Callback gauges hold a weakref only.
        registry = self._obs = get_registry()
        self._obs_cluster_batches = registry.counter(
            "cluster_batches_total",
            help="Micro-batches absorbed by cluster coordinators.",
        )
        self._node_metrics: Dict[str, object] = {}
        cluster_ref = weakref.ref(self)

        def _coordinator_provider() -> Dict[str, object]:
            cluster = cluster_ref()
            if cluster is None:
                return {}
            fragment = cluster._coordinator_stats().metrics_fragment()
            merge_snapshot(fragment, cluster._node_metrics)
            return fragment

        self._obs_provider = registry.add_provider(_coordinator_provider)

        def _gauge(name: str, help_text: str, read) -> None:
            def callback() -> float:
                cluster = cluster_ref()
                return 0.0 if cluster is None else read(cluster)

            registry.gauge(name, help=help_text, callback=callback)

        _gauge(
            "cluster_routing_seconds",
            "Coordinator time spent deduplicating and routing batches.",
            lambda cluster: cluster._routing_seconds,
        )
        _gauge(
            "cluster_barrier_wait_seconds",
            "Coordinator time spent waiting on commit barriers.",
            lambda cluster: cluster._barrier_seconds,
        )
        _gauge("cluster_nodes", "Live cluster members.", lambda cluster: len(cluster._nodes))
        try:
            # One layout pass for the whole initial membership, then
            # start each node with its final epochs: granting shards
            # once avoids fencing every shard through N-1 intermediate
            # layouts (on sqlite, one durable epoch flush per move).
            node_ids = [f"node-{next(self._node_counter)}" for _ in range(num_nodes)]
            for node_id in node_ids:
                self._coordinator.register_node(node_id, rebalance=False)
            self._coordinator.apply_layout()
            for node_id in node_ids:
                self._start(node_id)
            leftover = self._transport.leftover_batch()
            if leftover is not None:
                # Replay is idempotent — only the offers absent from
                # the store are re-dispatched.
                self._replay_offers(leftover)
        except BaseException:
            # Nothing started may outlive a failed constructor; what the
            # store durably holds (a commit intent) stays for the next open.
            self._closed = True
            self._teardown()
            raise

    def _start(self, node_id: str) -> None:
        """Start the node for an already-registered lease."""
        self._nodes[node_id] = self._transport.start_node(
            node_id, self._coordinator.lease_for(node_id), list(self._nodes.values())
        )

    def _ensure_open(self) -> None:
        """Refuse API calls after :meth:`close` or on a closed store."""
        if self._closed or self._store.closed:
            raise RuntimeError(
                "cannot use this cluster: it is closed "
                "(reopen the store path with a new cluster to resume)"
            )

    # -- membership ------------------------------------------------------------

    def node_ids(self) -> List[str]:
        """Ids of the live cluster members, ascending."""
        return sorted(self._nodes)

    @property
    def coordinator(self) -> ShardCoordinator:
        """The shard coordinator (assignment and fencing authority)."""
        return self._coordinator

    @property
    def store(self) -> CatalogStore:
        """The coordinator's catalog store (the shared one, or its connection to it)."""
        return self._store

    @property
    def skew_watcher(self) -> Optional[LoadSkewWatcher]:
        """The automatic-rebalance trigger, or ``None`` when manual."""
        return self._skew_watcher

    def _push_layout(self, before: Dict[int, str], exclude: Optional[str] = None) -> List[str]:
        """Tell the members what a layout change means for each of them.

        ``before`` is the shard assignment prior to the change; each
        node learns which shards it *gained* — state their previous
        owner committed, which a node with a private mirror has never
        seen.  ``exclude`` skips a node that is already current (a
        freshly started joiner).  Returns the ids of nodes that could
        not be told, for :meth:`_fence_unreachable`.
        """
        after = self._coordinator.assignment()
        dead: List[str] = []
        for node_id, node in sorted(self._nodes.items()):
            if node_id == exclude:
                continue
            gained = [
                shard
                for shard, owner in after.items()
                if owner == node_id and before.get(shard) != node_id
            ]
            try:
                node.push_lease(sorted(gained))
            except NodeDeadError:
                dead.append(node_id)
        return dead

    def _fence_unreachable(self, pending: List[str]) -> None:
        """Fence every listed node, cascading onto newly found corpses.

        Each fence reassigns shards and pushes the new layout; a push
        can itself discover another dead node, which joins the queue —
        so one call settles the membership no matter how many nodes
        died together.  Raises ``RuntimeError`` if fencing would remove
        the last member.
        """
        queue = list(pending)
        while queue:
            target = queue.pop(0)
            if target not in self._nodes:
                continue
            node = self._retire(target)
            before = self._coordinator.assignment()
            self._coordinator.retire_node(target, fence=True)
            node.destroy()
            queue.extend(self._push_layout(before))

    def add_node(self, node_id: Optional[str] = None) -> str:
        """Join a node: rebalance, re-fence, start it, resync the others.

        The moved shards' cluster state needs no explicit transfer — it
        lives in the shared store, which the newcomer opens (or, in
        process, shares) *after* the epochs were bumped, so it starts
        current.  The survivors learn their new leases: the modulo
        layout can move shards *between* survivors on a join (shard i ->
        node i mod N reshuffles most owners).
        """
        self._ensure_open()
        self.flush()
        if node_id is None:
            node_id = f"node-{next(self._node_counter)}"
        before = self._coordinator.assignment()
        self._coordinator.register_node(node_id)
        self._start(node_id)
        self._fence_unreachable(self._push_layout(before, exclude=node_id))
        return node_id

    def _member(self, node_id: str) -> ClusterNode:
        """The live member ``node_id`` (``ValueError`` when there is none)."""
        if node_id not in self._nodes:
            raise ValueError(f"node {node_id!r} is not a cluster member")
        return self._nodes[node_id]

    def _retire(self, node_id: str) -> ClusterNode:
        """Drop a member from the books (shared by leave/fence paths)."""
        self._member(node_id)
        if len(self._nodes) == 1:
            raise RuntimeError(
                f"cannot retire {node_id!r}: it is the last node of the cluster"
            )
        node = self._nodes.pop(node_id)
        self._retired_transport.merge(node.transport)
        return node

    def remove_node(self, node_id: str) -> None:
        """Gracefully leave: shut the node down, reassign, resync.

        Between barriers the node is quiescent and everything it
        produced is committed in the shared store, so the handoff is
        pure bookkeeping: fresh epochs for its shards, and each new
        owner learns which shards it gained.  A node that does not
        acknowledge the shutdown is not trusted to be quiescent: removal
        then degrades to the fence path (stale lease, store-side write
        rejection), exactly as :meth:`fence_node`.
        """
        self._ensure_open()
        self.flush()
        node = self._retire(node_id)
        graceful = node.shutdown()
        before = self._coordinator.assignment()
        self._coordinator.retire_node(node_id, fence=not graceful)
        self._fence_unreachable(self._push_layout(before))

    def fence_node(self, node_id: str) -> None:
        """Forcibly fence a node (crash path, or an operator evicting it).

        The node's shards get fresh epochs — durable and immediate on a
        durable store — and new owners; its lease is left stale, so any
        write a zombie still attempts raises
        :class:`~repro.runtime.state.StaleEpochError`.  Cascades:
        another node found dead while the new layout is pushed is fenced
        in the same call.
        """
        self._ensure_open()
        self._member(node_id)
        # Finish an open barrier first: no commit ack may be in flight
        # when the survivors are told their new leases.  If that
        # barrier's own recovery already fenced the target, the fence
        # below is a no-op.
        self.flush()
        self._fence_unreachable([node_id])

    def rebalance(self, loads: Optional[Dict[int, float]] = None) -> Dict[int, str]:
        """Reassign shards by load between batches; returns the layout.

        With ``loads=None`` the observed load is read from the shared
        store (offers held per shard, including everything the nodes
        committed) — the modulo layout membership starts from ignores
        how skewed the category distribution is, and a warm cluster can
        pull its busiest shards apart this way.  Moved shards are
        re-fenced and handed over exactly like a membership change.
        """
        self._ensure_open()
        self.flush()
        if loads is None:
            loads = {}
            for _, state in self._view().iter_clusters():
                loads[state.shard_index] = loads.get(state.shard_index, 0.0) + state.size()
        before = self._coordinator.assignment()
        layout = self._coordinator.rebalance_by_load(loads)
        self._fence_unreachable(self._push_layout(before))
        return layout

    # -- routing ---------------------------------------------------------------

    def _require_classifier(self, offers: Sequence[Offer]) -> None:
        """Raise ``ValueError`` when offers lack categories nothing can assign."""
        if any(offer.category_id is None for offer in offers) and (
            self._classifier is None or not self._classifier.is_trained
        ):
            raise ValueError("offers without a category require a trained category classifier")

    def _route_categories(self, offers: Sequence[Offer]) -> List[Offer]:
        """Assign categories for routing, once per offer.

        The classifier is per-offer and deterministic, and node engines
        keep pre-assigned categories, so classification happens once per
        offer no matter how many nodes the batch fans out to.
        """
        started = time.perf_counter()
        with self._obs.span("cluster.route"):
            self._require_classifier(offers)
            categorised = list(offers)
            if any(offer.category_id is None for offer in offers):
                categorised = self._classifier.assign_categories(categorised)
        self._routing_seconds += time.perf_counter() - started
        return categorised

    def _owner(self, category_id: Optional[str], fallback: str) -> str:
        """The node owning a category's shard.

        Offers without a category have no shard: they only need global
        bookkeeping (seen-set, reconciliation counters), which lands the
        same wherever it runs — they go to the stable ``fallback`` node.
        """
        if category_id is None:
            return fallback
        return self._coordinator.node_for_shard(shard_for_category(category_id, self._num_shards))

    def _partition(self, categorised: Sequence[Offer]) -> Dict[str, List[Offer]]:
        """Group offers by owning node, preserving stream order per node."""
        fallback = self.node_ids()[0]
        routed: Dict[str, List[Offer]] = {}
        for offer in categorised:
            routed.setdefault(self._owner(offer.category_id, fallback), []).append(offer)
        return routed

    # -- ingest ----------------------------------------------------------------

    def ingest(self, offers: Sequence[Offer]) -> IngestReport:
        """Absorb one micro-batch across the cluster.

        Same contract as the single engine's ``ingest``: idempotent per
        offer id, one commit barrier per batch — a crash loses at most
        the cluster batch in flight.  A node that fails before voting
        (killed, crashed, engine error) triggers recovery when
        ``auto_recover`` holds and the barrier state can be restored:
        the wave is aborted, the node is fenced, and the batch replays
        on the new layout — products stay byte-identical to an
        uninterrupted run.  Raises the node-side error when recovery is
        disabled or impossible; the store is still returned to the
        barrier where the backend allows, so the caller can retry.

        With ``pipeline_depth=2`` the previous batch's barrier is
        finished here, *after* this batch's dedup and routing — the
        overlap that hides the coordinator's serial work behind it.
        """
        self._ensure_open()
        report = IngestReport(offers_in_batch=len(offers))
        routing_started = time.perf_counter()
        fresh: List[Offer] = []
        batch_ids = set()
        for offer in offers:
            if (
                offer.offer_id in self._seen
                or offer.offer_id in batch_ids
                or self._store.is_seen(offer.offer_id)
            ):
                continue
            batch_ids.add(offer.offer_id)
            fresh.append(offer)
        report.offers_duplicate = report.offers_in_batch - len(fresh)
        self._routing_seconds += time.perf_counter() - routing_started
        if not fresh:
            return report

        # Classify before finishing the previous batch's barrier: this
        # is the pipelining overlap.  (In hint mode there is nothing
        # heavy to overlap here; classification runs on the nodes.)
        categorised = None if self._hint_routing else self._route_categories(fresh)
        # The previous barrier must land before this batch mutates any
        # node: recovery returns to the last barrier, and that barrier
        # must never straddle two batches.
        self.flush()
        busy_before = {node_id: node.busy_seconds for node_id, node in self._nodes.items()}
        reports = self._dispatch_with_retry(fresh, categorised)

        for _, node_report in sorted(reports.items()):
            report.merge(node_report)
        # merge() summed the sub-batch sizes; the batch is the caller's.
        report.offers_in_batch = len(offers)
        self._begin_barrier(sorted(reports), fresh)
        if self._pipeline_depth == 1:
            self.flush()
        self._obs_cluster_batches.inc()
        if self._skew_watcher is not None:
            # Strictly after the barrier began: a triggered rebalance
            # behaves exactly like a manual between-batches one.
            busy = {
                node_id: node.busy_seconds - busy_before.get(node_id, 0.0)
                for node_id, node in self._nodes.items()
            }
            if self._skew_watcher.observe(busy):
                self.rebalance()
        return report

    def _dispatch_with_retry(
        self, fresh: Sequence[Offer], categorised: Optional[List[Offer]] = None
    ) -> Dict[str, IngestReport]:
        """Dispatch one batch, fencing and re-dispatching on node failure.

        Returns the voters' reports by node id.  ``categorised`` carries
        a pre-computed classification (the pipelined overlap); it stays
        valid across retries because classification does not depend on
        the layout — only the partition is recomputed against the
        post-fence assignment (deterministic, so an un-fenced replay
        routes identically).
        """
        attempts = 0
        max_attempts = len(self._nodes) + 1
        while True:
            try:
                if self._hint_routing:
                    return self._dispatch_hint(fresh)
                if categorised is None:
                    categorised = self._route_categories(fresh)
                routed = self._partition(categorised)
                return self._vote_round(
                    "ingest", routed, {node_id: len(batch) for node_id, batch in routed.items()}
                )
            except _BatchFailure as failure:
                attempts += 1
                if (
                    not self._auto_recover
                    or not failure.recoverable
                    or len(self._nodes) <= 1
                    or attempts >= max_attempts
                ):
                    raise failure.cause
                self._fence_unreachable([failure.node_id])

    def _round(
        self, kind: str, payloads: Dict[str, object], expected: str
    ) -> Tuple[Dict[str, object], List[str], Dict[str, BaseException]]:
        """One message round: ``kind`` to every listed node, one reply each.

        All sends go out before any receive, so nodes that run on their
        own genuinely overlap.  Returns the ``expected``-kind replies by
        node id, the ids of every node that answered at all, and the
        failures (dead nodes, wrong reply kinds) by node id.
        """
        failures: Dict[str, BaseException] = {}
        dispatched: List[str] = []
        for node_id in sorted(payloads):
            try:
                self._nodes[node_id].send(kind, payloads[node_id])
                dispatched.append(node_id)
            except NodeDeadError as exc:
                failures[node_id] = exc
        replies: Dict[str, object] = {}
        answered: List[str] = []
        for node_id in dispatched:
            try:
                reply_kind, reply = self._nodes[node_id].recv()
            except NodeDeadError as exc:
                failures[node_id] = exc
                continue
            answered.append(node_id)
            if reply_kind == expected:
                replies[node_id] = reply
            else:
                failures[node_id] = RuntimeError(
                    f"node {node_id!r} answered {reply_kind!r} to {kind!r}: {reply}"
                )
        return replies, answered, failures

    def _fail_round(self, answered: List[str], failures: Dict[str, BaseException]) -> None:
        """Abort a failed wave and raise its first failure (node-id order)."""
        nodes = [self._nodes[node_id] for node_id in answered]
        recoverable = self._transport.abort(nodes, failures)
        first = sorted(failures)[0]
        raise _BatchFailure(first, failures[first], recoverable)

    def _vote_round(
        self, kind: str, payloads: Dict[str, object], routed_counts: Dict[str, int]
    ) -> Dict[str, IngestReport]:
        """The ingesting round of a wave: collect one vote per node.

        Returns the voters' reports on success; on any failure the wave
        is aborted and :class:`_BatchFailure` carries the first failed
        node for the recovery loop.
        """
        votes, answered, failures = self._round(kind, payloads, "vote")
        for node_id, vote in votes.items():
            node = self._nodes[node_id]
            # Busy time accrues even for an attempt that is later rolled
            # back (the node really did spend it); the routing counters
            # below are applied only once the whole wave succeeded, so a
            # recovery replay never double-counts offers.
            node.busy_seconds += vote.busy_seconds
            node.transport = vote.transport
            if not vote.ready:
                failures[node_id] = vote.cause or RuntimeError(
                    f"node {node_id!r} failed mid-batch: {vote.error}"
                )
        if failures:
            self._fail_round(answered, failures)
        for node_id, count in routed_counts.items():
            node = self._nodes[node_id]
            node.offers_routed += count
            node.batches += 1
        return {node_id: vote.report for node_id, vote in votes.items()}

    def _dispatch_hint(self, fresh: Sequence[Offer]) -> Dict[str, IngestReport]:
        """Hint-routed dispatch: nodes classify, misroutes re-ship, owners apply.

        Two rounds instead of one (the node half is
        :class:`NodeProtocol`): ``classify`` ships each hinted,
        position-tagged sub-batch plus the shard assignment to its
        guessed owner and collects the offers that belong elsewhere;
        ``apply`` delivers those to their true owners, which ingest.
        The per-offer classification sweep — the dominant serial cost
        of coordinator routing — thus runs on the nodes, and only
        misrouted offers are shipped twice.
        """
        # Same error contract as coordinator routing, checked up front
        # so no node sees a doomed batch.
        self._require_classifier(fresh)
        if self._hinter is None:
            self._hinter = CategoryHinter.from_classifier(self._classifier)
        routing_started = time.perf_counter()
        fallback = self.node_ids()[0]
        # The position tag is what keeps hint routing byte-identical:
        # every true owner re-sorts its merged offers by position,
        # recovering exactly the per-node stream order coordinator-side
        # routing would have produced.
        hinted: Dict[str, List[Tuple[int, Offer]]] = {}
        for position, offer in enumerate(fresh):
            owner = self._owner(self._hinter.hint(offer), fallback)
            hinted.setdefault(owner, []).append((position, offer))
        # Every fresh offer is hint-routed; with the misroute counter
        # below this feeds the hint_accuracy gauge.
        self._hint_stats.hinted_offers += len(fresh)
        assignment = {
            shard: self._coordinator.node_for_shard(shard) for shard in range(self._num_shards)
        }
        self._routing_seconds += time.perf_counter() - routing_started
        classified, answered, failures = self._round(
            "classify",
            {
                node_id: {"offers": positioned, "assignment": assignment, "fallback": fallback}
                for node_id, positioned in hinted.items()
            },
            "classified",
        )
        incoming: Dict[str, List[Tuple[int, Offer]]] = {}
        owned_counts: Dict[str, int] = {}
        for node_id, reply in classified.items():
            self._nodes[node_id].busy_seconds += reply["busy_seconds"]
            moved = 0
            for destination, items in reply["outgoing"].items():
                incoming.setdefault(destination, []).extend(items)
                moved += len(items)
            self._hint_stats.misrouted_offers += moved
            owned_counts[node_id] = len(hinted[node_id]) - moved
        if failures:
            self._fail_round(answered, failures)
        payloads: Dict[str, object] = {}
        routed_counts: Dict[str, int] = {}
        for node_id in {n for n, count in owned_counts.items() if count} | set(incoming):
            items = sorted(incoming.get(node_id, ()), key=lambda item: item[0])
            payloads[node_id] = {"incoming": items}
            routed_counts[node_id] = owned_counts.get(node_id, 0) + len(items)
        return self._vote_round("apply", payloads, routed_counts)

    # -- commit barrier --------------------------------------------------------

    def _begin_barrier(self, voters: List[str], fresh: Sequence[Offer]) -> None:
        """Start the commit barrier of a batch its ``voters`` absorbed."""
        self._transport.barrier_begin([self._nodes[node_id] for node_id in voters], fresh)
        self._pending = list(fresh)
        self._seen.update(offer.offer_id for offer in fresh)
        self._dirty = True

    def flush(self) -> None:
        """Finish the begun commit barrier (no-op when none is open).

        After this returns, every previously ingested batch is durably
        committed.  ``ingest`` at ``pipeline_depth=1``, the next ingest
        at depth 2, and every view or membership operation flush
        implicitly, so the open window is invisible to callers — reads
        always observe fully committed state.  A failed store flush is
        a *store* failure, not a node crash: fencing cannot help, so the
        batch is discarded (where the backend allows) and the error
        surfaces — the caller may retry the whole batch.  Voters lost
        at the barrier are fenced and what they did not commit replays.
        """
        if self._pending is None:
            return
        offers, self._pending = self._pending, None
        try:
            barrier_started = time.perf_counter()
            try:
                with self._obs.span("cluster.commit_barrier"):
                    lost = self._transport.barrier_end()
            finally:
                self._barrier_seconds += time.perf_counter() - barrier_started
            if lost:
                self._recover_barrier(offers, lost)
        except Exception:
            # The batch did not (provably) land: a retry must not be
            # deduplicated away coordinator-side.
            self._seen.difference_update(offer.offer_id for offer in offers)
            raise

    def _recover_barrier(self, offers: List[Offer], lost: Dict[str, str]) -> None:
        """A commit round lost voters: fence them and replay what is missing.

        Only possible because the transport made the batch durable
        before the round and every node's commit is atomic: after
        fencing, the coordinator refreshes its store — the only
        authority on which sub-batches landed — and re-runs the batch's
        *unseen* offers through a normal dispatch + barrier.  Node-side
        dedup could not replace the refresh: fencing just moved shards,
        and a surviving node's mirror may predate another node's
        committed sub-batch.
        """
        if not self._auto_recover:
            raise RuntimeError(
                "cluster commit barrier failed partway — the shared store "
                "holds the last fully-voted state of the nodes that "
                "flushed, plus this batch's durable commit intent; reopen "
                "the store path (or keep auto_recover on) to replay it: "
                + "; ".join(lost.values())
            )
        self._fence_unreachable([node_id for node_id in lost if node_id in self._nodes])
        self._refresh_store()
        self._replay_offers(offers)

    def _replay_offers(self, offers: Sequence[Offer]) -> None:
        """Re-dispatch and durably commit whichever offers never landed.

        Shared by barrier recovery and the startup replay of a leftover
        batch; idempotent because the store's seen set filters first.
        """
        remainder = [offer for offer in offers if not self._store.is_seen(offer.offer_id)]
        if not remainder:
            self._transport.barrier_end()
            return
        reports = self._dispatch_with_retry(remainder)
        self._begin_barrier(sorted(reports), remainder)
        self.flush()

    # -- views ----------------------------------------------------------------

    def _refresh_store(self) -> None:
        """Make the coordinator's store reflect every node commit.

        Once refreshed, the store's own seen set covers everything the
        side set accumulated, so the side set is dropped — the
        coordinator never holds the stream's offer ids twice.
        """
        self._transport.refresh_mirror()
        self._dirty = False
        self._seen.clear()

    def _view(self) -> CatalogStore:
        """The coordinator's store, open, flushed and current."""
        self._ensure_open()
        self.flush()
        if self._dirty:
            self._refresh_store()
        return self._store

    def products(self) -> List[Product]:
        """All current synthesized products (same order as a single engine)."""
        return self._view().sorted_products()

    def num_clusters(self) -> int:
        """Number of clusters tracked so far (including sub-threshold ones)."""
        return self._view().num_clusters()

    def snapshot(self) -> EngineSnapshot:
        """A consistent summary of everything ingested so far."""
        store = self._view()
        return EngineSnapshot(
            products=store.sorted_products(),
            num_clusters=store.num_clusters(),
            offers_ingested=store.num_seen(),
            reconciliation_stats=store.reconciliation_stats(),
            assigned_categories=store.assigned_categories(),
        )

    def _coordinator_stats(self) -> TransportStats:
        """The coordinator's own accounting: retired nodes, hints, wire frames."""
        merged = TransportStats()
        for part in (self._retired_transport, self._hint_stats, self._transport.stats):
            merged.merge(part)
        return merged

    def transport_stats(self) -> TransportStats:
        """Cluster-wide transport accounting: executor payloads (all
        nodes, ever), hint counters and wire frames."""
        merged = self._coordinator_stats()
        for node in self._nodes.values():
            merged.merge(node.transport)
        return merged

    def node_metrics(self) -> Dict[str, object]:
        """Fetch and merge the metrics the live nodes hold outside this process.

        One explicit round per node, after finishing an open barrier so
        it can never race a pending commit ack — which is also why this
        runs on demand (the benches call it right before ``close``)
        rather than at scrape time: the merged result is cached, and
        the registry provider serves the cache.  In-process nodes
        contribute nothing (their counters already live in this
        registry); dead nodes simply drop out of the merge.
        """
        self._ensure_open()
        self.flush()
        merged: Dict[str, object] = {}
        for _, node in sorted(self._nodes.items()):
            merge_snapshot(merged, node.metrics())
        self._node_metrics = merged
        return merged

    @property
    def routing_seconds(self) -> float:
        """Coordinator time spent deduplicating, classifying and routing."""
        return self._routing_seconds

    @property
    def barrier_wait_seconds(self) -> float:
        """Coordinator time spent waiting on commit barriers."""
        return self._barrier_seconds

    @property
    def coordinator_seconds(self) -> float:
        """Total serial coordinator overhead (routing + barrier waits)."""
        return self._routing_seconds + self._barrier_seconds

    def node_stats(self) -> List[NodeStats]:
        """Per-node routing/timing accounting, in node-id order."""
        return [
            NodeStats(
                node_id=node.node_id,
                shards=node.lease.shards(),
                offers_routed=node.offers_routed,
                batches=node.batches,
                busy_seconds=node.busy_seconds,
            )
            for _, node in sorted(self._nodes.items())
        ]

    # -- lifecycle -------------------------------------------------------------

    def _teardown(self) -> None:
        """Stop every node and release the store and the metrics provider."""
        self._obs.remove_provider(self._obs_provider)
        for _, node in sorted(self._nodes.items()):
            node.shutdown()
        self._nodes = {}
        self._transport.close()

    def close(self) -> None:
        """Finish the open barrier, shut every node down, release the store.

        Idempotent.  Every later ``ingest``, view or membership call
        raises ``RuntimeError``.  A final barrier that fails is
        reported, but teardown proceeds regardless; what the store
        durably holds of it is replayed by the next cluster opened over
        the same store path.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if not self._store.closed:
                self.flush()
        finally:
            self._teardown()

    def __enter__(self) -> "ClusterEngine":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        """Context-manager exit: tear the cluster down."""
        self.close()


class _EngineNode(ClusterNode):
    """An in-process member: an engine over a fenced view of the shared store."""

    def __init__(
        self, node_id: str, lease: ShardLease, view: FencedStoreView, engine: SynthesisEngine
    ) -> None:
        super().__init__(node_id, lease)
        self.view = view
        self.engine = engine
        self.protocol = NodeProtocol(node_id, view.num_shards, engine)
        self._reply: Optional[Tuple[str, object]] = None

    def send(self, kind: str, payload: object = None) -> None:
        """Run the message on the node right away; the reply waits for :meth:`recv`."""
        self._reply = self.protocol.handle(kind, payload)

    def recv(self) -> Tuple[str, object]:
        """Hand over the reply the last :meth:`send` produced."""
        reply, self._reply = self._reply, None
        return reply

    def push_lease(self, gained: List[int]) -> None:
        """Nothing to push: the lease object is shared and so is the store."""

    def destroy(self) -> None:
        """Release the engine's workers and its metrics provider.

        The coordinator's retired totals carry the engine's counters
        from here on; a provider left registered would count the same
        frames twice.
        """
        self.engine.detach_metrics_provider()
        self.engine.release_workers()


class InProcessTransport(NodeTransport):
    """Nodes as engines in this process, writing through fenced views.

    Every node writes straight into the one shared store (under one
    cluster lock, through its :class:`FencedStoreView`), so a message is
    a direct call, the barrier is one store commit, and the
    coordinator's store is always current.  Dispatch is sequential: a
    ``send`` runs the node to completion.
    """

    def __init__(
        self,
        num_shards: int,
        engine_kwargs: Dict[str, object],
        store: Union[str, CatalogStore, None] = None,
        store_path: Optional[str] = None,
        executor: Union[str, ShardExecutor, None] = "serial",
    ) -> None:
        super().__init__()
        self._owns_store = not isinstance(store, CatalogStore)
        self.store = resolve_store(store, path=store_path)
        self.store.bind(num_shards)
        self._num_shards = num_shards
        self._engine_kwargs = dict(engine_kwargs, executor=executor)
        self._lock = threading.RLock()

    def start_node(
        self, node_id: str, lease: ShardLease, peers: Sequence[ClusterNode]
    ) -> _EngineNode:
        """Build the node's fenced view and engine."""
        view = FencedStoreView(self.store, lease, self._lock, deferred_commit=True)
        engine = SynthesisEngine(num_shards=self._num_shards, store=view, **self._engine_kwargs)
        return _EngineNode(node_id, lease, view, engine)

    def _restore_barrier(self) -> bool:
        """Roll the shared store back to the last commit, where the backend can."""
        if self.store.supports_rollback and not self.store.closed:
            self.store.rollback()
            return True
        return False

    def abort(self, answered: Sequence[ClusterNode], failures: Dict[str, BaseException]) -> bool:
        """Drop the wave's retained offers and roll the shared store back."""
        for node in answered:
            node.protocol.discard()
        return self._restore_barrier()

    def barrier_begin(self, voters: Sequence[ClusterNode], fresh: Sequence[Offer]) -> None:
        """Nothing to start: the voters already wrote into the shared store."""

    def barrier_end(self) -> Dict[str, str]:
        """The barrier itself: one commit of the shared store."""
        try:
            self.store.commit()
        except Exception:
            self._restore_barrier()
            raise
        return {}

    def leftover_batch(self) -> Optional[List[Offer]]:
        """Never: a store commit is atomic, no barrier is left half-done."""
        return None

    def refresh_mirror(self) -> None:
        """Nothing to refresh: the nodes write into the coordinator's store."""

    def close(self) -> None:
        """Close an owned store; commit (and leave open) a caller's."""
        if self._owns_store:
            self.store.close()
        elif not self.store.closed:
            self.store.commit()


class MultiNodeEngine(ClusterEngine):
    """The in-process cluster: N engines over one shared, fenced store.

    The double of :class:`~repro.runtime.procnode.MultiProcessEngine`
    that needs no processes and no durable store: the same coordinator
    and the same node-side protocol code, with messages as direct calls
    and every node writing through its :class:`FencedStoreView` into one
    store.  Nodes run one after the other under one cluster lock, so it
    buys no throughput — it is what the fencing, routing, recovery and
    equivalence properties are tested (and debugged) against.

    Parameters are :class:`ClusterEngine`'s, plus:

    store, store_path:
        The shared store, as for the single engine (a backend name, an
        instance the caller keeps owning, or ``None`` for memory).
    executor:
        As for the single engine; an executor given by name is built
        *per node*, so ``executor="process"`` gives every node its own
        worker pool.
    """

    _transport_class = InProcessTransport

    def node_view(self, node_id: str) -> FencedStoreView:
        """The fenced store view of one live node (tests, diagnostics)."""
        return self._member(node_id).view
