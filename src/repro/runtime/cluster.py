"""Multi-node shard coordination with per-shard epoch fencing.

One :class:`~repro.runtime.engine.SynthesisEngine` scales vertically
(sharded executors); this module scales it *horizontally*: a
:class:`ShardCoordinator` partitions the category shards across N engine
nodes that cooperate over one shared :class:`~repro.runtime.state.CatalogStore`
— the paper's catalog-at-web-scale scenario, with the authoritative
state kept in a single fenced store and only routed sub-batches and
their store journals moving between processes.

The safety mechanism is **epoch fencing**.  Every shard carries a
monotonic *epoch* in the store: granting a shard to a node bumps the
epoch, and the grant — a :class:`ShardLease` — records the epoch the
node was given.  Every batch a node applies travels through its
:class:`FencedStoreView`'s one write, ``apply``, which presents the
leased epoch of each shard the batch touches for a check against the
store's authoritative epoch
(:meth:`~repro.runtime.state.CatalogStore.check_shard_epoch`).  A node
that lags, restarts, or loses a shard to reassignment therefore cannot
commit stale cluster state: its next write, or at the latest the
barrier write of its batch (where a process node's journal epochs are
checked), raises :class:`~repro.runtime.state.StaleEpochError`.

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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.extraction.extractor import WebPageAttributeExtractor
from repro.matching.correspondence import CorrespondenceSet
from repro.model.catalog import Catalog
from repro.model.offers import Offer
from repro.model.products import Product
from repro.obs import get_registry
from repro.runtime.engine import EngineSnapshot, IngestReport, SynthesisEngine, TransportStats
from repro.runtime.node import FencedStoreView, NodeProtocol, NodeVote, ShardLease
from repro.runtime.sharding import shard_for_category
from repro.runtime.state import CatalogStore, resolve_store
from repro.synthesis.category_classifier import TitleCategoryClassifier
from repro.synthesis.clustering import KeyAttributeClusterer
from repro.synthesis.fusion import CentroidValueFusion

__all__ = [
    "ShardLease",
    "FencedStoreView",
    "ShardCoordinator",
    "CategoryHinter",
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
        held, ingest seconds); unknown or zero-load shards are placed
        last and weigh 1 each, so they fill the lightest node until it
        catches up with the measured loads — they do not spread: after
        one batch that touched a single shard of 40 offers, every other
        shard lands on one node.  Deterministic: ties break on shard
        index and node id.  Every shard that changes owner is re-fenced
        exactly as in a membership change, so in-flight holders are cut
        off.  Returns the new assignment.
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
    barrier's one store commit, the abort of a failed wave, and what a
    node needs sent beside its offers (:meth:`pages_for`).  The
    coordinator reads its views from the store's committed rows, so no
    transport keeps the coordinator's mirror current.  Constructors take ``(num_shards,
    engine_kwargs, **options)``; the options are the transport-specific
    constructor arguments of the public engine class that selects the
    transport.
    """

    #: The coordinator's store: epochs, dedup and the view surface.
    store: CatalogStore

    def __init__(self) -> None:
        #: Frame accounting of the transport's own wire (stays zero when
        #: messages are direct calls).
        self.stats = TransportStats()

    def start_nodes(self, leases: Dict[str, ShardLease]) -> Dict[str, ClusterNode]:
        """Bring up one node per ``{node id: lease}``; returns them once all are up."""
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

    def commit(self, votes: Dict[str, NodeVote]) -> None:
        """Commit the batch whose ``votes`` (by node id) all came back ready.

        One commit of the coordinator's store: the batch lands whole, or
        this raises and nothing of it landed.
        """
        raise NotImplementedError

    def pages_for(self, offers: Sequence[Offer]) -> Dict[str, str]:
        """The landing pages to send with ``offers`` to the node that ingests them."""
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

    The components (``catalog`` ... ``fusion``) are the single engine's;
    every node engine runs the serial executor.  The other parameters:

    num_nodes:
        Initial cluster size (nodes are named ``node-1`` ... ``node-N``;
        membership can change later via :meth:`add_node` /
        :meth:`remove_node` / :meth:`fence_node`).
    pipeline_depth:
        ``1`` (default) finishes every batch's commit barrier before
        ``ingest`` returns.  ``2`` leaves it open until the next ingest
        or any view/membership call — see :meth:`flush` — so the
        barrier's store write overlaps the next batch's work: its
        routing, and with ``hint_routing`` the nodes' classify round.
        Products are byte-identical either way.
    hint_routing:
        Route each batch on a cheap :class:`CategoryHinter` guess and
        run the real per-offer classifier on the nodes instead of the
        coordinator.  Misrouted offers are re-shipped to their true
        owner before ingest with their batch positions, so per-node
        stream order — and every output byte — matches coordinator
        routing.
    **transport_options:
        The constructor arguments of the selected transport (where the
        store lives; documented on the public subclasses).
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
        num_nodes: int = 2,
        num_shards: int = 8,
        pipeline_depth: int = 1,
        hint_routing: bool = False,
        **transport_options: object,
    ) -> None:
        """Open the store, compute the layout, start the nodes."""
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if pipeline_depth not in (1, 2):
            raise ValueError(f"pipeline_depth must be 1 or 2, got {pipeline_depth}")
        self._classifier = category_classifier
        self._num_shards = num_shards
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
        # Coordinator-side dedup: offers absorbed since open.  Updated
        # only once a batch's barrier began, so a recovered or replayed
        # batch is never half-seen; the store's mirror, restored at
        # open and never rebuilt, covers what was committed before.
        self._seen = set()
        # The batch whose barrier is begun but not written: its offers
        # and its voters' votes.
        self._pending: Optional[Tuple[List[Offer], Dict[str, NodeVote]]] = None
        self._closed = False
        # Observability: the coordinator's registry holds what the
        # coordinator counts — batches, hint routing, and (through its
        # transport's node handles) pipe frames.  Executor payloads are
        # counted by the node engines, in the process each runs in.
        # Callback gauges hold a weakref only.
        registry = self._obs = get_registry()
        self._obs_cluster_batches = registry.counter(
            "cluster_batches_total",
            help="Micro-batches absorbed by cluster coordinators.",
        )
        self._obs_hinted = registry.counter(
            "routing_hinted_offers_total", help="Offers routed via category hints at all."
        )
        self._obs_misrouted = registry.counter(
            "routing_misrouted_offers_total",
            help="Hint-routed offers re-homed at the classify barrier.",
        )
        self._gauge(
            "cluster_routing_seconds",
            "Coordinator time spent deduplicating and routing batches.",
            lambda cluster: cluster._routing_seconds,
        )
        self._gauge(
            "cluster_barrier_wait_seconds",
            "Coordinator time spent waiting on commit barriers.",
            lambda cluster: cluster._barrier_seconds,
        )
        self._gauge("cluster_nodes", "Live cluster members.", lambda cluster: len(cluster._nodes))
        try:
            # One layout pass for the whole initial membership, then
            # start each node with its final epochs: granting shards
            # once avoids fencing every shard through N-1 intermediate
            # layouts (on sqlite, one durable epoch flush per move).
            node_ids = [f"node-{next(self._node_counter)}" for _ in range(num_nodes)]
            for node_id in node_ids:
                self._coordinator.register_node(node_id, rebalance=False)
            self._coordinator.apply_layout()
            self._start(node_ids)
        except BaseException:
            # Nothing started may outlive a failed constructor.
            self._closed = True
            self._teardown()
            raise

    def _start(self, node_ids: Sequence[str]) -> None:
        """Start the nodes of already-registered leases, together."""
        self._nodes.update(
            self._transport.start_nodes(
                {node_id: self._coordinator.lease_for(node_id) for node_id in node_ids}
            )
        )

    def _gauge(self, name: str, help_text: str, read) -> None:
        """Register a callback gauge that reads this cluster through a weakref."""
        cluster_ref = weakref.ref(self)

        def callback() -> float:
            cluster = cluster_ref()
            return 0.0 if cluster is None else read(cluster)

        self._obs.gauge(name, help=help_text, callback=callback)

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
        """The coordinator's catalog store (the shared one, or its connection to it).

        Over a process cluster its mirror holds what was committed when
        the cluster opened; the views read the committed rows instead
        (:meth:`~repro.runtime.state.CatalogStore.iter_products` and the
        ``committed_*`` reads).
        """
        return self._store

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
        node i mod N reshuffles most owners).  A joiner that fails to
        start raises :class:`NodeDeadError` and leaves the membership as
        it was, its shards re-fenced back to the members.
        """
        self._ensure_open()
        self.flush()
        if node_id is None:
            node_id = f"node-{next(self._node_counter)}"
        before = self._coordinator.assignment()
        self._coordinator.register_node(node_id)
        try:
            self._start([node_id])
        except NodeDeadError:
            # The joiner never ran: hand its shards back and tell the
            # members their epochs, which the registration bumped.
            self._coordinator.retire_node(node_id, fence=True)
            self._fence_unreachable(self._push_layout(before))
            raise
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
        # Write an open barrier first: the batch the target voted for
        # lands whole before its shards move.
        self.flush()
        self._fence_unreachable([node_id])

    def rebalance(self, loads: Optional[Dict[int, float]] = None) -> Dict[int, str]:
        """Reassign shards by load between batches; returns the layout.

        With ``loads=None`` the observed load is read from the shared
        store's committed rows (offers held per shard, including
        everything the nodes committed) — the modulo layout membership
        starts from ignores how skewed the category distribution is,
        and a warm cluster can pull its busiest shards apart this way.  Moved shards are
        re-fenced and handed over exactly like a membership change.
        """
        self._ensure_open()
        self.flush()
        if loads is None:
            loads = self._store.committed_shard_loads()
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
        (killed, crashed, engine error) triggers recovery when the
        barrier state can be restored: the wave is aborted, the node is
        fenced, and the batch replays on the new layout — products stay
        byte-identical to an uninterrupted run.  Raises the node-side
        error when recovery is impossible (the barrier cannot be
        restored, one node is left, or every attempt failed); the store
        is still returned to the barrier where the backend allows, so
        the caller can retry.

        With ``pipeline_depth=2`` the previous batch's barrier is
        written here, *after* this batch's dedup and routing, and with
        ``hint_routing`` while the nodes classify this batch — the
        overlap that hides the barrier's write behind the batch's work.
        A failed write surfaces from this call, and neither batch landed.
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

        # The previous barrier must land before this batch mutates any
        # node: recovery returns to the last barrier, and that barrier
        # must never straddle two batches.  Coordinator routing writes
        # it after classifying this batch; hint routing while the nodes
        # classify it (their classify round mutates no store).
        categorised = None
        if not self._hint_routing:
            categorised = self._route_categories(fresh)
            self.flush()
        votes = self._dispatch_with_retry(fresh, categorised)

        for _, vote in sorted(votes.items()):
            report.merge(vote.report)
        # merge() summed the sub-batch sizes; the batch is the caller's.
        report.offers_in_batch = len(offers)
        self._begin_barrier(votes, fresh)
        if self._pipeline_depth == 1:
            self.flush()
        self._obs_cluster_batches.inc()
        return report

    def _dispatch_with_retry(
        self, fresh: Sequence[Offer], categorised: Optional[List[Offer]] = None
    ) -> Dict[str, NodeVote]:
        """Dispatch one batch, fencing and re-dispatching on node failure.

        Returns the voters' votes by node id.  ``categorised`` carries
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
                    "ingest",
                    {
                        node_id: {"offers": batch, "pages": self._transport.pages_for(batch)}
                        for node_id, batch in routed.items()
                    },
                    {node_id: len(batch) for node_id, batch in routed.items()},
                )
            except _BatchFailure as failure:
                attempts += 1
                if not failure.recoverable or len(self._nodes) <= 1 or attempts >= max_attempts:
                    raise failure.cause
                self._fence_unreachable([failure.node_id])

    def _round(
        self, kind: str, payloads: Dict[str, object], expected: str, write_barrier: bool = False
    ) -> Tuple[Dict[str, object], List[str], Dict[str, BaseException]]:
        """One message round: ``kind`` to every listed node, one reply each.

        All sends go out before any receive, so nodes that run on their
        own genuinely overlap.  ``write_barrier`` writes the open
        barrier between the sends and the receives, overlapping the
        write with the nodes' work; if the write fails, every node is
        rolled back once it replied and the write's error is raised.
        Returns the ``expected``-kind replies by node id, the ids of
        every node that answered at all, and the failures (dead nodes,
        wrong reply kinds) by node id.
        """
        failures: Dict[str, BaseException] = {}
        dispatched: List[str] = []
        for node_id in sorted(payloads):
            try:
                self._nodes[node_id].send(kind, payloads[node_id])
                dispatched.append(node_id)
            except NodeDeadError as exc:
                failures[node_id] = exc
        write_error: Optional[Exception] = None
        if write_barrier:
            try:
                self._write_barrier()
            except Exception as exc:  # noqa: BLE001 - raised once the replies are in
                write_error = exc
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
        if write_error is not None:
            self._roll_back_nodes()
            raise write_error
        return replies, answered, failures

    def _fail_round(self, answered: List[str], failures: Dict[str, BaseException]) -> None:
        """Abort a failed wave and raise its first failure (node-id order)."""
        nodes = [self._nodes[node_id] for node_id in answered]
        recoverable = self._transport.abort(nodes, failures)
        first = sorted(failures)[0]
        raise _BatchFailure(first, failures[first], recoverable)

    def _vote_round(
        self, kind: str, payloads: Dict[str, object], routed_counts: Dict[str, int]
    ) -> Dict[str, NodeVote]:
        """The ingesting round of a wave: collect one vote per node.

        Returns the voters' votes on success; on any failure the wave
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
        return votes

    def _dispatch_hint(self, fresh: Sequence[Offer]) -> Dict[str, NodeVote]:
        """Hint-routed dispatch: nodes classify, misroutes re-ship, owners apply.

        Two rounds instead of one (the node half is
        :class:`NodeProtocol`): ``classify`` ships each hinted,
        position-tagged sub-batch plus the shard assignment to its
        guessed owner and collects the offers that belong elsewhere;
        ``apply`` delivers those to their true owners, which ingest,
        with the pages of both the offers a node kept and the ones it
        receives.  The per-offer classification sweep — the dominant
        serial cost of coordinator routing — thus runs on the nodes, and
        only misrouted offers are shipped twice.  The classify round
        mutates no store, so the previous batch's barrier is written
        while it runs.
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
        # below this feeds the hint_accuracy gauge, which exists from the
        # first hint-routed batch on.
        if self._hint_stats.hinted_offers == 0:
            self._gauge(
                "routing_hint_accuracy",
                "Fraction of hint-routed offers whose hint was correct.",
                lambda cluster: cluster._hint_stats.hint_accuracy,
            )
        self._hint_stats.hinted_offers += len(fresh)
        self._obs_hinted.inc(len(fresh))
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
            write_barrier=True,
        )
        incoming: Dict[str, List[Tuple[int, Offer]]] = {}
        kept: Dict[str, List[Offer]] = {}
        for node_id, reply in classified.items():
            self._nodes[node_id].busy_seconds += reply["busy_seconds"]
            moved = set()
            for destination, items in reply["outgoing"].items():
                incoming.setdefault(destination, []).extend(items)
                moved.update(position for position, _ in items)
            self._hint_stats.misrouted_offers += len(moved)
            self._obs_misrouted.inc(len(moved))
            kept[node_id] = [offer for position, offer in hinted[node_id] if position not in moved]
        if failures:
            self._fail_round(answered, failures)
        payloads: Dict[str, object] = {}
        routed_counts: Dict[str, int] = {}
        for node_id in {n for n, offers in kept.items() if offers} | set(incoming):
            items = sorted(incoming.get(node_id, ()), key=lambda item: item[0])
            ingesting = kept.get(node_id, []) + [offer for _, offer in items]
            payloads[node_id] = {"incoming": items, "pages": self._transport.pages_for(ingesting)}
            routed_counts[node_id] = len(ingesting)
        return self._vote_round("apply", payloads, routed_counts)

    # -- commit barrier --------------------------------------------------------

    def _begin_barrier(self, votes: Dict[str, NodeVote], fresh: Sequence[Offer]) -> None:
        """Open the commit barrier of a batch whose voters all voted ready."""
        self._pending = (list(fresh), votes)
        self._seen.update(offer.offer_id for offer in fresh)

    def flush(self) -> None:
        """Write the open commit barrier (no-op when none is open).

        After this returns, every previously ingested batch is durably
        committed.  ``ingest`` at ``pipeline_depth=1``, the next ingest
        at depth 2, and every view or membership operation flush
        implicitly, so the open window is invisible to callers — reads
        always observe fully committed state.  The barrier is one
        commit of the coordinator's store, so a batch lands whole or not
        at all.  A failed write is a *store* failure, not a node crash:
        fencing cannot help, so every node is rolled back to the last
        barrier and the error surfaces — the caller may retry the batch.
        """
        try:
            self._write_barrier()
        except Exception:
            self._roll_back_nodes()
            raise

    def _write_barrier(self) -> None:
        """Commit the open barrier's batch; on failure forget it was seen."""
        if self._pending is None:
            return
        offers, votes = self._pending
        self._pending = None
        barrier_started = time.perf_counter()
        try:
            with self._obs.span("cluster.commit_barrier"):
                self._transport.commit(votes)
        except Exception:
            # The batch did not land: a retry must not be deduplicated
            # away coordinator-side.
            self._seen.difference_update(offer.offer_id for offer in offers)
            raise
        finally:
            self._barrier_seconds += time.perf_counter() - barrier_started

    def _roll_back_nodes(self) -> None:
        """Return every node to the last barrier after a failed write.

        Their mirrors hold the batch the write did not land.  A node
        found dead meanwhile is fenced by the next round that reaches it.
        """
        self._transport.abort([node for _, node in sorted(self._nodes.items())], {})

    # -- views ----------------------------------------------------------------

    def _view(self) -> CatalogStore:
        """The coordinator's store, open, with every begun barrier written.

        Views read its committed rows: a process cluster's barrier writes
        the nodes' journals without applying them to the coordinator's
        mirror, which is never rebuilt after open.
        """
        self._ensure_open()
        self.flush()
        return self._store

    def products(self) -> List[Product]:
        """All current synthesized products (same order as a single engine)."""
        return list(self._view().iter_products())

    def num_clusters(self) -> int:
        """Number of clusters tracked so far (including sub-threshold ones)."""
        return self._view().committed_num_clusters()

    def snapshot(self) -> EngineSnapshot:
        """A consistent summary of everything ingested so far."""
        store = self._view()
        return EngineSnapshot(
            products=list(store.iter_products()),
            num_clusters=store.committed_num_clusters(),
            offers_ingested=store.committed_num_seen(),
            reconciliation_stats=store.committed_reconciliation_stats(),
            assigned_categories=store.committed_assigned_categories(),
        )

    def transport_stats(self) -> TransportStats:
        """Cluster-wide transport accounting: executor payloads (all
        nodes, ever), hint counters and wire frames."""
        merged = TransportStats()
        parts = [self._retired_transport, self._hint_stats, self._transport.stats]
        for part in parts + [node.transport for node in self._nodes.values()]:
            merged.merge(part)
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
        """Stop every node and release the store; their payload counts stay retired."""
        for _, node in sorted(self._nodes.items()):
            node.shutdown()
            self._retired_transport.merge(node.transport)
        self._nodes = {}
        self._transport.close()

    def close(self) -> None:
        """Finish the open barrier, shut every node down, release the store.

        Idempotent.  Every later ``ingest``, view or membership call
        raises ``RuntimeError``.  A final barrier that fails is
        reported, but teardown proceeds regardless; nothing of its batch
        landed, so a cluster opened over the same store path takes it
        again from the caller.
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
        """Release the engine's workers."""
        self.engine.release_workers()


class InProcessTransport(NodeTransport):
    """Nodes as engines in this process, writing through fenced views.

    Every node writes straight into the one shared store (under one
    cluster lock, through its :class:`FencedStoreView`) with the
    caller's extractor, so a message is a direct call, the barrier is
    the store's own commit, and the coordinator's store is always
    current.  Dispatch is sequential: a ``send`` runs the node to
    completion.
    """

    def __init__(
        self,
        num_shards: int,
        engine_kwargs: Dict[str, object],
        store: Union[str, CatalogStore, None] = None,
        store_path: Optional[str] = None,
    ) -> None:
        super().__init__()
        self._owns_store = not isinstance(store, CatalogStore)
        self.store = resolve_store(store, path=store_path)
        self.store.bind(num_shards)
        self._num_shards = num_shards
        self._engine_kwargs = engine_kwargs
        self._lock = threading.RLock()

    def start_nodes(self, leases: Dict[str, ShardLease]) -> Dict[str, _EngineNode]:
        """Build each node's fenced view and engine."""
        nodes = {}
        for node_id, lease in leases.items():
            view = FencedStoreView(self.store, lease, self._lock)
            engine = SynthesisEngine(num_shards=self._num_shards, store=view, **self._engine_kwargs)
            nodes[node_id] = _EngineNode(node_id, lease, view, engine)
        return nodes

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

    def commit(self, votes: Dict[str, NodeVote]) -> None:
        """One commit of the shared store, which the voters wrote into."""
        self.store.commit()

    def pages_for(self, offers: Sequence[Offer]) -> Dict[str, str]:
        """None: the nodes share the caller's extractor and its pages."""
        return {}

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
    """

    _transport_class = InProcessTransport

    def node_view(self, node_id: str) -> FencedStoreView:
        """The fenced store view of one live node (tests, diagnostics)."""
        return self._member(node_id).view
