"""The pluggable catalog state layer of the run-time engine.

:class:`~repro.runtime.engine.SynthesisEngine` used to keep all of its
state — clusters, cached fusion results, seen-offer ids, reconciliation
counters — in private in-memory dicts.
This module factorises that implicit state behind an explicit
:class:`CatalogStore` interface so backends can be swapped:

* :class:`~repro.runtime.store.memory.MemoryCatalogStore` — the original
  zero-copy in-process behaviour (the default);
* :class:`~repro.runtime.store.sqlite.SqliteCatalogStore` — a durable
  WAL-mode SQLite backend that commits after every ingest and restores
  the full engine state across process restarts.  It alone writes the
  changed-cluster commit journal that serving replicas follow through
  :meth:`~repro.serving.reader.CatalogReader.read_delta`.
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.model.offers import Offer
from repro.model.products import Product
from repro.obs import get_registry
from repro.synthesis.clustering import OfferCluster
from repro.synthesis.reconciliation import ReconciliationStats

__all__ = [
    "ClusterId",
    "ClusterState",
    "CatalogStore",
    "StaleEpochError",
    "resolve_store",
]

#: A cluster is identified by (category_id, clustering key) — the same
#: pair the clusterer uses, so cluster identity is store-independent.
ClusterId = Tuple[str, str]

class StaleEpochError(RuntimeError):
    """A write carried a fenced-out shard epoch and was rejected.

    Raised by the store layer when a writer presents a shard epoch older
    than the authoritative one — the node was fenced (it lagged, crashed,
    or had the shard reassigned) and must not commit stale cluster state.
    """


@dataclass
class ClusterState:
    """One cluster, its cached fusion result, and its shard assignment."""

    shard_index: int
    cluster: OfferCluster
    product: Optional[Product] = None

    def size(self) -> int:
        """Number of offers currently in the cluster."""
        return self.cluster.size()


class CatalogStore(abc.ABC):
    """Everything the synthesis engine remembers between ingests.

    The contract mirrors the engine's access patterns: membership checks
    and appends on the hot ingest path, whole-shard iteration for views,
    and an explicit :meth:`commit` barrier at the end of every ingest
    (durable backends flush exactly there, so a killed process loses at
    most the in-flight batch).  The store carries no journal API: the
    commit journal is a detail of the SQLite backend's commit.
    """

    #: Name used by CLI flags and reports ("memory", "sqlite", ...).
    name = "abstract"

    def __init__(self) -> None:
        self._num_shards = 0
        self._fault_hook: Optional[Callable[[str], None]] = None
        self._commit_count = 0
        # Wrapper views (FencedStoreView) run this before assigning their
        # instance name, so they still resolve the class-level "abstract"
        # here — and they must *not* publish store series: they delegate
        # to a base store that already did.
        if self.name == "abstract":
            from repro.obs import NULL_REGISTRY

            self._obs_commits = NULL_REGISTRY.counter("store_commits_total")
            return
        registry = get_registry()
        labels = {"backend": self.name}
        self._obs_commits = registry.counter(
            "store_commits_total",
            help="Commit barriers completed, by store backend.",
            labels=labels,
        )
        # Callback gauges hold only a weak reference: a replaced or
        # closed store must not be pinned in memory by the registry.
        ref = weakref.ref(self)
        registry.gauge(
            "store_commit_count",
            help="Commit counter (snapshot identity) of the newest store.",
            labels=labels,
            callback=lambda: (lambda s: 0 if s is None else s.commit_count)(ref()),
        )

    # -- lifecycle -------------------------------------------------------------

    def bind(self, num_shards: int) -> None:
        """Attach the store to an engine with ``num_shards`` category shards.

        Restored state written under a different shard count is re-indexed
        by the backend (cluster identity never depends on the shard count,
        only the parallel grouping does).
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self._num_shards = num_shards

    @property
    def num_shards(self) -> int:
        """Shard count the store is bound to (0 before :meth:`bind`)."""
        return self._num_shards

    @abc.abstractmethod
    def commit(self) -> None:
        """Make everything recorded so far durable (no-op for memory)."""

    @property
    def commit_count(self) -> int:
        """How many commit barriers this store has completed.

        A monotonic snapshot identifier: the engine commits exactly once
        per ingest, so "the catalog after commit *k*" names a committed
        stream prefix.  The read side (:mod:`repro.serving`) uses it to
        label which prefix a query ran against; durable backends persist
        it, so the counter also identifies snapshots *across* processes.
        """
        return self._commit_count

    @abc.abstractmethod
    def close(self) -> None:
        """Release backend resources; safe to call more than once."""

    @property
    def supports_rollback(self) -> bool:
        """Whether :meth:`rollback` can restore the last committed state.

        Only durable backends can: they rebuild their mirror from the
        last on-disk commit.  A volatile store has no committed snapshot
        to return to, so crash recovery (which relies on discarding an
        in-flight batch) is unavailable with it.
        """
        return False

    def rollback(self) -> None:
        """Discard every mutation since the last :meth:`commit`.

        Crash semantics on demand: after a node dies mid-batch, the
        coordinator rolls the shared store back to the last commit
        barrier and replays the batch on the surviving nodes.
        """
        raise RuntimeError(
            f"the {self.name!r} catalog store cannot roll back to a commit "
            "barrier (no durable snapshot); crash recovery requires a "
            "durable store such as store='sqlite'"
        )

    # -- fault injection (tests) -----------------------------------------------

    def set_fault_hook(self, hook: Optional[Callable[[str], None]]) -> None:
        """Install a callable invoked before every mutating operation.

        The hook receives the operation name (``"append_offers"``,
        ``"commit"``, ...) and may raise to simulate a node crashing
        mid-batch — the crash-injection tests use this to cut a node
        down at a precise point in the ingest path.  ``None`` uninstalls.
        """
        self._fault_hook = hook

    def _fault_point(self, operation: str) -> None:
        """Give an installed fault hook the chance to fail ``operation``."""
        if self._fault_hook is not None:
            self._fault_hook(operation)

    @property
    def closed(self) -> bool:
        """Whether the store can no longer accept writes.

        In-memory stores never close in this sense; durable backends
        report ``True`` once their connection is released, and the
        engine refuses further ingests instead of mutating a mirror
        whose writes could never be persisted.
        """
        return False

    # -- seen offers -----------------------------------------------------------

    @abc.abstractmethod
    def is_seen(self, offer_id: str) -> bool:
        """Whether an offer id was already absorbed."""

    @abc.abstractmethod
    def mark_seen(self, offer_id: str) -> bool:
        """Record an offer id; ``False`` when it was already recorded."""

    @abc.abstractmethod
    def num_seen(self) -> int:
        """Distinct offer ids absorbed so far."""

    # -- assigned categories ---------------------------------------------------

    @abc.abstractmethod
    def record_category(self, offer_id: str, category_id: str) -> None:
        """Remember which catalog category an offer was assigned to."""

    @abc.abstractmethod
    def assigned_categories(self) -> Dict[str, str]:
        """A copy of the offer-id -> category-id assignment map."""

    # -- clusters --------------------------------------------------------------

    @abc.abstractmethod
    def get_cluster(self, cluster_id: ClusterId) -> Optional[ClusterState]:
        """The state of one cluster, or ``None`` when it does not exist."""

    @abc.abstractmethod
    def create_cluster(self, shard_index: int, cluster_id: ClusterId) -> ClusterState:
        """Create (and return) an empty cluster in the given shard."""

    @abc.abstractmethod
    def append_offers(self, cluster_id: ClusterId, offers: List[Offer]) -> None:
        """Append a batch of reconciled offers to an existing cluster."""

    @abc.abstractmethod
    def set_product(self, cluster_id: ClusterId, product: Optional[Product]) -> None:
        """Record the (re-)fused product of a cluster (``None`` = below bar)."""

    @abc.abstractmethod
    def iter_clusters(self) -> Iterator[Tuple[ClusterId, ClusterState]]:
        """Iterate over every tracked cluster (order unspecified)."""

    @abc.abstractmethod
    def shard_cluster_ids(self, shard_index: int) -> List[ClusterId]:
        """Ids of every cluster living in one shard."""

    @abc.abstractmethod
    def num_clusters(self) -> int:
        """Number of clusters tracked so far (including sub-threshold ones)."""

    def sorted_products(self) -> List[Product]:
        """All current synthesized products, sorted by (category, key).

        The single definition of the engine-facing product listing:
        deterministic regardless of shard count, executor, backend, node
        count, or how the stream was batched.  Both the single engine
        and the multi-node facade serve ``products()`` from here, so
        their byte-identity contract cannot drift.
        """
        collected: List[Tuple[ClusterId, Product]] = []
        for cluster_id, state in self.iter_clusters():
            if state.product is not None:
                collected.append((cluster_id, state.product))
        collected.sort(key=lambda item: item[0])
        return [product for _, product in collected]

    def iter_products(self, page_size: int = 256) -> Iterator[Product]:
        """Stream the current products in (category, key) order.

        Same listing as :meth:`sorted_products`, but as an iterator so
        read-side consumers can page through a large catalog without the
        writer materialising it twice.  The default serves from the
        in-memory state (``page_size`` is advisory there); the SQLite
        backend overrides it to read committed pages straight from disk,
        which is how a cluster coordinator lists the products its
        process nodes committed.
        """
        yield from self.sorted_products()

    # -- committed reads -------------------------------------------------------
    # What the last commit holds, for a reader whose mirror is not kept
    # current: a process cluster's coordinator, which writes its nodes'
    # journals without applying them to its own mirror.  The defaults read
    # the in-memory state, which a single writer keeps current; the SQLite
    # backend reads its committed rows.

    def committed_num_clusters(self) -> int:
        """Clusters in the last commit (including sub-threshold ones)."""
        return self.num_clusters()

    def committed_num_seen(self) -> int:
        """Distinct offer ids in the last commit."""
        return self.num_seen()

    def committed_assigned_categories(self) -> Dict[str, str]:
        """The offer-id -> category-id map of the last commit."""
        return self.assigned_categories()

    def committed_reconciliation_stats(self) -> ReconciliationStats:
        """The reconciliation totals of the last commit, every writer's included."""
        return self.reconciliation_stats()

    def committed_shard_loads(self) -> Dict[int, float]:
        """Offers held per shard in the last commit (shards holding none are absent)."""
        loads: Dict[int, float] = {}
        for _, state in self.iter_clusters():
            loads[state.shard_index] = loads.get(state.shard_index, 0.0) + state.size()
        return loads

    # -- reconciliation stats --------------------------------------------------

    @abc.abstractmethod
    def merge_reconciliation_stats(self, stats: ReconciliationStats) -> None:
        """Fold one batch's reconciliation counters into the running total."""

    @abc.abstractmethod
    def reconciliation_stats(self) -> ReconciliationStats:
        """A copy of the accumulated reconciliation counters."""

    # -- shard epochs (multi-node fencing) -------------------------------------

    @abc.abstractmethod
    def shard_epoch(self, shard_index: int) -> int:
        """The authoritative fencing epoch of one shard (0 = never owned).

        Epochs count *ownership changes* across nodes and only ever grow.
        A durable backend persists epochs immediately (not at the commit
        barrier), because fencing must survive exactly the crashes it
        guards against.
        """

    @abc.abstractmethod
    def advance_shard_epoch(self, shard_index: int) -> int:
        """Bump a shard's epoch (fencing out all prior holders); returns it."""

    def check_shard_epoch(self, shard_index: int, epoch: int) -> None:
        """Reject a write that carries a fenced-out epoch.

        Raises :class:`StaleEpochError` unless ``epoch`` is the current
        epoch of the shard.  This is the store-side half of the fencing
        contract: every cluster write of a multi-node engine carries the
        epoch its node holds, and the store refuses stale ones.
        """
        current = self.shard_epoch(shard_index)
        if epoch != current:
            raise StaleEpochError(
                f"write to shard {shard_index} carries epoch {epoch} but the "
                f"store is at epoch {current}: the writing node was fenced "
                "(it lagged, restarted, or lost the shard to reassignment)"
            )


@dataclass
class _InMemoryState:
    """The dict-shaped state shared by the concrete backends.

    :class:`~repro.runtime.store.memory.MemoryCatalogStore` *is* this
    state; :class:`~repro.runtime.store.sqlite.SqliteCatalogStore` keeps
    it as a read-through mirror and journals mutations to disk at commit.
    """

    clusters: Dict[ClusterId, ClusterState] = field(default_factory=dict)
    shard_index: Dict[int, List[ClusterId]] = field(default_factory=dict)
    seen_offer_ids: set = field(default_factory=set)
    assigned_categories: Dict[str, str] = field(default_factory=dict)
    reconciliation_stats: ReconciliationStats = field(default_factory=ReconciliationStats)
    shard_epochs: Dict[int, int] = field(default_factory=dict)


def resolve_store(
    store: Union[str, CatalogStore, None],
    path: Optional[str] = None,
) -> CatalogStore:
    """Turn a store name (or instance, or ``None``) into a catalog store.

    ``None`` and ``"memory"`` give a fresh in-memory store; ``"sqlite"``
    opens (or creates) a durable store at ``path``.
    """
    # Imported here: the backends import this module for the protocol.
    from repro.runtime.store.memory import MemoryCatalogStore
    from repro.runtime.store.sqlite import SqliteCatalogStore

    if store is None:
        return MemoryCatalogStore()
    if isinstance(store, CatalogStore):
        return store
    if store == "memory":
        return MemoryCatalogStore()
    if store == "sqlite":
        if path is None:
            raise ValueError("store='sqlite' requires a store path")
        return SqliteCatalogStore(path)
    raise ValueError(f"unknown store {store!r}; expected one of ['memory', 'sqlite']")
