"""A replicated serving fleet: N snapshot-pinned readers, one front.

One :class:`~repro.serving.service.CatalogSearchService` caps out at a
single index and a single lock — fine for a drill, not for heavy
traffic.  :class:`ServingFleet` runs ``N`` replica services over the
same catalog (each with its **own** read-only WAL connection and its
own index copy, kept current from the store's commit journal) and
load-balances queries across them:

* **Per-request snapshot pinning** — every query executes atomically
  against exactly one replica's served snapshot and reports which
  commit prefix that was (:class:`FleetSearchResponse`).  Replicas may
  trail the store head by a *bounded* number of commits
  (``max_lag_commits``, the Polynesia-style divergence bound), which
  keeps index rebuilds off the request path; the bound is observable
  per replica through :meth:`lag`.
* **Routing** — least-in-flight with a rotating tie-break, so a replica
  busy rebuilding (or hung) is naturally avoided while it is slow.
* **Route-around** — a replica whose query raises is marked unhealthy
  and the request transparently retries on the survivors;
  :meth:`health` (and the HTTP ``/health`` endpoint) flips immediately.
  :meth:`restart_replica` stands a dead replica back up from the store
  file and re-admits it.
* **Head watcher** — an optional thread (``watch_head=True``) probes
  the store head every :data:`HEAD_WATCH_TICK_SECONDS`, publishes it,
  and the moment it moves resyncs every lagging healthy replica,
  most-lagged first (one resync in flight at a time, fleet-wide).  A
  sweep that took *t* seconds is followed by a wait of at least *t*, so
  a back-to-back writer costs about half of one thread and each journal
  delta covers several commits.  With a positive lag bound the request
  path then compares a replica's snapshot with the published head and
  reads no store file.  :meth:`refresh_once` is one replica's step,
  callable deterministically.
* **Response cache** — the HTTP front asks for serialised bodies
  (:meth:`ServingFleet.search_body`, :meth:`ServingFleet.product_body`);
  they go through one bounded cache per fleet, keyed by ``(snapshot,
  request)``.  A snapshot names one committed prefix, so an entry never
  goes stale and replicas pinned to the same snapshot share it.

The fleet is the only thing the HTTP layer serves: a single service is
a fleet of one.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.model.persistence import product_to_dict
from repro.obs import get_registry, series_key, snapshot_fragment
from repro.serving.index import SearchResult
from repro.serving.service import CatalogSearchService

__all__ = ["FleetSearchResponse", "FleetUnavailableError", "ServingFleet"]

#: Bound on the bytes (bodies plus keys) one fleet keeps cached.
RESPONSE_CACHE_MAX_BYTES = 2 * 1024 * 1024

#: Seconds between two probes of the store head by a fleet's watcher (a
#: sweep that resynced replicas for longer than this waits that long instead).
HEAD_WATCH_TICK_SECONDS = 0.002


def _entry_bytes(key: tuple, body: bytes) -> int:
    """What the cache charges an entry: the key (filters as typed) can outweigh the body."""
    return len(body) + len(repr(key))


class FleetUnavailableError(RuntimeError):
    """No healthy replica was able to serve a request.

    Raised after the front has tried every live replica (route-around
    included); the HTTP layer maps it to a 503.  The fleet stays up —
    restarting a replica re-admits it.
    """


@dataclass
class FleetSearchResponse:
    """One fleet query's pinned, attributed answer."""

    #: Which replica served the request (after any route-around).
    replica_id: int
    #: The committed stream prefix the results correspond to.
    snapshot_commit_count: int
    results: List[SearchResult]


class _Replica:
    """Fleet-side bookkeeping around one replica service."""

    def __init__(self, replica_id: int, service: CatalogSearchService) -> None:
        self.replica_id = replica_id
        self.service = service
        self.healthy = True
        self.in_flight = 0
        self.queries_served = 0
        self.restarts = 0
        self.last_error: Optional[str] = None
        #: Test/drill hook invoked (with the operation name) before each
        #: request this replica serves and each ``"resync"`` the fleet
        #: drives on it; raising simulates a replica crash, blocking
        #: simulates a hang.
        self.fault_hook: Optional[Callable[[str], None]] = None


class ServingFleet:
    """Load-balancing front over N replicated catalog search services.

    Build one with :meth:`from_store_path` (replicas over a shared WAL
    file, each kept current from the store's commit journal).  The
    direct constructor accepts pre-built services, with ``head``
    supplying the store-head commit counter for lag reporting.

    ``watch_head=True`` starts the head watcher (see the module
    docstring).  A watching fleet with ``max_lag_commits > 0`` bounds
    lag against the head *as of the watcher's last probe*; with bound 0,
    or without a watcher, every request reads the head from the store.
    """

    def __init__(
        self,
        services: Sequence[CatalogSearchService],
        head: Optional[Callable[[], int]] = None,
        store_path: Optional[str] = None,
        max_lag_commits: int = 0,
        watch_head: bool = False,
    ) -> None:
        if not services:
            raise ValueError("a serving fleet needs at least one replica service")
        if max_lag_commits < 0:
            raise ValueError(f"max_lag_commits must be >= 0, got {max_lag_commits}")
        self._replicas = [
            _Replica(replica_id, service) for replica_id, service in enumerate(services)
        ]
        self._store_path = store_path
        self._max_lag_commits = max_lag_commits
        self._lock = threading.Lock()
        self._cursor = 0
        self._failovers = 0
        self._closed = False
        # Response cache: (snapshot, request) -> serialised body minus its
        # replica field, least recently used first (guarded by ``_lock``).
        self._bodies: "OrderedDict[tuple, bytes]" = OrderedDict()
        self._body_bytes = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._head = head if head is not None else self._default_head
        # The watcher's published state: plain attributes only it writes
        # (after the constructor's first probe), read without a lock.
        self._published_head = 0
        self._head_probed_at = self._head_changed_at = time.monotonic()
        self._stop_watcher = threading.Event()
        self._watcher: Optional[threading.Thread] = None
        # Observability: per-replica pinned-snapshot lag rides the
        # registry as labelled gauges, read through a weakref provider.
        # Counters are registry counters, incremented beside the fields
        # above, so they outlive the fleet (the replica services count
        # their own queries and resyncs the same way).
        registry = get_registry()
        self._obs = registry
        self._obs_failovers = registry.counter(
            "serving_failovers_total", help="Requests routed around a failed replica."
        )
        self._obs_restarts = registry.counter(
            "serving_replica_restarts_total",
            help="Replica services replaced via restart_replica.",
        )
        self._obs_cache = {
            event: registry.counter(
                f"serving_response_cache_{event}_total",
                help=f"Response-cache {event} (see docs/observability.md).",
            )
            for event in ("hits", "misses", "evictions")
        }
        fleet_ref = weakref.ref(self)

        def _fleet_provider() -> Dict[str, object]:
            fleet = fleet_ref()
            if fleet is None:
                return {}
            return fleet._metrics_fragment()

        self._obs_provider = registry.add_provider(_fleet_provider)
        if watch_head:
            self._obs_refresh_seconds = registry.histogram(
                "serving_refresh_seconds",
                help="New head first seen by the watcher to a replica pinned at it.",
            )
            self._obs_head_changes = registry.counter(
                "serving_head_changes_total",
                help="Times the head watcher saw the store head move.",
            )
            self._probe_head()
            self._watcher = threading.Thread(
                target=self._watch_loop, name="fleet-head-watcher", daemon=True
            )
            self._watcher.start()

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_store_path(
        cls,
        path: str,
        num_replicas: int = 2,
        max_lag_commits: int = 0,
        watch_head: bool = False,
    ) -> "ServingFleet":
        """N replicas over one shared WAL store file.

        Every replica opens its own read-only connection (and builds its
        own index), so replicas resync — and fail — independently.
        """
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        services = [CatalogSearchService.from_store_path(path) for _ in range(num_replicas)]
        return cls(
            services,
            store_path=path,
            max_lag_commits=max_lag_commits,
            watch_head=watch_head,
        )

    def _default_head(self) -> int:
        """Store-head commit counter when no explicit ``head`` was given."""
        best = 0
        for replica in self._replicas:
            try:
                best = max(best, replica.service.head_commit_count())
            except Exception:  # noqa: BLE001 - a dead replica must not hide the head
                continue
        return best

    # -- lifecycle -------------------------------------------------------------

    @property
    def num_replicas(self) -> int:
        """Fleet size (healthy or not)."""
        return len(self._replicas)

    @property
    def store_path(self) -> Optional[str]:
        """Shared store file (``None`` for a fleet of detached services)."""
        return self._store_path

    def close(self) -> None:
        """Stop the watcher and close every replica (idempotent).

        A sweep in progress finishes the one resync it is in and drops
        the rest.
        """
        if self._closed:
            return
        self._closed = True
        self._obs.remove_provider(self._obs_provider)
        self._stop_watcher.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5)
        for replica in self._replicas:
            replica.service.close()

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        self.close()

    # -- routing ---------------------------------------------------------------

    def _acquire(self) -> _Replica:
        """Pick a healthy replica: least in-flight, rotating tie-break."""
        with self._lock:
            healthy = [replica for replica in self._replicas if replica.healthy]
            if not healthy:
                raise FleetUnavailableError(
                    f"all {len(self._replicas)} replicas are unhealthy"
                )
            self._cursor += 1
            cursor = self._cursor
            chosen = min(
                healthy,
                key=lambda replica: (
                    replica.in_flight,
                    (replica.replica_id - cursor) % len(self._replicas),
                ),
            )
            chosen.in_flight += 1
            return chosen

    def _release(self, replica: _Replica, served: bool) -> None:
        with self._lock:
            replica.in_flight -= 1
            if served:
                replica.queries_served += 1

    def _mark_unhealthy(self, replica: _Replica, error: BaseException) -> None:
        with self._lock:
            replica.healthy = False
            replica.last_error = f"{type(error).__name__}: {error}"
            self._failovers += 1
            self._obs_failovers.inc()

    def _hold_to_bound(self, service: CatalogSearchService) -> None:
        """Resync ``service`` inline if it trails the head by more than the bound.

        A watching fleet with a positive bound compares against the head
        the watcher published — an attribute read, no store access.
        Bound 0 and fleets without a watcher read the head from the
        store file on every request.
        """
        if self._watcher is None or self._max_lag_commits == 0:
            service.maybe_resync(self._max_lag_commits)
        elif self._published_head - service.snapshot_commit_count > self._max_lag_commits:
            service.resync()

    def _run(self, operation: str, runner):
        """Execute ``runner(service)`` on a healthy replica held to the lag
        bound, routing around failures; returns ``(replica_id, outcome)``."""
        last_error: Optional[BaseException] = None
        for _ in range(len(self._replicas) + 1):
            try:
                replica = self._acquire()
            except FleetUnavailableError:
                break
            service = replica.service
            served = False
            try:
                if replica.fault_hook is not None:
                    replica.fault_hook(operation)
                self._hold_to_bound(service)
                outcome = runner(service)
                served = True
            except Exception as error:  # noqa: BLE001 - any failure fails over
                # A handle that lost a concurrent restart_replica race
                # (the retired service got closed under this request)
                # is not the *new* replica's failure — retry without
                # flagging it.
                if service is replica.service:
                    self._mark_unhealthy(replica, error)
                last_error = error
                continue
            finally:
                self._release(replica, served)
            return replica.replica_id, outcome
        detail = f" (last error: {last_error})" if last_error is not None else ""
        raise FleetUnavailableError(
            f"no healthy replica could serve {operation!r}{detail}"
        )

    # -- queries ---------------------------------------------------------------

    def search(
        self,
        query: str,
        top_k: int = 10,
        category: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
    ) -> FleetSearchResponse:
        """Ranked top-k search on one replica, pinned to its snapshot."""
        replica_id, (snapshot, results) = self._run(
            "search",
            lambda service: service.search_pinned(
                query, top_k=top_k, category=category, attributes=attributes, auto_resync=False
            ),
        )
        return FleetSearchResponse(replica_id, snapshot, results)

    def get_product(self, product_id: str):
        """Point lookup; returns ``(replica_id, snapshot, product-or-None)``."""
        replica_id, (snapshot, product) = self._run(
            "get_product",
            lambda service: service.get_product_pinned(product_id, auto_resync=False),
        )
        return replica_id, snapshot, product

    def _body(self, operation: str, request: tuple, pinned, render) -> Optional[bytes]:
        """The serialised body for ``request``, rendered once per snapshot.

        ``pinned(service)`` returns ``(snapshot, result)`` atomically and
        ``render(result)`` the JSON payload (``None``: nothing to serve,
        never cached).  The body is stored under the snapshot it was
        rendered from and without a replica, so every replica pinned to
        that snapshot is answered from the one entry; the ``replica``
        field goes in front when the body is handed out.
        """

        def runner(service: CatalogSearchService) -> Optional[bytes]:
            key = (service.snapshot_commit_count,) + request
            with self._lock:
                body = self._bodies.get(key)
                if body is not None:
                    self._cache_hits += 1
                    self._obs_cache["hits"].inc()
                    self._bodies.move_to_end(key)
                    return body
                self._cache_misses += 1
                self._obs_cache["misses"].inc()
            snapshot, result = pinned(service)
            payload = render(result)
            if payload is None:
                return None
            payload["snapshot_commit_count"] = snapshot
            body = json.dumps(payload, sort_keys=True).encode("utf-8")[1:]
            key = (snapshot,) + request
            with self._lock:
                if key not in self._bodies:  # a racing miss may have stored it
                    self._bodies[key] = body
                    self._body_bytes += _entry_bytes(key, body)
                    while self._body_bytes > RESPONSE_CACHE_MAX_BYTES:
                        self._body_bytes -= _entry_bytes(*self._bodies.popitem(last=False))
                        self._cache_evictions += 1
                        self._obs_cache["evictions"].inc()
            return body

        replica_id, body = self._run(operation, runner)
        return None if body is None else b'{"replica": %d, ' % replica_id + body

    def search_body(
        self,
        query: str,
        top_k: int = 10,
        category: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
    ) -> bytes:
        """The ``/search`` response body: :meth:`search`, serialised.

        ``json.dumps(..., sort_keys=True)`` of the query, the pinned
        snapshot and the ranked hits, behind the ``replica`` that
        answered.  A request its snapshot already answered comes from
        the response cache — no search, no ``to_dict``, no
        ``json.dumps`` — byte-identical to a fresh render.
        """
        filters = tuple(sorted(attributes.items())) if attributes else ()
        return self._body(  # type: ignore[return-value]
            "search",
            ("search", query, top_k, category, filters),
            lambda service: service.search_pinned(
                query, top_k=top_k, category=category, attributes=attributes, auto_resync=False
            ),
            lambda results: {
                "query": query,
                "top_k": top_k,
                "num_results": len(results),
                "results": [result.to_dict() for result in results],
            },
        )

    def product_body(self, product_id: str) -> Optional[bytes]:
        """The ``/product/<id>`` response body (``None``: no such product)."""
        return self._body(
            "get_product",
            ("product", product_id),
            lambda service: service.get_product_pinned(product_id, auto_resync=False),
            lambda product: None if product is None else product_to_dict(product),
        )

    def count_by_category(self) -> Dict[str, int]:
        """Category facet of one replica's served snapshot."""
        return self._run(
            "count_by_category", lambda service: service.count_by_category()
        )[1]

    # -- maintenance -----------------------------------------------------------

    def _lagging(self, head: int) -> List[_Replica]:
        """Healthy replicas pinned behind ``head``, most-lagged first."""
        with self._lock:
            healthy = [replica for replica in self._replicas if replica.healthy]
        # Snapshots are read outside the fleet lock: a replica applying a
        # delta holds its own lock, and routing must not wait for that.
        behind = [
            (head - replica.service.snapshot_commit_count, replica.replica_id)
            for replica in healthy
        ]
        return [
            self._replicas[replica_id]
            for lag, replica_id in sorted(behind, reverse=True)
            if lag > 0
        ]

    def _resync(self, replica: _Replica) -> bool:
        """Pull one replica to the store head; a failure marks it unhealthy.

        A resync goes all the way to the current head — intermediate
        commits are skipped, which is where a lag-bounded fleet does
        strictly less index work than per-request resyncing.
        """
        service = replica.service
        try:
            if replica.fault_hook is not None:
                replica.fault_hook("resync")
            service.resync()
        except Exception as error:  # noqa: BLE001 - a broken replica is routed around
            if service is replica.service:  # not one restart_replica just retired
                self._mark_unhealthy(replica, error)
            return False
        return True

    def refresh_once(self) -> Optional[int]:
        """Resync the most-lagged healthy replica; returns its id (or None).

        One step of the watcher's sweep, against a head read now.
        """
        try:
            head = self._head()
        except Exception:  # noqa: BLE001 - head unreadable: nothing to refresh to
            return None
        lagging = self._lagging(head)
        if lagging and self._resync(lagging[0]):
            return lagging[0].replica_id
        return None

    def _probe_head(self) -> bool:
        """Read the store head and publish it; returns whether it moved.

        Only the watcher thread calls this (and the constructor, once,
        before the thread starts).
        """
        try:
            head = self._head()
        except Exception:  # noqa: BLE001 - unreadable now: keep the last head, try next tick
            return False
        self._head_probed_at = now = time.monotonic()
        if head == self._published_head:
            return False
        self._published_head = head
        self._head_changed_at = now
        return True

    def _watch_loop(self) -> None:
        """Probe, sweep, then wait one tick or as long as the sweep took.

        Sweeps are sequential, so at most one watcher resync is in
        flight fleet-wide; pacing by the measured sweep time keeps
        maintenance near half of this thread however fast the writer
        commits.
        """
        wait = HEAD_WATCH_TICK_SECONDS
        while not self._stop_watcher.wait(wait):
            started = time.monotonic()
            if self._probe_head():
                self._obs_head_changes.inc()
            for replica in self._lagging(self._published_head):
                if self._stop_watcher.is_set():
                    return
                if self._resync(replica):
                    self._obs_refresh_seconds.observe(time.monotonic() - self._head_changed_at)
            wait = max(HEAD_WATCH_TICK_SECONDS, time.monotonic() - started)

    def set_fault_hook(
        self, replica_id: int, hook: Optional[Callable[[str], None]]
    ) -> None:
        """Install a per-replica fault hook (tests/drills); ``None`` clears."""
        self._replica(replica_id).fault_hook = hook

    def _replica(self, replica_id: int) -> _Replica:
        if not 0 <= replica_id < len(self._replicas):
            raise KeyError(f"no replica {replica_id} in a fleet of {len(self._replicas)}")
        return self._replicas[replica_id]

    def restart_replica(self, replica_id: int) -> None:
        """Replace one replica with a freshly opened service and re-admit it.

        The replacement is built first from the store file, then
        swapped in atomically.  An in-flight request on the retired
        service either finishes against its pinned snapshot or — if the
        close catches it mid-resync — retries transparently on a live
        replica, without flagging the fresh one.  Fault hooks do not
        survive a restart, matching a real process replacement.
        """
        replica = self._replica(replica_id)
        if self._store_path is None:
            raise RuntimeError(
                "this fleet was built from detached services; there is no "
                "store path to restart a replica from"
            )
        fresh = CatalogSearchService.from_store_path(self._store_path)
        with self._lock:
            stale = replica.service
            replica.service = fresh
            replica.healthy = True
            replica.last_error = None
            replica.fault_hook = None
            replica.restarts += 1
        self._obs_restarts.inc()
        stale.close()

    # -- introspection ---------------------------------------------------------

    def _metrics_fragment(self) -> Dict[str, object]:
        """Fleet gauges as a registry snapshot fragment.

        Per-replica pinned-snapshot lag (against :meth:`_lag_head`)
        plus health flags as labelled gauges, and the response cache's
        size.
        """
        try:
            head = self._lag_head()
        except Exception:  # noqa: BLE001 - a scrape must never fail
            head = 0
        with self._lock:
            replicas = list(self._replicas)
            cache_bytes = self._body_bytes
        gauges: Dict[str, float] = {
            "serving_fleet_head_commit_count": float(head),
            "serving_response_cache_bytes": float(cache_bytes),
        }
        for replica in replicas:
            try:
                snapshot = replica.service.snapshot_commit_count
            except Exception:  # noqa: BLE001 - a dead replica still scrapes
                snapshot = 0
            labels = {"replica": str(replica.replica_id)}
            gauges[series_key("serving_replica_lag_commits", labels)] = float(
                max(0, head - snapshot)
            )
            gauges[series_key("serving_replica_snapshot_commit_count", labels)] = float(
                snapshot
            )
            gauges[series_key("serving_replica_healthy", labels)] = (
                1.0 if replica.healthy else 0.0
            )
        families = {
            "serving_fleet_head_commit_count": {
                "type": "gauge",
                "help": "Store-head commit counter the fleet measures lag against.",
            },
            "serving_replica_lag_commits": {
                "type": "gauge",
                "help": "Commits each replica's pinned snapshot trails the head by.",
            },
            "serving_replica_snapshot_commit_count": {
                "type": "gauge",
                "help": "Commit prefix each replica currently serves.",
            },
            "serving_replica_healthy": {
                "type": "gauge",
                "help": "1 when the replica is admitted to routing, else 0.",
            },
            "serving_response_cache_bytes": {
                "type": "gauge",
                "help": "Bytes of serialised response bodies (and keys) cached.",
            },
        }
        return snapshot_fragment(gauges=gauges, families=families)

    def health(self) -> Dict[str, object]:
        """Fleet and per-replica health (the ``/health`` body).

        ``healthy`` is fleet-level: at least one replica can serve.  A
        replica that failed a request stays listed with its last error
        until restarted, so operators see *why* the front routed around.
        """
        with self._lock:
            replicas = [
                {
                    "replica_id": replica.replica_id,
                    "healthy": replica.healthy,
                    "in_flight": replica.in_flight,
                    "queries_served": replica.queries_served,
                    "restarts": replica.restarts,
                    "last_error": replica.last_error,
                }
                for replica in self._replicas
            ]
        healthy_count = sum(1 for entry in replicas if entry["healthy"])
        return {
            "healthy": healthy_count > 0,
            "num_replicas": len(self._replicas),
            "healthy_replicas": healthy_count,
            "failovers": self._failovers,
            "replicas": replicas,
        }

    def response_cache_stats(self) -> Dict[str, int]:
        """Response-cache counters and current size (``/stats`` reports them)."""
        with self._lock:
            return {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "evictions": self._cache_evictions,
                "entries": len(self._bodies),
                "bytes": self._body_bytes,
                "max_bytes": RESPONSE_CACHE_MAX_BYTES,
            }

    def _lag_head(self) -> int:
        """The head lag is reported against: the watcher's, else read from the store now."""
        return self._published_head if self._watcher is not None else self._head()

    def lag(self) -> Dict[str, object]:
        """Per-replica divergence from the store head (the ``/lag`` body).

        Each replica reports the commit prefix it is pinned to
        (``snapshot_commit_count``) against the head — the one the
        watcher published, ``head_age_ms`` ago, or without a watcher the
        one read from the store for this call (``head_age_ms`` 0);
        ``max_lag_commits`` is the configured bound the request
        path enforces, so ``lag <= max_lag_commits`` is the invariant
        an operator alerts on (modulo the one-resync race while a
        refresh is in flight).  Each entry also carries the replica's
        resync-mode counters under the nested ``resync`` key, so
        operators can tell journal-delta catch-ups apart from full
        index rebuilds.
        """
        head = self._lag_head()
        head_age_ms = 0.0
        if self._watcher is not None:
            head_age_ms = round((time.monotonic() - self._head_probed_at) * 1000.0, 3)
        replicas = []
        for replica in self._replicas:
            snapshot = replica.service.snapshot_commit_count
            replicas.append(
                {
                    "replica_id": replica.replica_id,
                    "healthy": replica.healthy,
                    "snapshot_commit_count": snapshot,
                    "lag": max(0, head - snapshot),
                    "resync": replica.service.resync_stats(),
                }
            )
        return {
            "head_commit_count": head,
            "head_age_ms": head_age_ms,
            "max_lag_commits": self._max_lag_commits,
            "max_lag": max((entry["lag"] for entry in replicas), default=0),
            "replicas": replicas,
        }

    def stats(self) -> Dict[str, object]:
        """JSON-compatible fleet statistics (the ``/stats`` body).

        The nested ``resync`` key sums the replicas' resync-mode
        counters; each replica's own service statistics (index, reader,
        category facet) sit under ``replicas[i]["stats"]``.
        """
        health = self.health()
        with self._lock:
            total_queries = sum(replica.queries_served for replica in self._replicas)
        resync_totals: Dict[str, int] = {}
        for replica in self._replicas:
            for key, value in replica.service.resync_stats().items():
                resync_totals[key] = resync_totals.get(key, 0) + value
        payload: Dict[str, object] = {
            "mode": "fleet",
            "num_replicas": len(self._replicas),
            "healthy_replicas": health["healthy_replicas"],
            "failovers": health["failovers"],
            "queries_served": total_queries,
            "resync": resync_totals,
            "response_cache": self.response_cache_stats(),
            "max_lag_commits": self._max_lag_commits,
            "watch_head": self._watcher is not None,
            "replicas": [
                dict(entry, **{"stats": self._replicas[entry["replica_id"]].service.stats()})  # type: ignore[index]
                for entry in health["replicas"]  # type: ignore[union-attr]
            ],
        }
        if self._store_path is not None:
            payload["store_path"] = self._store_path
        return payload
