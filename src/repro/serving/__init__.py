"""The read side: snapshot-isolated query serving over the catalog.

Everything before this package scales the *write* path — streaming
ingest, durable stores, multi-node and multi-process clusters.  This
package serves the synthesized catalog to readers, isolated from the
writers in the HTAP style (an independent read engine fed by update
propagation from the transactional side):

``index``
    :class:`~repro.serving.index.CatalogIndex` — an inverted TF-IDF
    keyword index over product titles and attribute values with top-k
    ranked search, category/attribute filters, and faceted counts;
    maintained incrementally from the store's commit journal, with a
    fresh index as the full-rebuild fallback.
``reader``
    :class:`~repro.serving.reader.CatalogReader` — a read-only WAL
    connection onto the shared store file, so queries run concurrently
    with a live ingesting engine and observe only committed batches
    (keyset-paged disk reads, snapshot identity via the store's
    persistent commit counter, and journal deltas via ``read_delta`` so
    resyncs cost O(changed), not O(catalog)).
``service``
    :class:`~repro.serving.service.CatalogSearchService` — the facade
    gluing index to reader, with the snapshot-isolation guarantee: a
    query never sees a half-applied batch.  Every service serves a store
    file: it is opened with ``from_store_path`` or as a ``follower`` of
    one that was.
``fleet``
    :class:`~repro.serving.fleet.ServingFleet` — N replicated services
    over one shared store behind a least-in-flight front: per-request
    snapshot pinning, bounded divergence (``max_lag_commits``) kept by
    a head watcher, fault route-around, replica restart, and the one
    response cache every replica shares.
``http``
    Stdlib JSON endpoints (``/search``, ``/product/<id>``, ``/health``,
    ``/lag``, ``/stats``) behind the ``runtime-serve`` CLI command,
    fronting a fleet over a bounded worker pool.
"""

from repro.serving.fleet import FleetSearchResponse, FleetUnavailableError, ServingFleet
from repro.serving.http import CatalogHTTPServer, serve
from repro.serving.index import CatalogIndex, SearchResult
from repro.serving.reader import CatalogReader
from repro.serving.service import CatalogSearchService

__all__ = [
    "CatalogIndex",
    "SearchResult",
    "CatalogReader",
    "CatalogSearchService",
    "ServingFleet",
    "FleetSearchResponse",
    "FleetUnavailableError",
    "CatalogHTTPServer",
    "serve",
]
