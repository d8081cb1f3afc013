"""Pluggable shard executors for the run-time engine.

The engine hands each executor a pure function plus one payload per
shard; the executor returns the results **in payload order**, which is
what lets serial and process-pool execution produce byte-identical
engine output — the only difference is wall-clock time.

``ProcessPoolShardExecutor`` requires the mapped function and payloads to
be picklable (the engine's shard-fusion function is a module-level
function over plain dataclasses, so it is).  Pools are created lazily on
first use and reused across ``ingest`` calls; call :meth:`close` (or use
the engine as a context manager) to release workers.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

__all__ = [
    "SerialExecutor",
    "ProcessPoolShardExecutor",
    "ShardExecutor",
    "resolve_executor",
]


class SerialExecutor:
    """Run shard tasks one after another in the calling thread."""

    name = "serial"
    #: Whether ``map_pinned`` routes equal keys to the same worker across
    #: calls — the property the delta re-fusion protocol builds on.
    supports_pinning = False

    def map_shards(self, function: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """Apply ``function`` to each payload, preserving order."""
        return [function(payload) for payload in payloads]

    def close(self) -> None:
        """Nothing to release."""


class ProcessPoolShardExecutor:
    """Fan shards out over a process pool (true CPU parallelism).

    Besides the plain ``map_shards`` pool, this executor maintains a set
    of *pinned* single-worker pools for :meth:`map_pinned`: payloads with
    the same key always land in the same worker process across calls.
    That stable shard→worker affinity is what lets workers keep
    shard-resident cluster state between batches (the delta re-fusion
    protocol, :mod:`repro.runtime.delta`) instead of receiving full
    cluster contents every time.
    """

    name = "process"
    supports_pinning = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = max_workers
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pinned_pools: Dict[int, concurrent.futures.ProcessPoolExecutor] = {}

    def _num_slots(self) -> int:
        return self._max_workers or os.cpu_count() or 1

    def map_shards(self, function: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """Apply ``function`` to each payload concurrently, preserving order."""
        if len(payloads) <= 1:
            # Not worth the dispatch overhead — and keeps single-shard
            # engines usable even where worker processes cannot start.
            return [function(payload) for payload in payloads]
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self._max_workers)
        return list(self._pool.map(function, payloads))

    def map_pinned(
        self,
        function: Callable[[Any], Any],
        payloads: Sequence[Any],
        keys: Sequence[int],
    ) -> List[Any]:
        """Apply ``function`` to each payload on its key's pinned worker.

        Payloads are dispatched concurrently (one single-worker pool per
        key slot, created lazily) and results come back in payload order.
        Equal keys — and keys congruent modulo the worker count — are
        guaranteed to run in the same OS process across calls, for the
        lifetime of this executor.
        """
        if len(payloads) != len(keys):
            raise ValueError(
                f"payloads and keys must parallel each other, "
                f"got {len(payloads)} payloads and {len(keys)} keys"
            )
        num_slots = self._num_slots()
        futures = []
        for payload, key in zip(payloads, keys):
            slot = key % num_slots
            pool = self._pinned_pools.get(slot)
            if pool is None:
                pool = concurrent.futures.ProcessPoolExecutor(max_workers=1)
                self._pinned_pools[slot] = pool
            futures.append(pool.submit(function, payload))
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut all pools down (they are re-created lazily if used again)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        pinned, self._pinned_pools = self._pinned_pools, {}
        for pool in pinned.values():
            pool.shutdown()


#: Anything accepted by :func:`resolve_executor`.
ShardExecutor = Union[SerialExecutor, ProcessPoolShardExecutor]

_EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessPoolShardExecutor,
}


def resolve_executor(
    executor: Union[str, ShardExecutor, None],
    max_workers: Optional[int] = None,
) -> ShardExecutor:
    """Turn an executor name (or instance, or ``None``) into an executor.

    ``None`` and ``"serial"`` give the serial executor; ``"process"``
    gives the process-pool executor.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, str):
        try:
            factory = _EXECUTORS[executor]
        except KeyError:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {sorted(_EXECUTORS)}"
            ) from None
        if factory is SerialExecutor:
            return SerialExecutor()
        return factory(max_workers=max_workers)
    return executor
