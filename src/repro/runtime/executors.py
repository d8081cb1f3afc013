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

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Union

if TYPE_CHECKING:
    import concurrent.futures

__all__ = [
    "SerialExecutor",
    "ProcessPoolShardExecutor",
    "ShardExecutor",
    "resolve_executor",
]


class SerialExecutor:
    """Run shard tasks one after another in the calling thread."""

    name = "serial"

    def map_shards(self, function: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """Apply ``function`` to each payload, preserving order."""
        return [function(payload) for payload in payloads]

    def close(self) -> None:
        """Nothing to release."""


class ProcessPoolShardExecutor:
    """Fan shards out over a process pool (true CPU parallelism)."""

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = max_workers
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def map_shards(self, function: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """Apply ``function`` to each payload concurrently, preserving order."""
        if len(payloads) <= 1:
            # Not worth the dispatch overhead — and keeps single-shard
            # engines usable even where worker processes cannot start.
            return [function(payload) for payload in payloads]
        if self._pool is None:
            # Imported on first use: a serial engine (every cluster node's)
            # never loads the pool machinery.
            import concurrent.futures

            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self._max_workers)
        return list(self._pool.map(function, payloads))

    def close(self) -> None:
        """Shut the pool down (it is re-created lazily if used again)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


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
