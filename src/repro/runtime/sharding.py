"""Stable category sharding for the run-time engine.

Offers are partitioned by leaf category: clusters never span categories
(the cluster key embeds the category), so category is the natural
parallelism boundary — every cluster lives wholly inside one shard and
shards can be fused independently.

The shard function must be *stable across processes and runs*: Python's
built-in ``hash`` is randomised per interpreter (PYTHONHASHSEED), which
would scatter the same category to different shards in different worker
processes.  CRC-32 is deterministic everywhere.
"""

from __future__ import annotations

import zlib

__all__ = ["shard_for_category"]


def shard_for_category(category_id: str, num_shards: int) -> int:
    """The shard index of a leaf category (deterministic across processes)."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards == 1:
        return 0
    return zlib.crc32(category_id.encode("utf-8")) % num_shards
