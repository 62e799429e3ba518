"""Sharded parallel scan engine for the wild-scan workload.

Splits the deterministic wild-scan schedule across worker processes and
merges the per-shard results; the merged output is byte-identical for
any worker count (see :mod:`repro.engine.scan` for the contract). The
same shard machinery also runs as a streaming pipeline over a live block
stream (:mod:`repro.engine.stream`) with the identical-results guarantee.
"""

from .plan import (
    DEFAULT_SHARD_COUNT,
    MIN_SHARDED_POPULATION,
    build_schedule,
    population_size,
    resolve_shard_count,
    shard_of,
    shard_schedule,
    shard_seed,
)
from .scan import ScanEngine, ShardResult, merge_shard_results
from .stream import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_QUEUE_DEPTH,
    BlockStats,
    StreamBlock,
    StreamEngine,
    StreamResult,
    schedule_block_stream,
    screen_blocks,
)
from .wire import (
    config_from_wire,
    config_to_wire,
    shard_result_from_wire,
    shard_result_to_wire,
)

__all__ = [
    "ScanEngine",
    "ShardResult",
    "merge_shard_results",
    "config_to_wire",
    "config_from_wire",
    "shard_result_to_wire",
    "shard_result_from_wire",
    "StreamBlock",
    "StreamEngine",
    "StreamResult",
    "BlockStats",
    "build_schedule",
    "population_size",
    "resolve_shard_count",
    "shard_of",
    "shard_schedule",
    "shard_seed",
    "schedule_block_stream",
    "screen_blocks",
    "DEFAULT_SHARD_COUNT",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_QUEUE_DEPTH",
    "MIN_SHARDED_POPULATION",
]
