"""Sharding-suite fixtures.  A test that needs another shard count builds
its stores at 1 and 4 shards in-process."""

from __future__ import annotations

import pytest

from repro.fbnet.sharding import ShardedObjectStore


@pytest.fixture
def sharded() -> ShardedObjectStore:
    """An empty 4-shard store."""
    return ShardedObjectStore(shards=4)
