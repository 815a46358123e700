"""Durability-suite fixtures: the stores under test and the crash points."""

from __future__ import annotations

from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore

#: The stores under test.  Both are named alike, so fault and counter
#: labels are the same whichever one ran.
STORES = {
    "plain": lambda: ObjectStore(name="main"),
    "sharded": lambda: ShardedObjectStore(shards=4, name="main"),
}

#: The two WAL crash points: a torn frame, and death after a whole one.
WAL_CRASHES = ("wal.append_torn", "wal.append_crash")
