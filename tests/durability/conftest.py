"""Durability-suite fixtures.

The chaos seed comes from the environment so CI can replay the whole
crash matrix under fixed seeds (``CHAOS_SEED=20160816 pytest -m
durability``); ``CRASH_POINT`` optionally narrows the parametrized
crash-point tests to a single WAL fault point.
"""

from __future__ import annotations

import os

import pytest

from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore

#: The stores under test.  Both are named alike, so fault and counter
#: labels are the same whichever one ran.
STORES = {
    "plain": lambda: ObjectStore(name="main"),
    "sharded": lambda: ShardedObjectStore(shards=4, name="main"),
}

#: The two WAL crash points the chaos matrix sweeps.
CRASH_POINTS = ("wal.append_torn", "wal.append_crash")


@pytest.fixture
def chaos_seed() -> int:
    return int(os.environ.get("CHAOS_SEED", "1337"))


def crash_point_params() -> list[str]:
    chosen = os.environ.get("CRASH_POINT")
    if chosen:
        if chosen not in CRASH_POINTS:
            raise ValueError(f"unknown CRASH_POINT {chosen!r}")
        return [chosen]
    return list(CRASH_POINTS)
