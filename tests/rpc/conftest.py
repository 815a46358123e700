"""Read-front-door suite fixtures.

The ``cache-consistency`` CI matrix pins ``ROBOTRON_WORKERS`` and
``CHAOS_SEED`` and reruns this suite per cell; the fixtures default to
4 shards (``FBNET_SHARDS``, which CI leaves alone) and seed 1337.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import seed_environment
from repro.design.cluster import build_cluster
from repro.fbnet.models import ClusterGeneration
from repro.fbnet.rpc import RpcRequest, encode_message
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore


def respelled(request: RpcRequest) -> bytes:
    """``request`` on the wire with its args spelled another way (keys in
    reverse order, indented): the same question in different bytes."""
    body = json.dumps(dict(reversed(sorted(request.args.items()))), indent=1).encode()
    head = request.to_wire()[: -len(encode_message(request.args)) - 4]
    return head + len(body).to_bytes(4, "big") + body


@pytest.fixture
def chaos_seed() -> int:
    return int(os.environ.get("CHAOS_SEED", "1337"))


@pytest.fixture
def shard_count() -> int:
    return int(os.environ.get("FBNET_SHARDS", "4"))


def build_pop_store(shards: int = 0) -> ObjectStore:
    """A store holding one built POP cluster (14 devices + catalog).

    ``shards`` > 0 builds it on a :class:`ShardedObjectStore`; 0 on a
    plain one.  Identical content either way — the shard matrix leans
    on that.
    """
    store: ObjectStore = (
        ShardedObjectStore(shards=shards) if shards else ObjectStore()
    )
    env = seed_environment(store)
    build_cluster(store, "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2)
    return store


@pytest.fixture
def pop_store() -> ObjectStore:
    return build_pop_store()
