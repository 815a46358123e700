"""Replay enters ``apply_record`` once per record, through ordinary dispatch.

The layer ledger (``benchmarks/ledger/spans.py``) attributes replay to the
store by wrapping ``ObjectStore.apply_record`` and
``ShardedObjectStore.apply_record`` on their classes.  Recovery and a
replica's catch-up must therefore call the method by name for every
record, and the sharded override must reach the base through ``super()``:
a fused batch replay, or a base method bound once at import, would leave
the wrappers unentered and the work unattributed.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro import seed_environment
from repro.design.cluster import build_cluster
from repro.fbnet.models import ClusterGeneration, Region
from repro.fbnet.replication import ReplicatedFBNet
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore
from repro.simulation.clock import EventScheduler

from tests.durability.conftest import STORES
from tests.invariants import store_violations

pytestmark = pytest.mark.durability

#: ``STORES``' two kinds, as a replicated net's per-region store factory.
FACTORIES = {
    "plain": lambda name: ObjectStore(name=name),
    "sharded": lambda name: ShardedObjectStore(shards=4, name=name),
}


@pytest.fixture
def entered(monkeypatch) -> Counter:
    """Calls into each class's own ``apply_record``, counted by a wrapper
    patched on the class as the ledger patches it."""
    counts: Counter = Counter()
    for owner in (ObjectStore, ShardedObjectStore):
        raw = vars(owner)["apply_record"]

        def traced(*args, _raw=raw, _name=owner.__name__, **kwargs):
            counts[_name] += 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(owner, "apply_record", functools.wraps(raw)(traced))
    return counts


def history(store) -> None:
    """A POP cluster's build, then an update and a delete."""
    env = seed_environment(store)
    build_cluster(store, "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2)
    spare = store.create(Region, name="spare")
    store.update(spare, name="renamed")
    store.delete(spare)


@pytest.mark.parametrize("kind", list(STORES))
def test_recovery_enters_apply_record_once_a_record(tmp_path, kind, entered):
    store = STORES[kind]()
    store.attach_durability(tmp_path)
    history(store)
    store.detach_durability()
    records = store.journal_position
    assert not entered  # a write is journaled, never applied as a record

    recovered = ObjectStore.recover(tmp_path, attach=False)
    assert recovered.journal_position == records
    assert entered["ObjectStore"] == records
    assert entered["ShardedObjectStore"] == (records if kind == "sharded" else 0)
    assert store_violations(recovered) == []


@pytest.mark.parametrize("kind", list(STORES))
def test_replica_catch_up_enters_apply_record_once_a_record(kind, entered):
    net = ReplicatedFBNet(
        ["a", "b"], "a", EventScheduler(), replication_lag=0.5,
        store_factory=FACTORIES[kind],
    )
    net.disable_database("b")
    history(net.master.store)
    net.scheduler.run_for(1.0)
    assert not entered  # a disabled database applies nothing

    net.recover_database("b")  # bootstraps the replica from the master's journal
    replica, records = net.regions["b"].store, net.master.store.journal_position
    assert replica.journal_position == records
    assert entered["ObjectStore"] == records
    assert entered["ShardedObjectStore"] == (records if kind == "sharded" else 0)
