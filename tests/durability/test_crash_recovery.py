"""Crash-consistent recovery under seeded crash storms (the tentpole).

The acceptance bar: a seeded crash injected at any WAL crash point
during a 224-device full design build recovers to a store whose journal
and object tables are **bit-identical** to a crash-free run's state at
the last committed transaction — and the management plane (incremental
cycle, remediation) resumes on top of the recovered store.

Determinism: the workload is the seeded environment + cluster builder
(both deterministic), the crash position is drawn from
``random.Random(chaos_seed)``, and "bit-identical" is asserted over the
canonical wire encoding (journal) and :func:`store_digest` (tables,
indexes, id allocator).

The store under test is a parameter: a plain ``ObjectStore`` and a
4-shard ``ShardedObjectStore`` face the *same* plain-store oracle, since
a commit is one WAL frame whichever of the two wrote it.
"""

from __future__ import annotations

import random

import pytest

from repro import Robotron, faults, obs, seed_environment
from repro.common.errors import ProcessCrash
from repro.design.cluster import build_cluster
from repro.faults.plan import FaultPlan
from repro.fbnet.durability import encode_record, store_digest
from repro.fbnet.models import (
    ClusterGeneration,
    DeploymentRecord,
    Device,
    DrainState,
    PhysicalInterface,
    Region,
)
from repro.fbnet.store import ObjectStore

from tests.durability.conftest import STORES, WAL_CRASHES
from tests.invariants import replay, store_violations

pytestmark = pytest.mark.durability

CLUSTERS = 8  # DC Gen3 clusters of 28 devices each: 224 devices total


def store_crash_cases() -> list:
    """Store kind × crash point; the plain cases keep their historical ids."""
    return [
        pytest.param(kind, point, id=point if kind == "plain" else f"{kind}-{point}")
        for kind in STORES
        for point in WAL_CRASHES
    ]


def build_fleet_design(store) -> None:
    """The deterministic 224-device workload (same as BENCH suites)."""
    env = seed_environment(store, datacenter_count=CLUSTERS)
    for index in range(1, CLUSTERS + 1):
        dc = f"dc{index:02d}"
        build_cluster(
            store, f"{dc}.c01", env.datacenters[dc], ClusterGeneration.DC_GEN3
        )


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """One crash-free run: its journal is the ground truth prefix."""
    obs.reset()
    faults.uninstall()
    root = tmp_path_factory.mktemp("oracle-wal")
    store = ObjectStore(name="main")
    store.attach_durability(root)
    build_fleet_design(store)
    appends = int(obs.counter("store.wal.appends", store="main").value)
    journal = [encode_record(r) for r in store.journal]
    obs.reset()
    return {
        "journal": journal,
        "records": store.journal,
        "appends": appends,
        "digest": store_digest(store),
    }


@pytest.mark.parametrize("store_kind, crash_point", store_crash_cases())
def test_seeded_crash_recovers_bit_identical(
    tmp_path, chaos_seed, store_kind, crash_point, oracle
):
    """Kill the build at a seeded instant; recovery matches the oracle."""
    rng = random.Random(chaos_seed)
    plan = FaultPlan(seed=chaos_seed)
    plan.inject(
        crash_point,
        after=rng.randint(oracle["appends"] // 4, oracle["appends"] - 1),
        times=1,
    )

    store = STORES[store_kind]()
    store.attach_durability(tmp_path)
    faults.install(plan)
    with pytest.raises(ProcessCrash):
        build_fleet_design(store)
    faults.uninstall()

    recovered = ObjectStore.recover(tmp_path, attach=False)
    assert type(recovered) is type(store)
    assert store_violations(recovered) == []

    # The recovered journal is byte-for-byte a prefix of the crash-free
    # journal: nothing reordered, nothing corrupted, nothing invented.
    position = recovered.journal_position
    assert 0 < position <= len(oracle["journal"])
    assert [encode_record(r) for r in recovered.journal] == oracle["journal"][:position]

    # Tables + indexes + id allocator match a store that replayed exactly
    # that prefix — i.e. the crash-free state at the last durable commit.
    assert store_digest(recovered) == store_digest(replay(oracle["records"][:position]))

    # Crash-point-specific positioning:
    if crash_point == "wal.append_torn":
        # The torn commit was lost entirely — the WAL and the dying
        # process's in-memory journal agree on the prefix before it.
        assert position == store.journal_position
        assert obs.counter("store.wal.torn_truncated", store="main").value == 1
    elif crash_point == "wal.append_crash":
        # The whole in-flight commit was durable but never applied in
        # memory: recovery surfaces exactly one extra transaction.
        extra = recovered.journal[store.journal_position :]
        assert extra and len({r.txn_id for r in extra}) == 1


@pytest.mark.parametrize("store_kind", list(STORES))
@pytest.mark.parametrize("crash_point", WAL_CRASHES)
def test_multi_shard_transaction_recovers_whole_or_not_at_all(
    tmp_path, store_kind, crash_point
):
    """Two transactions of eight regions each (eight regions spread over
    every shard), the process dying at the second WAL append: the first
    transaction is whole, the second is whole or absent, never partial."""
    store = STORES[store_kind]()
    store.attach_durability(tmp_path)
    plan = FaultPlan(seed=1)
    plan.inject(crash_point, after=1, times=1)
    faults.install(plan)
    with store.transaction():
        for index in range(8):
            store.create(Region, name=f"first-{index:02d}")
    with pytest.raises(ProcessCrash):
        with store.transaction():
            for index in range(8):
                store.create(Region, name=f"second-{index:02d}")
    faults.uninstall()

    recovered = ObjectStore.recover(tmp_path, attach=False)
    assert store_violations(recovered) == []
    survivors = 8 if crash_point == "wal.append_torn" else 16
    assert [r.obj_id for r in recovered.journal] == list(range(1, survivors + 1))
    assert recovered.count(Region) == recovered.total_objects() == survivors


def test_crash_free_run_recovers_to_full_oracle(tmp_path, oracle):
    """No crash at all: recovery reproduces the complete final state."""
    store = ObjectStore(name="main")
    store.attach_durability(tmp_path)
    build_fleet_design(store)
    recovered = ObjectStore.recover(tmp_path, attach=False)
    assert store_violations(recovered) == []
    assert [encode_record(r) for r in recovered.journal] == oracle["journal"]
    assert store_digest(recovered) == oracle["digest"]
    assert store_digest(recovered) == store_digest(store)


class TestManagementPlaneResumes:
    """After recovery the cycle engines pick up where the WAL left off."""

    def build_robotron(self, root):
        robotron = Robotron()
        robotron.attach_durability(root)
        env = seed_environment(robotron.store)
        cluster = robotron.build_cluster(
            "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
        )
        robotron.boot_fleet()
        report = robotron.provision_cluster(cluster)
        assert report.ok, report.failed
        robotron.attach_monitoring()
        return robotron

    def test_incremental_cycle_resumes_after_crash(self, tmp_path, chaos_seed):
        robotron = self.build_robotron(tmp_path)
        pif = robotron.store.all(PhysicalInterface)[0]
        owner = pif.related("agg_interface").related("device")

        # Crash on the very next commit: the mutation is durable on disk
        # but the dying process never saw it applied.
        plan = FaultPlan(seed=chaos_seed)
        plan.inject("wal.append_crash", times=1)
        faults.install(plan)
        with pytest.raises(ProcessCrash):
            robotron.store.update(pif, description="recabled before crash")
        faults.uninstall()

        resumed = Robotron.recover(tmp_path)
        assert store_violations(resumed.store) == []
        assert resumed.store.journal_position == robotron.store.journal_position + 1
        # The durable-but-unapplied mutation came back.
        recovered_pif = resumed.store.get(PhysicalInterface, pif.id)
        assert recovered_pif.description == "recabled before crash"

        resumed.boot_fleet()
        resumed.attach_monitoring()
        devices = resumed.store.all(Device)
        resumed.generator.generate_devices(devices)

        # Dirty tracking runs against the recovered journal: a clean cycle
        # is a no-op, a single mutation dirties exactly its owner device.
        clean = resumed.incremental_cycle(deploy=False, sweep=False)
        assert clean.generation.regenerated == {}
        resumed.store.update(
            resumed.store.get(PhysicalInterface, pif.id),
            description="recabled after recovery",
        )
        cycle = resumed.incremental_cycle(deploy=False, sweep=False)
        assert set(cycle.generation.regenerated) == {owner.name}

    def test_remediation_state_survives_and_reconverges(
        self, tmp_path, chaos_seed
    ):
        from repro.remediation import RemediationPolicy

        robotron = self.build_robotron(tmp_path)
        robotron.attach_remediation(
            RemediationPolicy(bake_seconds=0.0, cooldown_seconds=120.0)
        )
        names = sorted(robotron.fleet.devices)
        for name in names:
            device = robotron.fleet.get(name)
            if device.vendor == "vendor1":
                hacked = device.running_config + "interface et9/9\n no shutdown\n!\n"
            else:
                hacked = (
                    device.running_config
                    + "interfaces {\n    et9/9 {\n    }\n}\n"
                )
            device.commit(hacked)

        # Let the loop make some durable progress (five commits past plan
        # install), then die mid-loop.
        plan = FaultPlan(seed=chaos_seed)
        plan.inject("wal.append_crash", after=5, times=1)
        robotron.install_fault_plan(plan)
        with pytest.raises(ProcessCrash):
            robotron.remediation_loop(max_sweeps=30, period=60.0)
        faults.uninstall()

        crashed_journal = [encode_record(r) for r in robotron.store.journal]
        crashed_records = len(
            robotron.store.filter(DeploymentRecord, None)
        )

        resumed = Robotron.recover(tmp_path)
        assert store_violations(resumed.store) == []
        recovered_journal = [encode_record(r) for r in resumed.store.journal]
        # Everything the crashed process saw committed survives (plus at
        # most the one durable-but-unapplied record).
        assert recovered_journal[: len(crashed_journal)] == crashed_journal
        assert len(recovered_journal) - len(crashed_journal) <= 1
        assert len(resumed.store.filter(DeploymentRecord, None)) >= crashed_records

        # Devices the crashed run already quarantined stay quarantined.
        drained_before = {
            d.name
            for d in resumed.store.all(Device)
            if d.drain_state is DrainState.DRAINED
        }

        resumed.boot_fleet()
        resumed.attach_monitoring()
        resumed.attach_remediation(
            RemediationPolicy(bake_seconds=0.0, cooldown_seconds=120.0)
        )
        # The fleet rebuilt from Desired state is clean; re-introduce the
        # drift on every still-active device and drive it to convergence.
        for name in sorted(resumed.fleet.devices):
            device = resumed.fleet.get(name)
            if device.vendor == "vendor1":
                hacked = device.running_config + "interface et9/9\n no shutdown\n!\n"
            else:
                hacked = (
                    device.running_config
                    + "interfaces {\n    et9/9 {\n    }\n}\n"
                )
            device.commit(hacked)
        report = resumed.remediation_loop(max_sweeps=30, period=60.0)
        assert report.converged, report.states
        assert set(report.states.values()) <= {"verified", "quarantined"}
        still_drained = {
            d.name
            for d in resumed.store.all(Device)
            if d.drain_state is DrainState.DRAINED
        }
        assert drained_before <= still_drained
