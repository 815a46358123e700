"""The full life cycle under a seeded fault plan (chaos acceptance).

One run takes the paper's running example — design a POP cluster,
generate configs, provision the fleet, attach monitoring — through a
multi-region FBNet deployment while the fault plan injects failures at
three distinct points (``rpc.call``, ``deploy.push``,
``monitoring.collect``), then an interface is recabled and an
incremental cycle propagates it.  Retry policies absorb the transient
faults; the phased-deploy circuit breaker contains the persistent ones;
and the whole run is reproducible bit-for-bit from the seed — at any
worker count and on any store kind, where everything but the per-shard
metric labels equals the serial run on plain stores.
"""

from __future__ import annotations

import json
from hashlib import sha256

import pytest

from repro import Robotron, faults, obs, parallel, seed_environment
from repro.common.errors import ReplicationError
from repro.deploy.phases import PhaseSpec
from repro.faults import FaultPlan, RetryPolicy
from repro.fbnet.durability import store_digest
from repro.fbnet.models import Circuit, ClusterGeneration, Device, PhysicalInterface
from repro.fbnet.replication import ReplicatedFBNet
from repro.fbnet.sharding import ShardedObjectStore
from repro.obs import flight

pytestmark = pytest.mark.faults

#: The store each region of the chaos run keeps: ``None`` is the plain one.
STORE_KINDS = {
    "plain": None,
    "1-shard": lambda name: ShardedObjectStore(shards=1, name=name),
    "4-shard": lambda name: ShardedObjectStore(shards=4, name=name),
}

COUNTERS = (
    "faults.injected",
    "rpc.retry",
    "deploy.retry",
    "deploy.circuit_open",
    "monitoring.retry",
)


def counter_total(name: str) -> float:
    return sum(
        series.value
        for series in obs.registry().series()
        if series.name == name and series.kind == "counter"
    )


def build_plan(seed: int) -> FaultPlan:
    """Three active injection points; a mix of deterministic and seeded specs."""
    plan = FaultPlan(seed=seed)
    # Two transient push failures on one ToR during turn-up: the deployer's
    # retry policy (3 attempts) must absorb them.
    plan.inject("deploy.push", device="pop01.c01.tor1", times=2)
    # Burn every read replica once so the first client sweep fails outright
    # and the RPC retry path (rpc.retry) has to recover.
    plan.inject("rpc.call", service="read", times=6)
    # After that, each read poll fails with seeded probability — this is
    # where different seeds make different runs.
    plan.inject("rpc.call", service="read", probability=0.25)
    # Two transient collection faults inside one periodic monitoring job.
    plan.inject("monitoring.collect", job="snmp-system", times=2)
    # From t=300s on, every psw push fails persistently: the later phased
    # rollout must trip its circuit breaker instead of burning the fleet.
    plan.inject("deploy.push", role="psw", start=300.0)
    return plan


def run_cycle(seed: int, store_factory=None) -> dict:
    """One full chaos run; returns a comparable fingerprint of everything."""
    obs.reset()
    faults.uninstall()
    repl = ReplicatedFBNet(
        ["na-west", "na-east", "eu-west"],
        "na-west",
        replication_lag=0.5,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5),
        store_factory=store_factory,
    )
    robotron = Robotron(
        store=repl.master.store,
        scheduler=repl.scheduler,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0),
    )
    env = seed_environment(robotron.store)
    plan = build_plan(seed)
    robotron.install_fault_plan(plan)
    try:
        # Stage 1-3: design, generate, provision (deploy.push faults fire
        # during the undrain push and are retried away).
        cluster = robotron.build_cluster(
            "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
        )
        robotron.boot_fleet()
        provision = robotron.provision_cluster(cluster)
        robotron.run(5.0)  # let replication ship the design to the replicas

        # Remote-region clients read the design through faulty RPC.
        expected_circuits = robotron.store.count(Circuit)
        client = repl.client("eu-west")
        reads: list[int] = []
        for _ in range(10):
            try:
                reads.append(client.count("Circuit"))
            except ReplicationError:
                reads.append(-1)

        # Stage 4: monitoring under injected collection faults.
        robotron.attach_monitoring()
        robotron.run_minutes(10)

        # A later phased rollout hits the persistent psw failures; the
        # circuit breaker must abort the phase, not the whole fleet.
        psw = [d for d in robotron.store.all(Device) if ".psw" in d.name]
        configs = robotron.generator.generate_devices(psw)
        phased = robotron.deployer.phased_deploy(
            configs,
            [PhaseSpec(name="canary", percentage=100)],
            max_failure_ratio=0.25,
        )

        pif = robotron.store.all(PhysicalInterface)[0]
        robotron.store.update(pif, description="chaos recable")
        cycle = robotron.incremental_cycle()
    finally:
        faults.uninstall()
    golden = "".join(config.text for _, config in sorted(robotron.generator.golden.items()))
    return {
        "injections": list(plan.injections),
        "counters": {name: counter_total(name) for name in COUNTERS},
        "provision_ok": provision.ok,
        "provision_succeeded": sorted(provision.succeeded),
        "reads": reads,
        "expected_circuits": expected_circuits,
        "phased_failed": sorted(phased.failed),
        "phased_skipped": sorted(phased.skipped),
        "phased_notifications": list(phased.notifications),
        "journal": {
            name: region.store.journal_position
            for name, region in repl.regions.items()
        },
        "cycle_deploy": [sorted(getattr(cycle.deploy, kind)) for kind in ("succeeded", "skipped", "failed")],
        "regenerated": sorted(cycle.generation.regenerated),
        "discrepancies": sorted(d.device for d in cycle.discrepancies),
        "clock": repl.scheduler.clock.now,
        "golden": sha256(golden.encode()).hexdigest(),
        "digest": store_digest(robotron.store),
        "flight": json.dumps(flight.deterministic_dump(), sort_keys=True),
        "metrics": json.dumps(obs.deterministic_dump(), sort_keys=True),
    }


class TestChaosCycle:
    def test_same_seed_reproduces_bit_for_bit(self, chaos_seed):
        assert run_cycle(chaos_seed) == run_cycle(chaos_seed)

    def test_faults_are_recovered_or_contained(self, chaos_seed):
        result = run_cycle(chaos_seed)
        # At least three distinct injection points actually fired.
        points = {point for _, point, _ in result["injections"]}
        assert {"rpc.call", "deploy.push", "monitoring.collect"} <= points
        # Transient faults were absorbed: provisioning finished despite the
        # ToR push failures, and reads succeeded despite the dead sweep.
        assert result["provision_ok"]
        assert len(result["provision_succeeded"]) == 14
        assert result["expected_circuits"] in result["reads"]
        # Persistent faults were contained: the breaker opened mid-phase
        # instead of pushing to every psw.
        assert result["counters"]["deploy.circuit_open"] == 1
        assert len(result["phased_failed"]) == 2
        assert len(result["phased_skipped"]) == 2
        assert any(
            "exceeds 25%" in message
            for message in result["phased_notifications"]
        )
        # And the telemetry shows all of it.
        assert result["counters"]["faults.injected"] >= 10
        assert result["counters"]["rpc.retry"] >= 1
        assert result["counters"]["deploy.retry"] >= 2
        assert result["counters"]["monitoring.retry"] >= 1

    def test_different_seeds_diverge(self):
        assert run_cycle(11)["injections"] != run_cycle(12)["injections"]


#: Worker count x store kind; the serial plain cell is what each is held to.
CELLS = [
    (workers, kind)
    for kind, counts in (("plain", (2, 4, 8)), ("1-shard", (1, 4)), ("4-shard", (1, 4)))
    for workers in counts
]


@pytest.fixture(scope="module")
def serial(chaos_seed):
    """The serial run of a store kind, made once per module."""
    runs = {}

    def run(kind: str) -> dict:
        if kind not in runs:
            with parallel.workers(1):
                runs[kind] = run_cycle(chaos_seed, STORE_KINDS[kind])
        return runs[kind]

    return run


@pytest.mark.parametrize("workers, kind", CELLS, ids=[f"w{w}-{k}" for w, k in CELLS])
def test_every_cell_is_the_serial_plain_run(serial, chaos_seed, workers, kind):
    """Fingerprint, golden configs, ``store_digest`` and flight log equal
    the serial plain run's; the metric dump, which labels series by
    shard, equals the serial run's on the same store kind."""
    with parallel.workers(workers):
        cell = run_cycle(chaos_seed, STORE_KINDS[kind])
    assert cell.pop("metrics") == serial(kind)["metrics"]
    assert cell == {k: v for k, v in serial("plain").items() if k != "metrics"}
