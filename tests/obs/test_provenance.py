"""End-to-end change provenance: one change id from intent to verdict.

A drained PR router is the canonical traced change: the design mutation
lands in the journal under the design change's id, the incremental cycle
*resumes* that id, regenerates exactly the dirty device, pushes the new
config, and the post-deploy sweep passes verdict — one lineage covering
all five pipeline phases.  The flight ring merges pool-task events in
task-key order, so its deterministic dump must be byte-identical at any
worker count, with or without a seeded fault plan in the way.
"""

from __future__ import annotations

import json

import pytest

from repro import Robotron, faults, obs, parallel, seed_environment
from repro.deploy.phases import PhaseSpec
from repro.faults import FaultPlan, RetryPolicy
from repro.fbnet.models import ClusterGeneration, Device, DrainState
from repro.obs import flight
from repro.obs.flight import PHASES

pytestmark = pytest.mark.obs

ROLLOUT_PHASES = [
    PhaseSpec(name="canary", percentage=25),
    PhaseSpec(name="rest", percentage=100),
]


def build_pop(worker_count: int) -> Robotron:
    """A provisioned, monitored POP cluster at a fixed pool size."""
    obs.reset()
    faults.uninstall()
    parallel.set_workers(worker_count)
    robotron = Robotron(retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0))
    env = seed_environment(robotron.store)
    cluster = robotron.build_cluster(
        "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
    )
    robotron.boot_fleet()
    provision = robotron.provision_cluster(cluster)
    assert provision.ok, provision.failed
    robotron.attach_monitoring()
    robotron.run_minutes(2)
    robotron.cluster = cluster  # type: ignore[attr-defined]
    return robotron


def run_drain_cycle(worker_count: int) -> tuple[Robotron, str]:
    """Drain one PR router through a design change + incremental cycle."""
    robotron = build_pop(worker_count)
    router = robotron.cluster.devices["PR"][0]
    with robotron.design_change(
        employee_id="e1", ticket_id="T-1001", description="drain pr for maintenance"
    ) as change:
        robotron.store.update(router, drain_state=DrainState.DRAINING)
    report = robotron.incremental_cycle()
    assert report.deploy is not None and report.deploy.succeeded
    return robotron, change.change_id


def run_chaos_rollout(worker_count: int, seed: int) -> str:
    """A guarded rollout whose psw pushes fail persistently (rolled back)."""
    robotron = build_pop(worker_count)
    repo = robotron.generator.configerator
    for vendor in ("vendor1", "vendor2"):
        path = f"{vendor}/system.tmpl"
        proposal = repo.propose(
            path, "# golden v2\n" + repo.get(path), author="alice", note="v2"
        )
        repo.approve(proposal.change_id, reviewer="bob")
    configs = robotron.generator.generate_devices(list(robotron.store.all(Device)))
    plan = FaultPlan(seed=seed)
    plan.inject("deploy.push", role="psw")
    plan.inject("monitoring.collect", probability=0.05)
    robotron.install_fault_plan(plan)
    try:
        result = robotron.guarded_deploy(
            configs, ROLLOUT_PHASES, max_failure_ratio=0.25, bake_seconds=120.0
        )
    finally:
        faults.uninstall()
    assert result.outcome.value == "rolled_back"
    rollouts = [e for e in flight.timeline() if e.kind == "deploy.rollout"]
    assert rollouts, "guarded_deploy recorded no rollout events"
    return rollouts[-1].change_id


@pytest.fixture(autouse=True)
def _restore_workers():
    yield
    parallel.set_workers(None)


class TestDrainLineage:
    def test_one_change_id_covers_all_five_phases(self):
        robotron, change_id = run_drain_cycle(1)
        lineage = flight.for_change(change_id)
        assert {e.phase for e in lineage} == set(PHASES)
        kinds = {e.kind for e in lineage}
        assert {
            "change.open", "change.commit", "change.resume",
            "model.mutation", "configgen.regen", "deploy.push",
            "confmon.check",
        } <= kinds

    def test_cycle_resumes_the_design_change_id(self):
        robotron, change_id = run_drain_cycle(1)
        # The incremental cycle did not fragment the lineage: besides the
        # auto change that built the cluster, the drain is the only change
        # the flight log knows about, and the cycle resumed it once.
        build_change, *rest = flight.recorder().changes()
        assert rest == [change_id]
        assert "build cluster" in flight.for_change(build_change)[0].detail
        resume = [e for e in flight.for_change(change_id) if e.kind == "change.resume"]
        assert len(resume) == 1

    def test_exactly_the_dirty_device_was_regenerated_and_pushed(self):
        robotron, change_id = run_drain_cycle(1)
        router = robotron.cluster.devices["PR"][0]
        lineage = flight.for_change(change_id)
        regens = [e for e in lineage if e.kind == "configgen.regen"]
        pushes = [e for e in lineage if e.kind == "deploy.push"]
        assert [e.device for e in regens] == [router.name]
        assert [e.device for e in pushes] == [router.name]
        assert pushes[0].verdict == "ok"
        # The regen names the journal record that dirtied the config.
        assert "update" in regens[0].detail

    def test_monitoring_passed_verdict_under_the_same_id(self):
        robotron, change_id = run_drain_cycle(1)
        checks = [
            e for e in flight.for_change(change_id) if e.kind == "confmon.check"
        ]
        assert checks and all(e.verdict == "clean" for e in checks)

    def test_lineage_renders_every_phase_group(self):
        robotron, change_id = run_drain_cycle(1)
        tree = flight.render_lineage(change_id)
        for phase in PHASES:
            assert f"{phase} (" in tree
        assert "drain pr for maintenance" in tree


class TestDeterminism:
    def _dump_after_drain(self, worker_count: int) -> tuple[str, str]:
        _, change_id = run_drain_cycle(worker_count)
        return change_id, json.dumps(flight.deterministic_dump(), sort_keys=True)

    def test_drain_dump_byte_identical_across_worker_counts(self):
        id_w1, dump_w1 = self._dump_after_drain(1)
        id_w4, dump_w4 = self._dump_after_drain(4)
        assert id_w1 == id_w4
        assert dump_w1 == dump_w4

    def test_chaos_dump_byte_identical_across_worker_counts(self, chaos_seed):
        dumps = {}
        for worker_count in (1, 4):
            run_chaos_rollout(worker_count, chaos_seed)
            dumps[worker_count] = json.dumps(
                flight.deterministic_dump(), sort_keys=True
            )
        assert dumps[1] == dumps[4]


class TestRollbackAttribution:
    def test_rollback_chain_lands_under_the_rollout_change(self, chaos_seed):
        change_id = run_chaos_rollout(1, chaos_seed)
        lineage = flight.for_change(change_id)
        kinds = [e.kind for e in lineage]

        # The triggering faults: persistent psw push failures, visible as
        # failed pushes (after in-task retries) attributed to the rollout.
        failed = [
            e for e in lineage if e.kind == "deploy.push" and e.verdict == "failed"
        ]
        assert failed and all(".psw" in e.device for e in failed)
        assert any(e.kind == "deploy.retry" for e in lineage)

        # The breaker verdict and the restorations it caused.
        breakers = [e for e in lineage if e.kind == "deploy.breaker"]
        assert breakers and breakers[0].verdict == "open"
        restores = [e for e in lineage if e.kind == "deploy.lkg_restore"]
        assert restores and all(e.verdict == "restored" for e in restores)

        # The rollout's own verdict closes the chain, in causal order.
        assert kinds[-1] == "change.close"
        outcomes = [e.verdict for e in lineage if e.kind == "deploy.rollout"]
        assert outcomes[0] == "started" and outcomes[-1] == "rolled_back"
        assert kinds.index("deploy.breaker") < kinds.index("deploy.lkg_restore")

    def test_fault_noise_does_not_leak_into_other_changes(self, chaos_seed):
        change_id = run_chaos_rollout(1, chaos_seed)
        # Everything the chaos run recorded belongs to the rollout: the
        # seeded collection noise fires outside any change context and the
        # derived-model writes are suppressed, so neither fabricates
        # lineage for changes that never happened (the only other change is
        # the auto build-cluster change from provisioning).
        assert flight.recorder().changes()[-1] == change_id
        assert len(flight.recorder().changes()) == 2
        # After the rollout opened, nothing unattributed but monitoring
        # verdicts (the provisioning pushes before it rightly carry no id).
        open_seq = flight.for_change(change_id)[0].seq
        unattributed = [
            e for e in flight.timeline() if not e.change_id and e.seq > open_seq
        ]
        assert all(
            e.kind in ("confmon.check", "syslog.message") for e in unattributed
        )
