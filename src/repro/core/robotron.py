"""The Robotron facade: the four-stage life cycle in one object (Figure 3).

``Robotron`` wires the subsystems together the way Figure 3 draws them:
FBNet at the center; network design writing Desired objects; config
generation deriving golden configs; deployment pushing them to the
(emulated) fleet; and monitoring watching the fleet, populating Derived
models, and guarding config conformance.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from contextlib import nullcontext

from repro import faults, obs
from repro.obs import flight
from repro.common.errors import RobotronError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.configgen.configerator import Configerator
from repro.configgen.generator import (
    ConfigGenerator,
    DeviceConfig,
    IncrementalGenReport,
)
from repro.deploy.deployer import DeployReport, Deployer, cluster_domain
from repro.deploy.guard import DeploymentGuard, HealthGate, RolloutResult
from repro.deploy.phases import PhaseSpec
from repro.design.backbone import BackboneDesignTool
from repro.design.changes import ChangeSummary, DesignChange
from repro.design.cluster import build_cluster
from repro.design.materializer import MaterializedCluster
from repro.design.validation import DEFAULT_RULES
from repro.devices.fleet import DeviceFleet
from repro.fbnet.base import Model
from repro.fbnet.models import ClusterGeneration, DeviceStatus, DrainState
from repro.fbnet.store import ObjectStore
from repro.monitoring.audit import AuditReport, run_audit
from repro.monitoring.backends import DerivedModelBackend, TimeSeriesBackend
from repro.monitoring.classifier import Classifier, default_rule_table
from repro.monitoring.confmon import ConfigDiscrepancy, ConfigMonitor
from repro.monitoring.jobs import JobManager, JobSpec
from repro.monitoring.syslog import SyslogCollector
from repro.simulation.clock import EventScheduler, MINUTE

__all__ = ["IncrementalCycleReport", "Robotron"]


@dataclass
class IncrementalCycleReport:
    """Outcome of one :meth:`Robotron.incremental_cycle` pass."""

    #: What config generation found dirty (and regenerated).
    generation: IncrementalGenReport
    #: The deployment of the regenerated configs (None when nothing was
    #: dirty or deployment was not requested).
    deploy: DeployReport | None = None
    #: Drift found by the prioritized ConfMon sweep afterwards.
    discrepancies: list[ConfigDiscrepancy] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.deploy is None or self.deploy.ok) and not self.discrepancies


def _refuse_snapshots(snapshot_every: None) -> None:
    if snapshot_every is not None:
        # What Python itself will say once the keyword is deleted.
        raise TypeError(
            f"snapshot_every={snapshot_every!r}: the WAL has no snapshots; "
            "the keyword accepts only None"
        )


#: The default periodic monitoring schedule (engine, data type, period s).
DEFAULT_JOB_SPECS = (
    JobSpec("snmp-interfaces", "snmp", "interfaces", 60.0, ("tsdb", "derived")),
    JobSpec("snmp-system", "snmp", "system", 60.0, ("tsdb", "derived")),
    JobSpec("cli-lldp", "cli", "lldp", 300.0, ("derived",)),
    JobSpec("cli-bgp", "cli", "bgp", 300.0, ("derived",)),
    JobSpec("cli-config-backup", "cli", "running-config", 3600.0, ("config-backup", "derived")),
)


class Robotron:
    """One Robotron deployment over one FBNet store and one device fleet."""

    def __init__(
        self,
        store: ObjectStore | None = None,
        scheduler: EventScheduler | None = None,
        *,
        configerator: Configerator | None = None,
        retry_policy: RetryPolicy | None = None,
        shards: int | None = None,
    ):
        if shards is not None:
            if store is not None:
                raise RobotronError("pass either a store or a shard count")
            from repro.fbnet.sharding import ShardedObjectStore

            store = ShardedObjectStore(shards=shards)
        self.scheduler = scheduler or EventScheduler()
        #: Passed to the deployer and job manager built by this facade so
        #: chaos runs recover transient faults (see :mod:`repro.faults`).
        self.retry_policy = retry_policy
        # Spans record simulated time alongside wall time (last Robotron
        # built wins the global tracer's clock — they share it in tests).
        obs.set_sim_clock(self.scheduler.clock)
        self.store = store or ObjectStore()
        self.generator = ConfigGenerator(self.store, configerator)
        self.backbone = BackboneDesignTool(self.store)

        # Built when the network is provisioned.
        self.fleet: DeviceFleet | None = None
        self.deployer: Deployer | None = None
        self.guard: DeploymentGuard | None = None
        self.jobs: JobManager | None = None
        self.collector: SyslogCollector | None = None
        self.classifier: Classifier | None = None
        self.confmon: ConfigMonitor | None = None
        #: The closed-loop remediation engine (attach_remediation()).
        self.remediation = None
        self.tsdb = TimeSeriesBackend()
        self.notifications: list[str] = []

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def attach_durability(
        self, root, *, snapshot_every: None = None, fsync: bool = False
    ):
        """Journal this deployment's FBNet commits to a WAL under ``root``.

        ``snapshot_every`` selects nothing (snapshots were deleted in PR 19):
        it accepts only ``None``, and stays only because
        ``benchmarks/ledger/workloads.py`` spells it, until the next
        ``benchmark`` PR (ROADMAP 2a) stops.
        """
        _refuse_snapshots(snapshot_every)
        return self.store.attach_durability(root, fsync=fsync)

    @classmethod
    def recover(
        cls,
        root,
        scheduler: EventScheduler | None = None,
        *,
        configerator: Configerator | None = None,
        retry_policy: RetryPolicy | None = None,
        snapshot_every: None = None,
        fsync: bool = False,
    ) -> Robotron:
        """Rebuild a Robotron whose process died, from its durability root.

        The FBNet store comes back crash-consistent (last durable commit);
        volatile state — the emulated fleet, monitoring, remediation — is
        re-derived from it the same way a fresh deployment would:
        ``boot_fleet()``, ``attach_monitoring()``, ``attach_remediation()``.
        ``snapshot_every`` is the None-only keyword of
        :meth:`attach_durability`.
        """
        _refuse_snapshots(snapshot_every)
        # Plain or sharded, as the root itself says.
        store = ObjectStore.recover(root, fsync=fsync)
        return cls(
            store,
            scheduler,
            configerator=configerator,
            retry_policy=retry_policy,
        )

    # ------------------------------------------------------------------
    # Stage 1: network design
    # ------------------------------------------------------------------

    def design_change(
        self,
        *,
        employee_id: str,
        ticket_id: str,
        description: str = "",
        domain: str = "",
        reviewer: Callable[[ChangeSummary], bool] | None = None,
    ) -> DesignChange:
        """Open a validated, reviewed, audited design change (section 5.1)."""
        return DesignChange(
            self.store,
            employee_id=employee_id,
            ticket_id=ticket_id,
            description=description,
            domain=domain,
            reviewer=reviewer,
            validators=list(DEFAULT_RULES),
            committed_at=self.scheduler.clock.now,
        )

    def build_cluster(
        self,
        name: str,
        location: Model,
        generation: ClusterGeneration,
        *,
        employee_id: str = "oncall",
        ticket_id: str = "AUTO",
    ) -> MaterializedCluster:
        """Design-change-wrapped cluster build from the generation catalog."""
        with obs.span(
            "design.build_cluster", cluster=name, generation=generation.value
        ):
            with self.design_change(
                employee_id=employee_id,
                ticket_id=ticket_id,
                description=f"build cluster {name}",
                domain=location.domain.value,
            ):
                return build_cluster(self.store, name, location, generation)

    # ------------------------------------------------------------------
    # Stage 2 + 3: config generation and deployment
    # ------------------------------------------------------------------

    def boot_fleet(self) -> DeviceFleet:
        """Instantiate the emulated fleet from FBNet Desired state."""
        with obs.span("robotron.boot_fleet"):
            self.fleet = DeviceFleet.from_fbnet(self.store, self.scheduler)
            self.deployer = Deployer(
                self.fleet,
                notifier=self.notifications.append,
                retry_policy=self.retry_policy,
                # Phased pushes may run concurrently across clusters but
                # never two at once within one (blast-radius cap).
                domain_of=cluster_domain,
            )
            self.guard = DeploymentGuard(
                self.deployer,
                self.fleet,
                store=self.store,
                notifier=self.notifications.append,
            )
        return self.fleet

    def _require_fleet(self) -> DeviceFleet:
        if self.fleet is None:
            raise RobotronError("no fleet; call boot_fleet() first")
        return self.fleet

    def provision_devices(self, devices: list[Model]) -> DeployReport:
        """Initially provision clean devices, then undrain them.

        Mirrors the paper's turn-up sequence: devices are provisioned
        while fully drained (section 5.3.1's requirement) — their first
        configs carry BGP shutdowns — and only then undrained, which is
        an incremental config update that brings the sessions up.
        """
        fleet = self._require_fleet()
        assert self.deployer is not None
        with obs.span("robotron.provision", devices=len(devices)):
            configs: dict[str, DeviceConfig] = self.generator.generate_devices(devices)
            report = self.deployer.initial_provision(configs, store=self.store)
            undrained = []
            with self.store.transaction():
                for device in devices:
                    if device.name in report.succeeded:
                        self.store.update(
                            device,
                            status=DeviceStatus.PRODUCTION,
                            drain_state=DrainState.UNDRAINED,
                        )
                        undrained.append(device)
            if undrained:
                undrain_configs = self.generator.generate_devices(undrained)
                undrain_report = self.deployer.deploy(undrain_configs)
                report.failed.update(undrain_report.failed)
        return report

    def provision_cluster(self, materialized: MaterializedCluster) -> DeployReport:
        """Provision every device of a freshly built cluster."""
        return self.provision_devices(materialized.all_devices())

    def guarded_deploy(
        self,
        configs: dict[str, DeviceConfig],
        phases: list[PhaseSpec],
        *,
        max_failure_ratio: float | None = None,
        bake_seconds: float = 60.0,
        probe: Callable[[list[str]], bool] | None = None,
    ) -> RolloutResult:
        """Health-gated rollout with automatic rollback to last-known-good.

        The gate reuses whatever monitoring is attached: ConfMon sweeps
        and the syslog classifier join device reachability (and the
        optional ``probe``) in every post-phase health evaluation.  On
        any failure the whole rollout is restored, so the fleet ends
        fully-new or fully-previous — never mixed.
        """
        self._require_fleet()
        assert self.guard is not None
        self.guard.gate = HealthGate(
            self.fleet,
            confmon=self.confmon,
            classifier=self.classifier,
            probe=probe,
        )
        # One change context for the whole rollout (joined if the caller
        # already opened one): every wave, gate verdict, syslog line seen
        # during bake, and LKG restore lands under a single change id.
        with flight.change_context(
            f"guarded_deploy of {len(configs)} device(s)"
        ):
            return self.guard.rollout(
                configs,
                phases,
                max_failure_ratio=max_failure_ratio,
                bake_seconds=bake_seconds,
            )

    def guarded_push(
        self,
        configs: Mapping[str, DeviceConfig],
        *,
        bake_seconds: float = 0.0,
        max_failure_ratio: float | None = None,
        phase_name: str = "guarded-push",
    ) -> DeployReport:
        """A single-phase guarded rollout with a plain-deploy signature.

        The adapter that lets ``Pusher``-shaped call sites (drains, the
        remediation engine) inherit canary gating and LKG rollback: one
        100% phase, and — because a gate-failure rollback restores
        devices without marking their pushes failed — any non-succeeded
        outcome is folded into ``report.failed`` so callers' compensation
        paths fire.
        """
        rollout = self.guarded_deploy(
            dict(configs),
            [PhaseSpec(name=phase_name, percentage=100.0)],
            max_failure_ratio=max_failure_ratio,
            bake_seconds=bake_seconds,
        )
        report = rollout.report
        if not rollout.ok:
            reason = rollout.rollback_reason or rollout.outcome.value
            for name in configs:
                report.failed.setdefault(name, reason)
        return report

    # ------------------------------------------------------------------
    # The incremental change-propagation cycle
    # ------------------------------------------------------------------

    def incremental_cycle(
        self,
        *,
        devices: list[Model] | None = None,
        deploy: bool = True,
        sweep: bool = True,
        sweep_limit: int | None = None,
    ) -> IncrementalCycleReport:
        """Propagate FBNet changes end to end, touching only what changed.

        The steady-state loop the paper's scale demands: regenerate the
        configs whose read-sets match journal records since their last
        generation (``regenerate_dirty``), push only those — with the
        content-hash skip so byte-identical regenerations don't commit —
        and point a prioritized ConfMon sweep at the devices that just
        changed.  A cycle with no design changes is a cheap no-op.
        """
        with obs.span("robotron.incremental_cycle"):
            generation = self.generator.regenerate_dirty(devices)
            # Attribute the rest of the cycle to the change that caused
            # it: when every journal-matched regeneration traces to one
            # change id, the cycle *resumes* that change — deploy pushes
            # and monitoring verdicts join the same lineage the design
            # mutation opened.  With several (or no) origin changes, a
            # fresh aggregate context lists them as causes.
            origin_ids = sorted(
                {cid for cid in generation.origins.values() if cid}
            )
            if generation.regenerated:
                resume = origin_ids[0] if len(origin_ids) == 1 else None
                cycle_ctx = flight.change_context(
                    "incremental_cycle",
                    change_id=resume,
                    causes=() if resume else origin_ids,
                )
            else:
                cycle_ctx = nullcontext()
            with cycle_ctx:
                deploy_report = None
                if deploy and generation.regenerated:
                    self._require_fleet()
                    assert self.deployer is not None
                    deploy_report = self.deployer.deploy(
                        generation.regenerated, skip_unchanged=True
                    )
                discrepancies: list[ConfigDiscrepancy] = []
                if sweep and self.confmon is not None:
                    # Default budget: just the regenerated devices (they
                    # sort first in the priority queue); callers wanting a
                    # wider audit pass an explicit sweep_limit.
                    limit = (
                        sweep_limit
                        if sweep_limit is not None
                        else len(generation.regenerated)
                    )
                    if limit != 0:
                        discrepancies = self.confmon.priority_sweep(limit)
        return IncrementalCycleReport(
            generation=generation,
            deploy=deploy_report,
            discrepancies=discrepancies,
        )

    # ------------------------------------------------------------------
    # Stage 4: monitoring
    # ------------------------------------------------------------------

    def attach_monitoring(
        self, job_specs: tuple[JobSpec, ...] = DEFAULT_JOB_SPECS
    ) -> None:
        """Stand up passive + active + config monitoring over the fleet."""
        fleet = self._require_fleet()
        with obs.span("monitoring.attach", jobs=len(job_specs)):
            self._attach_monitoring(fleet, job_specs)

    def _attach_monitoring(
        self, fleet: DeviceFleet, job_specs: tuple[JobSpec, ...]
    ) -> None:
        self.jobs = JobManager(
            fleet, self.scheduler, retry_policy=self.retry_policy
        )
        self.jobs.register_backend(self.tsdb)
        self.jobs.register_backend(DerivedModelBackend(self.store, self.scheduler.clock))
        self.collector = SyslogCollector()
        fleet.subscribe_syslog(self.collector)
        self.classifier = Classifier(default_rule_table())
        self.collector.subscribe(self.classifier)
        self.confmon = ConfigMonitor(
            fleet,
            self.generator,
            self.jobs,
            notifier=lambda d: self.notifications.append(
                f"config drift on {d.device}"
            ),
        )
        self.collector.subscribe(self.confmon)
        # Change propagation: freshly regenerated configs steer ConfMon's
        # priority sweeps toward the devices that just changed.
        self.generator.subscribe(self.confmon.note_regenerated)
        for spec in job_specs:
            self.jobs.add_job(spec)

    def audit(self) -> AuditReport:
        """Desired-vs-Derived anomaly detection over current FBNet state."""
        with obs.span("monitoring.audit") as span:
            report = run_audit(self.store)
            span.set_attribute("findings", len(report.findings))
        return report

    # ------------------------------------------------------------------
    # Operational workflows
    # ------------------------------------------------------------------

    @property
    def peering(self):
        """The peering/transit design tool (section 2.1)."""
        from repro.design.peering import PeeringDesignTool

        if not hasattr(self, "_peering_tool"):
            self._peering_tool = PeeringDesignTool(self.store)
        return self._peering_tool

    def drain(
        self,
        device_name: str,
        *,
        reason: str = "maintenance",
        guarded: bool = False,
    ):
        """Drain one device out of production traffic (sections 1, 6.1).

        With ``guarded``, the drained config is pushed through
        :meth:`guarded_push` (health gate + LKG rollback) instead of a
        plain deploy.
        """
        return self._set_drain_state(device_name, DrainState.DRAINED, reason, guarded)

    def undrain(
        self,
        device_name: str,
        *,
        reason: str = "maintenance complete",
        guarded: bool = False,
    ):
        """Return a drained device to production traffic."""
        return self._set_drain_state(device_name, DrainState.UNDRAINED, reason, guarded)

    def _set_drain_state(
        self, device_name: str, target: DrainState, reason: str, guarded: bool
    ):
        from repro.deploy.maintenance import set_drain_state

        self._require_fleet()
        assert self.deployer is not None
        return set_drain_state(
            self.store, self.fleet, self.generator, self.deployer,
            device_name, target, reason=reason,
            pusher=self.guarded_push if guarded else None,
        )

    # ------------------------------------------------------------------
    # Closed-loop remediation
    # ------------------------------------------------------------------

    def attach_remediation(self, policy=None):
        """Stand up the closed-loop remediation engine over monitoring.

        Requires :meth:`attach_monitoring` first — the engine subscribes
        to ConfMon drift notifications and the syslog urgency stream.
        Returns the attached :class:`repro.remediation.RemediationEngine`
        (also kept on ``self.remediation``).
        """
        from repro.remediation import RemediationEngine

        engine = RemediationEngine(self, policy)
        engine.attach()
        self.remediation = engine
        return engine

    def remediation_loop(
        self,
        *,
        max_sweeps: int = 20,
        period: float = 60.0,
        sweep_limit: int | None = None,
    ):
        """Run the detect → act → verify loop until the fleet converges.

        Every device the loop touched ends ``verified`` (the corrective
        action landed and live state checked out) or ``quarantined``
        (drained out of traffic after the attempt budget) — never parked
        mid-transition.  See :class:`repro.remediation.RemediationEngine`.
        """
        engine = getattr(self, "remediation", None)
        if engine is None:
            engine = self.attach_remediation()
        return engine.run(
            max_sweeps=max_sweeps, period=period, sweep_limit=sweep_limit
        )

    # ------------------------------------------------------------------
    # Chaos
    # ------------------------------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> FaultPlan:
        """Bind ``plan`` to this deployment's clock and activate it.

        Time-windowed fault specs fire against this Robotron's simulated
        clock; call :func:`repro.faults.uninstall` (or use
        ``plan.installed()`` instead) to deactivate.
        """
        plan.bind_clock(self.scheduler.clock)
        return faults.install(plan)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def run(self, seconds: float) -> int:
        """Advance simulated time (monitoring jobs, confirm timers, ...)."""
        return self.scheduler.run_until(self.scheduler.clock.now + seconds)

    def run_minutes(self, minutes: float) -> int:
        return self.run(minutes * MINUTE)
