"""The four workloads, one round each.

A *round* is one fresh deployment: set-up (state built before the timed
section), the timed section (fixed work, issued closed-loop by one
client: the next op goes out when the previous one returns), and the
checks on its outputs.  ``run.py`` repeats rounds until ``--seconds`` of
timed work are collected, so one run yields several set-up samples and
several samples of every batch step.

Deployment under test, every workload: one process, ``parallel``
workers = 1 (the repo default), ``ShardedObjectStore(shards=4)``, ``obs``
at its default (enabled), WAL where stated with ``fsync=False,
snapshot_every=None`` — frames are flushed to the OS, not to the device.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import statistics
from collections import defaultdict
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any

from repro import faults, obs, parallel
from repro.core.robotron import Robotron
from repro.design import fleet as fleet_design
from repro.fbnet import durability
from repro.fbnet.models import (
    AggregatedInterface,
    Circuit,
    DrainState,
    EventSeverity,
    NetworkSwitch,
    PhysicalInterface,
    RackProfile,
    RackSwitch,
)
from repro.fbnet.query import Expr, Op
from repro.fbnet.replication import ReplicatedFBNet
from repro.fbnet.rpc import RpcRequest, RpcResponse, ServiceReplica
from repro.fbnet.sharding import ShardedObjectStore
from repro.monitoring.classifier import Classifier, SyslogRule

import clock
import inputs
from spans import Tracer

SHARDS = 4
#: ``Robotron.recover`` runs per round; their median is ``recovery_s``.
RECOVERIES = 5
#: Valid, vendor-aware out-of-band edits (an engineer bypassing Robotron).
DRIFT = {
    "vendor1": "interface et9/9\n no shutdown\n!\n",
    "vendor2": "interfaces {\n    et9/9 {\n    }\n}\n",
}
#: The collections that feed the Derived models (config backup is hourly
#: and stays out of a five-minute workload).
COLLECTION_JOBS = ("snmp-interfaces", "snmp-system", "cli-lldp", "cli-bgp")
#: Syslog messages emitted per timed block of the burst.
SYSLOG_BLOCK = 1000
#: Times a turn-up round builds its (tiny) set-up.
TURNUP_SETUPS = 8

_NULL = nullcontext()


class _Op:
    """One timed, failure-accounted region: an op or a batch step."""

    __slots__ = ("_round", "_id", "_weight", "_samples", "_phase", "_span", "_start", "reason")

    def __init__(self, rnd: Round, op_id: Any, weight: int, samples: list | None):
        self._round = rnd
        self._id = op_id
        self._weight = weight
        self._samples = samples
        self.reason = ""

    def fail(self, reason: str) -> None:
        """The op returned, but its output is wrong."""
        self.reason = reason

    def __enter__(self) -> _Op:
        rnd = self._round
        self._phase = rnd._phase
        if self._phase is None:
            raise RuntimeError(f"op {self._id!r} outside any phase")
        rnd.clock.sample_if_due()
        tracer = rnd.tracer
        # The op is the root of its span tree, named after its phase:
        # calibration and bookkeeping between ops are in no span at all.
        self._span = tracer.span(None, self._phase[0], op=self._id) if tracer else _NULL
        self._span.__enter__()
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        elapsed = perf_counter() - self._start
        self._span.__exit__(exc_type, exc, tb)
        rnd = self._round
        rnd.clock.sample_after(elapsed)
        rnd.attempted += self._weight
        if exc_type is not None:
            # A batch step (weight 0) that raises ends the round; so does
            # anything that is not an ordinary error.
            if self._weight == 0 or not issubclass(exc_type, Exception):
                return False
            self.reason = f"{exc_type.__name__}: {exc}"
        if self.reason:
            rnd.fail(self._weight, f"op {self._id}: {self.reason}", attempted=0)
        name, setup = self._phase
        rnd._pending.append((
            self._start + elapsed / 2, elapsed, name, setup,
            None if self.reason else self._samples,
        ))
        # An op that raised is counted and the run goes on.
        return True


class Round:
    """What one round measured, in reference-speed time (see clock.py)."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.clock = clock.Clock()
        #: set-up seconds, summed over the ``setups`` times the round set up
        self.setup_s = 0.0
        self.setups = 1
        self.wall_s = 0.0
        #: the same two as ``perf_counter`` measured them, before the clock
        #: converted them — written out so the conversion can be audited
        self.raw_setup_s = 0.0
        self.raw_wall_s = 0.0
        #: phase name -> seconds (set-up and timed phases alike)
        self.phases: dict[str, float] = defaultdict(float)
        self.op_ms: list[float] = []
        self.write_ms: list[float] = []
        #: units of work done, for ``ops_per_s``
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: workload-specific untraced numbers (``spec.DETAIL``) and digests
        self.detail: dict[str, Any] = {}
        #: raw counts behind the per-layer ratios
        self.counts: dict[str, float] = defaultdict(float)
        self._phase: tuple[str, bool] | None = None
        #: (midpoint, raw seconds, phase or None, setup, sample list or None)
        self._pending: list[tuple] = []

    # -- time --------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, *, setup: bool = False):
        """Names the ops inside it as set-up or timed work of one phase.
        Only ops are measured; code between them is not.  Each phase starts
        from a collected heap, so whether a full collection lands inside it
        depends on its own allocations, not on the garbage before it."""
        gc.collect()
        self._phase = (name, setup)
        try:
            yield
        finally:
            self._phase = None

    def op(self, op_id: Any, *, weight: int = 1, samples: list | None = None) -> _Op:
        return _Op(self, op_id, weight, samples)

    def step(self, name: str, *, setup: bool = False, samples: list | None = None):
        """A phase that is one batch step."""
        stack = ExitStack()
        stack.enter_context(self.phase(name, setup=setup))
        stack.enter_context(self.op(name, weight=0, samples=samples))
        return stack

    def part(self, samples: list, started: float, ended: float) -> None:
        """A latency sample for part of an op (counted in no phase)."""
        self._pending.append(((started + ended) / 2, ended - started, None, False, samples))

    def layer(self, layer: str, name: str):
        """A span around a call whose layer has no public entry point to
        wrap (replication delivery runs off the scheduler)."""
        return self.tracer.span(layer, name) if self.tracer else _NULL

    def finish(self) -> None:
        """Convert what was measured so far to reference-speed time."""
        pending, self._pending = self._pending, []
        for at, raw, name, setup, samples in pending:
            seconds = raw * self.clock.factor(at)
            if name is not None:
                self.phases[name] += seconds
                if setup:
                    self.setup_s += seconds
                    self.raw_setup_s += raw
                else:
                    self.wall_s += seconds
                    self.raw_wall_s += raw
            if samples is not None:
                samples.append(seconds * 1e3)

    # -- failures ----------------------------------------------------------

    def fail(self, count: int, reason: str, *, attempted: int | None = None) -> None:
        self.failed += count
        self.attempted += count if attempted is None else attempted
        if len(self.errors) < 20:
            self.errors.append(reason)

    def check(self, ok: bool, reason: str, *, weight: int = 1) -> None:
        """One output check: counts as an attempted op, failed when wrong."""
        if ok:
            self.attempted += weight
        else:
            self.fail(weight, reason)


def fresh_process_state() -> None:
    """Every round starts from the same process-wide state, so neither the
    order of workloads nor the round number changes a number."""
    faults.uninstall()
    parallel.set_workers(1)
    obs.reset()
    gc.collect()


def _obs_sum(name: str, **labels: str) -> float:
    return sum(
        series.value
        for series in obs.registry().series()
        if series.name == name
        and all(series.labels.get(k) == v for k, v in labels.items())
    )


def _dir_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def _sha(value: Any) -> str:
    body = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(body.encode()).hexdigest()


def _by_name(objects):
    return sorted(objects, key=lambda obj: obj.name)


def _flip_drain(store: Any, device: Any) -> None:
    """Drain an undrained device, undrain any other."""
    drained = device.drain_state is not DrainState.UNDRAINED
    store.update(
        device, drain_state=DrainState.UNDRAINED if drained else DrainState.DRAINED
    )


def _note_cycle(rnd: Round, report: Any) -> None:
    """Counts of one incremental cycle, behind the configgen/deploy ratios."""
    generation = report.generation
    rnd.counts["cycles"] += 1
    rnd.counts["records_scanned"] += generation.records_scanned
    rnd.counts["examined"] += generation.devices_total
    rnd.counts["regenerated"] += len(generation.regenerated)
    if report.deploy is not None:
        skipped = len(report.deploy.skipped)
        rnd.counts["deploy_skipped"] += skipped
        rnd.counts["deploy_offered"] += skipped + len(report.deploy.succeeded)


class Workload:
    """Inputs for one ``(seed, scale, size)`` and the code that runs a round."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0, size: str = inputs.DEFAULT_SIZE):
        self.seed = seed
        self.scale = scale
        self.size = size
        self.inputs = inputs.GENERATORS[self.name](seed, scale, size)
        self.input_digest = inputs.digest(self.inputs)
        self.profile = inputs.PROFILES[self.inputs["profile"]]
        self.devices = inputs.device_count(self.profile)

    def run_round(self, rnd: Round, workdir: Path) -> None:
        raise NotImplementedError

    # -- shared steps --------------------------------------------------------

    def _robotron(self, rnd: Round, wal_root: Path | None, *, setup: bool = True) -> Robotron:
        """A deployment; its WAL roots are made as set-up unless ``setup`` is off."""
        with rnd.step("init", setup=True):
            robotron = Robotron(shards=SHARDS)
        if wal_root is not None:
            with rnd.step("journal", setup=setup):
                robotron.attach_durability(wal_root, snapshot_every=None, fsync=False)
        return robotron

    def _provisioned(self, rnd: Round, wal_root: Path | None):
        """Set-up shared by churn and monitor: a provisioned, monitored fleet."""
        robotron = self._robotron(rnd, wal_root)
        profile = fleet_design.FleetProfile(**self.profile)
        with rnd.step("build", setup=True):
            build = fleet_design.build_fleet(robotron.store, profile)
        with rnd.step("boot", setup=True):
            robotron.boot_fleet()
        reports = []
        with rnd.step("provision", setup=True):
            for cluster in build.clusters:
                reports.append(robotron.provision_cluster(cluster))
            reports.append(robotron.provision_devices(build.backbone_routers))
        rnd.check(all(report.ok for report in reports), "set-up provision failed")
        with rnd.step("attach", setup=True):
            robotron.attach_monitoring()
        rnd.finish()
        rnd.detail["provision_s"] = rnd.phases["provision"]
        return robotron, build

    def _recover_and_compare(
        self, rnd: Round, robotron: Robotron, wal_root: Path, workdir: Path
    ) -> None:
        """Recover a copy of the WAL root; state and journal must match."""
        store = robotron.store
        store.detach_durability()
        rnd.detail["wal_bytes_per_record"] = _dir_bytes(wal_root) / store.journal_position
        rnd.counts["wal_bytes"] += _dir_bytes(wal_root)
        rnd.counts["journal_records"] += store.journal_position
        copy = workdir / "wal-copy"
        shutil.copytree(wal_root, copy)
        recover_ms: list[float] = []
        recovered = None
        with rnd.phase("recover"):
            for index in range(RECOVERIES):
                gc.collect()  # each recovery builds (and then drops) a whole store
                with rnd.op(f"recover-{index}", weight=0, samples=recover_ms):
                    recovered = Robotron.recover(copy, snapshot_every=None, fsync=False)
                recovered.store.detach_durability()
        rnd.finish()
        rnd.detail["recovery_s"] = statistics.median(recover_ms) / 1e3
        same = (
            recovered is not None
            and recovered.store.journal_position == store.journal_position
            and durability.store_digest(recovered.store) == durability.store_digest(store)
        )
        rnd.check(same, "recovered store differs from the live one", weight=self.devices)

    def _layer_counts(self, rnd: Round, *stores: Any) -> None:
        """Counts behind the store/configgen/deploy ratios, from ``obs``."""
        for store in stores:
            fanout = _obs_sum("store.planner.fanout", store=store.name) / SHARDS
            rnd.counts["planner_fanout"] += fanout
            rnd.counts["planner_single"] += _obs_sum(
                "store.planner.single_shard", store=store.name
            )
            rnd.counts["router_commits"] += _obs_sum(
                "store.txn", store=store.name, status="commit"
            )
        sizes = list(stores[0].shard_sizes().values())
        rnd.counts["shard_max"] += max(sizes)
        rnd.counts["shard_mean"] += sum(sizes) / len(sizes)
        rnd.counts["template_hits"] += _obs_sum("configgen.template_cache", result="hit")
        rnd.counts["template_misses"] += _obs_sum("configgen.template_cache", result="miss")
        rnd.counts["devices"] += self.devices


class Turnup(Workload):
    """Green-field turn-up: build, boot, provision, sweep, recover."""

    name = "turnup"

    def run_round(self, rnd: Round, workdir: Path) -> None:
        # A green-field turn-up has almost no set-up — the deployment object
        # with its stores and template catalog, under a millisecond — so it
        # is done several times a round and averaged; the last one is turned
        # up.  Opening the WAL roots is file-system work, which the
        # reference-speed clock cannot steady, and is timed with the build.
        rnd.setups = TURNUP_SETUPS
        wal_root = workdir / "wal"
        for _ in range(TURNUP_SETUPS - 1):
            self._robotron(rnd, None)
        robotron = self._robotron(rnd, wal_root, setup=False)
        profile = fleet_design.FleetProfile(**self.profile)
        dc_clusters = profile.datacenter_count * profile.dc_clusters_per_site
        with rnd.step("build", samples=rnd.write_ms):
            build = fleet_design.build_fleet(robotron.store, profile)
        with rnd.step("boot"):
            robotron.boot_fleet()
        # Every group is an op; only the DC clusters (the majority, all the
        # same size) are latency samples, so the median op is always a DC
        # cluster and not the mean of a DC and a POP one.
        groups = [
            (build.clusters[i].cluster.name, build.clusters[i].all_devices(),
             rnd.op_ms if i < dc_clusters else None)
            for i in self.inputs["cluster_order"]
        ]
        groups.append(("backbone", build.backbone_routers, None))
        with rnd.phase("provision"):
            for label, devices, samples in groups:
                with rnd.op(label, weight=len(devices), samples=samples) as op:
                    report = robotron.provision_devices(devices)
                    if not report.ok:
                        op.fail(f"provision failed on {sorted(report.failed)}")
        rnd.ops += self.devices
        with rnd.step("sweep"):
            robotron.attach_monitoring()
            discrepancies = robotron.confmon.check_all()
        rnd.check(
            not discrepancies,
            f"{len(discrepancies)} device(s) drifted from golden after turn-up",
            weight=max(1, len(discrepancies)),
        )
        self._layer_counts(rnd, robotron.store)
        self._recover_and_compare(rnd, robotron, wal_root, workdir)
        rnd.detail["provision_s"] = rnd.phases["provision"]
        rnd.detail["output_digest"] = _sha(
            sorted((name, cfg.sha) for name, cfg in robotron.generator.golden.items())
        )


class Churn(Workload):
    """Steady-state change propagation: one change, one incremental cycle."""

    name = "churn"

    def run_round(self, rnd: Round, workdir: Path) -> None:
        wal_root = workdir / "wal"
        robotron, build = self._provisioned(rnd, wal_root)
        store = robotron.store
        routers = _by_name(build.backbone_routers)
        # Fig. 16's two classes: everything that is not a switch counts as
        # a backbone device.
        by_class: dict[str, list] = {"backbone": [], "popdc": []}
        for device in _by_name(build.all_devices()):
            switch = isinstance(device, (NetworkSwitch, RackSwitch))
            by_class["popdc" if switch else "backbone"].append(device)
        if {klass: len(members) for klass, members in by_class.items()} != self.inputs["classes"]:
            raise RuntimeError(
                f"the fleet's device classes are not the {self.inputs['classes']} "
                "the change stream was generated for"
            )
        # device id -> its interfaces, physical ones first
        interfaces: dict[int, list] = defaultdict(list)
        for pif in store.all(PhysicalInterface):
            interfaces[pif.related("linecard").related("device").id].append(pif)
        for agg in store.all(AggregatedInterface):
            interfaces[agg.device_id].append(agg)
        added: list[str] = []

        def apply(index: int, kind: str, klass: str, first: int, second: int) -> None:
            if kind == "interface":
                owned = interfaces[by_class[klass][first].id]
                target = owned[second % len(owned)]
                if isinstance(target, AggregatedInterface):
                    store.update(target, mtu=9000 if target.mtu != 9000 else 9192)
                else:
                    store.update(target, description=f"ledger relabel {index}")
            elif kind == "device":
                _flip_drain(store, by_class[klass][first])
            elif kind == "create":
                store.create(
                    RackProfile, name=f"ledger-rack-{index}", downlinks_per_rack=4
                )
            elif kind == "circuit":
                report = robotron.backbone.add_circuit(routers[first].name, routers[second].name)
                # grown bundle: "added"; first circuit of a new bundle: "circuits"
                added.extend(report.get("added") or report["circuits"])
            else:
                robotron.backbone.delete_circuit(added.pop())

        with rnd.phase("ops"):
            for index, (kind, klass, first, second) in enumerate(self.inputs["changes"]):
                with rnd.op(index, samples=rnd.op_ms) as op:
                    started = perf_counter()
                    apply(index, kind, klass, first, second)
                    rnd.part(rnd.write_ms, started, perf_counter())
                    report = robotron.incremental_cycle()
                    _note_cycle(rnd, report)
                    regenerated = sorted(report.generation.regenerated)
                    want = inputs.CHURN_DIRTY[kind]
                    if not report.ok:
                        op.fail(f"{kind}: cycle not ok")
                    elif len(regenerated) != want:
                        op.fail(f"{kind}: regenerated {regenerated}, expected {want} device(s)")
        rnd.ops += len(self.inputs["changes"])
        self._layer_counts(rnd, store)
        self._recover_and_compare(rnd, robotron, wal_root, workdir)
        assert robotron.confmon is not None
        drift = robotron.confmon.check_all()
        rnd.check(not drift, f"{len(drift)} device(s) drifted after the change stream")
        rnd.detail["output_digest"] = _sha(
            sorted((name, cfg.sha) for name, cfg in robotron.generator.golden.items())
        )


class Monitor(Workload):
    """The monitoring stage: ticks, fault detection, a syslog burst."""

    name = "monitor"

    def __init__(self, seed: int, scale: float = 1.0, size: str = inputs.DEFAULT_SIZE):
        super().__init__(seed, scale, size)
        self.rules = [
            SyslogRule(name, pattern, EventSeverity(urgency))
            for name, pattern, urgency in inputs.syslog_rules()
        ]
        self.mix = inputs.syslog_mix(len(self.inputs["syslog"]))

    def run_round(self, rnd: Round, workdir: Path) -> None:
        robotron, build = self._provisioned(rnd, None)
        store, fleet = robotron.store, robotron.fleet
        assert fleet and robotron.jobs and robotron.collector and robotron.confmon
        with rnd.step("attach", setup=True):
            classifier = Classifier(self.rules)
            robotron.collector.subscribe(classifier)
        devices = _by_name(build.all_devices())

        # -- active monitoring: the default job schedule, minute by minute --
        position = store.journal_position
        with rnd.phase("ticks"):
            for tick in range(self.inputs["ticks"]):
                with rnd.op(f"tick-{tick}", weight=0, samples=rnd.op_ms):
                    robotron.run(60.0)

        # -- faults, injected on the devices behind Robotron's back ----------
        endpoints: set[tuple[str, str]] = set()
        circuits = _by_name(store.all(Circuit))
        for pick in self.inputs["faults"]["link_cuts"]:
            circuit = circuits[pick % len(circuits)]
            ends = []
            for side in ("a_interface", "z_interface"):
                pif = circuit.related(side)
                ends.append((pif.related("linecard").related("device").name, pif.name))
            fleet.unwire(*ends[0])
            endpoints.update(ends)
        edited = set()
        for pick in self.inputs["faults"]["config_edits"]:
            device = fleet.get(devices[pick].name)
            device.commit(device.running_config + DRIFT[device.vendor])
            edited.add(device.name)

        with rnd.phase("ticks"), rnd.op("detect", weight=0):
            for name in COLLECTION_JOBS:
                robotron.jobs.run_job(robotron.jobs.specs[name])
        stored = store.journal_position - position
        rnd.ops += stored
        rnd.attempted += stored
        rnd.counts["monitor_records"] += _obs_sum("monitoring.records")
        with rnd.step("audit"):
            report = robotron.audit()
        with rnd.step("sweep"):
            drifted = {d.device for d in robotron.confmon.check_all()}

        down = {f.subject for f in report.by_kind("interface-down")}
        faulted = {name for name, _ in endpoints} | edited
        for end in sorted(endpoints):
            rnd.check(":".join(end) in down, f"link cut at {end} not reported")
        for name in sorted(edited):
            rnd.check(name in drifted, f"config edit on {name} not reported")
        blamed = {
            f.subject.replace("->", ":").split(":")[0] for f in report.findings
        } | drifted
        spurious = sorted(blamed - faulted)
        rnd.check(not spurious, f"un-faulted devices reported: {spurious}")

        # -- passive monitoring: a day's syslog mix through the fleet bus ----
        texts = {
            urgency: [f"LEDGER-{urgency.upper()}-{i} condition seen" for i in range(n)]
            for urgency, n in inputs.SYSLOG_RULES.items()
        }
        texts["ignored"] = list(inputs.SYSLOG_IGNORED_TEXTS)
        burst = [
            (fleet.get(devices[pick].name), texts[urgency][which])
            for pick, urgency, which in self.inputs["syslog"]
        ]
        # The classifier also saw the config-change messages of the edits
        # above; the burst is what it counts from here on.
        received = robotron.collector.received
        before = dict(classifier.counts)
        with rnd.phase("syslog"):
            # In blocks, so the clock can calibrate between them.
            for offset in range(0, len(burst), SYSLOG_BLOCK):
                with rnd.op(f"syslog-{offset}", weight=0):
                    for device, text in burst[offset : offset + SYSLOG_BLOCK]:
                        device.emit_syslog("EVENT", text)
        rnd.finish()
        rnd.detail["syslog_msgs_per_s"] = len(burst) / rnd.phases["syslog"]
        counted = {
            severity.value: count - before.get(severity, 0)
            for severity, count in classifier.counts.items()
        }
        rnd.check(
            robotron.collector.received - received == len(burst) and counted == self.mix,
            f"severity table {counted} != generated mix {self.mix}",
            weight=len(burst),
        )
        rnd.counts["syslog_messages"] += len(burst)
        rnd.counts["syslog_alerts"] += len(burst) - counted.get("ignored", 0)

        # -- a design change over the journal monitoring just grew -----------
        with rnd.phase("change"):
            for index, pick in enumerate(self.inputs["changes"]):
                while devices[pick % len(devices)].name in faulted:
                    pick += 1
                with rnd.op(f"change-{index}", samples=rnd.write_ms) as op:
                    device = devices[pick % len(devices)]
                    _flip_drain(store, device)
                    report = robotron.incremental_cycle()
                    _note_cycle(rnd, report)
                    regenerated = sorted(report.generation.regenerated)
                    if regenerated != [device.name]:
                        op.fail(f"regenerated {regenerated}")
        self._layer_counts(rnd, store)
        rnd.detail["output_digest"] = _sha(
            [sorted(down), sorted(drifted), sorted(counted.items())]
        )


class Frontdoor(Workload):
    """The read API as deployed: a cached replica, Zipf reads, a write trickle."""

    name = "frontdoor"
    REGIONS = ["na-east", "eu-west"]
    PAGE_FIELDS = [
        "name", "status", "drain_state", "hardware_profile.name", "hardware_profile.vendor",
    ]

    def run_round(self, rnd: Round, workdir: Path) -> None:
        profile = fleet_design.FleetProfile(**self.profile)
        with rnd.step("build", setup=True):
            net = ReplicatedFBNet(
                self.REGIONS, self.REGIONS[0], cache_reads=True,
                store_factory=lambda name: ShardedObjectStore(shards=SHARDS, name=name),
            )
            build = fleet_design.build_fleet(net.master.store, profile)
        with rnd.step("replicate", setup=True), rnd.layer("fbnet.replication", "deliver"):
            net.scheduler.run_for(1.0)
        replica = net.regions[self.REGIONS[1]]
        client = net.client(replica.name)
        uncached = ServiceReplica("ledger-verify", replica.name, "read", replica.store)

        devices = _by_name(build.all_devices())
        sites = sorted({self._site(device.name) for device in devices})
        state = {device.id: device.drain_state.value for device in devices}
        requests: dict[tuple, tuple] = {}

        def request(kind: str, pick: int) -> tuple:
            key = (kind, pick)
            if key not in requests:
                if kind == "page":
                    spec = ("Device", self.PAGE_FIELDS,
                            Expr("name", Op.EQUAL, devices[pick].name))
                elif kind == "linecards":
                    spec = ("Linecard", ["slot"],
                            Expr("device", Op.EQUAL, devices[pick].id))
                elif kind == "site":
                    spec = ("Device", ["name", "status"],
                            Expr("name", Op.STARTSWITH, sites[pick]))
                else:
                    spec = ("Device", ["name"],
                            Expr("drain_state", Op.EQUAL, inputs.DRAIN_STATES[pick]))
                requests[key] = spec
            return requests[key]

        def fresh_answer(spec: tuple) -> Any:
            model, fields, query = spec
            wire = RpcRequest(
                service="read", method="get",
                args={"model": model, "fields": fields, "query": query.to_wire()},
            ).to_wire()
            return RpcResponse.from_wire(uncached.handle(wire)).result()

        ops = [
            (kind, pick, None if kind == "write" else request(kind, pick))
            for kind, pick in self.inputs["ops"]
        ]
        answers: list[Any] = []
        states = inputs.DRAIN_STATES
        reads = writes = 0
        with rnd.phase("ops"):
            for position, (kind, pick, spec) in enumerate(ops):
                if spec is None:
                    with rnd.op(position, samples=rnd.write_ms):
                        device = devices[pick]
                        nxt = states[(states.index(state[device.id]) + 1) % len(states)]
                        client.update_objects(
                            [(type(device).__name__, device.id, {"drain_state": nxt})]
                        )
                        with rnd.layer("fbnet.replication", "deliver"):
                            net.scheduler.run_for(1.0)
                    state[device.id] = nxt
                    writes += 1
                    continue
                answer = None
                with rnd.op(position, samples=rnd.op_ms):
                    answer = client.get(*spec)
                answers.append(answer)
                reads += 1
                # Between ops, so in neither the latencies nor wall_s: the
                # same question to an uncached replica over the same store.
                if reads % inputs.VERIFY_EVERY == 0 and _sha(fresh_answer(spec)) != _sha(answer):
                    rnd.fail(1, f"op {position}: stale serve", attempted=0)
        rnd.ops += len(ops)

        cache = replica.cache
        assert cache is not None
        cache_stats = cache.stats()
        rnd.counts["cache_hits"] += cache_stats["hits"]
        rnd.counts["cache_misses"] += cache_stats["misses"]
        rnd.counts["cache_invalidations"] += cache_stats["invalidations"]
        rnd.counts["writes"] += writes
        self._layer_counts(rnd, net.master.store, replica.store)
        rnd.check(
            durability.store_digest(replica.store)
            == durability.store_digest(net.master.store),
            "replica store differs from the master after the write trickle",
        )
        rnd.detail["output_digest"] = _sha(answers)

    @staticmethod
    def _site(name: str) -> str:
        """The name prefix shared by a site's devices."""
        for sep in (".", "-"):
            if sep in name:
                return name.split(sep, 1)[0] + sep
        return name


WORKLOADS = {cls.name: cls for cls in (Turnup, Churn, Monitor, Frontdoor)}
