"""Health-gated rollout with automatic rollback to last-known-good.

The paper's deployment story (section 5.3) is safe because bad pushes are
contained *and undone*: phased rollout limits the blast radius, and
monitoring (ConfMon, syslog classification, audits) detects deviations.
This module closes the detect → halt → roll back loop.  A
:class:`DeploymentGuard` records each device's last-known-good (LKG)
config version before pushing, lets every phase bake on the simulated
clock, evaluates a :class:`HealthGate` (reachability + ConfMon
discrepancy sweep + syslog error scan + optional caller probe), and on
any failure — gate, push error, or circuit-breaker open — restores every
touched device to its LKG.  A guarded rollout therefore always converges
to "fully new" or "fully previous", never a silent mixed state, and each
run persists a ``DeploymentRecord`` row so deployment history is
queryable through FBNet like everything else.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro import obs
from repro.obs import flight
from repro.common.errors import DeploymentError
from repro.configgen.generator import DeviceConfig
from repro.deploy.deployer import DeployReport, Deployer, _config_text
from repro.deploy.phases import PhaseSpec
from repro.devices.fleet import DeviceFleet
from repro.faults.retry import CircuitBreaker
from repro.fbnet.models.enums import DeploymentOutcome, EventSeverity

__all__ = [
    "DeploymentGuard",
    "GateCheck",
    "GateResult",
    "HealthGate",
    "RolloutResult",
    "intent_hash",
]

#: How long rollback reasons may grow in the persisted record.
_REASON_LIMIT = 500


def intent_hash(configs: Mapping[str, DeviceConfig | str]) -> str:
    """A stable digest of *what* a rollout intends to deploy.

    Hashes the sorted (device name, config text) pairs, so the same
    intent always produces the same hash regardless of dict order.
    """
    digest = hashlib.sha256()
    for name in sorted(configs):
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(_config_text(configs[name]).encode())
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class GateCheck:
    """One health-gate check's verdict."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class GateResult:
    """The verdict of one post-phase health-gate evaluation."""

    checks: list[GateCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[GateCheck]:
        return [check for check in self.checks if not check.passed]

    def reason(self) -> str:
        return "; ".join(
            f"{check.name}: {check.detail}" for check in self.failures
        )


class HealthGate:
    """Post-phase health evaluation over a batch of just-pushed devices.

    Four checks, each optional except reachability:

    * every device in the batch still answers (not crashed);
    * ConfMon finds no discrepancy on the batch (running == golden);
    * no CRITICAL/MAJOR syslog alert was classified for a batch device
      since the phase began;
    * an optional caller-supplied probe (e.g. "all BGP established").
    """

    def __init__(
        self,
        fleet: DeviceFleet,
        *,
        confmon=None,
        classifier=None,
        probe: Callable[[list[str]], bool] | None = None,
        alert_severities: tuple[EventSeverity, ...] = (
            EventSeverity.CRITICAL,
            EventSeverity.MAJOR,
        ),
    ):
        self._fleet = fleet
        self._confmon = confmon
        self._classifier = classifier
        self._probe = probe
        self._alert_severities = alert_severities

    def evaluate(self, batch: list[str], *, since: float) -> GateResult:
        result = GateResult()
        unreachable = sorted(
            name for name in batch if not self._fleet.get(name).reachable()
        )
        result.checks.append(
            GateCheck(
                "reachability",
                not unreachable,
                f"unreachable: {', '.join(unreachable)}" if unreachable else "",
            )
        )
        if self._confmon is not None:
            # Only reachable devices can be swept; the reachability check
            # already failed the gate for the rest.
            reachable = [
                name for name in batch if self._fleet.get(name).reachable()
            ]
            discrepancies = self._confmon.check_devices(reachable)
            result.checks.append(
                GateCheck(
                    "confmon",
                    not discrepancies,
                    "config drift on: "
                    + ", ".join(sorted(d.device for d in discrepancies))
                    if discrepancies
                    else "",
                )
            )
        if self._classifier is not None:
            members = set(batch)
            alerts = [
                alert
                for alert in self._classifier.alerts
                if alert.timestamp >= since
                and alert.device in members
                and alert.severity in self._alert_severities
            ]
            result.checks.append(
                GateCheck(
                    "syslog",
                    not alerts,
                    "; ".join(
                        f"{a.severity.value} {a.rule} on {a.device}"
                        for a in alerts[:3]
                    )
                    if alerts
                    else "",
                )
            )
        if self._probe is not None:
            try:
                probe_ok = bool(self._probe(list(batch)))
                detail = "" if probe_ok else "probe returned false"
            except Exception as exc:  # a crashing probe must fail the gate
                probe_ok = False
                detail = f"probe raised: {exc}"
            result.checks.append(GateCheck("probe", probe_ok, detail))
        return result


@dataclass
class RolloutResult:
    """Everything a guarded rollout produced."""

    report: DeployReport
    outcome: DeploymentOutcome
    rollback_reason: str = ""
    #: Devices restored to their last-known-good version.
    restored: list[str] = field(default_factory=list)
    gate_results: dict[str, GateResult] = field(default_factory=dict)
    #: The persisted DeploymentRecord (None when no store is attached).
    record: object | None = None

    @property
    def ok(self) -> bool:
        return self.outcome is DeploymentOutcome.SUCCEEDED


class DeploymentGuard:
    """Runs rollouts that converge to fully-new or fully-previous."""

    def __init__(
        self,
        deployer: Deployer,
        fleet: DeviceFleet,
        *,
        store=None,
        gate: HealthGate | None = None,
        notifier: Callable[[str], None] | None = None,
    ):
        self._deployer = deployer
        self._fleet = fleet
        self._store = store
        #: The health gate evaluated after each phase (swappable per rollout).
        self.gate = gate
        self._notify = notifier or (lambda _msg: None)
        #: Device -> config version currently considered last-known-good.
        self.lkg: dict[str, int] = {}

    # ------------------------------------------------------------------
    # LKG bookkeeping
    # ------------------------------------------------------------------

    def _pin(self, name: str) -> int:
        """Make the running version ``name``'s LKG.

        The one place a pin changes hands: the running version is pinned,
        the version this guard pinned before is released, so a device
        holds exactly one pinned entry however its rollouts ended.
        """
        device = self._fleet.get(name)
        version = device.config_version
        device.pin_version(version)
        if self.lkg.get(name, version) != version:
            device.unpin_version(self.lkg[name])
        self.lkg[name] = version
        return version

    def _record_lkg(self, names: list[str]) -> dict[str, int]:
        for name in names:
            if self._fleet.get(name).config_version == 0:
                raise DeploymentError(
                    f"{name} has no committed config to fall back to; "
                    "provision it before a guarded rollout"
                )
        return {name: self._pin(name) for name in names}

    def _restore_lkg(
        self, touched: list[str], lkg: dict[str, int], report: DeployReport
    ) -> tuple[list[str], list[str]]:
        """Roll every touched device back to its pinned LKG version."""
        restored: list[str] = []
        stuck: list[str] = []
        for name in reversed(touched):
            device = self._fleet.get(name)
            target = lkg[name]
            try:
                if device.config_version != target:
                    device.revert_to(target)
                    obs.counter("deploy.lkg_restore", device=name).inc()
                    obs.counter("deploy.rollback", op="guarded_rollout").inc()
                    report.rolled_back.append(name)
                    report.changed_lines.pop(name, None)
                    flight.record(
                        "deploy.lkg_restore", phase="deployment", device=name,
                        verdict="restored", detail=f"version {target}",
                    )
                restored.append(name)
                # The revert committed the LKG text as a *new* version: hold
                # that one.  (A stuck device keeps its pin: it is the way back.)
                self._pin(name)
            except DeploymentError as exc:
                # A device that cannot be restored is a page, not a log line.
                stuck.append(name)
                self._notify(
                    f"LKG rollback FAILED on {name}: {exc}; "
                    "manual intervention needed"
                )
                report.failed.setdefault(name, str(exc))
                flight.record(
                    "deploy.lkg_restore", phase="deployment", device=name,
                    verdict="stuck", detail=str(exc),
                )
        restored.reverse()
        return restored, stuck

    # ------------------------------------------------------------------
    # The guarded rollout
    # ------------------------------------------------------------------

    def rollout(
        self,
        configs: Mapping[str, DeviceConfig | str],
        phases: list[PhaseSpec],
        *,
        max_failure_ratio: float | None = None,
        bake_seconds: float = 60.0,
        skip_unchanged: bool = False,
    ) -> RolloutResult:
        """Deploy phase by phase; bake; gate; roll back on any failure.

        Per phase: push the batch (optionally under a circuit breaker),
        let it bake for ``bake_seconds`` on the simulated clock (each
        phase may override via ``PhaseSpec.bake_seconds``), then evaluate
        the health gate over the batch.  A push failure, open breaker, or
        failed gate aborts the rollout and restores *every* device
        touched so far to its last-known-good version.

        With ``skip_unchanged``, devices already running their candidate
        config (SHA-256 match) are excluded up front — no LKG pin, no
        push, no gate membership — and land in ``report.skipped`` under
        the ``deploy.skip_unchanged`` counter.
        """
        report = DeployReport(operation="guarded_rollout")
        scheduler = self._fleet.scheduler
        started_at = scheduler.clock.now
        # The intent hash covers the full intent, including devices the
        # content-hash skip then excludes — re-running the same rollout
        # must produce the same hash regardless of fleet state.
        the_hash = intent_hash(configs)
        if skip_unchanged:
            unchanged = [
                name
                for name in sorted(configs)
                if self._deployer.unchanged(name, configs[name])
            ]
            if unchanged:
                report.skipped.extend(unchanged)
                obs.counter(
                    "deploy.skip_unchanged", op="guarded_rollout"
                ).inc(len(unchanged))
                configs = {
                    name: config
                    for name, config in configs.items()
                    if name not in set(unchanged)
                }
        names = sorted(configs)
        result = RolloutResult(
            report=report, outcome=DeploymentOutcome.SUCCEEDED
        )
        lkg = self._record_lkg(names)
        remaining = list(names)
        total = len(names)
        roles = {name: self._fleet.get(name).role for name in names}
        touched: list[str] = []
        phase_log: list[dict] = []
        failure = ""
        flight.record(
            "deploy.rollout",
            phase="deployment",
            verdict="started",
            detail=f"{total} device(s), intent {the_hash[:12]}",
        )
        with obs.span(
            "deploy.guarded_rollout", devices=total, intent=the_hash[:12]
        ) as span:
            for index, phase in enumerate(phases, 1):
                batch = phase.select(remaining, total, roles)
                if not batch:
                    continue
                phase_name = phase.name or f"phase-{index}"
                phase_entry: dict = {"phase": phase_name, "devices": list(batch)}
                phase_log.append(phase_entry)
                gate_start = scheduler.clock.now
                breaker = (
                    CircuitBreaker(max_failure_ratio, total=len(batch))
                    if max_failure_ratio is not None
                    else None
                )
                with obs.timed("deploy.phase.latency", phase=phase_name):
                    outcome = self._deployer.push_phase(
                        configs,
                        batch,
                        report,
                        breaker=breaker,
                        halt_on_failure=True,
                    )
                touched.extend(outcome.succeeded)
                remaining = [n for n in remaining if n not in batch]
                if outcome.circuit_open:
                    obs.counter("deploy.circuit_open", phase=phase_name).inc()
                    failure = (
                        f"circuit breaker opened in {phase_name}: failure "
                        f"ratio {breaker.failure_ratio:.0%} exceeds "
                        f"{max_failure_ratio:.0%}"
                    )
                    phase_entry["gate"] = "not-run"
                    flight.record(
                        "deploy.gate", phase="deployment",
                        verdict="not-run", detail=phase_name,
                    )
                    span.set_attribute("circuit_open_in", phase_name)
                    break
                if outcome.failed:
                    failure = (
                        f"push failed in {phase_name}: "
                        f"{outcome.first_failure()}"
                    )
                    phase_entry["gate"] = "not-run"
                    flight.record(
                        "deploy.gate", phase="deployment",
                        verdict="not-run", detail=phase_name,
                    )
                    span.set_attribute("failed_in", phase_name)
                    break
                bake = (
                    phase.bake_seconds
                    if phase.bake_seconds is not None
                    else bake_seconds
                )
                if bake > 0:
                    scheduler.run_until(scheduler.clock.now + bake)
                if self.gate is not None:
                    gate = self.gate.evaluate(batch, since=gate_start)
                    result.gate_results[phase_name] = gate
                    if not gate.passed:
                        obs.counter("deploy.gate_fail", phase=phase_name).inc()
                        failure = (
                            f"health gate failed after {phase_name}: "
                            f"{gate.reason()}"
                        )
                        phase_entry["gate"] = "failed"
                        flight.record(
                            "deploy.gate", phase="deployment",
                            verdict="failed", detail=f"{phase_name}: {gate.reason()}",
                        )
                        span.set_attribute("gate_failed_after", phase_name)
                        break
                phase_entry["gate"] = "passed"
                flight.record(
                    "deploy.gate", phase="deployment",
                    verdict="passed", detail=phase_name,
                )
                obs.counter("deploy.phase", phase=phase_name).inc()
            report.skipped.extend(remaining)

            if failure:
                self._notify(
                    f"guarded rollout aborted: {failure}; rolling back "
                    f"{len(touched)} device(s) to last-known-good"
                )
                restored, stuck = self._restore_lkg(touched, lkg, report)
                result.restored = restored
                result.rollback_reason = failure
                result.outcome = (
                    DeploymentOutcome.ROLLBACK_FAILED
                    if stuck
                    else DeploymentOutcome.ROLLED_BACK
                )
                # Devices rolled back did not stay on the new config.
                report.succeeded = [
                    name for name in report.succeeded if name not in set(restored)
                ]
                span.set_attribute("outcome", result.outcome.value)
            else:
                for name in report.succeeded:
                    self._pin(name)
                span.set_attribute("outcome", result.outcome.value)

        flight.record(
            "deploy.rollout",
            phase="deployment",
            verdict=result.outcome.value,
            detail=result.rollback_reason,
        )
        Deployer._account(report)
        result.record = self._persist(
            configs,
            the_hash,
            result,
            phase_log,
            lkg,
            started_at=started_at,
            finished_at=scheduler.clock.now,
        )
        return result

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _device_state(
        self, name: str, configs: Mapping[str, DeviceConfig | str], lkg_version: int
    ) -> str:
        """Classify where a device landed: 'new', 'lkg', or 'mixed'."""
        device = self._fleet.get(name)
        running = device.running_config
        if running == _config_text(configs[name]):
            return "new"
        try:
            if running == device.version_entry(lkg_version).text:
                return "lkg"
        except DeploymentError:
            pass
        return "mixed"

    def _persist(
        self,
        configs: Mapping[str, DeviceConfig | str],
        the_hash: str,
        result: RolloutResult,
        phase_log: list[dict],
        lkg: dict[str, int],
        *,
        started_at: float,
        finished_at: float,
    ):
        if self._store is None:
            return None
        from repro.fbnet.models import DeploymentRecord

        device_versions = {
            name: {
                "lkg": lkg[name],
                "final": self._fleet.get(name).config_version,
                "state": self._device_state(name, configs, lkg[name]),
            }
            for name in sorted(configs)
        }
        return self._store.create(
            DeploymentRecord,
            intent_hash=the_hash,
            operation="guarded_rollout",
            outcome=result.outcome,
            rollback_reason=result.rollback_reason[:_REASON_LIMIT],
            phases=phase_log,
            device_versions=device_versions,
            started_at=started_at,
            finished_at=finished_at,
            devices_total=len(configs),
            devices_rolled_back=len(result.report.rolled_back),
        )
