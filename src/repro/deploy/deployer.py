"""The deployment engine (paper section 5.3).

Engineers deploy generated configs through this engine.  It covers both
paper scenarios — initial provisioning of clean devices and incremental
updates to live devices — and implements the four incremental-update
safety mechanisms: dryrun, atomic, phased, and human confirmation.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import partial

from repro import faults, obs, parallel
from repro.obs import flight
from repro.common.errors import DeploymentError
from repro.configgen.generator import DeviceConfig
from repro.faults.retry import CircuitBreaker, GiveUp, RetryPolicy
from repro.deploy.diff import count_changed_lines, unified_diff
from repro.deploy.phases import PhaseSpec
from repro.devices.emulator import CommitError, EmulatedDevice
from repro.devices.fleet import DeviceFleet

__all__ = ["DeployReport", "Deployer", "PhaseOutcome", "cluster_domain"]


def cluster_domain(device: EmulatedDevice) -> str:
    """The default failure domain: the device's cluster-name prefix.

    ``pop01.c01.tor1`` → ``pop01.c01`` — phased pushes may run
    concurrently across clusters but never two at once within one.
    """
    name = device.name
    return name.rsplit(".", 1)[0] if "." in name else name


def _config_text(config: DeviceConfig | str) -> str:
    return config.text if isinstance(config, DeviceConfig) else config


def _config_sha(config: DeviceConfig | str) -> str:
    if isinstance(config, DeviceConfig):
        return config.sha
    return hashlib.sha256(config.encode()).hexdigest()


@dataclass
class DeployReport:
    """The outcome of one deployment operation."""

    operation: str
    succeeded: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    rolled_back: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    #: Per-device unified diffs; filled by :meth:`Deployer.dryrun` only.
    diffs: dict[str, str] = field(default_factory=dict)
    changed_lines: dict[str, int] = field(default_factory=dict)
    notifications: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed

    def total_changed_lines(self) -> int:
        return sum(self.changed_lines.values())


@dataclass
class PhaseOutcome:
    """What happened while pushing one phase's batch of devices."""

    succeeded: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    circuit_open: bool = False
    halted: bool = False

    def first_failure(self) -> str:
        return next(iter(self.failed.values()), "")


class Deployer:
    """Pushes configs to an emulated fleet with the paper's safety modes."""

    def __init__(
        self,
        fleet: DeviceFleet,
        *,
        notifier: Callable[[str], None] | None = None,
        retry_policy: RetryPolicy | None = None,
        domain_of: Callable[[EmulatedDevice], str] | None = None,
    ):
        self._fleet = fleet
        self._notify = notifier or (lambda _msg: None)
        #: When set, transient per-device commit failures are retried with
        #: backoff on the simulated clock before counting as failures.
        self._retry_policy = retry_policy
        #: Maps a device to its failure domain for phased pushes.  With
        #: ``None`` (the default) every device shares one domain, so
        #: phases push strictly one device at a time — the conservative
        #: serial behavior.  The :class:`~repro.core.robotron.Robotron`
        #: facade wires :func:`cluster_domain` so pushes parallelize
        #: across clusters while never running two at once inside one.
        self._domain_of = domain_of

    def failure_domain(self, device: EmulatedDevice) -> str:
        return "" if self._domain_of is None else str(self._domain_of(device))

    def _plan_waves(self, batch: list[str]) -> list[list[str]]:
        """Split a phase batch into waves of domain-distinct devices.

        Greedy in batch order: each device joins the earliest wave not
        already holding its failure domain.  Wave composition depends
        only on the batch and the domain map — never on the worker count
        — and a wave's members may push concurrently because no two
        share a domain.
        """
        waves: list[list[str]] = []
        domains: list[set[str]] = []
        for name in batch:
            domain = self.failure_domain(self._fleet.get(name))
            for wave, used in zip(waves, domains):
                if domain not in used:
                    wave.append(name)
                    used.add(domain)
                    break
            else:
                waves.append([name])
                domains.append({domain})
        return waves

    def _push(self, device: EmulatedDevice, text: str) -> float:
        """Commit ``text`` on ``device``, retrying transient failures.

        The ``deploy.push`` fault-injection point fires here; with a
        retry policy configured, injected (and other transient) commit
        errors are retried up to the policy's budget, bumping the
        ``deploy.retry`` counter, before the failure is surfaced.  Inside
        a pool task, retry backoff sleeps on the task-local clock (the
        coordinator folds the batch maximum into the shared clock).
        """
        clock = parallel.task_clock(self._fleet.scheduler.clock)

        def once() -> float:
            if faults.should_inject(
                "deploy.push", device=device.name, role=device.role
            ):
                raise CommitError(f"{device.name}: injected push failure")
            return device.commit(text)

        if self._retry_policy is None:
            return once()

        def on_retry(_attempt: int, exc: BaseException) -> None:
            obs.counter("deploy.retry", device=device.name).inc()
            # Recorded from inside the pool task: the event lands in the
            # task's flight buffer and merges back in task-key order.
            flight.record(
                "deploy.retry",
                phase="deployment",
                device=device.name,
                verdict="retried",
                detail=str(exc),
            )

        try:
            return self._retry_policy.execute(
                once,
                retryable=(CommitError,),
                sleep=clock.advance,
                clock=clock,
                on_retry=on_retry,
            )
        except GiveUp as exc:
            assert isinstance(exc.last_error, DeploymentError)
            raise exc.last_error

    @staticmethod
    def _account(report: DeployReport) -> DeployReport:
        """Record one operation's outcome counters into ``repro.obs``."""
        obs.counter("deploy.operation", op=report.operation).inc()
        for outcome, count in (
            ("success", len(report.succeeded)),
            ("failure", len(report.failed)),
            ("rollback", len(report.rolled_back)),
            ("skipped", len(report.skipped)),
        ):
            if count:
                obs.counter(
                    "deploy.device", op=report.operation, outcome=outcome
                ).inc(count)
        return report

    # ------------------------------------------------------------------
    # Initial provisioning (section 5.3.1)
    # ------------------------------------------------------------------

    def initial_provision(
        self,
        configs: Mapping[str, DeviceConfig | str],
        *,
        store=None,
    ) -> DeployReport:
        """Erase and copy configs onto clean devices, then validate.

        When ``store`` is given, every target must be fully drained in
        FBNet — initial provisioning requires devices carry no traffic.
        """
        report = DeployReport(operation="initial_provision")
        with obs.span("deploy.initial_provision", devices=len(configs)):
            if store is not None:
                self._check_drained(configs.keys(), store)
            for name, config in sorted(configs.items()):
                device = self._fleet.get(name)
                text = _config_text(config)
                try:
                    device.erase()
                    device.copy_config(text)
                    self._basic_validation(device, text)
                except DeploymentError as exc:
                    report.failed[name] = str(exc)
                    continue
                report.succeeded.append(name)
                report.changed_lines[name] = count_changed_lines("", text)
        return self._account(report)

    @staticmethod
    def _check_drained(names, store) -> None:
        from repro.fbnet.models import Device, DrainState
        from repro.fbnet.query import Expr, Op

        for name in names:
            obj = store.first(Device, Expr("name", Op.EQUAL, name))
            if obj is not None and obj.drain_state is not DrainState.DRAINED:
                raise DeploymentError(
                    f"{name} is not drained ({obj.drain_state.value}); initial "
                    "provisioning requires drained devices"
                )

    def _basic_validation(self, device: EmulatedDevice, text: str) -> None:
        """Post-provision checks: reachability and config took effect."""
        if not device.reachable():
            raise DeploymentError(f"{device.name}: unreachable after provisioning")
        if device.running_config != text:
            raise DeploymentError(f"{device.name}: running config mismatch")
        if device.parsed.hostname and device.parsed.hostname != device.name:
            raise DeploymentError(
                f"{device.name}: config hostname {device.parsed.hostname!r} "
                "does not match device"
            )

    # ------------------------------------------------------------------
    # Dryrun mode (section 5.3.2)
    # ------------------------------------------------------------------

    def dryrun(self, configs: Mapping[str, DeviceConfig | str]) -> DeployReport:
        """Produce per-device diffs without touching running configs.

        Devices with native dryrun support validate the candidate on-box
        (catching syntax errors and vendor bugs); for the rest the diff is
        computed from the running config (the paper's fallback compares
        before/after deployment — here we preview the same information).
        """
        report = DeployReport(operation="dryrun")
        with obs.span("deploy.dryrun", devices=len(configs)):
            for name, config in sorted(configs.items()):
                device = self._fleet.get(name)
                text = _config_text(config)
                try:
                    if device.supports_native_dryrun:
                        diff = device.dryrun(text)
                    else:
                        diff = unified_diff(device.running_config, text, name)
                except DeploymentError as exc:
                    report.failed[name] = str(exc)
                    continue
                report.diffs[name] = diff
                report.changed_lines[name] = count_changed_lines(
                    device.running_config, text
                )
                report.succeeded.append(name)
        return self._account(report)

    # ------------------------------------------------------------------
    # Plain and atomic incremental updates (section 5.3.2)
    # ------------------------------------------------------------------

    def unchanged(self, name: str, config: DeviceConfig | str) -> bool:
        """Whether the device already runs ``config`` (content-hash match)."""
        return self._fleet.get(name).running_sha == _config_sha(config)

    def deploy(
        self,
        configs: Mapping[str, DeviceConfig | str],
        *,
        skip_unchanged: bool = False,
    ) -> DeployReport:
        """Best-effort incremental update: failures don't undo successes.

        With ``skip_unchanged``, devices whose running config's SHA-256
        already matches the candidate's are not touched (counted under
        ``deploy.skip_unchanged`` and reported as skipped) — steady-state
        rollouts only commit on the dirty subset of the fleet.
        """
        report = DeployReport(operation="deploy")
        with obs.span("deploy.deploy", devices=len(configs)):
            for name, config in sorted(configs.items()):
                device = self._fleet.get(name)
                if skip_unchanged and self.unchanged(name, config):
                    report.skipped.append(name)
                    obs.counter("deploy.skip_unchanged", op="deploy").inc()
                    flight.record(
                        "deploy.push", phase="deployment", device=name,
                        verdict="skipped", detail="running config already matches",
                    )
                    continue
                text = _config_text(config)
                before = device.running_config
                try:
                    self._push(device, text)
                except DeploymentError as exc:
                    report.failed[name] = str(exc)
                    flight.record(
                        "deploy.push", phase="deployment", device=name,
                        verdict="failed", detail=str(exc),
                    )
                    continue
                report.succeeded.append(name)
                report.changed_lines[name] = count_changed_lines(before, text)
                flight.record(
                    "deploy.push", phase="deployment", device=name, verdict="ok",
                    detail=f"{report.changed_lines[name]} line(s)",
                )
        return self._account(report)

    def atomic_deploy(
        self,
        configs: Mapping[str, DeviceConfig | str],
        *,
        time_window: float = 60.0,
    ) -> DeployReport:
        """All-or-nothing multi-device update (e.g. iBGP mesh changes).

        If any device errors or cannot finish within ``time_window``, every
        already-updated device is restored to its previous config and the
        devices not yet reached are reported skipped.  A device whose
        restore fails is still on the new config; it is paged *and* listed
        in ``report.failed``, so the report never reads cleaner than the fleet.
        """
        report = DeployReport(operation="atomic_deploy")
        previous: dict[str, str] = {}
        with obs.span("deploy.atomic_deploy", devices=len(configs)) as span:
            try:
                for name, config in sorted(configs.items()):
                    device = self._fleet.get(name)
                    text = _config_text(config)
                    before = device.running_config
                    took = self._push(device, text)
                    previous[name] = before
                    if took > time_window:
                        raise CommitError(
                            f"{name}: commit took {took:.1f}s, exceeding the "
                            f"{time_window:.1f}s atomic window"
                        )
                    report.changed_lines[name] = count_changed_lines(before, text)
            except DeploymentError as exc:
                # ``name`` is the device the loop held when it failed.
                report.failed[name] = str(exc)
                for restored, old_text in reversed(list(previous.items())):
                    device = self._fleet.get(restored)
                    try:
                        device.commit(old_text)
                        report.rolled_back.append(restored)
                        report.changed_lines.pop(restored, None)
                    except DeploymentError as stuck:
                        # A device that cannot be restored is a page, not a log line.
                        self._notify(
                            f"atomic rollback FAILED on {restored}; manual intervention needed"
                        )
                        report.failed.setdefault(restored, str(stuck))
                # In name order, so what sorts after ``name`` was never attempted.
                report.skipped.extend(n for n in sorted(configs) if n > name)
                self._notify(f"atomic deployment aborted: {exc}")
                span.set_attribute("aborted", True)
                return self._account(report)
            report.succeeded.extend(sorted(configs))
        return self._account(report)

    # ------------------------------------------------------------------
    # Phased mode (section 5.3.2)
    # ------------------------------------------------------------------

    def push_phase(
        self,
        configs: Mapping[str, DeviceConfig | str],
        batch: list[str],
        report: DeployReport,
        *,
        breaker: CircuitBreaker | None = None,
        halt_on_failure: bool = False,
    ) -> PhaseOutcome:
        """Push one phase's batch, recording outcomes into ``report``.

        The batch is split into failure-domain waves (:meth:`_plan_waves`);
        a wave's devices — all in distinct domains — push concurrently
        across the worker pool, and every wave member always runs, so
        final device states are identical at any worker count.  Outcomes
        merge on the coordinator in wave order: with a ``breaker``,
        failures are tolerated until it opens; with ``halt_on_failure``,
        any failure stops after the current wave.  Either way the wave
        boundary is the halt boundary, and the devices never attempted
        land in ``report.skipped``: every batch member ends in one of the
        report's lists, whoever the caller is.
        """
        outcome = PhaseOutcome()
        waves = self._plan_waves(list(batch))
        for index, wave in enumerate(waves):
            flight.record(
                "deploy.wave",
                phase="deployment",
                verdict=f"wave-{index + 1}",
                detail=f"{len(wave)} device(s): {', '.join(wave)}",
            )
            results = parallel.run_tasks(
                [(name, partial(self._push_one, name, configs[name])) for name in wave],
                section="deploy.push",
                clock=self._fleet.scheduler.clock,
            )
            for result in results:
                name = result.key
                if result.error is not None:
                    if not isinstance(result.error, DeploymentError):
                        raise result.error
                    message = str(result.error)
                    report.failed[name] = message
                    outcome.failed[name] = message
                    flight.record(
                        "deploy.push", phase="deployment", device=name,
                        verdict="failed", detail=message,
                    )
                    if breaker is not None:
                        breaker.record_failure()
                        if breaker.open:
                            outcome.circuit_open = True
                    elif halt_on_failure:
                        outcome.halted = True
                    continue
                before = result.value
                report.succeeded.append(name)
                outcome.succeeded.append(name)
                report.changed_lines[name] = count_changed_lines(
                    before, _config_text(configs[name])
                )
                flight.record(
                    "deploy.push", phase="deployment", device=name, verdict="ok",
                    detail=f"{report.changed_lines[name]} line(s)",
                )
                if breaker is not None:
                    breaker.record_success()
            if outcome.circuit_open or outcome.halted:
                if outcome.circuit_open:
                    flight.record(
                        "deploy.breaker",
                        phase="deployment",
                        verdict="open",
                        detail=(
                            f"failure ratio {breaker.failure_ratio:.0%} in "
                            f"wave-{index + 1}"
                        ),
                    )
                for later in waves[index + 1 :]:
                    report.skipped.extend(later)
                return outcome
        return outcome

    def _push_one(self, name: str, config: DeviceConfig | str) -> str:
        """One phase push task: returns the pre-push running config."""
        device = self._fleet.get(name)
        before = device.running_config
        self._push(device, _config_text(config))
        return before

    def phased_deploy(
        self,
        configs: Mapping[str, DeviceConfig | str],
        phases: list[PhaseSpec],
        *,
        health_check: Callable[[list[str]], bool] | None = None,
        max_failure_ratio: float | None = None,
    ) -> DeployReport:
        """Deploy in engineer-specified phases, gating on health metrics.

        After each phase the ``health_check`` runs over that phase's
        devices; deployment only continues while checks pass, otherwise
        the remaining phases are skipped and engineers are notified.

        By default any device failure halts the rollout immediately.
        With ``max_failure_ratio`` set, each phase instead runs under a
        :class:`CircuitBreaker`: failures are tolerated until the phase's
        failure ratio exceeds the threshold, at which point the breaker
        opens (``deploy.circuit_open``) and everything not yet pushed is
        skipped — the paper's blast-radius containment.
        """
        report = DeployReport(operation="phased_deploy")
        remaining = sorted(configs)
        total = len(remaining)
        roles = {name: self._fleet.get(name).role for name in remaining}
        with obs.span("deploy.phased_deploy", devices=total) as span:
            for index, phase in enumerate(phases, 1):
                batch = phase.select(remaining, total, roles)
                if not batch:
                    continue
                phase_name = phase.name or f"phase-{index}"
                breaker = (
                    CircuitBreaker(max_failure_ratio, total=len(batch))
                    if max_failure_ratio is not None
                    else None
                )
                with obs.timed("deploy.phase.latency", phase=phase_name):
                    outcome = self.push_phase(
                        configs,
                        batch,
                        report,
                        breaker=breaker,
                        halt_on_failure=breaker is None,
                    )
                if outcome.halted:
                    message = (
                        f"phased deployment halted in {phase_name}: "
                        f"{outcome.first_failure()}"
                    )
                    report.notifications.append(message)
                    self._notify(message)
                    report.skipped.extend(r for r in remaining if r not in batch)
                    span.set_attribute("halted_in", phase_name)
                    return self._account(report)
                if outcome.circuit_open:
                    obs.counter("deploy.circuit_open", phase=phase_name).inc()
                    message = (
                        f"phased deployment aborted in {phase_name}: "
                        f"failure ratio {breaker.failure_ratio:.0%} "
                        f"exceeds {max_failure_ratio:.0%}"
                    )
                    report.notifications.append(message)
                    self._notify(message)
                    report.skipped.extend(r for r in remaining if r not in batch)
                    span.set_attribute("circuit_open_in", phase_name)
                    return self._account(report)
                obs.counter("deploy.phase", phase=phase_name).inc()
                remaining = [name for name in remaining if name not in batch]
                if health_check is not None and not health_check(batch):
                    message = (
                        f"phased deployment halted after {phase_name}: "
                        "health check failed"
                    )
                    report.notifications.append(message)
                    self._notify(message)
                    report.skipped.extend(remaining)
                    span.set_attribute("halted_after", phase_name)
                    return self._account(report)
            report.skipped.extend(remaining)
        return self._account(report)

    # ------------------------------------------------------------------
    # Human confirmation (section 5.3.2)
    # ------------------------------------------------------------------

    def deploy_with_confirmation(
        self,
        configs: Mapping[str, DeviceConfig | str],
        *,
        grace_seconds: float = 600.0,
        verify: Callable[[], bool],
    ) -> DeployReport:
        """Commit temporarily; confirm only if ``verify`` passes in time.

        The new configs go live under a grace-period timer.  ``verify``
        is the engineer's ad-hoc verification; returning True confirms
        every device.  Anything else actively reverts every committed
        device right away — cancelling its grace timer and restoring the
        prior config — rather than leaving the fleet idling unconfirmed
        until the timers expire.
        """
        report = DeployReport(operation="deploy_with_confirmation")
        committed: list[EmulatedDevice] = []
        with obs.span("deploy.deploy_with_confirmation", devices=len(configs)) as span:
            for name, config in sorted(configs.items()):
                device = self._fleet.get(name)
                text = _config_text(config)
                before = device.running_config
                try:
                    device.commit_confirmed(text, grace_seconds)
                except DeploymentError as exc:
                    report.failed[name] = str(exc)
                    continue
                committed.append(device)
                report.changed_lines[name] = count_changed_lines(before, text)
            verified = False
            try:
                verified = bool(verify())
            except Exception as exc:  # a crashing verifier must not confirm
                report.notifications.append(f"verification raised: {exc}")
            span.set_attribute("verified", verified)
            if verified:
                for device in committed:
                    device.confirm()
                    report.succeeded.append(device.name)
            else:
                reverted: list[str] = []
                for device in committed:
                    try:
                        device.abort_confirm()
                    except DeploymentError as exc:
                        # A device that cannot be restored is a page, not a log line.
                        self._notify(
                            f"confirmation rollback FAILED on {device.name}: {exc}"
                        )
                        report.failed.setdefault(device.name, str(exc))
                        continue
                    reverted.append(device.name)
                    del report.changed_lines[device.name]
                if reverted:
                    obs.counter(
                        "deploy.rollback", op="deploy_with_confirmation"
                    ).inc(len(reverted))
                message = (
                    f"confirmation not given; reverted {len(reverted)} "
                    "device(s) to their prior configs"
                )
                report.notifications.append(message)
                self._notify(message)
                report.rolled_back.extend(reverted)
        return self._account(report)
