"""Drain and undrain procedures (paper sections 1 and 6.1).

"Migrating a circuit between routers can involve configuration changes in
IP addressing, BGP sessions, interfaces, as well as *drain and undrain
procedures* to avoid the interruption of production traffic."  The
``drain_state`` attribute is the paper's example of a purely operational
Desired attribute (section 6.1), and initial provisioning requires a
fully drained device (section 5.3.1).

Draining here is intent-first, like everything in Robotron: the Desired
``drain_state`` changes, config generation derives BGP neighbor shutdowns
from it, and deployment pushes the drained config.  Undraining reverses
the sequence.

Because the Desired write comes *first*, a failed push would leave FBNet
claiming a state the device never reached.  The push is therefore wrapped
in a compensating transaction: on deployment failure the device's
``drain_state`` is reverted, a failed :class:`DrainEvent` is recorded,
and the golden config is regenerated from the restored intent — Desired
never diverges from Actual (counted under ``deploy.drain_rollback``).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro import obs
from repro.obs import flight
from repro.common.errors import DeploymentError
from repro.configgen.generator import ConfigGenerator, DeviceConfig
from repro.deploy.deployer import DeployReport, Deployer
from repro.devices.fleet import DeviceFleet
from repro.fbnet.models import Device, DrainEvent, DrainState
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore

__all__ = ["MaintenanceResult", "drain_device", "set_drain_state", "undrain_device"]

#: Signature of an alternative push path (e.g. a guarded rollout) the
#: caller may route the drain config through instead of a plain deploy.
Pusher = Callable[[Mapping[str, DeviceConfig]], DeployReport]


@dataclass(frozen=True)
class MaintenanceResult:
    """What one drain/undrain accomplished."""

    device: str
    state: DrainState
    sessions_affected: int
    config_lines_changed: int


def _find_device(store: ObjectStore, name: str) -> Device:
    device = store.first(Device, Expr("name", Op.EQUAL, name))
    if device is None:
        raise DeploymentError(f"no device named {name!r} in FBNet")
    return device


def set_drain_state(
    store: ObjectStore,
    fleet: DeviceFleet,
    generator: ConfigGenerator,
    deployer: Deployer,
    device_name: str,
    target: DrainState,
    *,
    reason: str,
    verify: bool = True,
    pusher: Pusher | None = None,
) -> MaintenanceResult:
    """Move a device to ``target``: Desired write, regenerate, push, verify.

    The one procedure behind :func:`drain_device` and
    :func:`undrain_device`, which differ only in ``target`` and so in what
    verification expects of the live sessions: none established once
    DRAINED, all of them otherwise.
    """
    device = _find_device(store, device_name)
    previous = device.drain_state
    with store.transaction():
        store.update(device, drain_state=target)
        store.create(
            DrainEvent,
            device=device,
            state=target,
            reason=reason,
            at=fleet.scheduler.clock.now,
        )
    config = generator.generate_device(device)
    report = (pusher or deployer.deploy)({device_name: config})
    if not report.ok:
        failure = report.failed.get(device_name, str(report.failed))
        # Compensating transaction: the push never landed, so the Desired
        # write above must not survive — revert the drain state, record
        # the failed attempt, and regenerate golden from the restored
        # intent so ConfMon doesn't chase a config the fleet never ran.
        with store.transaction():
            store.update(device, drain_state=previous)
            store.create(
                DrainEvent,
                device=device,
                state=previous,
                reason=f"reverted {target.value}: push failed: {failure}",
                at=fleet.scheduler.clock.now,
                succeeded=False,
            )
        generator.generate_device(device)
        obs.counter("deploy.drain_rollback", device=device_name).inc()
        flight.record(
            "deploy.drain_rollback",
            phase="deployment",
            device=device_name,
            verdict="reverted",
            detail=f"{target.value} push failed: {failure}",
        )
        raise DeploymentError(
            f"{device_name}: drain-state deployment failed: {report.failed}"
        )
    if verify:
        drained = target is DrainState.DRAINED
        wrong = [
            entry["peer_ip"]
            for entry in fleet.get(device_name).bgp_summary()
            if (entry["state"] == "established") is drained
        ]
        if wrong:
            # The device is genuinely half-transitioned (config pushed,
            # sessions disagree), so the Desired state stands — but the
            # failure must be visible: a failed DrainEvent for auditors and
            # a flight event for anyone tracing the change, not just a raise.
            what = "still established" if drained else "not re-established"
            detail = f"sessions {what}: {', '.join(wrong)}"
            store.create(
                DrainEvent,
                device=device,
                state=target,
                reason=f"verification failed: {detail}",
                at=fleet.scheduler.clock.now,
                succeeded=False,
            )
            obs.counter("deploy.drain_verify_fail", device=device_name).inc()
            flight.record(
                "deploy.drain",
                phase="deployment",
                device=device_name,
                verdict="verify-failed",
                detail=detail,
            )
            raise DeploymentError(
                f"{device_name}: sessions {what} after "
                f"{'drain' if drained else 'undrain'}: {wrong}"
            )
    shut = sum(
        1 for n in (config.data.get("bgp") or {}).get("neighbors", [])
        if n.get("shutdown")
    )
    return MaintenanceResult(
        device=device_name,
        state=target,
        sessions_affected=shut,
        config_lines_changed=report.changed_lines.get(device_name, 0),
    )


def drain_device(
    store: ObjectStore,
    fleet: DeviceFleet,
    generator: ConfigGenerator,
    deployer: Deployer,
    device_name: str,
    *,
    reason: str = "maintenance",
    verify: bool = True,
    pusher: Pusher | None = None,
) -> MaintenanceResult:
    """Take a device out of production traffic before risky work.

    Sets the Desired ``drain_state`` to DRAINED, regenerates the config
    (every BGP neighbor gains a shutdown), deploys it — through
    ``pusher`` when given, e.g. a guarded rollout — and, when ``verify``,
    confirms from the live fleet that no session on the device remains
    established.  A verification failure is recorded (failed
    ``DrainEvent`` + flight event) before it raises.
    """
    return set_drain_state(
        store, fleet, generator, deployer, device_name, DrainState.DRAINED,
        reason=reason, verify=verify, pusher=pusher,
    )


def undrain_device(
    store: ObjectStore,
    fleet: DeviceFleet,
    generator: ConfigGenerator,
    deployer: Deployer,
    device_name: str,
    *,
    reason: str = "maintenance complete",
    verify: bool = True,
    pusher: Pusher | None = None,
) -> MaintenanceResult:
    """Return a drained device to production traffic.

    When ``verify``, confirms every configured session re-establishes —
    undrain is only safe when the far ends agree.  Verification failures
    are recorded the same way :func:`drain_device` records them.
    """
    return set_drain_state(
        store, fleet, generator, deployer, device_name, DrainState.UNDRAINED,
        reason=reason, verify=verify, pusher=pusher,
    )
