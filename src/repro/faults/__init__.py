"""repro.faults — deterministic fault injection and retry policies.

The paper's evaluation (sections 4.3.3 and 6) leans on Robotron surviving
component failure: lagging replica databases get disabled, masters get
promoted, service requests redirect to surviving replicas, and phased
deployments contain blast radius.  This package makes those claims
*testable* instead of anecdotal: a process-global, seed-deterministic
:class:`~repro.faults.plan.FaultPlan` injects failures at named points
across the RPC, replication, store, deployment, and monitoring layers,
while :class:`~repro.faults.retry.RetryPolicy` and
:class:`~repro.faults.retry.CircuitBreaker` give the call sites the
recovery machinery the paper assumes.

Usage::

    from repro import faults

    plan = faults.FaultPlan(seed=1337)
    plan.inject("rpc.call", probability=0.25, times=10)
    plan.inject("deploy.push", device="pop01.c01.psw1")
    with plan.installed():
        run_chaos_experiment()
    assert plan.injected_count("rpc.call") > 0

Injection points wired in this reproduction:

========================  =====================================================
``rpc.call``              :meth:`ServiceReplica.handle` fails the request
``replication.apply``     an arrival is delayed (lag spike) before it applies
``store.commit_listener`` commit-listener delivery is deferred to a later commit
``replication.promote``   a promotion candidate is rejected
``deploy.push``           a per-device config push raises ``CommitError``
``monitoring.collect``    an engine poll raises ``MonitoringError``
``wal.append_torn``       half a WAL frame reaches disk, then ``ProcessCrash``
``wal.append_crash``      the WAL frame is durable, then ``ProcessCrash``
========================  =====================================================

Chaos runs are observable through ``repro.obs``: ``faults.injected``
counts per point, and the recovery paths bump ``rpc.retry``,
``deploy.retry``, ``deploy.circuit_open``, ``replication.retry``, and
``monitoring.retry``.
"""

from repro.common.errors import FaultInjectedError
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    active_plan,
    check,
    install,
    should_inject,
    uninstall,
)
from repro.faults.retry import CircuitBreaker, GiveUp, RetryPolicy

__all__ = [
    "CircuitBreaker",
    "FaultInjectedError",
    "FaultPlan",
    "FaultSpec",
    "GiveUp",
    "RetryPolicy",
    "active_plan",
    "check",
    "install",
    "should_inject",
    "uninstall",
]
