"""Exception hierarchy for the Robotron reproduction.

Every subsystem raises exceptions rooted at :class:`RobotronError` so callers
can catch broadly ("anything went wrong in the management plane") or narrowly
(a specific life-cycle stage failed).  The hierarchy mirrors the life-cycle
stages of the paper: FBNet (modeling/storage), design, config generation,
deployment, and monitoring.
"""

from __future__ import annotations


class RobotronError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# FBNet: modeling / storage / API errors
# ---------------------------------------------------------------------------


class FBNetError(RobotronError):
    """Base class for errors raised by the FBNet object store."""


class ValidationError(FBNetError):
    """A value failed a field's validation (e.g. a malformed IPv6 prefix)."""


class IntegrityError(FBNetError):
    """A write would violate data integrity (unique, FK, or model rules)."""


class ObjectDoesNotExist(FBNetError):
    """A lookup referenced an object id that is not in the store."""


class QueryError(FBNetError):
    """A read-API query was malformed (unknown field, bad operator, ...)."""


class TransactionError(FBNetError):
    """A write transaction could not complete and has been rolled back."""


class ReplicationError(FBNetError):
    """Replication-layer failure (no live master, all replicas down, ...)."""


class DurabilityError(FBNetError):
    """The write-ahead log is unusable (a damaged frame mid-log, an old
    layout, attaching to a root that already holds another store's log)."""


class CursorAheadError(FBNetError):
    """A journal cursor is past its journal's end: what is new is unknowable."""


class RpcError(FBNetError):
    """The service layer could not complete an RPC (all replicas failed)."""


class ReplicaUnavailable(RpcError):
    """A transient replica-level failure; safe to redirect or retry.

    Raised when a service replica is down or an injected fault made this
    particular call fail — the request itself was fine, so the routing
    layer may redirect it to another replica or retry after backoff.
    """


# ---------------------------------------------------------------------------
# Life-cycle stage errors
# ---------------------------------------------------------------------------


class DesignValidationError(RobotronError):
    """A network design violates a design rule and was rejected."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        #: Individual rule violations, one human-readable string each.
        self.violations: list[str] = list(violations or [])


class ConfigGenerationError(RobotronError):
    """Config generation failed (missing data, schema mismatch, ...)."""


class TemplateError(ConfigGenerationError):
    """A config template failed to parse or render."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DeploymentError(RobotronError):
    """A deployment failed; the deployer reports what was rolled back."""


class MonitoringError(RobotronError):
    """A monitoring job or pipeline stage failed."""


# ---------------------------------------------------------------------------
# Chaos layer
# ---------------------------------------------------------------------------


class FaultInjectedError(RobotronError):
    """A failure injected by the active :mod:`repro.faults` plan."""


class ProcessCrash(BaseException):
    """Simulated process death at a durability crash point.

    Raised by the WAL fault points (``wal.append_torn``,
    ``wal.append_crash``).  Deliberately rooted at :class:`BaseException`
    — like ``SystemExit`` — so no subsystem's error handling (retry
    policies, remediation compensation, rollback paths) can "handle" the
    process dying.  Harnesses catch it at the top level and rebuild the
    store with :func:`repro.fbnet.durability.recover_store`.
    """
