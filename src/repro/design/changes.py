"""Design changes: atomic, reviewed, audited intent mutations.

A *design change* is "an atomic operation that stores a human-specified
change to FBNet.  It can be as simple as migrating a single circuit or as
complex as building an entire cluster" (paper section 6.2).  This module
wraps any design-tool work in a :class:`DesignChange` context that:

* runs everything in one FBNet transaction;
* runs the design-rule validators before committing (section 5.1.3);
* shows the resulting change summary to a reviewer, who must confirm —
  rejection rolls the whole change back;
* requires an employee id and a ticket id, and logs the change as a
  ``DesignChangeEntry`` for history (section 5.1.3);
* accounts created/modified/deleted objects per type — the data behind
  the paper's Figure 15.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any

from repro.common.errors import DesignValidationError
from repro.fbnet.models import DesignChangeEntry
from repro.fbnet.store import ChangeOp, ObjectStore
from repro.obs import flight

__all__ = ["ChangeSummary", "DesignChange"]

#: Models excluded from change accounting (audit metadata, not design).
_ACCOUNTING_EXCLUDED = {"DesignChangeEntry"}


@dataclass
class ChangeSummary:
    """What one design change did, deduplicated per object.

    An object both created and updated within the change counts once as
    created; created-then-deleted nets out to nothing; updated-then-
    deleted counts as deleted.
    """

    created: dict[str, int] = field(default_factory=dict)
    modified: dict[str, int] = field(default_factory=dict)
    deleted: dict[str, int] = field(default_factory=dict)

    @property
    def created_total(self) -> int:
        return sum(self.created.values())

    @property
    def modified_total(self) -> int:
        return sum(self.modified.values())

    @property
    def deleted_total(self) -> int:
        return sum(self.deleted.values())

    @property
    def total(self) -> int:
        """Total changed objects — the Figure 15 'changed objects' metric."""
        return self.created_total + self.modified_total + self.deleted_total

    def per_type(self) -> dict[str, dict[str, int]]:
        types = set(self.created) | set(self.modified) | set(self.deleted)
        return {
            name: {
                "created": self.created.get(name, 0),
                "modified": self.modified.get(name, 0),
                "deleted": self.deleted.get(name, 0),
            }
            for name in sorted(types)
        }

    def describe(self) -> str:
        lines = [
            f"created={self.created_total} modified={self.modified_total} "
            f"deleted={self.deleted_total}"
        ]
        for name, counts in self.per_type().items():
            lines.append(
                f"  {name}: +{counts['created']} ~{counts['modified']} "
                f"-{counts['deleted']}"
            )
        return "\n".join(lines)


def summarize_journal(records) -> ChangeSummary:
    """Fold journal records into a deduplicated :class:`ChangeSummary`."""
    # Final disposition per object: track the sequence of ops.
    state: dict[tuple[str, int], str] = {}
    for record in records:
        if record.model in _ACCOUNTING_EXCLUDED:
            continue
        key = (record.model, record.obj_id)
        previous = state.get(key)
        if record.op is ChangeOp.CREATE:
            state[key] = "created"
        elif record.op is ChangeOp.UPDATE:
            if previous != "created":
                state[key] = "modified"
        else:  # DELETE
            if previous == "created":
                state.pop(key)  # created and deleted inside the change
            else:
                state[key] = "deleted"

    summary = ChangeSummary()
    buckets = {
        "created": summary.created,
        "modified": summary.modified,
        "deleted": summary.deleted,
    }
    for (model, _obj_id), disposition in state.items():
        bucket = buckets[disposition]
        bucket[model] = bucket.get(model, 0) + 1
    return summary


class DesignChange:
    """Context manager around one atomic design change.

    Usage::

        with DesignChange(store, employee_id="e123", ticket_id="T-9",
                          description="add circuit", domain="backbone") as dc:
            ...design-tool calls against store...
        dc.summary  # per-type accounting after commit

    ``reviewer`` is called with the :class:`ChangeSummary` before commit;
    returning False (or raising) rejects the change and rolls it back —
    the paper's "users visually review and confirm" gate.  ``validators``
    run before review; any returned violation aborts the change.
    """

    def __init__(
        self,
        store: ObjectStore,
        *,
        employee_id: str,
        ticket_id: str,
        description: str = "",
        domain: str = "",
        reviewer: Callable[[ChangeSummary], bool] | None = None,
        validators: list[Callable[[ObjectStore], list[str]]] | None = None,
        committed_at: float = 0.0,
    ):
        if not employee_id or not ticket_id:
            raise DesignValidationError(
                "design changes require an employee id and a ticket id"
            )
        self._store = store
        self.employee_id = employee_id
        self.ticket_id = ticket_id
        self.description = description
        self.domain = domain
        self.reviewer = reviewer
        self.validators = list(validators or [])
        self.committed_at = committed_at
        self.summary: ChangeSummary | None = None
        self.entry: DesignChangeEntry | None = None
        #: The flight-recorder change id this design change ran under.
        self.change_id = ""
        self._txn_cm: Any = None
        self._flight_cm: Any = None
        self._journal_start = 0

    def __enter__(self) -> DesignChange:
        # The flight context opens before the transaction so the journal
        # records the change writes are stamped with its id — this is
        # where intent (ticket, description) first meets the model layer.
        self._flight_cm = flight.change_context(
            f"{self.ticket_id}: {self.description}" if self.description
            else self.ticket_id
        )
        self.change_id = self._flight_cm.__enter__().change_id
        self._txn_cm = self._store.transaction()
        self._txn_cm.__enter__()
        # Pending records live in the store's in-flight transaction buffer.
        self._journal_start = len(self._store._pending_records)
        return self

    def _close_flight(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if self._flight_cm is not None:
            self._flight_cm.__exit__(exc_type, exc, tb)
            self._flight_cm = None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if exc_type is not None:
            self._txn_cm.__exit__(exc_type, exc, tb)
            self._close_flight(exc_type, exc, tb)
            return False
        try:
            violations = [v for validator in self.validators for v in validator(self._store)]
            if violations:
                raise DesignValidationError(
                    f"design change rejected: {len(violations)} rule violation(s)",
                    violations=violations,
                )
            pending = self._store._pending_records[self._journal_start :]
            self.summary = summarize_journal(pending)
            if self.reviewer is not None and not self.reviewer(self.summary):
                raise DesignValidationError("design change rejected by reviewer")
            self.entry = self._store.create(
                DesignChangeEntry,
                employee_id=self.employee_id,
                ticket_id=self.ticket_id,
                description=self.description,
                domain=self.domain,
                committed_at=self.committed_at,
                created_count=self.summary.created_total,
                modified_count=self.summary.modified_total,
                deleted_count=self.summary.deleted_total,
                per_type_counts=self.summary.per_type(),
            )
        except BaseException as inner:
            self._txn_cm.__exit__(type(inner), inner, inner.__traceback__)
            self._close_flight(type(inner), inner, inner.__traceback__)
            raise
        self._txn_cm.__exit__(None, None, None)
        flight.record(
            "change.commit",
            phase="intent",
            change_id=self.change_id,
            verdict="committed",
            detail=self.summary.describe().splitlines()[0],
        )
        self._close_flight(None, None, None)
        return False
