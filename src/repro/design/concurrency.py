"""Serializing concurrent design changes (paper section 8, "Stale Configs").

The paper leaves this open: "How to serialize concurrent design changes,
resolve design conflicts, and leverage the Derived network state to
ensure change safety remains an open problem" — noting that at scale,
lock-based multi-writer coordination is hard (their reference is
Statesman's conflict-resolution ideas).

This module implements the optimistic scheme the discussion points
toward.  Engineers *propose* changes against a snapshot of FBNet (the
journal position they read).  At commit time the coordinator asks the
journal what changed since then under the proposal's touches (a touch on
a base model covers its subclass rows); if anything did, the commit is
rejected with a conflict report and the engineer rebases — no locks, no
lost updates, and the stale-config incident of section 8 (Engineer A
deploying over Engineer B's change) becomes structurally impossible at
the design layer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.common.errors import DesignValidationError, RobotronError
from repro.design.changes import ChangeSummary, summarize_journal
from repro.fbnet.changelog import ReadSet, changes_since
from repro.fbnet.store import ObjectStore

__all__ = ["ChangeCoordinator", "ChangeProposal", "DesignConflict"]


class DesignConflict(RobotronError):
    """A proposal lost the race: its objects changed under it."""

    def __init__(self, message: str, conflicts: list[str]):
        super().__init__(message)
        self.conflicts = conflicts


@dataclass
class ChangeProposal:
    """One engineer's pending design change.

    ``mutate`` is the design-tool work, deferred until commit so it
    always runs against current state; ``touches`` declares the object
    identities ((model, id) pairs) the change depends on — anything it
    will modify, delete, or derive data from.  New objects the change
    will create need not be declared.
    """

    proposal_id: int
    employee_id: str
    ticket_id: str
    description: str
    base_position: int
    touches: frozenset[tuple[str, int]]
    mutate: Callable[[ObjectStore], None]
    #: Filled in on successful commit.
    summary: ChangeSummary | None = None
    committed_at_position: int | None = None


class ChangeCoordinator:
    """Optimistic concurrency control over one FBNet store."""

    def __init__(self, store: ObjectStore):
        self._store = store
        self._next_id = 1
        #: (time-ordered) committed proposals, for audit.
        self.committed: list[ChangeProposal] = []
        #: Rejected proposals with their conflict reports.
        self.rejected: list[tuple[ChangeProposal, list[str]]] = []

    def propose(
        self,
        *,
        employee_id: str,
        ticket_id: str,
        description: str,
        touches: set[tuple[str, int]],
        mutate: Callable[[ObjectStore], None],
    ) -> ChangeProposal:
        """Open a proposal against the store's current snapshot."""
        if not employee_id or not ticket_id:
            raise DesignValidationError(
                "design changes require an employee id and a ticket id"
            )
        proposal = ChangeProposal(
            proposal_id=self._next_id,
            employee_id=employee_id,
            ticket_id=ticket_id,
            description=description,
            base_position=self._store.journal_position,
            touches=frozenset(touches),
            mutate=mutate,
        )
        self._next_id += 1
        return proposal

    def conflicts_for(self, proposal: ChangeProposal) -> list[str]:
        """What changed under the proposal since its base snapshot."""
        touches = ReadSet(objects=set(proposal.touches))
        records = changes_since(self._store, proposal.base_position, touches)
        if records is None:
            return [f"the base snapshot ({proposal.base_position}) is past the journal's end"]
        return [
            f"{record.model} id={record.obj_id} was {record.op.value}d "
            "after the proposal's base snapshot"
            for record in records
        ]

    def commit(self, proposal: ChangeProposal) -> ChangeSummary:
        """Validate-then-apply: reject on conflict, else run atomically."""
        conflicts = self.conflicts_for(proposal)
        if conflicts:
            self.rejected.append((proposal, conflicts))
            raise DesignConflict(
                f"proposal {proposal.proposal_id} ({proposal.description!r}) "
                f"conflicts with {len(conflicts)} concurrent change(s); rebase",
                conflicts,
            )
        start = self._store.journal_position
        with self._store.transaction():
            proposal.mutate(self._store)
        proposal.summary = summarize_journal(self._store.journal_since(start))
        proposal.committed_at_position = self._store.journal_position
        self.committed.append(proposal)
        return proposal.summary

    def rebase(self, proposal: ChangeProposal) -> ChangeProposal:
        """A fresh proposal with the same work against the current state."""
        return self.propose(
            employee_id=proposal.employee_id,
            ticket_id=proposal.ticket_id,
            description=proposal.description,
            touches=set(proposal.touches),
            mutate=proposal.mutate,
        )
