"""Tests for optimistic concurrent design changes (paper section 8).

The scenario under test is the paper's stale-config war story: Engineer A
and Engineer B both work against the same rack profile; whoever commits
second must be told their proposal is stale instead of silently clobbering
the other's design.
"""

import pytest

from repro.common.errors import DesignValidationError
from repro.design.concurrency import ChangeCoordinator, DesignConflict
from repro.fbnet.models import PeeringRouter, Rack, RackProfile, Region
from repro.fbnet.query import Expr, Op


@pytest.fixture
def coordinator(store):
    return ChangeCoordinator(store)


@pytest.fixture
def profile(store):
    return store.create(RackProfile, name="web-rack-x", downlinks_per_rack=4)


class TestHappyPath:
    def test_commit_applies_and_summarizes(self, store, coordinator):
        proposal = coordinator.propose(
            employee_id="a", ticket_id="T-1", description="add region",
            touches=set(),
            mutate=lambda s: s.create(Region, name="r-new"),
        )
        summary = coordinator.commit(proposal)
        assert summary.created == {"Region": 1}
        assert store.count(Region, Expr("name", Op.EQUAL, "r-new")) == 1
        assert coordinator.committed == [proposal]

    def test_non_overlapping_proposals_both_land(self, store, coordinator, profile):
        a = coordinator.propose(
            employee_id="a", ticket_id="T-1", description="region one",
            touches=set(),
            mutate=lambda s: s.create(Region, name="one"),
        )
        b = coordinator.propose(
            employee_id="b", ticket_id="T-2", description="region two",
            touches=set(),
            mutate=lambda s: s.create(Region, name="two"),
        )
        coordinator.commit(a)
        coordinator.commit(b)  # touches nothing A changed: no conflict
        assert store.count(Region) == 2

    def test_requires_identity(self, coordinator):
        with pytest.raises(DesignValidationError):
            coordinator.propose(
                employee_id="", ticket_id="T", description="x",
                touches=set(), mutate=lambda s: None,
            )


class TestConflicts:
    def test_paper_scenario_second_writer_rejected(self, store, coordinator, profile):
        """Engineers A and B race on the same rack profile (section 8)."""
        key = ("RackProfile", profile.id)

        engineer_a = coordinator.propose(
            employee_id="engineer-a", ticket_id="T-A",
            description="bump downlinks to 8",
            touches={key},
            mutate=lambda s: s.update(
                s.get(RackProfile, profile.id), downlinks_per_rack=8
            ),
        )
        engineer_b = coordinator.propose(
            employee_id="engineer-b", ticket_id="T-B",
            description="bump downlinks to 12",
            touches={key},
            mutate=lambda s: s.update(
                s.get(RackProfile, profile.id), downlinks_per_rack=12
            ),
        )
        coordinator.commit(engineer_b)  # B lands first this time
        with pytest.raises(DesignConflict) as excinfo:
            coordinator.commit(engineer_a)
        assert "rebase" in str(excinfo.value)
        assert excinfo.value.conflicts
        # B's design survived; A's never half-applied.
        assert profile.downlinks_per_rack == 12
        assert coordinator.rejected

    def test_delete_under_proposal_detected(self, store, coordinator, profile):
        proposal = coordinator.propose(
            employee_id="a", ticket_id="T-1", description="use profile",
            touches={("RackProfile", profile.id)},
            mutate=lambda s: None,
        )
        store.delete(profile)
        with pytest.raises(DesignConflict):
            coordinator.commit(proposal)

    def test_unrelated_changes_do_not_conflict(self, store, coordinator, profile):
        proposal = coordinator.propose(
            employee_id="a", ticket_id="T-1", description="touch profile",
            touches={("RackProfile", profile.id)},
            mutate=lambda s: s.update(
                s.get(RackProfile, profile.id), downlinks_per_rack=6
            ),
        )
        store.create(Region, name="elsewhere")  # concurrent but unrelated
        coordinator.commit(proposal)
        assert profile.downlinks_per_rack == 6

    def test_touch_on_a_base_model_covers_its_subclass_rows(
        self, store, env, coordinator
    ):
        """A proposal declares ``("Device", id)``; the row under it is a
        ``PeeringRouter``, and a concurrent update to it is a conflict."""
        router = store.create(
            PeeringRouter,
            name="pr1",
            hardware_profile=env.profiles["Router_Vendor1"],
            pop=env.pops["pop01"],
        )
        proposal = coordinator.propose(
            employee_id="a", ticket_id="T-1", description="re-home the router",
            touches={("Device", router.id)},
            mutate=lambda s: None,
        )
        store.update(router, name="pr1-renamed")
        assert coordinator.conflicts_for(proposal) == [
            f"PeeringRouter id={router.id} was updated after the proposal's base snapshot"
        ]
        with pytest.raises(DesignConflict):
            coordinator.commit(proposal)

    def test_rebase_reruns_against_current_state(self, store, coordinator, profile):
        key = ("RackProfile", profile.id)

        def bump(s):
            current = s.get(RackProfile, profile.id)
            s.update(current, downlinks_per_rack=current.downlinks_per_rack + 1)

        stale = coordinator.propose(
            employee_id="a", ticket_id="T-1", description="increment",
            touches={key}, mutate=bump,
        )
        store.update(profile, downlinks_per_rack=10)  # concurrent write
        with pytest.raises(DesignConflict):
            coordinator.commit(stale)
        fresh = coordinator.rebase(stale)
        coordinator.commit(fresh)
        # The rebased change applied on top of the concurrent one: 10 + 1.
        assert profile.downlinks_per_rack == 11

    def test_failed_mutate_leaves_no_partial_state(self, store, coordinator):
        def exploding(s):
            s.create(Region, name="partial")
            raise RuntimeError("tool bug")

        proposal = coordinator.propose(
            employee_id="a", ticket_id="T-1", description="explodes",
            touches=set(), mutate=exploding,
        )
        with pytest.raises(RuntimeError):
            coordinator.commit(proposal)
        assert store.count(Region) == 0
