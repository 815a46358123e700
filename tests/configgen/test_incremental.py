"""Incremental config generation: dirty mapping and the equivalence guarantee.

``regenerate_dirty()`` must regenerate exactly the devices whose inputs
changed — and the resulting golden set must be byte-identical to a full
regeneration from scratch.  The property test at the bottom drives that
guarantee over randomized design-mutation sequences.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigGenerationError
from repro.configgen.generator import ConfigGenerator
from repro.core.seeds import seed_environment
from repro.design.cluster import build_cluster
from repro.faults import FaultPlan
from repro.fbnet.models import (
    AggregatedInterface,
    BgpV4Session,
    ClusterGeneration,
    Device,
    DrainState,
    NetworkSwitch,
    PhysicalInterface,
    Region,
)
from repro.fbnet.store import ObjectStore
from repro.obs import flight

pytestmark = pytest.mark.incremental


@pytest.fixture
def pop_cluster(store, env):
    return build_cluster(
        store, "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
    )


@pytest.fixture
def generator(store):
    return ConfigGenerator(store)


def golden_texts(generator):
    return {name: config.text for name, config in generator.golden.items()}


def full_regeneration(store, generator):
    """A from-scratch generation sharing the incremental run's templates."""
    fresh = ConfigGenerator(store, generator.configerator)
    fresh.generate_devices(store.all(Device))
    return golden_texts(fresh)


class TestRegenerateDirty:
    def test_noop_when_nothing_changed(self, store, env, pop_cluster, generator):
        generator.generate_devices(store.all(Device))
        before = dict(generator.golden)
        report = generator.regenerate_dirty()
        assert not report.regenerated
        assert not report.dirty
        assert sorted(report.skipped) == sorted(before)
        # Clean devices keep the very same config objects, not rebuilt ones.
        assert all(generator.golden[name] is before[name] for name in before)

    def test_single_interface_change_regenerates_one_device(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        pif = store.all(PhysicalInterface)[0]
        owner = store.get(AggregatedInterface, pif.agg_interface_id).related(
            "device"
        )
        store.update(pif, description="relabeled by tech")
        report = generator.regenerate_dirty()
        assert set(report.regenerated) == {owner.name}
        assert owner.name in report.dirty
        assert "PhysicalInterface" in report.dirty[owner.name]
        assert "relabeled by tech" in {
            member["description"]
            for agg in generator.golden[owner.name].data["aggs"]
            for member in agg["pifs"]
        }
        assert golden_texts(generator) == full_regeneration(store, generator)

    def test_drain_change_regenerates_only_that_device(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        device = pop_cluster.devices["PR"][0]
        store.update(device, drain_state=DrainState.DRAINING)
        report = generator.regenerate_dirty()
        assert set(report.regenerated) == {device.name}
        assert golden_texts(generator) == full_regeneration(store, generator)

    def test_new_device_is_dirty_with_reason_new(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        newcomer = store.create(
            NetworkSwitch,
            name="pop01.c01.psw9",
            hardware_profile=env.profiles["Switch_Vendor2"],
        )
        report = generator.regenerate_dirty()
        assert report.dirty[newcomer.name] == "new"
        assert newcomer.name in report.regenerated

    def test_deleted_device_is_retired(self, store, env, pop_cluster, generator):
        generator.generate_devices(store.all(Device))
        loner = store.create(
            NetworkSwitch,
            name="pop01.c01.psw9",
            hardware_profile=env.profiles["Switch_Vendor2"],
        )
        generator.regenerate_dirty()
        assert loner.name in generator.golden
        store.delete(loner)
        report = generator.regenerate_dirty()
        assert report.retired == ["pop01.c01.psw9"]
        assert loner.name not in generator.golden
        # An explicit device list never retires anything.
        report = generator.regenerate_dirty(store.all(Device))
        assert not report.retired

    def test_template_bump_dirties_only_that_vendor(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        change = generator.configerator.propose(
            "vendor1/system.tmpl",
            "# bumped\nhostname {{device.system.hostname}}\n",
            author="alice",
        )
        generator.configerator.approve(change.change_id, reviewer="bob")
        report = generator.regenerate_dirty()
        vendor1 = {
            name
            for name, config in generator.golden.items()
            if config.vendor == "vendor1"
        }
        assert set(report.regenerated) == vendor1
        assert all(reason == "template" for reason in report.dirty.values())
        assert golden_texts(generator) == full_regeneration(store, generator)

    def test_unrelated_change_regenerates_nothing(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        store.create(Region, name="antarctica")
        report = generator.regenerate_dirty()
        assert not report.regenerated

    def test_untracked_golden_is_conservatively_dirty(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        device = pop_cluster.devices["PR"][0]
        old = generator.golden[device.name]
        generator.adopt(
            type(old)(
                device_name=old.device_name,
                vendor=old.vendor,
                text=old.text,
                data=old.data,
                design_position=old.design_position,
                read_set=None,
            )
        )
        report = generator.regenerate_dirty()
        assert report.dirty[device.name] == "untracked"

    def test_obs_counters_account_every_device(
        self, store, env, pop_cluster, generator
    ):
        from repro import obs

        generator.generate_devices(store.all(Device))
        device = pop_cluster.devices["PR"][0]
        store.update(device, drain_state=DrainState.DRAINING)
        report = generator.regenerate_dirty()
        assert obs.counter("configgen.dirty").value == len(report.dirty)
        assert obs.counter("configgen.skipped").value == len(report.skipped)
        assert obs.counter("configgen.regenerated").value == len(
            report.regenerated
        )
        assert report.devices_total == len(store.all(Device))

    def test_subscribers_hear_about_regenerations(
        self, store, env, pop_cluster, generator
    ):
        batches = []
        generator.subscribe(batches.append)
        generator.generate_devices(store.all(Device))
        device = pop_cluster.devices["PR"][0]
        store.update(device, drain_state=DrainState.DRAINING)
        generator.regenerate_dirty()
        assert [c.device_name for c in batches[-1]] == [device.name]
        # A clean pass announces nothing.
        count = len(batches)
        generator.regenerate_dirty()
        assert len(batches) == count


class TestJournalFollowedOnce:
    """One cursor over the journal; a mark per invalidated device."""

    def test_records_scanned_sums_to_the_journal_delta(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        start = store.journal_position
        scanned = 0
        states = (DrainState.DRAINING, DrainState.DRAINED, DrainState.UNDRAINED)
        for round_no, device in enumerate(store.all(Device)[:4] * 2):
            store.update(device, drain_state=states[round_no % 3])
            store.create(Region, name=f"unrelated-{round_no}")
            report = generator.regenerate_dirty()
            assert device.name in report.regenerated
            scanned += report.records_scanned
        assert scanned == store.journal_position - start
        assert generator.regenerate_dirty().records_scanned == 0

    def test_subset_pass_leaves_other_marks_for_the_next_pass(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        first, second = pop_cluster.devices["PR"][:2]
        store.update(first, drain_state=DrainState.DRAINING)
        store.update(second, drain_state=DrainState.DRAINING)
        subset = generator.regenerate_dirty([first])
        assert set(subset.regenerated) == {first.name}
        # The cursor is past both records now; the second device's mark
        # is what carries its reason to the full pass.
        full = generator.regenerate_dirty()
        assert full.records_scanned == 0
        assert full.dirty == {second.name: f"PeeringRouter#{second.id} update"}
        assert golden_texts(generator) == full_regeneration(store, generator)

    def test_failed_batch_is_retried_with_the_same_reasons(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        before = dict(generator.golden)
        first, second = pop_cluster.devices["PR"][:2]
        with flight.change_context("drain a pair") as change:
            store.update(first, drain_state=DrainState.DRAINING)
            store.update(second, drain_state=DrainState.DRAINING)
        plan = FaultPlan(seed=7)
        plan.inject("configgen.render", device=second.name, times=1)
        with plan.installed(), pytest.raises(ConfigGenerationError):
            generator.regenerate_dirty()
        assert generator.golden == before
        retry = generator.regenerate_dirty()
        assert retry.records_scanned == 0
        assert retry.dirty == {
            first.name: f"PeeringRouter#{first.id} update",
            second.name: f"PeeringRouter#{second.id} update",
        }
        assert retry.origins == dict.fromkeys(retry.dirty, change.change_id)
        assert set(retry.regenerated) == set(retry.dirty)
        assert golden_texts(generator) == full_regeneration(store, generator)

    def test_golden_ahead_of_the_cursor_ignores_earlier_records(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        first, second = pop_cluster.devices["PR"][:2]
        store.update(first, drain_state=DrainState.DRAINING)
        store.update(second, drain_state=DrainState.DRAINING)
        # Regenerated directly, mid-journal: the cursor still sits before
        # both records, but the new golden already incorporates its own.
        fresh = generator.generate_devices([first])[first.name]
        assert fresh.design_position == store.journal_position
        report = generator.regenerate_dirty()
        assert report.records_scanned == 2
        assert set(report.dirty) == {second.name}
        assert generator.golden[first.name] is fresh

    def test_adopted_config_behind_the_cursor_answers_for_its_records(
        self, store, env, pop_cluster, generator
    ):
        generator.generate_devices(store.all(Device))
        device = pop_cluster.devices["PR"][0]
        old = generator.golden[device.name]
        store.update(device, drain_state=DrainState.DRAINING)
        generator.regenerate_dirty()
        generator.adopt(old)
        report = generator.regenerate_dirty()
        assert report.dirty == {device.name: f"PeeringRouter#{device.id} update"}
        assert golden_texts(generator) == full_regeneration(store, generator)


MUTATION_KINDS = 5


def apply_mutation(store, kind, pick, salt, step):
    """One randomized design mutation; returns a description for debugging."""
    if kind == 0:
        pifs = store.all(PhysicalInterface)
        pif = pifs[pick % len(pifs)]
        store.update(pif, description=f"hyp-{salt}")
        return f"pif {pif.name} description"
    if kind == 1:
        aggs = store.all(AggregatedInterface)
        agg = aggs[pick % len(aggs)]
        store.update(agg, mtu=(1500, 4200, 9000)[salt % 3])
        return f"agg {agg.name} mtu"
    if kind == 2:
        devices = store.all(Device)
        device = devices[pick % len(devices)]
        states = (DrainState.DRAINED, DrainState.UNDRAINED, DrainState.DRAINING)
        store.update(device, drain_state=states[salt % 3])
        return f"device {device.name} drain"
    if kind == 3:
        sessions = store.all(BgpV4Session)
        if not sessions:
            return "no bgp sessions"
        session = sessions[pick % len(sessions)]
        store.update(session, description=f"hyp-{salt}")
        return f"bgp {session.id} description"
    # An unrelated object: must dirty nothing.
    store.create(Region, name=f"hyp-{step}-{salt}")
    return "unrelated region"


class TestIncrementalEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(0, MUTATION_KINDS - 1),
                st.integers(0, 10_000),
                st.integers(0, 10_000),
            ),
            max_size=6,
        )
    )
    def test_incremental_equals_full(self, steps):
        """Incremental output is byte-identical to full regeneration."""
        store = ObjectStore()
        env = seed_environment(store)
        build_cluster(
            store, "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN1
        )
        generator = ConfigGenerator(store)
        generator.generate_devices(store.all(Device))
        for step, (kind, pick, salt) in enumerate(steps):
            apply_mutation(store, kind, pick, salt, step)
        generator.regenerate_dirty()
        assert golden_texts(generator) == full_regeneration(store, generator)
