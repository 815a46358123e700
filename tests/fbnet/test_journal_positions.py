"""Journal-position semantics: rollback, replica promotion, staleness.

The incremental pipeline anchors everything at journal positions, so the
corner cases matter: rolled-back transactions must leave no trace in the
journal, and a config "generated at position P" must read as stale on a
store whose journal is *shorter* than P (a replica promoted after losing
the asynchronous tail).
"""

import pytest

from repro.configgen.generator import ConfigGenerator, DeviceConfig
from repro.fbnet.models import Region
from repro.fbnet.replication import ReplicatedFBNet
from repro.simulation.clock import EventScheduler

pytestmark = pytest.mark.incremental

REGIONS = ["na-east", "na-west", "eu-central"]


class TestJournalAfterRollback:
    def test_rolled_back_transaction_journals_nothing(self, store):
        region = store.create(Region, name="r1")
        position = store.journal_position
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.update(region, name="r1-doomed")
                store.create(Region, name="r2-doomed")
                raise RuntimeError("abort")
        assert store.journal_position == position
        assert store.journal_since(position) == []
        # The store state matches the journal's story.
        assert store.get(Region, region.id).name == "r1"
        assert store.count(Region) == 1

    def test_positions_continue_after_rollback(self, store):
        region = store.create(Region, name="r1")
        position = store.journal_position
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.update(region, name="doomed")
                raise RuntimeError("abort")
        store.update(region, name="r1-committed")
        records = store.journal_since(position)
        assert len(records) == 1
        assert records[0].values["name"] == "r1-committed"
        assert store.journal_position == position + 1

    def test_read_set_unaffected_by_rolled_back_records(self, store):
        """A reader anchored before a rollback sees an empty delta."""
        region = store.create(Region, name="r1")
        with store.track_reads() as reads:
            store.get(Region, region.id)
        position = store.journal_position
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.update(region, name="doomed")
                raise RuntimeError("abort")
        assert not any(map(reads.matches, store.journal_since(position)))


class TestStalenessAcrossPromotion:
    @pytest.fixture
    def cluster(self):
        return ReplicatedFBNet(
            REGIONS, "na-east", EventScheduler(), replication_lag=0.5
        )

    def test_promotion_loses_tail_and_configs_read_stale(self, cluster):
        client = cluster.client("na-east")
        client.create_objects([("Region", {"name": f"r{i}"}) for i in range(5)])
        master_store = cluster.master.store
        generated_at = master_store.journal_position
        assert generated_at == 5
        config = DeviceConfig(
            device_name="d1", vendor="vendor1", text="x\n",
            design_position=generated_at,
        )
        assert not ConfigGenerator(master_store).is_stale(config)

        # Master dies before the async tail ships (scheduler never ran).
        cluster.fail_master()
        promoted = cluster.promote_nearest()
        new_store = cluster.master.store
        assert promoted != "na-east"
        assert new_store.journal_position < generated_at

        # The config claims a design position the new master never saw —
        # it must read as stale, not as "from the future, trust it".
        assert ConfigGenerator(new_store).is_stale(config)

    def test_behind_is_still_stale(self, cluster):
        client = cluster.client("na-east")
        client.create_objects([("Region", {"name": "r1"})])
        store = cluster.master.store
        config = DeviceConfig(
            device_name="d1", vendor="vendor1", text="x\n",
            design_position=store.journal_position,
        )
        client.create_objects([("Region", {"name": "r2"})])
        assert ConfigGenerator(store).is_stale(config)

    def test_caught_up_tail_is_not_lost(self, cluster):
        client = cluster.client("na-east")
        client.create_objects([("Region", {"name": f"r{i}"}) for i in range(5)])
        position = cluster.master.store.journal_position
        cluster.scheduler.run_for(1.0)  # replication catches up fully
        cluster.fail_master()
        cluster.promote_nearest()
        assert cluster.master.store.journal_position == position
        config = DeviceConfig(
            device_name="d1", vendor="vendor1", text="x\n",
            design_position=position,
        )
        assert not ConfigGenerator(cluster.master.store).is_stale(config)
