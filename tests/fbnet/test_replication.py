"""Tests for multi-region replication and failover (paper section 4.3.3)."""

import pytest

from repro import obs
from repro.common.errors import ReplicaUnavailable, ReplicationError
from repro.faults import FaultPlan
from repro.fbnet.durability import store_digest
from repro.fbnet.query import Expr, Op
from repro.fbnet.replication import ReplicatedFBNet
from repro.fbnet.rpc import RpcRequest
from repro.simulation.clock import EventScheduler

from tests.faults.test_replication_machine import assert_serving_rule

REGIONS = ["na-east", "na-west", "eu-central"]


@pytest.fixture
def cluster():
    return ReplicatedFBNet(REGIONS, "na-east", EventScheduler(), replication_lag=0.5)


class TestBasics:
    def test_master_region_must_exist(self):
        with pytest.raises(ValueError):
            ReplicatedFBNet(REGIONS, "mars")

    def test_duplicate_regions_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedFBNet(["a", "a"], "a")

    def test_writes_forwarded_to_master(self, cluster):
        client = cluster.client("eu-central")
        client.create_objects([("Region", {"name": "rx"})])
        assert cluster.master.store.count.__self__.total_objects() == 1

    def test_unknown_client_region(self, cluster):
        with pytest.raises(ValueError):
            cluster.client("mars")


class TestAsyncReplication:
    def test_lag_before_visibility(self, cluster):
        client = cluster.client("na-west")
        client.create_objects([("Region", {"name": "rx"})])
        assert client.count("Region") == 0  # local replica hasn't caught up
        cluster.scheduler.run_for(1.0)
        assert client.count("Region") == 1

    def test_read_after_write_consistency(self, cluster):
        client = cluster.client("na-west")
        client.create_objects([("Region", {"name": "rx"})])
        # Master-region read replicas serve read-after-write clients.
        assert client.count("Region", consistency="read-after-write") == 1

    def test_measured_lag(self, cluster):
        client = cluster.client("na-west")
        client.create_objects([("Region", {"name": "rx"})])
        cluster.scheduler.clock.advance(0.3)
        assert cluster.measured_lag("na-west") == pytest.approx(0.3)
        cluster.scheduler.run_for(0.3)
        assert cluster.measured_lag("na-west") == 0.0

    def test_updates_and_deletes_replicate(self, cluster):
        client = cluster.client("na-east")
        (rid,) = client.create_objects([("Region", {"name": "rx"})])
        client.update_objects([("Region", rid, {"name": "ry"})])
        cluster.scheduler.run_for(1.0)
        west = cluster.client("na-west")
        rows = west.get("Region", fields=["name"])
        assert rows[0]["name"] == "ry"
        client.delete_objects([("Region", rid)])
        cluster.scheduler.run_for(1.0)
        assert west.count("Region") == 0


class TestReplicaFailure:
    def test_disabled_replica_reads_from_master(self, cluster):
        client = cluster.client("na-west")
        client.create_objects([("Region", {"name": "rx"})])
        cluster.disable_database("na-west")
        # Without waiting for replication, reads see master data.
        assert client.count("Region") == 1

    def test_recovery_resyncs_and_reattaches(self, cluster):
        client = cluster.client("na-west")
        client.create_objects([("Region", {"name": "rx"})])
        cluster.disable_database("na-west")
        client.create_objects([("Region", {"name": "ry"})])
        cluster.scheduler.run_for(1.0)  # batches arrive into the backlog
        cluster.recover_database("na-west")
        assert cluster.regions["na-west"].store.total_objects() == 2
        assert client.count("Region") == 2

    def test_high_lag_disables_replica(self):
        cluster = ReplicatedFBNet(
            REGIONS, "na-east", EventScheduler(), replication_lag=100.0, max_lag=30.0
        )
        client = cluster.client("na-east")
        client.create_objects([("Region", {"name": "rx"})])
        cluster.scheduler.clock.advance(31.0)
        disabled = cluster.check_health()
        assert set(disabled) == {"na-west", "eu-central"}
        assert not cluster.regions["na-west"].db_healthy


class TestServiceReplicaFailure:
    def test_redirect_within_region(self, cluster):
        client = cluster.client("na-west")
        cluster.regions["na-west"].read_replicas[0].crash()
        assert client.count("Region") == 0  # second local replica serves

    def test_redirect_to_neighbor_region(self, cluster):
        client = cluster.client("na-west")
        for replica in cluster.regions["na-west"].read_replicas:
            replica.crash()
        assert client.count("Region") == 0  # nearest live region serves

    def test_all_read_replicas_down(self, cluster):
        client = cluster.client("na-west")
        for region in cluster.regions.values():
            for replica in region.read_replicas:
                replica.crash()
        with pytest.raises(ReplicationError, match="no live"):
            client.count("Region")


class TestMasterFailover:
    def test_writes_fail_while_master_down(self, cluster):
        cluster.fail_master()
        client = cluster.client("na-west")
        with pytest.raises(ReplicationError):
            client.create_objects([("Region", {"name": "rx"})])

    def test_promote_nearest(self, cluster):
        client = cluster.client("na-east")
        client.create_objects([("Region", {"name": "rx"})])
        cluster.scheduler.run_for(1.0)
        cluster.fail_master()
        new_master = cluster.promote_nearest()
        assert new_master == "na-west"  # nearest by region order
        assert cluster.promotions[-1][1:] == ("na-east", "na-west")

    def test_writes_resume_after_promotion(self, cluster):
        client = cluster.client("eu-central")
        client.create_objects([("Region", {"name": "rx"})])
        cluster.scheduler.run_for(1.0)
        cluster.fail_master()
        cluster.promote_nearest()
        client.create_objects([("Region", {"name": "ry"})])
        cluster.scheduler.run_for(1.0)
        assert client.count("Region") == 2

    def test_new_master_ships_to_replicas(self, cluster):
        cluster.fail_master()
        cluster.promote_nearest()
        client = cluster.client("na-west")
        client.create_objects([("Region", {"name": "rz"})])
        cluster.scheduler.run_for(1.0)
        eu = cluster.regions["eu-central"].store
        assert eu.total_objects() == 1

    def test_old_master_rejoins_as_replica(self, cluster):
        client = cluster.client("na-east")
        client.create_objects([("Region", {"name": "rx"})])
        cluster.scheduler.run_for(1.0)
        cluster.fail_master()
        cluster.promote_nearest()
        client2 = cluster.client("na-west")
        client2.create_objects([("Region", {"name": "ry"})])
        cluster.rejoin_old_master("na-east")
        assert cluster.regions["na-east"].store.total_objects() == 2
        assert cluster.regions["na-east"].db_healthy

    def test_promotion_requires_healthy_replica(self, cluster):
        cluster.fail_master()
        cluster.regions["na-west"].db_healthy = False
        cluster.regions["eu-central"].db_healthy = False
        with pytest.raises(ReplicationError, match="no healthy replica"):
            cluster.promote_nearest()

    def test_in_flight_to_promoted_region_tail_loss(self, cluster):
        """Asynchronous replication can lose the in-flight tail on failover."""
        client = cluster.client("na-east")
        client.create_objects([("Region", {"name": "rx"})])
        # Master dies before the batch's lag elapses anywhere.
        cluster.fail_master()
        cluster.promote_nearest()
        cluster.scheduler.run_for(1.0)
        assert cluster.regions["na-west"].store.total_objects() == 0


def region_names(count, start=0):
    return [("Region", {"name": f"r{i}"}) for i in range(start, start + count)]


def counter_by_region(name):
    return {
        series.labels["region"]: series.value
        for series in obs.registry().series()
        if series.name == name
    }


class TestReplicationFollowsTheJournal:
    """Regressions: each of these histories went wrong silently before
    replication followed the master's journal from the replica's cursor."""

    @pytest.fixture
    def net(self):
        return ReplicatedFBNet(["a", "b", "c"], "a", replication_lag=0.5)

    def test_dead_masters_arrivals_are_dropped_not_applied(self, net):
        client = net.client("a")
        for spec in region_names(5):
            client.create_objects([spec])
        net.scheduler.run_for(1.0)
        for spec in region_names(3, start=5):  # still in flight when...
            client.create_objects([spec])
        net.fail_master()  # ...the master dies
        assert net.promote_nearest() == "b"
        net.scheduler.run_for(1.0)  # the dead master's arrivals land
        for spec in region_names(2, start=8):
            net.client("b").create_objects([spec])
        net.scheduler.run_for(2.0)
        master = net.master.store
        assert master.journal_position == 7  # r5..r7 died with the old master
        for region in net.regions.values():
            if region.db_healthy:
                assert store_digest(region.store) == store_digest(master), region.name
        assert counter_by_region("replication.stale_arrival") == {"b": 3, "c": 3}

    def test_a_store_promoted_twice_ships_once(self, net):
        for old in ("a", "b"):
            net.fail_master()
            net.promote_nearest()
            net.rejoin_old_master(old)
        assert net.master_region == "a"
        obs.reset()
        client = net.client("c")
        client.create_objects(region_names(1))
        client.create_objects(region_names(1, start=1))
        assert [len(net.regions[name].in_flight) for name in "bc"] == [2, 2]
        net.scheduler.run_for(1.0)
        assert counter_by_region("store.replication.batches") == {"b": 2, "c": 2}
        assert net.regions["c"].store.journal == net.master.store.journal

    @pytest.mark.parametrize("cache_reads", [False, True])
    def test_every_region_serves_what_the_rule_says_through_a_failover(
        self, cache_reads
    ):
        net = ReplicatedFBNet(
            ["a", "b", "c"], "a", replication_lag=0.5, cache_reads=cache_reads
        )
        net.client("a").create_objects(region_names(1))
        net.scheduler.run_for(1.0)
        net.disable_database("c")
        assert_serving_rule(net)
        net.fail_master()
        net.promote_nearest()
        assert_serving_rule(net)
        net.client("b").create_objects(region_names(1, start=1))
        # ``c`` was disabled before the promotion and ``a`` is the failed
        # ex-master: both redirect to the *new* master, not the dead store.
        assert net.client("c").count("Region") == 2
        assert net.client("a").count("Region") == 2
        net.rejoin_old_master("a")
        net.recover_database("c")
        assert_serving_rule(net)
        assert net.client("c").count("Region") == 2
        for region in net.regions.values():
            assert all((r.cache is not None) == cache_reads for r in region.read_replicas)


class TestRedirectClassification:
    """``rpc.redirect`` counts crashed replicas, not transient faults —
    decided by the replica's state, never by the error's wording."""

    def redirects(self):
        return sum(counter_by_region("rpc.redirect").values())

    def test_injected_rpc_fault_is_not_a_redirect(self, cluster):
        plan = FaultPlan(seed=1)
        plan.inject("rpc.call", service="read", times=1)
        with plan.installed():
            assert cluster.client("na-west").count("Region") == 0
        assert plan.injected_count("rpc.call") == 1
        assert self.redirects() == 0

    def test_crashed_replica_is_a_redirect_whatever_the_message_says(
        self, cluster, monkeypatch
    ):
        crashed, live = cluster.regions["na-west"].read_replicas
        crashed.crash()

        def refuse(wire):
            raise ReplicaUnavailable("connection refused")

        monkeypatch.setattr(crashed, "handle", refuse)
        # A replica that dies after the router listed its candidates.
        request = RpcRequest(service="read", method="count", args={"model": "Region"})
        assert cluster.client("na-west")._call(request, [crashed, live]) == 0
        assert self.redirects() == 1
