"""ReadCache unit behavior: keying, hit/miss, precise invalidation."""

from __future__ import annotations

import pytest

from repro import obs
from repro.common.errors import RpcError
from repro.fbnet.api import ReadApi
from repro.fbnet.models import Linecard, NetworkSwitch, PeeringRouter, Region
from repro.fbnet.models.enums import DrainState
from repro.fbnet.query import And, Expr, Op
from repro.fbnet.rpc import (
    CachingReadService,
    ReadCache,
    RpcRequest,
    RpcResponse,
    ServiceReplica,
    decode_message,
)
from repro.fbnet.store import ObjectStore
from tests.rpc.conftest import respelled

pytestmark = pytest.mark.rpc


@pytest.fixture
def regions(store):
    return [store.create(Region, name=f"r{i}") for i in range(3)]


class TestHitMiss:
    def test_second_read_is_a_hit_with_identical_payload(self, store, regions):
        cache = ReadCache(store)
        query = Expr("name", Op.EQUAL, "r1")
        first = cache.get("Region", ["name"], query)
        second = cache.get("Region", ["name"], query)
        assert first == second == [{"id": regions[1].id, "name": "r1"}]
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_wire_and_live_query_share_one_entry(self, store, regions):
        cache = ReadCache(store)
        query = Expr("name", Op.EQUAL, "r1")
        cache.get("Region", ["name"], query)
        cache.get("Region", ["name"], query.to_wire())
        assert cache.stats() == {
            "hits": 1.0, "misses": 1.0, "invalidations": 0.0,
            "stale_evictions": 0.0, "entries": 1.0,
        }

    def test_however_the_args_are_spelled_they_share_one_entry(self, store, regions):
        cache = ReadCache(store)
        replica = ServiceReplica("r", "na-east", "read", store, cache=cache)
        query = Expr("name", Op.EQUAL, "r1")
        client_args = {"model": "Region", "fields": ["name"], "query": query.to_wire()}
        # The key of the in-process form is the client's args body, byte for byte.
        request = RpcRequest("read", "get", client_args)
        key = ReadCache.cache_key("get", "Region", ("name",), query.to_wire())
        assert request.to_wire().endswith(key) and not respelled(request).endswith(key)
        assert ReadCache.cache_key("count", "Region", None, None) == (
            b'{"model":"Region","query":null}'
        )
        answers = {replica.handle(request.to_wire()), replica.handle(respelled(request))}
        assert cache.get("Region", ["name"], query) == [{"id": regions[1].id, "name": "r1"}]
        assert len(answers) == 1
        # A defaulted key left out is the same question too.
        for args in ({"model": "Region"}, {"model": "Region", "query": None, "fields": None}):
            replica.handle(RpcRequest("read", "count", args).to_wire())
        assert cache.count("Region") == 3
        stats = cache.stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (2, 4, 2)

    def test_a_caller_cannot_corrupt_a_held_answer(self, store, regions):
        # Reproduced at PR 23: get/multi_get handed out the cached list itself.
        cache = ReadCache(store)
        fresh = ReadApi(store).get("Region", ("name",), None)
        answer = cache.get("Region", ["name"], None)
        answer[0]["name"] = "x"
        answer.append({"id": 99, "name": "intruder"})
        batch = cache.multi_get([("Region", ["name"], None)])
        batch[0].clear()
        assert cache.get("Region", ["name"], None) == fresh
        assert cache.multi_get([("Region", ["name"], None)]) == [fresh]
        assert cache.stats()["misses"] == 1

    def test_distinct_projections_are_distinct_entries(self, store, regions):
        cache = ReadCache(store)
        cache.get("Region", ["name"], None)
        cache.get("Region", None, None)
        assert cache.stats()["misses"] == 2
        assert len(cache) == 2

    def test_count_is_cached_too(self, store, regions):
        cache = ReadCache(store)
        assert cache.count("Region") == 3
        assert cache.count("Region") == 3
        assert cache.stats()["hits"] == 1
        store.create(Region, name="r9")
        assert cache.count("Region") == 4

    def test_counters_surface_in_obs_report(self, store, regions):
        cache = ReadCache(store, name="front")
        cache.get("Region", ["name"], None)
        cache.get("Region", ["name"], None)
        report = obs.report()
        assert "rpc.cache.hits" in report
        assert "rpc.cache.misses" in report
        assert "cache=front" in report


class TestInvalidation:
    def test_mutated_dependency_evicts_exactly_that_entry(self, store, env):
        profile = env.profiles["Switch_Vendor2"]
        psw1 = store.create(NetworkSwitch, name="psw1", hardware_profile=profile)
        store.create(NetworkSwitch, name="psw2", hardware_profile=profile)
        cache = ReadCache(store)
        hot = Expr("name", Op.EQUAL, "psw1")
        cold = Expr("name", Op.EQUAL, "psw2")
        first = cache.get("NetworkSwitch", ["name", "drain_state"], hot)
        cache.get("NetworkSwitch", ["name", "drain_state"], cold)
        store.update(psw1, drain_state=DrainState.UNDRAINED)
        refreshed = cache.get("NetworkSwitch", ["name", "drain_state"], hot)
        assert first[0]["drain_state"] == DrainState.DRAINED.value
        assert refreshed[0]["drain_state"] == DrainState.UNDRAINED.value
        # The psw2 entry survived: this read is a hit, not a refill.
        cache.get("NetworkSwitch", ["name", "drain_state"], cold)
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 3

    def test_changed_key_field_evicts_conservatively(self, store, regions):
        # Renaming r1 changes the `name` field itself, so *every* entry
        # keyed on a name equality may have matched the old value and is
        # evicted — the PR 4 superset guarantee.
        cache = ReadCache(store)
        cache.get("Region", ["name"], Expr("name", Op.EQUAL, "r1"))
        cache.get("Region", ["name"], Expr("name", Op.EQUAL, "r2"))
        store.update(regions[1], name="r1-renamed")
        assert cache.get("Region", ["name"], Expr("name", Op.EQUAL, "r1")) == []
        assert cache.stats()["invalidations"] == 2

    def test_unrelated_model_does_not_evict(self, store, env, regions):
        cache = ReadCache(store)
        query = Expr("name", Op.EQUAL, "r1")
        cache.get("Region", ["name"], query)
        store.create(
            NetworkSwitch, name="psw9", hardware_profile=env.profiles["Switch_Vendor2"]
        )
        cache.get("Region", ["name"], query)
        assert cache.stats()["invalidations"] == 0
        assert cache.stats()["hits"] == 1

    def test_scan_entry_evicted_by_matching_create(self, store, regions):
        cache = ReadCache(store)
        assert len(cache.get("Region", ["name"], None)) == 3
        store.create(Region, name="r3")
        assert len(cache.get("Region", ["name"], None)) == 4
        assert cache.stats()["invalidations"] == 1

    def test_family_dependency_concrete_mutation_evicts_abstract_scan(
        self, store, env
    ):
        device = store.create(
            NetworkSwitch,
            name="psw1",
            hardware_profile=env.profiles["Switch_Vendor2"],
        )
        cache = ReadCache(store)
        scan = Expr("drain_state", Op.EQUAL, DrainState.DRAINED.value)
        assert len(cache.get("Device", ["name"], scan)) == 1
        store.update(device, drain_state=DrainState.UNDRAINED)
        assert cache.get("Device", ["name"], scan) == []
        assert cache.stats()["invalidations"] == 1

    def test_traversed_row_evicts_an_and_narrowed_by_its_index(self, store, env):
        # An And stands on one analyzable child only for records of the
        # queried model: `device == id` bounds what a Linecard record can
        # do, but `device.name` changes with the *router*, whose rename
        # matches nothing in {Linecard.device in (id,)} — the read-set
        # must also hold the models the dotted path traverses.
        router = store.create(
            PeeringRouter, name="pr1",
            hardware_profile=env.profiles["Router_Vendor1"], pop=env.pops["pop01"],
        )
        lcm = env.profiles["Router_Vendor1"].related("linecard_model")
        card = store.create(Linecard, device=router, slot=1, linecard_model=lcm)
        query = And(
            Expr("device", Op.EQUAL, router.id), Expr("device.name", Op.EQUAL, "pr1")
        )
        cache = ReadCache(store)
        assert cache.get("Linecard", ["slot"], query) == [{"id": card.id, "slot": 1}]
        store.update(router, name="pr1-renamed")
        assert ReadApi(store).get("Linecard", ["slot"], query) == []
        assert cache.get("Linecard", ["slot"], query) == []
        assert cache.stats()["invalidations"] == 1
        # ... and the index-served shape with no dotted sibling still
        # depends on nothing but the linecards of that device.
        narrow = Expr("device", Op.EQUAL, router.id)
        cache.get("Linecard", ["slot"], narrow)
        store.update(router, name="pr1")
        cache.get("Linecard", ["slot"], narrow)
        assert cache.stats()["hits"] == 1

    def test_clear_drops_everything(self, store, regions):
        cache = ReadCache(store)
        cache.get("Region", ["name"], None)
        cache.clear()
        assert len(cache) == 0
        cache.get("Region", ["name"], None)
        assert cache.stats()["misses"] == 2


class TestStaleOnArrival:
    def test_fill_racing_a_commit_is_not_admitted(self, store, regions):
        cache = ReadCache(store)
        position = cache._follower.position
        body, read_set = cache._compute(
            "get", "Region", ("name",), Expr("name", Op.EQUAL, "r1").to_wire()
        )
        # A commit lands between the fill's position snapshot and its
        # admission — the answer may predate the mutation.
        store.update(regions[1], name="r1-racing")
        assert cache._admit(("get", b"some-key"), body, read_set, position) is False
        assert cache.stats()["stale_evictions"] == 1
        assert len(cache) == 0

    def test_serve_retries_and_returns_fresh_payload(self, store, regions):
        cache = ReadCache(store)
        query = Expr("name", Op.EQUAL, "r1")
        fresh = cache.get("Region", ["name"], query)
        assert fresh == ReadApi(store).get(
            "Region", ("name",), Expr("name", Op.EQUAL, "r1")
        )


class TestMultiGet:
    def test_duplicates_share_one_fill(self, store, regions):
        cache = ReadCache(store)
        spec = ("Region", ("name",), Expr("name", Op.EQUAL, "r1"))
        results = cache.multi_get([spec, spec, spec])
        assert results[0] == results[1] == results[2]
        stats = cache.stats()
        # Each occurrence counts a miss, but only one entry was filled.
        assert stats["misses"] == 3
        assert stats["entries"] == 1

    def test_mixed_hits_and_misses(self, store, regions):
        cache = ReadCache(store)
        warm = ("Region", ("name",), Expr("name", Op.EQUAL, "r0"))
        cache.get(*warm)
        results = cache.multi_get(
            [warm, ("Region", ("name",), Expr("name", Op.EQUAL, "r2"))]
        )
        assert results[0] == [{"id": regions[0].id, "name": "r0"}]
        assert results[1] == [{"id": regions[2].id, "name": "r2"}]
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 2

    def test_large_batch_fans_out_identically_to_serial(self, store, regions):
        from repro import parallel

        specs = [
            ("Region", ("name",), Expr("name", Op.EQUAL, f"r{i}").to_wire())
            for i in range(8)
        ]
        with parallel.workers(1):
            serial_cache = ReadCache(store, name="serial")
            serial = serial_cache.multi_get(specs)
            serial_stats = serial_cache.stats()
        with parallel.workers(4):
            pooled_cache = ReadCache(store, name="pooled")
            pooled = pooled_cache.multi_get(specs)
            pooled_stats = pooled_cache.stats()
        assert pooled == serial
        assert pooled_stats == serial_stats

    def test_results_come_back_in_request_order(self, store, regions):
        cache = ReadCache(store)
        specs = [
            ("Region", ("name",), Expr("name", Op.EQUAL, name).to_wire())
            for name in ("r2", "r0", "r1")
        ]
        results = cache.multi_get(specs)
        assert [rows[0]["name"] for rows in results] == ["r2", "r0", "r1"]


class TestServiceIntegration:
    def _request(self, method: str, args: dict) -> bytes:
        return RpcRequest(service="read", method=method, args=args).to_wire()

    def test_cached_replica_serves_wire_requests(self, store, regions):
        cache = ReadCache(store)
        replica = ServiceReplica("r-read-0", "na-east", "read", store, cache=cache)
        wire = self._request(
            "get",
            {"model": "Region", "fields": ["name"],
             "query": Expr("name", Op.EQUAL, "r1").to_wire()},
        )
        first = RpcResponse.from_wire(replica.handle(wire)).result()
        second = RpcResponse.from_wire(replica.handle(wire)).result()
        assert first == second == [{"id": regions[1].id, "name": "r1"}]
        assert cache.stats()["hits"] == 1

    def test_multi_get_over_the_wire_cached_and_uncached(self, store, regions):
        specs = [
            {"model": "Region", "fields": ["name"],
             "query": Expr("name", Op.EQUAL, "r0").to_wire()},
            {"model": "Region", "fields": ["name"], "query": None},
        ]
        plain = ServiceReplica("p", "na-east", "read", store)
        cached = ServiceReplica(
            "c", "na-east", "read", store, cache=ReadCache(store)
        )
        wire = self._request("multi_get", {"specs": specs})
        uncached = RpcResponse.from_wire(plain.handle(wire)).result()
        through_cache = RpcResponse.from_wire(cached.handle(wire)).result()
        assert through_cache == uncached

    def test_schema_passes_through_the_cache_service(self, store):
        service = CachingReadService(store)
        body = service.dispatch("schema", b"{}")
        assert decode_message(body) == ReadApi(store).schema()
        assert len(service.cache) == 0

    def test_cache_must_match_store(self, store):
        other = ObjectStore(name="other")
        with pytest.raises(RpcError):
            CachingReadService(store, ReadCache(other))

    def test_write_replica_rejects_cache(self, store):
        with pytest.raises(ValueError):
            ServiceReplica("w", "na-east", "write", store, cache=ReadCache(store))

    def test_retarget_rebuilds_the_cache_over_the_new_store(self, store, regions):
        cache = ReadCache(store, name="front")
        replica = ServiceReplica("r", "na-east", "read", store, cache=cache)
        other = ObjectStore(name="other")
        other.create(Region, name="elsewhere")
        replica.retarget(other)
        assert replica.cache is not cache
        assert replica.cache.store is other
        assert replica.cache.name == "front"
        wire = self._request("get", {"model": "Region", "fields": ["name"],
                                     "query": None})
        rows = RpcResponse.from_wire(replica.handle(wire)).result()
        assert [row["name"] for row in rows] == ["elsewhere"]
