"""Property: under any read/mutation interleaving, cache == fresh store.

Hypothesis drives randomized interleavings of reads (point lookups,
scans, counts, multi-get batches, and a two-model shape whose answer
moves when a row it only *traverses* is renamed) and mutations (create /
update / delete) against one store; every cache-served answer must equal
a fresh uncached read taken at the same instant, and unrelated entries
must survive (asserted via the hit counter, not just payloads).  Every
read is asked a second time over the wire — in the client's spelling or
a reordered one — where a cached replica must answer the very bytes an
uncached replica over the same store does, and the whole history must
leave the hit / miss / invalidation counts the cache kept before it held
bytes (:class:`ParentAccounting`).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fbnet.api import ReadApi
from repro.fbnet.models import NetworkDomain, Pop, Region
from repro.fbnet.query import And, Expr, Op, Query
from repro.fbnet.changelog import ReadSet
from repro.fbnet.rpc import ReadCache, RpcRequest, RpcResponse, ServiceReplica
from repro.fbnet.store import ObjectStore
from tests.rpc.conftest import respelled

pytestmark = pytest.mark.rpc

#: The object universe: a handful of names so reads and mutations collide.
NAMES = ["r0", "r1", "r2", "r3"]

read_op = st.tuples(
    st.just("read"),
    st.sampled_from(NAMES + [None]),  # None = full scan
)
#: Every region is created with one Pop.  This asks for the pops of the
#: region last *created* under a name, while it still carries that name:
#: an index-narrowed ``And`` with a dotted sibling, so a rename of the
#: region — a record of a model the query only traverses — empties it.
pops_op = st.tuples(st.just("pops"), st.sampled_from(NAMES))
count_op = st.tuples(st.just("count"), st.sampled_from(NAMES))
batch_op = st.tuples(
    st.just("batch"),
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=6),
)
create_op = st.tuples(st.just("create"), st.sampled_from(NAMES))
rename_op = st.tuples(st.just("rename"), st.sampled_from(NAMES), st.sampled_from(NAMES))
delete_op = st.tuples(st.just("delete"), st.sampled_from(NAMES))

ops = st.lists(
    st.one_of(read_op, pops_op, count_op, batch_op, create_op, rename_op, delete_op),
    min_size=1,
    max_size=40,
)


def _query(name: str | None) -> dict | None:
    return Expr("name", Op.EQUAL, name).to_wire() if name is not None else None


SPEC = ("model", "fields", "query")


class ParentAccounting:
    """What the cache counted while it held decoded payloads under a JSON
    string: one entry per question, the read-set of its own fill, evicted
    by ``ReadSet.matches`` (the reference predicate) record by record."""

    def __init__(self, store: ObjectStore):
        self.store, self.api = store, ReadApi(store)
        self.position = store.journal_position
        self.entries: dict[str, ReadSet] = {}
        self.counts = {"hits": 0, "misses": 0, "invalidations": 0}

    def ask(self, method: str, specs: list[tuple]) -> None:
        """One request: a ``get`` / ``count``, or a ``get`` batch."""
        for record in self.store.journal_since(self.position):
            stale = [k for k, held in self.entries.items() if held.matches(record)]
            for key in stale:
                del self.entries[key]
            self.counts["invalidations"] += len(stale)
        self.position = self.store.journal_position
        keys = [json.dumps([method, *spec], sort_keys=True) for spec in specs]
        for key in keys:  # classified up front, one count per occurrence
            self.counts["hits" if key in self.entries else "misses"] += 1
        for key, (model, fields, query) in zip(keys, specs):
            if key not in self.entries:
                read_set = ReadSet()
                with self.store.track_reads(read_set):
                    if method == "count":
                        self.api.count(model, Query.from_wire(query))
                    else:
                        self.api.get(model, fields, Query.from_wire(query))
                self.entries[key] = read_set


class TestCacheEquivalenceProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(script=ops)
    # The shortest script a read-set without the traversed models fails.
    @example([("create", "r0"), ("pops", "r0"), ("rename", "r0", "r1"), ("pops", "r0")])
    def test_cache_always_equals_fresh_store(self, script):
        obs.reset()
        store = ObjectStore()
        api = ReadApi(store)
        cache = ReadCache(store)
        cached = ServiceReplica("cached", "na", "read", store, cache=cache)
        uncached = ServiceReplica("uncached", "na", "read", store)
        parent = ParentAccounting(store)
        live: dict[str, list] = {name: [] for name in NAMES}
        born: dict[str, int] = {}  # name -> id of the region last created under it
        serial = asked = 0

        def ask(method: str, specs: list[tuple]):
            """One request, in-process and then over the wire; its answer."""
            nonlocal asked
            asked += 1
            if method == "multi_get":
                answer = cache.multi_get(specs)
                args: dict = {"specs": [dict(zip(SPEC, spec)) for spec in specs]}
            else:
                [(model, fields, wire)] = specs
                args = dict(zip(SPEC, specs[0]))
                if method == "count":
                    del args["fields"]
                    answer = cache.count(model, wire)
                else:
                    answer = cache.get(model, fields, wire)
            request = RpcRequest("read", method, args)
            request = respelled(request) if asked % 3 == 0 else request.to_wire()
            served = cached.handle(request)
            assert served == uncached.handle(request)
            assert RpcResponse.from_wire(served).result() == answer
            for _ in range(2):  # the cache was asked twice
                parent.ask("count" if method == "count" else "get", specs)
            return answer

        for op in script:
            kind = op[0]
            if kind == "read":
                wire = _query(op[1])
                assert ask("get", [("Region", ["name"], wire)]) == api.get(
                    "Region", ("name",), Query.from_wire(wire)
                )
            elif kind == "pops":
                wire = And(
                    Expr("region", Op.EQUAL, born.get(op[1], 0)),
                    Expr("region.name", Op.STARTSWITH, f"{op[1]}-"),
                ).to_wire()
                assert ask("get", [("Pop", ["name"], wire)]) == api.get(
                    "Pop", ("name",), Query.from_wire(wire)
                )
            elif kind == "count":
                wire = _query(op[1])
                assert ask("count", [("Region", None, wire)]) == store.count(
                    Region, Query.from_wire(wire)
                )
            elif kind == "batch":
                specs = [("Region", ["name"], _query(name)) for name in op[1]]
                assert ask("multi_get", specs) == [
                    api.get("Region", ("name",), Query.from_wire(_query(name)))
                    for name in op[1]
                ]
            elif kind == "create":
                # Unique index: suffix a serial so creates never collide,
                # while the *queried* name prefix stays in the hot set.
                serial += 1
                obj = store.create(Region, name=f"{op[1]}-{serial}")
                store.create(
                    Pop, name=f"p{serial}", region=obj, domain=NetworkDomain.POP
                )
                live[op[1]].append(obj)
                born[op[1]] = obj.id
            elif kind == "rename":
                if live[op[1]]:
                    serial += 1
                    obj = live[op[1]].pop()
                    store.update(obj, name=f"{op[2]}-{serial}")
                    live[op[2]].append(obj)
            elif kind == "delete":
                if live[op[1]]:
                    region = live[op[1]].pop()
                    for pop in region.pops:  # PROTECT: the pops go first
                        store.delete(pop)
                    store.delete(region)
        stats = cache.stats()
        assert {event: stats[event] for event in parent.counts} == parent.counts
        assert stats["stale_evictions"] == 0

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        hot=st.sampled_from(NAMES),
        cold=st.sampled_from(NAMES),
        repeats=st.integers(min_value=2, max_value=5),
    )
    def test_unmutated_entries_keep_serving_hits(self, hot, cold, repeats):
        obs.reset()
        store = ObjectStore()
        for name in NAMES:
            store.create(Region, name=name)
        cache = ReadCache(store)
        hot_query = _query(hot)
        cold_query = _query(cold)
        cache.get("Region", ["name"], hot_query)
        cache.get("Region", ["name"], cold_query)
        misses = cache.stats()["misses"]
        for _ in range(repeats):
            cache.get("Region", ["name"], hot_query)
            cache.get("Region", ["name"], cold_query)
        stats = cache.stats()
        # Nothing mutated: every further read is a hit, no refills.
        assert stats["misses"] == misses
        assert stats["invalidations"] == 0
        expected_hits = repeats * 2 if hot != cold else repeats * 2 + 1
        assert stats["hits"] == expected_hits
