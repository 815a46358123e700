"""The read front door: cached replica dispatch with precise invalidation.

A POP cluster's store serves a burst of dashboard reads twice — once
through a plain read replica, once through a caching one — then a design
mutation lands and the cache evicts exactly the entries whose dependency
sets the change journal says it touched.  Every cached answer is
byte-compared against a fresh uncached read along the way.  The reads
draw from the four request kinds of the layer ledger's ``frontdoor``
mix (``benchmarks/ledger/inputs.py``).

Run:  python examples/read_frontdoor.py
"""

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Robotron, seed_environment
from repro.fbnet.models import ClusterGeneration, Device, DrainState
from repro.fbnet.query import Expr, Op
from repro.fbnet.rpc import ReadCache, RpcRequest, RpcResponse, ServiceReplica

REQUESTS = 600


def draw_requests(store, count: int, rng: random.Random) -> list[dict]:
    """``get`` specs: device pages 45%, a device's linecards 25%, a site's
    devices 20% (a prefix scan), the drain-state tile 10% (a scan)."""
    devices = [(device.name, device.id) for device in store.all(Device)]
    specs = []
    for kind in rng.choices(("page", "linecards", "site", "drain"), (45, 25, 20, 10), k=count):
        name, device_id = rng.choice(devices)
        model, fields, query = {
            "page": ("Device", ["name", "status", "drain_state", "hardware_profile.name"],
                     Expr("name", Op.EQUAL, name)),
            "linecards": ("Linecard", ["slot"], Expr("device", Op.EQUAL, device_id)),
            "site": ("Device", ["name", "status"],
                     Expr("name", Op.STARTSWITH, name.split(".")[0] + ".")),
            "drain": ("Device", ["name"],
                      Expr("drain_state", Op.EQUAL, rng.choice(list(DrainState)).value)),
        }[kind]
        specs.append({"model": model, "fields": fields, "query": query.to_wire()})
    return specs


def ask(replica: ServiceReplica, spec: dict) -> list:
    wire = RpcRequest(service="read", method="get", args=spec).to_wire()
    return RpcResponse.from_wire(replica.handle(wire)).result()


def drive(replica: ServiceReplica, specs) -> float:
    started = time.perf_counter()
    for spec in specs:
        ask(replica, spec)
    return time.perf_counter() - started


def main() -> None:
    robotron = Robotron()
    env = seed_environment(robotron.store)
    cluster = robotron.build_cluster(
        "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2,
    )
    print(f"built {len(cluster.all_devices())} devices in pop01.c01")

    store = robotron.store
    cache = ReadCache(store, name="frontdoor")
    cached = ServiceReplica("cached-0", "na-east", "read", store, cache=cache)
    plain = ServiceReplica("plain-0", "na-east", "read", store)

    # The same seeded stream — device pages, linecard lookups, site
    # scans, drain dashboards — through both replicas.
    rng = random.Random(1337)
    specs = draw_requests(store, REQUESTS, rng)
    uncached_seconds = drive(plain, specs)
    cached_seconds = drive(cached, specs)
    stats = cache.stats()
    print(f"\n{REQUESTS} reads, uncached: {uncached_seconds * 1000:.0f}ms"
          f" ({REQUESTS / uncached_seconds:,.0f} qps)")
    print(f"{REQUESTS} reads, cached:   {cached_seconds * 1000:.0f}ms"
          f" ({REQUESTS / cached_seconds:,.0f} qps,"
          f" {stats['hits']:.0f} hits / {stats['misses']:.0f} misses,"
          f" speedup {uncached_seconds / cached_seconds:.1f}x)")

    # A mutation lands: the journal maps it onto exactly the entries
    # whose read-sets it touches — no TTLs, no flush.
    router = cluster.devices["PR"][0]
    entries_before = stats["entries"]
    store.update(router, drain_state=DrainState.DRAINING)
    ask(cached, specs[0])  # any lookup advances the journal cursor
    stats = cache.stats()
    print(f"\ndrained {router.name}: {stats['invalidations']:.0f} of"
          f" {entries_before:.0f} entries invalidated, the rest still hot")

    # Zero stale serves: re-ask everything both ways and compare.
    mismatches = sum(
        json.dumps(ask(cached, spec), sort_keys=True)
        != json.dumps(ask(plain, spec), sort_keys=True)
        for spec in specs
    )
    print(f"re-read all {REQUESTS} requests after the drain:"
          f" {mismatches} mismatches vs the uncached replica")
    assert mismatches == 0

    # Batched multi-get: one wire round trip, deduplicated fills.
    batch = draw_requests(store, 16, rng)
    wire = RpcRequest(service="read", method="multi_get", args={"specs": batch}).to_wire()
    rows = RpcResponse.from_wire(cached.handle(wire)).result()
    print(f"\nmulti-get batch of {len(batch)} specs ->"
          f" {sum(len(r) for r in rows)} rows in one round trip")


if __name__ == "__main__":
    main()
