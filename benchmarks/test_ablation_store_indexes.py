"""Ablation — what the store's query indexes buy (design choice).

DESIGN.md calls out two store design choices: the reverse/unique indexes
that serve FK- and unique-field equality queries in O(1), and journal-
undo transactions.  Template materialization is the workload the paper
cares about ("tens of thousands of FBNet objects within minutes"); this
ablation builds the same clusters with the planner on and with it patched
to answer "no index covers this", and counts what the indexes are *for*:
the rows a filter has to look at.  That count repeats exactly, so it is
what is asserted; the wall-time ratio is reported beside it and not gated —
it fell from 2.7x to 1.2x when a scanned row became one closure call
(PR 22), which is the scan getting cheaper, not the indexes getting worse.
"""

import time

from conftest import publish_report

from repro import ObjectStore, seed_environment
from repro.common.util import format_table
from repro.design.cluster import build_cluster
from repro.fbnet import store as store_module
from repro.fbnet.base import model_registry
from repro.fbnet.models import ClusterGeneration
from repro.fbnet.query import plan

CLUSTERS = 8


def build(clusters: int, indexed: bool, monkeypatch) -> dict:
    """Materialize ``clusters`` clusters; the filters made, the scans among
    them (``store.planner.scan``) and the rows they had to examine."""
    store = ObjectStore()
    tally = {"filters": 0, "scans": 0, "rows": 0}

    def counting_plan(store, model, query):
        # The store's one planner hook: ``None`` forces the scan.
        candidates = plan(store, model, query) if indexed else None
        tally["filters"] += 1
        if candidates is None:
            tally["scans"] += 1
            tally["rows"] += sum(
                len(store._tables.get(concrete.__name__, ()))
                for concrete in model_registry.family(model)
            )
        else:
            tally["rows"] += sum(map(len, candidates.values()))
        return candidates

    monkeypatch.setattr(store_module, "plan", counting_plan)
    env = seed_environment(store, datacenter_count=max(1, clusters))
    started = time.perf_counter()
    for index in range(clusters):
        build_cluster(
            store,
            f"dc01.abl{index}",
            env.datacenters["dc01"],
            ClusterGeneration.DC_GEN2,
        )
    tally["seconds"] = time.perf_counter() - started
    tally["objects"] = store.total_objects()
    return tally


def test_ablation_indexed_queries(benchmark, monkeypatch):
    indexed = benchmark.pedantic(
        lambda: build(CLUSTERS, indexed=True, monkeypatch=monkeypatch),
        rounds=1,
        iterations=1,
    )
    scanning = build(CLUSTERS, indexed=False, monkeypatch=monkeypatch)

    def per_filter(tally: dict) -> float:
        return tally["rows"] / tally["filters"]

    rows = [
        (
            label,
            f"{tally['filters']:,}",
            f"{tally['scans']:,}",
            f"{tally['rows']:,}",
            f"{per_filter(tally):,.1f}",
            f"{tally['seconds']:.2f}s",
        )
        for label, tally in (
            ("indexed (shipping default)", indexed),
            ("full-scan filters (ablated)", scanning),
        )
    ]
    report = [
        "Ablation: reverse/unique-index query fast path",
        f"(workload: materialize {CLUSTERS} DC Gen2 clusters, ~1,000 objects each)",
        "",
        format_table(
            ("configuration", "filters", "scans", "rows examined", "rows/filter", "wall time"),
            rows,
        ),
        "",
        f"rows examined: {scanning['rows'] / indexed['rows']:,.0f}x fewer with the indexes"
        f" (asserted; the count repeats exactly)",
        f"wall time: {scanning['seconds'] / indexed['seconds']:.1f}x (reported, not gated)",
        "",
        "The indexes keep bulk materialization near-linear; without them",
        "every FK/unique equality filter rescans the growing tables.",
    ]
    publish_report("ablation_store_indexes", "\n".join(report))

    # Same build either way; every filter it makes is answered by an index,
    # and the indexes spare the filters their rows (46x at PR 23).
    assert indexed["objects"] == scanning["objects"]
    assert indexed["filters"] == scanning["filters"] == scanning["scans"]
    assert indexed["scans"] == 0
    assert scanning["rows"] >= 10 * indexed["rows"]
