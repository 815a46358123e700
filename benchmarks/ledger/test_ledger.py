"""Fast checks of the ledger's own machinery — no fleet is built.

    python3 -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
from layers import ENTRIES  # noqa: E402
from spans import Entry, Span, Tracer, reduce_spans, resolve  # noqa: E402


# -- the reducer ---------------------------------------------------------------


def test_reducer_self_time_with_folded_leaves():
    spans = [
        Span(0, None, None, "provision", 0.0, 10.0),
        Span(1, 0, None, "op", 1.0, 9.0, op="dc01"),
        Span(2, 1, "configgen.derive", "derive_device_data", 2.0, 8.0, op="dc01"),
        Span(3, 2, "fbnet.sharding", "ShardedObjectStore.filter", 3.0, 7.0, op="dc01"),
        # 1000 store.get calls folded into one span: 2.5s busy inside a
        # 3.5s window; the gaps belong to the filter above it.
        Span(4, 3, "fbnet.store.read", "ObjectStore.get", 3.2, 6.7, calls=1000, busy=2.5, op="dc01"),
    ]
    ledger = reduce_spans(spans)
    assert ledger.total_s == pytest.approx(10.0)
    assert ledger.busy["fbnet.store.read"] == pytest.approx(2.5)
    assert ledger.busy["fbnet.sharding"] == pytest.approx(4.0 - 2.5)
    assert ledger.busy["configgen.derive"] == pytest.approx(6.0 - 4.0)
    # phase (10 - 8) + op (8 - 6): benchmark-side time nothing covers
    assert ledger.unattributed_s == pytest.approx(4.0)
    assert ledger.calls["fbnet.store.read"] == 1000
    assert sum(ledger.busy.values()) + ledger.unattributed_s == pytest.approx(10.0)
    # edges name the nearest caller of another layer
    assert ledger.edges[("fbnet.sharding", "fbnet.store.read")] == [pytest.approx(2.5), 1000]
    assert ledger.edges[("", "configgen.derive")][1] == 1
    # per phase and per op
    assert ledger.phases["provision"]["fbnet.store.read"] == pytest.approx(2.5)
    [(op, seconds, layers)] = ledger.slowest_ops()
    assert (op, seconds) == ("dc01", pytest.approx(8.0))
    assert layers["fbnet.sharding"] == pytest.approx(1.5)


def test_reducer_same_layer_nesting_keeps_the_outer_caller():
    spans = [
        Span(0, None, None, "build", 0.0, 4.0),
        Span(1, 0, "design", "build_fleet", 0.0, 4.0),
        Span(2, 1, "design", "build_cluster", 1.0, 3.0),
        Span(3, 2, "design.ipam", "IpAllocator.allocate_subnet", 1.5, 2.5),
    ]
    ledger = reduce_spans(spans)
    assert ledger.busy["design"] == pytest.approx(3.0)
    assert ledger.edges[("design", "design.ipam")][0] == pytest.approx(1.0)
    assert ("design", "design") not in ledger.edges


def test_reducer_drops_calls_outside_any_phase():
    spans = [
        Span(0, None, None, "ops", 0.0, 1.0),
        Span(1, 0, "fbnet.rpc", "ServiceReplica.handle", 0.1, 0.9),
        # the benchmark re-asking an uncached replica between phases
        Span(2, None, "fbnet.rpc", "ServiceReplica.handle", 1.0, 3.0),
        Span(3, 2, "fbnet.api", "ReadApi.get", 1.1, 2.9),
    ]
    ledger = reduce_spans(spans)
    assert ledger.total_s == pytest.approx(1.0)
    assert ledger.busy["fbnet.rpc"] == pytest.approx(0.8)
    assert "fbnet.api" not in ledger.busy


def test_reducer_refuses_a_ledger_that_does_not_add_up():
    spans = [
        Span(0, None, None, "ops", 0.0, 1.0),
        Span(1, 0, "fbnet.rpc", "ServiceReplica.handle", 0.0, 1.0, busy=2.0),
    ]
    with pytest.raises(AssertionError, match="explains"):
        reduce_spans(spans)


# -- the tracer ------------------------------------------------------------------


def test_tracer_folds_consecutive_leaf_calls_and_feeds_the_reducer():
    tracer = Tracer()
    leaf = tracer._wrap(lambda: None, Entry("fbnet.store.read", "m:Store.get"))
    other = tracer._wrap(lambda: None, Entry("fbnet.store.read", "m:Store.count"))
    scan = tracer._wrap(
        lambda: [leaf() for _ in range(50)] + [other()] + [leaf(), leaf()],
        Entry("fbnet.sharding", "m:Router.filter", measure="rows"),
    )
    with tracer.span(None, "ops"):
        with tracer.span(None, "op", op=7):
            scan()
    scan()  # outside any phase: recorded, but dropped by the reducer
    spans = tracer.drain()
    assert tracer.spans == []
    folded = sorted(s.calls for s in spans if s.name == "Store.get" and s.op == 7)
    assert folded == [2, 50]
    assert tracer.counters["rows"] == 53  # measured under the phase only
    ledger = reduce_spans(spans)
    assert ledger.calls["fbnet.store.read"] == 53
    assert ledger.calls["fbnet.sharding"] == 1
    assert ledger.ops[7][1]["fbnet.store.read"] > 0


def test_tracer_records_spans_of_calls_that_raise():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer._wrap(boom, Entry("design", "m:boom"))
    with tracer.span(None, "build"):
        with pytest.raises(KeyError):
            wrapped()
    ledger = reduce_spans(tracer.drain())
    assert ledger.calls["design"] == 1


# -- the layer table ---------------------------------------------------------------


def test_every_layer_symbol_resolves_and_is_public():
    assert {entry.layer for entry in ENTRIES} == set(spec.LAYERS)
    assert len({entry.target for entry in ENTRIES}) == len(ENTRIES)
    for entry in ENTRIES:
        _holder, attr, raw = resolve(entry)
        assert not attr.startswith("_") or attr == "__call__", entry.target
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        assert callable(fn), entry.target


def test_wrapping_and_unwrapping_restores_every_symbol():
    before = [(entry, resolve(entry)[2]) for entry in ENTRIES]
    tracer = Tracer()
    tracer.install(ENTRIES)
    try:
        for entry, raw in before:
            patched = resolve(entry)[2]
            assert patched is not raw, entry.target
            fn = patched.__func__ if isinstance(patched, (classmethod, staticmethod)) else patched
            assert callable(fn)
        # a wrapped entry point still works, and is traced
        from repro.fbnet.rpc import decode_message, encode_message

        with tracer.span(None, "ops"):
            assert decode_message(encode_message({"a": 1})) == {"a": 1}
        assert reduce_spans(tracer.drain()).calls["fbnet.rpc"] == 2
    finally:
        tracer.uninstall()
    for entry, raw in before:
        assert resolve(entry)[2] is raw, entry.target
    # so a second workload in the same process runs untraced
    from repro.fbnet.rpc import decode_message, encode_message

    assert decode_message(encode_message({"a": 1})) == {"a": 1}
    assert tracer.spans == []


# -- statistics ----------------------------------------------------------------------


def test_percentile_refuses_a_tail_without_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 201)]
    assert stats.percentile(samples, 50) == 100.5
    assert stats.percentile(samples, 95) == 190.0
    with pytest.raises(ValueError, match="p99 needs 1000"):
        stats.percentile(samples, 99)
    with pytest.raises(ValueError, match="p95 needs 200"):
        stats.percentile(samples[:199], 95)
    assert stats.percentile([3.0, 1.0], 50) == 2.0  # the median is always allowed
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    assert [stats.samples_needed(p) for p in (50, 90, 95, 99)] == [1, 100, 200, 1000]


@pytest.mark.parametrize("size", sorted(inputs.SIZES))
def test_every_workload_can_support_the_percentiles_it_names(size):
    sizing = inputs.SIZES[size]
    reads = sizing["frontdoor"]["ops"]
    floor = {
        "turnup": 1,
        "churn": sizing["churn"]["changes"],
        "monitor": inputs.MONITOR_TICKS,
        "frontdoor": reads - reads // inputs.WRITE_EVERY,
    }
    for workload, names in spec.OP_PERCENTILES.items():
        for pct in names.values():
            # one round already holds enough samples
            assert stats.samples_needed(pct) <= floor[workload], (workload, pct)


def test_two_names_for_one_percentile_are_judged_once():
    assert spec.alias_of("turnup", "op_p50_ms") is None
    assert spec.alias_of("turnup", "op_p99_ms") == "op_p50_ms"
    assert spec.alias_of("churn", "op_p95_ms") is None
    assert spec.alias_of("churn", "op_p99_ms") == "op_p95_ms"
    assert spec.alias_of("frontdoor", "op_p99_ms") is None
    assert spec.alias_of("frontdoor", "wall_s") is None


def test_spread_is_the_interquartile_distance_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert stats.spread([5.0]) == 0.0


def test_a_round_keeps_raw_seconds_beside_the_reference_speed_ones():
    import clock
    from workloads import Round

    rnd = Round()
    with rnd.step("build", setup=True):
        sum(range(20_000))
    with rnd.step("ops"):
        sum(range(20_000))
    rnd.finish()
    assert rnd.raw_setup_s > 0 and rnd.raw_wall_s > 0
    assert set(rnd.phases) == {"build", "ops"}
    # reported = raw x a factor the clock really measured
    factors = [clock.REFERENCE_S / value for value in rnd.clock._values]
    for raw, reported in ((rnd.raw_setup_s, rnd.setup_s), (rnd.raw_wall_s, rnd.wall_s)):
        assert min(factors) * 0.999 <= reported / raw <= max(factors) * 1.001


# -- inputs ----------------------------------------------------------------------------


@pytest.mark.parametrize("size", sorted(inputs.SIZES))
@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_generators_are_deterministic_and_pinned(workload, size):
    generate = inputs.GENERATORS[workload]
    first = inputs.digest(generate(inputs.DEFAULT_SEED, 1.0, size))
    assert first == inputs.digest(generate(inputs.DEFAULT_SEED, 1.0, size))
    assert first == inputs.PINNED_INPUT_DIGESTS[size][workload]
    assert first != inputs.digest(generate(inputs.DEFAULT_SEED + 1, 1.0, size))


def test_seeds_change_the_order_of_work_not_its_amount():
    def kinds(stream):
        counts: dict[str, int] = {}
        for item in stream:
            counts[item[0]] = counts.get(item[0], 0) + 1
        return counts

    sizing = inputs.SIZES[inputs.DEFAULT_SIZE]
    a, b = inputs.churn(1), inputs.churn(2)
    assert kinds(a["changes"]) == kinds(b["changes"])
    assert sum(kinds(a["changes"]).values()) == sizing["churn"]["changes"]
    mix = inputs.syslog_mix(sizing["monitor"]["syslog"])
    for seed in (1, 2):
        stream = inputs.monitor(seed)["syslog"]
        assert kinds([[m[1]] for m in stream]) == mix
    assert sum(inputs.SYSLOG_RULES.values()) == 719 == len(inputs.syslog_rules())
    writes = kinds(inputs.frontdoor(1)["ops"])["write"]
    assert writes == sizing["frontdoor"]["ops"] // inputs.WRITE_EVERY


@pytest.mark.parametrize("size", sorted(inputs.SIZES))
def test_churn_follows_the_figures_it_cites(size):
    stream = inputs.churn(3, 1.0, size)
    changes, classes = stream["changes"], stream["classes"]
    total = len(changes)
    count = {kind: sum(1 for c in changes if c[0] == kind) for kind in inputs.CHURN_DIRTY}
    # Fig. 15: interfaces change most, then circuits, then devices.
    circuits = count["circuit"] + count["uncircuit"]
    assert count["interface"] > circuits > count["device"] > 0
    assert circuits / count["interface"] == pytest.approx(13.0 / 37.3, abs=0.01)
    assert count["create"] == round(inputs.CONTROL_SHARE * total)
    # Fig. 16: a backbone-class device changes 12.46 / 2.53 times as often.
    hits = {k: sum(1 for c in changes if c[0] == "interface" and c[1] == k) for k in classes}
    per_device = {k: hits[k] / classes[k] for k in classes}
    assert per_device["backbone"] / per_device["popdc"] == pytest.approx(12.46 / 2.53, rel=0.05)
    # a circuit is deleted only after it was added
    open_circuits = 0
    for kind, *_ in changes:
        open_circuits += {"circuit": 1, "uncircuit": -1}.get(kind, 0)
        assert open_circuits in (0, 1)


def test_scale_multiplies_op_counts_not_fleets():
    sizing = inputs.SIZES[inputs.DEFAULT_SIZE]
    assert len(inputs.churn(1, 0.5)["changes"]) == sizing["churn"]["changes"] // 2
    assert len(inputs.frontdoor(1, 0.5)["ops"]) == sizing["frontdoor"]["ops"] // 2
    assert inputs.churn(1, 0.5)["profile"] == inputs.churn(1)["profile"]


def test_the_issue_size_is_the_issues():
    devices = {
        workload: inputs.device_count(inputs.PROFILES[sizing["profile"]])
        for workload, sizing in inputs.SIZES["issue"].items()
    }
    assert devices == {"turnup": 396, "churn": 256, "monitor": 44, "frontdoor": 1014}


# -- the contract file and compare.py ------------------------------------------------------


def test_benchmark_json_is_spec_rendered():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == spec.benchmark_json()
    assert contract["paths"] == ["benchmarks/ledger"]
    assert 1 <= len(contract["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [v * 0.80 for v in steady], "higher", 0.10) == "worse"
    noisy = [80.0, 120.0, 95.0, 105.0, 100.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.10) == "ok"
    assert compare.verdict(noisy, [v * 2.0 for v in noisy], "lower", 0.10) == "worse"
    # a bound of 0: the number must repeat exactly
    assert compare.verdict([256.0] * 3, [256.0] * 3, "lower", 0.0) == "ok"
    assert compare.verdict([256.0] * 3, [257.0] * 3, "lower", 0.0) == "worse"
