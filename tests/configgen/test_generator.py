"""Tests for derivation and the full config generation pipeline."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.errors import ConfigGenerationError
from repro.configgen import derive
from repro.configgen.configerator import Configerator
from repro.configgen.derive import derive_device_data, fetch_location_devices
from repro.configgen.generator import ConfigGenerator
from repro.configgen.schema import CONFIG_SCHEMA, SchemaRegistry
from repro.design.cluster import build_cluster
from repro.fbnet.models import (
    AggregatedInterface,
    ClusterGeneration,
    DrainState,
    Rack,
    RackProfile,
)
from repro.fbnet.query import Expr, Op


@pytest.fixture
def pop_cluster(store, env):
    return build_cluster(
        store, "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
    )


@pytest.fixture
def generator(store):
    return ConfigGenerator(store)


class TestDerivation:
    def test_fetch_location_devices(self, store, env, pop_cluster):
        devices = fetch_location_devices(store, env.pops["pop01"])
        assert len(devices) == 14  # 2 PR + 4 PSW + 8 TOR
        assert devices[0].name == "pop01.c01.pr1"

    def test_fetch_other_location_empty(self, store, env, pop_cluster):
        assert fetch_location_devices(store, env.pops["pop02"]) == []

    def test_device_data_schema_valid(self, store, env, pop_cluster):
        pr1 = pop_cluster.devices["PR"][0]
        data = derive_device_data(store, pr1)
        assert data["vendor"] == "vendor1"
        assert len(data["aggs"]) == 4  # one bundle per PSW
        assert all(len(agg["pifs"]) == 2 for agg in data["aggs"])

    def test_bgp_oriented_per_device(self, store, env, pop_cluster):
        """Both peers' configs derive from the same session objects."""
        pr1 = pop_cluster.devices["PR"][0]
        psw1 = pop_cluster.devices["PSW"][0]
        pr_data = derive_device_data(store, pr1)
        psw_data = derive_device_data(store, psw1)
        pr_neighbors = {n["peer_ip"] for n in pr_data["bgp"]["neighbors"]}
        psw_neighbors = {n["peer_ip"] for n in psw_data["bgp"]["neighbors"]}
        # The PSW's addresses appear as the PR's peers and vice versa.
        psw_locals = {n["local_ip"] for n in psw_data["bgp"]["neighbors"]}
        assert pr_neighbors & psw_locals
        assert pr_data["bgp"]["local_asn"] != psw_data["bgp"]["local_asn"]

    def test_device_without_bgp(self, store, env):
        cluster = build_cluster(
            store, "dc01.c01", env.datacenters["dc01"], ClusterGeneration.DC_GEN1
        )
        data = derive_device_data(store, cluster.devices["PSW"][0])
        assert data["bgp"] is None


class TestTheOneBoundary:
    def test_a_config_carries_what_the_reader_saw(self, store, env, pop_cluster, generator):
        """derive hands over what it built; the struct on a golden config is
        that, as the schema's one check shows it to the templates."""
        configs = generator.generate_location(env.pops["pop01"])
        for device in fetch_location_devices(store, env.pops["pop01"]):
            built = derive_device_data(store, device)
            assert configs[device.name].data == CONFIG_SCHEMA.validate("Device", built)

    def test_a_render_checks_its_struct_once(self, pop_cluster, generator, monkeypatch):
        checks = []
        validate = SchemaRegistry.validate

        def counted(registry, struct_name, value):
            checks.append(struct_name)
            return validate(registry, struct_name, value)

        monkeypatch.setattr(SchemaRegistry, "validate", counted)
        generator.generate_device(pop_cluster.devices["PR"][0])
        assert checks == ["Device"]

    def test_the_producer_does_not_grade_its_own_work(self):
        assert "configgen.schema" not in Path(derive.__file__).read_text()
        assert not hasattr(derive, "CONFIG_SCHEMA")

    def test_a_struct_the_schema_refuses_does_not_render(
        self, store, env, pop_cluster, generator, monkeypatch
    ):
        def bad_derive(store, device):
            return {**derive_device_data(store, device), "vendor": 7}

        monkeypatch.setattr("repro.configgen.generator.derive_device_data", bad_derive)
        with pytest.raises(ConfigGenerationError, match="Device.vendor: expected string"):
            generator.generate_device(pop_cluster.devices["PR"][0])


class TestGeneration:
    def test_vendor_dialects_differ(self, store, env, pop_cluster, generator):
        configs = generator.generate_location(env.pops["pop01"])
        pr = configs["pop01.c01.pr1"]  # vendor1
        psw = configs["pop01.c01.psw1"]  # vendor2
        assert "hostname pop01.c01.pr1" in pr.text
        assert "router bgp" in pr.text
        assert "host-name pop01.c01.psw1;" in psw.text
        assert "protocols {" in psw.text
        assert "{" not in pr.text  # no brace syntax leaks into vendor1

    def test_same_data_both_sides(self, store, env, pop_cluster, generator):
        """The shared bundle subnet shows up in both endpoint configs."""
        configs = generator.generate_location(env.pops["pop01"])
        pr = configs["pop01.c01.pr1"]
        psw = configs["pop01.c01.psw1"]
        psw_v6 = next(
            agg["v6_prefix"] for agg in psw.data["aggs"] if agg["v6_prefix"]
        )
        peer_ip = psw_v6.split("/")[0]
        assert peer_ip in pr.text  # the PR points BGP at the PSW's address

    def test_golden_registry_populated(self, store, env, pop_cluster, generator):
        generator.generate_location(env.pops["pop01"])
        expected = {f"pop01.c01.pr{i}" for i in (1, 2)}
        expected |= {f"pop01.c01.psw{i}" for i in range(1, 5)}
        expected |= {f"pop01.c01.tor{i}" for i in range(1, 9)}
        assert set(generator.golden) == expected

    def test_deterministic(self, store, env, pop_cluster, generator):
        first = generator.generate_device(pop_cluster.devices["PR"][0])
        second = generator.generate_device(pop_cluster.devices["PR"][0])
        assert first.text == second.text
        assert first.sha == second.sha

    def test_missing_template_raises(self, store, env, pop_cluster):
        generator = ConfigGenerator(store, Configerator(seed_builtin=False))
        with pytest.raises(ConfigGenerationError, match="no template"):
            generator.generate_device(pop_cluster.devices["PR"][0])

    def test_template_update_changes_output(self, store, env, pop_cluster, generator):
        device = pop_cluster.devices["PR"][0]
        before = generator.generate_device(device).text
        change = generator.configerator.propose(
            "vendor1/system.tmpl",
            "# v2 header for {{device.name}}\nhostname {{device.system.hostname}}\n",
            author="alice",
        )
        generator.configerator.approve(change.change_id, reviewer="bob")
        after = generator.generate_device(device).text
        assert before != after
        assert "# v2 header" in after

    def test_staleness_detection(self, store, env, pop_cluster, generator):
        device = pop_cluster.devices["PR"][0]
        config = generator.generate_device(device)
        assert not generator.is_stale(config)
        store.update(device, drain_state=DrainState.DRAINING)
        assert generator.is_stale(config)

    def test_staleness_is_judged_by_what_the_config_read(self, pop_network):
        """Section 8's check must not cry wolf: monitoring's Derived writes
        and unrelated design changes move the journal on every deployment."""
        store, generator = pop_network.store, pop_network.generator
        golden = dict(generator.golden)
        assert len(golden) == 14
        position = store.journal_position
        pop_network.run(120)  # two minutes of monitoring
        assert store.journal_position > position
        assert not any(map(generator.is_stale, golden.values()))
        profile = store.create(RackProfile, name="unrelated", downlinks_per_rack=2)
        store.create(
            Rack, name="rack-9", cluster=pop_network.cluster.cluster, rack_profile=profile
        )
        assert not any(map(generator.is_stale, golden.values()))
        # A change one config read: stale, and only that one.
        pr1 = pop_network.cluster.devices["PR"][0]
        aggregate = store.first(AggregatedInterface, Expr("device", Op.EQUAL, pr1.id))
        store.update(aggregate, mtu=1500)
        assert [name for name, config in golden.items() if generator.is_stale(config)] == [
            pr1.name
        ]
        assert generator.regenerate_dirty().dirty.keys() == {pr1.name}

    def test_staleness_without_a_read_set_or_ahead_of_the_journal(
        self, store, env, pop_cluster, generator
    ):
        config = generator.generate_device(pop_cluster.devices["PR"][0])
        # A tail lost to a promotion: the config read state this store never saw.
        ahead = replace(config, design_position=store.journal_position + 1)
        assert generator.is_stale(ahead)
        # Hand-built, no evidence of what it read: current only at its position.
        blind = replace(config, read_set=None)
        assert not generator.is_stale(blind)
        store.create(RackProfile, name="unrelated", downlinks_per_rack=2)
        assert generator.is_stale(blind) and not generator.is_stale(config)

    def test_mpls_section_only_when_tunnels(self, store, env, pop_cluster, generator):
        config = generator.generate_device(pop_cluster.devices["PR"][0])
        assert "tunnel-te" not in config.text
