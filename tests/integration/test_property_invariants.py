"""Cross-module property-based invariants (hypothesis).

These pin down the contracts the subsystems rely on from each other:
portmap plan reversibility, template-engine identity on literal text,
and config schema round-trips for generated devices.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configgen.engine import Template
from repro.core.seeds import seed_environment
from repro.design.portmap import PortmapChangePlan, PortmapSpec, execute_change_plan
from repro.fbnet.models import NetworkSwitch
from repro.fbnet.store import ObjectStore


class TestPortmapReversibility:
    @settings(max_examples=15, deadline=None)
    @given(
        circuits=st.integers(1, 4),
        grow_to=st.integers(1, 6),
    )
    def test_create_update_delete_returns_to_baseline(self, circuits, grow_to):
        store = ObjectStore()
        env = seed_environment(store)
        for i in (1, 2):
            store.create(
                NetworkSwitch, name=f"psw{i}",
                hardware_profile=env.profiles["Switch_Vendor2"],
            )
        baseline = store.table_sizes()

        def spec(n):
            return PortmapSpec(
                a_device="psw1", z_device="psw2", circuits=n,
                v6_pool="dc-p2p-v6",
            )

        execute_change_plan(store, PortmapChangePlan(new=spec(circuits)))
        execute_change_plan(
            store, PortmapChangePlan(old=spec(circuits), new=spec(grow_to))
        )
        execute_change_plan(store, PortmapChangePlan(old=spec(grow_to)))
        # Linecards created for ports legitimately persist; everything
        # else returns exactly to baseline.
        after = {k: v for k, v in store.table_sizes().items() if k != "Linecard"}
        baseline.pop("Linecard", None)
        assert after == baseline


class TestTemplateEngineProperties:
    literal_text = st.text(
        alphabet=st.characters(blacklist_characters="{}%#", max_codepoint=1000),
        max_size=200,
    )

    @settings(max_examples=80, deadline=None)
    @given(text=literal_text)
    def test_literal_text_is_identity(self, text):
        assert Template(text).render({}) == text

    @settings(max_examples=80, deadline=None)
    @given(value=st.text(max_size=50))
    def test_variable_substitution_inserts_value_verbatim(self, value):
        rendered = Template("[{{ v }}]").render({"v": value})
        assert rendered == f"[{value}]"

    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(st.integers(0, 999), max_size=20))
    def test_for_loop_emits_once_per_item(self, items):
        rendered = Template("{% for x in xs %}<{{ x }}>{% endfor %}").render(
            {"xs": items}
        )
        assert rendered == "".join(f"<{x}>" for x in items)


class TestGeneratedConfigsAlwaysParse:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_any_built_cluster_generates_parseable_configs(self, seed):
        """Fuzz over template variants: configs always parse back clean."""
        import random

        from repro.configgen.generator import ConfigGenerator
        from repro.design.cluster import build_cluster
        from repro.devices.parsers import parse_config
        from repro.fbnet.models import ClusterGeneration

        rng = random.Random(seed)
        generation = rng.choice(list(ClusterGeneration))
        store = ObjectStore()
        env = seed_environment(store)
        location = (
            env.pops["pop01"]
            if generation.value.startswith("pop")
            else env.datacenters["dc01"]
        )
        cluster = build_cluster(store, "site.c01", location, generation)
        generator = ConfigGenerator(store)
        for device in cluster.all_devices():
            config = generator.generate_device(device)
            parsed = parse_config(config.vendor, config.text)
            assert parsed.hostname == device.name
