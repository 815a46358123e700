"""Tests (incl. property-based) for the IP allocators."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DesignValidationError
from repro.design.ipam import IpAllocator, format_address, p2p_pair
from repro.fbnet.models import (
    AggregatedInterface,
    NetworkSwitch,
    PrefixPool,
    V4Prefix,
    V6Prefix,
)
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore
from repro.core.seeds import seed_environment
from tests.design import ipam_reference


@pytest.fixture
def aggs(store, env):
    device = store.create(
        NetworkSwitch, name="psw1", hardware_profile=env.profiles["Switch_Vendor2"]
    )
    return [
        store.create(AggregatedInterface, name=f"ae{i}", device=device, number=i)
        for i in range(8)
    ]


class TestP2pPair:
    def test_v4(self):
        assert p2p_pair("10.0.0.0/31") == ("10.0.0.0/31", "10.0.0.1/31")

    def test_v6(self):
        assert p2p_pair("2401:db00::/127") == ("2401:db00::/127", "2401:db00::1/127")

    def test_rejects_wrong_length(self):
        with pytest.raises(DesignValidationError):
            p2p_pair("10.0.0.0/30")


class TestAllocator:
    def test_assign_p2p_same_subnet(self, store, env, aggs):
        allocator = IpAllocator(store, env.pools["pop-p2p-v6"])
        a, z = allocator.assign_p2p(aggs[0], aggs[1])
        a_net = ipaddress.ip_interface(a.prefix).network
        z_net = ipaddress.ip_interface(z.prefix).network
        assert a_net == z_net
        assert a.prefix != z.prefix

    def test_sequential_allocations_disjoint(self, store, env, aggs):
        allocator = IpAllocator(store, env.pools["pop-p2p-v4"])
        nets = set()
        for i in range(0, 8, 2):
            a, _z = allocator.assign_p2p(aggs[i], aggs[i + 1])
            nets.add(ipaddress.ip_interface(a.prefix).network)
        assert len(nets) == 4

    def test_fresh_allocator_respects_existing_state(self, store, env, aggs):
        """FBNet is the source of truth: a new allocator sees old grants."""
        first = IpAllocator(store, env.pools["pop-p2p-v6"])
        a1, _ = first.assign_p2p(aggs[0], aggs[1])
        second = IpAllocator(store, env.pools["pop-p2p-v6"])
        a2, _ = second.assign_p2p(aggs[2], aggs[3])
        assert ipaddress.ip_interface(a1.prefix).network != (
            ipaddress.ip_interface(a2.prefix).network
        )

    def test_exhaustion(self, store, env, aggs):
        pool = store.create(PrefixPool, name="tiny", prefix="10.9.0.0/30", version=4)
        allocator = IpAllocator(store, pool)
        allocator.assign_p2p(aggs[0], aggs[1])
        allocator.assign_p2p(aggs[2], aggs[3])
        with pytest.raises(DesignValidationError, match="exhausted"):
            allocator.assign_p2p(aggs[4], aggs[5])

    def test_assign_host(self, store, env, aggs):
        allocator = IpAllocator(store, env.pools["backbone-loopback-v6"])
        prefix = allocator.assign_host(aggs[0])
        assert prefix.prefix.endswith("/128")

    def test_utilization(self, store, env, aggs):
        pool = store.create(PrefixPool, name="tiny4", prefix="10.9.0.0/30", version=4)
        allocator = IpAllocator(store, pool)
        assert allocator.utilization() == 0.0
        allocator.assign_p2p(aggs[0], aggs[1])
        assert allocator.utilization() == 0.5

    def test_version_mismatch_rejected(self, store):
        pool = store.create(PrefixPool, name="bad", prefix="10.0.0.0/24", version=6)
        with pytest.raises(DesignValidationError, match="version"):
            IpAllocator(store, pool)

    def test_prefixlen_larger_than_pool_rejected(self, store, env):
        allocator = IpAllocator(store, env.pools["pop-p2p-v4"])
        with pytest.raises(DesignValidationError, match="larger than pool"):
            allocator.allocate_subnet(8)

    @pytest.mark.parametrize(
        ("call", "match"),
        [
            pytest.param(
                lambda env, store: IpAllocator(store, env.pools["dc-p2p-v4"]).allocate_subnet(33),
                "dc-p2p-v4", id="v4-/33",
            ),
            pytest.param(
                lambda env, store: IpAllocator(store, env.pools["dc-p2p-v6"]).allocate_subnet(129),
                "dc-p2p-v6", id="v6-/129",
            ),
            pytest.param(lambda env, store: p2p_pair("10.0.0.1/31"), "host bits", id="v4-host-bits"),
            pytest.param(
                lambda env, store: p2p_pair("2401:db00::1/127"), "host bits", id="v6-host-bits"
            ),
            pytest.param(lambda env, store: p2p_pair("garbage"), "garbage", id="garbage"),
        ],
    )
    def test_bad_input_is_a_design_error(self, store, env, call, match):
        with pytest.raises(DesignValidationError, match=match):
            call(env, store)

    def test_allocated_subnets_reads_desired_models(self, store, env, aggs):
        allocator = IpAllocator(store, env.pools["pop-p2p-v6"])
        allocator.assign_p2p(aggs[0], aggs[1])
        assert len(allocator.allocated_subnets()) == 1
        assert store.count(V6Prefix) == 2  # one object per endpoint


class TestAllocatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(pairs=st.integers(min_value=1, max_value=40))
    def test_never_double_allocates(self, pairs):
        store = ObjectStore()
        env = seed_environment(store)
        device = store.create(
            NetworkSwitch, name="psw1",
            hardware_profile=env.profiles["Switch_Vendor2"],
        )
        aggs = [
            store.create(AggregatedInterface, name=f"ae{i}", device=device, number=i)
            for i in range(2 * pairs)
        ]
        allocator = IpAllocator(store, env.pools["dc-p2p-v4"])
        for i in range(pairs):
            allocator.assign_p2p(aggs[2 * i], aggs[2 * i + 1])
        prefixes = [p.prefix for p in store.all(V4Prefix)]
        # Every assigned address is unique...
        assert len(set(prefixes)) == len(prefixes) == 2 * pairs
        # ...and every pair shares a subnet with only its partner.
        networks = [ipaddress.ip_interface(p).network for p in prefixes]
        assert len(set(networks)) == pairs


#: Small pools, so a sequence reaches exhaustion and the wrap to the base.
EQUIVALENCE_POOLS = {4: "10.9.0.0/28", 6: "2401:db00:ff::/124"}


class _Side:
    """One store and the live allocator of one implementation."""

    def __init__(self, allocator_class, version: int):
        self.store = ObjectStore()
        env = seed_environment(self.store)
        device = self.store.create(
            NetworkSwitch, name="psw1", hardware_profile=env.profiles["Switch_Vendor2"]
        )
        self.interface = self.store.create(
            AggregatedInterface, name="ae0", device=device, number=0
        )
        self.pool = self.store.create(
            PrefixPool, name="prop", prefix=EQUIVALENCE_POOLS[version], version=version
        )
        self.model = V4Prefix if version == 4 else V6Prefix
        self.open = lambda: allocator_class(self.store, self.pool)
        self.allocator = self.open()

    def rows(self) -> list:
        in_pool = Expr("pool", Op.EQUAL, self.pool.id)
        return sorted(self.store.filter(self.model, in_pool), key=lambda row: row.id)

    def step(self, op: tuple):
        kind = op[0]
        if kind == "fresh":
            self.allocator = self.open()
            return None
        if kind == "delete":
            # Behind the allocator's back: a live one keeps the block, a
            # fresh one may hand it out again.
            rows = self.rows()
            if rows:
                self.store.delete(rows[op[1] % len(rows)])
            return None
        try:
            if kind == "p2p":
                a, z = self.allocator.assign_p2p(self.interface, self.interface)
                return a.prefix, z.prefix
            if kind == "host":
                return self.allocator.assign_host(self.interface).prefix
            subnet = self.allocator.allocate_subnet(op[1])
            self.store.create(self.model, prefix=str(subnet), interface=self.interface, pool=self.pool)
            return str(subnet)
        except DesignValidationError as exc:
            assert "exhausted" in str(exc)
            return "exhausted"


def _ops(version: int):
    base = 28 if version == 4 else 124
    return st.lists(
        st.one_of(
            st.just(("p2p",)),
            st.just(("host",)),
            st.tuples(st.just("block"), st.integers(base, base + 4)),
            st.tuples(st.just("delete"), st.integers(0, 1000)),
            st.just(("fresh",)),
        ),
        max_size=40,
    )


def _hextets():
    """Addresses with runs of zero hextets as likely as not."""
    return st.lists(
        st.one_of(st.just(0), st.integers(0, 0xFFFF)), min_size=8, max_size=8
    ).map(lambda words: sum(word << (16 * (7 - i)) for i, word in enumerate(words)))


class TestIntegerAllocatorEqualsIpaddress:
    """The integer allocator against the ``ipaddress`` one it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), version=st.sampled_from([4, 6]))
    def test_same_blocks_in_the_same_order(self, data, version):
        ops = data.draw(_ops(version))
        ours = _Side(IpAllocator, version)
        theirs = _Side(ipam_reference.ReferenceAllocator, version)
        for op in ops:
            assert ours.step(op) == theirs.step(op), op
        assert [row.prefix for row in ours.rows()] == [row.prefix for row in theirs.rows()]

    @settings(max_examples=200, deadline=None)
    @given(value=st.one_of(st.integers(0, 2**128 - 1), _hextets()))
    def test_formatted_strings_equal_ipaddress(self, value):
        assert format_address(value, 6) == str(ipaddress.IPv6Address(value))
        v4 = value & 0xFFFFFFFF
        assert format_address(v4, 4) == str(ipaddress.IPv4Address(v4))
        for subnet in (
            str(ipaddress.IPv6Network((value & ~1, 127))),
            str(ipaddress.IPv4Network((v4 & ~1, 31))),
        ):
            assert p2p_pair(subnet) == ipam_reference.p2p_pair(subnet)
