"""IP address management: rule-based allocation from Desired pools.

Before Desired models existed, circuit IPs were found by *pinging addresses
not present in Derived models* — slow and conflict-prone (paper section 7).
Robotron replaced that with allocators that carve subnets out of
``PrefixPool`` objects and record every assignment as a Desired prefix
object, making conflicts structurally impossible.

Point-to-point links get a /31 (IPv4) or /127 (IPv6); the two usable host
addresses are assigned to the two endpoint interfaces.  Loopbacks get a
/32 or /128.  Rack allocations carve larger blocks.
"""

from __future__ import annotations

import ipaddress

from repro.common.errors import DesignValidationError
from repro.fbnet.models import PrefixPool, V4Prefix, V6Prefix
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore

__all__ = ["IpAllocator", "P2P_PLEN", "p2p_pair"]

#: Point-to-point prefix length per IP version.
P2P_PLEN = {4: 31, 6: 127}
#: Host (loopback) prefix length per IP version.
HOST_PLEN = {4: 32, 6: 128}


def p2p_pair(subnet: str) -> tuple[str, str]:
    """The two interface addresses of a point-to-point subnet.

    >>> p2p_pair("10.0.0.0/31")
    ('10.0.0.0/31', '10.0.0.1/31')
    >>> p2p_pair("2401:db00::/127")
    ('2401:db00::/127', '2401:db00::1/127')
    """
    network = ipaddress.ip_network(subnet)
    expected = P2P_PLEN[network.version]
    if network.prefixlen != expected:
        raise DesignValidationError(
            f"{subnet} is not a point-to-point /{expected}"
        )
    first = network.network_address
    second = first + 1
    return (f"{first}/{expected}", f"{second}/{expected}")


class IpAllocator:
    """Sequential-fit subnet allocator over one :class:`PrefixPool`.

    Already-assigned prefixes are discovered from the store (the Desired
    ``V4Prefix``/``V6Prefix`` objects linked to the pool), so allocators
    can be re-instantiated at any time without external bookkeeping —
    FBNet remains the single source of truth.
    """

    def __init__(self, store: ObjectStore, pool: PrefixPool):
        self._store = store
        self.pool = pool
        self._network = ipaddress.ip_network(pool.prefix)
        if self._network.version != pool.version:
            raise DesignValidationError(
                f"pool {pool.name}: prefix {pool.prefix} does not match "
                f"version {pool.version}"
            )
        # Allocation cache: loaded lazily from the store, then maintained
        # incrementally so bulk materialization stays linear.
        self._taken: list | None = None
        # Highest broadcast address in ``_taken`` (-1 when empty), kept
        # beside it so the sequential-fit start is not a rescan per call.
        self._max_broadcast = -1

    @property
    def version(self) -> int:
        return self._network.version

    def _prefix_model(self) -> type:
        return V4Prefix if self.version == 4 else V6Prefix

    def allocated_subnets(self) -> list[ipaddress._BaseNetwork]:
        """Subnets already carved from this pool, from Desired state.

        The two endpoint objects of a p2p pair share one subnet; the
        result is deduplicated accordingly.
        """
        taken: dict[str, ipaddress._BaseNetwork] = {}
        in_pool = Expr("pool", Op.EQUAL, self.pool.id)  # the reverse-FK index
        for obj in self._store.filter(self._prefix_model(), in_pool):
            network = ipaddress.ip_interface(obj.prefix).network
            taken[str(network)] = network
        return list(taken.values())

    def allocate_subnet(self, prefixlen: int) -> ipaddress._BaseNetwork:
        """Find the first free subnet of ``prefixlen`` within the pool.

        Raises :class:`DesignValidationError` when the pool is exhausted.
        The returned subnet is *not* yet recorded — callers record it by
        creating prefix objects (see :meth:`assign_p2p`).
        """
        if prefixlen < self._network.prefixlen:
            raise DesignValidationError(
                f"/{prefixlen} is larger than pool {self.pool.name} "
                f"({self._network})"
            )
        if self._taken is None:
            self._taken = []
            for subnet in self.allocated_subnets():
                self._take(subnet)
        taken = self._taken
        # Start past the highest allocated block (sequential-fit fast path);
        # fall back to a scan from the pool base if that lands out of range.
        max_broadcast = self._max_broadcast
        start = max(int(self._network.network_address), max_broadcast + 1)
        block = 2 ** (self._network.max_prefixlen - prefixlen)
        if start % block:
            start += block - (start % block)
        wrapped = False
        if start + block - 1 > int(self._network.broadcast_address):
            start = int(self._network.network_address)
            wrapped = True
        candidate = ipaddress.ip_network(
            f"{ipaddress.ip_address(start)}/{prefixlen}"
        )
        if not wrapped and int(candidate.network_address) > max_broadcast:
            # Beyond every existing block: no overlap scan needed.
            self._take(candidate)
            return candidate
        while True:
            if not candidate.subnet_of(self._network):
                raise DesignValidationError(
                    f"pool {self.pool.name} ({self._network}) is exhausted"
                )
            if not any(candidate.overlaps(existing) for existing in taken):
                self._take(candidate)
                return candidate
            # Jump past the end of this candidate block.
            next_address = int(candidate.broadcast_address) + 1
            max_address = int(self._network.broadcast_address)
            if next_address > max_address:
                raise DesignValidationError(
                    f"pool {self.pool.name} ({self._network}) is exhausted"
                )
            candidate = ipaddress.ip_network(
                f"{ipaddress.ip_address(next_address)}/{prefixlen}"
            )

    def _take(self, subnet: ipaddress._BaseNetwork) -> None:
        self._taken.append(subnet)
        self._max_broadcast = max(self._max_broadcast, int(subnet.broadcast_address))

    def assign_p2p(self, a_interface, z_interface) -> tuple:
        """Allocate a point-to-point subnet and assign both endpoint addresses.

        Creates two prefix objects — one per endpoint interface — from the
        same /31 or /127, satisfying the validation rule that both ends of
        a circuit share a subnet (section 1's motivating example).
        Returns the two created prefix objects ``(a, z)``.
        """
        subnet = self.allocate_subnet(P2P_PLEN[self.version])
        a_addr, z_addr = p2p_pair(str(subnet))
        model = self._prefix_model()
        a = self._store.create(model, prefix=a_addr, interface=a_interface, pool=self.pool)
        z = self._store.create(model, prefix=z_addr, interface=z_interface, pool=self.pool)
        return a, z

    def assign_host(self, interface) -> object:
        """Allocate a single host address (/32 or /128) to ``interface``."""
        subnet = self.allocate_subnet(HOST_PLEN[self.version])
        model = self._prefix_model()
        return self._store.create(
            model,
            prefix=f"{subnet.network_address}/{subnet.prefixlen}",
            interface=interface,
            pool=self.pool,
        )

    def utilization(self) -> float:
        """Fraction of the pool's address space already allocated."""
        total = self._network.num_addresses
        used = sum(subnet.num_addresses for subnet in self.allocated_subnets())
        return used / total
