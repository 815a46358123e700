"""The ``ipaddress`` allocator that ``repro.design.ipam`` computed with
before it moved to integers, kept as the reference its property tests
compare against (``tests/design/test_ipam.py``).

Behaviour only: it parses every stored prefix and every candidate block
through :mod:`ipaddress`, which is what made it slow, and nothing in
``src/`` imports it.
"""

from __future__ import annotations

import ipaddress

from repro.common.errors import DesignValidationError
from repro.fbnet.models import V4Prefix, V6Prefix
from repro.fbnet.query import Expr, Op

P2P_PLEN = {4: 31, 6: 127}
HOST_PLEN = {4: 32, 6: 128}


def p2p_pair(subnet: str) -> tuple[str, str]:
    network = ipaddress.ip_network(subnet)
    expected = P2P_PLEN[network.version]
    if network.prefixlen != expected:
        raise DesignValidationError(f"{subnet} is not a point-to-point /{expected}")
    first = network.network_address
    second = first + 1
    return (f"{first}/{expected}", f"{second}/{expected}")


class ReferenceAllocator:
    """Sequential fit, wrap to the pool base, first-fit overlap scan."""

    def __init__(self, store, pool):
        self._store = store
        self.pool = pool
        self._network = ipaddress.ip_network(pool.prefix)
        if self._network.version != pool.version:
            raise DesignValidationError(
                f"pool {pool.name}: prefix {pool.prefix} does not match "
                f"version {pool.version}"
            )
        self._taken: list | None = None
        self._max_broadcast = -1

    @property
    def version(self) -> int:
        return self._network.version

    def _prefix_model(self) -> type:
        return V4Prefix if self.version == 4 else V6Prefix

    def allocated_subnets(self) -> list:
        taken: dict[str, ipaddress._BaseNetwork] = {}
        in_pool = Expr("pool", Op.EQUAL, self.pool.id)
        for obj in self._store.filter(self._prefix_model(), in_pool):
            network = ipaddress.ip_interface(obj.prefix).network
            taken[str(network)] = network
        return list(taken.values())

    def allocate_subnet(self, prefixlen: int) -> ipaddress._BaseNetwork:
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
        max_broadcast = self._max_broadcast
        start = max(int(self._network.network_address), max_broadcast + 1)
        block = 2 ** (self._network.max_prefixlen - prefixlen)
        if start % block:
            start += block - (start % block)
        wrapped = False
        if start + block - 1 > int(self._network.broadcast_address):
            start = int(self._network.network_address)
            wrapped = True
        candidate = ipaddress.ip_network(f"{ipaddress.ip_address(start)}/{prefixlen}")
        if not wrapped and int(candidate.network_address) > max_broadcast:
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
            next_address = int(candidate.broadcast_address) + 1
            if next_address > int(self._network.broadcast_address):
                raise DesignValidationError(
                    f"pool {self.pool.name} ({self._network}) is exhausted"
                )
            candidate = ipaddress.ip_network(
                f"{ipaddress.ip_address(next_address)}/{prefixlen}"
            )

    def _take(self, subnet) -> None:
        self._taken.append(subnet)
        self._max_broadcast = max(self._max_broadcast, int(subnet.broadcast_address))

    def assign_p2p(self, a_interface, z_interface) -> tuple:
        subnet = self.allocate_subnet(P2P_PLEN[self.version])
        a_addr, z_addr = p2p_pair(str(subnet))
        model = self._prefix_model()
        a = self._store.create(model, prefix=a_addr, interface=a_interface, pool=self.pool)
        z = self._store.create(model, prefix=z_addr, interface=z_interface, pool=self.pool)
        return a, z

    def assign_host(self, interface) -> object:
        subnet = self.allocate_subnet(HOST_PLEN[self.version])
        return self._store.create(
            self._prefix_model(),
            prefix=f"{subnet.network_address}/{subnet.prefixlen}",
            interface=interface,
            pool=self.pool,
        )
