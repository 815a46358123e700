"""IP address management: rule-based allocation from Desired pools.

Before Desired models existed, circuit IPs were found by *pinging addresses
not present in Derived models* — slow and conflict-prone (paper section 7).
Robotron replaced that with allocators that carve subnets out of
``PrefixPool`` objects and record every assignment as a Desired prefix
object, making conflicts structurally impossible.

Point-to-point links get a /31 (IPv4) or /127 (IPv6); the two usable host
addresses are assigned to the two endpoint interfaces.  Loopbacks get a
/32 or /128.  Rack allocations carve larger blocks.

FBNet is the source of truth, and ``IpAllocator.allocated_subnets`` its one
reader of a pool.  Allocation is integer arithmetic: a pool is an address
interval, each block taken from it a ``(start, end)`` interval read from a
stored prefix by :func:`~repro.fbnet.fields.prefix_interval` (the design
rules read prefixes through it too), and each granted address is
formatted once.
"""

from __future__ import annotations

import ipaddress
from bisect import insort

from repro.common.errors import DesignValidationError
from repro.fbnet.fields import format_address, prefix_interval
from repro.fbnet.models import PrefixPool, V4Prefix, V6Prefix
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore

__all__ = ["IpAllocator", "P2P_PLEN", "format_address", "p2p_pair"]

#: Point-to-point prefix length per IP version.
P2P_PLEN = {4: 31, 6: 127}
#: Host (loopback) prefix length per IP version.
HOST_PLEN = {4: 32, 6: 128}

_NETWORK = {4: ipaddress.IPv4Network, 6: ipaddress.IPv6Network}


def _pair(first: int, version: int) -> tuple[str, str]:
    """The two interface prefixes of the point-to-point block at ``first``."""
    plen = P2P_PLEN[version]
    return (
        f"{format_address(first, version)}/{plen}",
        f"{format_address(first + 1, version)}/{plen}",
    )


def p2p_pair(subnet: str) -> tuple[str, str]:
    """The two interface addresses of a point-to-point subnet.

    >>> p2p_pair("10.0.0.0/31")
    ('10.0.0.0/31', '10.0.0.1/31')
    >>> p2p_pair("2401:db00::/127")
    ('2401:db00::/127', '2401:db00::1/127')
    """
    try:
        network = ipaddress.ip_network(subnet)
    except ValueError as exc:
        raise DesignValidationError(f"{subnet!r} is not a subnet: {exc}") from None
    expected = P2P_PLEN[network.version]
    if network.prefixlen != expected:
        raise DesignValidationError(
            f"{subnet} is not a point-to-point /{expected}"
        )
    return _pair(int(network.network_address), network.version)


class IpAllocator:
    """Sequential-fit subnet allocator over one :class:`PrefixPool`.

    Already-assigned prefixes are discovered from the store (the Desired
    ``V4Prefix``/``V6Prefix`` objects linked to the pool, whoever created
    them), so allocators can be re-instantiated at any time without
    external bookkeeping — FBNet remains the single source of truth.
    """

    def __init__(self, store: ObjectStore, pool: PrefixPool):
        self._store = store
        self.pool = pool
        try:
            network = ipaddress.ip_network(pool.prefix)
        except ValueError as exc:
            raise DesignValidationError(f"pool {pool.name}: {exc}") from None
        if network.version != pool.version:
            raise DesignValidationError(
                f"pool {pool.name}: prefix {pool.prefix} does not match "
                f"version {pool.version}"
            )
        self.version = network.version
        self._model = V4Prefix if self.version == 4 else V6Prefix
        self._label = f"pool {pool.name} ({network})"
        self._prefixlen, self._width = network.prefixlen, network.max_prefixlen
        self._base, self._last = int(network.network_address), int(network.broadcast_address)
        # Taken blocks as sorted (start, end) intervals, loaded lazily from the
        # store and then kept up to date so bulk materialization stays linear;
        # the highest end (-1 when none) spares the sequential fit a rescan.
        self._taken: list[tuple[int, int]] | None = None
        self._max_end = -1

    @classmethod
    def named(cls, store: ObjectStore, name: str) -> IpAllocator:
        """The allocator over the pool called ``name``."""
        pool = store.first(PrefixPool, Expr("name", Op.EQUAL, name))
        if pool is None:
            raise DesignValidationError(f"no prefix pool named {name!r}")
        return cls(store, pool)

    def allocated_subnets(self) -> list[tuple[int, int]]:
        """Blocks already carved from this pool, from Desired state, as
        ``(first, last)`` address intervals, one per block (the two
        endpoint objects of a p2p pair share one).
        """
        in_pool = Expr("pool", Op.EQUAL, self.pool.id)  # the reverse-FK index
        rows = self._store.filter(self._model, in_pool)
        return list(dict.fromkeys(prefix_interval(obj.prefix, self.version) for obj in rows))

    def allocate_subnet(self, prefixlen: int) -> ipaddress._BaseNetwork:
        """Find the first free subnet of ``prefixlen`` within the pool.

        Raises :class:`DesignValidationError` when the pool is exhausted
        or ``prefixlen`` does not fit it.  The returned subnet is *not*
        yet recorded — callers record it by creating prefix objects (see
        :meth:`assign_p2p`).
        """
        if prefixlen < self._prefixlen:
            raise DesignValidationError(f"/{prefixlen} is larger than {self._label}")
        if prefixlen > self._width:
            raise DesignValidationError(
                f"/{prefixlen} is longer than an IPv{self.version} address ({self._label})"
            )
        if self._taken is None:
            self._taken = sorted(self.allocated_subnets())
            self._max_end = max([end for _start, end in self._taken], default=-1)
        size = 1 << (self._width - prefixlen)
        # Sequential fit: the first aligned block past the highest taken
        # one; scan from the pool base if that lands out of range.
        start = -(-max(self._base, self._max_end + 1) // size) * size
        if start + size - 1 > self._last:
            # First fit from the pool base, in one pass over the sorted
            # intervals: every aligned block up to an overlapped end overlaps.
            start = self._base
            for low, high in self._taken:
                if low > start + size - 1:
                    break
                if high >= start:
                    start = (high // size + 1) * size
            if start + size - 1 > self._last:
                raise DesignValidationError(f"{self._label} is exhausted")
        insort(self._taken, (start, start + size - 1))
        self._max_end = max(self._max_end, start + size - 1)
        return _NETWORK[self.version]((start, prefixlen))

    def assign_p2p(self, a_interface, z_interface) -> tuple:
        """Allocate a point-to-point subnet and assign both endpoint addresses.

        Creates two prefix objects — one per endpoint interface — from the
        same /31 or /127, satisfying the validation rule that both ends of
        a circuit share a subnet (section 1's motivating example).
        Returns the two created prefix objects ``(a, z)``.
        """
        subnet = self.allocate_subnet(P2P_PLEN[self.version])
        a_addr, z_addr = _pair(int(subnet.network_address), self.version)
        create = self._store.create
        a = create(self._model, prefix=a_addr, interface=a_interface, pool=self.pool)
        z = create(self._model, prefix=z_addr, interface=z_interface, pool=self.pool)
        return a, z

    def assign_host(self, interface) -> object:
        """Allocate a single host address (/32 or /128) to ``interface``."""
        subnet = self.allocate_subnet(HOST_PLEN[self.version])
        address = format_address(int(subnet.network_address), self.version)
        prefix = f"{address}/{subnet.prefixlen}"
        return self._store.create(self._model, prefix=prefix, interface=interface, pool=self.pool)

    def utilization(self) -> float:
        """Fraction of the pool's address space already allocated."""
        used = sum(end - start + 1 for start, end in self.allocated_subnets())
        return used / (self._last - self._base + 1)
