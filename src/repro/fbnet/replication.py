"""FBNet's multi-region replication and failover (paper section 4.3.3).

The paper runs one MySQL master plus one slave per data center, replicated
asynchronously with a typical lag under one second.  Reads are served by
region-local service replicas; writes are forwarded to the master region.
This module reproduces those semantics on the simulated clock:

* every committed master transaction is announced to each replica region,
  which catches up on the master's journal after its replication lag;
* a replica database is disabled when it fails health checks or when its
  replication lag exceeds the configured maximum — its region's service
  replicas then *redirect reads to the master database* until it recovers;
* when the master fails, the replica in the **nearest** region is promoted;
  the new master serves all reads and writes destined for the old master;
* when a service replica process crashes, requests redirect to surviving
  replicas in the same region, then to the nearest live region.

Two derivations carry the state; nothing is maintained beside them:

* **What a region has applied** is its own store's ``journal_position``.
  What travels from the master is a journal *position*, never records: an
  arrival applies ``master.journal[cursor:upto]`` from the region's own
  cursor, as a MySQL slave pulls its master's log.  Applies are therefore
  in order, exactly-once and gap-free in whatever order arrivals fire, and
  a healthy replica's journal is always a prefix of the master's.
* **What a region serves** is one rule, stated once in :meth:`_rebind`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field as dc_field
from typing import Any
from weakref import WeakSet

from repro import faults, obs
from repro.common.errors import ReplicaUnavailable, ReplicationError
from repro.faults.retry import GiveUp, RetryPolicy
from repro.fbnet.query import Query
from repro.fbnet.rpc import (
    ReadCache,
    RpcRequest,
    RpcResponse,
    ServiceReplica,
    _normalize_spec,
)
from repro.fbnet.store import ChangeRecord, ObjectStore
from repro.simulation.clock import EventScheduler

__all__ = ["FBNetClient", "RegionState", "ReplicatedFBNet"]

#: Consistency levels accepted by the client read path.
READ_LOCAL = "local"
READ_AFTER_WRITE = "read-after-write"


@dataclass
class RegionState:
    """Per-region databases and service replicas."""

    name: str
    store: ObjectStore
    db_healthy: bool = True
    #: Replication lag before this region follows a master commit.
    lag: float = 0.5
    #: Commit timestamps of announced-but-unapplied commits (lag measurement).
    in_flight: list[float] = dc_field(default_factory=list)
    read_replicas: list[ServiceReplica] = dc_field(default_factory=list)
    write_replicas: list[ServiceReplica] = dc_field(default_factory=list)
    #: The region's shared read-through cache (``cache_reads`` deployments).
    #: Replication applies land in the store journal, so the cache
    #: invalidates on apply with no extra shipping.
    cache: ReadCache | None = None

    def applied_position(self) -> int:
        return self.store.journal_position


class ReplicatedFBNet:
    """A multi-region FBNet deployment: one master, one replica per region.

    ``regions`` is ordered by geography: the distance between two regions
    is the difference of their indices, and "nearest" follows that order
    (the paper promotes the slave in the nearest data center).
    """

    def __init__(
        self,
        regions: list[str],
        master_region: str,
        scheduler: EventScheduler | None = None,
        *,
        replication_lag: float = 0.5,
        read_replicas_per_region: int = 2,
        write_replicas: int = 2,
        max_lag: float = 30.0,
        retry_policy: RetryPolicy | None = None,
        store_factory: Callable[[str], ObjectStore] | None = None,
        cache_reads: bool = False,
    ):
        if master_region not in regions:
            raise ValueError(f"master region {master_region!r} not in {regions}")
        if len(set(regions)) != len(regions):
            raise ValueError("duplicate region names")
        self.scheduler = scheduler or EventScheduler()
        #: How clients and the replication receive path retry transient faults.
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=0.5, multiplier=2.0, max_delay=10.0
        )
        self.region_order = list(regions)
        self.master_region = master_region
        self.max_lag = max_lag
        #: How each region's store is built — lets a deployment replicate
        #: sharded stores (``lambda name: ShardedObjectStore(name=name)``).
        self._store_factory = store_factory or (
            lambda name: ObjectStore(name=name)
        )
        self.regions: dict[str, RegionState] = {}
        for region in regions:
            state = RegionState(
                name=region,
                store=self._store_factory(f"fbnet-{region}"),
                lag=replication_lag,
            )
            if cache_reads:
                # One cache per region, shared by its read replicas, so a
                # fill through any replica serves the whole region.
                state.cache = ReadCache(state.store, name=f"rpc-{region}")
            for i in range(read_replicas_per_region):
                state.read_replicas.append(
                    ServiceReplica(
                        f"{region}-read-{i}", region, "read", state.store,
                        cache=state.cache,
                    )
                )
            self.regions[region] = state
        # Write replicas are deployed in the master region only.
        master = self.regions[master_region]
        for i in range(write_replicas):
            master.write_replicas.append(
                ServiceReplica(f"{master_region}-write-{i}", master_region, "write", master.store)
            )
        #: Stores carrying the shipper — one listener each, however often
        #: a store is promoted.
        self._followed: WeakSet[ObjectStore] = WeakSet()
        self._follow(master.store)
        #: Promotion history for tests/benches: (time, old master, new master).
        self.promotions: list[tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    # R1 — what a region has applied: the master's journal, from its cursor
    # ------------------------------------------------------------------

    @property
    def master(self) -> RegionState:
        return self.regions[self.master_region]

    def _follow(self, store: ObjectStore) -> None:
        """Announce ``store``'s commits for as long as it is the master's."""
        if store in self._followed:
            return
        self._followed.add(store)

        def ship(records: list[ChangeRecord]) -> None:
            if store is not self.master.store or not records:
                return
            # A position, not a payload.  A notification the store deferred
            # (``store.commit_listener`` fault) is covered by this ``upto``.
            upto, committed_at = store.journal_position, self.scheduler.clock.now
            for region in self.regions.values():
                if region is self.master:
                    continue
                region.in_flight.append(committed_at)
                self.scheduler.call_at(
                    committed_at + region.lag,
                    lambda r=region: self._arrive(r, store, upto, committed_at),
                    name=f"replicate->{region.name}",
                )

        store.add_commit_listener(ship)

    def _arrive(
        self,
        region: RegionState,
        source: ObjectStore,
        upto: int,
        committed_at: float,
        attempt: int = 0,
    ) -> None:
        if source is not self.master.store:
            # Announced by a store that has since lost the mastership (this
            # region may be the one promoted): whatever it covered either
            # reached the new master or died with the old one.
            obs.counter("replication.stale_arrival", region=region.name).inc()
            return
        if faults.should_inject("replication.apply", region=region.name):
            # A lag spike: the same arrival again after a backoff (a later
            # arrival may apply these records first, as a slave's next pull
            # would).  The commit timestamp stays in ``in_flight`` so
            # measured_lag() grows and check_health() can disable the DB —
            # the paper's high-replication-lag scenario.
            obs.counter("replication.retry", region=region.name).inc()
            self.scheduler.call_after(
                max(self.retry_policy.backoff(attempt), region.lag),
                lambda: self._arrive(region, source, upto, committed_at, attempt + 1),
                name=f"replicate-retry->{region.name}",
            )
            return
        if committed_at in region.in_flight:
            region.in_flight.remove(committed_at)
        obs.counter("store.replication.batches", region=region.name).inc()
        obs.gauge("store.replication.lag", region=region.name).set(
            self.scheduler.clock.now - committed_at, at=self.scheduler.clock.now
        )
        if region.db_healthy:  # a disabled database catches up when it recovers
            self._catch_up(region, upto)

    def _catch_up(self, region: RegionState, upto: int) -> None:
        """Apply the master's journal from ``region``'s own cursor to ``upto``."""
        for record in self.master.store.journal_since(region.applied_position(), upto):
            region.store.apply_record(record)

    def _resync(self, region: RegionState) -> None:
        """Bring a region's store in line with the master's journal.

        When the replica's journal is a prefix of the master's — the
        normal case: replication only ever lags, it does not diverge —
        the resync is *incremental*: the region's store catches up on the
        tail.  Any divergence (a record that differs, or a replica ahead
        of the master, as after a lossy failover) is a *full* rebuild: a
        fresh store catches up from zero (:meth:`_rebind` then replaces
        the cache, whose journal cursor meant the old store).
        """
        master = self.master.store
        position = region.applied_position()
        if (
            position <= master.journal_position
            and region.store.journal == master.journal_since(0, position)
        ):
            mode = "incremental"
        else:
            mode = "full"
            region.store.detach_durability()
            region.store = self._store_factory(f"fbnet-{region.name}")
        self._catch_up(region, master.journal_position)
        obs.counter(
            "store.replication.resync", region=region.name, mode=mode
        ).inc()
        region.in_flight.clear()

    def _resync_replicas(self) -> None:
        """Line every healthy replica region up behind a changed master."""
        for region in self.regions.values():
            if region is not self.master and region.db_healthy:
                self._resync(region)
        self._rebind()

    # ------------------------------------------------------------------
    # R2 — what a region serves
    # ------------------------------------------------------------------

    def _rebind(self) -> None:
        """Derive every service replica's database; run after any topology change.

        A region serves its own store and cache — unless it is a
        non-master region whose database is disabled, which serves the
        master's (paper section 4.3.3).  A cache never outlives its store.
        """
        for region in self.regions.values():
            if region.cache is not None and region.cache.store is not region.store:
                region.cache = ReadCache(region.store, name=region.cache.name)
        master = self.master
        for region in self.regions.values():
            serving = region if region.db_healthy or region is master else master
            for replica in region.read_replicas:
                replica.retarget(serving.store, serving.cache)
            for replica in region.write_replicas:
                replica.retarget(region.store)

    # ------------------------------------------------------------------
    # Health and failover
    # ------------------------------------------------------------------

    def measured_lag(self, region_name: str) -> float:
        """Replication lag of ``region_name``: age of its oldest in-flight commit."""
        region = self.regions[region_name]
        if not region.in_flight:
            return 0.0
        return self.scheduler.clock.now - min(region.in_flight)

    def check_health(self) -> list[str]:
        """Run the health checker once; returns regions disabled this pass.

        A replica database is disabled when its replication lag exceeds
        ``max_lag`` (the paper disables slaves experiencing high lag).
        """
        disabled = []
        for region in self.regions.values():
            if region.name == self.master_region or not region.db_healthy:
                continue
            lag = self.measured_lag(region.name)
            obs.gauge("store.replication.lag", region=region.name).set(
                lag, at=self.scheduler.clock.now
            )
            if lag > self.max_lag:
                self.disable_database(region.name)
                disabled.append(region.name)
        return disabled

    def disable_database(self, region_name: str) -> None:
        """Take a region's database out of service.

        Its read service replicas temporarily redirect reads to the master
        database (paper section 4.3.3); a disabled master waits for
        :meth:`promote_nearest`.
        """
        self.regions[region_name].db_healthy = False
        self._rebind()

    def recover_database(self, region_name: str) -> None:
        """Bring a disabled database back: resync, then serve locally again."""
        if not self.regions[region_name].db_healthy:
            self.rejoin_old_master(region_name)

    def rejoin_old_master(self, region_name: str) -> None:
        """A recovered database rejoins as a replica of the current master."""
        if region_name == self.master_region:
            raise ReplicationError(
                f"{region_name} is the current master; a failed master is "
                "replaced by promote_nearest() and rejoins as a replica"
            )
        region = self.regions[region_name]
        self._resync(region)
        region.db_healthy = True
        self._rebind()

    def fail_master(self) -> None:
        """Simulate the master database going down (writes now fail)."""
        self.master.db_healthy = False

    def promote_nearest(self) -> str:
        """Promote the replica in the nearest healthy region to master.

        The promoted store may miss in-flight transactions (asynchronous
        replication loses the tail on master failure); everything already
        applied there is preserved.  Returns the new master region.
        """
        old = self.master
        candidates = sorted(
            (
                region
                for region in self.regions.values()
                if region is not old and region.db_healthy
            ),
            key=lambda region: self._distance(old.name, region.name),
        )
        new_master: RegionState | None = None
        for candidate in candidates:
            if faults.should_inject("replication.promote", region=candidate.name):
                # The candidate failed its promotion health check; fall
                # through to the next-nearest healthy replica.
                obs.counter(
                    "replication.promote_skipped", region=candidate.name
                ).inc()
                continue
            new_master = candidate
            break
        if new_master is None:
            raise ReplicationError("no healthy replica available for promotion")
        self.master_region = new_master.name
        new_master.in_flight.clear()  # the old master's arrivals are stale now
        self.promotions.append((self.scheduler.clock.now, old.name, new_master.name))
        # Move the write tier to the new master region.
        for replica in old.write_replicas:
            replica.crash()
        for replica in new_master.write_replicas:
            replica.recover()  # a region that was master before
        if not new_master.write_replicas:
            for i in range(max(1, len(old.write_replicas))):
                new_master.write_replicas.append(
                    ServiceReplica(
                        f"{new_master.name}-write-{i}",
                        new_master.name,
                        "write",
                        new_master.store,
                    )
                )
        self._follow(new_master.store)
        self._resync_replicas()
        return new_master.name

    def _distance(self, a: str, b: str) -> int:
        return abs(self.region_order.index(a) - self.region_order.index(b))

    # ------------------------------------------------------------------
    # Durability (crash-consistent master recovery)
    # ------------------------------------------------------------------

    def attach_master_durability(self, root: Any, *, fsync: bool = False):
        """Journal the master store's commits to a WAL under ``root``."""
        return self.master.store.attach_durability(root, fsync=fsync)

    def recover_master(self, root: Any, *, fsync: bool = False) -> ObjectStore:
        """Replace a crashed master's store with one recovered from disk.

        The recovered store takes over the master region: it is followed,
        the crashed store's arrivals go stale, and every healthy replica
        resyncs against the recovered journal.  A commit is announced only
        after its WAL append, so a replica's journal is a prefix of what
        recovery restores — the resyncs run in incremental mode.
        """
        master = self.master
        master.store.detach_durability()
        master.store = ObjectStore.recover(
            root, name=f"fbnet-{self.master_region}", fsync=fsync
        )
        master.db_healthy = True
        master.in_flight.clear()
        self._follow(master.store)
        self._resync_replicas()
        return master.store

    # ------------------------------------------------------------------
    # Client access
    # ------------------------------------------------------------------

    def client(self, region_name: str) -> FBNetClient:
        """An application client homed in ``region_name``."""
        if region_name not in self.regions:
            raise ValueError(f"unknown region {region_name!r}")
        return FBNetClient(self, region_name)

    def _read_candidates(
        self, region_name: str, consistency: str
    ) -> list[ServiceReplica]:
        if consistency == READ_AFTER_WRITE:
            # Read service replicas deployed for the master database.
            home: list[str] = [self.master_region]
        else:
            home = [region_name]
        ordered_regions = home + sorted(
            (r for r in self.region_order if r not in home),
            key=lambda r: self._distance(home[0], r),
        )
        candidates: list[ServiceReplica] = []
        for name in ordered_regions:
            candidates.extend(
                replica
                for replica in self.regions[name].read_replicas
                if replica.healthy
            )
        return candidates

    def _write_candidates(self) -> list[ServiceReplica]:
        if not self.master.db_healthy:
            return []
        return [r for r in self.master.write_replicas if r.healthy]


class FBNetClient:
    """A region-homed application client speaking the RPC wire format."""

    def __init__(self, cluster: ReplicatedFBNet, region: str):
        self._cluster = cluster
        self.region = region

    # -- reads ---------------------------------------------------------------

    def _read(self, method: str, args: dict[str, Any], consistency: str) -> Any:
        return self._call(
            RpcRequest(service="read", method=method, args=args),
            lambda: self._cluster._read_candidates(self.region, consistency),
        )

    def get(
        self,
        model_name: str,
        fields: list[str] | None = None,
        query: Query | None = None,
        consistency: str = READ_LOCAL,
    ) -> list[dict[str, Any]]:
        args = {
            "model": model_name,
            "fields": fields,
            "query": query.to_wire() if query else None,
        }
        return self._read("get", args, consistency)

    def multi_get(
        self,
        specs: list[Any],
        consistency: str = READ_LOCAL,
    ) -> list[list[dict[str, Any]]]:
        """Batch many ``get`` specs into one RPC (one result list per spec).

        Specs are ``(model, fields, query)`` tuples or their wire-dict
        form; against a caching deployment the whole batch is served from
        the region cache, with misses filled together.
        """
        wire_specs = [
            {"model": model, "fields": fields, "query": query}
            for model, fields, query in map(_normalize_spec, specs)
        ]
        return self._read("multi_get", {"specs": wire_specs}, consistency)

    def count(
        self,
        model_name: str,
        query: Query | None = None,
        consistency: str = READ_LOCAL,
    ) -> int:
        args = {"model": model_name, "query": query.to_wire() if query else None}
        return self._read("count", args, consistency)

    # -- writes (forwarded to the master region) ------------------------------

    def _write(self, method: str, args: dict[str, Any]) -> Any:
        return self._call(
            RpcRequest(service="write", method=method, args=args),
            self._cluster._write_candidates,
            write=True,
        )

    def create_objects(self, specs: list[tuple[str, dict[str, Any]]]) -> list[int]:
        return self._write(
            "create_objects", {"specs": [[name, values] for name, values in specs]}
        )

    def update_objects(self, updates: list[tuple[str, int, dict[str, Any]]]) -> int:
        return self._write(
            "update_objects", {"updates": [[m, i, v] for m, i, v in updates]}
        )

    def delete_objects(self, targets: list[tuple[str, int]]) -> int:
        return self._write(
            "delete_objects", {"targets": [[m, i] for m, i in targets]}
        )

    # -- plumbing --------------------------------------------------------------

    def _call(
        self,
        request: RpcRequest,
        candidates: Callable[[], list[ServiceReplica]] | list[ServiceReplica],
        write: bool = False,
    ) -> Any:
        """One logical RPC: sweep candidates, retrying transient failures.

        Each *sweep* walks the current candidate list (re-evaluated per
        attempt — failover may have changed it), redirecting past
        unavailable replicas.  When a whole sweep fails transiently the
        cluster's :class:`RetryPolicy` backs off on the simulated clock
        and tries again (``rpc.retry``); non-transient errors (bad
        requests, server-side exceptions) propagate immediately.
        """
        wire = request.to_wire()
        candidates_fn = candidates if callable(candidates) else lambda: candidates

        def sweep() -> Any:
            candidates = candidates_fn()
            if not candidates:
                kind = "master write" if write else "read"
                raise ReplicaUnavailable(f"no live {kind} service replicas")
            last_error: Exception | None = None
            for replica in candidates:
                try:
                    return RpcResponse.from_wire(replica.handle(wire)).result()
                except ReplicaUnavailable as exc:
                    last_error = exc
                    if not replica.healthy:  # crashed, not a transient fault
                        obs.counter(
                            "rpc.redirect", service=request.service, region=self.region
                        ).inc()
                    continue  # redirect to the next replica
            raise ReplicaUnavailable(f"all service replicas failed: {last_error}")

        policy = self._cluster.retry_policy
        try:
            return policy.execute(
                sweep,
                retryable=(ReplicaUnavailable,),
                sleep=self._cluster.scheduler.run_for,
                clock=self._cluster.scheduler.clock,
                on_retry=lambda _i, _exc: obs.counter(
                    "rpc.retry", service=request.service, region=self.region
                ).inc(),
            )
        except GiveUp as exc:
            raise ReplicationError(str(exc.last_error)) from exc.last_error
