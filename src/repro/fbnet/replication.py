"""FBNet's multi-region replication and failover (paper section 4.3.3).

The paper runs one MySQL master plus one slave per data center, replicated
asynchronously with a typical lag under one second.  Reads are served by
region-local service replicas; writes are forwarded to the master region.
This module reproduces those semantics on the simulated clock:

* every committed master transaction ships to each replica region and is
  applied after that region's replication lag;
* a replica database is disabled when it fails health checks or when its
  replication lag exceeds the configured maximum — its region's service
  replicas then *redirect reads to the master database* until it recovers;
* when the master fails, the replica in the **nearest** region is promoted;
  the new master serves all reads and writes destined for the old master;
* when a service replica process crashes, requests redirect to surviving
  replicas in the same region, then to the nearest live region.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field as dc_field
from typing import Any

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
    #: Replication lag applied to records shipped to this region.
    lag: float = 0.5
    #: Commit timestamps of shipped-but-unapplied batches (lag measurement).
    in_flight: list[float] = dc_field(default_factory=list)
    #: ``(base journal position, records)`` batches that arrived while the
    #: database was disabled.
    backlog: list[tuple[int, list[ChangeRecord]]] = dc_field(default_factory=list)
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
        self._install_shipping(master.store)
        #: Promotion history for tests/benches: (time, old master, new master).
        self.promotions: list[tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    @property
    def master(self) -> RegionState:
        return self.regions[self.master_region]

    def _install_shipping(self, master_store: ObjectStore) -> None:
        # Each shipped batch carries the master journal position of its
        # first record, so receivers can skip already-applied records (a
        # batch redelivered after a resync) and detect gaps.  Listener
        # delivery is in order — including fault-deferred backlog flushes —
        # so a monotonic counter from the install-time position is exact.
        shipped_position = master_store.journal_position

        def ship(records: list[ChangeRecord]) -> None:
            nonlocal shipped_position
            if not records:
                return
            base = shipped_position
            shipped_position += len(records)
            committed_at = self.scheduler.clock.now
            for region in self.regions.values():
                if region.store is master_store:
                    continue
                region.in_flight.append(committed_at)
                batch = list(records)
                self.scheduler.call_at(
                    committed_at + region.lag,
                    lambda r=region, b=batch, t=committed_at, p=base: self._arrive(
                        r, b, t, base=p
                    ),
                    name=f"replicate->{region.name}",
                )

        master_store.add_commit_listener(ship)

    def _arrive(
        self,
        region: RegionState,
        records: list[ChangeRecord],
        committed_at: float,
        attempt: int = 0,
        base: int = 0,
    ) -> None:
        if region.name == self.master_region:
            if committed_at in region.in_flight:
                region.in_flight.remove(committed_at)
            return  # region was promoted while the batch was in flight
        if faults.should_inject("replication.apply", region=region.name):
            # A lag spike: the batch fails to apply and is redelivered after
            # a backoff.  The commit timestamp stays in ``in_flight`` so
            # measured_lag() grows and check_health() can disable the DB —
            # the paper's high-replication-lag scenario.
            obs.counter("replication.retry", region=region.name).inc()
            delay = max(self.retry_policy.backoff(attempt), region.lag)
            self.scheduler.call_after(
                delay,
                lambda: self._arrive(region, records, committed_at, attempt + 1, base),
                name=f"replicate-retry->{region.name}",
            )
            return
        if committed_at in region.in_flight:
            region.in_flight.remove(committed_at)
        obs.counter("store.replication.batches", region=region.name).inc()
        obs.gauge("store.replication.lag", region=region.name).set(
            self.scheduler.clock.now - committed_at, at=self.scheduler.clock.now
        )
        if not region.db_healthy:
            region.backlog.append((base, records))
            return
        self._deliver(region, records, base)

    def _deliver(
        self,
        region: RegionState,
        records: list[ChangeRecord],
        base: int,
        redeliveries: int = 0,
    ) -> None:
        """Apply an in-order batch, deferring out-of-order arrivals.

        ``base`` ahead of the replica's applied position means an earlier
        batch is still in flight (retry backoff can reorder deliveries) —
        redeliver after a lag's wait; if the gap never closes, fall back
        to a resync, which covers this batch too.
        """
        if region.name == self.master_region:
            return  # promoted while a redelivery was pending
        applied = region.applied_position()
        if base > applied:
            if redeliveries >= 8:
                obs.counter("replication.gap_resync", region=region.name).inc()
                self._resync(region)
                return
            self.scheduler.call_after(
                max(region.lag, 0.1),
                lambda: self._deliver(region, records, base, redeliveries + 1),
                name=f"replicate-reorder->{region.name}",
            )
            return
        self._apply_batch(region, records, base)

    @staticmethod
    def _apply_batch(
        region: RegionState, records: list[ChangeRecord], base: int
    ) -> None:
        for offset, record in enumerate(records):
            if base + offset < region.applied_position():
                continue  # already applied (redelivery after a resync)
            region.store.apply_record(record)

    # ------------------------------------------------------------------
    # Health and failover
    # ------------------------------------------------------------------

    def measured_lag(self, region_name: str) -> float:
        """Replication lag of ``region_name``: age of its oldest in-flight batch."""
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
        database (paper section 4.3.3).
        """
        region = self.regions[region_name]
        region.db_healthy = False
        if region_name == self.master_region:
            return  # master failure is handled by promote()
        for replica in region.read_replicas:
            # While redirected, cached deployments share the master
            # region's cache — it is bound to the master store.
            replica.retarget(self.master.store, self.master.cache)

    def recover_database(self, region_name: str) -> None:
        """Bring a region's database back: resync, drain backlog, reattach."""
        region = self.regions[region_name]
        if region.db_healthy:
            return
        if region_name == self.master_region:
            raise ReplicationError(
                "recovering a failed master requires promote() first; "
                "it rejoins as a replica"
            )
        self._resync(region)
        region.db_healthy = True
        for replica in region.read_replicas:
            replica.retarget(region.store, region.cache)

    def _resync(self, region: RegionState) -> None:
        """Bring a region's store in line with the master's journal.

        When the replica's journal is a prefix of the master's — the
        normal case: replication only ever lags, it does not diverge —
        the resync is *incremental*: just the tail past the replica's
        ``applied_position()`` is applied.  Any divergence (a record that
        differs, or a replica ahead of the master, as after a lossy
        failover) falls back to a full rebuild from scratch.
        """
        master_journal = self.master.store.journal
        position = region.applied_position()
        if (
            position <= len(master_journal)
            and region.store.journal == master_journal[:position]
        ):
            mode = "incremental"
            for record in master_journal[position:]:
                region.store.apply_record(record)
        else:
            mode = "full"
            old_store = region.store
            fresh = self._store_factory(f"fbnet-{region.name}")
            for record in master_journal:
                fresh.apply_record(record)
            region.store.detach_durability()
            region.store = fresh
            if region.cache is not None:
                # A full rebuild replaces the store, so the cache's
                # journal cursors mean nothing — start one empty over the
                # fresh store.  (Incremental resync keeps the cache: the
                # applied tail lands in the journal and ``advance()``
                # invalidates precisely.)
                region.cache = ReadCache(fresh, name=region.cache.name)
            for replica in region.read_replicas:
                if replica._store is old_store:
                    replica.retarget(fresh, region.cache)
        obs.counter(
            "store.replication.resync", region=region.name, mode=mode
        ).inc()
        region.backlog.clear()
        region.in_flight.clear()

    def fail_master(self) -> None:
        """Simulate the master database going down (writes now fail)."""
        self.master.db_healthy = False

    def promote_nearest(self) -> str:
        """Promote the replica in the nearest healthy region to master.

        The promoted store may miss in-flight transactions (asynchronous
        replication loses the tail on master failure); everything already
        applied there is preserved.  Returns the new master region.
        """
        old_master = self.master_region
        candidates = sorted(
            (
                region
                for region in self.regions.values()
                if region.name != old_master and region.db_healthy
            ),
            key=lambda region: self._distance(old_master, region.name),
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
        # Apply anything that already arrived but was backlogged, oldest
        # (lowest base position) first, skipping already-applied records.
        for batch_base, batch in sorted(new_master.backlog, key=lambda item: item[0]):
            if batch_base > new_master.applied_position():
                break  # a gap: the missing batch died with the old master
            self._apply_batch(new_master, batch, batch_base)
        new_master.backlog.clear()
        self.master_region = new_master.name
        self.promotions.append(
            (self.scheduler.clock.now, old_master, new_master.name)
        )
        # Move the write tier to the new master region.
        old = self.regions[old_master]
        for replica in old.write_replicas:
            replica.crash()
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
        self._install_shipping(new_master.store)
        # Healthy replicas resync from the new master to a consistent base.
        for region in self.regions.values():
            if region.name == self.master_region or not region.db_healthy:
                continue
            self._resync(region)
            for replica in region.read_replicas:
                replica.retarget(region.store, region.cache)
        return new_master.name

    def rejoin_old_master(self, region_name: str) -> None:
        """A recovered ex-master rejoins as a replica of the current master."""
        region = self.regions[region_name]
        if region_name == self.master_region:
            raise ReplicationError(f"{region_name} is the current master")
        self._resync(region)
        region.db_healthy = True
        for replica in region.read_replicas:
            replica.retarget(region.store, region.cache)

    def _distance(self, a: str, b: str) -> int:
        return abs(self.region_order.index(a) - self.region_order.index(b))

    # ------------------------------------------------------------------
    # Durability (crash-consistent master recovery)
    # ------------------------------------------------------------------

    def attach_master_durability(
        self, root: Any, *, snapshot_every: int | None = None, fsync: bool = False
    ):
        """Journal the master store's commits to a WAL under ``root``."""
        return self.master.store.attach_durability(
            root, snapshot_every=snapshot_every, fsync=fsync
        )

    def recover_master(
        self, root: Any, *, snapshot_every: int | None = None, fsync: bool = False
    ) -> ObjectStore:
        """Replace a crashed master's store with one recovered from disk.

        The recovered store takes over the master region: shipping is
        reinstalled, the region's service replicas retarget it, and every
        healthy replica resyncs against the recovered journal.  Because
        shipping happens *after* the WAL append, a replica's journal is
        always a prefix of what recovery restores — the resyncs run in
        incremental mode.
        """
        master = self.master
        master.store.detach_durability()
        recovered = ObjectStore.recover(
            root,
            name=f"fbnet-{self.master_region}",
            snapshot_every=snapshot_every,
            fsync=fsync,
        )
        master.store = recovered
        master.db_healthy = True
        master.in_flight.clear()
        master.backlog.clear()
        if master.cache is not None:
            master.cache = ReadCache(recovered, name=master.cache.name)
        self._install_shipping(recovered)
        for replica in master.read_replicas:
            replica.retarget(recovered, master.cache)
        for replica in master.write_replicas:
            replica.retarget(recovered)
        for region in self.regions.values():
            if region.name == self.master_region or not region.db_healthy:
                continue
            self._resync(region)
            for replica in region.read_replicas:
                replica.retarget(region.store, region.cache)
        return recovered

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

    def get(
        self,
        model_name: str,
        fields: list[str] | None = None,
        query: Query | None = None,
        consistency: str = READ_LOCAL,
    ) -> list[dict[str, Any]]:
        request = RpcRequest(
            service="read",
            method="get",
            args={
                "model": model_name,
                "fields": fields,
                "query": query.to_wire() if query else None,
            },
        )
        return self._call(
            request,
            lambda: self._cluster._read_candidates(self.region, consistency),
        )

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
        wire_specs = []
        for spec in specs:
            model, fields, query = _normalize_spec(spec)
            wire_specs.append(
                {
                    "model": model,
                    "fields": list(fields) if fields is not None else None,
                    "query": query,
                }
            )
        request = RpcRequest(
            service="read", method="multi_get", args={"specs": wire_specs}
        )
        return self._call(
            request,
            lambda: self._cluster._read_candidates(self.region, consistency),
        )

    def count(
        self,
        model_name: str,
        query: Query | None = None,
        consistency: str = READ_LOCAL,
    ) -> int:
        request = RpcRequest(
            service="read",
            method="count",
            args={"model": model_name, "query": query.to_wire() if query else None},
        )
        return self._call(
            request,
            lambda: self._cluster._read_candidates(self.region, consistency),
        )

    # -- writes (forwarded to the master region) ------------------------------

    def create_objects(self, specs: list[tuple[str, dict[str, Any]]]) -> list[int]:
        request = RpcRequest(
            service="write",
            method="create_objects",
            args={"specs": [[name, values] for name, values in specs]},
        )
        return self._call(request, self._cluster._write_candidates, write=True)

    def update_objects(self, updates: list[tuple[str, int, dict[str, Any]]]) -> int:
        request = RpcRequest(
            service="write",
            method="update_objects",
            args={"updates": [[m, i, v] for m, i, v in updates]},
        )
        return self._call(request, self._cluster._write_candidates, write=True)

    def delete_objects(self, targets: list[tuple[str, int]]) -> int:
        request = RpcRequest(
            service="write",
            method="delete_objects",
            args={"targets": [[m, i] for m, i in targets]},
        )
        return self._call(request, self._cluster._write_candidates, write=True)

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
                    if "is down" in str(exc):
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
