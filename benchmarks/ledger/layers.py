"""Which ``src/`` entry points belong to which layer.

The only file of the ledger that names ``src/`` symbols for tracing.
Each line is ``layer, defining module:owner, names``; only public names
(plus ``__call__``, the public face of a callable object) are listed,
so the layers are measured from outside.  A module-level function that
another module imported by name is also patched there (``sites``),
because that module calls its own reference.

Mapping notes, where a module is not a layer of its own in ``spec.LAYERS``:
``SyslogCollector`` (the fan-in in front of the classifiers) counts
with ``monitoring.classifier``; ``Engine.poll`` with ``monitoring.jobs``;
``Robotron.recover`` and the stores' ``recover`` with ``fbnet.durability``.
The ``Robotron`` facade itself is not a layer: its own few lines show up
as unattributed time.
"""

from __future__ import annotations

from spans import Entry


def _entries(
    layer: str,
    owner: str,
    names: str,
    *,
    sites: tuple[str, ...] = (),
    kind: str = "call",
    measure: str = "",
) -> list[Entry]:
    sep = "" if owner.endswith(":") else "."
    return [
        Entry(layer, f"{owner}{sep}{name}", sites=sites, kind=kind, measure=measure)
        for name in names.split()
    ]


_STORE = "repro.fbnet.store:ObjectStore"
_SHARDED = "repro.fbnet.sharding:ShardedObjectStore"

ENTRIES: list[Entry] = [
    # -- design ------------------------------------------------------------
    *_entries("design", "repro.design.fleet:", "build_fleet"),
    *_entries(
        "design", "repro.core.seeds:", "seed_environment",
        sites=("repro.design.fleet",),
    ),
    *_entries(
        "design", "repro.design.cluster:", "build_cluster",
        sites=("repro.design.fleet", "repro.core.robotron"),
    ),
    *_entries(
        "design", "repro.design.materializer:", "materialize_cluster",
        sites=("repro.design.cluster",),
    ),
    *_entries(
        "design", "repro.design.bundles:", "build_bundle",
        sites=(
            "repro.design.materializer",
            "repro.design.portmap",
            "repro.design.backbone",
        ),
    ),
    *_entries(
        "design", "repro.design.backbone:BackboneDesignTool",
        "add_router add_circuit join_mesh",
    ),
    *_entries(
        "design.ipam", "repro.design.ipam:IpAllocator",
        "allocate_subnet assign_p2p assign_host allocated_subnets",
    ),
    # -- fbnet store ---------------------------------------------------------
    *_entries("fbnet.store.write", _STORE, "create update delete save apply_record"),
    *_entries("fbnet.store.write", _STORE, "transaction", kind="context"),
    *_entries("fbnet.store.read", _STORE, "get count exists first"),
    *_entries("fbnet.store.read", _STORE, "all filter referrers", measure="rows"),
    *_entries("fbnet.sharding", _SHARDED, "get count save delete apply_record shard_of"),
    *_entries("fbnet.sharding", _SHARDED, "all filter", measure="rows"),
    *_entries("fbnet.sharding", _SHARDED, "transaction", kind="context"),
    # -- durability ----------------------------------------------------------
    *_entries(
        "fbnet.durability", "repro.fbnet.durability:DurabilityEngine",
        "log_commit log_applied snapshot close",
    ),
    *_entries(
        "fbnet.durability", "repro.fbnet.sharding:ShardedDurability",
        "log_order snapshot close",
    ),
    *_entries("fbnet.durability", "repro.fbnet.durability:", "recover_store store_digest"),
    *_entries("fbnet.durability", _STORE, "recover attach_durability detach_durability"),
    *_entries("fbnet.durability", _SHARDED, "recover attach_durability detach_durability"),
    *_entries("fbnet.durability", "repro.core.robotron:Robotron", "recover"),
    # -- replication, rpc, cache, api ----------------------------------------
    *_entries(
        "fbnet.replication", "repro.fbnet.replication:FBNetClient",
        "get multi_get count create_objects update_objects delete_objects",
    ),
    *_entries(
        "fbnet.replication", "repro.fbnet.replication:ReplicatedFBNet",
        "client check_health measured_lag",
    ),
    *_entries("fbnet.rpc", "repro.fbnet.rpc:ServiceReplica", "handle", measure="wire"),
    *_entries("fbnet.rpc", "repro.fbnet.rpc:", "encode_message decode_message"),
    *_entries("fbnet.rpc", "repro.fbnet.rpc:ReadService", "dispatch"),
    *_entries("fbnet.rpc", "repro.fbnet.rpc:CachingReadService", "dispatch"),
    *_entries("fbnet.rpc", "repro.fbnet.rpc:WriteService", "dispatch"),
    *_entries(
        "fbnet.rpc.cache", "repro.fbnet.rpc:ReadCache",
        "get count multi_get advance clear cache_key stats",
    ),
    *_entries("fbnet.api", "repro.fbnet.api:ReadApi", "get count schema"),
    *_entries(
        "fbnet.api", "repro.fbnet.api:WriteApi",
        "create_objects update_objects delete_objects",
    ),
    # -- configgen -----------------------------------------------------------
    *_entries(
        "configgen.generator", "repro.configgen.generator:ConfigGenerator",
        "generate_device generate_devices generate_location regenerate_dirty "
        "is_stale subscribe",
    ),
    *_entries(
        "configgen.derive", "repro.configgen.derive:", "derive_device_data",
        sites=("repro.configgen.generator",),
    ),
    *_entries(
        "configgen.derive", "repro.configgen.derive:", "fetch_location_devices",
        sites=("repro.configgen.generator",),
    ),
    *_entries(
        "configgen.schema", "repro.configgen.schema:SchemaRegistry",
        "dumps loads validate",
    ),
    *_entries("configgen.engine", "repro.configgen.engine:Template", "render"),
    # -- parallel, deploy, devices -------------------------------------------
    *_entries(
        "parallel.pool", "repro.parallel.pool:", "run_tasks",
        sites=("repro.parallel",),
    ),
    *_entries(
        "deploy.deployer", "repro.deploy.deployer:Deployer",
        "initial_provision deploy dryrun atomic_deploy push_phase phased_deploy "
        "unchanged",
    ),
    *_entries(
        "devices.emulator", "repro.devices.emulator:EmulatedDevice",
        "boot erase copy_config dryrun commit emit_syslog snmp_get cli_show "
        "lldp_neighbors bgp_summary interface_oper_status reachable",
    ),
    *_entries(
        "devices.fleet", "repro.devices.fleet:DeviceFleet",
        "from_fbnet add_device get wire unwire peer_of device_with_ip "
        "bgp_session_state subscribe_syslog",
    ),
    # -- monitoring ----------------------------------------------------------
    *_entries(
        "monitoring.jobs", "repro.monitoring.jobs:JobManager",
        "run_job run_adhoc add_job register_backend",
    ),
    *_entries("monitoring.jobs", "repro.monitoring.engines:Engine", "poll"),
    *_entries("monitoring.backends", "repro.monitoring.backends:TimeSeriesBackend", "store"),
    *_entries("monitoring.backends", "repro.monitoring.backends:DerivedModelBackend", "store"),
    *_entries("monitoring.backends", "repro.monitoring.backends:ConfigBackupBackend", "store"),
    *_entries("monitoring.classifier", "repro.monitoring.classifier:Classifier", "__call__ match"),
    *_entries("monitoring.classifier", "repro.monitoring.syslog:SyslogCollector", "__call__"),
    *_entries(
        "monitoring.confmon", "repro.monitoring.confmon:ConfigMonitor",
        "__call__ check_device check_devices check_all note_regenerated priority_sweep",
    ),
    *_entries(
        "monitoring.audit", "repro.monitoring.audit:", "run_audit",
        sites=("repro.core.robotron",),
    ),
    *_entries(
        "monitoring.audit", "repro.monitoring.audit:",
        "audit_circuits audit_interfaces audit_bgp_sessions",
    ),
]
