"""FBNet: the vendor-agnostic, network-wide object store (paper section 4).

FBNet is Robotron's *single source of truth*.  Every network component —
physical (devices, linecards, interfaces, circuits) and logical (BGP
sessions, IP prefixes) — is modeled as a typed object with *value fields*
(component data) and *relationship fields* (typed references to other
objects).

The package provides, mirroring the paper:

* :mod:`repro.fbnet.fields` — value field types with per-field validation
  (the ``V6PrefixField`` of Figure 6 lives here).
* :mod:`repro.fbnet.base` — the ``Model`` metaclass and model registry
  (our stand-in for the Django ORM layer).
* :mod:`repro.fbnet.models` — the concrete Desired and Derived models.
* :mod:`repro.fbnet.query` — the ``<field> <op> <rvalue>`` query AST of
  the read APIs (section 4.2.1).
* :mod:`repro.fbnet.store` — the transactional object store.
* :mod:`repro.fbnet.api` — read/write API services (section 4.2).
* :mod:`repro.fbnet.rpc` — the Thrift-like service layer (section 4.3.2).
* :mod:`repro.fbnet.replication` — master/replica replication, failover,
  and service-replica redirection (section 4.3.3).
* :mod:`repro.fbnet.durability` — the write-ahead log and
  crash-consistent recovery (the durable MySQL master of section 4.3.1).
"""

from repro.fbnet.base import Model, ModelGroup, model_registry
from repro.fbnet.changelog import ReadSet
from repro.fbnet.query import And, Expr, Not, Op, Or, Query
from repro.fbnet.rpc import CachingReadService, ReadCache
from repro.fbnet.sharding import ShardAssignment, ShardedObjectStore
from repro.fbnet.store import ObjectStore

# Importing the models package registers every concrete model, so that the
# registry-driven APIs (read API, RPC schema, replication apply) work no
# matter which entry point a caller used.
from repro.fbnet import models as _models  # noqa: E402,F401  (registration side effect)

__all__ = [
    "And",
    "CachingReadService",
    "Expr",
    "Model",
    "ModelGroup",
    "Not",
    "ObjectStore",
    "Op",
    "Or",
    "Query",
    "ReadCache",
    "ReadSet",
    "ShardAssignment",
    "ShardedObjectStore",
    "model_registry",
]
