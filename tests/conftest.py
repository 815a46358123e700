"""Shared fixtures: stores, seeded environments, and provisioned networks."""

from __future__ import annotations

import os

import pytest

from repro import Robotron, faults, obs, seed_environment
from repro.fbnet.models import ClusterGeneration
from repro.fbnet.store import ObjectStore
from repro.simulation.clock import EventScheduler


@pytest.fixture(autouse=True)
def _reset_obs():
    """Give every test a clean, enabled global telemetry state."""
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(autouse=True)
def _reset_faults():
    """No fault plan leaks into (or out of) any test."""
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    """The seed of every seeded suite: ``CHAOS_SEED`` (default 1337), so
    CI replays them under fixed seeds and a failure reproduces
    byte-for-byte (``CHAOS_SEED=20160816 pytest -m faults``)."""
    return int(os.environ.get("CHAOS_SEED", "1337"))


@pytest.fixture
def store() -> ObjectStore:
    """An empty FBNet store."""
    return ObjectStore()


@pytest.fixture
def scheduler() -> EventScheduler:
    return EventScheduler()


@pytest.fixture
def env(store):
    """A store seeded with the standard catalog (profiles, pools, sites)."""
    return seed_environment(store)


@pytest.fixture
def robotron():
    """A Robotron instance over a freshly seeded store."""
    instance = Robotron()
    instance.env = seed_environment(instance.store)  # type: ignore[attr-defined]
    return instance


@pytest.fixture
def pop_network(robotron):
    """A provisioned, monitored 4-post POP cluster (the paper's example)."""
    env = robotron.env
    cluster = robotron.build_cluster(
        "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
    )
    robotron.boot_fleet()
    report = robotron.provision_cluster(cluster)
    assert report.ok, report.failed
    robotron.attach_monitoring()
    robotron.cluster = cluster  # type: ignore[attr-defined]
    return robotron
