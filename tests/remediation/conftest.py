"""Remediation-suite fixtures."""

from __future__ import annotations

import pytest

from repro.fbnet.models import ClusterGeneration


def manual_change(device) -> str:
    """An engineer edits a device out of band (valid, vendor-aware)."""
    if device.vendor == "vendor1":
        hacked = device.running_config + "interface et9/9\n no shutdown\n!\n"
    else:
        hacked = device.running_config + "interfaces {\n    et9/9 {\n    }\n}\n"
    device.commit(hacked)
    return hacked


@pytest.fixture
def dc_network(robotron):
    """A provisioned, monitored 20-device DC cluster (4 DR + 4 PSW + 12 TOR)."""
    env = robotron.env
    cluster = robotron.build_cluster(
        "dc01.c01", env.datacenters["dc01"], ClusterGeneration.DC_GEN2
    )
    robotron.boot_fleet()
    report = robotron.provision_cluster(cluster)
    assert report.ok, report.failed
    robotron.attach_monitoring()
    robotron.cluster = cluster  # type: ignore[attr-defined]
    return robotron
