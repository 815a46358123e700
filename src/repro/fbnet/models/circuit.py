"""Circuit and link-group models (paper Figures 4-5, 7).

A circuit is a point-to-point physical connection terminating at exactly
two physical interfaces.  A link group captures a topology template's
"group of links" between a device pair — a bundle of N parallel circuits
whose endpoint ports are aggregated with LACP on both sides.
"""

from __future__ import annotations

from repro.fbnet.base import Model, ModelGroup
from repro.fbnet.fields import CharField, EnumField, ForeignKey, IntField, OnDelete
from repro.fbnet.models.device import Device
from repro.fbnet.models.enums import CircuitStatus
from repro.fbnet.models.interface import AggregatedInterface, PhysicalInterface

__all__ = ["Circuit", "LinkGroup"]


class LinkGroup(Model):
    """A bundle of parallel circuits between two devices (Figure 7).

    The two ends of the bundle are the aggregated interfaces on each
    device; member circuits reference their link group.
    """

    class Meta:
        group = ModelGroup.DESIRED

    name = CharField(unique=True, help_text="e.g. 'pop07.psw1--pop07.pr1'.")
    a_agg_interface = ForeignKey(
        AggregatedInterface, on_delete=OnDelete.PROTECT, related_name="a_link_groups"
    )
    z_agg_interface = ForeignKey(
        AggregatedInterface, on_delete=OnDelete.PROTECT, related_name="z_link_groups"
    )


class Circuit(Model):
    """A point-to-point circuit between two physical interfaces.

    Design rule (enforced by :mod:`repro.design.validation`): a circuit must
    be associated with exactly two physical interfaces, on different
    devices.  ``a_interface``/``z_interface`` may be null mid-migration —
    the circuit-migration tool disconnects one end before reconnecting it.
    """

    class Meta:
        group = ModelGroup.DESIRED

    name = CharField(unique=True, help_text="Circuit id, e.g. 'cid-000123'.")
    a_interface = ForeignKey(
        PhysicalInterface,
        null=True,
        on_delete=OnDelete.PROTECT,
        related_name="a_circuits",
    )
    z_interface = ForeignKey(
        PhysicalInterface,
        null=True,
        on_delete=OnDelete.PROTECT,
        related_name="z_circuits",
    )
    link_group = ForeignKey(LinkGroup, null=True, on_delete=OnDelete.SET_NULL)
    status = EnumField(CircuitStatus, default=CircuitStatus.PLANNED)
    provider = CharField(default="", help_text="Circuit provider for long-haul spans.")
    speed_mbps = IntField(default=10_000, min_value=10)

    def endpoints(self) -> tuple[tuple[Device, PhysicalInterface], ...] | None:
        """``((device, interface), (device, interface))`` for the A and Z
        ends — or ``None`` while either end is disconnected."""
        a_pif, z_pif = self.related("a_interface"), self.related("z_interface")
        if a_pif is None or z_pif is None:
            return None
        return (a_pif.device(), a_pif), (z_pif.device(), z_pif)
