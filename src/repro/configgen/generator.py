"""The config generation pipeline: fetch → derive → render (paper Figure 10).

For each device the generator derives the vendor-agnostic data struct from
FBNet, checks it once against the config schema, picks the device's vendor
template set from Configerator, renders each section from the checked
struct, and concatenates them into a full device config.  The
generated ("golden") configs are registered so the config monitor can
detect drift (section 5.4.3), and every generation records which FBNet
design state it came from.

Generation is *change-aware* (section 5.3/8): every config carries the
:class:`~repro.fbnet.changelog.ReadSet` of its derivation plus the
template versions it rendered with, and :meth:`ConfigGenerator.
regenerate_dirty` regenerates only the devices the journal's new records
(or a template bump) affect — byte-identical to a full regeneration,
because every read the derivation performs is captured at the store
layer (DESIGN.md §2.10).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property, partial
from time import perf_counter, sleep
from typing import Any, Callable

from repro import faults, obs, parallel
from repro.obs import flight
from repro.common.errors import ConfigGenerationError
from repro.fbnet.base import Model
from repro.fbnet.changelog import JournalFollower, ReadSet, changes_since
from repro.fbnet.models.device import Device
from repro.fbnet.store import ObjectStore
from repro.configgen.configerator import Configerator
from repro.configgen.derive import derive_device_data, fetch_location_devices
from repro.configgen.engine import Template
from repro.configgen.schema import CONFIG_SCHEMA

__all__ = ["ConfigGenerator", "DeviceConfig", "IncrementalGenReport"]

#: Config sections, rendered and concatenated in this order.
SECTIONS = ("system", "acl", "policy", "interfaces", "bgp", "mpls")


@dataclass(frozen=True)
class DeviceConfig:
    """One generated device configuration."""

    device_name: str
    vendor: str
    text: str
    #: The vendor-agnostic data struct the config was rendered from.
    data: dict[str, Any] = field(repr=False, default_factory=dict)
    #: FBNet journal position at generation time — used to detect stale
    #: configs (the section 8 war story).
    design_position: int = 0
    #: Everything the derivation read from FBNet; ``None`` when the config
    #: predates read tracking (treated as always-dirty).
    read_set: ReadSet | None = field(default=None, repr=False, compare=False)
    #: ``template path -> Configerator version`` rendered with, so template
    #: bumps dirty exactly the devices that used the bumped template.
    template_versions: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    @cached_property
    def sha(self) -> str:
        # cached_property stores straight into the instance __dict__, so the
        # hash of the (immutable) text is computed at most once even though
        # the dataclass is frozen.
        return hashlib.sha256(self.text.encode()).hexdigest()

    def lines(self) -> list[str]:
        return self.text.splitlines()


@dataclass
class IncrementalGenReport:
    """Outcome of one :meth:`ConfigGenerator.regenerate_dirty` pass."""

    #: Journal position the pass caught golden configs up to.
    position: int = 0
    #: Journal records followed by this pass: the delta since the
    #: generator's cursor, each looked up once in the read-set index.
    records_scanned: int = 0
    #: Device name -> why it was regenerated (``"new"``, ``"untracked"``,
    #: ``"ahead"`` for a golden config generated past the journal's end,
    #: ``"template"``, or ``"<model>#<id> <op>"`` for a journal match).
    dirty: dict[str, str] = field(default_factory=dict)
    #: Device name -> the flight-recorder change id of the journal record
    #: that dirtied it ("" when the reason was not a journal match, or the
    #: matching record was written outside any change context).
    origins: dict[str, str] = field(default_factory=dict)
    #: Freshly generated configs, by device name (the dirty subset).
    regenerated: dict[str, DeviceConfig] = field(default_factory=dict)
    #: Devices whose golden config was still current.
    skipped: list[str] = field(default_factory=list)
    #: Golden entries dropped because the device left the design.
    retired: list[str] = field(default_factory=list)

    @property
    def devices_total(self) -> int:
        return len(self.regenerated) + len(self.skipped)


class ConfigGenerator:
    """Generates vendor-specific configs from FBNet Desired state."""

    def __init__(
        self,
        store: ObjectStore,
        configerator: Configerator | None = None,
        *,
        io_latency: float = 0.0,
    ):
        self._store = store
        self.configerator = configerator or Configerator()
        #: Emulated per-device management-plane round trip (wall seconds
        #: slept inside each render).  At fleet scale the paper's
        #: generation cost is dominated by per-device I/O; the worker
        #: pool exists to overlap exactly this, and the parallel
        #: benchmark sets it to a measured multiple of the render cost.
        self.io_latency = float(io_latency)
        # Compiled template cache: path -> (version, compiled template).
        # Keyed by path alone so a Configerator version bump *replaces* the
        # superseded entry instead of accumulating one entry per version.
        self._compiled: dict[str, tuple[int, Template]] = {}
        #: Golden configs by device name — what monitoring compares against.
        #: Written only by :meth:`adopt` and the retire step.
        self.golden: dict[str, DeviceConfig] = {}
        # The journal, followed for the golden configs' read-sets, and per
        # device why its golden config is invalid: ``(reason, origin)``.
        self._follower = JournalFollower(store)
        self._marks: dict[str, tuple[str, str]] = {}
        # Called with each batch of freshly generated configs (ConfMon uses
        # this to point drift sweeps at just-regenerated devices).
        self._subscribers: list[Callable[[list[DeviceConfig]], None]] = []

    # ------------------------------------------------------------------
    # Regeneration announcements
    # ------------------------------------------------------------------

    def subscribe(self, listener: Callable[[list[DeviceConfig]], None]) -> None:
        """Register a listener for freshly generated config batches."""
        self._subscribers.append(listener)

    def _announce(self, configs: list[DeviceConfig]) -> None:
        if not configs:
            return
        for listener in self._subscribers:
            listener(configs)

    # ------------------------------------------------------------------
    # Template access
    # ------------------------------------------------------------------

    def _template(self, vendor: str, section: str) -> tuple[Template, int]:
        """The compiled template for one section, plus its current version."""
        path = f"{vendor}/{section}.tmpl"
        if not self.configerator.exists(path):
            raise ConfigGenerationError(
                f"no template for vendor {vendor!r} section {section!r} "
                f"(expected {path} in Configerator)"
            )
        version = self.configerator.current_version(path)
        cached = self._compiled.get(path)
        if cached is not None and cached[0] == version:
            obs.counter("configgen.template_cache", result="hit").inc()
            return cached[1], version
        obs.counter("configgen.template_cache", result="miss").inc()
        template = Template(self.configerator.get(path), name=path)
        self._compiled[path] = (version, template)
        return template, version

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def generate_device(self, device: Model) -> DeviceConfig:
        """Generate (and register as golden) one device's full config."""
        config = self._generate(device)
        self._announce([config])
        return config

    def _generate(self, device: Model) -> DeviceConfig:
        config = self._render(device)
        self.adopt(config)
        return config

    def adopt(self, config: DeviceConfig) -> None:
        """Register ``config`` as its device's golden config.

        The one way a golden config comes to be: its read-set replaces
        the device's entry in the index and the device's mark is cleared
        — whatever invalidated the previous golden is incorporated now.
        """
        name = config.device_name
        self.golden[name] = config
        self._marks.pop(name, None)
        if config.read_set is None:
            self._follower.index.discard(name)
        else:
            self._follower.index.put(name, config.read_set)
        # Only a hand-built config can sit behind the cursor (follow its
        # records again) or past the journal's end (nothing can vouch for it).
        self._follower.rewind(config.design_position)
        if config.design_position > self._store.journal_position:
            self._marks[name] = ("ahead", "")

    def _render(self, device: Model) -> DeviceConfig:
        """Fetch → derive → render one device; pure (no generator state).

        This is the unit of work the pool fans out: it reads the store
        (per-task read tracking), renders from the pre-compiled
        template cache, and returns the config without touching
        ``self.golden`` — the coordinator registers results in task-key
        order so the outcome is identical at any worker count.
        """
        if faults.should_inject("configgen.render", device=device.name):
            raise ConfigGenerationError(f"{device.name}: injected render failure")
        if self.io_latency > 0.0:
            sleep(self.io_latency)
        started = perf_counter() if obs.enabled() else None
        # Capture the generation position *before* deriving: any record
        # committed mid-derivation must be re-examined by the next
        # regenerate_dirty pass, not silently assumed incorporated.
        position = self._store.journal_position
        read_set = ReadSet()
        # The device object itself is handed in, not read through the store
        # inside the tracked block — record it explicitly.
        if device.id is not None:
            read_set.add_object(type(device).__name__, device.id)
        with self._store.track_reads(read_set):
            built = derive_device_data(self._store, device)
        # The one check of the pipeline, where derive hands the struct to
        # render: ``data`` is from here what the reader saw (fresh dicts and
        # lists, defaults filled), and a struct the schema refuses renders
        # nothing.
        data = CONFIG_SCHEMA.validate("Device", built)
        vendor = data["vendor"]
        parts = []
        template_versions: dict[str, int] = {}
        for section in SECTIONS:
            template, version = self._template(vendor, section)
            template_versions[f"{vendor}/{section}.tmpl"] = version
            rendered = template.render({"device": data})
            if rendered.strip():
                parts.append(rendered.rstrip("\n"))
        config = DeviceConfig(
            device_name=device.name,
            vendor=vendor,
            text="\n".join(parts) + "\n",
            data=data,
            design_position=position,
            read_set=read_set,
            template_versions=template_versions,
        )
        obs.counter("configgen.render", vendor=vendor).inc()
        if started is not None:
            obs.histogram("configgen.render.latency", vendor=vendor).observe(
                perf_counter() - started
            )
        return config

    def _warm_templates(self, devices: list[Model]) -> None:
        """Pre-compile every template a batch will use, on the coordinator.

        Workers then only *read* the compiled-template cache, so the
        ``configgen.template_cache`` hit/miss counters (and the cache
        itself) don't depend on which worker renders first.
        """
        for vendor in sorted({device.vendor().value for device in devices}):
            for section in SECTIONS:
                self._template(vendor, section)

    def _generate_batch(self, devices: list[Model]) -> dict[str, DeviceConfig]:
        """Render a device batch across the worker pool, deterministically.

        The renders fan out (they are pure); everything order-sensitive
        stays on the coordinator: template warm-up, golden registration
        in task-key order, and the first-keyed error raise.  A failed
        batch registers nothing — all-or-nothing, unlike the serial
        per-device path, so partial state can't differ by worker count.
        """
        if not devices:
            return {}
        self._warm_templates(devices)
        results = parallel.run_tasks(
            [(device.name, partial(self._render, device)) for device in devices],
            section="configgen.render",
            cancel_on_error=True,
        )
        parallel.raise_first_error(results)
        configs: dict[str, DeviceConfig] = {}
        for result in results:
            config = result.value
            configs[config.device_name] = config
            self.adopt(config)
        return configs

    def generate_location(self, location: Model) -> dict[str, DeviceConfig]:
        """Generate configs for every device at a location (Figure 10)."""
        with obs.span("configgen.generate", location=location.name):
            configs = self._generate_batch(
                fetch_location_devices(self._store, location)
            )
        self._flight_renders(configs)
        self._announce(list(configs.values()))
        return configs

    def generate_devices(self, devices: list[Model]) -> dict[str, DeviceConfig]:
        """Generate configs for an explicit device list."""
        with obs.span("configgen.generate", devices=len(devices)):
            configs = self._generate_batch(list(devices))
        self._flight_renders(configs)
        self._announce(list(configs.values()))
        return configs

    def _flight_renders(self, configs: dict[str, DeviceConfig]) -> None:
        """Record full (non-incremental) renders under the active change.

        Only when a change context is open: an unattributed bulk render
        (benchmarks, cold provisioning without intent) would flood the
        ring without ever being queryable by change id.
        """
        if flight.current_change() is None:
            return
        for name, config in configs.items():
            flight.record(
                "configgen.render",
                phase="generation",
                device=name,
                verdict="rendered",
                detail=config.sha[:12],
            )

    # ------------------------------------------------------------------
    # Incremental regeneration (the change-propagation pipeline)
    # ------------------------------------------------------------------

    def regenerate_dirty(
        self, devices: list[Model] | None = None
    ) -> IncrementalGenReport:
        """Regenerate only the devices invalidated since their last generation.

        A device is dirty for a reason :attr:`IncrementalGenReport.dirty`
        lists; clean devices keep their golden config byte-for-byte.
        """
        if devices is None:
            devices = self._store.all(Device)
            retire_missing = True
        else:
            retire_missing = False
        report = IncrementalGenReport()
        dirty_devices: list[tuple[Model, str]] = []
        with obs.span("configgen.regenerate_dirty", devices=len(devices)):
            report.records_scanned = self._follow_journal()
            for device in devices:
                found = self._dirty_reason(device)
                if found is None:
                    report.skipped.append(device.name)
                else:
                    reason, origin = found
                    report.dirty[device.name] = reason
                    report.origins[device.name] = origin
                    dirty_devices.append((device, reason))
            if report.skipped:
                obs.counter("configgen.skipped").inc(len(report.skipped))
            if dirty_devices:
                obs.counter("configgen.dirty").inc(len(dirty_devices))
            regenerated = self._generate_batch(
                [device for device, _reason in dirty_devices]
            )
            if regenerated:
                report.regenerated.update(regenerated)
                obs.counter("configgen.regenerated").inc(len(regenerated))
                # Each regeneration is attributed to the change whose
                # journal record dirtied the device — the link from the
                # model layer to the generation layer in the lineage.
                for device, reason in dirty_devices:
                    if device.name not in regenerated:
                        continue
                    origin = report.origins.get(device.name, "")
                    flight.record(
                        "configgen.regen",
                        phase="generation",
                        change_id=origin or None,
                        device=device.name,
                        verdict="regenerated",
                        detail=reason,
                    )
            if retire_missing:
                present = {device.name for device in devices}
                for name in sorted(set(self.golden) - present):
                    del self.golden[name]
                    self._follower.index.discard(name)
                    self._marks.pop(name, None)
                    report.retired.append(name)
        report.position = self._store.journal_position
        self._announce(list(report.regenerated.values()))
        return report

    def _follow_journal(self) -> int:
        """Mark each device with its first new record at or after its
        golden config's ``design_position`` that invalidates it; marks
        outlive the pass until :meth:`adopt` or retirement.  No record
        before the oldest golden can mark (the floor).  Returns the number
        of records followed."""
        oldest = min(
            (c.design_position for c in self.golden.values()),
            default=self._store.journal_position,
        )
        followed = 0
        for position, record, names in self._follower.follow(floor=oldest):
            followed += 1
            for name in names:
                if (
                    name not in self._marks
                    and position >= self.golden[name].design_position
                ):
                    reason = f"{record.model}#{record.obj_id} {record.op.value}"
                    self._marks[name] = (reason, record.change_id)
        return followed

    def _dirty_reason(self, device: Model) -> tuple[str, str] | None:
        """Why ``device`` needs regeneration — ``(reason, origin change id)``
        — or ``None`` if still current."""
        golden = self.golden.get(device.name)
        if golden is None:
            return "new", ""
        if golden.read_set is None:
            return "untracked", ""
        for path, version in golden.template_versions.items():
            if self.configerator.current_version(path) != version:
                return "template", ""
        return self._marks.get(device.name)

    # ------------------------------------------------------------------
    # Staleness detection (section 8: "Stale Configs")
    # ------------------------------------------------------------------

    def is_stale(self, config: DeviceConfig) -> bool:
        """Whether FBNet design state ``config`` read changed since it was
        generated (section 8's stale-config outage).

        :meth:`regenerate_dirty` regenerates every golden config this calls
        stale; this asks it of any config, and no pipeline stage calls it
        (the failure drills do).  The evidence is the config's read-set
        through :func:`~repro.fbnet.changelog.changes_since`, so a position
        past the journal's end is stale; a hand-built config with no
        read-set is current only at its position.
        """
        position, store = config.design_position, self._store
        if config.read_set is None:
            return position != store.journal_position
        return changes_since(store, position, config.read_set) != []  # None: ahead
