"""Every input of the ledger, generated from ``--seed`` here.

Nothing in this file imports ``src/``: a later edit to
``repro.design.workload`` or ``repro.simulation.workloads`` cannot change
the traffic the ledger offers.  Generators emit *picks* — indices into
populations whose sizes follow from the fleet profile — and the workload
resolves them against the fleet it built (sorted by name), so the same
seed offers the same work to any ``src/``.

Each workload's inputs are hashed (``digest``) and the hash for the
default seed is pinned below; ``test_ledger.py`` fails when a generator
drifts.

Seeds move *which* device, link or message comes when; they never move
how much work there is.  Mixes are exact counts in shuffled order, and
device picks walk a seeded permutation, so ten runs on ten seeds differ
in order, not in load.

Where a mix rests on the paper it says which figure or table; where it
rests on nothing it says SYNTHETIC.  The README lists both.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import accumulate
from typing import Any

DEFAULT_SEED = 1337

REGIONS = ("na-east", "na-west", "eu-central", "eu-west")


def _profile(name: str, dc: int, pop: int, backbone: int) -> dict[str, Any]:
    """Keyword arguments of ``repro.design.fleet.FleetProfile``: ``dc`` DC
    Gen3 clusters (28 devices each), ``pop`` POP Gen2 clusters (14 each),
    one cluster a site, and ``backbone`` sites of one meshed router."""
    return dict(
        name=name, region_names=REGIONS,
        datacenter_count=dc, dc_clusters_per_site=1 if dc else 0,
        pop_count=pop, pop_clusters_per_site=1 if pop else 0,
        backbone_site_count=backbone, backbone_routers_per_site=1, backbone_mesh=True,
    )


PROFILES: dict[str, dict[str, Any]] = {
    "LEDGER_16": _profile("ledger_16", 0, 1, 2),
    "LEDGER_44": _profile("ledger_44", 1, 1, 2),
    "LEDGER_74": _profile("ledger_74", 2, 1, 4),
    # DC clusters are the majority of turn-up ops, so the median op is one.
    "LEDGER_102": _profile("ledger_102", 3, 1, 4),
    "LEDGER_256": _profile("ledger_256", 8, 2, 4),
    "LEDGER_400": _profile("ledger_400", 12, 4, 4),  # 396 devices
    "LEDGER_1K": _profile("ledger_1k", 32, 8, 6),  # 1014 devices
}

#: How big each workload is.  ``issue`` is what ISSUE 11 sized the ledger
#: at (one untraced set of four is 3-4 minutes); ``budget`` is what fits
#: the driver's 92 runs in 57 minutes, and what ``BENCHMARK.json`` gates.
#: Both offer the same kinds of work in the same shares; ``monitor`` stays
#: small at either size because a Derived upsert scans its table.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "budget": {
        "turnup": {"profile": "LEDGER_102"},
        "churn": {"profile": "LEDGER_74", "changes": 300},
        "monitor": {"profile": "LEDGER_16", "syslog": 10_000},
        "frontdoor": {"profile": "LEDGER_256", "ops": 10_000},
    },
    "issue": {
        "turnup": {"profile": "LEDGER_400"},
        "churn": {"profile": "LEDGER_256", "changes": 300},
        "monitor": {"profile": "LEDGER_44", "syslog": 50_000},
        "frontdoor": {"profile": "LEDGER_1K", "ops": 20_000},
    },
}
DEFAULT_SIZE = "budget"

#: Devices of one cluster by the class Fig. 16 sorts them into: PRs and DRs
#: "count as backbone devices" (paper section 6.3), rack and fabric
#: switches are the POP/DC class.
_CLUSTER = {
    "dc": {"backbone": 4, "popdc": 24},
    "pop": {"backbone": 2, "popdc": 12},
}


def class_counts(profile: dict[str, Any]) -> dict[str, int]:
    """Devices per Fig. 16 class: ``{"backbone": n, "popdc": n}``."""
    dc, pop = cluster_counts(profile)
    routers = profile["backbone_site_count"] * profile["backbone_routers_per_site"]
    return {
        "backbone": dc * _CLUSTER["dc"]["backbone"] + pop * _CLUSTER["pop"]["backbone"] + routers,
        "popdc": dc * _CLUSTER["dc"]["popdc"] + pop * _CLUSTER["pop"]["popdc"],
    }


def device_count(profile: dict[str, Any]) -> int:
    return sum(class_counts(profile).values())


def cluster_counts(profile: dict[str, Any]) -> tuple[int, int]:
    """``(DC clusters, POP clusters)``."""
    return (
        profile["datacenter_count"] * profile["dc_clusters_per_site"],
        profile["pop_count"] * profile["pop_clusters_per_site"],
    )


def site_count(profile: dict[str, Any]) -> int:
    return (
        profile["datacenter_count"]
        + profile["pop_count"]
        + profile["backbone_site_count"]
    )


def digest(inputs: Any) -> str:
    """sha256 of the canonical JSON of a generated input."""
    body = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _exact_mix(shares: dict[str, float], total: int) -> dict[str, int]:
    """Counts per kind that sum to ``total``; the first kind takes the rounding."""
    counts = {kind: round(share * total) for kind, share in shares.items()}
    first = next(iter(shares))
    counts[first] += total - sum(counts.values())
    return counts


def _walk(rng: random.Random, population: int):
    """Endless picks that visit a seeded permutation round after round."""
    order = list(range(population))
    rng.shuffle(order)
    while True:
        yield from order


# ---------------------------------------------------------------------------
# turnup
# ---------------------------------------------------------------------------


def turnup(seed: int, scale: float = 1.0, size: str = DEFAULT_SIZE) -> dict[str, Any]:
    """The fleet and the order its clusters are turned up in.

    ``scale`` does nothing here: the op count of a turn-up *is* the fleet.
    """
    name = SIZES[size]["turnup"]["profile"]
    order = list(range(sum(cluster_counts(PROFILES[name]))))
    random.Random(seed).shuffle(order)
    return {"profile": name, "cluster_order": order}


# ---------------------------------------------------------------------------
# churn
# ---------------------------------------------------------------------------

#: Config changes per device-week by device class — paper section 6.3 and
#: Fig. 16 (DESIGN.md section 3): backbone devices, PRs and DRs included,
#: change about five times as often as POP/DC switches.  A change's device
#: is drawn with these weights.
CHANGES_PER_DEVICE_WEEK = {"backbone": 12.46, "popdc": 2.53}

#: Changed objects by type, in thousands, over this repo's reproduction of
#: Fig. 15 (EXPERIMENTS.md; the paper's figure gives the same order:
#: interfaces, then circuits, then prefixes, then devices).  Prefixes never
#: change on their own — they come and go with a circuit — so the three
#: kinds of small change below are weighted by the other three counts.
FIG15_CHANGED_OBJECTS = {"interface": 37.3, "circuit": 13.0, "device": 1.3}

#: SYNTHETIC, from no measurement: the share of commits that touch nothing
#: a config reads (a new ``RackProfile``).  It is the control the other
#: kinds are read against — the cycle must regenerate nothing — and the
#: paper has no number for it.
CONTROL_SHARE = 0.10

#: Share of each kind of change.  ``interface`` edits one attribute of one
#: interface (a physical one's description or an aggregate's MTU: the pick
#: walks the device's own interfaces, so the split is the fleet's);
#: ``circuit`` adds a backbone circuit, and every second one deletes the
#: circuit the one before it added (paper section 5.1.2: "hundreds of
#: circuit additions, migrations and deletions" a month), so the fleet
#: does not grow over a round; ``device`` flips a device's drain state,
#: every second one flipping the same device back.
CHURN_MIX = {
    **{
        kind: (1.0 - CONTROL_SHARE) * count / sum(FIG15_CHANGED_OBJECTS.values())
        for kind, count in FIG15_CHANGED_OBJECTS.items()
    },
    "create": CONTROL_SHARE,
}

#: Devices one change of each kind must regenerate — the cycle's
#: correctness check.  A circuit dirties both routers it joins.
CHURN_DIRTY = {"interface": 1, "device": 1, "circuit": 2, "uncircuit": 2, "create": 0}


def _class_split(count: int, classes: dict[str, int]) -> dict[str, int]:
    """``count`` changes over the device classes, each class weighted by
    its devices times their weekly change rate."""
    weight = {k: classes[k] * CHANGES_PER_DEVICE_WEEK[k] for k in CHANGES_PER_DEVICE_WEEK}
    return _exact_mix({k: w / sum(weight.values()) for k, w in weight.items()}, count)


def churn(seed: int, scale: float = 1.0, size: str = DEFAULT_SIZE) -> dict[str, Any]:
    """Changes as ``[kind, device class, first pick, second pick]``."""
    sizing = SIZES[size]["churn"]
    profile = PROFILES[sizing["profile"]]
    rng = random.Random(seed)
    total = max(1, round(sizing["changes"] * scale))
    classes = class_counts(profile)
    routers = profile["backbone_site_count"] * profile["backbone_routers_per_site"]
    walks = {
        (kind, klass): _walk(rng, classes[klass])
        for kind in ("interface", "device")
        for klass in classes
    }
    router_walk = _walk(rng, routers)
    changes: list[list] = []
    for kind, count in _exact_mix(CHURN_MIX, total).items():
        if kind == "create":
            changes.extend([kind, "", index, 0] for index in range(count))
        elif kind == "circuit":
            for _ in range(count):
                a = next(router_walk)
                z = (a + 1 + rng.randrange(routers - 1)) % routers
                changes.append([kind, "", a, z])
        else:
            for klass, share in _class_split(count, classes).items():
                for index in range(share):
                    if kind == "device" and index % 2:
                        changes.append(list(changes[-1]))  # flip it back
                    else:
                        pick = next(walks[kind, klass])
                        changes.append([kind, klass, pick, rng.randrange(1 << 20)])
    rng.shuffle(changes)
    # In stream order, every second circuit op deletes what the one before
    # it added (the workload remembers the name).
    added = False
    for change in changes:
        if change[0] == "circuit":
            if added:
                change[0] = "uncircuit"
            added = not added
    return {"profile": sizing["profile"], "classes": classes, "changes": changes}


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

#: Simulated minutes of the repo's default job schedule.
MONITOR_TICKS = 5
#: SYNTHETIC: faults injected to check that detection works (half link
#: cuts, half out-of-band config edits).  They are a correctness probe,
#: not traffic; the paper gives no fault rate.
MONITOR_FAULTS = 6
#: Design changes propagated over the journal monitoring grew (ISSUE 11
#: asks for one; twenty give ``write_p50_ms`` a median).
MONITOR_CHANGES = 20

#: Paper Table 3: rules per urgency (719 in all) and each urgency's share
#: of the 49.34M messages of one day.  The rest is ignored (~96.3%).
SYSLOG_RULES = {
    "critical": 13, "major": 214, "minor": 310, "warning": 103, "notice": 79,
}
SYSLOG_SHARES = {
    "critical": 2 / 49_340_000,
    "major": 1_350 / 49_340_000,
    "minor": 32_000 / 49_340_000,
    "warning": 1_800_000 / 49_340_000,
    "notice": 6_680 / 49_340_000,
}
SYSLOG_IGNORED_TEXTS = (
    "LSP change: path recomputed",
    "User authentication: session opened",
    "LSP change: reroute complete",
    "User authentication: session closed",
)


def syslog_rules() -> list[tuple[str, str, str]]:
    """The 719-rule table as (name, regex, urgency); every rule is live."""
    return [
        (f"ledger-{urgency}-{index}", rf"LEDGER-{urgency.upper()}-{index}\b", urgency)
        for urgency, count in SYSLOG_RULES.items()
        for index in range(count)
    ]


def syslog_mix(total: int) -> dict[str, int]:
    """Messages per urgency: the paper's shares, at least one of each."""
    mix = {
        urgency: max(1, round(share * total))
        for urgency, share in SYSLOG_SHARES.items()
    }
    mix["ignored"] = total - sum(mix.values())
    return mix


def monitor(seed: int, scale: float = 1.0, size: str = DEFAULT_SIZE) -> dict[str, Any]:
    sizing = SIZES[size]["monitor"]
    profile = PROFILES[sizing["profile"]]
    rng = random.Random(seed)
    devices = device_count(profile)
    cuts = MONITOR_FAULTS // 2
    faults = {
        # Picks into the sorted circuits / devices of the built fleet.
        "link_cuts": [rng.randrange(1 << 20) for _ in range(cuts)],
        "config_edits": rng.sample(range(devices), MONITOR_FAULTS - cuts),
    }
    total = max(len(SYSLOG_SHARES) + 1, round(sizing["syslog"] * scale))
    device_walk = _walk(rng, devices)
    messages: list[list] = []
    for urgency, count in syslog_mix(total).items():
        for _ in range(count):
            if urgency == "ignored":
                pick = rng.randrange(len(SYSLOG_IGNORED_TEXTS))
            else:
                pick = rng.randrange(SYSLOG_RULES[urgency])
            # [device pick, urgency, rule or text pick]
            messages.append([next(device_walk), urgency, pick])
    rng.shuffle(messages)
    return {
        "profile": sizing["profile"],
        "ticks": MONITOR_TICKS,
        "faults": faults,
        "syslog": messages,
        # Device picks; a faulted device passes its turn to the next one.
        "changes": [pick for pick, _ in zip(_walk(rng, devices), range(MONITOR_CHANGES))],
    }


# ---------------------------------------------------------------------------
# frontdoor
# ---------------------------------------------------------------------------

#: SYNTHETIC, from no measurement: every 50th op is a write.  The paper
#: says where reads and writes go (section 4.3.3: reads to the local
#: replica, writes to the master) and gives no ratio of one to the other.
WRITE_EVERY = 50
#: Every 20th read is re-asked of an uncached replica (an output check).
VERIFY_EVERY = 20

#: SYNTHETIC: the query mix and popularity skew of this repo's own
#: ``ZipfReadWorkload`` (PR 10), copied here so a ``src/`` edit cannot move
#: them.  The paper names the read API's users (section 4.3.2) and gives
#: no query mix: mostly indexed lookups of hot devices, a minority of
#: scan-shaped queries that set the tail.
ZIPF_EXPONENT = 1.1
READ_MIX = (
    ("page", 0.45),       # device detail page, by unique name
    ("linecards", 0.25),  # a device's linecards, by FK
    ("site", 0.20),       # every device of a site, by name prefix (a scan)
    ("drain", 0.10),      # fleet-wide drain-state tile (a scan)
)
DRAIN_STATES = ("undrained", "draining", "drained")


def _zipf_cum_weights(count: int) -> list[float]:
    return list(accumulate(1.0 / (rank + 1.0) ** ZIPF_EXPONENT for rank in range(count)))


def frontdoor(seed: int, scale: float = 1.0, size: str = DEFAULT_SIZE) -> dict[str, Any]:
    sizing = SIZES[size]["frontdoor"]
    profile = PROFILES[sizing["profile"]]
    rng = random.Random(seed)
    devices, sites = device_count(profile), site_count(profile)
    # Popularity rank -> pick, so rank is independent of name order.
    device_order = list(range(devices))
    site_order = list(range(sites))
    rng.shuffle(device_order)
    rng.shuffle(site_order)
    device_cum = _zipf_cum_weights(devices)
    site_cum = _zipf_cum_weights(sites)
    kinds = [kind for kind, _ in READ_MIX]
    kind_cum = list(accumulate(share for _, share in READ_MIX))
    total = max(WRITE_EVERY, round(sizing["ops"] * scale))
    ops: list[list] = []
    for index in range(total):
        if index % WRITE_EVERY == WRITE_EVERY - 1:
            rank = rng.choices(range(devices), cum_weights=device_cum)[0]
            ops.append(["write", device_order[rank]])
            continue
        kind = rng.choices(kinds, cum_weights=kind_cum)[0]
        if kind == "site":
            rank = rng.choices(range(sites), cum_weights=site_cum)[0]
            ops.append([kind, site_order[rank]])
        elif kind == "drain":
            ops.append([kind, rng.randrange(len(DRAIN_STATES))])
        else:
            rank = rng.choices(range(devices), cum_weights=device_cum)[0]
            ops.append([kind, device_order[rank]])
    return {"profile": sizing["profile"], "ops": ops}


GENERATORS = {
    "turnup": turnup,
    "churn": churn,
    "monitor": monitor,
    "frontdoor": frontdoor,
}

#: ``digest(GENERATORS[w](DEFAULT_SEED, 1.0, size))`` — regenerate with
#: ``python benchmarks/ledger/inputs.py`` when a generator changes on purpose.
PINNED_INPUT_DIGESTS: dict[str, dict[str, str]] = {
    "budget": {
        "turnup": "c51778dbbcf26983333de75b744824578618a35366a16bcae5227580da3c3ccb",
        "churn": "02adea7e57a67662fd6b688146d74347d15769f5e6fb525ac533750edd3e701c",
        "monitor": "7ec4ad1a9aa7e91291b9358ca905015f61463bb22535c0da7594ab1159f347ad",
        "frontdoor": "906b4e50945dd6b1b92967939302189a43a31115e08072968febeaa5e2fcbb3b",
    },
    "issue": {
        "turnup": "e9c7af0d80d2ddbeb05c8a136bfa2b4285bb406518b58b27bd482bb9d22d780b",
        "churn": "1971b4a6ec1ba052671fd5b933c1284c8e49d8211de0fb1966f913964f1e4d4b",
        "monitor": "131e674f472a8f7bea45681be5b276e819eb5e02e6d61ab974c55a7b6b298493",
        "frontdoor": "a2b0a3a1cf600d4fc9b0f13814414e5f5bc81cd48577494c10417cd63a08693b",
    },
}


if __name__ == "__main__":
    for size in SIZES:
        print(f'    "{size}": {{')
        for workload, generate in GENERATORS.items():
            print(f'        "{workload}": "{digest(generate(DEFAULT_SEED, 1.0, size))}",')
        print("    },")
