"""One design change at fleet size: a full validation pass and one relabel.

The paper validates every design change before it commits (section
5.1.3), and here that means running every rule of ``DEFAULT_RULES`` over
the whole store.  This bench builds the ``LEDGER_256`` and ``LEDGER_1K``
fleet shapes (the profiles of ``benchmarks/ledger/inputs.py``) into a
plain ``Robotron()`` store and times, in the ledger's reference-speed
seconds (``conftest.reference_seconds``):

* ``validate`` — one full ``validate(store)`` pass, which must be clean;
* ``relabel`` — one interface description change committed through
  ``Robotron.design_change()``, which validates the store before it
  commits.

Each is the median of :data:`REPEATS` runs.  ``check_ledger.py`` holds the
``LEDGER_1K`` medians to absolute budgets.  :data:`PARENT` keeps what the
same bench read before the prefix rules went linear, so the report shows
both.
"""

import json
import statistics

from conftest import RESULTS_DIR, publish_report, reference_seconds

import inputs  # benchmarks/ledger/inputs.py: the ledger's fleet profiles
from repro import Robotron, obs
from repro.common.util import format_table
from repro.design.fleet import FleetProfile, build_fleet
from repro.design.validation import validate
from repro.fbnet.models import PhysicalInterface

FLEETS = ("LEDGER_256", "LEDGER_1K")
REPEATS = 5

#: This bench's readings on the commit before the prefix rules read
#: integer intervals (every BGP session tested against every subnet),
#: one run on a 2-CPU x86-64 Linux container, Python 3.11.
PARENT = {
    "LEDGER_256": {
        "validate_p50_s": 0.740, "validate_p50_ref_s": 0.507,
        "relabel_p50_s": 0.468, "relabel_p50_ref_s": 0.470,
    },
    "LEDGER_1K": {
        "validate_p50_s": 4.453, "validate_p50_ref_s": 4.155,
        "relabel_p50_s": 5.094, "relabel_p50_ref_s": 3.450,
    },
}


def _p50(timings: list[reference_seconds]) -> dict[str, float]:
    return {
        "p50_s": statistics.median(t.raw_s for t in timings),
        "p50_ref_s": statistics.median(t.ref_s for t in timings),
    }


def measure(name: str) -> dict:
    """Build fleet ``name`` and time a full validation and a relabel."""
    obs.reset()
    robotron = Robotron()
    store = robotron.store
    build = build_fleet(store, FleetProfile(**inputs.PROFILES[name]))
    validations = []
    for _ in range(REPEATS):
        with reference_seconds() as timed:
            violations = validate(store)
        assert violations == [], violations[:5]
        validations.append(timed)
    interfaces = store.all(PhysicalInterface)
    relabels = []
    for i in range(REPEATS):
        with reference_seconds() as timed:
            with robotron.design_change(
                employee_id="bench", ticket_id=f"BENCH-{i}", description="relabel"
            ):
                store.update(interfaces[i], description=f"relabel {i}")
        relabels.append(timed)
    result = {"devices": len(build.all_devices()), "records": len(store.journal)}
    for what, timings in (("validate", validations), ("relabel", relabels)):
        result.update({f"{what}_{k}": v for k, v in _p50(timings).items()})
    return result


def test_bench_change(benchmark):
    results: dict[str, dict] = {}

    def run():
        for name in FLEETS:
            results[name] = measure(name)

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name in FLEETS:
        now, before = results[name], PARENT[name]
        for what in ("validate", "relabel"):
            rows.append((
                f"{name} ({now['devices']} devices)", what,
                f"{before[f'{what}_p50_s']:.3f}", f"{now[f'{what}_p50_s']:.3f}",
                f"{before[f'{what}_p50_ref_s']:.3f}", f"{now[f'{what}_p50_ref_s']:.3f}",
            ))
    text = [
        "One design change at fleet size (medians of "
        f"{REPEATS} runs, plain store)",
        "",
        format_table(
            ("fleet", "measure", "parent s", "now s", "parent ref s", "now ref s"),
            rows,
        ),
        "",
        "validate: one full DEFAULT_RULES pass (clean); relabel: one interface",
        "description change through Robotron.design_change(), which validates",
        "the store before it commits.  ref s is the ledger's reference speed;",
        "benchmarks/check_ledger.py holds the LEDGER_1K medians to budgets.",
    ]
    publish_report("BENCH_change", "\n".join(text))

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"repeats": REPEATS, "parent": PARENT}
    payload.update({name.lower(): results[name] for name in FLEETS})
    (RESULTS_DIR / "BENCH_change.json").write_text(json.dumps(payload, indent=2) + "\n")
