"""Table 3 — syslog messages by urgency over 24 hours.

Paper (49.34M messages/day through 719 regex rules): IGNORED 96.27%,
WARNING 3.65%, MINOR 0.06%, NOTICE 0.01%, MAJOR <0.01%, CRITICAL 2
events; rule counts 13/214/310/103/79.  We run a scaled 24-hour event mix
through a classifier with the paper's rule-table sizes and report the
same columns.

The day is then classified twice more, by the classifier and by the
reference it must agree with (a severity-ordered walk of all 719
compiled rules), through two rule tables: the workload's own, whose
synthetic rules share the prefix ``EVT-``, and a seeded table of mixed
shapes that share none.  The second is the evidence that the
classifier's prefilter does not depend on a shared prefix.
"""

import random
import re
import time
from collections import Counter
from dataclasses import replace

from conftest import publish_report

from repro.common.util import format_table
from repro.fbnet.models import EventSeverity
from repro.monitoring.classifier import Classifier
from repro.simulation.workloads import PAPER_RULE_COUNTS, SyslogWorkload

TOTAL_EVENTS = 50_000  # paper's 49.34M scaled by ~1000x
MIXED_SEED = 719

SUBJECTS = (
    "Fan", "PSU", "Linecard", "Fabric", "Optic", "BGP", "OSPF", "LACP", "TCAM",
    "Memory", "Route", "Sensor", "Chassis", "Disk", "Kernel", "Watchdog", "ARP",
    "NTP", "VLAN", "MPLS",
)
STATES = (
    "failed", "degraded", "flap", "mismatch", "timeout", "overflow", "reset",
    "down", "threshold", "error",
)
#: (subject, state, n) -> (pattern, a line it matches); ``n`` is unique in
#: the table and delimited, so a line matches the one rule it was made for.
SHAPES = (
    lambda a, b, n: (rf"{a} {b} {n}\b", f"{a} {b} {n} reported"),
    lambda a, b, n: (rf"{a} .* {b} code {n}\b", f"{a} unit 3 {b} code {n}"),
    lambda a, b, n: (
        rf"%{a.upper()}-\d-{b.upper()}_{n}\b", f"%{a.upper()}-4-{b.upper()}_{n}: changed"
    ),
    lambda a, b, n: (rf"{a}s? \d+ {b}: id={n}$", f"{a} 7 {b}: id={n}"),
    lambda a, b, n: (rf"\[{n}\] {a}[-_ ]{b}", f"[{n}] {a}-{b} seen"),
)

PAPER_SHARES = {
    EventSeverity.CRITICAL: "<0.01%",
    EventSeverity.MAJOR: "<0.01%",
    EventSeverity.MINOR: "0.06%",
    EventSeverity.WARNING: "3.65%",
    EventSeverity.NOTICE: "0.01%",
    EventSeverity.IGNORED: "96.27%",
}


WORKLOAD = SyslogWorkload(
    seed=11,
    total_events=TOTAL_EVENTS,
    device_names=tuple(f"pop01.c01.psw{i}" for i in range(1, 5)),
)


def classify_day():
    classifier = Classifier(WORKLOAD.rule_table())
    for message in WORKLOAD.messages():
        classifier(message)
    return classifier


def mixed_table(seed):
    """The workload's table with each synthetic ``EVT-`` rule reshaped, so
    that no two rules need share a prefix, and the line that stands for
    each event text those rules matched."""
    rng = random.Random(seed)
    rules, lines = [], {}
    for rank, rule in enumerate(WORKLOAD.rule_table()):
        if rule.name.startswith("syn-"):
            pattern, line = rng.choice(SHAPES)(
                rng.choice(SUBJECTS), rng.choice(STATES), rank
            )
            event = rule.pattern.removesuffix(r"\b") + " condition seen"
            lines[event] = line
            rule = replace(rule, name=f"mixed-{rank}", pattern=pattern)
        rules.append(rule)
    return rules, lines


def reference_walk(rules, messages):
    """Every message against every compiled rule in severity order until one
    matches: what the classifier did before it had a prefilter."""
    ordered = [
        (rule, re.compile(rule.pattern))
        for severity in Classifier._SEVERITY_ORDER
        for rule in rules
        if rule.severity is severity
    ]
    counts, searches = Counter(), 0
    for message in messages:
        line = message.render()
        severity = EventSeverity.IGNORED
        for rule, pattern in ordered:
            searches += 1
            if pattern.search(line):
                severity = rule.severity
                break
        counts[severity] += 1
    return counts, searches


def compare_with_reference(label, rules, messages):
    """One report row; asserts the classifier and the walk count alike."""
    started = time.perf_counter()
    expected, walk_searches = reference_walk(rules, messages)
    walk_s = time.perf_counter() - started
    classifier = Classifier(rules)
    started = time.perf_counter()
    for message in messages:
        classifier(message)
    classifier_s = time.perf_counter() - started
    stats = classifier.stats()
    assert classifier.counts == expected
    assert stats["messages"] == len(messages)
    searches_per_message = stats["searches"] / len(messages)
    assert searches_per_message <= 40
    row = (
        label,
        f"{len(messages) / walk_s:,.0f}",
        f"{len(messages) / classifier_s:,.0f}",
        f"{walk_s / classifier_s:.0f}x",
        f"{walk_searches / len(messages):.1f}",
        f"{searches_per_message:.2f}",
        stats["always_walked"],
    )
    return row, expected, walk_s / classifier_s


def test_table3_syslog_by_urgency(benchmark):
    classifier = benchmark.pedantic(classify_day, rounds=1, iterations=1)
    table = classifier.severity_table()

    rows = []
    for severity in (
        EventSeverity.CRITICAL, EventSeverity.MAJOR, EventSeverity.MINOR,
        EventSeverity.WARNING, EventSeverity.NOTICE, EventSeverity.IGNORED,
    ):
        count, pct = table[severity]
        rules = (
            classifier.rule_count(severity)
            if severity is not EventSeverity.IGNORED
            else 0
        )
        rows.append(
            (severity.name, count, f"{pct:.2f}%", rules,
             PAPER_SHARES[severity])
        )
    report = [
        f"Table 3: syslog messages by urgency ({TOTAL_EVENTS} events, 24h)",
        "",
        format_table(
            ("urgency", "# events", "share", "# rules", "paper share"), rows
        ),
        "",
        "paper rule counts: CRITICAL 13, MAJOR 214, MINOR 310, WARNING 103,",
        "NOTICE 79; >95% of messages are IGNORED noise.",
    ]

    # The same day through both tables, classifier against reference walk.
    day = WORKLOAD.messages()
    mixed_rules, lines = mixed_table(MIXED_SEED)
    mixed_day = [replace(m, message=lines.get(m.message, m.message)) for m in day]
    own_row, own_counts, _ = compare_with_reference(
        "workload's own (EVT-<URGENCY>-<n>)", WORKLOAD.rule_table(), day
    )
    mixed_row, mixed_counts, mixed_speedup = compare_with_reference(
        f"mixed shapes, no shared prefix (seed {MIXED_SEED})", mixed_rules, mixed_day
    )
    assert own_counts == mixed_counts == classifier.counts
    assert mixed_speedup >= 10
    report += [
        "",
        "Cost of classifying that day, 719 rules either way (walk = every rule",
        "in severity order until one matches, the reference the counts are",
        "checked against; searches = regex searches, the prefilter's included):",
        "",
        format_table(
            (
                "rule table", "walk msg/s", "classifier msg/s", "speed-up",
                "walk searches/msg", "classifier searches/msg", "always-walked rules",
            ),
            (own_row, mixed_row),
        ),
    ]
    publish_report("table3_syslog_urgency", "\n".join(report))

    # Rule-table sizes match the paper exactly.
    for severity, expected in PAPER_RULE_COUNTS.items():
        assert classifier.rule_count(severity) == expected
    # Event-mix shape: noise dominates; warnings are the valuable bulk.
    _, ignored_pct = table[EventSeverity.IGNORED]
    _, warning_pct = table[EventSeverity.WARNING]
    _, minor_pct = table[EventSeverity.MINOR]
    assert ignored_pct > 95.0
    assert 2.0 < warning_pct < 6.0
    assert minor_pct < 0.5
    assert table[EventSeverity.CRITICAL][0] <= 5  # a handful at most
    # Every message was accounted for.
    assert sum(count for count, _pct in table.values()) == TOTAL_EVENTS
