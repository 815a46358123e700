"""Syslog classification: regex rules by urgency (paper 5.4.1, Table 3).

Classifiers match incoming syslog messages against a rule table
maintained by network engineers.  A match produces an alert of the rule's
urgency (and optionally triggers automatic remediation); messages no rule
matches are IGNORED — the paper measured 96.27% of messages in that
bucket over 24 hours.

That common case is the cheap one.  Every rule whose matches must all
contain some run of plain characters (:func:`required_literal`) is keyed
by that literal, the literals are compiled into one trie-shaped regex,
and a line in which the trie finds nothing cannot match any keyed rule:
it costs one search, not one per rule.  A line that does contain
literals is walked, in severity order, over the rules keyed by them plus
the short list of rules no literal could be derived for.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.fbnet.models import EventSeverity
from repro.monitoring.syslog import SyslogMessage

__all__ = [
    "Alert",
    "Classifier",
    "SyslogRule",
    "default_rule_table",
    "required_literal",
]


@dataclass(frozen=True)
class SyslogRule:
    """One regex rule: pattern → urgency."""

    name: str
    pattern: str
    severity: EventSeverity
    remediation: str = ""  # name of an automatic remediation, if any

    def compiled(self) -> re.Pattern[str]:
        return re.compile(self.pattern)


@dataclass(frozen=True)
class Alert:
    """A classified event surfaced to engineers (or auto-remediated)."""

    rule: str
    severity: EventSeverity
    device: str
    message: str
    timestamp: float


#: A repeat operator with its lazy/possessive suffix; group 1 is the
#: minimum of a counted repeat.  (``{}`` and ``{x`` are not repeats.)
_REPEAT = re.compile(r"(?:[*+?]|\{(?:(\d+)(?:,\d*)?|,\d*)\})[?+]?")
#: Characters that stand for themselves outside a class.
_PLAIN = re.compile(r"[^\\.^$*+?{}\[|()]+")
#: Escapes that stand for a class or a zero-width assertion.
_CLASS_ESCAPES = frozenset("dDsSwWbBAZ")


def _skip_class(text: str, i: int) -> int:
    """Index just past the ``[...]`` whose ``[`` is at ``i - 1``."""
    if text.startswith("^", i):
        i += 1
    if text.startswith("]", i):  # a leading ] is a member, not the end
        i += 1
    while text[i] != "]":
        i += 2 if text[i] == "\\" else 1
    return i + 1


def _skip_group(text: str, i: int) -> int:
    """Index just past the ``(...)`` whose ``(`` is at ``i - 1``."""
    depth = 1
    while depth:
        ch = text[i]
        i += 1
        if ch == "\\":
            i += 1
        elif ch == "[":
            i = _skip_class(text, i)
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
    return i


def required_literal(pattern: re.Pattern[str]) -> str:
    r"""The longest run of plain characters every match must contain.

    A conservative left-to-right scan of the pattern text.  A plain or
    escaped-punctuation character extends the current run; a class,
    wildcard, anchor or group ends it and contributes nothing (a group's
    inside, alternation included, is not looked at); an atom repeated
    ``?``/``*``/``{0,n}`` is left out and ends the run, one repeated
    ``+``/``{m,n}`` is kept once and ends it.  Returns ``""`` — the
    rule is always walked — wherever plain characters are not required
    as written: a top-level ``|``, ``(?i)``/``(?x)``, and the escapes
    (``\x41``, ``\1``, ``\n``) that are not worth decoding here.
    """
    text = pattern.pattern
    if pattern.flags & (re.IGNORECASE | re.VERBOSE) or "(?#" in text:
        return ""
    best = run = ""
    i = 0
    while i < len(text):
        atom = ""  # the one character this atom always contributes, if any
        plain = _PLAIN.match(text, i)
        if plain is not None:  # a repeat after these binds only the last
            i = plain.end()
            run += plain[0][:-1]
            atom = plain[0][-1]
        else:
            ch = text[i]
            i += 1
            if ch == "\\":
                ch = text[i]
                i += 1
                if not ch.isalnum():
                    atom = ch
                elif ch not in _CLASS_ESCAPES:
                    return ""
            elif ch == "[":
                i = _skip_class(text, i)
            elif ch == "(":
                i = _skip_group(text, i)
            elif ch not in ".^$":  # a top-level | or a stray brace
                return ""
        repeat = _REPEAT.match(text, i)
        if repeat is not None:
            i = repeat.end()
            if repeat[0][0] != "+" and not int(repeat[1] or 0):
                atom = ""  # may occur zero times
        run += atom
        if repeat is not None or not atom:
            if len(run) > len(best):
                best = run
            run = ""
    return run if len(run) > len(best) else best


def _trie_regex(trie: dict) -> str:
    """The regex matching, at one position, the longest word in ``trie``.

    ``trie`` maps a character to its sub-trie; the key ``""`` marks the
    end of a word.  One branch per character, so ``re`` tests a line
    against every word at once instead of one alternative per word.
    """
    last, branches = [], []
    for ch, child in trie.items():
        if not ch:
            continue
        if len(child) == 1 and "" in child:
            last.append(re.escape(ch))
        else:
            branches.append(re.escape(ch) + _trie_regex(child))
    if last:  # one class, not a branch each: a third less for re to parse
        branches.append(f"[{''.join(last)}]")
    if not branches:
        return ""
    if len(branches) == 1 and "" not in trie:
        return branches[0]
    # Greedy ?: a longer word is preferred to the one that ends here.
    return f"(?:{'|'.join(branches)}){'?' if '' in trie else ''}"


class Classifier:
    """Matches messages against the rule table, first match wins.

    Rules are evaluated in severity order (CRITICAL first) so the most
    urgent interpretation of a message prevails.
    """

    _SEVERITY_ORDER = [
        EventSeverity.CRITICAL,
        EventSeverity.MAJOR,
        EventSeverity.MINOR,
        EventSeverity.WARNING,
        EventSeverity.NOTICE,
    ]

    def __init__(self, rules: list[SyslogRule]):
        by_severity: dict[EventSeverity, list[SyslogRule]] = {
            severity: [] for severity in self._SEVERITY_ORDER
        }
        for rule in rules:
            if rule.severity not in by_severity:
                raise ValueError(
                    f"rule {rule.name!r}: {rule.severity!r} is not an urgency a "
                    "rule can assign"
                )
            by_severity[rule.severity].append(rule)
        #: Rules with their compiled patterns, in the order they are tried;
        #: a rule's index here is its rank.
        self._rules: list[tuple[SyslogRule, re.Pattern[str]]] = []
        for ranked in by_severity.values():
            for rule in ranked:
                try:
                    self._rules.append((rule, rule.compiled()))
                except re.error as exc:
                    raise ValueError(f"rule {rule.name!r}: {exc}") from exc
        self._build_prefilter()
        #: Classified-event counters by severity (Table 3's '# of events').
        self.counts: Counter = Counter()
        #: Alerts raised, newest last.
        self.alerts: list[Alert] = []
        self._alert_sinks: list[Callable[[Alert], None]] = []
        self._remediations: dict[str, Callable[[Alert], None]] = {}
        # Plain-int tallies behind stats(): no obs lookup per message.
        self._messages = 0
        self._survivors = 0
        self._searches = 0

    def _build_prefilter(self) -> None:
        own: dict[str, list[int]] = {}  # literal -> ranks of the rules it keys
        always: list[int] = []
        for rank, (_rule, pattern) in enumerate(self._rules):
            literal = required_literal(pattern)
            if literal:
                own.setdefault(literal, []).append(rank)
            else:
                always.append(rank)
        #: Ranks of the rules no literal keys: tried on every message.
        self._always: tuple[int, ...] = tuple(always)
        #: Literal → ranks of the rules to try where it is the longest
        #: literal at some position of a line: the rules keyed by it and by
        #: every literal that is a prefix of it (those occur there too).
        self._keyed: dict[str, tuple[int, ...]] = {}
        trie: dict = {}
        for literal in sorted(own):  # a prefix sorts before its extensions
            ranks = own[literal]
            node = trie
            for ch in literal:
                node = node.setdefault(ch, {})
                ranks = ranks + node.get("", [])
            node[""] = own[literal]
            self._keyed[literal] = tuple(sorted(ranks))
        #: search(line[, pos]) → the longest literal at the first position
        #: from ``pos`` where any literal occurs, or None.
        self._find_literal = re.compile(_trie_regex(trie) or "(?!)").search

    def rule_count(self, severity: EventSeverity) -> int:
        """Number of rules at one urgency (Table 3's '# of rules')."""
        return sum(1 for rule, _ in self._rules if rule.severity is severity)

    def on_alert(self, sink: Callable[[Alert], None]) -> None:
        self._alert_sinks.append(sink)

    def stats(self) -> dict[str, int]:
        """Where classification time goes, as plain counts.

        ``searches / messages`` is the cost of a message; it is high when
        ``always_walked`` (rules no literal could be derived for, tried
        on every message) is a large part of ``rules``.
        """
        return {
            "rules": len(self._rules),
            "always_walked": len(self._always),
            "messages": self._messages,
            "survivors": self._survivors,
            "searches": self._searches,
        }

    def _candidates(self, line: str) -> Iterable[int]:
        """Ranks, ascending, of every rule that could match ``line``.

        Exact: a rule left out is keyed by a literal that every match of
        it contains and ``line`` does not.  The trie reports only the
        longest literal at a position; the ones it hides are prefixes of
        it, and ``_keyed`` folded their rules in.
        """
        find = self._find_literal
        found = find(line)
        self._searches += 1
        if found is None:
            return self._always
        self._survivors += 1
        ranks = set(self._always)
        while found is not None:
            ranks.update(self._keyed[found[0]])
            found = find(line, found.start() + 1)
            self._searches += 1
        return sorted(ranks)

    def _first_match(self, line: str) -> SyslogRule | None:
        """The one walk behind :meth:`match` and :meth:`__call__`."""
        self._messages += 1
        for rank in self._candidates(line):
            rule, pattern = self._rules[rank]
            self._searches += 1
            if pattern.search(line):
                return rule
        return None

    def match(self, message: SyslogMessage) -> SyslogRule | None:
        """The rule that would classify ``message`` — without recording.

        Side-effect-free lookup for detector adapters (e.g. the
        remediation engine's syslog-urgency detector) that need a
        message's severity but must not double-count Table 3's event
        tallies or re-raise alerts.
        """
        return self._first_match(message.render())

    def register_remediation(self, name: str, fn: Callable[[Alert], None]) -> None:
        """Attach an automatic remediation callable to a remediation name."""
        self._remediations[name] = fn

    def __call__(self, message: SyslogMessage) -> Alert | None:
        """Classify one message; returns the alert, or None if ignored."""
        rule = self._first_match(message.render())
        if rule is None:
            self.counts[EventSeverity.IGNORED] += 1
            return None
        alert = Alert(
            rule=rule.name,
            severity=rule.severity,
            device=message.device,
            message=message.message,
            timestamp=message.timestamp,
        )
        self.counts[rule.severity] += 1
        self.alerts.append(alert)
        for sink in self._alert_sinks:
            sink(alert)
        if rule.remediation and rule.remediation in self._remediations:
            self._remediations[rule.remediation](alert)
        return alert

    def severity_table(self) -> dict[EventSeverity, tuple[int, float]]:
        """(count, percentage) per urgency — the shape of Table 3."""
        total = sum(self.counts.values()) or 1
        return {
            severity: (self.counts[severity], 100.0 * self.counts[severity] / total)
            for severity in list(self._SEVERITY_ORDER) + [EventSeverity.IGNORED]
        }


def default_rule_table() -> list[SyslogRule]:
    """A representative rule table, echoing the paper's Table 3 examples.

    The production table had 719 rules; this default covers the examples
    the paper names per urgency plus the config-change and link-state
    rules the rest of the reproduction relies on.  Workload benches extend
    it with synthetic rules to match the paper's per-urgency rule counts.
    """
    critical = [
        SyslogRule("critical-power", r"Critical Power", EventSeverity.CRITICAL),
        SyslogRule(
            "critical-temperature", r"Critical Temperature", EventSeverity.CRITICAL
        ),
        SyslogRule("device-reboot", r"System restarted", EventSeverity.CRITICAL),
        SyslogRule("ssl-vpn-alarm", r"SSL VPN Alarm", EventSeverity.CRITICAL),
    ]
    major = [
        SyslogRule("high-temperature", r"High Temperature", EventSeverity.MAJOR),
        SyslogRule("tcam-errors", r"TCAM error", EventSeverity.MAJOR),
        SyslogRule("linecard-removed", r"Linecard removed", EventSeverity.MAJOR),
    ]
    minor = [
        SyslogRule("tcam-exhausted", r"TCAM exhausted", EventSeverity.MINOR),
        SyslogRule("bad-fpc", r"Possible bad FPC", EventSeverity.MINOR),
        SyslogRule("ip-conflict", r"IP conflict", EventSeverity.MINOR),
    ]
    warning = [
        SyslogRule("config-change", r"Configuration changed", EventSeverity.WARNING),
        SyslogRule("ssl-conn-limit", r"SSL connection limit", EventSeverity.WARNING),
        SyslogRule("syslog-cleared", r"Syslog cleared by user", EventSeverity.WARNING),
        SyslogRule(
            "link-down", r"Interface .* link state down", EventSeverity.WARNING
        ),
    ]
    notice = [
        SyslogRule("dhcp-snooping", r"DHCP Snooping Deny", EventSeverity.NOTICE),
        SyslogRule("mac-conflict", r"MAC Conflict", EventSeverity.NOTICE),
        SyslogRule("ntp-unreachable", r"Cannot find NTP server", EventSeverity.NOTICE),
    ]
    return critical + major + minor + warning + notice
