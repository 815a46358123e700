"""Tests for syslog collection and classification (Table 3 machinery)."""

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fbnet.models import EventSeverity
from repro.monitoring.classifier import (
    Alert,
    Classifier,
    SyslogRule,
    default_rule_table,
    required_literal,
)
from repro.monitoring.syslog import SyslogCollector, SyslogMessage


def message(text, device="psw1", tag="EVENT"):
    return SyslogMessage(device=device, tag=tag, message=text, timestamp=1.0)


class TestCollector:
    def test_normalizes_and_counts(self):
        collector = SyslogCollector()
        seen = []
        collector.subscribe(seen.append)
        collector({"device": "d1", "tag": "CONFIG", "message": "x", "timestamp": 5})
        assert collector.received == 1
        assert seen[0] == SyslogMessage("d1", "CONFIG", "x", 5.0)

    def test_multiple_sinks(self):
        collector = SyslogCollector()
        a, b = [], []
        collector.subscribe(a.append)
        collector.subscribe(b.append)
        collector({"device": "d", "tag": "T", "message": "m", "timestamp": 0})
        assert len(a) == len(b) == 1

    def test_render_format(self):
        assert message("Link down", device="d1").render() == "<EVENT> d1: Link down"


class TestClassifier:
    def test_first_match_by_severity_order(self):
        rules = [
            SyslogRule("warn-any", r"Alarm", EventSeverity.WARNING),
            SyslogRule("crit-power", r"Critical Power Alarm", EventSeverity.CRITICAL),
        ]
        classifier = Classifier(rules)
        alert = classifier(message("Critical Power Alarm on PSU1"))
        # CRITICAL rules are evaluated first even if listed later.
        assert alert.severity is EventSeverity.CRITICAL
        assert alert.rule == "crit-power"

    def test_no_match_is_ignored(self):
        classifier = Classifier(default_rule_table())
        assert classifier(message("LSP change: recompute")) is None
        assert classifier.counts[EventSeverity.IGNORED] == 1

    def test_counts_accumulate(self):
        classifier = Classifier(default_rule_table())
        classifier(message("Interface ae0 link state down"))
        classifier(message("Interface ae1 link state down"))
        classifier(message("something unmatched"))
        assert classifier.counts[EventSeverity.WARNING] == 2
        assert classifier.counts[EventSeverity.IGNORED] == 1

    def test_severity_table_percentages(self):
        classifier = Classifier(default_rule_table())
        for _ in range(3):
            classifier(message("unmatched noise"))
        classifier(message("IP conflict detected"))
        table = classifier.severity_table()
        count, pct = table[EventSeverity.IGNORED]
        assert count == 3 and pct == 75.0
        assert table[EventSeverity.MINOR] == (1, 25.0)

    def test_rule_count(self):
        classifier = Classifier(default_rule_table())
        assert classifier.rule_count(EventSeverity.CRITICAL) == 4

    def test_alert_sinks(self):
        classifier = Classifier(default_rule_table())
        alerts = []
        classifier.on_alert(alerts.append)
        classifier(message("TCAM error on unit 0"))
        assert alerts[0].rule == "tcam-errors"
        assert alerts[0].device == "psw1"

    def test_remediation_hook_fires(self):
        rules = [
            SyslogRule(
                "config-change", r"Configuration changed",
                EventSeverity.WARNING, remediation="collect-config",
            )
        ]
        classifier = Classifier(rules)
        remediated = []
        classifier.register_remediation("collect-config", remediated.append)
        classifier(message("Configuration changed (commit 3)"))
        assert len(remediated) == 1

    def test_device_reboot_is_critical(self):
        classifier = Classifier(default_rule_table())
        alert = classifier(message("System restarted: psw1 booting", tag="SYSTEM"))
        assert alert.severity is EventSeverity.CRITICAL


def reference_walk(rules, line):
    """First match in severity order, one ``re.search`` per rule: what the
    classifier did before it had a prefilter, and what it must still answer."""
    for severity in Classifier._SEVERITY_ORDER:
        for rule in rules:
            if rule.severity is severity and re.search(rule.pattern, line):
                return rule
    return None


class TestConstruction:
    def test_ignored_is_not_a_rule_urgency(self):
        rules = default_rule_table() + [
            SyslogRule("drop-chatter", r"LSP change", EventSeverity.IGNORED)
        ]
        with pytest.raises(ValueError, match="drop-chatter"):
            Classifier(rules)

    def test_bad_pattern_names_its_rule_at_construction(self):
        rules = [SyslogRule("unbalanced", r"Linecard (removed", EventSeverity.MAJOR)]
        with pytest.raises(ValueError, match="rule 'unbalanced'"):
            Classifier(rules)


class TestRequiredLiteral:
    @pytest.mark.parametrize(
        ("pattern", "literal"),
        [
            (r"Interface .* link state down", " link state down"),
            (r"LEDGER-MAJOR-12\b", "LEDGER-MAJOR-12"),
            (r"ab+c", "ab"),  # at least one b, maybe more before the c
            (r"ab*c", "a"),
            (r"colou?r", "colo"),
            (r"(abc)?def", "def"),
            (r"x{2,3}yz", "yz"),
            (r"x{0,3}yz", "yz"),
            (r"a\.b\d+z", "a.b"),
            (r"^%FAC-3-DOWN$", "%FAC-3-DOWN"),
            (r"fan [0-9]+ failed", " failed"),
            (r"a]b", "a]b"),
            (r"port(?: \d+|-channel) flap", " flap"),
            # Nothing safe to require: these rules are always walked.
            (r"power|temperature", ""),
            (r"(?i)critical power", ""),
            (r"(?x) critical \  power", ""),
            (r".*", ""),
            (r"[A-Z]+\d+", ""),
            (r"(a)b\1", ""),
            (r"tab\there", ""),
            (r"a{b}", ""),
        ],
    )
    def test_derivation(self, pattern, literal):
        assert required_literal(re.compile(pattern)) == literal


class TestPrefilter:
    def test_unkeyed_rule_still_outranks_a_literal_one(self):
        rules = [
            SyslogRule("power-word", r"Power", EventSeverity.WARNING),
            SyslogRule("any-case", r"(?i)critical power", EventSeverity.CRITICAL),
        ]
        classifier = Classifier(rules)
        assert classifier.stats()["always_walked"] == 1
        assert classifier(message("CRITICAL Power lost")).rule == "any-case"
        assert classifier(message("Power supply inserted")).rule == "power-word"
        # No literal in the line: the always-walked rule alone decides.
        assert classifier(message("critical power lost")).rule == "any-case"
        assert classifier(message("fan ok")) is None

    def test_literal_that_is_a_prefix_of_the_one_found(self):
        rules = [
            SyslogRule("unit-12", r"UNIT-12\b", EventSeverity.NOTICE),
            SyslogRule("unit-1x", r"UNIT-1", EventSeverity.MAJOR),
        ]
        classifier = Classifier(rules)
        assert classifier(message("UNIT-12 down")).rule == "unit-1x"
        assert classifier(message("UNIT-123 down")).rule == "unit-1x"

    def test_overlapping_literals(self):
        rules = [
            SyslogRule("left", r"link fl", EventSeverity.NOTICE),
            SyslogRule("right", r"k flap", EventSeverity.CRITICAL),
        ]
        assert Classifier(rules)(message("link flap")).rule == "right"

    def test_literal_present_but_pattern_does_not_match(self):
        classifier = Classifier(
            [SyslogRule("link-down", r"Interface .* link state down", EventSeverity.WARNING)]
        )
        assert classifier(message("ae0 link state down")) is None
        assert classifier.stats()["survivors"] == 1

    def test_stats_count_one_search_for_noise(self):
        classifier = Classifier(default_rule_table())
        assert classifier.stats() == {
            "rules": 17, "always_walked": 0,
            "messages": 0, "survivors": 0, "searches": 0,
        }
        classifier(message("LSP change: path recomputed"))
        classifier.match(message("User authentication: session opened"))
        stats = classifier.stats()
        assert (stats["messages"], stats["survivors"], stats["searches"]) == (2, 0, 2)
        classifier(message("TCAM error on unit 0"))
        stats = classifier.stats()
        assert stats["survivors"] == 1
        assert stats["searches"] < 2 + len(default_rule_table())

    def test_empty_table(self):
        classifier = Classifier([])
        assert classifier(message("anything")) is None
        assert classifier.counts[EventSeverity.IGNORED] == 1


# -- the property: any table, any message, same answer as the walk ----------

_ALPHABET = "ab1 -.+(]AB"
_PLAIN_ATOMS = st.sampled_from(list("ab1 -") + [r"\.", r"\+", r"\-", r"\("])
_WILD_ATOMS = st.sampled_from([".", ".*", r"\d+", r"\w", "[ab]", "[^a]", r"[]\]1]"])
_BOUNDED = ["?", "{2}", "{0,2}", "{1,2}", "{,1}", "??"]
_REPEATS = st.sampled_from([""] * 8 + _BOUNDED + ["*", "+", "*?", "+?"])
# On a group only bounded repeats are drawn: (a*)* and (a|a)* make ``re``
# itself backtrack exponentially, which is no fault of the classifier's.
_GROUP_REPEATS = st.sampled_from([""] * 4 + _BOUNDED)


def _repeated(atoms, repeats=_REPEATS):
    return st.tuples(atoms, repeats).map("".join)


def _sequences(piece):
    pieces = st.one_of(piece, piece, piece, piece, st.sampled_from(["^", "$", r"\b"]))
    return st.lists(pieces, min_size=1, max_size=6).map("".join)


def _groups(inner):
    body = st.one_of(inner, st.tuples(inner, inner).map("|".join))
    group = st.one_of(body.map("({})".format), body.map("(?:{})".format))
    return _sequences(
        st.one_of(
            _repeated(_PLAIN_ATOMS),
            _repeated(_WILD_ATOMS),
            _repeated(group, _GROUP_REPEATS),
        )
    )


def _compiles(pattern):
    try:
        re.compile(pattern)
    except (re.error, RecursionError):
        return False
    return True


#: Plain words over three letters: literals that prefix and overlap one another.
_WORDS = st.text(alphabet="ab1", min_size=1, max_size=4)
_BODIES = st.recursive(
    _sequences(_repeated(st.one_of(_PLAIN_ATOMS, _PLAIN_ATOMS, _WILD_ATOMS))),
    _groups,
    max_leaves=4,
)
_GRAMMAR = st.one_of(
    _BODIES,
    _BODIES,
    _BODIES,
    st.tuples(_BODIES, _BODIES).map("|".join),
    st.one_of(_BODIES, _WORDS).map("(?i){}".format),
    st.tuples(_BODIES, _BODIES).map(lambda p: rf"({p[0]}|b)-?\1{p[1]}"),
    st.sampled_from(["(?:ab)*1", "(a|b1)+-", "(?:a1)+?b"]),  # a group, unbounded
    st.sampled_from(["", "a*", "(?:)", "1?$", r"\b"]),  # match the empty string
).filter(_compiles)
#: Plain characters, half of them repeated: where a literal must be cut.
_SENTENCES = st.lists(
    _repeated(_PLAIN_ATOMS, st.sampled_from(["", "", "", "+", "{2}", "?", "*"])),
    min_size=3,
    max_size=6,
).map("".join)
#: What one rule table is drawn from.
_FAMILIES = {
    "grammar": _GRAMMAR,
    "words": _WORDS,
    "sentences": _SENTENCES,
    "mixed": st.one_of(_GRAMMAR, _WORDS, _SENTENCES),
}
_NOISE = st.text(alphabet=_ALPHABET, max_size=4)


def _texts_about(patterns):
    """Short messages from the rules' alphabet, most of them built around a
    match of one of ``patterns`` (so that rules compete for a line)."""
    matches = [
        st.from_regex(re.compile(pattern), fullmatch=True, alphabet=_ALPHABET).map(
            lambda text: text[:24]
        )
        for pattern in patterns
    ]
    around = st.tuples(_NOISE, st.one_of(_NOISE, *matches), _NOISE).map("".join)
    return st.lists(around, min_size=1, max_size=6)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
class TestAgreesWithTheReferenceWalk:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_match_contains_the_required_literal(self, family, data):
        compiled = re.compile(data.draw(_FAMILIES[family]))
        for text in data.draw(_texts_about([compiled.pattern])):
            if compiled.search(text):
                assert required_literal(compiled) in text

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_same_rule_counts_alerts_and_callbacks(self, family, data):
        specs = data.draw(
            st.lists(
                st.tuples(
                    _FAMILIES[family],
                    st.sampled_from(Classifier._SEVERITY_ORDER),
                    st.sampled_from(["", "", "fix", "unregistered"]),
                ),
                max_size=8,
            )
        )
        texts = data.draw(_texts_about([pattern for pattern, _, _ in specs]))
        rules = [
            SyslogRule(f"rule-{index}", pattern, severity, remediation)
            for index, (pattern, severity, remediation) in enumerate(specs)
        ]
        classifier = Classifier(rules)
        heard = []
        classifier.on_alert(lambda alert: heard.append(("first", alert)))
        classifier.on_alert(lambda alert: heard.append(("second", alert)))
        classifier.register_remediation("fix", lambda alert: heard.append(("fix", alert)))

        counts, alerts, expected_heard = Counter(), [], []
        for index, text in enumerate(texts):
            msg = SyslogMessage("psw1", "EVENT", text, float(index))
            expected = reference_walk(rules, msg.render())
            assert classifier.match(msg) is expected
            if expected is None:
                counts[EventSeverity.IGNORED] += 1
                assert classifier(msg) is None
                continue
            alert = Alert(expected.name, expected.severity, "psw1", text, float(index))
            counts[expected.severity] += 1
            alerts.append(alert)
            expected_heard += [("first", alert), ("second", alert)]
            if expected.remediation == "fix":
                expected_heard.append(("fix", alert))
            assert classifier(msg) == alert
        assert classifier.counts == counts
        assert classifier.alerts == alerts
        assert heard == expected_heard
        # match() and __call__ each looked at every message once.
        assert classifier.stats()["messages"] == 2 * len(texts)


class TestEndToEndPassivePipeline:
    def test_device_to_alert(self, pop_network):
        """A link-down-ish event flows device → anycast → classifier."""
        robotron = pop_network
        device = robotron.fleet.get("pop01.c01.psw1")
        before = len(robotron.classifier.alerts)
        device.emit_syslog("EVENT", "Interface ae0 link state down")
        assert len(robotron.classifier.alerts) == before + 1
        assert robotron.classifier.alerts[-1].device == "pop01.c01.psw1"
