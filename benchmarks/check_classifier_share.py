"""Gate on a traced ``monitor`` ledger: syslog classification stays cheap.

    python3 benchmarks/ledger/run.py --workload monitor --seconds 1 --trace --out DIR
    python3 benchmarks/check_classifier_share.py DIR

Fails if ``monitoring.classifier`` owns more than a quarter of the round
(it was 61 % when every message walked all 719 rules, and is under 20 %
behind the prefilter), or if ``monitoring.classifier.alert_share`` is not
the share of the generated burst that was built to match a rule — a
prefilter that dropped a matching line would move it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))

import inputs  # noqa: E402  (benchmarks/ledger/inputs.py)

MAX_SHARE = 0.25


def check(out: Path) -> list[str]:
    [path] = out.glob("traced-monitor-*.json")
    run = json.loads(path.read_text())
    layers = run["layers"]
    share = layers["busy_s"]["monitoring.classifier"] / layers["round_s"]
    burst = len(inputs.monitor(run["seed"], run["scale"], run["size"])["syslog"])
    expected = (burst - inputs.syslog_mix(burst)["ignored"]) / burst
    alert_share = run["metrics"]["monitoring.classifier.alert_share"]["value"]
    print(
        f"monitoring.classifier: {share:.1%} of the round (limit {MAX_SHARE:.0%}), "
        f"alert_share {alert_share:.4f} (generated {expected:.4f})"
    )
    problems = []
    if share > MAX_SHARE:
        problems.append(f"monitoring.classifier is {share:.1%} of the round")
    if abs(alert_share - expected) > 1e-9:
        problems.append(f"alert_share {alert_share} != generated {expected}")
    return problems


if __name__ == "__main__":
    failures = check(Path(sys.argv[1]))
    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)
