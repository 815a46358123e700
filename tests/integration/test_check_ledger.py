"""The one benchmark gate, executed by tier-1 and not only by CI.

``benchmarks/check_ledger.py`` is fed the traced runs committed with the
ledger (PR 11's, which is why some read over today's limits) and a
synthetic bench JSON: every row of ``GATES`` must resolve to a number, a
value over its limit must be reported, and a path no row reads is an error.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
TRACED = BENCHMARKS / "ledger" / "baseline" / "traced"
BENCHES = {
    "BENCH_remediation": {"convergence_ref_s": 0.2},
    "BENCH_shard": {"build_ref_s": 9.0, "provision_ref_s": 7.0},
    "BENCH_change": {"ledger_1k": {"validate_p50_ref_s": 0.7, "relabel_p50_ref_s": 0.7}},
}


@pytest.fixture(scope="module")
def check_ledger():
    spec = importlib.util.spec_from_file_location(
        "check_ledger", BENCHMARKS / "check_ledger.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_row_resolves_and_an_excess_is_reported(check_ledger, tmp_path, capsys):
    paths = sorted(TRACED.glob("traced-*.json"))
    for stem, numbers in BENCHES.items():
        paths.append(tmp_path / f"{stem}.json")
        paths[-1].write_text(json.dumps(numbers))
    problems = [problem for path in paths for problem in check_ledger.check(path)]
    measured = capsys.readouterr().out.splitlines()
    assert len(measured) == len(check_ledger.GATES)
    assert {line.split(":")[0] for line in measured} == {
        row[0] for row in check_ledger.GATES
    }
    # 10,682 journal records a cycle is what PR 15 fixed; the benches are in budget.
    assert any("journal records scanned a cycle" in p for p in problems)
    assert not any(p.startswith("BENCH_") for p in problems)

    slow = tmp_path / "slow" / "BENCH_remediation.json"
    slow.parent.mkdir()
    slow.write_text(json.dumps({"convergence_ref_s": 9.0}))
    [problem] = check_ledger.check(slow)
    assert "storm convergence" in problem and "is 9, over" in problem


def test_a_path_no_row_reads_is_an_error(check_ledger, tmp_path):
    stray = tmp_path / "BENCH_parallel.json"
    stray.write_text(json.dumps({"speedup": 3.0}))
    assert check_ledger.check(stray) == [
        "BENCH_parallel.json: no gate reads a BENCH_parallel run"
    ]
    # A directory is read as CI reads it: exactly one traced run inside.
    (tmp_path / "empty").mkdir()
    with pytest.raises(ValueError):
        check_ledger.check(tmp_path / "empty")
