"""``fairtrade run`` on the two golden configs writes the CSVs in tests/golden.json.

test_acceptance.py checks the verify rows against the same file;
record_golden.py records both and says how they are compared.
"""

import json

import pytest

from fairtrade.algorithms import LEARNER_ID_PATTERNS, parse_learner
from fairtrade.verify import SUITE_ORDER, CheckResult
import record_golden
from record_golden import RUN_CONFIGS, check_run, load, run_csv


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_run_csv_matches_golden(name, tmp_path):
    check_run(name, run_csv(name, tmp_path))


def test_golden_runs_cover_every_learner_kind():
    kinds = {
        parse_learner(run["learner"]).kind
        for path in RUN_CONFIGS.values()
        for run in json.loads(path.read_text(encoding="utf-8"))["runs"]
    }
    assert kinds == {pattern.partition(":")[0] for pattern in LEARNER_ID_PATTERNS}


def test_golden_records_every_suite():
    assert tuple(load()["verify"]) == SUITE_ORDER


def test_off_machine_comparison_is_relative(monkeypatch):
    want = load()["verify"]["oracle-equivalence"][0]
    measured, tolerance = (float.fromhex(want[key]) for key in ("measured", "tolerance"))

    def rows(scale):
        return [CheckResult(want["check"], want["pass"], measured * scale, tolerance, 0.0)]

    with pytest.raises(AssertionError, match="^exact comparison"):
        record_golden.check_verify_rows("oracle-equivalence", rows(1.0 + 1e-15))
    monkeypatch.setattr(record_golden, "machine", lambda: {"numpy": "0.0", "cpu_features": []})
    record_golden.check_verify_rows("oracle-equivalence", rows(1.0 + 1e-13))
    with pytest.raises(AssertionError, match="^comparison within 1e-12 relative"):
        record_golden.check_verify_rows("oracle-equivalence", rows(1.0 + 1e-11))
