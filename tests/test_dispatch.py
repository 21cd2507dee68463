"""Outputs are bitwise equal across the SIMD dispatch levels this host enables.

NumPy picks its SIMD loops at run time, and a loop of another level may
group a float reduction differently.  Two child processes, started
together, each run the two golden configs (record_golden.RUN_CONFIGS) and
the eight verify-exact suites of the benchmark: one at NumPy's default
dispatch, and one at its baseline, with every dispatched level this host
enables switched off through NPY_DISABLE_CPU_FEATURES in that child's
environment only.  Their CSV bytes, and the float.hex of every verify
row's measured and tolerance, must be equal.  The children are compared
with each other, not with tests/golden.json, so the test holds on any host
that has a level above the baseline; on one that has none it skips.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from record_golden import RUN_CONFIGS, run_csv, verify_record
from workloads import VERIFY_SUITES
from fairtrade.verify import run_suites

runs = {name: run_csv(name, sys.argv[1]).decode("utf-8") for name in sorted(RUN_CONFIGS)}
print(json.dumps({
    "levels": [level for level in __cpu_dispatch__ if __cpu_features__[level]],
    "runs": runs,
    "verify": verify_record(run_suites(VERIFY_SUITES)),
}))
"""


def _enabled_levels() -> list:
    return [level for level in __cpu_dispatch__ if __cpu_features__[level]]


def test_outputs_are_bitwise_equal_at_the_baseline_dispatch_level(tmp_path):
    levels = _enabled_levels()
    if not levels:
        pytest.skip("NumPy enables no dispatched SIMD level above its baseline here: no second level to compare")
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests", "perfbench"))
    default = dict(os.environ, PYTHONPATH=path)
    # the levels already off here stay off: disabling one level leaves the others on
    disabled = " ".join(filter(None, [os.environ.get("NPY_DISABLE_CPU_FEATURES"), *levels]))
    envs = {"default": default, "baseline": dict(default, NPY_DISABLE_CPU_FEATURES=disabled)}
    procs = {}
    for name, env in envs.items():
        (tmp_path / name).mkdir()
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", _SCRIPT, str(tmp_path / name)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env,
        )
    out = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{name} child: {stderr}"
        out[name] = json.loads(stdout.strip().splitlines()[-1])
    assert (out["default"]["levels"], out["baseline"]["levels"]) == (levels, [])
    for name, csv in out["default"]["runs"].items():
        assert out["baseline"]["runs"][name] == csv, f"the CSV of {name} differs at the baseline level"
    assert out["baseline"]["verify"] == out["default"]["verify"]
