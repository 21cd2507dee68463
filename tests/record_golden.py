"""Record tests/golden.json: every verify row and the CSVs of two small runs.

Usage (from the repository root):

    PYTHONPATH=src python tests/record_golden.py

The file holds every row of ``fairtrade verify --suite all`` (check, pass,
and measured and tolerance as ``float.hex()``) and, for each config in
tests/golden_runs/, the CSV that ``fairtrade run`` writes for it and its
sha256.  The two configs, one two-bit and one full-feedback, together run
every learner kind.

Price paths are exact on any machine, but ``np.sum``'s pairwise reduction
may group its terms differently on another NumPy or SIMD path.  So the file
also records the NumPy version and the CPU features NumPy dispatches on.
Where both match the running ones, ``check_verify_rows`` and ``check_run``
demand equality; elsewhere every number must agree within REL_TOL relative
(a CSV figure, printed to 12 significant digits, may also differ by one
unit in its last digit).  Their assertion messages name the comparison that
ran.  tests/test_acceptance.py checks the verify rows and
tests/test_golden.py the runs.  A change that re-records the file lists
every changed row, old and new.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
RUN_CONFIGS = {name: HERE / "golden_runs" / f"{name}.json" for name in ("two-bit", "full-feedback")}
REL_TOL = 1e-12


def machine() -> dict:
    """The NumPy version and the CPU features its dispatch has enabled."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {"numpy": np.__version__, "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def verify_record(rows) -> list:
    return [
        {"check": r.check, "pass": r.passed, "measured": r.measured.hex(), "tolerance": r.tolerance.hex()}
        for r in rows
    ]


def run_csv(name: str, out_dir) -> bytes:
    """The bytes of the CSV ``fairtrade run`` writes for the golden config ``name``."""
    from fairtrade import cli

    out = Path(out_dir) / f"{name}.csv"
    code = cli.main(["run", "--config", str(RUN_CONFIGS[name]), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"fairtrade run on {RUN_CONFIGS[name]} exited {code}")
    return out.read_bytes()


def run_record(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "csv": data.decode("utf-8").splitlines()}


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _comparison(golden: dict) -> tuple:
    """(exact, description of the comparison that runs here)."""
    here = machine()
    if here == {key: golden[key] for key in here}:
        return True, f"exact comparison (NumPy {here['numpy']} and CPU features as recorded)"
    features = "same" if here["cpu_features"] == golden["cpu_features"] else "other"
    return False, (
        f"comparison within {REL_TOL:g} relative (recorded under NumPy {golden['numpy']}, "
        f"running NumPy {here['numpy']} with {features} CPU features)"
    )


def _close(got: float, want: float, unit: float = 0.0) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + unit


def check_verify_rows(suite: str, rows) -> None:
    """Assert that one suite's rows are its rows in tests/golden.json."""
    golden = load()
    exact, how = _comparison(golden)
    got, want = verify_record(rows), golden["verify"][suite]
    if exact:
        diff = [f"{g} != recorded {w}" for g, w in itertools.zip_longest(got, want) if g != w]
        assert not diff, f"{how}: rows of {suite} differ from tests/golden.json -> " + "; ".join(diff)
        return
    assert [(g["check"], g["pass"]) for g in got] == [(w["check"], w["pass"]) for w in want], (
        f"{how}: checks or verdicts of {suite} differ from tests/golden.json"
    )
    for g, w in zip(got, want):
        for key in ("measured", "tolerance"):
            a, b = float.fromhex(g[key]), float.fromhex(w[key])
            assert _close(a, b), f"{how}: {g['check']} {key} {a!r} != recorded {b!r}"


def check_run(name: str, data: bytes) -> None:
    """Assert that the CSV of golden config ``name`` is the one in tests/golden.json."""
    golden = load()
    exact, how = _comparison(golden)
    got, want = run_record(data), golden["runs"][name]
    if exact:
        diff = [f"{g!r} != recorded {w!r}" for g, w in itertools.zip_longest(got["csv"], want["csv"]) if g != w]
        assert got == want, f"{how}: the CSV of {name} differs from tests/golden.json -> " + "; ".join(diff)
        return
    assert len(got["csv"]) == len(want["csv"]), f"{how}: the CSV of {name} has other rows"
    for g_line, w_line in zip(got["csv"], want["csv"]):
        for g, w in zip(g_line.split(","), w_line.split(","), strict=True):
            try:
                a, b = float(g), float(w)
            except ValueError:
                assert g == w, f"{how}: {name} row {g_line!r} != recorded {w_line!r}"
                continue
            unit = 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b else 0.0
            assert _close(a, b, unit), f"{how}: {name} row {g_line!r} != recorded {w_line!r}"


def record() -> dict:
    from fairtrade.verify import SUITE_ORDER, run_suite

    golden = machine()
    golden["verify"] = {suite: verify_record(run_suite(suite)) for suite in SUITE_ORDER}
    with tempfile.TemporaryDirectory() as tmp:
        golden["runs"] = {name: run_record(run_csv(name, tmp)) for name in RUN_CONFIGS}
    return golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
