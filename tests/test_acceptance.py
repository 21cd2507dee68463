"""Acceptance gate: every verification suite passes inside its time budget.

Each case runs one suite end to end at its pinned tolerances and prints a
single PASS/FAIL line (wall seconds against the budget).  Each budget is
about 30 times the suite's median time over five tier-1 runs on a 2-core
x86-64 VM, and at least 0.1 s: a suite that becomes 30 times slower fails,
while scheduler noise and a garbage collection pause do not.  Every row a
suite emits must also have a failing mutation in test_verify.MUTATIONS or
be listed in test_verify.KNOWN_WEAK, so a new row cannot land without a
check that it can fail.
"""

import time

import pytest

from fairtrade.verify import run_suite
from record_golden import check_verify_rows
from test_verify import KNOWN_WEAK, MUTATIONS

# (index, suite, wall-clock budget in seconds)
ACCEPTANCE = (
    (1, "convolution-lemma", 0.4),
    (2, "sandwich", 0.9),
    (3, "indistinguishability", 0.25),
    (4, "gft-trap", 0.1),
    (5, "dbs-bound", 0.25),
    (6, "dbs-log-growth", 0.25),
    (7, "stochastic-rate", 4.0),
    (8, "full-feedback-rate", 30.0),
    (9, "epsilon-family", 0.1),
    (10, "oracle-equivalence", 0.5),
)


@pytest.mark.parametrize(
    "index,suite,budget", ACCEPTANCE, ids=[name for _, name, _ in ACCEPTANCE]
)
def test_acceptance(index, suite, budget, capsys):
    t0 = time.perf_counter()
    rows = run_suite(suite)
    elapsed = time.perf_counter() - t0

    assert rows, f"suite {suite} produced no checks"
    ok = all(row.passed for row in rows) and elapsed < budget
    n_pass = sum(row.passed for row in rows)
    with capsys.disabled():
        print(
            f"{'PASS' if ok else 'FAIL'} [{index:2d}/{len(ACCEPTANCE)}] {suite}: "
            f"{n_pass}/{len(rows)} checks, {elapsed:.3f}s (budget {budget:g}s)"
        )

    detail = "; ".join(
        f"{row.check}: measured={row.measured:.6g} tolerance={row.tolerance:.6g}"
        for row in rows
        if not row.passed
    )
    assert n_pass == len(rows), f"failing checks -> {detail}"
    assert elapsed < budget, f"{suite} took {elapsed:.3f}s, budget {budget:g}s"
    covered = KNOWN_WEAK.union(*(rows for _, _, rows in MUTATIONS.values()))
    uncovered = [row.check for row in rows if row.check not in covered]
    assert not uncovered, f"rows with no failing mutation in test_verify.MUTATIONS -> {uncovered}"
    check_verify_rows(suite, rows)
