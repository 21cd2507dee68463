"""Verification-suite plumbing and the random instance generators."""

import numpy as np
import pytest

from fairtrade import kernels
from fairtrade.core import best_fixed_price_fgft
from fairtrade.verify import (
    SUITE_ORDER,
    SUITES,
    UnknownSuiteError,
    random_independent_env,
    random_joint_env,
    random_marginal,
    resolve_suite_names,
    run_suite,
    run_suites,
)
from fairtrade.rng import SplitMix64


def test_suite_registry_order():
    assert SUITE_ORDER == (
        "convolution-lemma",
        "sandwich",
        "indistinguishability",
        "gft-trap",
        "dbs-bound",
        "dbs-log-growth",
        "stochastic-rate",
        "full-feedback-rate",
        "epsilon-family",
        "oracle-equivalence",
    )
    assert set(SUITES) == set(SUITE_ORDER)


def test_resolve_suite_names():
    assert resolve_suite_names("all") == SUITE_ORDER
    assert resolve_suite_names("sandwich") == ("sandwich",)
    with pytest.raises(UnknownSuiteError):
        resolve_suite_names("nope")


def test_check_result_report_shape():
    rows = run_suite("gft-trap")
    assert len(rows) == 1
    row = rows[0]
    assert row.check == "gft-trap-regret"
    assert row.passed
    d = row.as_dict()
    assert set(d) == {"check", "pass", "measured", "tolerance", "runtime_ms"}
    assert d["pass"] is True
    assert d["runtime_ms"] >= 0.0


def test_run_suites_concatenates_in_order():
    rows = run_suites(("gft-trap", "epsilon-family"))
    assert [r.check for r in rows] == [
        "gft-trap-regret",
        "epsilon-family-closed-form",
        "epsilon-family-argmax",
    ]
    assert all(r.passed for r in rows)


def test_dbs_suites_fail_when_dbs_commits_at_one_half(monkeypatch):
    # a wrong learner must fail the checks: committing at 1/2 instead of the
    # bisection midpoint loses a constant per round on most point masses
    explore = kernels.dbs_explore

    def commit_at_one_half(sellers, buyers, n_rounds):
        prices, commit = explore(sellers, buyers, n_rounds)
        return prices, np.full_like(commit, 0.5)

    monkeypatch.setattr(kernels, "dbs_explore", commit_at_one_half)
    rows = {row.check: row for row in run_suites(("dbs-bound", "dbs-log-growth"))}
    assert not rows["dbs-bound"].passed
    assert not rows["dbs-log-growth-increment"].passed


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------


def test_random_marginal_is_valid_and_deterministic():
    a = random_marginal(SplitMix64(5), 4, lo=0.2, hi=0.6)
    b = random_marginal(SplitMix64(5), 4, lo=0.2, hi=0.6)
    assert a.values.tolist() == b.values.tolist()
    assert a.weights.tolist() == b.weights.tolist()
    assert a.values.size == 4
    assert all(0.2 <= v < 0.6 for v in a.values)
    assert a.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_random_independent_env_keeps_supports_separated(seed):
    env = random_independent_env(seed)
    assert env.env_id == f"random-ind:seed={seed}"
    assert env.is_independent
    assert max(env.seller_marginal.values) < min(env.buyer_marginal.values)
    # separation bounds the optimal reward away from zero
    assert best_fixed_price_fgft(env.joint).value > 0.05


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 303, 404])
def test_random_joint_env_always_admits_a_trade(seed):
    env = random_joint_env(seed)
    assert env.env_id == f"random-joint:seed={seed}"
    assert 3 <= env.joint.n_atoms <= 6
    gaps = env.joint.buyers - env.joint.sellers
    assert gaps.max() >= 0.1  # the redraw guarantee
    assert best_fixed_price_fgft(env.joint).value > 0.0


def test_random_joint_env_is_deterministic():
    a = random_joint_env(404)
    b = random_joint_env(404)
    assert a.joint.sellers.tolist() == b.joint.sellers.tolist()
    assert a.joint.buyers.tolist() == b.joint.buyers.tolist()
    assert a.joint.weights.tolist() == b.joint.weights.tolist()
