"""Verification-suite plumbing and the random instance generators."""

import numpy as np
import pytest

from fairtrade import kernels, verify
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


def test_stochastic_rate_fails_when_conv_pricing_commits_to_the_first_grid_price(monkeypatch):
    # committing to price 1/K whatever the sweep measured forfeits a constant
    # per round, so regret grows linearly: every slope and ratio row fails
    commit = kernels.conv_pricing_commit

    def commit_to_index_one(sellers, buyers, grid_size):
        commits, seller_bits, buyer_bits = commit(sellers, buyers, grid_size)
        return np.ones_like(commits), seller_bits, buyer_bits

    monkeypatch.setattr(kernels, "conv_pricing_commit", commit_to_index_one)
    rows = run_suite("stochastic-rate")
    assert len(rows) == 6
    assert not any(row.passed for row in rows)


def test_sandwich_fails_when_the_convolution_reads_b_one_index_late(monkeypatch):
    # pairing A[i-k] with B[i+k+1] (zero past index 2K) shifts every score by
    # one grid step of the buyer's co-CDF, out of the [0, 1/K] band above the
    # exact reward
    convolve = verify._float_incomplete_convolution

    def one_index_late(av, bv, K):
        return convolve(av, np.append(bv[1:], 0.0), K)

    monkeypatch.setattr(verify, "_float_incomplete_convolution", one_index_late)
    (row,) = run_suite("sandwich")
    assert not row.passed
    assert row.measured > 1e-3


def test_full_feedback_rows_fail_when_fbep_posts_one_half_forever(monkeypatch):
    # index cands.size is round 0's 1/2: a learner that never moves loses a
    # constant per round wherever 1/2 is not optimal, so the rate rows and
    # the second deterministic pair fail.  The first pair's optimum is 1/2
    # itself, so its row cannot catch this learner.
    def posts_one_half(seed, cum, cands, reward_matrix, horizon):
        return np.full(int(horizon), cands.size)

    monkeypatch.setattr(kernels, "fbep_prices", posts_one_half)
    rows = {row.check: row for row in run_suite("full-feedback-rate")}
    assert len(rows) == 10
    assert rows.pop("full-feedback-deterministic").passed
    assert rows["full-feedback-deterministic:det:s=0.1,b=0.5"].measured == pytest.approx(200.0)
    assert not any(row.passed for row in rows.values())


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
    joint = env.joint
    # a product joint: its seller-major weight table is the outer product of its sums
    table = joint.weights.reshape(np.unique(joint.sellers).size, -1)
    np.testing.assert_allclose(table, np.outer(table.sum(1), table.sum(0)), rtol=0, atol=1e-15)
    assert max(joint.sellers) < min(joint.buyers)
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
