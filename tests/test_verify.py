"""Verification-suite plumbing and the random instance generators."""

import numpy as np
import pytest

from fairtrade import core, harness, kernels, verify
from fairtrade.core import FiniteJointDistribution, best_fixed_price_fgft, fgft_candidates
from fairtrade.environments import Environment, epsilon_family, random_marginal
from fairtrade.verify import (
    SUITE_ORDER,
    SUITES,
    UnknownSuiteError,
    random_independent_env,
    random_joint_env,
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


# ---------------------------------------------------------------------------
# committed mutations: every verify row fails under some wrong implementation
# ---------------------------------------------------------------------------


def _dbs_commits_at_one_half(monkeypatch):
    # committing at 1/2 instead of the bisection midpoint loses a constant
    # per round on most point masses
    explore = kernels.dbs_explore

    def commit_at_one_half(sellers, buyers, n_rounds):
        prices, commit = explore(sellers, buyers, n_rounds)
        return prices, np.full_like(commit, 0.5)

    monkeypatch.setattr(kernels, "dbs_explore", commit_at_one_half)


def _conv_pricing_commits_to_index_one(monkeypatch):
    # committing to price 1/K whatever the sweep measured forfeits a constant
    # per round, so regret grows linearly
    commit = kernels.conv_pricing_commit

    def commit_to_index_one(sellers, buyers, grid_size):
        commits, seller_bits, buyer_bits = commit(sellers, buyers, grid_size)
        return np.ones_like(commits), seller_bits, buyer_bits

    monkeypatch.setattr(kernels, "conv_pricing_commit", commit_to_index_one)


def _sandwich_reads_buyer_one_index_late(monkeypatch):
    # pairing V_{i-k} with W_{i+k+1} (zero past index K) shifts every score
    # by one grid step of the buyer's co-CDF, out of the [0, 1/K] band above
    # the exact reward
    convolve = kernels.incomplete_convolution

    def one_index_late(seller_bits, buyer_bits, grid_size):
        late = np.concatenate([buyer_bits[:, 1:], np.zeros((buyer_bits.shape[0], 1))], axis=1)
        return convolve(seller_bits, late, grid_size)

    monkeypatch.setattr(kernels, "incomplete_convolution", one_index_late)


def _fbep_posts_one_half_forever(monkeypatch):
    # index cands.size is round 0's 1/2: a learner that never moves loses a
    # constant per round wherever 1/2 is not optimal
    def posts_one_half(seed, cum, cands, reward_matrix, horizon):
        return np.full(int(horizon), cands.size)

    monkeypatch.setattr(kernels, "fbep_prices", posts_one_half)


def _oracle_returns_second_best(monkeypatch):
    # each row's second best of its distinct candidates; the joint oracle is
    # the row oracle's one-row case, so both suites' oracles take the mutation
    def second_best(sellers, buyers, weights):
        best = []
        for s, b, w in zip(sellers, buyers, weights):
            cands = fgft_candidates(s, b)
            vals = kernels.expected_fgft_at(cands, s, b, w)
            i = int(np.argsort(vals, kind="stable")[-2])
            best.append((cands[i], vals[i]))
        return tuple(np.array(column) for column in zip(*best))

    for module in (core, verify):
        monkeypatch.setattr(module, "best_fixed_price_fgft_rows", second_best)


def _gft_oracle_posts_the_fgft_optimum(monkeypatch):
    monkeypatch.setattr(core, "best_fixed_price_gft", best_fixed_price_fgft)


def _lb_nu_moves_an_atom(monkeypatch):
    # lb-nu with its (3/8, 1) atom at (0.38, 1): the seller's bit now differs
    # from lb-mu's on prices in [3/8, 0.38)
    def moved():
        joint = FiniteJointDistribution([0.0, 0.38, 5 / 8], [3 / 8, 1.0, 5 / 8], [1 / 3] * 3)
        return Environment(env_id="lb-nu", joint=joint)

    monkeypatch.setattr(harness, "lb_nu", moved)


def _epsilon_family_flips_sign(monkeypatch):
    monkeypatch.setattr(verify, "epsilon_family", lambda eps: epsilon_family(-eps))


def _regret_drops_the_tail(monkeypatch):
    profile = harness._profile_regret

    def explore_only(gaps, tails, tail_len):
        return profile(gaps, tails, 0)

    monkeypatch.setattr(harness, "_profile_regret", explore_only)


def _overlap_count_one_too_many(monkeypatch):
    approx = kernels.convolution_approx_batch

    def one_more(prices, sellers, buyers, grid_size):
        return np.minimum(approx(prices, sellers, buyers, grid_size) + 1.0 / grid_size, 1.0)

    monkeypatch.setattr(kernels, "convolution_approx_batch", one_more)


def _overlap_count_one_too_few(monkeypatch):
    # one overlap fewer, floored at an empty count: approx - exact drops to
    # -1/M on triples where the count was 1
    approx = kernels.convolution_approx_batch

    def one_fewer(prices, sellers, buyers, grid_size):
        return np.maximum(approx(prices, sellers, buyers, grid_size) - 1.0 / grid_size, 0.0)

    monkeypatch.setattr(kernels, "convolution_approx_batch", one_fewer)


def _oracle_value_low(monkeypatch):
    # each v* reported 5e-5 low at the right price: |v* - brute| stays under
    # 1e-4, but v* falls below the brute-force maximum and off E[fgft] there
    rows = core.best_fixed_price_fgft_rows

    def low(sellers, buyers, weights):
        prices, values = rows(sellers, buyers, weights)
        return prices, values - 5e-5

    monkeypatch.setattr(verify, "best_fixed_price_fgft_rows", low)


def _rate_row_names(prefix, env_ids):
    return {f"{prefix}-{kind}:{env_id}" for env_id in env_ids for kind in ("slope", "ratio")}


# mutation -> (suites it runs, how it mutates, the rows of those suites that
# must fail; every other row of them must still pass)
MUTATIONS = {
    "dbs-commits-at-one-half": (
        ("dbs-bound", "dbs-log-growth"),
        _dbs_commits_at_one_half,
        {"dbs-bound", "dbs-log-growth-increment"},
    ),
    "conv-pricing-commits-to-index-one": (
        ("stochastic-rate",),
        _conv_pricing_commits_to_index_one,
        _rate_row_names(
            "stochastic-rate", ("eps-family:eps=0.2", "random-ind:seed=101", "random-ind:seed=202")
        ),
    ),
    "sandwich-reads-buyer-one-index-late": (
        ("sandwich",),
        _sandwich_reads_buyer_one_index_late,
        {"sandwich"},
    ),
    "fbep-posts-one-half-forever": (
        ("full-feedback-rate",),
        _fbep_posts_one_half_forever,
        _rate_row_names(
            "full-feedback-rate", ("lb-mu", "lb-nu", "random-joint:seed=303", "random-joint:seed=404")
        )
        | {"full-feedback-deterministic:det:s=0.1,b=0.5"},
    ),
    "oracle-returns-second-best": (
        ("oracle-equivalence", "epsilon-family"),
        _oracle_returns_second_best,
        {"oracle-equivalence", "epsilon-family-argmax"},
    ),
    "gft-oracle-posts-the-fgft-optimum": (
        ("gft-trap",),
        _gft_oracle_posts_the_fgft_optimum,
        {"gft-trap-regret"},
    ),
    "lb-nu-moves-an-atom": (
        ("indistinguishability",),
        _lb_nu_moves_an_atom,
        {"indistinguishability-tables", "indistinguishability-coupling"},
    ),
    "epsilon-family-flips-sign": (
        ("epsilon-family",),
        _epsilon_family_flips_sign,
        {"epsilon-family-closed-form", "epsilon-family-argmax"},
    ),
    "regret-drops-the-tail": (
        ("indistinguishability",),
        _regret_drops_the_tail,
        {"indistinguishability-regret"},
    ),
    "overlap-count-one-too-many": (
        ("convolution-lemma",),
        _overlap_count_one_too_many,
        {"convolution-lemma"},
    ),
    "overlap-count-one-too-few": (
        ("convolution-lemma",),
        _overlap_count_one_too_few,
        {"convolution-lemma"},
    ),
    "oracle-value-low": (
        ("oracle-equivalence",),
        _oracle_value_low,
        {"oracle-equivalence"},
    ),
}

# Rows no honest mutation fails (see their suites' docstrings).
KNOWN_WEAK = {"dbs-log-growth-monotone", "full-feedback-deterministic"}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_fails_its_rows(monkeypatch, name):
    suites, mutate, must_fail = MUTATIONS[name]
    mutate(monkeypatch)
    rows = run_suites(suites)
    assert {row.check for row in rows if not row.passed} == must_fail


@pytest.mark.parametrize("suite,points", [("dbs-bound", 65 * 65), ("dbs-log-growth", 4097)])
def test_point_mass_suites_bisect_each_point_once(monkeypatch, suite, points):
    # every horizon of the suite shares one dbs_explore call per block of
    # POINT_BLOCK points; one call per horizon would be 4 or 9 times as many
    explore, rows = kernels.dbs_explore, []

    def counting(sellers, buyers, n_rounds):
        rows.append(len(sellers))
        return explore(sellers, buyers, n_rounds)

    monkeypatch.setattr(kernels, "dbs_explore", counting)
    assert all(row.passed for row in run_suite(suite))
    assert (len(rows), sum(rows)) == (-(-points // harness.POINT_BLOCK), points)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that logs each call's arguments."""
    calls, original = [], getattr(owner, name)

    def logged(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)
    return calls


def test_oracle_equivalence_scores_every_oracle_in_one_call(monkeypatch):
    # core reads expected_fgft_at by name, so the oracle's calls are core's
    brute = _counting(monkeypatch, kernels, "expected_fgft_at")
    oracle = _counting(monkeypatch, core, "expected_fgft_at")
    joints = _counting(monkeypatch, core.FiniteJointDistribution, "__init__")
    assert all(row.passed for row in run_suite("oracle-equivalence"))
    # one call scores each oracle's own price, then one brute force per joint
    assert [np.shape(prices) for prices, *_ in brute] == [(100, 1)] + [(10001,)] * 100
    assert [np.shape(prices)[0] for prices, *_ in oracle] == [100]
    assert joints == []


def test_sandwich_builds_no_marginal(monkeypatch):
    marginals = _counting(monkeypatch, core.FiniteMarginal, "__init__")
    assert all(row.passed for row in run_suite("sandwich"))
    assert marginals == []


def test_known_weak_rows_have_no_mutation():
    # a row that gains a failing mutation leaves the known-weak list
    assert KNOWN_WEAK.isdisjoint(set().union(*(rows for _, _, rows in MUTATIONS.values())))


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
    assert 3 <= env.joint.weights.size <= 6
    gaps = env.joint.buyers - env.joint.sellers
    assert gaps.max() >= 0.1  # the redraw guarantee
    assert best_fixed_price_fgft(env.joint).value > 0.0


def test_random_joint_env_is_deterministic():
    a = random_joint_env(404)
    b = random_joint_env(404)
    assert a.joint.sellers.tolist() == b.joint.sellers.tolist()
    assert a.joint.buyers.tolist() == b.joint.buyers.tolist()
    assert a.joint.weights.tolist() == b.joint.weights.tolist()
