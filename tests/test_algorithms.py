"""Learner behavior round by round, plus the id registry."""

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from fairtrade.algorithms import (
    LEARNER_ID_PATTERNS,
    ConvolutionPricing,
    DoubleBinarySearch,
    FixedPrice,
    FollowBestEmpiricalPrice,
    LearnerSpec,
    UniformRandom,
    ceil_log2,
    dbs_phase_length,
    dbs_regret_bound,
    default_grid_size,
    parse_learner,
)
from fairtrade.core import ValuationPair
from fairtrade.environments import (
    FeedbackModel,
    TwoBitFeedback,
    UnknownIdError,
    deterministic,
    gft_trap,
    lb_mu,
    render_feedback,
)
from reference import empirical_best_price, empirical_best_prices


def drive(learner, pair, rounds):
    """Run a two-bit learner against a fixed pair, returning its prices."""
    prices = []
    for _ in range(rounds):
        p = learner.propose()
        learner.update(render_feedback(FeedbackModel.TWO_BIT, p, pair))
        prices.append(p)
    return prices


# ---------------------------------------------------------------------------
# sizing helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (3, 2), (16, 4), (17, 5), (1000, 10)])
def test_ceil_log2(n, expected):
    assert ceil_log2(n) == expected


def test_ceil_log2_rejects_nonpositive():
    with pytest.raises(ValueError):
        ceil_log2(0)


@pytest.mark.parametrize(
    "horizon,expected",
    [(1, 1), (2, 1), (8, 4), (100, 21), (1000, 100), (10**6, 10**4)],
)
def test_default_grid_size(horizon, expected):
    assert default_grid_size(horizon) == expected


def test_default_grid_size_is_exact_cube_floor():
    for T in range(1, 2000):
        K = default_grid_size(T)
        assert K**3 <= T**2 < (K + 1) ** 3


@pytest.mark.parametrize("horizon,expected", [(1, 0), (4, 0), (5, 0), (16, 4), (1000, 10)])
def test_dbs_phase_length(horizon, expected):
    # phases only fit when 2*ceil(log2 T) + 1 <= T
    assert dbs_phase_length(horizon) == expected


def test_dbs_regret_bound_values():
    assert dbs_regret_bound(16) == 9.0
    assert dbs_regret_bound(1024) == 21.0


# ---------------------------------------------------------------------------
# grid pricing
# ---------------------------------------------------------------------------


def test_conv_pricing_explore_then_commit():
    learner = ConvolutionPricing(8)  # default K = 4
    assert learner.grid_size == 4
    prices = drive(learner, ValuationPair(0.2, 0.8), 6)
    assert prices[:4] == [0.25, 0.5, 0.75, 1.0]
    assert learner.commit_index == 2
    assert prices[4:] == [0.5, 0.5]  # best grid price for (0.2, 0.8)


def test_conv_pricing_single_round():
    learner = ConvolutionPricing(1)
    assert learner.grid_size == 1
    assert learner.propose() == 1.0


def test_conv_pricing_commit_prefers_smallest_index():
    learner = ConvolutionPricing(4, grid_size=4)
    # all-accept feedback scores the grid (1, 2, 2, 1): the edge indices each
    # lose one term to zero padding, and the middle tie breaks low
    for _ in range(4):
        learner.propose()
        learner.update(TwoBitFeedback(1, 1))
    assert learner.commit_index == 2


def test_conv_pricing_validation():
    with pytest.raises(ValueError):
        ConvolutionPricing(4, grid_size=5)  # grid exceeds horizon
    with pytest.raises(ValueError):
        ConvolutionPricing(4, grid_size=0)
    with pytest.raises(ValueError):
        ConvolutionPricing(0)
    learner = ConvolutionPricing(8)
    with pytest.raises(TypeError):
        learner.update(ValuationPair(0.2, 0.8))  # needs the two bits


# ---------------------------------------------------------------------------
# double binary search
# ---------------------------------------------------------------------------


def test_dbs_bisection_trace():
    learner = DoubleBinarySearch(16)  # N = 4 per side
    prices = drive(learner, ValuationPair(0.25, 0.75), 9)
    assert prices[:4] == [0.5, 0.25, 0.125, 0.1875]  # seller bisection
    assert learner.seller_interval == (0.1875, 0.25)
    assert prices[4:8] == [0.5, 0.75, 0.875, 0.8125]  # buyer bisection
    assert learner.buyer_interval == (0.75, 0.8125)
    assert prices[8] == 0.5  # midpoint of the interval midpoints


def test_dbs_no_room_to_explore():
    learner = DoubleBinarySearch(2)  # 2*ceil(log2 2) + 1 = 3 > 2
    assert learner.phase_length == 0
    assert drive(learner, ValuationPair(0.1, 0.9), 2) == [0.5, 0.5]


def test_dbs_needs_two_bits():
    learner = DoubleBinarySearch(16)
    with pytest.raises(TypeError):
        learner.update((0.25, 0.75))


# ---------------------------------------------------------------------------
# follow the best empirical price
# ---------------------------------------------------------------------------


def test_fbep_price_path():
    learner = FollowBestEmpiricalPrice(10)
    path = [learner.propose()]
    for obs in [(0.0, 1.0), (0.5, 0.5), (0.0, 0.5)]:
        learner.update(ValuationPair(*obs))
        path.append(learner.propose())
    assert path == [0.5, 0.5, 0.5, 0.25]


def test_fbep_rejects_two_bit_feedback():
    learner = FollowBestEmpiricalPrice(10)
    with pytest.raises(TypeError):
        learner.update(TwoBitFeedback(1, 1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.1, 1.5])
@pytest.mark.parametrize("side", ["seller", "buyer"])
def test_fbep_rejects_a_pair_outside_the_unit_square(bad, side):
    learner = FollowBestEmpiricalPrice(10)
    learner.update((0.2, 0.6))
    with pytest.raises(ValueError, match="full feedback"):
        learner.update((bad, 0.6) if side == "seller" else (0.2, bad))
    assert learner.propose() == 0.4  # the rejected pair left no trace


# a small value set, so values repeat, midpoints coincide and totals tie;
# 0.1, 0.3 and 0.7 are inexact, so their sums round
_FBEP_VALUES = st.sampled_from([0.0, -0.0, 0.1, 0.125, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(_FBEP_VALUES, _FBEP_VALUES), min_size=1, max_size=30))
# round 2's mean is flat on [0.425, 0.525], and 0.5, a breakpoint only from
# round 3 on, totals one ulp above 0.425 there: unmasked, it would lead
@example(samples=[(0.1, 0.75), (0.3, 0.75), (0.5, 0.7)])
def test_all_rounds_oracle_is_the_from_scratch_maximizer_every_round(samples):
    want = [empirical_best_price(samples[:n]).price.hex() for n in range(1, len(samples) + 1)]
    assert [p.hex() for p in empirical_best_prices(samples).tolist()] == want


# Shrinking a list of up to 200 pairs drawn through flatmap takes Hypothesis
# 30-100 s even with an O(n x C) oracle, and its explain phase about a
# minute more, so a failing list is reported unshrunk, with its prefix up to
# the first wrong round.
@settings(max_examples=20, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    st.integers(1, 200).flatmap(
        lambda n: st.lists(st.tuples(_FBEP_VALUES, _FBEP_VALUES), min_size=n, max_size=n)
    )
)
def test_fbep_posts_the_from_scratch_maximizer_every_round(samples):
    learner = FollowBestEmpiricalPrice(len(samples))
    for n, (pair, price) in enumerate(zip(samples, empirical_best_prices(samples).tolist()), start=1):
        learner.update(pair)
        assert learner.propose().hex() == price.hex(), (n, samples[:n])


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_fixed_price_ignores_feedback():
    learner = FixedPrice(0.3)
    learner.update(TwoBitFeedback(0, 0))
    learner.update(ValuationPair(0.9, 0.1))
    assert learner.propose() == 0.3
    with pytest.raises(ValueError):
        FixedPrice(1.5)


def test_uniform_random_stream_is_owned():
    a = UniformRandom(7)
    b = UniformRandom(7)
    assert [a.propose() for _ in range(5)] == [b.propose() for _ in range(5)]
    assert all(0.0 <= UniformRandom(1).propose() < 1.0 for _ in range(3))


# ---------------------------------------------------------------------------
# id registry
# ---------------------------------------------------------------------------


def test_parse_learner_kinds_and_params():
    assert parse_learner("conv-pricing").kind == "conv-pricing"
    assert parse_learner("conv-pricing:K=50").params == {"K": 50}
    assert parse_learner("fixed:p=0.25").params == {"p": 0.25}
    assert parse_learner("uniform").params == {}  # the builder's seed=0 applies
    assert parse_learner("uniform:seed=9").params == {"seed": 9}
    assert parse_learner("dbs").requires is FeedbackModel.TWO_BIT
    assert parse_learner("fbep").requires is FeedbackModel.FULL
    assert parse_learner("fixed:p=0.5").requires is None
    assert parse_learner("uniform").deterministic is False
    assert parse_learner("gft-oracle").deterministic is True


@pytest.mark.parametrize(
    "learner_id",
    [
        "nope",
        "conv-pricing:K=x",
        "conv-pricing:J=3",
        "dbs:x=1",
        "fbep:x=1",
        "fixed",
        "fixed:p=1.5",
        "uniform:seed=abc",
        "fixed:p",
        "conv-pricing:K=0",
        "conv-pricing:K=-3",
        "uniform:sed=5",
        "fixed:p=0.5,q=1",
        "uniform:seed=18446744073709551616",
        "uniform:seed=-1",
        5,
    ],
)
def test_parse_learner_rejects(learner_id):
    with pytest.raises(UnknownIdError):
        parse_learner(learner_id)


@pytest.mark.parametrize(
    "learner_id,printed",
    [
        ("uniform:seed=1_0", "uniform:seed=10"),
        ("fixed:p=0.50", "fixed:p=0.5"),
        ("conv-pricing:K=08", "conv-pricing:K=8"),
        ("uniform", "uniform"),  # a default the id leaves out stays unprinted
        ("uniform:seed=0", "uniform:seed=0"),
        ("conv-pricing", "conv-pricing"),
    ],
)
def test_learner_ids_print_in_canonical_form(learner_id, printed):
    assert parse_learner(learner_id).learner_id == printed


def test_patterns_cover_kinds():
    heads = {pattern.split(":")[0] for pattern in LEARNER_ID_PATTERNS}
    assert heads == {"conv-pricing", "dbs", "fbep", "fixed", "gft-oracle", "uniform"}


def test_spec_rejects_an_unregistered_kind():
    # caught when the spec is built, not later on the way to a fast path
    with pytest.raises(UnknownIdError, match="unknown learner kind 'nope'"):
        LearnerSpec("x", "nope")


def test_build_gft_oracle_targets_environment():
    spec = parse_learner("gft-oracle")
    learner = spec.build(100, gft_trap(0.1))
    assert isinstance(learner, FixedPrice)
    assert learner.price == 0.9  # maximizes raw gain, not fair gain


def test_build_uniform_mixes_episode_seed():
    spec = parse_learner("uniform:seed=5")
    a = spec.build(10, lb_mu(), episode_seed=1)
    b = spec.build(10, lb_mu(), episode_seed=2)
    c = spec.build(10, lb_mu(), episode_seed=1)
    assert a.propose() != b.propose()
    assert LearnerSpec("uniform:seed=5", "uniform", {"seed": 5}).build(
        10, lb_mu(), episode_seed=1
    ).propose() == c.propose()


def test_build_conv_pricing_respects_grid_param():
    learner = parse_learner("conv-pricing:K=10").build(100, lb_mu())
    assert learner.grid_size == 10
