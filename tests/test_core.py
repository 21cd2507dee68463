"""Reward functions, their discretizations, and the exact price oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtrade.core import (
    FiniteJointDistribution,
    FiniteMarginal,
    PricePoint,
    atom_rows,
    best_fixed_price_fgft,
    best_fixed_price_fgft_rows,
    best_fixed_price_gft,
    fgft,
    fgft_candidates,
    fgft_vector,
    gft_candidates,
    product_joint,
    sorted_distinct,
)
from fairtrade.environments import deterministic, epsilon_family, gft_trap, lb_mu, lb_nu
from fairtrade.kernels import expected_fgft_at
from reference import (
    discrete_convolution_score,
    empirical_best_price,
    expected_fgft,
    expected_gft,
    fgft_convolution_approx,
    gft,
)


# ---------------------------------------------------------------------------
# pointwise rewards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,s,b,expected",
    [
        (0.5, 0.0, 1.0, 0.5),
        (0.6, 0.2, 0.7, 0.1),
        (0.25, 0.2, 0.7, 0.05),
        (0.1, 0.2, 0.7, 0.0),  # below the seller value
        (0.8, 0.2, 0.7, 0.0),  # above the buyer value
        (0.2, 0.2, 0.7, 0.0),  # boundary: trade happens, seller surplus 0
        (0.5, 0.5, 0.5, 0.0),  # degenerate pair
        (0.5, 0.7, 0.2, 0.0),  # seller above buyer: never positive
    ],
)
def test_fgft_values(p, s, b, expected):
    assert fgft(p, s, b) == pytest.approx(expected, abs=1e-15)


def test_fgft_is_tent_shaped():
    prices = np.linspace(0.0, 1.0, 101)
    vals = fgft_vector(prices, 0.2, 0.8)
    peak = int(np.argmax(vals))
    assert prices[peak] == 0.5
    assert vals[peak] == pytest.approx(0.3)
    # 1-Lipschitz in p
    assert np.max(np.abs(np.diff(vals))) <= 0.01 + 1e-15


@pytest.mark.parametrize(
    "p,s,b,expected",
    [
        (0.5, 0.2, 0.7, 0.5),
        (0.2, 0.2, 0.7, 0.5),  # weak inequality at the seller value
        (0.7, 0.2, 0.7, 0.5),  # weak inequality at the buyer value
        (0.1, 0.2, 0.7, 0.0),
        (0.8, 0.2, 0.7, 0.0),
    ],
)
def test_gft_values(p, s, b, expected):
    assert gft(p, s, b) == pytest.approx(expected, abs=1e-15)


def test_gft_pays_full_surplus_anywhere_in_range():
    # raw gain from trade ignores where the price sits inside [s, b]
    assert gft(0.21, 0.2, 0.7) == gft(0.69, 0.2, 0.7)


# ---------------------------------------------------------------------------
# overlap-integral discretizations
# ---------------------------------------------------------------------------


def test_convolution_approx_left_riemann_values():
    # grid {0, 1/4, 1/2, 3/4}: three of four terms are inside the overlap
    assert fgft_convolution_approx(0.5, (0.0, 1.0), 4) == 0.75
    assert fgft_convolution_approx(0.3, (0.4, 0.9), 100) == 0.0
    # over-estimates by at most 1/M, here by exactly one grid cell
    approx = fgft_convolution_approx(0.6, (0.2, 0.7), 100_000)
    assert approx == pytest.approx(0.10001, abs=1e-12)
    assert 0.0 <= approx - fgft(0.6, 0.2, 0.7) <= 1.0 / 100_000 + 1e-12


def test_convolution_approx_converges_from_above():
    for M in (10, 100, 1000, 10_000):
        err = fgft_convolution_approx(0.45, (0.1, 0.9), M) - fgft(0.45, 0.1, 0.9)
        assert -1e-15 <= err <= 1.0 / M + 1e-15


def test_convolution_approx_rejects_bad_grid():
    with pytest.raises(ValueError):
        fgft_convolution_approx(0.5, (0.0, 1.0), 0)


def test_discrete_convolution_score_zero_padding():
    # K=2, V=(1,1), W=(1,0): i=1 pairs V1 with W1; the k=1 term reads V0=0
    assert discrete_convolution_score([1, 1], [1, 0], 1, 2) == 0.5
    # i=2 pairs V2 with W2=0 and V1 with the out-of-range W3=0
    assert discrete_convolution_score([1, 1], [1, 0], 2, 2) == 0.0


def test_discrete_convolution_score_validation():
    with pytest.raises(ValueError):
        discrete_convolution_score([1], [1, 0], 1, 2)
    with pytest.raises(ValueError):
        discrete_convolution_score([1, 1], [1, 0], 0, 2)
    with pytest.raises(ValueError):
        discrete_convolution_score([1, 1], [1, 0], 3, 2)


# ---------------------------------------------------------------------------
# finite distributions
# ---------------------------------------------------------------------------


def test_marginal_validation():
    with pytest.raises(ValueError):
        FiniteMarginal([0.2, 0.2], [0.5, 0.5])  # duplicate values
    with pytest.raises(ValueError):
        FiniteMarginal([0.2, 1.2], [0.5, 0.5])  # out of range
    with pytest.raises(ValueError):
        FiniteMarginal([0.2, 0.8], [0.5, 0.6])  # weights do not sum to one
    with pytest.raises(ValueError):
        FiniteMarginal([0.2, 0.8], [1.0, 0.0])  # zero weight
    with pytest.raises(ValueError):
        FiniteMarginal([], [])
    with pytest.raises(ValueError):
        FiniteMarginal([0.2, float("nan")], [0.5, 0.5])  # non-finite value
    with pytest.raises(ValueError):
        FiniteMarginal([0.2, 0.8], [0.5, float("nan")])  # non-finite weight
    with pytest.raises(ValueError):
        FiniteMarginal([0.2], [float("nan")])  # NaN also fails the sum check


def test_joint_validation():
    with pytest.raises(ValueError):
        FiniteJointDistribution([((0.2, 0.8), 0.5), ((0.2, 0.8), 0.5)])  # duplicate atom
    with pytest.raises(ValueError):
        FiniteJointDistribution([((0.2, 0.8), 0.9)])  # weights do not sum to one
    with pytest.raises(ValueError):
        FiniteJointDistribution([])
    with pytest.raises(ValueError):
        FiniteJointDistribution([((0.1, 0.9), float("nan"))])  # non-finite weight
    with pytest.raises(ValueError):
        FiniteJointDistribution([((float("nan"), 0.9), 1.0)])  # non-finite seller
    with pytest.raises(ValueError):
        FiniteJointDistribution([((0.1, float("nan")), 1.0)])  # non-finite buyer


def test_joint_accessors():
    dist = FiniteJointDistribution([((0.1, 0.9), 0.25), ((0.3, 0.7), 0.75)])
    assert dist.weights.size == 2
    assert dist.atom(1) == (0.3, 0.7)
    np.testing.assert_allclose(dist.cum, [0.25, 1.0])


def test_product_joint_enumerates_products():
    seller = FiniteMarginal([0.0, 0.4], [0.5, 0.5])
    buyer = FiniteMarginal([0.6, 1.0], [0.25, 0.75])
    joint = product_joint(seller, buyer)
    assert joint.weights.size == 4
    np.testing.assert_allclose(joint.weights, [0.125, 0.375, 0.125, 0.375])
    assert joint.atom(0) == (0.0, 0.6)
    assert joint.atom(3) == (0.4, 1.0)


# ---------------------------------------------------------------------------
# expected rewards and candidate grids
# ---------------------------------------------------------------------------


def test_expected_fgft_lb_mu_frozen_values():
    mu = lb_mu().joint
    assert expected_fgft(mu, 5.0 / 16.0) == pytest.approx(5.0 / 48.0, abs=1e-12)
    assert expected_fgft(mu, 0.5) == pytest.approx(1.0 / 24.0, abs=1e-12)


def test_expected_gft_weak_boundaries():
    dist = deterministic(0.2, 0.8).joint
    assert expected_gft(dist, 0.2) == pytest.approx(0.6, abs=1e-12)
    assert expected_gft(dist, 0.8) == pytest.approx(0.6, abs=1e-12)
    assert expected_gft(dist, 0.19) == 0.0


def test_fgft_candidates_cover_breakpoints():
    cands = fgft_candidates(np.asarray([0.2]), np.asarray([0.8]))
    np.testing.assert_allclose(cands, [0.0, 0.2, 0.5, 0.8, 1.0])


# few distinct values, so that most arrays repeat some, and both zeros
_VALUES = st.sampled_from([0.0, -0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0, float("nan")])


@given(st.lists(_VALUES, max_size=40).map(np.asarray))
def test_sorted_distinct_is_np_unique(values):
    want = np.unique(values)
    # np.unique's sort may keep either zero; the stable sort keeps the first listed
    zeros = values[values == 0.0]
    want[want == 0.0] = zeros[:1]
    assert [x.hex() for x in sorted_distinct(values)] == [x.hex() for x in want]


def test_sorted_distinct_keeps_the_first_zero():
    assert sorted_distinct([0.5, -0.0, 0.0, 0.5])[0].hex() == "-0x0.0p+0"
    assert sorted_distinct([0.0, -0.0])[0].hex() == "0x0.0p+0"
    assert sorted_distinct([]).size == 0


def test_gft_candidates_cover_level_sets():
    cands = gft_candidates(np.asarray([0.2]), np.asarray([0.8]))
    np.testing.assert_allclose(cands, [0.0, 0.1, 0.2, 0.5, 0.8, 0.9, 1.0])


# ---------------------------------------------------------------------------
# best fixed price oracles (frozen anchors)
# ---------------------------------------------------------------------------


def test_best_fixed_price_fgft_lower_bound_pair():
    assert best_fixed_price_fgft(lb_mu().joint) == PricePoint(0.3125, pytest.approx(5.0 / 48.0))
    assert best_fixed_price_fgft(lb_nu().joint) == PricePoint(0.6875, pytest.approx(5.0 / 48.0))


def test_best_fixed_price_fgft_point_mass():
    assert best_fixed_price_fgft(deterministic(0.2, 0.8).joint) == PricePoint(0.5, 0.3)


def test_best_fixed_price_fgft_trap():
    best = best_fixed_price_fgft(gft_trap(0.1).joint)
    assert best.price == 0.5
    assert best.value == pytest.approx(0.25)


def test_best_fixed_price_fgft_degenerate_no_trade():
    dist = FiniteJointDistribution([((0.9, 0.1), 1.0)])
    # nothing to earn anywhere: ties break to the smallest candidate price
    assert best_fixed_price_fgft(dist) == PricePoint(0.0, 0.0)


def test_best_fixed_price_gft_anchors():
    trap = gft_trap(0.1).joint
    best = best_fixed_price_gft(trap)
    assert best.price == 0.9
    assert best.value == pytest.approx(0.55)
    det = best_fixed_price_gft(deterministic(0.2, 0.8).joint)
    assert det.price == 0.2  # smallest price clearing both traders
    assert det.value == pytest.approx(0.6)
    mu = best_fixed_price_gft(lb_mu().joint)
    assert mu.price == 0.625
    assert mu.value == pytest.approx(1.0 / 3.0)


def test_oracles_dominate_dense_grid():
    grid = np.arange(10_001) / 10_000.0
    for joint in (lb_mu().joint, gft_trap(0.25).joint):
        best = best_fixed_price_fgft(joint)
        dense = max(expected_fgft(joint, p) for p in grid)
        assert best.value >= dense - 1e-12


# ---------------------------------------------------------------------------
# the row oracle against the breakpoint oracle of one joint
# ---------------------------------------------------------------------------


def _breakpoint_oracle(dist) -> tuple:
    """The first maximizer over the sorted distinct candidates, scored on one sorted row."""
    cands = fgft_candidates(dist.sellers, dist.buyers)
    vals = expected_fgft_at(cands, dist.sellers, dist.buyers, dist.weights)
    i = int(np.argmax(vals))
    return cands[i].hex(), vals[i].hex()


# few coordinates, both zeros, so that atoms share coordinates and midpoints and values tie
_COORDS = st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0]) | st.floats(0.0, 1.0)
_JOINTS = st.lists(
    st.lists(
        st.tuples(st.tuples(_COORDS, _COORDS), st.floats(0.1, 1.0)),
        min_size=1, max_size=6, unique_by=lambda atom: (atom[0][0] + 0.0, atom[0][1] + 0.0),
    ),
    min_size=1, max_size=5,
)


def _oracle_rows(joints, width):
    """Each joint's (sellers, buyers, weights) as padded rows, and its distribution."""
    instances, dists = [], []
    for atoms in joints:
        total = sum(w for _, w in atoms)
        dist = FiniteJointDistribution([(pair, w / total) for pair, w in atoms])
        instances.append((dist.sellers.tolist(), dist.buyers.tolist(), dist.weights.tolist()))
        dists.append(dist)
    return atom_rows(instances, width)[:3], dists


@settings(max_examples=150, deadline=None)
@given(_JOINTS, st.integers(0, 2))
def test_row_oracle_is_the_joint_oracle_bitwise(joints, extra):
    rows, dists = _oracle_rows(joints, max(map(len, joints)) + extra)
    prices, values = best_fixed_price_fgft_rows(*rows)
    for price, value, dist in zip(prices, values, dists):
        best = best_fixed_price_fgft(dist)
        assert (price.hex(), value.hex()) == (best.price.hex(), best.value.hex()) == _breakpoint_oracle(dist)


def test_row_oracle_breaks_a_flat_top_to_the_smallest_price():
    # eps-family at eps = 0 is flat on [1/2, 5/8]; the second row makes the call dense
    flat, other = epsilon_family(0.0).joint, lb_mu().joint
    instances = [(j.sellers.tolist(), j.buyers.tolist(), j.weights.tolist()) for j in (flat, other)]
    prices, values = best_fixed_price_fgft_rows(*atom_rows(instances, 3)[:3])
    assert (prices[0], values[0]) == (0.5, 3.0 / 8.0)
    assert (prices[1], values[1]) == tuple(best_fixed_price_fgft(other))
    assert tuple(best_fixed_price_fgft(flat)) == (0.5, 3.0 / 8.0)


# ---------------------------------------------------------------------------
# empirical best price (the from-scratch oracle of tests/reference.py)
# ---------------------------------------------------------------------------


def test_empirical_best_price_single_sample():
    assert empirical_best_price([(0.0, 1.0)]) == PricePoint(0.5, 0.5)


def test_empirical_best_price_mixture():
    assert empirical_best_price([(0.0, 1.0), (0.5, 0.5)]) == PricePoint(0.5, 0.25)
    best = empirical_best_price([(0.0, 0.5), (0.5, 1.0)])
    assert best.price == 0.25  # two optimal tents; ties break low
    assert best.value == pytest.approx(0.125)


def test_empirical_best_price_needs_samples():
    with pytest.raises(ValueError):
        empirical_best_price([])
