"""Kernels against the reference definitions and the splitmix64 stream."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtrade import kernels
from fairtrade.core import FiniteJointDistribution, fgft_candidates, fgft_vector, sorted_distinct
from fairtrade.environments import env_from_config, lb_mu, parse_env
from fairtrade.harness import _EnvTables
from fairtrade.rng import MASK64, SplitMix64, draw_rows, mix64, unit_draws
from reference import discrete_convolution_score, expected_fgft, fgft_convolution_approx


def test_expected_fgft_at_numpy_matches_oracle():
    env = lb_mu()
    joint = env.joint
    prices = np.asarray([0.0, 0.3125, 0.5, 0.6875, 1.0])
    got = kernels.expected_fgft_at(prices, joint.sellers, joint.buyers, joint.weights)
    want = [expected_fgft(joint, float(p)) for p in prices]
    np.testing.assert_allclose(got, want, atol=1e-15)


# few distinct values, so that sellers and buyers often meet and prices land on atoms
_ATOM_VALUES = st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _joints(draw):
    """A FiniteJointDistribution with 1 to 6 distinct atoms and random positive weights."""
    pairs = draw(st.lists(st.tuples(_ATOM_VALUES, _ATOM_VALUES), min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return FiniteJointDistribution(*zip(*pairs), np.asarray(raw) / sum(raw))


def _breakpoint_prices(*joints):
    """0, 1, every atom value and the midpoint of every two neighbouring ones."""
    points = sorted_distinct(np.concatenate([[0.0, 1.0]] + [np.r_[j.sellers, j.buyers] for j in joints]))
    return np.concatenate([points, (points[1:] + points[:-1]) / 2])


@settings(max_examples=80, deadline=None)
@given(joints=st.lists(_joints(), min_size=1, max_size=4), pad=st.tuples(_ATOM_VALUES, _ATOM_VALUES))
def test_expected_fgft_at_is_bitwise_the_scalar_sum(joints, pad):
    # breakpoints then midpoints are out of order (a midpoint below 1 follows 1) and take the
    # dense loop; their sorted copy takes each atom's interval
    listed = _breakpoint_prices(*joints)
    for prices in (listed, np.sort(listed)):
        rows = []
        for joint in joints:
            got = kernels.expected_fgft_at(prices, joint.sellers, joint.buyers, joint.weights)
            assert np.array_equal(got, [expected_fgft(joint, float(p)) for p in prices])
            rows.append(got)
        # per-row atoms padded at the end with zero-weight atoms at any values
        atoms = np.zeros((3, len(joints), max(j.weights.size for j in joints)))
        atoms[0], atoms[1] = pad
        for row, j in enumerate(joints):
            atoms[:, row, : j.weights.size] = j.sellers, j.buyers, j.weights
        assert np.array_equal(kernels.expected_fgft_at(prices, *atoms), rows)


def _takes_sorted_row(monkeypatch, *args) -> bool:
    """Whether expected_fgft_at(*args) goes through _fgft_on_sorted_row."""
    calls = []
    sorted_row = kernels._fgft_on_sorted_row

    def spy(*a):
        calls.append(a)
        sorted_row(*a)

    monkeypatch.setattr(kernels, "_fgft_on_sorted_row", spy)
    kernels.expected_fgft_at(*args)
    return bool(calls)


def test_expected_fgft_at_takes_intervals_on_one_sorted_row_only(monkeypatch):
    joint = lb_mu().joint
    atoms = (joint.sellers, joint.buyers, joint.weights)
    per_row = tuple(np.stack([a, a[::-1]]) for a in atoms)
    grid = np.arange(11) / 10
    for prices, args in [
        (grid, atoms),
        (grid[None, None], atoms),
        (grid, per_row),
        (grid[None], per_row),
        (np.repeat(grid, 2), atoms),
    ]:
        assert _takes_sorted_row(monkeypatch, prices, *args)
    unsorted = np.append(grid, 0.5)  # fbep's candidates with round 0's 1/2
    swaps = [np.r_[grid[:i], grid[i + 1], grid[i], grid[i + 2 :]] for i in range(grid.size - 1)]
    for prices, args in [(swapped, atoms) for swapped in swaps] + [
        (unsorted, atoms),
        (np.stack([grid, grid]), per_row),  # one row of prices per row of atoms
        (np.array([0.5]), atoms),  # one price: no order to check
        (grid[:, None], atoms),
        (np.append(grid, np.nan), atoms),
        (grid, (joint.sellers, joint.buyers, np.append(joint.weights[:-1], np.inf))),
        (grid, (np.append(joint.sellers[:-1], np.nan), joint.buyers, joint.weights)),
    ]:
        with np.errstate(invalid="ignore"):  # the dense loop's 0 * inf
            assert not _takes_sorted_row(monkeypatch, prices, *args)


@pytest.mark.parametrize("layout", ["joint", "per-row"])
@pytest.mark.parametrize("prices", [[np.nan], [0.25, np.nan, 0.5], [0.25, 0.5, np.nan]])
def test_expected_fgft_at_keeps_nan_prices_nan(layout, prices):
    joint = lb_mu().joint
    atoms = (joint.sellers, joint.buyers, joint.weights)
    if layout == "per-row":
        atoms = tuple(np.stack([a, a[::-1]]) for a in atoms)
    prices = np.asarray(prices)
    got = kernels.expected_fgft_at(prices, *atoms)
    nan = np.broadcast_to(np.isnan(prices), got.shape)
    assert np.isnan(got[nan]).all()
    assert np.array_equal(got[~nan], _fgft_unblocked(prices, *atoms)[~nan])


def _fgft_unblocked(prices, sellers, buyers, weights):
    """expected_fgft_at's sum in one block: scratch arrays of the output's size."""
    prices = np.asarray(prices, dtype=np.float64)
    means = np.zeros(np.broadcast_shapes(prices.shape, np.shape(sellers)[:-1] + (1,)))
    gain, rest = np.empty_like(means), np.empty_like(means)
    for a in range(np.shape(sellers)[-1]):
        s, b, w = sellers[..., a, None], buyers[..., a, None], weights[..., a, None]
        np.minimum(np.subtract(prices, s, out=gain), np.subtract(b, prices, out=rest), out=gain)
        np.maximum(gain, 0.0, out=gain)
        gain *= w
        means += gain
    return means


def _fgft_block_cases():
    rng = np.random.default_rng(21)
    joint = lb_mu().joint
    atoms = rng.random((3, 4, 3))
    atoms[2] /= atoms[2].sum(axis=1, keepdims=True)
    padded = np.concatenate([atoms, np.zeros((3, 4, 2))], axis=2)
    padded[:2, :, 3:] = rng.random((2, 4, 2))  # zero-weight atoms at any values
    grid = np.arange(11) / 10
    # (s, b, w) columns: an interval between prices, s = b, s > b, zero weight, all of [0, 1];
    # the sorted prices repeat and land on every s and b
    edges = np.array([[0.2, 0.5, 0.7, 0.3, 0.0], [0.6, 0.5, 0.3, 0.9, 1.0], [0.3, 0.2, 0.25, 0.0, 0.25]])
    edge_rows = np.stack([edges, edges[:, ::-1], np.roll(edges, 2, axis=1)], axis=1)
    edge_prices = np.array([0.0, 0.2, 0.2, 0.3, 0.5, 0.5, 0.5, 0.6, 0.7, 0.9, 0.9, 1.0])
    return {
        "1-D grid": (grid, joint.sellers, joint.buyers, joint.weights),
        "sorted edges, 1-D atoms": (edge_prices, *edges),
        "sorted edges, per-row atoms": (edge_prices[None], *edge_rows),
        "per-row atoms, (rows, n) prices": (rng.random((4, 7)), *atoms),
        "per-row atoms, shared 1-D prices": (grid, *atoms),
        "(rows, 1) tails": (rng.random((4, 1)), *atoms),
        "scalar price": (0.4375, joint.sellers, joint.buyers, joint.weights),
        "zero-weight padded atoms": (rng.random((4, 5)), *padded),
    }


@pytest.mark.parametrize("block", [kernels.BLOCK, 1, 3])
@pytest.mark.parametrize("case", list(_fgft_block_cases()))
def test_expected_fgft_at_is_bitwise_equal_across_price_blocks(monkeypatch, case, block):
    # blocks of 1 and 3 prices put block edges inside every row of more than one price
    monkeypatch.setattr(kernels, "BLOCK", block)
    args = _fgft_block_cases()[case]
    got = kernels.expected_fgft_at(*args)
    want = _fgft_unblocked(*(np.asarray(a, dtype=np.float64) for a in args))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("rows, n", [(256, 2000), (1, 100_000)])
def test_expected_fgft_at_sorted_row_scratch_stays_within_its_bound(rows, n):
    # _fgft_on_sorted_row's bound: under 6 arrays of BLOCK 8-byte elements, besides five
    # int arrays of the atoms' shape, however many rows and prices; 256 point masses paying on
    # at least 40% of 2 000 prices hold over 6 x BLOCK pairs, and one row of 3 atoms on
    # 100 000 prices over 3 x BLOCK pairs per atom
    rng = np.random.default_rng(4)
    A = 1 if rows > 1 else 3
    sellers, buyers = 0.3 * rng.random((rows, A)), 0.7 + 0.3 * rng.random((rows, A))
    weights = rng.random((rows, A))
    row, means = np.arange(1, n + 1) / n, np.zeros((rows, n))
    kernels._fgft_on_sorted_row(row, sellers, buyers, weights, means)
    tracemalloc.start()
    try:
        kernels._fgft_on_sorted_row(row, sellers, buyers, weights, means)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * kernels.BLOCK + 5 * 8 * sellers.size, peak


def test_incomplete_convolution_numpy_matches_score():
    rng = np.random.default_rng(5)
    K = 17
    seller, buyer = rng.integers(0, 2, K), rng.integers(0, 2, K)
    sums = kernels.incomplete_convolution(seller[None], buyer[None], K)[0]
    for i in range(1, K + 1):
        want = discrete_convolution_score(seller.tolist(), buyer.tolist(), i, K)
        assert sums[i - 1] / K == pytest.approx(want, abs=1e-15)


def test_incomplete_convolution_validates_layout():
    # K = 2 takes rows of two seller bits and two buyer bits; (3,) and (5,) are the old padded
    # layout and (2,) the old single row
    shapes = (
        ((3,), (5,)),
        ((2,), (3,)),
        ((1, 2), (2,)),
        ((2,), (2,)),
        ((2, 2), (3, 2)),
        ((2, 3), (2, 3)),
        ((1, 2), (1, 3)),
        ((1, 2, 2), (1, 2, 2)),
    )
    for seller, buyer in shapes:
        for kernel in (kernels.incomplete_convolution, kernels.grid_commits):
            with pytest.raises(ValueError):
                kernel(np.zeros(seller), np.zeros(buyer), 2)


@pytest.mark.parametrize("T", [16, 2 * kernels.BLOCK + 3])
def test_uniform_prices_numpy_matches_stream(T):
    stream = SplitMix64(99)
    want = [stream.next_unit() for _ in range(T)]
    got = kernels.uniform_prices(99, T)
    assert got.tolist() == want  # bit-for-bit


def test_convolution_approx_batch_numpy_matches_scalar():
    rng = np.random.default_rng(11)
    p, s, b = rng.random(50), rng.random(50), rng.random(50)
    got = kernels.convolution_approx_batch(p, s, b, 257)
    want = [fgft_convolution_approx(float(pi), (float(si), float(bi)), 257) for pi, si, bi in zip(p, s, b)]
    np.testing.assert_allclose(got, want, atol=1e-15)


# ---------------------------------------------------------------------------
# exact grid kernels against their scalar definitions
# ---------------------------------------------------------------------------


def _random_bits(K, density, seed, rows=None):
    """Seller bits V_1..V_K and buyer bits W_1..W_K, each 1 with probability ``density``.

    Shape (K,), or (rows, K) when ``rows`` is given.
    """
    rng = np.random.default_rng(seed)
    shape = K if rows is None else (rows, K)
    return rng.random(shape) < density, rng.random(shape) < density


def _window_scores(seller, buyer, K):
    """The packed-bit counts of every grid index: _score_windows with all K indices candidates.

    The counts start at NaN, so an index the windows miss fails every comparison.
    """
    counts = np.full(seller.shape, np.nan)
    kernels._score_windows(seller, buyer, K, counts, np.ones(seller.shape, dtype=bool))
    return counts


def _popcount_convolution(seller, buyer, K):
    """The reference: c_i = popcount((r >> (K-i)) & (b >> (i-1))) of two Python ints, i = 1..K.

    r has bit m = V_{K-m} (V_1 is its top bit) and b has bit m = W_{m+1}
    (W_K is its top bit); one integer step per grid index.
    """
    r = int("".join("1" if v else "0" for v in seller), 2)
    b = int("".join("1" if w else "0" for w in buyer[::-1]), 2)
    return np.array([((r >> (K - i)) & (b >> (i - 1))).bit_count() for i in range(1, K + 1)], dtype=np.float64)


_WORD_EDGES = (63, 64, 65, 127, 128, 129)


def _word_edge_examples(test):
    for K in _WORD_EDGES:
        for rows in (1, 2, 5):
            test = example(K=K, density=0.9, seed=K, rows=rows)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 300),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 5),
)
@example(K=1, density=1.0, seed=0, rows=1)
@example(K=2, density=1.0, seed=0, rows=1)
@example(K=2, density=0.5, seed=3, rows=2)
@_word_edge_examples
def test_incomplete_convolution_is_the_discrete_score(K, density, seed, rows):
    seller, buyer = _random_bits(K, density, seed, rows)
    got = kernels.incomplete_convolution(seller, buyer, K) / K
    assert got.shape == (rows, K)
    for v, w, row in zip(seller, buyer, got):
        assert row.tolist() == [discrete_convolution_score(v, w, i, K) for i in range(1, K + 1)]


@pytest.mark.parametrize("K", [1, 2, 3, *_WORD_EDGES, 100, 130, 191, 192, 193, 464, 2154])
@pytest.mark.parametrize("density", [0.3, 0.9, 1.0])
def test_incomplete_convolution_matches_python_int_popcount(K, density):
    seller, buyer = _random_bits(K, density, seed=K, rows=3)
    got = _window_scores(seller, buyer, K)
    want = [_popcount_convolution(v, w, K) for v, w in zip(seller, buyer)]
    assert np.array_equal(got, want)


def _several_blocks(rows, K, block, windows):
    return block < rows


def _one_index_windows(rows, K, block, windows):
    return all(i0 == i1 for i0, i1, _ in windows)


def _one_window(rows, K, block, windows):
    return [w[:2] for w in windows] == [(1, K)]


def _edge_by_mid(rows, K, block, windows):
    mid = (K + 1) // 2
    return any(abs(i - mid) <= 1 for i0, i1, _ in windows for i in (i0, i1))


# id -> (K, rows, CONV_BLOCK_WORDS, what the plan of that call must show)
_ROW_BLOCK_CASES = {
    "default-budget": (65, kernels.CONV_BLOCK_WORDS // 64 + 1, kernels.CONV_BLOCK_WORDS, _several_blocks),
    "one-row-blocks": (64, 3, 1, _several_blocks),
    "blocks-of-4": (2154, 7, 12_300, lambda rows, K, block, windows: block == 4),
    "one-index-windows": (130, 3, 1, _one_index_windows),
    "one-window": (128, 33, 2**12, lambda *plan: _one_window(*plan) and _several_blocks(*plan)),
    "one-window-large-K": (2154, 3, 2**22, _one_window),
    "edge-by-mid-at-word-edge": (129, 2, 5, _edge_by_mid),
    "edge-by-mid-even-K": (2154, 2, 34, _edge_by_mid),
    "edge-by-mid-odd-K": (2155, 2, 54, _edge_by_mid),
}


@pytest.mark.parametrize("case", list(_ROW_BLOCK_CASES))
def test_incomplete_convolution_rows_match_single_rows(monkeypatch, case):
    # the first three cases score their rows in more than one row block; the
    # others pin the extremes of the window plan: windows of one index, one
    # window over all K, and window edges next to the middle index
    K, rows, budget, shows = _ROW_BLOCK_CASES[case]
    monkeypatch.setattr(kernels, "CONV_BLOCK_WORDS", budget)
    block, _, windows = kernels._conv_plan(rows, K)
    assert shows(rows, K, block, windows)
    seller, buyer = _random_bits(K, 0.8, seed=rows, rows=rows)
    got = _window_scores(seller, buyer, K)
    for v, w, row in zip(seller, buyer, got):
        assert np.array_equal(row, _window_scores(v[None], w[None], K)[0])
        assert np.array_equal(row, _popcount_convolution(v, w, K))


@pytest.mark.parametrize("budget", [1, 5, 64, 1000, 2**15, 2**22])
def test_conv_plan_tiles_the_grid_within_the_budget(monkeypatch, budget):
    # what _conv_plan's docstring states: the windows tile 1..K, each reads the
    # words of its widest index, and the tables, the AND buffer and every read
    # stay within their bounds
    monkeypatch.setattr(kernels, "CONV_BLOCK_WORDS", budget)
    for rows, K in itertools.product((1, 5, 50), (1, 2, 3, 64, 65, 127, 128, 129, 1000, 2154, 10_000, 40_000)):
        block, width, windows = kernels._conv_plan(rows, K)
        mid = (K + 1) // 2
        windows = sorted(windows)
        assert [w[0] for w in windows] == [1] + [w[1] + 1 for w in windows[:-1]]
        assert windows[-1][1] == K
        for i0, i1, L in windows:
            assert L == -(-min(i1, K + 1 - i0, mid) // 64)
            assert (i1 + 1 - i0) * L <= budget // block or i0 == i1
            # the last entries each table reads: R's at K - i0 + 64(L-1), B's at i1 - 1 + 64(L-1)
            assert max(K - i0, i1 - 1) + 64 * (L - 1) < width
        assert width % 64 == 0 and 1 <= block <= rows
        assert block * width <= budget or block == 1


def test_incomplete_convolution_scratch_stays_within_its_bound():
    # _score_windows's bound: under 3.3 x CONV_BLOCK_WORDS uint64 words of scratch, besides
    # NumPy's buffers of at most three times np.getbufsize() elements of 8 bytes; the
    # counts and the mask of every index are allocated before the trace
    rows, K = 5, 10_000
    seller, buyer = _random_bits(K, 0.6, seed=1, rows=rows)
    counts, candidates = np.empty((rows, K)), np.ones((rows, K), dtype=bool)
    kernels._score_windows(seller, buyer, K, counts, candidates)
    tracemalloc.start()
    try:
        kernels._score_windows(seller, buyer, K, counts, candidates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * 8 * kernels.CONV_BLOCK_WORDS + 3 * 8 * np.getbufsize(), peak


@pytest.mark.parametrize(
    "side, index, value",
    [("av", 2, 0.5), ("bv", 3, 0.5), ("av", 1, np.nan), ("bv", 6, np.nan)],
)
def test_incomplete_convolution_rejects_non_bits(side, index, value):
    # the packed-bit path takes 0/1 bits only; incomplete_convolution scores any reals
    K = 7
    arrays = {"av": np.zeros((2, K)), "bv": np.zeros((2, K))}  # seller bits, buyer bits
    arrays[side][1, index] = value
    with pytest.raises(ValueError, match="0/1 bits"):
        kernels.grid_commits(arrays["av"], arrays["bv"], K)


# ---------------------------------------------------------------------------
# grid_commits: the first maximizer from the indices that can win
# ---------------------------------------------------------------------------


def _full_commits(seller, buyer, K):
    return np.argmax(kernels.incomplete_convolution(seller, buyer, K), axis=1) + 1


@st.composite
def _grid_rows(draw):
    """(seller bits, buyer bits, K): rows of one bit density, or CDF-shaped rows.

    A CDF-shaped row is what a sweep draws: seller bit t is 1 with a chance
    that rises from 0 to 1 over a random ramp of prices, buyer bit t with a
    chance that falls from 1 to 0 over another.
    """
    K = draw(st.sampled_from([1, 2, 3, 63, 64, 65, 129, 2154]))
    rows = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        density = draw(st.sampled_from([0.0, 0.02, 0.3, 0.5, 0.9, 1.0]))
        return rng.random((rows, K)) < density, rng.random((rows, K)) < density, K
    grid = np.arange(1, K + 1) / K
    seller_ramp, buyer_ramp = np.sort(rng.random((2, rows, 2)), axis=2)

    def rising(ramp):
        return np.clip((grid - ramp[:, :1]) / (ramp[:, 1:] - ramp[:, :1] + 1e-9), 0.0, 1.0)

    return rng.random((rows, K)) < rising(seller_ramp), rng.random((rows, K)) >= rising(buyer_ramp), K


@settings(max_examples=120, deadline=None)
@given(bits=_grid_rows(), budget=st.sampled_from([kernels.CONV_BLOCK_WORDS, 1, 300, 5000]))
def test_grid_commits_is_the_first_maximizer_of_the_full_scores(bits, budget):
    # with 6 rows, a row block holds 1 row under budget 1, 4, 2 or 1 rows under
    # budget 300 as K grows, and 1 row at K = 2154 under budget 5000
    seller, buyer, K = bits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CONV_BLOCK_WORDS", budget)
        got = kernels.grid_commits(seller, buyer, K)
        want = _full_commits(seller, buyer, K)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# id -> (seller bits, buyer bits, the commits)
_EXPLICIT_GRID_ROWS = {
    "all-zero": (np.zeros((3, 2154), bool), np.zeros((3, 2154), bool), [1, 1, 1]),
    "all-one-odd-K": (np.ones((2, 129), bool), np.ones((2, 129), bool), [65, 65]),
    "all-one-even-K": (np.ones((2, 64), bool), np.ones((2, 64), bool), [32, 32]),
    # c = (0, 1, 2, 2, 1, 1, 0) and UB = (0, 1, 2, 3, 2, 1, 0): the probe lands on the later maximizer
    "two-way-tie": ([[1, 0, 1, 1, 0, 1, 1]], [[0, 1, 1, 1, 1, 1, 0]], [3]),
    "no-rows": (np.zeros((0, 65), bool), np.zeros((0, 65), bool), []),
}


@pytest.mark.parametrize("case", list(_EXPLICIT_GRID_ROWS))
def test_grid_commits_on_explicit_rows(case):
    seller, buyer, commits = _EXPLICIT_GRID_ROWS[case]
    K = np.shape(seller)[1]
    got = kernels.grid_commits(seller, buyer, K)
    assert got.tolist() == commits
    assert np.array_equal(got, _full_commits(np.asarray(seller), np.asarray(buyer), K))


def _window_counts(bits, K):
    """Ones of each row in the windows [i - L_i + 1, i] and [i, i + L_i - 1], L_i = min(i, K + 1 - i).

    Read by index gathers from int64 cumulative counts, not by the
    kernel's slices.
    """
    seen = np.concatenate([np.zeros((bits.shape[0], 1), np.int64), np.cumsum(bits, axis=1)], axis=1)
    i = np.arange(1, K + 1)
    L = np.minimum(i, K + 1 - i)
    return seen[:, i] - seen[:, i - L], seen[:, i + L - 1] - seen[:, i - 1], L


@pytest.mark.parametrize("K", [1, 2, 3, 63, 64, 65, 129, 510, 511, 2154])
@pytest.mark.parametrize("density", [0.02, 0.5, 0.9, 1.0])
def test_window_bound_caps_every_count(K, density):
    # K = 510 and 511 straddle the switch from uint8 to uint16 counts, whose
    # cumulative sums wrap
    seller, buyer = _random_bits(K, density, seed=K, rows=3)
    bound = kernels._window_bound(seller, buyer, K)
    counts = kernels.incomplete_convolution(seller, buyer, K)
    seller_ones, _, L = _window_counts(seller, K)
    _, buyer_ones, _ = _window_counts(buyer, K)
    assert np.array_equal(bound, np.minimum(seller_ones, buyer_ones))
    assert np.all(bound >= counts)
    # a window of all ones makes the other side's count the score
    full = (seller_ones == L) | (buyer_ones == L)
    assert np.array_equal(bound[full], counts[full])


def test_window_bound_is_the_score_when_the_buyer_sits_at_one():
    # eps-family's buyer values are 1, so every buyer bit is 1
    K = 2154
    tables = _EnvTables(parse_env("eps-family:eps=0.2"))
    grid = np.arange(1, K + 1) / K
    sellers, buyers = tables.draw(range(5), K)
    seller, buyer = sellers <= grid, grid <= buyers
    assert buyer.all()
    assert np.array_equal(kernels._window_bound(seller, buyer, K), kernels.incomplete_convolution(seller, buyer, K))


def _scored_share(seller, buyer, K):
    """Window words grid_commits scores, as a share of the words of every window of the grid."""
    rows = seller.shape[0]
    block, _, windows = kernels._conv_plan(rows, K)
    candidates = kernels._grid_candidates(seller, buyer, K)
    scored = 0
    for lo in range(0, rows, block):
        hit = candidates[lo : lo + block].any(axis=0)
        parts = kernels._cut_windows(windows, hit, K)
        scored += min(block, rows - lo) * sum(L * (i1 + 1 - i0) for i0, i1, L in parts)
    return scored / (rows * sum(L * (i1 + 1 - i0) for i0, i1, L in windows))


@pytest.mark.parametrize(
    "env_id, most",
    [("eps-family:eps=0.2", 0.03), ("random-ind:seed=101", 0.25), ("random-ind:seed=202", 0.27), ("lb-mu", 0.7)],
)
def test_grid_commits_scores_a_pinned_share_of_the_window_words(env_id, most):
    # work, not time: at K = 2154 and 5 rows the shares read 1.5%, 19%, 21% and 60%
    K = 2154
    grid = np.arange(1, K + 1) / K
    sellers, buyers = _EnvTables(parse_env(env_id)).draw(range(5), K)
    seller, buyer = sellers <= grid, grid <= buyers
    share = _scored_share(seller, buyer, K)
    assert 0.0 < share <= most, share
    assert kernels.grid_commits(seller, buyer, K).tolist() == _full_commits(seller, buyer, K).tolist()


@pytest.mark.parametrize("K", [1, 2, 3, 10, 100, 464])
@pytest.mark.parametrize("density", [0.6, 0.95])
def test_float_convolution_matches_bit_kernel_on_bits(K, density):
    seller, buyer = _random_bits(K, density, seed=K)
    want = _window_scores(seller[None], buyer[None], K)[0]
    assert np.array_equal(kernels.incomplete_convolution(seller[None], buyer[None], K)[0], want)


def _dot_loop_convolution(seller, buyer, K):
    """The reference: one np.dot per grid index i of V_{i-k} and W_{i+k}, k = 0..min(i-1, K-i).

    Those are the terms with both positions inside 1..K; every other term is zero.
    """
    out = np.empty(K, dtype=np.float64)
    for i in range(1, K + 1):
        kmax = min(i - 1, K - i)
        out[i - 1] = float(np.dot(seller[i - 1 - kmax : i][::-1], buyer[i - 1 : i + kmax]))
    return out


@pytest.mark.parametrize("K", [1, 2, 3, 10, 100, 1000])
@pytest.mark.parametrize("seed", [0, 1])
def test_float_convolution_matches_the_dot_loop(K, seed):
    # the sandwich suite's inputs: a CDF (non-decreasing) and a co-CDF
    # (non-increasing) in [0, 1] at the K grid prices
    rng = np.random.default_rng(seed)
    seller = np.sort(rng.random(K))
    buyer = np.sort(rng.random(K))[::-1]
    got = kernels.incomplete_convolution(seller[None], buyer[None], K)[0]
    np.testing.assert_allclose(got, _dot_loop_convolution(seller, buyer, K), rtol=0, atol=1e-12 * K)


def _cdf_rows(K, rows, seed):
    """(rows, K) rows in [0, 1]: non-decreasing like a CDF, non-increasing like a co-CDF."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.random((rows, K)), axis=1), np.sort(rng.random((rows, K)), axis=1)[:, ::-1]


_FLOAT_CONV_SIZES = (1, 2, 3, 4, 5, 10, 11, 100, 1000)


@pytest.mark.parametrize("K", _FLOAT_CONV_SIZES)
def test_float_convolution_rows_match_the_dot_loop(K):
    seller, buyer = _cdf_rows(K, rows=4, seed=K)
    got = kernels.incomplete_convolution(seller, buyer, K)
    assert got.shape == (4, K)
    for v, w, row in zip(seller, buyer, got):
        np.testing.assert_allclose(row, _dot_loop_convolution(v, w, K), rtol=0, atol=1e-12 * K)


@pytest.mark.parametrize("K", _FLOAT_CONV_SIZES)
def test_float_convolution_rows_match_single_rows(K):
    seller, buyer = _cdf_rows(K, rows=5, seed=K + 1)
    got = kernels.incomplete_convolution(seller, buyer, K)
    for v, w, row in zip(seller, buyer, got):
        assert np.array_equal(row, kernels.incomplete_convolution(v[None], w[None], K)[0])


@st.composite
def _overlap_triples(draw):
    """(p, s, b, M): random triples, half of them on a k/(2M) or k/8 grid.

    Grid values put s <= p - j/M and p + j/M <= b on their boundary, where
    the rounding of p -+ j/M decides the count.
    """
    M = draw(st.integers(1, 12))
    den = draw(st.sampled_from([2 * M, 8, M]))
    n = draw(st.integers(1, 8))
    on_grid = st.integers(0, den).map(lambda k: k / den)
    value = st.one_of(on_grid, st.floats(0.0, 1.0))
    p, s, b = (draw(st.lists(value, min_size=n, max_size=n)) for _ in range(3))
    return np.array(p), np.array(s), np.array(b), M


@settings(max_examples=150, deadline=None)
@given(_overlap_triples())
@example((np.array([0.5]), np.array([0.0]), np.array([1.0]), 4))
@example(tuple(np.array(v) for v in ([0.5, 0.25, 1.0], [0.25, 0.25, 0.0], [0.75, 1.0, 1.0])) + (4,))
@example(tuple(np.array(v) for v in ([np.nan, 0.5, 0.5], [0.0, np.nan, 0.0], [1.0, 1.0, np.nan])) + (3,))
def test_convolution_approx_batch_is_the_scalar_sum(triples):
    p, s, b, M = triples
    got = kernels.convolution_approx_batch(p, s, b, M)
    rows = zip(p.tolist(), s.tolist(), b.tolist())
    want = [fgft_convolution_approx(pi, (si, bi), M) for pi, si, bi in rows]
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# counter-form draws against the sequential stream
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK64), n=st.integers(0, 300))
@example(seed=0, n=300)
@example(seed=MASK64, n=300)
def test_unit_draws_match_sequential_stream(seed, n):
    stream = SplitMix64(seed)
    want = [stream.next_unit() for _ in range(n)]
    got = unit_draws(seed, n)
    assert got.dtype == np.float64
    assert got.tolist() == want  # bit-for-bit


# starts on and next to the edges of the kernels' blocks of draws
_DRAW_STARTS = st.sampled_from(
    [0, 1, kernels.BLOCK - 1, kernels.BLOCK, kernels.BLOCK + 1, 2 * kernels.BLOCK - 7]
) | st.integers(0, 2 * kernels.BLOCK + 5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, MASK64), n=st.integers(0, 300), start=_DRAW_STARTS)
@example(seed=0, n=300, start=kernels.BLOCK - 150)
@example(seed=MASK64, n=300, start=kernels.BLOCK - 150)
@example(seed=MASK64, n=1, start=kernels.BLOCK)
def test_unit_draws_from_a_start_continue_the_stream(seed, n, start):
    stream = SplitMix64(seed)
    for _ in range(start):
        stream.next_u64()
    got = unit_draws(seed, n, start)
    assert got.tolist() == [stream.next_unit() for _ in range(n)]  # bit-for-bit
    assert got.tobytes() == unit_draws(seed, start + n)[start:].tobytes()


_ROW_SEEDS = [0, MASK64, mix64(0, 0), mix64(9100, 17), mix64(12001, 99), mix64(MASK64, 5)]


@pytest.mark.parametrize("n,start", [(0, 0), (1, 0), (3, 0), (40, 0), (5, 7), (3, kernels.BLOCK - 1)])
def test_draw_rows_are_each_seeds_stream(n, start):
    rows = draw_rows(_ROW_SEEDS, n, start)
    assert (rows.shape, rows.dtype) == ((len(_ROW_SEEDS), n), np.float64)
    for seed, row in zip(_ROW_SEEDS, rows):
        stream = SplitMix64(seed)
        for _ in range(start):
            stream.next_u64()
        assert row.tolist() == [stream.next_unit() for _ in range(n)]  # bit for bit
        assert row.tobytes() == unit_draws(seed, n, start).tobytes()


def test_draw_rows_blocks_do_not_show():
    # the words are finalized rng.BLOCK at a time over the flattened rows
    seeds = _ROW_SEEDS[:3]
    rows = draw_rows(seeds, 5000)  # 15 000 words: a block edge inside row 1
    for seed, row in zip(seeds, rows):
        stream = SplitMix64(seed)
        assert row.tolist() == [stream.next_unit() for _ in range(5000)]


# ---------------------------------------------------------------------------
# one-pass simulators against round-by-round loops
# ---------------------------------------------------------------------------
#
# Round-by-round oracles: one SplitMix64 step, one searchsorted and one
# score update per round.  The one-pass kernels must match them bitwise.


def _loop_atom(stream, cum):
    j = int(np.searchsorted(cum, stream.next_unit(), side="right"))
    return min(j, cum.size - 1)


def _loop_fbep(seed, cum, cands, reward_matrix, T):
    stream = SplitMix64(seed)
    scores = np.zeros(cands.size, dtype=np.float64)
    prices = np.empty(T, dtype=np.float64)
    for t in range(T):
        j = _loop_atom(stream, cum)
        prices[t] = 0.5 if t == 0 else cands[int(np.argmax(scores))]
        scores += reward_matrix[:, j]
    return prices


def _loop_conv_bits(seed, cum, sellers, buyers, K):
    stream = SplitMix64(seed)
    seller_bits, buyer_bits = np.zeros(K), np.zeros(K)
    for t in range(1, K + 1):
        j = _loop_atom(stream, cum)
        seller_bits[t - 1] = sellers[j] <= t / K
        buyer_bits[t - 1] = t / K <= buyers[j]
    return seller_bits, buyer_bits


def _loop_dbs(seed, cum, sellers, buyers, N):
    stream = SplitMix64(seed)
    prices = []
    lo, hi = 0.0, 1.0
    for _ in range(N):
        j = _loop_atom(stream, cum)
        mid = (lo + hi) / 2.0
        prices.append(mid)
        lo, hi = (lo, mid) if sellers[j] <= mid else (mid, hi)
    seller_mid, lo, hi = (lo + hi) / 2.0, 0.0, 1.0
    for _ in range(N):
        j = _loop_atom(stream, cum)
        mid = (lo + hi) / 2.0
        prices.append(mid)
        lo, hi = (mid, hi) if mid <= buyers[j] else (lo, mid)
    return prices, (seller_mid + (lo + hi) / 2.0) / 2.0


def _random_joint_5():
    rng = np.random.default_rng(7)
    weights = rng.random(5) + 0.1
    sellers, buyers = 0.6 * rng.random(5), 0.4 + 0.6 * rng.random(5)
    atoms = np.column_stack([sellers, buyers, weights / weights.sum()])
    return env_from_config({"joint": atoms.tolist()})


def _coin_flip():
    # The empirical best price is 1/4 or 3/4 as one atom's count leads the
    # other's: a random walk whose leader flips often, so a score that
    # misses or repeats one round's reward moves the price path.
    return env_from_config({"joint": [[0.0, 0.5, 0.5], [0.5, 1.0, 0.5]]})


def _decimal_tie():
    # Prices 0.1 and 0.3 have equal expected reward and rewards that are not
    # dyadic, so which one leads on an exact tie of counts depends on how the
    # float sums were grouped.
    return env_from_config({"joint": [[0.0, 0.2, 2 / 3], [0.0, 0.6, 1 / 3]]})


_SIM_ENVS = {
    "lb-mu": lb_mu,
    "random-joint-5": _random_joint_5,
    "coin-flip": _coin_flip,
    "decimal-tie": _decimal_tie,
}
_SEEDS = (0, 11, MASK64)


@pytest.mark.parametrize("block", [kernels.BLOCK, 12])
@pytest.mark.parametrize(
    "steps,extra",
    [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 3)],
    ids=["1", "2", "S", "S+1", "S+2", "2S+3"],
)
@pytest.mark.parametrize("env_name", list(_SIM_ENVS))
def test_fbep_prices_match_round_loop_across_blocks(monkeypatch, env_name, steps, extra, block):
    # T sits on and past the edges of the cumsum steps of S = BLOCK // 4 rounds;
    # BLOCK 12 puts a step edge every 3 rounds of the same episodes
    monkeypatch.setattr(kernels, "BLOCK", block)
    T = steps * (block // 4) + extra
    tables = _EnvTables(_SIM_ENVS[env_name]())
    cands, matrix = tables.fbep
    posted = np.append(cands, 0.5)  # the kernel's index cands.size is round 0's 1/2
    for seed in _SEEDS:
        idx = kernels.fbep_prices(seed, tables.cum, cands, matrix, T)
        assert idx[0] == cands.size
        assert np.array_equal(posted[idx], _loop_fbep(seed, tables.cum, cands, matrix, T)), seed


# -0.0, subnormals and magnitudes far apart, whose sums round differently in every order
_ADDENDS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.0**-1060, 1e-300, 1.0, -1.0, 0.1, 1e16, -1e300]
) | st.floats(-1e300, 1e300)


@settings(max_examples=100, deadline=None)
@given(
    columns=st.integers(1, 9).flatmap(
        lambda C: st.lists(st.lists(_ADDENDS, min_size=C, max_size=C), min_size=1, max_size=40)
    )
)
def test_paired_cumsum_is_each_columns_float64_cumsum(columns):
    # odd column counts take fbep_prices's -inf pad column, which must stay -inf
    rows = np.asarray(columns, dtype=np.float64)
    C = rows.shape[1]
    block = np.full((rows.shape[0], C + C % 2), -np.inf)
    block[:, :C] = rows
    kernels._paired_cumsum(block)
    for c in range(C):
        want = np.fromiter(itertools.accumulate(rows[:, c].tolist()), dtype=np.float64)
        assert block[:, c].tobytes() == want.tobytes(), c
    assert np.all(block[:, C:] == -np.inf)


def _assert_fbep_is_the_round_loop(cum, cands, matrix, T, seeds=_SEEDS):
    posted = np.append(cands, 0.5)
    for seed in seeds:
        idx = kernels.fbep_prices(seed, cum, cands, matrix, T)
        assert idx.dtype == np.min_scalar_type(cands.size) and idx[0] == cands.size
        assert np.array_equal(posted[idx], _loop_fbep(seed, cum, cands, matrix, T)), seed


@pytest.mark.parametrize("block", [kernels.BLOCK, 12])
def test_fbep_pad_column_never_leads_negative_rewards(monkeypatch, block):
    # an odd kept count pads the score block with one column; every score
    # here is negative, so a pad of zeros would lead from round 1 on
    monkeypatch.setattr(kernels, "BLOCK", block)
    matrix = -np.array([[1.0, 3.0, 0.5], [3.0, 1.0, 2.5], [2.0, 2.0, 1e-3], [2.5, 2.5, 2.5], [1.5, 3.5, 0.75]])
    assert kernels._undominated(matrix).size == 3
    cum, cands = np.array([0.3, 0.7, 1.0]), np.linspace(0.1, 0.9, 5)
    _assert_fbep_is_the_round_loop(cum, cands, matrix, block // 4 + 5)


@pytest.mark.parametrize(
    "T,block",
    [
        (kernels.BLOCK - 1, kernels.BLOCK),
        (kernels.BLOCK + 1, kernels.BLOCK),
        (2 * kernels.BLOCK + 3, kernels.BLOCK),
        (300, 12),
    ],
    ids=["B-1", "B+1", "2B+3", "300-by-12"],
)
@pytest.mark.parametrize("env_name", ["coin-flip", "random-joint-5"])
def test_fbep_prices_match_round_loop_across_a_draw_block(monkeypatch, env_name, T, block):
    # coin-flip keeps 3 candidates, so its score block carries the pad column;
    # the last round's draw moves no posted price, so at B + 1 a second block
    # drawn from the wrong start would go unseen: BLOCK 12 puts draw edges
    # every 12 rounds, before rounds whose prices read the next block, and
    # cumsum edges every 3
    monkeypatch.setattr(kernels, "BLOCK", block)
    tables = _EnvTables(_SIM_ENVS[env_name]())
    _assert_fbep_is_the_round_loop(tables.cum, *tables.fbep, T, seeds=(0, MASK64))


def test_fbep_index_takes_two_bytes_past_255_candidates():
    # 85 atoms with distinct coordinates and midpoints give 2 + 3 x 85 = 257 candidates
    rng = np.random.default_rng(85)
    sellers = 0.5 * rng.random(85)
    atoms = np.column_stack([sellers, sellers + 0.1 + 0.4 * rng.random(85), rng.random(85) + 0.1])
    atoms[:, 2] /= atoms[:, 2].sum()
    tables = _EnvTables(env_from_config({"joint": atoms.tolist()}))
    cands, matrix = tables.fbep
    assert cands.size > 255 and np.min_scalar_type(cands.size) == np.uint16
    _assert_fbep_is_the_round_loop(tables.cum, cands, matrix, kernels.BLOCK // 4 + 40, seeds=(0, 11))


def _searched_atoms(cum, u):
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


def _boundary_cums():
    rng = np.random.default_rng(3)
    cums = {}
    for A in (1, 2, 3, 25, 256, 257):
        weights = rng.random(A) + 0.05
        cums[A] = np.cumsum(weights / weights.sum())
    # ten weights of 0.1 sum to 0.9999999999999999: the last boundary rounds below 1.0
    cums["rounds-below-one"] = np.cumsum(np.full(10, 0.1))
    cums["zero-weight-atoms"] = np.cumsum([0.25, 0.0, 0.5, 0.0, 0.25])
    return cums


@pytest.mark.parametrize("side", ["below", "at"])
@pytest.mark.parametrize("name", list(_boundary_cums()))
def test_atom_counts_are_the_clamped_search_on_both_sides_of_the_size_rule(name, side):
    cum = _boundary_cums()[name]
    assert name != "rounds-below-one" or cum[-1] < 1.0
    n = kernels.COUNT_DRAWS_PER_ATOM * cum.size - (side == "below")
    u = unit_draws(7, n)
    # draws exactly on every boundary, just below them, and in [cum[-1], 1)
    edges = np.concatenate([cum, np.nextafter(cum, 0.0), [0.0, 1.0 - 2.0**-53]])
    u[: edges.size] = edges[: u.size]
    got = kernels._atoms_at(cum, u)
    assert np.array_equal(got, _searched_atoms(cum, u))
    assert (got.dtype == np.uint8) == (side == "at" and cum.size <= 256)  # which side ran
    rows = u[: 2 * (n // 2)].reshape(2, -1)  # the same draws as two rows
    assert np.array_equal(kernels._atoms_at(cum, rows), _searched_atoms(cum, rows))


@pytest.mark.parametrize("n", [0, 1, 40, 1000])
@pytest.mark.parametrize("env_name", list(_SIM_ENVS) + ["random-ind:seed=1"])
def test_env_draw_rows_match_the_per_seed_loop(env_name, n):
    # five rows of 1000 draws over at most 25 atoms take the counting side of the size rule
    env = _SIM_ENVS[env_name]() if env_name in _SIM_ENVS else parse_env(env_name)
    tables = _EnvTables(env)
    for seeds in (list(_SEEDS), [mix64(3, e) for e in range(5)], []):
        sellers, buyers = tables.draw(seeds, n)
        assert sellers.shape == buyers.shape == (len(seeds), n)
        for row, seed in enumerate(seeds):
            j = _searched_atoms(tables.cum, unit_draws(seed, n))
            assert np.array_equal(sellers[row], tables.sellers[j]), seed
            assert np.array_equal(buyers[row], tables.buyers[j]), seed


@pytest.mark.parametrize("env_name", list(_SIM_ENVS) + ["random-ind:seed=1"])
def test_env_draw_columns_are_prefixes_of_a_longer_draw(env_name):
    # a run draws once, at its longest exploration, and every horizon reads a
    # column prefix; five rows of 1 or 40 draws search (_atoms_at's size
    # rule) while the 2000-draw rows count on these envs of at most 25 atoms
    env = _SIM_ENVS[env_name]() if env_name in _SIM_ENVS else parse_env(env_name)
    tables = _EnvTables(env)
    seeds = [mix64(3, e) for e in range(5)]
    longest = tables.draw(seeds, 2000)
    for k in (0, 1, 40, 1000, 2000):
        for got, prefix in zip(tables.draw(seeds, k), longest):
            assert got.tobytes() == np.ascontiguousarray(prefix[:, :k]).tobytes(), k


def _unpruned_fbep(seed, cum, cands, reward_matrix, T):
    """fbep's index path scoring every candidate: one cumsum over all rounds, first argmax."""
    j = _searched_atoms(cum, unit_draws(seed, T))
    scores = np.zeros((T + 1, cands.size))
    scores[1:] = reward_matrix.T[j]
    idx = np.argmax(np.cumsum(scores, axis=0)[:-1], axis=1)
    idx[:1] = cands.size
    return idx


# few distinct rewards, so that candidates tie, dominate each other and score all zeros
_REWARDS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 1 / 3, 0.5]) | st.floats(0.0, 0.5)


@st.composite
def _fbep_inputs(draw):
    """(cum, cands, reward_matrix) of a random joint or of a random reward table."""
    n_atoms = draw(st.integers(1, 6))
    weights = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n_atoms, max_size=n_atoms)))
    weights[draw(st.integers(0, n_atoms - 1))] += 0.5
    cum = np.cumsum(weights / weights.sum())
    if draw(st.booleans()):
        # a joint whose atoms may repeat, with its candidates and some of them again
        pairs = draw(st.lists(st.tuples(_ATOM_VALUES, _ATOM_VALUES), min_size=n_atoms, max_size=n_atoms))
        sellers, buyers = np.asarray(pairs).T
        cands = fgft_candidates(sellers, buyers)
        cands = np.concatenate([cands, draw(st.lists(st.sampled_from(cands.tolist()), max_size=3))])
        return cum, cands, fgft_vector(cands[:, None], sellers, buyers)
    n_cands = draw(st.integers(1, 8))
    row = st.lists(_REWARDS, min_size=n_atoms, max_size=n_atoms)
    rows = draw(st.lists(row, min_size=n_cands, max_size=n_cands))
    return cum, np.linspace(0.0, 1.0, n_cands), np.asarray(rows)


@settings(max_examples=150, deadline=None)
@given(
    inputs=_fbep_inputs(),
    seed=st.integers(0, MASK64),
    T=st.integers(1, 300),
    block=st.sampled_from([3, 12, 13, kernels.BLOCK]),
)
def test_pruned_fbep_is_the_unpruned_formula(inputs, seed, T, block):
    # BLOCK 3 steps the cumsum one round at a time (its floor of 1) and draws 3 at a time;
    # 13 ends every block of draws on a short step of 1 round
    cum, cands, reward_matrix = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK", block)
        got = kernels.fbep_prices(seed, cum, cands, reward_matrix, T)
    assert np.array_equal(got, _unpruned_fbep(seed, cum, cands, reward_matrix, T))


def test_fbep_keeps_the_lower_of_tied_candidates_and_one_dominated_only_from_above():
    # candidate 0 is dominated only by the higher candidates 1 and 2, which are identical
    reward_matrix = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    assert kernels._undominated(reward_matrix).tolist() == [0, 1]
    cum, cands, T = np.array([0.9, 1.0]), np.array([0.25, 0.5, 0.75]), 64
    for seed in _SEEDS:
        idx = kernels.fbep_prices(seed, cum, cands, reward_matrix, T)
        assert np.array_equal(idx, _unpruned_fbep(seed, cum, cands, reward_matrix, T))
        # 0 ties 1 and leads until atom 1 is first drawn; then 1 leads, and 2 never
        seen_one = np.cumsum(_searched_atoms(cum, unit_draws(seed, T)) == 1)[:-1] > 0
        assert np.array_equal(idx[1:], np.where(seen_one, 1, 0)), seed
        assert 0 in idx[1:] and 1 in idx[1:], seed


@pytest.mark.parametrize("K", [1, 2, 65, 464, 2154])
@pytest.mark.parametrize("env_name", [*_SIM_ENVS, "point-masses"])
def test_conv_pricing_commit_matches_round_loop(env_name, K):
    # K = 2154 spans several windows, of which grid_commits scores only parts;
    # a point mass draws its one atom every round, so its bits are step functions
    if env_name == "point-masses":
        values = np.array([0.0, 1 / 8, 1 / 3, 0.5, 0.7, 1.0])
        sellers, buyers = (v.reshape(-1, 1) for v in np.meshgrid(values, values))
        loops = [(0, np.ones(1), s, b) for s, b in zip(sellers, buyers)]
    else:
        tables = _EnvTables(_SIM_ENVS[env_name]())
        sellers, buyers = tables.draw(_SEEDS, K)
        loops = [(seed, tables.cum, tables.sellers, tables.buyers) for seed in _SEEDS]
    rows = zip(loops, *kernels.conv_pricing_commit(sellers, buyers, K))
    for loop, commit, seller_bits, buyer_bits in rows:
        want_v, want_w = _loop_conv_bits(*loop, K)
        assert np.array_equal(seller_bits, want_v) and np.array_equal(buyer_bits, want_w), loop
        want_commit = int(np.argmax(_popcount_convolution(want_v, want_w, K))) + 1
        assert commit == want_commit, loop


@pytest.mark.parametrize("N", [0, 1, 10])
@pytest.mark.parametrize("env_name", list(_SIM_ENVS))
def test_dbs_explore_matches_round_loop(env_name, N):
    tables = _EnvTables(_SIM_ENVS[env_name]())
    sellers, buyers = tables.draw(_SEEDS, 2 * N)
    prices, commits = kernels.dbs_explore(sellers[:, :N], buyers[:, N:], N)
    assert commits.shape == (len(_SEEDS), N + 1)
    for seed, row, commit in zip(_SEEDS, prices, commits[:, N]):
        want_prices, want_commit = _loop_dbs(seed, tables.cum, tables.sellers, tables.buyers, N)
        assert row.tolist() == want_prices and commit == want_commit, seed


def test_dbs_explore_on_point_masses_nests_every_shorter_phase():
    # every round of a point mass sees its one pair, so the run with n rounds
    # per phase is the first n rounds of each phase of the run with N
    values = np.concatenate([np.arange(9) / 8, [1 / 3, 0.7], np.random.default_rng(3).random(6)])
    sellers, buyers = (v.reshape(-1, 1) for v in np.meshgrid(values, values))
    N = 12
    prices, commits = kernels.dbs_explore(sellers, buyers, N)
    for n in range(N + 1):
        short, short_commits = kernels.dbs_explore(sellers, buyers, n)
        assert np.array_equal(commits[:, n], short_commits[:, n]), n
        assert np.array_equal(prices[:, :n], short[:, :n]), n
        assert np.array_equal(prices[:, N : N + n], short[:, n:]), n
