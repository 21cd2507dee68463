"""Kernels against the reference definitions and the splitmix64 stream."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtrade import kernels
from fairtrade.core import discrete_convolution_score, expected_fgft, fgft_convolution_approx
from fairtrade.environments import env_from_config, lb_mu
from fairtrade.harness import _EnvTables
from fairtrade.rng import MASK64, SplitMix64, unit_draws
from fairtrade.verify import _float_incomplete_convolution


def test_expected_fgft_at_numpy_matches_oracle():
    env = lb_mu()
    joint = env.joint
    prices = np.asarray([0.0, 0.3125, 0.5, 0.6875, 1.0])
    got = kernels.expected_fgft_at(prices, joint.sellers, joint.buyers, joint.weights)
    want = [expected_fgft(joint, float(p)) for p in prices]
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_incomplete_convolution_numpy_matches_score():
    rng = np.random.default_rng(5)
    K = 17
    av = np.zeros(K + 1)
    av[1:] = rng.integers(0, 2, K)
    bv = np.zeros(2 * K + 1)
    bv[1 : K + 1] = rng.integers(0, 2, K)
    sums = kernels.incomplete_convolution(av, bv, K)
    for i in range(1, K + 1):
        want = discrete_convolution_score(av[1:].tolist(), bv[1 : K + 1].tolist(), i, K)
        assert sums[i - 1] / K == pytest.approx(want, abs=1e-15)


def test_incomplete_convolution_validates_layout():
    with pytest.raises(ValueError):
        kernels.incomplete_convolution(np.zeros(3), np.zeros(4), 2)


def test_uniform_prices_numpy_matches_stream():
    stream = SplitMix64(99)
    want = [stream.next_unit() for _ in range(16)]
    got = kernels.uniform_prices(99, 16)
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


def _random_bits(K, density, seed, tail=False):
    """(av, bv) in incomplete_convolution's layout, av[0] = 0.

    With ``tail`` the B entries past index K are random too; the scalar
    score reads them as zero, the kernel's sum never reaches them.
    """
    rng = np.random.default_rng(seed)
    av = np.zeros(K + 1)
    av[1:] = rng.random(K) < density
    bv = np.zeros(2 * K + 1)
    bv[1 : K + 1] = rng.random(K) < density
    if tail:
        bv[K + 1 :] = rng.random(K) < density
    return av, bv


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 300), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(K=1, density=1.0, seed=0)
@example(K=2, density=1.0, seed=0)
@example(K=2, density=0.5, seed=3)
def test_incomplete_convolution_is_the_discrete_score(K, density, seed):
    av, bv = _random_bits(K, density, seed)
    got = kernels.incomplete_convolution(av, bv, K) / K
    seller, buyer = av[1:].tolist(), bv[1 : K + 1].tolist()
    want = [discrete_convolution_score(seller, buyer, i, K) for i in range(1, K + 1)]
    assert got.tolist() == want


@pytest.mark.parametrize(
    "side, index, value",
    [("av", 0, 1.0), ("av", 2, 0.5), ("bv", 3, 0.5), ("av", 1, np.nan), ("bv", 6, np.nan)],
)
def test_incomplete_convolution_rejects_non_bits(side, index, value):
    K = 3
    arrays = {"av": np.zeros(K + 1), "bv": np.zeros(2 * K + 1)}
    arrays[side][index] = value
    with pytest.raises(ValueError):
        kernels.incomplete_convolution(arrays["av"], arrays["bv"], K)


@pytest.mark.parametrize("K", [1, 2, 3, 10, 100, 464])
@pytest.mark.parametrize("density", [0.6, 0.95])
def test_float_convolution_matches_bit_kernel_on_bits(K, density):
    av, bv = _random_bits(K, density, seed=K, tail=True)
    want = kernels.incomplete_convolution(av, bv, K)
    assert np.array_equal(_float_incomplete_convolution(av, bv, K), want)


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
    av, bv = np.zeros(K), np.zeros(K)
    for t in range(1, K + 1):
        j = _loop_atom(stream, cum)
        av[t - 1] = sellers[j] <= t / K
        bv[t - 1] = t / K <= buyers[j]
    return av, bv


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


@pytest.mark.parametrize("block", [kernels.FBEP_BLOCK, 3])
@pytest.mark.parametrize(
    "blocks,extra",
    [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 3)],
    ids=["1", "2", "B", "B+1", "B+2", "2B+3"],
)
@pytest.mark.parametrize("env_name", list(_SIM_ENVS))
def test_fbep_prices_match_round_loop_across_blocks(monkeypatch, env_name, blocks, extra, block):
    # block 3 puts a block edge every few rounds of the same episodes
    monkeypatch.setattr(kernels, "FBEP_BLOCK", block)
    T = blocks * block + extra
    tables = _EnvTables(_SIM_ENVS[env_name]())
    cands, matrix = tables.fbep
    for seed in _SEEDS:
        got = kernels.fbep_prices(seed, tables.cum, tables.sellers, tables.buyers, cands, matrix, T)
        assert np.array_equal(got, _loop_fbep(seed, tables.cum, cands, matrix, T)), seed


@pytest.mark.parametrize("K", [1, 2, 464])
@pytest.mark.parametrize("env_name", list(_SIM_ENVS))
def test_conv_pricing_commit_matches_round_loop(env_name, K):
    tables = _EnvTables(_SIM_ENVS[env_name]())
    rows = zip(_SEEDS, *kernels.conv_pricing_commit(*tables.draw(_SEEDS, K), K))
    for seed, commit, av, bv in rows:
        want_av, want_bv = _loop_conv_bits(seed, tables.cum, tables.sellers, tables.buyers, K)
        assert np.array_equal(av, want_av) and np.array_equal(bv, want_bv), seed
        padded_av = np.concatenate([[0.0], want_av])
        padded_bv = np.concatenate([[0.0], want_bv, np.zeros(K)])
        want_commit = int(np.argmax(kernels.incomplete_convolution(padded_av, padded_bv, K))) + 1
        assert commit == want_commit, seed


@pytest.mark.parametrize("N", [0, 1, 10])
@pytest.mark.parametrize("env_name", list(_SIM_ENVS))
def test_dbs_explore_matches_round_loop(env_name, N):
    tables = _EnvTables(_SIM_ENVS[env_name]())
    sellers, buyers = tables.draw(_SEEDS, 2 * N)
    rows = zip(_SEEDS, *kernels.dbs_explore(sellers[:, :N], buyers[:, N:], N))
    for seed, prices, commit in rows:
        want_prices, want_commit = _loop_dbs(seed, tables.cum, tables.sellers, tables.buyers, N)
        assert prices.tolist() == want_prices and commit == want_commit, seed
