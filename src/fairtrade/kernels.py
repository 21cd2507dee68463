"""Hot numeric kernels, one NumPy implementation each.

The per-episode simulators take every draw of an episode from one uint64
pass over the counter form of the splitmix64 stream (rng.unit_draws) and
accumulate sums in the same order as the round-by-round learners, so a
seeded fast path reproduces the reference loop's price path draw for draw
(fbep_prices can break a flat top differently; see
harness._price_profile).

Sampling convention: one uniform draw per round; the drawn atom is the
first index whose cumulative weight strictly exceeds the uniform (ties on
the boundary go right), with the index clamped to the last atom to absorb
cumulative sums that round below 1.0.
"""

from __future__ import annotations

import numpy as np

from .rng import SplitMix64, unit_draws  # noqa: F401

# No numba path exists; the flag stays because run metadata reports it.
USE_NUMBA = False
# No kernel here calls SplitMix64; the name stays importable because the
# benchmark's tracer wraps kernels.SplitMix64.

# Rounds per cumsum block in fbep_prices: bounds its scratch memory to
# FBEP_BLOCK x (number of candidates) doubles.
FBEP_BLOCK = 2048


def _sample_atoms(seed, cum, n: int) -> np.ndarray:
    """Atom indices of the first n rounds of the episode stream ``seed``."""
    idx = np.searchsorted(cum, unit_draws(seed, n), side="right")
    return np.minimum(idx, cum.size - 1)


# ---------------------------------------------------------------------------
# expected fgft over a price array (the one exact evaluator)
# ---------------------------------------------------------------------------


def expected_fgft_at(prices, sellers, buyers, weights):
    """Mean fgft of each price under a finite joint, atom order preserved.

    The one evaluator of E[fgft]: core.best_fixed_price_fgft scores its
    candidates with it (v*) and harness._profile_regret scores posted
    prices with it, so both terms of a regret come from the same sum.
    """
    prices = np.ascontiguousarray(prices, dtype=np.float64)
    means = np.zeros(prices.size, dtype=np.float64)
    for s, b, w in zip(sellers, buyers, weights):
        means += w * np.minimum(np.maximum(prices - s, 0.0), np.maximum(b - prices, 0.0))
    return means


# ---------------------------------------------------------------------------
# incomplete convolution c_i = sum_{k=0}^{K-1} A[i-k] * B[i+k]
# ---------------------------------------------------------------------------
#
# Index layout: ``av`` holds A at grid indices 0..K (av[0] must be 0: index
# i-k never reaches below 0 with a contribution), ``bv`` holds B at grid
# indices 0..2K.  Returns the K sums for i = 1..K.


def incomplete_convolution(av, bv, grid_size):
    K = int(grid_size)
    av = np.ascontiguousarray(av, dtype=np.float64)
    bv = np.ascontiguousarray(bv, dtype=np.float64)
    if av.size != K + 1 or bv.size != 2 * K + 1:
        raise ValueError("incomplete_convolution expects av of size K+1 and bv of size 2K+1")
    out = np.empty(K, dtype=np.float64)
    for i in range(1, K + 1):
        kmax = min(i, K - 1)
        out[i - 1] = float(np.dot(av[i - kmax : i + 1][::-1], bv[i : i + kmax + 1]))
    return out


# ---------------------------------------------------------------------------
# per-episode simulators
# ---------------------------------------------------------------------------


def conv_pricing_commit(seed, cum, sellers, buyers, grid_size):
    """Exploration sweep of the grid-pricing learner: returns its commit.

    Simulates rounds 1..K posting t/K, recording the two acceptance bits of
    the sampled pair, then scores every grid index by the incomplete
    convolution of the bit sequences.  Returns (1-based commit index,
    seller bits V_1..V_K, buyer bits W_1..W_K).
    """
    K = int(grid_size)
    j = _sample_atoms(seed, cum, K)
    grid = np.arange(1, K + 1, dtype=np.float64) / K
    av = np.zeros(K + 1, dtype=np.float64)
    bv = np.zeros(2 * K + 1, dtype=np.float64)
    av[1:] = sellers[j] <= grid
    bv[1 : K + 1] = grid <= buyers[j]
    scores = incomplete_convolution(av, bv, K)
    commit = int(np.argmax(scores)) + 1
    return commit, av[1 : K + 1].copy(), bv[1 : K + 1].copy()


def dbs_explore(seed, cum, sellers, buyers, n_rounds):
    """Two bisection phases of the double-binary-search learner.

    Runs N seller rounds then N buyer rounds, drawing one pair per round,
    and returns (exploration prices, commit price).
    """
    N = int(n_rounds)
    j = _sample_atoms(seed, cum, 2 * N)
    prices = np.empty(2 * N, dtype=np.float64)
    es_lo, es_hi = 0.0, 1.0
    eb_lo, eb_hi = 0.0, 1.0
    for t, s in enumerate(sellers[j[:N]].tolist()):
        mid = (es_lo + es_hi) / 2.0
        prices[t] = mid
        if s <= mid:
            es_hi = mid
        else:
            es_lo = mid
    for t, b in enumerate(buyers[j[N:]].tolist()):
        mid = (eb_lo + eb_hi) / 2.0
        prices[N + t] = mid
        if mid <= b:
            eb_lo = mid
        else:
            eb_hi = mid
    commit = ((es_lo + es_hi) / 2.0 + (eb_lo + eb_hi) / 2.0) / 2.0
    return prices, commit


def fbep_prices(seed, cum, sellers, buyers, cands, reward_matrix, horizon):
    """Price path of the follow-the-best-empirical-price learner.

    ``cands`` are the fixed candidate prices (every breakpoint the empirical
    mean can have under this environment) and ``reward_matrix[m, j]`` is
    fgft(cands[m], atom j).  Round 0 posts 1/2; round t >= 1 posts the
    first maximizer of the scores summed over rounds 0..t-1 in arrival
    order, matching empirical_best_price's summation exactly.  The scores
    of FBEP_BLOCK rounds at a time are one cumsum whose row 0 is the
    carried total, so every partial sum is formed in the same order as a
    round-by-round loop (adding the carry after the cumsum would regroup
    the sums and change their rounding).
    """
    T = int(horizon)
    rewards = np.ascontiguousarray(reward_matrix.T)
    j = _sample_atoms(seed, cum, T)
    prices = np.empty(T, dtype=np.float64)
    block = np.zeros((min(T, FBEP_BLOCK) + 1, rewards.shape[1]), dtype=np.float64)
    for t0 in range(0, T, FBEP_BLOCK):
        rows = j[t0 : t0 + FBEP_BLOCK]
        scores = block[: rows.size + 1]
        scores[1:] = rewards[rows]
        np.cumsum(scores, axis=0, out=scores)
        prices[t0 : t0 + rows.size] = cands[np.argmax(scores[:-1], axis=1)]
        block[0] = scores[-1]
    prices[:1] = 0.5
    return prices


def uniform_prices(seed, horizon):
    """Independent uniform prices from a learner-owned stream."""
    return unit_draws(seed, horizon)


def convolution_approx_batch(prices, sellers, buyers, grid_size):
    """Left-Riemann overlap sums for aligned (p, s, b) triples.

    Evaluates the same indicator sum as fgft_convolution_approx for each
    triple.  Both indicators are non-increasing in j, so per-triple counting
    uses a vectorized count of non-zero products over the u-grid.
    """
    M = int(grid_size)
    prices = np.ascontiguousarray(prices, dtype=np.float64)
    sellers = np.ascontiguousarray(sellers, dtype=np.float64)
    buyers = np.ascontiguousarray(buyers, dtype=np.float64)
    us = np.arange(M, dtype=np.float64) / M
    out = np.empty(prices.size, dtype=np.float64)
    for i in range(prices.size):
        p = prices[i]
        out[i] = np.count_nonzero((sellers[i] <= p - us) & (p + us <= buyers[i])) / M
    return out
