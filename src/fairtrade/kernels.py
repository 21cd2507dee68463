"""Hot numeric kernels, one NumPy implementation each.

Every draw of an episode comes from one uint64 pass over the counter form
of the splitmix64 stream (rng.unit_draws, sampled by _sample_atoms).
fbep_prices draws its own atoms; dbs_explore and conv_pricing_commit take
the drawn seller and buyer values as rows, one per episode or per point
mass (harness._EnvTables.draw samples them), and step all rows at once.
The simulators accumulate sums in the same order as the round-by-round
learners, so a seeded fast path reproduces the reference loop's price
path draw for draw (fbep_prices can break a flat top differently; see
harness._price_profile).

Sampling convention: one uniform draw per round; the drawn atom is the
first index whose cumulative weight strictly exceeds the uniform (ties on
the boundary go right), with the index clamped to the last atom to absorb
cumulative sums that round below 1.0.

The two grid kernels count exactly.  incomplete_convolution takes 0/1
acceptance bits only (it raises on any other value) and counts each score
as the popcount of two shifted Python-int bitsets, not a dot product;
convolution_approx_batch starts each overlap count from its closed form
and steps it onto the exact boundary of the indicator, instead of
evaluating all M terms.
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
# Triples per block in convolution_approx_batch.
APPROX_BLOCK = 8192


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
    ``prices`` may have any shape.  The atoms lie along the last axis of
    ``sellers``, ``buyers`` and ``weights``; atoms of shape (rows, A) are
    per-row atoms, for prices of shape (rows, n).
    """
    prices = np.asarray(prices, dtype=np.float64)
    sellers = np.asarray(sellers, dtype=np.float64)
    buyers = np.asarray(buyers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    means = np.zeros(np.broadcast_shapes(prices.shape, sellers.shape[:-1] + (1,)))
    # w * min((p - s)+, (b - p)+) per atom, in two scratch arrays of the output's size
    gain, rest = np.empty_like(means), np.empty_like(means)
    for a in range(sellers.shape[-1]):
        s, b, w = sellers[..., a, None], buyers[..., a, None], weights[..., a, None]
        np.maximum(np.subtract(prices, s, out=gain), 0.0, out=gain)
        np.maximum(np.subtract(b, prices, out=rest), 0.0, out=rest)
        np.minimum(gain, rest, out=gain)
        gain *= w
        means += gain
    return means


# ---------------------------------------------------------------------------
# incomplete convolution c_i = sum_{k=0}^{K-1} A[i-k] * B[i+k]
# ---------------------------------------------------------------------------


def _bits_to_int(bits) -> int:
    """Python int whose bit m is bits[m] (bits are 0/1)."""
    return int.from_bytes(np.packbits(bits != 0, bitorder="little").tobytes(), "little")


def incomplete_convolution(av, bv, grid_size):
    """The K sums c_i = sum_{k=0}^{K-1} A[i-k] * B[i+k], i = 1..K, of 0/1 bits.

    ``av`` holds A at grid indices 0..K and ``bv`` holds B at grid indices
    0..2K; every entry must be 0 or 1 and av[0] must be 0 (index i-k never
    reaches below 0 with a contribution).  Anything else raises ValueError
    rather than return a wrong score.

    With r the bits of A reversed (bit m = A[K-m]) and b the bits of B,
    bit m of (r >> (K-i)) & (b >> i) is A[i-m] * B[i+m], so c_i is that
    int's popcount: every score is an exact integer, returned as float64.
    The one extra term, m = K at i = K, is A[0] * B[2K] = 0.
    """
    K = int(grid_size)
    av = np.asarray(av)
    bv = np.asarray(bv)
    if av.shape != (K + 1,) or bv.shape != (2 * K + 1,):
        raise ValueError("incomplete_convolution expects av of size K+1 and bv of size 2K+1")
    bits = np.concatenate([av, bv])
    if av[0] != 0.0 or not np.all((bits == 0.0) | (bits == 1.0)):
        raise ValueError("incomplete_convolution takes 0/1 bits with av[0] == 0")
    r = _bits_to_int(av[::-1])
    b = _bits_to_int(bv)
    scores = (((r >> (K - i)) & (b >> i)).bit_count() for i in range(1, K + 1))
    return np.fromiter(scores, dtype=np.float64, count=K)


# ---------------------------------------------------------------------------
# per-episode simulators
# ---------------------------------------------------------------------------


def conv_pricing_commit(sellers, buyers, grid_size):
    """Exploration sweeps of the grid-pricing learner: returns their commits.

    Row r holds one episode's seller and buyer values of rounds 1..K, shape
    (rows, K), or one value per row, shape (rows, 1), for a point mass.
    Round t posts t/K and records the two acceptance bits of its pair;
    every grid index of a row is scored by the incomplete convolution of
    that row's bit sequences.  Returns (1-based commit index per row,
    seller bits V_1..V_K per row, buyer bits W_1..W_K per row), the bits
    as bool arrays.
    """
    K = int(grid_size)
    grid = np.arange(1, K + 1, dtype=np.float64) / K
    sellers = np.asarray(sellers, dtype=np.float64)
    buyers = np.asarray(buyers, dtype=np.float64)
    rows = sellers.shape[0]
    av = np.zeros((rows, K + 1), dtype=bool)
    bv = np.zeros((rows, 2 * K + 1), dtype=bool)
    av[:, 1:] = sellers <= grid
    bv[:, 1 : K + 1] = grid <= buyers
    commits = np.array(
        [int(np.argmax(incomplete_convolution(a, b, K))) + 1 for a, b in zip(av, bv)],
        dtype=np.int64,
    )
    return commits, av[:, 1:], bv[:, 1 : K + 1]


def dbs_explore(sellers, buyers, n_rounds):
    """Two bisection phases of the double-binary-search learner, row by row.

    Row r holds one episode's seller values of rounds 1..N and buyer values
    of rounds N+1..2N, shape (rows, N), or one value per row, shape
    (rows, 1), for a point mass.  Each round is one array step over all
    rows, with the scalar learner's float operations.  Returns (exploration
    prices, shape (rows, 2N), commit price per row).
    """
    N = int(n_rounds)
    sellers = np.asarray(sellers, dtype=np.float64)
    buyers = np.asarray(buyers, dtype=np.float64)
    rows = sellers.shape[0]
    sellers = np.broadcast_to(sellers, (rows, N))
    buyers = np.broadcast_to(buyers, (rows, N))
    prices = np.empty((rows, 2 * N), dtype=np.float64)
    lo, hi = np.zeros(rows), np.ones(rows)
    for t in range(N):
        mid = prices[:, t] = (lo + hi) / 2.0
        below = sellers[:, t] <= mid
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    seller_mid = (lo + hi) / 2.0
    lo, hi = np.zeros(rows), np.ones(rows)
    for t in range(N):
        mid = prices[:, N + t] = (lo + hi) / 2.0
        above = mid <= buyers[:, t]
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    commit = (seller_mid + (lo + hi) / 2.0) / 2.0
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


def _overlap_holds(p, s, b, j, M):
    """The indicator 1{s <= p - j/M} * 1{p + j/M <= b}, elementwise."""
    u = j / M
    return (s <= p - u) & (p + u <= b)


def convolution_approx_batch(prices, sellers, buyers, grid_size):
    """Left-Riemann overlap sums for aligned (p, s, b) triples.

    Evaluates the same indicator sum as fgft_convolution_approx for each
    triple: the count n of j in [0, M) with s <= p - j/M and p + j/M <= b,
    divided by M.  Both indicators are non-increasing in j, so the count is
    the first j where the product fails.  It starts from the closed form
    floor(min(p - s, b - p) * M) + 1, clipped to [0, M] (NaN gives 0), and
    steps up or down until it sits on that boundary of the float predicate
    itself, so rounding can move the estimate but never the result.
    Triples go APPROX_BLOCK at a time to keep the temporaries small.
    """
    M = int(grid_size)
    prices = np.ascontiguousarray(prices, dtype=np.float64)
    sellers = np.ascontiguousarray(sellers, dtype=np.float64)
    buyers = np.ascontiguousarray(buyers, dtype=np.float64)
    out = np.empty(prices.size, dtype=np.float64)
    for lo in range(0, prices.size, APPROX_BLOCK):
        p, s, b = (x[lo : lo + APPROX_BLOCK] for x in (prices, sellers, buyers))
        with np.errstate(all="ignore"):
            est = np.floor(np.minimum(p - s, b - p) * M) + 1.0
        n = np.clip(np.nan_to_num(est, nan=0.0), 0, M).astype(np.int64)
        idx = np.flatnonzero(n < M)
        while idx.size:  # up while the predicate holds at n
            idx = idx[_overlap_holds(p[idx], s[idx], b[idx], n[idx], M)]
            n[idx] += 1
            idx = idx[n[idx] < M]
        idx = np.flatnonzero(n > 0)
        while idx.size:  # down while it fails at n - 1
            idx = idx[~_overlap_holds(p[idx], s[idx], b[idx], n[idx] - 1, M)]
            n[idx] -= 1
            idx = idx[n[idx] > 0]
        out[lo : lo + p.size] = n / M
    return out
