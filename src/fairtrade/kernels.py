"""Hot numeric kernels, one NumPy implementation each.

Every draw of an episode comes from one uint64 pass over the counter form
of the splitmix64 stream (rng.unit_draws, inverted by _atoms_at).
fbep_prices draws its own atoms; dbs_explore and conv_pricing_commit take
the drawn seller and buyer values as rows, one per episode or per point
mass (harness._EnvTables.draw samples them), and step all rows at once.
The simulators accumulate sums in the same order as the round-by-round
learners, so a seeded fast path reproduces the reference loop's price
path draw for draw (fbep_prices can break a flat top differently; see
harness._round_gaps).

Sampling convention: one uniform draw per round; the drawn atom is the
number of boundaries cum[0..A-2] at or below the uniform.  That is the
first index whose cumulative weight strictly exceeds the uniform (ties on
the boundary go right), clamped to the last atom A-1 to absorb cumulative
sums that round below 1.0.  _atoms_at counts the boundaries in one pass
each when draws are many and atoms few, else binary-searches them.

fbep_prices scores only the candidates that no lower-index candidate
dominates, which leaves its path bitwise unchanged (see its docstring).
expected_fgft_at runs in blocks of FGFT_BLOCK prices along the last axis,
so its two scratch arrays hold at most FGFT_BLOCK doubles per row each.

The two grid kernels count exactly.  incomplete_convolution takes rows
of 0/1 acceptance bits only (it raises on any other value), packs each
row into uint64 words and counts every score of every row as the
popcount of two word-shifted windows, not a dot product, in strided
passes whose scratch memory is bounded by row blocks (CONV_BLOCK_WORDS);
convolution_approx_batch starts each overlap count from its closed form
and steps it onto the exact boundary of the indicator, instead of
evaluating all M terms.
"""

from __future__ import annotations

import numpy as np

# No kernel here calls SplitMix64; the name stays importable because the
# benchmark's tracer wraps kernels.SplitMix64.
from .rng import SplitMix64  # noqa: F401
from .rng import unit_draws

# No numba path exists; the flag stays because run metadata reports it.
USE_NUMBA = False

# Rounds per cumsum block in fbep_prices: bounds its scratch memory to
# FBEP_BLOCK x (number of candidates) doubles.
FBEP_BLOCK = 2048
# Prices per block along the last axis in expected_fgft_at: bounds each of
# its two scratch arrays to FGFT_BLOCK doubles per row of atoms.
FGFT_BLOCK = 2**15
# _atoms_at counts boundaries, rather than binary-searching, from this
# many draws per atom on.
COUNT_DRAWS_PER_ATOM = 256
# Triples per block in convolution_approx_batch.
APPROX_BLOCK = 8192
# Words per shift table in incomplete_convolution: bounds its scratch
# memory to about 3 x CONV_BLOCK_WORDS uint64 words while one row fits.
CONV_BLOCK_WORDS = 2**15
# Word offsets q per strided window in incomplete_convolution; at 2 its
# AND buffer is about the size of one shift table.
CONV_Q_BLOCK = 2


def _atoms_at(cum, u) -> np.ndarray:
    """Atom index of each uniform in ``u``: the count of cum[:-1] entries <= it.

    This is min(searchsorted(cum, u, "right"), A - 1) for the A = cum.size
    sorted cumulative weights.  Many draws over few atoms are counted, one
    comparison pass per boundary into a uint8 accumulator (at least
    COUNT_DRAWS_PER_ATOM draws per atom, at most 256 atoms); a random-access
    binary search per draw costs more there.
    """
    A = cum.size
    if A > 256 or u.size < COUNT_DRAWS_PER_ATOM * A:  # a count of at most A - 1 fits uint8
        return np.minimum(np.searchsorted(cum, u, side="right"), A - 1)
    idx, at_or_above = np.zeros(u.shape, dtype=np.uint8), np.empty(u.shape, dtype=bool)
    for c in cum[:-1]:
        idx += np.greater_equal(u, c, out=at_or_above).view(np.uint8)
    return idx


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
    per-row atoms, for prices of shape (rows, n).  Each atom adds
    w * max(min(p - s, b - p), 0), bitwise core.fgft's min((p - s)+,
    (b - p)+) times w: both are 0 when either side is negative, and a -0.0
    term adds nothing to ``means``, which starts at +0.0.
    """
    sellers = np.asarray(sellers, dtype=np.float64)
    buyers = np.asarray(buyers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    # a scalar price as one column, which the output has anyway
    prices = np.atleast_1d(np.asarray(prices, dtype=np.float64))
    means = np.zeros(np.broadcast_shapes(prices.shape, sellers.shape[:-1] + (1,)))
    # w * max(min(p - s, b - p), 0) per atom, in two scratch arrays of one
    # block: at most FGFT_BLOCK prices along the last axis
    n = means.shape[-1]
    gains = np.empty(means.shape[:-1] + (min(n, FGFT_BLOCK),))
    rests = np.empty_like(gains)
    for lo in range(0, n, FGFT_BLOCK):
        p, out = prices[..., lo : lo + FGFT_BLOCK], means[..., lo : lo + FGFT_BLOCK]
        gain, rest = gains[..., : out.shape[-1]], rests[..., : out.shape[-1]]
        for a in range(sellers.shape[-1]):
            s, b, w = sellers[..., a, None], buyers[..., a, None], weights[..., a, None]
            np.minimum(np.subtract(p, s, out=gain), np.subtract(b, p, out=rest), out=gain)
            np.maximum(gain, 0.0, out=gain)
            gain *= w
            out += gain
    return means


# ---------------------------------------------------------------------------
# incomplete convolution c_i = sum_{k>=0} V_{i-k} * W_{i+k}
# ---------------------------------------------------------------------------


def _shift_table(bits, table, scratch):
    """table[r, s, w] = word w of row r's bits shifted right by s, s = 0..63.

    Row r of ``bits`` (0/1, shape (rows, K)) is read as the little-endian
    integer whose bit m is bits[r, m], in uint64 words; every word past the
    bits is zero.  ``scratch`` is a uint64 array of the table's shape.
    """
    rows, words = table.shape[0], table.shape[2]
    packed = np.zeros((rows, 8 * (words + 1)), dtype=np.uint8)
    packed[:, : (bits.shape[1] + 7) // 8] = np.packbits(bits != 0, axis=1, bitorder="little")
    x = packed.view("<u8")
    shifts = np.arange(64, dtype=np.uint64)[:, None]
    np.right_shift(x[:, None, :-1], shifts, out=table)
    np.left_shift(x[:, None, 1:], 64 - shifts[1:], out=scratch[:, 1:])
    np.bitwise_or(table[:, 1:], scratch[:, 1:], out=table[:, 1:])


def incomplete_convolution(seller_bits, buyer_bits, grid_size):
    """The K sums c_i = sum_{k>=0} V_{i-k} * W_{i+k}, i = 1..K, of each row's 0/1 bits.

    Row r of ``seller_bits`` holds one sweep's V_1..V_K and row r of
    ``buyer_bits`` its W_1..W_K, both of shape (rows, K); positions outside
    1..K read as zero, so c_i / K is core.discrete_convolution_score.  Any
    other shape, or any entry other than 0 or 1, raises ValueError rather
    than return a wrong score.  Returns the counts as float64 of shape
    (rows, K); every count is an exact integer.

    With r the bits of V reversed (bit m = V_{K-m}) and b the bits of W
    (bit m = W_{m+1}), bit k of (r >> (K-i)) & (b >> (i-1)) is
    V_{i-k} * W_{i+k}, so c_i is the popcount of that AND, whose bits all
    lie below min(i, K+1-i).  Each row's r and b are packed into uint64 words,
    and each gets a table of its 64 sub-word right shifts.  Write
    i = 1 + rho + 64q and K - 1 = 64a + c.  Then b >> (i-1) is sub-shift
    rho of b from word q on, and r >> (K-i) is sub-shift c - rho of r from
    word a - q on (rho <= c) or sub-shift 64 + c - rho from word a - 1 - q
    on (rho > c).  In each of these two groups both windows are affine in
    (rho, q, word), so one strided view per side covers every rho of the
    group and CONV_Q_BLOCK values of q.  np.bitwise_count of the two
    views' AND, summed over the words, gives those indices' counts, and
    they are written straight into the returned array.

    Scratch memory is bounded by row blocks.  With w = ceil(K/64) +
    CONV_Q_BLOCK - 1 words per shifted row, rows go
    max(1, CONV_BLOCK_WORDS // (64 w)) at a time.  A block of m rows holds
    two shift tables of 64 m w words each, and one AND buffer of 64 m
    max(w, CONV_Q_BLOCK x the widest window's words) words (about 64 m w),
    which also serves as the tables' scratch, and one byte per word of the
    AND buffer: about 3 x CONV_BLOCK_WORDS words while one row fits the
    budget (K <= 32 704 at 2**15 words), and about 3 x 64 w words, one
    row's, above that.
    """
    K = int(grid_size)
    seller_bits, buyer_bits = np.asarray(seller_bits), np.asarray(buyer_bits)
    if seller_bits.ndim != 2 or seller_bits.shape[1] != K or buyer_bits.shape != seller_bits.shape:
        raise ValueError("incomplete_convolution expects seller and buyer bits of shape (rows, K)")
    for bits in (seller_bits, buyer_bits):
        if not np.all((bits == 0.0) | (bits == 1.0)):
            raise ValueError("incomplete_convolution takes 0/1 bits")
    rows = seller_bits.shape[0]
    counts = np.empty((rows, K), dtype=np.float64)
    if rows == 0 or K == 0:
        return counts
    a, c = divmod(K - 1, 64)
    qb = CONV_Q_BLOCK
    words = a + qb  # a + qb - 1 is the highest word a window reads
    # (first rho, rho count, first q, q count, words read, item offset of r's first word)
    windows = []
    for rho, n_rho, n_q, r_shift, r_word in ((0, c + 1, a + 1, c, a), (c + 1, 63 - c, a, 63, a - 1)):
        for q in range(0, n_q if n_rho else 0, qb):
            n = min(qb, n_q - q)
            first, last = 1 + rho + 64 * q, rho + n_rho + 64 * (q + n - 1)
            # at least ceil(min(i, K + 1 - i) / 64) for every index i of the window
            L = (min(last, K + 1 - first) + 63) // 64
            windows.append((rho, n_rho, q, n, L, r_shift * words + r_word - q))
    block = min(rows, max(1, CONV_BLOCK_WORDS // (64 * words)))
    r_table = np.empty((block, 64, words), dtype=np.uint64)
    b_table = np.empty_like(r_table)
    anded = np.empty(block * 64 * max(words, qb * max(w[4] for w in windows)), dtype=np.uint64)
    bit_counts = np.empty(anded.size, dtype=np.uint8)
    sums = np.empty(block * 64 * qb, dtype=np.uint32)
    for lo in range(0, rows, block):
        m = min(block, rows - lo)
        r, b, out = r_table[:m], b_table[:m], counts[lo : lo + m]
        scratch = anded[: r.size].reshape(r.shape)
        _shift_table(seller_bits[lo : lo + m, ::-1], r, scratch)
        _shift_table(buyer_bits[lo : lo + m], b, scratch)
        r_strides = (r.strides[0], -r.strides[1], -8, 8)
        b_strides = (b.strides[0], b.strides[1], 8, 8)
        # np.ndarray views raise, rather than read, past the end of their buffer
        for rho, n_rho, q, n, L, r_first in windows:
            shape, size = (m, n_rho, n, L), m * n_rho * n * L
            rv = np.ndarray(shape, np.uint64, r, 8 * r_first, r_strides)
            bv = np.ndarray(shape, np.uint64, b, 8 * (rho * words + q), b_strides)
            both = np.bitwise_and(rv, bv, out=anded[:size].reshape(shape))
            ones = np.bitwise_count(both, out=bit_counts[:size].reshape(shape))
            window_sums = sums[: m * n_rho * n].reshape(shape[:3])
            np.add.reduce(ones, axis=-1, dtype=np.uint32, out=window_sums)
            at = np.ndarray(shape[:3], np.float64, out, 8 * (rho + 64 * q), (out.strides[0], 8, 512))
            at[...] = window_sums
    return counts


# ---------------------------------------------------------------------------
# per-episode simulators
# ---------------------------------------------------------------------------


def conv_pricing_commit(sellers, buyers, grid_size):
    """Exploration sweeps of the grid-pricing learner: returns their commits.

    Row r holds one episode's seller and buyer values of rounds 1..K, shape
    (rows, K), or one value per row, shape (rows, 1), for a point mass.
    Round t posts t/K and records the two acceptance bits of its pair;
    every grid index of every row is scored by the incomplete convolution
    of that row's bits, all rows in one incomplete_convolution call, and
    each row commits to its first maximizer.  Memory beyond the bits: the
    (rows, K) float64 counts and incomplete_convolution's scratch, which
    is bounded by row blocks.  Returns (1-based commit index per row, seller bits
    V_1..V_K per row, buyer bits W_1..W_K per row), the bits as bool
    arrays of shape (rows, K).
    """
    K = int(grid_size)
    grid = np.arange(1, K + 1, dtype=np.float64) / K
    seller_bits = np.asarray(sellers, dtype=np.float64) <= grid
    buyer_bits = grid <= np.asarray(buyers, dtype=np.float64)
    commits = np.argmax(incomplete_convolution(seller_bits, buyer_bits, K), axis=1) + 1
    return commits, seller_bits, buyer_bits


def dbs_explore(sellers, buyers, n_rounds):
    """Two bisection phases of the double-binary-search learner, row by row.

    Row r holds one episode's seller values of rounds 1..N and buyer values
    of rounds N+1..2N, shape (rows, N), or one value per row, shape
    (rows, 1), for a point mass.  Each round is one array step over all
    rows, with the scalar learner's float operations.  Returns (prices,
    commits): the exploration prices, shape (rows, 2N), and commits of
    shape (rows, N+1), where commits[:, n] is (seller-phase midpoint after
    n rounds + buyer-phase midpoint after n rounds) / 2.  commits[:, N] is
    each row's commit price.  On a point mass every round sees the same
    pair, so commits[:, n] and the prices [:n] and [N:N+n] are what a call
    with n rounds returns.
    """
    N = int(n_rounds)
    sellers = np.asarray(sellers, dtype=np.float64)
    buyers = np.asarray(buyers, dtype=np.float64)
    rows = sellers.shape[0]
    # mids[:, phase, n]: the seller (phase 0) or buyer (phase 1) midpoint after n rounds
    mids = np.empty((rows, 2, N + 1), dtype=np.float64)
    for phase, values in enumerate((sellers, buyers)):
        values = np.broadcast_to(values, (rows, N))
        lo, hi = np.zeros(rows), np.ones(rows)
        for t in range(N):
            mid = mids[:, phase, t] = (lo + hi) / 2.0
            # the seller phase keeps [lo, mid] when s <= mid, the buyer phase when not mid <= b
            lower = values[:, t] <= mid if phase == 0 else ~(mid <= values[:, t])
            lo, hi = np.where(lower, lo, mid), np.where(lower, mid, hi)
        mids[:, phase, N] = (lo + hi) / 2.0
    return mids[:, :, :N].reshape(rows, 2 * N), (mids[:, 0] + mids[:, 1]) / 2.0


def _undominated(reward_matrix) -> np.ndarray:
    """Rows m of ``reward_matrix`` that no row m' < m weakly dominates, ascending.

    Row m is dropped when reward_matrix[m] <= reward_matrix[m'] on every
    column for some m' < m: an O(rows**2 x columns) check.
    """
    rewards = np.asarray(reward_matrix, dtype=np.float64)
    dominated = (np.any(np.all(rewards[m] <= rewards[:m], axis=1)) for m in range(rewards.shape[0]))
    return np.flatnonzero(~np.fromiter(dominated, dtype=bool, count=rewards.shape[0]))


def fbep_prices(seed, cum, cands, reward_matrix, horizon):
    """Index path of the follow-the-best-empirical-price learner.

    ``cands`` are the fixed candidate prices (every breakpoint the empirical
    mean can have under this environment) and ``reward_matrix[m, j]`` is
    fgft(cands[m], atom j).  Returns idx, the index of each round's price in
    cands with 1/2 appended: round 0 posts 1/2 (index cands.size); round
    t >= 1 posts the first maximizer of the scores summed over rounds
    0..t-1 in arrival order, matching empirical_best_price's summation
    exactly.  The scores of FBEP_BLOCK rounds at a time are one cumsum whose
    row 0 is the carried total, so every partial sum is formed in the same
    order as a round-by-round loop (adding the carry after the cumsum would
    regroup the sums and change their rounding).  The path does not depend
    on the horizon: the first T rounds of a longer path are the path at T.

    Only candidates that can lead are scored.  Round-to-nearest addition is
    monotone: a <= a' and r <= r' give fl(a + r) <= fl(a' + r').  So when
    reward_matrix[m] <= reward_matrix[m'] on every atom for some m' < m,
    induction over the rounds keeps m's running score at or below m''s,
    and m is never the first maximizer.  Every such m is dropped before the
    cumsum (dominance is transitive, so the first maximizer always stays),
    and the kept columns' argmax maps back to the original indices: the
    path is the one all candidates give, bit for bit.  The argument needs
    only sums that are monotone, so it holds as well for exact sums (say,
    Python-int sums of integer-scaled rewards) under exact comparison.  A
    rule that let a candidate lead only once its atom is drawn would have
    to keep m until m' may lead.
    """
    T = int(horizon)
    kept = _undominated(reward_matrix)
    rewards = np.ascontiguousarray(reward_matrix[kept].T)
    j = _atoms_at(cum, unit_draws(seed, T))
    idx = np.empty(T, dtype=np.intp)
    block = np.zeros((min(T, FBEP_BLOCK) + 1, kept.size), dtype=np.float64)
    for t0 in range(0, T, FBEP_BLOCK):
        rows = j[t0 : t0 + FBEP_BLOCK]
        scores = block[: rows.size + 1]
        np.take(rewards, rows, axis=0, out=scores[1:], mode="clip")
        np.cumsum(scores, axis=0, out=scores)
        np.argmax(scores[:-1], axis=1, out=idx[t0 : t0 + rows.size])
        block[0] = scores[-1]
    idx = kept[idx]
    idx[:1] = cands.size
    return idx


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
