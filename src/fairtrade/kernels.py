"""Hot numeric kernels, one NumPy implementation each.

Every draw comes from uint64 passes over the counter form of the
splitmix64 stream, inverted by _atoms_at: rng.draw_rows, for a column of
seeds or for one block of one stream (a column of one seed).
dbs_explore and conv_pricing_commit take the drawn seller and buyer values
as rows, one per episode or per point mass (harness._EnvTables.draw
samples them through draw_rows), and step all rows at once; dbs_explore
bisects point masses in closed form.  fbep_prices and uniform_prices,
the full-feedback kernels, draw their own through
draw_rows, BLOCK rounds at a time from each block's start, so an
episode runs in bounded block scratch: besides the one T-long array it
returns (fbep's index in the narrowest unsigned type, uniform's prices),
a kernel's scratch is set by BLOCK, not by the horizon.
The simulators accumulate sums in the same order as the round-by-round
learners, so a seeded fast path reproduces the reference loop's price
path draw for draw (fbep_prices can break a flat top differently; see
harness._fbep_gaps).

One block rule serves every streamed pass: draws, regrets, prices, (row,
price) pairs or triples go BLOCK at a time (verify's convolution-lemma box
and sandwich CDF rows too), and fbep's cumsum max(1, BLOCK // 4) rounds at
a time.  Blocking never regroups a sum, so no output depends on BLOCK.

Sampling convention: one uniform draw per round; the drawn atom is the
number of boundaries cum[0..A-2] at or below the uniform.  That is the
first index whose cumulative weight strictly exceeds the uniform (ties on
the boundary go right), clamped to the last atom A-1 to absorb cumulative
sums that round below 1.0.  _atoms_at counts the boundaries in one pass
each when draws are many and atoms few, else binary-searches them.

fbep_prices scores only the candidates that no lower-index candidate
dominates, which leaves its path bitwise unchanged (see its docstring).
Its running scores take two candidates per add: the cumsum runs on the
complex128 view of the round-major score block, and a complex add is two
independent IEEE adds, so each column's sums are bitwise the float64 ones.
expected_fgft_at has two paths with bitwise equal sums, and the input
selects one.  On one sorted row of prices shared by every row of atoms
(verify's grids, the oracle's candidates, the grid learner's sweep), each
atom (s, b) adds its terms only on the prices strictly inside (s, b),
found by two binary searches: elsewhere its fair gain is an exact zero.
Its scratch stays under 6 x BLOCK 8-byte elements whatever the row
count.  Any other prices (fbep's candidates with round 0's 1/2, uniform
draws, per-row prices) take the dense loop over every price, in blocks of
BLOCK prices, whose two scratch arrays hold at most BLOCK doubles per
row of atoms each.

The grid learner's scores, the incomplete convolution of its two rows
of acceptance values, have two scorers.  incomplete_convolution scores
every grid index of real-valued rows, one dot product per run of 64
indices over the run's live terms: the round-by-round learner and the
sandwich check use it.
grid_commits, the fast path, returns only each row's first maximizer on
0/1 bits (it raises on any other value), and counts exactly.  It builds
one flat table per side and row, whose entry f holds the 64 bits from bit
f on, the seller's stored reversed, so that a score is a popcount of
words ANDed at two table entries that move forward together with the
grid index.  A window of consecutive grid indices is then one contiguous
AND/popcount pass over all rows of a block; the windows and the row
blocks are sized in closed form from CONV_BLOCK_WORDS, which bounds the
scratch memory.  It scores only the windows' parts that hold an index
whose count can reach the maximum: each count is capped by the ones of
its seller and buyer windows, and a cap below one probe index's exact
count rules an index out.
convolution_approx_batch starts each overlap count from its closed form
and steps it onto the exact boundary of the indicator, instead of
evaluating all M terms; each direction's first step runs on the whole
block and later steps only on the triples that moved.
"""

from __future__ import annotations

import math

import numpy as np

# No kernel here calls SplitMix64; the name stays importable because the
# benchmark's tracer wraps kernels.SplitMix64.
from .rng import SplitMix64  # noqa: F401
# rng.BLOCK, the one block size: here the draws and regrets of fbep and
# uniform (harness's too), expected_fgft_at's prices or (row, price) pairs,
# convolution_approx_batch's triples; verify's box and CDF rows read it too.
# fbep's cumsum takes max(1, BLOCK // 4) rounds.  Tests set kernels.BLOCK to
# move the block edges.
from .rng import BLOCK, _count, draw_rows

# No numba path exists; the flag stays because run metadata reports it.
USE_NUMBA = False

# _atoms_at counts boundaries, rather than binary-searching, from this
# many draws per atom on.
COUNT_DRAWS_PER_ATOM = 256
# uint64 words per table and per AND buffer in _score_windows: sizes its
# row blocks and its windows of grid indices (_conv_plan), and bounds its
# scratch memory to 3.3 x CONV_BLOCK_WORDS words while one row fits.
CONV_BLOCK_WORDS = 2**15


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

    The input selects one of two paths with bitwise equal sums.  Prices
    that form one non-decreasing row of at least two prices, of shape (n,)
    or (1, ..., 1, n) and so shared by every row of atoms, under finite
    atoms, take _fgft_on_sorted_row: it adds each atom's terms only on the
    prices strictly inside its (s, b).  A NaN price fails the order check,
    so its mean stays NaN.  Every other input takes the dense loop below,
    in blocks of BLOCK prices, whose two scratch arrays hold at most BLOCK
    doubles per row of atoms each.
    """
    sellers = np.asarray(sellers, dtype=np.float64)
    buyers = np.asarray(buyers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    # a scalar price as one column, which the output has anyway
    prices = np.atleast_1d(np.asarray(prices, dtype=np.float64))
    means = np.zeros(np.broadcast_shapes(prices.shape, sellers.shape[:-1] + (1,)))
    n = means.shape[-1]
    if n > 1 and prices.size == n:
        row = prices.reshape(n)
        head = row[:9]
        # the order check reads the first eight pairs apart, which rejects a
        # row of random draws before the whole row is compared; a sum of the
        # atoms is finite only when every atom is
        if (
            (head[:-1] <= head[1:]).all()
            and (row[8:-1] <= row[9:]).all()
            and np.isfinite(sellers + buyers + weights).all()
        ):
            _fgft_on_sorted_row(row, sellers, buyers, weights, means)
            return means
    # w * max(min(p - s, b - p), 0) per atom, in two scratch arrays of one
    # block: at most BLOCK prices along the last axis
    gains = np.empty(means.shape[:-1] + (min(n, BLOCK),))
    rests = np.empty_like(gains)
    for lo in range(0, n, BLOCK):
        p, out = prices[..., lo : lo + BLOCK], means[..., lo : lo + BLOCK]
        gain, rest = gains[..., : out.shape[-1]], rests[..., : out.shape[-1]]
        for a in range(sellers.shape[-1]):
            s, b, w = sellers[..., a, None], buyers[..., a, None], weights[..., a, None]
            np.minimum(np.subtract(p, s, out=gain), np.subtract(b, p, out=rest), out=gain)
            np.maximum(gain, 0.0, out=gain)
            gain *= w
            out += gain
    return means


def _fgft_on_sorted_row(row, sellers, buyers, weights, means) -> None:
    """Add each atom's w * min(p - s, b - p) to ``means`` on the prices
    of the sorted ``row`` strictly inside its (s, b), atoms in listing
    order.

    Two binary searches find each atom's interval.  Inside it both
    differences are > 0 (two distinct doubles never subtract to 0), so the
    dense loop's max(., 0) changes nothing there; outside it the dense
    loop adds a zero term to a non-negative sum.  So every mean is bitwise
    the dense loop's.

    One row of atoms adds each interval in slices of BLOCK prices, with
    at most four temporaries of BLOCK doubles.  Several rows take one atom
    column at a time: its in-interval (row, price) pairs, row-major, in
    chunks of BLOCK pairs, gathered with np.repeat (an atom with s >= b,
    such as verify's padded atoms, has no pair).  Either way the scratch
    stays under 6 arrays of BLOCK 8-byte elements,
    however many rows and prices there are, besides five int arrays of the
    atoms' (rows, A) shape.
    """
    if not means.size:
        return
    n, A = row.size, sellers.shape[-1]
    rows = means.size // n
    if rows == 1:
        out, S, B = means.reshape(n), sellers.reshape(A), buyers.reshape(A)
        los, his = row.searchsorted(S, side="right").tolist(), row.searchsorted(B, side="left").tolist()
        for s, b, w, lo, hi in zip(S.tolist(), B.tolist(), weights.reshape(A).tolist(), los, his):
            for start in range(lo, hi, BLOCK):
                stop = min(start + BLOCK, hi)
                p = row[start:stop]
                gain = np.minimum(p - s, b - p)
                gain *= w
                out[start:stop] += gain
        return
    atoms_shape = means.shape[:-1] + (A,)
    S, B, W = (np.broadcast_to(x, atoms_shape).reshape(rows, A) for x in (sellers, buyers, weights))
    los = row.searchsorted(S, side="right")  # the first price above s
    counts = np.maximum(row.searchsorted(B, side="left") - los, 0)  # prices in (s, b)
    ends = np.cumsum(counts, axis=0)  # pair k of a column lies in row r when ends[r-1] <= k < ends[r]
    shifts = los - ends + counts  # pair k of row r is price k + shifts[r]
    offsets = np.arange(rows) * n
    flat = means.reshape(-1)
    for s, b, w, c, e, shift in zip(S.T, B.T, W.T, counts.T, ends.T, shifts.T):
        for k0 in range(0, int(e[-1]), BLOCK):
            k1 = min(k0 + BLOCK, int(e[-1]))
            # rows r0..r1-1 hold pairs k0..k1-1; cut the first and last row's counts to them
            r0, r1 = int(e.searchsorted(k0, side="right")), int(e.searchsorted(k1, side="left")) + 1
            take = c[r0:r1].copy()
            take[0] -= k0 - (e[r0] - c[r0])
            take[-1] -= e[r1 - 1] - k1
            idx = np.repeat(shift[r0:r1], take)
            idx += np.arange(k0, k1)
            p = row[idx]
            gain = np.repeat(s[r0:r1], take)
            np.subtract(p, gain, out=gain)
            rest = np.repeat(b[r0:r1], take)
            np.subtract(rest, p, out=rest)
            np.minimum(gain, rest, out=gain)
            gain *= np.repeat(w[r0:r1], take)
            idx += np.repeat(offsets[r0:r1], take)
            flat[idx] += gain


# ---------------------------------------------------------------------------
# incomplete convolution c_i = sum_{k>=0} V_{i-k} * W_{i+k}
# ---------------------------------------------------------------------------


def incomplete_convolution(seller_bits, buyer_bits, grid_size):
    """The K sums c_i = sum_{k>=0} V_{i-k} * W_{i+k}, i = 1..K, of each row's real values.

    Row r of ``seller_bits`` holds V_1..V_K and row r of ``buyer_bits``
    W_1..W_K, both of shape (rows, K); positions outside 1..K read as
    zero, so on 0/1 bits c_i / K is the grid learner's score of index i
    (tests/reference.py's discrete_convolution_score).  The values may be
    any reals: the sandwich check convolves CDF values, and
    ConvolutionPricing, the round-by-round reference, scores its bits
    here.  Any other shape raises ValueError.  The grid size is a count
    its caller has checked (rng._count).  Returns float64 of shape
    (rows, K); on 0/1 bits every sum is an exact integer, and its first
    maximizer is grid_commits's.

    c_i has a nonzero term only where 1 <= i-k and i+k <= K, that is for
    k below min(i, K+1-i) <= H = ceil(K/2): the live terms form a triangle
    that peaks at the middle index.  Over the reversed seller row V_{i-k}
    runs forwards in k, so both (rows, K, H) window views, zero-padded
    past either end, keep a positive inner stride.  Each run of 64
    consecutive indices i0..i1 is one np.vecdot over its first L = min(i1,
    K+1-i0, H) terms, the live length of its widest index (_cut_windows's
    rule, in indices rather than words); the run's other indices add zero
    terms there.  No K x K product is formed.  0/1 sums stay exact
    integers; a real sum may group its terms differently from one over
    all H terms, so it can move in the last ulp, but each row's sums are
    those of that row alone.
    """
    K = int(grid_size)
    seller, buyer = (np.asarray(x, dtype=np.float64) for x in (seller_bits, buyer_bits))
    if seller.ndim != 2 or seller.shape[1] != K or buyer.shape != seller.shape:
        raise ValueError("incomplete_convolution expects seller and buyer rows of shape (rows, K)")
    H, windows = (K + 1) // 2, np.lib.stride_tricks.sliding_window_view
    pad = np.zeros((seller.shape[0], H - 1))
    v = windows(np.concatenate([seller[:, ::-1], pad], axis=1), H, axis=1)[:, ::-1]
    w = windows(np.concatenate([buyer, pad], axis=1), H, axis=1)
    out = np.empty(seller.shape)
    for i0 in range(1, K + 1, 64):
        i1 = min(i0 + 63, K)
        L = min(i1, K + 1 - i0, H)
        out[:, i0 - 1 : i1] = np.vecdot(v[:, i0 - 1 : i1, :L], w[:, i0 - 1 : i1, :L])
    return out


def _flat_table(bits, table, scratch):
    """table[r, q, s] = the 64 bits of row r from bit 64q + s on, s = 0..63.

    Row r of ``bits`` (bool, shape (rows, K)) is read as the little-endian
    integer whose bit m is bits[r, m]; every bit past the row is zero.
    ``table`` is a uint64 array of shape (rows, words, 64), so table[r]
    flattened is the flat table of row r, entry f at index f; ``scratch``
    is a flat uint64 array of at least table.size words.
    """
    scratch = scratch[: table.size].reshape(table.shape)
    packed = np.zeros((table.shape[0], 8 * table.shape[1] + 8), dtype=np.uint8)
    packed[:, : (bits.shape[1] + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    x = packed.view("<u8")
    shifts = np.arange(64, dtype=np.uint64)
    np.right_shift(x[:, :-1, None], shifts, out=table)
    np.left_shift(x[:, 1:, None], 64 - shifts[1:], out=scratch[:, :, 1:])
    np.bitwise_or(table[:, :, 1:], scratch[:, :, 1:], out=table[:, :, 1:])


def _conv_plan(rows, K):
    """(row block, table width, windows) of _score_windows on (rows, K) bits.

    Each window (i0, i1, L) is a run of grid indices i0..i1 that reads L
    words, L = ceil(min(i1, K + 1 - i0, mid) / 64) with mid = (K + 1) // 2:
    the words of its index nearest mid.  With cap = CONV_BLOCK_WORDS //
    block, every window holds n = max(1, cap // L) indices unless an end
    of the grid cuts it.  The first window is centred on mid and the
    others go outwards from it, down to index 1 and up to index K, so the
    windows tile 1..K and n x L <= cap whenever L <= cap.  A window reads
    table entries up to n - 1 past entry K - 1, and n <= min(mid, 64 L,
    cap / L) <= min(mid, 8 sqrt(cap)); the table width, a multiple of 64
    entries, covers that for any cap up to CONV_BLOCK_WORDS, and rows go
    ``block`` at a time so that block x width <= CONV_BLOCK_WORDS while
    one row fits.
    """
    mid = (K + 1) // 2
    width = 64 * -(-(K + min(mid, 8 * math.isqrt(CONV_BLOCK_WORDS) + 8)) // 64)
    block = max(1, min(rows, CONV_BLOCK_WORDS // width))
    cap = CONV_BLOCK_WORDS // block
    L = -(-mid // 64)
    i0 = max(1, mid - cap // L // 2)
    i1 = min(K, i0 + max(1, cap // L) - 1)
    windows = [(i0, i1, L)]
    # e counts indices from the near end of the grid, so each side's windows run from e1 down to e0
    for e1, lower in ((i0 - 1, True), (K - i1, False)):
        while e1 >= 1:
            L = -(-e1 // 64)
            e0 = max(1, e1 + 1 - max(1, cap // L))
            windows.append((e0, e1, L) if lower else (K + 1 - e1, K + 1 - e0, L))
            e1 = e0 - 1
    return block, width, windows


def _cut_windows(windows, hit, K):
    """The windows of _conv_plan cut down to the indices i with hit[i - 1].

    Each window keeps the part from its first to its last such index,
    which reads the words of its own widest index, L = ceil(min(j1, K + 1
    - j0, mid) / 64), at most the window's L; a window without such an
    index is dropped.  Returns the parts as (j0, j1, L).
    """
    i0, i1, _ = np.array(windows).T
    at = np.flatnonzero(hit) + 1
    first, last = np.searchsorted(at, i0), np.searchsorted(at, i1, side="right") - 1
    keep = first <= last
    j0, j1 = at[first[keep]], at[last[keep]]
    L = -(-np.minimum(np.minimum(j1, K + 1 - j0), (K + 1) // 2) // 64)
    return list(zip(j0.tolist(), j1.tolist(), L.tolist()))


def _score_windows(seller_bits, buyer_bits, K, out, candidates):
    """Write c_i into out[:, i - 1] for the candidate indices, window by window.

    Takes (rows, K) bool bits and a (rows, K) bool mask ``candidates``,
    and scores the part of each window that holds a candidate of a row in
    its row block (_cut_windows); the other entries of ``out`` keep their
    values.  Every count is exact.

    With r the bits of V reversed (bit m = V_{K-m}) and b the bits of W
    (bit m = W_{m+1}), bit k of (r >> (K-i)) & (b >> (i-1)) is
    V_{i-k} * W_{i+k}, and all its bits lie below min(i, K+1-i).  Each row
    of r and of b gets a flat table whose entry f is the 64 bits from bit
    f on, zero past the bits (_flat_table).  With R and B those tables,
    c_i = sum_{w < L} popcount(R[K-i+64w] & B[i-1+64w]), L =
    ceil(min(i, K+1-i) / 64).  R is stored reversed, so for a window of
    consecutive indices i0..i1 both operands of word w are forward runs of
    the tables: one strided view per side covers the window's L words of
    every row in the block, word-major, and one bitwise_and, one
    bitwise_count and one add.reduce over the word axis give the window's
    counts.  The sums run in the narrowest unsigned type that holds mid =
    (K + 1) // 2, the largest count.  A window reads the words of its
    widest index; the extra words of its other indices AND to zero,
    because one side of each reads past the bits.  _conv_plan sizes the
    windows and the row block in closed form from CONV_BLOCK_WORDS.

    Scratch memory is bounded by CONV_BLOCK_WORDS while one row's table
    fits it (K up to about 31 300 at 2**15 words): the two tables and the
    AND buffer, which also serves as the tables' scratch, hold at most
    CONV_BLOCK_WORDS uint64 words each, and the popcounts one byte per AND
    word.  Packing a block's bits, and later each window's sums, take at
    most CONV_BLOCK_WORDS / 6 words more.  That is under 3.3 x
    CONV_BLOCK_WORDS words in all, besides the buffers NumPy takes for a
    strided or broadcast ufunc call (at most three of np.getbufsize()
    elements, 192 KiB by default, whatever the input).
    """
    rows = seller_bits.shape[0]
    block, width, windows = _conv_plan(rows, K)
    window_words = max(block * L * (i1 + 1 - i0) for i0, i1, L in windows)
    r_table = np.empty((block, width), dtype=np.uint64)
    b_table = np.empty_like(r_table)
    anded = np.empty(max(block * width, window_words), dtype=np.uint64)
    bit_counts = np.empty(window_words, dtype=np.uint8)
    count_type = np.min_scalar_type((K + 1) // 2)  # every count is at most min(i, K + 1 - i)
    for lo in range(0, rows, block):
        m = min(block, rows - lo)
        r, b, scores = r_table[:m], b_table[:m], out[lo : lo + m]
        # entry f of row j's R is r[j, width - 1 - f]
        _flat_table(seller_bits[lo : lo + m, ::-1], r[:, ::-1].reshape(m, -1, 64), anded)
        _flat_table(buyer_bits[lo : lo + m], b.reshape(m, -1, 64), anded)
        # np.ndarray views raise, rather than read, outside their buffer
        for i0, i1, L in _cut_windows(windows, candidates[lo : lo + m].any(axis=0), K):
            shape = (L, m, i1 + 1 - i0)
            rv = np.ndarray(shape, np.uint64, r, 8 * (width - 1 - K + i0), (-512, r.strides[0], 8))
            bv = np.ndarray(shape, np.uint64, b, 8 * (i0 - 1), (512, b.strides[0], 8))
            both = np.bitwise_and(rv, bv, out=anded[: rv.size].reshape(shape))
            ones = np.bitwise_count(both, out=bit_counts[: rv.size].reshape(shape))
            scores[:, i0 - 1 : i1] = np.add.reduce(ones, axis=0, dtype=count_type)


def _window_bound(seller_bits, buyer_bits, K):
    """UB_i = min(ones of V in [i-L_i+1, i], ones of W in [i, i+L_i-1]), L_i = min(i, K+1-i).

    Every term V_{i-k} W_{i+k} of c_i needs one bit of each window, so
    c_i <= UB_i, with equality wherever one window is all ones.  Both
    counts are differences of cumulative counts read through slices: for
    i <= h = (K + 1) // 2 the windows are [1, i] and [i, 2i-1], above h
    they are [2i-K, i] and [i, K].  The cumulative counts are taken in the
    narrowest unsigned type that holds h and wrap modulo its range, which
    leaves every difference exact, as each window holds at most h bits.
    Returns the (rows, K) bound in that type.
    """
    rows, h = seller_bits.shape[0], (K + 1) // 2
    count_type = np.min_scalar_type(h)
    seen = np.zeros((rows, K + 1), dtype=count_type)  # seen[:, j]: ones among bits 1..j
    bound = np.empty((rows, K), dtype=count_type)
    np.cumsum(seller_bits, axis=1, dtype=count_type, out=seen[:, 1:])
    bound[:, :h] = seen[:, 1 : h + 1]
    np.subtract(seen[:, h + 1 :], seen[:, 2 * h + 1 - K : K : 2], out=bound[:, h:])
    np.cumsum(buyer_bits, axis=1, dtype=count_type, out=seen[:, 1:])
    np.minimum(bound[:, :h], seen[:, 1 : 2 * h : 2] - seen[:, :h], out=bound[:, :h])
    np.minimum(bound[:, h:], seen[:, K:] - seen[:, h:K], out=bound[:, h:])
    return bound


def _grid_candidates(seller_bits, buyer_bits, K):
    """(rows, K) mask of the grid indices whose bound reaches a probe's exact count.

    The probe of row r is its first index of largest bound (_window_bound);
    its count c is exact, and the mask holds UB_i >= c.  Every maximizer
    of the row has UB_i >= c_i = max >= c, so the mask holds them all.
    """
    bound = _window_bound(seller_bits, buyer_bits, K)
    floor = np.empty(bound.shape[0], dtype=bound.dtype)
    for r, j in enumerate(np.argmax(bound, axis=1).tolist()):  # j = i - 1
        L = min(j + 1, K - j)
        floor[r] = np.count_nonzero(seller_bits[r, j + 1 - L : j + 1][::-1] & buyer_bits[r, j : j + L])
    return bound >= floor[:, None]


def grid_commits(seller_bits, buyer_bits, grid_size):
    """Each row's first maximizer of the incomplete convolution of its 0/1 bits, 1-based.

    Takes rows of 0/1 bits in incomplete_convolution's layout, V_1..V_K
    and W_1..W_K of shape (rows, K); any other shape, or any entry other
    than 0 or 1 (bool rows need no check), raises ValueError rather than
    give a wrong commit.  The grid size is a count its caller has checked
    (rng._count).  Returns exactly np.argmax(incomplete_convolution(...),
    axis=1) + 1, counting in packed bits (_score_windows) and scoring only
    the part of each window that holds a candidate (_grid_candidates): an
    index whose bound is below the probe's exact count c has c_i <= UB_i <
    c <= max and cannot win.  Those parts are scored exactly, into counts
    that start at zero.  An index left unscored keeps 0, which is below
    the row's maximum whenever c > 0; when c = 0 every index is a
    candidate.  So the first maximizer is the full
    scoring's.  Memory beyond _score_windows's scratch: the (rows, K + 1)
    cumulative counts, the bound and the counts, in the narrowest
    unsigned type that holds (K + 1) // 2, and the (rows, K) bool mask.
    """
    K = int(grid_size)
    seller_bits, buyer_bits = np.asarray(seller_bits), np.asarray(buyer_bits)
    if seller_bits.ndim != 2 or seller_bits.shape[1] != K or buyer_bits.shape != seller_bits.shape:
        raise ValueError("grid_commits expects seller and buyer bits of shape (rows, K)")
    for bits in (seller_bits, buyer_bits):
        if bits.dtype != bool and not np.all((bits == 0.0) | (bits == 1.0)):
            raise ValueError("grid_commits takes 0/1 bits")
    seller_bits, buyer_bits = [bits if bits.dtype == bool else bits != 0 for bits in (seller_bits, buyer_bits)]
    candidates = _grid_candidates(seller_bits, buyer_bits, K)
    counts = np.zeros(seller_bits.shape, dtype=np.min_scalar_type((K + 1) // 2))
    _score_windows(seller_bits, buyer_bits, K, counts, candidates)
    return np.argmax(counts, axis=1) + 1


# ---------------------------------------------------------------------------
# per-episode simulators
# ---------------------------------------------------------------------------


def conv_pricing_commit(sellers, buyers, grid_size):
    """Exploration sweeps of the grid-pricing learner: returns their commits.

    Row r holds one episode's seller and buyer values of rounds 1..K, shape
    (rows, K), or one value per row, shape (rows, 1), for a point mass.
    Round t posts t/K and records the two acceptance bits of its pair;
    each row commits to the first maximizer of the incomplete convolution
    of its bits, all rows in one grid_commits call, which scores only the
    grid indices that can win.  Memory beyond the bits: grid_commits's
    cumulative counts, bound and counts in the narrowest unsigned type
    that holds (K + 1) // 2, its (rows, K) bool mask, and its windows'
    scratch, which is bounded by row blocks.  Returns (1-based commit
    index per row, seller bits V_1..V_K per row, buyer bits W_1..W_K per
    row), the bits as bool arrays of shape (rows, K).  The grid size is a
    count its caller has checked (rng._count).
    """
    K = int(grid_size)
    grid = np.arange(1, K + 1, dtype=np.float64) / K
    seller_bits = np.asarray(sellers, dtype=np.float64) <= grid
    buyer_bits = grid <= np.asarray(buyers, dtype=np.float64)
    commits = grid_commits(seller_bits, buyer_bits, K)
    return commits, seller_bits, buyer_bits


def dbs_explore(sellers, buyers, n_rounds):
    """Two bisection phases of the double-binary-search learner, row by row.

    Row r holds one episode's seller values of rounds 1..N and buyer values
    of rounds N+1..2N, shape (rows, N), or one value per row, shape
    (rows, 1), for a point mass.  The loop steps each round as one array
    step over all rows, with the scalar learner's float operations.
    Returns (prices, commits): the exploration prices, shape (rows, 2N),
    and commits of shape (rows, N+1), where commits[:, n] is
    (seller-phase midpoint after n rounds + buyer-phase midpoint after n
    rounds) / 2.  commits[:, N] is each row's commit price.  On a point
    mass every round sees the same pair, so commits[:, n] and the prices
    [:n] and [N:N+n] are what a call with n rounds returns.  The phase
    length is a count its caller has checked (rng._count).

    Point masses take a closed form when 1 <= N <= 52: every row's seller
    values equal its first, and so do its buyer values (a (rows, 1) column
    or a broadcast of one; equal values, whatever the strides).  After t
    rounds the seller midpoint is (j + 1/2) / 2^t for the interval (lo, hi]
    that holds s, j = max(ceil(s 2^t) - 1, 0), and the buyer's for the
    interval [lo, hi) that holds b, j = min(floor(b 2^t), 2^t - 1); values
    outside [0, 1] bisect as their clip to [0, 1] does.  While t <= 52
    every midpoint has at most 53 significant bits, so each float operation
    of the loop is exact, and both forms give the same bits (from N = 54
    on they can part).  Drawn rows, N = 0 and N >= 53 take the loop.
    """
    N = int(n_rounds)
    sellers = np.asarray(sellers, dtype=np.float64)
    buyers = np.asarray(buyers, dtype=np.float64)
    rows = sellers.shape[0]
    if 1 <= N <= 52 and (sellers == sellers[:, :1]).all() and (buyers == buyers[:, :1]).all():
        scale = 2.0 ** np.arange(N + 1)
        # one ceil serves both phases: j + 1/2 = ceil(s 2^t) - 1/2 once s is
        # clipped to [2^-1074, 1], and -(j + 1/2) = ceil(-b 2^t) - 1/2 once b
        # is clipped to [0, 1 - 2^-53]; each clip bisects as 0 or 1 does
        lo, hi = np.array([[2.0**-1074], [2.0**-53 - 1.0]]), np.array([[1.0], [0.0]])
        mids = np.clip(np.stack([sellers[:, :1], -buyers[:, :1]], axis=1), lo, hi) * scale
        np.ceil(mids, out=mids)
        mids -= 0.5
        mids *= np.array([[1.0], [-1.0]]) / scale  # as exact as a division: each midpoint is a normal dyadic
        return mids[:, :, :N].reshape(rows, 2 * N), (mids[:, 0] + mids[:, 1]) / 2.0
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


def _paired_cumsum(block) -> None:
    """Running sums down each column of ``block``, in place, two columns per add.

    ``block`` is a C-contiguous float64 array of even width; its complex128
    view pairs columns 2k and 2k + 1, and a complex add adds real and
    imaginary parts apart, each by one IEEE add.  So every column's sums are
    formed in row order as np.cumsum of that column alone forms them.
    """
    pairs = block.view(np.complex128)
    np.cumsum(pairs, axis=0, out=pairs)


def fbep_prices(seed, cum, cands, reward_matrix, horizon):
    """Index path of the follow-the-best-empirical-price learner.

    ``cands`` are the fixed candidate prices (every breakpoint the empirical
    mean can have under this environment) and ``reward_matrix[m, j]`` is
    fgft(cands[m], atom j).  Returns idx, the index of each round's price in
    cands with 1/2 appended: round 0 posts 1/2 (index cands.size); round
    t >= 1 posts the first maximizer of the scores summed over rounds
    0..t-1 in arrival order, matching the running totals of
    algorithms.FollowBestEmpiricalPrice exactly.  idx takes the narrowest
    unsigned type that holds cands.size (np.min_scalar_type).  The path does
    not depend on the horizon: the first T rounds of a longer path are the
    path at T.

    The scores of BLOCK // 4 rounds at a time are one cumsum whose row 0 is
    the carried total, so every partial sum is formed in the same order as
    a round-by-round loop (adding the carry after the cumsum would regroup
    the sums and change their rounding).  The block is round-major, two
    candidates per add (_paired_cumsum), so an odd kept count gets one pad
    column whose rewards are -inf: from round 1 on its score is -inf (never
    NaN), and as the last column it never is argmax's first maximizer.
    Scratch is the score block of at most BLOCK // 4 + 1 rows, one intp
    buffer of at most BLOCK // 4 argmaxes (mapped through ``kept`` into
    idx) and the draws of BLOCK rounds, whatever the horizon; only idx
    grows with T.

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
    idx = np.empty(T, dtype=np.min_scalar_type(cands.size))
    kept = _undominated(reward_matrix)
    C = kept.size
    rewards = np.full((reward_matrix.shape[1], C + C % 2), -np.inf)
    rewards[:, :C] = reward_matrix[kept].T
    kept = kept.astype(idx.dtype)
    step = max(1, BLOCK // 4)
    block = np.zeros((min(T, step) + 1, rewards.shape[1]), dtype=np.float64)
    leaders = np.empty(min(T, step), dtype=np.intp)
    for d0 in range(0, T, BLOCK):
        j = _atoms_at(cum, draw_rows((seed,), min(BLOCK, T - d0), d0)[0])
        for t0 in range(0, j.size, step):
            rows = j[t0 : t0 + step]
            n = rows.size
            scores = block[: n + 1]
            np.take(rewards, rows, axis=0, out=scores[1:], mode="clip")
            _paired_cumsum(scores)
            np.argmax(scores[:-1], axis=1, out=leaders[:n])
            np.take(kept, leaders[:n], out=idx[d0 + t0 : d0 + t0 + n], mode="clip")
            block[0] = scores[-1]
    idx[:1] = cands.size
    return idx


def uniform_prices(seed, horizon):
    """Independent uniform prices from a learner-owned stream.

    One T-long array, filled BLOCK draws at a time (rng.draw_rows from
    each block's start), so the only scratch is one block's draws.
    """
    T = int(horizon)
    prices = np.empty(T, dtype=np.float64)
    for lo in range(0, T, BLOCK):
        prices[lo : lo + BLOCK] = draw_rows((seed,), min(BLOCK, T - lo), lo)[0]
    return prices


def _overlap_holds(p, s, b, j, M):
    """The indicator 1{s <= p - j/M} * 1{p + j/M <= b}, elementwise."""
    u = j / M
    return (s <= p - u) & (p + u <= b)


def convolution_approx_batch(prices, sellers, buyers, grid_size):
    """Left-Riemann overlap sums for aligned (p, s, b) triples.

    Evaluates for each triple the indicator sum of tests/reference.py's
    fgft_convolution_approx: the count n of j in [0, M) with s <= p - j/M
    and p + j/M <= b, divided by M.  Both indicators are non-increasing in j, so the count is
    the first j where the product fails.  It starts from the closed form
    floor(min(p - s, b - p) * M) + 1, clipped to [0, M] (NaN gives 0), and
    steps up or down until it sits on that boundary of the float predicate
    itself, so rounding can move the estimate but never the result.
    Triples go BLOCK at a time to keep the temporaries small.  Each
    direction's first step tests every triple of the block under a mask,
    and only the triples it moves are gathered for the next steps; few
    move, as the closed form misses the boundary only through rounding.
    M is a count (rng._count); the three arrays must be 1-d of one length.
    """
    M = _count(grid_size, "grid_size")
    prices, sellers, buyers = (np.asarray(x, dtype=np.float64) for x in (prices, sellers, buyers))
    if prices.ndim != 1 or sellers.shape != prices.shape or buyers.shape != prices.shape:
        raise ValueError("convolution_approx_batch expects prices, sellers and buyers as 1-d arrays of one length")
    out = np.empty(prices.size, dtype=np.float64)
    for lo in range(0, prices.size, BLOCK):
        p, s, b = (x[lo : lo + BLOCK] for x in (prices, sellers, buyers))
        with np.errstate(all="ignore"):
            est = np.floor(np.minimum(p - s, b - p) * M) + 1.0
        n = np.clip(np.nan_to_num(est, nan=0.0), 0, M).astype(np.int64)
        idx = np.flatnonzero((n < M) & _overlap_holds(p, s, b, n, M))
        while idx.size:  # up while the predicate holds at n
            n[idx] += 1
            idx = idx[n[idx] < M]
            idx = idx[_overlap_holds(p[idx], s[idx], b[idx], n[idx], M)]
        idx = np.flatnonzero((n > 0) & ~_overlap_holds(p, s, b, n - 1, M))
        while idx.size:  # down while it fails at n - 1
            n[idx] -= 1
            idx = idx[n[idx] > 0]
            idx = idx[~_overlap_holds(p[idx], s[idx], b[idx], n[idx] - 1, M)]
        out[lo : lo + p.size] = n / M
    return out
