"""Deterministic 64-bit randomness shared by every execution path.

All sampling in this package flows through a splitmix64 stream: the state
advances by a fixed odd constant and the output is the standard three-round
multiply-xorshift finalizer.  splitmix64 is a counter generator: the t-th
state is seed + t * GOLDEN mod 2**64, so the t-th output depends on t alone.
The reference loop steps the stream one Python integer at a time
(SplitMix64).  The array paths take a run of draws of a column of seeds
in one uint64 NumPy pass (draw_rows): the Monte Carlo episodes of a run,
or one block of one stream (unit_draws, which kernels.py reads).  Code
that draws with Python control flow, such as the rejection loops of the
random environments, reads a RowStream: each seed's first draws come from
one draw_rows pass over all seeds (row_streams), and the stream steps on
as SplitMix64 past the row's end.  Every path gives the same words and
doubles, so a trajectory is reproducible bit for bit across platforms and
between the kernels and the reference loop.

Uniform doubles are built as (u64 >> 11) * 2**-53, i.e. 53 random bits in
[0, 1).

The one rule for the whole numbers the package takes lives here too, below
every module that checks them: _count for a count (a horizon, a grid size,
an episode count) and _u64 for a seed.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB
# Elements per block of every streamed pass: draw_rows's words here, and
# kernels' (see BLOCK there).  A block of 8-byte elements is 64 KiB, under
# glibc's default 128 KiB mmap threshold, so block scratch is reused heap
# rather than a fresh mapping.
BLOCK = 8192


def _whole(value, name: str) -> int:
    """A number that must be whole: an int or NumPy integer (not a bool), or an
    integral finite float."""
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _count(value, name: str) -> int:
    """A count, such as a horizon or a grid size: a whole number (see _whole) of at least 1."""
    n = _whole(value, name)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n!r}")
    return n


def _u64(value, name: str = "seed") -> int:
    """A seed: an integer in [0, 2**64), given as id text or as a whole number (see _whole)."""
    seed = int(value) if isinstance(value, str) else _whole(value, name)
    if not 0 <= seed <= MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")
    return seed


def finalize64(z: int) -> int:
    """splitmix64 output scrambler: three multiply-xorshift rounds on u64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * MIX_B) & MASK64
    return z ^ (z >> 31)


def mix64(a: int, b: int) -> int:
    """Combine two 64-bit words into one scrambled seed.

    Defined as finalize64(finalize64(a ^ GOLDEN) + (b + 1) * GOLDEN mod 2**64).
    Used to derive per-episode seeds from (base_seed, episode_index) and
    per-episode learner streams from (learner_seed, episode_seed).
    """
    z = finalize64((a & MASK64) ^ GOLDEN)
    z = (z + ((b & MASK64) + 1) * GOLDEN) & MASK64
    return finalize64(z)


def u64_to_unit(z: int) -> float:
    """Map a 64-bit word to a double in [0, 1) using its top 53 bits."""
    return ((z & MASK64) >> 11) * 2.0**-53


class SplitMix64:
    """Sequential splitmix64 stream over Python integers."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return finalize64(self.state)

    def next_unit(self) -> float:
        """Next uniform double in [0, 1)."""
        return u64_to_unit(self.next_u64())


def draw_rows(seeds, n: int, start: int = 0, unit: bool = True) -> np.ndarray:
    """Draws start+1 .. start+n of each seed's stream, one row per seed, in one pass.

    Row i of the (len(seeds), n) result holds those values of
    SplitMix64(seeds[i]).next_unit() when ``unit`` is set, else of
    next_u64() as uint64: a unit draw is the word's top 53 bits times
    2**-53.  The t-th value depends on t alone (the state is
    seed + t * GOLDEN), so a row may start anywhere in its stream.

    The words are computed in place in the float64 result, through its
    uint64 view, BLOCK words at a time.  Besides the result the
    scratch is one row of counters and one block of shifted words, which
    the cast to doubles reads too: NumPy would copy the whole of an operand
    that overlaps its output.  Every step is an array operation: uint64
    arrays wrap silently mod 2**64, whereas an overflowing np.uint64
    scalar operation warns.
    """
    out = np.empty((len(seeds), int(n)), dtype=np.float64)
    words = out.view(np.uint64)
    words[:] = np.arange(int(start) + 1, int(start) + int(n) + 1, dtype=np.uint64)
    words *= np.uint64(GOLDEN)
    words += np.array([int(seed) & MASK64 for seed in seeds], dtype=np.uint64)[:, None]
    flat, units = words.reshape(-1), out.reshape(-1)
    shifted = np.empty(min(flat.size, BLOCK), dtype=np.uint64)
    for lo in range(0, flat.size, BLOCK):
        z = flat[lo : lo + BLOCK]
        t = shifted[: z.size]
        z ^= np.right_shift(z, np.uint64(30), out=t)
        z *= np.uint64(MIX_A)
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= np.uint64(MIX_B)
        z ^= np.right_shift(z, np.uint64(31), out=t)
        if unit:
            np.multiply(np.right_shift(z, np.uint64(11), out=t), 2.0**-53, out=units[lo : lo + BLOCK])
    return out if unit else words


def unit_draws(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Values start+1 .. start+n of SplitMix64(seed).next_unit(): one row of draw_rows.

    unit_draws(seed, n, start) is unit_draws(seed, start + n)[start:], bit
    for bit, so a long stream can be drawn in blocks, each from its own
    start, with scratch of one block.
    """
    return draw_rows((seed,), n, start)[0]


class RowStream(SplitMix64):
    """SplitMix64(seed) whose first draws come from a row drawn beforehand.

    ``row`` holds the stream's first p words (Python ints, a row of
    draw_rows(..., unit=False)).  Past them the stream steps on from state
    seed + p * GOLDEN, where SplitMix64(seed) stands after p draws, so
    every word, and every unit draw, is bitwise SplitMix64(seed)'s.
    """

    __slots__ = ("_row",)

    def __init__(self, seed: int, row):
        super().__init__(seed + len(row) * GOLDEN)
        self._row = iter(row)

    def next_u64(self) -> int:
        for z in self._row:
            return z
        return super().next_u64()


def row_streams(seeds, n: int) -> list:
    """One RowStream per seed, its first n words from one draw_rows pass."""
    return [RowStream(seed, row) for seed, row in zip(seeds, draw_rows(seeds, n, unit=False).tolist())]
