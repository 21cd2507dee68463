"""Rewards and exact price oracles for repeated bilateral trade.

A seller with private value s and a buyer with private value b face one
posted price p.  The trade happens when s <= p <= b (weak inequalities on
both sides, everywhere in this package).  Two reward notions matter:

* gain from trade        gft(p, s, b)  = (b - s) * 1{s <= p <= b}
* fair gain from trade   fgft(p, s, b) = min((p - s)+, (b - p)+)

fgft is the tent function peaking at (s + b) / 2 with value (b - s) / 2; it
is 1-Lipschitz in p and equals the overlap integral
integral_0^1 1{s <= p - u} * 1{p + u <= b} du, which is what the
convolution-based approximation and the discrete score below discretize.

For a finite-support value distribution the expected fgft is piecewise
linear in p, with breakpoints only at atom coordinates and atom midpoints,
and the expected gft is piecewise constant with jumps only at atom
coordinates.  The best-fixed-price oracles therefore enumerate those finite
candidate sets exactly instead of discretizing; ties always break toward
the smallest price.  The fgft oracle scores its candidates with
kernels.expected_fgft_at, the one evaluator of E[fgft] that also scores
posted prices for regret, so v* and every regret term share one sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# by name, so that a wrapper on kernels.expected_fgft_at sees regret only
from .kernels import expected_fgft_at

WEIGHT_TOL = 1e-12


class ValuationPair(NamedTuple):
    """One (seller value, buyer value) draw, both in [0, 1]."""

    seller: float
    buyer: float


class PricePoint(NamedTuple):
    """A price and the expected (or empirical mean) reward it attains."""

    price: float
    value: float


def fgft(p: float, seller: float, buyer: float) -> float:
    """Fair gain from trade min((p - s)+, (b - p)+) of one posted price."""
    return min(max(p - seller, 0.0), max(buyer - p, 0.0))


def gft(p: float, seller: float, buyer: float) -> float:
    """Raw gain from trade (b - s) * 1{s <= p <= b}."""
    return (buyer - seller) if (seller <= p <= buyer) else 0.0


def fgft_vector(prices: np.ndarray, seller: float, buyer: float) -> np.ndarray:
    """fgft evaluated elementwise; prices, seller and buyer broadcast."""
    prices = np.asarray(prices, dtype=np.float64)
    return np.minimum(np.maximum(prices - seller, 0.0), np.maximum(buyer - prices, 0.0))


def fgft_convolution_approx(p: float, pair: ValuationPair | tuple, grid_size: int) -> float:
    """Left-Riemann discretization of the overlap-integral form of fgft.

    Returns (1/M) * sum_{j=0}^{M-1} 1{s <= p - j/M} * 1{p + j/M <= b} with
    M = grid_size.  The sum over-estimates fgft(p, s, b) by at most 1/M.

    The summand is non-increasing in j (both indicators are), so the loop
    stops at the first zero term; the result is identical to evaluating all
    M terms.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be a positive integer, got {grid_size!r}")
    seller, buyer = pair
    count = 0
    for j in range(grid_size):
        u = j / grid_size
        if seller <= p - u and p + u <= buyer:
            count += 1
        else:
            break
    return count / grid_size


def discrete_convolution_score(
    bits_seller: Sequence[int], bits_buyer: Sequence[int], index: int, grid_size: int
) -> float:
    """Two-sided acceptance score (1/K) * sum_k V[i-k] * W[i+k], k in [0, K).

    ``bits_seller`` / ``bits_buyer`` hold V_1..V_K and W_1..W_K (the round-t
    acceptance indicators of an exploration sweep); positions outside 1..K
    read as zero.  ``index`` is the 1-based grid index i being scored.
    """
    K = grid_size
    if len(bits_seller) != K or len(bits_buyer) != K:
        raise ValueError("bit sequences must have length grid_size")
    if not (1 <= index <= K):
        raise ValueError(f"index must lie in [1, {K}], got {index!r}")
    total = 0.0
    for k in range(K):
        lo = index - k
        hi = index + k
        if lo < 1:
            break  # every later term has lo < 1 as well
        if hi > K:
            continue
        total += bits_seller[lo - 1] * bits_buyer[hi - 1]
    return total / K


@dataclass(frozen=True, eq=False)
class FiniteMarginal:
    """Finite-support distribution of one side's value.

    values: distinct points in [0, 1]; weights: positive, summing to one
    within 1e-12.  Arrays are stored in listing order (sampling and cumsum
    follow that order).
    """

    values: np.ndarray
    weights: np.ndarray

    def __init__(self, values: Iterable[float], weights: Iterable[float]):
        values = np.ascontiguousarray(values, dtype=np.float64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if values.ndim != 1 or values.shape != weights.shape or values.size == 0:
            raise ValueError("values and weights must be matching non-empty 1-d arrays")
        # written so that NaN fails every check
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("values must lie in [0, 1]")
        if not np.all(weights > 0.0):
            raise ValueError("weights must be strictly positive")
        if not abs(float(weights.sum()) - 1.0) <= WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        if np.unique(values).size != values.size:
            raise ValueError("values must be pairwise distinct")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def cdf(self, x: float) -> float:
        """P[V <= x], exact atom enumeration in listing order."""
        total = 0.0
        for v, w in zip(self.values, self.weights):
            if v <= x:
                total += w
        return total


@dataclass(frozen=True, eq=False)
class FiniteJointDistribution:
    """Finite-support joint distribution of (seller, buyer) values.

    Built from an iterable of ((seller, buyer), weight) entries.  Atoms are
    pairwise-distinct pairs with strictly positive weights summing to one
    within 1e-12, stored in listing order.
    """

    sellers: np.ndarray
    buyers: np.ndarray
    weights: np.ndarray

    def __init__(self, atoms: Iterable[tuple]):
        entries = [(float(s), float(b), float(w)) for (s, b), w in atoms]
        if not entries:
            raise ValueError("a joint distribution needs at least one atom")
        sellers = np.ascontiguousarray([e[0] for e in entries], dtype=np.float64)
        buyers = np.ascontiguousarray([e[1] for e in entries], dtype=np.float64)
        w = np.ascontiguousarray([e[2] for e in entries], dtype=np.float64)
        # written so that NaN fails every check
        for arr, name in ((sellers, "seller values"), (buyers, "buyer values")):
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise ValueError(f"{name} must lie in [0, 1]")
        if not np.all(w > 0.0):
            raise ValueError("weights must be strictly positive")
        if not abs(float(w.sum()) - 1.0) <= WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        if len({(s, b) for s, b, _ in entries}) != len(entries):
            raise ValueError("atoms must be pairwise distinct")
        object.__setattr__(self, "sellers", sellers)
        object.__setattr__(self, "buyers", buyers)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    def atom(self, i: int) -> ValuationPair:
        return ValuationPair(float(self.sellers[i]), float(self.buyers[i]))

    def cumulative_weights(self) -> np.ndarray:
        return np.cumsum(self.weights)


def product_joint(seller: FiniteMarginal, buyer: FiniteMarginal) -> FiniteJointDistribution:
    """Independent coupling of two marginals as an explicit joint."""
    atoms = []
    for sv, sw in zip(seller.values, seller.weights):
        for bv, bw in zip(buyer.values, buyer.weights):
            atoms.append(((sv, bv), sw * bw))
    return FiniteJointDistribution(atoms)


def expected_fgft(dist: FiniteJointDistribution, p: float) -> float:
    """Expected fair gain from trade of a fixed price, exact atom sum."""
    total = 0.0
    for s, b, w in zip(dist.sellers, dist.buyers, dist.weights):
        total += w * fgft(p, s, b)
    return total


def expected_gft(dist: FiniteJointDistribution, p: float) -> float:
    """Expected raw gain from trade of a fixed price, exact atom sum."""
    total = 0.0
    for s, b, w in zip(dist.sellers, dist.buyers, dist.weights):
        total += w * gft(p, s, b)
    return total


def fgft_candidates(sellers: np.ndarray, buyers: np.ndarray) -> np.ndarray:
    """Sorted candidate prices exhausting the maximizers of a fgft mixture.

    The expected fgft of a finite-support distribution is piecewise linear
    with breakpoints contained in {0, 1} union atom coordinates union atom
    midpoints, so its smallest maximizer is one of these points.
    """
    cands = np.concatenate(
        [
            np.asarray([0.0, 1.0]),
            np.asarray(sellers, dtype=np.float64),
            np.asarray(buyers, dtype=np.float64),
            (np.asarray(sellers, dtype=np.float64) + np.asarray(buyers, dtype=np.float64)) / 2.0,
        ]
    )
    return np.unique(cands)


def gft_candidates(sellers: np.ndarray, buyers: np.ndarray) -> np.ndarray:
    """Sorted candidate prices exhausting the maximizers of a gft mixture.

    Expected gft is piecewise constant with jumps only at atom coordinates:
    the jump points plus the midpoints of consecutive jump points (with 0
    and 1 added so degenerate all-zero cases resolve to the smallest price)
    cover every level set.
    """
    jumps = np.unique(
        np.concatenate(
            [
                np.asarray([0.0, 1.0]),
                np.asarray(sellers, dtype=np.float64),
                np.asarray(buyers, dtype=np.float64),
            ]
        )
    )
    mids = (jumps[:-1] + jumps[1:]) / 2.0
    return np.unique(np.concatenate([jumps, mids]))


def best_fixed_price_fgft(dist: FiniteJointDistribution) -> PricePoint:
    """Exact maximizer of expected fgft; ties break toward the smallest price."""
    cands = fgft_candidates(dist.sellers, dist.buyers)
    vals = expected_fgft_at(cands, dist.sellers, dist.buyers, dist.weights)
    i = int(np.argmax(vals))  # first max on a sorted grid = smallest price
    return PricePoint(float(cands[i]), float(vals[i]))


def best_fixed_price_gft(dist: FiniteJointDistribution) -> PricePoint:
    """Exact maximizer of expected gft; ties break toward the smallest price."""
    cands = gft_candidates(dist.sellers, dist.buyers)
    vals = np.zeros(cands.size, dtype=np.float64)
    for s, b, w in zip(dist.sellers, dist.buyers, dist.weights):
        vals += w * np.where((s <= cands) & (cands <= b), b - s, 0.0)
    i = int(np.argmax(vals))
    return PricePoint(float(cands[i]), float(vals[i]))


def empirical_best_price(samples: Sequence[tuple]) -> PricePoint:
    """Smallest maximizer of the empirical mean fgft over observed pairs.

    Candidates are the breakpoints of the empirical mean (sample coordinates
    and midpoints, plus 0 and 1).  Per-candidate totals accumulate sample by
    sample in arrival order, so reruns and the kernels.fbep_prices fast path
    reproduce the same floating-point scores and hence the same tie-breaks.
    """
    if len(samples) == 0:
        raise ValueError("empirical_best_price needs at least one sample")
    sellers = np.asarray([s for s, _ in samples], dtype=np.float64)
    buyers = np.asarray([b for _, b in samples], dtype=np.float64)
    cands = fgft_candidates(sellers, buyers)
    totals = np.zeros(cands.size, dtype=np.float64)
    for s, b in zip(sellers, buyers):
        totals += fgft_vector(cands, s, b)
    i = int(np.argmax(totals))
    return PricePoint(float(cands[i]), float(totals[i]) / len(samples))
