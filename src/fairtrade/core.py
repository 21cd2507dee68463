"""Rewards and exact price oracles for repeated bilateral trade.

A seller with private value s and a buyer with private value b face one
posted price p.  The trade happens when s <= p <= b (weak inequalities on
both sides, everywhere in this package).  Two reward notions matter:

* gain from trade        gft(p, s, b)  = (b - s) * 1{s <= p <= b}
* fair gain from trade   fgft(p, s, b) = min((p - s)+, (b - p)+)

fgft is the tent function peaking at (s + b) / 2 with value (b - s) / 2; it
is 1-Lipschitz in p and equals the overlap integral
integral_0^1 1{s <= p - u} * 1{p + u <= b} du, which
kernels.convolution_approx_batch and the grid learner's score
(kernels.incomplete_convolution) discretize.

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

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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


def fgft_vector(prices: np.ndarray, seller: float, buyer: float) -> np.ndarray:
    """fgft evaluated elementwise; prices, seller and buyer broadcast."""
    prices = np.asarray(prices, dtype=np.float64)
    return np.minimum(np.maximum(prices - seller, 0.0), np.maximum(buyer - prices, 0.0))


def check_atoms(*named, weights=None) -> None:
    """Each (values, name) lies in [0, 1]; weights, if given, are positive and sum to 1.  NaN fails."""
    for values, name in named:
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError(f"{name} must lie in [0, 1]")
    if weights is None:
        return
    if not np.all(weights > 0.0):
        raise ValueError("weights must be strictly positive")
    if not abs(float(weights.sum()) - 1.0) <= WEIGHT_TOL:
        raise ValueError("weights must sum to 1 within 1e-12")


@dataclass(frozen=True, eq=False)
class FiniteMarginal:
    """Finite-support distribution of one side's value.

    values: distinct points in [0, 1]; weights: positive, summing to one
    within 1e-12.  Arrays are stored in listing order (product_joint lists
    its atoms in that order).
    """

    values: np.ndarray
    weights: np.ndarray

    def __init__(self, values: Iterable[float], weights: Iterable[float]):
        values = np.ascontiguousarray(values, dtype=np.float64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if values.ndim != 1 or values.shape != weights.shape or values.size == 0:
            raise ValueError("values and weights must be matching non-empty 1-d arrays")
        check_atoms((values, "values"), weights=weights)
        if sorted_distinct(values).size != values.size:
            raise ValueError("values must be pairwise distinct")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True, eq=False)
class FiniteJointDistribution:
    """Finite-support joint distribution of (seller, buyer) values.

    Built from an iterable of ((seller, buyer), weight) entries.  Atoms are
    pairwise-distinct pairs with strictly positive weights summing to one
    within 1e-12, stored in listing order; ``cum`` is the cumulative weight
    table that sampling searches; ``gft_price`` is best_fixed_price_gft's
    price, found on first use and kept, so the gft oracle's learner and the
    harness read one search.
    """

    sellers: np.ndarray
    buyers: np.ndarray
    weights: np.ndarray
    cum: np.ndarray

    def __init__(self, atoms: Iterable[tuple]):
        entries = [(float(s), float(b), float(w)) for (s, b), w in atoms]
        if not entries:
            raise ValueError("a joint distribution needs at least one atom")
        sellers = np.ascontiguousarray([e[0] for e in entries], dtype=np.float64)
        buyers = np.ascontiguousarray([e[1] for e in entries], dtype=np.float64)
        w = np.ascontiguousarray([e[2] for e in entries], dtype=np.float64)
        check_atoms((sellers, "seller values"), (buyers, "buyer values"), weights=w)
        if len({(s, b) for s, b, _ in entries}) != len(entries):
            raise ValueError("atoms must be pairwise distinct")
        object.__setattr__(self, "sellers", sellers)
        object.__setattr__(self, "buyers", buyers)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cum", np.cumsum(w))

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    def atom(self, i: int) -> ValuationPair:
        return ValuationPair(float(self.sellers[i]), float(self.buyers[i]))

    @functools.cached_property
    def gft_price(self) -> float:
        return best_fixed_price_gft(self).price


def product_joint(seller: FiniteMarginal, buyer: FiniteMarginal) -> FiniteJointDistribution:
    """Independent coupling of two marginals as an explicit joint."""
    atoms = []
    for sv, sw in zip(seller.values, seller.weights):
        for bv, bw in zip(buyer.values, buyer.weights):
            atoms.append(((sv, bv), sw * bw))
    return FiniteJointDistribution(atoms)


def sorted_distinct(values) -> np.ndarray:
    """The distinct values in ascending order: np.unique without numpy.ma.

    NumPy 2.4's np.unique imports numpy.ma on first use, which costs more
    than the candidate sets it sorts here.  Of each run of equal values the
    first in input order is kept (the sort is stable), so of -0.0 and 0.0
    the one listed first, where np.unique's sort may keep either.  NaNs,
    which sort last, collapse to one, as in np.unique.
    """
    values = np.sort(np.asarray(values, dtype=np.float64).ravel(), kind="stable")
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    keep[1:] &= ~np.isnan(values[:-1])
    return values[keep]


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
    return sorted_distinct(cands)


def gft_candidates(sellers: np.ndarray, buyers: np.ndarray) -> np.ndarray:
    """Sorted candidate prices exhausting the maximizers of a gft mixture.

    Expected gft is piecewise constant with jumps only at atom coordinates:
    the jump points plus the midpoints of consecutive jump points (with 0
    and 1 added so degenerate all-zero cases resolve to the smallest price)
    cover every level set.
    """
    jumps = sorted_distinct(
        np.concatenate(
            [
                np.asarray([0.0, 1.0]),
                np.asarray(sellers, dtype=np.float64),
                np.asarray(buyers, dtype=np.float64),
            ]
        )
    )
    mids = (jumps[:-1] + jumps[1:]) / 2.0
    return sorted_distinct(np.concatenate([jumps, mids]))


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

