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

The fgft oracle works over rows of atoms (best_fixed_price_fgft_rows):
many instances, such as verify's random joints or a batch of point
masses, are scored in one kernel call, and one joint is the one-row case
(best_fixed_price_fgft).  atom_rows stacks instances into such rows and
checks them once over the whole stack.
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


def atom_rows(instances, width: int) -> tuple:
    """Finite-support instances stacked as rows of atoms, checked once over the stack.

    Each instance is a tuple of equal-length columns, its value columns
    and then its weights: a marginal's (values, weights) or a joint's
    (sellers, buyers, weights).  Returns one (len(instances), width)
    float64 array per column and the atom count of each row.  Past its
    atoms a row repeats its first atom with weight 0, so a per-row kernel
    reads only +0.0 terms and duplicate candidates from the padding.  The
    check is FiniteMarginal's and FiniteJointDistribution's, per row:
    values in [0, 1], positive weights summing to 1 within 1e-12, and
    pairwise distinct atoms (values of a marginal, pairs of a joint).
    """
    counts = np.array([len(instance[-1]) for instance in instances], dtype=np.intp)
    if not counts.size or counts.min() < 1 or counts.max() > width:
        raise ValueError(f"each instance needs 1 to {width} atoms")
    real = np.arange(width) < counts[:, None]
    columns = []
    for c in range(len(instances[0])):
        column = np.zeros((counts.size, width))
        column[real] = np.concatenate([instance[c] for instance in instances])
        columns.append(column)
    *values, weights = columns
    for column in values:
        column[~real] = np.repeat(column[:, 0], width - counts)
    check_atoms(*((column, "values") for column in values))
    if not np.all(weights > 0.0, where=real):
        raise ValueError("weights must be strictly positive")
    if not np.all(np.abs(weights.sum(axis=1) - 1.0) <= WEIGHT_TOL):
        raise ValueError("weights must sum to 1 within 1e-12")
    same = np.triu(np.ones((width, width), dtype=bool), 1) & real[:, :, None] & real[:, None, :]
    for column in values:
        same &= column[:, :, None] == column[:, None, :]
    if same.any():
        raise ValueError("atoms must be pairwise distinct")
    return (*columns, counts)


def best_fixed_price_fgft_rows(sellers, buyers, weights) -> tuple:
    """Exact maximizer of expected fgft for each row of atoms: (prices, values).

    ``sellers``, ``buyers`` and ``weights`` are (rows, A) per-row atoms.
    Row r's candidates are 0, 1 and each atom's s, b and (s + b) / 2,
    sorted stably, so of equal prices 0.0 and then the first listed lead.
    One kernels.expected_fgft_at call scores every row: several rows take
    its dense per-row path, one row its sorted path, with bitwise equal
    sums.  The first argmax of a sorted row is its smallest maximizer, as
    ties break.  A padded atom (atom_rows) adds only duplicate candidates,
    which score the same value, and +0.0 terms.
    """
    sellers, buyers, weights = (np.asarray(a, dtype=np.float64) for a in (sellers, buyers, weights))
    rows, A = sellers.shape
    cands = np.empty((rows, 2 + 3 * A))
    cands[:, 0], cands[:, 1] = 0.0, 1.0
    cands[:, 2 : 2 + A], cands[:, 2 + A : 2 + 2 * A] = sellers, buyers
    np.divide(sellers + buyers, 2.0, out=cands[:, 2 + 2 * A :])
    cands.sort(axis=1, kind="stable")
    vals = expected_fgft_at(cands, sellers, buyers, weights)
    best = np.argmax(vals, axis=1)[:, None]
    return np.take_along_axis(cands, best, 1)[:, 0], np.take_along_axis(vals, best, 1)[:, 0]


def best_fixed_price_fgft(dist: FiniteJointDistribution) -> PricePoint:
    """Exact maximizer of expected fgft; ties break toward the smallest price.

    The one-row case of best_fixed_price_fgft_rows.
    """
    prices, values = best_fixed_price_fgft_rows(dist.sellers[None], dist.buyers[None], dist.weights[None])
    return PricePoint(float(prices[0]), float(values[0]))


def best_fixed_price_gft(dist: FiniteJointDistribution) -> PricePoint:
    """Exact maximizer of expected gft; ties break toward the smallest price."""
    cands = gft_candidates(dist.sellers, dist.buyers)
    vals = np.zeros(cands.size, dtype=np.float64)
    for s, b, w in zip(dist.sellers, dist.buyers, dist.weights):
        vals += w * np.where((s <= cands) & (cands <= b), b - s, 0.0)
    i = int(np.argmax(vals))
    return PricePoint(float(cands[i]), float(vals[i]))

