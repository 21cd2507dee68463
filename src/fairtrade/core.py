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

Each finite-support rule is written once, over rows of atoms, and its
per-instance form is the one-row case.  Many instances, such as verify's
random joints or a batch of point masses, are then one call:

* check_atom_rows checks atoms (values in [0, 1], positive weights
  summing to 1, distinct atoms); the FiniteMarginal and
  FiniteJointDistribution constructors take an instance's columns,
  (values, weights) or (sellers, buyers, weights), and check it as one
  row, and atom_rows checks a stack of such instances, padding masked
  off;
* product_joint_rows couples seller and buyer atoms independently, and
  product_joint is its one row;
* fgft_candidate_rows lists the fgft candidates, and fgft_candidates is
  its one row, deduplicated;
* best_fixed_price_fgft_rows finds each row's best fixed price in one
  kernel call, and best_fixed_price_fgft is its one row;
* gft_candidate_rows lists the gft candidates, and gft_candidates is its
  one row, deduplicated;
* best_fixed_price_gft_rows finds each row's best fixed price for gft,
  scoring atom by atom in listing order, and best_fixed_price_gft is its
  one row.
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


def check_atoms(*named) -> None:
    """Each (values, name) array lies in [0, 1].  NaN fails."""
    for values, name in named:
        if not ((values >= 0.0) & (values <= 1.0)).all():
            raise ValueError(f"{name} must lie in [0, 1]")


def check_atom_rows(values, weights, real=True) -> None:
    """The one check of finite-support atoms, over (rows, A) columns.

    ``values`` is a (1, rows, A) array of a marginal's values or a
    (2, rows, A) one of a joint's sellers and buyers, and ``weights`` their
    weights; ``real`` masks each row's atoms off from its padding
    (atom_rows), and a constructor checks its one instance as one unpadded
    row.  Values lie in [0, 1]; a row's atoms have positive weights,
    summing to 1 within 1e-12 with the padding's, and are pairwise
    distinct (values of a marginal, pairs of a joint).  Each row is
    sorted, its padding last, and compared with its neighbours, so the
    check takes memory linear in the atoms.  NaN fails, and -0.0 equals
    0.0.
    """
    if not weights.shape[-1]:
        raise ValueError("an instance needs at least one atom")
    check_atoms(*zip(values, ("values",) if len(values) == 1 else ("seller values", "buyer values")))
    if not (weights > 0.0).all(where=real):
        raise ValueError("weights must be strictly positive")
    if not (np.abs(weights.sum(axis=-1) - 1.0) <= WEIGHT_TOL).all():
        raise ValueError("weights must sum to 1 within 1e-12")
    # an atom as one complex number, seller + buyer * 1j (a marginal's value
    # in both parts), which NumPy sorts by real and then imaginary part; a
    # padded atom is NaN, which sorts last and equals nothing
    atoms = np.empty(weights.shape, dtype=np.complex128)
    atoms.real, atoms.imag = values[0], values[-1]
    np.copyto(atoms, np.nan, where=np.logical_not(real))
    atoms.sort(axis=-1)
    if (atoms[:, 1:] == atoms[:, :-1]).any():
        raise ValueError("atoms must be pairwise distinct")


def _instance_columns(*columns) -> np.ndarray:
    """One instance's columns, its values and then its weights, as a (k, A)
    float64 array that check_atom_rows has checked as one row.  Columns
    that are not matching 1-d arrays raise ValueError.
    """
    try:
        array = np.array(columns, dtype=np.float64)
    except ValueError:  # columns of unequal lengths
        array = np.empty(0)
    if array.ndim != 2:
        raise ValueError("an instance's columns must be matching 1-d arrays")
    check_atom_rows(array[:-1, None], array[-1:])
    return array


@dataclass(frozen=True, eq=False)
class FiniteMarginal:
    """Finite-support distribution of one side's value.

    Built from its columns (values, weights), as atom_rows takes a
    marginal.  values: distinct points in [0, 1]; weights: positive,
    summing to one within 1e-12 (check_atom_rows, as one row).  Arrays are
    stored in listing order (product_joint lists its atoms in that order).
    """

    values: np.ndarray
    weights: np.ndarray

    def __init__(self, values: Iterable[float], weights: Iterable[float]):
        values, weights = _instance_columns(values, weights)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True, eq=False)
class FiniteJointDistribution:
    """Finite-support joint distribution of (seller, buyer) values.

    Built from its columns (sellers, buyers, weights), as atom_rows takes
    a joint.  Atoms are pairwise-distinct pairs with strictly positive
    weights summing to one within 1e-12 (check_atom_rows, as one row),
    stored in listing order as rows of one (3, A) array; ``cum`` is the
    cumulative weight table that sampling searches; ``gft_price`` is
    best_fixed_price_gft's price, found on first use and kept, so every
    gft oracle learner built on the joint reads one search.
    """

    sellers: np.ndarray
    buyers: np.ndarray
    weights: np.ndarray
    cum: np.ndarray

    def __init__(self, sellers: Iterable[float], buyers: Iterable[float], weights: Iterable[float]):
        sellers, buyers, weights = _instance_columns(sellers, buyers, weights)
        object.__setattr__(self, "sellers", sellers)
        object.__setattr__(self, "buyers", buyers)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cum", np.cumsum(weights))

    def atom(self, i: int) -> ValuationPair:
        return ValuationPair(float(self.sellers[i]), float(self.buyers[i]))

    @functools.cached_property
    def gft_price(self) -> float:
        return best_fixed_price_gft(self).price


def product_joint_rows(seller_values, seller_weights, buyer_values, buyer_weights) -> tuple:
    """Independent couplings of (rows, A) seller and (rows, B) buyer atoms:
    (sellers, buyers, weights) as (rows, A * B) joint atoms.

    Seller atom i and buyer atom j go to column i * B + j with weight
    sw_i * bw_j, so a row lists its atoms in its seller's order, each with
    every buyer atom in the buyer's order.
    """
    rows, A = seller_values.shape
    B = buyer_values.shape[1]
    atoms = np.empty((3, rows, A, B))
    atoms[0], atoms[1] = seller_values[:, :, None], buyer_values[:, None, :]
    np.multiply(seller_weights[:, :, None], buyer_weights[:, None, :], out=atoms[2])
    return tuple(atoms.reshape(3, rows, A * B))


def product_joint(seller: FiniteMarginal, buyer: FiniteMarginal) -> FiniteJointDistribution:
    """Independent coupling of two marginals as an explicit joint: the one row of product_joint_rows."""
    sides = (seller.values[None], seller.weights[None], buyer.values[None], buyer.weights[None])
    return FiniteJointDistribution(*(column[0] for column in product_joint_rows(*sides)))


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


def fgft_candidate_rows(sellers, buyers) -> np.ndarray:
    """Candidate prices exhausting the maximizers of each row's fgft mixture.

    The expected fgft of a finite-support distribution is piecewise linear
    with breakpoints contained in {0, 1} union atom coordinates union atom
    midpoints, so its smallest maximizer is one of these points.  Row r of
    the (rows, 2 + 3A) result holds 0, 1 and each of its (rows, A) atoms'
    s, b and (s + b) / 2, sorted stably, so of equal prices 0.0 and then
    the first listed lead.
    """
    rows, A = sellers.shape
    cands = np.empty((rows, 2 + 3 * A))
    cands[:, 0], cands[:, 1] = 0.0, 1.0
    cands[:, 2 : 2 + A], cands[:, 2 + A : 2 + 2 * A] = sellers, buyers
    np.divide(sellers + buyers, 2.0, out=cands[:, 2 + 2 * A :])
    cands.sort(axis=1, kind="stable")
    return cands


def fgft_candidates(sellers, buyers) -> np.ndarray:
    """The sorted distinct candidates of one joint's atoms: the one row of fgft_candidate_rows."""
    sellers, buyers = (np.asarray(x, dtype=np.float64)[None] for x in (sellers, buyers))
    return sorted_distinct(fgft_candidate_rows(sellers, buyers))


def gft_candidate_rows(sellers, buyers) -> np.ndarray:
    """Candidate prices exhausting the maximizers of each row's gft mixture.

    Expected gft is piecewise constant with jumps only at atom coordinates:
    the jump points plus the midpoints of consecutive jump points (with 0
    and 1 added so degenerate all-zero cases resolve to the smallest price)
    cover every level set.  Row r of the (rows, 3 + 4A) result holds its
    (rows, A) atoms' jumps 0, 1, s and b, sorted stably with repeats, and
    the midpoint of each consecutive pair, all sorted stably: a repeated
    jump x adds x itself, (x + x) / 2, so of equal prices 0.0 and then the
    first listed lead.
    """
    ends = np.broadcast_to([0.0, 1.0], (len(sellers), 2))
    jumps = np.sort(np.hstack([ends, sellers, buyers]), axis=1, kind="stable")
    return np.sort(np.hstack([jumps, (jumps[:, :-1] + jumps[:, 1:]) / 2.0]), axis=1, kind="stable")


def gft_candidates(sellers, buyers) -> np.ndarray:
    """The sorted distinct candidates of one joint's atoms: the one row of gft_candidate_rows."""
    sellers, buyers = (np.asarray(x, dtype=np.float64)[None] for x in (sellers, buyers))
    return sorted_distinct(gft_candidate_rows(sellers, buyers))


def atom_rows(instances, width: int) -> tuple:
    """Finite-support instances stacked as rows of atoms, checked once over the stack.

    Each instance is a tuple of equal-length columns, its value columns
    and then its weights: a marginal's (values, weights) or a joint's
    (sellers, buyers, weights), as FiniteMarginal and
    FiniteJointDistribution take them.  Returns one (len(instances), width)
    float64 array per column and the atom count of each row.  Past its
    atoms a row repeats its first atom with weight 0, so a per-row kernel
    reads only +0.0 terms and duplicate candidates from the padding.  The
    check is check_atom_rows, the one of FiniteMarginal and
    FiniteJointDistribution, with the padding masked off.
    """
    counts = np.array([len(instance[-1]) for instance in instances], dtype=np.intp)
    if not counts.size or counts.min() < 1 or counts.max() > width:
        raise ValueError(f"each instance needs at least one atom and at most {width}")
    real = np.arange(width) < counts[:, None]
    columns = np.zeros((len(instances[0]), counts.size, width))
    for c, column in enumerate(columns):
        column[real] = np.concatenate([instance[c] for instance in instances])
    values = columns[:-1]
    values[:, ~real] = np.repeat(values[:, :, 0], width - counts, axis=1)
    check_atom_rows(values, columns[-1], real)
    return (*columns, counts)


def best_fixed_price_fgft_rows(sellers, buyers, weights) -> tuple:
    """Exact maximizer of expected fgft for each row of atoms: (prices, values).

    ``sellers``, ``buyers`` and ``weights`` are (rows, A) per-row atoms,
    and fgft_candidate_rows gives each row's candidates.
    One kernels.expected_fgft_at call scores every row: several rows take
    its dense per-row path, one row its sorted path, with bitwise equal
    sums.  The first argmax of a sorted row is its smallest maximizer, as
    ties break.  A padded atom (atom_rows) adds only duplicate candidates,
    which score the same value, and +0.0 terms.
    """
    sellers, buyers, weights = (np.asarray(a, dtype=np.float64) for a in (sellers, buyers, weights))
    cands = fgft_candidate_rows(sellers, buyers)
    vals = expected_fgft_at(cands, sellers, buyers, weights)
    best = np.argmax(vals, axis=1)[:, None]
    return np.take_along_axis(cands, best, 1)[:, 0], np.take_along_axis(vals, best, 1)[:, 0]


def best_fixed_price_fgft(dist: FiniteJointDistribution) -> PricePoint:
    """Exact maximizer of expected fgft; ties break toward the smallest price.

    The one-row case of best_fixed_price_fgft_rows.
    """
    prices, values = best_fixed_price_fgft_rows(dist.sellers[None], dist.buyers[None], dist.weights[None])
    return PricePoint(float(prices[0]), float(values[0]))


def best_fixed_price_gft_rows(sellers, buyers, weights) -> tuple:
    """Exact maximizer of expected gft for each row of atoms: (prices, values).

    ``sellers``, ``buyers`` and ``weights`` are (rows, A) per-row atoms,
    and gft_candidate_rows gives each row's candidates.  Each candidate's
    expected gft adds w * (b - s) * 1{s <= p <= b} atom by atom, in
    listing order, from 0.0.  The first argmax of a sorted row is its
    smallest maximizer, as ties break.  A padded atom (atom_rows) adds
    only repeated candidates, which score the same value, and +0.0 terms.
    """
    sellers, buyers, weights = (np.asarray(a, dtype=np.float64) for a in (sellers, buyers, weights))
    cands = gft_candidate_rows(sellers, buyers)
    vals = np.zeros(cands.shape)
    for s, b, w in zip(sellers.T[:, :, None], buyers.T[:, :, None], weights.T[:, :, None]):
        vals += w * np.where((s <= cands) & (cands <= b), b - s, 0.0)
    best = np.argmax(vals, axis=1)[:, None]
    return np.take_along_axis(cands, best, 1)[:, 0], np.take_along_axis(vals, best, 1)[:, 0]


def best_fixed_price_gft(dist: FiniteJointDistribution) -> PricePoint:
    """Exact maximizer of expected gft; ties break toward the smallest price.

    The one-row case of best_fixed_price_gft_rows.
    """
    prices, values = best_fixed_price_gft_rows(dist.sellers[None], dist.buyers[None], dist.weights[None])
    return PricePoint(float(prices[0]), float(values[0]))
