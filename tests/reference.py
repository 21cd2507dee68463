"""Scalar reference forms that only the tests call.

Each function here states one quantity the package computes in arrays, the
plain way: a Python loop over grid steps, grid indices or atoms, or the
point-mass price profile as a function of its own.  The tests compare the
package's kernels and fast paths against these:

* gft, the raw gain from trade of one posted price;
* fgft_convolution_approx, one triple's left-Riemann overlap sum, which
  kernels.convolution_approx_batch evaluates for many;
* discrete_convolution_score, one grid index's score, which
  kernels.incomplete_convolution and kernels.grid_commits compute for
  every index of every row;
* expected_fgft and expected_gft, exact atom sums at one price, which
  kernels.expected_fgft_at and core.best_fixed_price_gft evaluate on price
  arrays, and best_fixed_price_gft, the gft oracle as one loop over a
  joint's atoms, which core.best_fixed_price_gft_rows computes for rows;
* epsilon_family_fgft, the eps family's closed-form mean reward at one
  price, piece by piece, which environments.epsilon_family_expected_fgft
  evaluates on price arrays;
* empirical_best_price, the smallest maximizer of the empirical mean
  fgft rescored from scratch over every sample, which
  algorithms.FollowBestEmpiricalPrice keeps as running totals and
  kernels.fbep_prices computes for a whole episode, and
  empirical_best_prices, the same maximizer after every prefix of a
  sample list in one cumsum;
* pseudo_regret, the regret of one posted price sequence, which
  harness._profile_regret scores for price profiles;
* price_profile, the price profile of a run at one horizon, and
  deterministic_price_profile, the point-mass price profile that
  harness.profile_regret scores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from fairtrade.algorithms import LearnerSpec
from fairtrade.core import (
    FiniteJointDistribution,
    PricePoint,
    ValuationPair,
    check_atoms,
    fgft,
    fgft_candidates,
    fgft_vector,
    sorted_distinct,
)
from fairtrade.environments import Environment
from fairtrade.harness import _PROFILES, Trajectory, _EnvTables, _price_profiles, _profile_regret
from fairtrade.rng import _count


def gft(p: float, seller: float, buyer: float) -> float:
    """Raw gain from trade (b - s) * 1{s <= p <= b}."""
    return (buyer - seller) if (seller <= p <= buyer) else 0.0


def fgft_convolution_approx(p: float, pair: ValuationPair | tuple, grid_size: int) -> float:
    """Left-Riemann discretization of the overlap-integral form of fgft.

    Returns (1/M) * sum_{j=0}^{M-1} 1{s <= p - j/M} * 1{p + j/M <= b} with
    M = grid_size.  The sum over-estimates fgft(p, s, b) by at most 1/M.

    The summand is non-increasing in j (both indicators are), so the loop
    stops at the first zero term; the result is identical to evaluating all
    M terms.  M is a count (rng._count).
    """
    grid_size = _count(grid_size, "grid_size")
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


def best_fixed_price_gft(dist: FiniteJointDistribution) -> PricePoint:
    """Smallest maximizer of expected gft, by one loop over the atoms.

    The candidates are the distinct jump points (0, 1 and the atom
    coordinates) and the midpoints of consecutive ones.  Every candidate's
    expected gft adds the atoms' terms in listing order, from 0.0; the
    first argmax of the sorted candidates is the smallest maximizer.
    core.best_fixed_price_gft_rows computes this for rows of atoms.
    """
    jumps = sorted_distinct(np.concatenate([[0.0, 1.0], dist.sellers, dist.buyers]))
    cands = sorted_distinct(np.concatenate([jumps, (jumps[:-1] + jumps[1:]) / 2.0]))
    vals = np.zeros(cands.size, dtype=np.float64)
    for s, b, w in zip(dist.sellers, dist.buyers, dist.weights):
        vals += w * np.where((s <= cands) & (cands <= b), b - s, 0.0)
    i = int(np.argmax(vals))
    return PricePoint(float(cands[i]), float(vals[i]))


def epsilon_family_fgft(eps: float, p: float) -> float:
    """Closed-form expected fgft of the eps family at one price, as Python floats."""
    if p < 0.25:
        return (1.0 + eps) / 2.0 * p
    if p < 0.5:
        return (1.0 + eps) / 8.0 + (p - 0.25)
    if p < 0.625:
        return (1.0 + eps) / 8.0 + 0.25 + eps * (0.5 - p)
    return (1.0 + eps) / 8.0 + 0.25 - eps / 8.0 + (0.625 - p)


def empirical_best_price(samples: Sequence[tuple]) -> PricePoint:
    """Smallest maximizer of the empirical mean fgft over observed pairs.

    Candidates are the breakpoints of the empirical mean (sample coordinates
    and midpoints, plus 0 and 1).  Per-candidate totals accumulate sample by
    sample in arrival order, from 0.0, over every sample at every call.
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


def empirical_best_prices(samples: Sequence[tuple]) -> np.ndarray:
    """empirical_best_price(samples[:n]).price for every n = 1..len(samples).

    The candidates are the breakpoints of the whole list.  One np.cumsum
    from a 0.0 row runs down the table of each sample's fgft at each
    candidate, so every total is formed sample by sample in arrival order,
    from 0.0, as empirical_best_price forms it.  A breakpoint is masked
    with -inf until the round of the first sample it is a breakpoint of (0
    and 1 from round 1), so round n scores the candidates of samples[:n] in
    the same ascending order, and its first maximizer is theirs.  That is
    O(n x C) for every prefix at once, where rescoring each from scratch
    costs O(n**2 x C).
    """
    if len(samples) == 0:
        raise ValueError("empirical_best_prices needs at least one sample")
    pairs = np.asarray(samples, dtype=np.float64).reshape(-1, 2)
    sellers, buyers = pairs[:, :1], pairs[:, 1:]
    cands = fgft_candidates(pairs[:, 0], pairs[:, 1])
    totals = np.zeros((len(pairs) + 1, cands.size))
    totals[1:] = fgft_vector(cands, sellers, buyers)
    np.cumsum(totals, axis=0, out=totals)
    points = np.hstack([sellers, buyers, (sellers + buyers) / 2.0])
    seen = (points[:, :, None] == cands).any(axis=1)  # seen[n, c]: cands[c] is a breakpoint of sample n
    seen[0] |= (cands == 0.0) | (cands == 1.0)
    first = np.argmax(seen, axis=0)  # every candidate is a breakpoint of some sample, or 0 or 1
    rounds = np.arange(len(pairs))[:, None]
    return cands[np.argmax(np.where(rounds >= first, totals[1:], -np.inf), axis=1)]


def pseudo_regret(env: Environment, prices) -> float:
    """Exact expected regret of a posted price sequence on a finite env.

    Sums v_star - E[fgft(p_t)] over the sequence; every summand is
    non-negative because v_star maximizes the expected reward.  A price
    outside [0, 1], or NaN, raises ValueError.
    """
    prices = np.reshape(prices.prices if isinstance(prices, Trajectory) else prices, (1, -1))
    check_atoms((prices, "prices"))
    tables = _EnvTables(env)
    return float(_profile_regret(tables.regret_at(prices), np.zeros(1), 0)[0])


def price_profile(spec: LearnerSpec, tables: _EnvTables, horizon: int, seeds) -> tuple:
    """(exploration prices, tails, tail length) of the episode streams
    ``seeds`` in a run of the one horizon: harness._price_profiles with
    the prices unscored."""
    return next(_price_profiles(spec, tables, (horizon,), seeds, lambda prices: prices))


def deterministic_price_profile(spec: LearnerSpec, horizon: int, pair) -> tuple:
    """(exploration prices, tail price, tail length) on a fixed pair.

    Valid for deterministic learners that consume two-bit (or no) feedback.
    This is the Monte Carlo profile on the point mass: every draw lands on
    its one atom, so no draws are taken.  A pair of arrays that broadcast
    to shape S gives exploration prices of shape S + (n,) and tails of
    shape S, one profile per point.
    """
    if spec.kind not in _PROFILES:
        raise ValueError(f"no price profile for {spec.learner_id!r}: it is randomized or needs full feedback")
    sellers, buyers = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in pair))
    shape, sellers, buyers = sellers.shape, sellers.ravel(), buyers.ravel()
    T, masses = _count(horizon, "horizon"), _EnvTables(points=(sellers, buyers))
    explore, tail, tail_len = price_profile(spec, masses, T, range(sellers.size))
    explore = np.broadcast_to(explore, tail.shape + explore.shape[1:])  # one row per point
    if not shape:
        return explore[0], float(tail[0]), tail_len
    return explore.reshape(shape + explore.shape[1:]), tail.reshape(shape), tail_len
