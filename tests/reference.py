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
  arrays;
* pseudo_regret, the regret of one posted price sequence, which
  harness._profile_regret scores for price profiles;
* deterministic_price_profile, the point-mass price profile that
  harness.profile_regret scores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from fairtrade.algorithms import LearnerSpec
from fairtrade.core import FiniteJointDistribution, ValuationPair, check_atoms, fgft
from fairtrade.environments import Environment
from fairtrade.harness import _PROFILES, Trajectory, _EnvTables, _PointMasses, _price_profile, _profile_regret
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


def pseudo_regret(env: Environment, prices) -> float:
    """Exact expected regret of a posted price sequence on a finite env.

    Sums v_star - E[fgft(p_t)] over the sequence; every summand is
    non-negative because v_star maximizes the expected reward.  A price
    outside [0, 1], or NaN, raises ValueError.
    """
    prices = np.reshape(prices.prices if isinstance(prices, Trajectory) else prices, (1, -1))
    check_atoms((prices, "prices"))
    tables = _EnvTables(env)
    return float(_profile_regret(tables, tables.regret_at(prices), np.zeros(1), 0)[0])


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
    T, masses = _count(horizon, "horizon"), _PointMasses(sellers, buyers)
    explore, tail, tail_len = _price_profile(spec, masses, T, range(sellers.size))
    explore = np.broadcast_to(explore, tail.shape + explore.shape[1:])  # one row per point
    if not shape:
        return explore[0], float(tail[0]), tail_len
    return explore.reshape(shape + explore.shape[1:]), tail.reshape(shape), tail_len
