"""Posted-price learners.

A learner is driven round by round: ``propose()`` returns the price for the
current round, then ``update(feedback)`` delivers what the platform
observed.  Exactly one update must follow each propose.  Learners are
deterministic functions of their feedback history (the uniform-price
baseline carries its own seeded stream), so replaying identical feedback
reproduces the identical price sequence.

Learners and the feedback they consume:

* ``conv-pricing``  two-bit   explore-then-commit on the grid {1/K, ..., 1};
  grid prices are scored by an incomplete convolution of the recorded
  acceptance bits, which estimates the expected fair gain from trade of
  each grid price to within 1/K under independent valuations.
* ``dbs``           two-bit   double binary search: N rounds bisecting for
  the seller value, N for the buyer value, then commit to the midpoint of
  the two interval midpoints (regret at most 1 + 2*ceil(log2 T) on any
  deterministic pair).
* ``fbep``          full      follow the best empirical price: after each
  round repost the smallest maximizer of the empirical mean fair gain.
* ``fixed:p=...``, ``gft-oracle`` (best fixed price for raw gain from
  trade), and ``uniform:seed=...`` are non-adaptive baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .core import ValuationPair, best_fixed_price_gft, empirical_best_price
from .environments import (
    Environment,
    FeedbackModel,
    TwoBitFeedback,
    UnknownIdError,
    _parse_id,
)
from .rng import MASK64, SplitMix64, mix64


def ceil_log2(n: int) -> int:
    """Smallest m with 2**m >= n, exact integer arithmetic."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return (n - 1).bit_length()


def default_grid_size(horizon: int) -> int:
    """Largest K >= 1 with K**3 <= T**2 (the floor of T^(2/3), exactly)."""
    if horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
    k = max(int(round(horizon ** (2.0 / 3.0))), 1)
    while k > 1 and k * k * k > horizon * horizon:
        k -= 1
    while (k + 1) ** 3 <= horizon * horizon:
        k += 1
    return k


def dbs_phase_length(horizon: int) -> int:
    """Bisection rounds per side: ceil(log2 T) when 2*ceil(log2 T) + 1 <= T, else 0."""
    n = ceil_log2(horizon)
    return n if 2 * n + 1 <= horizon else 0


def dbs_regret_bound(horizon: int) -> float:
    """Worst-case pseudo-regret bound of double binary search: 1 + 2*ceil(log2 T)."""
    return 1.0 + 2.0 * ceil_log2(horizon)


def _check_price(p: float) -> float:
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"price must lie in [0, 1], got {p!r}")
    return p


def _require_two_bit(feedback) -> TwoBitFeedback:
    if not isinstance(feedback, TwoBitFeedback):
        raise TypeError(
            f"this learner consumes two-bit feedback, got {type(feedback).__name__}"
        )
    return feedback


class Learner:
    """Round-driven posted-price learner (see module docstring)."""

    requires: FeedbackModel | None = None  # None: consumes either model
    deterministic: bool = True

    def propose(self) -> float:
        raise NotImplementedError

    def update(self, feedback) -> None:
        raise NotImplementedError


class ConvolutionPricing(Learner):
    """Explore the price grid {t/K}, then commit to the best-scoring index.

    During rounds 1..K the learner posts t/K and records the acceptance
    bits V_t = 1{s_t <= t/K} and W_t = 1{t/K <= b_t}.  Grid index i is then
    scored by (1/K) * sum_k V_{i-k} W_{i+k} (positions outside 1..K read
    zero) and the smallest maximizing index I is posted for the rest of the
    horizon.
    """

    requires = FeedbackModel.TWO_BIT

    def __init__(self, horizon: int, grid_size: int | None = None):
        if horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
        K = default_grid_size(horizon) if grid_size is None else int(grid_size)
        if K < 1:
            raise ValueError(f"grid size must be a positive integer, got {K!r}")
        if K > horizon:
            raise ValueError(f"grid size {K} exceeds horizon {horizon}")
        self.horizon = horizon
        self.grid_size = K
        self.rounds_done = 0
        # index layout shared with kernels.incomplete_convolution
        self._seller_bits = np.zeros(K + 1, dtype=np.float64)
        self._buyer_bits = np.zeros(2 * K + 1, dtype=np.float64)
        self.commit_index: int | None = None

    def propose(self) -> float:
        K = self.grid_size
        if self.rounds_done < K:
            return (self.rounds_done + 1) / K
        return self.commit_index / K

    def update(self, feedback) -> None:
        feedback = _require_two_bit(feedback)
        K = self.grid_size
        if self.rounds_done < K:
            t = self.rounds_done + 1
            self._seller_bits[t] = float(feedback.seller_accepts)
            self._buyer_bits[t] = float(feedback.buyer_accepts)
            self.rounds_done = t
            if t == K:
                scores = kernels.incomplete_convolution(
                    self._seller_bits, self._buyer_bits, K
                )
                self.commit_index = int(np.argmax(scores)) + 1
        else:
            self.rounds_done += 1


class DoubleBinarySearch(Learner):
    """Bisect for the seller value, then the buyer value, then commit.

    Maintains candidate intervals E_S and E_B (both start at [0, 1]).  For N
    rounds it posts mid(E_S) and keeps the half containing the seller value
    (seller accepting means the value is at or below the midpoint); the next
    N rounds do the mirrored search for the buyer value.  The remaining
    rounds post (mid(E_S) + mid(E_B)) / 2.  When 2*ceil(log2 T) + 1 > T
    there is no room to explore and every round posts 1/2.
    """

    requires = FeedbackModel.TWO_BIT

    def __init__(self, horizon: int):
        if horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
        self.horizon = horizon
        self.phase_length = dbs_phase_length(horizon)
        self.rounds_done = 0
        self.seller_interval = (0.0, 1.0)
        self.buyer_interval = (0.0, 1.0)

    @staticmethod
    def _mid(interval: tuple) -> float:
        return (interval[0] + interval[1]) / 2.0

    def propose(self) -> float:
        N = self.phase_length
        if self.rounds_done < N:
            return self._mid(self.seller_interval)
        if self.rounds_done < 2 * N:
            return self._mid(self.buyer_interval)
        return (self._mid(self.seller_interval) + self._mid(self.buyer_interval)) / 2.0

    def update(self, feedback) -> None:
        feedback = _require_two_bit(feedback)
        N = self.phase_length
        if self.rounds_done < N:
            lo, hi = self.seller_interval
            mid = self._mid(self.seller_interval)
            self.seller_interval = (lo, mid) if feedback.seller_accepts else (mid, hi)
        elif self.rounds_done < 2 * N:
            lo, hi = self.buyer_interval
            mid = self._mid(self.buyer_interval)
            self.buyer_interval = (mid, hi) if feedback.buyer_accepts else (lo, mid)
        self.rounds_done += 1


class FollowBestEmpiricalPrice(Learner):
    """Post 1/2, then always the best price in hindsight.

    After each observed pair the learner reposts the smallest maximizer of
    the empirical mean fair gain from trade over all samples so far; every
    such price is a breakpoint of the empirical mean.
    """

    requires = FeedbackModel.FULL

    def __init__(self, horizon: int):
        if horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
        self.horizon = horizon
        self.samples: list[ValuationPair] = []
        self._next_price = 0.5

    def propose(self) -> float:
        return self._next_price

    def update(self, feedback) -> None:
        if isinstance(feedback, TwoBitFeedback):
            raise TypeError("follow-best-empirical-price needs full feedback, got two bits")
        s, b = feedback
        self.samples.append(ValuationPair(float(s), float(b)))
        self._next_price = empirical_best_price(self.samples).price


class FixedPrice(Learner):
    """Post one price forever; feedback is ignored."""

    requires = None

    def __init__(self, price: float):
        self.price = _check_price(price)

    def propose(self) -> float:
        return self.price

    def update(self, feedback) -> None:
        pass


class UniformRandom(Learner):
    """Post an independent uniform price each round from an owned stream."""

    requires = None
    deterministic = False

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._stream = SplitMix64(self.seed)

    def propose(self) -> float:
        return self._stream.next_unit()

    def update(self, feedback) -> None:
        pass


# ---------------------------------------------------------------------------
# id parsing / registry
# ---------------------------------------------------------------------------

LEARNER_ID_PATTERNS = (
    "conv-pricing",
    "conv-pricing:K=<grid size>",
    "dbs",
    "fbep",
    "fixed:p=<price>",
    "gft-oracle",
    "uniform:seed=<u64>",
)

@dataclass(frozen=True)
class LearnerSpec:
    """A parsed learner id: enough to build a fresh instance per episode."""

    learner_id: str
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def requires(self) -> FeedbackModel | None:
        if self.kind in ("conv-pricing", "dbs"):
            return FeedbackModel.TWO_BIT
        if self.kind == "fbep":
            return FeedbackModel.FULL
        return None

    @property
    def deterministic(self) -> bool:
        return self.kind != "uniform"

    def build(self, horizon: int, env: Environment, episode_seed: int = 0) -> Learner:
        """Fresh learner for one episode.

        ``env`` feeds the gft oracle baseline its target distribution;
        ``episode_seed`` is mixed into the owned stream of the uniform
        baseline so Monte Carlo episodes are independent while reruns of
        the same (seed, episode) stay identical.
        """
        if self.kind == "conv-pricing":
            return ConvolutionPricing(horizon, self.params.get("K"))
        if self.kind == "dbs":
            return DoubleBinarySearch(horizon)
        if self.kind == "fbep":
            return FollowBestEmpiricalPrice(horizon)
        if self.kind == "fixed":
            return FixedPrice(self.params["p"])
        if self.kind == "gft-oracle":
            return FixedPrice(best_fixed_price_gft(env.joint).price)
        if self.kind == "uniform":
            return UniformRandom(mix64(self.params.get("seed", 0), episode_seed))
        raise UnknownIdError(f"unknown learner kind {self.kind!r}")


def parse_learner(learner_id: str) -> LearnerSpec:
    """Resolve a learner id string like 'conv-pricing:K=100' or 'fixed:p=0.5'."""
    kind, params = _parse_id(learner_id, LEARNER_ID_PATTERNS)
    try:
        if "K" in params:
            params["K"] = int(params["K"])
            if params["K"] < 1:
                raise ValueError(f"K must be >= 1, got {params['K']}")
        if kind == "fixed":
            params["p"] = _check_price(float(params["p"]))
        if kind == "uniform":
            params["seed"] = int(params.get("seed", 0))
            if not 0 <= params["seed"] <= MASK64:
                raise ValueError(f"seed must lie in [0, 2**64), got {params['seed']}")
    except (KeyError, ValueError) as exc:
        raise UnknownIdError(f"cannot resolve learner id {learner_id!r}: {exc}") from exc
    return LearnerSpec(learner_id=learner_id, kind=kind, params=params)
