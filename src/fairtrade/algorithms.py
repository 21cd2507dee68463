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

Each kind is declared once, as a row of LEARNER_KINDS: its id patterns,
the feedback it consumes, and how to build it.  The harness adds one row
for its fast path (harness._PROFILES or harness._ROUND_GAPS).

Every horizon and grid size is a count (``rng._count``: a whole
number of at least 1) and the uniform baseline's seed a u64
(``rng._u64``), so a fraction, a bool, NaN or an infinity raises
ValueError naming the quantity, and 3.0 or np.int64(3) acts as 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .core import check_atoms, fgft_candidates, fgft_vector
from .environments import (
    Environment,
    FeedbackModel,
    TwoBitFeedback,
    UnknownIdError,
    _format_id,
    _parse_id,
)
from .rng import SplitMix64, _count, _u64, mix64


def ceil_log2(n: int) -> int:
    """Smallest m with 2**m >= n, exact integer arithmetic."""
    return (_count(n, "n") - 1).bit_length()


def default_grid_size(horizon: int) -> int:
    """Largest K >= 1 with K**3 <= T**2 (the floor of T^(2/3), exactly)."""
    horizon = _count(horizon, "horizon")
    k = max(int(round(horizon ** (2.0 / 3.0))), 1)
    while k > 1 and k * k * k > horizon * horizon:
        k -= 1
    while (k + 1) ** 3 <= horizon * horizon:
        k += 1
    return k


def dbs_phase_length(horizon: int) -> int:
    """Bisection rounds per side: ceil(log2 T) when 2*ceil(log2 T) + 1 <= T, else 0."""
    horizon = _count(horizon, "horizon")
    n = ceil_log2(horizon)
    return n if 2 * n + 1 <= horizon else 0


def dbs_regret_bound(horizon: int) -> float:
    """Worst-case pseudo-regret bound of double binary search: 1 + 2*ceil(log2 T)."""
    return 1.0 + 2.0 * ceil_log2(_count(horizon, "horizon"))


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

    def __init__(self, horizon: int, grid_size: int | None = None):
        horizon = _count(horizon, "horizon")
        K = default_grid_size(horizon) if grid_size is None else _count(grid_size, "grid_size")
        if K > horizon:
            raise ValueError(f"grid size {K} exceeds horizon {horizon}")
        self.grid_size = K
        self.rounds_done = 0
        # V_1..V_K and W_1..W_K, one row of kernels.incomplete_convolution's input
        self._seller_bits = np.zeros(K, dtype=np.float64)
        self._buyer_bits = np.zeros(K, dtype=np.float64)
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
            self._seller_bits[t - 1] = float(feedback.seller_accepts)
            self._buyer_bits[t - 1] = float(feedback.buyer_accepts)
            self.rounds_done = t
            if t == K:
                scores = kernels.incomplete_convolution(
                    self._seller_bits[None], self._buyer_bits[None], K
                )
                self.commit_index = int(np.argmax(scores[0])) + 1
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

    def __init__(self, horizon: int):
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
    such price is a breakpoint of the empirical mean: 0, 1, a sample's s or
    b, or their midpoint.  The learner keeps one fgft total per breakpoint
    seen so far, in ascending order.  A breakpoint first seen at sample n
    gets its total as one cumsum over samples 1..n from 0.0, and every
    later sample adds its fgft to every total, so each total is formed left
    to right in arrival order, as kernels.fbep_prices forms its scores
    (np.sum would sum pairwise, and Python's sum compensates since 3.12).
    -0.0 and 0.0 are one breakpoint, posted as 0.0.  A pair outside
    [0, 1]^2, or NaN, raises ValueError.
    """

    def __init__(self, horizon: int):
        _count(horizon, "horizon")  # checked only: the samples drive the prices
        self._samples: list[tuple] = []
        self._breakpoints = np.array([0.0, 1.0])
        self._totals = np.zeros(2)
        self._next_price = 0.5

    def propose(self) -> float:
        return self._next_price

    def update(self, feedback) -> None:
        if isinstance(feedback, TwoBitFeedback):
            raise TypeError("follow-best-empirical-price needs full feedback, got two bits")
        s, b = (float(v) for v in feedback)
        check_atoms((np.array([s, b]), "full feedback"))
        self._samples.append((s, b))
        self._totals += fgft_vector(self._breakpoints, s, b)
        points = fgft_candidates([s], [b])  # this sample's breakpoints, 0 and 1 among them
        at = np.searchsorted(self._breakpoints, points)
        fresh = self._breakpoints[at] != points  # at < size: 1.0 is the largest breakpoint
        if fresh.any():
            points, at, samples = points[fresh], at[fresh], np.array(self._samples)
            scores = np.zeros((len(samples) + 1, points.size))  # row 0: the 0.0 each total starts from
            scores[1:] = fgft_vector(points, samples[:, :1], samples[:, 1:])
            self._breakpoints = np.insert(self._breakpoints, at, points)
            self._totals = np.insert(self._totals, at, np.cumsum(scores, axis=0)[-1])
        self._next_price = float(self._breakpoints[np.argmax(self._totals)])


class FixedPrice(Learner):
    """Post one price forever; feedback is ignored."""

    def __init__(self, price: float):
        self.price = _check_price(price)

    def propose(self) -> float:
        return self.price

    def update(self, feedback) -> None:
        pass


class UniformRandom(Learner):
    """Post an independent uniform price each round from an owned stream."""

    def __init__(self, seed: int):
        self.seed = _u64(seed)
        self._stream = SplitMix64(self.seed)

    def propose(self) -> float:
        return self._stream.next_unit()

    def update(self, feedback) -> None:
        pass


# ---------------------------------------------------------------------------
# id parsing / registry
# ---------------------------------------------------------------------------


class LearnerKind(NamedTuple):
    """Everything the package knows of one learner kind.

    ``patterns`` are its id forms, each headed by the kind; ``requires`` is
    the feedback model its updates consume (None: it ignores feedback);
    ``build(T, env, episode, **params)`` makes a fresh Learner for an
    episode of horizon T whose seed is ``episode`` (see LearnerSpec.build),
    taking the spec's parsed parameters as keywords.
    """

    patterns: tuple
    requires: FeedbackModel | None
    build: Callable[..., Learner]


LEARNER_KINDS = {
    "conv-pricing": LearnerKind(
        ("conv-pricing", "conv-pricing:K=<grid size>"),
        FeedbackModel.TWO_BIT,
        lambda T, env, episode, K=None: ConvolutionPricing(T, K),
    ),
    "dbs": LearnerKind(("dbs",), FeedbackModel.TWO_BIT, lambda T, env, episode: DoubleBinarySearch(T)),
    "fbep": LearnerKind(("fbep",), FeedbackModel.FULL, lambda T, env, episode: FollowBestEmpiricalPrice(T)),
    "fixed": LearnerKind(("fixed:p=<price>",), None, lambda T, env, episode, p: FixedPrice(p)),
    "gft-oracle": LearnerKind(("gft-oracle",), None, lambda T, env, episode: FixedPrice(env.joint.gft_price)),
    "uniform": LearnerKind(
        ("uniform:seed=<u64>",),
        None,
        # the one statement of the default seed; harness._uniform_gaps builds through it
        lambda T, env, episode, seed=0: UniformRandom(mix64(seed, episode)),
    ),
}

LEARNER_ID_PATTERNS = tuple(pattern for kind in LEARNER_KINDS.values() for pattern in kind.patterns)


@dataclass(frozen=True)
class LearnerSpec:
    """A parsed learner id: enough to build a fresh instance per episode.

    ``kind`` must be a key of LEARNER_KINDS, else UnknownIdError.
    """

    learner_id: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise UnknownIdError(f"unknown learner kind {self.kind!r}")

    @property
    def requires(self) -> FeedbackModel | None:
        return LEARNER_KINDS[self.kind].requires

    def build(self, horizon: int, env: Environment, episode_seed: int = 0) -> Learner:
        """Fresh learner for one episode.

        ``env`` feeds the gft oracle baseline its target distribution;
        ``episode_seed`` is mixed into the owned stream of the uniform
        baseline so Monte Carlo episodes are independent while reruns of
        the same (seed, episode) stay identical.
        """
        return LEARNER_KINDS[self.kind].build(horizon, env, episode_seed, **self.params)


def parse_learner(learner_id: str) -> LearnerSpec:
    """Resolve a learner id string like 'conv-pricing:K=100' or 'fixed:p=0.5'.

    The spec's learner_id is the canonical form of the id: each parameter
    the id gives is printed from its parsed value (see _format_id), and a
    default it leaves out stays unprinted.
    """
    kind, texts = _parse_id(learner_id, LEARNER_KINDS)
    params = {}
    try:
        if "K" in texts:
            params["K"] = _count(int(texts["K"]), "K")
        if kind == "fixed":
            params["p"] = _check_price(float(texts["p"]))
        if "seed" in texts:
            params["seed"] = _u64(texts["seed"])
    except (KeyError, ValueError) as exc:
        raise UnknownIdError(f"cannot resolve learner id {learner_id!r}: {exc}") from exc
    return LearnerSpec(learner_id=_format_id(kind, **params), kind=kind, params=params)
