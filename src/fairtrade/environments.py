"""Trading environments: value distributions and the feedback they emit.

An environment is a finite-support joint distribution over (seller, buyer)
values in [0, 1]^2, sampled i.i.d. each round by inverse CDF over the atom
weights in listing order (one uniform draw per round).  After a price p is
posted the platform observes either

* two-bit feedback: the acceptance indicators (1{s <= p}, 1{p <= b}), or
* full feedback: the realized pair (s, b) itself.

Named instances:

* ``lb-mu`` / ``lb-nu``: two three-atom joints whose two-bit feedback laws
  coincide at every price although their optimal fixed prices sit on
  opposite sides of 1/2 (the pair behind the linear-regret lower bound for
  price-only feedback).
* ``gft-trap:h=...``: raw gain from trade is maximized only by prices in
  [1-h, 1], where the fair reward is at most h/2; a gft-greedy baseline
  therefore forfeits 1/4 - h/2 per round against the fair optimum.
* ``eps-family:eps=...``: seller is 0 or 1/4 with weights (1+eps)/2 and
  (1-eps)/2, buyer is 1.  The sign of eps moves the optimal price across
  9/16 while small |eps| keeps the two members statistically close;
  ``epsilon_family_expected_fgft`` is the closed-form mean reward.
* ``det:s=...,b=...``: a single deterministic pair.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    FiniteJointDistribution,
    FiniteMarginal,
    ValuationPair,
    gft_candidates,
    product_joint,
)
from .rng import SplitMix64


class FeedbackModel(enum.Enum):
    TWO_BIT = "two-bit"
    FULL = "full"

    @classmethod
    def parse(cls, text: str) -> "FeedbackModel":
        for model in cls:
            if model.value == text:
                return model
        raise ValueError(f"unknown feedback model {text!r}; use 'two-bit' or 'full'")


class TwoBitFeedback(NamedTuple):
    """Acceptance indicators (1{s <= p}, 1{p <= b}) of one round."""

    seller_accepts: int
    buyer_accepts: int


# Full feedback is the realized pair itself.
FullObservation = ValuationPair


@dataclass(frozen=True, eq=False)
class Environment:
    """A named value distribution plus cached sampling tables."""

    env_id: str
    joint: FiniteJointDistribution
    seller_marginal: FiniteMarginal | None = None
    buyer_marginal: FiniteMarginal | None = None

    def __post_init__(self):
        object.__setattr__(self, "_cum", self.joint.cumulative_weights())

    @property
    def cumulative_weights(self) -> np.ndarray:
        return self._cum

    @property
    def is_independent(self) -> bool:
        return self.seller_marginal is not None


def sample_valuations(env: Environment, stream: SplitMix64) -> ValuationPair:
    """Draw one pair by inverse CDF over atom weights (one uniform draw).

    The atom is the first index whose cumulative weight strictly exceeds the
    uniform; the index clamps to the last atom when the cumulative sum
    rounds below 1.
    """
    u = stream.next_unit()
    cum = env.cumulative_weights
    j = int(np.searchsorted(cum, u, side="right"))
    if j >= cum.size:
        j = cum.size - 1
    return env.joint.atom(j)


def render_feedback(model: FeedbackModel, price: float, pair: ValuationPair):
    """What the platform observes after posting ``price`` against ``pair``."""
    if model is FeedbackModel.FULL:
        return pair
    return TwoBitFeedback(int(pair.seller <= price), int(price <= pair.buyer))


FEEDBACK_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def feedback_distribution(env: Environment, price: float) -> dict:
    """Exact law of the two acceptance bits at one price.

    Returns {(v, w): probability} over the four outcomes, accumulated in
    atom listing order (so equal mixtures produce bitwise-equal tables).
    """
    table = {outcome: 0.0 for outcome in FEEDBACK_OUTCOMES}
    joint = env.joint
    for s, b, w in zip(joint.sellers, joint.buyers, joint.weights):
        key = (int(s <= price), int(price <= b))
        table[key] += w
    return table


def feedback_region_prices(env: Environment) -> np.ndarray:
    """Representative prices for this environment's feedback regions.

    The bit indicators change value only at support coordinates, and only
    pointwise there, so the law is constant on each coordinate and on each
    open interval between consecutive coordinates: the same pieces on which
    expected gft is constant, so core.gft_candidates covers them.
    """
    return gft_candidates(env.joint.sellers, env.joint.buyers)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def deterministic(seller: float, buyer: float) -> Environment:
    """Point mass on one (seller, buyer) pair."""
    joint = FiniteJointDistribution([((seller, buyer), 1.0)])
    return Environment(
        env_id=f"det:s={seller:g},b={buyer:g}",
        joint=joint,
        seller_marginal=FiniteMarginal([seller], [1.0]),
        buyer_marginal=FiniteMarginal([buyer], [1.0]),
    )


def independent_finite(
    seller: FiniteMarginal, buyer: FiniteMarginal, env_id: str = "independent"
) -> Environment:
    """Independent seller/buyer marginals, materialized as a product joint."""
    return Environment(
        env_id=env_id,
        joint=product_joint(seller, buyer),
        seller_marginal=seller,
        buyer_marginal=buyer,
    )


def joint_finite(dist: FiniteJointDistribution, env_id: str = "joint") -> Environment:
    """Arbitrary finite joint (dependence allowed)."""
    return Environment(env_id=env_id, joint=dist)


def lb_mu() -> Environment:
    """First member of the indistinguishable pair; optimal price 5/16."""
    joint = FiniteJointDistribution(
        [
            ((0.0, 5.0 / 8.0), 1.0 / 3.0),
            ((3.0 / 8.0, 3.0 / 8.0), 1.0 / 3.0),
            ((5.0 / 8.0, 1.0), 1.0 / 3.0),
        ]
    )
    return Environment(env_id="lb-mu", joint=joint)


def lb_nu() -> Environment:
    """Second member of the indistinguishable pair; optimal price 11/16."""
    joint = FiniteJointDistribution(
        [
            ((0.0, 3.0 / 8.0), 1.0 / 3.0),
            ((3.0 / 8.0, 1.0), 1.0 / 3.0),
            ((5.0 / 8.0, 5.0 / 8.0), 1.0 / 3.0),
        ]
    )
    return Environment(env_id="lb-nu", joint=joint)


def gft_trap(h: float) -> Environment:
    """Seller 0 or 1-h with equal odds against a unit-value buyer.

    Every gft-maximizing price lies in [1-h, 1] and earns fair reward at
    most h/2, while price 1/2 earns 1/4.
    """
    if not (0.0 < h < 0.5):
        raise ValueError(f"h must lie in (0, 1/2), got {h!r}")
    seller = FiniteMarginal([0.0, 1.0 - h], [0.5, 0.5])
    buyer = FiniteMarginal([1.0], [1.0])
    env = independent_finite(seller, buyer, env_id=f"gft-trap:h={h:g}")
    return env


def epsilon_family(eps: float) -> Environment:
    """Two-atom seller (0 or 1/4) against a unit-value buyer.

    Seller weights are (1+eps)/2 on 0 and (1-eps)/2 on 1/4 for
    eps in [-1, 1]; atoms with zero weight are dropped at |eps| = 1.
    """
    if not (-1.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [-1, 1], got {eps!r}")
    values, weights = [], []
    w0 = (1.0 + eps) / 2.0
    w1 = (1.0 - eps) / 2.0
    if w0 > 0.0:
        values.append(0.0)
        weights.append(w0)
    if w1 > 0.0:
        values.append(0.25)
        weights.append(w1)
    seller = FiniteMarginal(values, weights)
    buyer = FiniteMarginal([1.0], [1.0])
    return independent_finite(seller, buyer, env_id=f"eps-family:eps={eps:g}")


def epsilon_family_expected_fgft(eps: float, p: float) -> float:
    """Closed-form expected fgft of the eps family at one price.

    Piecewise in p with breakpoints 1/4, 1/2, 5/8; maximized at 1/2 with
    value (3+eps)/8 when eps > 0 and at 5/8 with value 3/8 when eps < 0
    (the whole segment [1/2, 5/8] is optimal at eps = 0).
    """
    if not (-1.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [-1, 1], got {eps!r}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if p < 0.25:
        return (1.0 + eps) / 2.0 * p
    if p < 0.5:
        return (1.0 + eps) / 8.0 + (p - 0.25)
    if p < 0.625:
        return (1.0 + eps) / 8.0 + 0.25 + eps * (0.5 - p)
    return (1.0 + eps) / 8.0 + 0.25 - eps / 8.0 + (0.625 - p)


# ---------------------------------------------------------------------------
# id parsing / registry
# ---------------------------------------------------------------------------

ENVIRONMENT_ID_PATTERNS = (
    "lb-mu",
    "lb-nu",
    "gft-trap:h=<h in (0, 1/2)>",
    "eps-family:eps=<eps in [-1, 1]>",
    "det:s=<seller>,b=<buyer>",
)


class UnknownIdError(ValueError):
    """An environment or learner id that does not resolve."""


def _parse_id(spec_id, patterns) -> tuple:
    """Split ``kind:key=value,...`` into (kind, {key: value text}).

    The patterns are the grammar: the kind must head one of them and each
    key must appear, at most once, in a pattern of that kind.
    """
    if not isinstance(spec_id, str):
        raise UnknownIdError(f"an id must be a string, got {spec_id!r}")
    kind, _, tail = spec_id.partition(":")
    grammar = [pattern.partition(":") for pattern in patterns]
    if kind not in {head for head, _, _ in grammar}:
        raise UnknownIdError(f"unknown id {spec_id!r}")
    keys = {key for head, _, form in grammar if head == kind for key in re.findall(r"(\w+)=<", form)}
    params = {}
    for chunk in tail.split(",") if tail else ():
        key, eq, value = (part.strip() for part in chunk.partition("="))
        if not eq or key not in keys or key in params:
            allowed = f"only {', '.join(sorted(keys))}, each once" if keys else "no parameters"
            raise UnknownIdError(f"bad parameter {chunk!r} in {spec_id!r}: {kind} takes {allowed}")
        params[key] = value
    return kind, params


def parse_env(env_id: str) -> Environment:
    """Resolve an environment id string like 'gft-trap:h=0.1'."""
    kind, params = _parse_id(env_id, ENVIRONMENT_ID_PATTERNS)
    try:
        if kind == "lb-mu":
            return lb_mu()
        if kind == "lb-nu":
            return lb_nu()
        if kind == "gft-trap":
            return gft_trap(float(params["h"]))
        if kind == "eps-family":
            return epsilon_family(float(params["eps"]))
        return deterministic(float(params["s"]), float(params["b"]))  # det, the last kind
    except (KeyError, ValueError) as exc:
        raise UnknownIdError(f"cannot resolve environment id {env_id!r}: {exc}") from exc


def env_from_config(obj) -> Environment:
    """Resolve an environment from a config entry.

    Accepts an id string, or an inline object with exactly one of
    ``{"joint": [[s, b, w], ...]}`` and
    ``{"independent": {"seller": [[v, w], ...], "buyer": [[v, w], ...]}}``,
    plus an optional string ``"id"``; any other key is an error.
    """
    if isinstance(obj, str):
        return parse_env(obj)
    forms = {"joint", "independent"} & set(obj) if isinstance(obj, dict) else set()
    if len(forms) != 1 or set(obj) - forms - {"id"} or not isinstance(obj.get("id", ""), str):
        raise UnknownIdError(f"cannot interpret environment config entry {obj!r}")
    if "joint" in obj:
        atoms = [((float(s), float(b)), float(w)) for s, b, w in obj["joint"]]
        return joint_finite(FiniteJointDistribution(atoms), env_id=obj.get("id") or "joint")
    spec = obj["independent"]
    seller, buyer = (
        FiniteMarginal([float(v) for v, _ in spec[side]], [float(w) for _, w in spec[side]])
        for side in ("seller", "buyer")
    )
    return independent_finite(seller, buyer, env_id=obj.get("id") or "independent")
