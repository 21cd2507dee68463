"""Trading environments: value distributions and the feedback they emit.

An environment is an id and a finite-support joint distribution over
(seller, buyer) values in [0, 1]^2, sampled i.i.d. each round by inverse CDF
over the atom weights in listing order (one uniform draw per round).  An
independent environment is stored as its product joint.  After a price p is
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
* ``random-ind:seed=...`` / ``random-joint:seed=...``: the seeded random
  independent and joint instances behind the rate checks of ``verify``.

Every id an environment prints parses back to the same id and atoms:
``_format_id`` writes ints as ints and floats as the shortest text that
round-trips, and ``_parse_id`` reads that text back.  The constructors take
``float()`` of each float parameter and ``_u64`` of each seed on entry, so
the atoms and the id come from one float64 or int, also when a library
caller passes a NumPy float32 or integer, or an integral float seed.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import FiniteJointDistribution, FiniteMarginal, ValuationPair, product_joint
from .rng import MASK64, SplitMix64


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


@dataclass(frozen=True, eq=False)
class Environment:
    """A named value distribution."""

    env_id: str
    joint: FiniteJointDistribution


def sample_valuations(env: Environment, stream: SplitMix64) -> ValuationPair:
    """Draw one pair by inverse CDF over atom weights (one uniform draw).

    The atom is the first index whose cumulative weight strictly exceeds the
    uniform; the index clamps to the last atom when the cumulative sum
    rounds below 1.
    """
    u = stream.next_unit()
    cum = env.joint.cum
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


def feedback_tables(env: Environment, prices) -> np.ndarray:
    """Exact law of the two acceptance bits at each of n prices, shape (n, 4).

    Column 2v + w of row i is the probability of outcome (v, w) =
    (1{s <= p_i}, 1{p_i <= b}), so the columns follow FEEDBACK_OUTCOMES.
    Each atom adds its weight to one column of every row, in atom listing
    order (so equal mixtures produce bitwise-equal tables).
    """
    prices = np.asarray(prices, dtype=np.float64)
    tables, rows = np.zeros((prices.size, 4)), np.arange(prices.size)
    joint = env.joint
    for s, b, w in zip(joint.sellers, joint.buyers, joint.weights):
        tables[rows, 2 * (s <= prices) + (prices <= b)] += w
    return tables


def feedback_distribution(env: Environment, price: float) -> dict:
    """Exact law of the two acceptance bits at one price: {(v, w): probability},
    the one row of feedback_tables as Python floats."""
    return dict(zip(FEEDBACK_OUTCOMES, feedback_tables(env, [price])[0].tolist()))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def deterministic(seller: float, buyer: float) -> Environment:
    """Point mass on one (seller, buyer) pair."""
    seller, buyer = float(seller), float(buyer)  # the atom and the id read one float64
    joint = FiniteJointDistribution([((seller, buyer), 1.0)])
    return Environment(env_id=_format_id("det", s=seller, b=buyer), joint=joint)


def independent_finite(
    seller: FiniteMarginal, buyer: FiniteMarginal, env_id: str = "independent"
) -> Environment:
    """Independent seller/buyer marginals, materialized as a product joint."""
    return Environment(env_id, product_joint(seller, buyer))


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
    h = float(h)
    if not (0.0 < h < 0.5):
        raise ValueError(f"h must lie in (0, 1/2), got {h!r}")
    seller = FiniteMarginal([0.0, 1.0 - h], [0.5, 0.5])
    buyer = FiniteMarginal([1.0], [1.0])
    return independent_finite(seller, buyer, env_id=_format_id("gft-trap", h=h))


def epsilon_family(eps: float) -> Environment:
    """Two-atom seller (0 or 1/4) against a unit-value buyer.

    Seller weights are (1+eps)/2 on 0 and (1-eps)/2 on 1/4 for
    eps in [-1, 1]; atoms with zero weight are dropped at |eps| = 1.
    """
    eps = float(eps)
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
    return independent_finite(seller, buyer, env_id=_format_id("eps-family", eps=eps))


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


def _rand_int(stream: SplitMix64, lo: int, hi: int) -> int:
    return lo + int(stream.next_u64() % (hi - lo + 1))


def random_marginal(
    stream: SplitMix64, n_atoms: int, lo: float = 0.0, hi: float = 1.0
) -> FiniteMarginal:
    """Finite marginal with distinct uniform values and positive weights."""
    values: list = []
    while len(values) < n_atoms:
        v = lo + (hi - lo) * stream.next_unit()
        if v not in values:
            values.append(v)
    raw = [0.1 + stream.next_unit() for _ in range(n_atoms)]
    total = sum(raw)
    return FiniteMarginal(values, [w / total for w in raw])


def random_independent_env(seed: int) -> Environment:
    """Independent pair with seller support below buyer support.

    The separation keeps the optimal expected reward bounded away from zero
    so regret curves stay strictly positive (a precondition of log-log
    exponent fits).
    """
    seed = _u64(seed)
    stream = SplitMix64(seed)
    n_s = _rand_int(stream, 2, 5)
    n_b = _rand_int(stream, 2, 5)
    seller = random_marginal(stream, n_s, 0.0, 0.45)
    buyer = random_marginal(stream, n_b, 0.55, 1.0)
    return independent_finite(seller, buyer, env_id=_format_id("random-ind", seed=seed))


def random_joint_env(seed: int) -> Environment:
    """Finite joint with 3..6 distinct uniform atoms (dependence allowed).

    Atom sets are redrawn until some atom has buyer at least 0.1 above
    seller, keeping the optimal expected reward away from zero (an all
    seller-above-buyer draw would make every price score exactly zero and
    break regret-positivity preconditions downstream).
    """
    seed = _u64(seed)
    stream = SplitMix64(seed)
    n = _rand_int(stream, 3, 6)
    while True:
        pairs: list = []
        while len(pairs) < n:
            pair = (stream.next_unit(), stream.next_unit())
            if pair not in pairs:
                pairs.append(pair)
        if max(b - s for s, b in pairs) >= 0.1:
            break
    raw = [0.1 + stream.next_unit() for _ in range(n)]
    total = sum(raw)
    dist = FiniteJointDistribution([(p, w / total) for p, w in zip(pairs, raw)])
    return joint_finite(dist, env_id=_format_id("random-joint", seed=seed))


# ---------------------------------------------------------------------------
# id parsing / registry
# ---------------------------------------------------------------------------

ENVIRONMENT_ID_PATTERNS = (
    "lb-mu",
    "lb-nu",
    "gft-trap:h=<h in (0, 1/2)>",
    "eps-family:eps=<eps in [-1, 1]>",
    "det:s=<seller>,b=<buyer>",
    "random-ind:seed=<u64>",
    "random-joint:seed=<u64>",
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


def _format_id(kind: str, **params) -> str:
    """The id ``_parse_id`` reads back: ints as ints, floats as their shortest round-trip text."""
    fields = (
        f"{key}={value if isinstance(value, int) else np.format_float_positional(value, trim='-')}"
        for key, value in params.items()
    )
    return f"{kind}:" + ",".join(fields)


def _whole(value, name: str) -> int:
    """A number that must be whole: an int or NumPy integer (not a bool), or an
    integral finite float."""
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _u64(value, name: str = "seed") -> int:
    """A seed: an integer in [0, 2**64), given as id text or as a whole number (see _whole)."""
    seed = int(value) if isinstance(value, str) else _whole(value, name)
    if not 0 <= seed <= MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")
    return seed


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
        if kind == "random-ind":
            return random_independent_env(_u64(params["seed"]))
        if kind == "random-joint":
            return random_joint_env(_u64(params["seed"]))
        return deterministic(float(params["s"]), float(params["b"]))  # det, the last kind
    except (KeyError, ValueError) as exc:
        raise UnknownIdError(f"cannot resolve environment id {env_id!r}: {exc}") from exc


def _number_rows(rows, width: int, what: str) -> np.ndarray:
    """Rows of ``width`` JSON numbers (ints or floats, not bools), as a (rows, width) array.

    Anything else, or an int too large for a float, raises UnknownIdError.
    """
    ok = isinstance(rows, list) and all(isinstance(row, list) and len(row) == width for row in rows)
    if not ok or any(type(x) not in (int, float) for row in rows for x in row):
        raise UnknownIdError(f"{what} takes rows of {width} numbers, got {rows!r}")
    try:
        return np.array(rows, dtype=np.float64).reshape(-1, width)
    except OverflowError:
        raise UnknownIdError(f"{what} holds an integer too large for a float") from None


def env_from_config(obj) -> Environment:
    """Resolve an environment from a config entry.

    Accepts an id string, or an inline object with exactly one of
    ``{"joint": [[s, b, w], ...]}`` and
    ``{"independent": {"seller": [[v, w], ...], "buyer": [[v, w], ...]}}``,
    plus an optional string ``"id"``; any other key, and any row that is
    not a list of that many numbers, is an error.
    """
    if isinstance(obj, str):
        return parse_env(obj)
    forms = {"joint", "independent"} & set(obj) if isinstance(obj, dict) else set()
    if len(forms) != 1 or set(obj) - forms - {"id"} or not isinstance(obj.get("id", ""), str):
        raise UnknownIdError(f"cannot interpret environment config entry {obj!r}")
    if "joint" in obj:
        atoms = [((s, b), w) for s, b, w in _number_rows(obj["joint"], 3, "joint").tolist()]
        return joint_finite(FiniteJointDistribution(atoms), env_id=obj.get("id") or "joint")
    spec = obj["independent"]
    if not isinstance(spec, dict) or set(spec) != {"seller", "buyer"}:
        raise UnknownIdError(f"an independent environment takes exactly 'seller' and 'buyer', got {spec!r}")
    seller, buyer = (
        FiniteMarginal(*_number_rows(spec[side], 2, side).T) for side in ("seller", "buyer")
    )
    return independent_finite(seller, buyer, env_id=obj.get("id") or "independent")
