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
  Each random family's draw is written once, as a function from a stream
  to an instance's columns (_marginal_atoms, _joint_atoms), which the
  distribution constructors and atom_rows take as they are;
  random_joint_rows draws many joints at once, as rows of atoms, with no
  environment built.

Each kind is declared once, as a row of ENVIRONMENT_KINDS: its id pattern
and its constructor.

Every id an environment prints parses back to the same id and atoms:
``_format_id`` writes ints as ints and floats as the shortest text that
round-trips, and ``_parse_id`` reads that text back.  The constructors take
``float()`` of each float parameter and ``_u64`` of each seed on entry, so
the atoms and the id come from one float64 or int, also when a library
caller passes a NumPy float32 or integer, or an integral float seed.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import FiniteJointDistribution, FiniteMarginal, ValuationPair, atom_rows, product_joint
from .rng import SplitMix64, _u64, row_streams


class FeedbackModel(enum.Enum):
    TWO_BIT = "two-bit"
    FULL = "full"


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
    joint = FiniteJointDistribution([seller], [buyer], [1.0])
    return Environment(env_id=_format_id("det", s=seller, b=buyer), joint=joint)


def lb_mu() -> Environment:
    """First member of the indistinguishable pair; optimal price 5/16."""
    joint = FiniteJointDistribution([0.0, 3.0 / 8.0, 5.0 / 8.0], [5.0 / 8.0, 3.0 / 8.0, 1.0], [1.0 / 3.0] * 3)
    return Environment(env_id="lb-mu", joint=joint)


def lb_nu() -> Environment:
    """Second member of the indistinguishable pair; optimal price 11/16."""
    joint = FiniteJointDistribution([0.0, 3.0 / 8.0, 5.0 / 8.0], [3.0 / 8.0, 1.0, 5.0 / 8.0], [1.0 / 3.0] * 3)
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
    return Environment(_format_id("gft-trap", h=h), product_joint(seller, buyer))


def epsilon_family(eps: float) -> Environment:
    """Two-atom seller (0 or 1/4) against a unit-value buyer.

    Seller weights are (1+eps)/2 on 0 and (1-eps)/2 on 1/4 for
    eps in [-1, 1]; atoms with zero weight are dropped at |eps| = 1.
    """
    eps = float(eps)
    if not (-1.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [-1, 1], got {eps!r}")
    atoms = [(v, w) for v, w in ((0.0, (1.0 + eps) / 2.0), (0.25, (1.0 - eps) / 2.0)) if w > 0.0]
    seller = FiniteMarginal(*zip(*atoms))
    buyer = FiniteMarginal([1.0], [1.0])
    return Environment(_format_id("eps-family", eps=eps), product_joint(seller, buyer))


def epsilon_family_expected_fgft(eps: float, p):
    """Closed-form expected fgft of the eps family at each price of p.

    Piecewise in p with breakpoints 1/4, 1/2, 5/8; maximized at 1/2 with
    value (3+eps)/8 when eps > 0 and at 5/8 with value 3/8 when eps < 0
    (the whole segment [1/2, 5/8] is optimal at eps = 0).  A scalar p gives
    a float, an array of prices an array of its shape; each piece is the
    same float expression either way.
    """
    if not (-1.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [-1, 1], got {eps!r}")
    prices = np.asarray(p, dtype=np.float64)
    if not np.all((prices >= 0.0) & (prices <= 1.0)):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    base = (1.0 + eps) / 8.0
    values = np.select(
        [prices < 0.25, prices < 0.5, prices < 0.625],
        [(1.0 + eps) / 2.0 * prices, base + (prices - 0.25), base + 0.25 + eps * (0.5 - prices)],
        base + 0.25 - eps / 8.0 + (0.625 - prices),
    )
    return float(values) if values.ndim == 0 else values


def _rand_int(stream: SplitMix64, lo: int, hi: int) -> int:
    return lo + int(stream.next_u64() % (hi - lo + 1))


def _marginal_atoms(stream: SplitMix64, size: int, lo: float = 0.0, hi: float = 1.0) -> tuple:
    """The draw of random_marginal: lists of ``size`` distinct uniform values
    in [lo, hi), redrawn on a repeat, and of their weights, positive and
    normalized; 2 * size draws when no value repeats."""
    values: list = []
    while len(values) < size:
        v = lo + (hi - lo) * stream.next_unit()
        if v not in values:
            values.append(v)
    raw = [0.1 + stream.next_unit() for _ in range(size)]
    total = sum(raw)
    return values, [w / total for w in raw]


def random_marginal(stream: SplitMix64, size: int, lo: float = 0.0, hi: float = 1.0) -> FiniteMarginal:
    """Finite marginal with ``size`` distinct uniform values and positive weights."""
    return FiniteMarginal(*_marginal_atoms(stream, size, lo, hi))


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
    return Environment(_format_id("random-ind", seed=seed), product_joint(seller, buyer))


# draws of a random joint without a redraw: its size, then 6 pairs and 6 weights at most
_JOINT_DRAWS = 1 + 3 * 6


def _joint_atoms(stream: SplitMix64) -> tuple:
    """The draw of random_joint_env: lists of its sellers, buyers and weights.

    3..6 distinct uniform pairs, a repeated pair redrawn, and the whole
    set redrawn until some pair has its buyer at least 0.1 above its
    seller; then positive normalized weights.
    """
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
    sellers, buyers = zip(*pairs)
    return list(sellers), list(buyers), [w / total for w in raw]


def random_joint_env(seed: int) -> Environment:
    """Finite joint with 3..6 distinct uniform atoms (dependence allowed).

    Atom sets are redrawn until some atom has buyer at least 0.1 above
    seller, keeping the optimal expected reward away from zero (an all
    seller-above-buyer draw would make every price score exactly zero and
    break regret-positivity preconditions downstream).
    """
    seed = _u64(seed)
    dist = FiniteJointDistribution(*_joint_atoms(SplitMix64(seed)))
    return Environment(_format_id("random-joint", seed=seed), dist)


def random_joint_rows(seeds) -> tuple:
    """The atoms of random_joint_env(seed) for every seed, as rows of 6 atoms.

    Returns core.atom_rows's sellers, buyers, weights and atom counts.
    Each seed's stream is a rng.RowStream whose first _JOINT_DRAWS words
    come from one draw_rows pass over all seeds, so no instance takes a
    scalar draw unless it redraws.
    """
    streams = row_streams([_u64(seed) for seed in seeds], _JOINT_DRAWS)
    return atom_rows([_joint_atoms(stream) for stream in streams], 6)


# ---------------------------------------------------------------------------
# id parsing / registry
# ---------------------------------------------------------------------------

class EnvironmentKind(NamedTuple):
    """One environment kind: its id patterns, each headed by the kind, and
    its constructor, called with the id's {key: value text} as keywords
    (every constructor takes float() or _u64 of its parameters on entry)."""

    patterns: tuple
    build: Callable[..., Environment]


ENVIRONMENT_KINDS = {
    "lb-mu": EnvironmentKind(("lb-mu",), lb_mu),
    "lb-nu": EnvironmentKind(("lb-nu",), lb_nu),
    "gft-trap": EnvironmentKind(("gft-trap:h=<h in (0, 1/2)>",), gft_trap),
    "eps-family": EnvironmentKind(("eps-family:eps=<eps in [-1, 1]>",), epsilon_family),
    "det": EnvironmentKind(("det:s=<seller>,b=<buyer>",), lambda s, b: deterministic(s, b)),
    "random-ind": EnvironmentKind(("random-ind:seed=<u64>",), random_independent_env),
    "random-joint": EnvironmentKind(("random-joint:seed=<u64>",), random_joint_env),
}

ENVIRONMENT_ID_PATTERNS = tuple(pattern for kind in ENVIRONMENT_KINDS.values() for pattern in kind.patterns)


class UnknownIdError(ValueError):
    """An environment or learner id that does not resolve."""


def _parse_id(spec_id, kinds) -> tuple:
    """Split ``kind:key=value,...`` into (kind, {key: value text}).

    ``kinds`` maps each kind to a row whose ``patterns`` are its grammar:
    the kind must be a key and each key must appear, at most once, in a
    pattern of that kind.
    """
    if not isinstance(spec_id, str):
        raise UnknownIdError(f"an id must be a string, got {spec_id!r}")
    kind, _, tail = spec_id.partition(":")
    if kind not in kinds:
        raise UnknownIdError(f"unknown id {spec_id!r}")
    keys = {key for pattern in kinds[kind].patterns for key in re.findall(r"(\w+)=<", pattern)}
    params = {}
    for chunk in tail.split(",") if tail else ():
        key, eq, value = (part.strip() for part in chunk.partition("="))
        if not eq or key not in keys or key in params:
            allowed = f"only {', '.join(sorted(keys))}, each once" if keys else "no parameters"
            raise UnknownIdError(f"bad parameter {chunk!r} in {spec_id!r}: {kind} takes {allowed}")
        params[key] = value
    return kind, params


def _format_id(kind: str, **params) -> str:
    """The id ``_parse_id`` reads back: ints as ints, floats as their shortest
    round-trip text, and a kind without parameters bare."""
    fields = ",".join(
        f"{key}={value if isinstance(value, int) else np.format_float_positional(value, trim='-')}"
        for key, value in params.items()
    )
    return f"{kind}:{fields}" if fields else kind


def parse_env(env_id: str) -> Environment:
    """Resolve an environment id string like 'gft-trap:h=0.1'."""
    kind, params = _parse_id(env_id, ENVIRONMENT_KINDS)
    try:
        return ENVIRONMENT_KINDS[kind].build(**params)
    except (TypeError, ValueError) as exc:  # TypeError: a parameter is missing
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
    plus an optional string ``"id"``; any other key, any row that is not a
    list of that many numbers, and an id of a registered kind (which would
    rerun as that environment) is an error.
    """
    if isinstance(obj, str):
        return parse_env(obj)
    forms = {"joint", "independent"} & set(obj) if isinstance(obj, dict) else set()
    if len(forms) != 1 or set(obj) - forms - {"id"} or not isinstance(obj.get("id", ""), str):
        raise UnknownIdError(f"cannot interpret environment config entry {obj!r}")
    if obj.get("id", "").partition(":")[0] in ENVIRONMENT_KINDS:
        raise UnknownIdError(f"inline environment id {obj['id']!r} names a registered environment")
    if "joint" in obj:
        joint = FiniteJointDistribution(*_number_rows(obj["joint"], 3, "joint").T)
        return Environment(obj.get("id") or "joint", joint)
    spec = obj["independent"]
    if not isinstance(spec, dict) or set(spec) != {"seller", "buyer"}:
        raise UnknownIdError(f"an independent environment takes exactly 'seller' and 'buyer', got {spec!r}")
    seller, buyer = (
        FiniteMarginal(*_number_rows(spec[side], 2, side).T) for side in ("seller", "buyer")
    )
    return Environment(obj.get("id") or "independent", product_joint(seller, buyer))
