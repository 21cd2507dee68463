"""Episode execution, exact pseudo-regret accounting, and aggregation.

The reference loop (run_episode) drives a learner round by round against a
sampled environment and returns the full trajectory.  Monte Carlo runs,
point-mass profiles and worst-case sweeps instead take price profiles
(exploration prices, then a constant tail) from one path, _price_profile,
built on the kernels module, which reproduces the reference loop's price
sequence (identical splitmix64 draws, identical accumulation order), and
score them with one formula, _profile_regret, so desk-scale horizons stay
cheap.  Both work on rows only: all episodes of a Monte Carlo cell, or a
batch of up to POINT_BLOCK point masses, go through one array pass (fbep
and uniform, whose row is the whole horizon, take one episode per pass),
and exploration every row shares, such as the grid learner's sweep, is
one row scored once.  A point mass is the one-atom environment: every
draw lands on its atom, so a _PointMasses batch takes no draws and builds
no environment.

Regret is always pseudo-regret: conditioning on the posted prices, every
round contributes v_star - E[fgft(p_t)] with both terms exact under the
finite-support environment.  Both terms come from one evaluator,
kernels.expected_fgft_at (core.best_fixed_price_fgft scores its candidates
with it), so a fixed price at the optimum has regret exactly 0.  This is an
unbiased estimator of the expected regret with strictly smaller variance
than realized-reward differences.

Seeding: episode e of a run with base seed B draws from a splitmix64 stream
seeded with mix64(B, e) (three multiply-xorshift rounds, identical on every
platform), so episodes are independent and reproducible.  Episodes run
sequentially, in index order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algorithms import (
    ConvolutionPricing,
    LearnerSpec,
    dbs_phase_length,
    parse_learner,
)
from .core import (
    best_fixed_price_fgft,
    best_fixed_price_gft,
    fgft,
    fgft_candidates,
    fgft_vector,
    gft_candidates,
)
from .environments import (
    FEEDBACK_OUTCOMES,
    Environment,
    FeedbackModel,
    TwoBitFeedback,
    deterministic,  # noqa: F401
    feedback_distribution,
    lb_mu,
    lb_nu,
    render_feedback,
    sample_valuations,
)
from .rng import MASK64, SplitMix64, mix64

# Points per array pass of profile_regret: bounds its scratch arrays to
# POINT_BLOCK x (exploration length) doubles.
POINT_BLOCK = 1024

# Point masses build no environment (see _PointMasses); the deterministic
# name stays importable because the benchmark's tracer wraps
# harness.deterministic.


class FeedbackMismatchError(ValueError):
    """Learner and feedback model cannot be reconciled (config error)."""


def resolve_feedback(
    requires: FeedbackModel | None,
    requested: FeedbackModel | None,
    strict: bool = False,
) -> tuple[FeedbackModel, FeedbackModel]:
    """Reconcile a learner's feedback requirement with the run's model.

    Returns (run model, what the learner's update receives).  Two bits are
    derivable from a full observation, so a two-bit learner may run under
    the full model unless strict mode forbids the silent derivation; a
    full-feedback learner can never run under the two-bit model.
    """
    run_model = requested or requires or FeedbackModel.TWO_BIT
    if requires is FeedbackModel.FULL and run_model is not FeedbackModel.FULL:
        raise FeedbackMismatchError(
            "learner needs full feedback but the run uses the two-bit model"
        )
    if requires is FeedbackModel.TWO_BIT and run_model is FeedbackModel.FULL and strict:
        raise FeedbackMismatchError(
            "strict feedback: two-bit learner under the full model "
            "(drop --strict-feedback to derive the bits)"
        )
    return run_model, (requires or run_model)


def _whole(value, name: str) -> int:
    """A config number that must be whole: an int or NumPy integer (not a bool),
    or an integral finite float."""
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _horizons(values) -> list:
    """A run's horizons: whole numbers, at least one, strictly increasing."""
    hs = [_whole(t, "horizon") for t in values]
    if not hs:
        raise ValueError("a run needs at least one horizon")
    if any(a >= b for a, b in zip(hs, hs[1:])):
        raise ValueError(f"horizons must be strictly increasing, got {hs}")
    return hs


@dataclass(frozen=True)
class RunConfig:
    """One experiment cell: a learner on an environment at one horizon."""

    env: Environment
    learner: LearnerSpec
    horizon: int
    n_episodes: int = 1
    base_seed: int = 0
    feedback: FeedbackModel | None = None
    strict_feedback: bool = False

    def __post_init__(self):
        for name in ("horizon", "n_episodes", "base_seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon!r}")
        if self.n_episodes < 1:
            raise ValueError(f"n_episodes must be >= 1, got {self.n_episodes!r}")
        if not 0 <= self.base_seed <= MASK64:
            raise ValueError(f"base_seed must lie in [0, 2**64), got {self.base_seed!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One episode: posted prices, realized rewards, and the sampled pairs."""

    prices: np.ndarray
    rewards: np.ndarray
    sellers: np.ndarray
    buyers: np.ndarray

    @property
    def total_reward(self) -> float:
        return float(np.sum(self.rewards))


@dataclass(frozen=True)
class RegretCurve:
    """Mean pseudo-regret (with standard errors) across horizons."""

    learner_id: str
    env_id: str
    horizons: tuple
    means: tuple
    stderrs: tuple
    n_episodes: int


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log mean regret against log horizon."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Worst case of a deterministic learner over a seller-value grid."""

    learner_id: str
    horizon: int
    buyer: float
    s_values: np.ndarray
    regrets: np.ndarray
    max_regret: float
    argmax_s: float


@dataclass(frozen=True)
class IndistinguishabilityReport:
    """Exact feedback-law comparison of the lower-bound pair."""

    prices_checked: tuple
    max_table_gap: float
    tables_equal: bool
    coupled_trajectories_equal: bool


class _EnvTables:
    """Cached per-environment oracle data for fast regret evaluation."""

    def __init__(self, env: Environment):
        joint = env.joint
        self.env = env
        self.cum = env.cumulative_weights
        self.sellers = joint.sellers
        self.buyers = joint.buyers
        self.weights = joint.weights
        self.v_star = best_fixed_price_fgft(joint).value

    def mean_at(self, prices) -> np.ndarray:
        return kernels.expected_fgft_at(prices, self.sellers, self.buyers, self.weights)

    def draw(self, seeds, n: int) -> tuple:
        """(seller values, buyer values) of rounds 1..n, one row per episode seed."""
        sellers, buyers = np.empty((len(seeds), n)), np.empty((len(seeds), n))
        for row, seed in enumerate(seeds):
            j = kernels._sample_atoms(seed, self.cum, n)
            sellers[row], buyers[row] = self.sellers[j], self.buyers[j]
        return sellers, buyers

    @functools.cached_property
    def gft_price(self) -> float:
        """The gft oracle's fixed price, found once per environment."""
        return best_fixed_price_gft(self.env.joint).price

    @functools.cached_property
    def fbep(self) -> tuple:
        """fbep's (candidates, rewards), built on first use only.

        The candidates are every breakpoint the empirical mean can have
        under this environment; rewards[m, j] = fgft(candidates[m], atom j).
        """
        cands = fgft_candidates(self.sellers, self.buyers)
        return cands, fgft_vector(cands[:, None], self.sellers, self.buyers)


class _PointMasses(_EnvTables):
    """A batch of one-atom environments, one row per (seller, buyer) point.

    Every draw lands on a point's atom, so draw() yields the values
    themselves and takes no random draws.  The atoms are per-row atoms of
    kernels.expected_fgft_at; v* is the best of the candidates
    {0, 1, s, b, (s+b)/2} and the gft oracle posts s when s < b, else 0,
    exactly what core.best_fixed_price_fgft and best_fixed_price_gft find
    on one atom.
    """

    def __init__(self, sellers: np.ndarray, buyers: np.ndarray):
        # written so that NaN fails every check
        for arr, name in ((sellers, "seller values"), (buyers, "buyer values")):
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise ValueError(f"{name} must lie in [0, 1]")
        self.sellers, self.buyers = sellers[:, None], buyers[:, None]
        self.weights = np.ones_like(self.sellers)
        mids = (sellers + buyers) / 2.0
        cands = np.column_stack([np.zeros_like(mids), np.ones_like(mids), sellers, buyers, mids])
        self.v_star = np.max(self.mean_at(cands), axis=1)
        self.gft_price = np.where(sellers < buyers, sellers, 0.0)

    def draw(self, seeds, n: int) -> tuple:
        shape = (self.sellers.shape[0], n)
        return np.broadcast_to(self.sellers, shape), np.broadcast_to(self.buyers, shape)


def pseudo_regret(env: Environment, prices) -> float:
    """Exact expected regret of a posted price sequence on a finite env.

    Sums v_star - E[fgft(p_t)] over the sequence; every summand is
    non-negative because v_star maximizes the expected reward.
    """
    if isinstance(prices, Trajectory):
        prices = prices.prices
    return float(_profile_regret(_EnvTables(env), np.reshape(prices, (1, -1)), np.zeros(1), 0)[0])


def run_episode(config: RunConfig, episode_index: int) -> Trajectory:
    """Reference round-by-round loop for one seeded episode.

    Each round draws the valuation pair (one uniform), asks the learner for
    a price, then delivers the rendered feedback.  The learner sees the
    model it requires; the run-level model only gates protocol conformance
    (resolve_feedback raises before round 1 on a true mismatch).
    """
    _, learner_model = resolve_feedback(
        config.learner.requires, config.feedback, config.strict_feedback
    )
    T = config.horizon
    env = config.env
    seed = mix64(config.base_seed, episode_index)
    learner = config.learner.build(T, env, episode_seed=seed)
    stream = SplitMix64(seed)
    prices = np.empty(T, dtype=np.float64)
    rewards = np.empty(T, dtype=np.float64)
    sellers = np.empty(T, dtype=np.float64)
    buyers = np.empty(T, dtype=np.float64)
    for t in range(T):
        pair = sample_valuations(env, stream)
        p = learner.propose()
        learner.update(render_feedback(learner_model, p, pair))
        prices[t] = p
        rewards[t] = fgft(p, pair.seller, pair.buyer)
        sellers[t] = pair.seller
        buyers[t] = pair.buyer
    return Trajectory(prices=prices, rewards=rewards, sellers=sellers, buyers=buyers)


# ---------------------------------------------------------------------------
# per-episode price profiles (price-identical to the reference loop)
# ---------------------------------------------------------------------------


def _price_profile(spec: LearnerSpec, tables: _EnvTables, T: int, seeds) -> tuple:
    """(exploration prices, tails, tail length) of the episode streams ``seeds``.

    Row r is the episode of seeds[r]: the learner posts its exploration
    prices, then its tail price for the remaining rounds.  Exploration
    prices have shape (rows, n), or (1, n) when every row explores alike
    (the grid learner's sweep, and the empty exploration of fixed and
    gft-oracle); tails have shape (rows,).  A _PointMasses batch takes one
    seed per point and no draws, as every draw lands on the point's atom.
    Learners without a commit phase (uniform, fbep) return their whole path
    as exploration and a tail of length 0.  Price paths agree with the
    reference loop draw for draw, with one exception: the fbep kernel also
    scores candidate prices of atoms not yet sampled, and on a flat top of
    the empirical mean one of them can round one ulp above the reference
    learner's smallest maximizer.
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T!r}")
    kind, rows = spec.kind, len(seeds)
    if kind == "uniform":
        stream = spec.params.get("seed", 0)
        paths = [kernels.uniform_prices(mix64(stream, seed), T) for seed in seeds]
        return np.stack(paths), np.zeros(rows), 0
    if kind == "fbep":
        cands, rewards = tables.fbep
        paths = [kernels.fbep_prices(seed, tables.cum, cands, rewards, T) for seed in seeds]
        return np.stack(paths), np.zeros(rows), 0
    if kind == "fixed":
        return np.empty((1, 0)), np.full(rows, spec.params["p"]), T
    if kind == "gft-oracle":
        return np.empty((1, 0)), np.broadcast_to(tables.gft_price, rows), T
    if kind == "dbs":
        N = dbs_phase_length(T)
        sellers, buyers = tables.draw(seeds, 2 * N)
        explore, tail = kernels.dbs_explore(sellers[:, :N], buyers[:, N:], N)
        return explore, tail, T - 2 * N
    if kind == "conv-pricing":
        K = ConvolutionPricing(T, spec.params.get("K")).grid_size
        commits, _, _ = kernels.conv_pricing_commit(*tables.draw(seeds, K), K)
        grid = np.arange(1, K + 1, dtype=np.float64) / K
        return grid[None, :], grid[commits - 1], T - K
    raise ValueError(f"no price profile for learner kind {kind!r}")


def _profile_regret(tables: _EnvTables, explore, tail, tail_len: int) -> np.ndarray:
    """sum(v* - E[fgft(explore)]) + tail_len * (v* - E[fgft(tail)]), one per row.

    ``explore`` is (rows, n) or one shared (1, n) row, scored once; ``tail``
    is (rows,) and fixes the row count.  v* is shared or one per row.  The
    tail is scored only when it has rounds.
    """
    v_star = np.reshape(tables.v_star, (-1, 1))
    regret = np.zeros(tail.shape)
    regret += np.sum(v_star - tables.mean_at(explore), axis=1)
    if tail_len:
        regret += tail_len * (v_star - tables.mean_at(tail[:, None]))[:, 0]
    return regret


def _episode_regrets(config: RunConfig, horizon: int, tables: _EnvTables) -> np.ndarray:
    spec = config.learner
    seeds = [mix64(config.base_seed, e) for e in range(config.n_episodes)]
    if spec.kind in ("uniform", "fbep"):  # one episode per pass: the row is the whole horizon
        profiles = (_price_profile(spec, tables, horizon, [seed]) for seed in seeds)
        return np.concatenate([_profile_regret(tables, *profile) for profile in profiles])
    return _profile_regret(tables, *_price_profile(spec, tables, horizon, seeds))


def run_monte_carlo(config: RunConfig, horizons=None) -> RegretCurve:
    """Mean and standard error of pseudo-regret per horizon.

    Episodes run sequentially; episode e always uses seed
    mix64(base_seed, e), so curves at nested horizons share their random
    draws (regret is pathwise non-decreasing in T for a fixed episode).
    The environment's oracle tables are built once and shared by every
    horizon.
    """
    hs = _horizons([config.horizon] if horizons is None else horizons)
    resolve_feedback(config.learner.requires, config.feedback, config.strict_feedback)
    tables = _EnvTables(config.env)
    means, stderrs = [], []
    for T in hs:
        values = _episode_regrets(config, T, tables)
        means.append(float(np.mean(values)))
        n = values.size
        stderrs.append(float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0)
    return RegretCurve(
        learner_id=config.learner.learner_id,
        env_id=config.env.env_id,
        horizons=tuple(hs),
        means=tuple(means),
        stderrs=tuple(stderrs),
        n_episodes=config.n_episodes,
    )


def fit_exponent(curve_or_horizons, means=None) -> ExponentFit:
    """Ordinary least squares on (log T, log mean regret).

    Accepts a RegretCurve or explicit (horizons, means).  Needs at least
    three distinct horizons and strictly positive means.
    """
    if means is None:
        horizons, means = curve_or_horizons.horizons, curve_or_horizons.means
    else:
        horizons = curve_or_horizons
    x = np.log(np.asarray(horizons, dtype=np.float64))
    y = np.asarray(means, dtype=np.float64)
    if np.unique(x).size < 3:
        raise ValueError("exponent fit needs at least three distinct horizons")
    if np.any(y <= 0.0):
        raise ValueError("exponent fit needs strictly positive mean regrets")
    y = np.log(y)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    residuals = y - (intercept + slope * x)
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residuals**2)) / ss_tot
    return ExponentFit(slope=slope, intercept=float(intercept), r_squared=r2)


def growth_ratio(values) -> float:
    """max over i < j of values[j] / values[i] for a positive sequence.

    At most 1 for non-increasing sequences; bounds how much the sequence
    ever grows above an earlier level (the rate checks cap this at 3).
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return 1.0
    if min(vals) <= 0.0:
        raise ValueError("growth_ratio needs strictly positive values")
    worst = 1.0
    running_min = vals[0]
    for v in vals[1:]:
        worst = max(worst, v / running_min)
        running_min = min(running_min, v)
    return worst


# ---------------------------------------------------------------------------
# deterministic-instance machinery
# ---------------------------------------------------------------------------


def _point_values(spec: LearnerSpec, pair) -> tuple:
    """(sellers, buyers, shape): the pair broadcast to one shape, flattened."""
    if not spec.deterministic:
        raise ValueError(f"{spec.learner_id!r} is randomized; profile undefined")
    if spec.requires is FeedbackModel.FULL:
        raise ValueError(f"{spec.learner_id!r} needs full feedback, not two bits")
    sellers, buyers = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in pair))
    return sellers.ravel(), buyers.ravel(), sellers.shape


def _point_mass_profile(spec: LearnerSpec, horizon: int, sellers, buyers) -> tuple:
    """(batch, explore, tail, tail length) with one row per point."""
    masses = _PointMasses(sellers, buyers)
    return (masses, *_price_profile(spec, masses, horizon, range(sellers.size)))


def deterministic_price_profile(spec: LearnerSpec, horizon: int, pair) -> tuple:
    """(exploration prices, tail price, tail length) on a fixed pair.

    Valid for deterministic learners that consume two-bit (or no) feedback.
    This is the Monte Carlo profile on the point mass: every draw lands on
    its one atom, so no draws are taken.  A pair of arrays that broadcast
    to shape S gives exploration prices of shape S + (n,) and tails of
    shape S, one profile per point.
    """
    sellers, buyers, shape = _point_values(spec, pair)
    _, explore, tail, tail_len = _point_mass_profile(spec, horizon, sellers, buyers)
    explore = np.broadcast_to(explore, tail.shape + explore.shape[1:])  # one row per point
    if not shape:
        return explore[0], float(tail[0]), tail_len
    return explore.reshape(shape + explore.shape[1:]), tail.reshape(shape), tail_len


def profile_regret(spec: LearnerSpec, horizon: int, pair):
    """Exact pseudo-regret of a deterministic learner on point masses.

    A scalar pair gives a float; a pair of arrays that broadcast gives the
    regret of every point, in their broadcast shape, from array passes
    over POINT_BLOCK points at a time.
    """
    sellers, buyers, shape = _point_values(spec, pair)
    regrets = np.empty(sellers.size)
    for lo in range(0, sellers.size, POINT_BLOCK):
        rows = slice(lo, lo + POINT_BLOCK)
        regrets[rows] = _profile_regret(
            *_point_mass_profile(spec, horizon, sellers[rows], buyers[rows])
        )
    return float(regrets[0]) if not shape else regrets.reshape(shape)


def adversarial_deterministic_sweep(
    learner,
    horizon: int,
    s_values=None,
    buyer: float = 1.0,
) -> SweepReport:
    """Worst-case exact regret of a deterministic learner over seller values.

    The default grid is 4097 evenly spaced points in [0, 1/4] against a
    buyer fixed at 1: fine enough to resolve bisection-style behavior down
    to intervals of width about 2^-12.  All points are scored by one
    profile_regret call.
    """
    spec = parse_learner(learner) if isinstance(learner, str) else learner
    if s_values is None:
        s_values = np.linspace(0.0, 0.25, 4097)
    s_values = np.asarray(s_values, dtype=np.float64)
    if s_values.size == 0:
        raise ValueError("the seller grid of a sweep is empty; give at least one point")
    regrets = profile_regret(spec, horizon, (s_values, buyer))
    arg = int(np.argmax(regrets))
    return SweepReport(
        learner_id=spec.learner_id,
        horizon=int(horizon),
        buyer=float(buyer),
        s_values=s_values,
        regrets=regrets,
        max_regret=float(regrets[arg]),
        argmax_s=float(s_values[arg]),
    )


# ---------------------------------------------------------------------------
# indistinguishable-pair check
# ---------------------------------------------------------------------------


def _cumulative_table(env: Environment, price: float) -> tuple:
    table = feedback_distribution(env, price)
    cum, acc = [], 0.0
    for outcome in FEEDBACK_OUTCOMES:
        acc += table[outcome]
        cum.append((acc, outcome))
    return tuple(cum)


def _coupled_prices(spec: LearnerSpec, env: Environment, horizon: int, seed: int):
    """Simulate a two-bit learner with feedback drawn through its exact law.

    Sampling inverts the cumulative feedback table (outcomes in the fixed
    canonical order) rather than sampling an atom, so two environments with
    equal tables consume identical uniforms into identical feedback
    sequences: the coupling that realizes statistical indistinguishability.
    """
    learner = spec.build(horizon, env, episode_seed=seed)
    stream = SplitMix64(seed)
    cache: dict = {}
    prices = np.empty(horizon, dtype=np.float64)
    for t in range(horizon):
        p = learner.propose()
        prices[t] = p
        cum = cache.get(p)
        if cum is None:
            cum = cache[p] = _cumulative_table(env, p)
        u = stream.next_unit()
        outcome = cum[-1][1]
        for acc, candidate in cum:
            if u < acc:
                outcome = candidate
                break
        learner.update(TwoBitFeedback(*outcome))
    return prices


def indistinguishability_check(
    learner: str = "conv-pricing",
    horizon: int = 4096,
    n_episodes: int = 3,
    base_seed: int = 0,
) -> IndistinguishabilityReport:
    """Exact equality of the lower-bound pair's feedback laws.

    Compares the two-bit outcome tables on every price region induced by
    the union of both supports, then couples a two-bit learner to both
    environments through the inverse-CDF of those tables and asserts the
    price trajectories coincide round for round.
    """
    mu, nu = lb_mu(), lb_nu()
    prices = gft_candidates(
        np.concatenate([mu.joint.sellers, nu.joint.sellers]),
        np.concatenate([mu.joint.buyers, nu.joint.buyers]),
    )
    max_gap = 0.0
    for p in prices:
        t_mu = feedback_distribution(mu, float(p))
        t_nu = feedback_distribution(nu, float(p))
        for outcome in FEEDBACK_OUTCOMES:
            max_gap = max(max_gap, abs(t_mu[outcome] - t_nu[outcome]))
    spec = parse_learner(learner) if isinstance(learner, str) else learner
    coupled_equal = True
    for e in range(n_episodes):
        seed = mix64(base_seed, e)
        p_mu = _coupled_prices(spec, mu, horizon, seed)
        p_nu = _coupled_prices(spec, nu, horizon, seed)
        if not np.array_equal(p_mu, p_nu):
            coupled_equal = False
            break
    return IndistinguishabilityReport(
        prices_checked=tuple(float(p) for p in prices),
        max_table_gap=max_gap,
        tables_equal=(max_gap == 0.0),
        coupled_trajectories_equal=coupled_equal,
    )
