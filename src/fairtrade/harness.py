"""Episode execution, exact pseudo-regret accounting, and aggregation.

The reference loop (run_episode) drives a learner round by round against a
sampled environment and returns the full trajectory.  Monte Carlo runs,
point-mass profiles and worst-case sweeps instead take an episode's price
profile (exploration prices, then a constant tail) from one path,
_price_profile, built on the kernels module, which reproduces the reference
loop's price sequence (identical splitmix64 draws, identical accumulation
order), and score it with one formula, _profile_regret, so desk-scale
horizons stay cheap.  A point mass is the one-atom environment: every draw
lands on its atom.

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
    deterministic,
    feedback_distribution,
    lb_mu,
    lb_nu,
    render_feedback,
    sample_valuations,
)
from .rng import MASK64, SplitMix64, mix64


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
        return kernels.expected_fgft_at(
            np.asarray(prices, dtype=np.float64), self.sellers, self.buyers, self.weights
        )

    @functools.cached_property
    def fbep(self) -> tuple:
        """fbep's (candidates, rewards), built on first use only.

        The candidates are every breakpoint the empirical mean can have
        under this environment; rewards[m, j] = fgft(candidates[m], atom j).
        """
        cands = fgft_candidates(self.sellers, self.buyers)
        return cands, fgft_vector(cands[:, None], self.sellers, self.buyers)


def pseudo_regret(env: Environment, prices) -> float:
    """Exact expected regret of a posted price sequence on a finite env.

    Sums v_star - E[fgft(p_t)] over the sequence; every summand is
    non-negative because v_star maximizes the expected reward.
    """
    if isinstance(prices, Trajectory):
        prices = prices.prices
    return _profile_regret(_EnvTables(env), prices, 0.0, 0)


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


def _price_profile(spec: LearnerSpec, tables: _EnvTables, T: int, seed: int) -> tuple:
    """(exploration prices, tail price, tail length) of episode stream ``seed``.

    The learner posts the exploration prices, then the tail price for the
    remaining rounds.  Learners without a commit phase (uniform, fbep)
    return their whole path as exploration and an empty tail.  Price paths
    agree with the reference loop draw for draw, with one exception: the
    fbep kernel also scores candidate prices of atoms not yet sampled, and
    on a flat top of the empirical mean one of them can round one ulp
    above the reference learner's smallest maximizer.
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T!r}")
    kind = spec.kind
    if kind in ("fixed", "gft-oracle"):
        return np.empty(0, dtype=np.float64), spec.build(T, tables.env).price, T
    if kind == "uniform":
        return kernels.uniform_prices(mix64(spec.params.get("seed", 0), seed), T), 0.0, 0
    if kind == "dbs":
        N = dbs_phase_length(T)
        prices, commit = kernels.dbs_explore(seed, tables.cum, tables.sellers, tables.buyers, N)
        return prices, commit, T - 2 * N
    if kind == "conv-pricing":
        K = ConvolutionPricing(T, spec.params.get("K")).grid_size
        commit, _, _ = kernels.conv_pricing_commit(
            seed, tables.cum, tables.sellers, tables.buyers, K
        )
        grid = np.arange(1, K + 1, dtype=np.float64) / K
        return grid, grid[commit - 1], T - K
    if kind == "fbep":
        cands, rewards = tables.fbep
        prices = kernels.fbep_prices(
            seed, tables.cum, tables.sellers, tables.buyers, cands, rewards, T
        )
        return prices, 0.0, 0
    raise ValueError(f"no price profile for learner kind {kind!r}")


def _profile_regret(tables: _EnvTables, explore, tail: float, tail_len: int) -> float:
    """sum(v* - E[fgft(explore)]) + tail_len * (v* - E[fgft(tail)])."""
    regret = float(np.sum(tables.v_star - tables.mean_at(explore)))
    if tail_len:
        regret += tail_len * (tables.v_star - float(tables.mean_at([tail])[0]))
    return regret


def _episode_regrets(config: RunConfig, horizon: int, tables: _EnvTables) -> np.ndarray:
    values = np.empty(config.n_episodes, dtype=np.float64)
    for e in range(config.n_episodes):
        profile = _price_profile(config.learner, tables, horizon, mix64(config.base_seed, e))
        values[e] = _profile_regret(tables, *profile)
    return values


def run_monte_carlo(config: RunConfig, horizons=None) -> RegretCurve:
    """Mean and standard error of pseudo-regret per horizon.

    Episodes run sequentially; episode e always uses seed
    mix64(base_seed, e), so curves at nested horizons share their random
    draws (regret is pathwise non-decreasing in T for a fixed episode).
    The environment's oracle tables are built once and shared by every
    horizon.
    """
    hs = [config.horizon] if horizons is None else [int(t) for t in horizons]
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


def _point_mass_tables(spec: LearnerSpec, pair) -> _EnvTables:
    if not spec.deterministic:
        raise ValueError(f"{spec.learner_id!r} is randomized; profile undefined")
    if spec.requires is FeedbackModel.FULL:
        raise ValueError(f"{spec.learner_id!r} needs full feedback, not two bits")
    return _EnvTables(deterministic(float(pair[0]), float(pair[1])))


def deterministic_price_profile(spec: LearnerSpec, horizon: int, pair) -> tuple:
    """(exploration prices, tail price, tail length) on a fixed pair.

    Valid for deterministic learners that consume two-bit (or no) feedback.
    This is the Monte Carlo profile on the point mass: every draw lands on
    its one atom, so the episode seed does not matter.
    """
    return _price_profile(spec, _point_mass_tables(spec, pair), horizon, 0)


def profile_regret(spec: LearnerSpec, horizon: int, pair) -> float:
    """Exact pseudo-regret of a deterministic learner on a point mass."""
    tables = _point_mass_tables(spec, pair)
    return _profile_regret(tables, *_price_profile(spec, tables, horizon, 0))


def adversarial_deterministic_sweep(
    learner,
    horizon: int,
    s_values=None,
    buyer: float = 1.0,
) -> SweepReport:
    """Worst-case exact regret of a deterministic learner over seller values.

    The default grid is 4097 evenly spaced points in [0, 1/4] against a
    buyer fixed at 1: fine enough to resolve bisection-style behavior down
    to intervals of width about 2^-12.
    """
    spec = parse_learner(learner) if isinstance(learner, str) else learner
    if s_values is None:
        s_values = np.linspace(0.0, 0.25, 4097)
    s_values = np.asarray(s_values, dtype=np.float64)
    if s_values.size == 0:
        raise ValueError("the seller grid of a sweep is empty; give at least one point")
    regrets = np.empty(s_values.size, dtype=np.float64)
    for i, s in enumerate(s_values):
        regrets[i] = profile_regret(spec, horizon, (float(s), buyer))
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
