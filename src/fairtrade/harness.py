"""Episode execution, exact pseudo-regret accounting, and aggregation.

The reference loop (run_episode) drives a learner round by round against a
sampled environment and returns the full trajectory.  Monte Carlo runs,
point-mass profiles and worst-case sweeps instead take price profiles
(exploration prices, then a constant tail) from one path, _price_profiles,
built on the kernels module, which reproduces the reference loop's price
sequence (identical splitmix64 draws, identical accumulation order), and
score them with one formula, _profile_regret, so desk-scale horizons stay
cheap.  Both work on rows only: all episodes of a Monte Carlo run, or a
batch of up to POINT_BLOCK point masses, go through one array pass, and
exploration every row shares, such as the grid learner's sweep, is one row
scored once.  A point mass is the one-atom environment: every draw lands on
its atom, so a _PointMasses batch takes no draws and builds no environment.
Profiles share their work across a run's horizons: a run draws once, at its
longest exploration, and every horizon reads a column prefix of the draws;
dbs bisects once, on one stack of rows per horizon (one stack in all for
point masses), the grid learner commits once per distinct grid size, and
each price is scored once, so each horizon only copies its own regrets
into contiguous rows and sums them.  fbep and uniform have no commit
phase, and their prices do not depend on the horizon: a run simulates
their episodes one at a time, each once, at its largest horizon, as a
row of per-round regrets (_round_gaps), and sums a prefix of that row for
every horizon before it drops the row.  The row is one contiguous float64
array, so each prefix's np.sum keeps its pairwise grouping; besides it an
episode holds fbep's compact index and block scratch of kernels.BLOCK
rounds, the one block size of every streamed pass (about 1.25 rows in all
at T = 10**5).
The indistinguishability check couples the grid learner to the lower-bound
pair the same way: every episode's sweep draws its bits from the exact
feedback laws at the grid prices and is scored by the grid kernel in one
pass (_coupled_commits), with no Learner stepping.

Regret is always pseudo-regret: conditioning on the posted prices, every
round contributes v_star - E[fgft(p_t)] with both terms exact under the
finite-support environment.  Both terms come from one evaluator,
kernels.expected_fgft_at (core.best_fixed_price_fgft scores its candidates
with it), so a fixed price at the optimum has regret exactly 0.  This is an
unbiased estimator of the expected regret with strictly smaller variance
than realized-reward differences.

Seeding: episode e of a run with base seed B draws from a splitmix64 stream
seeded with mix64(B, e) (three multiply-xorshift rounds, identical on every
platform), so episodes are independent and reproducible.  RunConfig.seeds
lists them for the fast paths; run_episode derives its one seed itself.
Episodes run sequentially, in index order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algorithms import (
    LEARNER_KINDS,
    ConvolutionPricing,
    LearnerSpec,
    dbs_phase_length,
    default_grid_size,
    parse_learner,
)
from .core import (
    best_fixed_price_fgft,
    best_fixed_price_fgft_rows,
    check_atoms,
    fgft,
    fgft_candidates,
    fgft_vector,
    gft_candidates,
    sorted_distinct,
)
from .environments import (
    Environment,
    deterministic,  # noqa: F401
    feedback_distribution,  # noqa: F401
    feedback_tables,
    lb_mu,
    lb_nu,
    render_feedback,
    sample_valuations,
)
from .rng import SplitMix64, _count, _u64, draw_rows, mix64

# Points per array pass of profile_regret, at most POINT_BLOCK and at most
# POINT_ROUNDS // (exploration rounds): bounds each scratch array of a pass
# to POINT_ROUNDS doubles (8 MiB) whatever the grid learner's K.
POINT_BLOCK = 1024
POINT_ROUNDS = 2**20

# Point masses build no environment (see _PointMasses), and the pair's laws
# are compared through feedback_tables; the deterministic and
# feedback_distribution names stay importable because the benchmark's tracer
# wraps harness.deterministic and harness.feedback_distribution.


def _horizons(values) -> tuple:
    """A run's horizons as a tuple of ints: a 1-D sequence of at least one
    horizon (a count, see _count), strictly increasing."""
    if np.ndim(values) != 1:
        raise ValueError(f"horizons must be a list of whole numbers, got {values!r}")
    hs = tuple(_count(t, "horizon") for t in values)
    if not hs:
        raise ValueError("a run needs at least one horizon")
    if any(a >= b for a, b in zip(hs, hs[1:])):
        raise ValueError(f"horizons must be strictly increasing, got {list(hs)}")
    return hs


@dataclass(frozen=True)
class RunConfig:
    """One experiment: a learner on an environment over a run's horizons.

    ``horizons`` become a tuple of ints: whole numbers, each >= 1, at least
    one, strictly increasing; every episode runs to the last.  A learner
    whose parameters cannot build it at the first horizon (a conv-pricing
    grid larger than that horizon) fails here, before any episode.  The
    run's feedback model is the learner's own (LearnerSpec.requires).
    """

    env: Environment
    learner: LearnerSpec
    horizons: tuple
    n_episodes: int = 1
    base_seed: int = 0

    @property
    def seeds(self) -> list:
        """The episode seeds: episode e draws from the stream of mix64(base_seed, e)."""
        return [mix64(self.base_seed, e) for e in range(self.n_episodes)]

    def __post_init__(self):
        hs = _horizons(self.horizons)
        object.__setattr__(self, "horizons", hs)
        object.__setattr__(self, "n_episodes", _count(self.n_episodes, "n_episodes"))
        object.__setattr__(self, "base_seed", _u64(self.base_seed, "base_seed"))
        self.learner.build(hs[0], self.env)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One episode: posted prices, realized rewards, and the sampled pairs."""

    prices: np.ndarray
    rewards: np.ndarray
    sellers: np.ndarray
    buyers: np.ndarray


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
    """Per-environment oracle data for fast regret evaluation.

    Each Monte Carlo run builds its own and only reads it; the fbep and
    gft-oracle tables are built on first use.
    """

    def __init__(self, env: Environment):
        joint = env.joint
        self.env = env
        self.cum = joint.cum
        self.sellers = joint.sellers
        self.buyers = joint.buyers
        self.weights = joint.weights
        self.v_star = best_fixed_price_fgft(joint).value

    def mean_at(self, prices) -> np.ndarray:
        return kernels.expected_fgft_at(prices, self.sellers, self.buyers, self.weights)

    def regret_at(self, prices) -> np.ndarray:
        """v* - E[fgft(p)] of each price, the regret of posting it for one
        round; a per-row v* applies along the last axis."""
        return np.expand_dims(self.v_star, -1) - self.mean_at(prices)

    def draw(self, seeds, n: int) -> tuple:
        """(seller values, buyer values) of rounds 1..n, one row per episode seed."""
        j = kernels._atoms_at(self.cum, draw_rows(seeds, n))
        return self.sellers[j], self.buyers[j]

    @functools.cached_property
    def gft_price(self) -> float:
        """The gft oracle's fixed price, which the joint finds once and keeps."""
        return self.env.joint.gft_price

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
    kernels.expected_fgft_at, and v* is core.best_fixed_price_fgft_rows's
    value on them: one oracle call for the batch, each row's v* what
    core.best_fixed_price_fgft finds on its one atom.  The gft oracle
    posts s when s < b, else 0, what best_fixed_price_gft finds.
    """

    def __init__(self, sellers: np.ndarray, buyers: np.ndarray):
        check_atoms((sellers, "seller values"), (buyers, "buyer values"))
        self.sellers, self.buyers = sellers[:, None], buyers[:, None]
        self.weights = np.ones_like(self.sellers)
        self.v_star = best_fixed_price_fgft_rows(self.sellers, self.buyers, self.weights)[1]
        self.gft_price = np.where(sellers < buyers, sellers, 0.0)

    def draw(self, seeds, n: int) -> tuple:
        shape = (self.sellers.shape[0], n)
        return np.broadcast_to(self.sellers, shape), np.broadcast_to(self.buyers, shape)


def run_episode(config: RunConfig, episode_index: int) -> Trajectory:
    """Reference round-by-round loop for one seeded episode, to the last horizon.

    Each round draws the valuation pair (one uniform), asks the learner for
    a price, then delivers the feedback rendered in the learner's own model
    (two bits for a learner that ignores feedback).
    """
    T = config.horizons[-1]
    env, model = config.env, config.learner.requires
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
        learner.update(render_feedback(model, p, pair))
        prices[t] = p
        rewards[t] = fgft(p, pair.seller, pair.buyer)
        sellers[t] = pair.seller
        buyers[t] = pair.buyer
    return Trajectory(prices=prices, rewards=rewards, sellers=sellers, buyers=buyers)


# ---------------------------------------------------------------------------
# per-episode price profiles (price-identical to the reference loop)
# ---------------------------------------------------------------------------


def _conv_pricing_profiles(tables: _EnvTables, hs, seeds, score, K=None):
    Ks = [ConvolutionPricing(T, K).grid_size for T in hs]
    sellers, buyers = tables.draw(seeds, max(Ks))
    grids = {k: np.arange(1, k + 1, dtype=np.float64) / k for k in Ks}  # one sweep per distinct K
    commits = {k: kernels.conv_pricing_commit(sellers[:, :k], buyers[:, :k], k)[0] for k in grids}
    tails = score(np.column_stack([grids[k][commits[k] - 1] for k in Ks]))
    gaps = {k: score(grid[None, :]) for k, grid in grids.items()}
    return ((gaps[k], tails[:, i], T - k) for i, (T, k) in enumerate(zip(hs, Ks)))


def _dbs_profiles(tables: _EnvTables, hs, seeds, score):
    # Horizon h bisects the seller values of rounds 1..N_h and the buyer
    # values of rounds N_h+1..2N_h.  One kernel call at M = max N_h steps a
    # block of rows per horizon, seller rows draws[:, :M] and buyer rows
    # draws[:, N_h:N_h+M], and horizon h reads its prices at columns [:N_h]
    # and [M:M+N_h] and its commit at column N_h.  A point mass draws its
    # atom every round, so one block serves every horizon.
    Ns = [dbs_phase_length(T) for T in hs]
    M, rows = Ns[-1], len(seeds)
    sellers, buyers = tables.draw(seeds, 2 * M)
    starts = Ns[:1] if isinstance(tables, _PointMasses) else Ns
    buyer_rows = [buyers[:, n : n + M] for n in starts]
    if len(starts) > 1:  # one block is a view of the draws, with nothing to copy
        sellers, buyer_rows = np.tile(sellers[:, :M], (len(starts), 1)), [np.vstack(buyer_rows)]
    explore, commits = kernels.dbs_explore(sellers[:, :M], buyer_rows[0], M)
    # the kernel rows of each horizon: its own block, or the one block of point masses
    own = [slice(rows * j, rows * (j + 1)) for j in range(len(starts))] * (len(hs) // len(starts))
    gaps, tails = score(explore), score(np.column_stack([commits[r, N] for r, N in zip(own, Ns)]))
    return (
        (np.hstack([gaps[r, :N], gaps[r, M : M + N]]), tails[:, i], T - 2 * N)
        for i, (r, T, N) in enumerate(zip(own, hs, Ns))
    )


def _constant_profiles(price, hs, seeds, score):
    # no exploration, and one tail price for every horizon, scored once
    tail = score(np.broadcast_to(price, (len(seeds),))[:, None])[:, 0]
    return ((np.empty((1, 0)), tail, T) for T in hs)


# learner kind -> profiles(tables, hs, seeds, score, **spec.params), for every kind with a commit phase
_PROFILES = {
    "conv-pricing": _conv_pricing_profiles,
    "dbs": _dbs_profiles,
    "fixed": lambda tables, hs, seeds, score, p: _constant_profiles(p, hs, seeds, score),
    "gft-oracle": lambda tables, hs, seeds, score: _constant_profiles(tables.gft_price, hs, seeds, score),
}


def _price_profiles(spec: LearnerSpec, tables: _EnvTables, hs, seeds, score):
    """(exploration, tails, tail length) of the episode streams ``seeds`` at each horizon of ``hs``, in order.

    Row r is the episode of seeds[r]: the learner posts its exploration
    prices, then its tail price for the remaining rounds.  The arrays are
    ``score`` of the prices, an elementwise map (tables.regret_at, or the
    identity for the prices themselves), applied once per run to the
    prices every horizon shares, so each horizon reads its own entries of
    the scored arrays.  Exploration has shape (rows, n), or (1, n) when
    every row explores alike (the grid learner's sweep, and the empty
    exploration of fixed and gft-oracle), and is one contiguous row per
    episode; tails have shape (rows,).  The profiles come from an
    iterator, and dbs copies a horizon's rows only when it is reached, so
    a caller done with each horizon before the next holds one horizon's
    rows at a time.  A run draws once, at its longest exploration: a draw
    depends only on its index, so a shorter exploration reads a column
    prefix of the draws.  A _PointMasses batch takes one seed per point
    and no draws, as every draw lands on the point's atom.  Price paths
    agree with the reference loop draw for draw.  Only kinds in _PROFILES
    have a profile; the others (uniform, fbep) have no commit phase, and
    _round_gaps scores their rounds.
    """
    return _PROFILES[spec.kind](tables, hs, seeds, score, **spec.params)


def _profile_regret(gaps, tails, tail_len: int) -> np.ndarray:
    """sum(gaps) + tail_len * tails, one per row.

    ``gaps`` are the exploration rounds' regrets, of shape (rows, n) or
    one shared (1, n) row; each row is summed by one pairwise np.sum, so a
    row must be contiguous to group its terms as every other path does.
    ``tails`` are the regrets v* - E[fgft(tail)] of the rows' tail prices,
    of shape (rows,), which fixes the row count.  They count only when the
    tail has rounds.
    """
    regret = np.zeros(tails.shape)
    regret += np.sum(gaps, axis=1)
    if tail_len:
        regret += tail_len * tails
    return regret


def _fbep_gaps(tables: _EnvTables, T: int, episode: int) -> np.ndarray:
    """fbep's row: the kernel returns candidate indices, and the row gathers
    the regret of each candidate (expected_fgft_at is elementwise, so this
    equals scoring the prices), kernels.BLOCK rounds at a time so that only
    one block of the compact indices is widened to intp.  The one exception
    to prices agreeing with the reference loop draw for draw: the fbep
    kernel also scores candidate prices of atoms not yet sampled, and on a
    flat top of the empirical mean one of them can round one ulp above the
    reference learner's smallest maximizer.
    """
    cands, rewards = tables.fbep
    by_index = tables.regret_at(np.append(cands, 0.5))  # round 0 posts 1/2
    idx = kernels.fbep_prices(episode, tables.cum, cands, rewards, T)
    row, B = np.empty(T, dtype=np.float64), kernels.BLOCK
    for lo in range(0, T, B):
        np.take(by_index, idx[lo : lo + B], out=row[lo : lo + B], mode="clip")
    return row


def _uniform_gaps(tables: _EnvTables, T: int, episode: int, **params) -> np.ndarray:
    """The prices of the learner's own stream: its builder in LEARNER_KINDS
    states the default seed and mixes in the episode, for both paths.

    Each block of kernels.BLOCK prices is overwritten by its regrets, so the
    kernel's one T-long array becomes the row; expected_fgft_at is
    elementwise, so each regret is bitwise what scoring the whole row gives.
    """
    learner = LEARNER_KINDS["uniform"].build(T, tables.env, episode, **params)
    row = kernels.uniform_prices(learner.seed, T)
    for lo in range(0, T, kernels.BLOCK):
        block = row[lo : lo + kernels.BLOCK]
        np.subtract(tables.v_star, tables.mean_at(block), out=block)
    return row


# learner kind -> gaps(tables, T, episode seed, **spec.params), for every kind without a commit phase
_ROUND_GAPS = {"fbep": _fbep_gaps, "uniform": _uniform_gaps}


def _round_gaps(spec: LearnerSpec, tables: _EnvTables, T: int, seed: int) -> np.ndarray:
    """v* - E[fgft(p_t)] of rounds 1..T in the episode of ``seed``, for a kind in _ROUND_GAPS.

    Their prices do not depend on the horizon, so the first entries of the
    row at a larger T are the row at a smaller one.  Price paths agree with
    the reference loop draw for draw, except fbep's on a flat top (see
    _fbep_gaps).
    """
    return _ROUND_GAPS[spec.kind](tables, T, seed, **spec.params)


def _episode_regrets(config: RunConfig, horizon: int, profile: tuple) -> np.ndarray:
    """Regret of every episode of ``config`` at one of its horizons, from
    that horizon's scored profile (see _price_profiles).  One call is one
    cell of the run, which the benchmark's tracer labels by ``config`` and
    ``horizon``."""
    return _profile_regret(*profile)


def run_monte_carlo(config: RunConfig) -> RegretCurve:
    """Mean and standard error of pseudo-regret at each of config.horizons.

    Episodes run sequentially; episode e always uses config.seeds[e],
    mix64(base_seed, e), so curves at nested horizons share their random
    draws (regret is pathwise non-decreasing in T for a fixed episode).
    The environment's oracle tables are built once and shared by every
    horizon.  Regrets fill one (horizons, episodes) table: fbep and uniform
    simulate one episode at a time, at the largest horizon, and sum a prefix
    for each horizon; the other learners draw and explore once for all
    horizons (_price_profiles), and each horizon sums its own rows.
    """
    hs, spec = config.horizons, config.learner
    tables = _EnvTables(config.env)
    regrets = np.empty((len(hs), config.n_episodes))
    if spec.kind in _ROUND_GAPS:
        for e, seed in enumerate(config.seeds):
            row = _round_gaps(spec, tables, hs[-1], seed)
            regrets[:, e] = [np.sum(row[:T]) for T in hs]
            del row  # else it stays alive while the next episode builds its row
    else:
        profiles = _price_profiles(spec, tables, hs, config.seeds, tables.regret_at)
        for i, (T, profile) in enumerate(zip(hs, profiles)):
            regrets[i] = _episode_regrets(config, T, profile)
    # reduce contiguous rows: a strided column or axis=0 regroups the pairwise sums
    n = config.n_episodes
    stderrs = [float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0 for values in regrets]
    return RegretCurve(
        learner_id=spec.learner_id,
        env_id=config.env.env_id,
        horizons=hs,
        means=tuple(float(np.mean(values)) for values in regrets),
        stderrs=tuple(stderrs),
        n_episodes=n,
    )


def fit_exponent(horizons, means) -> ExponentFit:
    """Ordinary least squares on (log T, log mean regret).

    Needs one mean per horizon, at least three distinct horizons, all
    positive and finite, and strictly positive finite means.
    """
    x = np.asarray(horizons, dtype=np.float64)
    y = np.asarray(means, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"exponent fit needs one mean per horizon, got {x.size} horizons and {y.size} means")
    if not np.all((x > 0.0) & np.isfinite(x)):
        raise ValueError(f"exponent fit needs positive finite horizons, got {x.tolist()}")
    x = np.log(x)
    if sorted_distinct(x).size < 3:
        raise ValueError("exponent fit needs at least three distinct horizons")
    if not np.all((y > 0.0) & np.isfinite(y)):
        raise ValueError(f"exponent fit needs strictly positive finite mean regrets, got {y.tolist()}")
    y = np.log(y)
    if np.all(y == y[0]):
        # the mean of equal logs can miss them by an ulp, which would tilt the line
        return ExponentFit(slope=0.0, intercept=float(y[0]), r_squared=1.0)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    residuals = y - (intercept + slope * x)
    r2 = 1.0 - float(np.sum(residuals**2)) / float(np.sum((y - ym) ** 2))
    return ExponentFit(slope=slope, intercept=float(intercept), r_squared=r2)


def growth_ratio(values) -> float:
    """max over i < j of values[j] / values[i] for a positive finite sequence.

    At most 1 for non-increasing sequences; bounds how much the sequence
    ever grows above an earlier level (the rate checks cap this at 3).
    """
    vals = [float(v) for v in values]
    if not all(0.0 < v < math.inf for v in vals):  # NaN fails too
        raise ValueError(f"growth_ratio needs strictly positive finite values, got {vals}")
    if len(vals) < 2:
        return 1.0
    worst = 1.0
    running_min = vals[0]
    for v in vals[1:]:
        worst = max(worst, v / running_min)
        running_min = min(running_min, v)
    return worst


# ---------------------------------------------------------------------------
# deterministic-instance machinery
# ---------------------------------------------------------------------------


def profile_regret(spec: LearnerSpec, horizons, pair) -> np.ndarray:
    """Exact pseudo-regret of a deterministic learner on point masses.

    ``horizons`` is a strictly increasing sequence, checked as
    RunConfig.horizons are, and ``pair`` a (seller, buyer) pair of values
    or of arrays that broadcast.  The result has one row per horizon, in
    the pair's broadcast shape: shape (len(horizons),) for one point.  It
    comes from array passes over at most POINT_BLOCK points, and fewer
    when points x exploration rounds would pass POINT_ROUNDS.  Each pass
    is one _PointMasses batch, so one v* serves every horizon, and its
    profiles are the run's (_price_profiles): each price is scored once.
    Every draw lands on the point's atom, so dbs bisects one row per point
    at the largest phase length M for all horizons, where a run stacks one
    per horizon: its prices at phase length N are columns [:N] and
    [M:M+N] of those at M, and its commit at N is column N.
    """
    if spec.kind not in _PROFILES:
        raise ValueError(f"no price profile for {spec.learner_id!r}: it is randomized or needs full feedback")
    sellers, buyers = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in pair))
    shape, sellers, buyers = sellers.shape, sellers.ravel(), buyers.ravel()
    hs = _horizons(horizons)
    regrets = np.empty((len(hs), sellers.size))
    # only the grid can pass the budget: dbs explores 2 * ceil(log2 T) rounds, fixed and gft-oracle none
    K = ConvolutionPricing(hs[-1], spec.params.get("K")).grid_size if spec.kind == "conv-pricing" else 1
    step = max(1, min(POINT_BLOCK, POINT_ROUNDS // K))
    for lo in range(0, sellers.size, step):
        masses = _PointMasses(sellers[lo : lo + step], buyers[lo : lo + step])
        profiles = _price_profiles(spec, masses, hs, range(len(masses.sellers)), masses.regret_at)
        regrets[:, lo : lo + step] = [_profile_regret(*profile) for profile in profiles]
    return regrets.reshape((len(hs),) + shape)


def adversarial_deterministic_sweep(spec: LearnerSpec, horizons, s_values=None, buyer: float = 1.0) -> list:
    """Worst-case exact regret of a deterministic learner over seller values.

    The default grid is 4097 evenly spaced points in [0, 1/4] against a
    buyer fixed at 1: fine enough to resolve bisection-style behavior down
    to intervals of width about 2^-12.  ``s_values`` must be a non-empty
    1-D grid and ``buyer`` one value.  ``horizons`` is a strictly
    increasing sequence, checked as RunConfig.horizons are; the result is
    one SweepReport per horizon, all from one profile_regret call.
    """
    hs = _horizons(horizons)
    if s_values is None:
        s_values = np.linspace(0.0, 0.25, 4097)
    s_values = np.asarray(s_values, dtype=np.float64)
    if s_values.ndim != 1:
        raise ValueError(f"s_values must be a 1-D grid of seller values, got shape {s_values.shape}")
    if s_values.size == 0:
        raise ValueError("the seller grid of a sweep is empty; give at least one point")
    if np.ndim(buyer) != 0:
        raise ValueError(f"buyer must be one value, got shape {np.shape(buyer)}")
    reports = []
    for T, regrets in zip(hs, profile_regret(spec, hs, (s_values, buyer))):
        arg = int(np.argmax(regrets))
        reports.append(
            SweepReport(
                learner_id=spec.learner_id,
                horizon=T,
                buyer=float(buyer),
                s_values=s_values,
                regrets=regrets,
                max_regret=float(regrets[arg]),
                argmax_s=float(s_values[arg]),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# indistinguishable-pair check
# ---------------------------------------------------------------------------


def _coupled_commits(env: Environment, K: int, seeds) -> np.ndarray:
    """Commit index of the grid learner's sweep under feedback drawn through its exact law.

    Round t of the sweep posts t/K and takes the t-th uniform of its seed's
    splitmix64 stream; its bits are the first outcome, in FEEDBACK_OUTCOMES
    order, whose cumulative probability at t/K exceeds the uniform, else
    (1, 1).  Sampling inverts the law rather than drawing an atom, so two
    environments with equal laws turn identical uniforms into identical
    bits: the coupling that realizes statistical indistinguishability.
    One grid_commits call commits every row to its first maximizer, as
    conv_pricing_commit does.
    """
    cum = np.cumsum(feedback_tables(env, np.arange(1, K + 1, dtype=np.float64) / K), axis=1)
    outcomes = np.minimum(np.sum(cum <= draw_rows(seeds, K)[:, :, None], axis=2), 3)  # column index 2v + w
    return kernels.grid_commits(outcomes >= 2, outcomes % 2, K)


def indistinguishability_check(
    horizon: int = 4096,
    n_episodes: int = 3,
    base_seed: int = 0,
) -> IndistinguishabilityReport:
    """Exact equality of the lower-bound pair's feedback laws.

    Compares the two-bit outcome tables on every price region induced by
    the union of both supports, then couples the grid learner
    (conv-pricing) to both environments through the inverse-CDF of their
    laws and asserts the price trajectories coincide round for round.  The
    coupled feedback of every episode runs through the grid kernel
    (_coupled_commits), with no Learner stepping: a trajectory is the grid
    t/K, then its commit / K, so two trajectories differ only if their
    commits do and the horizon leaves commit rounds.  The arguments are
    checked by building the coupled run's RunConfig (conv-pricing on lb-mu),
    which raises ValueError on a bad horizon, episode count or base seed.
    """
    config = RunConfig(
        lb_mu(), parse_learner("conv-pricing"), (horizon,), n_episodes=n_episodes, base_seed=base_seed
    )
    horizon, mu, nu = config.horizons[0], config.env, lb_nu()
    # The bits change only at support coordinates, so each law is constant on
    # each coordinate and each open interval between them: the pieces on which
    # expected gft is constant, which gft_candidates covers.
    prices = gft_candidates(
        np.concatenate([mu.joint.sellers, nu.joint.sellers]),
        np.concatenate([mu.joint.buyers, nu.joint.buyers]),
    )
    max_gap = float(np.max(np.abs(feedback_tables(mu, prices) - feedback_tables(nu, prices))))
    K = default_grid_size(horizon)
    commits = [_coupled_commits(env, K, config.seeds) for env in (mu, nu)]
    coupled_equal = horizon == K or np.array_equal(*commits)
    return IndistinguishabilityReport(
        prices_checked=tuple(float(p) for p in prices),
        max_table_gap=max_gap,
        tables_equal=(max_gap == 0.0),
        coupled_trajectories_equal=coupled_equal,
    )
