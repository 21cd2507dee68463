"""Empirical verification suites.

Each suite re-derives one guarantee of the library at desk scale and emits
one CheckResult row per assertion: identity checks run exact enumerations,
rate checks run seeded Monte Carlo and test fitted exponents against
acceptance bands (never point values, since hidden log factors and unpinned
constants make exact rates untestable).

Conventions:

* ``measured`` is the quantity the check computed (a max deviation, a
  fitted slope, a mean regret); ``tolerance`` is the bound it is compared
  against.  Most checks pass when measured <= tolerance; lower-bound checks
  (regret must EXCEED a threshold) pass when measured >= tolerance, and a
  slope check passes inside its band: [0.50, 0.80] for stochastic-rate,
  at most 0.62 (no lower edge) for full-feedback-rate.
* every random quantity is seeded with fixed constants below, so reruns
  reproduce the same report apart from runtime_ms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algorithms import dbs_regret_bound, parse_learner
from .core import atom_rows, best_fixed_price_fgft, best_fixed_price_fgft_rows, fgft_vector, product_joint_rows
from .environments import (
    _marginal_atoms,
    _rand_int,
    epsilon_family,
    epsilon_family_expected_fgft,
    gft_trap,
    lb_mu,
    lb_nu,
    parse_env,
    random_independent_env,
    random_joint_env,
    random_joint_rows,
)
from .harness import (
    RunConfig,
    adversarial_deterministic_sweep,
    fit_exponent,
    growth_ratio,
    indistinguishability_check,
    profile_regret,
    run_monte_carlo,
)
from .rng import SplitMix64, mix64


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    measured: float
    tolerance: float
    runtime_ms: float

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "runtime_ms": self.runtime_ms,
        }


class UnknownSuiteError(ValueError):
    """A verify suite name that does not resolve."""


def _check(names, fn) -> list:
    """Run fn once: one CheckResult per name from its (passed, measured, tolerance) rows.

    A single name takes fn's one row; a tuple of names takes one row per
    name.  The rows share one run, so the first carries its runtime and
    the others 0.
    """
    t0 = time.perf_counter()
    rows = fn()
    dt = (time.perf_counter() - t0) * 1e3
    if isinstance(names, str):
        names, rows = (names,), (rows,)
    return [
        CheckResult(name, bool(passed), float(measured), float(tolerance), 0.0 if i else dt)
        for i, (name, (passed, measured, tolerance)) in enumerate(zip(names, rows, strict=True))
    ]


# ---------------------------------------------------------------------------
# seeds of the random instances (env ids random-ind:seed=..., random-joint:seed=...)
# ---------------------------------------------------------------------------

_SANDWICH_SEED = 12001
_RATE_ENV_SEEDS = (101, 202)
_RATE_MC_SEED = 7
_FULL_ENV_SEEDS = (303, 404)
_FULL_MC_SEED = 8
_LB_MC_SEED = 3
_ORACLE_SEED = 9100


def _curve(env, learner_id: str, horizons, n_episodes: int = 1, base_seed: int = 0):
    """The Monte Carlo regret curve of one learner on one environment."""
    return run_monte_carlo(RunConfig(env, parse_learner(learner_id), horizons, n_episodes, base_seed))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_convolution_lemma() -> list:
    """Overlap-sum approximation vs the exact tent formula on a dense box.

    With m = min(p - s, b - p), the overlap count of a triple is
    floor(m * M) + 1 when m >= 0 and 0 otherwise, so approx - exact lies
    in (0, 1/M] where the tent is positive and is 0 elsewhere.  The row
    passes only inside that bracket: min(approx - exact) >= 0 and
    max(approx - exact) <= 1/M, with M = 10**4.  The upper edge is met
    bitwise: at p = s the count is 1, so approx is the double 1/M, and
    exact is 0.  A count one too many leaves the bracket above, and one
    too few below.  ``measured`` is the largest |approx - exact|.
    """

    def body():
        M = 10**4
        grid = np.linspace(0.0, 1.0, 50)
        p, s, b = (a.ravel() for a in np.meshgrid(grid, grid, grid, indexing="ij"))
        diff = kernels.convolution_approx_batch(p, s, b, M) - fgft_vector(p, s, b)
        return 0.0 <= np.min(diff) and np.max(diff) <= 1.0 / M, float(np.max(np.abs(diff))), 1.0 / M

    return _check("convolution-lemma", body)


def suite_sandwich() -> list:
    """Discrete two-sided acceptance score brackets the exact mean reward.

    For an independent pair, the grid score at index i equals a
    left-endpoint Riemann sum of the CDF/co-CDF overlap integral, so it
    must lie within [0, 1/K] above the exact expected fgft at price i/K.
    Each of the 100 instances draws a seller and then a buyer marginal of
    2..5 atoms from its own SplitMix64 stream, as random_marginal does,
    and core.atom_rows stacks each side as (100, 5) rows of values and
    weights, checked once by core.check_atom_rows, whose one-row case is
    FiniteMarginal's check.  A padded column has weight 0 (real weights are
    positive), and its value is then set to 1 on the seller's side and 0
    on the buyer's.  Each K sums all CDF rows P[S <= i/K] = sum_k
    w_k * 1{v_k <= i/K} and co-CDF rows P[B >= i/K] over the five
    columns, k in order, and kernels.incomplete_convolution, the grid
    learner's full scorer, takes them as real-valued (100, K) rows.  One
    expected_fgft_at call takes the product atoms as (100, 25) per-row
    atoms from core.product_joint_rows, whose one-row case is
    product_joint: seller value i and buyer value j at column 5i + j, so
    each instance's atoms keep product_joint's order, with the padded ones
    between them.  A padded atom has weight 0 and an empty interval (its
    seller at 1 or its buyer at 0), so it adds +0.0 to a non-negative sum
    and no in-interval term to the sorted-row path, and every exact value
    is bitwise the one from that instance's product_joint alone.
    """

    def body():
        streams = [SplitMix64(mix64(_SANDWICH_SEED, rep)) for rep in range(100)]
        sides = [[_marginal_atoms(stream, _rand_int(stream, 2, 5)) for _ in "sb"] for stream in streams]
        seller_values, seller_weights, _ = atom_rows([seller for seller, _ in sides], 5)
        buyer_values, buyer_weights, _ = atom_rows([buyer for _, buyer in sides], 5)
        seller_values[seller_weights == 0.0] = 1.0
        buyer_values[buyer_weights == 0.0] = 0.0
        atoms = product_joint_rows(seller_values, seller_weights, buyer_values, buyer_weights)
        worst = 0.0
        for K in (10, 100, 1000):
            grid = np.arange(1, K + 1, dtype=np.float64) / K
            cdf, cocdf = np.zeros((2, 100, K))
            for k in range(5):
                cdf += seller_weights[:, k, None] * (seller_values[:, k, None] <= grid)
                cocdf += buyer_weights[:, k, None] * (grid <= buyer_values[:, k, None])
            diff = kernels.incomplete_convolution(cdf, cocdf, K) / K - kernels.expected_fgft_at(grid, *atoms)
            worst = max(worst, float(np.max(-diff)), float(np.max(diff - 1.0 / K)))
        return worst <= 1e-10, worst, 1e-10

    return _check("sandwich", body)


def suite_indistinguishability() -> list:
    """The lower-bound pair: equal feedback laws, linear regret witness."""

    def tables_and_coupling():
        report = indistinguishability_check(horizon=4096, n_episodes=3, base_seed=0)
        coupled = report.coupled_trajectories_equal
        return [
            (report.tables_equal, report.max_table_gap, 0.0),
            (coupled, 0.0 if coupled else 1.0, 0.0),
        ]

    def regret():
        T = 10**4
        curves = [_curve(env, "conv-pricing", (T,), 50, _LB_MC_SEED) for env in (lb_mu(), lb_nu())]
        worst = max(curves, key=lambda curve: curve.means[0])  # the first on a tie
        threshold = T / 48.0 - 3.0 * worst.stderrs[0]
        return worst.means[0] >= threshold, worst.means[0], threshold

    names = ("indistinguishability-tables", "indistinguishability-coupling")
    return _check(names, tables_and_coupling) + _check("indistinguishability-regret", regret)


def suite_gft_trap() -> list:
    """A gft-optimal fixed price forfeits (1/4 - h/2) fair reward per round."""

    def body():
        T = 1000
        curve = _curve(gft_trap(0.1), "gft-oracle", (T,))
        measured = abs(curve.means[0] - (0.25 - 0.05) * T)
        return measured <= 1e-8, measured, 1e-8

    return _check("gft-trap-regret", body)


def suite_dbs_bound() -> list:
    """Bisect-then-commit regret never exceeds 1 + 2*ceil(log2 T), exactly."""

    def body():
        spec = parse_learner("dbs")
        grid = np.linspace(0.0, 1.0, 65)
        pairs = np.meshgrid(grid, grid)  # every (s, b) of the grid
        horizons = (100, 1000, 10**4, 10**5)
        worst = -np.inf
        for T, regrets in zip(horizons, profile_regret(spec, horizons, pairs)):
            worst = max(worst, float(np.max(regrets - dbs_regret_bound(T))))
        return worst <= 0.0, worst, 0.0

    return _check("dbs-bound", body)


def suite_dbs_log_growth() -> list:
    """Worst-case sweep maxima grow like log T: monotone, small increments.

    The monotone row is known-weak: a wrong commit (at 1/2, or at the last
    seller-phase price) fails the increment row, but its maxima never drop.
    """

    def body():
        sweeps = adversarial_deterministic_sweep(parse_learner("dbs"), [2**k for k in range(8, 17)])
        maxima = [report.max_regret for report in sweeps]
        steps = np.diff(np.asarray(maxima))
        worst_drop, worst_step = float(np.max(-steps)), float(np.max(steps))
        return [(worst_drop <= 0.0, worst_drop, 0.0), (worst_step <= 2.5, worst_step, 2.5)]

    return _check(("dbs-log-growth-monotone", "dbs-log-growth-increment"), body)


def _rate_rows(
    prefix: str,
    learner_id: str,
    envs,
    horizons,
    n_episodes: int,
    base_seed: int,
    normalizer,
    slope_lo: float,
    slope_hi: float,
) -> list:
    rows = []
    for env in envs:
        def body():
            curve = _curve(env, learner_id, horizons, n_episodes, base_seed)
            slope = fit_exponent(curve.horizons, curve.means).slope
            ratio = growth_ratio(
                [m / normalizer(t) for m, t in zip(curve.means, curve.horizons)]
            )
            return [(slope_lo <= slope <= slope_hi, slope, slope_hi), (ratio <= 3.0, ratio, 3.0)]

        # one Monte Carlo pass feeds both rows
        rows += _check((f"{prefix}-slope:{env.env_id}", f"{prefix}-ratio:{env.env_id}"), body)
    return rows


def suite_stochastic_rate() -> list:
    """Grid explore-then-commit: T^(2/3)-type growth on independent pairs."""
    envs = [epsilon_family(0.2)] + [random_independent_env(s) for s in _RATE_ENV_SEEDS]
    return _rate_rows(
        "stochastic-rate",
        "conv-pricing",
        envs,
        (10**3, 10**4, 10**5, 10**6),
        50,
        _RATE_MC_SEED,
        lambda t: t ** (2.0 / 3.0) * np.sqrt(np.log(t)),
        0.50,
        0.80,
    )


def suite_full_feedback_rate() -> list:
    """Follow-the-best-empirical-price: at most sqrt(T)-type growth.

    fbep posts 1/2 in round 0 and the optimum from round 1 on.  The row
    ``full-feedback-deterministic`` is known-weak: its pair's optimum is 1/2
    itself, so even a learner that never moves passes it.  The second
    pair's optimum is 0.3, where posting 1/2 loses 0.2 per round.
    """
    envs = [lb_mu(), lb_nu()] + [random_joint_env(s) for s in _FULL_ENV_SEEDS]
    rows = _rate_rows(
        "full-feedback-rate",
        "fbep",
        envs,
        (10**3, 10**4, 10**5),
        50,
        _FULL_MC_SEED,
        np.sqrt,
        -np.inf,
        0.62,
    )

    def deterministic_case(env_id):
        curve = _curve(parse_env(env_id), "fbep", (1000,))
        return curve.means[0] <= 0.5, curve.means[0], 0.5

    rows += _check("full-feedback-deterministic", lambda: deterministic_case("det:s=0.2,b=0.8"))
    second = "det:s=0.1,b=0.5"
    return rows + _check(f"full-feedback-deterministic:{second}", lambda: deterministic_case(second))


def suite_epsilon_family() -> list:
    """Closed-form mean reward and argmax of the two-atom seller family."""

    def closed_form():
        grid = np.arange(1001, dtype=np.float64) / 1000.0
        worst = 0.0
        for eps in (0.0, 0.1, -0.1, 0.25, -0.25):
            env = epsilon_family(eps)
            joint = env.joint
            means = kernels.expected_fgft_at(grid, joint.sellers, joint.buyers, joint.weights)
            formula = epsilon_family_expected_fgft(eps, grid)
            worst = max(worst, float(np.max(np.abs(means - formula))))
        return worst <= 1e-12, worst, 1e-12

    def argmax():
        worst = 0.0
        cases = [(0.0, 0.5, 3.0 / 8.0)]
        for eps in (0.1, 0.25):
            cases.append((eps, 0.5, (3.0 + eps) / 8.0))
            cases.append((-eps, 0.625, 3.0 / 8.0))
        for eps, want_price, want_value in cases:
            best = best_fixed_price_fgft(epsilon_family(eps).joint)
            worst = max(worst, abs(best.price - want_price), abs(best.value - want_value))
        return worst <= 1e-12, worst, 1e-12

    rows = _check("epsilon-family-closed-form", closed_form)
    return rows + _check("epsilon-family-argmax", argmax)


def suite_oracle_equivalence() -> list:
    """Breakpoint-enumeration oracle vs a dense brute-force price grid.

    v* is the largest E[fgft] over the oracle's candidates, and so over
    [0, 1]; brute is the largest over the grid of step h = 1e-4.  E[fgft]
    is 1-Lipschitz in p, so 0 <= v* - brute <= h/2 in exact arithmetic.
    The row passes only inside that bracket, widened below by a rounding
    bound d = 1e-12: each mean sums at most six terms w * fgft, with
    weights summing to 1 and fgft <= 1/2, so a computed mean is within
    about 6 * 2**-53 < 1e-15 of the exact mean at its price, and a
    computed candidate price is within one ulp of its breakpoint.  It also
    requires E[fgft] at each oracle price to equal its v* bitwise, as the
    regret accounting needs (a fixed price at the optimum has regret
    exactly 0).  ``measured`` is the largest |v* - brute|.

    The 100 random joints are drawn as rows of atoms
    (environments.random_joint_rows, no environment built), and
    core.best_fixed_price_fgft_rows scores every oracle in one call.  The
    brute force stays one sorted-row expected_fgft_at call per joint, on
    its own atoms only: one call over all 100 rows of atoms, padding
    included, took 10.7 ms against 4.1 ms for the 100 calls on a 2-core
    x86-64 VM.
    """

    def body():
        half_step = 1e-4 / 2.0
        grid = np.arange(10001, dtype=np.float64) / 10000.0
        sellers, buyers, weights, counts = random_joint_rows(mix64(_ORACLE_SEED, rep) for rep in range(100))
        prices, values = best_fixed_price_fgft_rows(sellers, buyers, weights)
        at_prices = kernels.expected_fgft_at(prices[:, None], sellers, buyers, weights)[:, 0]
        gaps = [
            float(v) - float(np.max(kernels.expected_fgft_at(grid, s[:n], b[:n], w[:n])))
            for s, b, w, n, v in zip(sellers, buyers, weights, counts, values)
        ]
        passed = -1e-12 <= min(gaps) and max(gaps) <= half_step and np.array_equal(at_prices, values)
        return passed, max(abs(gap) for gap in gaps), half_step

    return _check("oracle-equivalence", body)


SUITES = {
    "convolution-lemma": suite_convolution_lemma,
    "sandwich": suite_sandwich,
    "indistinguishability": suite_indistinguishability,
    "gft-trap": suite_gft_trap,
    "dbs-bound": suite_dbs_bound,
    "dbs-log-growth": suite_dbs_log_growth,
    "stochastic-rate": suite_stochastic_rate,
    "full-feedback-rate": suite_full_feedback_rate,
    "epsilon-family": suite_epsilon_family,
    "oracle-equivalence": suite_oracle_equivalence,
}

SUITE_ORDER = tuple(SUITES)


def _lookup_suite(name: str):
    if name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_ORDER)} or 'all'"
        )
    return SUITES[name]


def resolve_suite_names(name: str) -> tuple:
    if name == "all":
        return SUITE_ORDER
    _lookup_suite(name)
    return (name,)


def run_suite(name: str) -> list:
    """All CheckResult rows of one named suite."""
    return _lookup_suite(name)()


def run_suites(names) -> list:
    rows = []
    for name in names:
        rows.extend(run_suite(name))
    return rows
