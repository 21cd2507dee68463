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
  (regret must EXCEED a threshold) pass when measured >= tolerance, and the
  slope check passes inside [0.50, tolerance].
* every random quantity is seeded with fixed constants below, so reruns
  reproduce the same report apart from runtime_ms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algorithms import dbs_regret_bound, parse_learner
from .core import best_fixed_price_fgft, fgft_vector, product_joint
from .environments import (
    _rand_int,
    epsilon_family,
    epsilon_family_expected_fgft,
    gft_trap,
    lb_mu,
    lb_nu,
    parse_env,
    random_independent_env,
    random_joint_env,
    random_marginal,
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


def _float_incomplete_convolution(seller, buyer, K: int) -> np.ndarray:
    """kernels.incomplete_convolution's sums c_i for real-valued V and W.

    Same layout as the kernel, rows of V_1..V_K and W_1..W_K of shape
    (rows, K), but real values: the sandwich check convolves CDF values and
    the kernel takes 0/1 bits only.  c_i = sum_k V_{i-k} W_{i+k} has a
    nonzero term only where 1 <= i-k and i+k <= K, that is for k below
    min(i, K+1-i) <= H = ceil(K/2), so each index sums one window of H
    terms, k = 0..H-1, with positions past either end zero-padded.  Over the
    reversed seller row V_{i-k} runs forwards in k, so both (rows, K, H)
    window views keep a positive inner stride; np.vecdot sums them and no
    K x K product is formed.
    """
    H, windows = (K + 1) // 2, np.lib.stride_tricks.sliding_window_view
    pad = np.zeros((seller.shape[0], H - 1))
    v = windows(np.concatenate([seller[:, ::-1], pad], axis=1), H, axis=1)[:, ::-1]
    w = windows(np.concatenate([buyer, pad], axis=1), H, axis=1)
    return np.vecdot(v, w)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_convolution_lemma() -> list:
    """Overlap-sum approximation vs the exact tent formula on a dense box."""

    def body():
        grid = np.linspace(0.0, 1.0, 50)
        p, s, b = (a.ravel() for a in np.meshgrid(grid, grid, grid, indexing="ij"))
        approx = kernels.convolution_approx_batch(p, s, b, 10**4)
        exact = fgft_vector(p, s, b)
        measured = float(np.max(np.abs(approx - exact)))
        return measured <= 1e-4, measured, 1e-4

    return _check("convolution-lemma", body)


def suite_sandwich() -> list:
    """Discrete two-sided acceptance score brackets the exact mean reward.

    For an independent pair, the grid score at index i equals a
    left-endpoint Riemann sum of the CDF/co-CDF overlap integral, so it
    must lie within [0, 1/K] above the exact expected fgft at price i/K.
    Each K scores all 100 instances in one pass: their CDF rows P[S <= i/K]
    and co-CDF rows P[B >= i/K] stack as (100, K) arrays, and one
    expected_fgft_at call takes per-row atoms padded at the end with
    zero-weight atoms.  A padded atom adds +0.0 to a non-negative sum, so
    every exact value is bitwise the one from that instance's atoms alone.
    """

    def body():
        instances = []
        for rep in range(100):
            stream = SplitMix64(mix64(_SANDWICH_SEED, rep))
            seller = random_marginal(stream, _rand_int(stream, 2, 5))
            buyer = random_marginal(stream, _rand_int(stream, 2, 5))
            instances.append((seller, buyer, product_joint(seller, buyer)))
        atoms = np.zeros((3, len(instances), max(j.n_atoms for _, _, j in instances)))
        for row, (_, _, j) in enumerate(instances):
            atoms[:, row, : j.n_atoms] = j.sellers, j.buyers, j.weights
        worst = 0.0
        for K in (10, 100, 1000):
            grid = np.arange(1, K + 1, dtype=np.float64) / K
            cdf = np.stack([seller.cdf(grid) for seller, _, _ in instances])
            cocdf = np.stack([(grid[:, None] <= buyer.values) @ buyer.weights for _, buyer, _ in instances])
            diff = _float_incomplete_convolution(cdf, cocdf, K) / K - kernels.expected_fgft_at(grid, *atoms)
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
        T, episodes = 10**4, 50
        best_mean, best_stderr = -np.inf, 0.0
        for env in (lb_mu(), lb_nu()):
            cfg = RunConfig(
                env=env,
                learner=parse_learner("conv-pricing"),
                horizons=(T,),
                n_episodes=episodes,
                base_seed=_LB_MC_SEED,
            )
            curve = run_monte_carlo(cfg)
            if curve.means[0] > best_mean:
                best_mean, best_stderr = curve.means[0], curve.stderrs[0]
        threshold = T / 48.0 - 3.0 * best_stderr
        return best_mean >= threshold, best_mean, threshold

    names = ("indistinguishability-tables", "indistinguishability-coupling")
    return _check(names, tables_and_coupling) + _check("indistinguishability-regret", regret)


def suite_gft_trap() -> list:
    """A gft-optimal fixed price forfeits (1/4 - h/2) fair reward per round."""

    def body():
        T = 1000
        cfg = RunConfig(
            env=gft_trap(0.1),
            learner=parse_learner("gft-oracle"),
            horizons=(T,),
            n_episodes=1,
            base_seed=0,
        )
        curve = run_monte_carlo(cfg)
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
        sweeps = adversarial_deterministic_sweep("dbs", [2**k for k in range(8, 17)])
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
    spec = parse_learner(learner_id)
    for env in envs:
        def body():
            cfg = RunConfig(
                env=env,
                learner=spec,
                horizons=horizons,
                n_episodes=n_episodes,
                base_seed=base_seed,
            )
            curve = run_monte_carlo(cfg)
            slope = fit_exponent(curve).slope
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
        cfg = RunConfig(
            env=parse_env(env_id),
            learner=parse_learner("fbep"),
            horizons=(1000,),
            n_episodes=1,
            base_seed=0,
        )
        curve = run_monte_carlo(cfg)
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
            formula = np.asarray(
                [epsilon_family_expected_fgft(eps, float(p)) for p in grid]
            )
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
    """Breakpoint-enumeration oracle vs a dense brute-force price grid."""

    def body():
        grid = np.arange(10001, dtype=np.float64) / 10000.0
        worst = 0.0
        for rep in range(100):
            env = random_joint_env(mix64(_ORACLE_SEED, rep))
            joint = env.joint
            brute = float(
                np.max(
                    kernels.expected_fgft_at(grid, joint.sellers, joint.buyers, joint.weights)
                )
            )
            oracle = best_fixed_price_fgft(joint).value
            worst = max(worst, abs(oracle - brute))
        return worst <= 1e-4, worst, 1e-4

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
