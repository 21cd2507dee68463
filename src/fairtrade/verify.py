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
from .core import (
    FiniteJointDistribution,
    FiniteMarginal,
    best_fixed_price_fgft,
    fgft_vector,
    product_joint,
)
from .environments import (
    Environment,
    epsilon_family,
    epsilon_family_expected_fgft,
    gft_trap,
    independent_finite,
    joint_finite,
    lb_mu,
    lb_nu,
    parse_env,
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


def _check(name: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    passed, measured, tolerance = fn()
    dt = (time.perf_counter() - t0) * 1e3
    return CheckResult(name, bool(passed), float(measured), float(tolerance), dt)


# ---------------------------------------------------------------------------
# seeded random instance generators
# ---------------------------------------------------------------------------

_SANDWICH_SEED = 12001
_RATE_ENV_SEEDS = (101, 202)
_RATE_MC_SEED = 7
_FULL_ENV_SEEDS = (303, 404)
_FULL_MC_SEED = 8
_LB_MC_SEED = 3
_ORACLE_SEED = 9100


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
    stream = SplitMix64(seed)
    n_s = _rand_int(stream, 2, 5)
    n_b = _rand_int(stream, 2, 5)
    seller = random_marginal(stream, n_s, 0.0, 0.45)
    buyer = random_marginal(stream, n_b, 0.55, 1.0)
    return independent_finite(seller, buyer, env_id=f"random-ind:seed={seed}")


def random_joint_env(seed: int) -> Environment:
    """Finite joint with 3..6 distinct uniform atoms (dependence allowed).

    Atom sets are redrawn until some atom has buyer at least 0.1 above
    seller, keeping the optimal expected reward away from zero (an all
    seller-above-buyer draw would make every price score exactly zero and
    break regret-positivity preconditions downstream).
    """
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
    return joint_finite(dist, env_id=f"random-joint:seed={seed}")


def _marginal_cdf(marginal: FiniteMarginal, xs: np.ndarray) -> np.ndarray:
    return (xs[:, None] >= marginal.values[None, :]) @ marginal.weights


def _marginal_cocdf(marginal: FiniteMarginal, xs: np.ndarray) -> np.ndarray:
    return (xs[:, None] <= marginal.values[None, :]) @ marginal.weights


def _float_incomplete_convolution(av, bv, K: int) -> np.ndarray:
    """kernels.incomplete_convolution's sums for real-valued A and B.

    The kernel takes 0/1 bits only; the sandwich check convolves CDF
    values, so it keeps this dot-product loop (same layout, same sums).
    """
    out = np.empty(K, dtype=np.float64)
    for i in range(1, K + 1):
        kmax = min(i, K - 1)
        out[i - 1] = float(np.dot(av[i - kmax : i + 1][::-1], bv[i : i + kmax + 1]))
    return out


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

    return [_check("convolution-lemma", body)]


def suite_sandwich() -> list:
    """Discrete two-sided acceptance score brackets the exact mean reward.

    For an independent pair, the grid score at index i equals a
    left-endpoint Riemann sum of the CDF/co-CDF overlap integral, so it
    must lie within [0, 1/K] above the exact expected fgft at price i/K.
    """

    def body():
        worst = 0.0
        for rep in range(100):
            stream = SplitMix64(mix64(_SANDWICH_SEED, rep))
            seller = random_marginal(stream, _rand_int(stream, 2, 5))
            buyer = random_marginal(stream, _rand_int(stream, 2, 5))
            joint = product_joint(seller, buyer)
            for K in (10, 100, 1000):
                grid = np.arange(1, K + 1, dtype=np.float64) / K
                av = np.zeros(K + 1, dtype=np.float64)
                av[1:] = _marginal_cdf(seller, grid)
                bv = np.zeros(2 * K + 1, dtype=np.float64)
                bv[1:] = _marginal_cocdf(buyer, np.arange(1, 2 * K + 1, dtype=np.float64) / K)
                score = _float_incomplete_convolution(av, bv, K) / K
                exact = kernels.expected_fgft_at(
                    grid, joint.sellers, joint.buyers, joint.weights
                )
                diff = score - exact
                worst = max(worst, float(np.max(-diff)), float(np.max(diff - 1.0 / K)))
        return worst <= 1e-10, worst, 1e-10

    return [_check("sandwich", body)]


def suite_indistinguishability() -> list:
    """The lower-bound pair: equal feedback laws, linear regret witness."""
    state: dict = {}

    def tables():
        report = state["report"] = indistinguishability_check(
            horizon=4096, n_episodes=3, base_seed=0
        )
        return report.tables_equal, report.max_table_gap, 0.0

    def coupling():
        report = state["report"]
        measured = 0.0 if report.coupled_trajectories_equal else 1.0
        return report.coupled_trajectories_equal, measured, 0.0

    def regret():
        T, episodes = 10**4, 50
        best_mean, best_stderr = -np.inf, 0.0
        for env in (lb_mu(), lb_nu()):
            cfg = RunConfig(
                env=env,
                learner=parse_learner("conv-pricing"),
                horizon=T,
                n_episodes=episodes,
                base_seed=_LB_MC_SEED,
            )
            curve = run_monte_carlo(cfg)
            if curve.means[0] > best_mean:
                best_mean, best_stderr = curve.means[0], curve.stderrs[0]
        threshold = T / 48.0 - 3.0 * best_stderr
        return best_mean >= threshold, best_mean, threshold

    return [
        _check("indistinguishability-tables", tables),
        _check("indistinguishability-coupling", coupling),
        _check("indistinguishability-regret", regret),
    ]


def suite_gft_trap() -> list:
    """A gft-optimal fixed price forfeits (1/4 - h/2) fair reward per round."""

    def body():
        T = 1000
        cfg = RunConfig(
            env=gft_trap(0.1),
            learner=parse_learner("gft-oracle"),
            horizon=T,
            n_episodes=1,
            base_seed=0,
        )
        curve = run_monte_carlo(cfg)
        measured = abs(curve.means[0] - (0.25 - 0.05) * T)
        return measured <= 1e-8, measured, 1e-8

    return [_check("gft-trap-regret", body)]


def suite_dbs_bound() -> list:
    """Bisect-then-commit regret never exceeds 1 + 2*ceil(log2 T), exactly."""

    def body():
        spec = parse_learner("dbs")
        grid = np.linspace(0.0, 1.0, 65)
        pairs = np.meshgrid(grid, grid)  # every (s, b) of the grid
        horizons = (100, 1000, 10**4, 10**5)
        worst = -np.inf
        for T in horizons:
            excess = np.max(profile_regret(spec, T, pairs) - dbs_regret_bound(T))
            worst = max(worst, float(excess))
        return worst <= 0.0, worst, 0.0

    return [_check("dbs-bound", body)]


def suite_dbs_log_growth() -> list:
    """Worst-case sweep maxima grow like log T: monotone, small increments."""
    state: dict = {}

    def monotone():
        maxima = [
            adversarial_deterministic_sweep("dbs", 2**k).max_regret
            for k in range(8, 17)
        ]
        steps = state["steps"] = np.diff(np.asarray(maxima))
        worst_drop = float(np.max(-steps))
        return worst_drop <= 0.0, worst_drop, 0.0

    def increment():
        worst_step = float(np.max(state["steps"]))
        return worst_step <= 2.5, worst_step, 2.5

    return [
        _check("dbs-log-growth-monotone", monotone),
        _check("dbs-log-growth-increment", increment),
    ]


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
        def body(env=env):
            cfg = RunConfig(
                env=env,
                learner=spec,
                horizon=horizons[-1],
                n_episodes=n_episodes,
                base_seed=base_seed,
            )
            curve = run_monte_carlo(cfg, horizons=horizons)
            slope = fit_exponent(curve).slope
            ratio = growth_ratio(
                [m / normalizer(t) for m, t in zip(curve.means, curve.horizons)]
            )
            return slope, ratio

        # one Monte Carlo pass feeds both rows; time it inside the first row
        state: dict = {}

        def slope_row(env=env, body=body, state=state):
            state["slope"], state["ratio"] = body()
            ok = slope_lo <= state["slope"] <= slope_hi
            return ok, state["slope"], slope_hi

        def ratio_row(state=state):
            return state["ratio"] <= 3.0, state["ratio"], 3.0

        rows.append(_check(f"{prefix}-slope:{env.env_id}", slope_row))
        rows.append(_check(f"{prefix}-ratio:{env.env_id}", ratio_row))
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
    """Follow-the-best-empirical-price: at most sqrt(T)-type growth."""
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

    def deterministic_case():
        cfg = RunConfig(
            env=parse_env("det:s=0.2,b=0.8"),
            learner=parse_learner("fbep"),
            horizon=1000,
            n_episodes=1,
            base_seed=0,
        )
        curve = run_monte_carlo(cfg)
        return curve.means[0] <= 0.5, curve.means[0], 0.5

    rows.append(_check("full-feedback-deterministic", deterministic_case))
    return rows


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

    return [
        _check("epsilon-family-closed-form", closed_form),
        _check("epsilon-family-argmax", argmax),
    ]


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

    return [_check("oracle-equivalence", body)]


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
