"""Episode loop, fast-path parity, regret accounting, and reports."""

import numpy as np
import pytest

from fairtrade.algorithms import dbs_regret_bound, parse_learner
from fairtrade.environments import FeedbackModel, deterministic, epsilon_family, gft_trap, lb_mu
from fairtrade.harness import (
    FeedbackMismatchError,
    RunConfig,
    _EnvTables,
    _price_profile,
    adversarial_deterministic_sweep,
    deterministic_price_profile,
    fit_exponent,
    growth_ratio,
    indistinguishability_check,
    profile_regret,
    pseudo_regret,
    resolve_feedback,
    run_episode,
    run_monte_carlo,
)
from fairtrade.rng import mix64
from fairtrade.verify import random_independent_env

TWO_BIT = FeedbackModel.TWO_BIT
FULL = FeedbackModel.FULL


# ---------------------------------------------------------------------------
# feedback reconciliation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "requires,requested,expected",
    [
        (None, None, (TWO_BIT, TWO_BIT)),
        (None, FULL, (FULL, FULL)),
        (TWO_BIT, None, (TWO_BIT, TWO_BIT)),
        (TWO_BIT, TWO_BIT, (TWO_BIT, TWO_BIT)),
        (TWO_BIT, FULL, (FULL, TWO_BIT)),  # bits derived from the observation
        (FULL, None, (FULL, FULL)),
        (FULL, FULL, (FULL, FULL)),
    ],
)
def test_resolve_feedback_accepts(requires, requested, expected):
    assert resolve_feedback(requires, requested) == expected


def test_resolve_feedback_rejects_impossible_derivation():
    with pytest.raises(FeedbackMismatchError):
        resolve_feedback(FULL, TWO_BIT)
    with pytest.raises(FeedbackMismatchError):
        resolve_feedback(FULL, TWO_BIT, strict=True)


def test_resolve_feedback_strict_forbids_silent_derivation():
    with pytest.raises(FeedbackMismatchError):
        resolve_feedback(TWO_BIT, FULL, strict=True)
    # strict mode only restricts derivations, not exact matches
    assert resolve_feedback(FULL, FULL, strict=True) == (FULL, FULL)
    assert resolve_feedback(TWO_BIT, TWO_BIT, strict=True) == (TWO_BIT, TWO_BIT)


def test_run_config_validation():
    spec = parse_learner("dbs")
    with pytest.raises(ValueError):
        RunConfig(env=lb_mu(), learner=spec, horizon=0)
    with pytest.raises(ValueError):
        RunConfig(env=lb_mu(), learner=spec, horizon=10, n_episodes=0)


def test_mismatched_config_fails_before_any_episode():
    cfg = RunConfig(env=lb_mu(), learner=parse_learner("fbep"), horizon=8, feedback=TWO_BIT)
    with pytest.raises(FeedbackMismatchError):
        run_monte_carlo(cfg)
    strict = RunConfig(
        env=lb_mu(),
        learner=parse_learner("dbs"),
        horizon=8,
        feedback=FULL,
        strict_feedback=True,
    )
    with pytest.raises(FeedbackMismatchError):
        run_monte_carlo(strict)


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------


def test_run_episode_is_reproducible():
    cfg = RunConfig(env=lb_mu(), learner=parse_learner("conv-pricing"), horizon=200, base_seed=4)
    a = run_episode(cfg, 0)
    b = run_episode(cfg, 0)
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.rewards, b.rewards)
    c = run_episode(cfg, 1)  # a different episode draws different pairs
    assert not np.array_equal(a.sellers, c.sellers)


def test_run_episode_trajectory_contents():
    cfg = RunConfig(env=deterministic(0.0, 1.0), learner=parse_learner("fixed:p=0.5"), horizon=3)
    traj = run_episode(cfg, 0)
    assert traj.prices.tolist() == [0.5, 0.5, 0.5]
    assert traj.rewards.tolist() == [0.5, 0.5, 0.5]
    assert traj.sellers.tolist() == [0.0, 0.0, 0.0]
    assert traj.buyers.tolist() == [1.0, 1.0, 1.0]
    assert traj.total_reward == 1.5


def test_pseudo_regret_accepts_prices_or_trajectory():
    env = gft_trap(0.1)
    # the raw-gain oracle price 0.9 gives fair reward 0.05 against optimum 0.25
    assert pseudo_regret(env, [0.9] * 5) == pytest.approx(1.0, abs=1e-12)
    cfg = RunConfig(env=env, learner=parse_learner("gft-oracle"), horizon=5)
    assert pseudo_regret(env, run_episode(cfg, 0)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fast paths against the reference loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "learner_id",
    ["conv-pricing", "dbs", "fbep", "fixed:p=0.3", "gft-oracle", "uniform:seed=42"],
)
@pytest.mark.parametrize("env_fn", [lb_mu, lambda: epsilon_family(0.2)])
def test_fast_path_matches_reference(learner_id, env_fn):
    cfg = RunConfig(
        env=env_fn(), learner=parse_learner(learner_id), horizon=257, n_episodes=2, base_seed=11
    )
    ref = [pseudo_regret(cfg.env, run_episode(cfg, e)) for e in range(cfg.n_episodes)]
    fast = run_monte_carlo(cfg)
    np.testing.assert_allclose(fast.means, [np.mean(ref)], atol=1e-9)
    np.testing.assert_allclose(fast.stderrs, [np.std(ref, ddof=1) / np.sqrt(len(ref))], atol=1e-9)


_PATH_ENVS = {
    "lb-mu": lb_mu,
    "eps-0.2": lambda: epsilon_family(0.2),
    "random-ind-1": lambda: random_independent_env(1),
}

_FBEP_FLAT_TOP = pytest.mark.xfail(
    strict=True,
    reason="fbep_prices also scores candidates of atoms not yet sampled; on a flat top "
    "of the empirical mean one rounds one ulp above the reference learner's smallest "
    "maximizer (episode 0 diverges at round 2)",
)


def _path_cases():
    for env_name in _PATH_ENVS:
        for learner_id in ("conv-pricing", "dbs", "fbep", "uniform:seed=42"):
            flat_top = (env_name, learner_id) == ("random-ind-1", "fbep")
            yield pytest.param(
                env_name, learner_id, 300, marks=_FBEP_FLAT_TOP if flat_top else ()
            )
            yield pytest.param(env_name, learner_id, 1)
        yield pytest.param(env_name, "conv-pricing:K=40", 40)  # no commit tail
        for T in range(2, 8):  # 2N+1 > T posts 1/2 throughout; T=7 is the first N > 0
            yield pytest.param(env_name, "dbs", T)


@pytest.mark.parametrize("env_name,learner_id,T", list(_path_cases()))
def test_fast_path_prices_match_reference_bitwise(env_name, learner_id, T):
    cfg = RunConfig(
        env=_PATH_ENVS[env_name](), learner=parse_learner(learner_id), horizon=T, base_seed=11
    )
    profile = _price_profile(cfg.learner, _EnvTables(cfg.env), T)
    for e in range(3):
        explore, tail, tail_len = profile(mix64(cfg.base_seed, e))
        kernel_path = np.concatenate([explore, np.full(tail_len, tail)])
        assert np.array_equal(run_episode(cfg, e).prices, kernel_path), e


def test_monte_carlo_curves_share_draws_across_horizons():
    # the uniform baseline posts the same price sequence at every horizon, so
    # with shared episode seeds regret is pathwise non-decreasing in T
    cfg = RunConfig(env=lb_mu(), learner=parse_learner("uniform:seed=3"), horizon=64, n_episodes=10)
    curve = run_monte_carlo(cfg, horizons=(64, 128, 256, 512))
    assert curve.horizons == (64, 128, 256, 512)
    assert list(curve.means) == sorted(curve.means)
    assert curve.n_episodes == 10
    assert all(s >= 0.0 for s in curve.stderrs)


def test_monte_carlo_single_episode_has_zero_stderr():
    cfg = RunConfig(env=lb_mu(), learner=parse_learner("fixed:p=0.5"), horizon=10)
    curve = run_monte_carlo(cfg)
    assert curve.stderrs == (0.0,)


# ---------------------------------------------------------------------------
# curve fitting
# ---------------------------------------------------------------------------


def test_fit_exponent_recovers_power_laws():
    hs = (100, 1000, 10_000, 100_000)
    fit = fit_exponent(hs, [2.0 * t ** (2.0 / 3.0) for t in hs])
    assert fit.slope == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(2.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit_exponent(hs, [5.0 * t**0.5 for t in hs]).slope == pytest.approx(0.5, abs=1e-12)


def test_fit_exponent_constant_sequence():
    fit = fit_exponent((10, 100, 1000), [0.7, 0.7, 0.7])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_fit_exponent_accepts_curve():
    cfg = RunConfig(env=lb_mu(), learner=parse_learner("fixed:p=0.9"), horizon=10, n_episodes=2)
    curve = run_monte_carlo(cfg, horizons=(10, 100, 1000))
    assert fit_exponent(curve).slope == pytest.approx(1.0, abs=1e-12)  # linear regret


def test_fit_exponent_preconditions():
    with pytest.raises(ValueError):
        fit_exponent((10, 100), [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_exponent((10, 100, 1000), [1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        fit_exponent((10, 10, 10), [1.0, 1.0, 1.0])


def test_growth_ratio():
    assert growth_ratio([4.0, 2.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert growth_ratio([1.0, 2.0, 6.0]) == pytest.approx(6.0)
    assert growth_ratio([5.0, 4.0, 3.0]) == 1.0  # never exceeds an earlier level
    assert growth_ratio([3.0]) == 1.0
    with pytest.raises(ValueError):
        growth_ratio([1.0, 0.0])


# ---------------------------------------------------------------------------
# deterministic-instance machinery
# ---------------------------------------------------------------------------


def test_price_profile_fixed():
    explore, tail, tail_len = deterministic_price_profile(
        parse_learner("fixed:p=0.5"), 100, (0.2, 0.8)
    )
    assert explore.size == 0
    assert tail == 0.5
    assert tail_len == 100


def test_price_profile_dbs_matches_trace():
    explore, tail, tail_len = deterministic_price_profile(parse_learner("dbs"), 16, (0.25, 0.75))
    assert explore.tolist() == [0.5, 0.25, 0.125, 0.1875, 0.5, 0.75, 0.875, 0.8125]
    assert tail == 0.5
    assert tail_len == 8


def test_price_profile_conv_pricing():
    explore, tail, tail_len = deterministic_price_profile(
        parse_learner("conv-pricing"), 8, (0.2, 0.8)
    )
    assert explore.tolist() == [0.25, 0.5, 0.75, 1.0]
    assert tail == 0.5
    assert tail_len == 4


def test_price_profile_rejects_unusable_learners():
    with pytest.raises(ValueError):
        deterministic_price_profile(parse_learner("uniform"), 10, (0.2, 0.8))
    with pytest.raises(ValueError):
        deterministic_price_profile(parse_learner("fbep"), 10, (0.2, 0.8))


def test_profile_regret_matches_reference_loop():
    spec = parse_learner("dbs")
    pair = (0.25, 0.75)
    env = deterministic(*pair)
    cfg = RunConfig(env=env, learner=spec, horizon=16)
    want = pseudo_regret(env, run_episode(cfg, 0))
    assert profile_regret(spec, 16, pair) == pytest.approx(want, abs=1e-12)


def test_sweep_fixed_price_frozen():
    report = adversarial_deterministic_sweep("fixed:p=0.5", 1024)
    assert report.max_regret == 128.0  # worst point mass loses 1/8 per round
    assert report.argmax_s == 0.25
    assert report.learner_id == "fixed:p=0.5"
    assert report.s_values.size == 4097


def test_sweep_dbs_within_theory_bound():
    report = adversarial_deterministic_sweep("dbs", 1024)
    assert report.max_regret == pytest.approx(8.4931640625, abs=1e-12)
    assert report.argmax_s == pytest.approx(0.0009765625, abs=1e-15)
    assert report.max_regret <= dbs_regret_bound(1024)


def test_sweep_accepts_custom_grid():
    report = adversarial_deterministic_sweep(
        parse_learner("dbs"), 64, s_values=np.asarray([0.0, 0.1]), buyer=0.9
    )
    assert report.s_values.tolist() == [0.0, 0.1]
    assert report.buyer == 0.9
    assert report.regrets.size == 2


# ---------------------------------------------------------------------------
# indistinguishable pair
# ---------------------------------------------------------------------------


def test_indistinguishability_check_passes():
    report = indistinguishability_check(horizon=512)
    assert report.tables_equal
    assert report.max_table_gap == 0.0
    assert report.coupled_trajectories_equal
    assert report.prices_checked == (0.0, 0.1875, 0.375, 0.5, 0.625, 0.8125, 1.0)
