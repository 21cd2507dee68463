"""Episode loop, fast-path parity, regret accounting, and reports."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtrade import harness
from fairtrade.algorithms import dbs_regret_bound, parse_learner
from fairtrade.core import FiniteJointDistribution, best_fixed_price_fgft
from fairtrade.environments import (
    FeedbackModel,
    deterministic,
    epsilon_family,
    gft_trap,
    joint_finite,
    lb_mu,
)
from fairtrade.harness import (
    FeedbackMismatchError,
    RunConfig,
    _EnvTables,
    _episode_regrets,
    _price_profile,
    _profile_regret,
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
from fairtrade.rng import MASK64, mix64
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
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="base_seed"):
            RunConfig(env=lb_mu(), learner=spec, horizon=10, base_seed=seed)
    # config numbers must be whole; integral floats and NumPy integers count as whole
    for field in ("horizon", "n_episodes", "base_seed"):
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            RunConfig(**{"env": lb_mu(), "learner": spec, "horizon": 10, field: 100.5})
    with pytest.raises(ValueError, match="horizon must be a whole number"):
        RunConfig(env=lb_mu(), learner=parse_learner("fixed:p=0.5"), horizon=100.5)
    cfg = RunConfig(env=lb_mu(), learner=spec, horizon=np.int64(10), n_episodes=2.0)
    assert (type(cfg.horizon), type(cfg.n_episodes)) == (int, int)
    assert run_monte_carlo(cfg, horizons=np.array([10, 20])).horizons == (10, 20)
    with pytest.raises(ValueError, match="horizon must be a whole number"):
        run_monte_carlo(cfg, horizons=[100.5])
    with pytest.raises(ValueError, match="at least one horizon"):
        run_monte_carlo(cfg, horizons=[])
    for hs in ((100, 10), (10, 10)):
        with pytest.raises(ValueError, match="strictly increasing"):
            run_monte_carlo(cfg, horizons=hs)


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
    tables = _EnvTables(cfg.env)
    for e in range(3):
        explore, tail, tail_len = _price_profile(cfg.learner, tables, T, [mix64(cfg.base_seed, e)])
        kernel_path = np.concatenate([explore[0], np.full(tail_len, tail[0])])
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


_UNIT = st.floats(0.0, 1.0)


@st.composite
def _deterministic_learners(draw):
    """(learner id, T) for every deterministic learner without full feedback."""
    T = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["dbs", "conv-pricing", "conv-pricing:K", "fixed", "gft-oracle"]))
    if kind == "conv-pricing:K":
        return f"conv-pricing:K={draw(st.integers(1, T))}", T
    if kind == "fixed":
        return f"fixed:p={draw(_UNIT)!r}", T
    return kind, T


def _dyadic_examples(test):
    # bisection midpoints hit the values exactly, so <= and < disagree there
    for learner_id in ("dbs", "conv-pricing"):
        for T in (1, 6, 7, 8):
            for pair in ((0.25, 0.75), (0.5, 0.5)):
                test = example(learner=(learner_id, T), pair=pair)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(learner=_deterministic_learners(), pair=st.tuples(_UNIT, _UNIT))
@_dyadic_examples
def test_point_mass_profile_matches_reference_loop(learner, pair):
    learner_id, T = learner
    spec = parse_learner(learner_id)
    env = deterministic(*pair)
    trajectory = run_episode(RunConfig(env=env, learner=spec, horizon=T), 0)
    explore, tail, tail_len = deterministic_price_profile(spec, T, pair)
    assert np.array_equal(np.concatenate([explore, np.full(tail_len, tail)]), trajectory.prices)
    assert profile_regret(spec, T, pair) == pytest.approx(
        pseudo_regret(env, trajectory), rel=0.0, abs=1e-12 * T
    )


_EIGHTHS = st.integers(0, 8).map(lambda k: k / 8)

# s > b, s == b, dyadic values, and the ends of the unit interval
_EDGE_POINTS = [(0.75, 0.25), (0.5, 0.5), (0.125, 0.875), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)]


def _edge_point_examples(test):
    learners = [("dbs", 16), ("dbs", 7), ("conv-pricing", 8), ("conv-pricing:K=4", 9)]
    for learner in learners + [("fixed:p=0.5", 3), ("gft-oracle", 3)]:
        test = example(learner=learner, pairs=_EDGE_POINTS)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(
    learner=_deterministic_learners(),
    pairs=st.lists(
        st.tuples(st.one_of(_UNIT, _EIGHTHS), st.one_of(_UNIT, _EIGHTHS)), min_size=1, max_size=6
    ),
)
@_edge_point_examples
def test_point_mass_batch_matches_single_points(learner, pairs):
    # one array pass over the batch: every row is that point's reference
    # path, and the batch's regrets are the single-point regrets bitwise
    learner_id, T = learner
    spec = parse_learner(learner_id)
    sellers, buyers = np.array(pairs, dtype=np.float64).T
    explore, tail, tail_len = deterministic_price_profile(spec, T, (sellers, buyers))
    for i, pair in enumerate(pairs):
        trajectory = run_episode(RunConfig(env=deterministic(*pair), learner=spec, horizon=T), 0)
        path = np.concatenate([explore[i], np.full(tail_len, tail[i])])
        assert np.array_equal(path, trajectory.prices), pair
    single = [profile_regret(spec, T, pair) for pair in pairs]
    assert np.array_equal(profile_regret(spec, T, (sellers, buyers)), single)


def test_profile_regret_keeps_the_broadcast_shape(monkeypatch):
    spec = parse_learner("dbs")
    grid = np.linspace(0.0, 1.0, 5)
    sellers, buyers = np.meshgrid(grid, grid)
    regrets = profile_regret(spec, 100, (sellers, buyers))
    assert regrets.shape == (5, 5)
    assert np.array_equal(regrets, profile_regret(spec, 100, (grid[None, :], grid[:, None])))
    monkeypatch.setattr(harness, "POINT_BLOCK", 3)  # 25 points in 9 passes
    assert np.array_equal(regrets, profile_regret(spec, 100, (sellers, buyers)))
    assert regrets[1, 3] == profile_regret(spec, 100, (grid[3], grid[1]))
    assert isinstance(profile_regret(spec, 100, (0.25, 0.75)), float)
    assert profile_regret(spec, 100, (np.empty((0, 1)), grid[:3])).shape == (0, 3)


@pytest.mark.parametrize("side", ["seller", "buyer"])
@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
def test_point_mass_batch_rejects_values_outside_the_unit_interval(side, bad):
    pair = {"seller": np.array([0.0, 0.2, 0.5]), "buyer": np.array([1.0, 0.9, 0.5])}
    pair[side][1] = bad
    for fn in (profile_regret, deterministic_price_profile):
        with pytest.raises(ValueError, match=rf"{side} values must lie in \[0, 1\]"):
            fn(parse_learner("dbs"), 64, (pair["seller"], pair["buyer"]))


@st.composite
def _random_joints(draw):
    """((seller, buyer), raw weight) entries of a joint with 1-6 distinct atoms.

    Half of the joints lie on the k/8 grid, where bisection midpoints and
    grid prices hit atom values exactly and candidate prices tie.
    """
    value = draw(st.sampled_from([_UNIT, _EIGHTHS]))
    pairs = draw(st.lists(st.tuples(value, value), min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return list(zip(pairs, raw))


def _joint_env(atoms):
    total = sum(w for _, w in atoms)
    return joint_finite(FiniteJointDistribution([(pair, w / total) for pair, w in atoms]))


_KERNEL_LEARNERS = st.one_of(
    _deterministic_learners(),
    st.tuples(st.integers(0, 2**32).map("uniform:seed={}".format), st.integers(1, 300)),
)

# grid-aligned atoms: bisection midpoints and grid prices land on their values
_TIED_ATOMS = [((0.25, 0.75), 1.0), ((0.5, 0.5), 1.0), ((0.125, 0.875), 2.0)]


def _edge_horizon_examples(test):
    # T in {1, K, 2N, 2N+1}: a single round, a grid that fills the horizon,
    # the last horizon at which dbs cannot explore (T = 2N = 6) and the
    # first two at which it explores N rounds per side (T = 2N + 1)
    cases = [(learner_id, 1) for learner_id in ("dbs", "conv-pricing", "gft-oracle")]
    cases += [("uniform:seed=42", 1), ("fixed:p=0.5", 1)]
    cases += [("conv-pricing:K=8", 8), ("conv-pricing", 8), ("conv-pricing:K=4", 4)]
    cases += [("dbs", 6), ("dbs", 7), ("dbs", 9)]
    for learner in cases:
        test = example(atoms=_TIED_ATOMS, learner=learner, base_seed=11, episode=0)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(
    atoms=_random_joints(),
    learner=_KERNEL_LEARNERS,
    base_seed=st.integers(0, MASK64),
    episode=st.integers(0, 3),
)
@_edge_horizon_examples
def test_kernel_profile_matches_reference_loop(atoms, learner, base_seed, episode):
    # fbep is left out: its kernel can break a flat top of the empirical
    # mean differently (the strict xfail random-ind-1-fbep-300 above)
    learner_id, T = learner
    cfg = RunConfig(
        env=_joint_env(atoms), learner=parse_learner(learner_id), horizon=T, base_seed=base_seed
    )
    explore, tail, tail_len = _price_profile(
        cfg.learner, _EnvTables(cfg.env), T, [mix64(base_seed, episode)]
    )
    kernel_path = np.concatenate([explore[0], np.full(tail_len, tail[0])])
    assert np.array_equal(kernel_path, run_episode(cfg, episode).prices)


@settings(max_examples=60, deadline=None)
@given(
    atoms=_random_joints(),
    learner_id=st.sampled_from(["dbs", "conv-pricing"]),
    T=st.integers(1, 300),
    n_episodes=st.integers(3, 6),
    base_seed=st.integers(0, MASK64),
)
@example(atoms=_TIED_ATOMS, learner_id="dbs", T=9, n_episodes=3, base_seed=11)
@example(atoms=_TIED_ATOMS, learner_id="conv-pricing", T=8, n_episodes=3, base_seed=11)
# K = T = 1: one shared exploration row and no tail still give a regret per episode
@example(atoms=_TIED_ATOMS, learner_id="conv-pricing", T=1, n_episodes=3, base_seed=11)
@example(atoms=_TIED_ATOMS, learner_id="conv-pricing", T=1, n_episodes=5, base_seed=11)
def test_episode_rows_match_per_episode_scoring(atoms, learner_id, T, n_episodes, base_seed):
    # a cell's episodes share one array pass; each row's regret is the
    # regret of that episode's own one-seed profile, bitwise
    cfg = RunConfig(
        env=_joint_env(atoms),
        learner=parse_learner(learner_id),
        horizon=T,
        n_episodes=n_episodes,
        base_seed=base_seed,
    )
    tables = _EnvTables(cfg.env)
    want = [
        _profile_regret(tables, *_price_profile(cfg.learner, tables, T, [mix64(base_seed, e)]))[0]
        for e in range(n_episodes)
    ]
    assert np.array_equal(_episode_regrets(cfg, T, tables), want)


@settings(max_examples=150, deadline=None)
@given(atoms=_random_joints(), T=st.integers(1, 300))
def test_fixed_price_at_the_optimum_has_zero_regret(atoms, T):
    # v* and every regret term come from one evaluator, so this is exact
    env = _joint_env(atoms)
    best = best_fixed_price_fgft(env.joint)
    assert pseudo_regret(env, np.full(T, best.price)) == 0.0
    spec = parse_learner(f"fixed:p={best.price!r}")
    assert run_monte_carlo(RunConfig(env=env, learner=spec, horizon=T, n_episodes=2)).means == (0.0,)


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


def test_sweep_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="seller grid of a sweep is empty"):
        adversarial_deterministic_sweep("dbs", 64, s_values=np.array([]))


# ---------------------------------------------------------------------------
# indistinguishable pair
# ---------------------------------------------------------------------------


def test_indistinguishability_check_passes():
    report = indistinguishability_check(horizon=512)
    assert report.tables_equal
    assert report.max_table_gap == 0.0
    assert report.coupled_trajectories_equal
    assert report.prices_checked == (0.0, 0.1875, 0.375, 0.5, 0.625, 0.8125, 1.0)
