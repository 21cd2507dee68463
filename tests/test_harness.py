"""Episode loop, fast-path parity, regret accounting, and reports."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtrade import core, harness, kernels
from fairtrade.algorithms import (
    LEARNER_KINDS,
    Learner,
    LearnerSpec,
    dbs_phase_length,
    dbs_regret_bound,
    default_grid_size,
    parse_learner,
)
from fairtrade.core import FiniteJointDistribution, ValuationPair, best_fixed_price_fgft, gft_candidates
from fairtrade.environments import (
    FEEDBACK_OUTCOMES,
    Environment,
    FeedbackModel,
    TwoBitFeedback,
    deterministic,
    epsilon_family,
    feedback_distribution,
    feedback_tables,
    gft_trap,
    lb_mu,
    lb_nu,
    parse_env,
    render_feedback,
)
from fairtrade.harness import (
    RunConfig,
    _PROFILES,
    _ROUND_GAPS,
    _EnvTables,
    _episode_regrets,
    _price_profiles,
    _profile_regret,
    _round_gaps,
    adversarial_deterministic_sweep,
    fit_exponent,
    growth_ratio,
    indistinguishability_check,
    profile_regret,
    run_episode,
    run_monte_carlo,
)
from fairtrade.rng import MASK64, draw_rows, mix64
from fairtrade.verify import random_independent_env
from reference import deterministic_price_profile, price_profile, pseudo_regret
from test_environments import valid_id
from test_verify import MUTATIONS

# ---------------------------------------------------------------------------
# run configs
# ---------------------------------------------------------------------------


def test_run_config_validation():
    spec = parse_learner("dbs")
    with pytest.raises(ValueError):
        RunConfig(env=lb_mu(), learner=spec, horizons=(10,), n_episodes=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="base_seed"):
            RunConfig(env=lb_mu(), learner=spec, horizons=(10,), base_seed=seed)
    # config numbers must be whole; integral floats and NumPy integers count as whole
    for field, bad, name in (
        ("horizons", (10, 100.5), "horizon"),
        ("n_episodes", 100.5, "n_episodes"),
        ("base_seed", 100.5, "base_seed"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            RunConfig(**{"env": lb_mu(), "learner": spec, "horizons": (10,), field: bad})
    with pytest.raises(ValueError, match="horizon must be a whole number"):
        RunConfig(env=lb_mu(), learner=parse_learner("fixed:p=0.5"), horizons=(100.5,))
    cfg = RunConfig(env=lb_mu(), learner=spec, horizons=np.array([10, 20]), n_episodes=2.0)
    assert (cfg.horizons, type(cfg.n_episodes)) == ((10, 20), int)
    assert [type(t) for t in cfg.horizons] == [int, int]
    assert run_monte_carlo(cfg).horizons == (10, 20)
    with pytest.raises(ValueError, match="at least one horizon"):
        RunConfig(env=lb_mu(), learner=spec, horizons=[])
    for hs in ((100, 10), (10, 10)):
        with pytest.raises(ValueError, match="strictly increasing"):
            RunConfig(env=lb_mu(), learner=spec, horizons=hs)
    # T = 0 and negative T fail wherever they sit, also for the path-free learners
    for learner_id in ("dbs", "fbep", "uniform"):
        for hs in ((0,), (-5,), (0, 5), (-5, 5), (-3, 5)):
            with pytest.raises(ValueError, match="horizon must be >= 1"):
                RunConfig(env=lb_mu(), learner=parse_learner(learner_id), horizons=hs)
    # the grid learner explores K rounds, so K must fit every horizon of the run
    with pytest.raises(ValueError, match="grid size 500 exceeds horizon 100"):
        RunConfig(env=lb_mu(), learner=parse_learner("conv-pricing:K=500"), horizons=(100, 1000))
    assert RunConfig(lb_mu(), parse_learner("conv-pricing:K=100"), (100, 1000)).horizons == (100, 1000)


def test_run_config_seeds_are_derived_from_the_base_seed():
    cfg = RunConfig(env=lb_mu(), learner=parse_learner("dbs"), horizons=(10,), n_episodes=3, base_seed=11.0)
    assert cfg.seeds == [mix64(11, e) for e in range(3)]
    assert "seeds" not in {field.name for field in dataclasses.fields(cfg)}
    with pytest.raises(AttributeError):
        cfg.seeds = [0, 0, 0]


def test_run_config_leaves_the_feedback_model_to_the_learner():
    # LEARNER_KINDS states each kind's feedback model once; a run has no field for it
    names = [field.name for field in dataclasses.fields(RunConfig)]
    assert names == ["env", "learner", "horizons", "n_episodes", "base_seed"]


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------


def test_run_episode_is_reproducible():
    cfg = RunConfig(env=lb_mu(), learner=parse_learner("conv-pricing"), horizons=(200,), base_seed=4)
    a = run_episode(cfg, 0)
    b = run_episode(cfg, 0)
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.rewards, b.rewards)
    c = run_episode(cfg, 1)  # a different episode draws different pairs
    assert not np.array_equal(a.sellers, c.sellers)


def test_run_episode_trajectory_contents():
    cfg = RunConfig(env=deterministic(0.0, 1.0), learner=parse_learner("fixed:p=0.5"), horizons=(3,))
    traj = run_episode(cfg, 0)
    assert traj.prices.tolist() == [0.5, 0.5, 0.5]
    assert traj.rewards.tolist() == [0.5, 0.5, 0.5]
    assert traj.sellers.tolist() == [0.0, 0.0, 0.0]
    assert traj.buyers.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "learner_id,rendered",
    [
        ("conv-pricing", TwoBitFeedback),
        ("dbs", TwoBitFeedback),
        ("fbep", ValuationPair),
        ("fixed:p=0.5", TwoBitFeedback),
        ("gft-oracle", TwoBitFeedback),
        ("uniform", TwoBitFeedback),
    ],
)
def test_run_episode_renders_feedback_in_the_learners_model(monkeypatch, learner_id, rendered):
    # one case per LEARNER_KINDS row; a learner that ignores feedback (requires None) gets two bits
    seen = set()

    def recording(model, price, pair):
        out = render_feedback(model, price, pair)
        seen.add((model, type(out)))
        return out

    monkeypatch.setattr(harness, "render_feedback", recording)
    spec = parse_learner(learner_id)
    run_episode(RunConfig(lb_mu(), spec, (20,)), 0)
    assert seen == {(spec.requires, rendered)}


def test_pseudo_regret_accepts_prices_or_trajectory():
    env = gft_trap(0.1)
    # the raw-gain oracle price 0.9 gives fair reward 0.05 against optimum 0.25
    assert pseudo_regret(env, [0.9] * 5) == pytest.approx(1.0, abs=1e-12)
    cfg = RunConfig(env=env, learner=parse_learner("gft-oracle"), horizons=(5,))
    assert pseudo_regret(env, run_episode(cfg, 0)) == pytest.approx(1.0, abs=1e-12)
    # the ends of [0, 1] are prices too
    joint = env.joint
    at_ends = kernels.expected_fgft_at(np.array([0.0, 1.0]), joint.sellers, joint.buyers, joint.weights)
    want = 2 * best_fixed_price_fgft(joint).value - at_ends[0] - at_ends[1]
    assert pseudo_regret(env, [0, 1]) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
def test_pseudo_regret_rejects_a_price_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"prices must lie in \[0, 1\]"):
        pseudo_regret(lb_mu(), [bad, 0.5])


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
        env=env_fn(), learner=parse_learner(learner_id), horizons=(257,), n_episodes=2, base_seed=11
    )
    ref = [pseudo_regret(cfg.env, run_episode(cfg, e)) for e in range(cfg.n_episodes)]
    fast = run_monte_carlo(cfg)
    np.testing.assert_allclose(fast.means, [np.mean(ref)], atol=1e-9)
    np.testing.assert_allclose(fast.stderrs, [np.std(ref, ddof=1) / np.sqrt(len(ref))], atol=1e-9)


def test_every_learner_kind_has_patterns_a_learner_and_one_fast_path():
    for kind, row in LEARNER_KINDS.items():
        assert row.patterns and {pattern.partition(":")[0] for pattern in row.patterns} == {kind}
        for pattern in row.patterns:
            spec = parse_learner(valid_id(pattern))
            assert spec.kind == kind
            assert isinstance(spec.build(100, lb_mu()), Learner)
        assert (kind in _PROFILES) != (kind in _ROUND_GAPS), kind
        # profile_regret replays two-bit or no feedback, so no _PROFILES kind needs full feedback
        assert kind not in _PROFILES or row.requires is not FeedbackModel.FULL, kind
    assert set(_PROFILES) | set(_ROUND_GAPS) == set(LEARNER_KINDS)


_PATH_ENVS = {
    "lb-mu": lb_mu,
    "eps-0.2": lambda: epsilon_family(0.2),
    "random-ind-1": lambda: random_independent_env(1),
    "random-joint-303": lambda: parse_env("random-joint:seed=303"),
}

# one-atom environments: a row of one atom lands on it every round, so the
# fast path of every _PROFILES kind broadcasts it and draws nothing
_ONE_ATOM_ENVS = ("det:s=0.2,b=0.8", "det:s=0.5,b=0.5", "det:s=0.7,b=0.3")

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
        if env_name != "random-ind-1":  # past fbep's first cumsum step edge and the atom count path
            yield from (pytest.param(env_name, "fbep", T) for T in (2500, 5000))
        for T in range(2, 8):  # 2N+1 > T posts 1/2 throughout; T=7 is the first N > 0
            yield pytest.param(env_name, "dbs", T)
    for env_id in _ONE_ATOM_ENVS:
        for kind in _PROFILES:
            yield from (pytest.param(env_id, {"fixed": "fixed:p=0.3"}.get(kind, kind), T) for T in (1, 7, 300))


def _scored_profile(tables, explore, tail, tail_len):
    """_profile_regret of a price profile: its exploration and tail prices scored first."""
    return _profile_regret(tables.regret_at(explore), tables.regret_at(tail[:, None])[:, 0], tail_len)


def _kernel_path(spec, tables, T, seed):
    """The prices the fast path posts in the episode of ``seed``.

    A kind in _ROUND_GAPS has no profile; its path comes from the kernel,
    and the harness's row of round regrets must be, bitwise, the regret of
    exactly that path, summing to what _profile_regret gives for it.
    """
    if spec.kind in _PROFILES:
        explore, tail, tail_len = price_profile(spec, tables, T, [seed])
        return np.concatenate([explore[0], np.full(tail_len, tail[0])])
    if spec.kind == "fbep":
        cands, rewards = tables.fbep
        path = np.append(cands, 0.5)[kernels.fbep_prices(seed, tables.cum, cands, rewards, T)]
    else:
        path = kernels.uniform_prices(mix64(spec.params.get("seed", 0), seed), T)
    row = _round_gaps(spec, tables, T, seed)
    assert row.tobytes() == (tables.v_star - tables.mean_at(path)).tobytes()
    assert np.sum(row).hex() == _profile_regret(row[None, :], np.zeros(1), 0)[0].hex()
    return path


@pytest.mark.parametrize("env_name,learner_id,T", list(_path_cases()))
def test_fast_path_prices_match_reference_bitwise(monkeypatch, env_name, learner_id, T):
    env = _PATH_ENVS[env_name]() if env_name in _PATH_ENVS else parse_env(env_name)
    cfg = RunConfig(env=env, learner=parse_learner(learner_id), horizons=(T,), base_seed=11)
    draws = []
    for module in (harness, kernels):
        _count_calls(monkeypatch, module, "draw_rows", draws)
    tables = _EnvTables(cfg.env)
    kernel_paths = [_kernel_path(cfg.learner, tables, T, mix64(cfg.base_seed, e)) for e in range(3)]
    assert env_name not in _ONE_ATOM_ENVS or draws == []
    for e, kernel_path in enumerate(kernel_paths):
        assert np.array_equal(run_episode(cfg, e).prices, kernel_path), e


@pytest.mark.parametrize("learner_id", ["fbep", "uniform:seed=5"])
def test_path_free_rows_score_their_paths_across_draw_blocks(learner_id):
    # the rows are gathered and scored BLOCK rounds at a time; _kernel_path
    # holds them bitwise to scoring each whole path at once
    tables = _EnvTables(parse_env("random-joint:seed=303"))
    for seed in (0, MASK64):
        _kernel_path(parse_learner(learner_id), tables, 2 * kernels.BLOCK + 3, seed)


def test_monte_carlo_curves_share_draws_across_horizons():
    # the uniform baseline posts the same price sequence at every horizon, so
    # with shared episode seeds regret is pathwise non-decreasing in T
    cfg = RunConfig(
        env=lb_mu(), learner=parse_learner("uniform:seed=3"), horizons=(64, 128, 256, 512), n_episodes=10
    )
    curve = run_monte_carlo(cfg)
    assert curve.horizons == (64, 128, 256, 512)
    assert list(curve.means) == sorted(curve.means)
    assert curve.n_episodes == 10
    assert all(s >= 0.0 for s in curve.stderrs)


def _assert_horizon_split_invariant(learners, horizons, n_episodes=3):
    # a nested run reports at each horizon exactly what a run at that horizon alone does
    for env_id in ("lb-mu", "eps-family:eps=0.2", "random-joint:seed=303", *_ONE_ATOM_ENVS):
        for learner_id in learners:
            spec = parse_learner(learner_id)
            cfg = RunConfig(parse_env(env_id), spec, horizons, n_episodes=n_episodes, base_seed=11)
            nested = run_monte_carlo(cfg)
            for T, mean, stderr in zip(nested.horizons, nested.means, nested.stderrs, strict=True):
                alone = run_monte_carlo(dataclasses.replace(cfg, horizons=(T,)))
                assert (alone.means[0].hex(), alone.stderrs[0].hex()) == (mean.hex(), stderr.hex()), (
                    env_id, learner_id, T,
                )


def test_monte_carlo_horizon_split_is_bitwise_invariant():
    learners = ("conv-pricing", "conv-pricing:K=4", "dbs", "fbep", "fixed:p=0.3", "gft-oracle", "uniform:seed=5")
    _assert_horizon_split_invariant(learners, (5, 40, 300))
    # dbs explores no round at T = 1 and 2 and steps from 3 to 4 rounds a side
    # at T = 9; the default grid is K = 1 at T = 1 and 2 and 4 at T = 8 and 9
    edge_learners = ("conv-pricing", "conv-pricing:K=1", "dbs", "fixed:p=0.3", "gft-oracle")
    _assert_horizon_split_invariant(edge_learners, (1, 2, 7, 8, 9), n_episodes=5)


@pytest.mark.parametrize("block", [kernels.BLOCK, 12])
def test_path_free_learners_split_horizons_bitwise(monkeypatch, block):
    # fbep and uniform simulate once, at the largest horizon, and each horizon
    # sums a prefix; horizons 2048 and 2049 straddle the first edge of fbep's
    # cumsum steps of BLOCK // 4 rounds, and BLOCK 12 puts step edges every 3
    # rounds and draw and regret block edges every 12
    monkeypatch.setattr(kernels, "BLOCK", block)
    _assert_horizon_split_invariant(("fbep", "uniform:seed=5"), (1, 2048, 2049, 5000))


def test_path_free_learners_simulate_once_per_episode(monkeypatch):
    calls = []
    for name in ("fbep_prices", "uniform_prices"):
        def counted(*args, _kernel=getattr(kernels, name), _name=name):
            calls.append((_name, args[-1]))
            return _kernel(*args)

        monkeypatch.setattr(kernels, name, counted)
    for learner_id, name in (("fbep", "fbep_prices"), ("uniform:seed=5", "uniform_prices")):
        calls.clear()
        spec = parse_learner(learner_id)
        cfg = RunConfig(lb_mu(), spec, (1, 2048, 2049, 5000), n_episodes=3, base_seed=11)
        run_monte_carlo(cfg)
        assert calls == [(name, 5000)] * 3, learner_id


def _count_calls(monkeypatch, owner, name, calls):
    """Record the arguments of every call of owner.name in ``calls``."""
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


def test_profile_learners_draw_and_explore_once_per_run(monkeypatch):
    # every horizon of a run reads the run's one draw and its one exploration:
    # one bisection, one grid sweep per distinct K, or one scored tail price
    calls, scorings = {name: [] for name in ("draw", "dbs_explore", "conv_pricing_commit")}, []
    for owner, name in ((_EnvTables, "draw"), (kernels, "dbs_explore"), (kernels, "conv_pricing_commit")):
        _count_calls(monkeypatch, owner, name, calls[name])
    _count_calls(monkeypatch, _EnvTables, "regret_at", scorings)

    def run(learner_id, hs):
        """The last argument of each call (rounds or grid size), and the number of scorings."""
        for made in (*calls.values(), scorings):
            made.clear()
        run_monte_carlo(RunConfig(lb_mu(), parse_learner(learner_id), hs, n_episodes=3))
        return {name: [args[-1] for args in made] for name, made in calls.items()}, len(scorings)

    hs, M = (1, 8, 1000, 10**4), dbs_phase_length(10**4)
    assert run("dbs", hs)[0] == {"draw": [2 * M], "dbs_explore": [M], "conv_pricing_commit": []}
    assert run("conv-pricing", hs)[0] == {"draw": [464], "dbs_explore": [], "conv_pricing_commit": [1, 4, 100, 464]}
    assert run("conv-pricing:K=4", hs[1:])[0] == {"draw": [4], "dbs_explore": [], "conv_pricing_commit": [4]}
    for learner_id in ("fixed:p=0.3", "gft-oracle"):
        assert run(learner_id, hs) == ({"draw": [], "dbs_explore": [], "conv_pricing_commit": []}, 1), learner_id


def test_gft_oracle_searches_its_price_once_per_run(monkeypatch):
    # RunConfig's check builds the learner, and the joint keeps its one
    # search; the run's tables score the same rows oracle themselves
    calls = []
    search = core.best_fixed_price_gft

    def counted(dist):
        calls.append(dist)
        return search(dist)

    monkeypatch.setattr(core, "best_fixed_price_gft", counted)
    env = random_independent_env(101)
    cfg = RunConfig(env, parse_learner("gft-oracle"), (10, 100), n_episodes=3)
    run_monte_carlo(cfg)
    assert calls == [env.joint]


def test_a_uniform_spec_made_without_the_parser_runs_as_seed_zero():
    # the default seed is stated once, in the learner's builder, which both paths read
    made = LearnerSpec("uniform", "uniform")
    parsed = parse_learner("uniform:seed=0")
    assert parse_learner("uniform").learner_id == "uniform"
    configs = [RunConfig(lb_mu(), spec, (10, 1000), n_episodes=3, base_seed=4) for spec in (made, parsed)]
    assert run_monte_carlo(configs[0]) == dataclasses.replace(run_monte_carlo(configs[1]), learner_id="uniform")
    paths = [run_episode(RunConfig(lb_mu(), spec, (50,), base_seed=4), 1).prices for spec in (made, parsed)]
    assert np.array_equal(*paths)


@pytest.mark.parametrize("T,n_episodes", [(20_000, 20), (100_000, 2)])
@pytest.mark.parametrize("env_id", ["lb-mu", "random-joint:seed=303", "random-ind:seed=101"])
@pytest.mark.parametrize("learner_id", ["fbep", "uniform:seed=5"])
def test_path_free_runs_hold_one_episode_row_at_a_time(env_id, learner_id, T, n_episodes):
    # a run holds one row of T round regrets, fbep's index of T entries and
    # block scratch that BLOCK bounds: fbep's score block of at most
    # (BLOCK // 4 + 1) x (candidates + 1) doubles and its BLOCK // 4
    # argmaxes, and four float64 blocks of BLOCK (a block's draws, or the
    # temporaries of its regrets); at T = 10**5 that is under 1.5 rows,
    # which a run that kept the last episode's row alive exceeds; fbep keeps
    # 3, 8 and 31 candidates of these envs, so the last one's score block
    # is the widest, 32 columns
    spec, env = parse_learner(learner_id), parse_env(env_id)
    cfg = RunConfig(env, spec, (1000, T), n_episodes=n_episodes, base_seed=7)
    row_bytes = T * np.dtype(np.float64).itemsize
    bound = row_bytes + 4 * 8 * kernels.BLOCK
    if spec.kind == "fbep":
        cands = _EnvTables(env).fbep[0]
        bound += T * np.min_scalar_type(cands.size).itemsize
        step = kernels.BLOCK // 4
        bound += 8 * ((step + 1) * (cands.size + 1) + step)
    tracemalloc.start()
    try:
        run_monte_carlo(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
    if T == 100_000:
        assert peak < 1.5 * row_bytes, peak / row_bytes


def test_monte_carlo_single_episode_has_zero_stderr():
    cfg = RunConfig(env=lb_mu(), learner=parse_learner("fixed:p=0.5"), horizons=(10,))
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


@pytest.mark.parametrize("means", [[5.0], [5.0, 6.0]])
def test_fit_exponent_rejects_a_mean_count_unlike_the_horizons(means):
    with pytest.raises(ValueError, match=rf"got 3 horizons and {len(means)} means"):
        fit_exponent([1, 10, 100], means)


def test_fit_exponent_constant_sequence():
    fit = fit_exponent((10, 100, 1000), [0.7, 0.7, 0.7])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-300, 1e300),
    st.lists(st.integers(1, 10**9), min_size=3, max_size=8, unique=True).map(sorted),
)
@example(0.14583333333333331, [1000, 10_000, 100_000])  # fbep on lb-mu
def test_fit_exponent_equal_means_give_slope_zero(mean, horizons):
    # np.mean of equal logs can differ from them by an ulp; that must not tilt the fit
    fit = fit_exponent(horizons, [mean] * len(horizons))
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0
    assert fit.intercept == np.log(mean)


def test_fit_exponent_accepts_curve():
    cfg = RunConfig(env=lb_mu(), learner=parse_learner("fixed:p=0.9"), horizons=(10, 100, 1000), n_episodes=2)
    curve = run_monte_carlo(cfg)
    assert fit_exponent(curve.horizons, curve.means).slope == pytest.approx(1.0, abs=1e-12)  # linear regret


def test_fit_exponent_preconditions():
    with pytest.raises(ValueError):
        fit_exponent((10, 100), [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_exponent((10, 100, 1000), [1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        fit_exponent((10, 10, 10), [1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "horizons,means",
    [
        ([0, 10, 100], [1.0, 2.0, 3.0]),
        ([-1, 10, 100], [1.0, 2.0, 3.0]),
        ([1, 10, np.inf], [1.0, 2.0, 3.0]),
        ([1, 10, np.nan], [1.0, 2.0, 3.0]),
        ([1, 10, 100], [1.0, np.nan, 3.0]),
        ([1, 10, 100], [1.0, np.inf, 3.0]),
    ],
)
def test_fit_exponent_rejects_non_finite_input(horizons, means):
    # no NaN fit: bad input fails before any log is taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            fit_exponent(horizons, means)


def test_growth_ratio():
    assert growth_ratio([4.0, 2.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert growth_ratio([1.0, 2.0, 6.0]) == pytest.approx(6.0)
    assert growth_ratio([5.0, 4.0, 3.0]) == 1.0  # never exceeds an earlier level
    assert growth_ratio([3.0]) == 1.0
    with pytest.raises(ValueError):
        growth_ratio([1.0, 0.0])


@pytest.mark.parametrize("values", [[1.0, np.nan, 3.0], [np.nan, 1.0, 3.0], [1.0, np.inf], [np.nan]])
def test_growth_ratio_rejects_non_finite_values(values):
    with pytest.raises(ValueError, match="finite"):
        growth_ratio(values)


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


@pytest.mark.parametrize("horizon", [10.5, True, np.inf, np.nan, 0, -5])
@pytest.mark.parametrize("learner_id", ["fixed:p=0.3", "dbs"])
def test_point_mass_path_rejects_a_bad_horizon(learner_id, horizon):
    spec = parse_learner(learner_id)
    with pytest.raises(ValueError, match="horizon must be"):
        profile_regret(spec, (horizon,), (0.2, 0.8))
    with pytest.raises(ValueError, match="horizon must be"):
        deterministic_price_profile(spec, horizon, (0.2, 0.8))
    with pytest.raises(ValueError, match="horizon must be"):
        adversarial_deterministic_sweep(spec, (horizon,), s_values=[0.2], buyer=0.8)


@pytest.mark.parametrize("horizon", [1e3, np.int64(1000)])
@pytest.mark.parametrize("learner_id", ["fixed:p=0.3", "dbs"])
def test_point_mass_path_takes_a_whole_horizon(learner_id, horizon):
    spec = parse_learner(learner_id)
    (want,) = profile_regret(spec, (1000,), (0.2, 0.8))
    assert profile_regret(spec, (horizon,), (0.2, 0.8)).tolist() == [want]
    assert type(deterministic_price_profile(spec, horizon, (0.2, 0.8))[2]) is int
    (report,) = adversarial_deterministic_sweep(spec, (horizon,), s_values=[0.2], buyer=0.8)
    assert (type(report.horizon), report.horizon, report.max_regret) == (int, 1000, want)


def test_profile_regret_matches_reference_loop():
    spec = parse_learner("dbs")
    pair = (0.25, 0.75)
    env = deterministic(*pair)
    cfg = RunConfig(env=env, learner=spec, horizons=(16,))
    want = pseudo_regret(env, run_episode(cfg, 0))
    (regret,) = profile_regret(spec, (16,), pair)
    assert regret == pytest.approx(want, abs=1e-12)


_UNIT = st.floats(0.0, 1.0)


# every deterministic kind without full feedback; conv-pricing:K also draws the grid size
_DETERMINISTIC_FORMS = ("dbs", "conv-pricing", "conv-pricing:K", "fixed", "gft-oracle")


@st.composite
def _deterministic_learners(draw, horizons=st.integers(1, 300)):
    """(learner id, T) for every deterministic learner without full feedback."""
    T = draw(horizons)
    kind = draw(st.sampled_from(_DETERMINISTIC_FORMS))
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
    trajectory = run_episode(RunConfig(env=env, learner=spec, horizons=(T,)), 0)
    explore, tail, tail_len = deterministic_price_profile(spec, T, pair)
    assert np.array_equal(np.concatenate([explore, np.full(tail_len, tail)]), trajectory.prices)
    (regret,) = profile_regret(spec, (T,), pair)
    assert regret == pytest.approx(pseudo_regret(env, trajectory), rel=0.0, abs=1e-12 * T)


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
        trajectory = run_episode(RunConfig(env=deterministic(*pair), learner=spec, horizons=(T,)), 0)
        path = np.concatenate([explore[i], np.full(tail_len, tail[i])])
        assert np.array_equal(path, trajectory.prices), pair
    single = [profile_regret(spec, (T,), pair)[0] for pair in pairs]
    assert np.array_equal(profile_regret(spec, (T,), (sellers, buyers))[0], single)


def test_profile_regret_keeps_the_broadcast_shape(monkeypatch):
    spec = parse_learner("dbs")
    grid = np.linspace(0.0, 1.0, 5)
    sellers, buyers = np.meshgrid(grid, grid)
    regrets = profile_regret(spec, (100,), (sellers, buyers))
    assert regrets.shape == (1, 5, 5)
    assert np.array_equal(regrets, profile_regret(spec, (100,), (grid[None, :], grid[:, None])))
    monkeypatch.setattr(harness, "POINT_BLOCK", 3)  # 25 points in 9 passes
    assert np.array_equal(regrets, profile_regret(spec, (100,), (sellers, buyers)))
    assert regrets[:, 1, 3] == profile_regret(spec, (100,), (grid[3], grid[1]))
    assert profile_regret(spec, (100,), (0.25, 0.75)).shape == (1,)
    assert profile_regret(spec, (100,), (np.empty((0, 1)), grid[:3])).shape == (1, 0, 3)


@st.composite
def _learners_over_horizons(draw):
    """(learner id, horizons): 1-4 strictly increasing horizons, the first
    often at most 4, where dbs explores no round."""
    learner_id, first = draw(_deterministic_learners(st.integers(1, 4) | st.integers(1, 150)))
    steps = draw(st.lists(st.integers(1, 150), max_size=3))
    return learner_id, tuple(int(T) for T in np.cumsum([first] + steps))


def _horizon_tuple_examples(test):
    cases = [("dbs", (1, 2, 4, 5, 7, 16)), ("dbs", (3, 9, 64)), ("conv-pricing", (1, 8, 9))]
    cases += [("conv-pricing:K=1", (1, 3)), ("fixed:p=0.5", (1, 2)), ("gft-oracle", (2, 3))]
    for learner in cases:
        for block in (3, 1024):
            test = example(learner=learner, pairs=_EDGE_POINTS, block=block)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    learner=_learners_over_horizons(),
    pairs=st.lists(
        st.tuples(st.one_of(_UNIT, _EIGHTHS), st.one_of(_UNIT, _EIGHTHS)), min_size=1, max_size=6
    ),
    block=st.sampled_from([3, 1024]),
)
@_horizon_tuple_examples
def test_profile_regret_over_horizons_matches_each_horizon(learner, pairs, block):
    # one pass per block serves every horizon; row i is, bitwise, the
    # regret of the profile at horizon i alone, and the reference loop's
    learner_id, hs = learner
    spec = parse_learner(learner_id)
    sellers, buyers = np.array(pairs, dtype=np.float64).T
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "POINT_BLOCK", block)
        regrets = profile_regret(spec, hs, (sellers, buyers))
    assert regrets.shape == (len(hs), len(pairs))
    masses = _EnvTables(points=(sellers, buyers))
    for T, row in zip(hs, regrets):
        want = _scored_profile(masses, *price_profile(spec, masses, T, range(len(pairs))))
        assert np.array_equal(row, want), T
        for pair, regret in zip(pairs, row):
            env = deterministic(*pair)
            trajectory = run_episode(RunConfig(env=env, learner=spec, horizons=(T,)), 0)
            assert regret == pytest.approx(pseudo_regret(env, trajectory), rel=0.0, abs=1e-12 * T)


def test_point_mass_v_star_is_the_candidate_columns_max_on_the_dbs_grid():
    # dbs-bound's 65 x 65 grid: the row oracle's v* is, bitwise, the max over
    # each point's own {0, 1, s, b, (s+b)/2} columns, and each point's joint oracle
    grid = np.linspace(0.0, 1.0, 65)
    sellers, buyers = (a.ravel() for a in np.meshgrid(grid, grid))
    masses = _EnvTables(points=(sellers, buyers))
    mids = (sellers + buyers) / 2.0
    cands = np.column_stack([np.zeros_like(mids), np.ones_like(mids), sellers, buyers, mids])
    columns = kernels.expected_fgft_at(cands, sellers[:, None], buyers[:, None], np.ones((sellers.size, 1)))
    assert masses.v_star.tobytes() == np.max(columns, axis=1).tobytes()
    for i in range(0, sellers.size, 97):
        assert masses.v_star[i] == best_fixed_price_fgft(deterministic(sellers[i], buyers[i]).joint).value


def test_point_mass_gft_price_is_the_closed_form_on_the_dbs_grid():
    # the row oracle posts s when s < b, else the smallest price 0, bitwise
    grid = np.linspace(0.0, 1.0, 65)
    sellers, buyers = (a.ravel() for a in np.meshgrid(grid, grid))
    masses = _EnvTables(points=(sellers, buyers))
    assert masses.gft_price.tobytes() == np.where(sellers < buyers, sellers, 0.0).tobytes()


def test_profile_regret_over_horizons_keeps_the_pair_shape():
    spec, pair = parse_learner("dbs"), (0.25, 0.75)
    regrets = profile_regret(spec, [8, 16, 100], pair)
    assert regrets.tolist() == [profile_regret(spec, (T,), pair)[0] for T in (8, 16, 100)]
    grid = np.linspace(0.0, 1.0, 5)
    assert profile_regret(spec, (8, 16), (grid[None, :], grid[:, None])).shape == (2, 5, 5)


@pytest.mark.parametrize(
    "horizons,message",
    [
        ([], "at least one horizon"),
        ((10, 10), "strictly increasing"),
        ((100, 10), "strictly increasing"),
        ([[10, 20]], "horizons must be a list of whole numbers"),
        (np.array([[10], [20]]), "horizons must be a list of whole numbers"),
        ((10, 20.5), "horizon must be a whole number"),
        ((0, 5), "horizon must be >= 1"),
        # a lone horizon is not a sequence, for a run or a point-mass call
        (64, "horizons must be a list of whole numbers"),
        (1e3, "horizons must be a list of whole numbers"),
        (np.int64(64), "horizons must be a list of whole numbers"),
    ],
)
def test_point_mass_horizons_follow_the_run_config_rule(horizons, message):
    spec = parse_learner("dbs")
    with pytest.raises(ValueError, match=message):
        RunConfig(env=lb_mu(), learner=spec, horizons=horizons)
    with pytest.raises(ValueError, match=message):
        profile_regret(spec, horizons, (0.2, 0.8))
    with pytest.raises(ValueError, match=message):
        adversarial_deterministic_sweep(spec, horizons, s_values=[0.2], buyer=0.8)


@pytest.mark.parametrize("side", ["seller", "buyer"])
@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
def test_point_mass_batch_rejects_values_outside_the_unit_interval(side, bad):
    pair = {"seller": np.array([0.0, 0.2, 0.5]), "buyer": np.array([1.0, 0.9, 0.5])}
    pair[side][1] = bad
    spec, points = parse_learner("dbs"), (pair["seller"], pair["buyer"])
    with pytest.raises(ValueError, match=rf"{side} values must lie in \[0, 1\]"):
        profile_regret(spec, (64,), points)
    with pytest.raises(ValueError, match=rf"{side} values must lie in \[0, 1\]"):
        deterministic_price_profile(spec, 64, points)


@st.composite
def _random_joints(draw):
    """The columns (sellers, buyers, raw weights) of a joint with 1-6 distinct atoms.

    Half of the joints lie on the k/8 grid, where bisection midpoints and
    grid prices hit atom values exactly and candidate prices tie.
    """
    value = draw(st.sampled_from([_UNIT, _EIGHTHS]))
    pairs = draw(st.lists(st.tuples(value, value), min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return (*zip(*pairs), raw)


def _joint_env(atoms):
    sellers, buyers, raw = atoms
    return Environment("joint", FiniteJointDistribution(sellers, buyers, [w / sum(raw) for w in raw]))


# Every learner kind but fbep.  Its reference learner is cheap now, but its
# kernel can still break a flat top of the empirical mean differently (the
# strict xfail random-ind-1-fbep-300 above), so fbep joins here once its
# kernel posts the reference learner's prices on every joint.
_KERNEL_LEARNERS = st.one_of(
    _deterministic_learners(),
    st.tuples(st.integers(0, 2**32).map("uniform:seed={}".format), st.integers(1, 300)),
)


def test_reference_loop_property_draws_every_kind_but_fbep():
    # a new learner kind fails here until _KERNEL_LEARNERS draws it
    drawn = {form.partition(":")[0] for form in _DETERMINISTIC_FORMS} | {"uniform"}
    assert drawn | {"fbep"} == set(LEARNER_KINDS)


# grid-aligned atoms: bisection midpoints and grid prices land on their values
_TIED_ATOMS = ([0.25, 0.5, 0.125], [0.75, 0.5, 0.875], [1.0, 1.0, 2.0])


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
    learner_id, T = learner
    cfg = RunConfig(
        env=_joint_env(atoms), learner=parse_learner(learner_id), horizons=(T,), base_seed=base_seed
    )
    kernel_path = _kernel_path(cfg.learner, _EnvTables(cfg.env), T, mix64(base_seed, episode))
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
        horizons=(T,),
        n_episodes=n_episodes,
        base_seed=base_seed,
    )
    tables = _EnvTables(cfg.env)
    want = [
        _scored_profile(tables, *price_profile(cfg.learner, tables, T, [mix64(base_seed, e)]))[0]
        for e in range(n_episodes)
    ]
    profile = next(_price_profiles(cfg.learner, tables, (T,), cfg.seeds, tables.regret_at))
    assert np.array_equal(_episode_regrets(cfg, T, profile), want)


@settings(max_examples=150, deadline=None)
@given(atoms=_random_joints(), T=st.integers(1, 300))
def test_fixed_price_at_the_optimum_has_zero_regret(atoms, T):
    # v* and every regret term come from one evaluator, so this is exact
    env = _joint_env(atoms)
    best = best_fixed_price_fgft(env.joint)
    assert pseudo_regret(env, np.full(T, best.price)) == 0.0
    spec = parse_learner(f"fixed:p={best.price!r}")
    assert run_monte_carlo(RunConfig(env=env, learner=spec, horizons=(T,), n_episodes=2)).means == (0.0,)


def test_sweep_fixed_price_frozen():
    (report,) = adversarial_deterministic_sweep(parse_learner("fixed:p=0.5"), (1024,))
    assert report.max_regret == 128.0  # worst point mass loses 1/8 per round
    assert report.argmax_s == 0.25
    assert report.learner_id == "fixed:p=0.5"
    assert report.s_values.size == 4097


def test_sweep_dbs_within_theory_bound():
    (report,) = adversarial_deterministic_sweep(parse_learner("dbs"), (1024,))
    assert report.max_regret == pytest.approx(8.4931640625, abs=1e-12)
    assert report.argmax_s == pytest.approx(0.0009765625, abs=1e-15)
    assert report.max_regret <= dbs_regret_bound(1024)


def test_sweep_accepts_custom_grid():
    (report,) = adversarial_deterministic_sweep(
        parse_learner("dbs"), (64,), s_values=np.asarray([0.0, 0.1]), buyer=0.9
    )
    assert report.s_values.tolist() == [0.0, 0.1]
    assert report.buyer == 0.9
    assert report.regrets.size == 2


def test_sweep_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="seller grid of a sweep is empty"):
        adversarial_deterministic_sweep(parse_learner("dbs"), (64,), s_values=np.array([]))


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"s_values": [[0.1, 0.2]]}, r"s_values must be a 1-D grid of seller values, got shape \(1, 2\)"),
        ({"s_values": 0.1}, r"s_values must be a 1-D grid of seller values, got shape \(\)"),
        ({"buyer": [0.8, 0.9]}, r"buyer must be one value, got shape \(2,\)"),
    ],
)
def test_sweep_rejects_a_grid_that_is_not_1d_and_a_buyer_that_is_not_one_value(kwargs, message):
    with pytest.raises(ValueError, match=message):
        adversarial_deterministic_sweep(parse_learner("dbs"), (64,), **kwargs)


def test_sweep_over_horizons_gives_one_report_per_horizon():
    hs, grid = (64, 100, 1024), np.linspace(0.0, 0.25, 257)
    reports = adversarial_deterministic_sweep(parse_learner("dbs"), hs, s_values=grid)
    assert [report.horizon for report in reports] == list(hs)
    for T, report in zip(hs, reports):
        (single,) = adversarial_deterministic_sweep(parse_learner("dbs"), (T,), s_values=grid)
        assert np.array_equal(report.regrets, single.regrets), T
        assert (report.max_regret, report.argmax_s) == (single.max_regret, single.argmax_s), T


# ---------------------------------------------------------------------------
# indistinguishable pair
# ---------------------------------------------------------------------------


def _pair_prices(mu, nu) -> tuple:
    """The prices the check compares the pair's laws at: gft_candidates of the union of their atoms."""
    sellers, buyers = (np.concatenate([getattr(env.joint, side) for env in (mu, nu)]) for side in ("sellers", "buyers"))
    return tuple(gft_candidates(sellers, buyers).tolist())


def test_indistinguishability_check_passes():
    report = indistinguishability_check(horizon=512)
    assert report.tables_equal
    assert report.max_table_gap == 0.0
    assert report.coupled_trajectories_equal
    assert _pair_prices(lb_mu(), lb_nu()) == (0.0, 0.1875, 0.375, 0.5, 0.625, 0.8125, 1.0)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"n_episodes": 0}, "n_episodes must be >= 1"),
        ({"n_episodes": -3}, "n_episodes must be >= 1"),
        ({"n_episodes": 2.5}, "n_episodes must be a whole number"),
        ({"horizon": 64.5}, "horizon must be a whole number"),
        ({"horizon": 0}, "horizon must be >= 1"),
        ({"base_seed": -1}, "base_seed must lie in"),
        ({"base_seed": 2**64}, "base_seed must lie in"),
        ({"base_seed": 0.5}, "base_seed must be a whole number"),
    ],
)
def test_indistinguishability_check_rejects_bad_arguments(kwargs, message):
    # with nothing coupled, the trajectories would compare equal vacuously
    with pytest.raises(ValueError, match=message):
        indistinguishability_check(**{"horizon": 64, **kwargs})


def test_indistinguishability_check_measures_the_gap_of_a_moved_atom(monkeypatch):
    # lb-nu with one atom moved, as in the committed mutations: its laws differ
    # from lb-mu's, and the gap of the two tables is the per-price dict formula's
    MUTATIONS["lb-nu-moves-an-atom"][1](monkeypatch)
    report = indistinguishability_check(horizon=64)
    mu, nu, want = lb_mu(), harness.lb_nu(), 0.0
    for p in _pair_prices(mu, nu):
        t_mu, t_nu = feedback_distribution(mu, p), feedback_distribution(nu, p)
        for outcome in FEEDBACK_OUTCOMES:
            want = max(want, abs(t_mu[outcome] - t_nu[outcome]))
    assert want > 0.0
    assert report.max_table_gap.hex() == want.hex()
    assert not report.tables_equal


def _dict_law(env, price):
    """The two-bit law at one price by dict accumulation, atoms in listing order."""
    table = {outcome: 0.0 for outcome in FEEDBACK_OUTCOMES}
    for s, b, w in zip(env.joint.sellers, env.joint.buyers, env.joint.weights):
        table[(int(s <= price), int(price <= b))] += w
    return table


def _coupled_prices_oracle(env, horizon, seed):
    """conv-pricing stepped round by round under feedback drawn through its exact law.

    Round t takes the t-th uniform of the seed's stream and inverts the
    cumulative _dict_law table at its price, outcomes in FEEDBACK_OUTCOMES
    order, else (1, 1).
    """
    learner = parse_learner("conv-pricing").build(horizon, env, episode_seed=seed)
    cache, prices = {}, np.empty(horizon)
    for t, u in enumerate(draw_rows((seed,), horizon)[0]):
        p = prices[t] = learner.propose()
        if p not in cache:
            table, acc, cache[p] = _dict_law(env, p), 0.0, []
            for outcome in FEEDBACK_OUTCOMES:
                acc += table[outcome]
                cache[p].append((acc, outcome))
        outcome = next((outcome for acc, outcome in cache[p] if u < acc), (1, 1))
        learner.update(TwoBitFeedback(*outcome))
    return prices


def _coupled_trajectories(env, horizon, seeds):
    """The batched coupling's price paths: the grid t/K, then commit / K."""
    K = default_grid_size(horizon)
    grid = np.arange(1, K + 1, dtype=np.float64) / K
    commits = harness._coupled_commits(env, K, seeds)
    return [np.concatenate([grid, np.full(horizon - K, commit / K)]) for commit in commits]


_COUPLING_SEEDS = [mix64(0, e) for e in range(3)] + [1, 2**64 - 1]


@pytest.mark.parametrize("horizon", [1, 8, 512, 4096])
@pytest.mark.parametrize("env", [lb_mu(), lb_nu()], ids=["lb-mu", "lb-nu"])
def test_batched_coupling_matches_the_learner_loop(env, horizon):
    batched = _coupled_trajectories(env, horizon, _COUPLING_SEEDS)
    for seed, prices in zip(_COUPLING_SEEDS, batched):
        assert np.array_equal(prices, _coupled_prices_oracle(env, horizon, seed))


def test_batched_coupling_separates_a_pair_with_different_laws():
    mu, eps = lb_mu(), parse_env("eps-family:eps=0.2")
    horizon, K = 512, default_grid_size(512)
    grid = np.arange(1, K + 1, dtype=np.float64) / K
    assert not np.array_equal(feedback_tables(mu, grid), feedback_tables(eps, grid))
    paths = [_coupled_trajectories(env, horizon, _COUPLING_SEEDS) for env in (mu, eps)]
    for env, env_paths in zip((mu, eps), paths):
        for seed, prices in zip(_COUPLING_SEEDS, env_paths):
            assert np.array_equal(prices, _coupled_prices_oracle(env, horizon, seed))
    # the commits differ for some seed, so equal trajectories are not vacuous
    assert any(not np.array_equal(a, b) for a, b in zip(*paths))


@settings(max_examples=150, deadline=None)
@given(atoms=_random_joints(), extra=st.lists(_UNIT, max_size=8))
def test_feedback_tables_equal_the_dict_accumulation(atoms, extra):
    # prices on atom coordinates hit the <= boundaries of both bits
    env = _joint_env(atoms)
    prices = np.concatenate([env.joint.sellers, env.joint.buyers, extra])
    tables = feedback_tables(env, prices)
    for price, row in zip(prices, tables):
        want = _dict_law(env, float(price))
        assert row.tolist() == [want[outcome] for outcome in FEEDBACK_OUTCOMES]
        assert feedback_distribution(env, float(price)) == want
