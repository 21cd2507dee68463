"""Environment constructors, feedback laws, sampling, and id parsing."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtrade.algorithms import LEARNER_ID_PATTERNS, parse_learner
from fairtrade.core import FiniteJointDistribution, atom_rows, gft_candidates
from fairtrade.environments import (
    ENVIRONMENT_ID_PATTERNS,
    ENVIRONMENT_KINDS,
    FEEDBACK_OUTCOMES,
    FeedbackModel,
    TwoBitFeedback,
    UnknownIdError,
    deterministic,
    env_from_config,
    epsilon_family,
    epsilon_family_expected_fgft,
    feedback_distribution,
    gft_trap,
    lb_mu,
    lb_nu,
    parse_env,
    _JOINT_DRAWS,
    _joint_atoms,
    _marginal_atoms,
    random_independent_env,
    random_joint_env,
    random_joint_rows,
    random_marginal,
    render_feedback,
    sample_valuations,
)
from fairtrade.rng import MASK64, SplitMix64, mix64, row_streams
from reference import epsilon_family_fgft, expected_fgft


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_lower_bound_pair_atoms():
    mu = lb_mu()
    assert mu.env_id == "lb-mu"
    np.testing.assert_allclose(mu.joint.sellers, [0.0, 0.375, 0.625])
    np.testing.assert_allclose(mu.joint.buyers, [0.625, 0.375, 1.0])
    np.testing.assert_allclose(mu.joint.weights, [1 / 3, 1 / 3, 1 / 3])
    nu = lb_nu()
    np.testing.assert_allclose(nu.joint.sellers, [0.0, 0.375, 0.625])
    np.testing.assert_allclose(nu.joint.buyers, [0.375, 1.0, 0.625])


def test_deterministic_env():
    env = deterministic(0.2, 0.8)
    assert env.env_id == "det:s=0.2,b=0.8"
    assert env.joint.weights.size == 1
    assert env.joint.atom(0) == (0.2, 0.8)


def test_gft_trap_shape():
    env = gft_trap(0.1)
    assert env.env_id == "gft-trap:h=0.1"
    assert env.joint.weights.size == 2
    np.testing.assert_allclose(sorted(env.joint.sellers), [0.0, 0.9])
    np.testing.assert_allclose(env.joint.buyers, [1.0, 1.0])
    for bad in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(ValueError):
            gft_trap(bad)


def test_epsilon_family_weights():
    env = epsilon_family(0.2)
    assert env.env_id == "eps-family:eps=0.2"
    np.testing.assert_allclose(env.joint.sellers, [0.0, 0.25])
    np.testing.assert_allclose(env.joint.weights, [0.6, 0.4])
    # the extreme members collapse to a single seller atom
    assert epsilon_family(1.0).joint.weights.size == 1
    assert epsilon_family(-1.0).joint.sellers[0] == 0.25
    with pytest.raises(ValueError):
        epsilon_family(1.5)


def test_epsilon_family_closed_form_matches_oracle():
    grid = np.arange(101) / 100.0
    for eps in (0.0, 0.1, -0.1, 0.25, -0.25):
        joint = epsilon_family(eps).joint
        for p in grid:
            assert epsilon_family_expected_fgft(eps, float(p)) == pytest.approx(
                expected_fgft(joint, float(p)), abs=1e-12
            )


def test_epsilon_family_closed_form_on_an_array_is_the_scalar_form():
    # the closed-form check's grid, then the three breakpoints
    prices = np.append(np.arange(1001, dtype=np.float64) / 1000.0, [0.25, 0.5, 0.625])
    for eps in (0.0, 0.1, -0.1, 0.25, -0.25):
        want = [epsilon_family_fgft(eps, float(p)).hex() for p in prices]
        assert [v.hex() for v in epsilon_family_expected_fgft(eps, prices).tolist()] == want
        assert [epsilon_family_expected_fgft(eps, float(p)).hex() for p in prices] == want
    assert type(epsilon_family_expected_fgft(0.1, 0.3)) is float
    assert epsilon_family_expected_fgft(0.1, np.array([[0.3]])).shape == (1, 1)
    with pytest.raises(ValueError):
        epsilon_family_expected_fgft(0.1, np.array([0.5, np.nan]))


def test_epsilon_family_flat_optimum_at_zero():
    # the whole segment [1/2, 5/8] is optimal when the weights are balanced
    assert epsilon_family_expected_fgft(0.0, 0.5) == pytest.approx(0.375, abs=1e-15)
    assert epsilon_family_expected_fgft(0.0, 0.5625) == pytest.approx(0.375, abs=1e-15)
    assert epsilon_family_expected_fgft(0.0, 0.625) == pytest.approx(0.375, abs=1e-15)


# ---------------------------------------------------------------------------
# feedback
# ---------------------------------------------------------------------------


def test_render_feedback_two_bit_boundaries():
    pair = deterministic(0.2, 0.8).joint.atom(0)
    assert render_feedback(FeedbackModel.TWO_BIT, 0.2, pair) == TwoBitFeedback(1, 1)
    assert render_feedback(FeedbackModel.TWO_BIT, 0.8, pair) == TwoBitFeedback(1, 1)
    assert render_feedback(FeedbackModel.TWO_BIT, 0.1, pair) == TwoBitFeedback(0, 1)
    assert render_feedback(FeedbackModel.TWO_BIT, 0.9, pair) == TwoBitFeedback(1, 0)


def test_render_feedback_full_returns_pair():
    pair = deterministic(0.2, 0.8).joint.atom(0)
    assert render_feedback(FeedbackModel.FULL, 0.5, pair) is pair


def test_feedback_distribution_lb_mu_at_half():
    table = feedback_distribution(lb_mu(), 0.5)
    assert table[(0, 0)] == 0.0
    for outcome in ((0, 1), (1, 0), (1, 1)):
        assert table[outcome] == pytest.approx(1 / 3, abs=1e-15)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_pair_tables_equal_everywhere():
    mu, nu = lb_mu(), lb_nu()
    sellers = np.concatenate([mu.joint.sellers, nu.joint.sellers])
    buyers = np.concatenate([mu.joint.buyers, nu.joint.buyers])
    for p in gft_candidates(sellers, buyers):
        t_mu = feedback_distribution(mu, float(p))
        t_nu = feedback_distribution(nu, float(p))
        for outcome in FEEDBACK_OUTCOMES:
            assert t_mu[outcome] == t_nu[outcome]  # bitwise equal mixtures


def test_feedback_region_prices_cover_support():
    # the feedback regions are the gft pieces, so gft_candidates covers them
    reps = gft_candidates(lb_mu().joint.sellers, lb_mu().joint.buyers)
    assert {0.0, 0.375, 0.625, 1.0} <= set(reps.tolist())


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_valuations_frozen_sequence():
    env = lb_mu()
    stream = SplitMix64(0)
    pairs = [tuple(sample_valuations(env, stream)) for _ in range(4)]
    assert pairs == [(0.625, 1.0), (0.375, 0.375), (0.0, 0.625), (0.625, 1.0)]


def test_sample_valuations_reproducible():
    env = gft_trap(0.2)
    a = [tuple(sample_valuations(env, SplitMix64(99))) for _ in range(1)]
    b = [tuple(sample_valuations(env, SplitMix64(99))) for _ in range(1)]
    assert a == b


def test_sample_valuations_frequencies():
    env = epsilon_family(0.5)  # seller weights 0.75 / 0.25
    stream = SplitMix64(42)
    n = 20_000
    lows = sum(1 for _ in range(n) if sample_valuations(env, stream).seller == 0.0)
    assert abs(lows / n - 0.75) < 0.01


# ---------------------------------------------------------------------------
# id parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "env_id",
    [
        "lb-mu",
        "lb-nu",
        "gft-trap:h=0.1",
        "eps-family:eps=-0.25",
        "det:s=0.2,b=0.8",
        # every digit is kept, so these name three different environments
        "eps-family:eps=0.10000001",
        "det:s=0.1234567,b=0.8",
        "det:s=0.1234568,b=0.8",
        "random-ind:seed=101",
        "random-joint:seed=303",
    ],
)
def test_parse_env_round_trips(env_id):
    assert parse_env(env_id).env_id == env_id


@pytest.mark.parametrize(
    "env_id",
    [
        "nope",
        "lb-mu:x=1",
        "gft-trap",
        "gft-trap:h=banana",
        "gft-trap:h=0.7",
        "det:s=0.2",
        "eps-family:eps=2",
        "det:s=nan,b=0.5",
        "det:s=0.2,b=nan",
        "gft-trap:h=nan",
        "eps-family:eps=nan",
        "random-ind:seed=-1",
        "random-joint:seed=18446744073709551616",
        "random-ind:seed=abc",
        7,
    ],
)
def test_parse_env_rejects(env_id):
    with pytest.raises(UnknownIdError):
        parse_env(env_id)


# a valid value for every key the id patterns list
_VALID_VALUES = {"h": "0.1", "eps": "-0.25", "s": "0.2", "b": "0.8", "K": "10", "p": "0.5", "seed": "7"}


def valid_id(pattern: str) -> str:
    """The id of ``pattern`` with a valid value for each of its keys."""
    return re.sub(r"(\w+)=<[^>]*>", lambda m: f"{m[1]}={_VALID_VALUES[m[1]]}", pattern)


@pytest.mark.parametrize(
    "parse,pattern",
    [(parse_env, p) for p in ENVIRONMENT_ID_PATTERNS] + [(parse_learner, p) for p in LEARNER_ID_PATTERNS],
)
def test_id_grammar_follows_patterns(parse, pattern):
    valid = valid_id(pattern)
    parse(valid)
    sep = "," if ":" in valid else ":"
    # a key no pattern lists, an empty key, and each listed key given twice
    bad = [valid + sep + "zzz=1", valid + sep + "=1"]
    bad += [f"{valid},{key}={_VALID_VALUES[key]}" for key in re.findall(r"(\w+)=<", pattern)]
    for spec_id in bad:
        with pytest.raises(UnknownIdError):
            parse(spec_id)


def test_every_environment_kind_parses_from_its_patterns():
    for kind, row in ENVIRONMENT_KINDS.items():
        for pattern in row.patterns:
            assert pattern.partition(":")[0] == kind
            assert parse_env(valid_id(pattern)).env_id.partition(":")[0] == kind


def test_patterns_cover_parseable_ids():
    heads = {pattern.split(":")[0] for pattern in ENVIRONMENT_ID_PATTERNS}
    assert heads == {"lb-mu", "lb-nu", "gft-trap", "eps-family", "det", "random-ind", "random-joint"}


def _same_atoms(a, b) -> bool:
    return all(np.array_equal(getattr(a.joint, f), getattr(b.joint, f)) for f in ("sellers", "buyers", "weights"))


# values each id key accepts; floats are written by repr, which round-trips
_ID_VALUES = {
    "h": st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    "eps": st.floats(-1.0, 1.0),
    "s": st.floats(0.0, 1.0),
    "b": st.floats(0.0, 1.0),
    "seed": st.integers(0, MASK64),
    "K": st.integers(1, 10**9),
    "p": st.floats(0.0, 1.0),
}


@st.composite
def _spec_ids(draw, patterns=ENVIRONMENT_ID_PATTERNS):
    pattern = draw(st.sampled_from(patterns))
    return re.sub(r"(\w+)=<[^>]*>", lambda m: f"{m[1]}={draw(_ID_VALUES[m[1]])!r}", pattern)


@settings(max_examples=200, deadline=None)
@given(env_id=_spec_ids())
@example(env_id="random-ind:seed=0")
@example(env_id=f"random-ind:seed={MASK64}")
@example(env_id="random-joint:seed=0")
@example(env_id=f"random-joint:seed={MASK64}")
@example(env_id="det:s=0.1234567,b=0.8")
@example(env_id="eps-family:eps=0.10000001")
@example(env_id="det:s=1e-20,b=0.5")
def test_printed_env_ids_parse_back(env_id):
    env = parse_env(env_id)
    again = parse_env(env.env_id)
    assert again.env_id == env.env_id
    assert _same_atoms(again, env)


@settings(max_examples=200, deadline=None)
@given(learner_id=_spec_ids(LEARNER_ID_PATTERNS))
@example(learner_id="uniform")
@example(learner_id="uniform:seed=1_0")
@example(learner_id=f"uniform:seed={MASK64}")
@example(learner_id="fixed:p=0.50")
@example(learner_id="fixed:p=1e-20")
@example(learner_id="conv-pricing:K=08")
def test_printed_learner_ids_parse_back(learner_id):
    spec = parse_learner(learner_id)
    again = parse_learner(spec.learner_id)
    assert again.learner_id == spec.learner_id
    assert (again.kind, again.params) == (spec.kind, spec.params)



@pytest.mark.parametrize("make", [random_independent_env, random_joint_env])
@pytest.mark.parametrize("seed", [-1, MASK64 + 1, 2.5, True])
def test_random_envs_take_only_the_seeds_their_ids_name(make, seed):
    # SplitMix64 would wrap the first two onto a u64 seed, and int() would
    # truncate 2.5 to 2 and read True as 1, each under an id that does not parse
    with pytest.raises(ValueError):
        make(seed)


@pytest.mark.parametrize("make", [random_independent_env, random_joint_env])
@pytest.mark.parametrize("seed", [3.0, np.int64(5)], ids=["float", "int64"])
def test_random_env_ids_of_whole_seeds_parse_back(make, seed):
    env = make(seed)
    assert env.env_id.endswith(f"seed={int(seed)}")
    assert _same_atoms(parse_env(env.env_id), env)


class _CountingStream(SplitMix64):
    __slots__ = ("draws",)

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return super().next_u64()


# seed 0 redraws its six pairs, so its stream runs 31 draws, past the 19 drawn beforehand
_JOINT_SEEDS = [0, 15, 404, MASK64, mix64(9100, 17), mix64(9100, 3)]


def test_joint_seed_zero_draws_past_its_row():
    stream = _CountingStream(0)
    _joint_atoms(stream)
    assert stream.draws > _JOINT_DRAWS


def test_random_joint_rows_are_random_joint_env():
    sellers, buyers, weights, counts = random_joint_rows(_JOINT_SEEDS)
    assert sellers.shape == (len(_JOINT_SEEDS), 6)
    for r, seed in enumerate(_JOINT_SEEDS):
        joint, n = random_joint_env(seed).joint, counts[r]
        for got, want in ((sellers, joint.sellers), (buyers, joint.buyers), (weights, joint.weights)):
            assert got[r, :n].tobytes() == want.tobytes()
        # the padding repeats the first atom with weight 0
        assert (sellers[r, n:] == joint.sellers[0]).all() and (buyers[r, n:] == joint.buyers[0]).all()
        assert (weights[r, n:] == 0.0).all()


@pytest.mark.parametrize("prefix", [0, 1, 3, 10])
def test_marginal_rows_are_random_marginal(prefix):
    # a short row makes the marginal's draws run past it into SplitMix64's stream
    seeds, size, lo, hi = _JOINT_SEEDS[:4], 4, 0.2, 0.6
    values, weights, counts = atom_rows([_marginal_atoms(s, size, lo, hi) for s in row_streams(seeds, prefix)], 5)
    assert counts.tolist() == [size] * len(seeds)
    for r, seed in enumerate(seeds):
        marginal = random_marginal(SplitMix64(seed), size, lo, hi)
        assert values[r, :size].tobytes() == marginal.values.tobytes()
        assert weights[r, :size].tobytes() == marginal.weights.tobytes()


_GOOD_ROWS = [([0.1, 0.2], [0.5, 0.9], [0.25, 0.75]), ([0.3], [0.4], [1.0])]


def _as_joint(rows):
    """The one-row form of atom_rows's check: each row built as a joint."""
    for row in rows:
        FiniteJointDistribution(*row)


@pytest.mark.parametrize("form", [lambda rows: atom_rows(rows, 3), _as_joint], ids=["rows", "one-row"])
@pytest.mark.parametrize(
    "row,message",
    [
        (([0.1, float("nan")], [0.5, 0.9], [0.25, 0.75]), "seller values must lie in"),
        (([0.1, 0.2], [0.5, 1.5], [0.25, 0.75]), "buyer values must lie in"),
        (([0.1, 0.2], [0.5, 0.9], [0.0, 1.0]), "strictly positive"),
        (([0.1, 0.2], [0.5, 0.9], [-0.25, 1.25]), "strictly positive"),
        (([0.1, 0.2], [0.5, 0.9], [float("nan"), 1.0]), "strictly positive"),
        (([0.1, 0.2], [0.5, 0.9], [0.25, 0.5]), "sum to 1"),
        (([0.1, 0.1], [0.5, 0.5], [0.25, 0.75]), "pairwise distinct"),
        (([-0.0, 0.0], [0.5, 0.5], [0.25, 0.75]), "pairwise distinct"),
        (([0.1, 0.1, 0.1], [0.5, 0.9, 0.5], [0.25, 0.5, 0.25]), "pairwise distinct"),
        (([], [], []), "at least one atom"),
    ],
    ids=[
        "nan-value", "above-one", "zero-weight", "negative-weight", "nan-weight", "sum", "duplicate-pair",
        "signed-zero-pair", "duplicate-pair-apart", "empty",
    ],
)
def test_atom_rows_reject_a_bad_row(form, row, message):
    form(_GOOD_ROWS)
    with pytest.raises(ValueError, match=message):
        form([*_GOOD_ROWS, row])


def test_atom_rows_allow_a_shared_coordinate_and_reject_too_many_atoms():
    # pairs differ when one coordinate does; a marginal's values must differ
    atom_rows([([0.1, 0.1], [0.5, 0.9], [0.5, 0.5])], 2)
    with pytest.raises(ValueError, match="pairwise distinct"):
        atom_rows([([0.1, 0.1], [0.5, 0.5])], 2)
    with pytest.raises(ValueError, match="at most 1"):
        atom_rows(_GOOD_ROWS, 1)
    # a padded atom repeats its row's first atom and is never a duplicate of it
    atom_rows([([0.3], [1.0]), ([0.1, 0.2], [0.5, 0.5])], 5)
    atom_rows([([0.3], [0.4], [1.0]), *_GOOD_ROWS], 5)


def test_a_large_inline_joint_is_checked_in_linear_memory():
    # an (A, A) table of pairwise comparisons would hold 4 * 10**8 booleans
    A = 20_000
    rows = [[i / (2 * A), 0.5 + i / (2 * A), 1.0 / A] for i in range(A)]
    tracemalloc.start()
    try:
        joint = env_from_config({"joint": rows}).joint
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joint.weights.size == A
    assert peak < 128 * A, peak
    with pytest.raises(ValueError, match="atoms must be pairwise distinct"):
        env_from_config({"joint": [*rows[:-1], rows[0]]})


_FLOAT_CONSTRUCTORS = {
    "det-seller": lambda x: deterministic(x, 0.5),
    "det-buyer": lambda x: deterministic(0.3, x),
    "eps-family": epsilon_family,
    "gft-trap": gft_trap,
}


@pytest.mark.parametrize("make", _FLOAT_CONSTRUCTORS.values(), ids=_FLOAT_CONSTRUCTORS)
@pytest.mark.parametrize(
    "value",
    [np.float32(0.1), np.float64(0.1), 0.1, np.float32(0.3), 0.3],
    ids=["float32-0.1", "float64-0.1", "float-0.1", "float32-0.3", "float-0.3"],
)
def test_float_parameter_ids_parse_back(make, value):
    # without float() on entry a float32 prints its own shortest text, "0.1",
    # over atoms of float64(float32(0.1)), 0.10000000149011612
    env = make(value)
    again = parse_env(env.env_id)
    assert again.env_id == env.env_id
    assert _same_atoms(again, env)


def test_env_from_config_inline_joint():
    env = env_from_config({"joint": [[0.1, 0.9, 0.5], [0.3, 0.7, 0.5]], "id": "pair"})
    assert env.env_id == "pair"
    assert env.joint.weights.size == 2
    assert env_from_config({"joint": [[0, 1, 1]]}).joint.buyers.tolist() == [1.0]  # ints are numbers


def test_env_from_config_inline_independent():
    env = env_from_config(
        {"independent": {"seller": [[0.0, 1.0]], "buyer": [[0.5, 0.4], [1.0, 0.6]]}}
    )
    assert env.env_id == "independent"
    assert env.joint.weights.size == 2
    np.testing.assert_allclose(env.joint.weights, [0.4, 0.6])


_ONE_BY_ONE = {"seller": [[0.1, 1.0]], "buyer": [[0.9, 1.0]]}


@pytest.mark.parametrize(
    "env_id", ["lb-mu", "lb-nu", "det:s=0.2,b=0.8", "det", "gft-trap:h=0.1", "random-ind:seed=1", "random-joint"]
)
def test_an_inline_environment_may_not_take_a_registered_id(env_id):
    # rows written under such an id would rerun as another environment
    for entry in ({"joint": [[0.1, 0.9, 1.0]], "id": env_id}, {"independent": _ONE_BY_ONE, "id": env_id}):
        with pytest.raises(UnknownIdError, match="registered"):
            env_from_config(entry)


@pytest.mark.parametrize("env_id", ["gen-ind", "gen-joint-0", "three-atoms", "demo", "lb", "det-like:s=1"])
def test_an_inline_environment_keeps_an_unregistered_id(env_id):
    assert env_from_config({"joint": [[0.1, 0.9, 1.0]], "id": env_id}).env_id == env_id
    assert env_from_config({"independent": _ONE_BY_ONE, "id": env_id}).env_id == env_id


def test_env_from_config_string_and_errors():
    assert env_from_config("lb-nu").env_id == "lb-nu"
    with pytest.raises(UnknownIdError):
        env_from_config(42)
    with pytest.raises(UnknownIdError):
        env_from_config({"wat": 1})
    single = [[0.1, 0.9, 1.0]]
    for entry in (
        {"joint": single, "idd": "typo"},
        {"joint": single, "independent": {"seller": [[0.1, 1.0]], "buyer": [[0.9, 1.0]]}},
        {"joint": single, "id": 7},
        {"independent": {"seller": [[0.0, 1.0]], "buyer": [[1.0, 1.0]], "sellr": 5}},
        {"independent": {"seller": [[0.0, 1.0]]}},
        # rows hold JSON numbers only, as many as the form takes
        {"joint": [["0.1", "0.9", True]]},
        {"joint": [[0.1, 0.9, True]]},
        {"joint": [[0.1, 0.9, None]]},
        {"joint": [[0.1, 0.9]]},
        {"joint": [[0.1, 0.9, 0.5, 0.5]]},
        {"joint": 5},
        {"joint": [5]},
        {"independent": {"seller": [["0.1", 1.0]], "buyer": [[0.9, 1.0]]}},
        {"independent": {"seller": [[0.1, 1.0]], "buyer": [[0.9, False]]}},
        {"independent": {"seller": [[0.1, 1.0, 0.0]], "buyer": [[0.9, 1.0]]}},
        {"independent": {"seller": [[0.1]], "buyer": [[0.9, 1.0]]}},
    ):
        with pytest.raises(UnknownIdError):
            env_from_config(entry)
