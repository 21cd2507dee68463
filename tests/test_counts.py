"""One rule for every count and seed a learner or a run takes.

A count (a horizon, a grid size, an episode count, ceil_log2's n) is a whole
number of at least 1 (rng._count); a seed is a whole number in
[0, 2**64) (rng._u64).  Integral floats and NumPy integers are
whole; bools, fractions, NaN and infinities are not.  Every entry below
rejects a bad value with a ValueError that names the quantity, raised by
the helper itself, and builds from 3.0 or np.int64(3) exactly what it
builds from 3.
"""

import math

import numpy as np
import pytest

from fairtrade import kernels
from fairtrade.algorithms import (
    ConvolutionPricing,
    DoubleBinarySearch,
    FollowBestEmpiricalPrice,
    Learner,
    UniformRandom,
    ceil_log2,
    dbs_phase_length,
    dbs_regret_bound,
    default_grid_size,
    parse_learner,
)
from fairtrade.core import ValuationPair
from fairtrade.environments import FeedbackModel, UnknownIdError, lb_mu, render_feedback
from fairtrade.harness import (
    RunConfig,
    adversarial_deterministic_sweep,
    profile_regret,
    run_monte_carlo,
)
from fairtrade.rng import MASK64
from reference import deterministic_price_profile, fgft_convolution_approx

BAD_COUNTS = [2.5, True, 0, -1, math.nan, math.inf, -math.inf]
BAD_SEEDS = [2.5, True, -1, math.nan, math.inf, -math.inf, MASK64 + 1]
GOOD = [3.0, np.int64(3)]
HELPERS = {"_whole", "_count", "_u64"}


def _run(config):
    curve = run_monte_carlo(config)
    return config.horizons, config.n_episodes, type(config.n_episodes), curve.means, curve.stderrs


def _sweep(reports):
    (report,) = reports
    return report.horizon, type(report.horizon), report.regrets.tolist()


# entry -> (the quantity its error names, the entry applied to one value)
COUNTS = {
    "ConvolutionPricing-horizon": ("horizon", ConvolutionPricing),
    "ConvolutionPricing-grid_size": ("grid_size", lambda v: ConvolutionPricing(9, v)),
    "DoubleBinarySearch": ("horizon", DoubleBinarySearch),
    "FollowBestEmpiricalPrice": ("horizon", FollowBestEmpiricalPrice),
    "default_grid_size": ("horizon", default_grid_size),
    "dbs_phase_length": ("horizon", dbs_phase_length),
    "dbs_regret_bound": ("horizon", dbs_regret_bound),
    "ceil_log2": ("n", ceil_log2),
    "fgft_convolution_approx": ("grid_size", lambda v: fgft_convolution_approx(0.5, (0.2, 0.8), v)),
    "convolution_approx_batch": (
        "grid_size",
        lambda v: kernels.convolution_approx_batch([0.5, 0.3], [0.2, 0.1], [0.8, 0.9], v),
    ),
    "RunConfig-horizons": ("horizon", lambda v: _run(RunConfig(lb_mu(), parse_learner("dbs"), (v,)))),
    "RunConfig-n_episodes": (
        "n_episodes",
        lambda v: _run(RunConfig(lb_mu(), parse_learner("conv-pricing"), (8,), n_episodes=v)),
    ),
    "profile_regret": ("horizon", lambda v: profile_regret(parse_learner("dbs"), (v,), (0.2, 0.8))),
    "deterministic_price_profile": (
        "horizon",
        lambda v: repr(deterministic_price_profile(parse_learner("conv-pricing"), v, (0.2, 0.8))),
    ),
    "adversarial_deterministic_sweep": (
        "horizon",
        lambda v: _sweep(adversarial_deterministic_sweep(parse_learner("dbs"), (v,), s_values=[0.1, 0.2], buyer=0.8)),
    ),
}
SEEDS = {"UniformRandom": ("seed", UniformRandom)}


def _cases(entries, bad):
    return [
        pytest.param(name, value, id=f"{name}-{value!r}")
        for name in entries
        for value in bad
    ]


def _described(out):
    """A learner as its class, its sizes and seed (each with its type) and its
    first prices against one pair; any other result as it is."""
    if not isinstance(out, Learner):
        return out
    model = FeedbackModel.FULL if isinstance(out, FollowBestEmpiricalPrice) else FeedbackModel.TWO_BIT
    sizes = {k: (v, type(v)) for k, v in vars(out).items() if k in ("grid_size", "phase_length", "seed")}
    prices = []
    for _ in range(9):
        p = out.propose()
        out.update(render_feedback(model, p, ValuationPair(0.2, 0.8)))
        prices.append(p)
    return type(out), sizes, prices


@pytest.mark.parametrize("name,value", _cases(COUNTS, BAD_COUNTS) + _cases(SEEDS, BAD_SEEDS))
def test_a_bad_count_or_seed_raises_naming_it(name, value):
    quantity, entry = {**COUNTS, **SEEDS}[name]
    with pytest.raises(ValueError, match=rf"^{quantity} must ") as excinfo:
        entry(value)
    assert excinfo.traceback[-1].name in HELPERS


@pytest.mark.parametrize("name,value", _cases(COUNTS, GOOD) + _cases(SEEDS, GOOD))
def test_a_whole_float_or_numpy_count_builds_what_the_int_does(name, value):
    _, entry = {**COUNTS, **SEEDS}[name]
    np.testing.assert_equal(_described(entry(value)), _described(entry(3)))


@pytest.mark.parametrize("text", ["2.5", "True", "0", "-1", "nan", "inf", "-inf"])
def test_a_bad_grid_size_in_a_learner_id_is_an_unknown_id(text):
    # the CLI exits 3 on an UnknownIdError
    with pytest.raises(UnknownIdError, match=rf"'conv-pricing:K={text}'"):
        parse_learner(f"conv-pricing:K={text}")
