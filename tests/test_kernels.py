"""Kernels against the reference definitions and the splitmix64 stream."""

import numpy as np
import pytest

from fairtrade import kernels
from fairtrade.core import discrete_convolution_score, expected_fgft, fgft_convolution_approx
from fairtrade.environments import lb_mu
from fairtrade.rng import SplitMix64


def test_expected_fgft_at_numpy_matches_oracle():
    env = lb_mu()
    joint = env.joint
    prices = np.asarray([0.0, 0.3125, 0.5, 0.6875, 1.0])
    got = kernels.expected_fgft_at(prices, joint.sellers, joint.buyers, joint.weights)
    want = [expected_fgft(joint, float(p)) for p in prices]
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_incomplete_convolution_numpy_matches_score():
    rng = np.random.default_rng(5)
    K = 17
    av = np.zeros(K + 1)
    av[1:] = rng.integers(0, 2, K)
    bv = np.zeros(2 * K + 1)
    bv[1 : K + 1] = rng.integers(0, 2, K)
    sums = kernels.incomplete_convolution(av, bv, K)
    for i in range(1, K + 1):
        want = discrete_convolution_score(av[1:].tolist(), bv[1 : K + 1].tolist(), i, K)
        assert sums[i - 1] / K == pytest.approx(want, abs=1e-15)


def test_incomplete_convolution_validates_layout():
    with pytest.raises(ValueError):
        kernels.incomplete_convolution(np.zeros(3), np.zeros(4), 2)


def test_uniform_prices_numpy_matches_stream():
    stream = SplitMix64(99)
    want = [stream.next_unit() for _ in range(16)]
    got = kernels.uniform_prices(99, 16)
    assert got.tolist() == want  # bit-for-bit


def test_convolution_approx_batch_numpy_matches_scalar():
    rng = np.random.default_rng(11)
    p, s, b = rng.random(50), rng.random(50), rng.random(50)
    got = kernels.convolution_approx_batch(p, s, b, 257)
    want = [fgft_convolution_approx(float(pi), (float(si), float(bi)), 257) for pi, si, bi in zip(p, s, b)]
    np.testing.assert_allclose(got, want, atol=1e-15)
