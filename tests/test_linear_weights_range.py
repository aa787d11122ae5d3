"""``linear`` weights keep their mean-one rule at both ends of the float range.

A batch whose loss sum overflows, or whose mean is subnormal, is rescaled by
its largest loss first; a batch with a normal mean is divided by it as is.
"""

import warnings

import numpy as np
import pytest

from dataflex import WeightStrategy, compute_weights

LINEAR = WeightStrategy("linear")


@pytest.mark.parametrize(
    "losses,expected",
    [
        ([1e308, 1e308, 1.0], [1.5, 1.5, 1.5e-308]),  # the sum overflows
        ([5e-324, 5e-324, 0.0], [1.5, 1.5, 0.0]),  # the mean is subnormal
        ([5e-324, 0.0, 0.0], [3.0, 0.0, 0.0]),  # the mean rounds to 0
    ],
    ids=["overflowing sum", "subnormal mean", "mean rounding to zero"],
)
def test_mean_one_at_the_ends_of_the_float_range(losses, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning included
        w = compute_weights(losses, LINEAR)
    assert np.all(np.isfinite(w))
    assert w.mean() == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(w, expected, rtol=1e-15)


def test_a_normal_mean_divides_the_losses_as_they_are():
    losses = np.random.default_rng(3).exponential(2.0, size=64)
    assert np.array_equal(compute_weights(losses, LINEAR), losses / losses.mean())
    tiny = np.full(4, np.finfo(np.float64).tiny)  # the smallest normal mean
    assert np.array_equal(compute_weights(tiny, LINEAR), np.ones(4))


def test_all_zero_losses_still_weigh_one():
    assert np.array_equal(compute_weights(np.zeros(3), LINEAR), np.ones(3))
