"""``train_step`` with weights given as a function of the batch's losses.

The function is called once, with the losses of the step's own forward
pass, before any gradient is accumulated. It must reproduce, bit for bit,
the step that first computes ``batch_losses`` and passes the weights it
derives, and its result must pass the same checks as fixed weights.
"""

import numpy as np
import pytest

from dataflex import OptimCfg, init_optimizer, train_step
from dataflex import model as model_module
from dataflex.model import batch_losses
from dataflex.errors import LengthMismatch, NegativeWeight

from conftest import TINY_ARCH, random_sample


def loss_weights(losses):
    return np.asarray(losses) / np.mean(losses) + 0.25


def make_batch(rng, n, first_id=0):
    return [random_sample(rng, TINY_ARCH.vocab_size, int(rng.integers(2, 12)), sid=first_id + i) for i in range(n)]


def assert_same_step(got, want):
    (model, opt, loss), (ref_model, ref_opt, ref_loss) = got, want
    assert np.array_equal(model.params, ref_model.params)
    assert opt.t == ref_opt.t
    for a, b in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
        assert (a is None and b is None) or np.array_equal(a, b)
    assert loss == ref_loss


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_loss_function_matches_fixed_weights_bitwise(kind, tiny_model, rng):
    opt = init_optimizer(OptimCfg(kind=kind, learning_rate=0.05), tiny_model.params.size)
    got = want = (tiny_model, opt, 0.0)
    for step in range(6):
        batch = make_batch(rng, 5, first_id=10 * step)
        model, opt, _ = got
        ref_model, ref_opt, _ = want
        got = train_step(model, opt, batch, loss_weights)
        want = train_step(ref_model, ref_opt, batch, loss_weights(batch_losses(ref_model, batch)))
        assert_same_step(got, want)


def test_function_is_called_once_with_the_batch_losses(tiny_model, adam_opt, rng):
    batch = make_batch(rng, 7)
    calls = []

    def weigh(losses):
        calls.append(np.array(losses, copy=True))
        return np.ones(len(losses))

    train_step(tiny_model, adam_opt, batch, weigh)
    assert len(calls) == 1
    assert calls[0].dtype == np.float64
    assert np.array_equal(calls[0], batch_losses(tiny_model, batch))


def test_all_ones_function_matches_the_unweighted_step(tiny_model, adam_opt, rng):
    batch = make_batch(rng, 4)
    got = train_step(tiny_model, adam_opt, batch, lambda losses: np.ones(len(losses)))
    assert_same_step(got, train_step(tiny_model, adam_opt, batch, np.ones(len(batch))))


@pytest.mark.parametrize(
    "weigh,error",
    [
        (lambda losses: np.ones(len(losses) + 1), LengthMismatch),
        (lambda losses: np.ones(len(losses) - 1), LengthMismatch),
        (lambda losses: 1.0, LengthMismatch),
        (lambda losses: np.where(np.arange(len(losses)) == 1, -0.5, 1.0), NegativeWeight),
    ],
    ids=["long", "short", "scalar", "negative"],
)
def test_bad_weights_from_the_function_raise(weigh, error, tiny_model, adam_opt, rng):
    with pytest.raises(error):
        train_step(tiny_model, adam_opt, make_batch(rng, 4), weigh)


@pytest.mark.parametrize(
    "weights,error", [(np.ones(3), LengthMismatch), ([1.0, -1.0, 1.0, 1.0], NegativeWeight)], ids=["length", "negative"]
)
def test_bad_fixed_weights_raise_before_any_forward_pass(weights, error, tiny_model, adam_opt, rng, monkeypatch):
    def no_forward(*args):
        raise AssertionError("forward pass before the weights were checked")

    monkeypatch.setattr(model_module, "_forward", no_forward)
    with pytest.raises(error):
        train_step(tiny_model, adam_opt, make_batch(rng, 4), weights)


def test_empty_batch_raises_before_calling_the_function(tiny_model, adam_opt):
    def weigh(losses):
        raise AssertionError("called on an empty batch")

    with pytest.raises(LengthMismatch):
        train_step(tiny_model, adam_opt, [], weigh)
