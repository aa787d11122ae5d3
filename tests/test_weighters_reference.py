"""``weighters.apply`` against a frozen copy of its earlier two-pass form.

``apply`` hands ``compute_weights`` to ``train_step``, which calls it with
the losses of its own forward pass. The functions below are the earlier
implementations: a separate ``batch_losses`` pass, then a step that forwards
the batch again and accumulates each sample's concatenated flat gradient.
The single pass must not change a single bit of the parameters, the Adam
moments, the loss or the weights.
"""

import numpy as np
import pytest

from dataflex import (
    ModelState,
    OptimCfg,
    OptimizerState,
    WeightStrategy,
    compute_weights,
    init_optimizer,
    per_sample_gradient,
    per_sample_loss,
)
from dataflex.model import batch_losses
from dataflex.weighters import apply

from conftest import TINY_ARCH, random_sample


def ref_train_step(model, opt, batch, weights):
    n = len(batch)
    grad = np.zeros_like(model.params)
    wloss = 0.0
    for wi, s in zip(weights, batch):
        grad += wi * per_sample_gradient(model, s)
        wloss += wi * per_sample_loss(model, s)
    grad /= n
    wloss /= n
    cfg = opt.hyper
    t = opt.t + 1
    m = cfg.beta1 * opt.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * opt.v + (1.0 - cfg.beta2) * grad * grad
    m_hat = m / (1.0 - cfg.beta1 ** t)
    denom = np.sqrt(v / (1.0 - cfg.beta2 ** t)) + cfg.eps
    return ModelState(model.arch, model.params - cfg.learning_rate * m_hat / denom), OptimizerState("adam", cfg, m, v, t), float(wloss)


def ref_apply(model, opt, batch, strat, in_warmup):
    if in_warmup:
        weights = np.ones(len(batch))
    else:
        weights = compute_weights(batch_losses(model, batch), strat)
    new_model, new_opt, loss = ref_train_step(model, opt, batch, weights)
    return new_model, new_opt, loss, weights


@pytest.mark.parametrize(
    "strat",
    [WeightStrategy("uniform"), WeightStrategy("linear"), WeightStrategy("softmax", 0.5)],
    ids=lambda s: s.kind,
)
def test_apply_matches_two_pass_oracle_bitwise(strat, tiny_model, rng):
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.05), tiny_model.params.size)
    got = want = (tiny_model, opt)
    for step in range(8):
        batch = [random_sample(rng, TINY_ARCH.vocab_size, int(rng.integers(2, 14)), sid=8 * step + i) for i in range(8)]
        in_warmup = step < 2
        model, opt, loss, weights = apply(*got, batch, strat, in_warmup)
        ref_model, ref_opt, ref_loss, ref_weights = ref_apply(*want, batch, strat, in_warmup)
        assert np.array_equal(model.params, ref_model.params)
        assert np.array_equal(opt.m, ref_opt.m) and np.array_equal(opt.v, ref_opt.v) and opt.t == ref_opt.t
        assert loss == ref_loss
        assert np.array_equal(weights, ref_weights)
        got, want = (model, opt), (ref_model, ref_opt)
