"""The model's rules against a frozen copy of their earlier, separately written form.

``model.py`` writes the forward pass, the Adam step and the state copy once
and shares them. The functions below are the earlier implementations, in
which ``train_step``, ``adam_precondition``, ``_loss_and_grad`` and the top-1
metric each spelled out their own arithmetic. Sharing must not change a
single bit: every run digest depends on the operation order (for example,
Adam's step is ``params - lr * m_hat / denom`` evaluated left to right, not
``lr * (m_hat / denom)``).
"""

import numpy as np
import pytest

from dataflex import (
    ModelCfg,
    ModelState,
    OptimCfg,
    OptimizerState,
    adam_precondition,
    init_model,
    init_optimizer,
    per_sample_gradient,
    per_sample_loss,
    train_step,
)
from dataflex.selectors import top1_accuracy_metric

from conftest import random_sample


def ref_log_probs(hidden, w2, b2):
    logits = hidden @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return shifted, log_z


def ref_per_sample_loss(model, s):
    tokens = s.token_ids
    emb, w1, b1, w2, b2 = model.unpack()
    hid = np.tanh(emb[tokens[:-1]] @ w1 + b1)
    shifted, log_z = ref_log_probs(hid, w2, b2)
    targets = tokens[1:]
    rows = np.arange(targets.size)
    return float(np.mean(log_z - shifted[rows, targets]))


def ref_loss_and_grad(model, s):
    tokens = s.token_ids
    emb, w1, b1, w2, b2 = model.unpack()
    inputs = tokens[:-1]
    targets = tokens[1:]
    n_pos = inputs.size

    x = emb[inputs]
    hid = np.tanh(x @ w1 + b1)
    shifted, log_z = ref_log_probs(hid, w2, b2)
    rows = np.arange(n_pos)
    loss = float(np.mean(log_z - shifted[rows, targets]))

    probs = np.exp(shifted - log_z[:, None])
    d_logits = probs
    d_logits[rows, targets] -= 1.0
    d_logits /= n_pos

    d_w2 = hid.T @ d_logits
    d_b2 = d_logits.sum(axis=0)
    d_hid = d_logits @ w2.T
    d_z1 = d_hid * (1.0 - hid * hid)
    d_w1 = x.T @ d_z1
    d_b1 = d_z1.sum(axis=0)
    d_x = d_z1 @ w1.T
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, inputs, d_x)

    grad = np.concatenate([d_emb.ravel(), d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])
    return loss, grad


def ref_train_step(model, opt, batch, weights):
    w = np.asarray(weights, dtype=np.float64)
    n = len(batch)
    grad = np.zeros_like(model.params)
    wloss = 0.0
    for wi, s in zip(w, batch):
        loss_i, g_i = ref_loss_and_grad(model, s)
        grad += wi * g_i
        wloss += wi * loss_i
    grad /= n
    wloss /= n

    cfg = opt.hyper
    if opt.kind == "sgd":
        new_model = ModelState(model.arch, model.params - cfg.learning_rate * grad)
        new_opt = OptimizerState("sgd", cfg, None, None, opt.t + 1)
    else:
        t = opt.t + 1
        m = cfg.beta1 * opt.m + (1.0 - cfg.beta1) * grad
        v = cfg.beta2 * opt.v + (1.0 - cfg.beta2) * grad * grad
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
        new_model = ModelState(model.arch, model.params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps))
        new_opt = OptimizerState("adam", cfg, m, v, t)
    return new_model, new_opt, float(wloss)


def ref_adam_precondition(grad, opt):
    cfg = opt.hyper
    t = opt.t + 1
    m = (cfg.beta1 * opt.m + (1.0 - cfg.beta1) * grad) / (1.0 - cfg.beta1 ** t)
    v = (cfg.beta2 * opt.v + (1.0 - cfg.beta2) * grad * grad) / (1.0 - cfg.beta2 ** t)
    return m / (np.sqrt(v) + cfg.eps)


def ref_top1_accuracy(model, val_set):
    hits = 0
    total = 0
    for s in val_set:
        tokens = s.token_ids
        emb, w1, b1, w2, b2 = model.unpack()
        hid = np.tanh(emb[tokens[:-1]] @ w1 + b1)
        pred = np.argmax(hid @ w2 + b2, axis=1)
        hits += int(np.sum(pred == tokens[1:]))
        total += tokens.size - 1
    return hits / total


def assert_same_state(got, want):
    (model, opt, loss), (ref_model, ref_opt, ref_loss) = got, want
    assert np.array_equal(model.params, ref_model.params)
    assert opt.kind == ref_opt.kind and opt.t == ref_opt.t
    for arr, ref in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
        assert (arr is None and ref is None) or np.array_equal(arr, ref)
    assert loss == ref_loss


@pytest.mark.parametrize("arch", [ModelCfg(vocab_size=24, embed_dim=6, hidden_dim=8), ModelCfg(vocab_size=96, embed_dim=12, hidden_dim=20)])
@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_twenty_steps_match_the_reference_bitwise(arch, kind):
    rng = np.random.default_rng(11)
    model = init_model(arch, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind=kind, learning_rate=0.05), model.params.size)
    val = [random_sample(rng, arch.vocab_size, int(rng.integers(2, 41)), sid=100 + i) for i in range(6)]
    metric = top1_accuracy_metric(val)
    for _ in range(20):
        batch = [random_sample(rng, arch.vocab_size, int(rng.integers(2, 41)), sid=i) for i in range(4)]
        weights = rng.random(4) * 2.0
        for s in batch:
            assert per_sample_loss(model, s) == ref_per_sample_loss(model, s)
            grad = per_sample_gradient(model, s)
            assert np.array_equal(grad, ref_loss_and_grad(model, s)[1])
            if kind == "adam" and opt.t >= 1:
                assert np.array_equal(adam_precondition(grad, opt), ref_adam_precondition(grad, opt))
        assert metric(model) == ref_top1_accuracy(model, val)
        stepped = train_step(model, opt, batch, weights)
        assert_same_state(stepped, ref_train_step(model, opt, batch, weights))
        model, opt, _ = stepped
