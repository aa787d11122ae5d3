import math

import numpy as np
import pytest

from dataflex import (
    ModelCfg,
    ModelState,
    OptimCfg,
    adam_precondition,
    embed,
    init_model,
    init_optimizer,
    per_sample_gradient,
    per_sample_loss,
    restore,
    snapshot,
    train_step,
    zero_model,
)
from dataflex.errors import ColdOptimizer, LengthMismatch, NegativeWeight, NotAdam, TooShort
from dataflex.fileio import load_checkpoint, save_checkpoint
from dataflex.model import checkpoint_digest, param_count, state_digest

from conftest import TINY_ARCH, make_sample, random_sample


def reference_loss(arch, params, tokens):
    """Independent forward pass: pure-Python loops over the flat vector."""
    v, e, h = arch.vocab_size, arch.embed_dim, arch.hidden_dim
    off_emb = 0
    off_w1 = v * e
    off_b1 = off_w1 + e * h
    off_w2 = off_b1 + h
    off_b2 = off_w2 + h * v

    def emb_at(tok, j):
        return params[off_emb + tok * e + j]

    def w1_at(i, j):
        return params[off_w1 + i * h + j]

    def w2_at(i, j):
        return params[off_w2 + i * v + j]

    total = 0.0
    positions = len(tokens) - 1
    for p in range(positions):
        x = [emb_at(tokens[p], j) for j in range(e)]
        hid = [math.tanh(sum(x[i] * w1_at(i, j) for i in range(e)) + params[off_b1 + j]) for j in range(h)]
        logits = [sum(hid[i] * w2_at(i, j) for i in range(h)) + params[off_b2 + j] for j in range(v)]
        mx = max(logits)
        log_z = mx + math.log(sum(math.exp(l - mx) for l in logits))
        total += log_z - logits[tokens[p + 1]]
    return total / positions


def reference_hidden_mean(arch, params, tokens):
    v, e, h = arch.vocab_size, arch.embed_dim, arch.hidden_dim
    off_w1 = v * e
    off_b1 = off_w1 + e * h
    acc = [0.0] * h
    for tok in tokens:
        x = [params[tok * e + j] for j in range(e)]
        for j in range(h):
            pre = sum(x[i] * params[off_w1 + i * h + j] for i in range(e)) + params[off_b1 + j]
            acc[j] += math.tanh(pre)
    return np.array([a / len(tokens) for a in acc])


def perfect_model_for(tokens, arch):
    """Force probability ~1 on each true next token via a huge output bias split.

    Uses a bigram-free construction: every position p predicts tokens[p+1]
    regardless of input, which works when the sample has a constant target.
    """
    params = np.zeros(param_count(arch))
    v, e, h = arch.vocab_size, arch.embed_dim, arch.hidden_dim
    off_b2 = v * e + e * h + h + h * v
    target = tokens[1]
    params[off_b2 + target] = 2000.0
    return ModelState(arch, params)


class TestPerSampleLoss:
    def test_uniform_model_gives_log_vocab(self, rng):
        model = zero_model(TINY_ARCH)
        s = random_sample(rng, TINY_ARCH.vocab_size, 9)
        assert per_sample_loss(model, s) == pytest.approx(math.log(TINY_ARCH.vocab_size), abs=1e-12)

    def test_perfect_prediction_gives_zero(self):
        s = make_sample([3, 5, 5, 5])
        model = perfect_model_for(s.token_ids, TINY_ARCH)
        assert per_sample_loss(model, s) == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_forward_pass(self, tiny_model, rng):
        s = random_sample(rng, TINY_ARCH.vocab_size, 8)
        expect = reference_loss(TINY_ARCH, tiny_model.params, s.token_ids.tolist())
        assert per_sample_loss(tiny_model, s) == pytest.approx(expect, abs=1e-10)

    def test_too_short(self, tiny_model):
        with pytest.raises(TooShort):
            per_sample_loss(tiny_model, make_sample([3]))

    def test_non_negative(self, tiny_model, rng):
        for _ in range(20):
            s = random_sample(rng, TINY_ARCH.vocab_size, int(rng.integers(2, 12)))
            assert per_sample_loss(tiny_model, s) >= 0.0


class TestPerSampleGradient:
    def test_matches_central_differences(self, tiny_model, rng):
        s = random_sample(rng, TINY_ARCH.vocab_size, 7)
        g = per_sample_gradient(tiny_model, s)
        h_step = 1e-5
        base = np.array(tiny_model.params)
        for idx in rng.choice(g.size, size=60, replace=False):
            bumped = base.copy()
            bumped[idx] += h_step
            up = per_sample_loss(ModelState(TINY_ARCH, bumped), s)
            bumped[idx] = base[idx] - h_step
            down = per_sample_loss(ModelState(TINY_ARCH, bumped), s)
            fd = (up - down) / (2 * h_step)
            assert abs(fd - g[idx]) <= max(1e-6, 1e-4 * abs(g[idx]))

    def test_perfect_model_has_tiny_gradient(self):
        s = make_sample([3, 5, 5, 5])
        model = perfect_model_for(s.token_ids, TINY_ARCH)
        assert np.linalg.norm(per_sample_gradient(model, s)) <= 1e-8

    def test_deterministic(self, tiny_model, rng):
        s = random_sample(rng, TINY_ARCH.vocab_size, 6)
        g1 = per_sample_gradient(tiny_model, s)
        g2 = per_sample_gradient(tiny_model, s)
        assert np.array_equal(g1, g2)


class TestTrainStep:
    def test_unit_weights_match_unweighted(self, tiny_model, rng):
        batch = [random_sample(rng, TINY_ARCH.vocab_size, 6, sid=i) for i in range(4)]
        opt = init_optimizer(OptimCfg(kind="adam"), tiny_model.params.size)
        m1, o1, l1 = train_step(tiny_model, opt, batch, np.ones(4))
        m2, o2, l2 = train_step(tiny_model, opt, batch, [1, 1, 1, 1])
        assert np.array_equal(m1.params, m2.params)
        assert l1 == l2

    def test_weight_linearity(self, tiny_model, rng):
        # Weights (2, 0) on a 2-batch step equal a direct step on g(s1) alone.
        batch = [random_sample(rng, TINY_ARCH.vocab_size, 6, sid=i) for i in range(2)]
        opt = init_optimizer(OptimCfg(kind="sgd", learning_rate=0.1), tiny_model.params.size)
        m1, _, _ = train_step(tiny_model, opt, batch, [2.0, 0.0])
        g1 = per_sample_gradient(tiny_model, batch[0])
        expected = tiny_model.params - 0.1 * (2.0 * g1) / 2.0
        assert np.allclose(m1.params, expected, atol=0, rtol=0)

    def test_zero_lr_is_identity_on_params(self, tiny_model, rng):
        batch = [random_sample(rng, TINY_ARCH.vocab_size, 6)]
        for kind in ("sgd", "adam"):
            opt = init_optimizer(OptimCfg(kind=kind, learning_rate=0.0), tiny_model.params.size)
            m1, _, _ = train_step(tiny_model, opt, batch, [1.0])
            assert np.array_equal(m1.params, tiny_model.params)

    def test_adam_matches_scalar_reference(self, tiny_model, rng):
        batch = [random_sample(rng, TINY_ARCH.vocab_size, 6, sid=i) for i in range(3)]
        cfg = OptimCfg(kind="adam", learning_rate=0.01)
        opt = init_optimizer(cfg, tiny_model.params.size)
        model2, opt2, _ = train_step(tiny_model, opt, batch, np.ones(3))
        grad = sum(per_sample_gradient(tiny_model, s) for s in batch) / 3
        m = (1 - cfg.beta1) * grad
        v = (1 - cfg.beta2) * grad * grad
        step = cfg.learning_rate * (m / (1 - cfg.beta1)) / (np.sqrt(v / (1 - cfg.beta2)) + cfg.eps)
        assert np.allclose(model2.params, tiny_model.params - step, atol=1e-12)
        assert opt2.t == 1

    def test_length_mismatch(self, tiny_model, rng):
        batch = [random_sample(rng, TINY_ARCH.vocab_size, 6)]
        opt = init_optimizer(OptimCfg(), tiny_model.params.size)
        with pytest.raises(LengthMismatch):
            train_step(tiny_model, opt, batch, [1.0, 1.0])

    def test_negative_weight(self, tiny_model, rng):
        batch = [random_sample(rng, TINY_ARCH.vocab_size, 6)]
        opt = init_optimizer(OptimCfg(), tiny_model.params.size)
        with pytest.raises(NegativeWeight):
            train_step(tiny_model, opt, batch, [-0.1])


class TestEmbed:
    def test_identical_samples_identical_embeddings(self, tiny_model):
        a = make_sample([2, 4, 6], sid=0)
        b = make_sample([2, 4, 6], sid=1)
        assert np.array_equal(embed(tiny_model, a), embed(tiny_model, b))

    def test_single_token_equals_its_activation(self, tiny_model):
        one = embed(tiny_model, make_sample([5]))
        emb, w1, b1, _, _ = tiny_model.unpack()
        assert np.allclose(one, np.tanh(emb[5] @ w1 + b1), atol=0)

    def test_matches_independent_forward_pass(self, tiny_model, rng):
        s = random_sample(rng, TINY_ARCH.vocab_size, 5)
        expect = reference_hidden_mean(TINY_ARCH, tiny_model.params, s.token_ids.tolist())
        assert np.allclose(embed(tiny_model, s), expect, atol=1e-10)


class TestSnapshotRestore:
    def test_round_trip_bitwise(self, tiny_model, rng):
        opt = init_optimizer(OptimCfg(kind="adam"), tiny_model.params.size)
        batch = [random_sample(rng, TINY_ARCH.vocab_size, 6)]
        model, opt, _ = train_step(tiny_model, opt, batch, [1.0])
        ckpt = snapshot(model, opt)
        model2, opt2 = restore(ckpt)
        assert np.array_equal(model.params, model2.params)
        assert np.array_equal(opt.m, opt2.m)
        assert np.array_equal(opt.v, opt2.v)
        assert opt.t == opt2.t

    def test_restore_discards_later_training(self, tiny_model, rng):
        opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.05), tiny_model.params.size)
        probe = random_sample(rng, TINY_ARCH.vocab_size, 8, sid=99)
        before = per_sample_loss(tiny_model, probe)
        ckpt = snapshot(tiny_model, opt)
        model, o = tiny_model, opt
        for _ in range(5):
            batch = [random_sample(rng, TINY_ARCH.vocab_size, 6)]
            model, o, _ = train_step(model, o, batch, [1.0])
        restored, _ = restore(ckpt)
        assert per_sample_loss(restored, probe) == before

    def test_equal_states_equal_digests(self, tiny_model):
        opt = init_optimizer(OptimCfg(kind="adam"), tiny_model.params.size)
        assert checkpoint_digest(snapshot(tiny_model, opt)) == checkpoint_digest(snapshot(tiny_model, opt))

    def test_file_round_trip_bitwise(self, tiny_model, tmp_path):
        opt = init_optimizer(OptimCfg(kind="adam"), tiny_model.params.size)
        ckpt = snapshot(tiny_model, opt)
        save_checkpoint(tmp_path / "ck.json", ckpt)
        loaded = load_checkpoint(tmp_path / "ck.json")
        assert checkpoint_digest(loaded) == checkpoint_digest(ckpt)


class TestAdamPrecondition:
    def test_degenerate_betas_give_sign_like_direction(self, tiny_model):
        cfg = OptimCfg(kind="adam", beta1=0.0, beta2=0.0, eps=1e-8)
        opt = init_optimizer(cfg, tiny_model.params.size)
        opt = type(opt)(kind="adam", hyper=cfg, m=opt.m, v=opt.v, t=50)
        g = np.linspace(-1.0, 1.0, tiny_model.params.size)
        out = adam_precondition(g, opt)
        assert np.allclose(out, g / (np.abs(g) + 1e-8), atol=1e-12)

    def test_zero_gradient_zero_output(self, tiny_model):
        cfg = OptimCfg(kind="adam")
        opt = init_optimizer(cfg, tiny_model.params.size)
        opt = type(opt)(kind="adam", hyper=cfg, m=opt.m, v=opt.v, t=3)
        assert np.array_equal(adam_precondition(np.zeros(tiny_model.params.size), opt), np.zeros(tiny_model.params.size))

    def test_matches_scalar_formula(self, rng):
        cfg = OptimCfg(kind="adam", beta1=0.9, beta2=0.999, eps=1e-8)
        n = 40
        m = rng.normal(size=n)
        v = rng.random(n)
        g = rng.normal(size=n)
        t = 7
        from dataflex import OptimizerState

        opt = OptimizerState(kind="adam", hyper=cfg, m=m, v=v, t=t)
        out = adam_precondition(g, opt)
        for i in range(n):
            m_hat = (0.9 * m[i] + 0.1 * g[i]) / (1 - 0.9 ** (t + 1))
            v_hat = (0.999 * v[i] + 0.001 * g[i] ** 2) / (1 - 0.999 ** (t + 1))
            assert abs(out[i] - m_hat / (math.sqrt(v_hat) + 1e-8)) <= 1e-12

    def test_not_adam(self, tiny_model):
        opt = init_optimizer(OptimCfg(kind="sgd"), tiny_model.params.size)
        with pytest.raises(NotAdam):
            adam_precondition(np.zeros(tiny_model.params.size), opt)

    def test_cold_optimizer(self, tiny_model):
        opt = init_optimizer(OptimCfg(kind="adam"), tiny_model.params.size)
        with pytest.raises(ColdOptimizer):
            adam_precondition(np.zeros(tiny_model.params.size), opt)


def test_state_digest_changes_with_params(tiny_model, rng):
    opt = init_optimizer(OptimCfg(kind="sgd"), tiny_model.params.size)
    before = state_digest(tiny_model, opt)
    model2, opt2, _ = train_step(tiny_model, opt, [random_sample(rng, TINY_ARCH.vocab_size, 5)], [1.0])
    assert state_digest(model2, opt2) != before
    assert state_digest(tiny_model, opt) == before
