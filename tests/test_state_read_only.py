"""Model and optimizer state is read-only, so a checkpoint is the state itself.

``OptimizerState`` stores Adam's moments as read-only float64 copies, the rule
``ModelState`` applies to its parameters, and ``embed`` returns a read-only
vector. Nothing deep-copies state any more: ``score_probe`` steps from the
caller's model directly and ``score_delta_loss`` reads the reference
checkpoint's model. The oracles below are the earlier forms, which copied
the (model, optimizer) pair into a snapshot and restored a fresh copy of it
for every probe; both scorers must match them bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from dataflex import ModelCfg, OptimCfg, embed, init_model, init_optimizer, snapshot, train_step
from dataflex.fileio import load_checkpoint, save_checkpoint
from dataflex.model import ModelState, per_sample_gradient, per_sample_loss, sgd_step
from dataflex.selectors import mean_loss_metric, score_delta_loss, score_probe, top1_accuracy_metric

from conftest import make_sample, random_sample

ARCH = ModelCfg(vocab_size=24, embed_dim=6, hidden_dim=8)


def ref_copy_state(model, opt):
    m, v = (None if a is None else a.copy() for a in (opt.m, opt.v))
    return ModelState(model.arch, model.params.copy()), dataclasses.replace(opt, m=m, v=v)


def ref_score_probe(model, opt, pool, metric, probe_lr):
    base = ref_copy_state(model, opt)
    before = float(metric(model))
    scores = np.empty(len(pool))
    for i, s in enumerate(pool):
        probe_model, _ = ref_copy_state(*base)
        g = per_sample_gradient(probe_model, s)
        scores[i] = before - float(metric(sgd_step(probe_model, probe_lr, g)))
    return scores


def ref_score_delta_loss(model, ref_model, ref_opt, pool, hardest_first):
    restored, _ = ref_copy_state(*ref_copy_state(ref_model, ref_opt))
    scores = np.array([per_sample_loss(restored, s) - per_sample_loss(model, s) for s in pool])
    return -scores if hardest_first else scores


def trained(kind, steps=3):
    """(model, opt) after ``steps`` steps, with the optimizer of ``kind``."""
    rng = np.random.default_rng(11)
    model = init_model(ARCH, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind=kind, learning_rate=0.05), model.params.size)
    for i in range(steps):
        batch = [random_sample(rng, ARCH.vocab_size, 7, sid=4 * i + j) for j in range(4)]
        model, opt, _ = train_step(model, opt, batch, np.ones(len(batch)))
    return model, opt


def pools():
    rng = np.random.default_rng(12)
    pool = [random_sample(rng, ARCH.vocab_size, int(rng.integers(2, 9)), sid=i) for i in range(12)]
    val = [random_sample(rng, ARCH.vocab_size, 8, sid=100 + i) for i in range(5)]
    return pool, val


def assert_moments_read_only(opt):
    for a in (opt.m, opt.v):
        assert a.dtype == np.float64 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_adam_moments_are_read_only_after_init_step_and_load(tmp_path):
    opt = init_optimizer(OptimCfg(kind="adam"), 10)
    assert_moments_read_only(opt)
    model, opt = trained("adam")
    assert_moments_read_only(opt)
    save_checkpoint(tmp_path / "ck.json", snapshot(model, opt))
    assert_moments_read_only(load_checkpoint(tmp_path / "ck.json").opt)


def test_moments_are_copied_in():
    m = np.zeros(4)
    opt = dataclasses.replace(init_optimizer(OptimCfg(kind="adam"), 4), m=m)
    m[0] = 1.0
    assert opt.m[0] == 0.0


def test_embed_is_a_read_only_float64_vector():
    model = init_model(ARCH, np.random.default_rng(3), scale=0.5)
    e = embed(model, make_sample([1, 2, 3]))
    assert isinstance(e, np.ndarray) and e.dtype == np.float64 and e.shape == (ARCH.hidden_dim,)
    with pytest.raises(ValueError):
        e[0] = 0.0


@pytest.mark.parametrize("metric", [mean_loss_metric, top1_accuracy_metric])
@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_score_probe_matches_copy_and_restore_oracle(kind, metric):
    model, opt = trained(kind)
    pool, val = pools()
    got = score_probe(model, pool, metric(val), probe_lr=0.05)
    assert np.array_equal(got.scores, ref_score_probe(model, opt, pool, metric(val), 0.05))


@pytest.mark.parametrize("hardest_first", [False, True])
@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_score_delta_loss_matches_copy_and_restore_oracle(kind, hardest_first):
    ref_model, ref_opt = trained(kind, steps=1)
    model, _ = trained(kind, steps=4)
    pool, _ = pools()
    got = score_delta_loss(model, snapshot(ref_model, ref_opt), pool, hardest_first=hardest_first)
    assert np.array_equal(got.scores, ref_score_delta_loss(model, ref_model, ref_opt, pool, hardest_first))
