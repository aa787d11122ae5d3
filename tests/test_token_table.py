"""The token table against the frozen per-position pass, bit for bit.

``model.token_table`` computes each distinct input token's hidden row,
log-probability row, probability row and argmax once, and every loss,
gradient and metric gathers from it. That is bitwise the per-position pass
of ``tests/test_model_reference.py`` only because BLAS gives a product row
the same bits whatever the number of rows (two or more). These tests pin
that at every model shape the tests, the benchmark and ``tools/digests.py``
use, including the one-position sample (a one-row product, which BLAS
computes on another path), a sample whose inputs are all one token (a
one-token table, padded to two rows) and a batch made only of one-position
samples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataflex import ModelCfg, ModelState, OptimCfg, init_model, init_optimizer, train_step
from dataflex.model import batch_losses, param_count, per_sample_gradient, per_sample_loss, token_table
from dataflex.selectors import top1_accuracy_metric

from conftest import make_sample, random_sample
from test_model_reference import (
    assert_same_state,
    ref_log_probs,
    ref_loss_and_grad,
    ref_per_sample_loss,
    ref_top1_accuracy,
    ref_train_step,
)

#: (vocab, embed, hidden) of every model in use; the last is the DoReMi proxy of the bench shape.
SHAPES = [
    (24, 6, 8),
    (96, 12, 20),
    (32, 6, 8),
    (32, 4, 6),
    (64, 12, 16),
    (64, 16, 32),
    (48, 8, 10),
    (256, 8, 8),
    (256, 12, 8),
    (256, 32, 64),
    (256, 32, 32),
]
SHAPE_IDS = ["x".join(map(str, shape)) for shape in SHAPES]


def arch_of(shape):
    v, e, h = shape
    return ModelCfg(vocab_size=v, embed_dim=e, hidden_dim=h)


def special_batch(rng, vocab):
    """Random samples plus one-position samples and a sample whose inputs are all one token."""
    batch = [random_sample(rng, vocab, int(rng.integers(3, 41)), sid=i) for i in range(5)]
    a, b = (int(t) for t in rng.integers(0, vocab, size=2))
    batch += [
        make_sample([a, b], sid=10),
        make_sample([b, a], sid=11),
        make_sample([a, a, a, a, b], sid=12),
        make_sample([b] * 7, sid=13),
    ]
    return batch


def assert_rows_match_reference(model, s, table):
    """The table rows of ``s`` equal its own per-position hidden rows, log-probabilities and argmax."""
    emb, w1, b1, w2, b2 = model.unpack()
    hid = np.tanh(emb[s.token_ids[:-1]] @ w1 + b1)
    shifted, log_z = ref_log_probs(hid, w2, b2)
    rows = table.rows(s.token_ids[:-1])
    assert np.array_equal(table.hid[rows], hid)
    assert np.array_equal(table.logp[rows], shifted - log_z[:, None])
    assert np.array_equal(table.probs[rows], np.exp(shifted - log_z[:, None]))
    assert np.array_equal(table.top[rows], np.argmax(hid @ w2 + b2, axis=1))


def assert_batch_matches_reference(model, batch):
    table = token_table(model, batch)
    losses = batch_losses(model, batch)
    for i, s in enumerate(batch):
        assert_rows_match_reference(model, s, table)
        want_loss, want_grad = ref_loss_and_grad(model, s)
        assert per_sample_loss(model, s) == ref_per_sample_loss(model, s) == want_loss
        assert per_sample_loss(model, s) == losses[i]
        assert per_sample_loss(model, s, table) == losses[i]
        assert np.array_equal(per_sample_gradient(model, s), want_grad)
        assert np.array_equal(per_sample_gradient(model, s, table=table), want_grad)
    assert top1_accuracy_metric(batch)(model) == ref_top1_accuracy(model, batch)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("scale", [0.1, 1.0])
def test_table_matches_the_per_position_pass(shape, scale):
    arch = arch_of(shape)
    rng = np.random.default_rng(shape[0] * 1000 + shape[2])
    model = init_model(arch, rng, scale=scale)
    assert_batch_matches_reference(model, special_batch(rng, arch.vocab_size))


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_batch_of_one_position_samples(shape):
    arch = arch_of(shape)
    rng = np.random.default_rng(5)
    model = init_model(arch, rng, scale=0.5)
    batch = [random_sample(rng, arch.vocab_size, 2, sid=i) for i in range(6)]
    table = token_table(model, batch)
    assert table.hid.shape[0] == len({int(s.token_ids[0]) for s in batch})
    assert_batch_matches_reference(model, batch)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_batch_of_one_input_token(shape):
    arch = arch_of(shape)
    rng = np.random.default_rng(6)
    model = init_model(arch, rng, scale=0.5)
    batch = [make_sample([3, 3, 3, 1], sid=0), make_sample([3, 2], sid=1), make_sample([3, 3, 0], sid=2)]
    table = token_table(model, batch)
    assert table.hid.shape[0] == 3  # the lone multi-position token, padded to two rows, and one one-row product
    assert_batch_matches_reference(model, batch)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_train_steps_match_the_reference(shape, kind):
    arch = arch_of(shape)
    rng = np.random.default_rng(8)
    model = init_model(arch, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind=kind, learning_rate=0.05), model.params.size)
    for _ in range(3):
        batch = special_batch(rng, arch.vocab_size)
        weights = rng.random(len(batch)) * 2.0
        stepped = train_step(model, opt, batch, weights)
        assert_same_state(stepped, ref_train_step(model, opt, batch, weights))
        model, opt, _ = stepped


def test_a_certain_next_token_gives_positive_zero_loss():
    """A next token of probability 1 has loss +0.0, in the table as in the per-position pass."""
    arch = arch_of(SHAPES[0])
    params = np.zeros(param_count(arch))
    params[-arch.vocab_size] = 1000.0  # output bias of token 0: every other probability underflows
    model = ModelState(arch, params)
    s = make_sample([5, 0, 0])
    want = ref_per_sample_loss(model, s)
    assert want == 0.0 and not np.signbit(want)
    assert not np.signbit(per_sample_loss(model, s))
    assert not np.signbit(batch_losses(model, [s])[0])


def test_a_token_outside_the_table_raises():
    arch = arch_of(SHAPES[0])
    model = init_model(arch, np.random.default_rng(1), scale=0.5)
    table = token_table(model, [make_sample([1, 2, 3])])
    with pytest.raises(IndexError):
        per_sample_loss(model, make_sample([4, 5, 6]), table)
    with pytest.raises(IndexError):
        per_sample_loss(model, make_sample([1, 2]), table)  # token 1 has no one-row product here


def test_a_table_of_another_model_raises():
    arch = arch_of(SHAPES[0])
    rng = np.random.default_rng(1)
    model, other = init_model(arch, rng), init_model(arch, rng)
    s = make_sample([1, 2, 3])
    with pytest.raises(ValueError, match="another model"):
        per_sample_loss(model, s, token_table(other, [s]))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(2, 30), min_size=1, max_size=8),
    vocab_cap=st.sampled_from([1, 2, 5, None]),
)
def test_random_batches_match_the_reference(shape, seed, lengths, vocab_cap):
    """Random batches, sometimes over a few tokens only, so that inputs repeat across samples."""
    arch = arch_of(shape)
    rng = np.random.default_rng(seed)
    model = init_model(arch, rng, scale=float(rng.choice([0.1, 0.5, 1.0])))
    vocab = vocab_cap or arch.vocab_size
    batch = [random_sample(rng, vocab, n, sid=i) for i, n in enumerate(lengths)]
    assert_batch_matches_reference(model, batch)
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.05), model.params.size)
    weights = rng.random(len(batch))
    assert_same_state(train_step(model, opt, batch, weights), ref_train_step(model, opt, batch, weights))
