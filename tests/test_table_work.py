"""How much forward work each call does, and what an Adam step allocates.

Every forward reads one ``model.TokenTable``: one per ``train_step``,
``batch_losses``, evaluation, loss score and metric call, and one per
``_GRAD_CHUNK`` samples of influence scoring; none when fixed weights fail
their check. The Adam step hands the arrays it builds to the new states
instead of copying them, so its peak allocation is bounded by ``tracemalloc``
at a shape whose table is small beside the parameter vector. The two
validation metrics refuse an empty validation set when they are built.
"""

import math
import tracemalloc

import numpy as np
import pytest

from dataflex import ModelCfg, ModelState, OptimCfg, OptimizerState, init_model, init_optimizer, train_step
from dataflex import Corpus, eval_per_domain
from dataflex.errors import EmptyValidation, LengthMismatch, NegativeWeight, NonFinite
from dataflex.model import (
    TokenTable,
    batch_losses,
    param_count,
    per_sample_gradient,
    per_sample_loss,
    snapshot,
    token_table,
)
from dataflex.selectors import (
    _GRAD_CHUNK,
    InfluenceParams,
    mean_loss_metric,
    score_delta_loss,
    score_influence,
    score_loss,
    top1_accuracy_metric,
)

from conftest import TINY_ARCH, random_sample


@pytest.fixture
def tables(monkeypatch):
    """The list of every ``TokenTable`` built while the test runs."""
    built = []
    init = TokenTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TokenTable, "__init__", counting_init)
    return built


@pytest.fixture
def state():
    rng = np.random.default_rng(4)
    model = init_model(TINY_ARCH, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.05), model.params.size)
    batch = [random_sample(rng, TINY_ARCH.vocab_size, int(rng.integers(2, 12)), sid=i) for i in range(6)]
    model, opt, _ = train_step(model, opt, batch, np.ones(len(batch)))
    pool = [random_sample(rng, TINY_ARCH.vocab_size, int(rng.integers(2, 12)), sid=i) for i in range(2 * _GRAD_CHUNK + 5)]
    val = [random_sample(rng, TINY_ARCH.vocab_size, int(rng.integers(2, 12)), sid=900 + i, domain=i % 2) for i in range(7)]
    return model, opt, batch, pool, val


@pytest.mark.parametrize("kind", ["adam", "sgd"])
@pytest.mark.parametrize("weights", ["fixed", "function"])
def test_one_table_per_train_step(kind, weights, state, tables):
    model, _, batch, _, _ = state
    opt = init_optimizer(OptimCfg(kind=kind), model.params.size)
    train_step(model, opt, batch, np.ones(len(batch)) if weights == "fixed" else (lambda losses: np.ones(len(losses))))
    assert len(tables) == 1


@pytest.mark.parametrize(
    "weights,error",
    [(np.ones(3), LengthMismatch), ([1.0, -1.0, 1.0, 1.0, 1.0, 1.0], NegativeWeight), ([1.0, np.nan, 1.0, 1.0, 1.0, 1.0], NonFinite)],
    ids=["length", "negative", "nan"],
)
def test_no_table_when_fixed_weights_fail(weights, error, state, tables):
    model, opt, batch, _, _ = state
    with pytest.raises(error):
        train_step(model, opt, batch, weights)
    assert tables == []


def test_one_table_per_loss_read(state, tables):
    model, _, batch, pool, val = state
    calls = [
        lambda: batch_losses(model, batch),
        lambda: per_sample_loss(model, batch[0]),
        lambda: per_sample_gradient(model, batch[0]),
        lambda: eval_per_domain(model, Corpus(val, ["a", "b"], TINY_ARCH.vocab_size)),
        lambda: score_loss(model, pool),
        lambda: mean_loss_metric(val)(model),
        lambda: top1_accuracy_metric(val)(model),
    ]
    for call in calls:
        del tables[:]
        call()
        assert len(tables) == 1


def test_a_given_table_builds_none(state, tables):
    model, _, batch, _, _ = state
    table = token_table(model, batch)
    per_sample_loss(model, batch[0], table)
    per_sample_gradient(model, batch[1], table=table)
    assert tables == [table]


def test_delta_loss_builds_one_table_per_model(state, tables):
    model, opt, _, pool, _ = state
    reference = snapshot(init_model(TINY_ARCH, np.random.default_rng(1)), opt)
    score_delta_loss(model, reference, pool)
    assert len(tables) == 2


@pytest.mark.parametrize("projection_dim", [16, 0], ids=["sketched", "exact"])
def test_one_table_per_gradient_chunk(projection_dim, state, tables):
    model, opt, _, pool, val = state
    score_influence(model, opt, pool, val, InfluenceParams(projection_dim, 2))
    assert len(tables) == math.ceil(len(pool) / _GRAD_CHUNK) + math.ceil(len(val) / _GRAD_CHUNK)


@pytest.mark.parametrize("factory", [mean_loss_metric, top1_accuracy_metric])
def test_a_metric_over_no_validation_samples_raises_when_built(factory):
    with pytest.raises(EmptyValidation):
        factory([])


def traced_peak(fn):
    """Peak bytes that ``tracemalloc`` sees allocated during ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adam_step_holds_at_most_five_parameter_arrays():
    """The gradient, ``m``, ``v``, Adam's scratch and the new parameters; the states copy none of them.

    At 32/64/64 the parameter vector (8288 floats) is four times the table's
    two 32x32 arrays, so a copy of any parameter-sized array breaks the bound.
    """
    arch = ModelCfg(vocab_size=32, embed_dim=64, hidden_dim=64)
    rng = np.random.default_rng(3)
    model = init_model(arch, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.01), model.params.size)
    batch = [random_sample(rng, arch.vocab_size, 30, sid=i) for i in range(8)]
    model, opt, _ = train_step(model, opt, batch, np.ones(len(batch)))  # warm any lazy set-up
    assert traced_peak(lambda: train_step(model, opt, batch, np.ones(len(batch)))) <= 5.25 * model.params.nbytes


def test_states_copy_unless_handed_an_array():
    arch = TINY_ARCH
    params = np.zeros(param_count(arch))
    copied = ModelState(arch, params)
    assert copied.params is not params and params.flags.writeable
    owned = ModelState(arch, params, owned=True)
    assert owned.params is params and not params.flags.writeable

    m, v = np.zeros(4), np.ones(4)
    opt = OptimizerState("adam", OptimCfg(kind="adam"), m, v, 1)
    assert opt.m is not m and opt.v is not v and m.flags.writeable
    opt = OptimizerState("adam", OptimCfg(kind="adam"), m, v, 1, owned=True)
    assert opt.m is m and opt.v is v and not (m.flags.writeable or v.flags.writeable)
