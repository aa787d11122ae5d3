"""The LESS sketch writes in place: bits, aliasing and allocation bounds.

``SignProjection.project`` refills one float sign buffer per call,
``per_sample_gradient`` concatenates into a caller's row and
``adam_precondition`` may overwrite the gradient it reads. These tests check
that each in-place form gives the bits of the allocating one, and bound what
each call allocates with ``tracemalloc`` at small shapes.
"""

import tracemalloc

import numpy as np
import pytest

from dataflex import ModelCfg, OptimCfg, init_model, init_optimizer, train_step
from dataflex import model as model_module
from dataflex.errors import NonFinite
from dataflex.model import adam_precondition, per_sample_gradient, state_digest
from dataflex.selectors import _SIGN_BLOCK, InfluenceParams, SignProjection, score_influence

from conftest import TINY_ARCH, random_sample
from test_model_reference import ref_adam_precondition, ref_loss_and_grad

# 5480 parameters: three sign blocks, the last one partial.
ARCH = ModelCfg(vocab_size=256, embed_dim=12, hidden_dim=8)


def traced_peak(fn):
    """Peak bytes that ``tracemalloc`` sees allocated during ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def warm_state():
    """A model and an Adam state one step in, with non-zero moments."""
    rng = np.random.default_rng(9)
    model = init_model(ARCH, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.01), model.params.size)
    batch = [random_sample(rng, ARCH.vocab_size, 9, sid=i) for i in range(4)]
    model, opt, _ = train_step(model, opt, batch, np.ones(len(batch)))
    pool = [random_sample(rng, ARCH.vocab_size, int(rng.integers(3, 10)), sid=i) for i in range(12)]
    val = [random_sample(rng, ARCH.vocab_size, 8, sid=100 + i) for i in range(3)]
    return model, opt, pool, val


def test_project_holds_one_float_sign_block():
    dim_in, dim_out = 2 * _SIGN_BLOCK + 513, 64
    mat = np.random.default_rng(1).normal(size=(4, dim_in))
    proj = SignProjection(dim_out, dim_in, seed=3)
    proj.project(mat)  # fills the packed-bit cache, which is not the call's own cost
    sign_block = _SIGN_BLOCK * dim_out * 8
    assert traced_peak(lambda: proj.project(mat)) < 1.5 * sign_block


def test_in_place_adam_direction_holds_at_most_four_parameter_arrays(warm_state):
    model, opt, pool, _ = warm_state
    grad = per_sample_gradient(model, pool[0])
    adam_precondition(grad.copy(), opt)  # warm any lazy set-up
    assert traced_peak(lambda: adam_precondition(grad, opt, out=grad)) <= 4 * grad.nbytes + 4096


def test_in_place_adam_direction_matches_the_reference_and_leaves_the_state(warm_state):
    model, opt, pool, _ = warm_state
    before = state_digest(model, opt)
    for s in pool:
        grad = per_sample_gradient(model, s)
        want = ref_adam_precondition(grad, opt)
        assert np.array_equal(adam_precondition(grad, opt), want)
        got = adam_precondition(grad, opt, out=grad)
        assert got is grad and np.array_equal(grad, want)
    assert state_digest(model, opt) == before


def test_gradient_written_into_a_row_matches_the_returned_bits(warm_state):
    model, _, pool, _ = warm_state
    rows = np.full((len(pool), model.params.size), np.nan)
    for row, s in zip(rows, pool):
        got = per_sample_gradient(model, s, out=row)
        assert np.shares_memory(got, row)
        assert np.array_equal(row, per_sample_gradient(model, s))
        assert np.array_equal(row, ref_loss_and_grad(model, s)[1])


@pytest.mark.parametrize(
    "params",
    [InfluenceParams(64, 2), InfluenceParams(0, 2), InfluenceParams(64, 2, "none"), InfluenceParams(13, 2, "adam", "max_cosine")],
    ids=["sketched", "exact", "no_preconditioning", "max_cosine"],
)
def test_score_influence_repeats_bitwise(warm_state, params):
    model, opt, pool, val = warm_state
    first = score_influence(model, opt, pool, val, params)
    second = score_influence(model, opt, pool, val, params)
    assert np.array_equal(first.scores, second.scores)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("source", ["fixed", "function"])
def test_non_finite_weights_raise_before_any_gradient(bad, source, monkeypatch):
    rng = np.random.default_rng(2)
    model = init_model(TINY_ARCH, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind="adam"), model.params.size)
    batch = [random_sample(rng, TINY_ARCH.vocab_size, 6, sid=i) for i in range(4)]
    weights = np.array([1.0, bad, 1.0, 1.0])

    def no_backward(*args):
        raise AssertionError("gradient accumulated before the weights were checked")

    monkeypatch.setattr(model_module, "_backward", no_backward)
    with pytest.raises(NonFinite):
        train_step(model, opt, batch, weights if source == "fixed" else (lambda losses: weights))
