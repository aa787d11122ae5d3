"""Sketched gradient rows that do not store their untouched embedding columns.

A sample's gradient is +0.0 in every embedding row of a token it does not
read, so ``_gradient_rows`` keeps a sketched chunk as its columns past the
embedding, each row's touched embedding values and one row shared by every
untouched column (``_SketchRows``). ``ref_dense_gradient_rows`` is the
earlier form, which held each chunk as a whole ``(rows, P)`` block: the
scores must not move by a bit, over sign blocks that the embedding fills
or never reaches (``tests/test_sketch_mid_block.py`` has one that it ends
inside), and the chunk must store less than that block.
"""

import tracemalloc

import numpy as np
import pytest

from dataflex import ModelCfg, OptimCfg, Sample, init_model, init_optimizer, selectors, train_step
from dataflex.errors import ColdOptimizer, TooShort
from dataflex.model import adam_precondition, embedding_columns, per_sample_gradient, token_table
from dataflex.selectors import _GRAD_CHUNK, InfluenceParams, SignProjection, _gradient_rows, _sign_blocks, score_influence

from conftest import random_sample

#: name -> (V, E, H): the embedding's V*E columns against the sign blocks.
LAYOUTS = {
    "aligned": (256, 8, 8),  # V*E = 2048, four whole 512-row sign blocks
    "straddling": (256, 12, 8),  # V*E = 3072 ends on a block boundary, after six whole blocks
    "straddling_2560": (64, 40, 8),  # V*E = 2560 of P = 3464
    "below": (24, 8, 8),  # V*E = 192, P = 480 < one block
}


def ref_dense_gradient_rows(model, samples, opt, preconditioning, proj):
    n = len(samples)
    out = np.empty((n, model.params.size if proj is None else proj.dim_out))
    block = None if proj is None else np.empty((min(n, _GRAD_CHUNK), model.params.size))
    for start in range(0, n, _GRAD_CHUNK):
        chunk = samples[start:start + _GRAD_CHUNK]
        rows = (out[start:] if proj is None else block)[: len(chunk)]
        table = token_table(model, chunk)
        for row, s in zip(rows, chunk):
            per_sample_gradient(model, s, out=row, table=table)
            if preconditioning == "adam":
                adam_precondition(row, opt, out=row)
        del table
        if proj is not None:
            out[start:start + len(chunk)] = proj.project(rows)
    return out


def warm(arch, seed):
    """A model and an Adam state one step in, and a pool with a one-sample, one-token tail chunk."""
    rng = np.random.default_rng(seed)
    model = init_model(arch, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.01), model.params.size)
    batch = [random_sample(rng, arch.vocab_size, 9, sid=i) for i in range(4)]
    model, opt, _ = train_step(model, opt, batch, np.ones(len(batch)))
    pool = [random_sample(rng, arch.vocab_size, int(rng.integers(3, 12)), sid=i) for i in range(_GRAD_CHUNK)]
    return model, opt, pool + [random_sample(rng, arch.vocab_size, 2, sid=_GRAD_CHUNK)]


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def layout(request):
    return warm(ModelCfg(*LAYOUTS[request.param]), seed=len(request.param))


@pytest.fixture(scope="module")
def dense_rows(layout):
    """The reference's unsketched rows of ``layout``'s pool, per preconditioning.

    The reference projects the rows of each chunk's block, whose bits these
    are, so projecting these chunk by chunk is its sketched path.
    """
    model, opt, pool = layout
    return {pre: ref_dense_gradient_rows(model, pool, opt, pre, None) for pre in ("adam", "none")}


@pytest.mark.parametrize("preconditioning", ["adam", "none"])
@pytest.mark.parametrize("width", [3, 13, 64, 512])
def test_sketched_rows_match_the_dense_chunk_bitwise(layout, dense_rows, width, preconditioning):
    model, opt, pool = layout
    proj = SignProjection(width, model.params.size, seed=1)
    rows = dense_rows[preconditioning]
    want = np.concatenate([proj.project(rows[start:start + _GRAD_CHUNK]) for start in range(0, len(pool), _GRAD_CHUNK)])
    assert _gradient_rows(model, pool, opt, preconditioning, proj).tobytes() == want.tobytes()


def test_the_chunked_reference_is_the_dense_sketch(layout, dense_rows):
    model, opt, pool = layout
    proj = SignProjection(13, model.params.size, seed=1)
    want = np.concatenate([proj.project(dense_rows["adam"][start:start + _GRAD_CHUNK]) for start in (0, _GRAD_CHUNK)])
    assert ref_dense_gradient_rows(model, pool, opt, "adam", proj).tobytes() == want.tobytes()


def test_a_gradient_is_positive_zero_outside_its_embedding_columns(layout):
    model, _, pool = layout
    n_emb = model.unpack()[0].size
    for s in pool[:20] + pool[-1:]:
        grad = per_sample_gradient(model, s)[:n_emb]
        cols = embedding_columns(model.arch, s)
        assert np.all(np.diff(cols) > 0) and cols.size == np.unique(s.token_ids[:-1]).size * model.arch.embed_dim
        rest = np.delete(grad, cols)
        assert np.all(rest == 0.0) and not np.any(np.signbit(rest))


@pytest.mark.parametrize("preconditioning", ["adam", "none"])
def test_one_shared_adam_row_per_score_call(layout, preconditioning, monkeypatch):
    model, opt, pool = layout
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return adam_precondition(*args, **kwargs)

    monkeypatch.setattr(selectors, "adam_precondition", counted)
    val = pool[:5]
    score_influence(model, opt, pool, val, InfluenceParams(16, 2, preconditioning))
    assert len(calls) == {"adam": len(pool) + len(val) + 1, "none": 0}[preconditioning]


def test_the_exact_path_makes_one_adam_call_per_sample(monkeypatch):
    """The exact path reads no untouched-column row, so it builds none."""
    model, opt, pool = warm(ModelCfg(*LAYOUTS["below"]), seed=4)
    pool, val = pool[:60], pool[60:72]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return adam_precondition(*args, **kwargs)

    monkeypatch.setattr(selectors, "adam_precondition", counted)
    score_influence(model, opt, pool, val, InfluenceParams(0, 2))
    assert len(calls) == len(pool) + len(val)


def test_too_short_comes_before_cold_optimizer(layout):
    model, _, pool = layout
    cold = init_optimizer(OptimCfg(kind="adam"), model.params.size)
    short = Sample(id=9999, domain_id=0, token_ids=np.array([1]))
    with pytest.raises(TooShort):
        score_influence(model, cold, pool[:3] + [short], pool[:2], InfluenceParams(16, 2))
    with pytest.raises(ColdOptimizer):
        score_influence(model, cold, pool[:3], pool[:2], InfluenceParams(16, 2))


def test_a_full_sketched_chunk_stores_less_than_its_dense_block():
    # V*E = 8192 of P = 10820 parameters, the bench's embedding share or more.
    model, opt, pool = warm(ModelCfg(vocab_size=512, embed_dim=16, hidden_dim=4), seed=3)
    pool = pool[:_GRAD_CHUNK]
    proj = SignProjection(16, model.params.size, seed=0)
    _sign_blocks(0, model.params.size, 16)  # the cached blocks are drawn before tracing
    dense_block = len(pool) * model.params.size * 8
    tracemalloc.start()
    try:
        _gradient_rows(model, pool, opt, "adam", proj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_block
