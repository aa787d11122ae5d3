"""The LESS sketch against a frozen copy of its earlier, regenerating form.

``SignProjection`` draws its sign matrix once per (seed, dim_in, dim_out) and
caches it bit-packed; ``_gradient_rows`` writes each gradient into one chunk
buffer. The functions below are the earlier implementations, which redrew
every sign block from the seed on each call and stacked a list of gradient
rows per chunk. Caching must not change a single bit: the block order, the
sum order and the chunk boundaries are what every ``less`` digest depends on.
"""

import numpy as np
import pytest

from dataflex import ModelCfg, OptimCfg, init_model, init_optimizer, train_step
from dataflex.model import adam_precondition, per_sample_gradient
from dataflex.selectors import (
    _GRAD_CHUNK,
    _SIGN_BLOCK,
    InfluenceParams,
    SignProjection,
    _cosine_rows,
    _sign_blocks,
    score_influence,
)

from conftest import random_sample

# 4424 parameters: three sign blocks, the last one partial.
ARCH = ModelCfg(vocab_size=256, embed_dim=8, hidden_dim=8)


def ref_project(seed, dim_out, mat):
    mat = np.atleast_2d(mat)
    rng = np.random.default_rng(seed)
    out = np.zeros((mat.shape[0], dim_out))
    for start in range(0, mat.shape[1], _SIGN_BLOCK):
        stop = min(start + _SIGN_BLOCK, mat.shape[1])
        signs = rng.integers(0, 2, size=(stop - start, dim_out)).astype(np.float64) * 2.0 - 1.0
        out += mat[:, start:stop] @ signs
    return out / np.sqrt(dim_out)


def ref_gradient_rows(model, samples, opt, preconditioning, dim_out, seed):
    rows = []
    chunk = []

    def flush():
        if not chunk:
            return
        block = np.stack(chunk)
        rows.append(ref_project(seed, dim_out, block) if dim_out is not None else block)
        chunk.clear()

    for s in samples:
        g = per_sample_gradient(model, s)
        if preconditioning == "adam":
            g = adam_precondition(g, opt)
        chunk.append(g)
        if len(chunk) >= _GRAD_CHUNK:
            flush()
    flush()
    return np.concatenate(rows, axis=0)


def ref_score_influence(model, opt, pool, val_set, params):
    dim_out = params.projection_dim
    pool_g = ref_gradient_rows(model, pool, opt, params.preconditioning, dim_out, params.projection_seed)
    val_g = ref_gradient_rows(model, val_set, opt, params.preconditioning, dim_out, params.projection_seed)
    if params.aggregation == "mean_gradient":
        return _cosine_rows(pool_g, val_g.mean(axis=0))
    cols = [_cosine_rows(pool_g, val_g[j]) for j in range(val_g.shape[0])]
    return np.max(np.stack(cols, axis=1), axis=1)


@pytest.mark.parametrize("dim_in", [100, 2 * _SIGN_BLOCK, 2 * _SIGN_BLOCK + 37], ids=["below", "multiple", "non_multiple"])
@pytest.mark.parametrize("dim_out", [3, 13, 64])
@pytest.mark.parametrize("seed", [0, 5])
def test_project_matches_regenerating_oracle(dim_in, dim_out, seed):
    mats = np.random.default_rng(dim_in + dim_out).normal(size=(2, 5, dim_in))
    want = [ref_project(seed, dim_out, m) for m in mats]
    for _ in range(2):  # the second round reads the cache the first one filled
        for mat, expect in zip(mats, want):
            assert np.array_equal(SignProjection(dim_out, dim_in, seed).project(mat), expect)


def test_cached_sign_blocks_are_read_only_and_packed():
    blocks = _sign_blocks(3, 2 * _SIGN_BLOCK + 37, 13)
    assert [b.shape for b in blocks] == [(_SIGN_BLOCK, 2), (_SIGN_BLOCK, 2), (37, 2)]
    assert all(b.dtype == np.uint8 and not b.flags.writeable for b in blocks)
    with pytest.raises(ValueError):
        blocks[0][0, 0] = 0
    assert _sign_blocks(3, 2 * _SIGN_BLOCK + 37, 13) is blocks


@pytest.fixture(scope="module")
def warm_state():
    """A model and an Adam state one step in, with non-zero moments."""
    rng = np.random.default_rng(4)
    model = init_model(ARCH, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.01), model.params.size)
    batch = [random_sample(rng, ARCH.vocab_size, 9, sid=i) for i in range(4)]
    model, opt, _ = train_step(model, opt, batch, np.ones(len(batch)))
    pool = [random_sample(rng, ARCH.vocab_size, int(rng.integers(3, 10)), sid=i) for i in range(_GRAD_CHUNK + 21)]
    val = [random_sample(rng, ARCH.vocab_size, 8, sid=1000 + i) for i in range(6)]
    return model, opt, pool, val


@pytest.mark.parametrize("projection_dim", [0, 13, 64])
@pytest.mark.parametrize("aggregation", ["mean_gradient", "max_cosine"])
@pytest.mark.parametrize("preconditioning", ["adam", "none"])
def test_score_influence_matches_stacked_chunk_oracle(warm_state, preconditioning, aggregation, projection_dim):
    model, opt, pool, val = warm_state
    params = InfluenceParams(projection_dim, 2, preconditioning, aggregation)
    got = score_influence(model, opt, pool, val, params)
    assert np.array_equal(got.scores, ref_score_influence(model, opt, pool, val, params))
