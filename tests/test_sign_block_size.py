"""The sign block's size sets the sketch's memory, not its signs.

``_sign_blocks`` draws one ``_SIGN_BLOCK``-row block per call and
``SignProjection.project`` unpacks one whole block at a time. The sign
matrix those blocks hold must be the one that 2048-row blocks drew, bit for
bit, and one bench-shape ``project`` of a full ``_SketchRows`` chunk must
hold only a few MiB beyond its product and its output.
"""

import tracemalloc

import numpy as np
import pytest

from dataflex import ModelCfg, init_model
from dataflex.model import embedding_columns
from dataflex.selectors import _GRAD_CHUNK, _SIGN_BLOCK, SignProjection, _SketchRows, _sign_blocks

from conftest import random_sample

MIB = 1 << 20
BENCH_ARCH = ModelCfg(vocab_size=256, embed_dim=32, hidden_dim=64)  # bench/workloads.py's shape


def draw_in_2048_row_blocks(seed, dim_in, dim_out):
    """The whole sign matrix, drawn 2048 rows per call from one generator."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.integers(0, 2, size=(min(2048, dim_in - start), dim_out)) for start in range(0, dim_in, 2048)])


@pytest.mark.parametrize(
    "seed,dim_in,dim_out",
    [(0, 26944, 512), (1, 4097, 7), (5, 2 * 2048 + 37, 13), (2, 2048 + 256 + 1, 3)],
    ids=["bench", "width 7", "width 13", "width 3"],
)
def test_the_sign_matrix_is_that_of_2048_row_blocks(seed, dim_in, dim_out):
    blocks = _sign_blocks(seed, dim_in, dim_out)
    assert [b.shape[0] for b in blocks] == [min(_SIGN_BLOCK, dim_in - start) for start in range(0, dim_in, _SIGN_BLOCK)]
    got = np.concatenate([np.unpackbits(b, axis=1, count=dim_out) for b in blocks])
    assert np.array_equal(got, draw_in_2048_row_blocks(seed, dim_in, dim_out))


def test_a_bench_shape_chunk_projects_within_3_mib_of_its_product_and_output():
    rng = np.random.default_rng(4)
    n_params = init_model(BENCH_ARCH, rng).params.size
    n_emb = BENCH_ARCH.vocab_size * BENCH_ARCH.embed_dim
    samples = [random_sample(rng, BENCH_ARCH.vocab_size, 32, sid=i) for i in range(_GRAD_CHUNK)]
    touched = [embedding_columns(BENCH_ARCH, s) for s in samples]
    entries = sum(cols.size for cols in touched)
    owner, cols = np.empty((2, entries), dtype=np.int32)
    rows = _SketchRows(np.empty((_GRAD_CHUNK, n_params - n_emb)), owner, cols, np.empty(entries), rng.normal(size=n_emb))
    row = np.empty(n_params)
    for sample_cols in touched:
        row[:] = rng.normal(size=n_params)
        rows.append(row, sample_cols)
    dim_out = 512
    proj = SignProjection(dim_out, n_params, seed=0)
    proj.project(rows)  # fills the packed-bit cache, which is not the call's own cost
    product = output = _GRAD_CHUNK * dim_out * 8
    tracemalloc.start()
    try:
        proj.project(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _sign_blocks.cache_clear()
    assert peak <= product + output + 3 * MIB
