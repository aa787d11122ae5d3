"""The sign cache is drawn one block of rows per draw, with the bits of a whole-block draw.

These tests pin the bits of ``_sign_blocks`` to a whole-block draw from
the same generator, at the bench shape and at odd widths with a partial
last block, and bound what one cold build allocates.
"""

import tracemalloc

import numpy as np
import pytest

from dataflex.selectors import _SIGN_BLOCK, _sign_blocks

MIB = 1 << 20


def whole_block_oracle(seed, dim_in, dim_out):
    """Each block drawn in one call, then packed: the layout the cache must reproduce."""
    rng = np.random.default_rng(seed)
    return [
        np.packbits(rng.integers(0, 2, size=(min(_SIGN_BLOCK, dim_in - start), dim_out)), axis=1)
        for start in range(0, dim_in, _SIGN_BLOCK)
    ]


def test_block_rows_are_even():
    assert _SIGN_BLOCK % 2 == 0


@pytest.mark.parametrize(
    "seed,dim_in,dim_out",
    [(0, 26944, 512), (1, 4097, 7), (5, 2 * _SIGN_BLOCK + 37, 13), (2, 2 * _SIGN_BLOCK + 1, 3)],
    ids=["bench", "width 7", "width 13", "width 3"],
)
def test_cached_blocks_match_a_whole_block_draw(seed, dim_in, dim_out):
    blocks = _sign_blocks(seed, dim_in, dim_out)
    want = whole_block_oracle(seed, dim_in, dim_out)
    assert len(blocks) == len(want)
    for got, expect in zip(blocks, want):
        assert got.dtype == np.uint8 and got.shape == expect.shape
        assert np.array_equal(got, expect)


def test_cold_build_at_the_bench_shape_holds_one_block_of_draws():
    dim_in, dim_out = 26944, 512
    packed_cache = dim_in * (dim_out // 8)
    one_block = _SIGN_BLOCK * dim_out * 8  # int64 draws
    _sign_blocks(1, 300, 16)  # a small build first, so first-call allocations are not traced
    _sign_blocks.cache_clear()
    tracemalloc.start()
    try:
        _sign_blocks(0, dim_in, dim_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _sign_blocks.cache_clear()
    assert peak <= packed_cache + one_block + MIB // 4
