"""``selectors._cosine_rows`` scores every row without copying the matrix.

At ``projection_dim: 0`` the matrix holds one full gradient per pool sample
(hundreds of MB at the benchmark's shape), so squaring it whole for the row
norms, or indexing its non-zero rows when every row is non-zero, would
allocate as much again. ``ref_cosine_rows`` is the earlier whole-matrix,
always-indexing form; every path must match it bit for bit.
"""

import tracemalloc

import numpy as np

from dataflex.selectors import _cosine_rows


def ref_cosine_rows(mat, vec):
    v_norm = float(np.linalg.norm(vec))
    row_norms = np.linalg.norm(mat, axis=1)
    out = np.zeros(mat.shape[0])
    if v_norm == 0.0:
        return out
    nz = row_norms > 0.0
    out[nz] = (mat[nz] @ vec) / (row_norms[nz] * v_norm)
    return out


def test_all_nonzero_rows_allocate_no_copy_of_the_matrix():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(1024, 2000))  # 16 MB, eight chunks of rows
    vec = rng.normal(size=2000)
    want = ref_cosine_rows(mat, vec)
    tracemalloc.start()
    try:
        got = _cosine_rows(mat, vec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mat.nbytes // 4
    assert np.array_equal(got, want)


def test_a_zero_row_scores_zero_and_the_rest_match():
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(9, 300))
    mat[[2, 7]] = 0.0
    vec = rng.normal(size=300)
    got = _cosine_rows(mat, vec)
    assert got[2] == 0.0 and got[7] == 0.0
    assert np.array_equal(got, ref_cosine_rows(mat, vec))
    rest = np.delete(np.arange(9), [2, 7])
    assert np.allclose(got[rest], [mat[i] @ vec / np.linalg.norm(mat[i]) / np.linalg.norm(vec) for i in rest])


def test_empty_matrix_scores_nothing():
    assert _cosine_rows(np.zeros((0, 6)), np.ones(6)).shape == (0,)


def test_zero_vector_scores_every_row_zero():
    mat = np.random.default_rng(2).normal(size=(4, 10))
    assert np.array_equal(_cosine_rows(mat, np.zeros(10)), np.zeros(4))


def test_many_shapes_match_the_indexing_form_bitwise():
    rng = np.random.default_rng(3)
    for rows, cols in [(1, 5), (3, 17), (128, 512), (257, 1031), (700, 64)]:
        mat = rng.normal(size=(rows, cols))
        vec = rng.normal(size=cols)
        assert np.array_equal(_cosine_rows(mat, vec), ref_cosine_rows(mat, vec))
