"""Neighbour order of ``score_knn`` and ``score_tsds`` under ties.

``score_knn`` ranks validation embeddings by cosine, ties broken by lower
validation index; ``score_tsds`` retrieves pool points by distance, ties
broken by lower pool index. Each is checked bytewise against the
``np.lexsort`` form of that order on embeddings with duplicated rows, zero
rows and signed zeros. Tied cosines are equal, so a knn score does not
show which tied neighbour came first; a tsds score does when ``max_K``
cuts through a tie, and a hand-written case pins that.
"""

import numpy as np
import pytest

from dataflex import TsdsParams, score_knn, score_tsds


def knn_lexsort(pool, val, k):
    """``score_knn``'s scores, with neighbours ordered by ``np.lexsort((index, -cos))``."""
    denom = np.outer(np.linalg.norm(pool, axis=1), np.linalg.norm(val, axis=1))
    cos = np.zeros(denom.shape)
    nz = denom > 0.0
    cos[nz] = (pool @ val.T)[nz] / denom[nz]
    index = np.arange(val.shape[0])
    return np.array([cos[i, np.lexsort((index, -cos[i]))[:k]].mean() for i in range(pool.shape[0])])


def tsds_mass_lexsort(pool, val, p):
    """``score_tsds``'s retrieval mass, with pool points ordered by ``np.lexsort((index, d2))``."""
    n = pool.shape[0]
    inv = 1.0 / (2.0 * p.sigma * p.sigma)
    pool_sq, val_sq = np.sum(pool * pool, axis=1), np.sum(val * val, axis=1)
    d2 = np.maximum(pool_sq[:, None] - 2.0 * (pool @ val.T) + val_sq[None, :], 0.0)
    mass = np.zeros(n)
    for j in range(val.shape[0]):
        idx = np.lexsort((np.arange(n), d2[:, j]))[: p.max_K]
        mass[idx] += np.exp(-d2[idx, j] * inv)
    return mass


def tied_embeddings(rng, rows, dim=2):
    """Rows drawn from a small grid, so many repeat; about 30% of the zeros are -0.0."""
    m = rng.integers(-1, 2, size=(rows, dim)).astype(np.float64)
    m[(m == 0.0) & (rng.random(m.shape) < 0.3)] = -0.0
    return m


@pytest.mark.parametrize("k", [1, 2, 5])
def test_knn_matches_the_lexsort_order_bytewise(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        pool, val = tied_embeddings(rng, 12), tied_embeddings(rng, 8)
        assert score_knn(pool, val, k).scores.tobytes() == knn_lexsort(pool, val, k).tobytes()


@pytest.mark.parametrize("max_K", [1, 3, 11, 12])
def test_tsds_retrieval_matches_the_lexsort_order_bytewise(max_K):
    rng = np.random.default_rng(max_K)
    p = TsdsParams(max_K=max_K, kde_K=3, tradeoff_alpha=0.0)  # alpha 0: the score is the mass
    for _ in range(20):
        pool, val = tied_embeddings(rng, 12), tied_embeddings(rng, 4)
        assert score_tsds(pool, val, p).scores.tobytes() == tsds_mass_lexsort(pool, val, p).tobytes()


def test_tsds_retrieves_the_lower_of_two_duplicate_pool_points():
    pool = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    p = TsdsParams(max_K=1, kde_K=2, tradeoff_alpha=0.0)
    assert np.flatnonzero(score_tsds(pool, np.array([[1.0, 0.0]]), p).scores).tolist() == [1]
    assert np.flatnonzero(score_tsds(pool, np.array([[0.0, 0.0]]), p).scores).tolist() == [0]
