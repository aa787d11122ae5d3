"""Sample-scoring strategies and top-k selection.

Six scoring families: current loss, loss progress since a reference
checkpoint, gradient-similarity influence, virtual-update probing,
k-nearest-neighbor embedding similarity, and retrieval + kernel-density
scoring. All are pure functions over immutable (model, pool, validation)
snapshots; ties and reductions use fixed orders so results are reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Sample, _read_only, bounded, check_fields
from .errors import (
    ColdOptimizer,
    EmptyValidation,
    KTooLarge,
    NonFinite,
    NonFiniteMetric,
    NotAdam,
)
from .model import (
    Checkpoint,
    ModelState,
    OptimizerState,
    _forward,
    adam_precondition,
    batch_losses,
    per_sample_gradient,
    sgd_step,
    token_table,
)

logger = logging.getLogger(__name__)

_GRAD_CHUNK = 128
_SIGN_BLOCK = 2048  # input coordinates (sign-matrix rows) per cached block


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Per-sample scores aligned with pool ids; higher means select first."""

    ids: np.ndarray
    scores: np.ndarray
    method: str

    def __post_init__(self):
        ids = _read_only(np.asarray(self.ids, dtype=np.int64).copy())
        scores = np.asarray(self.scores, dtype=np.float64).copy()
        if ids.shape != scores.shape or ids.ndim != 1:
            raise ValueError("ids and scores must be 1-D and aligned")
        if not np.all(np.isfinite(scores)):
            raise NonFinite(f"{self.method}: non-finite scores")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "scores", _read_only(scores))

    def __len__(self) -> int:
        return int(self.ids.size)


@dataclass(frozen=True)
class InfluenceParams:
    """Settings for gradient-similarity scoring.

    ``projection_dim=None`` (or 0, as config files spell it) disables the
    random projection (exact cosine).
    """

    projection_dim: Optional[int] = bounded(512, ge=1)
    projection_seed: int = bounded(0, ge=0)
    preconditioning: str = bounded("adam", choices=("none", "adam"))
    aggregation: str = bounded("mean_gradient", choices=("mean_gradient", "max_cosine"))

    def __post_init__(self):
        if self.projection_dim == 0:
            object.__setattr__(self, "projection_dim", None)
        check_fields(self)


@dataclass(frozen=True)
class TsdsParams:
    """Retrieval + KDE scoring parameters."""

    max_K: int = bounded(5000, ge=1)
    kde_K: int = bounded(1000, ge=1)
    # The square root of the least positive float: below it sigma**2 underflows
    # to 0, and score_tsds divides by 2 * sigma**2.
    sigma: float = bounded(0.75, gt=np.sqrt(np.finfo(float).smallest_subnormal))
    tradeoff_alpha: float = bounded(0.6, ge=0.0, le=1.0)
    C: float = bounded(5.0, gt=0.0)

    def __post_init__(self):
        check_fields(self)


@lru_cache(maxsize=4)
def _sign_blocks(seed: int, dim_in: int, dim_out: int) -> tuple:
    """The Rademacher sign matrix (dim_in x dim_out) as bit-packed row blocks.

    Drawn once per (seed, dim_in, dim_out), in ``_SIGN_BLOCK``-row blocks
    from one generator, in order; a set bit is +1. Each block is stored
    ``np.packbits``-ed along its rows (dim_out / 8 bytes per row) and
    read-only, so the cache costs 1/64 of the float matrix.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for start in range(0, dim_in, _SIGN_BLOCK):
        bits = rng.integers(0, 2, size=(min(_SIGN_BLOCK, dim_in - start), dim_out))
        blocks.append(_read_only(np.packbits(bits, axis=1)))
    return tuple(blocks)


class SignProjection:
    """Seeded Rademacher sketch, applied block-wise over input coordinates.

    The sign matrix is drawn once per (seed, dim_in, dim_out) and cached
    bit-packed (``_sign_blocks``); each call unpacks one block of rows at a
    time to ±1.0 and accumulates its product in block order, so projecting
    is a deterministic function of (seed, dim_in, dim_out). A call holds
    one ``(_SIGN_BLOCK, dim_out)`` float buffer and refills it in place for
    every block, so it allocates no float sign block per block.
    """

    def __init__(self, dim_out: int, dim_in: int, seed: int):
        self.dim_out = dim_out
        self.dim_in = dim_in
        self.seed = seed

    def project(self, mat: np.ndarray) -> np.ndarray:
        mat = np.atleast_2d(mat)
        if mat.shape[1] != self.dim_in:
            raise ValueError(f"expected {self.dim_in} columns, got {mat.shape[1]}")
        out = np.zeros((mat.shape[0], self.dim_out))
        blocks = _sign_blocks(self.seed, self.dim_in, self.dim_out)
        buf = np.empty((min(_SIGN_BLOCK, self.dim_in), self.dim_out))
        for start, packed in zip(range(0, self.dim_in, _SIGN_BLOCK), blocks):
            signs = buf[: packed.shape[0]]
            np.multiply(np.unpackbits(packed, axis=1, count=self.dim_out), 2.0, out=signs)
            signs -= 1.0
            out += mat[:, start:start + packed.shape[0]] @ signs
        out /= np.sqrt(self.dim_out)
        return out


def _pool_ids(pool: Sequence[Sample]) -> np.ndarray:
    return np.array([s.id for s in pool], dtype=np.int64)


def score_loss(model: ModelState, pool: Sequence[Sample]) -> ScoreVector:
    """Score = current per-sample loss; hardest samples rank first."""
    if len(pool) == 0:
        raise ValueError("pool must be non-empty")
    return ScoreVector(_pool_ids(pool), batch_losses(model, pool), "loss")


def score_delta_loss(
    model: ModelState,
    ref_snapshot: Checkpoint,
    pool: Sequence[Sample],
    hardest_first: bool = False,
) -> ScoreVector:
    """Score = loss under the reference snapshot minus current loss.

    Positive scores mark samples the model has learned since the reference;
    ``hardest_first`` flips the sign to prioritize un-learned samples.
    """
    scores = batch_losses(ref_snapshot.model, pool) - batch_losses(model, pool)
    if hardest_first:
        scores = -scores
    return ScoreVector(_pool_ids(pool), scores, "delta_loss")


def _fill_gradients(
    rows: np.ndarray, model: ModelState, samples: Sequence[Sample], opt: OptimizerState, preconditioning: str
) -> np.ndarray:
    """Write each sample's (optionally Adam-preconditioned) gradient into a row of ``rows``.

    The gradient is concatenated straight into its row and preconditioned
    there in place, so no row is copied. The samples are read from one
    ``token_table`` per ``_GRAD_CHUNK`` of them.
    """
    for start in range(0, len(samples), _GRAD_CHUNK):
        chunk = samples[start:start + _GRAD_CHUNK]
        table = token_table(model, chunk)
        for row, s in zip(rows[start:start + len(chunk)], chunk):
            per_sample_gradient(model, s, out=row, table=table)
            if preconditioning == "adam":
                adam_precondition(row, opt, out=row)
    return rows


def _gradient_rows(
    model: ModelState,
    samples: Sequence[Sample],
    opt: OptimizerState,
    preconditioning: str,
    proj: Optional[SignProjection],
) -> np.ndarray:
    """Per-sample (optionally preconditioned, optionally sketched) gradients.

    Unsketched rows are written straight into the result. Sketched ones go
    through one ``(_GRAD_CHUNK, P)`` buffer, projected a chunk at a time.
    Either way each gradient is written into its row and preconditioned in
    place (``_fill_gradients``). The chunks are not stacked into one
    product: BLAS may round a row differently when the product has a
    different number of rows, so the chunk size is part of the scores.
    """
    n = len(samples)
    if proj is None:
        return _fill_gradients(np.empty((n, model.params.size)), model, samples, opt, preconditioning)
    out = np.empty((n, proj.dim_out))
    block = np.empty((min(n, _GRAD_CHUNK), model.params.size))
    for start in range(0, n, _GRAD_CHUNK):
        chunk = samples[start:start + _GRAD_CHUNK]
        rows = _fill_gradients(block[: len(chunk)], model, chunk, opt, preconditioning)
        out[start:start + len(chunk)] = proj.project(rows)
    return out


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``mat``, taken ``_GRAD_CHUNK`` rows at a time."""
    row_norms = np.empty(mat.shape[0])
    for start in range(0, mat.shape[0], _GRAD_CHUNK):
        row_norms[start:start + _GRAD_CHUNK] = np.linalg.norm(mat[start:start + _GRAD_CHUNK], axis=1)
    return row_norms


def _cosine_rows(mat: np.ndarray, vec: np.ndarray, row_norms: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise cosine against one vector; zero vectors score 0 by convention.

    ``row_norms`` are ``_row_norms(mat)``, computed here unless given, so a
    caller that scores one matrix against many vectors takes them once.
    Norms are chunked and the product skips the row index when no row is
    zero, so neither allocates an array the size of ``mat``; each row's
    values are bitwise those of the whole-matrix calls.
    """
    v_norm = float(np.linalg.norm(vec))
    if row_norms is None:
        row_norms = _row_norms(mat)
    out = np.zeros(mat.shape[0])
    if v_norm == 0.0:
        return out
    nz = row_norms > 0.0
    if nz.all():
        return (mat @ vec) / (row_norms * v_norm)
    out[nz] = (mat[nz] @ vec) / (row_norms[nz] * v_norm)
    return out


def score_influence(
    model: ModelState,
    opt: OptimizerState,
    pool: Sequence[Sample],
    val_set: Sequence[Sample],
    params: InfluenceParams = InfluenceParams(),
) -> ScoreVector:
    """Cosine similarity between pool gradients and the validation gradient.

    Gradients are optionally Adam-preconditioned, then sketched with a seeded
    Rademacher projection. Under ``mean_gradient`` the target is the mean
    validation gradient; under ``max_cosine`` each pool sample takes its best
    match over individual validation gradients.

    Scores repeat bitwise for a fixed BLAS thread count, not across thread
    counts: the whole-pool matrix-vector product of ``_cosine_rows`` can
    split its rows between threads and round them differently (with
    OpenBLAS 0.3.31, a 149 x 4424 product differs between 1 and 2 threads,
    2000 x 512 and 2000 x 26944 ones do not). ``tools/digests.py`` and the
    benchmark pin BLAS to one thread.
    """
    if len(val_set) == 0:
        raise EmptyValidation("influence scoring needs a non-empty validation set")
    if params.preconditioning == "adam":
        if opt.kind != "adam":
            raise NotAdam("influence preconditioning='adam' requires an adam optimizer")
        if opt.t < 1:
            raise ColdOptimizer("influence preconditioning='adam' requires optimizer step t >= 1")

    proj = None
    if params.projection_dim is not None:
        proj = SignProjection(params.projection_dim, model.params.size, params.projection_seed)

    pool_g = _gradient_rows(model, pool, opt, params.preconditioning, proj)
    val_g = _gradient_rows(model, val_set, opt, params.preconditioning, proj)

    if params.aggregation == "mean_gradient":
        scores = _cosine_rows(pool_g, val_g.mean(axis=0))
    else:
        norms = _row_norms(pool_g)
        cols = [_cosine_rows(pool_g, val_g[j], norms) for j in range(val_g.shape[0])]
        scores = np.max(np.stack(cols, axis=1), axis=1)
    return ScoreVector(_pool_ids(pool), scores, "influence")


def mean_loss_metric(val_set: Sequence[Sample]) -> Callable[[ModelState], float]:
    """Scalar evaluator: mean per-sample loss over a non-empty validation set."""
    if len(val_set) == 0:
        raise EmptyValidation("the val_loss metric needs a non-empty validation set")

    def metric(model: ModelState) -> float:
        return float(np.mean(batch_losses(model, val_set)))

    return metric


def top1_accuracy_metric(val_set: Sequence[Sample]) -> Callable[[ModelState], float]:
    """Non-differentiable scalar evaluator: next-token argmax accuracy over a non-empty validation set."""
    if len(val_set) == 0:
        raise EmptyValidation("the top1_accuracy metric needs a non-empty validation set")

    def metric(model: ModelState) -> float:
        table = token_table(model, val_set)
        hits = 0
        total = 0
        for s in val_set:
            pred = table.top[_forward(model, s, table)[1]]
            hits += int(np.sum(pred == s.token_ids[1:]))
            total += len(s) - 1
        return hits / total

    return metric


def score_probe(
    model: ModelState,
    pool: Sequence[Sample],
    val_metric_fn: Callable[[ModelState], float],
    probe_lr: float,
) -> ScoreVector:
    """Score = metric(before) - metric(after) for a single-sample virtual update.

    Each probe takes one plain SGD step at ``probe_lr`` from ``model`` on the
    sample alone and evaluates the metric on the stepped copy; ``model`` is
    immutable, so every probe starts from the same state and the caller's
    state is left bitwise unchanged. Works for any scalar metric, including
    non-differentiable ones.
    """
    before = float(val_metric_fn(model))
    if not np.isfinite(before):
        raise NonFiniteMetric(f"metric returned {before!r} on the unperturbed model")
    scores = np.empty(len(pool))
    for i, s in enumerate(pool):
        g = per_sample_gradient(model, s)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite metric is reported just below
            after = float(val_metric_fn(sgd_step(model, probe_lr, g)))
        if not np.isfinite(after):
            raise NonFiniteMetric(f"metric returned {after!r} after probing sample {s.id}")
        scores[i] = before - after
    return ScoreVector(_pool_ids(pool), scores, "probe")


def _as_matrix(embeddings) -> np.ndarray:
    return np.atleast_2d(np.asarray(embeddings, dtype=np.float64))


def score_knn(pool_embeddings, val_embeddings, k: int, pool_ids: Optional[np.ndarray] = None) -> ScoreVector:
    """Mean cosine similarity to the k nearest validation embeddings.

    Neighbors are ranked by cosine, ties broken by lower validation index.
    Zero embeddings take cosine 0 against everything.
    """
    pool_m = _as_matrix(pool_embeddings)
    val_m = _as_matrix(val_embeddings)
    if val_m.shape[0] == 0:
        raise EmptyValidation("knn scoring needs validation embeddings")
    if k < 1 or k > val_m.shape[0]:
        raise KTooLarge(f"k={k} outside [1, {val_m.shape[0]}]")

    pool_norms = np.linalg.norm(pool_m, axis=1)
    val_norms = np.linalg.norm(val_m, axis=1)
    denom = np.outer(pool_norms, val_norms)
    cos = np.zeros((pool_m.shape[0], val_m.shape[0]))
    nz = denom > 0.0
    raw = pool_m @ val_m.T
    cos[nz] = raw[nz] / denom[nz]

    val_order = np.arange(val_m.shape[0])
    scores = np.empty(pool_m.shape[0])
    for i in range(pool_m.shape[0]):
        order = np.lexsort((val_order, -cos[i]))
        scores[i] = cos[i, order[:k]].mean()
    ids = pool_ids if pool_ids is not None else np.arange(pool_m.shape[0])
    return ScoreVector(ids, scores, "knn")


def score_tsds(pool_embeddings, val_embeddings, params: TsdsParams = TsdsParams(), pool_ids: Optional[np.ndarray] = None) -> ScoreVector:
    """Retrieval mass with a density penalty, in embedding space.

    1. Each validation query contributes Gaussian-kernel relevance mass
       ``exp(-d^2 / (2 sigma^2))`` to its (up to) ``max_K`` nearest pool
       points by Euclidean distance.
    2. Every pool point with nonzero mass gets a KDE density estimate from
       its ``kde_K`` nearest pool neighbors (itself excluded).
    3. score = alpha * mass / (1 + C * density) + (1 - alpha) * mass;
       zero-mass points score 0.
    """
    pool_m = _as_matrix(pool_embeddings)
    val_m = _as_matrix(val_embeddings)
    n = pool_m.shape[0]
    if n == 0:
        raise ValueError("pool must be non-empty")
    if val_m.shape[0] == 0:
        raise EmptyValidation("retrieval scoring needs validation embeddings")
    logger.info(
        "tsds params: max_K=%d kde_K=%d sigma=%g tradeoff_alpha=%g C=%g",
        params.max_K, params.kde_K, params.sigma, params.tradeoff_alpha, params.C,
    )

    inv_two_sigma_sq = 1.0 / (2.0 * params.sigma * params.sigma)
    pool_sq = np.sum(pool_m * pool_m, axis=1)

    # Step 1: per-query retrieval mass.
    mass = np.zeros(n)
    val_sq = np.sum(val_m * val_m, axis=1)
    d2_pool_val = np.maximum(pool_sq[:, None] - 2.0 * (pool_m @ val_m.T) + val_sq[None, :], 0.0)
    retained = min(params.max_K, n)
    pool_order = np.arange(n)
    for j in range(val_m.shape[0]):
        col = d2_pool_val[:, j]
        if retained < n:
            idx = np.lexsort((pool_order, col))[:retained]
        else:
            idx = pool_order
        mass[idx] += np.exp(-col[idx] * inv_two_sigma_sq)

    # Step 2: KDE density over pool neighbors for points that matter.
    needs_density = mass > 0.0
    density = np.zeros(n)
    if params.tradeoff_alpha > 0.0 and np.any(needs_density):
        kde_k = min(params.kde_K, n - 1)
        if kde_k > 0:
            d2_pool = np.maximum(pool_sq[:, None] - 2.0 * (pool_m @ pool_m.T) + pool_sq[None, :], 0.0)
            np.fill_diagonal(d2_pool, np.inf)
            for i in np.nonzero(needs_density)[0]:
                row = d2_pool[i]
                idx = np.lexsort((pool_order, row))[:kde_k]
                density[i] = np.exp(-row[idx] * inv_two_sigma_sq).sum() / kde_k

    scores = params.tradeoff_alpha * mass / (1.0 + params.C * density) + (1.0 - params.tradeoff_alpha) * mass
    scores[~needs_density] = 0.0
    ids = pool_ids if pool_ids is not None else np.arange(n)
    return ScoreVector(ids, scores, "tsds")


def select(scores: ScoreVector, k: int) -> list:
    """Ids of the k highest scores, descending; ties broken by ascending id."""
    if k < 0 or k > len(scores):
        raise KTooLarge(f"k={k} outside [0, {len(scores)}]")
    order = np.lexsort((scores.ids, -scores.scores))
    return [int(i) for i in scores.ids[order[:k]]]
