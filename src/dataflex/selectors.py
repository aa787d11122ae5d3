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
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import Checked, Sample, _read_only, bounded, check_fields
from .errors import EmptyValidation, KTooLarge, NonFinite, NonFiniteMetric
from .model import (
    Checkpoint,
    ModelState,
    OptimizerState,
    _check_sample,
    _forward,
    adam_precondition,
    batch_losses,
    embedding_columns,
    per_sample_gradient,
    sgd_step,
    token_table,
)

logger = logging.getLogger(__name__)

_GRAD_CHUNK = 128
_SIGN_BLOCK = 512  # input coordinates (sign-matrix rows) per cached block and per draw; even


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
class TsdsParams(Checked):
    """Retrieval + KDE scoring parameters."""

    max_K: int = bounded(5000, ge=1)
    kde_K: int = bounded(1000, ge=1)
    # The square root of the least positive float: below it sigma**2 underflows
    # to 0, and score_tsds divides by 2 * sigma**2.
    sigma: float = bounded(0.75, gt=np.sqrt(np.finfo(float).smallest_subnormal))
    tradeoff_alpha: float = bounded(0.6, ge=0.0, le=1.0)
    C: float = bounded(5.0, gt=0.0)


@lru_cache(maxsize=4)
def _sign_blocks(seed: int, dim_in: int, dim_out: int) -> tuple:
    """The Rademacher sign matrix (dim_in x dim_out) as bit-packed row blocks.

    Drawn once per (seed, dim_in, dim_out), one ``_SIGN_BLOCK``-row block
    per draw from one generator, in order; a set bit is +1. Each block is
    stored ``np.packbits``-ed along its rows (dim_out / 8 bytes per row)
    and read-only, so the cache costs 1/64 of the float matrix, and a
    build holds one block of int64 draws.

    The bits do not depend on the block size: numpy's bounded-integer fill
    spends one 32-bit half of a 64-bit word per value and drops an unused
    half only at the end of a call, and every draw but the last holds
    ``_SIGN_BLOCK * dim_out`` values. That count is even only while
    ``_SIGN_BLOCK`` is, so it must stay even.
    """
    rng = np.random.default_rng(seed)
    return tuple(
        _read_only(np.packbits(rng.integers(0, 2, size=(min(_SIGN_BLOCK, dim_in - start), dim_out)), axis=1))
        for start in range(0, dim_in, _SIGN_BLOCK)
    )


class SignProjection:
    """Seeded Rademacher sketch, applied block-wise over input coordinates.

    The sign matrix is drawn once per (seed, dim_in, dim_out) and cached
    bit-packed (``_sign_blocks``, one draw per block); each call unpacks
    one whole block at a time to ±1.0 and accumulates its product in block
    order, so projecting is a deterministic function of (seed, dim_in,
    dim_out). A call holds one ``(_SIGN_BLOCK, dim_out)`` float buffer and
    refills it in place for every block, so per block it allocates no
    float signs and ``_SIGN_BLOCK * dim_out`` bytes of unpacked bits. The
    block size sets only how BLAS groups each row's sum, not the signs.

    The rows are an array, whose column blocks are read as views, or a
    ``_SketchRows``. A block of the latter past the embedding is a view of
    its dense columns; one that overlaps the embedding is filled into one
    ``(rows, _SIGN_BLOCK)`` buffer, held for the call. BLAS gives that
    contiguous operand the product bits of the strided view it replaces.
    """

    def __init__(self, dim_out: int, dim_in: int, seed: int):
        self.dim_out = dim_out
        self.dim_in = dim_in
        self.seed = seed

    def project(self, mat) -> np.ndarray:
        sketched = isinstance(mat, _SketchRows)
        if mat.shape[1] != self.dim_in:
            raise ValueError(f"expected {self.dim_in} columns, got {mat.shape[1]}")
        out = np.zeros((mat.shape[0], self.dim_out))
        blocks = _sign_blocks(self.seed, self.dim_in, self.dim_out)
        buf = np.empty((min(_SIGN_BLOCK, self.dim_in), self.dim_out))
        part = np.empty((mat.shape[0], min(_SIGN_BLOCK, self.dim_in))) if sketched else None
        for start, packed in zip(range(0, self.dim_in, _SIGN_BLOCK), blocks):
            signs = buf[: packed.shape[0]]
            np.multiply(np.unpackbits(packed, axis=1, count=self.dim_out), 2.0, out=signs)
            signs -= 1.0
            stop = start + packed.shape[0]
            out += (mat.columns(start, stop, part) if sketched else mat[:, start:stop]) @ signs
        out /= np.sqrt(self.dim_out)
        return out


class _SketchRows:
    """Gradient rows that do not store the embedding columns they leave untouched.

    A sample's gradient is +0.0 in every embedding column outside
    ``embedding_columns``, so after preconditioning each such column holds
    the same value in every row, ``untouched``: Adam's direction at a zero
    gradient, or 0. A row keeps its columns past the embedding in its row
    of ``dense``, and each touched embedding column as one entry of
    ``owner`` (its row), ``cols`` and ``vals``, in the order stored.
    ``columns`` gives back any column range bit for bit; ``project`` asks
    for one whole sign block per call, and a block that overlaps the
    embedding costs one mask over all the chunk's entries. The four buffers
    are the caller's, allocated once and refilled by every chunk, so a
    chunk's rows make no allocation that outlives them.
    """

    def __init__(self, dense: np.ndarray, owner: np.ndarray, cols: np.ndarray, vals: np.ndarray, untouched: np.ndarray):
        self.dense, self.owner, self.cols, self.vals, self.untouched = dense, owner, cols, vals, untouched
        self.rows = self.entries = 0

    @property
    def shape(self) -> tuple:
        return self.dense.shape[0], self.untouched.size + self.dense.shape[1]

    def append(self, row: np.ndarray, cols: np.ndarray) -> None:
        """Store the next gradient ``row``, whose touched embedding columns are ``cols``."""
        lo, hi = self.entries, self.entries + cols.size
        self.dense[self.rows] = row[self.untouched.size:]
        self.owner[lo:hi] = self.rows
        self.cols[lo:hi] = cols
        np.take(row, cols, out=self.vals[lo:hi])
        self.rows, self.entries = self.rows + 1, hi

    def columns(self, start: int, stop: int, part: np.ndarray) -> np.ndarray:
        """Columns ``start:stop``: a view of ``dense``, or filled into the first columns of ``part``."""
        n_emb = self.untouched.size
        if start >= n_emb:
            return self.dense[:, start - n_emb:stop - n_emb]
        part = part[:, :stop - start]
        mid = min(stop, n_emb)
        part[:, :mid - start] = self.untouched[start:mid]
        cols = self.cols[:self.entries]
        hit = (cols >= start) & (cols < mid)
        part[self.owner[:self.entries][hit], cols[hit] - start] = self.vals[:self.entries][hit]
        part[:, mid - start:] = self.dense[:, :stop - mid]
        return part


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
    ``hardest_first`` flips the sign to prioritize un-learned samples. Only
    the snapshot's model is read, so a run that keeps just the reference
    model scores through ``_delta_loss``.
    """
    return _delta_loss(model, ref_snapshot.model, pool, hardest_first)


def _delta_loss(model: ModelState, ref_model: ModelState, pool: Sequence[Sample], hardest_first: bool) -> ScoreVector:
    scores = batch_losses(ref_model, pool) - batch_losses(model, pool)
    if hardest_first:
        scores = -scores
    return ScoreVector(_pool_ids(pool), scores, "delta_loss")


def _untouched_embedding(model: ModelState, opt: OptimizerState, preconditioning: str) -> np.ndarray:
    """The value of every embedding column that a gradient row leaves untouched.

    Its gradient is +0.0, and Adam's direction is element-wise, so under
    ``adam`` it is that of a zero gradient, from the column's own moments.
    """
    n_emb = model.unpack()[0].size
    if preconditioning == "none":
        return np.zeros(n_emb)
    return adam_precondition(np.zeros(model.params.size), opt)[:n_emb]


def _gradient_chunks(
    model: ModelState,
    samples: Sequence[Sample],
    opt: OptimizerState,
    preconditioning: str,
    proj: Optional[SignProjection],
    untouched: Optional[np.ndarray] = None,
) -> Iterator[tuple]:
    """Per-sample (optionally preconditioned, optionally sketched) gradients, a chunk at a time.

    The samples are taken ``_GRAD_CHUNK`` at a time, read from one
    ``token_table`` per chunk. ``per_sample_gradient`` writes each gradient
    into a row block by block, and the row is preconditioned there in
    place. Each yield is ``(start, rows)``, where ``start`` is the index of
    the first sample of ``rows``; the caller may keep ``rows``.

    Unsketched rows are the rows of one ``(n, P)`` matrix, yielded whole,
    once, after the last chunk: on two threads OpenBLAS splits the rows of
    a whole-matrix product between the threads, so a row of a chunk's
    product may differ from the same row of the whole matrix's.

    A sketched row is written into one scratch row and stored in the
    chunk's ``_SketchRows``: its columns past the embedding in one
    ``(_GRAD_CHUNK, P - V*E)`` block, and only the embedding columns it
    touches, with their rows and values, in buffers sized for the largest
    chunk, beside ``untouched``, the value every other embedding column
    holds (``_untouched_embedding`` unless given). All the buffers are
    allocated once. Each chunk is projected once its table is released,
    and its ``(len(chunk), dim_out)`` sketch is yielded.

    On one thread with OpenBLAS 0.3.31, a product of two or more rows gives
    each row the same bits whatever its number of rows; a one-row product
    takes numpy's dot path and rounds otherwise. So each chunk is projected
    on its own, a one-row last chunk included, and a one-row last chunk is
    yielded together with the chunk before it, for the caller's products.
    """
    n = len(samples)
    if proj is None:
        out = np.empty((n, model.params.size))
    else:
        n_emb = model.unpack()[0].size
        dense = np.empty((min(n, _GRAD_CHUNK), model.params.size - n_emb))
        # A sample touches E columns per distinct input token, of which it has at most min(len - 1, V).
        v, e = model.arch.vocab_size, model.arch.embed_dim
        per_chunk = [sum(min(len(s) - 1, v) for s in samples[i:i + _GRAD_CHUNK]) for i in range(0, n, _GRAD_CHUNK)]
        touched = e * max(per_chunk, default=0)
        owner, cols = np.empty((2, touched), dtype=np.int32)  # V*E <= MAX_MODEL_PARAMS < 2**31
        vals = np.empty(touched)
        scratch = np.empty(model.params.size)
        if untouched is None:
            untouched = _untouched_embedding(model, opt, preconditioning)
    held = None
    for start in range(0, n, _GRAD_CHUNK):
        chunk = samples[start:start + _GRAD_CHUNK]
        table = token_table(model, chunk)
        if proj is not None:
            sketch = _SketchRows(dense[: len(chunk)], owner, cols, vals, untouched)
        for i, s in enumerate(chunk):
            row = out[start + i] if proj is None else scratch
            per_sample_gradient(model, s, out=row, table=table)
            if preconditioning == "adam":
                adam_precondition(row, opt, out=row)
            if proj is not None:
                sketch.append(row, embedding_columns(model.arch, s))
        del table
        if proj is None:
            continue
        rows = proj.project(sketch)
        if start + len(chunk) == n - 1:  # the next chunk is one row
            held = rows
        elif held is not None:
            yield start - len(held), np.concatenate((held, rows))
        else:
            yield start, rows
        del rows  # hold no projected chunk while the next one is made
    if proj is None:
        yield 0, out


def _gradient_rows(
    model: ModelState,
    samples: Sequence[Sample],
    opt: OptimizerState,
    preconditioning: str,
    proj: Optional[SignProjection],
    untouched: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The rows of ``_gradient_chunks`` in one ``(n, P)`` or ``(n, dim_out)`` matrix."""
    chunks = _gradient_chunks(model, samples, opt, preconditioning, proj, untouched)
    if proj is None:
        return next(chunks)[1]
    out = np.empty((len(samples), proj.dim_out))
    for start, rows in chunks:
        out[start:start + len(rows)] = rows
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

    Errors come in this order: ``EmptyValidation``; then every pool sample
    and every validation sample is checked (``TooShort``, vocabulary), in
    that order; then Adam preconditioning raises ``NotAdam`` or
    ``ColdOptimizer`` from ``adam_precondition`` when ``opt`` is not a warm
    Adam state. An empty pool gives an empty ``ScoreVector``.

    The validation pass runs first. Each pool chunk is then scored as
    ``_gradient_chunks`` yields it, so neither a sketched pool's
    ``(n, dim_out)`` matrix nor ``max_cosine``'s ``(n, n_val)`` cosines are
    held; on one BLAS thread each row's score is bitwise that of one
    whole-matrix product. The exact path (``projection_dim`` None) yields
    its whole ``(n, P)`` matrix as one chunk, so at any thread count its
    scores are those of the whole-matrix product.

    Scores repeat bitwise for a fixed BLAS thread count, not across thread
    counts: BLAS may split a product's rows between threads and round them
    differently (with OpenBLAS 0.3.31, a 149 x 4424 matrix-vector product
    differs between 1 and 2 threads, 2000 x 512 and 2000 x 26944 ones do
    not). Importing ``dataflex`` sets ``OPENBLAS_NUM_THREADS``,
    ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 where they are unset,
    so scores repeat on any machine. A caller who sets one of those
    variables, or who imports numpy before ``dataflex``, keeps their own
    thread count, and with it scores that may differ from a one-thread run.
    """
    if len(val_set) == 0:
        raise EmptyValidation("influence scoring needs a non-empty validation set")
    for s in (*pool, *val_set):
        _check_sample(model, s)
    proj = untouched = None  # the exact path reads no untouched-column row
    if params.projection_dim is not None:
        proj = SignProjection(params.projection_dim, model.params.size, params.projection_seed)
        untouched = _untouched_embedding(model, opt, params.preconditioning)  # shared by both passes
    val_g = _gradient_rows(model, val_set, opt, params.preconditioning, proj, untouched)
    targets = val_g.mean(axis=0, keepdims=True) if params.aggregation == "mean_gradient" else val_g
    scores = np.empty(len(pool))
    for start, rows in _gradient_chunks(model, pool, opt, params.preconditioning, proj, untouched):
        norms = _row_norms(rows)
        scores[start:start + len(rows)] = np.max(np.stack([_cosine_rows(rows, t, norms) for t in targets], axis=1), axis=1)
        del rows  # hold no projected chunk while the next one is made
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
    raw = pool_m @ val_m.T
    cos = np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0.0)

    scores = np.empty(pool_m.shape[0])
    for i in range(pool_m.shape[0]):
        order = np.argsort(-cos[i], kind="stable")
        scores[i] = cos[i, order[:k]].mean()
    ids = pool_ids if pool_ids is not None else np.arange(pool_m.shape[0])
    return ScoreVector(ids, scores, "knn")


def score_tsds(pool_embeddings, val_embeddings, params: TsdsParams = TsdsParams(), pool_ids: Optional[np.ndarray] = None) -> ScoreVector:
    """Retrieval mass with a density penalty, in embedding space.

    1. Each validation query contributes Gaussian-kernel relevance mass
       ``exp(-d^2 / (2 sigma^2))`` to its (up to) ``max_K`` nearest pool
       points by Euclidean distance, ties broken by lower pool index.
    2. Every pool point with nonzero mass gets a KDE density estimate from
       its ``kde_K`` nearest pool neighbors (itself excluded, ties likewise).
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
    for j in range(val_m.shape[0]):
        col = d2_pool_val[:, j]
        idx = np.argsort(col, kind="stable")[:params.max_K]
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
                idx = np.argsort(row, kind="stable")[:kde_k]
                density[i] = np.exp(-row[idx] * inv_two_sigma_sq).sum() / kde_k

    scores = params.tradeoff_alpha * mass / (1.0 + params.C * density) + (1.0 - params.tradeoff_alpha) * mass
    ids = pool_ids if pool_ids is not None else np.arange(n)
    return ScoreVector(ids, scores, "tsds")


def select(scores: ScoreVector, k: int) -> list:
    """Ids of the k highest scores, descending; ties broken by ascending id."""
    if k < 0 or k > len(scores):
        raise KTooLarge(f"k={k} outside [0, {len(scores)}]")
    order = np.lexsort((scores.ids, -scores.scores))
    return [int(i) for i in scores.ids[order[:k]]]
