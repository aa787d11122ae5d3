"""Analytic next-token language model: losses, gradients, embeddings, optimizer.

One hidden layer (token embedding -> tanh -> softmax over the vocabulary),
small enough that exact per-sample gradients are cheap, structured enough
that domains with distinct token statistics are separable. Parameters live
in a single flat vector so gradient-space operations (projection, cosine,
preconditioning) are trivial.

Parameter layout: [embedding V*E | hidden weights E*H | hidden bias H |
output weights H*V | output bias V], all float64.

Each rule is written once: ``_hidden`` is the one tanh layer and
``token_table`` the one forward rule. The model predicts each next token
from the current token alone, so every per-position hidden row,
log-probability row, probability row and argmax is a function of the input
token. A table computes them once per distinct input token of the samples
a call forwards (a batch, a validation set, a chunk of a pool), and
``_forward`` gathers a sample's positions from it: losses, gradients, the
top-1 metric and evaluation all read one. This is bitwise the per-position
pass because BLAS gives a product row the same bits in any product of two
or more rows (a one-position sample keeps its own one-row product, which
BLAS computes differently). That holds for OpenBLAS at every shape the
tests and the benchmark use, not at every shape: with an inner dimension of
16 or more and some output widths (10, 50 or 300 columns, say) a row's
last bits can depend on the row count, and values then move by rounding.
``_backward`` turns one sample's table rows into its gradient, written
block by block into a caller's vector (``train_step`` can hand the losses
of the forward pass to a weighting function before it runs the backward
ones), and ``_adam_moments`` is the one bias-corrected Adam update
(``train_step`` applies it and builds the next ``OptimizerState`` from its
moments; ``adam_precondition`` reports its direction and drops them).

The gradient-space helpers can write into a caller's buffer:
``per_sample_gradient`` and ``adam_precondition`` take ``out=``, and
``out`` may be the gradient itself, so a caller that fills many rows (the
influence scorer) allocates no parameter-sized array per row beyond Adam's
own moments. ``train_step`` reuses one such vector for every sample of its
batch.

All functions here are pure over immutable state: ``ModelState`` and
``OptimizerState`` hold read-only float64 arrays (copies, except the
fresh ones an update hands over with ``owned=True``), and
``train_step`` returns new (model, optimizer) values instead of mutating, so
a (model, optimizer) pair is its own checkpoint and nothing deep-copies it.
Per-sample accumulation runs in batch order so identical inputs reproduce
bitwise-identical results.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import InitVar, dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import ModelCfg, OptimCfg, Sample, _read_only
from .errors import ColdOptimizer, LengthMismatch, NegativeWeight, NonFinite, NotAdam, TooShort


@lru_cache(maxsize=None)
def _layout(arch: ModelCfg):
    v, e, h = arch.vocab_size, arch.embed_dim, arch.hidden_dim
    sizes = [v * e, e * h, h, h * v, v]
    offsets = np.cumsum([0] + sizes)
    return offsets, sizes


def param_count(arch: ModelCfg) -> int:
    offsets, _ = _layout(arch)
    return int(offsets[-1])


def _blocks(arch: ModelCfg, flat: np.ndarray):
    """Views (emb, w1, b1, w2, b2) into a flat vector of the parameter layout."""
    v, e, h = arch.vocab_size, arch.embed_dim, arch.hidden_dim
    o, _ = _layout(arch)
    return (
        flat[o[0]:o[1]].reshape(v, e),
        flat[o[1]:o[2]].reshape(e, h),
        flat[o[2]:o[3]],
        flat[o[3]:o[4]].reshape(h, v),
        flat[o[4]:o[5]],
    )


@dataclass(frozen=True, eq=False)
class ModelState:
    """An architecture and its flat parameter vector, a read-only float64 copy.

    ``owned=True`` hands a fresh float64 array over instead: it is marked
    read-only in place, not copied. Only a caller that has just built the
    array and keeps no other reference to it passes it.
    """

    arch: ModelCfg
    params: np.ndarray
    owned: InitVar[bool] = False

    def __post_init__(self, owned):
        p = np.asarray(self.params, dtype=np.float64)
        if p.ndim != 1 or p.size != param_count(self.arch):
            raise ValueError(f"params length {p.size} does not match arch {self.arch}")
        if not np.all(np.isfinite(p)):
            raise ValueError("model parameters contain non-finite entries")
        object.__setattr__(self, "params", _read_only(p if owned else p.copy()))

    def unpack(self):
        """Views (emb, w1, b1, w2, b2) into the flat parameter vector."""
        return _blocks(self.arch, self.params)


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Optimizer kind, settings, step count and Adam's moments (None for SGD).

    The moments are read-only float64 copies; ``owned=True`` takes them over
    as ``ModelState`` takes its parameters.
    """

    kind: str
    hyper: OptimCfg
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    t: int = 0
    owned: InitVar[bool] = False

    def __post_init__(self, owned):
        for name in ("m", "v"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a, dtype=np.float64) if owned else np.array(a, dtype=np.float64)
                object.__setattr__(self, name, _read_only(a))


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """A (model, optimizer) pair.

    Both states are immutable, so a checkpoint holds the live values
    themselves: ``snapshot`` pairs them and ``restore`` hands them back.
    ``fileio.save_checkpoint`` writes exactly these two values.
    """

    model: ModelState
    opt: OptimizerState


def init_model(arch: ModelCfg, rng: np.random.Generator, scale: float = 0.1) -> ModelState:
    """Gaussian-initialized model; ``scale=0`` gives the uniform-logits model."""
    return ModelState(arch, rng.normal(0.0, 1.0, size=param_count(arch)) * scale)


def zero_model(arch: ModelCfg) -> ModelState:
    return ModelState(arch, np.zeros(param_count(arch)))


def init_optimizer(cfg: OptimCfg, n_params: int) -> OptimizerState:
    if cfg.kind == "adam":
        return OptimizerState("adam", cfg, np.zeros(n_params), np.zeros(n_params), 0)
    return OptimizerState("sgd", cfg, None, None, 0)


def _check_sample(model: ModelState, s: Sample) -> None:
    if len(s) < 2:
        raise TooShort(f"sample {s.id} has {len(s)} token(s); need >= 2 for a next-token target")
    if int(s.token_ids.max()) >= model.arch.vocab_size:
        raise ValueError(f"sample {s.id} has tokens outside vocab of size {model.arch.vocab_size}")


def _hidden(params, tokens: np.ndarray):
    """Gathered embedding rows and tanh hidden activations of ``tokens``."""
    emb, w1, b1, _, _ = params
    x = emb[tokens]
    return x, np.tanh(x @ w1 + b1)


@dataclass(frozen=True, eq=False)
class TokenTable:
    """Per-input-token rows of ``model``'s next-token pass over a set of samples.

    Row ``r`` holds the hidden activations ``hid``, the log-probabilities
    ``logp = shifted - log_z``, the probabilities ``probs = exp(logp)`` and
    the argmax ``top`` of the logits of one input token. ``index`` maps a
    token to its row for samples of two or more positions, ``single`` for
    one-position samples; a token the table was not built over maps past the
    last row, so reading it raises ``IndexError``. Build one with
    ``token_table``.
    """

    model: ModelState
    index: np.ndarray
    single: np.ndarray
    hid: np.ndarray
    logp: np.ndarray
    probs: np.ndarray
    top: np.ndarray

    def rows(self, inputs: np.ndarray) -> np.ndarray:
        """The table rows of a sample's input positions."""
        return (self.single if inputs.size == 1 else self.index)[inputs]


_NO_TOKENS = np.empty(0, dtype=np.int64)


def _token_rows(params, tokens: np.ndarray):
    """``(hid, logp, probs, top)`` of ``tokens``, from one product over all of them."""
    *_, w2, b2 = params
    hid = _hidden(params, tokens)[1]
    logp = hid @ w2 + b2
    top = np.argmax(logp, axis=1)
    logp -= logp.max(axis=1, keepdims=True)  # shifted
    probs = np.exp(logp)
    logp -= np.log(probs.sum(axis=1))[:, None]  # shifted - log_z
    np.exp(logp, out=probs)
    return hid, logp, probs, top


def token_table(model: ModelState, samples: Sequence[Sample]) -> TokenTable:
    """The ``TokenTable`` of ``model`` over the input tokens of ``samples``.

    Each sample is checked (``TooShort``, vocabulary). The rows of samples
    with two or more positions come from one product over their distinct
    input tokens, padded to two rows when there is one token. BLAS gives a
    product row the same bits whatever the number of rows, two or more, so
    these are bitwise the rows of a sample's own per-position product. A
    one-position sample's own product has one row, which BLAS computes on
    another path with other bits; so each distinct input token of such
    samples gets a one-row product of its own.
    """
    for s in samples:
        _check_sample(model, s)
    multi = np.unique(np.concatenate([s.token_ids[:-1] for s in samples if len(s) > 2] + [_NO_TOKENS]))
    single = np.unique(np.array([s.token_ids[0] for s in samples if len(s) == 2], dtype=np.int64))
    params = model.unpack()
    padded = np.repeat(multi, 2) if multi.size == 1 else multi
    parts = [_token_rows(params, padded)] + [_token_rows(params, single[i:i + 1]) for i in range(single.size)]
    n_rows = padded.size + single.size
    index = np.full(model.arch.vocab_size, n_rows, dtype=np.intp)
    index[multi] = np.arange(multi.size)
    single_index = np.full(model.arch.vocab_size, n_rows, dtype=np.intp)
    single_index[single] = padded.size + np.arange(single.size)
    columns = parts[0] if len(parts) == 1 else [np.concatenate(column) for column in zip(*parts)]
    return TokenTable(model, index, single_index, *columns)


def _forward(model: ModelState, s: Sample, table: TokenTable):
    """The next-token pass over positions 0..len-2 of ``s``, gathered from ``table``.

    Returns the sample's mean loss and the table rows of its input positions.
    """
    if table.model is not model:
        raise ValueError("token table was built for another model")
    rows = table.rows(s.token_ids[:-1])
    return float(np.mean(-table.logp[rows, s.token_ids[1:]])), rows


def per_sample_loss(model: ModelState, s: Sample, table: Optional[TokenTable] = None) -> float:
    """Mean next-token cross-entropy over positions 1..len-1.

    Read from ``table``, a ``token_table`` of ``model`` over samples that
    include ``s``; one over ``[s]`` alone is built when it is None.
    """
    return _forward(model, s, token_table(model, [s]) if table is None else table)[0]


def batch_losses(model: ModelState, batch: Sequence[Sample]) -> np.ndarray:
    """``per_sample_loss`` of each sample, read from one table over ``batch``."""
    table = token_table(model, batch)
    return np.array([per_sample_loss(model, s, table) for s in batch])


def _backward(table: TokenTable, tokens: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One sample's gradient through ``table``, written into ``out`` and returned.

    ``out`` is a contiguous float64 vector of the parameter count; the
    blocks (d_emb, d_w1, d_b1, d_w2, d_b2) are written into its views
    ``_blocks(arch, out)``.
    """
    emb, w1, _, w2, _ = table.model.unpack()
    d_emb, d_w1, d_b1, d_w2, d_b2 = _blocks(table.model.arch, out)
    inputs, targets = tokens[:-1], tokens[1:]
    x, hid = emb[inputs], table.hid[rows]
    d_logits = table.probs[rows]
    d_logits[np.arange(targets.size), targets] -= 1.0
    d_logits /= targets.size              # gradient of the positional mean

    np.matmul(hid.T, d_logits, out=d_w2)
    np.sum(d_logits, axis=0, out=d_b2)
    d_hid = d_logits @ w2.T
    d_z1 = d_hid * (1.0 - hid * hid)
    np.matmul(x.T, d_z1, out=d_w1)
    np.sum(d_z1, axis=0, out=d_b1)
    d_x = d_z1 @ w1.T
    d_emb[...] = 0.0
    np.add.at(d_emb, inputs, d_x)
    return out


def per_sample_gradient(
    model: ModelState, s: Sample, out: Optional[np.ndarray] = None, table: Optional[TokenTable] = None
) -> np.ndarray:
    """Exact gradient of ``per_sample_loss`` w.r.t. the flat parameter vector.

    The gradient is written into ``out`` (a contiguous float64 vector of the
    parameter count), or into a new array when it is None; the return value
    is that array. ``table`` is as for ``per_sample_loss``.
    """
    if table is None:
        table = token_table(model, [s])
    rows = _forward(model, s, table)[1]
    return _backward(table, s.token_ids, rows, np.empty_like(model.params) if out is None else out)


def embed(model: ModelState, s: Sample) -> np.ndarray:
    """Sentence embedding: the read-only mean hidden activation over all token positions."""
    if int(s.token_ids.max()) >= model.arch.vocab_size:
        raise ValueError(f"sample {s.id} has tokens outside vocab of size {model.arch.vocab_size}")
    return _read_only(_hidden(model.unpack(), s.token_ids)[1].mean(axis=0))


def sgd_step(model: ModelState, lr: float, grad: np.ndarray) -> ModelState:
    return ModelState(model.arch, model.params - lr * grad, owned=True)


def _checked_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise LengthMismatch(f"got {w.size} weights for a batch of {n}")
    if not np.all(np.isfinite(w)):
        raise NonFinite(f"non-finite weights: {w[~np.isfinite(w)]}")
    if np.any(w < 0.0):
        raise NegativeWeight(f"negative weights: {w[w < 0.0]}")
    return w


def _weighted_gradient(model: ModelState, batch: Sequence[Sample], weights) -> tuple:
    """``(grad, weighted_mean_loss)`` of ``train_step``, from one table over ``batch``."""
    n = len(batch)
    w = None if callable(weights) else _checked_weights(weights, n)
    table = token_table(model, batch)
    passes = [_forward(model, s, table) for s in batch]
    if w is None:
        w = _checked_weights(weights(np.array([loss for loss, _ in passes])), n)

    grad = np.zeros_like(model.params)
    g = np.empty_like(grad)
    wloss = 0.0
    for wi, s, (loss_i, rows) in zip(w, batch, passes):
        _backward(table, s.token_ids, rows, g)
        g *= wi
        grad += g
        wloss += wi * loss_i
    grad /= n
    return grad, float(wloss / n)


def train_step(
    model: ModelState,
    opt: OptimizerState,
    batch: Sequence[Sample],
    weights: Union[Sequence[float], Callable[[np.ndarray], Sequence[float]]],
):
    """One optimizer step on the gradient of (sum_i w_i * loss_i) / |batch|.

    ``weights`` is one weight per sample, or a function that returns them
    from the batch's per-sample losses under ``model``. Weights must be
    finite (else ``NonFinite``) and non-negative (else ``NegativeWeight``),
    one per sample (else ``LengthMismatch``). Fixed weights are checked
    before the step builds its one ``token_table`` over the batch. A
    function is called once, with the losses of this step's own forward
    pass (equal to ``batch_losses(model, batch)``), before any gradient is
    accumulated; a loss-based weighting thus costs no second forward pass.
    Backward passes accumulate in batch order, so all-ones weights
    reproduce the unweighted step bitwise, and a function ``f`` the step
    with fixed weights ``f(batch_losses(model, batch))``. The table is
    dropped before the optimizer update, and the new states take ownership
    of the arrays the update builds instead of copying them.

    Returns ``(model', opt', weighted_mean_loss)``.
    """
    if len(batch) == 0:
        raise LengthMismatch("batch must be non-empty")
    grad, wloss = _weighted_gradient(model, batch, weights)
    lr = opt.hyper.learning_rate
    if opt.kind == "sgd":
        return sgd_step(model, lr, grad), dataclasses.replace(opt, t=opt.t + 1), wloss
    m, v, m_hat, denom = _adam_moments(grad, opt, out=grad)
    step = np.multiply(m_hat, lr, out=m_hat)  # lr * m_hat / denom, left to right
    step /= denom
    new_model = ModelState(model.arch, model.params - step, owned=True)
    return new_model, OptimizerState("adam", opt.hyper, m, v, opt.t + 1, owned=True), wloss


def _adam_moments(grad: np.ndarray, opt: OptimizerState, out: np.ndarray):
    """Adam's moments after ``grad`` at step t+1: ``(m, v, m_hat, denom)``.

    ``m_hat`` is the bias-corrected first moment and the step is
    ``-lr * m_hat / denom``. Element by element the operations are
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``denom = sqrt(v/(1-b2^t)) + eps`` and ``m_hat = m/(1-b1^t)``, in that
    order; each is evaluated in place in a fresh ``m``, ``v`` or ``denom``
    array, which gives the same bits as the out-of-place expressions.
    ``m_hat`` is written into ``out``, which may be ``grad``: ``grad`` is
    last read before that write. ``opt`` is not touched.
    """
    cfg = opt.hyper
    t = opt.t + 1
    m = cfg.beta1 * opt.m
    scratch = (1.0 - cfg.beta1) * grad
    m += scratch
    v = cfg.beta2 * opt.v
    np.multiply(grad, 1.0 - cfg.beta2, out=scratch)
    scratch *= grad
    v += scratch
    denom = np.divide(v, 1.0 - cfg.beta2 ** t, out=scratch)
    np.sqrt(denom, out=denom)
    denom += cfg.eps
    return m, v, np.divide(m, 1.0 - cfg.beta1 ** t, out=out), denom


def adam_precondition(grad: np.ndarray, opt: OptimizerState, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Bias-corrected Adam direction for a gradient, using the current (m, v).

    Computes the direction ``m_hat / denom`` Adam *would* move in if this
    gradient were applied at step t+1, without touching optimizer state. The
    direction is written into ``out`` (a new array when it is None), which
    may be ``grad`` itself, and returned; the moments are dropped, so no
    ``OptimizerState`` is built.
    """
    if opt.kind != "adam":
        raise NotAdam(f"adam preconditioning requested on a {opt.kind!r} optimizer")
    if opt.t < 1:
        raise ColdOptimizer("adam preconditioning needs at least one completed optimizer step")
    if out is None:
        out = np.empty(np.shape(grad))
    _, _, m_hat, denom = _adam_moments(grad, opt, out)
    return np.divide(m_hat, denom, out=m_hat)


def snapshot(model: ModelState, opt: OptimizerState) -> Checkpoint:
    return Checkpoint(model, opt)


def restore(ckpt: Checkpoint):
    return ckpt.model, ckpt.opt


def state_digest(model: ModelState, opt: OptimizerState) -> str:
    """Digest of all mutable numeric state; used to detect illegal mutation."""
    h = hashlib.sha256()
    h.update(model.params.tobytes())
    h.update(str(opt.t).encode())
    for arr in (opt.m, opt.v):
        h.update(b"-" if arr is None else arr.tobytes())
    return h.hexdigest()


def checkpoint_digest(ckpt: Checkpoint) -> str:
    """``state_digest`` of the checkpoint, extended by its architecture and optimizer kind."""
    key = f"{ckpt.model.arch!r}|{ckpt.opt.kind}|{state_digest(ckpt.model, ckpt.opt)}"
    return hashlib.sha256(key.encode()).hexdigest()
