"""Analytic next-token language model: losses, gradients, embeddings, optimizer.

One hidden layer (token embedding -> tanh -> softmax over the vocabulary),
small enough that exact per-sample gradients are cheap, structured enough
that domains with distinct token statistics are separable. Parameters live
in a single flat vector so gradient-space operations (projection, cosine,
preconditioning) are trivial.

Parameter layout: [embedding V*E | hidden weights E*H | hidden bias H |
output weights H*V | output bias V], all float64.

Each rule is written once: ``_hidden`` is the one tanh layer, ``_forward``
the one next-token pass (loss, gradient and top-1 accuracy all read it),
``_loss_and_cache`` and ``_backward`` the two halves of one per-sample
gradient (``train_step`` can hand the losses of the first half to a
weighting function before it runs the second), and ``_adam_moments`` the
one bias-corrected Adam update (``train_step`` applies it,
``adam_precondition`` reports it).

All functions here are pure over immutable state: ``ModelState`` and
``OptimizerState`` hold read-only float64 copies of their arrays, and
``train_step`` returns new (model, optimizer) values instead of mutating, so
a (model, optimizer) pair is its own checkpoint and nothing deep-copies it.
Per-sample accumulation runs in batch order so identical inputs reproduce
bitwise-identical results.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import ModelCfg, OptimCfg, Sample, _read_only
from .errors import ColdOptimizer, LengthMismatch, NegativeWeight, NotAdam, TooShort


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
    arch: ModelCfg
    params: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.params, dtype=np.float64)
        if p.ndim != 1 or p.size != param_count(self.arch):
            raise ValueError(f"params length {p.size} does not match arch {self.arch}")
        if not np.all(np.isfinite(p)):
            raise ValueError("model parameters contain non-finite entries")
        object.__setattr__(self, "params", _read_only(p.copy()))

    def unpack(self):
        """Views (emb, w1, b1, w2, b2) into the flat parameter vector."""
        return _blocks(self.arch, self.params)


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Optimizer kind, settings, step count and Adam's moments (None for SGD)."""

    kind: str
    hyper: OptimCfg
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    t: int = 0

    def __post_init__(self):
        for name in ("m", "v"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, _read_only(np.array(a, dtype=np.float64)))


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


def _forward(model: ModelState, s: Sample):
    """The next-token forward pass over positions 0..len-2 of ``s``.

    Returns the unpacked parameters, the gathered embedding rows, the hidden
    activations and the logits, so that the backward pass reuses all four.
    """
    _check_sample(model, s)
    params = model.unpack()
    x, hid = _hidden(params, s.token_ids[:-1])
    *_, w2, b2 = params
    return params, x, hid, hid @ w2 + b2


def _cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy of ``targets``, with the shifted logits and log-partition."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))  # log p = shifted - log_z
    return float(np.mean(log_z - shifted[np.arange(targets.size), targets])), shifted, log_z


def per_sample_loss(model: ModelState, s: Sample) -> float:
    """Mean next-token cross-entropy over positions 1..len-1."""
    return _cross_entropy(_forward(model, s)[3], s.token_ids[1:])[0]


def batch_losses(model: ModelState, batch: Sequence[Sample]) -> np.ndarray:
    return np.array([per_sample_loss(model, s) for s in batch])


def _loss_and_cache(model: ModelState, s: Sample):
    """The forward half of a per-sample gradient: ``(loss, cache)`` for ``_backward``."""
    params, x, hid, logits = _forward(model, s)
    targets = s.token_ids[1:]
    loss, shifted, log_z = _cross_entropy(logits, targets)
    return loss, (params, s.token_ids[:-1], targets, x, hid, shifted, log_z)


def _backward(cache):
    """The gradient blocks (d_emb, d_w1, d_b1, d_w2, d_b2) of one forward cache."""
    (emb, w1, _, w2, _), inputs, targets, x, hid, shifted, log_z = cache
    d_logits = np.exp(shifted - log_z[:, None])  # probabilities
    d_logits[np.arange(targets.size), targets] -= 1.0
    d_logits /= targets.size              # gradient of the positional mean

    d_w2 = hid.T @ d_logits
    d_b2 = d_logits.sum(axis=0)
    d_hid = d_logits @ w2.T
    d_z1 = d_hid * (1.0 - hid * hid)
    d_w1 = x.T @ d_z1
    d_b1 = d_z1.sum(axis=0)
    d_x = d_z1 @ w1.T
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, inputs, d_x)
    return d_emb, d_w1, d_b1, d_w2, d_b2


def per_sample_gradient(model: ModelState, s: Sample) -> np.ndarray:
    """Exact gradient of ``per_sample_loss`` w.r.t. the flat parameter vector."""
    return np.concatenate([block.ravel() for block in _backward(_loss_and_cache(model, s)[1])])


def embed(model: ModelState, s: Sample) -> np.ndarray:
    """Sentence embedding: the read-only mean hidden activation over all token positions."""
    if int(s.token_ids.max()) >= model.arch.vocab_size:
        raise ValueError(f"sample {s.id} has tokens outside vocab of size {model.arch.vocab_size}")
    return _read_only(_hidden(model.unpack(), s.token_ids)[1].mean(axis=0))


def sgd_step(model: ModelState, lr: float, grad: np.ndarray) -> ModelState:
    return ModelState(model.arch, model.params - lr * grad)


def _checked_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise LengthMismatch(f"got {w.size} weights for a batch of {n}")
    if np.any(w < 0.0):
        raise NegativeWeight(f"negative weights: {w[w < 0.0]}")
    return w


def train_step(
    model: ModelState,
    opt: OptimizerState,
    batch: Sequence[Sample],
    weights: Union[Sequence[float], Callable[[np.ndarray], Sequence[float]]],
):
    """One optimizer step on the gradient of (sum_i w_i * loss_i) / |batch|.

    ``weights`` is one weight per sample, or a function that returns them
    from the batch's per-sample losses under ``model``. Fixed weights are
    checked before any forward pass, and each sample's forward and backward
    pass then run together, so one forward cache is held at a time. A
    function is called once, with the losses of this step's own forward
    pass (equal to ``batch_losses(model, batch)``), after the whole batch's
    forward caches are kept and before any gradient is accumulated; a
    loss-based weighting thus costs no second forward pass. Backward passes
    accumulate in batch order, so all-ones weights reproduce the unweighted
    step bitwise, and a function ``f`` the step with fixed weights
    ``f(batch_losses(model, batch))``.

    Returns ``(model', opt', weighted_mean_loss)``.
    """
    n = len(batch)
    if n == 0:
        raise LengthMismatch("batch must be non-empty")
    if callable(weights):
        passes = [_loss_and_cache(model, s) for s in batch]
        w = _checked_weights(weights(np.array([loss for loss, _ in passes])), n)
    else:
        w = _checked_weights(weights, n)
        passes = (_loss_and_cache(model, s) for s in batch)

    grad = np.zeros_like(model.params)
    grad_blocks = _blocks(model.arch, grad)
    wloss = 0.0
    for wi, (loss_i, cache) in zip(w, passes):
        for acc, block in zip(grad_blocks, _backward(cache)):
            acc += wi * block
        wloss += wi * loss_i
    grad /= n
    wloss /= n

    lr = opt.hyper.learning_rate
    if opt.kind == "sgd":
        return sgd_step(model, lr, grad), dataclasses.replace(opt, t=opt.t + 1), float(wloss)
    new_opt, m_hat, denom = _adam_moments(grad, opt)
    return ModelState(model.arch, model.params - lr * m_hat / denom), new_opt, float(wloss)


def _adam_moments(grad: np.ndarray, opt: OptimizerState):
    """Adam's state after ``grad`` at step t+1, with its bias-corrected first
    moment and denominator: the step is ``-lr * m_hat / denom``.
    """
    cfg = opt.hyper
    t = opt.t + 1
    m = cfg.beta1 * opt.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * opt.v + (1.0 - cfg.beta2) * grad * grad
    denom = np.sqrt(v / (1.0 - cfg.beta2 ** t)) + cfg.eps
    return OptimizerState("adam", cfg, m, v, t), m / (1.0 - cfg.beta1 ** t), denom


def adam_precondition(grad: np.ndarray, opt: OptimizerState) -> np.ndarray:
    """Bias-corrected Adam direction for a gradient, using the current (m, v).

    Computes the direction Adam *would* move in if this gradient were applied
    at step t+1, without touching optimizer state.
    """
    if opt.kind != "adam":
        raise NotAdam(f"adam preconditioning requested on a {opt.kind!r} optimizer")
    if opt.t < 1:
        raise ColdOptimizer("adam preconditioning needs at least one completed optimizer step")
    _, m_hat, denom = _adam_moments(grad, opt)
    return m_hat / denom


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
