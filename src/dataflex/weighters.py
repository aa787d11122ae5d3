"""Per-sample loss-based weighting applied inside the training step.

Every strategy returns weights with mean exactly 1 (up to float rounding),
so reweighting never changes the effective learning rate. It holds over
the whole float range: ``linear`` divides the losses by the largest first
when their mean overflows or is subnormal. The losses that drive a
strategy come from the training step's own forward pass (``train_step``
takes the weights as a function of them), so a weighted step forwards its
batch once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Checked, bounded
from .errors import NegativeLoss, NonFinite
from .model import (
    ModelState,
    OptimizerState,
    batch_losses,  # not called here; bench/tracer.py wraps it on this module
    train_step,
)


@dataclass(frozen=True)
class WeightStrategy(Checked):
    """How batch losses map to per-sample weights.

    kinds: ``uniform`` (all ones), ``linear`` (loss over mean loss), and
    ``softmax`` (batch-size-scaled softmax of loss / temperature).
    """

    kind: str = bounded("softmax", choices=("uniform", "linear", "softmax"))
    temperature: float = bounded(1.0, gt=0.0)


def compute_weights(losses: Sequence[float], strat: WeightStrategy) -> np.ndarray:
    """Map non-negative batch losses to mean-one per-sample weights.

    Raises ``NonFinite`` when a softmax's weights are not finite: a
    temperature so small that ``loss / temperature`` overflows.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("losses must be non-empty")
    if not np.all(np.isfinite(losses)):
        raise NonFinite("losses contain non-finite entries")
    if np.any(losses < 0.0):
        raise NegativeLoss(f"negative losses: {losses[losses < 0.0]}")

    if strat.kind == "uniform":
        return np.ones_like(losses)
    if strat.kind == "linear":
        with np.errstate(over="ignore"):  # an overflowed mean is rescaled just below
            mean = losses.mean()
        if not np.finfo(np.float64).tiny <= mean < np.inf:  # over the largest loss, the mean is >= 1 / n
            if losses.max() == 0.0:
                return np.ones_like(losses)
            losses = losses / losses.max()
            mean = losses.mean()
        return losses / mean
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        scaled = losses / strat.temperature
        z = np.exp(scaled - scaled.max())
        weights = losses.size * z / z.sum()
    if not np.all(np.isfinite(weights)):
        raise NonFinite(f"softmax weights are not finite at temperature {strat.temperature!r}")
    return weights


def apply(
    model: ModelState,
    opt: OptimizerState,
    batch: Sequence,
    strat: WeightStrategy,
    in_warmup: bool,
):
    """One weighted training step.

    During warmup the step is plain uniform; afterwards the per-sample losses
    under the pre-step model drive the strategy. ``train_step`` computes
    those losses in its own forward pass and hands them to
    ``compute_weights`` before it accumulates any gradient, so the step is
    bitwise the one that weights by ``batch_losses`` first. ``in_warmup``
    follows the schedule rule of ``dataflex.core.invocation_steps``:
    steps ``1..warmup_step`` are warmup. Returns
    ``(model', opt', weighted_mean_loss, weights)``.
    """
    weights = np.ones(len(batch))

    def weigh(losses):
        nonlocal weights
        weights = compute_weights(losses, strat)
        return weights

    new_model, new_opt, loss = train_step(model, opt, batch, weights if in_warmup else weigh)
    return new_model, new_opt, loss, weights
