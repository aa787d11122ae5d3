"""Per-sample loss-based weighting applied inside the training step.

Every strategy returns weights with mean exactly 1 (up to float rounding),
so reweighting never changes the effective learning rate. The losses that
drive a strategy come from the training step's own forward pass
(``train_step`` takes the weights as a function of them), so a weighted
step forwards its batch once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParams, NegativeLoss, NonFinite
from .model import (
    ModelState,
    OptimizerState,
    batch_losses,  # not called here; bench/tracer.py wraps it on this module
    train_step,
)


@dataclass(frozen=True)
class WeightStrategy:
    """How batch losses map to per-sample weights.

    kinds: ``uniform`` (all ones), ``linear`` (loss over mean loss), and
    ``softmax`` (batch-size-scaled softmax of loss / temperature).
    """

    kind: str = "softmax"
    temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "linear", "softmax"):
            raise BadParams(f"unknown weighting kind {self.kind!r}")
        if self.temperature <= 0.0:
            raise BadParams(f"temperature must be positive, got {self.temperature}")


def compute_weights(losses: Sequence[float], strat: WeightStrategy) -> np.ndarray:
    """Map non-negative batch losses to mean-one per-sample weights."""
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
        mean = losses.mean()
        if mean == 0.0:
            return np.ones_like(losses)
        return losses / mean
    scaled = losses / strat.temperature
    z = np.exp(scaled - scaled.max())
    return losses.size * z / z.sum()


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
