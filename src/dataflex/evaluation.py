"""Per-domain and overall validation loss (log-perplexity semantics)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Corpus
from .model import ModelState, batch_losses


@dataclass(frozen=True)
class EvalResult:
    """Mean token cross-entropy per domain present in the validation corpus,
    plus the token-weighted overall mean. Empty domains are absent, not zero.
    """

    per_domain: tuple  # ((domain_id, loss), ...) for non-empty domains
    overall: float


def eval_per_domain(model: ModelState, val: Corpus) -> EvalResult:
    """Average per-token cross-entropy, per domain and overall (no exponentiation).

    The per-sample losses come from one ``batch_losses`` table over ``val``.
    """
    loss_sum = np.zeros(val.num_domains)
    tokens = np.zeros(val.num_domains, dtype=np.int64)
    for s, loss in zip(val.samples, batch_losses(model, val.samples)):
        n_targets = len(s) - 1
        loss_sum[s.domain_id] += loss * n_targets
        tokens[s.domain_id] += n_targets
    present = np.nonzero(tokens > 0)[0]
    if present.size == 0:
        raise ValueError("validation corpus has no scorable samples")
    per_domain = tuple((int(d), float(loss_sum[d] / tokens[d])) for d in present)
    overall = float(loss_sum[present].sum() / tokens[present].sum())
    return EvalResult(per_domain=per_domain, overall=overall)
