"""Domain-mixture computation: excess-loss exponentiated-gradient updates,
an Exp3 bandit with EMA rewards, policy-driven batch sampling, and the
three-step reference/proxy/target pipeline that produces a static mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    Corpus,
    MixtureWeights,
    RunConfig,
    empirical_proportions,
    params_from,
)
from .errors import BadParams, EmptyDomainWithMass, LengthMismatch, NonFinite
from .model import ModelState, batch_losses, init_model, init_optimizer, train_step


@dataclass(frozen=True)
class DoremiParams:
    """Exponentiated-gradient settings for excess-loss reweighting."""

    eta: float = 0.1
    epsilon: float = 0.01
    K: int = 0

    def __post_init__(self):
        if self.eta <= 0.0:
            raise BadParams(f"eta must be positive, got {self.eta}")
        if not (0.0 <= self.epsilon < 1.0):
            raise BadParams(f"epsilon must lie in [0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class DoremiPipelineParams:
    """The user knobs of ``run_doremi_pipeline``; ``None`` derives one from the run.

    ``ref_steps`` defaults to ``max(warmup_step + update_step * update_times,
    1)`` reference steps, and ``proxy_hidden_dim`` to half the target's
    hidden width (at least 2). ``K`` of the update comes from the corpus.
    """

    eta: float = DoremiParams.eta
    epsilon: float = DoremiParams.epsilon
    clip_excess: bool = True
    average_weights: bool = False
    ref_steps: Optional[int] = None
    proxy_hidden_dim: Optional[int] = None

    def __post_init__(self):
        self.update_params(0)  # DoremiParams checks eta and epsilon
        if self.ref_steps is not None and self.ref_steps < 0:
            raise BadParams(f"ref_steps must be >= 0, got {self.ref_steps}")
        if self.proxy_hidden_dim is not None and self.proxy_hidden_dim < 1:
            raise BadParams(f"proxy_hidden_dim must be >= 1, got {self.proxy_hidden_dim}")

    def update_params(self, k: int) -> DoremiParams:
        """The exponentiated-gradient settings for ``k`` domains."""
        return DoremiParams(eta=self.eta, epsilon=self.epsilon, K=k)


@dataclass(frozen=True)
class OdmParams:
    """Exp3 bandit settings: EMA decay, reward scaling, and exploration floor."""

    ema_decay: float = 0.90
    reward_scale: float = 15.0
    eps_min: float = 0.01
    clip_threshold: float = -10.0

    def __post_init__(self):
        if not (0.0 <= self.ema_decay < 1.0):
            raise BadParams(f"ema_decay must lie in [0, 1), got {self.ema_decay}")
        if self.reward_scale <= 0.0:
            raise BadParams(f"reward_scale must be positive, got {self.reward_scale}")
        if self.eps_min <= 0.0:
            raise BadParams(f"eps_min must be positive, got {self.eps_min}")


@dataclass(frozen=True, eq=False)
class OdmState:
    """Bandit state: raw exponential weights, per-domain loss EMA, and policy."""

    raw_weights: np.ndarray
    ema_loss: np.ndarray
    seen: np.ndarray
    policy: MixtureWeights
    updates_done: int = 0


def odm_init(init_policy: MixtureWeights, params: OdmParams) -> OdmState:
    """Start the bandit so its pre-update policy equals the initial proportions.

    Raw weights are recovered by inverting the exploration-floor mixing; any
    initial proportion at or below the floor is clamped to a tiny positive
    weight, so the floor guarantees hold from the first update onward.
    """
    k = len(init_policy)
    if params.eps_min * k > 1.0 + 1e-12:
        raise BadParams(f"K*eps_min = {params.eps_min * k} exceeds 1")
    gamma = 1.0 - k * params.eps_min
    if gamma <= 0.0:
        raw = np.ones(k)
    else:
        raw = np.maximum(init_policy.weights - params.eps_min, 1e-12) / gamma
    return OdmState(
        raw_weights=raw,
        ema_loss=np.zeros(k),
        seen=np.zeros(k, dtype=bool),
        policy=init_policy,
        updates_done=0,
    )


def excess_loss(proxy_domain_loss: np.ndarray, ref_domain_loss: np.ndarray, clip: bool = True) -> np.ndarray:
    """Per-domain proxy loss minus reference loss, clipped at zero by default."""
    proxy = np.asarray(proxy_domain_loss, dtype=np.float64)
    ref = np.asarray(ref_domain_loss, dtype=np.float64)
    if proxy.shape != ref.shape:
        raise LengthMismatch(f"proxy has shape {proxy.shape}, reference has {ref.shape}")
    diff = proxy - ref
    return np.maximum(diff, 0.0) if clip else diff


def doremi_update(alpha: MixtureWeights, lam: np.ndarray, params: DoremiParams) -> MixtureWeights:
    """One exponentiated-gradient ascent step on domain weights.

    u_i = alpha_i * exp(eta * lambda_i); normalize; then mix epsilon of the
    uniform distribution back in. Uniform alpha with zero lambda is an exact
    fixed point.
    """
    lam = np.asarray(lam, dtype=np.float64)
    k = len(alpha)
    if lam.shape != (k,):
        raise LengthMismatch(f"lambda has shape {lam.shape}, expected ({k},)")
    if not np.all(np.isfinite(lam)):
        raise NonFinite("lambda contains non-finite entries")
    u = alpha.weights * np.exp(params.eta * lam)
    # Exactly-rounded sum keeps the update bit-for-bit permutation equivariant.
    total = math.fsum(u)
    if not np.isfinite(total) or total <= 0.0:
        raise NonFinite(f"exponentiated weights sum to {total!r}")
    smoothed = (1.0 - params.epsilon) * (u / total) + params.epsilon / k
    return MixtureWeights(smoothed)


def odm_update(state: OdmState, observed_domain_loss: np.ndarray, params: OdmParams) -> OdmState:
    """One Exp3 update from per-domain losses observed since the last update.

    NaN entries mark domains not sampled in the window: their EMA and raw
    weight are untouched (importance-weighted reward estimate 0). For
    observed domains the EMA is updated (first observation seeds it), the
    reward is the clipped EMA divided by ``reward_scale``, importance-weighted
    by the sampling policy in effect while the window was collected. The new
    policy mixes ``K*eps_min`` of uniform exploration back in, so every entry
    is at least ``eps_min``.
    """
    losses = np.asarray(observed_domain_loss, dtype=np.float64)
    k = len(state.policy)
    if losses.shape != (k,):
        raise LengthMismatch(f"losses have shape {losses.shape}, expected ({k},)")
    if params.eps_min * k > 1.0 + 1e-12:
        raise BadParams(f"K*eps_min = {params.eps_min * k} exceeds 1")
    if np.any(np.isinf(losses)):
        raise NonFinite("observed losses contain infinities")

    observed = ~np.isnan(losses)
    ema = state.ema_loss.copy()
    first = observed & ~state.seen
    ema[first] = losses[first]
    rest = observed & state.seen
    ema[rest] = params.ema_decay * ema[rest] + (1.0 - params.ema_decay) * losses[rest]

    reward_hat = np.zeros(k)
    reward = np.maximum(ema[observed], params.clip_threshold) / params.reward_scale
    reward_hat[observed] = reward / state.policy.weights[observed]

    raw = state.raw_weights * np.exp(params.eps_min * reward_hat / k)
    total = math.fsum(raw)
    if not np.all(np.isfinite(raw)) or total <= 0.0:
        raise NonFinite("raw bandit weights overflowed")
    policy = (1.0 - k * params.eps_min) * (raw / total) + params.eps_min
    return OdmState(
        raw_weights=raw,
        ema_loss=ema,
        seen=state.seen | observed,
        policy=MixtureWeights(policy),
        updates_done=state.updates_done + 1,
    )


def sample_batch(
    policy: MixtureWeights,
    corpus: Corpus,
    batch_size: int,
    rng: np.random.Generator,
    domain_ids: Optional[dict] = None,
):
    """Draw a batch: domains i.i.d. from the policy, then uniform within domain.

    ``domain_ids`` optionally restricts each domain to a sorted id array (the
    active selection view); by default the whole corpus is available. Returns
    ``(samples, rng)``; the generator advances in place.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    view = domain_ids if domain_ids is not None else corpus.domain_index
    weights = policy.weights
    for d in range(len(policy)):
        if weights[d] > 0.0 and len(view.get(d, ())) == 0:
            raise EmptyDomainWithMass(f"domain {d} has sampling mass {weights[d]} but no samples")
    domains = rng.choice(len(policy), size=batch_size, p=weights)
    samples = []
    for d in domains:
        ids = view[int(d)]
        samples.append(corpus.by_id(int(ids[rng.integers(0, len(ids))])))
    return samples, rng


@dataclass
class DoremiPipelineResult:
    weights: MixtureWeights
    trajectory: list


def run_doremi_pipeline(
    cfg: RunConfig, corpus: Corpus, val: Optional[Corpus] = None, knobs: Optional[DoremiPipelineParams] = None
) -> DoremiPipelineResult:
    """Reference/proxy two-stage mixture optimization; returns static weights.

    Stage 1 trains a reference model on the initial (static) mixture. Stage 2
    trains a proxy model whose sampling policy is the evolving weight vector:
    at each point of ``invocation_steps`` (under the rule written there) the
    per-domain mean batch losses of the proxy and of the frozen reference (on
    the same samples, since the previous point) are compared, and the clipped
    excess drives an exponentiated-gradient update, ``update_times`` times.
    The proxy stops at the last point. The final (or, with
    ``average_weights``, time-averaged) vector is returned for use as a
    static mixture.

    ``knobs`` are the parsed ``DoremiPipelineParams``; by default they are
    parsed from ``cfg.component_params``.
    Reference and proxy use a narrower hidden layer than the target model by
    default (``proxy_hidden_dim``).
    """
    from .trainers import invocation_steps  # local import; trainers imports this module

    if knobs is None:
        knobs = params_from(DoremiPipelineParams, cfg.component_params, "doremi mixer")
    k = corpus.num_domains
    dp = knobs.update_params(k)
    schedule = cfg.schedule
    points = set(invocation_steps(schedule))
    ref_steps = knobs.ref_steps
    if ref_steps is None:
        ref_steps = max(schedule.warmup_step + schedule.update_step * schedule.update_times, 1)
    proxy_hidden = knobs.proxy_hidden_dim or max(2, cfg.model_cfg.hidden_dim // 2)
    proxy_arch = replace(cfg.model_cfg, hidden_dim=proxy_hidden)
    init_policy = cfg.init_mixture_proportions or empirical_proportions(corpus)

    # Seed children 8.. are reserved for the pipeline; the main training loop
    # uses the low indices of the same root sequence.
    kids = np.random.SeedSequence(cfg.seed).spawn(12)
    rng_ref_init, rng_ref_sample = (np.random.default_rng(kids[i]) for i in (8, 9))
    rng_proxy_init, rng_proxy_sample = (np.random.default_rng(kids[i]) for i in (10, 11))

    # Stage 1: reference model on the static initial mixture.
    ref_model = init_model(proxy_arch, rng_ref_init)
    ref_opt = init_optimizer(cfg.optim_cfg, ref_model.params.size)
    for _ in range(ref_steps):
        batch, _ = sample_batch(init_policy, corpus, cfg.optim_cfg.batch_size, rng_ref_sample)
        ref_model, ref_opt, _ = train_step(ref_model, ref_opt, batch, np.ones(len(batch)))

    # Stage 2: proxy trained under the evolving mixture.
    alpha = MixtureWeights.uniform(k)
    proxy_model = init_model(proxy_arch, rng_proxy_init)
    proxy_opt = init_optimizer(cfg.optim_cfg, proxy_model.params.size)
    trajectory = []
    alpha_history = []
    proxy_sum = np.zeros(k)
    ref_sum = np.zeros(k)
    counts = np.zeros(k, dtype=np.int64)

    def fire(step: int):
        nonlocal alpha
        lam = np.zeros(k)
        seen = counts > 0
        diff = excess_loss(
            np.divide(proxy_sum, counts, out=np.zeros(k), where=seen),
            np.divide(ref_sum, counts, out=np.zeros(k), where=seen),
            clip=knobs.clip_excess,
        )
        lam[seen] = diff[seen]
        alpha = doremi_update(alpha, lam, dp)
        alpha_history.append(alpha.weights.copy())
        trajectory.append({"step": step, "weights": [float(x) for x in alpha.weights], "excess_losses": [float(x) for x in lam]})
        proxy_sum[:] = 0.0
        ref_sum[:] = 0.0
        counts[:] = 0

    if 0 in points:
        fire(0)
    # The proxy trains up to the last point only: later steps would feed no update.
    for step in range(1, max(points, default=0) + 1):
        batch, _ = sample_batch(alpha, corpus, cfg.optim_cfg.batch_size, rng_proxy_sample)
        p_losses = batch_losses(proxy_model, batch)
        r_losses = batch_losses(ref_model, batch)
        for s, pl, rl in zip(batch, p_losses, r_losses):
            proxy_sum[s.domain_id] += pl
            ref_sum[s.domain_id] += rl
            counts[s.domain_id] += 1
        proxy_model, proxy_opt, _ = train_step(proxy_model, proxy_opt, batch, np.ones(len(batch)))
        if step in points:
            fire(step)

    if knobs.average_weights and alpha_history:
        final = MixtureWeights(np.mean(alpha_history, axis=0))
    else:
        final = alpha
    return DoremiPipelineResult(weights=final, trajectory=trajectory)
