"""Domain-mixture computation: excess-loss exponentiated-gradient updates,
an Exp3 bandit with EMA rewards, policy-driven batch sampling, the
``Component`` hooks that every run of the step engine calls, the mixers
built on them, and the reference/proxy pipeline that produces DoReMi's
static mixture.

ODM (arXiv:2312.02406) and DoReMi (arXiv:2305.10429) both turn each domain's
mean batch loss since the last point into a new mixture, so both mixers
keep a ``LossWindow``. The pipeline's two stages are runs of the one step
engine, ``trainers._Run``, with a plain ``Mixer`` and a ``DoremiProxyMixer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    Corpus,
    MixtureWeights,
    RunConfig,
    invocation_steps,
    params_from,
)
from .errors import BadParams, EmptyDomainWithMass, LengthMismatch, NonFinite
from .model import ModelState, batch_losses, train_step


@dataclass(frozen=True)
class DoremiParams:
    """DoReMi's knobs: the exponentiated-gradient step and the reference/proxy pipeline.

    ``doremi_update`` reads ``eta`` and ``epsilon``; ``excess_loss`` is
    clipped at zero unless ``clip_excess`` is false. ``run_doremi_pipeline``
    reads the rest, where ``None`` derives a value from the run:
    ``ref_steps`` defaults to ``max(warmup_step + update_step *
    update_times, 1)`` reference steps, and ``proxy_hidden_dim`` to half the
    target's hidden width (at least 2).
    """

    eta: float = 0.1
    epsilon: float = 0.01
    clip_excess: bool = True
    average_weights: bool = False
    ref_steps: Optional[int] = None
    proxy_hidden_dim: Optional[int] = None

    def __post_init__(self):
        if self.eta <= 0.0:
            raise BadParams(f"eta must be positive, got {self.eta}")
        if not (0.0 <= self.epsilon < 1.0):
            raise BadParams(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.ref_steps is not None and self.ref_steps < 0:
            raise BadParams(f"ref_steps must be >= 0, got {self.ref_steps}")
        if self.proxy_hidden_dim is not None and self.proxy_hidden_dim < 1:
            raise BadParams(f"proxy_hidden_dim must be >= 1, got {self.proxy_hidden_dim}")


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
    is at least ``eps_min``. A loss observed for a domain of policy weight 0
    has no importance weight and is rejected.
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
    unsampled = np.flatnonzero(observed & (state.policy.weights == 0.0))
    if unsampled.size:
        raise BadParams(f"domain {unsampled[0]} has an observed loss but policy weight 0")

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
    )


def sample_batch(policy: MixtureWeights, corpus: Corpus, batch_size: int, rng: np.random.Generator):
    """Draw a batch: domains i.i.d. from the policy, then uniform within domain.

    ``corpus`` is the run's pool: the whole corpus, or the active selection
    as a ``Corpus`` of its own. A sample is drawn through the pool's sorted
    per-domain ids, ``Corpus.domain_index``. Returns ``(samples, rng)``; the
    generator advances in place.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    view = corpus.domain_index
    weights = policy.weights
    for d in range(len(policy)):
        if weights[d] > 0.0 and len(view[d]) == 0:
            raise EmptyDomainWithMass(f"domain {d} has sampling mass {weights[d]} but no samples")
    domains = rng.choice(len(policy), size=batch_size, p=weights)
    samples = []
    for d in domains:
        ids = view[int(d)]
        samples.append(corpus.by_id(int(ids[rng.integers(0, len(ids))])))
    return samples, rng


class LossWindow:
    """Per-domain batch losses since the last schedule point.

    ODM keeps one window of its model's losses; the DoReMi proxy stage keeps
    one for the proxy and one for the reference, filled with the same batches.
    """

    def __init__(self, k: int):
        self.total = np.zeros(k)
        self.count = np.zeros(k, dtype=np.int64)

    def add(self, batch, losses) -> None:
        for s, loss in zip(batch, losses):
            self.total[s.domain_id] += loss
            self.count[s.domain_id] += 1

    def take(self) -> np.ndarray:
        """Each domain's mean loss, NaN for a domain not seen; empties the window."""
        means = np.full(len(self.total), np.nan)
        seen = self.count > 0
        means[seen] = self.total[seen] / self.count[seen]
        self.total[:] = 0.0
        self.count[:] = 0
        return means


class Component:
    """The hooks through which a run of the step engine (``trainers._Run``) calls its component.

    The run calls ``start`` once, when it is built, ``step`` for each of its
    steps, and ``fire`` at each of its ``points``, under the rule of
    ``invocation_steps``. The defaults are a static run's: plain training
    steps and no points.
    """

    def start(self, run) -> None:
        """Set up for ``run``; may set its starting ``policy``, its ``points`` and its result lists."""

    def step(self, run, batch, step: int):
        """Train ``run``'s model on ``batch`` at ``step``; returns (model, opt, train loss)."""
        return train_step(run.model, run.opt, batch, np.ones(len(batch)))

    def fire(self, run, step: int) -> None:
        """Update ``run``'s data view at schedule point ``step``."""


class Mixer(Component):
    """A component that moves the run's mixture at the points; the defaults keep it fixed.

    ``start`` sets the points of ``invocation_steps`` and an empty
    trajectory. At each point ``fire`` takes the new policy from ``update``
    and appends that point's trajectory record.
    """

    def start(self, run):
        run.points = invocation_steps(run.cfg.schedule)
        run.result.weight_trajectory = []

    def fire(self, run, step):
        run.policy, extra = self.update(run.policy, run.rng)
        run.result.weight_trajectory.append({"step": step, "weights": [float(x) for x in run.policy.weights], **extra})

    def update(self, policy: MixtureWeights, rng):
        """The policy after a point, and the extra keys of that point's trajectory record."""
        return policy, {}


@dataclass(frozen=True)
class StaticMixer(Mixer):
    pass


@dataclass(frozen=True)
class RandomMixer(Mixer):
    def update(self, policy, rng):
        return MixtureWeights(rng.dirichlet(np.ones(len(policy)))), {}


class OdmMixer(Mixer):
    """Exp3 over domains, rewarded by each domain's mean batch loss since the last point.

    ``start`` opens the loss window. Unlike the DoReMi proxy, ``step`` still
    forwards the batch once before ``train_step`` does: a traced ODM run is
    the one that exercises the benchmark's ``model.batch_losses`` span
    (ROADMAP item 9).
    """

    def __init__(self, params: OdmParams):
        self.params = params
        self.state = None

    def start(self, run):
        super().start(run)
        self.window = LossWindow(run.corpus.num_domains)

    def step(self, run, batch, step):
        self.window.add(batch, batch_losses(run.model, batch))
        return super().step(run, batch, step)

    def update(self, policy, rng):
        if self.state is None:
            self.state = odm_init(policy, self.params)
        self.state = odm_update(self.state, self.window.take(), self.params)
        rewards = np.maximum(self.state.ema_loss, self.params.clip_threshold) / self.params.reward_scale
        return self.state.policy, {"rewards": [float(r) for r in rewards]}


class DoremiProxyMixer(Mixer):
    """The proxy stage of DoReMi, from uniform weights.

    At each step the proxy's and the frozen reference's losses on the batch
    go into two windows; at each point the per-domain excess of their means
    (clipped at zero unless ``clip_excess`` is false) drives
    ``doremi_update``. The proxy's losses are those of its own training
    step's forward pass, which ``train_step`` hands to ``observe``; the
    reference needs a forward pass of its own.
    """

    def __init__(self, reference: ModelState, params: DoremiParams, k: int):
        self.reference, self.params, self.k = reference, params, k
        self.proxy_window, self.ref_window = LossWindow(k), LossWindow(k)

    def start(self, run):
        super().start(run)
        run.policy = MixtureWeights.uniform(self.k)

    def step(self, run, batch, step):
        self.ref_window.add(batch, batch_losses(self.reference, batch))

        def observe(losses):
            self.proxy_window.add(batch, losses)
            return np.ones(len(batch))

        return train_step(run.model, run.opt, batch, observe)

    def update(self, policy, rng):
        lam = excess_loss(self.proxy_window.take(), self.ref_window.take(), clip=self.params.clip_excess)
        lam[np.isnan(lam)] = 0.0  # a domain the window did not see has no excess
        return doremi_update(policy, lam, self.params), {"excess_losses": [float(x) for x in lam]}


@dataclass
class DoremiPipelineResult:
    weights: MixtureWeights
    trajectory: list


def run_doremi_pipeline(cfg: RunConfig, corpus: Corpus, params: Optional[DoremiParams] = None) -> DoremiPipelineResult:
    """Reference/proxy two-stage mixture optimization; returns static weights.

    Both stages are runs of the one step engine, ``trainers._Run``, without
    evals, on a narrower hidden layer than the target model by default
    (``proxy_hidden_dim``). The reference stage is a plain ``Mixer`` run
    with no update in its schedule: it trains ``ref_steps`` steps on the
    initial mixture and fires at no point. The proxy stage is a
    ``DoremiProxyMixer`` run: it fires at the points of ``invocation_steps``
    (under the rule written there) and stops at the last one, so
    ``update_times`` exponentiated-gradient updates shape its sampling. The
    final (or, with ``average_weights``, time-averaged) vector is returned for
    use as a static mixture, with the proxy's trajectory records.

    ``params`` are the parsed ``DoremiParams``, the same object that drives
    every update; by default they are parsed from ``cfg.component_params``.
    """
    from .trainers import _Run  # local import; trainers imports this module

    if params is None:
        params = params_from(DoremiParams, cfg.component_params, "doremi mixer")
    schedule = cfg.schedule
    ref_steps = params.ref_steps
    if ref_steps is None:
        ref_steps = max(schedule.warmup_step + schedule.update_step * schedule.update_times, 1)
    hidden = params.proxy_hidden_dim or max(2, cfg.model_cfg.hidden_dim // 2)
    stage = replace(cfg, model_cfg=replace(cfg.model_cfg, hidden_dim=hidden))

    # Seed children 8 and 9 (init, sampling) are the reference's, 10 and 11
    # the proxy's; the target run uses the low ones. The reference's schedule
    # has no updates, so it fires at no point.
    ref_stage = replace(stage, schedule=replace(schedule, update_times=0))
    ref = _Run(ref_stage, corpus, None, Mixer(), seed_child=8)
    ref.drive(ref_steps)
    proxy_mixer = DoremiProxyMixer(ref.model, params, corpus.num_domains)
    proxy = _Run(stage, corpus, None, proxy_mixer, seed_child=10)
    proxy.drive(max(proxy.points, default=0))  # later steps would feed no update

    trajectory = proxy.result.weight_trajectory
    if params.average_weights and trajectory:
        return DoremiPipelineResult(MixtureWeights(np.mean([rec["weights"] for rec in trajectory], axis=0)), trajectory)
    return DoremiPipelineResult(proxy.policy, trajectory)
