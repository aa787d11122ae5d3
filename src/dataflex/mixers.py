"""Domain-mixture computation: excess-loss exponentiated-gradient updates,
an Exp3 bandit with EMA rewards, policy-driven batch sampling, the
``Component`` hooks that every run of the step engine calls, and the
mixers built on them.

ODM (arXiv:2312.02406) and DoReMi (arXiv:2305.10429) both turn each domain's
mean batch loss since the last point into a new mixture with one
exponentiated step, so both mixers keep a ``LossWindow`` and train through
``LossWindow.train``, which fills it from the training step's own forward
pass. Every mixer has one rule, ``Mixer.update(policy, observation, rng)``:
a run calls it at each point with what ``observe`` takes from its windows,
and ``Mixer.replay`` (``dataflex-cli mix-sim``) calls it once per recorded
``mix_sim`` row, with no model. DoReMi's rule is ``DoremiRule``, shared by
its proxy stage and the registry's ``trainers.DoremiMixer``. The
reference/proxy pipeline, ``trainers.run_doremi_pipeline``, lives beside the
step engine that runs its two stages; its proxy stage runs a
``DoremiProxyMixer``. This module does not import ``trainers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Checked, Corpus, MixtureWeights, bounded, invocation_steps, params_from
from .errors import BadParams, EmptyDomainWithMass, LengthMismatch, NonFinite, ParseError
from .model import ModelState, batch_losses, train_step


@dataclass(frozen=True)
class DoremiParams(Checked):
    """DoReMi's knobs: the exponentiated-gradient step and the reference/proxy pipeline.

    ``doremi_update`` reads ``eta`` and ``epsilon``; ``excess_loss`` is
    clipped at zero unless ``clip_excess`` is false.
    ``trainers.run_doremi_pipeline`` reads the rest, where ``None`` derives
    a value from the run: ``ref_steps`` defaults to ``max(warmup_step +
    update_step * update_times, 1)`` reference steps, and
    ``proxy_hidden_dim`` to half the target's hidden width (at least 2).
    """

    eta: float = bounded(0.1, gt=0.0, lt=math.inf)
    epsilon: float = bounded(0.01, ge=0.0, lt=1.0)
    clip_excess: bool = True
    average_weights: bool = False
    ref_steps: Optional[int] = bounded(None, ge=0)
    proxy_hidden_dim: Optional[int] = bounded(None, ge=1)


@dataclass(frozen=True)
class OdmParams(Checked):
    """Exp3 bandit settings: EMA decay, reward scaling, and exploration floor."""

    ema_decay: float = bounded(0.90, ge=0.0, lt=1.0)
    reward_scale: float = bounded(15.0, gt=0.0)
    eps_min: float = bounded(0.01, gt=0.0)
    clip_threshold: float = bounded(-10.0, ge=-math.inf)


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        u = alpha.weights * np.exp(params.eta * lam)
    # Exactly-rounded sum keeps the update bit-for-bit permutation equivariant.
    total = math.fsum(u)
    if not np.isfinite(total) or total <= 0.0:
        raise NonFinite(f"exponentiated weights sum to {total!r}")
    smoothed = (1.0 - params.epsilon) * (u / total) + params.epsilon / k
    return MixtureWeights(smoothed)


def odm_reward(ema_loss: np.ndarray, params: OdmParams) -> np.ndarray:
    """ODM's per-domain reward: the loss EMA clipped below at ``clip_threshold``, over ``reward_scale``."""
    return np.maximum(ema_loss, params.clip_threshold) / params.reward_scale


def odm_update(state: OdmState, observed_domain_loss: np.ndarray, params: OdmParams) -> OdmState:
    """One Exp3 update from per-domain losses observed since the last update.

    NaN entries mark domains not sampled in the window: their EMA and raw
    weight are untouched (importance-weighted reward estimate 0). For
    observed domains the EMA is updated (first observation seeds it), and
    the reward (``odm_reward``) is importance-weighted by the sampling
    policy in effect while the window was collected. The new
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
    reward_hat[observed] = odm_reward(ema[observed], params) / state.policy.weights[observed]

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
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

    def train(self, run, batch):
        """Train ``run``'s model on ``batch``, adding the step's own per-sample losses to the window.

        The losses are those of ``train_step``'s forward pass, equal to
        ``batch_losses(run.model, batch)``; the step's weights are all ones.
        Returns (model, opt, train loss).
        """

        def observe(losses):
            self.add(batch, losses)
            return np.ones(len(batch))

        return train_step(run.model, run.opt, batch, observe)


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


@dataclass(frozen=True)
class LossRows:
    """A ``mix_sim`` section of per-domain losses, one row per update; a null entry marks a domain not observed."""

    losses: Optional[list[list[Optional[float]]]] = None

    def observations(self, mixer) -> list:
        return [np.array([np.nan if x is None else x for x in row]) for row in self.losses or ()]


@dataclass(frozen=True)
class DoremiRows:
    """DoReMi's ``mix_sim`` section: excess losses ``lambdas``, or ``proxy_losses`` with ``ref_losses``, one row per update."""

    lambdas: Optional[list[list[float]]] = None
    proxy_losses: Optional[list[list[float]]] = None
    ref_losses: Optional[list[list[float]]] = None

    def observations(self, mixer) -> list:
        """The excess losses of each row; proxy minus reference losses are clipped as ``mixer.params`` says."""
        given = [key for key, rows in vars(self).items() if rows is not None]
        if given not in (["lambdas"], ["proxy_losses", "ref_losses"]):
            raise ParseError(f"mix_sim for doremi needs 'lambdas' or 'proxy_losses'+'ref_losses', got {given}")
        if self.lambdas is not None:
            return self.lambdas
        if len(self.proxy_losses) != len(self.ref_losses):
            raise LengthMismatch(f"mix_sim has {len(self.proxy_losses)} proxy_losses rows but {len(self.ref_losses)} ref_losses rows")
        return [excess_loss(p, r, clip=mixer.params.clip_excess) for p, r in zip(self.proxy_losses, self.ref_losses)]


class Mixer(Component):
    """A component that moves the run's mixture at the points by its one rule, ``update``.

    The defaults keep the mixture fixed. ``start`` sets the points of
    ``invocation_steps`` and an empty trajectory, and hands the run's
    starting policy to ``begin``. At each point ``fire`` passes ``update``
    what ``observe`` takes from the run's loss windows, and appends the
    record ``{"step", "weights", **extra}``. ``replay`` drives the same rule
    from recorded rows, parsed into the dataclass ``rows``.
    """

    #: The dataclass that ``replay`` parses a ``mix_sim`` section into.
    rows = LossRows

    def start(self, run):
        run.points = invocation_steps(run.cfg.schedule)
        run.result.weight_trajectory = []
        self.begin(run.policy)

    def begin(self, policy: MixtureWeights) -> None:
        """Set up the rule's state for a trajectory that starts at ``policy``."""

    def observe(self):
        """The observation of a point, taken from the run's loss windows; None without a window."""

    def fire(self, run, step):
        run.policy, extra = self.update(run.policy, self.observe(), run.rng)
        run.result.weight_trajectory.append({"step": step, "weights": [float(x) for x in run.policy.weights], **extra})

    def update(self, policy: MixtureWeights, observation, rng):
        """The rule: the policy after a point, and the extra keys of that point's record."""
        return policy, {}

    def replay(self, section: dict, policy: Optional[MixtureWeights], rng) -> list:
        """Drive ``update`` with one parsed ``mix_sim`` row at a time; returns ``{"update", "weights", **extra}`` records.

        The trajectory starts at ``policy``, or, if it is None, at uniform
        weights over the first row's width. Every row holds one entry per
        domain of the policy.
        """
        observations = params_from(self.rows, section, "mix_sim").observations(self)
        if not observations:
            raise ParseError("mix_sim has no updates")
        policy = policy or MixtureWeights.uniform(len(observations[0]))
        if any(len(row) != len(policy) for row in observations):
            raise LengthMismatch(f"each mix_sim row needs {len(policy)} entries, one per domain")
        self.begin(policy)
        records = []
        for i, observation in enumerate(observations):
            policy, extra = self.update(policy, observation, rng)
            records.append({"update": i, "weights": [float(x) for x in policy.weights], **extra})
        return records


@dataclass(frozen=True)
class StaticMixer(Mixer):
    pass


@dataclass(frozen=True)
class RandomMixer(Mixer):
    def update(self, policy, observation, rng):
        return MixtureWeights(rng.dirichlet(np.ones(len(policy)))), {}


class OdmMixer(Mixer):
    """Exp3 over domains, rewarded by each domain's mean batch loss since the last point.

    ``begin`` builds the bandit from the starting policy (in a run, the
    run's, which no point has moved yet) and opens the loss window. Each
    step trains through ``LossWindow.train``, so the batch is forwarded
    once, and each point observes the window's means.
    """

    def __init__(self, params: OdmParams):
        self.params = params

    def begin(self, policy):
        self.state = odm_init(policy, self.params)
        self.window = LossWindow(len(policy))

    def step(self, run, batch, step):
        return self.window.train(run, batch)

    def observe(self):
        return self.window.take()

    def update(self, policy, losses, rng):
        self.state = odm_update(self.state, losses, self.params)
        return self.state.policy, {"rewards": [float(r) for r in odm_reward(self.state.ema_loss, self.params)]}


class DoremiRule(Mixer):
    """DoReMi's rule: one ``doremi_update`` step on the per-domain excess losses, recorded as ``excess_losses``.

    Its ``mix_sim`` rows are ``DoremiRows``.
    """

    rows = DoremiRows

    def __init__(self, params: DoremiParams):
        self.params = params

    def update(self, policy, lam, rng):
        return doremi_update(policy, lam, self.params), {"excess_losses": [float(x) for x in lam]}


class DoremiProxyMixer(DoremiRule):
    """The proxy stage of DoReMi; ``run_doremi_pipeline`` starts its run at uniform weights.

    ``begin`` opens two loss windows. At each step the frozen reference's
    losses on the batch (a forward pass of its own) go into one, and the
    proxy trains through ``LossWindow.train`` on the other. Each point
    observes the per-domain excess of their means (clipped at zero unless
    ``clip_excess`` is false), which drives the rule.
    """

    def __init__(self, reference: ModelState, params: DoremiParams):
        self.reference, self.params = reference, params

    def begin(self, policy):
        self.proxy_window, self.ref_window = LossWindow(len(policy)), LossWindow(len(policy))

    def step(self, run, batch, step):
        self.ref_window.add(batch, batch_losses(self.reference, batch))
        return self.proxy_window.train(run, batch)

    def observe(self):
        lam = excess_loss(self.proxy_window.take(), self.ref_window.take(), clip=self.params.clip_excess)
        lam[np.isnan(lam)] = 0.0  # a domain the window did not see has no excess
        return lam
