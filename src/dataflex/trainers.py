"""Training-loop orchestration: component registry, schedule, and the one
step engine behind the four train types.

``run_training`` is one plain loop: sample a batch from the run's data
view, step, record an eval snapshot every ``eval_interval`` steps, and fire
at the points of ``invocation_steps``. Each train type is a run object from
``_MODES`` with two hooks: ``step`` (plain ``train_step`` by default,
loss-based weights in weight mode) and ``fire`` (the selection or mixture
update at a point). The hooks update the data view (policy, id view and
selection digest), which the eval records read. Mixers resolve through the
registry like every other component; their own hooks (``Mixer``) let ODM
see each batch and DoReMi compute its mixture before the run.

All modes share one batch-sampling path (domains drawn from a policy, then
uniform within the domain), so degenerate configurations (select-all,
uniform weights, static mixer) reproduce the static baseline bitwise under
the same seed. Components never touch model state: a digest guard around
every invocation enforces that the optimizer step is the only mutation
point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Corpus,
    MetricsRecord,
    MixtureWeights,
    RunConfig,
    Schedule,
    empirical_proportions,
    id_set_digest,
    params_from,
    validate_config,
)
from .errors import BadParams, DuplicateName, UnknownComponent
from .evaluation import eval_per_domain
from .mixers import (
    DoremiPipelineParams,
    OdmParams,
    odm_init,
    odm_update,
    run_doremi_pipeline,
    sample_batch,
)
from .model import (
    batch_losses,
    embed,
    init_model,
    init_optimizer,
    snapshot,
    state_digest,
    train_step,
)
from .selectors import (
    InfluenceParams,
    ScoreVector,
    TsdsParams,
    mean_loss_metric,
    score_delta_loss,
    score_influence,
    score_knn,
    score_loss,
    score_probe,
    score_tsds,
    select,
    top1_accuracy_metric,
)
from .weighters import WeightStrategy, apply as weighter_apply

COMPONENT_KINDS = ("selector", "mixer", "weighter")

class ComponentRegistry:
    """String-keyed factories for selectors, mixers, and weighters."""

    def __init__(self):
        self._factories = {}

    def register(self, kind: str, name: str, factory: Callable) -> None:
        if kind not in COMPONENT_KINDS:
            raise BadParams(f"unknown component kind {kind!r}")
        if not name:
            raise BadParams("component name must be non-empty")
        if (kind, name) in self._factories:
            raise DuplicateName(f"{kind} {name!r} is already registered")
        self._factories[(kind, name)] = factory

    def resolve(self, kind: str, name: str, params: Optional[dict] = None):
        try:
            factory = self._factories[(kind, name)]
        except KeyError:
            known = sorted(n for k, n in self._factories if k == kind)
            raise UnknownComponent(f"no {kind} named {name!r}; known: {known}") from None
        return factory(dict(params or {}))

    def names(self, kind: str) -> list:
        return sorted(n for k, n in self._factories if k == kind)


def invocation_steps(s: Schedule) -> list:
    """Global-step values at which a scheduled component fires.

    This is the one schedule rule for every mode. The step counter is
    1-based, and a point ``p`` fires after step ``p``'s optimizer update and
    eval record; ``p = 0`` fires once, before step 1. Steps ``1..warmup_step``
    are therefore warmup: they train on the full corpus and the initial
    mixture, and the first selection or mixture update shapes step
    ``warmup_step + 1`` onward. Points beyond the run's last step never fire.
    """
    return [s.warmup_step + j * s.update_step for j in range(s.update_times)]


@dataclass(frozen=True)
class SelectParams:
    """The select-mode keys of ``component_params`` that the loop itself reads."""

    ratio: float = 0.5
    accumulate: bool = False

    def __post_init__(self):
        if not (0.0 < self.ratio <= 1.0):
            raise BadParams(f"selection ratio must lie in (0, 1], got {self.ratio}")


def select_params(params: dict) -> tuple:
    """Split select-mode ``component_params`` into (SelectParams, selector params)."""
    own = {f.name for f in dataclasses.fields(SelectParams)}
    mode = params_from(SelectParams, {k: v for k, v in params.items() if k in own}, "select mode")
    return mode, {k: v for k, v in params.items() if k not in own}


@dataclass
class SelectionContext:
    """Inputs handed to a selector at an invocation step."""

    model: object
    opt: object
    pool: Sequence
    val: Sequence
    rng: np.random.Generator
    ref_checkpoint: object
    embeddings: Callable  # () -> (pool_matrix, val_matrix), frozen at first call


@dataclass(frozen=True)
class LossSelector:
    def score(self, ctx: SelectionContext) -> ScoreVector:
        return score_loss(ctx.model, ctx.pool)


@dataclass(frozen=True)
class DeltaLossSelector:
    hardest_first: bool = False

    def score(self, ctx: SelectionContext) -> ScoreVector:
        return score_delta_loss(ctx.model, ctx.ref_checkpoint, ctx.pool, hardest_first=self.hardest_first)


class InfluenceSelector:
    def __init__(self, params: InfluenceParams):
        self.params = params

    def score(self, ctx: SelectionContext) -> ScoreVector:
        return score_influence(ctx.model, ctx.opt, ctx.pool, ctx.val, self.params)


@dataclass(frozen=True)
class ProbeSelector:
    probe_lr: float = 1e-3
    metric: str = "val_loss"

    def __post_init__(self):
        if self.metric not in ("val_loss", "top1_accuracy"):
            raise BadParams(f"unknown probe metric {self.metric!r}")

    def score(self, ctx: SelectionContext) -> ScoreVector:
        factory = mean_loss_metric if self.metric == "val_loss" else top1_accuracy_metric
        return score_probe(ctx.model, ctx.opt, ctx.pool, factory(ctx.val), self.probe_lr)


@dataclass(frozen=True)
class KnnSelector:
    k: int = 10

    def score(self, ctx: SelectionContext) -> ScoreVector:
        pool_m, val_m = ctx.embeddings()
        ids = np.array([s.id for s in ctx.pool], dtype=np.int64)
        return score_knn(pool_m, val_m, self.k, pool_ids=ids)


class TsdsSelector:
    def __init__(self, params: TsdsParams):
        self.params = params

    def score(self, ctx: SelectionContext) -> ScoreVector:
        pool_m, val_m = ctx.embeddings()
        ids = np.array([s.id for s in ctx.pool], dtype=np.int64)
        return score_tsds(pool_m, val_m, self.params, pool_ids=ids)


@dataclass(frozen=True)
class RandomSelector:
    def score(self, ctx: SelectionContext) -> ScoreVector:
        ids = np.array([s.id for s in ctx.pool], dtype=np.int64)
        return ScoreVector(ids, ctx.rng.random(len(ctx.pool)), "random")


class Mixer:
    """A mixer's hooks in a ``dynamic_mix`` run; the defaults keep the mixture fixed."""

    def start(self, run) -> list:
        """Set up for ``run``; returns the points at which ``update`` fires."""
        return invocation_steps(run.cfg.schedule)

    def observe(self, model, batch) -> None:
        """Sees each step's batch before the step trains on it."""

    def update(self, policy: MixtureWeights, rng):
        """The policy after a schedule point, and the rewards to record (or None)."""
        return policy, None


@dataclass(frozen=True)
class StaticMixer(Mixer):
    pass


@dataclass(frozen=True)
class RandomMixer(Mixer):
    def update(self, policy, rng):
        return MixtureWeights(rng.dirichlet(np.ones(len(policy)))), None


class OdmMixer(Mixer):
    """Exp3 over domains, rewarded by each domain's mean batch loss since the last point."""

    def __init__(self, params: OdmParams):
        self.params = params
        self.state = None

    def start(self, run):
        self.window_sum = np.zeros(run.corpus.num_domains)
        self.window_count = np.zeros(run.corpus.num_domains, dtype=np.int64)
        return super().start(run)

    def observe(self, model, batch):
        for s, loss_i in zip(batch, batch_losses(model, batch)):
            self.window_sum[s.domain_id] += loss_i
            self.window_count[s.domain_id] += 1

    def update(self, policy, rng):
        losses = np.full(len(policy), np.nan)  # NaN marks a domain the window did not see
        observed = self.window_count > 0
        losses[observed] = self.window_sum[observed] / self.window_count[observed]
        self.window_sum[:] = 0.0
        self.window_count[:] = 0
        if self.state is None:
            self.state = odm_init(policy, self.params)
        self.state = odm_update(self.state, losses, self.params)
        rewards = np.maximum(self.state.ema_loss, self.params.clip_threshold) / self.params.reward_scale
        return self.state.policy, [float(r) for r in rewards]


class DoremiMixer(Mixer):
    """DoReMi: the static mixture that ``run_doremi_pipeline`` computes before the run.

    The pipeline fires at the points with its own proxy model; the run fires none.
    """

    def __init__(self, params: DoremiPipelineParams):
        self.params = params

    def start(self, run):
        pipeline = run_doremi_pipeline(run.cfg, run.corpus, run.val, self.params)
        run.policy = pipeline.weights
        run.result.weight_trajectory.extend(pipeline.trajectory)
        run.result.invocations.extend(rec["step"] for rec in pipeline.trajectory)
        return []


def _same(params):
    return params


#: (kind, name) -> (params dataclass, component built from the parsed params,
#: aliases from user keys to fields). A component that is its own params
#: dataclass is built by ``_same``.
_BUILTINS = {
    ("selector", "loss"): (LossSelector, _same, None),
    ("selector", "delta_loss"): (DeltaLossSelector, _same, None),
    ("selector", "less"): (InfluenceParams, InfluenceSelector, None),
    ("selector", "nice"): (ProbeSelector, _same, None),
    ("selector", "near"): (KnnSelector, _same, None),
    ("selector", "tsds"): (TsdsParams, TsdsSelector, {"max_k": "max_K", "kde_k": "kde_K", "c": "C"}),
    ("selector", "random"): (RandomSelector, _same, None),
    ("mixer", "static"): (StaticMixer, _same, None),
    ("mixer", "random"): (RandomMixer, _same, None),
    ("mixer", "odm"): (OdmParams, OdmMixer, None),
    ("mixer", "doremi"): (DoremiPipelineParams, DoremiMixer, None),
    ("weighter", "loss"): (WeightStrategy, _same, {"strategy": "kind"}),
}


def _builtin_factory(kind: str, name: str):
    params_cls, build, aliases = _BUILTINS[(kind, name)]
    return lambda params: build(params_from(params_cls, params, f"{name} {kind}", aliases))


def _selector_factory(name: str):
    return _builtin_factory("selector", name)


def _register_builtins(reg: ComponentRegistry) -> None:
    for kind, name in _BUILTINS:
        reg.register(kind, name, _builtin_factory(kind, name))


DEFAULT_REGISTRY = ComponentRegistry()
_register_builtins(DEFAULT_REGISTRY)


@dataclass
class SelectionEvent:
    step: int
    ids: tuple
    digest: int
    scores: ScoreVector


@dataclass
class RunResult:
    model: object
    opt: object
    metrics: list
    invocations: list = field(default_factory=list)
    selections: list = field(default_factory=list)
    weight_trajectory: Optional[list] = None
    weight_stats: Optional[list] = None

    @property
    def final_val_loss(self) -> float:
        return self.metrics[-1].overall_val_loss if self.metrics else float("nan")


def _domain_view(corpus: Corpus, ids) -> dict:
    view = {d: [] for d in range(corpus.num_domains)}
    for i in ids:
        view[corpus.by_id(int(i)).domain_id].append(int(i))
    return {d: np.array(sorted(v), dtype=np.int64) for d, v in view.items()}


class _StaticRun:
    """The state of one run; its hooks, which do nothing extra, are every mode's defaults.

    The data view is ``policy``, the domain sampling distribution;
    ``domain_ids``, which restricts each domain to the active selection's
    sorted ids (``None`` means the full corpus); and ``digest``, the active
    selection's ``id_set_digest`` (0 while the run trains on the full corpus).
    The hooks update it and the eval records read it.
    """

    def __init__(self, cfg: RunConfig, corpus: Corpus, val: Corpus, registry: ComponentRegistry):
        self.cfg, self.corpus, self.val = cfg, corpus, val
        kids = np.random.SeedSequence(cfg.seed).spawn(4)
        self.model = init_model(cfg.model_cfg, np.random.default_rng(kids[0]))
        self.opt = init_optimizer(cfg.optim_cfg, self.model.params.size)
        self.rng_sample = np.random.default_rng(kids[1])
        self.rng = np.random.default_rng(kids[2])  # for the component
        self.policy = cfg.init_mixture_proportions or empirical_proportions(corpus)
        self.domain_ids, self.digest = None, 0
        self.result = RunResult(model=self.model, opt=self.opt, metrics=[])
        self.points = []

    def step(self, batch, step: int):
        """Train on ``batch`` at ``step``; returns (model, opt, train loss)."""
        return train_step(self.model, self.opt, batch, np.ones(len(batch)))

    def fire(self, step: int) -> None:
        """Update the data view at schedule point ``step``."""


class _SelectRun(_StaticRun):
    def __init__(self, cfg, corpus, val, registry):
        super().__init__(cfg, corpus, val, registry)
        self.mode, selector_params = select_params(cfg.component_params)
        self.select_k = int(round(self.mode.ratio * len(corpus)))
        if self.select_k < 1:
            raise BadParams(f"selection ratio {self.mode.ratio} keeps no sample of {len(corpus)}")
        self.selector = registry.resolve("selector", cfg.component_name, selector_params)
        self.points = invocation_steps(cfg.schedule)
        self.ref_checkpoint = snapshot(self.model, self.opt)
        self.frozen_embeddings = None

    def embeddings(self):
        """Pool and validation embeddings, taken with the model current at first use.

        Distribution-based selectors are offline methods: their embedding space is
        computed once per run, not re-derived after every model update.
        """
        if self.frozen_embeddings is None:
            pool_m = np.stack([embed(self.model, s).values for s in self.corpus.samples])
            val_m = np.stack([embed(self.model, s).values for s in self.val.samples])
            self.frozen_embeddings = (pool_m, val_m)
        return self.frozen_embeddings

    def fire(self, step):
        ctx = SelectionContext(
            model=self.model,
            opt=self.opt,
            pool=list(self.corpus.samples),
            val=list(self.val.samples),
            rng=self.rng,
            ref_checkpoint=self.ref_checkpoint,
            embeddings=self.embeddings,
        )
        scores = self.selector.score(ctx)
        chosen = select(scores, self.select_k)
        if self.mode.accumulate and self.result.selections:
            chosen = sorted(set(chosen) | set(self.result.selections[-1].ids))
        self.policy = empirical_proportions(self.corpus, chosen)
        self.domain_ids = _domain_view(self.corpus, chosen)
        self.digest = 0 if len(set(chosen)) == len(self.corpus) else id_set_digest(chosen)
        self.ref_checkpoint = snapshot(self.model, self.opt)
        self.result.selections.append(SelectionEvent(step=step, ids=tuple(chosen), digest=self.digest, scores=scores))


class _MixRun(_StaticRun):
    def __init__(self, cfg, corpus, val, registry):
        super().__init__(cfg, corpus, val, registry)
        self.mixer = registry.resolve("mixer", cfg.component_name, cfg.component_params)
        self.result.weight_trajectory = []
        self.points = self.mixer.start(self)

    def step(self, batch, step):
        self.mixer.observe(self.model, batch)
        return super().step(batch, step)

    def fire(self, step):
        self.policy, feedback = self.mixer.update(self.policy, self.rng)
        record = {"step": step, "weights": [float(x) for x in self.policy.weights]}
        if feedback is not None:
            record["rewards"] = feedback
        self.result.weight_trajectory.append(record)


class _WeightRun(_StaticRun):
    def __init__(self, cfg, corpus, val, registry):
        super().__init__(cfg, corpus, val, registry)
        self.strategy = registry.resolve("weighter", cfg.component_name, cfg.component_params)
        self.result.weight_stats = []

    def step(self, batch, step):
        in_warmup = step <= self.cfg.schedule.warmup_step
        model, opt, loss, weights = weighter_apply(self.model, self.opt, batch, self.strategy, in_warmup=in_warmup)
        norm = weights / weights.sum()
        positive = norm[norm > 0.0]
        self.result.weight_stats.append(
            {
                "step": step,
                "min_weight": float(weights.min()),
                "max_weight": float(weights.max()),
                "entropy": float(-np.sum(positive * np.log(positive))),
            }
        )
        return model, opt, loss


#: train_type -> the run that carries it out.
_MODES = {
    "static": _StaticRun,
    "dynamic_select": _SelectRun,
    "dynamic_mix": _MixRun,
    "dynamic_weight": _WeightRun,
}


def run_training(cfg: RunConfig, corpus: Corpus, val: Corpus, registry: Optional[ComponentRegistry] = None) -> RunResult:
    """Run any of the four training modes; see the module docstring.

    Selectors and mixers fire at the points of ``invocation_steps``, under
    the rule written there: step 0 trains nothing, so point 0 fires before
    step 1. ``result.invocations`` lists the points that fired, which are
    those ``<= max_steps`` (for ``doremi``, every point of its pipeline).
    """
    validate_config(cfg, corpus)
    run = _MODES[cfg.train_type](cfg, corpus, val, registry or DEFAULT_REGISTRY)
    points = set(run.points)
    for step in range(cfg.max_steps + 1):
        if step > 0:
            batch, _ = sample_batch(run.policy, corpus, cfg.optim_cfg.batch_size, run.rng_sample, domain_ids=run.domain_ids)
            run.model, run.opt, loss = run.step(batch, step)
            if step % cfg.eval_interval == 0:
                ev = eval_per_domain(run.model, val)
                run.result.metrics.append(
                    MetricsRecord(
                        step=step,
                        train_loss=loss,
                        per_domain_val_loss=ev.per_domain,
                        overall_val_loss=ev.overall,
                        mixture=tuple(run.policy.weights),
                        active_selection_digest=run.digest,
                    )
                )
        if step in points:
            guard = state_digest(run.model, run.opt)
            run.fire(step)
            if state_digest(run.model, run.opt) != guard:
                raise RuntimeError("component invocation mutated model or optimizer state")
            run.result.invocations.append(step)
    run.result.model, run.result.opt = run.model, run.opt
    return run.result
