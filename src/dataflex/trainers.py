"""Training-loop orchestration: component registry, schedule, and the one
step engine behind the four train types and the DoReMi stages.

The engine, ``_StaticRun.drive``, is one plain loop: sample a batch from the
run's data view, step, record an eval snapshot every ``eval_interval`` steps
(for a run with a validation set), and fire at the run's points, those of
``invocation_steps``. Each train type is a run object from ``_MODES`` with
two hooks: ``step`` (plain ``train_step`` by default, loss-based weights in
weight mode, taken from the step's own forward pass) and ``fire`` (the
selection or mixture update at a point). The hooks update the data view
(policy, pool and selection digest), which the eval records read. ``run_training`` drives one run for ``max_steps``
steps; ``mixers.run_doremi_pipeline`` drives its reference and proxy stages
as mix runs without evals.

Mixers resolve through the registry like every other component. A mix run
hands each step and each point to its mixer's hooks (``mixers.Mixer``), so
ODM and the DoReMi proxy see each batch's losses under the pre-step model
(ODM by a forward pass of its own, the proxy from its training step's), and
``DoremiMixer`` computes its static mixture before the run.

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
    DoremiParams,
    Mixer,
    OdmMixer,
    OdmParams,
    RandomMixer,
    StaticMixer,
    run_doremi_pipeline,
    sample_batch,
)
from .model import (
    batch_losses,  # not called here; bench/tracer.py wraps it on this module
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
        if not (np.isfinite(self.probe_lr) and self.probe_lr > 0.0):
            raise BadParams(f"probe_lr must be finite and > 0, got {self.probe_lr}")
        if self.metric not in ("val_loss", "top1_accuracy"):
            raise BadParams(f"unknown probe metric {self.metric!r}")

    def score(self, ctx: SelectionContext) -> ScoreVector:
        factory = mean_loss_metric if self.metric == "val_loss" else top1_accuracy_metric
        return score_probe(ctx.model, ctx.pool, factory(ctx.val), self.probe_lr)


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


class DoremiMixer(Mixer):
    """DoReMi: the static mixture that ``run_doremi_pipeline`` computes before the run.

    The pipeline's proxy stage fires at the points; the run itself fires
    none, and carries the proxy's trajectory records and points.
    """

    def __init__(self, params: DoremiParams):
        self.params = params

    def start(self, run):
        pipeline = run_doremi_pipeline(run.cfg, run.corpus, self.params)
        run.policy = pipeline.weights
        run.result.weight_trajectory.extend(pipeline.trajectory)
        run.result.invocations.extend(rec["step"] for rec in pipeline.trajectory)
        run.points = []


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
    ("mixer", "doremi"): (DoremiParams, DoremiMixer, None),
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


class _StaticRun:
    """The state of one run; its hooks, which do nothing extra, are every mode's defaults.

    The data view is ``policy``, the domain sampling distribution; ``pool``,
    the ``Corpus`` that batches are drawn from (the whole corpus, or the
    active selection); and ``digest``, the active selection's
    ``id_set_digest`` (0 while the pool is the whole corpus). The hooks
    update it and the eval records read it. Model init, batch
    sampling and the component draw from children ``seed_child``,
    ``seed_child + 1`` and ``seed_child + 2`` of the run seed's sequence.
    """

    def __init__(
        self, cfg: RunConfig, corpus: Corpus, val: Optional[Corpus], registry: Optional[ComponentRegistry], seed_child: int = 0
    ):
        self.cfg, self.corpus, self.val = cfg, corpus, val
        kids = np.random.SeedSequence(cfg.seed).spawn(seed_child + 3)[seed_child:]
        self.model = init_model(cfg.model_cfg, np.random.default_rng(kids[0]))
        self.opt = init_optimizer(cfg.optim_cfg, self.model.params.size)
        self.rng_sample = np.random.default_rng(kids[1])
        self.rng = np.random.default_rng(kids[2])  # for the component
        self.policy = cfg.init_mixture_proportions or empirical_proportions(corpus)
        self.pool, self.digest = corpus, 0
        self.result = RunResult(model=self.model, opt=self.opt, metrics=[])
        self.points = []

    def drive(self, steps: int) -> RunResult:
        """The one step engine: run steps ``1..steps`` and fire at ``points``.

        Each step samples a batch from the data view and calls ``step``; a run
        with a validation set then records an eval snapshot every
        ``eval_interval`` steps. Each point calls ``fire`` under the rule of
        ``invocation_steps`` (step 0 trains nothing, so point 0 fires before
        step 1) and raises if that changed the model or optimizer state.
        """
        cfg, points = self.cfg, set(self.points)
        for step in range(steps + 1):
            if step > 0:
                batch, _ = sample_batch(self.policy, self.pool, cfg.optim_cfg.batch_size, self.rng_sample)
                self.model, self.opt, loss = self.step(batch, step)
                if self.val is not None and step % cfg.eval_interval == 0:
                    ev = eval_per_domain(self.model, self.val)
                    self.result.metrics.append(
                        MetricsRecord(
                            step=step,
                            train_loss=loss,
                            per_domain_val_loss=ev.per_domain,
                            overall_val_loss=ev.overall,
                            mixture=tuple(self.policy.weights),
                            active_selection_digest=self.digest,
                        )
                    )
            if step in points:
                guard = state_digest(self.model, self.opt)
                self.fire(step)
                if state_digest(self.model, self.opt) != guard:
                    raise RuntimeError("component invocation mutated model or optimizer state")
                self.result.invocations.append(step)
        self.result.model, self.result.opt = self.model, self.opt
        return self.result

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
            pool_m = np.stack([embed(self.model, s) for s in self.corpus.samples])
            val_m = np.stack([embed(self.model, s) for s in self.val.samples])
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
        corpus = self.corpus
        self.pool = Corpus([corpus.by_id(i) for i in chosen], corpus.domain_names, corpus.vocab_size)
        self.policy = empirical_proportions(self.pool)
        self.digest = 0 if len(self.pool) == len(corpus) else id_set_digest(chosen)
        self.ref_checkpoint = snapshot(self.model, self.opt)
        self.result.selections.append(SelectionEvent(step=step, ids=tuple(chosen), digest=self.digest, scores=scores))


class _MixRun(_StaticRun):
    """A run whose steps and points belong to its mixer (the registry's, unless one is given)."""

    def __init__(self, cfg, corpus, val, registry, mixer: Optional[Mixer] = None, seed_child: int = 0):
        super().__init__(cfg, corpus, val, registry, seed_child)
        self.mixer = registry.resolve("mixer", cfg.component_name, cfg.component_params) if mixer is None else mixer
        self.result.weight_trajectory = []
        self.points = invocation_steps(cfg.schedule)
        self.mixer.start(self)

    def step(self, batch, step):
        return self.mixer.step(self.model, self.opt, batch)

    def fire(self, step):
        self.policy, extra = self.mixer.update(self.policy, self.rng)
        self.result.weight_trajectory.append({"step": step, "weights": [float(x) for x in self.policy.weights], **extra})


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
    """Run any of the four training modes for ``max_steps`` steps; see the module docstring.

    Selectors and mixers fire at the points of ``invocation_steps``, under
    the rule written there. ``result.invocations`` lists the points that
    fired, which are those ``<= max_steps`` (for ``doremi``, every point of
    its pipeline).
    """
    validate_config(cfg, corpus)
    return _MODES[cfg.train_type](cfg, corpus, val, registry or DEFAULT_REGISTRY).drive(cfg.max_steps)
