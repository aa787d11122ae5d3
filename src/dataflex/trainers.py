"""Training-loop orchestration: the component registry, the selection and
weighting components, and the one step engine behind the four train types
and the DoReMi stages.

The engine is ``_Run``: it holds a run's state and ``_Run.drive``, one plain
loop that samples a batch from the run's data view, steps, records an eval
snapshot every ``eval_interval`` steps (for a run with a validation set),
and fires at the run's points. A run calls its one component through the
three hooks of ``mixers.Component``: ``start`` once, when the run is built
(it may set the points, the starting policy and the result lists),
``step`` for each step and ``fire`` at each point. The hooks update the
data view (policy, pool and selection digest), which the eval records
read.

``run_training`` builds each run's component from the registry kind that
``core.TRAIN_TYPE_KINDS`` pairs with its train type: a plain ``Component``
for ``static`` (no kind), a ``_Selection`` around a selector, and for a
mixer or a weighter the component that the registry builds (a ``Mixer``,
or a ``_Weighting`` from a ``WeightStrategy``). Selectors, mixers and
weighters all resolve through the registry. ``run_training`` drives one
run for ``max_steps`` steps.

DoReMi's pipeline lives here, beside the engine: ``run_doremi_pipeline``
drives its reference and proxy stages as runs without evals, and
``DoremiMixer.start`` runs that pipeline to set its run's static mixture.
``mixers`` holds the component hooks and the mixers, and imports nothing
from this module.

All modes share one batch-sampling path (domains drawn from a policy, then
uniform within the domain), so degenerate configurations (select-all,
uniform weights, static mixer) reproduce the static baseline bitwise under
the same seed. Components never touch model state: a digest guard around
every point enforces that the optimizer step is the only mutation point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    Checked,
    Corpus,
    MetricsRecord,
    MixtureWeights,
    RunConfig,
    TRAIN_TYPE_KINDS,
    bounded,
    child_rng,
    empirical_proportions,
    id_set_digest,
    invocation_steps,
    params_from,
    validate_config,
)
from .errors import BadParams, DuplicateName, KTooLarge, NotAdam, UnknownComponent
from .evaluation import eval_per_domain
from .mixers import (
    Component,
    DoremiParams,
    DoremiProxyMixer,
    DoremiRule,
    OdmMixer,
    OdmParams,
    RandomMixer,
    StaticMixer,
    sample_batch,
)
from .model import (
    batch_losses,  # not called here; bench/tracer.py wraps it on this module
    embed,
    init_model,
    init_optimizer,
    state_digest,
    train_step,  # likewise: steps go through mixers.Component, and the tracer wraps this name too
)
from .selectors import (
    InfluenceParams,
    ScoreVector,
    TsdsParams,
    _delta_loss,
    _pool_ids,
    mean_loss_metric,
    score_influence,
    score_knn,
    score_loss,
    score_probe,
    score_tsds,
    select,
    top1_accuracy_metric,
)
from .weighters import WeightStrategy, apply as weighter_apply

COMPONENT_KINDS = tuple(kind for kind in TRAIN_TYPE_KINDS.values() if kind)
#: The child of a run's seed that its component draws from, past ``seed_child``.
COMPONENT_STREAM = 2


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
            raise UnknownComponent(f"no {kind} named {name!r}; known: {self.names(kind)}") from None
        return factory(dict(params or {}))

    def names(self, kind: str) -> list:
        return sorted(n for k, n in self._factories if k == kind)


@dataclass(frozen=True)
class SelectParams(Checked):
    """The select-mode keys of ``component_params`` that the loop itself reads."""

    ratio: float = bounded(0.5, gt=0.0, le=1.0)
    accumulate: bool = False


def select_params(params: dict) -> tuple:
    """Split select-mode ``component_params`` into (SelectParams, selector params)."""
    own = {f.name for f in dataclasses.fields(SelectParams)}
    mode = params_from(SelectParams, {k: v for k, v in params.items() if k in own}, "select mode")
    return mode, {k: v for k, v in params.items() if k not in own}


@dataclass(frozen=True)
class LossSelector:
    def score(self, run) -> ScoreVector:
        return score_loss(run.model, run.corpus.samples)


@dataclass(frozen=True)
class DeltaLossSelector:
    hardest_first: bool = False

    def score(self, run) -> ScoreVector:
        return _delta_loss(run.model, run.component.ref_model, run.corpus.samples, self.hardest_first)


class InfluenceSelector:
    def __init__(self, params: InfluenceParams):
        self.params = params

    def start(self, run):
        """Reject what the run rules out, before its first step.

        That is a ``projection_dim`` above the model's parameter count, and
        Adam preconditioning with an optimizer that is not Adam.
        """
        if (self.params.projection_dim or 0) > run.model.params.size:
            raise BadParams(f"projection_dim must be <= the model's {run.model.params.size} parameters, got {self.params.projection_dim}")
        if self.params.preconditioning == "adam" and run.opt.kind != "adam":
            raise NotAdam("influence preconditioning='adam' requires an adam optimizer")

    def score(self, run) -> ScoreVector:
        return score_influence(run.model, run.opt, run.corpus.samples, run.val.samples, self.params)


@dataclass(frozen=True)
class ProbeSelector(Checked):
    probe_lr: float = bounded(1e-3, gt=0.0, lt=np.inf)
    metric: str = bounded("val_loss", choices=("val_loss", "top1_accuracy"))

    def score(self, run) -> ScoreVector:
        factory = mean_loss_metric if self.metric == "val_loss" else top1_accuracy_metric
        return score_probe(run.model, run.corpus.samples, factory(run.val.samples), self.probe_lr)


@dataclass(frozen=True)
class KnnSelector(Checked):
    k: int = bounded(10, ge=1)

    def start(self, run):
        """Reject a ``k`` above the validation size before the run's first step."""
        if self.k > len(run.val):
            raise KTooLarge(f"k={self.k} outside [1, {len(run.val)}]")

    def score(self, run) -> ScoreVector:
        pool_m, val_m = run.component.embeddings(run)
        return score_knn(pool_m, val_m, self.k, pool_ids=_pool_ids(run.corpus.samples))


class TsdsSelector:
    def __init__(self, params: TsdsParams):
        self.params = params

    def score(self, run) -> ScoreVector:
        pool_m, val_m = run.component.embeddings(run)
        return score_tsds(pool_m, val_m, self.params, pool_ids=_pool_ids(run.corpus.samples))


@dataclass(frozen=True)
class RandomSelector:
    def score(self, run) -> ScoreVector:
        return ScoreVector(_pool_ids(run.corpus.samples), run.rng.random(len(run.corpus)), "random")


class DoremiMixer(DoremiRule):
    """DoReMi: the static mixture that ``run_doremi_pipeline`` computes before the run.

    The pipeline's proxy stage fires DoReMi's rule (``DoremiRule``) at the
    points. ``start`` sets no points, so the run itself fires none; it
    carries the proxy's trajectory records and points. ``mix-sim`` replays
    the same rule on recorded rows (``Mixer.replay``).
    """

    def start(self, run):
        pipeline = run_doremi_pipeline(run.cfg, run.corpus, self.params)
        run.policy = pipeline.weights
        run.result.weight_trajectory = list(pipeline.trajectory)
        run.result.invocations.extend(rec["step"] for rec in pipeline.trajectory)


class _Weighting(Component):
    """The registry's ``loss`` weighter: after warmup, each step weights its samples by their losses."""

    def __init__(self, strategy: WeightStrategy):
        self.strategy = strategy

    def start(self, run):
        run.result.weight_stats = []

    def step(self, run, batch, step):
        in_warmup = step <= run.cfg.schedule.warmup_step
        model, opt, loss, weights = weighter_apply(run.model, run.opt, batch, self.strategy, in_warmup=in_warmup)
        norm = weights / weights.sum()
        positive = norm[norm > 0.0]
        run.result.weight_stats.append(
            {
                "step": step,
                "min_weight": float(weights.min()),
                "max_weight": float(weights.max()),
                "entropy": float(-np.sum(positive * np.log(positive))),
            }
        )
        return model, opt, loss


def _same(params):
    return params


#: (kind, name) -> (params dataclass, component built from the parsed params,
#: aliases from user keys to fields). A component that is its own params
#: dataclass is built by ``_same``. A mixer or weighter is its run's
#: ``Component``; a selector is what ``_Selection`` scores with.
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
    ("weighter", "loss"): (WeightStrategy, _Weighting, {"strategy": "kind"}),
}


def _builtin_factory(kind: str, name: str):
    params_cls, build, aliases = _BUILTINS[(kind, name)]
    return lambda params: build(params_from(params_cls, params, f"{name} {kind}", aliases))


DEFAULT_REGISTRY = ComponentRegistry()
for _kind, _name in _BUILTINS:
    DEFAULT_REGISTRY.register(_kind, _name, _builtin_factory(_kind, _name))


@dataclass
class SelectionEvent:
    step: int
    ids: tuple
    digest: int
    scores: ScoreVector


@dataclass
class RunResult:
    """A run's outputs.

    ``model`` and ``opt`` are the final states, set when ``_Run.drive``
    returns. They are None until then, so a running run's result holds no
    state that a step has superseded.
    """

    metrics: list
    model: object = None
    opt: object = None
    invocations: list = field(default_factory=list)
    selections: list = field(default_factory=list)
    weight_trajectory: Optional[list] = None
    weight_stats: Optional[list] = None

    @property
    def final_val_loss(self) -> float:
        return self.metrics[-1].overall_val_loss if self.metrics else float("nan")


class _Run:
    """The state of one run, and the step engine that drives it through its component.

    The data view is ``policy``, the domain sampling distribution; ``pool``,
    the ``Corpus`` that batches are drawn from (the whole corpus, or the
    active selection); and ``digest``, the active selection's
    ``id_set_digest`` (0 while the pool is the whole corpus). The
    component's hooks update it and the eval records read it. Model init,
    batch sampling and the component draw from ``child_rng`` children
    ``seed_child``, ``seed_child + 1`` and ``seed_child + COMPONENT_STREAM``
    of the run's seed.
    """

    def __init__(self, cfg: RunConfig, corpus: Corpus, val: Optional[Corpus], component: Component, seed_child: int = 0):
        self.cfg, self.corpus, self.val = cfg, corpus, val
        self.model = init_model(cfg.model_cfg, child_rng(cfg.seed, seed_child))
        self.opt = init_optimizer(cfg.optim_cfg, self.model.params.size)
        self.rng_sample = child_rng(cfg.seed, seed_child + 1)
        self.rng = child_rng(cfg.seed, seed_child + COMPONENT_STREAM)
        self.policy = cfg.init_mixture_proportions or empirical_proportions(corpus)
        self.pool, self.digest = corpus, 0
        self.result = RunResult(metrics=[])
        self.points = []
        self.component = component
        component.start(self)

    def drive(self, steps: int) -> RunResult:
        """The one step engine: run steps ``1..steps`` and fire at ``points``.

        Each step samples a batch from the data view and calls the
        component's ``step``; a run with a validation set then records an
        eval snapshot every ``eval_interval`` steps. Each point calls its
        ``fire`` under the rule of ``invocation_steps`` (step 0 trains
        nothing, so point 0 fires before step 1) and raises if that changed
        the model or optimizer state.
        """
        cfg, points, component = self.cfg, set(self.points), self.component
        for step in range(steps + 1):
            if step > 0:
                batch, _ = sample_batch(self.policy, self.pool, cfg.optim_cfg.batch_size, self.rng_sample)
                with np.errstate(over="ignore", invalid="ignore"):  # a diverged step or eval raises NonFinite
                    self.model, self.opt, loss = component.step(self, batch, step)
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
                component.fire(self, step)
                if state_digest(self.model, self.opt) != guard:
                    raise RuntimeError("component invocation mutated model or optimizer state")
                self.result.invocations.append(step)
        self.result.model, self.result.opt = self.model, self.opt
        return self.result


@dataclass
class DoremiPipelineResult:
    weights: MixtureWeights
    trajectory: list


def run_doremi_pipeline(cfg: RunConfig, corpus: Corpus, params: Optional[DoremiParams] = None) -> DoremiPipelineResult:
    """Reference/proxy two-stage mixture optimization; returns static weights.

    Both stages are runs of the one step engine, ``_Run``, without
    evals, on a narrower hidden layer than the target model by default
    (``proxy_hidden_dim``). The reference stage is a plain ``Component``
    run: it trains ``ref_steps`` steps on the initial mixture and has no
    points. The proxy stage is a ``DoremiProxyMixer`` run from uniform
    weights: it fires at the points of ``invocation_steps`` (under the rule
    written there) and stops at the last one, so ``update_times``
    exponentiated-gradient updates shape its sampling. The final (or, with
    ``average_weights``, time-averaged) vector is returned for use as a
    static mixture, with the proxy's trajectory records.

    ``params`` are the parsed ``DoremiParams``, the same object that drives
    every update; by default they are parsed from ``cfg.component_params``.
    """
    if params is None:
        params = params_from(DoremiParams, cfg.component_params, "doremi mixer")
    schedule = cfg.schedule
    ref_steps = params.ref_steps
    if ref_steps is None:
        ref_steps = max(schedule.warmup_step + schedule.update_step * schedule.update_times, 1)
    hidden = params.proxy_hidden_dim or max(2, cfg.model_cfg.hidden_dim // 2)
    stage = replace(cfg, model_cfg=replace(cfg.model_cfg, hidden_dim=hidden))

    # Seed children 8 and 9 (init, sampling) are the reference's, 10 and 11
    # the proxy's; the target run uses the low ones.
    ref = _Run(stage, corpus, None, Component(), seed_child=8)
    ref.drive(ref_steps)
    uniform = replace(stage, init_mixture_proportions=MixtureWeights.uniform(corpus.num_domains))
    proxy = _Run(uniform, corpus, None, DoremiProxyMixer(ref.model, params), seed_child=10)
    proxy.drive(max(proxy.points, default=0))  # later steps would feed no update

    trajectory = proxy.result.weight_trajectory
    if params.average_weights and trajectory:
        return DoremiPipelineResult(MixtureWeights(np.mean([rec["weights"] for rec in trajectory], axis=0)), trajectory)
    return DoremiPipelineResult(proxy.policy, trajectory)


class _Selection(Component):
    """A selector's run: at each point, the pool becomes the selector's top ``select_k``.

    Selectors score the whole corpus from the run (``score(run)``) and read
    the reference model and the frozen embeddings from here, the run's
    ``component``. The reference is the model current at the run's start,
    then at its latest point. Only the model is kept: no selector reads
    the reference's optimizer state, so a point's optimizer state is
    released once the next step has replaced it. A selector may also
    define ``start(run)``, called once before step 1 to reject what the
    run's data, model or optimizer rules out.
    """

    def __init__(self, cfg: RunConfig, registry: ComponentRegistry):
        self.mode, selector_params = select_params(cfg.component_params)
        self.selector = registry.resolve("selector", cfg.component_name, selector_params)

    def start(self, run):
        self.select_k = int(round(self.mode.ratio * len(run.corpus)))
        if self.select_k < 1:
            raise BadParams(f"selection ratio {self.mode.ratio} keeps no sample of {len(run.corpus)}")
        getattr(self.selector, "start", lambda run: None)(run)
        run.points = invocation_steps(run.cfg.schedule)
        self.ref_model = run.model
        self.frozen_embeddings = None

    def embeddings(self, run):
        """Pool and validation embeddings, taken with the model current at first use.

        Distribution-based selectors are offline methods: their embedding space is
        computed once per run, not re-derived after every model update.
        """
        if self.frozen_embeddings is None:
            pool_m = np.stack([embed(run.model, s) for s in run.corpus.samples])
            val_m = np.stack([embed(run.model, s) for s in run.val.samples])
            self.frozen_embeddings = (pool_m, val_m)
        return self.frozen_embeddings

    def fire(self, run, step):
        scores = self.selector.score(run)
        chosen = select(scores, self.select_k)
        if self.mode.accumulate and run.result.selections:
            chosen = sorted(set(chosen) | set(run.result.selections[-1].ids))
        corpus = run.corpus
        run.pool = Corpus([corpus.by_id(i) for i in chosen], corpus.domain_names, corpus.vocab_size)
        run.policy = empirical_proportions(run.pool)
        run.digest = 0 if len(run.pool) == len(corpus) else id_set_digest(chosen)
        self.ref_model = run.model
        run.result.selections.append(SelectionEvent(step=step, ids=tuple(chosen), digest=run.digest, scores=scores))


def run_training(cfg: RunConfig, corpus: Corpus, val: Corpus, registry: Optional[ComponentRegistry] = None) -> RunResult:
    """Run any of the four training modes for ``max_steps`` steps; see the module docstring.

    Selectors and mixers fire at the points of ``invocation_steps``, under
    the rule written there. ``result.invocations`` lists the points that
    fired, which are those ``<= max_steps`` (for ``doremi``, every point of
    its pipeline).
    """
    validate_config(cfg, corpus)
    kind, registry = TRAIN_TYPE_KINDS[cfg.train_type], registry or DEFAULT_REGISTRY
    if kind is None:
        component = Component()
    elif kind == "selector":
        component = _Selection(cfg, registry)
    else:
        component = registry.resolve(kind, cfg.component_name, cfg.component_params)
    return _Run(cfg, corpus, val, component).drive(cfg.max_steps)
