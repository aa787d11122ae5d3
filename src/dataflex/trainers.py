"""Training-loop orchestration: component registry, schedule, and the four
run modes (static baseline, dynamic selection, dynamic mixing, dynamic
reweighting).

All modes share one loop and one batch-sampling path (domains drawn from a
policy, then uniform within the domain), so degenerate configurations
(select-all, uniform weights, static mixer) reproduce the static baseline
bitwise under the same seed. Components never touch model state: a digest
guard around every invocation enforces that the optimizer step is the only
mutation point.
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

_TRAINER_BY_TYPE = {
    "static": "static",
    "dynamic_select": "select",
    "dynamic_mix": "mix",
    "dynamic_weight": "weight",
}


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


@dataclass(frozen=True)
class StaticMixer:
    name = "static"

    def update(self, policy, window_losses, rng):
        return policy, None


@dataclass(frozen=True)
class RandomMixer:
    name = "random"

    def update(self, policy, window_losses, rng):
        k = len(policy)
        return MixtureWeights(rng.dirichlet(np.ones(k))), None


class OdmMixer:
    name = "odm"

    def __init__(self, params: OdmParams):
        self.params = params
        self.state = None

    def update(self, policy, window_losses, rng):
        if self.state is None:
            self.state = odm_init(policy, self.params)
        self.state = odm_update(self.state, window_losses, self.params)
        rewards = np.maximum(self.state.ema_loss, self.params.clip_threshold) / self.params.reward_scale
        return self.state.policy, [float(r) for r in rewards]


def _same(params):
    return params


#: (kind, name) -> (params dataclass, component built from the parsed params,
#: aliases from user keys to fields). A component that is its own params
#: dataclass is built by ``_same``. The doremi mixer is pipeline-backed and
#: run by the mix trainer; its entry parses the pipeline's knobs so that
#: configs name it, and have its keys checked, like any other mixer.
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
    ("mixer", "doremi"): (DoremiPipelineParams, lambda params: StaticMixer(), None),
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


class _EmbeddingCache:
    """Embeds pool and validation once, with the model current at first use.

    Distribution-based selectors are offline methods: their embedding space is
    computed once per run, not re-derived after every model update.
    """

    def __init__(self, pool, val):
        self.pool = pool
        self.val = val
        self._frozen = None

    def provider(self, model):
        def get():
            if self._frozen is None:
                pool_m = np.stack([embed(model, s).values for s in self.pool])
                val_m = np.stack([embed(model, s).values for s in self.val])
                self._frozen = (pool_m, val_m)
            return self._frozen

        return get


def _domain_view(corpus: Corpus, ids) -> dict:
    view = {d: [] for d in range(corpus.num_domains)}
    for i in ids:
        view[corpus.by_id(int(i)).domain_id].append(int(i))
    return {d: np.array(sorted(v), dtype=np.int64) for d, v in view.items()}


def run_training(cfg: RunConfig, corpus: Corpus, val: Corpus, registry: Optional[ComponentRegistry] = None) -> RunResult:
    """Run any of the four training modes; see the module docstring.

    Selectors and mixers fire at the points of ``invocation_steps``, under
    the rule written there; ``result.invocations`` lists the points that
    fired, which are those ``<= max_steps``.
    """
    registry = registry or DEFAULT_REGISTRY
    validate_config(cfg, corpus)
    mode = _TRAINER_BY_TYPE[cfg.train_type]

    kids = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_init = np.random.default_rng(kids[0])
    rng_sample = np.random.default_rng(kids[1])
    rng_component = np.random.default_rng(kids[2])

    model = init_model(cfg.model_cfg, rng_init)
    opt = init_optimizer(cfg.optim_cfg, model.params.size)

    init_policy = cfg.init_mixture_proportions or empirical_proportions(corpus)
    policy = init_policy.weights
    view = None  # None means the full corpus
    selection_digest = 0
    result = RunResult(model=model, opt=opt, metrics=[])

    selector = None
    select_k = None
    accumulate = False
    active_ids = None
    ref_checkpoint = snapshot(model, opt)
    emb_cache = _EmbeddingCache(list(corpus.samples), list(val.samples))

    mixer = None
    window_sum = np.zeros(corpus.num_domains)
    window_count = np.zeros(corpus.num_domains, dtype=np.int64)

    strategy = None

    if mode == "select":
        mode_params, selector_params = select_params(cfg.component_params)
        accumulate = mode_params.accumulate
        select_k = int(round(mode_params.ratio * len(corpus)))
        selector = registry.resolve("selector", cfg.component_name, selector_params)
    elif mode == "mix":
        mixer = registry.resolve("mixer", cfg.component_name, cfg.component_params)
        result.weight_trajectory = []
        if cfg.component_name == "doremi":
            pipeline = run_doremi_pipeline(cfg, corpus, val)
            policy = pipeline.weights.weights
            result.weight_trajectory.extend(pipeline.trajectory)
    elif mode == "weight":
        strategy = registry.resolve("weighter", cfg.component_name, cfg.component_params)
        result.weight_stats = []

    points = set(invocation_steps(cfg.schedule)) if mode in ("select", "mix") else set()
    all_ids = {int(s.id) for s in corpus.samples}
    wants_domain_losses = mode == "mix" and isinstance(mixer, OdmMixer)

    def invoke_component(step: int):
        nonlocal policy, view, selection_digest, active_ids, ref_checkpoint
        guard = state_digest(model, opt)
        if mode == "select":
            ctx = SelectionContext(
                model=model,
                opt=opt,
                pool=list(corpus.samples),
                val=list(val.samples),
                rng=rng_component,
                ref_checkpoint=ref_checkpoint,
                embeddings=emb_cache.provider(model),
            )
            chosen = select(selector.score(ctx), select_k)
            if accumulate and active_ids is not None:
                chosen = sorted(set(chosen) | set(active_ids))
            active_ids = chosen
            view = _domain_view(corpus, active_ids)
            policy = empirical_proportions(corpus, active_ids).weights
            selection_digest = 0 if set(active_ids) == all_ids else id_set_digest(active_ids)
            ref_checkpoint = snapshot(model, opt)
            result.selections.append(SelectionEvent(step=step, ids=tuple(active_ids), digest=selection_digest))
        else:
            losses = np.full(corpus.num_domains, np.nan)
            observed = window_count > 0
            losses[observed] = window_sum[observed] / window_count[observed]
            new_policy, feedback = mixer.update(MixtureWeights(policy), losses, rng_component)
            policy = new_policy.weights
            record = {"step": step, "weights": [float(x) for x in policy]}
            if feedback is not None:
                record["rewards"] = feedback
            result.weight_trajectory.append(record)
            window_sum[:] = 0.0
            window_count[:] = 0
        if state_digest(model, opt) != guard:
            raise RuntimeError("component invocation mutated model or optimizer state")
        result.invocations.append(step)

    if 0 in points:
        invoke_component(0)

    last_loss = float("nan")
    warmup = cfg.schedule.warmup_step
    for step in range(1, cfg.max_steps + 1):
        batch, _ = sample_batch(MixtureWeights(policy), corpus, cfg.optim_cfg.batch_size, rng_sample, domain_ids=view)

        if mode == "weight":
            model, opt, last_loss, weights = weighter_apply(model, opt, batch, strategy, in_warmup=step <= warmup)
            norm = weights / weights.sum()
            positive = norm[norm > 0.0]
            result.weight_stats.append(
                {
                    "step": step,
                    "min_weight": float(weights.min()),
                    "max_weight": float(weights.max()),
                    "entropy": float(-np.sum(positive * np.log(positive))),
                }
            )
        else:
            if wants_domain_losses:
                for s, loss_i in zip(batch, batch_losses(model, batch)):
                    window_sum[s.domain_id] += loss_i
                    window_count[s.domain_id] += 1
            model, opt, last_loss = train_step(model, opt, batch, np.ones(len(batch)))

        if step % cfg.eval_interval == 0:
            ev = eval_per_domain(model, val)
            result.metrics.append(
                MetricsRecord(
                    step=step,
                    train_loss=last_loss,
                    per_domain_val_loss=ev.per_domain,
                    overall_val_loss=ev.overall,
                    mixture=tuple(float(x) for x in policy),
                    active_selection_digest=selection_digest,
                )
            )

        if step in points:
            invoke_component(step)

    result.model = model
    result.opt = opt
    return result


def run_static(cfg: RunConfig, corpus: Corpus, val: Corpus, registry=None) -> RunResult:
    if cfg.train_type != "static":
        raise BadParams(f"run_static needs train_type='static', got {cfg.train_type!r}")
    return run_training(cfg, corpus, val, registry)


def run_select(cfg: RunConfig, corpus: Corpus, val: Corpus, registry=None) -> RunResult:
    if cfg.train_type != "dynamic_select":
        raise BadParams(f"run_select needs train_type='dynamic_select', got {cfg.train_type!r}")
    return run_training(cfg, corpus, val, registry)


def run_mix(cfg: RunConfig, corpus: Corpus, val: Corpus, registry=None) -> RunResult:
    if cfg.train_type != "dynamic_mix":
        raise BadParams(f"run_mix needs train_type='dynamic_mix', got {cfg.train_type!r}")
    return run_training(cfg, corpus, val, registry)


def run_weight(cfg: RunConfig, corpus: Corpus, val: Corpus, registry=None) -> RunResult:
    if cfg.train_type != "dynamic_weight":
        raise BadParams(f"run_weight needs train_type='dynamic_weight', got {cfg.train_type!r}")
    return run_training(cfg, corpus, val, registry)
