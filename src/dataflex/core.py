"""Shared domain types: samples, corpora, mixture weights, schedules, run configs.

Everything here is a plain value type with its invariants enforced at
construction; no algorithm logic lives in this module. All types are treated
as immutable after construction and are safe to share across threads;
"mutation" means building a replacement value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    BadParams,
    BadSchedule,
    BadSimplex,
    NonFinite,
    UnknownComponent,
    UnknownTrainType,
)

#: Simplex tolerance for values produced by this package's own arithmetic.
SIMPLEX_ATOL = 1e-9
#: Looser tolerance applied to proportions read from text configs, where
#: human-written decimals rarely sum to 1 exactly. Values are renormalized.
CONFIG_SIMPLEX_ATOL = 1e-6

TRAIN_TYPES = ("static", "dynamic_select", "dynamic_mix", "dynamic_weight")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _unwrap_optional(hint):
    """``(X, True)`` for ``Optional[X]``, else ``(hint, False)``: an ``Optional`` field is its ``X`` that takes ``None``."""
    if typing.get_origin(hint) is typing.Union:
        return typing.get_args(hint)[0], True
    return hint, False


def _coerce(value, hint, optional=False):
    """``value`` as a field of type ``hint``, or ``None`` if ``optional``; TypeError/ValueError if it is not one."""
    if optional and value is None:
        return None
    if typing.get_origin(hint) is list and isinstance(value, list):
        return [_coerce(v, *_unwrap_optional(typing.get_args(hint)[0])) for v in value]
    if value is None or isinstance(value, bool) != (hint is bool):
        raise TypeError
    if hint in (int, float, str) and isinstance(value, (int, float, str)):
        out = hint(value)
        if hint is int and isinstance(value, float) and out != value:
            raise ValueError
        return out
    if not isinstance(value, typing.get_origin(hint) or hint):
        raise TypeError
    return value


def params_from(cls, params: Mapping, label: str, aliases: Optional[Mapping[str, str]] = None):
    """Build the dataclass ``cls`` from user-written keys; the one parameter path.

    A key names a field of ``cls``, or maps to one through ``aliases`` (user
    key -> field name); an aliased field answers to its alias only. Each value
    is coerced by its field's type; only an ``Optional`` field takes ``None``.
    Every default comes from ``cls`` itself; its ``__post_init__`` checks the
    values. Unknown keys (``check_keys``) and values that cannot be coerced
    raise ``BadParams`` naming the key and ``label``.
    """
    aliases = aliases or {}
    hints = typing.get_type_hints(cls)
    keys = {f.name: f.name for f in dataclasses.fields(cls) if f.init and f.name not in aliases.values()}
    keys.update(aliases)
    check_keys(params, keys, label)
    kwargs = {}
    for key, value in params.items():
        hint, optional = _unwrap_optional(hints[keys[key]])
        try:
            kwargs[keys[key]] = _coerce(value, hint, optional)
        except (TypeError, ValueError, OverflowError):
            raise BadParams(f"{label}: {key} = {value!r} is not a valid {getattr(hint, '__name__', hint)}") from None
    return cls(**kwargs)


def check_keys(keys: Iterable[str], allowed: Iterable[str], label: str) -> None:
    """Raise ``BadParams`` naming every key outside ``allowed``; the one unknown-key rule.

    It holds for every config site: the top level, each section, the
    ``data.synthetic`` block, ``component_params`` and ``mix_sim``.
    """
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise BadParams(f"unknown parameter(s) for {label}: {unknown}; allowed: {sorted(allowed)}")


@dataclass(frozen=True, eq=False)
class MixtureWeights:
    """A point on the K-simplex: per-domain sampling probability."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if w.ndim != 1 or w.size < 1:
            raise BadSimplex(f"weights must be a non-empty vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise BadSimplex("weights contain non-finite entries")
        if np.any(w < 0.0):
            raise BadSimplex(f"weights contain negative entries: {w[w < 0.0]}")
        total = float(w.sum())
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise BadSimplex(f"weights sum to {total!r}, expected 1 within {SIMPLEX_ATOL}")
        object.__setattr__(self, "weights", _read_only(w))

    @classmethod
    def from_config(cls, values: Sequence[float]) -> "MixtureWeights":
        """Build from config-file proportions: 1e-6 tolerance, then renormalize."""
        w = np.asarray(values, dtype=np.float64)
        total = float(w.sum())
        if w.ndim != 1 or w.size < 1 or np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise BadSimplex(f"init proportions invalid: {values!r}")
        if abs(total - 1.0) > CONFIG_SIMPLEX_ATOL:
            raise BadSimplex(f"init proportions sum to {total!r}, expected 1 within {CONFIG_SIMPLEX_ATOL}")
        if abs(total - 1.0) > SIMPLEX_ATOL:
            w = w / total
        return cls(w)

    @classmethod
    def uniform(cls, k: int) -> "MixtureWeights":
        return cls(np.full(k, 1.0 / k))

    def __len__(self) -> int:
        return int(self.weights.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixtureWeights):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)


@dataclass(eq=False)
class Sample:
    """A token sequence tagged with its domain; the unit of selection and weighting."""

    id: int
    domain_id: int
    token_ids: np.ndarray

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"sample id must be non-negative, got {self.id}")
        if self.domain_id < 0:
            raise ValueError(f"domain_id must be non-negative, got {self.domain_id}")
        t = np.asarray(self.token_ids, dtype=np.int64)
        if t.ndim != 1 or t.size < 1:
            raise ValueError(f"sample {self.id}: token_ids must be a non-empty 1-D sequence")
        if np.any(t < 0):
            raise ValueError(f"sample {self.id}: negative token ids")
        self.token_ids = _read_only(t)

    def __len__(self) -> int:
        return int(self.token_ids.size)


@dataclass(eq=False)
class Corpus:
    """An in-memory collection of samples partitioned into K named domains."""

    samples: tuple
    domain_names: tuple
    vocab_size: int

    def __post_init__(self):
        self.samples = tuple(self.samples)
        self.domain_names = tuple(self.domain_names)
        k = len(self.domain_names)
        if k < 1:
            raise ValueError("corpus needs at least one domain")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        by_id = {}
        per_domain: dict[int, list[int]] = {d: [] for d in range(k)}
        for s in self.samples:
            if s.id in by_id:
                raise ValueError(f"duplicate sample id {s.id}")
            if s.domain_id >= k:
                raise ValueError(f"sample {s.id}: domain_id {s.domain_id} >= K={k}")
            if int(s.token_ids.max()) >= self.vocab_size:
                raise ValueError(f"sample {s.id}: token out of vocabulary range [0, {self.vocab_size})")
            by_id[s.id] = s
            per_domain[s.domain_id].append(s.id)
        self._by_id = by_id
        self.domain_index = {d: _read_only(np.array(sorted(ids), dtype=np.int64)) for d, ids in per_domain.items()}

    @property
    def num_domains(self) -> int:
        return len(self.domain_names)

    def __len__(self) -> int:
        return len(self.samples)

    def by_id(self, sample_id: int) -> Sample:
        return self._by_id[sample_id]


def empirical_proportions(corpus: Corpus) -> MixtureWeights:
    """Domain proportions of the corpus."""
    domains = np.fromiter((s.domain_id for s in corpus.samples), dtype=np.int64, count=len(corpus))
    if domains.size == 0:
        raise ValueError("cannot take proportions of an empty sample set")
    return MixtureWeights(np.bincount(domains, minlength=corpus.num_domains) / domains.size)


@dataclass(frozen=True)
class Schedule:
    """When a data-centric component fires: warmup, interval, and update count.

    ``invocation_steps`` turns a schedule into its points and states the
    rule for when each point fires.
    """

    warmup_step: int = 0
    update_step: int = 1
    update_times: int = 0

    def __post_init__(self):
        if self.warmup_step < 0:
            raise BadSchedule(f"warmup_step must be >= 0, got {self.warmup_step}")
        if self.update_times < 0:
            raise BadSchedule(f"update_times must be >= 0, got {self.update_times}")
        if self.update_times > 0 and self.update_step < 1:
            raise BadSchedule(f"update_step must be >= 1 when update_times > 0, got {self.update_step}")


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
class ModelCfg:
    """Architecture of the analytic backend: next-token LM over one vocabulary."""

    vocab_size: int = 64
    embed_dim: int = 16
    hidden_dim: int = 32
    task: str = "lm"

    def __post_init__(self):
        if min(self.vocab_size, self.embed_dim, self.hidden_dim) < 1:
            raise BadParams("model dimensions must be positive")
        if self.task != "lm":
            raise BadParams(f"unsupported task {self.task!r}; only next-token 'lm' is implemented")


@dataclass(frozen=True)
class OptimCfg:
    kind: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 8

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise BadParams(f"optimizer kind must be 'sgd' or 'adam', got {self.kind!r}")
        if self.batch_size < 1:
            raise BadParams(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; mirrors the config file's sections."""

    train_type: str = "static"
    component_name: str = ""
    schedule: Schedule = field(default_factory=Schedule)
    init_mixture_proportions: Optional[MixtureWeights] = None
    model_cfg: ModelCfg = field(default_factory=ModelCfg)
    optim_cfg: OptimCfg = field(default_factory=OptimCfg)
    component_params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0
    max_steps: int = 1000
    eval_interval: int = 200

    def __post_init__(self):
        if self.train_type not in TRAIN_TYPES:
            raise UnknownTrainType(f"train_type {self.train_type!r}; expected one of {TRAIN_TYPES}")
        object.__setattr__(self, "component_params", dict(self.component_params))
        if self.seed < 0:
            raise BadParams(f"seed must be >= 0, got {self.seed}")
        if self.max_steps < 0:
            raise BadParams(f"max_steps must be >= 0, got {self.max_steps}")
        if self.eval_interval < 1:
            raise BadParams(f"eval_interval must be >= 1, got {self.eval_interval}")


def validate_config(cfg: RunConfig, corpus: Corpus) -> None:
    """Cross-check a RunConfig against the corpus it will train on.

    Raises the specific error naming the offending field; component-name
    resolvability is checked later against the registry. Train type and
    schedule are checked by ``RunConfig`` and ``Schedule`` themselves.
    The optimizer's numbers are bounded here, not by ``OptimCfg``, which
    holds any float (``learning_rate`` 0 is the identity step) so that
    every config round-trips: a run needs a finite ``learning_rate`` > 0,
    betas in [0, 1) and a finite ``eps`` > 0.
    """
    optim = cfg.optim_cfg
    if not (np.isfinite(optim.learning_rate) and optim.learning_rate > 0.0):
        raise BadParams(f"learning_rate must be finite and > 0, got {optim.learning_rate}")
    for name in ("beta1", "beta2"):
        if not 0.0 <= getattr(optim, name) < 1.0:
            raise BadParams(f"{name} must lie in [0, 1), got {getattr(optim, name)}")
    if not (np.isfinite(optim.eps) and optim.eps > 0.0):
        raise BadParams(f"eps must be finite and > 0, got {optim.eps}")
    if cfg.train_type != "static" and not cfg.component_name:
        raise UnknownComponent(f"component_name must be non-empty for train_type {cfg.train_type!r}")
    if cfg.init_mixture_proportions is not None and len(cfg.init_mixture_proportions) != corpus.num_domains:
        raise BadSimplex(
            f"init_mixture_proportions has length {len(cfg.init_mixture_proportions)}, corpus has K={corpus.num_domains}"
        )


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluation snapshot of a training run.

    ``per_domain_val_loss`` holds (domain_id, mean token cross-entropy) pairs
    for the domains present in the validation corpus; domains with no
    validation samples are absent rather than zero. ``overall_val_loss`` is
    the token-weighted mean over all validation tokens.
    ``active_selection_digest`` is 0 whenever the run is not restricting the
    training pool (including a selection that keeps the full pool).
    """

    step: int
    train_loss: float
    per_domain_val_loss: tuple
    overall_val_loss: float
    mixture: tuple
    active_selection_digest: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "per_domain_val_loss", tuple((int(d), float(v)) for d, v in self.per_domain_val_loss)
        )
        object.__setattr__(self, "mixture", tuple(float(x) for x in self.mixture))
        values = [v for _, v in self.per_domain_val_loss]
        if not all(np.isfinite(v) for v in values) or not np.isfinite(self.overall_val_loss):
            raise NonFinite("metrics record contains non-finite losses")


def id_set_digest(ids: Iterable[int]) -> int:
    """Stable 64-bit digest of a set of sample ids (order independent)."""
    payload = ",".join(str(i) for i in sorted(int(i) for i in ids)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
