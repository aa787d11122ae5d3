"""One bounds rule: every range a parameter dataclass accepts is declared on its field.

For every registered ``(kind, name)`` and for ``SelectParams``,
``SyntheticParams`` and ``RunConfig``: each endpoint is accepted or rejected
as the table below says, NaN fails every float field with a ``BadParams``
that names the key, and both hold through the user path (``params_from``,
aliases included) and through direct construction.
"""

import dataclasses
import math
import typing
from functools import partial

import pytest

from dataflex import RunConfig
from dataflex.core import params_from
from dataflex.data import SyntheticParams
from dataflex.errors import BadParams
from dataflex.trainers import _BUILTINS, COMPONENT_KINDS, DEFAULT_REGISTRY, SelectParams, select_params

#: label -> (params dataclass, aliases from user keys to fields, build from user params).
TARGETS = {
    **{
        f"{kind} {name}": (_BUILTINS[(kind, name)][0], _BUILTINS[(kind, name)][2] or {}, partial(DEFAULT_REGISTRY.resolve, kind, name))
        for kind in COMPONENT_KINDS
        for name in DEFAULT_REGISTRY.names(kind)
    },
    "select mode": (SelectParams, {}, select_params),
    "data.synthetic": (SyntheticParams, {}, lambda p: params_from(SyntheticParams, p, "data.synthetic")),
    "config": (RunConfig, {}, lambda p: params_from(RunConfig, p, "config")),
}

#: label -> user key -> [(value, accepted)]: each bound's endpoint, and a
#: choice that is taken and one that is not.
ENDPOINTS = {
    "mixer doremi": {
        "eta": [(0.0, False), (math.inf, False)],
        "epsilon": [(0.0, True), (1.0, False)],
        "ref_steps": [(0, True), (-1, False)],
        "proxy_hidden_dim": [(1, True), (0, False)],
    },
    "mixer odm": {
        "ema_decay": [(0.0, True), (1.0, False)],
        "reward_scale": [(0.0, False)],
        "eps_min": [(0.0, False)],
        "clip_threshold": [(-math.inf, True), (math.inf, True)],
    },
    "selector less": {
        "projection_dim": [(1, True), (0, True), (-1, False)],
        "projection_seed": [(0, True), (-1, False)],
        "preconditioning": [("none", True), ("Adam", False)],
        "aggregation": [("max_cosine", True), ("max", False)],
    },
    "selector nice": {
        "probe_lr": [(0.0, False), (math.inf, False)],
        "metric": [("top1_accuracy", True), ("accuracy", False)],
    },
    "selector near": {"k": [(1, True), (0, False)]},
    "selector tsds": {
        "max_k": [(1, True), (0, False)],
        "kde_k": [(1, True), (0, False)],
        "sigma": [(0.0, False), (1e-300, False), (1e-160, True)],
        "tradeoff_alpha": [(0.0, True), (1.0, True)],
        "c": [(0.0, False)],
    },
    "weighter loss": {
        "strategy": [("uniform", True), ("quadratic", False)],
        "temperature": [(0.0, False)],
    },
    "select mode": {"ratio": [(0.0, False), (1.0, True)]},
    "data.synthetic": {
        "num_samples": [(1, True), (0, False)],
        "num_domains": [(1, True), (0, False)],
        "seed": [(0, True), (-1, False)],
        "mean_length": [(2, True), (1, False)],
        "val_size": [(1, True), (0, False)],
        "val_mode": [("single_domain", True), ("bogus", False)],
        "val_seed": [(0, True), (-1, False)],
    },
    "config": {
        "seed": [(0, True), (-1, False)],
        "max_steps": [(0, True), (-1, False)],
        "eval_interval": [(1, True), (0, False)],
    },
}


def _field_name(label, key):
    return TARGETS[label][1].get(key, key)


def _float_fields(cls):
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if hints[f.name] in (float, typing.Optional[float])]


@pytest.mark.parametrize("label", sorted(TARGETS))
def test_every_declared_bound_has_its_endpoints_in_the_table(label):
    cls = TARGETS[label][0]
    declared = {f.name for f in dataclasses.fields(cls) if f.metadata}
    assert declared == {_field_name(label, key) for key in ENDPOINTS.get(label, {})}
    assert set(_float_fields(cls)) <= declared


@pytest.mark.parametrize(
    "label,key,value,accepted",
    [(label, key, value, ok) for label, keys in ENDPOINTS.items() for key, cases in keys.items() for value, ok in cases],
)
def test_endpoint_accepted_or_rejected(label, key, value, accepted):
    cls, _, build = TARGETS[label]
    field = _field_name(label, key)
    if accepted:
        build({key: value})
        cls(**{field: value})
    else:
        with pytest.raises(BadParams, match=f"^{key} must "):
            build({key: value})
        with pytest.raises(BadParams, match=f"^{field} must "):
            cls(**{field: value})


@pytest.mark.parametrize(
    "label,field",
    [(label, name) for label, (cls, _, _) in sorted(TARGETS.items()) for name in _float_fields(cls)],
)
def test_nan_is_rejected_naming_the_key(label, field):
    cls, aliases, build = TARGETS[label]
    key = {name: key for key, name in aliases.items()}.get(field, field)
    with pytest.raises(BadParams, match=f"^{key} must .*, got nan$"):
        build({key: float("nan")})
    with pytest.raises(BadParams, match=f"^{field} must .*, got nan$"):
        cls(**{field: float("nan")})
