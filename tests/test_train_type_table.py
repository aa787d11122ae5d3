"""``core.TRAIN_TYPE_KINDS`` is the one pairing of train types with registry kinds.

Every entry is run through ``run_training`` with a fresh registry whose
factories record what they build: ``static`` resolves nothing, a selector
scores through ``_Selection``, and a mixer or weighter is the run's own
component. The digest tool's kind -> train type map is the table inverted.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dataflex import (
    ComponentRegistry,
    MixtureWeights,
    ModelCfg,
    OptimCfg,
    RunConfig,
    Schedule,
    build_domain_specs,
    generate_corpus,
    make_validation,
    run_training,
)
from dataflex.core import TRAIN_TYPE_KINDS, TRAIN_TYPES
from dataflex.errors import UnknownComponent
from dataflex.mixers import Component
from dataflex.selectors import ScoreVector, _pool_ids
from dataflex.trainers import COMPONENT_KINDS, _Selection

ROOT = Path(__file__).resolve().parents[1]
ARCH = ModelCfg(vocab_size=24, embed_dim=6, hidden_dim=8)


class RecordingSelector:
    def __init__(self):
        self.components = []

    def score(self, run):
        self.components.append(run.component)
        return ScoreVector(_pool_ids(run.corpus.samples), np.arange(len(run.corpus), dtype=np.float64), "recorded")


class RecordingComponent(Component):
    def __init__(self):
        self.runs = []

    def start(self, run):
        self.runs.append(run)


def recording_registry():
    """A fresh registry with one ``recorded`` factory per kind, and the list of (kind, params, built) calls."""
    calls = []
    registry = ComponentRegistry()

    def factory(kind):
        def build(params):
            built = RecordingSelector() if kind == "selector" else RecordingComponent()
            calls.append((kind, params, built))
            return built

        return build

    for kind in COMPONENT_KINDS:
        registry.register(kind, "recorded", factory(kind))
    return registry, calls


def tiny_run(train_type):
    specs = build_domain_specs(2, ARCH.vocab_size, seed=1)
    corpus = generate_corpus(specs, MixtureWeights.uniform(2), 20, seed=2)
    val = make_validation(specs, "in_distribution", 6, seed=3)
    cfg = RunConfig(
        train_type=train_type,
        component_name="" if TRAIN_TYPE_KINDS[train_type] is None else "recorded",
        schedule=Schedule(warmup_step=2, update_step=2, update_times=1),
        model_cfg=ARCH,
        optim_cfg=OptimCfg(batch_size=4),
        component_params={"ratio": 0.5} if train_type == "dynamic_select" else {"note": 1},
        seed=4,
        max_steps=4,
        eval_interval=2,
    )
    return cfg, corpus, val


def test_train_types_and_kinds_are_read_from_the_table_in_its_order():
    assert TRAIN_TYPES == tuple(TRAIN_TYPE_KINDS) == ("static", "dynamic_select", "dynamic_mix", "dynamic_weight")
    assert COMPONENT_KINDS == ("selector", "mixer", "weighter")
    assert [kind for kind in TRAIN_TYPE_KINDS.values() if kind] == list(COMPONENT_KINDS)


@pytest.mark.parametrize("train_type", list(TRAIN_TYPE_KINDS))
def test_each_train_type_runs_the_component_of_its_kind(train_type):
    kind = TRAIN_TYPE_KINDS[train_type]
    registry, calls = recording_registry()
    result = run_training(*tiny_run(train_type), registry=registry)
    assert len(result.metrics) == 2
    if kind is None:
        assert calls == []
        assert result.invocations == []
        return
    ((built_kind, params, built),) = calls
    assert built_kind == kind
    if kind == "selector":
        assert params == {}  # the loop's own select keys are not the selector's
        assert len(built.components) == 1 and isinstance(built.components[0], _Selection)
        assert result.invocations == [2] and len(result.selections[0].ids) == 10
    else:
        assert params == {"note": 1}
        assert len(built.runs) == 1 and built.runs[0].component is built


@pytest.mark.parametrize("train_type", [t for t, kind in TRAIN_TYPE_KINDS.items() if kind])
def test_a_train_type_with_a_kind_resolves_only_that_kind(train_type):
    cfg, corpus, val = tiny_run(train_type)
    registry = ComponentRegistry()
    for kind in COMPONENT_KINDS:
        if kind != TRAIN_TYPE_KINDS[train_type]:
            registry.register(kind, "recorded", lambda params: RecordingComponent())
    with pytest.raises(UnknownComponent, match=f"no {TRAIN_TYPE_KINDS[train_type]} named 'recorded'"):
        run_training(cfg, corpus, val, registry=registry)


def test_the_digest_tool_inverts_the_table():
    spec = importlib.util.spec_from_file_location("digests_tool", ROOT / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.TRAIN_TYPES == {kind: t for t, kind in TRAIN_TYPE_KINDS.items() if kind is not None}
    assert {module.TRAIN_TYPES[kind] for kind in COMPONENT_KINDS} == set(TRAIN_TYPES) - {"static"}
