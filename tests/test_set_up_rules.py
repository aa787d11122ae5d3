"""Each run set-up rule has one home, and every site goes through it.

The bounds rule: every dataclass in ``dataflex`` with a ``bounded`` field
refuses a value far outside that field's range when built directly, so a
parameter class that forgets the hook (``core.Checked``) fails here. The
seed-stream rule: ``core.child_rng`` gives the children that
``SeedSequence.spawn`` gives, and a run's three streams are consecutive
children from its ``seed_child``. A scan of the source fails on a seed
sequence built outside ``child_rng`` and on a ``__post_init__`` that only
repeats the hook.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import typing
from pathlib import Path

import numpy as np
import pytest

import dataflex
from dataflex import (
    MixtureWeights,
    ModelCfg,
    OptimCfg,
    RunConfig,
    build_domain_specs,
    empirical_proportions,
    generate_corpus,
    init_model,
    sample_batch,
)
from dataflex.core import _unwrap_optional, child_rng
from dataflex.errors import DataflexError
from dataflex.mixers import Component
from dataflex.trainers import COMPONENT_STREAM, _Run

SRC = Path(dataflex.__file__).parent
FAR = 10**9


def bounded_classes():
    """Every dataclass defined in a ``dataflex`` module with at least one ``bounded`` field."""
    found = {}
    for info in pkgutil.iter_modules(dataflex.__path__):
        module = importlib.import_module(f"dataflex.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                fields = [f for f in dataclasses.fields(cls) if "bounds" in f.metadata]
                if fields:
                    found[f"{info.name}.{name}"] = (cls, fields)
    return found


def far_outside(cls, f):
    """Values of field ``f`` far outside its range: NaN, an int past each bound, or an unlisted choice."""
    if f.metadata["choices"] is not None:
        return ["__unlisted__"]
    hint, _ = _unwrap_optional(typing.get_type_hints(cls)[f.name])
    if hint is float:
        return [math.nan]
    below = {"gt": -FAR, "ge": -FAR, "lt": FAR, "le": FAR}
    return [int(bound) + below[key] for key, bound in f.metadata["bounds"].items()]


BOUNDED = bounded_classes()
CASES = [(label, f.name, value) for label, (cls, fields) in BOUNDED.items() for f in fields for value in far_outside(cls, f)]


def test_the_scan_finds_every_parameter_class():
    names = {label.split(".")[1] for label in BOUNDED}
    assert names >= {
        "ModelCfg", "OptimCfg", "Schedule", "RunConfig", "SyntheticParams", "InfluenceParams", "TsdsParams",
        "DoremiParams", "OdmParams", "SelectParams", "ProbeSelector", "KnnSelector", "WeightStrategy",
    }


@pytest.mark.parametrize("label,name,value", CASES, ids=[f"{label}.{name}={value}" for label, name, value in CASES])
def test_direct_construction_refuses_a_value_far_outside_the_field(label, name, value):
    cls, _ = BOUNDED[label]
    with pytest.raises(DataflexError) as info:
        cls(**{name: value})
    assert info.value.field == name


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_child_rng_draws_what_spawn_gives(seed):
    for i in (0, 1, 2, 12):
        want = np.random.default_rng(np.random.SeedSequence(seed).spawn(i + 1)[i])
        assert np.array_equal(child_rng(seed, i).random(5), want.random(5))


def test_a_run_draws_from_three_consecutive_children_of_its_seed_child():
    class Recording(Component):
        def start(self, run):
            self.component_draws = run.rng.random(4)
            self.batches = []

        def step(self, run, batch, step):
            self.batches.append([s.id for s in batch])
            return super().step(run, batch, step)

    arch = ModelCfg(vocab_size=32, embed_dim=6, hidden_dim=8)
    corpus = generate_corpus(build_domain_specs(3, arch.vocab_size, seed=1), MixtureWeights.uniform(3), 60, seed=2)
    cfg = RunConfig(model_cfg=arch, optim_cfg=OptimCfg(batch_size=4), seed=5)
    kids = [np.random.default_rng(kid) for kid in np.random.SeedSequence(cfg.seed).spawn(13)]
    assert COMPONENT_STREAM == 2

    recording = Recording()
    run = _Run(cfg, corpus, None, recording, seed_child=10)
    assert np.array_equal(run.model.params, init_model(arch, kids[10]).params)
    assert np.array_equal(recording.component_draws, kids[12].random(4))
    run.drive(3)
    policy = empirical_proportions(corpus)
    want = [[s.id for s in sample_batch(policy, corpus, 4, kids[11])[0]] for _ in range(3)]
    assert recording.batches == want


def enclosing_calls(tree):
    """(innermost enclosing function or class names, call node) for each call in ``tree``."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.Call):
                yield inner, child
            yield from walk(child, inner)

    yield from walk(tree, ())


def called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def sources():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_seed_sequences_are_built_only_in_child_rng():
    sites = [
        (module, scope)
        for module, tree in sources().items()
        for scope, call in enclosing_calls(tree)
        if called_name(call) in ("SeedSequence", "spawn")
    ]
    assert ("core.py", ("child_rng",)) in sites, "the scan found no seed sequence in child_rng"
    assert [site for site in sites if site != ("core.py", ("child_rng",))] == []


def test_no_post_init_only_repeats_the_bounds_hook():
    repeats = []
    for module, tree in sources().items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                    continue
                body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
                only = len(body) == 1 and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Call)
                if only and ast.unparse(body[0].value) == "check_fields(self)":
                    repeats.append(f"{module}:{cls.name}")
    assert repeats == ["core.py:Checked"]
