"""The benchmark's tracer still fits the package it traces.

``bench/tracer.py`` wraps functions by (module, attribute); a rename or a call
that bypasses the wrapped name would silently drop a per-layer metric, and
``bench/run.py`` divides by the ``model.train_step`` sample count. These
tests load the tracer as it is and run one tiny traced run per train type.
"""

import importlib.util
from pathlib import Path

import pytest

from dataflex import MixtureWeights, ModelCfg, OptimCfg, RunConfig, Schedule, build_domain_specs, generate_corpus
from dataflex import make_validation, run_training

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_exists():
    for owner, attr, name, _ in load_tracer().layer_wraps():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


RUNS = {
    "static": ("static", "", {}, ["mixers.sample_batch", "evaluation.eval_per_domain"]),
    "select_less": (
        "dynamic_select",
        "less",
        {"ratio": 0.5, "projection_dim": 16},
        ["selectors.score_influence", "selectors.select", "model.state_digest"],
    ),
    "mix_doremi": (
        "dynamic_mix",
        "doremi",
        {"ref_steps": 3},
        ["mixers.run_doremi_pipeline", "mixers.doremi_update", "model.batch_losses"],
    ),
    "mix_odm": ("dynamic_mix", "odm", {}, []),
    "weight_softmax": ("dynamic_weight", "loss", {"strategy": "softmax"}, ["weighters.apply", "weighters.compute_weights"]),
}


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_traced_run_counts_train_step_samples(workload):
    train_type, name, params, spans = RUNS[workload]
    arch = ModelCfg(vocab_size=32, embed_dim=4, hidden_dim=6)
    specs = build_domain_specs(2, arch.vocab_size, seed=1)
    corpus = generate_corpus(specs, MixtureWeights.uniform(2), 40, seed=2)
    val = make_validation(specs, "in_distribution", 10, seed=3)
    cfg = RunConfig(
        train_type=train_type,
        component_name=name,
        schedule=Schedule(2, 2, 2),
        model_cfg=arch,
        optim_cfg=OptimCfg(batch_size=4),
        component_params=params,
        seed=1,
        max_steps=6,
        eval_interval=3,
    )
    module = load_tracer()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in module.layer_wraps()]
    tracer = module.Tracer()
    tracer.install()
    try:
        run_training(cfg, corpus, val)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in originals)
    assert tracer.samples["model.train_step"] >= cfg.max_steps * cfg.optim_cfg.batch_size
    summary = tracer.summary()
    assert all(summary.get(span, {}).get("calls", 0) > 0 for span in ["model.train_step", *spans]), sorted(summary)
