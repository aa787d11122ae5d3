"""The schedule rule of ``invocation_steps`` holds at every call site.

A point ``p`` fires after step ``p``'s optimizer update and eval record, and
``p = 0`` fires once, before step 1. These tests pin it in mix mode, in the
DoReMi pipeline, and in ``dataflex-cli score``, which scores what the first
selection of a run would see.
"""

import argparse
import json

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
    empirical_proportions,
    generate_corpus,
    invocation_steps,
    make_validation,
    run_doremi_pipeline,
    run_training,
)
from dataflex.cli import _build_data, _load_run_inputs, main
from dataflex.trainers import _builtin_factory

ARCH = ModelCfg(vocab_size=64, embed_dim=12, hidden_dim=16)
OPTIM = OptimCfg(kind="adam", learning_rate=0.005, batch_size=8)


def small_setup(k=3, n=240, seed=5):
    specs = build_domain_specs(k, ARCH.vocab_size, seed=seed)
    props = MixtureWeights.uniform(k)
    corpus = generate_corpus(specs, props, n, seed=seed + 1)
    val = make_validation(specs, "in_distribution", 45, seed=seed + 2, proportions=props)
    return corpus, val


def cfg_for(train_type, name, schedule, params=None, max_steps=60, eval_interval=20):
    return RunConfig(
        train_type=train_type,
        component_name=name,
        schedule=schedule,
        model_cfg=ARCH,
        optim_cfg=OPTIM,
        component_params=params or {},
        seed=3,
        max_steps=max_steps,
        eval_interval=eval_interval,
    )


class TestMixModeRule:
    def test_odm_eval_at_warmup_step_carries_initial_mixture(self):
        corpus, val = small_setup()
        cfg = cfg_for("dynamic_mix", "odm", Schedule(20, 10, 2), max_steps=60, eval_interval=20)
        result = run_training(cfg, corpus, val)
        initial = empirical_proportions(corpus).weights
        at_warmup = [r for r in result.metrics if r.step == 20]
        assert len(at_warmup) == 1
        assert np.array_equal(at_warmup[0].mixture, initial)
        assert result.weight_trajectory[0]["step"] == 20
        assert not np.array_equal(result.metrics[-1].mixture, initial)

    def test_point_zero_recorded_at_step_zero(self):
        corpus, val = small_setup()
        cfg = cfg_for("dynamic_mix", "odm", Schedule(0, 10, 2), max_steps=30)
        result = run_training(cfg, corpus, val)
        assert result.invocations == invocation_steps(cfg.schedule) == [0, 10]
        assert [rec["step"] for rec in result.weight_trajectory] == result.invocations

    def test_select_point_zero_recorded_at_step_zero(self):
        corpus, val = small_setup()
        cfg = cfg_for("dynamic_select", "random", Schedule(0, 10, 2), {"ratio": 0.5}, max_steps=30)
        result = run_training(cfg, corpus, val)
        assert [ev.step for ev in result.selections] == result.invocations == [0, 10]
        assert all(r.active_selection_digest == result.selections[-1].digest for r in result.metrics if r.step > 10)


class TestDoremiPipelineRule:
    def test_trajectory_steps_are_the_points(self):
        corpus, val = small_setup()
        for sched in (Schedule(0, 4, 3), Schedule(8, 4, 3)):
            cfg = cfg_for("dynamic_mix", "doremi", sched, {"ref_steps": 5})
            pipeline = run_doremi_pipeline(cfg, corpus)
            assert [rec["step"] for rec in pipeline.trajectory] == invocation_steps(sched)

    @pytest.mark.parametrize("sched,max_steps", [(Schedule(4, 3, 2), 12), (Schedule(0, 4, 3), 20), (Schedule(8, 4, 3), 10)])
    def test_run_records_each_pipeline_point_once(self, sched, max_steps):
        corpus, val = small_setup()
        cfg = cfg_for("dynamic_mix", "doremi", sched, {"ref_steps": 5}, max_steps=max_steps, eval_interval=5)
        points = [rec["step"] for rec in run_doremi_pipeline(cfg, corpus).trajectory]
        result = run_training(cfg, corpus, val)
        assert points == invocation_steps(sched)
        assert result.invocations == [rec["step"] for rec in result.weight_trajectory] == points

    def test_first_update_sees_step_one_losses(self):
        corpus, val = small_setup()
        cfg = cfg_for("dynamic_mix", "doremi", Schedule(1, 4, 1), {"ref_steps": 5, "clip_excess": False})
        first = run_doremi_pipeline(cfg, corpus).trajectory[0]
        # Point 1 fires after step 1, so its window holds that step's batch.
        assert first["step"] == 1
        assert any(lam != 0.0 for lam in first["excess_losses"])


def _write_config(path, name, warmup):
    path.write_text(
        f"""\
model:
  vocab_size: 64
  embed_dim: 12
  hidden_dim: 16
data:
  synthetic:
    num_samples: 240
    num_domains: 3
    seed: 5
    val_size: 45
train:
  optimizer: adam
  learning_rate: 0.005
  batch_size: 8
  seed: 3
  max_steps: 12
  eval_interval: 6
dataflex:
  train_type: dynamic_select
  component_name: {name}
  warmup_step: {warmup}
  update_step: 4
  update_times: 2
  component_params:
    ratio: 0.5
"""
    )


@pytest.mark.parametrize("name,warmup", [("loss", 5), ("loss", 0), ("delta_loss", 5), ("random", 5)])
def test_cli_score_equals_first_selection_scores(tmp_path, name, warmup):
    config = tmp_path / "run.yaml"
    _write_config(config, name, warmup)
    out = tmp_path / "scores.jsonl"
    assert main(["score", str(config), str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]

    seen = []

    class Recording:
        def __init__(self, inner):
            self.inner = inner

        def score(self, run):
            scores = self.inner.score(run)
            seen.append(scores)
            return scores

    reg = ComponentRegistry()
    reg.register("selector", name, lambda params: Recording(_builtin_factory("selector", name)(params)))
    tree, cfg = _load_run_inputs(config, argparse.Namespace())
    corpus, val = _build_data(tree, cfg)
    result = run_training(cfg, corpus, val, registry=reg)

    assert result.invocations[0] == warmup
    first = seen[0]
    assert [r["id"] for r in rows] == first.ids.tolist()
    assert [r["score"] for r in rows] == first.scores.tolist()
    assert {r["method"] for r in rows} == {first.method}
