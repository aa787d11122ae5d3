"""A run holds only the state it reads again.

A static run releases its initial model and optimizer state after step 1; a
select run keeps the reference *model* of a point, not its optimizer
state; and one sketch projection allocates no more than its sign buffer,
its product and its output, plus a small unpacking block.
"""

import gc
import tracemalloc
import weakref

import numpy as np

from dataflex import (
    MixtureWeights,
    ModelCfg,
    OptimCfg,
    RunConfig,
    Schedule,
    build_domain_specs,
    generate_corpus,
    make_validation,
)
from dataflex.mixers import Component
from dataflex.selectors import _SIGN_BLOCK, SignProjection, _sign_blocks
from dataflex.trainers import DEFAULT_REGISTRY, _Run, _Selection

ARCH = ModelCfg(vocab_size=32, embed_dim=6, hidden_dim=8)
OPTIM = OptimCfg(kind="adam", learning_rate=0.01, batch_size=4)
MIB = 1 << 20


def data():
    specs = build_domain_specs(3, ARCH.vocab_size, seed=1)
    corpus = generate_corpus(specs, MixtureWeights.uniform(3), 60, seed=2)
    val = make_validation(specs, "in_distribution", 12, seed=3)
    return corpus, val


def cfg_for(train_type, name="", schedule=Schedule(), params=None):
    return RunConfig(
        train_type=train_type,
        component_name=name,
        schedule=schedule,
        model_cfg=ARCH,
        optim_cfg=OPTIM,
        component_params=params or {},
        seed=4,
        max_steps=12,
        eval_interval=4,
    )


def test_static_run_releases_its_initial_state_after_step_1():
    class Probe(Component):
        def start(self, run):
            self.initial = (weakref.ref(run.model), weakref.ref(run.opt))
            self.alive_at_step_2 = None

        def step(self, run, batch, step):
            if step == 2:
                gc.collect()
                self.alive_at_step_2 = [ref() is not None for ref in self.initial]
            return super().step(run, batch, step)

    corpus, val = data()
    probe = Probe()
    _Run(cfg_for("static"), corpus, val, probe).drive(3)
    assert probe.alive_at_step_2 == [False, False]


def test_select_run_releases_a_points_optimizer_state_after_the_next_step():
    class Probe(_Selection):
        """Records the optimizer state current at each point, then whether it is alive two steps on."""

        def start(self, run):
            super().start(run)
            self.at_points, self.alive = {}, {}

        def fire(self, run, step):
            super().fire(run, step)
            self.at_points[step] = weakref.ref(run.opt)

        def step(self, run, batch, step):
            # Step point + 1 reads the point's state; it is replaced once that step has run.
            if step - 2 in self.at_points:
                gc.collect()
                self.alive[step - 2] = self.at_points[step - 2]() is not None
            return super().step(run, batch, step)

    cfg = cfg_for("dynamic_select", "less", Schedule(warmup_step=4, update_step=4, update_times=2), {"projection_dim": 16})
    corpus, val = data()
    probe = Probe(cfg, DEFAULT_REGISTRY)
    result = _Run(cfg, corpus, val, probe).drive(cfg.max_steps)
    assert result.invocations == [4, 8]
    assert probe.alive == {4: False, 8: False}


def test_projection_at_the_bench_shape_holds_one_small_unpacking_block():
    dim_in, dim_out, rows = 26944, 512, 128
    proj = SignProjection(dim_out, dim_in, seed=0)
    mat = np.random.default_rng(0).normal(size=(rows, dim_in))
    _sign_blocks(0, dim_in, dim_out)  # the cached blocks are drawn before tracing
    sign_buffer = _SIGN_BLOCK * dim_out * 8
    product = output = rows * dim_out * 8
    tracemalloc.start()
    try:
        proj.project(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sign_buffer + product + output + MIB // 4
