"""``run_doremi_pipeline`` against a bit-for-bit oracle of its two stages.

The oracle is the pipeline written out as two explicit loops: a reference
model trained on the initial mixture, then a proxy trained under the
evolving weights, with one per-domain window of proxy and reference batch
losses between points. It uses seed children 8 and 9 for the reference
(init, sampling) and 10 and 11 for the proxy. Weights and trajectory must
match exactly, whatever loop the pipeline itself runs on.
"""

from dataclasses import replace

import numpy as np
import pytest

from dataflex import (
    MixtureWeights,
    ModelCfg,
    OptimCfg,
    RunConfig,
    Schedule,
    build_domain_specs,
    doremi_update,
    empirical_proportions,
    excess_loss,
    generate_corpus,
    init_model,
    init_optimizer,
    invocation_steps,
    run_doremi_pipeline,
    sample_batch,
    train_step,
)
from dataflex.core import params_from
from dataflex.mixers import DoremiParams
from dataflex.model import batch_losses


def oracle_pipeline(cfg, corpus):
    knobs = params_from(DoremiParams, cfg.component_params, "doremi mixer")
    k = corpus.num_domains
    dp = knobs
    schedule = cfg.schedule
    points = set(invocation_steps(schedule))
    ref_steps = knobs.ref_steps
    if ref_steps is None:
        ref_steps = max(schedule.warmup_step + schedule.update_step * schedule.update_times, 1)
    proxy_hidden = knobs.proxy_hidden_dim or max(2, cfg.model_cfg.hidden_dim // 2)
    proxy_arch = replace(cfg.model_cfg, hidden_dim=proxy_hidden)
    init_policy = cfg.init_mixture_proportions or empirical_proportions(corpus)

    kids = np.random.SeedSequence(cfg.seed).spawn(12)
    rng_ref_init, rng_ref_sample = (np.random.default_rng(kids[i]) for i in (8, 9))
    rng_proxy_init, rng_proxy_sample = (np.random.default_rng(kids[i]) for i in (10, 11))

    ref_model = init_model(proxy_arch, rng_ref_init)
    ref_opt = init_optimizer(cfg.optim_cfg, ref_model.params.size)
    for _ in range(ref_steps):
        batch, _ = sample_batch(init_policy, corpus, cfg.optim_cfg.batch_size, rng_ref_sample)
        ref_model, ref_opt, _ = train_step(ref_model, ref_opt, batch, np.ones(len(batch)))

    alpha = MixtureWeights.uniform(k)
    proxy_model = init_model(proxy_arch, rng_proxy_init)
    proxy_opt = init_optimizer(cfg.optim_cfg, proxy_model.params.size)
    trajectory = []
    alpha_history = []
    proxy_sum = np.zeros(k)
    ref_sum = np.zeros(k)
    counts = np.zeros(k, dtype=np.int64)

    def fire(step, alpha):
        lam = np.zeros(k)
        seen = counts > 0
        diff = excess_loss(
            np.divide(proxy_sum, counts, out=np.zeros(k), where=seen),
            np.divide(ref_sum, counts, out=np.zeros(k), where=seen),
            clip=knobs.clip_excess,
        )
        lam[seen] = diff[seen]
        alpha = doremi_update(alpha, lam, dp)
        alpha_history.append(alpha.weights.copy())
        trajectory.append({"step": step, "weights": [float(x) for x in alpha.weights], "excess_losses": [float(x) for x in lam]})
        proxy_sum[:] = 0.0
        ref_sum[:] = 0.0
        counts[:] = 0
        return alpha

    if 0 in points:
        alpha = fire(0, alpha)
    for step in range(1, max(points, default=0) + 1):
        batch, _ = sample_batch(alpha, corpus, cfg.optim_cfg.batch_size, rng_proxy_sample)
        p_losses = batch_losses(proxy_model, batch)
        r_losses = batch_losses(ref_model, batch)
        for s, pl, rl in zip(batch, p_losses, r_losses):
            proxy_sum[s.domain_id] += pl
            ref_sum[s.domain_id] += rl
            counts[s.domain_id] += 1
        proxy_model, proxy_opt, _ = train_step(proxy_model, proxy_opt, batch, np.ones(len(batch)))
        if step in points:
            alpha = fire(step, alpha)

    if knobs.average_weights and alpha_history:
        return MixtureWeights(np.mean(alpha_history, axis=0)), trajectory
    return alpha, trajectory


ALL_KNOBS = {
    "eta": 0.5,
    "epsilon": 0.05,
    "clip_excess": False,
    "average_weights": True,
    "ref_steps": 7,
    "proxy_hidden_dim": 6,
}


@pytest.mark.parametrize(
    "schedule,params,init",
    [
        (Schedule(6, 4, 3), {}, None),
        (Schedule(5, 3, 4), ALL_KNOBS, [0.5, 0.3, 0.2]),
        (Schedule(0, 5, 3), {"ref_steps": 4}, None),
        (Schedule(4, 4, 0), {}, None),
    ],
    ids=["defaults", "all_knobs", "point_zero", "no_updates"],
)
def test_pipeline_matches_two_loop_oracle(schedule, params, init):
    specs = build_domain_specs(3, 64, seed=2, noise_domains=(2,))
    corpus = generate_corpus(specs, MixtureWeights(np.array([0.2, 0.3, 0.5])), 90, seed=3)
    cfg = RunConfig(
        model_cfg=ModelCfg(vocab_size=64, embed_dim=12, hidden_dim=16),
        optim_cfg=OptimCfg(kind="adam", learning_rate=0.01, batch_size=6),
        train_type="dynamic_mix",
        component_name="doremi",
        component_params=params,
        schedule=schedule,
        init_mixture_proportions=None if init is None else MixtureWeights(np.array(init)),
        seed=4,
    )
    weights, trajectory = oracle_pipeline(cfg, corpus)
    out = run_doremi_pipeline(cfg, corpus)
    assert out.weights.weights.tobytes() == weights.weights.tobytes()
    assert out.trajectory == trajectory
    assert [rec["step"] for rec in trajectory] == invocation_steps(schedule)
