"""An ODM run against a bit-for-bit oracle that forwards each batch twice.

The oracle is an ODM run written out as one explicit loop: each step first
takes the batch's losses with ``batch_losses`` into a per-domain window,
then trains on the batch with all-ones weights; the bandit is built at the
first point from the policy then in effect. ``OdmMixer`` instead fills its
window from the training step's own forward pass and builds the bandit when
the run starts. Metrics, trajectory (rewards included) and final parameters
must match exactly, and the run must forward each batch only once.
"""

import numpy as np
import pytest

from dataflex import (
    MetricsRecord,
    MixtureWeights,
    ModelCfg,
    OptimCfg,
    RunConfig,
    Schedule,
    build_domain_specs,
    empirical_proportions,
    eval_per_domain,
    generate_corpus,
    init_model,
    init_optimizer,
    invocation_steps,
    make_validation,
    mixers,
    odm_init,
    odm_update,
    run_training,
    sample_batch,
    train_step,
)
from dataflex import model as model_module
from dataflex.core import params_from
from dataflex.fileio import metrics_digest
from dataflex.mixers import OdmParams
from dataflex.model import batch_losses


def two_pass_odm_run(cfg, corpus, val):
    """Metrics, trajectory and final model of an ODM run that forwards each batch twice."""
    params = params_from(OdmParams, cfg.component_params, "odm mixer")
    k = corpus.num_domains
    kids = np.random.SeedSequence(cfg.seed).spawn(3)
    model = init_model(cfg.model_cfg, np.random.default_rng(kids[0]))
    opt = init_optimizer(cfg.optim_cfg, model.params.size)
    rng_sample = np.random.default_rng(kids[1])
    policy = cfg.init_mixture_proportions or empirical_proportions(corpus)
    points = set(invocation_steps(cfg.schedule))
    total, count = np.zeros(k), np.zeros(k, dtype=np.int64)
    state = None
    metrics, trajectory = [], []
    for step in range(cfg.max_steps + 1):
        if step > 0:
            batch, _ = sample_batch(policy, corpus, cfg.optim_cfg.batch_size, rng_sample)
            for s, loss in zip(batch, batch_losses(model, batch)):
                total[s.domain_id] += loss
                count[s.domain_id] += 1
            model, opt, loss = train_step(model, opt, batch, np.ones(len(batch)))
            if step % cfg.eval_interval == 0:
                ev = eval_per_domain(model, val)
                metrics.append(MetricsRecord(step, loss, ev.per_domain, ev.overall, tuple(policy.weights), 0))
        if step in points:
            if state is None:
                state = odm_init(policy, params)
            means = np.full(k, np.nan)
            seen = count > 0
            means[seen] = total[seen] / count[seen]
            total[:], count[:] = 0.0, 0
            state = odm_update(state, means, params)
            policy = state.policy
            rewards = np.maximum(state.ema_loss, params.clip_threshold) / params.reward_scale
            trajectory.append({"step": step, "weights": [float(x) for x in policy.weights], "rewards": [float(r) for r in rewards]})
    return metrics, trajectory, model


def odm_setup(kind="adam", schedule=Schedule(4, 5, 4), params=None, max_steps=30, eval_interval=5):
    specs = build_domain_specs(3, 48, seed=2, noise_domains=(2,))
    corpus = generate_corpus(specs, MixtureWeights(np.array([0.2, 0.3, 0.5])), 90, seed=3)
    val = make_validation(specs, "in_distribution", 15, seed=5)
    cfg = RunConfig(
        model_cfg=ModelCfg(vocab_size=48, embed_dim=8, hidden_dim=10),
        optim_cfg=OptimCfg(kind=kind, learning_rate=0.05, batch_size=6),
        train_type="dynamic_mix",
        component_name="odm",
        component_params=params or {},
        schedule=schedule,
        seed=7,
        max_steps=max_steps,
        eval_interval=eval_interval,
    )
    return cfg, corpus, val


@pytest.mark.parametrize(
    "kind,schedule,params",
    [
        ("adam", Schedule(4, 5, 4), {}),
        ("sgd", Schedule(4, 5, 4), {"ema_decay": 0.5, "reward_scale": 2.0, "eps_min": 0.05}),
        ("adam", Schedule(0, 6, 4), {"clip_threshold": 1.0}),
    ],
    ids=["adam", "sgd", "point_zero"],
)
def test_odm_run_matches_two_pass_oracle(kind, schedule, params):
    cfg, corpus, val = odm_setup(kind, schedule, params)
    metrics, trajectory, model = two_pass_odm_run(cfg, corpus, val)
    result = run_training(cfg, corpus, val)
    assert metrics_digest(result.metrics) == metrics_digest(metrics)
    assert result.weight_trajectory == trajectory
    assert [rec["step"] for rec in trajectory] == invocation_steps(schedule)
    assert result.model.params.tobytes() == model.params.tobytes()


def test_odm_run_forwards_each_batch_once(monkeypatch):
    cfg, corpus, val = odm_setup(max_steps=12, eval_interval=13)  # no eval record, so no eval forward pass
    calls = {"batch_losses": 0, "train_step": 0, "forward": 0}

    def counting(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    monkeypatch.setattr(mixers, "batch_losses", counting("batch_losses", mixers.batch_losses))
    monkeypatch.setattr(mixers, "train_step", counting("train_step", mixers.train_step))
    monkeypatch.setattr(model_module, "_forward", counting("forward", model_module._forward))
    run_training(cfg, corpus, val)
    assert calls == {"batch_losses": 0, "train_step": cfg.max_steps, "forward": cfg.max_steps * cfg.optim_cfg.batch_size}
