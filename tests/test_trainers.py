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
    run_training,
)
from dataflex.errors import BadParams, DuplicateName, UnknownComponent
from dataflex import trainers
from dataflex.fileio import metrics_digest
from dataflex.mixers import sample_batch
from dataflex.model import embed
from dataflex.selectors import ScoreVector, TsdsParams, score_knn, score_tsds, select
from dataflex.trainers import DEFAULT_REGISTRY, InfluenceSelector, OdmMixer, _builtin_factory

ARCH = ModelCfg(vocab_size=64, embed_dim=12, hidden_dim=16)
OPTIM = OptimCfg(kind="adam", learning_rate=0.005, batch_size=8)


def small_setup(k=3, n=240, seed=5, proportions=None, noise_domains=()):
    specs = build_domain_specs(k, ARCH.vocab_size, seed=seed, noise_domains=noise_domains)
    props = proportions if proportions is not None else MixtureWeights.uniform(k)
    corpus = generate_corpus(specs, props, n, seed=seed + 1)
    val = make_validation(specs, "in_distribution", 45, seed=seed + 2, proportions=props)
    return specs, corpus, val


def cfg_for(train_type, name="", schedule=Schedule(), params=None, **kw):
    return RunConfig(
        train_type=train_type,
        component_name=name,
        schedule=schedule,
        model_cfg=ARCH,
        optim_cfg=OPTIM,
        component_params=params or {},
        seed=kw.pop("seed", 3),
        max_steps=kw.pop("max_steps", 60),
        eval_interval=kw.pop("eval_interval", 20),
        **kw,
    )


class TestRegistry:
    def test_builtins_resolve(self):
        for name in ("loss", "delta_loss", "less", "nice", "near", "tsds", "random"):
            assert DEFAULT_REGISTRY.resolve("selector", name, {}) is not None
        for name in ("static", "random", "doremi", "odm"):
            assert DEFAULT_REGISTRY.resolve("mixer", name, {}) is not None
        assert DEFAULT_REGISTRY.resolve("weighter", "loss", {}) is not None

    def test_less_resolves_to_influence_selector(self):
        comp = DEFAULT_REGISTRY.resolve("selector", "less", {"projection_dim": 64})
        assert isinstance(comp, InfluenceSelector)
        assert comp.params.projection_dim == 64

    def test_doremi_resolves_to_mixer(self):
        assert DEFAULT_REGISTRY.resolve("mixer", "doremi", {}) is not None

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            DEFAULT_REGISTRY.resolve("selector", "bogus", {})

    def test_duplicate_registration_rejected(self):
        reg = ComponentRegistry()
        reg.register("selector", "loss", _builtin_factory("selector", "loss"))
        with pytest.raises(DuplicateName):
            reg.register("selector", "loss", _builtin_factory("selector", "loss"))

    def test_unknown_params_rejected(self):
        with pytest.raises(BadParams):
            DEFAULT_REGISTRY.resolve("selector", "loss", {"mystery": 1})


class TestInvocationSteps:
    def test_reference_schedule(self):
        steps = invocation_steps(Schedule(100, 50, 30))
        assert len(steps) == 30
        assert steps[0] == 100
        assert steps[-1] == 1550
        assert steps == list(range(100, 1551, 50))

    def test_zero_updates(self):
        assert invocation_steps(Schedule(7, 3, 0)) == []

    def test_single_update(self):
        assert invocation_steps(Schedule(100, 100, 1)) == [100]


class TestScheduleContract:
    def test_fire_count_capped_by_max_steps(self):
        _, corpus, val = small_setup()
        sched = Schedule(10, 10, 50)  # points 10, 20, ..., 500
        cfg = cfg_for("dynamic_select", "loss", sched, {"ratio": 0.5}, max_steps=75)
        result = run_training(cfg, corpus, val)
        expected = [p for p in invocation_steps(sched) if p <= 75]
        assert result.invocations == expected

    def test_point_at_max_steps_fires(self):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_select", "loss", Schedule(30, 10, 2), {"ratio": 0.5}, max_steps=40)
        result = run_training(cfg, corpus, val)
        assert result.invocations == [30, 40]


class TestBaselineCollapse:
    def test_three_way_digest_equality(self):
        _, corpus, val = small_setup()
        sched = Schedule(10, 20, 2)
        runs = {
            "static": cfg_for("static", max_steps=80, eval_interval=20),
            "select_all": cfg_for("dynamic_select", "loss", sched, {"ratio": 1.0}, max_steps=80, eval_interval=20),
            "uniform_weight": cfg_for("dynamic_weight", "loss", Schedule(10, 1, 0), {"strategy": "uniform"}, max_steps=80, eval_interval=20),
            "static_mixer": cfg_for("dynamic_mix", "static", sched, max_steps=80, eval_interval=20),
        }
        digests = {name: metrics_digest(run_training(c, corpus, val).metrics) for name, c in runs.items()}
        assert len(set(digests.values())) == 1, digests

    def test_select_all_digest_field_is_zero(self):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_select", "loss", Schedule(10, 20, 2), {"ratio": 1.0}, max_steps=60)
        result = run_training(cfg, corpus, val)
        assert all(rec.active_selection_digest == 0 for rec in result.metrics)
        assert all(ev.digest == 0 for ev in result.selections)

    def test_proper_subset_digest_nonzero(self):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_select", "loss", Schedule(10, 20, 2), {"ratio": 0.5}, max_steps=60)
        result = run_training(cfg, corpus, val)
        assert result.selections[-1].digest != 0
        assert result.metrics[-1].active_selection_digest == result.selections[-1].digest


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_select", "less", Schedule(10, 10, 3), {"ratio": 0.5, "projection_dim": 64}, max_steps=50)
        d1 = metrics_digest(run_training(cfg, corpus, val).metrics)
        d2 = metrics_digest(run_training(cfg, corpus, val).metrics)
        assert d1 == d2

    def test_random_selector_reproducible(self):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_select", "random", Schedule(10, 10, 3), {"ratio": 0.4}, max_steps=50)
        r1 = run_training(cfg, corpus, val)
        r2 = run_training(cfg, corpus, val)
        assert [ev.digest for ev in r1.selections] == [ev.digest for ev in r2.selections]

    def test_different_seed_changes_stream(self):
        _, corpus, val = small_setup()
        a = cfg_for("static", seed=1)
        b = cfg_for("static", seed=2)
        assert metrics_digest(run_training(a, corpus, val).metrics) != metrics_digest(run_training(b, corpus, val).metrics)


class TestRunSelect:
    def test_warmup_trains_on_full_corpus(self):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_select", "loss", Schedule(40, 10, 1), {"ratio": 0.3}, max_steps=60)
        result = run_training(cfg, corpus, val)
        warmup_records = [r for r in result.metrics if r.step <= 40]
        assert all(r.active_selection_digest == 0 for r in warmup_records)

    def test_replacement_vs_accumulate(self):
        _, corpus, val = small_setup()
        sched = Schedule(10, 10, 4)
        replace_cfg = cfg_for("dynamic_select", "random", sched, {"ratio": 0.2}, max_steps=50)
        accum_cfg = cfg_for("dynamic_select", "random", sched, {"ratio": 0.2, "accumulate": True}, max_steps=50)
        rep = run_training(replace_cfg, corpus, val)
        acc = run_training(accum_cfg, corpus, val)
        assert all(len(ev.ids) == len(rep.selections[0].ids) for ev in rep.selections)
        sizes = [len(ev.ids) for ev in acc.selections]
        assert sizes == sorted(sizes) and sizes[-1] > sizes[0]

    @pytest.mark.parametrize("accumulate", [False, True])
    def test_each_step_after_a_point_trains_on_its_selection(self, monkeypatch, accumulate):
        _, corpus, val = small_setup()
        batches = []

        def recording_sample_batch(*args):
            batch, rng = sample_batch(*args)
            batches.append({s.id for s in batch})
            return batch, rng

        monkeypatch.setattr(trainers, "sample_batch", recording_sample_batch)
        params = {"ratio": 0.2, "accumulate": accumulate}
        result = run_training(cfg_for("dynamic_select", "random", Schedule(10, 10, 3), params, max_steps=50), corpus, val)
        assert len(batches) == 50 and [ev.step for ev in result.selections] == [10, 20, 30]
        for step, ids in enumerate(batches, start=1):
            active = [ev.ids for ev in result.selections if ev.step < step]
            assert ids <= set(active[-1] if active else (s.id for s in corpus.samples))

    def test_bad_ratio_rejected(self):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_select", "loss", Schedule(10, 10, 1), {"ratio": 0.0})
        with pytest.raises(BadParams):
            run_training(cfg, corpus, val)


class TestRunMix:
    def test_static_mixer_policy_constant(self):
        _, corpus, val = small_setup()
        props = empirical_proportions(corpus)
        cfg = cfg_for("dynamic_mix", "static", Schedule(10, 10, 3), max_steps=50)
        result = run_training(cfg, corpus, val)
        for rec in result.metrics:
            assert np.allclose(rec.mixture, props.weights, atol=0)

    def test_init_proportions_respected(self):
        _, corpus, val = small_setup()
        init = MixtureWeights(np.array([0.6, 0.3, 0.1]))
        cfg = cfg_for("dynamic_mix", "static", Schedule(5, 10, 1), init_mixture_proportions=init, max_steps=30)
        result = run_training(cfg, corpus, val)
        assert np.allclose(result.metrics[0].mixture, init.weights, atol=0)

    def test_seven_domain_reference_proportions_accepted(self):
        specs, corpus, val = small_setup(k=7, n=700)
        init = MixtureWeights.from_config([0.541, 0.287, 0.042, 0.037, 0.034, 0.031, 0.028])
        cfg = cfg_for("dynamic_mix", "odm", Schedule(10, 10, 2), init_mixture_proportions=init, max_steps=40)
        result = run_training(cfg, corpus, val)
        assert len(result.weight_trajectory) == 2

    def test_odm_policy_stays_on_simplex_with_floor(self):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_mix", "odm", Schedule(10, 5, 6), {"eps_min": 0.02}, max_steps=45)
        result = run_training(cfg, corpus, val)
        for rec in result.weight_trajectory:
            w = np.array(rec["weights"])
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w >= 0.02 - 1e-12)

    def test_doremi_mode_runs_pipeline_then_static(self):
        _, corpus, val = small_setup()
        cfg = cfg_for(
            "dynamic_mix",
            "doremi",
            Schedule(8, 4, 3),
            {"ref_steps": 20},
            max_steps=40,
            eval_interval=20,
        )
        result = run_training(cfg, corpus, val)
        pipeline_records = [r for r in result.weight_trajectory if "excess_losses" in r]
        assert len(pipeline_records) == 3
        final_weights = pipeline_records[-1]["weights"]
        for rec in result.metrics:
            assert np.allclose(rec.mixture, final_weights, atol=1e-15)


class TestRunWeight:
    def test_full_warmup_equals_static(self):
        _, corpus, val = small_setup()
        weight_cfg = cfg_for("dynamic_weight", "loss", Schedule(60, 1, 0), {"strategy": "softmax"}, max_steps=60)
        static_cfg = cfg_for("static", max_steps=60)
        dw = metrics_digest(run_training(weight_cfg, corpus, val).metrics)
        ds = metrics_digest(run_training(static_cfg, corpus, val).metrics)
        assert dw == ds

    def test_softmax_max_weight_above_one_after_warmup(self):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_weight", "loss", Schedule(10, 1, 0), {"strategy": "softmax"}, max_steps=30)
        result = run_training(cfg, corpus, val)
        post = [rec for rec in result.weight_stats if rec["step"] > 10]
        assert all(rec["max_weight"] > 1.0 for rec in post if rec["max_weight"] != rec["min_weight"])
        assert len(result.weight_stats) == 30


class TestComponentPurity:
    def test_mutating_component_is_caught(self):
        _, corpus, val = small_setup()
        reg = ComponentRegistry()

        class VandalSelector:
            def score(self, run):
                params = run.model.params
                params.flags.writeable = True
                params[0] += 1.0
                ids = np.array([s.id for s in run.corpus.samples])
                return ScoreVector(ids, np.zeros(len(run.corpus.samples)), "vandal")

        reg.register("selector", "vandal", lambda params: VandalSelector())
        cfg = cfg_for("dynamic_select", "vandal", Schedule(5, 5, 1), {"ratio": 0.5}, max_steps=10)
        with pytest.raises(RuntimeError, match="mutated"):
            run_training(cfg, corpus, val, registry=reg)


class TestEmbeddingSelectors:
    """``near`` and ``tsds`` score embeddings taken with the model of their run's first point."""

    @pytest.mark.parametrize(
        "name,params,score",
        [
            ("near", {"k": 5}, lambda pool_m, val_m, ids: score_knn(pool_m, val_m, 5, pool_ids=ids)),
            (
                "tsds",
                {"max_k": 50, "kde_k": 10},
                lambda pool_m, val_m, ids: score_tsds(pool_m, val_m, TsdsParams(max_K=50, kde_K=10), pool_ids=ids),
            ),
        ],
    )
    def test_both_points_score_the_embeddings_of_the_first(self, name, params, score):
        _, corpus, val = small_setup()
        cfg = cfg_for("dynamic_select", name, Schedule(10, 10, 2), {"ratio": 0.5, **params}, max_steps=20)
        result = run_training(cfg, corpus, val)
        first, second = result.selections
        ids = np.array([s.id for s in corpus.samples])

        def scores_under(model):
            pool_m = np.stack([embed(model, s) for s in corpus.samples])
            val_m = np.stack([embed(model, s) for s in val.samples])
            return score(pool_m, val_m, ids)

        # A select run's warmup draws the batches of a static run at the same seed.
        at_first_point = scores_under(run_training(cfg_for("static", max_steps=10), corpus, val).model)
        assert first.scores.scores.tobytes() == at_first_point.scores.tobytes()
        assert list(first.ids) == select(at_first_point, 120)
        assert second.scores.scores.tobytes() == first.scores.scores.tobytes()
        assert scores_under(result.model).scores.tobytes() != first.scores.scores.tobytes()
