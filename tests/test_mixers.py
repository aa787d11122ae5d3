import math

import numpy as np
import pytest

from dataflex import (
    Corpus,
    DoremiParams,
    MixtureWeights,
    OdmParams,
    RunConfig,
    Schedule,
    doremi_update,
    excess_loss,
    generate_corpus,
    build_domain_specs,
    odm_init,
    odm_update,
    run_doremi_pipeline,
    sample_batch,
)
from dataflex.errors import BadParams, EmptyDomainWithMass, LengthMismatch, NonFinite

from conftest import make_sample


def doremi_scalar_oracle(alpha, lam, eta, eps):
    u = [a * math.exp(eta * l) for a, l in zip(alpha, lam)]
    total = sum(u)
    k = len(alpha)
    return [(1 - eps) * (x / total) + eps / k for x in u]


class TestExcessLoss:
    def test_equal_losses_zero(self):
        out = excess_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_clipped_at_zero(self):
        out = excess_loss(np.array([0.5, 1.0]), np.array([1.0, 2.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_scalar_case(self):
        out = excess_loss(np.array([2.0, 1.0]), np.array([1.5, 1.2]))
        assert np.allclose(out, [0.5, 0.0], atol=0)

    def test_unclipped_flag(self):
        out = excess_loss(np.array([0.5, 3.0]), np.array([1.0, 2.0]), clip=False)
        assert np.allclose(out, [-0.5, 1.0], atol=0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            excess_loss(np.zeros(2), np.zeros(3))


class TestDoremiUpdate:
    def test_uniform_fixed_point(self):
        alpha = MixtureWeights.uniform(4)
        out = doremi_update(alpha, np.zeros(4), DoremiParams(eta=0.1, epsilon=0.01, K=4))
        assert np.allclose(out.weights, alpha.weights, atol=1e-15)

    def test_uniform_seven_domain_start_accepted(self):
        alpha = MixtureWeights.uniform(7)
        out = doremi_update(alpha, np.ones(7), DoremiParams(eta=0.1, epsilon=0.01, K=7))
        assert abs(out.weights.sum() - 1.0) <= 1e-9

    def test_worked_two_domain_case(self):
        out = doremi_update(
            MixtureWeights(np.array([0.5, 0.5])),
            np.array([1.0, 0.0]),
            DoremiParams(eta=0.1, epsilon=0.01, K=2),
        )
        assert abs(out.weights[0] - 0.52473) <= 1e-5
        assert abs(out.weights[1] - 0.47527) <= 1e-5

    def test_matches_scalar_oracle_randomized(self, rng):
        for _ in range(300):
            k = int(rng.integers(2, 8))
            alpha = MixtureWeights(rng.dirichlet(np.ones(k)))
            lam = rng.random(k) * 3.0
            eta = float(rng.random() * 0.5 + 0.01)
            eps = float(rng.random() * 0.2)
            out = doremi_update(alpha, lam, DoremiParams(eta=eta, epsilon=eps, K=k))
            oracle = doremi_scalar_oracle(alpha.weights, lam, eta, eps)
            assert np.allclose(out.weights, oracle, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        k = 5
        alpha = rng.dirichlet(np.ones(k))
        lam = rng.random(k)
        p = DoremiParams(eta=0.2, epsilon=0.05, K=k)
        base = doremi_update(MixtureWeights(alpha), lam, p).weights
        perm = rng.permutation(k)
        permuted = doremi_update(MixtureWeights(alpha[perm]), lam[perm], p).weights
        assert np.array_equal(permuted, base[perm])

    def test_pressure_toward_argmax_domain(self):
        k = 3
        alpha = MixtureWeights.uniform(k)
        lam = np.array([0.0, 1.0, 0.0])
        p = DoremiParams(eta=0.1, epsilon=0.01, K=k)
        prev = alpha.weights[1]
        for _ in range(10):
            alpha = doremi_update(alpha, lam, p)
            assert alpha.weights[1] > prev
            prev = alpha.weights[1]

    def test_non_finite_lambda_rejected(self):
        with pytest.raises(NonFinite):
            doremi_update(MixtureWeights.uniform(2), np.array([np.inf, 0.0]), DoremiParams(K=2))


class TestOdmUpdate:
    def test_policy_before_any_update_is_init(self):
        init = MixtureWeights(np.array([0.541, 0.287, 0.042, 0.037, 0.034, 0.031, 0.028]))
        state = odm_init(init, OdmParams())
        assert np.array_equal(state.policy.weights, init.weights)
        assert state.updates_done == 0

    def test_worked_two_domain_case(self):
        p = OdmParams(ema_decay=0.9, reward_scale=1.0, eps_min=0.1, clip_threshold=-10.0)
        state = odm_init(MixtureWeights(np.array([0.5, 0.5])), p)
        out = odm_update(state, np.array([1.0, 0.5]), p)
        assert np.allclose(out.raw_weights / out.raw_weights[0] * math.exp(0.1), [math.exp(0.1), math.exp(0.05)], atol=1e-12)
        assert abs(out.policy.weights[0] - 0.51000) <= 1e-5
        assert abs(out.policy.weights[1] - 0.49000) <= 1e-5

    def test_policy_floor_holds(self, rng):
        p = OdmParams(eps_min=0.01)
        state = odm_init(MixtureWeights.uniform(7), p)
        for _ in range(30):
            losses = rng.random(7) * 8.0
            state = odm_update(state, losses, p)
            assert np.all(state.policy.weights >= p.eps_min - 1e-15)
            assert abs(state.policy.weights.sum() - 1.0) <= 1e-9

    def test_absent_domains_keep_ema_and_weight(self):
        p = OdmParams(eps_min=0.05)
        state = odm_init(MixtureWeights.uniform(3), p)
        state = odm_update(state, np.array([1.0, 2.0, 3.0]), p)
        ema_before = state.ema_loss.copy()
        raw_before = state.raw_weights.copy()
        state = odm_update(state, np.array([1.0, np.nan, np.nan]), p)
        assert np.array_equal(state.ema_loss[1:], ema_before[1:])
        assert np.array_equal(state.raw_weights[1:], raw_before[1:])

    def test_first_observation_seeds_ema(self):
        p = OdmParams(ema_decay=0.9)
        state = odm_init(MixtureWeights.uniform(2), p)
        state = odm_update(state, np.array([2.0, np.nan]), p)
        assert state.ema_loss[0] == 2.0
        state = odm_update(state, np.array([1.0, np.nan]), p)
        assert state.ema_loss[0] == pytest.approx(0.9 * 2.0 + 0.1 * 1.0, abs=1e-15)

    def test_monotone_pressure_under_frozen_gap(self):
        # Domain 0 keeps a higher EMA loss; its policy lead must grow each update.
        p = OdmParams(ema_decay=0.0, reward_scale=15.0, eps_min=0.05)
        state = odm_init(MixtureWeights.uniform(2), p)
        losses = np.array([4.0, 1.0])
        gaps = []
        for _ in range(20):
            state = odm_update(state, losses, p)
            gaps.append(state.policy.weights[0] - state.policy.weights[1])
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_eps_min_too_large_rejected(self):
        p = OdmParams(eps_min=0.6)
        state = odm_init(MixtureWeights.uniform(2), OdmParams(eps_min=0.4))
        with pytest.raises(BadParams):
            odm_update(state, np.array([1.0, 1.0]), p)

    def test_infinite_loss_rejected(self):
        p = OdmParams()
        state = odm_init(MixtureWeights.uniform(2), p)
        with pytest.raises(NonFinite):
            odm_update(state, np.array([np.inf, 1.0]), p)


def little_corpus():
    samples = [make_sample([1, 2, 3, 4], sid=i, domain=i % 2) for i in range(20)]
    return Corpus(samples, ("a", "b"), vocab_size=8)


class TestSampleBatch:
    def test_one_hot_policy(self, rng):
        corpus = little_corpus()
        batch, _ = sample_batch(MixtureWeights(np.array([1.0, 0.0])), corpus, 16, rng)
        assert all(s.domain_id == 0 for s in batch)

    def test_empirical_concentration(self):
        corpus = little_corpus()
        rng = np.random.default_rng(3)
        n = 10_000
        batch, _ = sample_batch(MixtureWeights(np.array([0.7, 0.3])), corpus, n, rng)
        frac = np.mean([s.domain_id == 0 for s in batch])
        bound = 3.0 * math.sqrt(0.7 * 0.3 / n)
        assert abs(frac - 0.7) <= bound

    def test_deterministic_given_seed(self):
        corpus = little_corpus()
        p = MixtureWeights(np.array([0.5, 0.5]))
        b1, _ = sample_batch(p, corpus, 32, np.random.default_rng(9))
        b2, _ = sample_batch(p, corpus, 32, np.random.default_rng(9))
        assert [s.id for s in b1] == [s.id for s in b2]

    def test_empty_domain_with_mass(self, rng):
        corpus = Corpus([make_sample([1, 2, 3, 4], sid=i) for i in range(4)], ("a", "b"), vocab_size=8)
        with pytest.raises(EmptyDomainWithMass):
            sample_batch(MixtureWeights(np.array([0.5, 0.5])), corpus, 4, rng)


class TestDoremiPipeline:
    def make_cfg(self, seed, schedule, **params):
        return RunConfig(
            train_type="dynamic_mix",
            component_name="doremi",
            schedule=schedule,
            seed=seed,
            component_params=params,
            max_steps=10,
        )

    def test_zero_updates_returns_uniform(self):
        specs = build_domain_specs(3, 64, seed=0)
        corpus = generate_corpus(specs, MixtureWeights.uniform(3), 60, seed=1)
        cfg = self.make_cfg(0, Schedule(5, 5, 0), ref_steps=5)
        out = run_doremi_pipeline(cfg, corpus)
        assert np.allclose(out.weights.weights, 1.0 / 3.0, atol=1e-12)
        assert out.trajectory == []

    def test_symmetric_domains_end_near_half(self):
        # Two statistically identical domains; across seeds the mean final
        # weight of each must stay close to 1/2.
        base = build_domain_specs(1, 64, seed=4)[0]
        from dataclasses import replace

        specs = [replace(base, name="a"), replace(base, name="b")]
        finals = []
        for seed in range(10):
            corpus = generate_corpus(specs, MixtureWeights.uniform(2), 80, seed=100 + seed)
            cfg = self.make_cfg(seed, Schedule(10, 5, 6), ref_steps=30)
            out = run_doremi_pipeline(cfg, corpus)
            finals.append(out.weights.weights)
        mean = np.mean(finals, axis=0)
        assert abs(mean[0] - 0.5) <= 0.05
        assert abs(mean[1] - 0.5) <= 0.05

    def test_trajectory_records_match_update_count(self):
        specs = build_domain_specs(2, 64, seed=0)
        corpus = generate_corpus(specs, MixtureWeights.uniform(2), 40, seed=1)
        cfg = self.make_cfg(1, Schedule(6, 3, 4), ref_steps=6)
        out = run_doremi_pipeline(cfg, corpus)
        assert len(out.trajectory) == 4
        assert [r["step"] for r in out.trajectory] == [6, 9, 12, 15]
        for rec in out.trajectory:
            assert abs(sum(rec["weights"]) - 1.0) <= 1e-9
