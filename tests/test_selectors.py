import math

import numpy as np
import pytest

from dataflex import (
    InfluenceParams,
    ModelCfg,
    OptimCfg,
    ScoreVector,
    TsdsParams,
    init_model,
    init_optimizer,
    per_sample_gradient,
    per_sample_loss,
    score_delta_loss,
    score_influence,
    score_knn,
    score_loss,
    score_probe,
    score_tsds,
    select,
    snapshot,
    train_step,
    zero_model,
)
from dataflex.errors import BadParams, EmptyValidation, KTooLarge
from dataflex.model import state_digest
from dataflex.selectors import SignProjection, mean_loss_metric, top1_accuracy_metric

from conftest import TINY_ARCH, make_sample, random_sample


def make_pool(rng, n, length=7, vocab=TINY_ARCH.vocab_size, domain=0, start_id=0):
    return [random_sample(rng, vocab, length, sid=start_id + i, domain=domain) for i in range(n)]


def spearman(a, b):
    def ranks(x):
        order = np.argsort(x)
        r = np.empty(len(x))
        r[order] = np.arange(len(x))
        return r

    ra, rb = ranks(np.asarray(a)), ranks(np.asarray(b))
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / math.sqrt((ra @ ra) * (rb @ rb)))


class TestScoreLoss:
    def test_uniform_model_all_log_vocab(self, rng):
        pool = make_pool(rng, 5)
        sv = score_loss(zero_model(TINY_ARCH), pool)
        assert np.allclose(sv.scores, math.log(TINY_ARCH.vocab_size), atol=1e-12)

    def test_matches_direct_recomputation(self, tiny_model, rng):
        pool = make_pool(rng, 6)
        sv = score_loss(tiny_model, pool)
        expect = [per_sample_loss(tiny_model, s) for s in pool]
        assert np.array_equal(sv.scores, np.array(expect))

    def test_perfectly_predicted_sample_scores_lowest(self, rng):
        from test_model import perfect_model_for

        s0 = make_sample([3, 5, 5, 5], sid=0)
        model = perfect_model_for(s0.token_ids, TINY_ARCH)
        pool = [s0] + make_pool(rng, 2, start_id=1)
        sv = score_loss(model, pool)
        assert sv.scores[0] == pytest.approx(0.0, abs=1e-9)
        assert sv.scores[0] < sv.scores[1:].min()


class TestScoreDeltaLoss:
    def test_reference_equals_current_gives_zero(self, tiny_model, rng):
        opt = init_optimizer(OptimCfg(), tiny_model.params.size)
        pool = make_pool(rng, 4)
        sv = score_delta_loss(tiny_model, snapshot(tiny_model, opt), pool)
        assert np.allclose(sv.scores, 0.0, atol=0)

    def test_memorized_sample_scores_log_vocab(self, rng):
        from test_model import perfect_model_for

        s = make_sample([3, 5, 5, 5])
        ref = zero_model(TINY_ARCH)
        opt = init_optimizer(OptimCfg(), ref.params.size)
        current = perfect_model_for(s.token_ids, TINY_ARCH)
        sv = score_delta_loss(current, snapshot(ref, opt), [s])
        assert sv.scores[0] == pytest.approx(math.log(TINY_ARCH.vocab_size), abs=1e-9)

    def test_matches_two_pass_oracle(self, rng):
        m1 = init_model(TINY_ARCH, np.random.default_rng(1), scale=0.4)
        m2 = init_model(TINY_ARCH, np.random.default_rng(2), scale=0.4)
        opt = init_optimizer(OptimCfg(), m1.params.size)
        pool = make_pool(rng, 5)
        sv = score_delta_loss(m2, snapshot(m1, opt), pool)
        expect = np.array([per_sample_loss(m1, s) - per_sample_loss(m2, s) for s in pool])
        assert np.array_equal(sv.scores, expect)

    def test_hardest_first_inverts(self, rng):
        m1 = init_model(TINY_ARCH, np.random.default_rng(1), scale=0.4)
        m2 = init_model(TINY_ARCH, np.random.default_rng(2), scale=0.4)
        opt = init_optimizer(OptimCfg(), m1.params.size)
        pool = make_pool(rng, 5)
        plain = score_delta_loss(m2, snapshot(m1, opt), pool)
        flipped = score_delta_loss(m2, snapshot(m1, opt), pool, hardest_first=True)
        assert np.array_equal(flipped.scores, -plain.scores)


class TestScoreInfluence:
    def test_self_similarity_is_one(self, tiny_model, rng):
        opt = init_optimizer(OptimCfg(kind="sgd"), tiny_model.params.size)
        s = random_sample(rng, TINY_ARCH.vocab_size, 7, sid=0)
        params = InfluenceParams(projection_dim=None, preconditioning="none")
        sv = score_influence(tiny_model, opt, [s], [s], params)
        assert sv.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_gradient_scores_zero(self, rng):
        from test_model import perfect_model_for

        s = make_sample([3, 5, 5, 5], sid=0)
        model = perfect_model_for(s.token_ids, TINY_ARCH)
        opt = init_optimizer(OptimCfg(kind="sgd"), model.params.size)
        val = make_pool(rng, 3, start_id=10)
        params = InfluenceParams(projection_dim=None, preconditioning="none")
        sv = score_influence(model, opt, [s], val, params)
        assert sv.scores[0] == 0.0

    def test_first_order_probe_agreement(self, rng):
        # Predicted change -lr*<g_i, g_val> vs the actual one-step change.
        model = init_model(TINY_ARCH, np.random.default_rng(5), scale=0.3)
        opt = init_optimizer(OptimCfg(kind="sgd", learning_rate=1e-4), model.params.size)
        pool = make_pool(rng, 20)
        val = make_pool(rng, 10, start_id=100)
        params = InfluenceParams(projection_dim=None, preconditioning="none")
        sv = score_influence(model, opt, pool, val, params)
        g_val = np.mean([per_sample_gradient(model, s) for s in val], axis=0)
        metric = mean_loss_metric(val)
        before = metric(model)
        agree = 0
        for s, score in zip(pool, sv.scores):
            g = per_sample_gradient(model, s)
            predicted = -1e-4 * float(g @ g_val)
            stepped, _, _ = train_step(model, opt, [s], [1.0])
            actual = metric(stepped) - before
            if abs(predicted - actual) <= 0.05 * abs(actual):
                agree += 1
            assert (score > 0) == (predicted < 0) or score == 0.0
        assert agree >= 19

    def test_adam_preconditioning_requires_warm_adam(self, tiny_model, rng):
        from dataflex.errors import ColdOptimizer, NotAdam

        pool = make_pool(rng, 2)
        val = make_pool(rng, 2, start_id=5)
        sgd = init_optimizer(OptimCfg(kind="sgd"), tiny_model.params.size)
        with pytest.raises(NotAdam):
            score_influence(tiny_model, sgd, pool, val, InfluenceParams(preconditioning="adam"))
        adam = init_optimizer(OptimCfg(kind="adam"), tiny_model.params.size)
        with pytest.raises(ColdOptimizer):
            score_influence(tiny_model, adam, pool, val, InfluenceParams(preconditioning="adam"))

    def test_empty_validation(self, tiny_model, rng):
        opt = init_optimizer(OptimCfg(kind="sgd"), tiny_model.params.size)
        with pytest.raises(EmptyValidation):
            score_influence(tiny_model, opt, make_pool(rng, 2), [], InfluenceParams(preconditioning="none"))

    def test_max_cosine_aggregation(self, tiny_model, rng):
        opt = init_optimizer(OptimCfg(kind="sgd"), tiny_model.params.size)
        s = random_sample(rng, TINY_ARCH.vocab_size, 7, sid=0)
        other = make_pool(rng, 3, start_id=10)
        params = InfluenceParams(projection_dim=None, preconditioning="none", aggregation="max_cosine")
        sv = score_influence(tiny_model, opt, [s], [other[0], s, other[1]], params)
        assert sv.scores[0] == pytest.approx(1.0, abs=1e-12)


class TestSignProjection:
    def test_deterministic(self):
        proj = SignProjection(16, 100, seed=3)
        mat = np.random.default_rng(0).normal(size=(4, 100))
        assert np.array_equal(proj.project(mat), proj.project(mat))

    def test_johnson_lindenstrauss_cosine_preservation(self):
        rng = np.random.default_rng(11)
        dim = 3000
        proj = SignProjection(512, dim, seed=1)
        good = 0
        for _ in range(100):
            a = rng.normal(size=dim)
            b = rng.normal(size=dim) + 0.5 * a
            exact = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            pa, pb = proj.project(np.stack([a, b]))
            approx = pa @ pb / (np.linalg.norm(pa) * np.linalg.norm(pb))
            if abs(approx - exact) <= 0.15:
                good += 1
        assert good >= 95


class TestScoreProbe:
    def test_zero_probe_lr_zero_scores(self, tiny_model, rng):
        pool = make_pool(rng, 4)
        val = make_pool(rng, 3, start_id=50)
        sv = score_probe(tiny_model, pool, mean_loss_metric(val), probe_lr=0.0)
        assert np.allclose(sv.scores, 0.0, atol=0)

    def test_leaves_state_bitwise_unchanged(self, tiny_model, rng):
        opt = init_optimizer(OptimCfg(kind="adam"), tiny_model.params.size)
        pool = make_pool(rng, 3)
        val = make_pool(rng, 3, start_id=50)
        before = state_digest(tiny_model, opt)
        score_probe(tiny_model, pool, mean_loss_metric(val), probe_lr=0.01)
        assert state_digest(tiny_model, opt) == before

    def test_ranking_agrees_with_influence(self, rng):
        model = init_model(TINY_ARCH, np.random.default_rng(9), scale=0.3)
        opt = init_optimizer(OptimCfg(kind="sgd"), model.params.size)
        pool = make_pool(rng, 100, length=8)
        val = make_pool(rng, 20, length=8, start_id=1000)
        probe = score_probe(model, pool, mean_loss_metric(val), probe_lr=1e-5)
        infl = score_influence(model, opt, pool, val, InfluenceParams(projection_dim=None, preconditioning="none"))
        assert spearman(probe.scores, infl.scores) >= 0.9

    def test_accuracy_metric_is_usable(self, tiny_model, rng):
        pool = make_pool(rng, 2)
        val = make_pool(rng, 4, start_id=50)
        sv = score_probe(tiny_model, pool, top1_accuracy_metric(val), probe_lr=0.05)
        assert np.all(np.isfinite(sv.scores))


class TestScoreKnn:
    def test_exact_match_scores_one(self):
        val = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sv = score_knn(np.array([[2.0, 0.0]]), val, k=1)
        assert sv.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_scores_zero(self):
        sv = score_knn(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]), k=1)
        assert sv.scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        pool = rng.normal(size=(5, 2))
        val = rng.normal(size=(3, 2))
        k = 2
        sv = score_knn(pool, val, k=k)
        for i in range(5):
            cosines = []
            for j in range(3):
                na, nb = np.linalg.norm(pool[i]), np.linalg.norm(val[j])
                cosines.append(pool[i] @ val[j] / (na * nb))
            expect = np.mean(sorted(cosines, reverse=True)[:k])
            assert abs(sv.scores[i] - expect) <= 1e-12

    def test_k_bounds(self, rng):
        with pytest.raises(KTooLarge):
            score_knn(rng.normal(size=(2, 2)), rng.normal(size=(3, 2)), k=4)
        with pytest.raises(EmptyValidation):
            score_knn(rng.normal(size=(2, 2)), np.zeros((0, 2)), k=1)


def tsds_brute_force(pool, val, p):
    """All-pairs reimplementation used as the oracle for score_tsds."""
    n = pool.shape[0]
    inv = 1.0 / (2.0 * p.sigma**2)
    mass = np.zeros(n)
    for j in range(val.shape[0]):
        d2 = np.sum((pool - val[j]) ** 2, axis=1)
        order = np.argsort(d2, kind="stable")[: min(p.max_K, n)]
        for i in order:
            mass[i] += math.exp(-d2[i] * inv)
    density = np.zeros(n)
    kde_k = min(p.kde_K, n - 1)
    for i in range(n):
        if mass[i] == 0.0:
            continue
        d2 = np.sum((pool - pool[i]) ** 2, axis=1)
        d2[i] = np.inf
        nearest = np.sort(d2)[:kde_k]
        density[i] = sum(math.exp(-d * inv) for d in nearest) / kde_k
    scores = p.tradeoff_alpha * mass / (1.0 + p.C * density) + (1.0 - p.tradeoff_alpha) * mass
    scores[mass == 0.0] = 0.0
    return scores


class TestScoreTsds:
    def test_exact_kde_matches_brute_force(self, rng):
        pool = rng.normal(size=(40, 3))
        val = rng.normal(size=(6, 3))
        p = TsdsParams(max_K=40, kde_K=39, sigma=0.75)
        sv = score_tsds(pool, val, p)
        assert np.allclose(sv.scores, tsds_brute_force(pool, val, p), atol=1e-9)

    def test_truncated_retrieval_matches_brute_force(self, rng):
        pool = rng.normal(size=(30, 2))
        val = rng.normal(size=(5, 2))
        p = TsdsParams(max_K=7, kde_K=10, sigma=0.5)
        sv = score_tsds(pool, val, p)
        assert np.allclose(sv.scores, tsds_brute_force(pool, val, p), atol=1e-9)

    def test_isolated_exact_match(self):
        pool = np.array([[1.0, 2.0]])
        val = np.array([[1.0, 2.0]])
        for alpha in (0.0, 0.4, 1.0):
            p = TsdsParams(sigma=0.75, tradeoff_alpha=alpha)
            sv = score_tsds(pool, val, p)
            assert sv.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_defaults_match_documented_values(self):
        p = TsdsParams()
        assert (p.max_K, p.kde_K, p.sigma, p.tradeoff_alpha, p.C) == (5000, 1000, 0.75, 0.6, 5.0)

    def test_bad_sigma(self):
        with pytest.raises(BadParams):
            TsdsParams(sigma=0.0)

    def test_params_echoed_in_log(self, rng, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="dataflex.selectors"):
            score_tsds(rng.normal(size=(4, 2)), rng.normal(size=(2, 2)), TsdsParams())
        assert any("max_K=5000" in m and "kde_K=1000" in m for m in caplog.messages)


class TestSelect:
    def test_tie_broken_by_ascending_id(self):
        sv = ScoreVector(np.arange(4), np.array([0.3, 0.9, 0.9, 0.1]), "t")
        assert select(sv, 2) == [1, 2]

    def test_k_zero(self):
        sv = ScoreVector(np.arange(3), np.array([0.1, 0.2, 0.3]), "t")
        assert select(sv, 0) == []

    def test_k_equal_pool(self):
        sv = ScoreVector(np.arange(4), np.array([0.3, 0.9, 0.9, 0.1]), "t")
        assert select(sv, 4) == [1, 2, 0, 3]

    def test_k_too_large(self):
        sv = ScoreVector(np.arange(2), np.array([0.5, 0.5]), "t")
        with pytest.raises(KTooLarge):
            select(sv, 3)

    def test_permutation_invariance(self, rng):
        ids = np.array([4, 7, 1, 9, 2])
        scores = rng.random(5)
        base = select(ScoreVector(ids, scores, "t"), 3)
        for _ in range(5):
            perm = rng.permutation(5)
            shuffled = select(ScoreVector(ids[perm], scores[perm], "t"), 3)
            assert shuffled == base

    def test_monotone_transform_invariance(self, rng):
        for _ in range(20):
            ids = np.arange(8)
            scores = rng.random(8)
            a = select(ScoreVector(ids, scores, "t"), 4)
            b = select(ScoreVector(ids, 2.0 * scores + 1.0, "t"), 4)
            assert a == b
