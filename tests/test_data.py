import numpy as np
import pytest

from dataflex import (
    MixtureWeights,
    ModelCfg,
    OptimCfg,
    build_domain_specs,
    generate_corpus,
    init_model,
    init_optimizer,
    make_validation,
    per_sample_loss,
    train_step,
)
from dataflex.data import largest_remainder_counts
from dataflex.errors import BadMode, BadProportions


class TestLargestRemainder:
    def test_even_split(self):
        assert largest_remainder_counts(100, np.array([0.5, 0.5])).tolist() == [50, 50]

    def test_seven_domain_reference_proportions(self):
        weights = np.array([0.541, 0.287, 0.042, 0.037, 0.034, 0.031, 0.028])
        counts = largest_remainder_counts(10_000, weights)
        assert counts.tolist() == [5410, 2870, 420, 370, 340, 310, 280]

    def test_sums_to_n(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 9))
            w = rng.dirichlet(np.ones(k))
            n = int(rng.integers(k, 5000))
            counts = largest_remainder_counts(n, w)
            assert counts.sum() == n
            assert np.all(counts >= 0)


class TestGenerateCorpus:
    def test_counts_and_determinism(self):
        specs = build_domain_specs(2, 64, seed=3)
        c1 = generate_corpus(specs, MixtureWeights(np.array([0.5, 0.5])), 100, seed=5)
        c2 = generate_corpus(specs, MixtureWeights(np.array([0.5, 0.5])), 100, seed=5)
        assert len(c1.domain_index[0]) == 50
        assert len(c1.domain_index[1]) == 50
        for a, b in zip(c1.samples, c2.samples):
            assert a.id == b.id and np.array_equal(a.token_ids, b.token_ids)

    def test_different_seeds_differ(self):
        specs = build_domain_specs(2, 64, seed=3)
        c1 = generate_corpus(specs, MixtureWeights.uniform(2), 50, seed=5)
        c2 = generate_corpus(specs, MixtureWeights.uniform(2), 50, seed=6)
        assert any(not np.array_equal(a.token_ids, b.token_ids) for a, b in zip(c1.samples, c2.samples))

    def test_tokens_respect_vocab(self):
        specs = build_domain_specs(3, 32, seed=0)
        corpus = generate_corpus(specs, MixtureWeights.uniform(3), 90, seed=1)
        assert corpus.vocab_size == 32
        for s in corpus.samples:
            assert s.token_ids.max() < 32
            assert len(s) >= 2

    def test_proportion_length_mismatch(self):
        specs = build_domain_specs(2, 64, seed=0)
        with pytest.raises(BadProportions):
            generate_corpus(specs, MixtureWeights.uniform(3), 30, seed=0)

    def test_noise_domain_uses_its_support(self):
        specs = build_domain_specs(2, 64, seed=1, noise_domains=(1,))
        corpus = generate_corpus(specs, MixtureWeights.uniform(2), 60, seed=2)
        support = set(specs[1].support.tolist())
        for sid in corpus.domain_index[1]:
            tokens = set(corpus.by_id(int(sid)).token_ids.tolist())
            assert tokens <= support


class TestMakeValidation:
    def test_single_domain(self):
        specs = build_domain_specs(3, 64, seed=0)
        val = make_validation(specs, "single_domain", 50, seed=9, domain=0)
        assert all(s.domain_id == 0 for s in val.samples)
        assert len(val) == 50

    def test_in_distribution_counts(self):
        specs = build_domain_specs(2, 64, seed=0)
        val = make_validation(specs, "in_distribution", 100, seed=9, proportions=MixtureWeights(np.array([0.3, 0.7])))
        assert len(val.domain_index[0]) == 30
        assert len(val.domain_index[1]) == 70

    def test_skewed_counts(self):
        specs = build_domain_specs(2, 64, seed=0)
        val = make_validation(specs, "skewed", 100, seed=9, weights=[0.9, 0.1])
        assert len(val.domain_index[0]) == 90
        assert len(val.domain_index[1]) == 10

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.3, 0.2]], ids=["short", "long"])
    def test_weights_of_the_wrong_length_raise_bad_proportions(self, weights):
        specs = build_domain_specs(2, 64, seed=0)
        with pytest.raises(BadProportions):
            make_validation(specs, "skewed", 10, seed=0, weights=weights)
        with pytest.raises(BadProportions):
            make_validation(specs, "in_distribution", 10, seed=0, proportions=MixtureWeights.from_config(weights))

    def test_ids_disjoint_from_corpus(self):
        specs = build_domain_specs(2, 64, seed=0)
        corpus = generate_corpus(specs, MixtureWeights.uniform(2), 200, seed=1)
        val = make_validation(specs, "in_distribution", 50, seed=2, proportions=MixtureWeights.uniform(2))
        assert not ({s.id for s in corpus.samples} & {s.id for s in val.samples})

    def test_bad_mode(self):
        specs = build_domain_specs(2, 64, seed=0)
        with pytest.raises(BadMode):
            make_validation(specs, "sideways", 10, seed=0)
        with pytest.raises(BadMode):
            make_validation(specs, "single_domain", 10, seed=0, domain=None)


class TestDomainSeparability:
    def test_models_specialize_to_their_domain(self):
        # Training on one domain must leave its held-out loss clearly below
        # every other domain's loss; this is what makes dynamic-data effects
        # observable at this scale.
        k = 3
        arch = ModelCfg(vocab_size=64, embed_dim=16, hidden_dim=32)
        specs = build_domain_specs(k, arch.vocab_size, seed=11)
        corpus = generate_corpus(specs, MixtureWeights.uniform(k), 300, seed=12)
        heldout = [
            make_validation(specs, "single_domain", 40, seed=13 + d, domain=d, id_start=10**7 * (d + 1))
            for d in range(k)
        ]
        for d in range(k):
            rng = np.random.default_rng(20 + d)
            model = init_model(arch, rng)
            opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.01), model.params.size)
            ids = corpus.domain_index[d]
            for _ in range(500):
                batch = [corpus.by_id(int(i)) for i in rng.choice(ids, size=8)]
                model, opt, _ = train_step(model, opt, batch, np.ones(8))
            losses = [
                float(np.mean([per_sample_loss(model, s) for s in heldout[j].samples]))
                for j in range(k)
            ]
            for j in range(k):
                if j != d:
                    assert losses[j] - losses[d] >= 0.1, (d, losses)
