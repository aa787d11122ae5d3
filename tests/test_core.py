import numpy as np
import pytest

from dataflex import (
    Corpus,
    MetricsRecord,
    MixtureWeights,
    RunConfig,
    Sample,
    Schedule,
    empirical_proportions,
    id_set_digest,
    validate_config,
)
from dataflex.errors import BadSchedule, BadSimplex, NonFinite, UnknownComponent, UnknownTrainType

from conftest import make_sample


def two_domain_corpus():
    samples = [make_sample([1, 2, 3], sid=i, domain=i % 2) for i in range(10)]
    return Corpus(samples, ("a", "b"), vocab_size=8)


class TestMixtureWeights:
    def test_valid_simplex_accepted(self):
        w = MixtureWeights(np.array([0.25, 0.75]))
        assert len(w) == 2
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_sum(self):
        with pytest.raises(BadSimplex):
            MixtureWeights(np.array([0.6, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(BadSimplex):
            MixtureWeights(np.array([1.2, -0.2]))

    def test_rejects_slightly_off_sum(self):
        # Internal tolerance is 1e-9; 1e-7 off must fail here but pass from_config.
        vec = np.array([0.5 + 1e-7, 0.5])
        with pytest.raises(BadSimplex):
            MixtureWeights(vec)
        renorm = MixtureWeights.from_config(vec)
        assert abs(renorm.weights.sum() - 1.0) <= 1e-9

    def test_from_config_rejects_beyond_parse_tolerance(self):
        with pytest.raises(BadSimplex):
            MixtureWeights.from_config([0.5 + 1e-5, 0.5])

    def test_from_config_is_idempotent_bitwise(self):
        first = MixtureWeights.from_config([0.3, 0.3, 0.4 + 3e-8])
        second = MixtureWeights.from_config(list(first.weights))
        assert np.array_equal(first.weights, second.weights)

    def test_weights_are_read_only(self):
        w = MixtureWeights(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            w.weights[0] = 0.9


class TestSampleAndCorpus:
    def test_rejects_empty_tokens(self):
        with pytest.raises(ValueError):
            make_sample([])

    def test_rejects_duplicate_ids(self):
        samples = [make_sample([1, 2], sid=3), make_sample([1, 2], sid=3)]
        with pytest.raises(ValueError):
            Corpus(samples, ("a",), vocab_size=8)

    def test_rejects_out_of_vocab_token(self):
        with pytest.raises(ValueError):
            Corpus([make_sample([9])], ("a",), vocab_size=8)

    def test_rejects_domain_out_of_range(self):
        with pytest.raises(ValueError):
            Corpus([make_sample([1], domain=2)], ("a", "b"), vocab_size=8)

    def test_domain_index_partitions_ids(self):
        corpus = two_domain_corpus()
        all_ids = np.concatenate([corpus.domain_index[d] for d in range(2)])
        assert sorted(all_ids.tolist()) == sorted(s.id for s in corpus.samples)

    def test_empirical_proportions(self):
        corpus = two_domain_corpus()
        props = empirical_proportions(corpus)
        assert np.allclose(props.weights, [0.5, 0.5])
        subset = empirical_proportions(Corpus([corpus.by_id(i) for i in (0, 2, 4)], corpus.domain_names, corpus.vocab_size))
        assert np.allclose(subset.weights, [1.0, 0.0])


class TestSchedule:
    def test_valid(self):
        s = Schedule(100, 50, 30)
        assert (s.warmup_step, s.update_step, s.update_times) == (100, 50, 30)

    def test_zero_updates_allow_any_interval(self):
        Schedule(5, 1, 0)

    def test_zero_interval_with_updates_rejected(self):
        with pytest.raises(BadSchedule):
            Schedule(5, 0, 3)

    def test_negative_warmup_rejected(self):
        with pytest.raises(BadSchedule):
            Schedule(-1, 1, 0)


class TestValidateConfig:
    def test_select_config_accepted(self):
        cfg = RunConfig(train_type="dynamic_select", component_name="less", schedule=Schedule(100, 50, 30))
        validate_config(cfg, two_domain_corpus())

    def test_exact_simplex_accepted(self):
        cfg = RunConfig(
            train_type="dynamic_mix",
            component_name="static",
            init_mixture_proportions=MixtureWeights(np.array([0.5, 0.5])),
        )
        validate_config(cfg, two_domain_corpus())

    def test_bad_simplex_rejected_at_construction(self):
        with pytest.raises(BadSimplex):
            RunConfig(
                train_type="dynamic_mix",
                component_name="static",
                init_mixture_proportions=MixtureWeights(np.array([0.6, 0.6])),
            )

    def test_unknown_train_type(self):
        with pytest.raises(UnknownTrainType):
            RunConfig(train_type="dynamic_dance")

    def test_proportions_length_mismatch(self):
        cfg = RunConfig(
            train_type="dynamic_mix",
            component_name="static",
            init_mixture_proportions=MixtureWeights.uniform(3),
        )
        with pytest.raises(BadSimplex):
            validate_config(cfg, two_domain_corpus())

    def test_empty_component_name_rejected_for_dynamic(self):
        cfg = RunConfig(train_type="dynamic_select")
        with pytest.raises(UnknownComponent):
            validate_config(cfg, two_domain_corpus())


class TestMetricsRecord:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            MetricsRecord(1, 0.5, ((0, float("nan")),), 1.0, (1.0,))

    def test_token_weighted_consistency(self):
        # Two domains, 3 and 1 target tokens: overall must be the token-weighted mean.
        per_domain = ((0, 2.0), (1, 4.0))
        overall = (2.0 * 3 + 4.0 * 1) / 4
        rec = MetricsRecord(10, 1.0, per_domain, overall, (0.5, 0.5))
        weighted = sum(v * t for (_, v), t in zip(rec.per_domain_val_loss, (3, 1))) / 4
        assert rec.overall_val_loss == pytest.approx(weighted, abs=1e-9)


class TestDigest:
    def test_order_independent(self):
        assert id_set_digest([3, 1, 2]) == id_set_digest([1, 2, 3])

    def test_distinct_sets_differ(self):
        assert id_set_digest([1, 2]) != id_set_digest([1, 3])

    def test_fits_64_bits(self):
        assert 0 <= id_set_digest(range(100)) < 2**64
