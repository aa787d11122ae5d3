"""``generate_corpus`` and ``make_validation`` against a frozen copy of the scalar token sampler.

``_DomainSampler.sample_tokens`` draws a sample's uniforms a window at a
time and maps them through the token law with one ``searchsorted`` per
window. ``ref_sample_tokens`` below is the earlier implementation: one
scalar ``rng.random()`` per coin and per token, and one scalar
``searchsorted`` per token. Each sample owns its generator, so the
vectorized form must reproduce the scalar one token for token.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataflex import MixtureWeights, build_domain_specs, generate_corpus, make_validation
from dataflex.data import DRAW_WINDOW, LENGTH_JITTER, VALIDATION_ID_START, _DomainSampler, largest_remainder_counts


def ref_sample_tokens(sampler, rng):
    length = max(2, sampler.spec.mean_length + int(rng.integers(-LENGTH_JITTER, LENGTH_JITTER + 1)))
    tokens = np.empty(length, dtype=np.int64)
    tokens[0] = np.searchsorted(sampler.start_cdf, rng.random(), side="right")
    for p in range(1, length):
        if sampler.bigram_mass > 0.0 and rng.random() < sampler.bigram_mass:
            tokens[p] = sampler.successor[tokens[p - 1]]
        else:
            tokens[p] = np.searchsorted(sampler.cont_cdf, rng.random(), side="right")
    return tokens


def ref_samples(specs, counts, seed, id_start):
    """(id, domain, tokens) of each sample, in ``_generate_samples``'s order and seeding."""
    samplers = [_DomainSampler(spec) for spec in specs]
    children = iter(np.random.SeedSequence(seed).spawn(int(sum(counts))))
    out = []
    for d, count in enumerate(counts):
        for _ in range(int(count)):
            out.append((id_start + len(out), d, ref_sample_tokens(samplers[d], np.random.default_rng(next(children)))))
    return out


def assert_matches(corpus, expected):
    assert len(corpus) == len(expected)
    for sample, (sid, domain, tokens) in zip(corpus.samples, expected):
        assert (sample.id, sample.domain_id) == (sid, domain)
        assert sample.token_ids.dtype == np.int64
        np.testing.assert_array_equal(sample.token_ids, tokens)


@st.composite
def shapes(draw):
    num_domains = draw(st.integers(1, 4))
    vocab_size = draw(st.integers(8 + 2 * num_domains, 96))
    noise = draw(st.lists(st.integers(0, num_domains - 1), max_size=num_domains, unique=True))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=num_domains, max_size=num_domains)))
    return {
        "num_domains": num_domains,
        "vocab_size": vocab_size,
        "noise_domains": tuple(noise),
        "mean_length": draw(st.integers(2, 40)),
        "spec_seed": draw(st.integers(0, 2**16)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "weights": (raw / raw.sum()).tolist(),
    }


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), n=st.integers(4, 40))
def test_generate_corpus_matches_scalar_sampler(shape, n):
    specs = build_domain_specs(
        shape["num_domains"], shape["vocab_size"], seed=shape["spec_seed"],
        noise_domains=shape["noise_domains"], mean_length=shape["mean_length"],
    )
    proportions = MixtureWeights.from_config(shape["weights"])
    n = max(n, len(specs))
    corpus = generate_corpus(specs, proportions, n, shape["seed"])
    assert_matches(corpus, ref_samples(specs, largest_remainder_counts(n, proportions.weights), shape["seed"], 0))


@settings(max_examples=20, deadline=None)
@given(shape=shapes(), m=st.integers(1, 30))
def test_skewed_validation_matches_scalar_sampler(shape, m):
    specs = build_domain_specs(
        shape["num_domains"], shape["vocab_size"], seed=shape["spec_seed"],
        noise_domains=shape["noise_domains"], mean_length=shape["mean_length"],
    )
    val = make_validation(specs, "skewed", m, shape["seed"], weights=shape["weights"])
    counts = largest_remainder_counts(m, MixtureWeights.from_config(shape["weights"]).weights)
    assert_matches(val, ref_samples(specs, counts, shape["seed"], VALIDATION_ID_START))


@pytest.mark.parametrize("noise", [False, True], ids=["bigram", "noise"])
def test_samples_longer_than_a_draw_window_match_scalar_sampler(noise):
    # A bigram sample takes up to two uniforms per position, a noise one
    # exactly one, so both lengths span several windows.
    specs = build_domain_specs(1, 64, seed=7, noise_domains=(0,) if noise else (), mean_length=3 * DRAW_WINDOW + 5)
    corpus = generate_corpus(specs, MixtureWeights.uniform(1), 3, seed=11)
    expected = ref_samples(specs, [3], 11, 0)
    assert_matches(corpus, expected)
    assert all(len(tokens) > DRAW_WINDOW for _, _, tokens in expected)
