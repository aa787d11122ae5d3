"""Synthetic multi-domain corpora with planted, verifiable structure.

Each domain prefers a contiguous private vocabulary slice (Zipf-weighted)
plus an optional shared slice, and follows a seeded bigram successor table.
A noise domain (``DomainSpec.noise``) is an irreducible-entropy source:
tokens are uniform over its support, so no model can push its loss below
``ln(support size)``. Different domains therefore stay separable in loss,
gradient, and embedding space, which is what makes selection and mixing
effects observable at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Corpus, MixtureWeights, Sample
from .errors import BadMode, BadParams, BadProportions

VALIDATION_ID_START = 1_000_000_000

ZIPF_EXPONENT = 1.2
LENGTH_JITTER = 3
#: The most tokens (``count * mean_length``) that ``data.synthetic`` may ask
#: for, for the corpus and again for the validation set: 800 MB of int64.
MAX_SYNTHETIC_TOKENS = 10**8
#: noise -> (shared_prob, bigram_strength, uniform_noise): the shared slice's
#: share of the Zipf base, the successor table's share of each later token,
#: and the share drawn uniformly from the support.
TOKEN_LAW = {False: (0.2, 0.35, 0.02), True: (0.0, 0.0, 1.0)}


@dataclass(frozen=True)
class DomainSpec:
    """One domain's vocabulary slices and token law; ``noise`` makes every token uniform."""

    name: str
    vocab_size: int
    private_slice: tuple
    shared_slice: tuple = (0, 0)
    noise: bool = False
    bigram_seed: int = 0
    mean_length: int = 12

    def __post_init__(self):
        lo, hi = self.private_slice
        slo, shi = self.shared_slice
        if not (0 <= lo < hi <= self.vocab_size):
            raise ValueError(f"{self.name}: private slice {self.private_slice} outside [0, {self.vocab_size})")
        if not (0 <= slo <= shi <= self.vocab_size):
            raise ValueError(f"{self.name}: shared slice {self.shared_slice} invalid")
        if self.mean_length < 2:
            raise ValueError(f"{self.name}: mean_length must be >= 2")

    @property
    def support(self) -> np.ndarray:
        lo, hi = self.private_slice
        slo, shi = self.shared_slice
        return np.unique(np.concatenate([np.arange(lo, hi), np.arange(slo, shi)]))


@dataclass(frozen=True)
class SyntheticParams:
    """The ``data.synthetic`` config section; ``None`` derives a field from the run.

    ``seed`` defaults to the run's seed, ``val_size`` to ``max(50,
    num_samples // 10)`` (``validation_size``) and ``val_seed`` to ``seed +
    1``. The corpus and the validation set may each hold at most
    ``MAX_SYNTHETIC_TOKENS`` tokens.
    """

    num_samples: int = 1000
    num_domains: int = 3
    seed: Optional[int] = None
    proportions: Optional[list[float]] = None
    noise_domains: Optional[list[int]] = None
    mean_length: int = 12
    val_size: Optional[int] = None
    val_mode: str = "in_distribution"
    val_domain: Optional[int] = None
    val_weights: Optional[list[float]] = None
    val_seed: Optional[int] = None

    def __post_init__(self):
        if self.num_domains < 1:
            raise BadParams(f"data.synthetic: num_domains must be >= 1, got {self.num_domains}")
        if self.mean_length < 2:
            raise BadParams(f"data.synthetic: mean_length must be >= 2, got {self.mean_length}")
        for name in ("seed", "val_seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise BadParams(f"data.synthetic: {name} must be >= 0, got {value}")
        for name, count in (("num_samples", self.num_samples), ("val_size", self.validation_size)):
            if count * self.mean_length > MAX_SYNTHETIC_TOKENS:
                raise BadParams(
                    f"data.synthetic: {name} * mean_length = {count} * {self.mean_length} tokens"
                    f" exceeds the bound of {MAX_SYNTHETIC_TOKENS}"
                )

    @property
    def validation_size(self) -> int:
        return max(50, self.num_samples // 10) if self.val_size is None else self.val_size


def _zipf(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


class _DomainSampler:
    """Distribution tables for one domain, derived deterministically."""

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        lo, hi = spec.private_slice
        slo, shi = spec.shared_slice
        support = spec.support
        shared_prob, b, nu = TOKEN_LAW[spec.noise]
        base = np.zeros(spec.vocab_size)
        private = np.arange(lo, hi)
        if shi > slo:
            base[private] += (1.0 - shared_prob) * _zipf(private.size, ZIPF_EXPONENT)
            shared = np.arange(slo, shi)
            base[shared] += shared_prob * _zipf(shared.size, ZIPF_EXPONENT)
        else:
            base[private] += _zipf(private.size, ZIPF_EXPONENT)

        uniform = np.zeros(spec.vocab_size)
        uniform[support] = 1.0 / support.size

        # Law of the next token given the previous one:
        #   (1 - b - nu) * zipf_base + b * delta_succ(prev) + nu * uniform(support)
        start = (1.0 - nu) * base + nu * uniform
        self.start_cdf = np.cumsum(start / start.sum())
        cont = (1.0 - b - nu) * base + nu * uniform
        total = cont.sum()
        self.cont_cdf = np.cumsum(cont / total) if total > 0 else self.start_cdf
        self.bigram_mass = b
        succ_rng = np.random.default_rng(spec.bigram_seed)
        self.successor = succ_rng.integers(lo, hi, size=spec.vocab_size)

    def sample_tokens(self, rng: np.random.Generator) -> np.ndarray:
        length = max(2, self.spec.mean_length + int(rng.integers(-LENGTH_JITTER, LENGTH_JITTER + 1)))
        tokens = np.empty(length, dtype=np.int64)
        tokens[0] = np.searchsorted(self.start_cdf, rng.random(), side="right")
        for p in range(1, length):
            if self.bigram_mass > 0.0 and rng.random() < self.bigram_mass:
                tokens[p] = self.successor[tokens[p - 1]]
            else:
                tokens[p] = np.searchsorted(self.cont_cdf, rng.random(), side="right")
        return tokens


def build_domain_specs(
    num_domains: int,
    vocab_size: int,
    seed: int = 0,
    noise_domains: Sequence[int] = (),
    mean_length: int = 12,
) -> list:
    """Partition the vocabulary into K contiguous private slices plus a shared
    prefix of ``vocab_size // 8`` tokens; domain ``d`` is named ``domain_d``.

    Raises ``BadParams`` when the vocabulary leaves a domain no private token,
    or when a ``noise_domains`` entry names no domain.
    """
    if num_domains < 1:
        raise BadParams("num_domains must be >= 1")
    for d in noise_domains:
        if not 0 <= d < num_domains:
            raise BadParams(f"noise_domains entry {d} outside [0, {num_domains})")
    shared = vocab_size // 8
    usable = vocab_size - shared
    if usable < num_domains:
        raise BadParams(f"vocab of {vocab_size} too small for {num_domains} domains with {shared} shared tokens")
    bounds = shared + np.round(np.linspace(0, usable, num_domains + 1)).astype(int)
    specs = []
    for d in range(num_domains):
        specs.append(
            DomainSpec(
                name=f"domain_{d}",
                vocab_size=vocab_size,
                private_slice=(int(bounds[d]), int(bounds[d + 1])),
                shared_slice=(0, shared),
                noise=d in set(noise_domains),
                bigram_seed=seed * 1000 + d,
                mean_length=mean_length,
            )
        )
    return specs


def largest_remainder_counts(n: int, weights: np.ndarray) -> np.ndarray:
    """Integer counts summing to n, proportional to weights; ties go to lower index."""
    exact = n * np.asarray(weights, dtype=np.float64)
    counts = np.floor(exact).astype(np.int64)
    short = n - int(counts.sum())
    if short > 0:
        frac = exact - counts
        order = np.argsort(-frac, kind="stable")
        counts[order[:short]] += 1
    return counts


def _generate_samples(specs, counts, seed, id_start):
    samplers = [_DomainSampler(spec) for spec in specs]
    total = int(sum(counts))
    children = np.random.SeedSequence(seed).spawn(total)
    samples = []
    next_id = id_start
    child = 0
    for d, count in enumerate(counts):
        for _ in range(int(count)):
            rng = np.random.default_rng(children[child])
            samples.append(Sample(id=next_id, domain_id=d, token_ids=samplers[d].sample_tokens(rng)))
            next_id += 1
            child += 1
    return samples


def generate_corpus(specs: Sequence[DomainSpec], proportions: MixtureWeights, n: int, seed: int) -> Corpus:
    """Corpus of n samples with largest-remainder-exact domain counts."""
    if len(specs) != len(proportions):
        raise BadProportions(f"{len(specs)} domain specs but {len(proportions)} proportions")
    if n < len(specs):
        raise BadProportions(f"n={n} smaller than the number of domains")
    counts = largest_remainder_counts(n, proportions.weights)
    samples = _generate_samples(specs, counts, seed, id_start=0)
    return Corpus(samples, tuple(s.name for s in specs), specs[0].vocab_size)


def make_validation(
    specs: Sequence[DomainSpec],
    mode: str,
    m: int,
    seed: int,
    proportions: Optional[MixtureWeights] = None,
    domain: Optional[int] = None,
    weights: Optional[Sequence[float]] = None,
    id_start: int = VALIDATION_ID_START,
) -> Corpus:
    """Fresh validation corpus with ids disjoint from any generated training corpus.

    Modes: ``in_distribution`` (uses ``proportions``, uniform if omitted),
    ``single_domain`` (all samples from ``domain``), and ``skewed``
    (largest-remainder counts from ``weights``).
    """
    if m < 1:
        raise BadMode("validation size must be >= 1")
    k = len(specs)
    if mode == "in_distribution":
        p = proportions if proportions is not None else MixtureWeights.uniform(k)
        counts = largest_remainder_counts(m, p.weights)
    elif mode == "single_domain":
        if domain is None or not (0 <= domain < k):
            raise BadMode(f"single_domain mode needs a domain index in [0, {k})")
        counts = np.zeros(k, dtype=np.int64)
        counts[domain] = m
    elif mode == "skewed":
        if weights is None:
            raise BadMode("skewed mode needs a weight vector")
        counts = largest_remainder_counts(m, MixtureWeights.from_config(weights).weights)
    else:
        raise BadMode(f"unknown validation mode {mode!r}")
    samples = _generate_samples(specs, counts, seed, id_start=id_start)
    return Corpus(samples, tuple(s.name for s in specs), specs[0].vocab_size)
