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

from .core import Corpus, MixtureWeights, Sample, bounded, check_fields, child_rng
from .errors import BadMode, BadParams, BadProportions

VALIDATION_ID_START = 1_000_000_000

ZIPF_EXPONENT = 1.2
LENGTH_JITTER = 3
#: The most uniforms that ``_DomainSampler.sample_tokens`` draws in one call.
DRAW_WINDOW = 4096
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
    shared_slice: tuple
    noise: bool
    bigram_seed: int
    mean_length: int

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

    num_samples: int = bounded(1000, ge=1)
    num_domains: int = bounded(3, ge=1)
    seed: Optional[int] = bounded(None, ge=0)
    proportions: Optional[list[float]] = None
    noise_domains: Optional[list[int]] = None
    mean_length: int = bounded(12, ge=2)
    val_size: Optional[int] = bounded(None, ge=1)
    val_mode: str = bounded("in_distribution", choices=("in_distribution", "single_domain", "skewed"))
    val_domain: Optional[int] = None
    val_weights: Optional[list[float]] = None
    val_seed: Optional[int] = bounded(None, ge=0)

    def __post_init__(self):
        check_fields(self)
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
        self.cont_cdf = np.cumsum(cont / cont.sum())
        self.bigram_mass = b
        succ_rng = np.random.default_rng(spec.bigram_seed)
        self.successor = succ_rng.integers(lo, hi, size=spec.vocab_size).tolist()

    def sample_tokens(self, rng: np.random.Generator) -> np.ndarray:
        """One sample's tokens, from ``rng`` alone.

        The draws come in a fixed order: the length (``integers``), the
        first token's uniform, then for each later position a coin
        uniform (only when ``bigram_mass > 0``), followed by a token
        uniform when the coin fails (``coin >= bigram_mass``). A coin that
        lands takes the successor of the previous token. The uniforms are
        drawn ``DRAW_WINDOW`` at a time, and those left over when the
        sample is done are never used; ``rng`` must not serve anything
        else afterwards.
        """
        length = max(2, self.spec.mean_length + int(rng.integers(-LENGTH_JITTER, LENGTH_JITTER + 1)))
        b = self.bigram_mass
        per_position = 2 if b > 0.0 else 1  # the most uniforms a later position takes
        tokens = np.empty(length, dtype=np.int64)
        u = rng.random(min(1 + per_position * (length - 1), DRAW_WINDOW))
        tokens[0] = prev = int(self.start_cdf.searchsorted(u[0], side="right"))
        pos, i = 1, 1
        while True:
            picks = self.cont_cdf.searchsorted(u, side="right").tolist()
            steps = min(length - pos, (u.size - i) // per_position)
            if b > 0.0:
                heads = (u < b).tolist()
                successor = self.successor
                out = []
                for _ in range(steps):
                    if heads[i]:
                        prev = successor[prev]
                        i += 1
                    else:
                        prev = picks[i + 1]
                        i += 2
                    out.append(prev)
            else:
                out = picks[i : i + steps]
                i += steps
            tokens[pos : pos + steps] = out
            pos += steps
            if pos == length:
                return tokens
            # Carry the unused draws into the next window and top it up.
            left = u[i:]
            u = np.concatenate([left, rng.random(max(0, min(per_position * (length - pos), DRAW_WINDOW) - left.size))])
            i = 0


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


def _generate_samples(specs, counts, seed, id_start) -> Corpus:
    """The corpus of ``counts[d]`` samples of each domain ``d`` in turn, ids from ``id_start``.

    Sample ``i`` (counted across the domains) draws from ``child_rng(seed,
    i)``, the ``i``-th child of ``seed``'s sequence. Each child is built as
    its sample is drawn, so one ``SeedSequence`` is alive at a time.
    """
    samplers = [_DomainSampler(spec) for spec in specs]
    domains = np.repeat(np.arange(len(counts)), counts)
    samples = []
    for i, d in enumerate(domains.tolist()):
        samples.append(Sample(id=id_start + i, domain_id=d, token_ids=samplers[d].sample_tokens(child_rng(seed, i))))
    return Corpus(samples, tuple(s.name for s in specs), specs[0].vocab_size)


def generate_corpus(specs: Sequence[DomainSpec], proportions: MixtureWeights, n: int, seed: int) -> Corpus:
    """Corpus of n samples with largest-remainder-exact domain counts."""
    if len(specs) != len(proportions):
        raise BadProportions(f"{len(specs)} domain specs but {len(proportions)} proportions")
    if n < len(specs):
        raise BadProportions(f"n={n} smaller than the number of domains")
    counts = largest_remainder_counts(n, proportions.weights)
    return _generate_samples(specs, counts, seed, id_start=0)


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
    (largest-remainder counts from ``weights``). Raises ``BadProportions``
    when ``proportions`` or ``weights`` does not hold one entry per spec.
    """
    if m < 1:
        raise BadMode("validation size must be >= 1")
    k = len(specs)
    if mode == "in_distribution":
        p = proportions if proportions is not None else MixtureWeights.uniform(k)
        if len(p) != k:
            raise BadProportions(f"{k} domain specs but {len(p)} proportions")
        counts = largest_remainder_counts(m, p.weights)
    elif mode == "single_domain":
        if domain is None or not (0 <= domain < k):
            raise BadMode(f"single_domain mode needs a domain index in [0, {k})")
        counts = np.zeros(k, dtype=np.int64)
        counts[domain] = m
    elif mode == "skewed":
        if weights is None:
            raise BadMode("skewed mode needs a weight vector")
        if len(weights) != k:
            raise BadProportions(f"{k} domain specs but {len(weights)} skewed validation weights")
        counts = largest_remainder_counts(m, MixtureWeights.from_config(weights).weights)
    else:
        raise BadMode(f"unknown validation mode {mode!r}")
    return _generate_samples(specs, counts, seed, id_start=id_start)
