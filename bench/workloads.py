"""The benchmark's workloads, each a run config in dataflex's own config syntax.

Every workload uses the reference shape: V=256, E=32, H=64, batch 32, a pool
of 2,000 samples over 4 domains with mean length 32, and 200 validation
samples. Domain proportions are skewed, domain 3 is pure noise, and the
validation set holds none of it, so selectors and mixers have structure to
find. The seed given on the command line becomes both the data seed and the
training seed; nothing else about a workload depends on it.

This module imports neither numpy nor dataflex, so ``run.py`` stays free of
both.
"""

SHARED = """\
model:
  vocab_size: 256
  embed_dim: 32
  hidden_dim: 64
data:
  synthetic:
    num_samples: 2000
    num_domains: 4
    seed: {seed}
    proportions: [0.15, 0.25, 0.2, 0.4]
    noise_domains: [3]
    mean_length: 32
    val_size: 200
    val_mode: skewed
    val_weights: [0.4, 0.3, 0.3, 0.0]
train:
  optimizer: adam
  learning_rate: 0.003
  batch_size: 32
  seed: {seed}
  max_steps: 300
  eval_interval: 100
"""

# name -> its dataflex section; BENCHMARK.json says why each workload is here
WORKLOADS = {
    "static": """\
dataflex:
  train_type: static
""",
    "select_less": """\
dataflex:
  train_type: dynamic_select
  component_name: less
  warmup_step: 100
  update_step: 100
  update_times: 2
  component_params:
    ratio: 0.5
    projection_dim: 512
    preconditioning: adam
""",
    "weight_softmax": """\
dataflex:
  train_type: dynamic_weight
  component_name: loss
  warmup_step: 25
  component_params:
    strategy: softmax
    temperature: 1.0
""",
    "mix_doremi": """\
dataflex:
  train_type: dynamic_mix
  component_name: doremi
  warmup_step: 10
  update_step: 50
  update_times: 3
""",
}


def config_text(name: str, seed: int) -> str:
    """The config file of workload ``name`` at ``seed``."""
    return SHARED.format(seed=seed) + WORKLOADS[name]

