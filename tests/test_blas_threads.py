"""``dataflex-cli`` writes the same bytes whether the BLAS thread variables are unset or 1.

BLAS may round a product differently on another thread count, and the
width-64 LESS sketches of this small config did so on two threads
(OpenBLAS 0.3.31). The package sets the variables to 1 where they are
unset, so an unpinned run on a machine with several cores matches a pinned
one. Each run is a fresh process, because the setting must be in place
before numpy is imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dataflex

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CONFIG = """\
model:
  vocab_size: 32
  embed_dim: 6
  hidden_dim: 8
data:
  synthetic:
    num_samples: 60
    num_domains: 3
    seed: 1
    proportions: [0.3, 0.3, 0.4]
    noise_domains: [2]
    val_size: 12
train:
  batch_size: 4
  seed: 1
  max_steps: 12
  eval_interval: 4
dataflex:
  train_type: dynamic_select
  component_name: less
  warmup_step: 4
  update_step: 4
  update_times: 2
  component_params:
    projection_dim: 64
"""


def score_bytes(tmp_path: Path, name: str, config: str, threads) -> bytes:
    """The scores file of ``dataflex-cli score`` in a fresh process; ``threads=None`` unsets the variables."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(dataflex.__file__).resolve().parents[1])
    if threads is not None:
        env.update({var: str(threads) for var in THREAD_VARS})
    (tmp_path / "run.yaml").write_text(config)
    out = tmp_path / f"{name}.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "dataflex.cli", "score", "run.yaml", out.name],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


@pytest.mark.parametrize(
    "params",
    ["", "    aggregation: max_cosine\n", "    preconditioning: none\n"],
    ids=["mean_gradient", "max_cosine", "unpreconditioned"],
)
def test_less_scores_are_the_same_with_the_thread_variables_unset(tmp_path, params):
    config = CONFIG + params
    assert score_bytes(tmp_path, "unset", config, None) == score_bytes(tmp_path, "one", config, 1)
