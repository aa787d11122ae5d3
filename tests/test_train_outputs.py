"""Each train type writes its own files and fires at its own points.

Every mode is one run of the step engine; its component's ``start`` decides
the points and which result lists exist, and ``dataflex-cli train`` writes
a file for each list that exists.
"""

import argparse

import pytest

from dataflex import invocation_steps, run_training
from dataflex.cli import _build_data, _load_run_inputs, main

CONFIG = """\
model:
  vocab_size: 32
  embed_dim: 6
  hidden_dim: 8
data:
  synthetic:
    num_samples: 40
    num_domains: 2
    seed: 1
    val_size: 10
train:
  batch_size: 4
  seed: 1
  max_steps: 6
  eval_interval: 2
dataflex:
  train_type: {train_type}
{component}  warmup_step: 1
  update_step: 2
  update_times: 2
"""

OWN_FILES = {"dynamic_select": "selections.jsonl", "dynamic_mix": "trajectory.jsonl", "dynamic_weight": "weight_stats.jsonl"}


@pytest.mark.parametrize(
    "train_type,name",
    [
        ("static", None),
        ("dynamic_select", "loss"),
        ("dynamic_mix", "static"),
        ("dynamic_mix", "odm"),
        ("dynamic_mix", "doremi"),
        ("dynamic_weight", "loss"),
    ],
)
def test_train_writes_the_files_of_its_mode_and_fires_at_its_points(tmp_path, capsys, train_type, name):
    config = tmp_path / "run.yaml"
    component = f"  component_name: {name}\n" if name else ""
    config.write_text(CONFIG.format(train_type=train_type, component=component))
    out = tmp_path / "out"
    assert main(["train", str(config), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    expected = {"metrics.jsonl", "checkpoint.json"} | ({OWN_FILES[train_type]} if train_type in OWN_FILES else set())
    assert {p.name for p in out.iterdir()} == expected

    tree, cfg = _load_run_inputs(config, argparse.Namespace())
    corpus, val = _build_data(tree, cfg)
    result = run_training(cfg, corpus, val)
    points = [] if train_type in ("static", "dynamic_weight") else invocation_steps(cfg.schedule)
    assert result.invocations == points
