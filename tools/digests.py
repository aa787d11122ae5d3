"""Print a short sha256 of every output of a fixed set of ``dataflex-cli`` runs.

``DIGESTS.txt`` holds what it prints at the current commit. Diff against
that file: a change that keeps every output byte-identical prints the same
lines, and a change that moves a line rewrites the file.

    python3 tools/digests.py | diff DIGESTS.txt -

The first line names what the lines depend on beside the code: numpy's
version, its BLAS build and the BLAS thread count.

Each run is one ``python3 -m dataflex.cli`` process against the ``src`` tree
beside this script, with BLAS pinned to one thread, in a scratch directory
that the paths and printed lines are relative to. The set:

- ``train`` on the four bench workloads at seed 1;
- ``train`` on one small config per registered ``(kind, name)``, one per
  weighter strategy, and ``static`` with each optimizer;
- ``score`` with each selector;
- ``gen-data`` on the small config, on the bench shape and on a
  ``mean_length: 2`` config, which pin the corpus generator directly;
- ``train`` on that ``mean_length: 2`` config, whose one-position samples
  take the model's one-row products through training and evaluation;
- ``train`` and ``score`` with ``less`` on a V=64, E=40 model, whose
  embedding (2560 of 3464 parameters) fills five whole 512-row sign
  blocks, and on a V=64, E=36 model, whose embedding (2304 of 3176) ends
  inside the fifth block (``LESS_SHAPES``);
- ``score`` with ``less`` (``max_cosine``) on a 129-sample pool, which
  ends in a one-row chunk, and on the bench ``select_less`` workload at
  seed 1;
- ``mix-sim`` on doremi ``lambdas``, doremi proxy/reference losses, odm,
  static and random;
- every ``--help``.

Each further line is ``<run>/<file> <sha256[:16]>``; ``stdout`` is the
process's standard output. A run that fails prints its exit code and the
last line of its standard error instead.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from dataflex.core import TRAIN_TYPE_KINDS
from dataflex.trainers import COMPONENT_KINDS, DEFAULT_REGISTRY
from workloads import WORKLOADS, config_text

SMALL = """\
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
  optimizer: {optimizer}
  batch_size: 4
  seed: 1
  max_steps: 12
  eval_interval: 4
dataflex:
  train_type: {train_type}
  component_name: {name}
  warmup_step: 4
  update_step: 4
  update_times: 2
"""

#: (kind, name) -> the component_params of each of its small configs.
VARIANTS = {
    ("selector", "random"): [{"ratio": 0.4, "accumulate": "true"}],
    ("selector", "delta_loss"): [{}, {"hardest_first": "true"}],
    ("selector", "less"): [
        {"projection_dim": 64},
        {"projection_dim": 64, "aggregation": "max_cosine"},
        {"projection_dim": 0},
        {"projection_dim": 64, "preconditioning": "none"},
        {"projection_dim": 13},  # an odd width: packbits pads each row
    ],
    ("selector", "tsds"): [{"max_k": 20, "kde_k": 10}],
    ("mixer", "doremi"): [{"ref_steps": 6}],
    ("weighter", "loss"): [{"strategy": kind} for kind in ("uniform", "linear", "softmax")],
}
#: run suffix -> (vocab_size, embed_dim) of a ``less`` pair on the small config.
LESS_SHAPES = {"straddling": (64, 40), "mid_block": (64, 36)}
#: kind -> the train type whose run builds it; ``core.TRAIN_TYPE_KINDS`` inverted.
TRAIN_TYPES = {kind: train_type for train_type, kind in TRAIN_TYPE_KINDS.items() if kind}

LOSS_ROWS = "  losses:\n    - [2.0, null, 3.0]\n    - [1.9, 2.4, 2.8]\n"
MIX_SIM = {
    "doremi_lambdas": ("doremi", "  lambdas:\n    - [0.5, 0.0, 1.0]\n    - [0.2, 0.3, 0.0]\n"),
    "doremi_losses": (
        "doremi",
        "  proxy_losses:\n    - [2.0, 2.5, 3.0]\n    - [1.8, 2.6, 2.9]\n"
        "  ref_losses:\n    - [1.5, 2.6, 2.0]\n    - [1.5, 2.6, 2.0]\n",
    ),
    "odm": ("odm", LOSS_ROWS),
    "static": ("static", LOSS_ROWS),
    "random": ("random", LOSS_ROWS),
}


def small_config(train_type="static", name="", optimizer="adam", params=None) -> str:
    text = SMALL.format(train_type=train_type, name=name, optimizer=optimizer)
    if params:
        text += "  component_params:\n" + "".join(f"    {k}: {v}\n" for k, v in params.items())
    return text


def runs():
    """(run name, text of ``run.yaml`` or None, CLI arguments)."""
    for name in WORKLOADS:
        yield f"bench_{name}", config_text(name, 1), ["train", "run.yaml", "--out-dir", "out"]
    for optimizer in ("adam", "sgd"):
        yield f"static_{optimizer}", small_config(optimizer=optimizer), ["train", "run.yaml", "--out-dir", "out"]
    for kind in COMPONENT_KINDS:
        for name in DEFAULT_REGISTRY.names(kind):
            for i, params in enumerate(VARIANTS.get((kind, name), [{}])):
                config = small_config(TRAIN_TYPES[kind], name, params=params)
                yield f"{kind}_{name}_{i}", config, ["train", "run.yaml", "--out-dir", "out"]
                if kind == "selector":
                    yield f"score_{name}_{i}", config, ["score", "run.yaml", "scores.jsonl"]
    yield "gen_data", small_config(), ["gen-data", "run.yaml", "corpus.jsonl"]
    yield "gen_data_bench", config_text("static", 1), ["gen-data", "run.yaml", "corpus.jsonl"]
    shortest = small_config().replace("    val_size: 12\n", "    val_size: 12\n    mean_length: 2\n")
    yield "gen_data_mean_length_2", shortest, ["gen-data", "run.yaml", "corpus.jsonl"]
    yield "train_mean_length_2", shortest, ["train", "run.yaml", "--out-dir", "out"]
    for suffix, (vocab, embed) in LESS_SHAPES.items():
        config = small_config("dynamic_select", "less", params={"projection_dim": 64}).replace(
            "  vocab_size: 32\n  embed_dim: 6\n", f"  vocab_size: {vocab}\n  embed_dim: {embed}\n"
        )
        yield f"selector_less_{suffix}", config, ["train", "run.yaml", "--out-dir", "out"]
        yield f"score_less_{suffix}", config, ["score", "run.yaml", "scores.jsonl"]
    one_row_tail = small_config("dynamic_select", "less", params={"projection_dim": 64, "aggregation": "max_cosine"})
    yield "score_less_one_row_tail", one_row_tail.replace("num_samples: 60", "num_samples: 129"), ["score", "run.yaml", "scores.jsonl"]
    yield "score_bench_select_less", config_text("select_less", 1), ["score", "run.yaml", "scores.jsonl"]
    for run, (name, body) in MIX_SIM.items():
        yield f"mix_sim_{run}", small_config(name=name) + "mix_sim:\n" + body, ["mix-sim", "run.yaml", "trajectory.jsonl"]
    for command in ("", "train", "gen-data", "score", "mix-sim"):
        yield f"help_{command or 'main'}", None, [command, "--help"] if command else ["--help"]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# numpy {np.__version__}, {blas['name']} {blas['version']}, BLAS threads 1", flush=True)
    with tempfile.TemporaryDirectory() as scratch:
        for run, config, cli_args in runs():
            cwd = Path(scratch) / run
            cwd.mkdir()
            if config is not None:
                (cwd / "run.yaml").write_text(config)
            proc = subprocess.run([sys.executable, "-m", "dataflex.cli", *cli_args], cwd=cwd, env=env, capture_output=True)
            if proc.returncode != 0:
                lines = proc.stderr.decode().strip().splitlines() or [""]
                print(f"{run} exit {proc.returncode}: {lines[-1]}", flush=True)
                continue
            (cwd / "stdout").write_bytes(proc.stdout)
            for path in sorted(p for p in cwd.rglob("*") if p.is_file() and p.name != "run.yaml"):
                sha = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                print(f"{run}/{path.relative_to(cwd).as_posix()} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
