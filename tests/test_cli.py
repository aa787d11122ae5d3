"""``dataflex-cli`` turns bad config values and unknown parameters into exit codes.

Each failure must exit with its documented code and print one diagnostic
line on stderr, never a traceback.
"""

import json

import pytest

from dataflex.cli import main
from dataflex.errors import BadParams

BASE = {
    "model": "  vocab_size: 32\n  embed_dim: 6\n  hidden_dim: 8\n",
    "data": "  synthetic:\n    num_samples: 40\n    num_domains: 2\n    seed: 1\n    val_size: 10\n",
    "train": "  batch_size: 4\n  seed: 1\n  max_steps: 4\n  eval_interval: 2\n",
    "dataflex": "  train_type: static\n",
}


def write_config(tmp_path, **sections):
    text = "".join(f"{name}:\n{body}" for name, body in {**BASE, **sections}.items())
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    return code, err


@pytest.mark.parametrize(
    "section,body,key",
    [
        ("model", "  vocab_size: 0\n  embed_dim: 6\n  hidden_dim: 8\n", "model dimensions"),
        ("train", "  batch_size: 0\n  max_steps: 4\n  eval_interval: 2\n", "batch_size"),
        ("train", "  batch_size: 4\n  max_steps: -1\n  eval_interval: 2\n", "max_steps"),
        ("train", "  batch_size: eight\n  max_steps: 4\n  eval_interval: 2\n", "batch_size"),
    ],
)
def test_bad_config_value_exits_with_bad_params(tmp_path, capsys, section, body, key):
    config = write_config(tmp_path, **{section: body})
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1
    assert err.startswith("BadParams:") and key in err


DOREMI_TYPO = "  train_type: dynamic_mix\n  component_name: doremi\n  component_params:\n    etaa: 5\n    clip_exess: false\n"


def test_train_rejects_doremi_typo(tmp_path, capsys):
    config = write_config(tmp_path, dataflex=DOREMI_TYPO)
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and "etaa" in err


@pytest.mark.parametrize(
    "dataflex,sim,typo",
    [
        ("  component_name: odm\n  component_params:\n    ema_decya: 0.5\n", "  losses:\n    - [1.0, 2.0]\n", "ema_decya"),
        ("  component_name: doremi\n  component_params:\n    etaa: 5\n", "  lambdas:\n    - [1.0, 0.0]\n", "etaa"),
    ],
)
def test_mix_sim_rejects_typo(tmp_path, capsys, dataflex, sim, typo):
    config = write_config(tmp_path, dataflex=dataflex, mix_sim=sim)
    code, err = run_cli(capsys, "mix-sim", config, str(tmp_path / "traj.jsonl"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and typo in err


@pytest.mark.parametrize("clip,expected", [("true", [0.0, 0.5]), ("false", [-1.0, 0.5])])
def test_mix_sim_doremi_honours_clip_excess(tmp_path, capsys, clip, expected):
    dataflex = f"  component_name: doremi\n  component_params:\n    clip_excess: {clip}\n"
    sim = "  proxy_losses:\n    - [1.0, 2.5]\n  ref_losses:\n    - [2.0, 2.0]\n"
    config = write_config(tmp_path, dataflex=dataflex, mix_sim=sim)
    out = tmp_path / "traj.jsonl"
    code, _ = run_cli(capsys, "mix-sim", config, str(out))
    assert code == 0
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["excess_losses"] == expected


SYNTH = {"num_samples": "40", "num_domains": "2", "seed": "1", "val_size": "10"}


def synthetic(**overrides):
    entries = {**SYNTH, **overrides}
    return "  synthetic:\n" + "".join(f"    {key}: {value}\n" for key, value in entries.items())


@pytest.mark.parametrize(
    "key,value",
    [
        ("num_samples", "abc"),
        ("num_domains", "0"),
        ("mean_length", "1"),
        ("noise_domains", "[x]"),
        ("proportions", "[0.5, half]"),
        ("val_size", "2.5"),
        ("seed", "-1"),
        ("val_seed", "-3"),
    ],
)
def test_bad_synthetic_value_exits_with_bad_params(tmp_path, capsys, key, value):
    config = write_config(tmp_path, data=synthetic(**{key: value}))
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1
    assert err.startswith("BadParams:") and key in err


def test_synthetic_typo_exits_with_bad_params(tmp_path, capsys):
    config = write_config(tmp_path, data=synthetic(num_sample="40"))
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and "num_sample" in err


def test_ratio_that_keeps_no_sample_exits_with_bad_params(tmp_path, capsys):
    dataflex = "  train_type: dynamic_select\n  component_name: loss\n  component_params:\n    ratio: 0.001\n"
    config = write_config(tmp_path, dataflex=dataflex)
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and "ratio" in err
