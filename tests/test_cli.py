"""``dataflex-cli`` turns bad config values and unknown parameters into exit codes.

Each failure must exit with its documented code and print one diagnostic
line on stderr, never a traceback.
"""

import json
import warnings

import pytest

from dataflex import MixtureWeights, build_domain_specs, empirical_proportions, generate_corpus, make_validation
from dataflex.cli import main
from dataflex.errors import BadParams, ParseError
from dataflex.fileio import write_corpus

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


@pytest.mark.parametrize("value", ["3", "[a, b]"])
def test_data_section_that_is_not_a_mapping_exits_with_parse_error(tmp_path, capsys, value):
    config = tmp_path / "run.yaml"
    config.write_text("".join(f"{name}:\n{body}" for name, body in BASE.items() if name != "data") + f"data: {value}\n")
    code, err = run_cli(capsys, "train", str(config), "--out-dir", str(tmp_path / "out"))
    assert code == ParseError.exit_code
    assert err.splitlines() == ["ParseError: section 'data' must be a mapping"]


def test_mix_sim_odm_loss_for_zero_weight_domain_exits_with_bad_params(tmp_path, capsys):
    dataflex = "  component_name: odm\n  init_mixture_proportions: [1.0, 0.0]\n"
    config = write_config(tmp_path, dataflex=dataflex, mix_sim="  losses:\n    - [1.0, 2.0]\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_cli(capsys, "mix-sim", config, str(tmp_path / "traj.jsonl"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith("BadParams:") and "domain 1" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_mix_sim_section_that_is_not_a_mapping_exits_with_parse_error(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("".join(f"{name}:\n{body}" for name, body in BASE.items()) + "  component_name: odm\nmix_sim: 3\n")
    code, err = run_cli(capsys, "mix-sim", str(config), str(tmp_path / "traj.jsonl"))
    assert code == ParseError.exit_code
    assert err.splitlines() == ["ParseError: section 'mix_sim' must be a mapping"]


@pytest.mark.parametrize(
    "name,sim,key",
    [
        ("doremi", "  lambdas: 5\n", "lambdas"),
        ("doremi", "  lambdas:\n    - [1.0, abc]\n", "lambdas"),
        ("doremi", "  proxy_losses:\n    - 2.0\n  ref_losses:\n    - [1.0, 1.0]\n", "proxy_losses"),
        ("odm", "  losses:\n    - [1.0, true]\n", "losses"),
        ("odm", "  loses:\n    - [1.0, 2.0]\n", "['loses']"),
    ],
)
def test_mix_sim_bad_entry_or_unknown_key_exits_with_bad_params(tmp_path, capsys, name, sim, key):
    config = write_config(tmp_path, dataflex=f"  component_name: {name}\n", mix_sim=sim)
    code, err = run_cli(capsys, "mix-sim", config, str(tmp_path / "traj.jsonl"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith("BadParams:") and key in err


GOOD_RECORD = '{"id": 0, "domain": "a", "tokens": [1, 2, 3]}\n'


def corpus_data(tmp_path, corpus_text, corpus="corpus.jsonl"):
    """A data section that reads ``corpus_text`` from the file ``corpus``, relative to ``tmp_path``."""
    (tmp_path / corpus).write_text(corpus_text)
    (tmp_path / "val.jsonl").write_text('{"id": 50, "domain": "a", "tokens": [4, 5, 6]}\n')
    return f"  corpus: {corpus}\n  validation: val.jsonl\n"


@pytest.mark.parametrize(
    "record,message",
    [
        ('{"id": "abc", "domain": "a", "tokens": [1, 2]}', "invalid literal"),
        ('{"id": 1, "domain": "a", "tokens": "12"}', "non-empty 1-D"),
        ('{"id": 1, "domain": "a", "tokens": [1, -2]}', "negative token"),
        ('{"id": 1, "domain": "a", "tokens": [1, 32]}', "out of vocabulary"),
        ('{"id": 0, "domain": "a", "tokens": [1, 2]}', "duplicate sample id 0"),
        ("3", "must be an object"),
    ],
)
def test_bad_corpus_record_exits_with_parse_error_naming_its_line(tmp_path, capsys, monkeypatch, record, message):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, data=corpus_data(tmp_path, GOOD_RECORD + record + "\n"))
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == ParseError.exit_code
    assert len(err.splitlines()) == 1
    assert err.startswith("ParseError: line 2:") and message in err


def test_numeric_paths_are_file_names(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = corpus_data(tmp_path, GOOD_RECORD + '{"id": 1, "domain": "a", "tokens": [2, 3]}\n', corpus="3")
    config = write_config(tmp_path, data=data, train=BASE["train"] + "  out_dir: 7\n")
    code, err = run_cli(capsys, "train", config)
    assert (code, err) == (0, "")
    assert (tmp_path / "7" / "metrics.jsonl").exists()


@pytest.mark.parametrize(
    "data,train,key",
    [
        ("  corpus: [a, b]\n  validation: val.jsonl\n", "", "data: corpus"),
        ("  corpus: corpus.jsonl\n  validation: [a, b]\n", "", "data: validation"),
        (BASE["data"], "  out_dir: [a, b]\n", "train: out_dir"),
    ],
)
def test_path_that_is_a_list_exits_with_bad_params(tmp_path, capsys, monkeypatch, data, train, key):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, data=data, train=BASE["train"] + train)
    code, err = run_cli(capsys, "train", config)
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith(f"BadParams: {key} = ['a', 'b'] is not a valid")


def test_corpus_files_reproduce_the_synthetic_run(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "synthetic")) == (0, "")
    assert run_cli(capsys, "gen-data", config, str(tmp_path / "corpus.jsonl")) == (0, "")
    specs = build_domain_specs(2, 32, seed=1)
    corpus = generate_corpus(specs, MixtureWeights.uniform(2), 40, 1)
    write_corpus(tmp_path / "val.jsonl", make_validation(specs, "in_distribution", 10, 2, empirical_proportions(corpus)))
    data = f"  corpus: {tmp_path / 'corpus.jsonl'}\n  validation: {tmp_path / 'val.jsonl'}\n"
    config = write_config(tmp_path, data=data)
    assert run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "files")) == (0, "")
    for name in ("metrics.jsonl", "checkpoint.json"):
        assert (tmp_path / "files" / name).read_bytes() == (tmp_path / "synthetic" / name).read_bytes()
