"""``dataflex-cli`` turns bad config values and unknown parameters into exit codes.

Each failure must exit with its documented code and print one diagnostic
line on stderr, never a traceback.
"""

import json
import warnings

import numpy as np
import pytest

from dataflex import MixtureWeights, OptimCfg, build_domain_specs, empirical_proportions, generate_corpus, make_validation
from dataflex import cli, mixers, selectors, weighters
from dataflex.cli import main
from dataflex.core import MAX_BATCH_SIZE
from dataflex.errors import (
    BadParams,
    BadProportions,
    BadSimplex,
    ColdOptimizer,
    KTooLarge,
    LengthMismatch,
    NonFinite,
    NonFiniteMetric,
    NotAdam,
    ParseError,
    UnknownComponent,
)
from dataflex.trainers import DEFAULT_REGISTRY
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
        *(
            ("dataflex", f"  train_type: static\n  init_mixture_proportions: {value}\n", "init_mixture_proportions")
            for value in ("[x, 1]", '"abc"', "[[0.5, 0.5]]", "[0.5, true]", "[0.5, null]")
        ),
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


def test_mix_sim_doremi_loss_rows_of_different_counts_exit_with_length_mismatch(tmp_path, capsys):
    sim = "  proxy_losses:\n    - [1.0, 2.5]\n    - [1.0, 2.5]\n    - [1.0, 2.5]\n  ref_losses:\n    - [2.0, 2.0]\n"
    config = write_config(tmp_path, dataflex="  component_name: doremi\n", mix_sim=sim)
    out = tmp_path / "traj.jsonl"
    code, err = run_cli(capsys, "mix-sim", config, str(out))
    assert code == LengthMismatch.exit_code == 12
    assert err.splitlines() == ["LengthMismatch: mix_sim has 3 proxy_losses rows but 1 ref_losses rows"]
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["train", "gen-data"])
@pytest.mark.parametrize("val_weights", ["[1.0]", "[0.5, 0.3, 0.2]"], ids=["short", "long"])
def test_skewed_val_weights_of_the_wrong_length_exit_with_bad_proportions(tmp_path, capsys, val_weights, command):
    config = write_config(tmp_path, data=synthetic(val_mode="skewed", val_weights=val_weights))
    out = ["--out-dir", str(tmp_path / "out")] if command == "train" else [str(tmp_path / "corpus.jsonl")]
    code, err = run_cli(capsys, command, config, *out)
    assert code == BadProportions.exit_code
    assert len(err.splitlines()) == 1
    assert err.startswith("BadProportions:") and "skewed validation weights" in err


def test_synthetic_typo_exits_with_bad_params(tmp_path, capsys):
    config = write_config(tmp_path, data=synthetic(num_sample="40"))
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and "num_sample" in err


WEIGHT = "  train_type: dynamic_weight\n  component_name: loss\n"


@pytest.mark.parametrize(
    "command,sections,key",
    [
        ("train", {"modle": "  vocab_size: 32\n"}, "modle"),
        ("train", {"model": BASE["model"] + "  vocab_sise: 32\n"}, "vocab_sise"),
        ("train", {"train": BASE["train"] + "  batch_sise: 4\n"}, "batch_sise"),
        ("train", {"dataflex": BASE["dataflex"] + "  warmup_stpe: 4\n"}, "warmup_stpe"),
        ("train", {"data": BASE["data"] + "  validaton: val.jsonl\n"}, "validaton"),
        ("train", {"data": synthetic(num_domain="2")}, "num_domain"),
        ("train", {"dataflex": WEIGHT + "  component_params:\n    temperatur: 2\n"}, "temperatur"),
        ("mix-sim", {"dataflex": "  component_name: odm\n", "mix_sim": "  losses:\n    - [1.0]\n  lossess: 3\n"}, "lossess"),
    ],
    ids=["top_level", "model", "train", "dataflex", "data", "data.synthetic", "component_params", "mix_sim"],
)
def test_unknown_key_at_every_config_site_exits_with_bad_params(tmp_path, capsys, command, sections, key):
    config = write_config(tmp_path, **sections)
    out = ["--out-dir", str(tmp_path / "out")] if command == "train" else [str(tmp_path / "traj.jsonl")]
    code, err = run_cli(capsys, command, config, *out)
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith("BadParams: unknown parameter(s)") and repr(key) in err


@pytest.mark.parametrize(
    "data,message",
    [
        (synthetic(val_size="2.5"), "data.synthetic: val_size = 2.5 is not a valid int"),
        ("  corpus: [a, b]\n  validation: val.jsonl\n", "data: corpus = ['a', 'b'] is not a valid str"),
    ],
    ids=["val_size", "corpus"],
)
def test_optional_field_error_names_the_type_it_holds(tmp_path, capsys, data, message):
    config = write_config(tmp_path, data=data)
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert (code, err) == (BadParams.exit_code, f"BadParams: {message}\n")


def test_vocab_too_small_for_the_domains_exits_with_bad_params(tmp_path, capsys):
    model = "  vocab_size: 4\n  embed_dim: 6\n  hidden_dim: 8\n"
    config = write_config(tmp_path, model=model, data=synthetic(num_domains="5"))
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith("BadParams:") and "vocab of 4" in err


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
        ('{"id": 100000000000000000000000, "domain": "a", "tokens": [1, 2]}', "sample id 100000000000000000000000 is above the int64 bound"),
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


@pytest.mark.parametrize(
    "line,key",
    [
        ("learning_rate: -1", "learning_rate"),
        ("learning_rate: 0", "learning_rate"),
        ("learning_rate: nan", "learning_rate"),
        ("learning_rate: inf", "learning_rate"),
        ("beta1: -0.1", "beta1"),
        ("beta1: 1.0", "beta1"),
        ("beta2: 1.0", "beta2"),
        ("beta2: nan", "beta2"),
        ("eps: 0", "eps"),
        ("eps: inf", "eps"),
    ],
)
def test_optimizer_value_out_of_bounds_exits_with_bad_params(tmp_path, capsys, line, key):
    config = write_config(tmp_path, train=BASE["train"] + f"  {line}\n")
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith(f"BadParams: {key} ")


PROBE = "  train_type: dynamic_select\n  component_name: nice\n  warmup_step: 2\n  update_step: 2\n  update_times: 1\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "0"])
def test_probe_lr_out_of_bounds_exits_with_bad_params(tmp_path, capsys, value):
    config = write_config(tmp_path, dataflex=PROBE + f"  component_params:\n    probe_lr: {value}\n")
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith("BadParams: probe_lr ")


def test_probe_that_overflows_the_metric_exits_with_non_finite_metric(tmp_path, capsys):
    config = write_config(tmp_path, dataflex=PROBE + "  component_params:\n    probe_lr: 1e308\n")
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == NonFiniteMetric.exit_code == 21
    assert err.splitlines() == ["NonFiniteMetric: metric returned inf after probing sample 0"]


@pytest.mark.parametrize("command", ["gen-data", "train"])
@pytest.mark.parametrize("entry", ["7", "2", "-1"])
def test_noise_domain_outside_the_domains_exits_with_bad_params(tmp_path, capsys, command, entry):
    config = write_config(tmp_path, data=synthetic(noise_domains=f"[0, {entry}]"))
    out = [str(tmp_path / "corpus.jsonl")] if command == "gen-data" else ["--out-dir", str(tmp_path / "out")]
    code, err = run_cli(capsys, command, config, *out)
    assert code == BadParams.exit_code
    assert err.splitlines() == [f"BadParams: noise_domains entry {entry} outside [0, 2)"]


def test_synthetic_token_budget_over_the_bound_exits_with_bad_params(tmp_path, capsys):
    config = write_config(tmp_path, data=synthetic(mean_length="300000000000"))
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("BadParams:") and "num_samples" in err and "mean_length" in err


def test_synthetic_validation_token_budget_is_bounded_too(tmp_path, capsys):
    config = write_config(tmp_path, data=synthetic(mean_length="2000000", val_size="100"))
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1
    assert err.startswith("BadParams:") and "val_size" in err and "mean_length" in err


NEAR = "  train_type: dynamic_select\n  component_name: near\n  warmup_step: 2\n  update_step: 2\n  update_times: 1\n"


@pytest.mark.parametrize("command", ["train", "score"])
@pytest.mark.parametrize("k", ["0", "-2"])
def test_near_k_below_one_exits_with_bad_params(tmp_path, capsys, command, k):
    config = write_config(tmp_path, dataflex=NEAR + f"  component_params:\n    k: {k}\n")
    out = tmp_path / "out"
    code, err = run_cli(capsys, command, config, *(["--out-dir", str(out)] if command == "train" else [str(out)]))
    assert code == BadParams.exit_code
    assert err.splitlines() == [f"BadParams: k must be >= 1, got {k}"]


@pytest.fixture
def train_steps(monkeypatch):
    """The training steps taken, counted at both modules that step a model."""
    calls = []

    def counting(inner):
        def train_step(*args):
            calls.append(1)
            return inner(*args)

        return train_step

    for module in (mixers, weighters):
        monkeypatch.setattr(module, "train_step", counting(module.train_step))
    return calls


SCHEDULED = "  warmup_step: 2\n  update_step: 2\n  update_times: 1\n"


@pytest.mark.parametrize(
    "train_type,name,key,value",
    [
        ("dynamic_weight", "loss", "temperature", "nan"),
        ("dynamic_select", "tsds", "sigma", "nan"),
        ("dynamic_select", "tsds", "c", "nan"),
        ("dynamic_mix", "doremi", "eta", "nan"),
        ("dynamic_mix", "odm", "eps_min", "nan"),
        ("dynamic_mix", "odm", "reward_scale", "nan"),
        ("dynamic_mix", "odm", "clip_threshold", "nan"),
        ("dynamic_select", "less", "projection_seed", "-1"),
    ],
)
def test_out_of_range_component_value_exits_with_bad_params_before_any_step(tmp_path, capsys, train_steps, train_type, name, key, value):
    dataflex = f"  train_type: {train_type}\n  component_name: {name}\n{SCHEDULED}  component_params:\n    {key}: {value}\n"
    config = write_config(tmp_path, dataflex=dataflex)
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith(f"BadParams: {key} must ") and err.rstrip().endswith(value)
    assert train_steps == []


@pytest.mark.parametrize("name,sim", [("odm", "  losses:\n    - []\n"), ("doremi", "  lambdas:\n    - []\n")])
def test_mix_sim_with_an_empty_first_row_exits_with_bad_simplex(tmp_path, capsys, name, sim):
    config = write_config(tmp_path, dataflex=f"  component_name: {name}\n", mix_sim=sim)
    code, err = run_cli(capsys, "mix-sim", config, str(tmp_path / "traj.jsonl"))
    assert code == BadSimplex.exit_code == 7
    assert err.splitlines() == ["BadSimplex: uniform weights need at least one domain, got 0"]


@pytest.mark.parametrize("command", ["train", "score"])
def test_near_k_above_the_validation_size_exits_with_k_too_large_before_any_step(tmp_path, capsys, train_steps, command):
    config = write_config(tmp_path, dataflex=NEAR + "  component_params:\n    k: 11\n")
    out = tmp_path / "out"
    code, err = run_cli(capsys, command, config, *(["--out-dir", str(out)] if command == "train" else [str(out)]))
    assert code == KTooLarge.exit_code == 17
    assert err.splitlines() == ["KTooLarge: k=11 outside [1, 10]"]
    assert train_steps == []


TSDS = "  train_type: dynamic_select\n  component_name: tsds\n" + SCHEDULED


@pytest.mark.parametrize("command", ["train", "score"])
def test_tsds_sigma_whose_square_underflows_exits_with_bad_params_before_any_step(tmp_path, capsys, train_steps, command):
    config = write_config(tmp_path, dataflex=TSDS + "  component_params:\n    sigma: 1e-300\n")
    out = tmp_path / "out"
    code, err = run_cli(capsys, command, config, *(["--out-dir", str(out)] if command == "train" else [str(out)]))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith("BadParams: sigma must ") and err.rstrip().endswith("1e-300")
    assert train_steps == []


@pytest.mark.parametrize(
    "name,params,message",
    [
        ("odm", "eps_min: 0.6", "BadParams: K*eps_min = 1.2 exceeds 1"),
        ("doremi", "eta: inf", "BadParams: eta must lie in (0, inf), got inf"),
    ],
)
def test_mixer_setting_that_cannot_run_exits_with_bad_params_before_any_step(tmp_path, capsys, train_steps, name, params, message):
    config = write_config(tmp_path, dataflex=f"  train_type: dynamic_mix\n  component_name: {name}\n{SCHEDULED}  component_params:\n    {params}\n")
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert err.splitlines() == [message]
    assert train_steps == []


@pytest.mark.parametrize(
    "name,params,message",
    [
        ("doremi", "eta: 1e308", "NonFinite: exponentiated weights sum to inf"),
        ("odm", "clip_threshold: 1e308", "NonFinite: raw bandit weights overflowed"),
        ("odm", "clip_threshold: inf", "NonFinite: raw bandit weights overflowed"),
    ],
)
def test_mixer_update_that_overflows_exits_with_one_non_finite_line(tmp_path, capsys, name, params, message):
    config = write_config(tmp_path, dataflex=f"  train_type: dynamic_mix\n  component_name: {name}\n{SCHEDULED}  component_params:\n    {params}\n")
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == NonFinite.exit_code == 19
    assert err.splitlines() == [message]


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("num_samples", "-5", "num_samples must be >= 1, got -5"),
        ("val_size", "-3", "val_size must be >= 1, got -3"),
        ("val_mode", "bogus", "val_mode must be one of ['in_distribution', 'single_domain', 'skewed'], got 'bogus'"),
    ],
)
def test_synthetic_size_or_mode_out_of_range_exits_with_bad_params_at_parse(tmp_path, capsys, monkeypatch, key, value, message):
    monkeypatch.setattr(cli, "generate_corpus", lambda *args: pytest.fail("corpus generated before the check"))
    config = write_config(tmp_path, data=synthetic(**{key: value}))
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == BadParams.exit_code
    assert err.splitlines() == [f"BadParams: {message}"]


@pytest.mark.parametrize(
    "model,count",
    [
        ("  vocab_size: 32\n  embed_dim: 6\n  hidden_dim: 4000000000\n", 156000000224),
        ("  vocab_size: 100000000000\n  embed_dim: 6\n  hidden_dim: 8\n", 1500000000056),
        ("  vocab_size: 100000\n  embed_dim: 700\n  hidden_dim: 700\n", 140590700),
    ],
    ids=["hidden_dim", "vocab_size", "just over"],
)
@pytest.mark.parametrize("command", ["train", "gen-data", "score"])
def test_model_over_the_parameter_bound_exits_with_bad_params_at_parse(tmp_path, capsys, monkeypatch, model, count, command):
    monkeypatch.setattr(cli, "build_domain_specs", lambda *args, **kwargs: pytest.fail("domains built before the check"))
    config = write_config(tmp_path, model=model)
    out = ["--out-dir", str(tmp_path / "out")] if command == "train" else [str(tmp_path / "out.jsonl")]
    code, err = run_cli(capsys, command, config, *out)
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith("BadParams: model:")
    assert f"give {count} parameters, above the bound of {2**27}" in err


def test_softmax_temperature_that_overflows_the_weights_exits_with_non_finite(tmp_path, capsys):
    dataflex = f"  train_type: dynamic_weight\n  component_name: loss\n{SCHEDULED}  component_params:\n    temperature: 1e-310\n"
    config = write_config(tmp_path, dataflex=dataflex)
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == NonFinite.exit_code == 19
    assert err.splitlines() == ["NonFinite: softmax weights are not finite at temperature 1e-310"]


@pytest.mark.parametrize(
    "name,sim,foreign",
    [
        ("odm", "  losses:\n    - [1.0, 2.0]\n  lambdas:\n    - [1.0, 0.0]\n  proxy_losses:\n    - [1.0, 2.0]\n", "['lambdas', 'proxy_losses']"),
        ("doremi", "  lambdas:\n    - [1.0, 0.0]\n  losses:\n    - [1.0, 2.0]\n", "['losses']"),
    ],
    ids=["odm", "doremi"],
)
def test_mix_sim_key_of_another_mixer_exits_with_bad_params(tmp_path, capsys, name, sim, foreign):
    config = write_config(tmp_path, dataflex=f"  component_name: {name}\n", mix_sim=sim)
    out = tmp_path / "traj.jsonl"
    code, err = run_cli(capsys, "mix-sim", config, str(out))
    assert code == BadParams.exit_code
    assert len(err.splitlines()) == 1 and err.startswith(f"BadParams: unknown parameter(s) for mix_sim: {foreign}")
    assert not out.exists()


@pytest.mark.parametrize("ref", ["[2.0, 2.0]", "[2.0, 2.0, 2.0]"])
def test_mix_sim_doremi_given_lambdas_and_losses_exits_with_parse_error(tmp_path, capsys, ref):
    sim = f"  lambdas:\n    - [1.0, 0.0]\n  proxy_losses:\n    - [1.0, 2.5]\n  ref_losses:\n    - {ref}\n"
    config = write_config(tmp_path, dataflex="  component_name: doremi\n", mix_sim=sim)
    out = tmp_path / "traj.jsonl"
    code, err = run_cli(capsys, "mix-sim", config, str(out))
    assert code == ParseError.exit_code == 4
    assert err.splitlines() == [
        "ParseError: mix_sim for doremi needs 'lambdas' or 'proxy_losses'+'ref_losses', got ['lambdas', 'proxy_losses', 'ref_losses']"
    ]
    assert not out.exists()


def test_mix_sim_unknown_mixer_exits_with_unknown_component_as_train_does(tmp_path, capsys):
    config = write_config(tmp_path, dataflex="  train_type: dynamic_mix\n  component_name: nope\n", mix_sim="  losses:\n    - [1.0, 2.0]\n")
    code, err = run_cli(capsys, "mix-sim", config, str(tmp_path / "traj.jsonl"))
    assert code == UnknownComponent.exit_code == 24
    assert err.splitlines() == ["UnknownComponent: no mixer named 'nope'; known: ['doremi', 'odm', 'random', 'static']"]
    assert run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out")) == (code, err)


def mix_sim_records(tmp_path, capsys, dataflex, sim):
    config = write_config(tmp_path, dataflex=dataflex, mix_sim=sim)
    out = tmp_path / "traj.jsonl"
    code, err = run_cli(capsys, "mix-sim", config, str(out))
    assert (code, err) == (0, "")
    return [json.loads(line) for line in out.read_text().splitlines()]


@pytest.mark.parametrize(
    "init,weights", [("", [0.5, 0.5]), ("  init_mixture_proportions: [0.25, 0.75]\n", [0.25, 0.75])], ids=["uniform", "init"]
)
def test_mix_sim_static_keeps_its_starting_weights(tmp_path, capsys, init, weights):
    sim = "  losses:\n    - [1.0, 2.0]\n    - [3.0, null]\n    - [0.5, 0.5]\n"
    records = mix_sim_records(tmp_path, capsys, "  component_name: static\n" + init, sim)
    assert records == [{"update": i, "weights": weights} for i in range(3)]


def trajectory_of_run(tmp_path, capsys, dataflex):
    config = write_config(tmp_path, dataflex=dataflex)
    out = tmp_path / "out"
    assert run_cli(capsys, "train", config, "--out-dir", str(out)) == (0, "")
    return [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]


def test_mix_sim_random_replays_the_weights_of_a_random_run_at_the_same_seed(tmp_path, capsys):
    dataflex = "  train_type: dynamic_mix\n  component_name: random\n  warmup_step: 1\n  update_step: 1\n  update_times: 3\n"
    run = trajectory_of_run(tmp_path, capsys, dataflex)
    assert [rec["step"] for rec in run] == [1, 2, 3]
    records = mix_sim_records(tmp_path, capsys, dataflex, "  losses:\n" + "    - [1.0, 2.0]\n" * 3)
    assert [rec["weights"] for rec in records] == [rec["weights"] for rec in run]
    assert len({tuple(rec["weights"]) for rec in records}) == 3


def test_mix_sim_doremi_replays_a_run_from_its_excess_losses(tmp_path, capsys):
    dataflex = "  train_type: dynamic_mix\n  component_name: doremi\n  warmup_step: 2\n  update_step: 2\n  update_times: 4\n"
    dataflex += "  component_params:\n    ref_steps: 6\n"
    run = trajectory_of_run(tmp_path, capsys, dataflex)
    assert len(run) == 4
    lambdas = "".join(f"    - [{', '.join(repr(x) for x in rec['excess_losses'])}]\n" for rec in run)
    records = mix_sim_records(tmp_path, capsys, dataflex, "  lambdas:\n" + lambdas)
    assert [rec["weights"] for rec in records] == [rec["weights"] for rec in run]
    assert [rec["excess_losses"] for rec in records] == [rec["excess_losses"] for rec in run]


class RollMixer(mixers.Mixer):
    """A toy mixer: each update moves every domain's weight to the next domain."""

    def update(self, policy, observation, rng):
        return MixtureWeights(np.roll(policy.weights, 1)), {"seen": observation is not None}


def test_a_registered_mixer_runs_under_train_and_mix_sim(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(DEFAULT_REGISTRY, "_factories", dict(DEFAULT_REGISTRY._factories))
    DEFAULT_REGISTRY.register("mixer", "roll", lambda params: RollMixer())
    dataflex = "  train_type: dynamic_mix\n  component_name: roll\n  init_mixture_proportions: [0.25, 0.75]\n"
    dataflex += "  warmup_step: 1\n  update_step: 2\n  update_times: 2\n"
    run = trajectory_of_run(tmp_path, capsys, dataflex)
    assert run == [{"step": 1, "weights": [0.75, 0.25], "seen": False}, {"step": 3, "weights": [0.25, 0.75], "seen": False}]
    records = mix_sim_records(tmp_path, capsys, dataflex, "  losses:\n    - [1.0, 2.0]\n    - [1.0, 2.0]\n")
    assert records == [{"update": 0, "weights": [0.75, 0.25], "seen": True}, {"update": 1, "weights": [0.25, 0.75], "seen": True}]


LESS = "  train_type: dynamic_select\n  component_name: less\n" + SCHEDULED


@pytest.mark.parametrize("command", ["train", "score"])
def test_projection_wider_than_the_model_exits_with_bad_params_before_any_step(tmp_path, capsys, monkeypatch, train_steps, command):
    monkeypatch.setattr(selectors, "SignProjection", lambda *args: pytest.fail("projection built"))
    config = write_config(tmp_path, dataflex=LESS + "  component_params:\n    projection_dim: 4000000000\n")
    out = tmp_path / "out"
    code, err = run_cli(capsys, command, config, *(["--out-dir", str(out)] if command == "train" else [str(out)]))
    assert code == BadParams.exit_code
    assert err.splitlines() == ["BadParams: projection_dim must be <= the model's 536 parameters, got 4000000000"]
    assert train_steps == []


@pytest.mark.parametrize("name", ["static", "random", "odm"])
@pytest.mark.parametrize("init", ["", "  init_mixture_proportions: [0.25, 0.75]\n"], ids=["uniform", "init"])
def test_mix_sim_row_of_another_width_exits_with_length_mismatch(tmp_path, capsys, name, init):
    sim = "  losses:\n    - [1.0, 2.0]\n    - [1.0, 2.0, 3.0]\n"
    config = write_config(tmp_path, dataflex=f"  component_name: {name}\n" + init, mix_sim=sim)
    out = tmp_path / "traj.jsonl"
    code, err = run_cli(capsys, "mix-sim", config, str(out))
    assert code == LengthMismatch.exit_code == 12
    assert err.splitlines() == ["LengthMismatch: each mix_sim row needs 2 entries, one per domain"]
    assert not out.exists()


#: command -> the sections of a config that it runs to exit 0 on.
RUNNABLE = {
    "gen-data": {},
    "score": {"dataflex": "  train_type: dynamic_select\n  component_name: random\n" + SCHEDULED},
    "mix-sim": {"dataflex": "  component_name: static\n", "mix_sim": "  losses:\n    - [1.0, 2.0]\n"},
}


@pytest.mark.parametrize("flag", [["--max-steps", "1"], ["--eval-interval", "5"]], ids=["max_steps", "eval_interval"])
@pytest.mark.parametrize("command", sorted(RUNNABLE))
def test_step_flags_are_train_only(tmp_path, capsys, command, flag):
    config = write_config(tmp_path, **RUNNABLE[command])
    out = tmp_path / "out"
    assert run_cli(capsys, command, config, str(out)) == (0, "")
    out.unlink()
    code, err = run_cli(capsys, command, config, str(out), *flag)
    assert code == 2
    assert err.splitlines()[-1] == f"dataflex-cli: error: unrecognized arguments: {' '.join(flag)}"
    assert not out.exists()


def test_train_step_flags_override_the_config(tmp_path, capsys):
    config = write_config(tmp_path, train="  batch_size: 4\n  seed: 1\n  max_steps: 9\n  eval_interval: 3\n")
    out = tmp_path / "out"
    assert run_cli(capsys, "train", config, "--out-dir", str(out), "--max-steps", "4", "--eval-interval", "2") == (0, "")
    assert [json.loads(line)["step"] for line in (out / "metrics.jsonl").read_text().splitlines()] == [2, 4]


@pytest.mark.parametrize("command", ["train", "score"])
def test_adam_preconditioning_on_sgd_exits_with_not_adam_before_any_step(tmp_path, capsys, train_steps, command):
    config = write_config(tmp_path, train=BASE["train"] + "  optimizer: sgd\n", dataflex=LESS)
    out = tmp_path / "out"
    code, err = run_cli(capsys, command, config, *(["--out-dir", str(out)] if command == "train" else [str(out)]))
    assert code == NotAdam.exit_code == 14
    assert err.splitlines() == ["NotAdam: influence preconditioning='adam' requires an adam optimizer"]
    assert train_steps == []


@pytest.mark.parametrize("command", ["train", "score"])
def test_adam_preconditioning_at_point_zero_exits_with_cold_optimizer(tmp_path, capsys, command):
    config = write_config(tmp_path, dataflex=LESS.replace("warmup_step: 2", "warmup_step: 0"))
    out = tmp_path / "out"
    code, err = run_cli(capsys, command, config, *(["--out-dir", str(out)] if command == "train" else [str(out)]))
    assert code == ColdOptimizer.exit_code == 15
    assert err.splitlines() == ["ColdOptimizer: adam preconditioning needs at least one completed optimizer step"]


def test_missing_config_file_exits_with_io_error(tmp_path, capsys):
    code, err = run_cli(capsys, "train", str(tmp_path / "missing.yaml"), "--out-dir", str(tmp_path / "out"))
    assert code == 25
    assert err.splitlines() == [f"io error: [Errno 2] No such file or directory: '{tmp_path / 'missing.yaml'}'"]


def test_missing_corpus_file_exits_with_io_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, data="  corpus: missing.jsonl\n  validation: val.jsonl\n")
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == 25
    assert err.splitlines() == ["io error: [Errno 2] No such file or directory: 'missing.jsonl'"]


@pytest.mark.parametrize(
    "data,message",
    [
        ("  corpus: corpus.jsonl\n", "ParseError: data.corpus requires data.validation"),
        ("  validation: val.jsonl\n", "ParseError: data section needs either 'corpus'/'validation' paths or a 'synthetic' block"),
    ],
)
def test_data_section_without_a_source_exits_with_parse_error(tmp_path, capsys, monkeypatch, data, message):
    monkeypatch.chdir(tmp_path)
    corpus_data(tmp_path, GOOD_RECORD)
    config = write_config(tmp_path, data=data)
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == ParseError.exit_code == 4
    assert err.splitlines() == [message]


def test_score_without_a_component_exits_with_parse_error(tmp_path, capsys):
    code, err = run_cli(capsys, "score", write_config(tmp_path), str(tmp_path / "scores.jsonl"))
    assert code == ParseError.exit_code
    assert err.splitlines() == ["ParseError: score needs dataflex.component_name"]


@pytest.mark.parametrize(
    "text,message",
    [
        ("model:\n\tvocab_size: 32\n", "line 2: tabs are not allowed in indentation"),
        ("model:\n  vocab_size: 32\n  vocab_size: 16\n", "line 3: duplicate key 'vocab_size'"),
        ("model:\n  vocab_size: 32\n    embed_dim: 6\n", "line 3: unexpected indentation of 4"),
    ],
    ids=["tab", "duplicate", "indentation"],
)
def test_malformed_config_text_exits_with_parse_error_naming_its_line(tmp_path, capsys, text, message):
    config = tmp_path / "run.yaml"
    config.write_text(text)
    code, err = run_cli(capsys, "train", str(config), "--out-dir", str(tmp_path / "out"))
    assert code == ParseError.exit_code
    assert err.splitlines() == [f"ParseError: {message}"]


@pytest.mark.parametrize(
    "optimizer,eval_interval,message",
    [
        ("adam", 2, "step 2 left non-finite model parameters (learning_rate 1e+308)"),
        ("sgd", 4, "step 3 left non-finite model parameters (learning_rate 1e+308)"),
        ("adam", 1, "step 1: metrics record contains non-finite losses"),
    ],
    ids=["adam", "sgd", "eval"],
)
def test_a_diverged_run_exits_with_non_finite_naming_the_step(tmp_path, capsys, optimizer, eval_interval, message):
    train = f"  optimizer: {optimizer}\n  learning_rate: 1e308\n  batch_size: 4\n  seed: 1\n  max_steps: 4\n  eval_interval: {eval_interval}\n"
    config = write_config(tmp_path, train=train)
    code, err = run_cli(capsys, "train", config, "--out-dir", str(tmp_path / "out"))
    assert code == NonFinite.exit_code == 19
    assert err.splitlines() == [f"NonFinite: {message}"]


@pytest.mark.parametrize("command", ["train", "gen-data", "score"])
def test_batch_size_over_the_bound_exits_with_bad_params_at_parse(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "build_domain_specs", lambda *args, **kwargs: pytest.fail("domains built before the check"))
    config = write_config(tmp_path, train="  batch_size: 100000000000\n  seed: 1\n  max_steps: 4\n  eval_interval: 2\n")
    out = ["--out-dir", str(tmp_path / "out")] if command == "train" else [str(tmp_path / "out.jsonl")]
    code, err = run_cli(capsys, command, config, *out)
    assert code == BadParams.exit_code == 18
    assert err.splitlines() == [f"BadParams: batch_size must lie in [1, {MAX_BATCH_SIZE}], got 100000000000"]


def test_batch_size_bound_holds_its_endpoint():
    assert OptimCfg(batch_size=MAX_BATCH_SIZE).batch_size == MAX_BATCH_SIZE
    with pytest.raises(BadParams, match="^batch_size must lie in"):
        OptimCfg(batch_size=MAX_BATCH_SIZE + 1)
