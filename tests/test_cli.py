"""``dataflex-cli`` turns bad config values and unknown parameters into exit codes.

Each failure must exit with its documented code and print one diagnostic
line on stderr, never a traceback.
"""

import json
import warnings

import pytest

from dataflex import MixtureWeights, build_domain_specs, empirical_proportions, generate_corpus, make_validation
from dataflex.cli import main
from dataflex.errors import BadParams, BadProportions, LengthMismatch, NonFiniteMetric, ParseError
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
