"""Checkpoint and metrics files: bad input raises ``ParseError``, never a bare
``KeyError`` or ``TypeError``, and names where the file went bad."""

import json

import numpy as np
import pytest

from dataflex import MetricsRecord, ModelCfg, OptimCfg, init_model, init_optimizer, snapshot, train_step
from dataflex.errors import ParseError
from dataflex.fileio import load_checkpoint, read_metrics, save_checkpoint, write_metrics

from conftest import make_sample


@pytest.fixture
def checkpoint_file(tmp_path):
    arch = ModelCfg(vocab_size=12, embed_dim=3, hidden_dim=4)
    model = init_model(arch, np.random.default_rng(0))
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.01, batch_size=2), model.params.size)
    batch = [make_sample([1, 2, 3]), make_sample([4, 5, 6, 7], sid=1)]
    model, opt, _ = train_step(model, opt, batch, np.ones(2))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, snapshot(model, opt))
    return path


def test_checkpoint_sections_keep_their_keys_and_bytes(checkpoint_file, tmp_path):
    payload = json.loads(checkpoint_file.read_text())
    assert list(payload["arch"]) == ["vocab_size", "embed_dim", "hidden_dim", "task"]
    assert list(payload["opt"]["hyper"]) == ["kind", "learning_rate", "beta1", "beta2", "eps", "batch_size"]
    again = tmp_path / "again.json"
    save_checkpoint(again, load_checkpoint(checkpoint_file))
    assert again.read_bytes() == checkpoint_file.read_bytes()


def edit(path, change):
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def test_truncated_checkpoint(checkpoint_file):
    text = checkpoint_file.read_text()
    checkpoint_file.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError, match="corrupt checkpoint"):
        load_checkpoint(checkpoint_file)


def test_misspelled_arch_key(checkpoint_file):
    edit(checkpoint_file, lambda p: p["arch"].update(vocab_sise=p["arch"].pop("vocab_size")))
    with pytest.raises(ParseError, match="vocab_sise"):
        load_checkpoint(checkpoint_file)


def test_missing_arch_key(checkpoint_file):
    edit(checkpoint_file, lambda p: p["arch"].pop("task"))
    with pytest.raises(ParseError, match="task"):
        load_checkpoint(checkpoint_file)


def test_missing_opt_t(checkpoint_file):
    edit(checkpoint_file, lambda p: p["opt"].pop("t"))
    with pytest.raises(ParseError, match="'t'"):
        load_checkpoint(checkpoint_file)


def test_wrong_hyper_type(checkpoint_file):
    edit(checkpoint_file, lambda p: p["opt"]["hyper"].update(batch_size="two"))
    with pytest.raises(ParseError, match="batch_size"):
        load_checkpoint(checkpoint_file)


def record(step):
    return MetricsRecord(step=step, train_loss=1.0, per_domain_val_loss=((0, 2.0),), overall_val_loss=2.0, mixture=(1.0,))


def test_read_metrics_names_last_good_line(tmp_path):
    path = tmp_path / "metrics.jsonl"
    write_metrics(path, [record(1), record(2)])
    with open(path, "a") as fh:
        fh.write("\n")  # a blank line is not a record
        fh.write('{"step": 3, "train_loss"\n')
        fh.write(json.dumps({"step": 4}) + "\n")
    with pytest.raises(ParseError) as info:
        read_metrics(path)
    assert info.value.line == 4
    assert "last good record ends at line 2" in str(info.value)


def test_params_of_the_wrong_length(checkpoint_file):
    edit(checkpoint_file, lambda p: p["params"].pop())
    with pytest.raises(ParseError, match="params length"):
        load_checkpoint(checkpoint_file)


def test_unknown_optimizer_kind(checkpoint_file):
    edit(checkpoint_file, lambda p: p["opt"].update(kind="rmsprop"))
    with pytest.raises(ParseError, match="corrupt checkpoint: optimizer kind 'rmsprop'"):
        load_checkpoint(checkpoint_file)


def test_optimizer_kind_that_contradicts_its_hyper_kind(checkpoint_file):
    edit(checkpoint_file, lambda p: p["opt"].update(kind="sgd"))
    with pytest.raises(ParseError, match="corrupt checkpoint: optimizer kind 'sgd' does not match opt.hyper kind 'adam'"):
        load_checkpoint(checkpoint_file)


def test_adam_checkpoint_without_moments(checkpoint_file):
    edit(checkpoint_file, lambda p: p["opt"].update(m=None, v=None))
    with pytest.raises(ParseError, match="corrupt checkpoint: adam moment 'm' must hold 112 values, got none"):
        load_checkpoint(checkpoint_file)


def test_adam_moment_of_the_wrong_length(checkpoint_file):
    edit(checkpoint_file, lambda p: p["opt"].update(m=[0.0, 0.0, 0.0]))
    with pytest.raises(ParseError, match=r"corrupt checkpoint: adam moment 'm' must hold 112 values, got shape \(3,\)"):
        load_checkpoint(checkpoint_file)


def test_negative_step_count(checkpoint_file):
    edit(checkpoint_file, lambda p: p["opt"].update(t=-5))
    with pytest.raises(ParseError, match="corrupt checkpoint: optimizer step count -5 is negative"):
        load_checkpoint(checkpoint_file)


def test_sgd_checkpoint_with_moments(checkpoint_file):
    def to_sgd(p):
        p["opt"]["kind"] = p["opt"]["hyper"]["kind"] = "sgd"
    edit(checkpoint_file, to_sgd)
    with pytest.raises(ParseError, match="corrupt checkpoint: sgd optimizer state holds moment 'm'"):
        load_checkpoint(checkpoint_file)
