"""The chunked checkpoint writer against a frozen copy of its earlier form.

``save_checkpoint`` formats ``params``, ``m`` and ``v`` ``_CHECKPOINT_CHUNK``
values at a time. The function below is the earlier writer, one
``json.dumps`` of the whole payload. The two must write the same bytes at
every parameter count (below, at and above the chunk size), with the float
spellings that stress the encoder: ``-0.0``, the smallest subnormal, the
largest double and, in Adam's ``v``, ``inf``. The writer's own memory is
bounded with ``tracemalloc`` at the bench shape and a larger one.
"""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dataflex import ModelCfg, ModelState, OptimCfg, OptimizerState, init_model
from dataflex.fileio import _CHECKPOINT_CHUNK, CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from dataflex.model import Checkpoint, param_count

SPECIALS = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)

ARCHS = {
    "below_chunk": ModelCfg(vocab_size=24, embed_dim=6, hidden_dim=8),  # 416
    "one_chunk": ModelCfg(vocab_size=96, embed_dim=7, hidden_dim=32),  # 4096
    "partial_last_chunk": ModelCfg(vocab_size=256, embed_dim=12, hidden_dim=8),  # 5480
}

BENCH_ARCH = ModelCfg(vocab_size=256, embed_dim=32, hidden_dim=64)  # 26,944
LARGE_ARCH = ModelCfg(vocab_size=512, embed_dim=32, hidden_dim=128)  # 86,656


def ref_save_checkpoint(path, ckpt):
    model, opt = ckpt.model, ckpt.opt
    payload = {
        "version": CHECKPOINT_VERSION,
        "arch": dataclasses.asdict(model.arch),
        "params": model.params.tolist(),
        "opt": {
            "kind": opt.kind,
            "hyper": dataclasses.asdict(opt.hyper),
            "m": None if opt.m is None else opt.m.tolist(),
            "v": None if opt.v is None else opt.v.tolist(),
            "t": opt.t,
        },
    }
    Path(path).write_text(json.dumps(payload))


def with_specials(a, n):
    """``a`` with the special values at both ends and on each side of the first chunk boundary."""
    a = a.copy()
    for value, i in zip(SPECIALS, (0, _CHECKPOINT_CHUNK - 1, _CHECKPOINT_CHUNK, n - 1)):
        a[min(i, n - 1)] = value
    return a


def stressed_checkpoint(arch, kind):
    rng = np.random.default_rng(5)
    n = param_count(arch)
    model = ModelState(arch, with_specials(init_model(arch, rng, scale=0.5).params, n))
    hyper = OptimCfg(kind=kind, learning_rate=0.01)
    if kind == "sgd":
        return Checkpoint(model, OptimizerState("sgd", hyper, None, None, 7))
    m = with_specials(rng.normal(size=n), n)
    v = np.abs(rng.normal(size=n))
    v[n // 2] = np.inf
    return Checkpoint(model, OptimizerState("adam", hyper, m, v, 7))


def test_arch_param_counts_straddle_the_chunk():
    counts = {name: param_count(arch) for name, arch in ARCHS.items()}
    assert counts["below_chunk"] < _CHECKPOINT_CHUNK == counts["one_chunk"] < counts["partial_last_chunk"]
    assert counts["partial_last_chunk"] % _CHECKPOINT_CHUNK != 0


@pytest.mark.parametrize("kind", ["adam", "sgd"])
@pytest.mark.parametrize("arch", ARCHS.values(), ids=ARCHS.keys())
def test_chunked_writer_writes_the_reference_bytes(tmp_path, arch, kind):
    ckpt = stressed_checkpoint(arch, kind)
    save_checkpoint(tmp_path / "chunked.json", ckpt)
    ref_save_checkpoint(tmp_path / "reference.json", ckpt)
    assert (tmp_path / "chunked.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_stressed_checkpoint_round_trips(tmp_path, kind):
    ckpt = stressed_checkpoint(ARCHS["partial_last_chunk"], kind)
    save_checkpoint(tmp_path / "first.json", ckpt)
    loaded = load_checkpoint(tmp_path / "first.json")
    assert loaded.model.params.tobytes() == ckpt.model.params.tobytes()
    for name in ("m", "v"):
        want = getattr(ckpt.opt, name)
        got = getattr(loaded.opt, name)
        assert (got is None) if want is None else got.tobytes() == want.tobytes()
    save_checkpoint(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()


@pytest.mark.parametrize("arch", [BENCH_ARCH, LARGE_ARCH], ids=["26944_params", "86656_params"])
def test_writer_peak_does_not_grow_with_the_model(tmp_path, arch):
    rng = np.random.default_rng(1)
    model = init_model(arch, rng)
    n = model.params.size
    ckpt = Checkpoint(model, OptimizerState("adam", OptimCfg(kind="adam"), rng.normal(size=n), np.abs(rng.normal(size=n)), 3))
    save_checkpoint(tmp_path / "warm.json", ckpt)  # any lazy set-up is not the write's own cost
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "checkpoint.json", ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
