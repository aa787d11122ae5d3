"""``score_influence`` scores a sketched pool chunk by chunk, with the same bytes.

The validation pass runs first; each projected pool chunk is then scored as
soon as it is made, so neither the ``(n, dim_out)`` pool matrix nor
``max_cosine``'s ``(n, n_val)`` cosines are held. ``ref_scores`` is the
whole-matrix form: ``_gradient_rows`` over the whole pool, scored with one
``_cosine_rows`` on the mean validation row, or with ``_row_norms`` and one
``_cosine_rows`` per validation row and a max. The pools end in chunks of
1, 21 and 1 rows; a one-row chunk must be scored with the chunk before it.
Every sample is checked before any gradient, so a bad pool sample anywhere
is reported before a cold optimizer.
"""

import json
import tracemalloc

import numpy as np
import pytest

from dataflex import ModelCfg, OptimCfg, Sample, init_model, init_optimizer, train_step
from dataflex.cli import main
from dataflex.errors import ColdOptimizer, TooShort
from dataflex.selectors import (
    _GRAD_CHUNK,
    InfluenceParams,
    SignProjection,
    _cosine_rows,
    _gradient_rows,
    _row_norms,
    _sign_blocks,
    score_influence,
)

from conftest import random_sample

ARCH = ModelCfg(vocab_size=256, embed_dim=8, hidden_dim=8)  # P = 4424
POOL_SIZES = (_GRAD_CHUNK + 1, _GRAD_CHUNK + 21, 2 * _GRAD_CHUNK + 1)


def ref_scores(model, opt, pool, val, params):
    proj = None if params.projection_dim is None else SignProjection(params.projection_dim, model.params.size, params.projection_seed)
    pool_g = _gradient_rows(model, pool, opt, params.preconditioning, proj)
    val_g = _gradient_rows(model, val, opt, params.preconditioning, proj)
    if params.aggregation == "mean_gradient":
        return _cosine_rows(pool_g, val_g.mean(axis=0))
    norms = _row_norms(pool_g)
    cols = [_cosine_rows(pool_g, val_g[j], norms) for j in range(val_g.shape[0])]
    return np.max(np.stack(cols, axis=1), axis=1)


@pytest.fixture(scope="module")
def warm_state():
    rng = np.random.default_rng(25)
    model = init_model(ARCH, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.01), model.params.size)
    batch = [random_sample(rng, ARCH.vocab_size, 9, sid=i) for i in range(4)]
    model, opt, _ = train_step(model, opt, batch, np.ones(len(batch)))
    pool = [random_sample(rng, ARCH.vocab_size, int(rng.integers(3, 10)), sid=i) for i in range(max(POOL_SIZES))]
    val = [random_sample(rng, ARCH.vocab_size, int(rng.integers(3, 10)), sid=1000 + i) for i in range(6)]
    return model, opt, pool, val


@pytest.mark.parametrize("aggregation", ["mean_gradient", "max_cosine"])
@pytest.mark.parametrize("preconditioning", ["adam", "none"])
@pytest.mark.parametrize("width", [3, 13, 64, 512])
@pytest.mark.parametrize("n_val", [1, 6])
@pytest.mark.parametrize("n_pool", POOL_SIZES)
def test_chunked_scores_equal_the_whole_matrix_scores(warm_state, n_pool, n_val, width, preconditioning, aggregation):
    model, opt, pool, val = warm_state
    pool, val = pool[:n_pool], val[:n_val]
    params = InfluenceParams(width, 3, preconditioning, aggregation)
    got = score_influence(model, opt, pool, val, params)
    assert got.scores.tobytes() == ref_scores(model, opt, pool, val, params).tobytes()
    assert np.array_equal(got.ids, [s.id for s in pool])


@pytest.mark.parametrize("projection_dim", [16, 0], ids=["sketched", "exact"])
def test_an_empty_pool_gives_an_empty_score_vector(warm_state, projection_dim):
    model, opt, _, val = warm_state
    got = score_influence(model, opt, [], val, InfluenceParams(projection_dim, 3))
    assert len(got) == 0 and got.scores.shape == (0,) and got.method == "influence"


def test_a_sketched_call_holds_less_than_its_pool_matrix():
    rng = np.random.default_rng(3)
    arch = ModelCfg(vocab_size=64, embed_dim=8, hidden_dim=8)  # P = 1160
    model = init_model(arch, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind="adam", learning_rate=0.01), model.params.size)
    model, opt, _ = train_step(model, opt, [random_sample(rng, 64, 9, sid=i) for i in range(4)], np.ones(4))
    pool = [random_sample(rng, 64, int(rng.integers(3, 8)), sid=i) for i in range(2048)]
    val = [random_sample(rng, 64, 5, sid=5000 + i) for i in range(6)]
    width = 128
    _sign_blocks(0, model.params.size, width)  # the cached blocks are drawn before tracing
    pool_matrix = len(pool) * width * 8  # 2 MiB
    tracemalloc.start()
    try:
        score_influence(model, opt, pool, val, InfluenceParams(width, 0, "adam"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pool_matrix


def test_a_short_pool_sample_past_the_first_chunk_comes_before_a_cold_optimizer(warm_state):
    model, _, pool, val = warm_state
    cold = init_optimizer(OptimCfg(kind="adam"), model.params.size)
    short = Sample(id=9999, domain_id=0, token_ids=np.array([1]))
    pool = pool[:_GRAD_CHUNK + 21]
    with pytest.raises(TooShort):
        score_influence(model, cold, pool[:150] + [short] + pool[150:], val, InfluenceParams(16, 3))
    with pytest.raises(ColdOptimizer):
        score_influence(model, cold, pool, val, InfluenceParams(16, 3))


def test_score_cli_reports_a_short_pool_sample_past_the_first_chunk(tmp_path, capsys):
    rng = np.random.default_rng(4)
    records = [{"id": i, "domain": "a", "tokens": rng.integers(0, 32, size=5).tolist()} for i in range(200)]
    records[150]["tokens"] = [7]
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    (tmp_path / "val.jsonl").write_text('{"id": 500, "domain": "a", "tokens": [4, 5, 6]}\n')
    config = tmp_path / "run.yaml"
    config.write_text(
        "model:\n  vocab_size: 32\n  embed_dim: 6\n  hidden_dim: 8\n"
        f"data:\n  corpus: {tmp_path / 'corpus.jsonl'}\n  validation: {tmp_path / 'val.jsonl'}\n"
        "train:\n  batch_size: 4\n  seed: 1\n  max_steps: 4\n  eval_interval: 2\n"
        "dataflex:\n  train_type: dynamic_select\n  component_name: less\n  warmup_step: 0\n"
        "  component_params:\n    projection_dim: 16\n"
    )
    code = main(["score", str(config), str(tmp_path / "scores.jsonl")])
    err = capsys.readouterr().err
    assert code == TooShort.exit_code
    assert err.startswith("TooShort: sample 150 has 1 token(s)") and len(err.splitlines()) == 1
