"""The sketched chunk across a sign block that the embedding ends inside.

``_SketchRows.columns`` fills a block that holds the embedding's last
columns and the first dense ones in three parts: the shared untouched row,
the chunk's entries, then the dense columns. ``tests/test_sketch_rows.py``
reaches that branch only in its first block. These tests give it a layout
whose embedding ends inside a later block (V=256, E=9: V*E = 2304 of
P = 4688) and check ``_gradient_rows`` on it bit for bit against that
file's dense reference. A guard fails when a new ``_SIGN_BLOCK`` puts the
end of this layout's embedding, or that of the mid-block pair of
``tools/digests.py``, on a block boundary.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dataflex import ModelCfg, init_model
from dataflex.config import config_from_tree, parse_text
from dataflex.selectors import _GRAD_CHUNK, SignProjection, _gradient_rows, _SIGN_BLOCK

from test_sketch_rows import ref_dense_gradient_rows, warm

MID_BLOCK = ModelCfg(vocab_size=256, embed_dim=9, hidden_dim=8)
DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


def load_digests():
    spec = importlib.util.spec_from_file_location("digests", DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ends_inside_a_block(arch: ModelCfg) -> bool:
    """Whether the embedding's V*E columns end strictly inside a sign block that also holds dense columns."""
    n_emb = arch.vocab_size * arch.embed_dim
    n_params = init_model(arch, np.random.default_rng(0)).params.size
    return n_emb % _SIGN_BLOCK != 0 and n_params > n_emb


@pytest.fixture(scope="module")
def layout():
    return warm(MID_BLOCK, seed=9)


@pytest.fixture(scope="module")
def dense_rows(layout):
    model, opt, pool = layout
    return {pre: ref_dense_gradient_rows(model, pool, opt, pre, None) for pre in ("adam", "none")}


def test_the_layout_has_a_one_token_tail_chunk(layout):
    model, _, pool = layout
    assert model.params.size == 4688 and len(pool) == _GRAD_CHUNK + 1 and len(pool[-1]) == 2


@pytest.mark.parametrize("preconditioning", ["adam", "none"])
@pytest.mark.parametrize("width", [3, 13, 64, 512])
def test_sketched_rows_match_the_dense_chunk_bitwise(layout, dense_rows, width, preconditioning):
    model, opt, pool = layout
    proj = SignProjection(width, model.params.size, seed=1)
    rows = dense_rows[preconditioning]
    want = np.concatenate([proj.project(rows[start:start + _GRAD_CHUNK]) for start in range(0, len(pool), _GRAD_CHUNK)])
    assert _gradient_rows(model, pool, opt, preconditioning, proj).tobytes() == want.tobytes()


def test_the_mid_block_layout_and_digest_pair_end_inside_a_block():
    assert ends_inside_a_block(MID_BLOCK)
    configs = {run: text for run, text, _ in load_digests().runs()}
    for run in ("selector_less_mid_block", "score_less_mid_block"):
        assert ends_inside_a_block(config_from_tree(parse_text(configs[run])).model_cfg), run
