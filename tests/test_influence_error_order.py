"""A too-short validation sample is reported before the optimizer is checked.

``score_influence`` checks every pool and validation sample before it
builds any gradient or Adam direction, so ``TooShort`` comes before
``NotAdam`` (an SGD state) and ``ColdOptimizer`` (an Adam state with no
step), on the exact path and on the sketched one.
"""

import numpy as np
import pytest

from dataflex import ModelCfg, OptimCfg, Sample, init_model, init_optimizer
from dataflex.errors import ColdOptimizer, NotAdam, TooShort
from dataflex.selectors import InfluenceParams, score_influence

from conftest import random_sample

ARCH = ModelCfg(vocab_size=32, embed_dim=6, hidden_dim=8)


@pytest.mark.parametrize("projection_dim", [0, 16], ids=["exact", "sketched"])
@pytest.mark.parametrize("kind,error", [("sgd", NotAdam), ("adam", ColdOptimizer)], ids=["sgd", "cold_adam"])
def test_a_short_validation_sample_comes_before_the_optimizer_check(projection_dim, kind, error):
    rng = np.random.default_rng(26)
    model = init_model(ARCH, rng, scale=0.5)
    opt = init_optimizer(OptimCfg(kind=kind), model.params.size)
    pool = [random_sample(rng, ARCH.vocab_size, 6, sid=i) for i in range(5)]
    val = [random_sample(rng, ARCH.vocab_size, 6, sid=100 + i) for i in range(3)]
    short = Sample(id=9999, domain_id=0, token_ids=np.array([1]))
    params = InfluenceParams(projection_dim, 3)
    with pytest.raises(TooShort):
        score_influence(model, opt, pool, val + [short], params)
    with pytest.raises(error):
        score_influence(model, opt, pool, val, params)
