"""Config text round-trips: ``config_from_tree(parse_text(serialize_config(c))) == c``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from dataflex import MixtureWeights, ModelCfg, OptimCfg, RunConfig, Schedule
from dataflex.config import config_from_tree, parse_text, serialize_config
from dataflex.core import TRAIN_TYPES

KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,8}", fullmatch=True)
# Words the parser reads as null, booleans or numbers must still come back as strings.
RESERVED = st.sampled_from(["none", "null", "true", "false", "yes", "no", "inf", "nan", "Infinity", "12", "1e3", ""])
TEXT = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "S", "Zs"), blacklist_characters='"'),
    max_size=12,
)
STRINGS = RESERVED | KEYS | TEXT
FLOATS = st.floats(allow_nan=False, width=64)
SCALARS = st.none() | st.booleans() | st.integers(-(10**12), 10**12) | FLOATS | STRINGS
COUNTS = st.integers(0, 10**6)


@st.composite
def mixtures(draw):
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6)))
    return MixtureWeights(raw / raw.sum())


@st.composite
def schedules(draw):
    times = draw(st.integers(0, 50))
    return Schedule(draw(COUNTS), draw(st.integers(1 if times else 0, 1000)), times)


configs = st.builds(
    RunConfig,
    train_type=st.sampled_from(TRAIN_TYPES),
    component_name=STRINGS,
    schedule=schedules(),
    init_mixture_proportions=st.none() | mixtures(),
    model_cfg=st.builds(ModelCfg, vocab_size=st.integers(1, 10**5), embed_dim=st.integers(1, 512), hidden_dim=st.integers(1, 512)),
    optim_cfg=st.builds(
        OptimCfg,
        kind=st.sampled_from(["sgd", "adam"]),
        learning_rate=FLOATS,
        beta1=FLOATS,
        beta2=FLOATS,
        eps=FLOATS,
        batch_size=st.integers(1, 4096),
    ),
    component_params=st.dictionaries(KEYS, SCALARS, max_size=6),
    seed=COUNTS,
    max_steps=COUNTS,
    eval_interval=st.integers(1, 10**6),
)


@settings(max_examples=300, deadline=None)
@given(configs)
def test_serialize_round_trip(cfg):
    assert config_from_tree(parse_text(serialize_config(cfg))) == cfg
