"""One parameter path: ``params_from`` and every registered component.

Unknown keys are rejected for every component, values are coerced by field
type with the key named on failure, and the DoReMi proxy trains only up to
its last schedule point.
"""

from dataclasses import dataclass
from typing import Optional

import pytest

from dataflex import (
    MixtureWeights,
    ModelCfg,
    OptimCfg,
    RunConfig,
    Schedule,
    build_domain_specs,
    generate_corpus,
    run_doremi_pipeline,
)
from dataflex import mixers
from dataflex.core import params_from
from dataflex.errors import BadParams
from dataflex.trainers import COMPONENT_KINDS, DEFAULT_REGISTRY, select_params


@dataclass(frozen=True)
class Knobs:
    count: int = 3
    rate: float = 0.5
    flag: bool = True
    label: str = "a"
    cap: Optional[int] = 7


class TestParamsFrom:
    def test_defaults_come_from_the_dataclass(self):
        assert params_from(Knobs, {}, "knobs") == Knobs()

    def test_values_coerced_by_field_type(self):
        got = params_from(Knobs, {"count": 4.0, "rate": 2, "flag": False, "label": "b", "cap": 9}, "knobs")
        assert got == Knobs(count=4, rate=2.0, flag=False, label="b", cap=9)
        assert type(got.count) is int and type(got.rate) is float

    def test_only_optional_fields_take_null(self):
        assert params_from(Knobs, {"cap": None}, "knobs") == Knobs(cap=None)

    @pytest.mark.parametrize(
        "key,value",
        [("count", 3.5), ("count", "eight"), ("count", True), ("rate", "fast"), ("flag", 1), ("cap", [1]), ("label", None)],
    )
    def test_uncoercible_value_names_the_key(self, key, value):
        with pytest.raises(BadParams, match=f"knobs: {key} = "):
            params_from(Knobs, {key: value}, "knobs")

    def test_unknown_key_rejected(self):
        with pytest.raises(BadParams, match="unknown parameter.*'colour'"):
            params_from(Knobs, {"colour": 1}, "knobs")

    def test_aliased_field_answers_to_its_alias_only(self):
        assert params_from(Knobs, {"n": 5}, "knobs", {"n": "count"}).count == 5
        with pytest.raises(BadParams):
            params_from(Knobs, {"count": 5}, "knobs", {"n": "count"})


@pytest.mark.parametrize("kind,name", [(k, n) for k in COMPONENT_KINDS for n in DEFAULT_REGISTRY.names(k)])
def test_unknown_key_rejected_by_every_component(kind, name):
    with pytest.raises(BadParams, match="__bogus__"):
        DEFAULT_REGISTRY.resolve(kind, name, {"__bogus__": 1})


def test_select_params_split_and_checked():
    mode, rest = select_params({"ratio": 0.25, "accumulate": True, "k": 4})
    assert (mode.ratio, mode.accumulate, rest) == (0.25, True, {"k": 4})
    with pytest.raises(BadParams):
        select_params({"ratio": 1.5})


@pytest.mark.parametrize(
    "build",
    [
        lambda: ModelCfg(vocab_size=0),
        lambda: OptimCfg(batch_size=0),
        lambda: OptimCfg(kind="adagrad"),
        lambda: RunConfig(max_steps=-1),
        lambda: RunConfig(seed=-1),
    ],
)
def test_bad_config_values_raise_bad_params(build):
    with pytest.raises(BadParams):
        build()


class TestDoremiProxyHorizon:
    def count_train_steps(self, monkeypatch, schedule, **params):
        calls = []
        inner = mixers.train_step

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(mixers, "train_step", counting)
        specs = build_domain_specs(2, 64, seed=0)
        corpus = generate_corpus(specs, MixtureWeights.uniform(2), 40, seed=1)
        cfg = RunConfig(
            train_type="dynamic_mix", component_name="doremi", schedule=schedule, seed=1, component_params=params
        )
        out = run_doremi_pipeline(cfg, corpus)
        return len(calls), out

    def test_proxy_stops_at_last_point(self, monkeypatch):
        # Points 6, 9, 12, 15: 6 reference steps, then proxy steps 1..15.
        calls, out = self.count_train_steps(monkeypatch, Schedule(6, 3, 4), ref_steps=6)
        assert [rec["step"] for rec in out.trajectory] == [6, 9, 12, 15]
        assert calls == 6 + 15

    def test_no_points_no_proxy_steps(self, monkeypatch):
        calls, out = self.count_train_steps(monkeypatch, Schedule(5, 5, 0), ref_steps=5)
        assert out.trajectory == []
        assert calls == 5

    def test_ref_steps_default_unchanged(self, monkeypatch):
        # Default reference length stays warmup + update_step * update_times.
        calls, _ = self.count_train_steps(monkeypatch, Schedule(4, 2, 3))
        assert calls == (4 + 2 * 3) + (4 + 2 * 2)
