"""Line-delimited JSON serialization for corpora, metrics, scores, and
weight trajectories, plus the versioned checkpoint blob.

A metrics line is ``dataclasses.asdict`` of its ``MetricsRecord``, so the
record's field order is the line's key order and byte digests of a metrics
stream are stable across identical runs. A checkpoint file holds the
``Checkpoint``'s model and optimizer state under fixed keys, and is written
a chunk of ``_CHECKPOINT_CHUNK`` values at a time: its bytes are those of
one ``json.dumps`` of the whole payload, but the writer never holds a
parameter-sized list or string. Floats round-trip exactly (shortest-repr
JSON encoding). A malformed corpus, metrics or checkpoint file raises
``ParseError``, naming the line for line-delimited files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Corpus, MetricsRecord, ModelCfg, OptimCfg, Sample, params_from
from .errors import BadParams, ParseError
from .model import Checkpoint, ModelState, OptimizerState
from .selectors import ScoreVector

CHECKPOINT_VERSION = 1
_CHECKPOINT_CHUNK = 4096  # values of a parameter-sized array formatted at once

_CORPUS_KEYS = {"id", "domain", "tokens"}
_MAX_ID = int(np.iinfo(np.int64).max)  # ids are held as int64


def _jsonl_lines(records: Iterable[dict]):
    for rec in records:
        yield json.dumps(rec) + "\n"


def write_jsonl(path, records: Iterable[dict]) -> None:
    """Write one JSON object per line; the one writer of every ``.jsonl`` file."""
    with open(path, "w") as fh:
        fh.writelines(_jsonl_lines(records))


def write_corpus(path, corpus: Corpus) -> None:
    names = corpus.domain_names
    write_jsonl(path, ({"id": int(s.id), "domain": names[s.domain_id], "tokens": s.token_ids.tolist()} for s in corpus.samples))


def read_corpus(path, vocab_size: int, domain_names: Optional[Sequence[str]] = None) -> Corpus:
    """Load a corpus file written by ``write_corpus``.

    Each line is one record with exactly the keys ``id``, ``domain`` and
    ``tokens``. Domain names default to their order of first appearance;
    with ``domain_names`` given, any other domain is an error. The id and
    every token must be JSON integers: a float, a string or a boolean is
    not read as one. A record that is not such an object, or whose sample is
    invalid (a bad id or token, an id outside int64, a token outside
    ``[0, vocab_size)``, a repeated id), raises ``ParseError`` naming its line.
    """
    names = list(domain_names or ())
    index = {name: i for i, name in enumerate(names)}
    samples = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"corrupt corpus record: {exc.msg}", lineno) from None
            if not isinstance(rec, dict):
                raise ParseError(f"corpus record must be an object, got {type(rec).__name__}", lineno)
            unknown = set(rec) - _CORPUS_KEYS
            if unknown:
                raise ParseError(f"unknown corpus key(s) {sorted(unknown)}", lineno)
            missing = _CORPUS_KEYS - set(rec)
            if missing:
                raise ParseError(f"missing corpus key(s) {sorted(missing)}", lineno)
            domain = str(rec["domain"])
            if domain not in index:
                if domain_names is not None:
                    raise ParseError(f"unknown domain {domain!r}", lineno)
                index[domain] = len(names)
                names.append(domain)
            tokens = rec["tokens"] if isinstance(rec["tokens"], list) else []  # a non-list is not 1-D: Sample rejects it
            bad = [v for v in (rec["id"], *tokens) if type(v) is not int]  # bool is a subclass of int
            if bad:
                raise ParseError(f"bad corpus record: invalid literal {json.dumps(bad[0])} for an integer", lineno)
            if rec["id"] > _MAX_ID:
                raise ParseError(f"bad corpus record: sample id {rec['id']} is above the int64 bound {_MAX_ID}", lineno)
            try:
                s = Sample(id=rec["id"], domain_id=index[domain], token_ids=np.asarray(rec["tokens"], dtype=np.int64))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"bad corpus record: {exc}", lineno) from None
            if s.id in samples:
                raise ParseError(f"duplicate sample id {s.id}", lineno)
            if int(s.token_ids.max()) >= vocab_size:
                raise ParseError(f"sample {s.id}: token out of vocabulary range [0, {vocab_size})", lineno)
            samples[s.id] = s
    if not samples:
        raise ParseError(f"corpus file {path} is empty")
    return Corpus(samples.values(), tuple(names), vocab_size)


def record_from_dict(payload: dict) -> MetricsRecord:
    return MetricsRecord(
        step=int(payload["step"]),
        train_loss=float(payload["train_loss"]),
        per_domain_val_loss=tuple((int(d), float(v)) for d, v in payload["per_domain_val_loss"]),
        overall_val_loss=float(payload["overall_val_loss"]),
        mixture=tuple(float(x) for x in payload["mixture"]),
        active_selection_digest=int(payload["active_selection_digest"]),
    )


def write_metrics(path, records: Iterable[MetricsRecord]) -> None:
    write_jsonl(path, map(dataclasses.asdict, records))


def read_metrics(path) -> list:
    records = []
    last_good = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise ParseError(f"corrupt metrics record; last good record ends at line {last_good}", lineno) from None
            last_good = lineno
    return records


def metrics_digest(records: Iterable[MetricsRecord]) -> str:
    """The sha256 of the metrics file that ``write_metrics`` writes for ``records``."""
    h = hashlib.sha256()
    for line in _jsonl_lines(map(dataclasses.asdict, records)):
        h.update(line.encode())
    return h.hexdigest()


def write_scores(path, scores: ScoreVector) -> None:
    write_jsonl(path, ({"id": int(i), "score": float(s), "method": scores.method} for i, s in zip(scores.ids, scores.scores)))


def _write_json_array(fh, a: Optional[np.ndarray]) -> None:
    """Write ``json.dumps(a.tolist())`` (``null`` for None), ``_CHECKPOINT_CHUNK`` values at a time."""
    if a is None:
        fh.write("null")
        return
    fh.write("[")
    for start in range(0, a.size, _CHECKPOINT_CHUNK):
        fh.write(("" if start == 0 else ", ") + json.dumps(a[start:start + _CHECKPOINT_CHUNK].tolist())[1:-1])
    fh.write("]")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path`` for ``load_checkpoint``.

    The file's bytes are ``json.dumps(payload)`` of the payload ``{"version",
    "arch", "params", "opt": {"kind", "hyper", "m", "v", "t"}}``,
    ``Infinity``/``NaN`` spellings and float reprs included, but it is
    written in chunks: ``params``, ``m`` and ``v`` are formatted
    ``_CHECKPOINT_CHUNK`` values at a time, so the writer's memory does not
    grow with the parameter count. The small sections come from
    ``json.dumps`` of the objects that hold them, with the closing brace
    left off until the arrays that follow are written.
    """
    model, opt = ckpt.model, ckpt.opt
    with open(path, "w") as fh:
        fh.write(json.dumps({"version": CHECKPOINT_VERSION, "arch": dataclasses.asdict(model.arch)})[:-1] + ', "params": ')
        _write_json_array(fh, model.params)
        fh.write(', "opt": ' + json.dumps({"kind": opt.kind, "hyper": dataclasses.asdict(opt.hyper)})[:-1] + ', "m": ')
        _write_json_array(fh, opt.m)
        fh.write(', "v": ')
        _write_json_array(fh, opt.v)
        fh.write(f', "t": {json.dumps(opt.t)}}}}}')


def _checkpoint_section(cls, payload: dict, label: str):
    """``cls`` from a checkpoint section that must hold every one of its fields."""
    parsed = params_from(cls, payload, f"checkpoint {label}")
    missing = sorted({f.name for f in dataclasses.fields(cls)} - set(payload))
    if missing:
        raise ParseError(f"checkpoint {label} is missing {missing}")
    return parsed


def _checked_optimizer(opt: dict, n_params: int) -> OptimizerState:
    """The ``OptimizerState`` of a checkpoint's ``opt`` section, consistent with itself.

    Its kind is that of its ``hyper`` section; Adam holds both moments, one
    value per parameter (any float, ``inf`` included), and SGD neither; the
    step count is a JSON integer (not a float, string or boolean) and not
    negative. Anything else raises ``ValueError``.
    """
    hyper = _checkpoint_section(OptimCfg, opt["hyper"], "opt.hyper")
    if opt["kind"] != hyper.kind:
        raise ValueError(f"optimizer kind {opt['kind']!r} does not match opt.hyper kind {hyper.kind!r}")
    if type(opt["t"]) is not int:  # bool is a subclass of int
        raise ValueError(f"optimizer step count {json.dumps(opt['t'])} is not an integer")
    state = OptimizerState(hyper.kind, hyper, opt["m"], opt["v"], opt["t"])
    for name in ("m", "v"):
        moment = getattr(state, name)
        if hyper.kind == "sgd" and moment is not None:
            raise ValueError(f"sgd optimizer state holds moment {name!r}")
        if hyper.kind == "adam" and (moment is None or moment.shape != (n_params,)):
            got = "none" if moment is None else f"shape {moment.shape}"
            raise ValueError(f"adam moment {name!r} must hold {n_params} values, got {got}")
    if state.t < 0:
        raise ValueError(f"optimizer step count {state.t} is negative")
    return state


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a corrupt, truncated, mis-keyed or inconsistent file raises ``ParseError``.

    Inconsistent: an optimizer kind other than its ``hyper`` kind, Adam
    moments that are missing or not one per parameter, SGD moments, or a
    step count that is not a non-negative integer.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"corrupt checkpoint: {exc.msg}") from None
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version!r}; this release reads {CHECKPOINT_VERSION}")
    try:
        model = ModelState(_checkpoint_section(ModelCfg, payload["arch"], "arch"), payload["params"])
        return Checkpoint(model, _checked_optimizer(payload["opt"], model.params.size))
    except KeyError as exc:
        raise ParseError(f"checkpoint is missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, BadParams) as exc:
        raise ParseError(f"corrupt checkpoint: {exc}") from None
