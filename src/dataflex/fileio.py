"""Line-delimited JSON serialization for corpora, metrics, scores, and
weight trajectories, plus the versioned checkpoint blob.

Metrics records serialize with a fixed field order so byte digests of a
metrics stream are stable across identical runs. Floats round-trip exactly
(shortest-repr JSON encoding).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Corpus, MetricsRecord, ModelCfg, OptimCfg, Sample, params_from
from .errors import BadParams, ParseError
from .model import Checkpoint
from .selectors import ScoreVector

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1

_CORPUS_KEYS = {"id", "domain", "tokens"}


def write_corpus(path, corpus: Corpus) -> None:
    with open(path, "w") as fh:
        for s in corpus.samples:
            rec = {"id": int(s.id), "domain": corpus.domain_names[s.domain_id], "tokens": [int(t) for t in s.token_ids]}
            fh.write(json.dumps(rec) + "\n")


def read_corpus(
    path,
    domain_names: Optional[Sequence[str]] = None,
    vocab_size: Optional[int] = None,
    strict: bool = True,
) -> Corpus:
    """Load a corpus file; unknown record keys are rejected (or warned about
    with ``strict=False``). Domain names default to order of first appearance;
    vocab size defaults to max token + 1.
    """
    names = list(domain_names) if domain_names is not None else []
    index = {name: i for i, name in enumerate(names)}
    samples = []
    max_token = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"corrupt corpus record: {exc.msg}", lineno) from None
            unknown = set(rec) - _CORPUS_KEYS
            if unknown:
                if strict:
                    raise ParseError(f"unknown corpus key(s) {sorted(unknown)}", lineno)
                logger.warning("corpus line %d: ignoring unknown key(s) %s", lineno, sorted(unknown))
            missing = _CORPUS_KEYS - set(rec)
            if missing:
                raise ParseError(f"missing corpus key(s) {sorted(missing)}", lineno)
            domain = str(rec["domain"])
            if domain not in index:
                if domain_names is not None:
                    raise ParseError(f"unknown domain {domain!r}", lineno)
                index[domain] = len(names)
                names.append(domain)
            tokens = rec["tokens"]
            if tokens:
                max_token = max(max_token, max(tokens))
            samples.append(Sample(id=int(rec["id"]), domain_id=index[domain], token_ids=np.asarray(tokens, dtype=np.int64)))
    if not samples:
        raise ParseError(f"corpus file {path} is empty")
    v = vocab_size if vocab_size is not None else max_token + 1
    return Corpus(samples, tuple(names), v)


def record_to_dict(record: MetricsRecord) -> dict:
    return {
        "step": record.step,
        "train_loss": record.train_loss,
        "per_domain_val_loss": [[d, v] for d, v in record.per_domain_val_loss],
        "overall_val_loss": record.overall_val_loss,
        "mixture": list(record.mixture),
        "active_selection_digest": record.active_selection_digest,
    }


def record_to_line(record: MetricsRecord) -> str:
    return json.dumps(record_to_dict(record))


def record_from_dict(payload: dict) -> MetricsRecord:
    return MetricsRecord(
        step=int(payload["step"]),
        train_loss=float(payload["train_loss"]),
        per_domain_val_loss=tuple((int(d), float(v)) for d, v in payload["per_domain_val_loss"]),
        overall_val_loss=float(payload["overall_val_loss"]),
        mixture=tuple(float(x) for x in payload["mixture"]),
        active_selection_digest=int(payload["active_selection_digest"]),
    )


def write_metrics(path_or_stream, records: Iterable[MetricsRecord]) -> None:
    if hasattr(path_or_stream, "write"):
        for r in records:
            path_or_stream.write(record_to_line(r) + "\n")
        return
    with open(path_or_stream, "w") as fh:
        for r in records:
            fh.write(record_to_line(r) + "\n")


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
    h = hashlib.sha256()
    for r in records:
        h.update(record_to_line(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def write_scores(path, scores: ScoreVector) -> None:
    with open(path, "w") as fh:
        for i, s in zip(scores.ids, scores.scores):
            fh.write(json.dumps({"id": int(i), "score": float(s), "method": scores.method}) + "\n")


def write_jsonl(path, records: Iterable[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_jsonl(path) -> list:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ParseError(f"corrupt record: {exc.msg}", lineno) from None
    return out


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "arch": dataclasses.asdict(ckpt.arch),
        "params": ckpt.params.tolist(),
        "opt": {
            "kind": ckpt.opt_kind,
            "hyper": dataclasses.asdict(ckpt.opt_hyper),
            "m": None if ckpt.opt_m is None else ckpt.opt_m.tolist(),
            "v": None if ckpt.opt_v is None else ckpt.opt_v.tolist(),
            "t": ckpt.opt_t,
        },
    }
    Path(path).write_text(json.dumps(payload))


def _checkpoint_section(cls, payload: dict, label: str):
    """``cls`` from a checkpoint section that must hold every one of its fields."""
    parsed = params_from(cls, payload, f"checkpoint {label}")
    missing = sorted({f.name for f in dataclasses.fields(cls)} - set(payload))
    if missing:
        raise ParseError(f"checkpoint {label} is missing {missing}")
    return parsed


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a corrupt, truncated or mis-keyed file raises ``ParseError``."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"corrupt checkpoint: {exc.msg}") from None
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version!r}; this release reads {CHECKPOINT_VERSION}")
    try:
        opt = payload["opt"]
        return Checkpoint(
            arch=_checkpoint_section(ModelCfg, payload["arch"], "arch"),
            params=np.asarray(payload["params"], dtype=np.float64),
            opt_kind=opt["kind"],
            opt_hyper=_checkpoint_section(OptimCfg, opt["hyper"], "opt.hyper"),
            opt_m=None if opt["m"] is None else np.asarray(opt["m"], dtype=np.float64),
            opt_v=None if opt["v"] is None else np.asarray(opt["v"], dtype=np.float64),
            opt_t=int(opt["t"]),
        )
    except KeyError as exc:
        raise ParseError(f"checkpoint is missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, BadParams) as exc:
        raise ParseError(f"corrupt checkpoint: {exc}") from None
