"""In-memory spans around dataflex's layer boundaries, for the traced run.

Callers inside dataflex import functions by name (``from .model import
train_step``), so a wrapper is installed on every module that calls the
function, not only on the module that defines it. ``Tracer.restore`` puts
every original back.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter


def _batch_size_at(position):
    return lambda args: len(args[position])


def layer_wraps():
    """(owner, attribute, span name, sample counter) for each traced call site."""
    from dataflex import mixers, selectors, trainers, weighters

    step_batch = _batch_size_at(2)  # train_step(model, opt, batch, weights)
    loss_batch = _batch_size_at(1)  # batch_losses(model, batch)
    return [
        (trainers, "train_step", "model.train_step", step_batch),
        (weighters, "train_step", "model.train_step", step_batch),
        (mixers, "train_step", "model.train_step", step_batch),
        (trainers, "batch_losses", "model.batch_losses", loss_batch),
        (weighters, "batch_losses", "model.batch_losses", loss_batch),
        (mixers, "batch_losses", "model.batch_losses", loss_batch),
        (selectors, "per_sample_gradient", "model.per_sample_gradient", None),
        (selectors, "adam_precondition", "model.adam_precondition", None),
        (trainers, "state_digest", "model.state_digest", None),
        (selectors.SignProjection, "project", "selectors.SignProjection.project", None),
        (trainers, "score_influence", "selectors.score_influence", None),
        (trainers, "select", "selectors.select", None),
        (trainers, "eval_per_domain", "evaluation.eval_per_domain", None),
        (trainers, "sample_batch", "mixers.sample_batch", None),
        (mixers, "sample_batch", "mixers.sample_batch", None),
        (trainers, "run_doremi_pipeline", "mixers.run_doremi_pipeline", None),
        (mixers, "doremi_update", "mixers.doremi_update", None),
        (trainers, "weighter_apply", "weighters.apply", None),
        (weighters, "compute_weights", "weighters.compute_weights", None),
    ]


class Tracer:
    """Spans as ``[name, start, end, parent index]``; -1 marks a root span."""

    def __init__(self):
        self.spans = []
        self.samples = {}  # span name -> samples passed in, where counted
        self._stack = []
        self._originals = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                tracer.samples[name] = tracer.samples.get(name, 0) + count(args)
            with tracer.span(name):
                return original(*args, **kwargs)

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        for owner, attr, name, count in layer_wraps():
            self.wrap(owner, attr, name, count)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def duration(self, name: str) -> float:
        """Total seconds of the spans called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, p50 and tail in ms.

        Self time is a span's duration minus the durations of its direct
        children. The tail is the highest of p90/p95/p99/p99.9 that leaves at
        least ten calls above it; ``tail_pct`` is 0 when there are too few calls.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = by_name.setdefault(name, {"durations": [], "self_s": 0.0})
            entry["durations"].append(end - start)
            entry["self_s"] += end - start - child_time[i]
        out = {}
        for name, entry in by_name.items():
            durations = sorted(entry["durations"])
            n = len(durations)
            tail_pct = next((q for q in (99.9, 99.0, 95.0, 90.0) if n * (1.0 - q / 100.0) >= 10.0), 0.0)
            tail = durations[math.ceil(tail_pct / 100.0 * n) - 1] if tail_pct else 0.0
            out[name] = {
                "calls": n,
                "total_s": sum(durations),
                "self_s": entry["self_s"],
                "p50_ms": statistics.median(durations) * 1e3,
                "tail_ms": tail * 1e3,
                "tail_pct": tail_pct,
            }
        return out

    def write(self, path, run_id: str) -> None:
        """Write the spans as JSON lines; all spans of one run share ``run_id``."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": run_id, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
