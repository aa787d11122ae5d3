"""One benchmark run of a workload config, in a fresh process.

Makes the calls of ``dataflex-cli train``, in its order: the CLI's own
set-up (parse the config, generate the corpus and the validation set),
``run_training``, then the writes of the metrics and the checkpoint.
Prints one JSON object with timings, the metrics digest and the results of
the correctness checks. ``--trace`` wraps the layer boundaries listed in
``tracer.layer_wraps``.

    python3 bench/child.py --config CONFIG --out-dir DIR [--trace]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import hashlib
import json
import math
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from dataflex import cli, fileio, model, trainers
from dataflex.core import validate_config

from tracer import Tracer

RUN_SPAN = "trainers.run_training"


def set_up(config_path, tracer: Tracer):
    """Parse the config and build the data as ``dataflex-cli train`` does.

    Calls the CLI's own functions. Its ``generate_corpus`` and
    ``make_validation`` are wrapped where the CLI calls them, for the
    duration of the set-up. Returns (cfg, corpus, val, seconds taken).
    """
    t0 = perf_counter()
    with tracer.span("config.parse"):
        tree, cfg = cli._load_run_inputs(config_path, argparse.Namespace())
    tracer.wrap(cli, "generate_corpus", "data.generate_corpus")
    tracer.wrap(cli, "make_validation", "data.make_validation")
    try:
        corpus, val = cli._build_data(tree, cfg)
    finally:
        tracer.restore()
    validate_config(cfg, corpus)
    return cfg, corpus, val, perf_counter() - t0


def checks(cfg, corpus, result, metrics_path: Path) -> dict:
    """Correctness checks that one run can make on its own outputs."""
    out = {
        "metrics_file_matches_digest": hashlib.sha256(metrics_path.read_bytes()).hexdigest()
        == fileio.metrics_digest(result.metrics),
        "mixture_on_simplex": all(
            min(r.mixture) >= 0.0 and abs(math.fsum(r.mixture) - 1.0) <= 1e-9 for r in result.metrics
        ),
        "eval_records": len(result.metrics) == cfg.max_steps // cfg.eval_interval,
    }
    if cfg.train_type == "dynamic_select":
        size = round(float(cfg.component_params.get("ratio", 0.5)) * len(corpus))
        out["selection_sizes"] = bool(result.selections) and all(len(ev.ids) == size for ev in result.selections)
    return out


def versions() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer()
    t0 = perf_counter()
    cfg, corpus, val, setup_s = set_up(args.config, tracer)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer.install()
    try:
        with tracer.span(RUN_SPAN):
            result = trainers.run_training(cfg, corpus, val)
    finally:
        tracer.restore()
    metrics_path = out_dir / "metrics.jsonl"
    with tracer.span("fileio.write_metrics"):
        fileio.write_metrics(metrics_path, result.metrics)
    with tracer.span("fileio.save_checkpoint"):
        fileio.save_checkpoint(out_dir / "checkpoint.json", model.snapshot(result.model, result.opt))
    total_s = perf_counter() - t0

    report = dict(
        setup_s=setup_s,
        run_s=tracer.duration(RUN_SPAN),
        total_s=total_s,
        samples=cfg.max_steps * cfg.optim_cfg.batch_size,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        final_val_loss=result.final_val_loss,
        digest=fileio.metrics_digest(result.metrics),
        checks=checks(cfg, corpus, result, metrics_path),
        versions=versions(),
    )
    if args.trace:
        report["layers"] = tracer.summary()
        report["samples_by_layer"] = tracer.samples
        tracer.write(out_dir / "spans.jsonl", run_id=report["digest"][:16])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
