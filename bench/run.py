#!/usr/bin/env python3
"""dataflex benchmark: one workload, timed end to end, or traced per layer.

    python3 bench/run.py --workload static --seed 1 --seconds 25 --trace 0

Each invocation, in order:

1. writes the workload's config for ``--seed`` under ``.bench_runs/``;
2. runs ``python3 -m dataflex.cli train`` on it once, which checks the
   program users run and warms the file cache;
3. measures for at most ``--seconds`` seconds: complete runs, one fresh
   process at a time (``bench/child.py``), each timing its own set-up. With
   ``--trace 1`` the runs alternate between untraced and traced;
4. checks that every run wrote the CLI's metrics digest, and collects the
   checks each run made on its own outputs;
5. prints a readable report, then one JSON line with medians over the runs:
   the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
   ``per_layer`` metrics with ``--trace 1``.

Only the standard library is used here; numpy and dataflex are imported by
the child processes alone, with BLAS pinned to one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # inherited by every child, before it imports numpy

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import config_text

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
DEADLINE_S = 170.0  # an invocation must end within 180 s


class Invocation:
    """The child processes of one benchmark invocation and their failures."""

    def __init__(self, run_dir: Path, seconds: float):
        self.run_dir = run_dir
        self.seconds = seconds
        self.begun = self.window_start = perf_counter()
        self.attempted = 0
        self.failed = set()  # labels of processes that raised or failed a check
        self.failures = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def fail(self, label: str, why: str) -> None:
        self.failed.add(label)
        self.failures.append(f"{label}: {why}")

    def left(self) -> float:
        """Seconds until the invocation's deadline."""
        return DEADLINE_S - (perf_counter() - self.begun)

    def has_time_for(self, wall_s: float) -> bool:
        """Whether another process of ``wall_s`` seconds fits in the window and before the deadline."""
        return perf_counter() - self.window_start + wall_s <= self.seconds and wall_s < self.left()

    def spawn(self, label: str, argv: list):
        """Run one process to completion; its stdout and wall time, or None if it failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.left()),
            )
        except subprocess.TimeoutExpired:
            self.fail(label, "timed out")
            return None
        if proc.returncode != 0:
            self.fail(label, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        return proc.stdout, perf_counter() - t0

    def child(self, label: str, config: Path, trace: bool = False):
        """One ``child.py`` process; its report, or None if it failed to run."""
        out_dir = self.run_dir / label
        argv = [sys.executable, str(CHILD), "--config", str(config), "--out-dir", str(out_dir)]
        done = self.spawn(label, argv + (["--trace"] if trace else []))
        if done is None:
            return None
        report = json.loads(done[0].splitlines()[-1])
        report.update(label=label, wall_s=done[1])
        failed = sorted(name for name, ok in report.get("checks", {}).items() if not ok)
        if failed:
            self.fail(label, f"failed checks {failed}")
        if trace:
            shutil.move(str(out_dir / "spans.jsonl"), str(self.run_dir / f"{label}.spans.jsonl"))
        shutil.rmtree(out_dir, ignore_errors=True)
        return report

    def cli(self, config: Path):
        """Run ``dataflex-cli train``; the sha256 of its metrics.jsonl and its wall time."""
        out_dir = self.run_dir / "cli"
        argv = [sys.executable, "-m", "dataflex.cli", "train", str(config), "--out-dir", str(out_dir)]
        done = self.spawn("cli", argv)
        if done is None:
            return None, None
        # The sha256 of the file's bytes is fileio.metrics_digest of its records.
        digest = hashlib.sha256((out_dir / "metrics.jsonl").read_bytes()).hexdigest()
        shutil.rmtree(out_dir, ignore_errors=True)
        return digest, done[1]


def layer_metrics(names, report: dict, untraced_run_s: float) -> dict:
    """Per-layer metric values from one traced run's span summary.

    A name is ``<span>.<field>`` with a field of ``tracer.Tracer.summary``, or
    ``<span>.s`` for the span's total seconds. A span that never ran gives 0.
    """
    samples = report["samples_by_layer"]
    stepped = samples["model.train_step"]
    derived = {
        "model.forward_passes_per_step": (stepped + samples.get("model.batch_losses", 0)) / stepped,
        "trace.overhead_pct": 100.0 * (report["run_s"] / untraced_run_s - 1.0),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        span, field = name.rsplit(".", 1)
        entry = report["layers"].get(span)
        out[name] = 0 if entry is None else entry["total_s" if field == "s" else field]
    return out


def describe(values: list) -> str:
    """Sample count and range of a list of run timings.

    A tail percentile needs at least ten runs above it, more than one
    invocation makes; repeated invocations give the tail.
    """
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"


def git_revision() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(inv: Invocation, config: Path, trace: bool):
    """Runs until the window is used, traced runs alternating in with ``trace``."""
    runs, traced = [], []
    while True:
        traced_turn = trace and len(runs) > len(traced)
        report = inv.child(f"{'traced' if traced_turn else 'run'}{inv.attempted}", config, trace=traced_turn)
        if report is None:
            break
        (traced if traced_turn else runs).append(report)
        enough = bool(runs) and (bool(traced) or not trace)
        if enough and not inv.has_time_for(report["wall_s"]):
            break
    return runs, traced


def main(argv=None) -> int:
    # On SIGTERM, unwind through subprocess.run, which kills and waits for the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dataflex" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/dataflex or BENCHMARK.json; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.yaml"
    config.write_text(config_text(args.workload, args.seed))

    inv = Invocation(run_dir, args.seconds)
    cli_digest, cli_wall = inv.cli(config)
    inv.window_start = perf_counter()  # the measuring window starts after the CLI check
    runs, traced = measure(inv, config, bool(args.trace))
    if cli_digest is None or not runs or (args.trace and not traced):
        print("\n".join(inv.failures + ["error: not every kind of run completed"]), file=sys.stderr)
        return 1
    for r in runs + traced:
        if r["digest"] != cli_digest:
            inv.fail(r["label"], f"metrics digest {r['digest']} differs from the CLI's {cli_digest}")

    run_s = [r["run_s"] for r in runs]
    end_to_end = {
        "setup_s": [r["setup_s"] for r in runs],
        "run_s": run_s,
        "samples_per_s": [r["samples"] / r["run_s"] for r in runs],
        "total_s": [r["total_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "final_val_loss": [r["final_val_loss"] for r in runs],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    per_layer = {}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        per_run = [layer_metrics(names, r, statistics.median(run_s)) for r in traced]
        per_layer = {name: [p[name] for p in per_run] for name in names}
    elif sorted(end_to_end) != sorted(m["name"] for m in spec["end_to_end"]):
        print("error: the end-to-end metrics measured here differ from those of BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": statistics.median(v), "unit": units[name]} for name, v in (per_layer or end_to_end).items()}

    failed = len(inv.failed)
    provenance = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "config": config_text(args.workload, args.seed),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "versions": runs[0]["versions"],
        "cli_digest": cli_digest,
        "digests": {r["label"]: r["digest"] for r in runs + traced},
        "cli_wall_s": cli_wall,
        "values": {**end_to_end, **per_layer},
        "failures": inv.failures,
    }
    (run_dir / "report.json").write_text(json.dumps({"provenance": provenance, "metrics": metrics}, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {provenance['why']}")
    print(f"git {provenance['git_revision']}, nproc {provenance['nproc']}, "
          + ", ".join(f"{k} {v}" for k, v in provenance["versions"].items()))
    print(f"metrics digest {cli_digest}, checked against the CLI: {len(runs)} untraced and {len(traced)} traced runs")
    print(f"every value, digest and failure: {(run_dir / 'report.json').relative_to(ROOT)}")
    for name, values in end_to_end.items():
        print(f"  {name:16s} {statistics.median(values):12.6g} {units[name]:5s} median, {describe(values)}")
    print(f"  {'failed_share':16s} {failed / inv.attempted:12.6g} {'':5s} {failed} of {inv.attempted} processes")
    if per_layer:
        print(f"per layer, median of {len(traced)} traced runs:")
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for failure in inv.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": inv.attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
