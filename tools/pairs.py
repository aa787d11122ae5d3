"""Compare two checkouts on the benchmark by alternating pairs of runs.

    python3 tools/pairs.py PARENT CHANGE --pairs 10 --out pairs.json [--workload select_less ...]

``PARENT`` and ``CHANGE`` are full checkouts (each with ``bench/``, ``src/``
and ``BENCHMARK.json``). For each workload, pair ``i`` runs
``bench/run.py --workload W --seed i --seconds 25 --trace 0`` in both, the
parent first in odd pairs and the change first in even ones, so a drift in
the machine's speed lands on both runs of a pair (``bench/README.md``,
"Comparing a change"). Then one ``--trace 1`` invocation per side at seed 1
records the per-layer metrics, whose call counts are exact. The measuring
window is the README's fixed 25 s, so every comparison runs at the
benchmark's own length.

An invocation fails when it exits non-zero, writes no report, or its
report lists a failed process (``provenance.failures``: a run that raised
or failed a correctness check). A pair with a failed invocation on either
side wins for neither side. For every end-to-end metric, the change wins a
complete pair when its median is better in the direction ``BENCHMARK.json``
gives; equal values count for neither side. The verdict follows the
README's rule: a ``gain`` when the change wins at least nine tenths of all
the pairs run, the two medians over the complete pairs lie further apart
than the parent's interquartile range, and the change's invocations list
no more failed processes than the parent's; a ``loss`` when the parent
wins as many pairs with the same gap; otherwise ``unresolved``. The output
file holds every pair's values and metrics digests, each side's median and
quartiles, the verdicts, and whether the change's median stays within the
metric's bound of the parent's.

Only the standard library is used. Invocations run one at a time.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 25.0  # bench/README.md's measuring window


def invoke(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``bench/run.py`` invocation: exit code, failures, and for a clean one its metrics."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    report_path = checkout / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}" / "report.json"
    report_path.unlink(missing_ok=True)  # a report left by an earlier invocation is not this one's
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if not report_path.is_file():
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"exit": proc.returncode, "failures": [tail or "no report written"]}
    report = json.loads(report_path.read_text())
    result = {"exit": proc.returncode, "failures": report["provenance"]["failures"]}
    if proc.returncode != 0 and not result["failures"]:
        result["failures"] = [f"exit {proc.returncode}"]
    if not result["failures"]:
        result["metrics"] = {name: m["value"] for name, m in report["metrics"].items()}
    return {**result, "digest": report["provenance"]["cli_digest"],
            "git_revision": report["provenance"]["git_revision"]}


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3


def verdict(parent: list, change: list, pairs_run: int, change_fails_more: bool, better: str, bound: float) -> dict:
    """The README's rule for one metric over the complete pairs' values, and whether the change keeps its bound.

    ``pairs_run`` counts every pair, complete or not, so a failed pair counts against either side's win.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q_parent, q_change = quartiles(parent), quartiles(change)
    iqr = q_parent[2] - q_parent[0]
    gap = abs(q_change[1] - q_parent[1])
    need = math.ceil(0.9 * pairs_run)
    if wins >= need and gap > iqr and not change_fails_more:
        outcome = "gain"
    elif losses >= need and gap > iqr:
        outcome = "loss"
    else:
        outcome = "unresolved"
    return {
        "better": better,
        "parent_median": q_parent[1],
        "change_median": q_change[1],
        "change_over_parent": q_change[1] / q_parent[1] if q_parent[1] else None,
        "parent_quartiles": [q_parent[0], q_parent[2]],
        "change_quartiles": [q_change[0], q_change[2]],
        "parent_iqr": iqr,
        "change_wins": wins,
        "parent_wins": losses,
        "verdict": outcome,
        "bound": bound,
        "within_bound": sign * (q_change[1] - q_parent[1]) >= -bound * abs(q_parent[1]),
    }


def compare(checkouts: dict, workload: str, pairs: int, end_to_end: list) -> dict:
    runs = []
    for seed in range(1, pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = invoke(checkouts[side], workload, seed, 0)
        runs.append(pair)
        print(f"{workload} pair {seed}: " + ", ".join(
            f"{side} {pair[side]['metrics']['run_s']:.3f} s" if "metrics" in pair[side]
            else f"{side} failed ({len(pair[side]['failures'])} failures)"
            for side in SIDES), flush=True)
    complete = [r for r in runs if all("metrics" in r[side] for side in SIDES)]
    failures = {side: sum(len(r[side]["failures"]) for r in runs) for side in SIDES}
    metrics = {}
    if complete:
        for m in end_to_end:
            values = {side: [r[side]["metrics"][m["name"]] for r in complete] for side in SIDES}
            metrics[m["name"]] = verdict(values["parent"], values["change"], len(runs),
                                         failures["change"] > failures["parent"], m["better"], m["bound"])
    traced = {side: invoke(checkouts[side], workload, 1, 1) for side in SIDES}
    return {
        "pairs": runs,
        "failed_pairs": len(runs) - len(complete),
        "failures": failures,
        "digests_equal": all(r["parent"].get("digest") == r["change"].get("digest") for r in runs),
        "metrics": metrics,
        "traced_seed1": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    out = {"seconds": SECONDS, "pairs": args.pairs, "workloads": {}}
    for workload in workloads:
        out["workloads"][workload] = compare(checkouts, workload, args.pairs, spec["end_to_end"])
        args.out.write_text(json.dumps(out, indent=2) + "\n")  # keep what is done if a later workload fails

    for workload, result in out["workloads"].items():
        print(f"{workload}: {args.pairs - result['failed_pairs']} of {args.pairs} pairs complete, "
              f"failed processes parent {result['failures']['parent']} change {result['failures']['change']}, "
              f"metrics digests {'equal' if result['digests_equal'] else 'DIFFER'}")
        for name, v in result["metrics"].items():
            print(f"  {name:16s} parent {v['parent_median']:10.6g} change {v['change_median']:10.6g} "
                  f"wins {v['change_wins']}-{v['parent_wins']} parent IQR {v['parent_iqr']:.4g}: {v['verdict']}, "
                  f"{'within' if v['within_bound'] else 'OUTSIDE'} bound {v['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
