"""Command-line entry point: ``dataflex-cli <subcommand> ...``.

Subcommands: ``train`` (run a configured training mode and write metrics,
checkpoint, and any trajectory files), ``gen-data`` (emit a synthetic corpus
file), ``score`` (one-shot selector scoring dump after warmup training), and
``mix-sim`` (drive a mixer from recorded loss vectors with no model).

No component is named here: ``train`` and ``score`` resolve theirs in
``run_training``, and ``mix-sim`` resolves its mixer through the registry
and calls ``Mixer.replay``, which feeds the mixer's one rule, ``update``,
one ``mix_sim`` row at a time.

Every package error maps to a distinct exit code; the table is printed as
part of ``--help``. Failures emit a single diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .config import _require_map, config_from_tree, load_config_tree
from .core import MixtureWeights, RunConfig, Schedule, check_keys, child_rng, empirical_proportions, params_from, validate_config
from .data import SyntheticParams, build_domain_specs, generate_corpus, make_validation
from .errors import IO_ERROR_EXIT_CODE, DataflexError, ParseError, exit_code_table
from .fileio import (
    read_corpus,
    save_checkpoint,
    write_corpus,
    write_jsonl,
    write_metrics,
    write_scores,
)
from .model import snapshot
from .trainers import COMPONENT_STREAM, DEFAULT_REGISTRY, run_training


@dataclass(frozen=True)
class _Path:
    """One file path read from a config section; ``3`` is the path ``3``."""

    path: Optional[str] = None


def _path(section: dict, key: str, label: str) -> Optional[str]:
    """``section[key]`` read as ``params_from`` reads a str field, or None if absent."""
    return params_from(_Path, {key: section[key]} if key in section else {}, label, {key: "path"}).path


def _build_data(tree: dict, cfg: RunConfig):
    """Load or generate (corpus, validation) from the config's data section."""
    section = _require_map(tree.get("data"), "data")
    check_keys(section, ("corpus", "validation", "synthetic"), "data")
    corpus_path, val_path = (_path(section, key, "data") for key in ("corpus", "validation"))
    if corpus_path is not None:
        if val_path is None:
            raise ParseError("data.corpus requires data.validation")
        corpus = read_corpus(corpus_path, cfg.model_cfg.vocab_size)
        return corpus, read_corpus(val_path, cfg.model_cfg.vocab_size, domain_names=corpus.domain_names)
    if not isinstance(section.get("synthetic"), dict):
        raise ParseError("data section needs either 'corpus'/'validation' paths or a 'synthetic' block")
    synth = params_from(SyntheticParams, section["synthetic"], "data.synthetic")

    k = synth.num_domains
    seed = cfg.seed if synth.seed is None else synth.seed
    specs = build_domain_specs(
        k,
        cfg.model_cfg.vocab_size,
        seed=seed,
        noise_domains=tuple(synth.noise_domains or ()),
        mean_length=synth.mean_length,
    )
    mixture = MixtureWeights.uniform(k) if synth.proportions is None else MixtureWeights.from_config(synth.proportions)
    corpus = generate_corpus(specs, mixture, synth.num_samples, seed)

    val = make_validation(
        specs,
        synth.val_mode,
        synth.validation_size,
        seed + 1 if synth.val_seed is None else synth.val_seed,
        proportions=empirical_proportions(corpus),  # read in_distribution mode only
        domain=synth.val_domain,
        weights=synth.val_weights,
    )
    return corpus, val


def _load_run_inputs(config_path, args):
    tree = load_config_tree(config_path)
    cfg = config_from_tree(tree)
    flags = ("seed", "max_steps", "eval_interval")  # a flag given on the command line wins
    overrides = {key: getattr(args, key) for key in flags if getattr(args, key, None) is not None}
    return tree, dataclasses.replace(cfg, **overrides)


def _out_dir(tree: dict, args) -> Path:
    """``--out-dir``, else the config's ``train.out_dir``, else ``runs/<config stem>``; made if missing."""
    out = Path(args.out_dir or _path(tree.get("train") or {}, "out_dir", "train") or Path("runs") / Path(args.config).stem)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_train(args) -> int:
    tree, cfg = _load_run_inputs(args.config, args)
    corpus, val = _build_data(tree, cfg)
    validate_config(cfg, corpus)
    out = _out_dir(tree, args)

    result = run_training(cfg, corpus, val)

    write_metrics(out / "metrics.jsonl", result.metrics)
    save_checkpoint(out / "checkpoint.json", snapshot(result.model, result.opt))
    if result.weight_trajectory is not None:
        write_jsonl(out / "trajectory.jsonl", result.weight_trajectory)
    if result.weight_stats is not None:
        write_jsonl(out / "weight_stats.jsonl", result.weight_stats)
    if result.selections:
        write_jsonl(
            out / "selections.jsonl",
            [{"step": ev.step, "size": len(ev.ids), "digest": ev.digest} for ev in result.selections],
        )
    print(f"train: {cfg.train_type} steps={cfg.max_steps} final_val_loss={result.final_val_loss:.6f} out={out}")
    return 0


def _cmd_gen_data(args) -> int:
    tree, cfg = _load_run_inputs(args.config, args)
    corpus, _ = _build_data(tree, cfg)
    write_corpus(args.out, corpus)
    print(f"gen-data: wrote {len(corpus)} samples across {corpus.num_domains} domains to {args.out}")
    return 0


def _cmd_score(args) -> int:
    tree, cfg = _load_run_inputs(args.config, args)
    corpus, val = _build_data(tree, cfg)
    if not cfg.component_name:
        raise ParseError("score needs dataflex.component_name")
    # The scores of a select run's first selection: the run stops at
    # warmup_step, before its first eval.
    warmup = cfg.schedule.warmup_step
    cfg = dataclasses.replace(
        cfg, train_type="dynamic_select", max_steps=warmup, eval_interval=warmup + 1, schedule=Schedule(warmup, 1, 1)
    )
    scores = run_training(cfg, corpus, val).selections[0].scores
    write_scores(args.out, scores)
    print(f"score: {scores.method} over {len(scores)} samples -> {args.out}")
    return 0


def _cmd_mix_sim(args) -> int:
    tree, cfg = _load_run_inputs(args.config, args)
    mixer = DEFAULT_REGISTRY.resolve("mixer", cfg.component_name, cfg.component_params)
    rng = child_rng(cfg.seed, COMPONENT_STREAM)  # the stream of a run's mixer
    records = mixer.replay(_require_map(tree.get("mix_sim"), "mix_sim"), cfg.init_mixture_proportions, rng)
    write_jsonl(args.out, records)
    print(f"mix-sim: {cfg.component_name} ran {len(records)} updates -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dataflex-cli",
        description="Dynamic data selection, mixing, and reweighting runs.",
        epilog=exit_code_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None, help="override train.seed")

    p_train = sub.add_parser("train", help="run the configured training mode")
    p_train.add_argument("config")
    add_seed(p_train)
    p_train.add_argument("--max-steps", type=int, default=None, help="override train.max_steps")
    p_train.add_argument("--eval-interval", type=int, default=None, help="override train.eval_interval")
    p_train.add_argument("--out-dir", default=None, help="output directory (default runs/<config stem>)")
    p_train.set_defaults(func=_cmd_train)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic corpus file")
    p_gen.add_argument("config")
    p_gen.add_argument("out")
    add_seed(p_gen)
    p_gen.set_defaults(func=_cmd_gen_data)

    p_score = sub.add_parser("score", help="one-shot selector scoring dump")
    p_score.add_argument("config")
    p_score.add_argument("out")
    add_seed(p_score)
    p_score.set_defaults(func=_cmd_score)

    p_sim = sub.add_parser("mix-sim", help="mixer updates from recorded loss vectors (no model)")
    p_sim.add_argument("config")
    p_sim.add_argument("out")
    add_seed(p_sim)
    p_sim.set_defaults(func=_cmd_mix_sim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataflexError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return IO_ERROR_EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
