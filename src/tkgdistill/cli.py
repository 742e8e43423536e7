"""Command-line entry points: synth, train, eval, experiment.

BLAS thread pools are pinned to one thread before numpy loads so that
results are bitwise independent of ``eval --threads``, the cap on the
threads ``evaluate`` may use. At its default of 2, where the process may run
on 2 cores and the test steps are large, a worker thread scores and ranks
each step's backward queries while the main thread does the forward ones;
``--threads 1`` keeps it on one thread. ``train`` loads unfrozen
vocabularies (an aligned entity may have no events yet) and freezes them
once the alignment file is read; ``eval`` loads the checkpoint's frozen ones,
so an unknown symbol is an error.
"""

from __future__ import annotations

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import experiments
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .evaluation import DiagnosticConfig, evaluate
from .tkg import (
    GeneratorConfig,
    dump_alignments,
    dump_quadruples,
    generate_synthetic_pair,
    load_alignments,
    load_quadruples,
)
from .trainer import (
    ABLATIONS,
    TrainConfig,
    parse_config_file,
    pretrain_teacher,
    train_mpkd,
)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, doc) -> None:
    path.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = GeneratorConfig(
        source_entities=args.entities,
        target_entities=args.entities,
        relations=args.relations,
        steps=args.steps,
        train_steps=args.train_steps,
        events_per_step=args.events_per_step,
        coverage=args.coverage,
        target_ratio=args.target_ratio,
        copy_prob=args.copy_prob,
    )
    pair = generate_synthetic_pair(cfg, args.seed)
    dump_quadruples(pair.source, out / "source.tsv")
    dump_quadruples(pair.target_incomplete, out / "target.tsv")
    dump_alignments(
        pair.alignments, pair.source.entities, pair.target_incomplete.entities,
        out / "alignment.tsv",
    )
    files = ["source.tsv", "target.tsv", "alignment.tsv"]
    if args.emit_full:
        dump_quadruples(pair.target_full, out / "target_full.tsv")
        files.append("target_full.tsv")
    manifest = {
        "command": "synth",
        "config": asdict(cfg),
        "seed": args.seed,
        "files": {name: _sha256_file(out / name) for name in files},
    }
    _write_json(out / "manifest.json", manifest)
    return 0


def _load_bilingual(args, target_horizon: int):
    source = load_quadruples(args.source)
    n_rel = len(source.relations)
    target = load_quadruples(
        args.target, relation_vocab=source.relations, horizon=target_horizon
    )
    if len(target.relations) > n_rel:
        raise ValueError(
            "target file uses relations absent from the source graph"
        )
    alignments = load_alignments(args.align, source.entities, target.entities)
    # The alignment file may name entities without events: build both graphs
    # over the final vocabularies, then freeze those so no graph outgrows them.
    for vocab in (source.entities, target.entities, source.relations):
        vocab.frozen = True
    return (
        source.with_quadruples(source.events),
        target.with_quadruples(target.events),
        alignments,
    )


def cmd_train(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = parse_config_file(args.config) if args.config else TrainConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    for name in args.ablation or ():
        overrides.update(ABLATIONS[name])
    cfg = replace(cfg, **overrides)

    source, target, alignments = _load_bilingual(args, cfg.split().total_steps)

    log_rows: list = []
    teacher = pretrain_teacher(source, cfg, log_rows)
    state = train_mpkd(source, target, alignments, cfg, teacher)
    state.log_rows = log_rows + state.log_rows

    ckpt = Checkpoint(
        state.teacher, state.student, state.align,
        source.entities, target.entities, source.relations,
        cfg.digest(), cfg.seed,
    )
    save_checkpoint(ckpt, out / "checkpoint.mpkd")
    with open(out / "log.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch\tphase\tloss\tval_mrr\tpseudo_count\ttransferred_count\n")
        for row in state.log_rows:
            fh.write("\t".join(str(x) for x in row) + "\n")
    with open(out / "pseudo_audit.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("round\tsource\ttarget\tsimilarity\n")
        for rnd, src, tgt, sim in state.pseudo_audit:
            fh.write(
                f"{rnd}\t{source.entities.symbol(src)}\t"
                f"{target.entities.symbol(tgt)}\t{sim:.6f}\n"
            )
    manifest = {
        "command": "train",
        "config": asdict(cfg),
        "config_digest": cfg.digest(),
        "best_epoch": state.best_epoch,
        "best_val_mrr": state.best_val,
        "files": {
            name: _sha256_file(out / name)
            for name in ("checkpoint.mpkd", "checkpoint.mpkd.json", "log.tsv",
                         "pseudo_audit.tsv")
        },
    }
    _write_json(out / "manifest.json", manifest)
    return 0


def cmd_eval(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = load_checkpoint(args.checkpoint)
    history = load_quadruples(args.history, ckpt.target_entities, ckpt.relations)
    test = load_quadruples(args.test, ckpt.target_entities, ckpt.relations)
    student, digest = ckpt.student, ckpt.config_digest
    seed = ckpt.seed if args.seed is None else args.seed
    del ckpt  # ranking reads the student only: free the teacher and alignment
    report = evaluate(
        student, history, test.events, b=args.neighbors, config_digest=digest,
        seed=seed, threads=args.threads,
    )
    (out / "metrics.json").write_text(report.to_json(), encoding="utf-8")
    if args.per_step:
        with open(out / "per_step.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time,mrr,hits10\n")
            for t, m, h in report.per_step:
                fh.write(f"{t},{m},{h}\n")
    return 0


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _write_rows_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,variant,seed,value\n")
        for x, variant, seed, value in rows:
            fh.write(f"{x},{variant},{seed},{value}\n")


def cmd_experiment(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    first = args.seed or 0
    n_seeds = args.seeds or len(experiments.ExperimentConfig().seeds)
    cfg = experiments.ExperimentConfig(seeds=tuple(range(first, first + n_seeds)))
    seeds = cfg.seeds
    if args.epochs:
        cfg.train = replace(cfg.train, epochs=args.epochs)

    if args.name == "noise":
        ratios = _parse_floats(args.ratios)
        rows = experiments.noise_sweep(cfg, ratios)
        _write_rows_csv(out / "noise.csv", rows)
        summary = {
            "drops": {
                str(r): experiments.relative_drops(rows, r)
                for r in ratios
                if r > 0.0
            }
        }
        _write_json(out / "noise_summary.json", summary)
    elif args.name == "pseudo-ratio":
        fractions = _parse_floats(args.fractions)
        rows = experiments.pseudo_ratio_sweep(cfg, fractions)
        _write_rows_csv(out / "pseudo_ratio.csv", rows)
        summary = {"median_hits10": experiments.median_by_x(rows, "mpkd")}
        _write_json(out / "pseudo_ratio_summary.json", summary)
    elif args.name == "nce-decay":
        counts = tuple(_parse_ints(args.N))
        diag = DiagnosticConfig(negative_counts=counts)
        rows, slope, epsilon = experiments.decay_experiment(diag, seed=seeds[0])
        _write_rows_csv(
            out / "nce_decay.csv",
            [(n, "median_deviation", -1, dev) for n, dev in rows],
        )
        _write_json(
            out / "nce_decay_summary.json",
            {"slope": slope, "epsilon": epsilon},
        )
    else:
        raise ValueError(
            f"unknown experiment {args.name!r}; valid: noise, pseudo-ratio, nce-decay"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tkgdistill",
        description="Cross-lingual temporal KG distillation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic bilingual benchmark")
    p.add_argument("--entities", type=int, default=200)
    p.add_argument("--relations", type=int, default=20)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--train-steps", type=int, default=28)
    p.add_argument("--events-per-step", type=int, default=25)
    p.add_argument("--coverage", type=float, default=0.1)
    p.add_argument("--target-ratio", type=float, default=0.2)
    p.add_argument("--copy-prob", type=float, default=0.6)
    p.add_argument("--emit-full", action="store_true")
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="pretrain the teacher and run training")
    p.add_argument("--config", default=None)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--align", required=True)
    p.add_argument("--ablation", action="append", choices=ABLATIONS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank test queries against a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--neighbors", type=_at_least_one, default=8)
    p.add_argument("--per-step", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=_at_least_one, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a sweep harness")
    p.add_argument("name", choices=["noise", "pseudo-ratio", "nce-decay"])
    p.add_argument("--ratios", default="0,0.05,0.1,0.15,0.2")
    p.add_argument("--fractions", default="0,0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--N", default="8,32,128,512")
    p.add_argument("--seeds", type=_at_least_one, default=None)
    p.add_argument("--epochs", type=_at_least_one, default=None)
    p.add_argument("--seed", type=_non_negative, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # all errors to the diagnostic stream
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
