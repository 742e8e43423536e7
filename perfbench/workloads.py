"""The benchmark's workloads: generated inputs and one user operation each.

Every workload builds its inputs from the seed alone (``setup``) and then
runs one complete user operation on them (``run``), which returns the
MetricsReport JSON the operation produced plus the figures the benchmark
checks. Two sizes exist: ``full`` is measured, ``smoke`` finishes in
seconds and exists for the benchmark's own tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from tkgdistill import checkpoint, cli, experiments, tkg
from tkgdistill.alignment import init_align_params
from tkgdistill.encoder import init_network_params
from tkgdistill.evaluation import MetricsReport
from tkgdistill.tkg import GeneratorConfig, split_by_time
from tkgdistill.trainer import TrainConfig

from tracer import Tracer


@dataclass(frozen=True)
class Outcome:
    report_json: str  # MetricsReport JSON, the output checked byte for byte
    queries: int
    problems: tuple[str, ...]  # output checks that failed on this repeat


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # (tracer, seed, workdir) -> inputs
    run: Callable  # (tracer, inputs) -> Outcome


def _report_problems(report: MetricsReport, n_test: int) -> list[str]:
    out = []
    if report.query_count != 2 * n_test:
        out.append(f"query_count {report.query_count} != 2 x {n_test} test quadruples")
    if not (0.0 < report.mrr <= 1.0 and 0.0 <= report.hits10 <= 1.0):
        out.append(f"metrics out of range: mrr={report.mrr} hits10={report.hits10}")
    return out


def transfer_workload(name: str, why: str, gen: GeneratorConfig, cfg: TrainConfig):
    """One full ``experiments.run_transfer`` (teacher, alternating loop, test
    evaluation) on a freshly generated synthetic pair."""

    def setup(tracer: Tracer, seed: int, workdir: Path):
        pair = tracer.call("tkg.generate_synthetic_pair", tkg.generate_synthetic_pair,
                           gen, seed)
        return pair, replace(cfg, seed=seed)

    def run(tracer: Tracer, inputs) -> Outcome:
        pair, run_cfg = inputs
        report, state = tracer.call(
            "experiments.run_transfer", experiments.run_transfer,
            pair, run_cfg, experiments.TeacherBank(),
        )
        # counted directly: split_by_time would add graph-building spans
        val_end = run_cfg.split_train_steps + run_cfg.split_val_steps
        n_test = sum(q.time >= val_end for q in pair.target_incomplete.quadruples)
        problems = _report_problems(report, n_test)
        losses = [x for _, a, s in state.loss_trace for x in (a, s)]
        losses += [v for _, v in state.val_trace]
        if not all(math.isfinite(x) for x in losses):
            problems.append("non-finite loss or validation MRR in the loss trace")
        return Outcome(report.to_json(), report.query_count, tuple(problems))

    return Workload(name, why, setup, run)


def eval_workload(name: str, why: str, gen: GeneratorConfig, dim: int):
    """``tkgdistill eval`` (in-process ``cli.main``) on a seeded, untrained
    checkpoint; history is the full target graph, test its test span."""
    split = TrainConfig().split()

    def setup(tracer: Tracer, seed: int, workdir: Path):
        pair = tracer.call("tkg.generate_synthetic_pair", tkg.generate_synthetic_pair,
                           gen, seed)
        kg = pair.target_full
        _, _, test = split_by_time(kg, split)
        tkg.dump_quadruples(kg, workdir / "history.tsv")
        tkg.dump_quadruples(test, workdir / "test.tsv")
        n_rel = len(kg.relations)
        ckpt = checkpoint.Checkpoint(
            init_network_params(len(pair.source.entities), n_rel, dim, seed + 1),
            init_network_params(len(kg.entities), n_rel, dim, seed + 2),
            init_align_params(dim, seed + 3),
            pair.source.entities, kg.entities, kg.relations,
            TrainConfig(dim=dim).digest(), seed,
        )
        tracer.call("checkpoint.save_checkpoint", checkpoint.save_checkpoint,
                    ckpt, workdir / "checkpoint.mpkd")
        return workdir, len(test.quadruples)

    def run(tracer: Tracer, inputs) -> Outcome:
        workdir, n_test = inputs
        out = workdir / "eval"
        argv = [
            "eval", "--checkpoint", str(workdir / "checkpoint.mpkd"),
            "--history", str(workdir / "history.tsv"),
            "--test", str(workdir / "test.tsv"), "--out", str(out),
        ]
        rc = tracer.call("cli.main", cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"tkgdistill eval exited with {rc}")
        text = (out / "metrics.json").read_text(encoding="utf-8")
        report = MetricsReport.from_json(text)
        return Outcome(text, report.query_count, tuple(_report_problems(report, n_test)))

    return Workload(name, why, setup, run)


_SMOKE_GEN = GeneratorConfig(
    source_entities=40, target_entities=40, relations=5, events_per_step=8,
    target_background_per_step=3, coverage=0.2,
)
_SMOKE_TRAIN = replace(
    experiments.DESK_TRAIN, dim=8, epochs=2, warmup_epochs_before_generation=1,
    reasoning_negatives=2, alignment_negatives=4,
)


def build(size: str) -> dict[str, Workload]:
    if size not in ("full", "smoke"):
        raise ValueError(f"unknown size {size!r}")
    full = size == "full"
    desk_train = replace(
        experiments.DESK_TRAIN, epochs=6, warmup_epochs_before_generation=2
    )
    paper_train = TrainConfig(epochs=1, warmup_epochs_before_generation=0)
    scale_gen = replace(
        experiments.DESK_GENERATOR, source_entities=1000, target_entities=1000,
        events_per_step=125, target_background_per_step=20,
    )
    scale_train = replace(
        experiments.DESK_TRAIN, epochs=1, warmup_epochs_before_generation=0
    )
    eval_gen = GeneratorConfig(
        source_entities=2000, target_entities=2000, events_per_step=200,
        target_background_per_step=280,
    )
    workloads = (
        transfer_workload(
            "desk",
            "desk config of the acceptance runs and sweeps; reasoning loss and "
            "its encoder calls dominate",
            experiments.DESK_GENERATOR if full else _SMOKE_GEN,
            desk_train if full else _SMOKE_TRAIN,
        ),
        transfer_workload(
            "paper_dims",
            "paper defaults (d=128, 50 alignment negatives); the alignment "
            "loss's (P, N, T, d) negative block dominates time and memory",
            GeneratorConfig(coverage=0.3) if full else replace(_SMOKE_GEN, coverage=0.3),
            paper_train if full else replace(
                paper_train, dim=16, alignment_negatives=8, reasoning_negatives=2
            ),
        ),
        transfer_workload(
            "scale5x",
            "1,000 entities per side and 5x the events; the pseudo matcher and "
            "the event-transfer scan grow with the graph",
            scale_gen if full else replace(_SMOKE_GEN, source_entities=80,
                                           target_entities=80),
            scale_train if full else _SMOKE_TRAIN,
        ),
        eval_workload(
            "eval_ckpt",
            "tkgdistill eval of an untrained d=128 checkpoint on a 2,000-entity "
            "graph; read-only encoder, ranking, TSV and checkpoint loading",
            eval_gen if full else replace(_SMOKE_GEN, source_entities=100,
                                          target_entities=100),
            128 if full else 16,
        ),
    )
    return {w.name: w for w in workloads}
