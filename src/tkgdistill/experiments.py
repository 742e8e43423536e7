"""Experiment harnesses on synthetic bilingual pairs: end-to-end transfer
runs, one seeded sweep over an axis (alignment noise or the pseudo budget)
and model variants, and the negative-count decay diagnostic wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .evaluation import (
    DiagnosticConfig,
    MetricsReport,
    build_nce_toy,
    evaluate,
    nce_deviation_sweep,
)
from .tkg import (
    AlignmentSet,
    GeneratorConfig,
    SyntheticPair,
    generate_synthetic_pair,
    inject_alignment_noise,
    split_by_time,
)
from .trainer import (
    ABLATIONS,
    TEACHER_FIELDS,
    TrainConfig,
    pretrain_teacher,
    train_mpkd,
)

# Desk-scale operating point used by the harnesses: same data shape as the
# benchmark protocol, smaller model and schedule so full sweeps stay fast.
# Without top-1 completion, event transfer keeps only alignment-lookup events
# (argmax completions are unreliable at this scale), and the similarity
# floor prunes pseudo pairs down to the trustworthy head.
DESK_GENERATOR = GeneratorConfig(target_background_per_step=4)
DESK_TRAIN = TrainConfig(
    dim=32,
    learning_rate=0.02,
    batch_size=256,
    epochs=24,
    neighbors=6,
    dropout=0.1,
    reasoning_negatives=8,
    alignment_negatives=32,
    warmup_epochs_before_generation=6,
    pseudo_min_similarity=0.8,
    top1_completion=False,
    patience=24,
)


@dataclass
class ExperimentConfig:
    generator: GeneratorConfig = field(default_factory=lambda: DESK_GENERATOR)
    train: TrainConfig = field(default_factory=lambda: DESK_TRAIN)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)


class TeacherBank:
    """Memo of pretrained teachers keyed by the source graph and every config
    field the teacher reads, so ablation variants of one run share it. Each
    entry keeps its graph alive, so the graph's ``id`` is never reused."""

    def __init__(self):
        self._memo = {}

    def get(self, source_kg, cfg: TrainConfig):
        key = (id(source_kg), *(getattr(cfg, f) for f in TEACHER_FIELDS))
        if key not in self._memo:
            self._memo[key] = (source_kg, pretrain_teacher(source_kg, cfg))
        return self._memo[key][1]


def run_transfer(
    pair: SyntheticPair,
    cfg: TrainConfig,
    teacher_bank: TeacherBank | None = None,
    alignments: AlignmentSet | None = None,
) -> tuple[MetricsReport, object]:
    """Train on the incomplete target and evaluate on its test span.

    Evaluation history contains ground-truth data only (never transferred
    events), so variants stay comparable.
    """
    teacher = teacher_bank.get(pair.source, cfg) if teacher_bank else None
    aligns = alignments if alignments is not None else pair.alignments
    state = train_mpkd(pair.source, pair.target_incomplete, aligns, cfg, teacher)
    _, _, test_part = split_by_time(pair.target_incomplete, cfg.split())
    history = pair.target_incomplete  # full gt multiset: train + val + test
    report = evaluate(
        state.student, history, test_part.events, cfg.neighbors,
        cfg.digest(), cfg.seed,
    )
    return report, state


Row = tuple[float, str, int, float, float]  # (x, variant, seed, mrr, hits10)
AXES = ("noise", "pseudo_fraction")
REFERENCES = ("ref_full_target", "ref_incomplete_target")


def sweep(
    cfg: ExperimentConfig,
    axis: str,
    values: list[float],
    variants: tuple[str, ...],
) -> list[Row]:
    """Tidy rows ``(x, variant, seed, mrr, hits10)`` of test metrics, seed
    by seed: every axis value, ascending from 0, crossed with every variant,
    then each requested reference line once, at x = -1.0.

    The ``noise`` axis reroutes round(x * n) alignments; ``pseudo_fraction``
    pins the pseudo budget to x (no ramp). A variant is ``"full"`` (labelled
    ``mpkd`` on the pseudo-fraction axis), an ``ABLATIONS`` name, or one of
    ``REFERENCES``: one encoder trained alone on the full or on the
    incomplete target graph. The axis runs of a seed share one teacher.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; valid: {', '.join(AXES)}")
    if not values or values[0] != 0.0 or values != sorted(values):
        raise ValueError(
            f"{axis} values must be ascending and start at 0, got {values}"
        )
    full = "mpkd" if axis == "pseudo_fraction" else "full"
    arms = [(full, {}) if v == "full" else (v, ABLATIONS[v])
            for v in variants if v not in REFERENCES]
    rows: list[Row] = []
    for seed in cfg.seeds:
        pair = generate_synthetic_pair(cfg.generator, seed)
        bank = TeacherBank()
        base = replace(cfg.train, seed=seed)
        for x in values:
            pair_x, cfg_x = pair, base
            if axis == "noise":
                pair_x = replace(pair, alignments=inject_alignment_noise(
                    pair.alignments, x, len(pair.target_incomplete.entities),
                    seed=seed * 1000 + int(round(x * 100)),
                ))
            else:
                cfg_x = replace(base, pseudo_fraction_start=x, pseudo_fraction_end=x)
            for label, preset in arms:
                report, _ = run_transfer(pair_x, replace(cfg_x, **preset), bank)
                rows.append((x, label, seed, report.mrr, report.hits10))
        solo = replace(base, **ABLATIONS["pure_training"])
        for ref in (v for v in variants if v in REFERENCES):
            kg = (pair.target_full if ref == "ref_full_target"
                  else pair.target_incomplete)
            alone = replace(
                pair, source=kg, target_incomplete=kg, alignments=AlignmentSet([])
            )
            report, _ = run_transfer(alone, solo)
            rows.append((-1.0, ref, seed, report.mrr, report.hits10))
    return rows


def relative_drops(rows: list[Row], ratio: float) -> dict[str, float]:
    """Median over seeds of (hits10(0) - hits10(ratio)) / hits10(0)."""
    base = {(v, s): h for x, v, s, _, h in rows if x == 0.0}
    drops: dict[str, list[float]] = {}
    for x, v, s, _, h in rows:
        if x != ratio:
            continue
        b = base[(v, s)]
        drops.setdefault(v, []).append((b - h) / b if b > 0 else 0.0)
    return {v: float(np.median(d)) for v, d in drops.items()}


def median_by_x(rows: list[Row], variant: str) -> dict[float, float]:
    """Median Hits@10 over seeds at each x, for one variant."""
    by_x: dict[float, list[float]] = {}
    for x, v, _, _, h in rows:
        if v == variant:
            by_x.setdefault(x, []).append(h)
    return {x: float(np.median(vals)) for x, vals in by_x.items()}


def build_decay_toy(seed: int = 0):
    """Frozen toy for the decay diagnostic: a small graph scored by a seeded
    model, 24 ground-truth positives plus as many pseudo positives, each
    left uncorrupted with probability 0.8, so their correctness is known."""
    from .encoder import init_network_params

    gen = GeneratorConfig(
        source_entities=30, target_entities=30, relations=5, steps=10,
        train_steps=10, events_per_step=12, coverage=0.5,
    )
    pair = generate_synthetic_pair(gen, seed)
    kg = pair.target_full
    params = init_network_params(
        len(kg.entities), len(kg.relations), 16, seed + 1, 0.0
    )
    rng = np.random.default_rng(seed + 2)
    rows = kg.events.tolist()
    gt = kg.events[rng.choice(len(rows), size=24, replace=False)]
    picks = rng.choice(len(rows), size=len(gt), replace=True)
    truth = set(map(tuple, rows))
    ps, flags = [], []
    for idx in picks:
        s, r, o, t = rows[idx]
        if rng.random() >= 0.8:
            o = int(rng.integers(len(kg.entities)))
        ps.append((s, r, o, t))
        flags.append((s, r, o, t) in truth)
    return build_nce_toy(params, kg, gt, ps, flags, b=6)


def decay_experiment(diag: DiagnosticConfig, seed: int = 0):
    toy = build_decay_toy(seed)
    rows, slope = nce_deviation_sweep(diag, toy)
    return rows, slope, toy.epsilon
