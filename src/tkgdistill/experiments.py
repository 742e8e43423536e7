"""Experiment harnesses on synthetic bilingual pairs: end-to-end transfer
runs, the alignment-noise sweep, the pseudo-budget sweep, and the
negative-count decay diagnostic wiring.
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


def run_single_model(
    target_kg, cfg: TrainConfig
) -> MetricsReport:
    """Reference line: one encoder trained on the target graph alone."""
    solo = replace(cfg, **ABLATIONS["pure_training"])
    state = train_mpkd(target_kg, target_kg, AlignmentSet([]), solo, teacher=None)
    _, _, test_part = split_by_time(target_kg, cfg.split())
    return evaluate(
        state.student, target_kg, test_part.events, cfg.neighbors,
        cfg.digest(), cfg.seed,
    )


def transfer_gain_experiment(
    cfg: ExperimentConfig,
) -> dict[str, list[float]]:
    """Full model vs the pure-training ablation, test MRR per seed."""
    out: dict[str, list[float]] = {"full": [], "pure_training": []}
    for seed in cfg.seeds:
        pair = generate_synthetic_pair(cfg.generator, seed)
        bank = TeacherBank()
        base = replace(cfg.train, seed=seed)
        report, _ = run_transfer(pair, base, bank)
        out["full"].append(report.mrr)
        pure = replace(base, **ABLATIONS["pure_training"])
        report, _ = run_transfer(pair, pure, bank)
        out["pure_training"].append(report.mrr)
    return out


def noise_sweep(
    cfg: ExperimentConfig,
    noise_ratios: list[float],
    variants: tuple[str, ...] = ("full", "uniform_strength"),
) -> list[tuple[float, str, int, float]]:
    """Rows (ratio, variant, seed, hits10) across noise levels; a variant
    is "full" or an ``ABLATIONS`` name.

    Relative drops against ratio 0 come from :func:`relative_drops`.
    """
    if "full" not in variants or "uniform_strength" not in variants:
        raise ValueError("variants must include 'full' and 'uniform_strength'")
    rows: list[tuple[float, str, int, float]] = []
    for seed in cfg.seeds:
        pair = generate_synthetic_pair(cfg.generator, seed)
        bank = TeacherBank()
        base = replace(cfg.train, seed=seed)
        for ratio in noise_ratios:
            noisy = inject_alignment_noise(
                pair.alignments, ratio, len(pair.target_incomplete.entities),
                seed=seed * 1000 + int(round(ratio * 100)),
            )
            for variant in variants:
                preset = {} if variant == "full" else ABLATIONS[variant]
                report, _ = run_transfer(
                    pair, replace(base, **preset), bank, alignments=noisy
                )
                rows.append((ratio, variant, seed, report.hits10))
    return rows


def relative_drops(
    rows: list[tuple[float, str, int, float]], ratio: float
) -> dict[str, float]:
    """Median over seeds of (metric(0) - metric(ratio)) / metric(0)."""
    base = {(v, s): x for r, v, s, x in rows if r == 0.0}
    drops: dict[str, list[float]] = {}
    for r, v, s, x in rows:
        if r != ratio:
            continue
        b = base[(v, s)]
        drops.setdefault(v, []).append((b - x) / b if b > 0 else 0.0)
    return {v: float(np.median(d)) for v, d in drops.items()}


def pseudo_ratio_sweep(
    cfg: ExperimentConfig,
    fractions: list[float],
    include_references: bool = True,
) -> list[tuple[float, str, int, float]]:
    """Rows (fraction, variant, seed, hits10); the budget is pinned to each
    fraction (no ramp). Reference lines retrain a single model on the full
    and on the incomplete target graph."""
    if fractions != sorted(fractions) or (fractions and fractions[0] != 0.0):
        raise ValueError("fractions must be ascending and start at 0")
    rows: list[tuple[float, str, int, float]] = []
    for seed in cfg.seeds:
        pair = generate_synthetic_pair(cfg.generator, seed)
        bank = TeacherBank()
        base = replace(cfg.train, seed=seed)
        for fraction in fractions:
            cfg_f = replace(
                base, pseudo_fraction_start=fraction, pseudo_fraction_end=fraction
            )
            report, _ = run_transfer(pair, cfg_f, bank)
            rows.append((fraction, "mpkd", seed, report.hits10))
        if include_references:
            ref = run_single_model(pair.target_full, base)
            rows.append((-1.0, "ref_full_target", seed, ref.hits10))
            ref = run_single_model(pair.target_incomplete, base)
            rows.append((-1.0, "ref_incomplete_target", seed, ref.hits10))
    return rows


def median_by_x(
    rows: list[tuple[float, str, int, float]], variant: str
) -> dict[float, float]:
    by_x: dict[float, list[float]] = {}
    for x, v, _, value in rows:
        if v == variant:
            by_x.setdefault(x, []).append(value)
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
