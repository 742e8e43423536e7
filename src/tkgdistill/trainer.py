"""Teacher pretraining, student initialization, and the alternating
alignment/student optimization with pseudo-alignment generation and
temporal event transfer paced across epochs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

from .alignment import (
    AlignParams,
    alignment_loss_bwd,
    alignment_loss_fwd,
    init_align_params,
    temporal_integrate_batch_bwd,
    temporal_integrate_batch_fwd,
)
from .distill import (
    CandidateTable,
    PseudoGenConfig,
    TransferRecord,
    candidate_targets,
    generate_pseudo_alignments,
    transfer_events,
)
from .encoder import (
    NetworkParams,
    encode_trajectories_bwd,
    encode_trajectories_fwd,
    init_network_params,
)
from .evaluation import EncodingCache, evaluate, score_object_queries
from .numerics import AdamState, ParamDict, adam_step, unit_rows, unit_rows_backward
from .scoring import NegativeSamplerConfig, reasoning_loss_bwd, reasoning_loss_fwd
from .tkg import (
    GROUND_TRUTH,
    AlignmentPair,
    AlignmentSet,
    Quadruple,
    SplitSpec,
    TemporalKG,
    numbered_lines,
    split_by_time,
)

# rng stream tags so every sampling site owns an independent, order-free seed
_RNG_TEACHER, _RNG_ALIGN, _RNG_STUDENT, _RNG_CHANNEL, _RNG_SHUFFLE, _RNG_DROPOUT, _RNG_INIT = range(7)


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def _at_least(low):
    return lambda v: v >= low, f">= {low}"


# field -> (check, wording); NaN fails every check
_RANGES = {
    **dict.fromkeys(
        ("dim", "batch_size", "neighbors", "reasoning_negatives",
         "alignment_negatives", "time_intervals",
         "split_train_steps", "split_val_steps", "split_test_steps"),
        _at_least(1),
    ),
    **dict.fromkeys(
        ("epochs", "warmup_epochs_before_generation", "patience", "seed"),
        _at_least(0),
    ),
    **dict.fromkeys(
        ("margin_reasoning", "margin_alignment", "learning_rate"),
        (lambda v: v > 0, "> 0"),
    ),
    **dict.fromkeys(
        ("pseudo_fraction_start", "pseudo_fraction_end"),
        (lambda v: 0 <= v <= 1, "in [0, 1]"),
    ),
    "dropout": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "pseudo_min_similarity": (np.isfinite, "finite"),
}


def _range_error(name: str, value) -> str | None:
    check, wording = _RANGES[name]
    return None if check(value) else f"{name} must be {wording}, got {value!r}"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the defaults are the reported operating point."""

    dim: int = 128
    margin_reasoning: float = 0.5
    margin_alignment: float = 0.5
    learning_rate: float = 0.01
    batch_size: int = 256
    epochs: int = 50
    neighbors: int = 8
    dropout: float = 0.5
    reasoning_negatives: int = 10
    alignment_negatives: int = 50
    time_intervals: int = 4
    warmup_epochs_before_generation: int = 10
    pseudo_fraction_start: float = 0.10
    pseudo_fraction_end: float = 0.40
    pseudo_min_similarity: float = 0.0
    top1_completion: bool = True  # the student fills open transfer slots
    patience: int = 5
    split_train_steps: int = 28
    split_val_steps: int = 4
    split_test_steps: int = 8
    seed: int = 0
    uniform_strength: bool = False
    no_event_transfer: bool = False

    def __post_init__(self):
        for name in _RANGES:
            problem = _range_error(name, getattr(self, name))
            if problem:
                raise ValueError(problem)

    def split(self) -> SplitSpec:
        total = self.split_train_steps + self.split_val_steps + self.split_test_steps
        return SplitSpec(
            total, self.split_train_steps, self.split_val_steps, self.split_test_steps
        )

    def digest(self) -> str:
        text = "\n".join(
            f"{f.name} = {getattr(self, f.name)}" for f in fields(self)
        )
        return hashlib.sha256(text.encode()).hexdigest()


_NO_PSEUDO = {"pseudo_fraction_start": 0.0, "pseudo_fraction_end": 0.0}
# --ablation name -> the TrainConfig fields it sets
ABLATIONS = {
    "uniform_strength": {"uniform_strength": True},
    "pure_training": {**_NO_PSEUDO, "no_event_transfer": True},
    "no_pseudo": _NO_PSEUDO,
    "no_event_transfer": {"no_event_transfer": True},
}

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False}


def parse_config_file(path) -> TrainConfig:
    """``key = value`` lines mirroring TrainConfig fields; unknown and
    repeated keys raise."""
    by_name = {f.name: f for f in fields(TrainConfig)}
    overrides, first_line = {}, {}
    for lineno, line in numbered_lines(path):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in text.partition("="))
        if key not in by_name:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}, "
                             f"first set on line {first_line[key]}")
        first_line[key] = lineno
        ftype = by_name[key].type
        if ftype == "bool":
            if value.lower() not in _BOOL_WORDS:
                raise ValueError(f"{path}:{lineno}: bad boolean {value!r}")
            overrides[key] = _BOOL_WORDS[value.lower()]
        else:
            overrides[key] = _parse_number(value, ftype, path, lineno)
            problem = key in _RANGES and _range_error(key, overrides[key])
            if problem:
                raise ValueError(f"{path}:{lineno}: {problem}")
    return TrainConfig(**overrides)


def _parse_number(text: str, ftype: str, path, lineno: int):
    try:
        num = int(text) if ftype == "int" else float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: bad {ftype} value {text!r}") from None
    if ftype == "float" and not np.isfinite(num):
        raise ValueError(f"{path}:{lineno}: non-finite value {text!r}")
    return num


@dataclass
class TrainState:
    teacher: NetworkParams
    student: NetworkParams
    align: AlignParams
    adam_student: AdamState
    adam_align: AdamState
    alignments: AlignmentSet
    transferred: list[TransferRecord]
    union_kg: TemporalKG
    epoch: int = 0
    loss_trace: list = field(default_factory=list)
    val_trace: list = field(default_factory=list)
    log_rows: list = field(default_factory=list)
    pseudo_audit: list = field(default_factory=list)
    best_val: float = -1.0
    best_epoch: int = -1


# The TrainConfig fields ``pretrain_teacher`` reads: a teacher is a function
# of these and of the source graph alone.
TEACHER_FIELDS = (
    "seed", "dim", "dropout", "epochs", "batch_size", "learning_rate",
    "neighbors", "reasoning_negatives", "margin_reasoning",
)


def pretrain_teacher(
    source_kg: TemporalKG, cfg: TrainConfig, log_rows: list | None = None
) -> NetworkParams:
    """Minimize the reasoning loss on the source graph; returns frozen params."""
    quads = source_kg.events
    if len(quads) == 0:
        raise ValueError("source graph is empty")
    params = init_network_params(
        len(source_kg.entities), len(source_kg.relations), cfg.dim,
        int(rng_for(cfg.seed, _RNG_INIT, 0).integers(2**31)), cfg.dropout,
    )
    state = AdamState.like(params.trainable())
    neg = NegativeSamplerConfig(cfg.reasoning_negatives)
    for epoch in range(cfg.epochs):
        order = rng_for(cfg.seed, _RNG_SHUFFLE, _RNG_TEACHER, epoch).permutation(len(quads))
        losses = []
        for bi in range(0, len(quads), cfg.batch_size):
            batch = quads[order[bi : bi + cfg.batch_size]]
            rng = rng_for(cfg.seed, _RNG_TEACHER, epoch, bi)
            drop = rng_for(cfg.seed, _RNG_DROPOUT, _RNG_TEACHER, epoch, bi)
            loss, cache = reasoning_loss_fwd(
                params, source_kg, batch, neg, cfg.margin_reasoning, rng,
                cfg.neighbors, drop,
            )
            if not np.isfinite(loss):
                raise RuntimeError(f"teacher loss diverged at epoch {epoch}")
            grads = params.zero_grads()
            reasoning_loss_bwd(cache, params, grads)
            adam_step(params.trainable(), grads, state, cfg.learning_rate)
            losses.append(loss)
        if log_rows is not None:
            log_rows.append((epoch, "teacher", float(np.mean(losses)), "", 0, 0))
    return params


def init_student_from_teacher(
    teacher: NetworkParams,
    n_target_entities: int,
    n_target_relations: int,
    seed: int,
) -> NetworkParams:
    """Copy the shared blocks; target entity rows are freshly seeded.

    Relations must be a shared vocabulary (target ids index the teacher
    table), so the relation rows, transform, attention vector and time
    frequencies carry over bitwise.
    """
    if n_target_relations > teacher.n_relations:
        raise ValueError(
            f"target relation vocabulary ({n_target_relations}) exceeds "
            f"teacher's ({teacher.n_relations})"
        )
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(teacher.dim)
    entity_emb = rng.uniform(-bound, bound, size=(n_target_entities, teacher.dim))
    return NetworkParams(
        entity_emb,
        teacher.relation_emb.copy(),
        teacher.transform_W.copy(),
        teacher.attn_a.copy(),
        teacher.time_freq.copy(),
        teacher.dropout_rate,
        teacher.n_relations,
    )


# ---------------------------------------------------------------------------
# Loss assembly over ground-truth and pseudo sets
# ---------------------------------------------------------------------------


@dataclass
class EpochBatches:
    gt_quads: np.ndarray | list[Quadruple]  # any (n, 4) array-like
    ps_quads: np.ndarray | list[Quadruple]
    gt_pairs: list[AlignmentPair]
    ps_pairs: list[AlignmentPair]


def set_size_weights(n_gt: int, n_ps: int) -> tuple[float, float]:
    """Set-size convex pair, summing to 1 exactly; (1, 0) when both absent."""
    total = n_gt + n_ps
    if total == 0:
        return 1.0, 0.0
    w_gt = n_gt / total
    return w_gt, 1.0 - w_gt


def _pair_arrays(
    pairs: list[AlignmentPair], alignments: AlignmentSet
) -> tuple[np.ndarray, np.ndarray, list[set[int]]]:
    src = np.array([p.source_entity for p in pairs], dtype=np.int64)
    tgt = np.array([p.target_entity for p in pairs], dtype=np.int64)
    excl = [
        {p.target_entity} | alignments.targets_of(p.source_entity) for p in pairs
    ]
    return src, tgt, excl


def _alignment_terms(
    align: AlignParams,
    source_traj_bank: np.ndarray,
    target_trajs: np.ndarray,
    gt_pairs: list[AlignmentPair],
    ps_pairs: list[AlignmentPair],
    alignments: AlignmentSet,
    weights: tuple[float, float],
    cfg: TrainConfig,
    rng: np.random.Generator,
    strength_overrides: tuple | None = None,
    param_grads: bool = True,
    traj_grad: bool = True,
):
    """Weighted ground-truth + pseudo alignment hinge, with grads.

    Returns (loss, align_grads, grad wrt target trajectories); a gradient
    the caller does not ask for is None and its backward work is skipped.
    The alignment fit asks for ``param_grads`` only, the distillation
    channel for ``traj_grad`` only. The targets are integrated and
    normalised once for both pair sets, and the sets' weighted unit-row
    gradients are summed in one buffer before one backward through that
    integration.
    """
    h_tgt, tgt_cache = temporal_integrate_batch_fwd(align, target_trajs)
    u_tgt, n_tgt = unit_rows(h_tgt)
    loss = 0.0
    terms = []
    for idx, (pairs, w) in enumerate(zip((gt_pairs, ps_pairs), weights)):
        if not pairs or w == 0.0:
            continue
        src, tgt, excl = _pair_arrays(pairs, alignments)
        override = strength_overrides[idx] if strength_overrides else None
        if override is None and cfg.uniform_strength:
            override = np.ones((len(src), source_traj_bank.shape[1]))
        term, cache = alignment_loss_fwd(
            align, source_traj_bank[src], h_tgt, tgt, excl,
            cfg.alignment_negatives, cfg.margin_alignment, rng,
            strength_override=override, u_tgt=u_tgt,
        )
        loss += w * term
        terms.append((w, cache))
    del h_tgt
    if not (param_grads or traj_grad):
        return loss, None, None
    align_grads = align.zero_grads() if param_grads else None
    g_u = None
    for w, cache in terms:
        g_u = alignment_loss_bwd(cache, align, align_grads, w, g_u)
    unit_rows_backward(g_u, u_tgt, n_tgt)  # now d loss / d h
    # the unit rows go, as the integrated targets went after the forwards,
    # before the integration's backward builds its temporaries
    del terms, cache, u_tgt, n_tgt
    grad_tgt = temporal_integrate_batch_bwd(
        g_u, tgt_cache, align, align_grads, traj_grad
    )
    return loss, align_grads, grad_tgt


def _reasoning_terms(
    student: NetworkParams,
    union_kg: TemporalKG,
    gt_batch: np.ndarray | list[Quadruple],
    ps_batch: np.ndarray | list[Quadruple],
    weights: tuple[float, float],
    cfg: TrainConfig,
    rng: np.random.Generator,
    dropout_rng: np.random.Generator | None,
    with_grad: bool = True,
):
    """Weighted ground-truth + pseudo reasoning hinge, with grads (zero
    without ``with_grad``, which skips the backward pass)."""
    w_gt, w_ps = weights
    neg = NegativeSamplerConfig(cfg.reasoning_negatives)
    loss = 0.0
    grads = student.zero_grads()
    for batch, w in ((gt_batch, w_gt), (ps_batch, w_ps)):
        if len(batch) == 0 or w == 0.0:
            continue
        term, cache = reasoning_loss_fwd(
            student, union_kg, batch, neg, cfg.margin_reasoning, rng,
            cfg.neighbors, dropout_rng,
        )
        loss += w * term
        if not with_grad:
            continue
        part = student.zero_grads()
        reasoning_loss_bwd(cache, student, part)
        for k in grads:
            grads[k] += w * part[k]
    return loss, grads


def combined_loss_and_grad(
    student: NetworkParams,
    align: AlignParams,
    union_kg: TemporalKG,
    source_traj_bank: np.ndarray,
    alignments: AlignmentSet,
    batches: EpochBatches,
    cfg: TrainConfig,
    seed_tag: int = 0,
    strength_overrides: tuple | None = None,
    with_grad: bool = True,
) -> tuple[float, ParamDict, ParamDict]:
    """Full four-term objective with gradients for the student and the
    alignment module; every sampling site is seeded, so the value is a pure
    deterministic function of the parameters. Without ``with_grad`` the
    backward passes are skipped and the grads come back zero."""
    if not any(map(len, (batches.gt_quads, batches.ps_quads,
                         batches.gt_pairs, batches.ps_pairs))):
        raise ValueError("all four training sets are empty")
    w_graph = set_size_weights(len(batches.gt_quads), len(batches.ps_quads))
    w_align = set_size_weights(len(batches.gt_pairs), len(batches.ps_pairs))

    loss, student_grads = _reasoning_terms(
        student, union_kg, batches.gt_quads, batches.ps_quads, w_graph, cfg,
        rng_for(cfg.seed, _RNG_STUDENT, seed_tag), None, with_grad,
    )
    align_grads = align.zero_grads()
    if batches.gt_pairs or batches.ps_pairs:
        t_train = cfg.split_train_steps
        all_targets = np.arange(student.n_entities, dtype=np.int64)
        tgt_trajs, traj_cache = encode_trajectories_fwd(
            student, union_kg, all_targets, t_train, cfg.neighbors
        )
        a_loss, a_grads, grad_tgt = _alignment_terms(
            align, source_traj_bank, tgt_trajs, batches.gt_pairs,
            batches.ps_pairs, alignments, w_align, cfg,
            rng_for(cfg.seed, _RNG_CHANNEL, seed_tag), strength_overrides,
            with_grad, with_grad,
        )
        loss += a_loss
        if with_grad:
            align_grads = a_grads
            encode_trajectories_bwd(grad_tgt, traj_cache, student, student_grads)
    return loss, student_grads, align_grads


# ---------------------------------------------------------------------------
# The outer loop
# ---------------------------------------------------------------------------


def pseudo_fraction_at(cfg: TrainConfig, epoch: int) -> float:
    """Linear ramp from the first generation epoch to the final epoch."""
    first = cfg.warmup_epochs_before_generation
    last = max(cfg.epochs - 1, first)
    if epoch < first:
        return 0.0
    if last == first:
        return cfg.pseudo_fraction_end
    frac = (epoch - first) / (last - first)
    return cfg.pseudo_fraction_start + frac * (
        cfg.pseudo_fraction_end - cfg.pseudo_fraction_start
    )


def _interval_bounds(train_steps: int, k: int) -> list[tuple[int, int]]:
    """k contiguous chunks of [0, train_steps), most recent first."""
    edges = np.linspace(0, train_steps, k + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(k)][::-1]


def _chunks(items, size: int) -> list:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _student_top1_fns(student: NetworkParams, kg: TemporalKG, b: int):
    """Argmax completion functions over the student's scores."""
    cache = EncodingCache(student, kg, b)

    def rank_object(e: int, r: int, t: int):
        h_all, h_sq = cache.at(t)
        scores = score_object_queries(
            student, h_all, np.array([e]), np.array([r]), h_sq
        )[0]
        return int(np.argmax(scores))

    def rank_subject(r: int, e: int, t: int):
        return rank_object(e, r + student.n_relations, t)

    return rank_object, rank_subject


def _mean_sim_matrix(h_src: np.ndarray, h_tgt: np.ndarray) -> np.ndarray:
    """Mean-over-time cosine between every source row and target row.

    ``h_src`` is (ns, T, d), ``h_tgt`` (nt, T, d); returns (ns, nt).
    """
    us, ut = unit_rows(h_src)[0], unit_rows(h_tgt)[0]
    return np.tensordot(us, ut, axes=([1, 2], [1, 2])) / h_src.shape[1]


def train_mpkd(
    source_kg: TemporalKG,
    target_kg: TemporalKG,
    alignments: AlignmentSet,
    cfg: TrainConfig,
    teacher: NetworkParams | None = None,
) -> TrainState:
    """Run the full alternating optimization and return the final state.

    Per epoch: (a) fit the alignment module on the current pair sets with
    both encoders frozen; (b) transfer source events through the alignment
    map using the current student for open slots; (c) update the student on
    ground-truth plus transferred events, sweeping the training span from
    the most recent interval to the earliest, with the alignment terms
    providing the distillation gradient; (d) past the warmup, regenerate
    pseudo alignments under the paced budget. Early-stops on validation MRR.
    """
    fractions = cfg.pseudo_fraction_start, cfg.pseudo_fraction_end
    if len(alignments) == 0 and (any(fractions) or not cfg.no_event_transfer):
        raise ValueError("alignments may be empty only without generated data")
    split = cfg.split()
    if target_kg.horizon != split.total_steps:
        raise ValueError("target horizon does not match the configured split")
    train_part, val_part, _ = split_by_time(target_kg, split)
    gt_train, val_quads = train_part.events, val_part.events
    # evaluation sees ground-truth data only
    val_history = target_kg.with_quadruples(np.concatenate([gt_train, val_quads]))

    log_rows: list = []
    if teacher is None:
        teacher = pretrain_teacher(source_kg, cfg, log_rows)
    teacher = teacher.copy()  # frozen; nothing below may touch the original

    student = init_student_from_teacher(
        teacher, len(target_kg.entities), len(target_kg.relations),
        int(rng_for(cfg.seed, _RNG_INIT, 1).integers(2**31)),
    )
    align = init_align_params(
        cfg.dim, int(rng_for(cfg.seed, _RNG_INIT, 2).integers(2**31))
    )

    t_train = cfg.split_train_steps
    source_traj_bank = encode_trajectories_fwd(
        teacher, source_kg, np.arange(teacher.n_entities), t_train, cfg.neighbors,
    )[0]
    early = source_kg.events[source_kg.events[:, 3] < t_train]
    active_sources = frozenset(early[:, [0, 2]].ravel().tolist())

    state = TrainState(
        teacher=teacher,
        student=student,
        align=align,
        adam_student=AdamState.like(student.trainable()),
        adam_align=AdamState.like(align.trainable()),
        alignments=AlignmentSet(list(alignments.pairs)),
        transferred=[],
        union_kg=target_kg.with_quadruples(gt_train),
        log_rows=log_rows,
    )
    all_targets = np.arange(student.n_entities, dtype=np.int64)
    best_student, best_align = student.copy(), align.copy()
    # all-target trajectories of the current student on the current union
    # graph; a pseudo round leaves its own for the next epoch's fit
    tgt_trajs = None

    for epoch in range(cfg.epochs):
        state.epoch = epoch
        gt_pairs = [p for p in state.alignments if p.provenance == GROUND_TRUTH]
        ps_pairs = [p for p in state.alignments if p.provenance != GROUND_TRUTH]
        w_align = set_size_weights(len(gt_pairs), len(ps_pairs))

        # (a) alignment module fit, encoders frozen
        align_losses = []
        if gt_pairs or ps_pairs:
            if tgt_trajs is None:
                tgt_trajs = encode_trajectories_fwd(
                    student, state.union_kg, all_targets, t_train, cfg.neighbors,
                )[0]
            order = rng_for(cfg.seed, _RNG_SHUFFLE, _RNG_ALIGN, epoch).permutation(
                len(state.alignments.pairs)
            )
            shuffled = [state.alignments.pairs[i] for i in order]
            for bi, chunk in enumerate(_chunks(shuffled, cfg.batch_size)):
                loss, grads, _ = _alignment_terms(
                    align, source_traj_bank, tgt_trajs,
                    [p for p in chunk if p.provenance == GROUND_TRUTH],
                    [p for p in chunk if p.provenance != GROUND_TRUTH],
                    state.alignments, w_align, cfg,
                    rng_for(cfg.seed, _RNG_ALIGN, epoch, bi), traj_grad=False,
                )
                if not np.isfinite(loss):
                    raise RuntimeError(f"alignment loss diverged at epoch {epoch}")
                adam_step(align.trainable(), grads, state.adam_align,
                          cfg.learning_rate)
                align_losses.append(loss)
        tgt_trajs = None  # the student and the union graph change below

        # (b) event transfer; it shares the pseudo-data warmup: both halves of
        # the generated data start once the student has structure to offer
        if (
            not cfg.no_event_transfer
            and len(state.alignments)
            and epoch >= cfg.warmup_epochs_before_generation
        ):
            rank_obj, rank_subj = (
                _student_top1_fns(student, state.union_kg, cfg.neighbors)
                if cfg.top1_completion else (lambda *_: None,) * 2
            )
            # the union graph holds every earlier transfer, so none repeats
            new = transfer_events(
                source_kg, state.union_kg, state.alignments, rank_obj,
                rank_subj, t_train, epoch,
            )
            if new:
                state.transferred.extend(new)
                state.union_kg = target_kg.with_quadruples(np.concatenate(
                    [gt_train, [r.quadruple for r in state.transferred]]
                ))

        # (c) student update: recent intervals first, Eq-weighted terms
        ps_quads = np.array([r.quadruple for r in state.transferred], np.int64)
        ps_quads = ps_quads.reshape(-1, 4)  # (0, 4) before the first transfer
        w_graph = set_size_weights(len(gt_train), len(ps_quads))
        student_losses = []
        for iv, (lo, hi) in enumerate(_interval_bounds(t_train, cfg.time_intervals)):
            gt_iv = gt_train[(gt_train[:, 3] >= lo) & (gt_train[:, 3] < hi)]
            ps_iv = ps_quads[(ps_quads[:, 3] >= lo) & (ps_quads[:, 3] < hi)]
            if len(gt_iv) == 0 and len(ps_iv) == 0:
                continue
            shuffle = rng_for(cfg.seed, _RNG_SHUFFLE, _RNG_STUDENT, epoch, iv)
            gt_iv = gt_iv[shuffle.permutation(len(gt_iv))]
            ps_iv = ps_iv[shuffle.permutation(len(ps_iv))]
            gt_chunks = _chunks(gt_iv, cfg.batch_size)
            ps_chunks = _chunks(ps_iv, cfg.batch_size)
            for bi in range(max(len(gt_chunks), len(ps_chunks))):
                gt_b = gt_chunks[bi] if bi < len(gt_chunks) else []
                ps_b = ps_chunks[bi] if bi < len(ps_chunks) else []
                loss, grads = _reasoning_terms(
                    student, state.union_kg, gt_b, ps_b, w_graph, cfg,
                    rng_for(cfg.seed, _RNG_STUDENT, epoch, iv, bi),
                    rng_for(cfg.seed, _RNG_DROPOUT, _RNG_STUDENT, epoch, iv, bi),
                )
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"student loss diverged at epoch {epoch}, interval {iv}"
                    )
                adam_step(student.trainable(), grads, state.adam_student,
                          cfg.learning_rate)
                student_losses.append(loss)

        if gt_pairs or ps_pairs:
            # distillation channel: the alignment terms pull the student's
            # trajectories toward the teacher's through the frozen module
            chan_trajs, traj_cache = encode_trajectories_fwd(
                student, state.union_kg, all_targets, t_train, cfg.neighbors,
            )
            loss, _, grad_tgt = _alignment_terms(
                align, source_traj_bank, chan_trajs, gt_pairs, ps_pairs,
                state.alignments, w_align, cfg,
                rng_for(cfg.seed, _RNG_CHANNEL, epoch), param_grads=False,
            )
            del chan_trajs
            grads = student.zero_grads()
            # rebuilds each step's encoder cache: nothing has changed the
            # student or the union graph since the forward
            encode_trajectories_bwd(grad_tgt, traj_cache, student, grads)
            # the (n, T, d) gradient would otherwise live on through the
            # pseudo round and validation
            del traj_cache, grad_tgt
            adam_step(student.trainable(), grads, state.adam_student,
                      cfg.learning_rate)
            student_losses.append(loss)

        # (d) pseudo-alignment generation under the paced budget
        fraction = pseudo_fraction_at(cfg, epoch)
        if fraction > 0.0:
            tgt_trajs = _generate_pseudo_round(
                state, source_traj_bank, active_sources, cfg, fraction, epoch
            )

        val_mrr = float("nan")
        if len(val_quads):
            report = evaluate(
                student, val_history, val_quads, cfg.neighbors,
                cfg.digest(), cfg.seed,
            )
            val_mrr = report.mrr
            state.val_trace.append((epoch, val_mrr))
        mean_align = float(np.mean(align_losses)) if align_losses else 0.0
        mean_student = float(np.mean(student_losses)) if student_losses else 0.0
        state.loss_trace.append((epoch, mean_align, mean_student))
        n_pseudo = sum(1 for p in state.alignments if p.provenance != GROUND_TRUTH)
        state.log_rows.append(
            (epoch, "align", mean_align, "", n_pseudo, len(state.transferred))
        )
        state.log_rows.append(
            (epoch, "student", mean_student, val_mrr, n_pseudo, len(state.transferred))
        )

        if len(val_quads) and val_mrr > state.best_val:
            state.best_val = val_mrr
            state.best_epoch = epoch
            best_student, best_align = student.copy(), align.copy()
        if len(val_quads) and epoch - state.best_epoch >= cfg.patience:
            break

    if state.best_epoch >= 0:
        state.student = best_student
        state.align = best_align
    else:
        state.student = student
        state.align = align
    return state


def _generate_pseudo_round(
    state: TrainState,
    source_traj_bank: np.ndarray,
    active_sources: frozenset,
    cfg: TrainConfig,
    fraction: float,
    epoch: int,
) -> np.ndarray | None:
    """One pseudo-alignment generation round; rewrites the pseudo subset.

    Returns the all-target trajectories it encoded, or None. Nothing
    changes the student or the union graph before the next epoch's
    alignment fit, so they are that fit's trajectories.
    """
    student, align = state.student, state.align
    n_targets = student.n_entities
    budget = int(np.floor(fraction * n_targets + 0.5))
    if budget < 1:
        return None
    cands = candidate_targets(state.union_kg, state.alignments, cfg.split_train_steps)
    if not cands:
        return None
    all_targets = np.arange(n_targets, dtype=np.int64)
    tgt_trajs = encode_trajectories_fwd(
        student, state.union_kg, all_targets, cfg.split_train_steps, cfg.neighbors,
    )[0]
    h_src = temporal_integrate_batch_fwd(align, source_traj_bank)[0]
    h_tgt = temporal_integrate_batch_fwd(align, tgt_trajs)[0]

    cand_ids = np.asarray(cands, dtype=np.int64)
    gt_pairs = [p for p in state.alignments if p.provenance == GROUND_TRUTH]
    # pseudo pairs expand coverage: sources that already own an alignment
    # stay out of the pool (their cone-aligned rows match spuriously), and
    # so do inactive sources, whose flat trajectories match anything
    aligned_sources = {p.source_entity for p in gt_pairs}
    src_ids = np.array(
        [
            s
            for s in range(source_traj_bank.shape[0])
            if s not in aligned_sources and s in active_sources
        ],
        dtype=np.int64,
    )
    if src_ids.size == 0:
        return tgt_trajs
    sim = _mean_sim_matrix(h_src[src_ids], h_tgt[cand_ids])
    del h_src, h_tgt
    gen_cfg = PseudoGenConfig(
        top_k_budget=budget, min_similarity=cfg.pseudo_min_similarity
    )
    added = generate_pseudo_alignments(
        CandidateTable(src_ids, cand_ids, sim), gen_cfg, AlignmentSet(gt_pairs)
    )
    state.alignments = AlignmentSet(gt_pairs + added)
    state.pseudo_audit.extend(
        (epoch, p.source_entity, p.target_entity, p.confidence) for p in added
    )
    return tgt_trajs
