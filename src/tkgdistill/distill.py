"""Knowledge-transfer machinery: pseudo-alignment generation by one-to-one
assignment over candidate similarities, and explicit temporal event transfer
from the source graph through the alignment map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .tkg import (
    PSEUDO,
    AlignmentPair,
    AlignmentSet,
    Quadruple,
    TemporalKG,
)


@dataclass(frozen=True)
class PseudoGenConfig:
    top_k_budget: int  # most pairs one round may select
    min_similarity: float = 0.0
    exact_solver_cap: int = 64  # larger side of the largest exactly-solved block

    def __post_init__(self):
        if self.top_k_budget <= 0:
            raise ValueError("budget must be positive")
        if self.exact_solver_cap < 1:
            raise ValueError("exact_solver_cap must be >= 1")


@dataclass
class CandidateTable:
    """Similarity block over candidate source rows and target columns."""

    source_ids: np.ndarray
    target_ids: np.ndarray
    sim: np.ndarray  # (len(source_ids), len(target_ids))


@dataclass
class TransferRecord:
    quadruple: Quadruple
    origin: Quadruple
    mechanism: str  # "alignment-lookup" | "student-top1"
    round_index: int


def _solve_exact(sim: np.ndarray) -> list[tuple[int, int]]:
    # Maximum-weight partial matching: clamping negatives at zero makes the
    # complete rectangular assignment equivalent to the best partial one;
    # matched pairs with non-positive similarity are then discarded.
    rows, cols = linear_sum_assignment(-np.maximum(sim, 0.0))
    return [(int(r), int(c)) for r, c in zip(rows, cols) if sim[r, c] > 0.0]


def _solve_greedy(sim: np.ndarray) -> list[tuple[int, int]]:
    # positive cells by descending similarity, ties by (row, col)
    rows, cols = np.nonzero(sim > 0.0)
    order = np.lexsort((cols, rows, -sim[rows, cols]))
    used_r = np.zeros(sim.shape[0], dtype=bool)
    used_c = np.zeros(sim.shape[1], dtype=bool)
    limit = min(sim.shape)
    out = []
    for r, c in zip(rows[order].tolist(), cols[order].tolist()):
        if used_r[r] or used_c[c]:
            continue
        used_r[r] = used_c[c] = True
        out.append((r, c))
        if len(out) == limit:
            break
    return out


def generate_pseudo_alignments(
    table: CandidateTable,
    cfg: PseudoGenConfig,
    existing: AlignmentSet,
) -> list[AlignmentPair]:
    """Select pseudo pairs by one-to-one matching, throttled to the budget.

    Small candidate blocks are matched optimally with an exact assignment
    solver; blocks above ``exact_solver_cap`` fall back to greedy selection
    in descending similarity with (source id, target id) tie-breaking. The
    chosen pairs are pruned to the budget and the similarity floor. Pseudo
    pairs only add: a match whose target already carries a ground-truth
    alignment is dropped, and it still uses up its budget slot.
    """
    ns, nt = table.sim.shape
    if ns == 0 or nt == 0:
        return []
    if not np.all(np.isfinite(table.sim)):
        raise ValueError("similarity table contains non-finite values")

    if max(ns, nt) <= cfg.exact_solver_cap:
        matches = _solve_exact(table.sim)
    else:
        matches = _solve_greedy(table.sim)

    # Throttle: order by descending similarity (deterministic ties), then
    # apply the budget and the similarity floor.
    matches.sort(
        key=lambda rc: (
            -table.sim[rc[0], rc[1]],
            int(table.source_ids[rc[0]]),
            int(table.target_ids[rc[1]]),
        )
    )
    matches = matches[: cfg.top_k_budget]
    matches = [rc for rc in matches if table.sim[rc] >= cfg.min_similarity]

    gt_targets = {p.target_entity for p in existing if p.provenance != PSEUDO}
    return [
        AlignmentPair(
            int(table.source_ids[r]), int(table.target_ids[c]), PSEUDO,
            float(table.sim[r, c]),
        )
        for r, c in matches
        if int(table.target_ids[c]) not in gt_targets
    ]


def candidate_targets(
    target_kg: TemporalKG, alignments: AlignmentSet, horizon: int
) -> list[int]:
    """Graph neighbors (either direction, t < horizon) of aligned targets.

    Already-aligned entities stay in the pool as columns of the matching: a
    source the matching pairs with an aligned target is dropped with that
    match by ``generate_pseudo_alignments``, rather than being pushed onto
    a weaker unaligned target.
    """
    aligned = alignments.target_entities()
    out: set[int] = set()
    for e in aligned:
        for nbr, _, t in target_kg.adjacency(e):
            if t < horizon:
                out.add(nbr)
    return sorted(out)


def transfer_events(
    source_kg: TemporalKG,
    target_kg: TemporalKG,
    alignments: AlignmentSet,
    rank_object_fn,
    rank_subject_fn,
    horizon: int,
    round_index: int = 0,
) -> list[TransferRecord]:
    """Map source events of aligned entities into the target graph.

    When both endpoints are aligned the event maps directly; otherwise the
    student ranks the open slot and the top candidate completes the event
    (``rank_object_fn(e, r, t)`` / ``rank_subject_fn(r, e, t)`` both return
    the argmax target entity). Duplicates of the target graph's events, or
    of events this call has already transferred, are skipped.
    """
    if len(alignments) == 0:
        raise ValueError("transfer requires at least one alignment pair")
    src_to_tgt: dict[int, int] = {}
    for p in sorted(alignments, key=lambda p: (p.source_entity, p.target_entity)):
        src_to_tgt.setdefault(p.source_entity, p.target_entity)
    present = set(map(tuple, target_kg.events.tolist()))

    # An event belongs to its subject when that is aligned (self-loops
    # included) and otherwise to its object, so it is emitted at most once.
    # Eligible events go by aligned source, then in quadruple order.
    s, r, o, t = source_kg.events.T
    aligned = np.fromiter(src_to_tgt, np.int64, len(src_to_tgt))
    by_subject = np.isin(s, aligned)
    eligible = (
        (t < horizon) & (r < len(target_kg.relations))
        & (by_subject | np.isin(o, aligned))
    )
    owner = np.where(by_subject, s, o)[eligible]
    rows = source_kg.events[eligible][np.argsort(owner, kind="stable")]

    records: list[TransferRecord] = []
    for q in map(Quadruple._make, rows.tolist()):
        if q.subject in src_to_tgt:
            e_t = src_to_tgt[q.subject]
            if q.object in src_to_tgt:
                mapped = Quadruple(e_t, q.relation, src_to_tgt[q.object], q.time)
                mech = "alignment-lookup"
            else:
                top = rank_object_fn(e_t, q.relation, q.time)
                if top is None:  # completion below the confidence gate
                    continue
                mapped = Quadruple(e_t, q.relation, int(top), q.time)
                mech = "student-top1"
        else:
            e_t = src_to_tgt[q.object]
            top = rank_subject_fn(q.relation, e_t, q.time)
            if top is None:
                continue
            mapped = Quadruple(int(top), q.relation, e_t, q.time)
            mech = "student-top1"
        if mapped in present:
            continue
        present.add(mapped)
        records.append(TransferRecord(mapped, q, mech, round_index))
    return records
