"""Reference implementations for the distill tests: the exhaustive matching
oracle, and the plain-Python forms of the greedy matcher and of event
transfer that the package's vectorised and indexed versions must reproduce.
"""

from __future__ import annotations

import numpy as np

from tkgdistill.distill import TransferRecord
from tkgdistill.tkg import AlignmentSet, Quadruple, TemporalKG


def matching_total(sim: np.ndarray, matches: list[tuple[int, int]]) -> float:
    """Total similarity of a matching, summed in row order (canonical)."""
    return float(sum(sim[r, c] for r, c in sorted(matches)))


def brute_force_best_matching(sim: np.ndarray) -> float:
    """Enumerate every partial one-to-one assignment; exact oracle for tests."""
    ns, nt = sim.shape
    best = 0.0

    def recurse(row: int, used_cols: int, chosen: list[tuple[int, int]]):
        nonlocal best
        if row == ns:
            total = matching_total(sim, chosen)
            if total > best:
                best = total
            return
        recurse(row + 1, used_cols, chosen)  # leave this source unmatched
        for c in range(nt):
            if not used_cols & (1 << c):
                chosen.append((row, c))
                recurse(row + 1, used_cols | (1 << c), chosen)
                chosen.pop()

    recurse(0, 0, [])
    return best


def solve_greedy_sorted(sim: np.ndarray) -> list[tuple[int, int]]:
    """Greedy matching over every positive cell, sorted in Python by
    (-sim, row, col)."""
    order = sorted(
        ((r, c) for r in range(sim.shape[0]) for c in range(sim.shape[1])
         if sim[r, c] > 0.0),
        key=lambda rc: (-sim[rc[0], rc[1]], rc[0], rc[1]),
    )
    used_r: set[int] = set()
    used_c: set[int] = set()
    out = []
    for r, c in order:
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        out.append((r, c))
    return out


def transfer_events_full_scan(
    source_kg: TemporalKG,
    target_kg: TemporalKG,
    alignments: AlignmentSet,
    rank_object_fn,
    rank_subject_fn,
    horizon: int,
    round_index: int = 0,
) -> list[TransferRecord]:
    """Event transfer that scans every source quadruple once per aligned
    source entity."""
    if len(alignments) == 0:
        raise ValueError("transfer requires at least one alignment pair")
    src_to_tgt: dict[int, int] = {}
    for p in sorted(alignments, key=lambda p: (p.source_entity, p.target_entity)):
        src_to_tgt.setdefault(p.source_entity, p.target_entity)
    present: set[Quadruple] = set(target_kg.quadruples)
    shared_relations = len(target_kg.relations)

    records: list[TransferRecord] = []
    for e_s in sorted(src_to_tgt):
        e_t = src_to_tgt[e_s]
        for q in source_kg.quadruples:
            if q.time >= horizon or q.relation >= shared_relations:
                continue
            if q.subject == e_s:
                other = q.object
                if other in src_to_tgt:
                    mapped = Quadruple(e_t, q.relation, src_to_tgt[other], q.time)
                    mech = "alignment-lookup"
                else:
                    top = rank_object_fn(e_t, q.relation, q.time)
                    if top is None:
                        continue
                    mapped = Quadruple(e_t, q.relation, int(top), q.time)
                    mech = "student-top1"
            elif q.object == e_s:
                other = q.subject
                if other in src_to_tgt:
                    continue
                top = rank_subject_fn(q.relation, e_t, q.time)
                if top is None:
                    continue
                mapped = Quadruple(int(top), q.relation, e_t, q.time)
                mech = "student-top1"
            else:
                continue
            if mapped in present:
                continue
            present.add(mapped)
            records.append(TransferRecord(mapped, q, mech, round_index))
    return records
