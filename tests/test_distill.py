import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distill_reference import (
    brute_force_best_matching,
    matching_total,
    solve_greedy_sorted,
    transfer_events_full_scan,
)
from scalar_reference import mean_similarity
from tkgdistill.distill import (
    CandidateTable,
    PseudoGenConfig,
    _solve_greedy,
    candidate_targets,
    generate_pseudo_alignments,
    transfer_events,
)
from tkgdistill.tkg import (
    AlignmentPair,
    AlignmentSet,
    Quadruple,
    TemporalKG,
    Vocabulary,
)


def table_from(sim):
    sim = np.asarray(sim, dtype=np.float64)
    return CandidateTable(np.arange(sim.shape[0]), np.arange(sim.shape[1]), sim)


class TestMeanSimilarity:
    def test_constant(self):
        h = np.tile([1.0, 0.0], (5, 1))
        g = np.tile([0.7, np.sqrt(1 - 0.49)], (5, 1))
        assert mean_similarity(h, g) == pytest.approx(0.7)

    def test_half_positive_half_negative(self):
        h = np.tile([1.0, 0.0], (4, 1))
        g = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        assert mean_similarity(h, g) == pytest.approx(0.0)

    def test_three_step_hand_computed(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        want = (1.0 + 0.0 + 1.0 / np.sqrt(2)) / 3.0
        assert mean_similarity(h, g) == pytest.approx(want)


class TestPseudoGeneration:
    def test_single_candidate_above_threshold(self):
        res = generate_pseudo_alignments(
            table_from([[0.9]]), PseudoGenConfig(top_k_budget=5), AlignmentSet([])
        )
        assert len(res) == 1
        assert res[0].confidence == pytest.approx(0.9)
        assert res[0].provenance == "pseudo"

    def test_diagonal_matching_on_three_by_three(self):
        sim = [[0.9, 0.1, 0.2], [0.2, 0.8, 0.1], [0.3, 0.2, 0.7]]
        res = generate_pseudo_alignments(
            table_from(sim), PseudoGenConfig(top_k_budget=5), AlignmentSet([])
        )
        chosen = {(p.source_entity, p.target_entity) for p in res}
        assert chosen == {(0, 0), (1, 1), (2, 2)}
        total = sum(p.confidence for p in res)
        assert total == pytest.approx(2.4)
        assert brute_force_best_matching(np.asarray(sim)) == pytest.approx(2.4)

    def test_competing_sources_lose_to_best(self):
        sim = [[0.9], [0.8]]
        res = generate_pseudo_alignments(
            table_from(sim), PseudoGenConfig(top_k_budget=5), AlignmentSet([])
        )
        assert [(p.source_entity, p.target_entity) for p in res] == [(0, 0)]

    def test_empty_candidates_empty_delta(self):
        res = generate_pseudo_alignments(
            table_from(np.zeros((0, 0))), PseudoGenConfig(top_k_budget=3),
            AlignmentSet([]),
        )
        assert res == []

    def test_partial_matching_invariant(self):
        rng = np.random.default_rng(0)
        sim = rng.uniform(-1, 1, size=(6, 6))
        res = generate_pseudo_alignments(
            table_from(sim), PseudoGenConfig(top_k_budget=10), AlignmentSet([])
        )
        sources = [p.source_entity for p in res]
        targets = [p.target_entity for p in res]
        assert len(sources) == len(set(sources))
        assert len(targets) == len(set(targets))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_path_equals_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        sim = rng.uniform(-1, 1, size=(5, 5))
        res = generate_pseudo_alignments(
            table_from(sim),
            PseudoGenConfig(top_k_budget=25, min_similarity=-2.0, exact_solver_cap=8),
            AlignmentSet([]),
        )
        got = matching_total(
            sim, [(int(p.source_entity), int(p.target_entity)) for p in res]
        )
        assert got == brute_force_best_matching(sim)

    def test_budget_monotone(self):
        rng = np.random.default_rng(5)
        sim = rng.uniform(0, 1, size=(8, 8))
        chosen_small = generate_pseudo_alignments(
            table_from(sim), PseudoGenConfig(top_k_budget=3), AlignmentSet([])
        )
        chosen_large = generate_pseudo_alignments(
            table_from(sim), PseudoGenConfig(top_k_budget=6), AlignmentSet([])
        )
        small = {(p.source_entity, p.target_entity) for p in chosen_small}
        large = {(p.source_entity, p.target_entity) for p in chosen_large}
        assert small <= large

    def test_min_similarity_prunes(self):
        sim = [[0.9, 0.0], [0.0, 0.3]]
        res = generate_pseudo_alignments(
            table_from(sim),
            PseudoGenConfig(top_k_budget=5, min_similarity=0.5),
            AlignmentSet([]),
        )
        assert [(p.source_entity, p.target_entity) for p in res] == [(0, 0)]

    def test_match_on_aligned_target_dropped_after_budget(self):
        # target 0 already has a ground-truth partner: the best match (0, 0)
        # is dropped, yet it still takes the first of the two budget slots,
        # so only (1, 1) is added and (2, 2) falls outside the budget
        existing = AlignmentSet([AlignmentPair(9, 0, "ground-truth", 1.0)])
        sim = [[0.95, 0.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 0.8]]
        res = generate_pseudo_alignments(
            table_from(sim), PseudoGenConfig(top_k_budget=2), existing
        )
        assert [(p.source_entity, p.target_entity) for p in res] == [(1, 1)]

    def test_no_replacement_when_disabled(self):
        # replacing a ground-truth pair is off for good: even a match that
        # scores 0.95 on an aligned target adds nothing and leaves the pair
        existing = AlignmentSet([AlignmentPair(9, 0, "ground-truth", 1.0)])
        res = generate_pseudo_alignments(
            table_from([[0.95]]), PseudoGenConfig(top_k_budget=5), existing
        )
        assert res == []
        assert [(p.source_entity, p.target_entity, p.provenance)
                for p in existing] == [(9, 0, "ground-truth")]

    def test_greedy_path_above_cap_deterministic_ties(self):
        sim = np.array([[0.5, 0.5], [0.5, 0.5]])
        res = generate_pseudo_alignments(
            table_from(sim),
            PseudoGenConfig(top_k_budget=4, exact_solver_cap=1),
            AlignmentSet([]),
        )
        # ties break by (source id, target id): (0,0) first, then (1,1)
        assert [(p.source_entity, p.target_entity) for p in res] == [
            (0, 0), (1, 1),
        ]

    def test_nonfinite_sim_rejected(self):
        with pytest.raises(ValueError):
            generate_pseudo_alignments(
                table_from([[np.nan]]), PseudoGenConfig(top_k_budget=1),
                AlignmentSet([]),
            )


class TestCandidateScope:
    def test_neighbors_of_aligned_within_horizon(self):
        quads = [
            Quadruple(0, 0, 1, 2),
            Quadruple(1, 0, 2, 5),
            Quadruple(3, 0, 4, 9),  # beyond horizon
        ]
        kg = TemporalKG(Vocabulary.integers(5), Vocabulary.integers(1), quads, 10)
        aligned = AlignmentSet([AlignmentPair(7, 1, "ground-truth", 1.0)])
        got = candidate_targets(kg, aligned, horizon=8)
        assert got == [0, 2]


def _mini_transfer_setup():
    relations = Vocabulary.integers(2)
    src = TemporalKG(
        Vocabulary.integers(4), relations,
        [Quadruple(0, 0, 1, 5), Quadruple(2, 1, 0, 3), Quadruple(0, 0, 3, 9)],
        10,
    )
    tgt = TemporalKG(Vocabulary.integers(4), relations, [], 10)
    return src, tgt


class TestTransferEvents:
    def test_lookup_when_both_endpoints_aligned(self):
        src, tgt = _mini_transfer_setup()
        aligns = AlignmentSet([
            AlignmentPair(0, 0), AlignmentPair(1, 1), AlignmentPair(2, 2),
        ])
        records = transfer_events(
            src, tgt, aligns, lambda e, r, t: 3, lambda r, e, t: 3, horizon=8
        )
        got = {(r.quadruple, r.mechanism) for r in records}
        assert (Quadruple(0, 0, 1, 5), "alignment-lookup") in got
        assert (Quadruple(2, 1, 0, 3), "alignment-lookup") in got
        # the t=9 event is beyond the horizon
        assert all(r.quadruple.time < 8 for r in records)

    def test_top1_completion_for_open_slot(self):
        src, tgt = _mini_transfer_setup()
        aligns = AlignmentSet([AlignmentPair(0, 0)])
        records = transfer_events(
            src, tgt, aligns, lambda e, r, t: 2, lambda r, e, t: 1, horizon=8
        )
        by_mech = {r.quadruple: r.mechanism for r in records}
        assert by_mech[Quadruple(0, 0, 2, 5)] == "student-top1"  # object open
        assert by_mech[Quadruple(1, 1, 0, 3)] == "student-top1"  # subject open

    def test_existing_quadruple_not_duplicated(self):
        src, tgt = _mini_transfer_setup()
        tgt = tgt.with_quadruples([Quadruple(0, 0, 1, 5)])
        aligns = AlignmentSet([AlignmentPair(0, 0), AlignmentPair(1, 1)])
        records = transfer_events(
            src, tgt, aligns, lambda e, r, t: 9, lambda r, e, t: 9, horizon=8
        )
        assert Quadruple(0, 0, 1, 5) not in {r.quadruple for r in records}

    def test_gated_completion_skipped(self):
        src, tgt = _mini_transfer_setup()
        aligns = AlignmentSet([AlignmentPair(0, 0)])
        records = transfer_events(
            src, tgt, aligns, lambda e, r, t: None, lambda r, e, t: None, horizon=8
        )
        assert all(r.mechanism == "alignment-lookup" for r in records)

    def test_empty_alignments_raise(self):
        src, tgt = _mini_transfer_setup()
        with pytest.raises(ValueError):
            transfer_events(src, tgt, AlignmentSet([]), None, None, 8)


# a coarse grid of values so that blocks carry ties, zeros of both signs
# and negatives
_CELL_VALUES = [-1.0, -0.5, -0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0]


class TestGreedyMatchesReference:
    @given(
        st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**31 - 1),
        st.booleans(),
    )
    @example(1, 6, 3, True)
    @example(6, 1, 3, True)
    @settings(max_examples=300, deadline=None)
    def test_identical_match_lists(self, ns, nt, seed, coarse):
        rng = np.random.default_rng(seed)
        if coarse:
            sim = rng.choice(_CELL_VALUES, size=(ns, nt))
        else:
            sim = rng.uniform(-1, 1, size=(ns, nt))
        assert _solve_greedy(sim) == solve_greedy_sorted(sim)

    def test_no_positive_cell_matches_nothing(self):
        sim = np.array([[0.0, -0.0], [-0.5, 0.0]])
        assert _solve_greedy(sim) == solve_greedy_sorted(sim) == []


def _random_transfer_case(seed):
    """Small source/target graphs that hit every branch of the transfer:
    self-loops, relations outside the shared vocabulary, events at the
    horizon, a source aligned twice, target events standing for earlier
    transfers and gated completions."""
    rng = np.random.default_rng(seed)
    n_ent, kg_horizon, horizon = 6, 10, 7
    src_quads = [
        Quadruple(int(rng.integers(n_ent)), int(rng.integers(3)),
                  int(rng.integers(n_ent)), int(rng.integers(horizon + 2)))
        for _ in range(int(rng.integers(1, 30)))
    ]
    src_quads.append(Quadruple(1, 0, 1, 2))  # a self-loop on an aligned source
    src_quads.append(Quadruple(1, 0, 2, horizon))  # at the horizon
    src_quads.append(Quadruple(1, 2, 3, 1))  # outside the shared relations
    tgt_quads = [
        Quadruple(int(rng.integers(n_ent)), int(rng.integers(2)),
                  int(rng.integers(n_ent)), int(rng.integers(horizon)))
        for _ in range(int(rng.integers(0, 15)))
    ]
    src = TemporalKG(Vocabulary.integers(n_ent), Vocabulary.integers(3),
                     src_quads, kg_horizon)
    pairs = [AlignmentPair(1, int(rng.integers(n_ent)))]
    for e in rng.choice(n_ent, size=int(rng.integers(0, n_ent)), replace=False):
        pairs.append(AlignmentPair(int(e), int(rng.integers(n_ent))))
    pairs.append(AlignmentPair(int(pairs[-1].source_entity), int(rng.integers(n_ent))))
    order = rng.permutation(len(pairs))
    aligns = AlignmentSet([pairs[i] for i in order])
    # earlier transfers are part of the target graph they were added to
    earlier = {
        Quadruple(int(rng.integers(n_ent)), int(rng.integers(2)),
                  int(rng.integers(n_ent)), int(rng.integers(horizon)))
        for _ in range(int(rng.integers(1, 6)))
    }
    tgt = TemporalKG(Vocabulary.integers(n_ent), Vocabulary.integers(2),
                     tgt_quads + sorted(earlier), kg_horizon)
    return src, tgt, aligns, horizon


def _logged_rank_fns(log, seed):
    """Deterministic completions, about a third of them gated (None); every
    call is appended to ``log``."""

    def rank_object(e, r, t):
        log.append(("object", e, r, t))
        v = (7 * e + 3 * r + t + seed) % 9
        return None if v < 3 else v % 6

    def rank_subject(r, e, t):
        log.append(("subject", r, e, t))
        v = (5 * e + r + 2 * t + seed) % 9
        return None if v < 3 else v % 6

    return rank_object, rank_subject


class TestTransferMatchesReference:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_identical_records_in_order(self, seed):
        src, tgt, aligns, horizon = _random_transfer_case(seed)
        got_log, want_log = [], []
        got = transfer_events(
            src, tgt, aligns, *_logged_rank_fns(got_log, seed), horizon, 3
        )
        want = transfer_events_full_scan(
            src, tgt, aligns, *_logged_rank_fns(want_log, seed), horizon, 3
        )
        assert got == want
        assert got_log == want_log
