import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kg
from scalar_reference import rank_of, rank_query
from tkgdistill import evaluation
from tkgdistill.encoder import init_network_params
from tkgdistill.evaluation import (
    DiagnosticConfig,
    EncodingCache,
    MetricsReport,
    evaluate,
    metrics_from_ranks,
    nce_deviation_sweep,
    ranks_of,
    score_object_queries,
    transfer_ratio,
    usable_cores,
)
from tkgdistill.tkg import Quadruple


class TestRankOf:
    def test_unique_max_is_rank_one(self):
        assert rank_of(np.array([0.1, 0.9, 0.3]), 1) == 1

    def test_strict_minimum_is_last(self):
        assert rank_of(np.array([0.4, 0.3, 0.2, 0.1]), 3) == 4

    def test_tie_break_by_lower_id(self):
        scores = np.array([0.5, 0.5, 0.5])
        assert rank_of(scores, 0) == 1
        assert rank_of(scores, 1) == 2
        assert rank_of(scores, 2) == 3

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_matches_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.normal(size=10), 1)  # coarse grid forces ties
        true_id = int(rng.integers(10))
        got = rank_of(scores, true_id)
        order = sorted(range(10), key=lambda i: (-scores[i], i))
        assert got == order.index(true_id) + 1

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_permutation_of_other_candidates_is_irrelevant(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=8)
        true_id = 3
        base = rank_of(scores, true_id)
        perm = np.arange(8)
        swap = [i for i in range(8) if i != true_id]
        rng.shuffle(swap)
        # ranks depend on score multiset and id-ties only; shuffling scores
        # among non-tied candidates keeps the rank
        if len(set(np.round(scores, 12))) == 8:
            shuffled = scores.copy()
            shuffled[[i for i in range(8) if i != true_id]] = scores[swap]
            assert rank_of(shuffled, true_id) == base


class TestRanksOf:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_equals_rank_of_row_by_row(self, seed):
        rng = np.random.default_rng(seed)
        q, e = int(rng.integers(1, 12)), int(rng.integers(1, 15))
        scores = rng.integers(-2, 3, size=(q, e)).astype(np.float64)  # many ties
        true_ids = rng.integers(0, e, size=q)
        want = [rank_of(scores[i], int(true_ids[i])) for i in range(q)]
        assert ranks_of(scores, true_ids).tolist() == want

    @staticmethod
    def _check(scores, true_ids):
        want = [rank_of(row, int(t)) for row, t in zip(scores, true_ids)]
        got = ranks_of(scores, np.asarray(true_ids))
        assert got.tolist() == want
        return want

    def test_rows_where_every_candidate_ties(self):
        scores = np.full((4, 9), -3.5)
        assert self._check(scores, [0, 3, 8, 5]) == [1, 4, 9, 6]

    def test_signed_zeros_tie(self):
        # -0.0 == +0.0, so an earlier id holding the other zero ranks first
        scores = np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [-1.0, 0.0, -0.0]])
        assert self._check(scores, [1, 1, 2]) == [2, 2, 2]

    def test_true_id_at_both_ends(self):
        rng = np.random.default_rng(0)
        e = 13
        scores = rng.integers(-1, 2, size=(6, e)).astype(np.float64)
        self._check(scores, [0, e - 1, 0, e - 1, 0, e - 1])

    @pytest.mark.parametrize("e", [1, 7, 9, 15, 2001])
    def test_width_not_a_multiple_of_eight(self, e):
        rng = np.random.default_rng(e)
        scores = rng.integers(-2, 3, size=(5, e)).astype(np.float64)
        scores[1] = 0.0
        self._check(scores, rng.integers(0, e, size=5))


class TestScoreObjectQueries:
    def test_in_place_form_equals_the_expression_bitwise(self):
        params = init_network_params(2000, 7, 16, seed=0)
        rng = np.random.default_rng(1)
        h_all = rng.normal(size=(2000, 16))
        subj, rel = rng.integers(0, 2000, 400), rng.integers(0, 14, 400)
        u = h_all[subj] + params.relation_emb[rel]
        u_sq = (u * u).sum(axis=1)[:, None]
        h_sq = (h_all * h_all).sum(axis=1)[None, :]
        want = -(u_sq - 2.0 * (u @ h_all.T) + h_sq)
        got = score_object_queries(params, h_all, subj, rel, h_sq[0])
        assert got.shape == (400, 2000)
        assert np.array_equal(got, want)

    def test_blocks_score_as_if_alone(self):
        """(k, Q) query blocks give each block the bits of scoring it alone,
        whether the caller or a worker scores it."""
        rng = np.random.default_rng(2)
        params = init_network_params(300, 4, 16, seed=0)
        h_all = rng.standard_normal((300, 16))
        h_sq = (h_all * h_all).sum(axis=1)
        subj, rel = rng.integers(0, 300, (3, 50)), rng.integers(0, 8, (3, 50))
        alone = [score_object_queries(params, h_all, s, r, h_sq)
                 for s, r in zip(subj, rel)]
        with ThreadPoolExecutor(max_workers=1) as worker:
            for pool in (None, worker):
                got = score_object_queries(params, h_all, subj, rel, h_sq, pool)
                assert got.shape == (3, 50, 300)
                assert all(np.array_equal(g, a) for g, a in zip(got, alone))


class TestMetricsArithmetic:
    def test_mrr_closed_form(self):
        mrr, hits = metrics_from_ranks([1, 2, 4])
        assert mrr == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-9)

    def test_hits_at_ten(self):
        _, hits = metrics_from_ranks([3, 15])
        assert hits == 0.5

    def test_perfect_ranks(self):
        mrr, hits = metrics_from_ranks([1, 1, 1])
        assert mrr == 1.0 and hits == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            metrics_from_ranks([])


class TestRankQuery:
    def test_object_query_and_subject_query(self, toy_params, toy_kg):
        q = toy_kg.quadruples[0]
        r1 = rank_query(
            toy_params, toy_kg, (q.subject, q.relation, None, q.time), q.object
        )
        r2 = rank_query(
            toy_params, toy_kg, (None, q.relation, q.object, q.time), q.subject
        )
        n = len(toy_kg.entities)
        assert 1 <= r1 <= n and 1 <= r2 <= n

    def test_rejects_malformed_query(self, toy_params, toy_kg):
        with pytest.raises(ValueError):
            rank_query(toy_params, toy_kg, (0, 0, 1, 2), 1)

    def test_unknown_ids_raise(self, toy_params, toy_kg):
        with pytest.raises(KeyError):
            rank_query(toy_params, toy_kg, (0, 99, None, 2), 1)


def _rank_on_a_worker_at_any_size(monkeypatch):
    monkeypatch.setattr(evaluation, "usable_cores", lambda: 2)
    monkeypatch.setattr(evaluation, "WORKER_MIN_CELLS", 0)


def _tied_steps():
    """A d = 2 model, whose many rows rectify to zero so that candidates tie,
    with the last three of six steps as test quadruples."""
    kg = random_kg(np.random.default_rng(3), n_entities=30, horizon=6, n_events=150)
    params = init_network_params(30, 3, 2, seed=1, dropout_rate=0.0)
    return params, kg, kg.events[kg.events[:, 3] >= 3]


class TestEvaluate:
    def test_query_count_and_bounds(self, toy_params, toy_kg):
        test_quads = list(toy_kg.quadruples[:5])
        report = evaluate(toy_params, toy_kg, test_quads, b=4)
        assert report.query_count == 10
        assert 0 < report.mrr <= 1.0
        assert 0 <= report.hits10 <= 1.0

    def test_per_step_rows(self, toy_params, toy_kg):
        test_quads = list(toy_kg.quadruples[:6])
        report = evaluate(toy_params, toy_kg, test_quads, b=4)
        times = sorted({q.time for q in test_quads})
        assert [t for t, _, _ in report.per_step] == times

    def test_empty_test_set_raises(self, toy_params, toy_kg):
        with pytest.raises(ValueError):
            evaluate(toy_params, toy_kg, [], b=4)

    @pytest.mark.parametrize("b", [0, -1])
    def test_neighbour_count_below_one_raises(self, toy_params, toy_kg, b):
        with pytest.raises(ValueError, match=f"b must be at least 1, got {b}"):
            evaluate(toy_params, toy_kg, list(toy_kg.quadruples[:4]), b=b)

    def test_threads_do_not_change_results(self, monkeypatch):
        _rank_on_a_worker_at_any_size(monkeypatch)
        params, kg, test = _tied_steps()
        cache = EncodingCache(params, kg, 4)
        tied_rows = 0
        for t in np.unique(test[:, 3]).tolist():
            subj, rel, obj = test[test[:, 3] == t, :3].T
            h_all, h_sq = cache.at(t)
            scores = score_object_queries(params, h_all, subj, rel, h_sq)
            s_true = scores[np.arange(len(obj)), obj][:, None]
            tied_rows += int(np.count_nonzero((scores == s_true).sum(axis=1) > 1))
        assert tied_rows > 0  # so ranks_of's tie loop runs
        serial = evaluate(params, kg, test, b=4, threads=1).to_json()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the two threads trade the lock often
        try:
            reports = [evaluate(params, kg, test, b=4, threads=n).to_json()
                       for n in (2, 8, 2, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == serial for r in reports)

    def test_layer_entries_run_on_the_calling_thread(self, monkeypatch):
        """Every encoding and every scoring call runs on the caller's thread,
        so a tracer that wraps them sees one thread; the worker scores and
        ranks inside those calls, and threads=8 starts no second worker."""
        _rank_on_a_worker_at_any_size(monkeypatch)
        params, kg, test = _tied_steps()
        idents = {name: set() for name in ("at", "encode", "score", "block", "rank")}
        alive = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                idents[name].add(threading.get_ident())
                alive.append(threading.active_count())
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(EncodingCache, "at", spy("at", EncodingCache.at))
        for name, attr in (("encode", "encode_batch_fwd"),
                           ("score", "score_object_queries"),
                           ("block", "_score_block"), ("rank", "ranks_of")):
            monkeypatch.setattr(evaluation, attr, spy(name, getattr(evaluation, attr)))
        before = threading.active_count()
        evaluate(params, kg, test, b=4, threads=8)
        main = {threading.get_ident()}
        assert idents["at"] == idents["encode"] == idents["score"] == main
        assert len(idents["block"]) == 2 and idents["rank"] == idents["block"]
        assert max(alive) <= before + 1

    @pytest.mark.parametrize("threads, cores, min_cells, on_worker", [
        (2, 2, 0, True),
        (1, 2, 0, False),
        (2, 1, 0, False),
        (2, 2, None, False),  # the toy steps' blocks are below the default
    ])
    def test_worker_only_where_it_pays(
        self, monkeypatch, threads, cores, min_cells, on_worker
    ):
        params, kg, test = _tied_steps()
        monkeypatch.setattr(evaluation, "usable_cores", lambda: cores)
        if min_cells is not None:
            monkeypatch.setattr(evaluation, "WORKER_MIN_CELLS", min_cells)
        idents = set()
        rank = evaluation.ranks_of

        def spy(*args):
            idents.add(threading.get_ident())
            return rank(*args)

        monkeypatch.setattr(evaluation, "ranks_of", spy)
        evaluate(params, kg, test, b=4, threads=threads)
        assert (idents != {threading.get_ident()}) == on_worker

    def test_usable_cores_without_an_affinity_call(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1

    def test_ranks_match_scalar_queries(self, toy_params, toy_kg):
        test_quads = list(toy_kg.quadruples[:10])
        cache = EncodingCache(toy_params, toy_kg, 4)
        ranks = []
        for t in sorted({q.time for q in test_quads}):
            for q in (q for q in test_quads if q.time == t):
                ranks.append(rank_query(toy_params, toy_kg,
                                        (q.subject, q.relation, None, t),
                                        q.object, cache=cache))
                ranks.append(rank_query(toy_params, toy_kg,
                                        (None, q.relation, q.object, t),
                                        q.subject, cache=cache))
        mrr, hits10 = metrics_from_ranks(ranks)
        for threads in (1, 2):
            report = evaluate(toy_params, toy_kg, test_quads, b=4, threads=threads)
            assert (report.mrr, report.hits10) == (mrr, hits10)

    def test_causality_audit_counts_zero(self, toy_params, toy_kg):
        cache = EncodingCache(toy_params, toy_kg, 4)
        for t in range(toy_kg.horizon):
            cache.at(t)
        assert cache.causality_violations == 0

    def test_json_round_trip(self, toy_params, toy_kg):
        report = evaluate(toy_params, toy_kg, list(toy_kg.quadruples[:4]), b=4)
        clone = MetricsReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()


    def test_block_and_shuffled_quadruples_give_the_same_report(
        self, toy_params, toy_kg
    ):
        block = toy_kg.events
        # interleave the time steps at random; each step's rows keep their order
        slot_times = block[np.random.default_rng(4).permutation(len(block)), 3]
        shuffled = np.empty_like(block)
        for t in np.unique(slot_times):
            shuffled[slot_times == t] = block[block[:, 3] == t]
        quads = [Quadruple(*row) for row in shuffled.tolist()]
        assert [q.time for q in quads] != block[:, 3].tolist()
        a = evaluate(toy_params, toy_kg, block, b=4)
        b = evaluate(toy_params, toy_kg, quads, b=4)
        assert a.to_json() == b.to_json()


class TestTransferRatio:
    def test_reported_headline_values(self):
        # published operating points reproduce to the stated precision
        assert transfer_ratio([19.51, 19.05], 14.31) == pytest.approx(1.35, abs=5e-3)
        assert transfer_ratio([17.58, 17.01], 14.31) == pytest.approx(1.21, abs=5e-3)

    def test_equal_model_and_baseline(self):
        assert transfer_ratio([7.0, 7.0, 7.0], 7.0) == pytest.approx(1.0)

    def test_nonpositive_baseline_raises(self):
        with pytest.raises(ValueError):
            transfer_ratio([1.0], 0.0)

    def test_dict_input_sorted(self):
        assert transfer_ratio({"en": 2.0, "fr": 4.0}, 2.0) == pytest.approx(1.5)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=50), min_size=1, max_size=5),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=100)
    def test_linearity_identities(self, scores, baseline, c):
        base = transfer_ratio(scores, baseline)
        assert transfer_ratio([c * s for s in scores], baseline) == pytest.approx(
            c * base, rel=1e-9
        )
        assert transfer_ratio(scores, baseline * c) == pytest.approx(
            base / c, rel=1e-9
        )


class TestNCEDiagnostic:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiagnosticConfig(negative_counts=(8, 8, 32))
        with pytest.raises(ValueError):
            DiagnosticConfig(negative_counts=(8, 32), limit_estimate_n=32)

    def test_medians_decay_on_synthetic_tables(self):
        from tkgdistill.evaluation import NCEToy

        rng = np.random.default_rng(0)
        toy = NCEToy(
            rng.normal(size=40), rng.normal(size=(40, 30)),
            rng.normal(size=40), rng.normal(size=(40, 30)), 1.0,
        )
        cfg = DiagnosticConfig(negative_counts=(8, 32, 128), seeds=tuple(range(21)),
                               limit_estimate_n=4096)
        rows, slope = nce_deviation_sweep(cfg, toy)
        devs = [d for _, d in rows]
        assert devs == sorted(devs, reverse=True)
        assert slope <= -0.3
