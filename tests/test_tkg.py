import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgdistill.experiments import DESK_GENERATOR
from tkgdistill.tkg import (
    AlignmentPair,
    AlignmentSet,
    GeneratorConfig,
    Quadruple,
    SplitSpec,
    TemporalKG,
    Vocabulary,
    dump_quadruples,
    generate_synthetic_pair,
    inject_alignment_noise,
    load_alignments,
    load_quadruples,
    split_by_time,
    subsample_events,
)

from conftest import random_kg


class TestLoading:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        kg = load_quadruples(path)
        assert len(kg.quadruples) == 0

    def test_one_line(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text("e1\tr1\te2\t5\n")
        kg = load_quadruples(path)
        assert len(kg.quadruples) == 1
        assert kg.entities.symbols() == ["e1", "e2"]
        assert len(kg.adjacency(0)) == len(kg.adjacency(1)) == 1

    def test_duplicates_retained(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a\tr\tb\t1\na\tr\tb\t1\n")
        kg = load_quadruples(path)
        assert len(kg.quadruples) == 2

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tr\tb\t1\na\tr\tb\n")
        with pytest.raises(ValueError, match=":2"):
            load_quadruples(path)

    def test_strict_mode_rejects_unknown(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("zz\tr\tb\t0\n")
        with pytest.raises(ValueError, match="zz"):
            load_quadruples(
                path,
                Vocabulary(["a", "b"], frozen=True),
                Vocabulary(["r"], frozen=True),
            )

    def test_time_outside_given_horizon_reports_lineno(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("a\tr\tb\t2\na\tr\tb\t3\n")
        assert load_quadruples(path, horizon=4).horizon == 4
        with pytest.raises(ValueError, match=r"h\.tsv:2: time 3 outside horizon 3"):
            load_quadruples(path, horizon=3)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("# header\na\tr\tb\t0\n")
        assert len(load_quadruples(path).quadruples) == 1

    def test_round_trip_bytes(self, tmp_path):
        src = tmp_path / "canon.tsv"
        src.write_text("a\tr\tb\t0\nb\ts\tc\t3\na\tr\tc\t1\n")
        kg = load_quadruples(src)
        out = tmp_path / "out.tsv"
        dump_quadruples(kg, out)
        assert out.read_bytes() == src.read_bytes()

    def test_alignment_file(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("s0\tt0\ns1\tt1\t0.25\n")
        src = Vocabulary(["s0", "s1"], frozen=True)
        tgt = Vocabulary(["t0", "t1"], frozen=True)
        pairs = load_alignments(path, src, tgt)
        assert len(pairs) == 2
        assert pairs.pairs[0].confidence == 1.0
        assert pairs.pairs[1].confidence == 0.25

    def test_alignment_unknown_symbol_errors_without_extend(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("s0\tt9\n")
        src = Vocabulary(["s0"], frozen=True)
        tgt = Vocabulary(["t0"], frozen=True)
        with pytest.raises(ValueError, match="t9"):
            load_alignments(path, src, tgt)

    def test_alignment_extend_adds_eventless_entities(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("s0\tt9\n")
        src = Vocabulary(["s0"])
        tgt = Vocabulary(["t0"])
        pairs = load_alignments(path, src, tgt)
        assert pairs.pairs[0].target_entity == 1
        assert tgt.symbols() == ["t0", "t9"]

    def test_frozen_alignment_vocabulary_rejects_unseen_symbol(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("s0\tt0\n# note\ns0\tzz\n")
        src = Vocabulary(["s0"], frozen=True)
        tgt = Vocabulary(["t0"], frozen=True)
        with pytest.raises(
            ValueError, match=r"a\.tsv:3: unknown symbol 'zz' \(vocabulary is frozen\)"
        ):
            load_alignments(path, src, tgt)
        assert tgt.symbols() == ["t0"]

    def test_alignment_non_numeric_confidence_reports_lineno(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("s0\tt0\t0.5\ns0\tt0\tabc\n")
        src = Vocabulary(["s0"], frozen=True)
        tgt = Vocabulary(["t0"], frozen=True)
        with pytest.raises(ValueError, match=r"a\.tsv:2: bad confidence value 'abc'"):
            load_alignments(path, src, tgt)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_alignment_non_finite_confidence_reports_lineno(self, tmp_path, text):
        path = tmp_path / "a.tsv"
        path.write_text(f"# header\ns0\tt0\t{text}\n")
        src = Vocabulary(["s0"], frozen=True)
        tgt = Vocabulary(["t0"], frozen=True)
        with pytest.raises(ValueError, match=rf"a\.tsv:2: non-finite confidence '{text}'"):
            load_alignments(path, src, tgt)


def adjacency_entry_count(kg):
    return sum(len(kg.adjacency(e)) for e in range(len(kg.entities)))


def temporal_neighbors(kg, e, t, b):
    """Up to ``b`` latest (neighbor, relation, time) entries of ``e``
    strictly before ``t``, oldest first, by a scan of ``kg.adjacency``."""
    earlier = [entry for entry in kg.adjacency(e) if entry[2] < t]
    return earlier[max(0, len(earlier) - b):]


def reference_arrays(kg, ids, ts, b):
    """``neighbor_arrays`` built row by row from ``temporal_neighbors``."""
    nbr, rel, tim = (np.zeros((len(ids), b), dtype=np.int64) for _ in range(3))
    mask = np.zeros((len(ids), b), dtype=bool)
    for i, (e, t) in enumerate(zip(ids, ts)):
        for j, (n, r, tt) in enumerate(temporal_neighbors(kg, int(e), int(t), b)):
            nbr[i, j], rel[i, j], tim[i, j], mask[i, j] = n, r, tt, True
    return nbr, rel, tim, mask


def live_slots(arrays, i):
    nbr, rel, tim, mask = arrays
    return list(zip(nbr[i][mask[i]].tolist(), rel[i][mask[i]].tolist(),
                    tim[i][mask[i]].tolist()))


class TestAdjacency:
    def test_entry_count_is_twice_quads(self):
        kg = random_kg(np.random.default_rng(3), n_events=40)
        assert adjacency_entry_count(kg) == 2 * len(kg.quadruples)

    def test_sorted_total_order(self):
        kg = random_kg(np.random.default_rng(4), n_events=60)
        for e in range(len(kg.entities)):
            entries = [(t, n, r) for n, r, t in kg.adjacency(e)]
            assert entries == sorted(entries)

    def test_entries_are_the_quadruples_of_each_endpoint(self):
        kg = random_kg(np.random.default_rng(5), n_events=60)
        for e in range(len(kg.entities)):
            want = sorted(
                [(q.time, q.object, q.relation)
                 for q in kg.quadruples if q.subject == e]
                + [(q.time, q.subject, q.relation)
                   for q in kg.quadruples if q.object == e]
            )
            assert [(t, n, r) for n, r, t in kg.adjacency(e)] == want

    @staticmethod
    def _assert_index_in_lexsort_order(kg):
        s, r, o, t = np.array(kg.quadruples, dtype=np.int64).reshape(-1, 4).T
        ent, nbr = np.concatenate([s, o]), np.concatenate([o, s])
        rel, tim = np.concatenate([r, r]), np.concatenate([t, t])
        order = np.lexsort((rel, nbr, tim, ent))
        want = np.stack([ent, nbr, rel, tim], axis=1)[order].tolist()
        got = [[e, *entry] for e in range(len(kg.entities)) for entry in kg.adjacency(e)]
        assert got == want

    @given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 30),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_index_order_equals_lexsort(self, n_ent, n_rel, horizon, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 120))
        # few distinct values per field, so rows tie on every prefix of the key
        quads = [
            Quadruple(*map(int, row)) for row in zip(
                rng.integers(0, n_ent, n), rng.integers(0, n_rel, n),
                rng.integers(0, n_ent, n), rng.integers(0, horizon, n))
        ]
        self._assert_index_in_lexsort_order(TemporalKG(
            Vocabulary.integers(n_ent), Vocabulary.integers(n_rel), quads, horizon))

    def test_index_order_where_the_packed_key_would_wrap(self):
        # 10**2 x 2**55 x 3 exceeds int64, so the index falls back to lexsort
        n_ent, n_rel, horizon = 10, 3, 2**55
        assert n_ent * n_ent * (horizon + 1) * n_rel > np.iinfo(np.int64).max
        rng = np.random.default_rng(6)
        quads = [
            Quadruple(*map(int, row)) for row in zip(
                rng.integers(0, n_ent, 80), rng.integers(0, n_rel, 80),
                rng.integers(0, n_ent, 80), rng.integers(horizon - 4, horizon, 80))
        ]
        self._assert_index_in_lexsort_order(TemporalKG(
            Vocabulary.integers(n_ent), Vocabulary.integers(n_rel), quads, horizon))


class TestTemporalNeighbors:
    """The live slots of ``neighbor_arrays`` for one entity and time."""

    def test_no_history(self):
        kg = TemporalKG(
            Vocabulary.integers(2), Vocabulary.integers(1),
            [Quadruple(0, 0, 1, 5)], 8,
        )
        for t in (5, 3):
            assert not kg.neighbor_arrays(np.array([0]), t, 4)[3].any()

    def test_latest_b_strictly_before(self):
        quads = [Quadruple(0, 0, 1, t) for t in [1, 2, 3, 4, 5]]
        kg = TemporalKG(Vocabulary.integers(2), Vocabulary.integers(1), quads, 6)
        got = live_slots(kg.neighbor_arrays(np.array([0]), 5, 3), 0)
        assert [t for _, _, t in got] == [2, 3, 4]

    def test_unknown_entity_raises(self, toy_kg):
        with pytest.raises(KeyError):
            toy_kg.adjacency(99)

    @given(st.integers(0, 6), st.integers(0, 8), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=150)
    def test_causality_property(self, e, t, b, seed):
        kg = random_kg(np.random.default_rng(seed))
        _, _, tim, mask = kg.neighbor_arrays(np.array([e]), t, b)
        assert (tim[mask] < t).all()

    def test_window_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        kg = random_kg(rng, n_events=50)
        for e in range(len(kg.entities)):
            for t in range(kg.horizon + 1):
                got = live_slots(kg.neighbor_arrays(np.array([e]), t, 3), 0)
                ordered = sorted(
                    ((tt, n, r) for n, r, tt in kg.adjacency(e) if tt < t)
                )
                want = [(n, r, tt) for tt, n, r in ordered[-3:]]
                assert got == want


class TestNeighborArrays:
    """``neighbor_arrays`` against ``reference_arrays``, padding included."""

    @staticmethod
    def _assert_matches_reference(kg, ids, ts, b):
        got = kg.neighbor_arrays(ids, ts, b)
        want = reference_arrays(kg, ids, np.broadcast_to(ts, np.shape(ids)), b)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y)
        return got

    @pytest.mark.parametrize("b", [1, 3, 6])
    def test_matches_reference_at_scalar_time(self, b):
        kg = random_kg(np.random.default_rng(12), n_events=40)
        ids = np.arange(len(kg.entities))
        for t in range(-2, kg.horizon + 1):
            self._assert_matches_reference(kg, ids, t, b)

    @pytest.mark.parametrize("b", [1, 3, 6])
    def test_matches_reference_at_per_row_times(self, b):
        rng = np.random.default_rng(13)
        kg = random_kg(rng, n_events=40)
        ids = rng.integers(0, len(kg.entities), size=30)
        ts = rng.integers(-2, kg.horizon + 1, size=30)
        got = self._assert_matches_reference(kg, ids, ts, b)
        # per-row times equal one scalar-time lookup per row
        for i, (e, t) in enumerate(zip(ids, ts)):
            one = kg.neighbor_arrays(np.array([e]), int(t), b)
            for x, y in zip(got, one):
                assert np.array_equal(x[i], y[0])

    def test_dtypes(self):
        kg = random_kg(np.random.default_rng(15), n_events=20)
        nbr, rel, tim, mask = kg.neighbor_arrays(np.array([0, 1, 2]), 4, 3)
        assert nbr.dtype == rel.dtype == tim.dtype == np.int64
        assert mask.dtype == np.bool_

    def test_entity_without_events_is_all_padding(self):
        quads = [Quadruple(0, 0, 1, t) for t in range(4)]
        kg = TemporalKG(Vocabulary.integers(3), Vocabulary.integers(1), quads, 5)
        ids = np.array([2, 0, 2])
        got = self._assert_matches_reference(kg, ids, 5, 2)
        assert got[3].tolist() == [[False, False], [True, True], [False, False]]

    def test_graph_without_quadruples(self):
        kg = TemporalKG(Vocabulary.integers(4), Vocabulary.integers(1), [], 6)
        nbr, rel, tim, mask = self._assert_matches_reference(
            kg, np.arange(4), np.array([-2, 0, 3, 6]), 3
        )
        assert not mask.any() and not (nbr.any() or rel.any() or tim.any())

    def test_column_of_times_gives_one_block_per_step(self):
        kg = random_kg(np.random.default_rng(18), n_events=40)
        ids = np.array([3, 0, 6, 3])
        steps = np.arange(-1, kg.horizon + 2)[:, None]
        got = kg.neighbor_arrays(ids, steps, 3)
        for s, t in enumerate(steps[:, 0]):
            want = self._assert_matches_reference(kg, ids, int(t), 3)
            for x, y in zip(got, want):
                assert np.array_equal(x[s], y)

    def test_negative_id_is_rejected(self, toy_kg):
        # a negative id would gather another entity's row in the encoder
        with pytest.raises(ValueError, match="entity id -2 is negative"):
            toy_kg.neighbor_arrays(np.array([0, -2, 1, -1]), 3, 2)

    def test_entity_added_to_the_vocabulary_later_has_no_neighbors(self):
        # load_alignments into an unfrozen vocabulary grows what graphs share
        entities = Vocabulary(["a", "b"])
        kg = TemporalKG(entities, Vocabulary(["r"]), [Quadruple(0, 0, 1, 0)], 3)
        entities.add("c")
        entities.add("d")
        assert kg.adjacency(2) == kg.adjacency(3) == []
        got = self._assert_matches_reference(kg, np.array([3, 1, 2]), 3, 2)
        assert got[3].tolist() == [[False, False], [True, False], [False, False]]

    def test_b_longer_than_any_history(self):
        kg = random_kg(np.random.default_rng(16), n_events=30)
        ids = np.arange(len(kg.entities))
        b = 2 * len(kg.quadruples) + 3
        _, _, _, mask = self._assert_matches_reference(kg, ids, kg.horizon, b)
        assert mask.sum(axis=1).tolist() == [
            len(kg.adjacency(e)) for e in range(len(kg.entities))
        ]

    def test_live_slots_are_the_temporal_neighbors(self):
        kg = random_kg(np.random.default_rng(14), n_events=40)
        steps = np.arange(-1, kg.horizon + 1)  # a negative time to the horizon
        ids = np.repeat(np.arange(len(kg.entities)), len(steps))
        ts = np.tile(steps, len(kg.entities))
        arrays = kg.neighbor_arrays(ids, ts, 3)
        for i, (e, t) in enumerate(zip(ids, ts)):
            assert live_slots(arrays, i) == temporal_neighbors(kg, int(e), int(t), 3)

    def test_memory_is_linear_in_the_events(self):
        # 20,000 entities x 41 steps x b=8 would be a 164 MB window table
        rng = np.random.default_rng(17)
        n, horizon = 20_000, 40
        quads = [
            Quadruple(int(s), 0, int(o), int(t))
            for s, o, t in zip(rng.integers(0, n // 2, 2_000),
                               rng.integers(n // 2, n, 2_000),
                               rng.integers(0, horizon, 2_000))
        ]
        kg = TemporalKG(Vocabulary.integers(n), Vocabulary.integers(1), quads, horizon)
        tracemalloc.start()
        try:
            kg.neighbor_arrays(np.arange(n), horizon, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_key_that_would_wrap_is_rejected(self):
        # 4 x (2**62 + 2) exceeds int64: entity 2's key would wrap below 0's
        with pytest.raises(ValueError, match="overflow the int64 index key"):
            TemporalKG(Vocabulary.integers(4), Vocabulary.integers(1),
                       [Quadruple(2, 0, 3, 2**62)], 2**62 + 1)

    def test_time_beyond_int64_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="overflow the int64 index key"):
            TemporalKG(Vocabulary.integers(4), Vocabulary.integers(1),
                       [Quadruple(2, 0, 3, 10**23)], 10**23 + 1)
        path = tmp_path / "far.tsv"
        path.write_text(f"a\tr\tb\t0\n# later\nb\tr\tc\t{10**23}\na\tr\tc\t1\n")
        with pytest.raises(ValueError, match=r"far\.tsv:3: .*overflow the int64"):
            load_quadruples(path)

    def test_largest_key_that_fits(self):
        # 2 x (horizon + 1) == 2**63 - 2: every key and run end fits in int64
        horizon = 2**62 - 2
        kg = TemporalKG(Vocabulary.integers(2), Vocabulary.integers(1),
                        [Quadruple(0, 0, 1, horizon - 1)], horizon)
        assert kg.adjacency(0) == [(1, 0, horizon - 1)]
        assert kg.adjacency(1) == [(0, 0, horizon - 1)]
        nbr, _, time, mask = kg.neighbor_arrays(np.array([0, 1]), horizon, 2)
        assert nbr[mask].tolist() == [1, 0]
        assert time[mask].tolist() == [horizon - 1] * 2
        with pytest.raises(ValueError, match="overflow"):
            TemporalKG(Vocabulary.integers(2), Vocabulary.integers(1), [], horizon + 1)


def first_quadruple_error(quads, n_entities, n_relations, horizon):
    """The message of the first failed check, by a per-quadruple loop."""
    for q in quads:
        if not (0 <= q.subject < n_entities and 0 <= q.object < n_entities):
            return f"entity id out of vocabulary in {q}"
        if not 0 <= q.relation < n_relations:
            return f"relation id out of vocabulary in {q}"
        if not 0 <= q.time < horizon:
            return f"time {q.time} outside horizon {horizon} in {q}"
    return None


def build(quads, n_entities=4, n_relations=3, horizon=5):
    return TemporalKG(Vocabulary.integers(n_entities),
                      Vocabulary.integers(n_relations), quads, horizon)


class TestValidation:
    @pytest.mark.parametrize("bad, message", [
        (Quadruple(-1, 0, 1, 0), "entity id out of vocabulary in {q}"),
        (Quadruple(0, 0, 4, 0), "entity id out of vocabulary in {q}"),
        (Quadruple(0, 3, 1, 0), "relation id out of vocabulary in {q}"),
        (Quadruple(0, -1, 1, 0), "relation id out of vocabulary in {q}"),
        (Quadruple(0, 0, 1, 5), "time 5 outside horizon 5 in {q}"),
        (Quadruple(0, 0, 1, -1), "time -1 outside horizon 5 in {q}"),
    ])
    def test_each_check_names_the_quadruple(self, bad, message):
        with pytest.raises(ValueError) as exc:
            build([Quadruple(0, 0, 1, 0), bad])
        assert str(exc.value) == message.format(q=bad)

    def test_first_bad_quadruple_is_named(self):
        late, wrong_entity = Quadruple(0, 0, 1, 9), Quadruple(7, 0, 1, 0)
        with pytest.raises(ValueError) as exc:
            build([Quadruple(0, 0, 1, 0), late, wrong_entity])
        assert str(exc.value) == f"time 9 outside horizon 5 in {late}"
        # within one quadruple the entity check comes before relation and time
        everything_wrong = Quadruple(7, 9, 1, 9)
        with pytest.raises(ValueError) as exc:
            build([everything_wrong, late])
        assert str(exc.value) == f"entity id out of vocabulary in {everything_wrong}"

    @given(st.lists(st.builds(
        Quadruple, *[st.one_of(st.integers(-1, 5), st.sampled_from([2**63, -2**63 - 1]))
                     for _ in range(4)]
    ), max_size=6))
    @settings(max_examples=200)
    def test_message_matches_the_per_quadruple_loop(self, quads):
        want = first_quadruple_error(quads, 4, 3, 5)
        if want is None:
            assert build(quads).quadruples == tuple(quads)
        else:
            with pytest.raises(ValueError) as exc:
                build(quads)
            assert str(exc.value) == want

    def test_numpy_integer_fields_are_accepted(self):
        q = Quadruple(np.int64(0), np.int32(2), np.uint8(1), np.int16(4))
        kg = build([q])
        assert kg.quadruples == (q,)
        assert kg.adjacency(0) == [(1, 2, 4)]
        assert kg.adjacency(1) == [(0, 2, 4)]

    def test_graph_without_quadruples_builds_splits_and_thins(self):
        for quads in ([], (), iter([])):
            kg = build(quads)
            assert kg.quadruples == ()
            assert kg.adjacency(0) == []
        assert all(part.quadruples == () for part in
                   split_by_time(kg, SplitSpec(5, 3, 1, 1)))
        assert subsample_events(kg, 0.5, seed=0, before_step=2).quadruples == ()


class TestEventBlock:
    """``events`` is the graph's one stored form of its quadruples."""

    @staticmethod
    def _rows():
        # (subject, relation, object, time) rows over 6 entities, 3 relations
        # and horizon 9
        return np.random.default_rng(8).integers(0, [6, 3, 6, 9], size=(40, 4))

    def test_block_quadruples_and_iterator_build_the_same_graph(self):
        rows = self._rows()
        quads = [Quadruple(*row) for row in rows.tolist()]
        graphs = [build(rows, 6, 3, 9), build(quads, 6, 3, 9),
                  build(iter(quads), 6, 3, 9)]
        ids = np.arange(6)
        times = np.random.default_rng(9).integers(0, 10, size=6)
        want = graphs[0].neighbor_arrays(ids, times, 3)
        for kg in graphs:
            assert kg.events.dtype == np.int64
            assert np.array_equal(kg.events, rows)
            assert kg.quadruples == tuple(quads)
            for got, ref in zip(kg.neighbor_arrays(ids, times, 3), want):
                assert np.array_equal(got, ref)

    def test_events_are_read_only_and_the_callers_array_is_not(self):
        rows = self._rows()
        before = rows.copy()
        kg = build(rows, 6, 3, 9)
        with pytest.raises(ValueError):
            kg.events[0, 0] = 1
        assert rows.flags.writeable
        assert not np.shares_memory(rows, kg.events)
        rows[:] = 0
        assert np.array_equal(kg.events, before)

    def test_error_names_a_quadruple_for_block_input(self):
        with pytest.raises(ValueError) as exc:
            build(np.array([[0, 0, 1, 0], [0, 0, 1, 9]]))
        assert str(exc.value) == f"time 9 outside horizon 5 in {Quadruple(0, 0, 1, 9)}"

    def test_split_parts_are_the_parents_rows_under_each_mask(self):
        kg = random_kg(np.random.default_rng(10), horizon=10, n_events=200)
        t = kg.events[:, 3]
        parts = split_by_time(kg, SplitSpec(10, 6, 2, 2))
        for part, mask in zip(parts, (t < 6, (t >= 6) & (t < 8), t >= 8)):
            assert np.array_equal(part.events, kg.events[mask])
            assert not part.events.flags.writeable

    @pytest.mark.parametrize("before_step", [None, 4])
    def test_thinned_graph_is_the_parents_rows_under_the_mask(self, before_step):
        kg = random_kg(np.random.default_rng(11), horizon=10, n_events=200)
        keep = np.random.default_rng(3).random(len(kg.events)) < 0.3
        if before_step is not None:
            keep |= kg.events[:, 3] >= before_step
        thinned = subsample_events(kg, 0.3, 3, before_step)
        assert np.array_equal(thinned.events, kg.events[keep])


class TestVocabulary:
    def test_first_occurrence_wins_as_with_add(self):
        symbols = ["b", "a", "b", "c", "a"]
        added = Vocabulary()
        for sym in symbols:
            added.add(sym)
        built = Vocabulary(symbols)
        assert built.symbols() == added.symbols() == ["b", "a", "c"]
        assert [built.add(sym) for sym in symbols] == [0, 1, 0, 2, 1]
        assert len(built) == 3 and "c" in built and "d" not in built

    def test_integers_is_frozen(self):
        vocab = Vocabulary.integers(3)
        assert vocab.symbols() == ["0", "1", "2"] and vocab.add("2") == 2
        with pytest.raises(KeyError, match="frozen"):
            vocab.add("3")


class TestSplit:
    def test_paper_shape_boundaries(self):
        quads = [Quadruple(0, 0, 1, t) for t in (27, 28, 32)]
        kg = TemporalKG(Vocabulary.integers(2), Vocabulary.integers(1), quads, 40)
        train, val, test = split_by_time(kg, SplitSpec(40, 28, 4, 8))
        assert [q.time for q in train.quadruples] == [27]
        assert [q.time for q in val.quadruples] == [28]
        assert [q.time for q in test.quadruples] == [32]

    def test_empty_val_test_allowed(self):
        kg = TemporalKG(
            Vocabulary.integers(2), Vocabulary.integers(1),
            [Quadruple(0, 0, 1, 2)], 4,
        )
        train, val, test = split_by_time(kg, SplitSpec(4, 4, 0, 0))
        assert len(train.quadruples) == 1
        assert len(val.quadruples) == len(test.quadruples) == 0

    def test_bad_spec_raises(self, toy_kg):
        with pytest.raises(ValueError):
            split_by_time(toy_kg, SplitSpec(10, 5, 3, 2))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_partition_property(self, seed):
        kg = random_kg(np.random.default_rng(seed), horizon=10, n_events=40)
        train, val, test = split_by_time(kg, SplitSpec(10, 6, 2, 2))
        merged = sorted(train.quadruples + val.quadruples + test.quadruples)
        assert merged == sorted(kg.quadruples)
        # each part keeps the graph's order
        assert train.quadruples == tuple(q for q in kg.quadruples if q.time < 6)
        assert val.quadruples == tuple(q for q in kg.quadruples if 6 <= q.time < 8)


class TestSubsample:
    def test_ratio_one_is_identity(self, toy_kg):
        out = subsample_events(toy_kg, 1.0, seed=5)
        assert out.quadruples == toy_kg.quadruples

    def test_binomial_bound(self):
        kg = random_kg(np.random.default_rng(0), n_entities=30, horizon=20,
                       n_events=10_000)
        for seed in range(100):
            kept = len(subsample_events(kg, 0.2, seed).quadruples)
            assert 1800 <= kept <= 2200

    def test_same_seed_identical(self, toy_kg):
        a = subsample_events(toy_kg, 0.4, seed=9)
        b = subsample_events(toy_kg, 0.4, seed=9)
        assert a.quadruples == b.quadruples

    def test_bad_ratio(self, toy_kg):
        with pytest.raises(ValueError):
            subsample_events(toy_kg, 0.0, seed=1)

    @pytest.mark.parametrize("before_step", [None, 4])
    def test_matches_the_per_quadruple_rule(self, before_step):
        kg = random_kg(np.random.default_rng(6), horizon=10, n_events=300)
        draws = np.random.default_rng(3).random(len(kg.quadruples))
        want = tuple(
            q for q, u in zip(kg.quadruples, draws)
            if u < 0.3 or (before_step is not None and q.time >= before_step)
        )
        assert subsample_events(kg, 0.3, 3, before_step).quadruples == want

    def test_boundary_keeps_later_events(self, toy_kg):
        out = subsample_events(toy_kg, 0.05, seed=2, before_step=4)
        later_in = sorted(q for q in toy_kg.quadruples if q.time >= 4)
        later_out = sorted(q for q in out.quadruples if q.time >= 4)
        assert later_in == later_out


class TestNoise:
    def _pairs(self, n):
        return AlignmentSet([AlignmentPair(i, i) for i in range(n)])

    def test_zero_noise_identity(self):
        pairs = self._pairs(5)
        out = inject_alignment_noise(pairs, 0.0, 50, seed=1)
        assert [(p.source_entity, p.target_entity) for p in out] == [
            (i, i) for i in range(5)
        ]

    def test_full_noise_changes_every_target(self):
        pairs = self._pairs(5)
        out = inject_alignment_noise(pairs, 1.0, 50, seed=2)
        assert all(p.target_entity != p.source_entity for p in out)
        assert all(p.provenance == "ground-truth" for p in out)

    def test_exact_rounding(self):
        pairs = self._pairs(100)
        out = inject_alignment_noise(pairs, 0.2, 500, seed=3)
        changed = sum(1 for p in out if p.target_entity != p.source_entity)
        assert changed == 20

    def test_not_enough_unaligned_raises(self):
        pairs = self._pairs(5)
        with pytest.raises(ValueError, match="unaligned"):
            inject_alignment_noise(pairs, 1.0, 6, seed=4)

    def test_replacements_were_unaligned(self):
        pairs = self._pairs(10)
        out = inject_alignment_noise(pairs, 0.5, 40, seed=5)
        originals = {p.target_entity for p in pairs}
        for p in out:
            if p.target_entity != p.source_entity:
                assert p.target_entity not in originals


class TestSyntheticPair:
    def test_full_copy_full_coverage(self):
        cfg = GeneratorConfig(
            source_entities=12, target_entities=12, relations=3, steps=6,
            train_steps=4, events_per_step=6, coverage=1.0, target_ratio=1.0,
            copy_prob=1.0,
        )
        pair = generate_synthetic_pair(cfg, 3)
        mapping = pair.latent_map
        target_set = set(pair.target_full.quadruples)
        for q in pair.source.quadruples:
            mapped = Quadruple(mapping[q.subject], q.relation, mapping[q.object], q.time)
            assert mapped in target_set

    def test_deterministic_dumps(self, tmp_path):
        cfg = GeneratorConfig()
        a = generate_synthetic_pair(cfg, 7)
        b = generate_synthetic_pair(cfg, 7)
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        dump_quadruples(a.source, pa)
        dump_quadruples(b.source, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert a.target_incomplete.quadruples == b.target_incomplete.quadruples

    @pytest.mark.parametrize("cfg, seed, digests", [
        (DESK_GENERATOR, 0, {
            "source": "64173a0713b58dbb", "target_full": "57dc37430ea13540",
            "target_incomplete": "d42c5c40b82a84b6", "alignments": "a4bb20c92ea9a2b0",
            "latent_map": "4e6b0e7a6fd95596",
        }),
        (GeneratorConfig(source_entities=2000, target_entities=2000,
                         events_per_step=200, target_background_per_step=280), 3, {
            "source": "7f51b447e4327864", "target_full": "d7d0e7498bcd496f",
            "target_incomplete": "adb50008044c7721", "alignments": "731cc63cf4333343",
            "latent_map": "fcb73a3f0e77fac1",
        }),
    ], ids=["desk", "eval_ckpt"])
    def test_outputs_are_pinned(self, tmp_path, cfg, seed, digests):
        """sha256 prefixes of every generator output, so a moved RNG draw fails."""
        def sha(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()[:16]

        pair = generate_synthetic_pair(cfg, seed)
        got = {}
        for name in ("source", "target_full", "target_incomplete"):
            dump_quadruples(getattr(pair, name), tmp_path / name)
            got[name] = sha((tmp_path / name).read_bytes())
        got["alignments"] = sha(repr(sorted(
            (p.source_entity, p.target_entity) for p in pair.alignments
        )).encode())
        got["latent_map"] = sha(repr(sorted(pair.latent_map.items())).encode())
        assert got == digests

    def test_coverage_count(self):
        cfg = GeneratorConfig(coverage=0.1)
        pair = generate_synthetic_pair(cfg, 1)
        assert len(pair.alignments) == 20

    def test_alignments_follow_latent_map(self):
        pair = generate_synthetic_pair(GeneratorConfig(), 5)
        for p in pair.alignments:
            assert pair.latent_map[p.source_entity] == p.target_entity

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -3"):
            generate_synthetic_pair(GeneratorConfig(), -3)

    def test_infeasible_config_raises(self):
        with pytest.raises(ValueError):
            GeneratorConfig(coverage=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(source_entities=0)
