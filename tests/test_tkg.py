import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgdistill.tkg import (
    AlignmentPair,
    AlignmentSet,
    GeneratorConfig,
    Quadruple,
    SplitSpec,
    TemporalKG,
    Vocabulary,
    dump_quadruples,
    expand_intervals,
    generate_synthetic_pair,
    inject_alignment_noise,
    load_alignments,
    load_intervals,
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
        assert len(kg.adjacency(kg.entities.index("e1"))) == 1
        assert len(kg.adjacency(kg.entities.index("e2"))) == 1

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
                strict=True,
            )

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
        src = Vocabulary(["s0"], frozen=True)
        tgt = Vocabulary(["t0"], frozen=True)
        pairs = load_alignments(path, src, tgt, extend=True)
        assert pairs.pairs[0].target_entity == tgt.index("t9")
        assert tgt.frozen  # frozen state restored after the load

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


class TestIntervals:
    def test_degenerate(self):
        assert expand_intervals([(0, 0, 1, 3, 3)]) == [Quadruple(0, 0, 1, 3)]

    def test_expansion(self):
        quads = expand_intervals([(0, 0, 1, 2, 5)])
        assert [q.time for q in quads] == [2, 3, 4, 5]

    def test_order_preserving_concat(self):
        quads = expand_intervals([(0, 0, 1, 1, 2), (1, 0, 0, 0, 1)])
        assert [(q.subject, q.time) for q in quads] == [(0, 1), (0, 2), (1, 0), (1, 1)]

    def test_reversed_interval_raises(self):
        with pytest.raises(ValueError):
            expand_intervals([(0, 0, 1, 5, 2)])

    def test_interval_file(self, tmp_path):
        path = tmp_path / "iv.tsv"
        path.write_text("a\tr\tb\t1\t3\n")
        kg = load_intervals(path)
        assert [q.time for q in kg.quadruples] == [1, 2, 3]


class TestAdjacency:
    def test_entry_count_is_twice_quads(self):
        kg = random_kg(np.random.default_rng(3), n_events=40)
        assert kg.adjacency_entry_count() == 2 * len(kg.quadruples)

    def test_sorted_total_order(self):
        kg = random_kg(np.random.default_rng(4), n_events=60)
        for e in range(len(kg.entities)):
            entries = [(t, n, r) for n, r, t in kg.adjacency(e)]
            assert entries == sorted(entries)


class TestTemporalNeighbors:
    def test_no_history(self):
        kg = TemporalKG(
            Vocabulary.integers(2), Vocabulary.integers(1),
            [Quadruple(0, 0, 1, 5)], 8,
        )
        assert kg.temporal_neighbors(0, 5, 4) == []
        assert kg.temporal_neighbors(0, 3, 4) == []

    def test_latest_b_strictly_before(self):
        quads = [Quadruple(0, 0, 1, t) for t in [1, 2, 3, 4, 5]]
        kg = TemporalKG(Vocabulary.integers(2), Vocabulary.integers(1), quads, 6)
        got = kg.temporal_neighbors(0, 5, 3)
        assert [t for _, _, t in got] == [2, 3, 4]

    def test_unknown_entity_raises(self, toy_kg):
        with pytest.raises(KeyError):
            toy_kg.temporal_neighbors(99, 3, 2)

    @given(st.integers(0, 6), st.integers(0, 8), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=150)
    def test_causality_property(self, e, t, b, seed):
        kg = random_kg(np.random.default_rng(seed))
        for _, _, t_entry in kg.temporal_neighbors(e, t, b):
            assert t_entry < t

    def test_window_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        kg = random_kg(rng, n_events=50)
        for e in range(len(kg.entities)):
            for t in range(kg.horizon + 1):
                got = kg.temporal_neighbors(e, t, 3)
                ordered = sorted(
                    ((tt, n, r) for n, r, tt in kg.adjacency(e) if tt < t)
                )
                want = [(n, r, tt) for tt, n, r in ordered[-3:]]
                assert got == want


class TestNeighborArrays:
    """Both paths of ``neighbor_arrays``: the shared window table and the
    per-row lookup used above ``_WINDOW_TABLE_LIMIT`` cells."""

    @staticmethod
    def _both_paths(monkeypatch, kg, ids, t, b):
        table = kg.neighbor_arrays(ids, t, b)
        with monkeypatch.context() as m:
            m.setattr(TemporalKG, "_WINDOW_TABLE_LIMIT", 0)
            rows = kg.neighbor_arrays(ids, t, b)
        return table, rows

    @pytest.mark.parametrize("b", [1, 3, 6])
    def test_per_row_fallback_matches_table_at_scalar_time(self, monkeypatch, b):
        kg = random_kg(np.random.default_rng(12), n_events=40)
        ids = np.arange(len(kg.entities))
        for t in range(kg.horizon + 1):
            table, rows = self._both_paths(monkeypatch, kg, ids, t, b)
            for x, y in zip(table, rows):
                assert x.dtype == y.dtype
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("b", [1, 3, 6])
    def test_per_row_fallback_matches_table_at_per_row_times(self, monkeypatch, b):
        rng = np.random.default_rng(13)
        kg = random_kg(rng, n_events=40)
        ids = rng.integers(0, len(kg.entities), size=30)
        ts = rng.integers(-2, kg.horizon + 1, size=30)
        table, rows = self._both_paths(monkeypatch, kg, ids, ts, b)
        for x, y in zip(table, rows):
            assert np.array_equal(x, y)
        # per-row times equal one scalar-time lookup per row
        for i, (e, t) in enumerate(zip(ids, ts)):
            one = kg.neighbor_arrays(np.array([e]), int(t), b)
            for x, y in zip(table, one):
                assert np.array_equal(x[i], y[0])

    def test_live_slots_are_the_temporal_neighbors(self, monkeypatch):
        kg = random_kg(np.random.default_rng(14), n_events=40)
        steps = np.arange(-1, kg.horizon + 1)  # a negative time to the horizon
        ids = np.repeat(np.arange(len(kg.entities)), len(steps))
        ts = np.tile(steps, len(kg.entities))
        for nbr, rel, tim, mask in self._both_paths(monkeypatch, kg, ids, ts, 3):
            for i, (e, t) in enumerate(zip(ids, ts)):
                live = list(zip(nbr[i][mask[i]], rel[i][mask[i]], tim[i][mask[i]]))
                assert live == kg.temporal_neighbors(int(e), int(t), 3)


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

    def test_coverage_count(self):
        cfg = GeneratorConfig(coverage=0.1)
        pair = generate_synthetic_pair(cfg, 1)
        assert len(pair.alignments) == 20

    def test_alignments_follow_latent_map(self):
        pair = generate_synthetic_pair(GeneratorConfig(), 5)
        for p in pair.alignments:
            assert pair.latent_map[p.source_entity] == p.target_entity

    def test_infeasible_config_raises(self):
        with pytest.raises(ValueError):
            GeneratorConfig(coverage=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(source_entities=0)
