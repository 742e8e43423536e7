import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from dataclasses import fields, replace

from scalar_reference import mean_similarity
from tkgdistill import experiments
from tkgdistill import trainer as trainer_module
from tkgdistill.encoder import encode_trajectories_fwd
from tkgdistill.tkg import (
    GROUND_TRUTH,
    AlignmentPair,
    AlignmentSet,
    GeneratorConfig,
    generate_synthetic_pair,
)
from tkgdistill.trainer import (
    ABLATIONS,
    EpochBatches,
    TrainConfig,
    _interval_bounds,
    _mean_sim_matrix,
    combined_loss_and_grad,
    init_student_from_teacher,
    parse_config_file,
    pretrain_teacher,
    pseudo_fraction_at,
    set_size_weights,
    train_mpkd,
)


def tiny_cfg(**over):
    base = dict(
        dim=6, epochs=2, batch_size=32, neighbors=3, dropout=0.0,
        learning_rate=0.02, reasoning_negatives=3, alignment_negatives=4,
        time_intervals=2, warmup_epochs_before_generation=0,
        split_train_steps=5, split_val_steps=1, split_test_steps=2,
        patience=10, seed=0,
    )
    base.update(over)
    return TrainConfig(**base)


def tiny_pair(seed=4):
    gen = GeneratorConfig(
        source_entities=10, target_entities=10, relations=3, steps=8,
        train_steps=5, events_per_step=6, coverage=0.4, target_ratio=0.8,
        copy_prob=0.7, window_halfwidth=8,
    )
    return generate_synthetic_pair(gen, seed)


class TestTrainConfig:
    def test_reported_defaults(self):
        cfg = TrainConfig()
        assert cfg.dim == 128
        assert cfg.batch_size == 256
        assert cfg.epochs == 50
        assert cfg.neighbors == 8
        assert cfg.dropout == 0.5
        assert cfg.reasoning_negatives == 10
        assert cfg.alignment_negatives == 50
        assert cfg.time_intervals == 4
        assert cfg.warmup_epochs_before_generation == 10
        assert (cfg.pseudo_fraction_start, cfg.pseudo_fraction_end) == (0.10, 0.40)
        assert (cfg.split_train_steps, cfg.split_val_steps, cfg.split_test_steps) == (28, 4, 8)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "dim = 16\nepochs = 3\nlearning_rate = 0.005\n"
            "no_event_transfer = true\ntop1_completion = false\nseed = 7\n"
        )
        cfg = parse_config_file(path)
        assert cfg.dim == 16 and cfg.epochs == 3
        assert cfg.learning_rate == 0.005
        assert cfg.no_event_transfer is True and cfg.top1_completion is False
        assert cfg.seed == 7

    def test_ablation_presets_set_real_fields(self):
        defaults = TrainConfig()
        names = {f.name for f in fields(TrainConfig)}
        for name, preset in ABLATIONS.items():
            assert preset and set(preset) <= names, name
            for key, value in preset.items():
                assert type(value) is type(getattr(defaults, key)), (name, key)
            replace(defaults, **preset)  # within every field's range
        assert ABLATIONS["pure_training"] == {
            **ABLATIONS["no_pseudo"], **ABLATIONS["no_event_transfer"]
        }

    @pytest.mark.parametrize("text, message", [
        pytest.param("flux_capacitor = 1\n", ":1: unknown config key", id="unknown-key"),
        pytest.param("dim = 16\nlayers = 2\n", ":2: unknown config key 'layers'",
                     id="layers"),
        pytest.param("seed = 1\n\nexact_solver_cap = 64\n",
                     ":3: unknown config key 'exact_solver_cap'", id="exact_solver_cap"),
        pytest.param("pure_training = true\n", ":1: unknown config key 'pure_training'",
                     id="pure_training"),
        pytest.param("dim = 8\nno_pseudo = true\n", ":2: unknown config key 'no_pseudo'",
                     id="no_pseudo"),
        pytest.param("transfer_min_top1_prob = 2.0\n",
                     ":1: unknown config key 'transfer_min_top1_prob'",
                     id="transfer_min_top1_prob"),
        pytest.param("dim = 16\n# wider\ndim = 32\n",
                     ":3: duplicate config key 'dim', first set on line 1",
                     id="repeated-key"),
        pytest.param("dim = 16\nepochs = abc\n", ":2: bad int value 'abc'", id="bad-int"),
        pytest.param("learning_rate = fast\n", ":1: bad float value 'fast'",
                     id="bad-float"),
        pytest.param("dim = 16\nmargin_reasoning = nan\n", ":2: non-finite value 'nan'",
                     id="nan"),
        pytest.param("margin_alignment = -inf\n", ":1: non-finite value '-inf'",
                     id="inf"),
    ])
    def test_unknown_key_rejected(self, tmp_path, text, message):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            parse_config_file(path)

    @pytest.mark.parametrize("name, value", [
        ("dim", 0), ("batch_size", 0), ("neighbors", 0),
        ("reasoning_negatives", 0), ("alignment_negatives", -1),
        ("time_intervals", 0),
        ("split_train_steps", 0), ("split_val_steps", 0), ("split_test_steps", 0),
        ("epochs", -2), ("warmup_epochs_before_generation", -1), ("patience", -1),
        ("dropout", 1.0), ("dropout", -0.1),
        ("margin_reasoning", 0.0), ("margin_alignment", -0.5),
        ("learning_rate", 0.0),
        ("pseudo_fraction_start", -0.1), ("pseudo_fraction_end", 1.5),
    ])
    def test_out_of_range_rejected(self, tmp_path, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**{name: value})
        path = tmp_path / "cfg.ini"
        path.write_text(f"seed = 3\n{name} = {value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {name} must be")):
            parse_config_file(path)

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)
        path = tmp_path / "cfg.ini"
        path.write_text("seed = -1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: seed must be >= 0")):
            parse_config_file(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_similarity_floor_rejected(self, value):
        with pytest.raises(ValueError, match="^pseudo_min_similarity must be finite"):
            TrainConfig(pseudo_min_similarity=value)

    def test_demo_config_parses(self, tmp_path):
        # the demo's config must name only live TrainConfig keys
        script = Path(__file__).resolve().parents[1] / "scripts" / "end_to_end_demo.py"
        spec = importlib.util.spec_from_file_location("end_to_end_demo", script)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        path = tmp_path / "demo.ini"
        path.write_text(demo.CONFIG)
        cfg = parse_config_file(path)
        assert cfg.dim == 24 and cfg.pseudo_min_similarity == 0.85

    def test_range_edges_accepted(self):
        TrainConfig(epochs=0, warmup_epochs_before_generation=0, patience=0,
                    dropout=0.0, pseudo_fraction_start=0.0,
                    pseudo_fraction_end=1.0)

    def test_digest_stable_and_sensitive(self):
        assert TrainConfig().digest() == TrainConfig().digest()
        assert TrainConfig().digest() != TrainConfig(seed=1).digest()


class TestScheduling:
    def test_fraction_endpoints(self):
        cfg = tiny_cfg(epochs=20, warmup_epochs_before_generation=10)
        assert pseudo_fraction_at(cfg, 9) == 0.0
        assert pseudo_fraction_at(cfg, 10) == pytest.approx(0.10)
        assert pseudo_fraction_at(cfg, 19) == pytest.approx(0.40)

    def test_interval_order_recent_first(self):
        bounds = _interval_bounds(28, 4)
        assert bounds == [(21, 28), (14, 21), (7, 14), (0, 7)]

    def test_weights(self):
        assert set_size_weights(100, 300) == (0.25, 0.75)
        assert set_size_weights(5, 0) == (1.0, 0.0)
        assert set_size_weights(0, 0) == (1.0, 0.0)

    def test_weight_pairs_sum_to_one_exactly(self):
        for a, b in [(1, 2), (3, 7), (17, 5), (123, 456), (1, 999)]:
            w1, w2 = set_size_weights(a, b)
            assert w1 + w2 == 1.0


class TestPretrainTeacher:
    def test_zero_epochs_returns_initialization(self):
        pair = tiny_pair()
        cfg = tiny_cfg(epochs=0)
        a = pretrain_teacher(pair.source, cfg)
        b = pretrain_teacher(pair.source, cfg)
        assert np.array_equal(a.entity_emb, b.entity_emb)

    def test_determinism(self):
        pair = tiny_pair()
        cfg = tiny_cfg(epochs=2)
        a = pretrain_teacher(pair.source, cfg)
        b = pretrain_teacher(pair.source, cfg)
        for k in a.trainable():
            assert np.array_equal(a.trainable()[k], b.trainable()[k])

    def test_loss_decreases_median_over_seeds(self):
        drops = []
        for seed in range(5):
            pair = tiny_pair(seed)
            rows = []
            pretrain_teacher(pair.source, tiny_cfg(epochs=2, seed=seed), rows)
            losses = [r[2] for r in rows if r[1] == "teacher"]
            drops.append(losses[1] - losses[0])
        assert np.median(drops) < 0

    def test_empty_source_rejected(self):
        pair = tiny_pair()
        empty = pair.source.with_quadruples([])
        with pytest.raises(ValueError):
            pretrain_teacher(empty, tiny_cfg())


class TestTeacherBank:
    def test_fields_are_those_pretraining_reads(self):
        read = set()

        class Recorder:
            def __getattr__(self, name):
                read.add(name)
                return getattr(tiny_cfg(epochs=1), name)

        pretrain_teacher(tiny_pair().source, Recorder())
        assert read == set(trainer_module.TEACHER_FIELDS)

    def _bank_with_counter(self, monkeypatch):
        calls = []

        def counted(kg, cfg):
            calls.append(cfg)
            return pretrain_teacher(kg, cfg)

        monkeypatch.setattr(experiments, "pretrain_teacher", counted)
        return experiments.TeacherBank(), calls

    def test_fields_pretraining_reads_select_the_teacher(self, monkeypatch):
        bank, calls = self._bank_with_counter(monkeypatch)
        source = tiny_pair().source
        a = bank.get(source, tiny_cfg(epochs=1, neighbors=3))
        b = bank.get(source, tiny_cfg(epochs=1, neighbors=2))
        assert len(calls) == 2 and a is not b
        assert not np.array_equal(a.entity_emb, b.entity_emb)

    def test_variants_share_one_teacher(self, monkeypatch):
        bank, calls = self._bank_with_counter(monkeypatch)
        source = tiny_pair().source
        base = tiny_cfg(epochs=1)
        teachers = [
            bank.get(source, cfg)
            for cfg in (base, replace(base, uniform_strength=True),
                        replace(base, **ABLATIONS["pure_training"]))
        ]
        assert len(calls) == 1
        assert all(t is teachers[0] for t in teachers)


class TestInitStudent:
    def test_shared_blocks_copied_bitwise(self):
        pair = tiny_pair()
        cfg = tiny_cfg()
        teacher = pretrain_teacher(pair.source, cfg)
        student = init_student_from_teacher(teacher, 10, 3, seed=5)
        assert np.array_equal(student.relation_emb, teacher.relation_emb)
        assert np.array_equal(student.transform_W, teacher.transform_W)
        assert np.array_equal(student.attn_a, teacher.attn_a)
        assert np.array_equal(student.time_freq, teacher.time_freq)

    def test_entity_tables_reseeded(self):
        pair = tiny_pair()
        cfg = tiny_cfg()
        teacher = pretrain_teacher(pair.source, cfg)
        a = init_student_from_teacher(teacher, 10, 3, seed=1)
        b = init_student_from_teacher(teacher, 10, 3, seed=2)
        assert not np.array_equal(a.entity_emb, b.entity_emb)
        assert np.array_equal(a.transform_W, b.transform_W)

    def test_relation_superset_rejected(self):
        pair = tiny_pair()
        cfg = tiny_cfg()
        teacher = pretrain_teacher(pair.source, cfg)
        with pytest.raises(ValueError, match="relation"):
            init_student_from_teacher(teacher, 10, 4, seed=1)


class TestCombinedLoss:
    def _setup(self, with_pseudo):
        pair = tiny_pair()
        cfg = tiny_cfg()
        teacher = pretrain_teacher(pair.source, cfg)
        student = init_student_from_teacher(teacher, 10, 3, seed=3)
        from tkgdistill.alignment import init_align_params

        align = init_align_params(cfg.dim, 9)
        bank, _ = encode_trajectories_fwd(
            teacher, pair.source, np.arange(10), cfg.split_train_steps, cfg.neighbors,
        )
        train_quads = [q for q in pair.target_incomplete.quadruples if q.time < 5]
        union = pair.target_incomplete.with_quadruples(train_quads)
        gt_pairs = list(pair.alignments.pairs)
        ps_pairs = (
            [AlignmentPair(p.source_entity, p.target_entity, "pseudo", 0.5)
             for p in gt_pairs[:2]]
            if with_pseudo else []
        )
        batches = EpochBatches(
            train_quads[:6], train_quads[6:9] if with_pseudo else [],
            gt_pairs, ps_pairs,
        )
        aligns = AlignmentSet(gt_pairs + ps_pairs)
        return student, align, union, bank, aligns, batches, cfg

    def test_empty_pseudo_reduces_to_base_objective(self):
        student, align, union, bank, aligns, batches, cfg = self._setup(False)
        loss, sg, ag = combined_loss_and_grad(
            student, align, union, bank, aligns, batches, cfg
        )
        # recompute the two live terms independently and assemble
        from tkgdistill.trainer import _reasoning_terms, _alignment_terms, rng_for, _RNG_STUDENT, _RNG_CHANNEL

        l_g, _ = _reasoning_terms(
            student, union, batches.gt_quads, [], (1.0, 0.0), cfg,
            rng_for(cfg.seed, _RNG_STUDENT, 0), None,
        )
        all_targets = np.arange(10)
        tgt_trajs, _ = encode_trajectories_fwd(
            student, union, all_targets, cfg.split_train_steps, cfg.neighbors
        )
        l_a, _, _ = _alignment_terms(
            align, bank, tgt_trajs, batches.gt_pairs, [], aligns, (1.0, 0.0),
            cfg, rng_for(cfg.seed, _RNG_CHANNEL, 0),
        )
        assert loss == pytest.approx(l_g + l_a, rel=1e-12)

    def test_four_term_assembly(self):
        student, align, union, bank, aligns, batches, cfg = self._setup(True)
        loss, _, _ = combined_loss_and_grad(
            student, align, union, bank, aligns, batches, cfg
        )
        from tkgdistill.trainer import _reasoning_terms, _alignment_terms, rng_for, _RNG_STUDENT, _RNG_CHANNEL

        w_graph = set_size_weights(len(batches.gt_quads), len(batches.ps_quads))
        w_align = set_size_weights(len(batches.gt_pairs), len(batches.ps_pairs))
        l_g, _ = _reasoning_terms(
            student, union, batches.gt_quads, batches.ps_quads, w_graph, cfg,
            rng_for(cfg.seed, _RNG_STUDENT, 0), None,
        )
        tgt_trajs, _ = encode_trajectories_fwd(
            student, union, np.arange(10), cfg.split_train_steps, cfg.neighbors
        )
        l_a, _, _ = _alignment_terms(
            align, bank, tgt_trajs, batches.gt_pairs, batches.ps_pairs, aligns,
            w_align, cfg, rng_for(cfg.seed, _RNG_CHANNEL, 0),
        )
        assert loss == pytest.approx(l_g + l_a, rel=1e-12)

    def test_alignment_terms_compute_only_the_requested_grads(self):
        # the alignment fit asks for the parameter gradients only and the
        # distillation channel for the target-trajectory gradient only; each
        # equals the full call's, bit for bit
        from tkgdistill.trainer import _alignment_terms, rng_for, _RNG_CHANNEL

        student, align, union, bank, aligns, batches, cfg = self._setup(True)
        trajs, _ = encode_trajectories_fwd(
            student, union, np.arange(10), cfg.split_train_steps, cfg.neighbors
        )
        weights = set_size_weights(len(batches.gt_pairs), len(batches.ps_pairs))

        def call(**wanted):
            return _alignment_terms(
                align, bank, trajs, batches.gt_pairs, batches.ps_pairs, aligns,
                weights, cfg, rng_for(cfg.seed, _RNG_CHANNEL, 0), **wanted,
            )

        loss, grads, g_tgt = call()
        fit_loss, fit_grads, fit_tgt = call(traj_grad=False)
        chan_loss, chan_grads, chan_tgt = call(param_grads=False)
        assert fit_loss == loss == chan_loss
        assert fit_tgt is None and chan_grads is None
        assert np.any(g_tgt) and all(
            np.any(grads[k]) for k in ("temporal_WQ", "temporal_WK", "temporal_WV")
        )
        assert set(fit_grads) == set(grads)
        for k in grads:
            assert np.array_equal(fit_grads[k], grads[k]), k
        assert np.array_equal(chan_tgt, g_tgt)
        assert call(param_grads=False, traj_grad=False) == (loss, None, None)

    def test_combined_loss_is_forward_of_loss_and_grad(self):
        student, align, union, bank, aligns, batches, cfg = self._setup(True)
        args = (student, align, union, bank, aligns, batches, cfg)
        loss, sg, ag = combined_loss_and_grad(*args)
        assert any(np.any(g != 0) for g in [*sg.values(), *ag.values()])
        loss_f, sg_f, ag_f = combined_loss_and_grad(*args, with_grad=False)
        assert loss_f == loss
        assert all(not np.any(g) for g in [*sg_f.values(), *ag_f.values()])

    def test_all_empty_rejected(self):
        student, align, union, bank, aligns, _, cfg = self._setup(False)
        with pytest.raises(ValueError):
            combined_loss_and_grad(
                student, align, union, bank, aligns,
                EpochBatches([], [], [], []), cfg,
            )


class TestTrainLoop:
    def test_pure_training_has_no_generated_data(self):
        pair = tiny_pair()
        cfg = tiny_cfg(**ABLATIONS["pure_training"])
        state = train_mpkd(pair.source, pair.target_incomplete, pair.alignments, cfg)
        assert state.transferred == []
        assert all(p.provenance == "ground-truth" for p in state.alignments)

    def test_teacher_frozen_bitwise(self):
        pair = tiny_pair()
        cfg = tiny_cfg()
        teacher = pretrain_teacher(pair.source, cfg)
        snapshot = {k: v.copy() for k, v in teacher.trainable().items()}
        state = train_mpkd(
            pair.source, pair.target_incomplete, pair.alignments, cfg, teacher
        )
        for k, v in state.teacher.trainable().items():
            assert np.array_equal(v, snapshot[k])

    def test_full_run_determinism(self):
        pair = tiny_pair()
        cfg = tiny_cfg()
        a = train_mpkd(pair.source, pair.target_incomplete, pair.alignments, cfg)
        b = train_mpkd(pair.source, pair.target_incomplete, pair.alignments, cfg)
        for k in a.student.trainable():
            assert np.array_equal(a.student.trainable()[k], b.student.trainable()[k])
        for k in a.align.trainable():
            assert np.array_equal(a.align.trainable()[k], b.align.trainable()[k])
        assert a.log_rows == b.log_rows

    def test_transferred_set_only_grows(self):
        pair = tiny_pair()
        cfg = tiny_cfg(epochs=3)
        state = train_mpkd(pair.source, pair.target_incomplete, pair.alignments, cfg)
        rounds = [r.round_index for r in state.transferred]
        assert rounds == sorted(rounds)

    def test_pseudo_round_keeps_every_ground_truth_pair(self):
        # paper defaults at coverage 0.3: the one pseudo round's matches land
        # on aligned targets often, and none of them may displace a seed pair
        pair = generate_synthetic_pair(GeneratorConfig(coverage=0.3), 0)
        cfg = TrainConfig(epochs=1, warmup_epochs_before_generation=0)
        _, state = experiments.run_transfer(pair, cfg)
        kept = {
            (p.source_entity, p.target_entity)
            for p in state.alignments
            if p.provenance == GROUND_TRUTH
        }
        seeds = {(p.source_entity, p.target_entity) for p in pair.alignments}
        assert len(seeds) == 60
        assert seeds <= kept
        assert len(state.pseudo_audit) > 0

    def test_empty_alignments_need_pure_mode(self):
        pair = tiny_pair()
        # either half of the generated data needs alignments
        for generating in (ABLATIONS["no_pseudo"], ABLATIONS["no_event_transfer"]):
            with pytest.raises(ValueError, match="may be empty only without"):
                train_mpkd(
                    pair.source, pair.target_incomplete, AlignmentSet([]),
                    tiny_cfg(**generating),
                )
        state = train_mpkd(
            pair.source, pair.target_incomplete, AlignmentSet([]),
            tiny_cfg(**ABLATIONS["pure_training"]),
        )
        assert state.epoch >= 0

    def test_uniform_strength_flag_runs(self):
        pair = tiny_pair()
        state = train_mpkd(
            pair.source, pair.target_incomplete, pair.alignments,
            tiny_cfg(uniform_strength=True),
        )
        assert state.val_trace

    def test_progress_log_schema(self):
        pair = tiny_pair()
        state = train_mpkd(
            pair.source, pair.target_incomplete, pair.alignments, tiny_cfg()
        )
        phases = {row[1] for row in state.log_rows}
        assert phases <= {"teacher", "align", "student"}
        for row in state.log_rows:
            assert len(row) == 6


class TestStudentCompletion:
    def _transfer(self, monkeypatch, top1_completion):
        # only the transfer step's completions score through trainer's name
        calls = []
        score = trainer_module.score_object_queries

        def counted(*args):
            calls.append(args)
            return score(*args)

        monkeypatch.setattr(trainer_module, "score_object_queries", counted)
        pair = tiny_pair()
        state = train_mpkd(
            pair.source, pair.target_incomplete, pair.alignments,
            tiny_cfg(top1_completion=top1_completion),
        )
        return state.transferred, calls

    def test_completion_off_scores_nothing(self, monkeypatch):
        records, calls = self._transfer(monkeypatch, False)
        assert calls == []
        assert records
        assert {r.mechanism for r in records} == {"alignment-lookup"}

    def test_completion_on_yields_top1(self, monkeypatch):
        records, calls = self._transfer(monkeypatch, True)
        assert calls
        assert "student-top1" in {r.mechanism for r in records}


class TestMeanSimMatrix:
    def test_cells_match_scalar_reference(self):
        rng = np.random.default_rng(11)
        h_src = rng.normal(size=(5, 7, 4))
        h_tgt = rng.normal(size=(6, 7, 4))
        h_src[2] = 0.0  # a dead row: every step rectified to zero
        h_tgt[4, :3] = 0.0  # zero at some steps only
        sim = _mean_sim_matrix(h_src, h_tgt)
        assert sim.shape == (5, 6)
        for i in range(5):
            for j in range(6):
                want = mean_similarity(h_src[i], h_tgt[j])
                assert abs(sim[i, j] - want) <= 1e-12
        assert np.all(sim[2] == 0.0)
