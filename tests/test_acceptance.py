"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured value and runtime. Budgets are asserted, not aspirational.

The training-based criteria (5-7) run the desk-scale harness configuration
from tkgdistill.experiments; every run is seeded and deterministic, so the
asserted medians are reproducible bit for bit.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from distill_reference import brute_force_best_matching, matching_total
from tkgdistill.alignment import (
    init_align_params,
    strength_diagonal,
    temporal_integrate_batch_fwd,
)
from tkgdistill.distill import (
    CandidateTable,
    PseudoGenConfig,
    generate_pseudo_alignments,
)
from tkgdistill.encoder import (
    encode_batch_fwd,
    encode_trajectories_fwd,
    init_network_params,
)
from tkgdistill.evaluation import (
    DiagnosticConfig,
    metrics_from_ranks,
    transfer_ratio,
)
from tkgdistill.experiments import (
    ExperimentConfig,
    decay_experiment,
    median_by_x,
    noise_sweep,
    pseudo_ratio_sweep,
    relative_drops,
    transfer_gain_experiment,
)
from tkgdistill.numerics import grad_check
from tkgdistill.tkg import AlignmentSet, Quadruple, TemporalKG, Vocabulary
from tkgdistill.trainer import (
    EpochBatches,
    TrainConfig,
    combined_loss_and_grad,
)


pytestmark = pytest.mark.acceptance


def report(name, passed, detail, budget, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.1f}s"


class Clock:
    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.time() - self.t0


def test_criterion_1_transfer_ratio_arithmetic():
    with Clock() as c:
        tr_a = transfer_ratio([19.51, 19.05], 14.31)
        tr_b = transfer_ratio([17.58, 17.01], 14.31)
    ok = abs(tr_a - 1.35) <= 0.005 and abs(tr_b - 1.21) <= 0.005
    report(
        "C1 transfer-ratio arithmetic", ok,
        f"{tr_a:.4f} vs 1.35, {tr_b:.4f} vs 1.21", 1.0, c.elapsed,
    )


# --- criterion 2: gradient suite -------------------------------------------

def _grad_toy(seed):
    """Small random instance: <= 10 entities, d = 8.

    The margins get a small seed-dependent jitter, which moves hinge
    arguments off exact ties but does not keep them out of the 1e-5
    finite-difference stencil; ``grad_check`` refines such coordinates.
    """
    rng = np.random.default_rng(seed)
    n_e, n_r, d, horizon, t_train = 6, 2, 8, 5, 3
    quads = []
    for _ in range(14):
        s, o = rng.choice(n_e, 2, replace=False)
        quads.append(
            Quadruple(int(s), int(rng.integers(n_r)), int(o),
                      int(rng.integers(horizon)))
        )
    kg = TemporalKG(
        Vocabulary.integers(n_e), Vocabulary.integers(n_r), quads, horizon
    )
    student = init_network_params(n_e, n_r, d, seed=seed + 900, dropout_rate=0.0)
    teacher = init_network_params(n_e, n_r, d, seed=seed + 901, dropout_rate=0.0)
    align = init_align_params(d, seed=seed + 902)
    cfg = TrainConfig(
        dim=d, epochs=1, batch_size=16, neighbors=2, dropout=0.0,
        reasoning_negatives=3, alignment_negatives=3, time_intervals=1,
        warmup_epochs_before_generation=0, split_train_steps=t_train,
        split_val_steps=1, split_test_steps=1, seed=seed,
        margin_reasoning=0.5 + 1.7e-3 * (seed % 7),
        margin_alignment=0.4 + 1.3e-3 * (seed % 5),
    )
    bank, _ = encode_trajectories_fwd(
        teacher, kg, np.arange(n_e), t_train, cfg.neighbors
    )
    pairs = AlignmentSet([])
    from tkgdistill.tkg import AlignmentPair

    gt_pairs = [AlignmentPair(0, 1), AlignmentPair(2, 3)]
    ps_pairs = [AlignmentPair(4, 5, "pseudo", 0.5)]
    batches = EpochBatches(quads[:4], quads[4:6], gt_pairs, ps_pairs)
    aligns = AlignmentSet(gt_pairs + ps_pairs)
    return kg, student, align, bank, aligns, batches, cfg


def _frozen_strengths(student, align, kg, bank, batches, cfg):
    all_targets = np.arange(student.n_entities)
    tgt, _ = encode_trajectories_fwd(
        student, kg, all_targets, cfg.split_train_steps, cfg.neighbors
    )
    h_s, _ = temporal_integrate_batch_fwd(align, bank)
    h_t, _ = temporal_integrate_batch_fwd(align, tgt)

    def beta(pairs):
        s = np.array([p.source_entity for p in pairs])
        t = np.array([p.target_entity for p in pairs])
        return strength_diagonal(h_s[s], h_t[t])

    return beta(batches.gt_pairs), beta(batches.ps_pairs)


def _combined_check(seed):
    kg, student, align, bank, aligns, batches, cfg = _grad_toy(seed)
    overrides = _frozen_strengths(student, align, kg, bank, batches, cfg)
    merged = {f"s.{k}": v for k, v in student.trainable().items()}
    merged.update({f"a.{k}": v for k, v in align.trainable().items()})

    args = (student, align, kg, bank, aligns, batches, cfg, seed, overrides)

    def lg(_):
        loss = combined_loss_and_grad(*args, with_grad=False)[0]

        def grads():
            # the differenced loss must be exactly this call's loss
            loss_g, sg, ag = combined_loss_and_grad(*args)
            assert loss_g == loss
            out = {f"s.{k}": v for k, v in sg.items()}
            out.update({f"a.{k}": v for k, v in ag.items()})
            return out

        return loss, grads

    return grad_check(lg, merged, step=1e-5, tol=1e-5)


def _reasoning_check(seed):
    from tkgdistill.scoring import (
        NegativeSamplerConfig,
        reasoning_loss_bwd,
        reasoning_loss_fwd,
    )

    kg, student, _, _, _, batches, cfg = _grad_toy(seed)
    neg = NegativeSamplerConfig(3)

    def lg(_):
        rng = np.random.default_rng(seed + 77)
        loss, cache = reasoning_loss_fwd(
            student, kg, batches.gt_quads, neg, cfg.margin_reasoning, rng,
            b=cfg.neighbors,
        )

        def grads():
            out = student.zero_grads()
            reasoning_loss_bwd(cache, student, out)
            return out

        return loss, grads

    return grad_check(lg, student.trainable(), 1e-5, 1e-5)


def _alignment_check(seed):
    from alignment_reference import alignment_step

    kg, student, align, bank, _, batches, cfg = _grad_toy(seed)
    beta_gt, _ = _frozen_strengths(student, align, kg, bank, batches, cfg)
    all_targets = np.arange(student.n_entities)
    tgt_trajs, _ = encode_trajectories_fwd(
        student, kg, all_targets, cfg.split_train_steps, cfg.neighbors
    )
    src = np.array([p.source_entity for p in batches.gt_pairs])
    tgt_ids = np.array([p.target_entity for p in batches.gt_pairs])
    excl = [{int(t)} for t in tgt_ids]
    params = {"phi." + k: v for k, v in align.trainable().items()}
    params["trajs"] = tgt_trajs

    def lg(p):
        rng = np.random.default_rng(seed + 31)
        loss, _, backward = alignment_step(
            align, bank[src], p["trajs"], tgt_ids, excl, 3,
            cfg.margin_alignment, rng, strength_override=beta_gt,
        )

        def grads():
            g = align.zero_grads()
            g_trajs = backward(g)
            out = {"phi." + k: v for k, v in g.items()}
            out["trajs"] = g_trajs
            return out

        return loss, grads

    return grad_check(lg, params, 1e-5, 1e-5)


def test_criterion_2_gradient_suite():
    with Clock() as c:
        worst = {"reasoning": 0.0, "alignment": 0.0, "combined": 0.0}
        refined = []
        for seed in range(20):
            for name, fn in (
                ("reasoning", _reasoning_check),
                ("alignment", _alignment_check),
                ("combined", _combined_check),
            ):
                rep = fn(seed)
                worst[name] = max(worst[name], rep.max_abs_err, rep.max_rel_err)
                assert rep.passed, f"{name} gradients failed at seed {seed}: {rep}"
                if rep.refined:
                    refined.append(f"seed {seed} {name} " + ", ".join(
                        f"{p}[{i}]@{h:.0e}" for p, i, h in rep.refined
                    ))
    detail = ", ".join(f"{k} worst {v:.2e}" for k, v in worst.items())
    detail += "; refined: " + ("; ".join(refined) or "none")
    report("C2 gradient suite (20 seeds x 3 losses)", True, detail, 120, c.elapsed)


def test_criterion_3_assignment_oracle():
    with Clock() as c:
        rng = np.random.default_rng(12345)
        for trial in range(100):
            sim = rng.uniform(-1.0, 1.0, size=(6, 6))
            table = CandidateTable(np.arange(6), np.arange(6), sim)
            res = generate_pseudo_alignments(
                table,
                PseudoGenConfig(top_k_budget=36, min_similarity=-2.0,
                                exact_solver_cap=16),
                AlignmentSet([]),
            )
            got = matching_total(
                sim, [(p.source_entity, p.target_entity) for p in res]
            )
            want = brute_force_best_matching(sim)
            assert got == want, f"trial {trial}: {got} != {want}"
    report("C3 assignment oracle (100 random 6x6)", True, "exact equality", 60,
           c.elapsed)


def test_criterion_4_causality_and_masking():
    with Clock() as c:
        rng = np.random.default_rng(777)
        violations = 0
        for trial in range(500):
            # temporal integration: row t invariant to future rows
            ap = init_align_params(4, seed=trial)
            t_len = int(rng.integers(2, 8))
            traj = rng.normal(size=(t_len, 4))
            cut = int(rng.integers(1, t_len))
            base, _ = temporal_integrate_batch_fwd(ap, traj[None])
            noisy = traj.copy()
            noisy[cut:] += rng.normal(size=(t_len - cut, 4)) * 3
            after, _ = temporal_integrate_batch_fwd(ap, noisy[None])
            if not np.allclose(base[0, :cut], after[0, :cut], atol=1e-12):
                violations += 1
        for trial in range(500):
            # encoder: representation at t invariant to events at >= t
            n_e, n_r, horizon = 6, 2, 8
            quads = []
            for _ in range(15):
                s, o = rng.choice(n_e, 2, replace=False)
                quads.append(
                    Quadruple(int(s), int(rng.integers(n_r)), int(o),
                              int(rng.integers(horizon)))
                )
            kg = TemporalKG(
                Vocabulary.integers(n_e), Vocabulary.integers(n_r), quads, horizon
            )
            params = init_network_params(n_e, n_r, 4, seed=trial, dropout_rate=0.0)
            e = int(rng.integers(n_e))
            t = int(rng.integers(1, horizon))
            base, _ = encode_batch_fwd(params, kg, np.array([e]), t, b=3)
            extra = list(quads) + [
                Quadruple(e, 0, (e + 1) % n_e, tt) for tt in range(t, horizon)
            ]
            after, _ = encode_batch_fwd(
                params, kg.with_quadruples(extra), np.array([e]), t, b=3
            )
            if not np.array_equal(base, after):
                violations += 1
    report(
        "C4 causality/masking (1000 randomized checks)", violations == 0,
        f"{violations} violations", 120, c.elapsed,
    )


# --- criteria 5-7: synthetic end-to-end behavior ----------------------------


def test_criterion_5_transfer_gain():
    with Clock() as c:
        out = transfer_gain_experiment(ExperimentConfig())
        gains = [f / p - 1 for f, p in zip(out["full"], out["pure_training"])]
        med = float(np.median(gains))
    report(
        "C5 end-to-end transfer gain (5 seeds)", med >= 0.10,
        f"median relative MRR gain {med:+.1%} "
        f"(full {np.median(out['full']):.4f} vs pure {np.median(out['pure_training']):.4f})",
        600, c.elapsed,
    )


def test_criterion_6_noise_robustness():
    with Clock() as c:
        rows = noise_sweep(ExperimentConfig(), [0.0, 0.2])
        drops = relative_drops(rows, 0.2)
    ok = drops["full"] <= drops["uniform_strength"]
    report(
        "C6 noise robustness at ratio 0.2 (5 seeds)", ok,
        f"median H@10 drop full {drops['full']:+.3f} vs "
        f"uniform-strength {drops['uniform_strength']:+.3f}", 900, c.elapsed,
    )


def test_criterion_7_pseudo_ratio_trend():
    with Clock() as c:
        rows = pseudo_ratio_sweep(
            ExperimentConfig(), [0.0, 0.4, 0.5], include_references=False
        )
        med = median_by_x(rows, "mpkd")
    ok = med[0.4] >= med[0.0]
    report(
        "C7 pseudo-ratio trend (5 seeds)", ok,
        f"median H@10 at 0.4 = {med[0.4]:.4f} vs at 0 = {med[0.0]:.4f} "
        f"(0.5 recorded: {med[0.5]:.4f})", 900, c.elapsed,
    )


def test_criterion_8_nce_decay():
    with Clock() as c:
        diag = DiagnosticConfig(negative_counts=(8, 32, 128, 512))
        rows, slope, epsilon = decay_experiment(diag, seed=0)
        devs = [d for _, d in rows]
    ok = devs == sorted(devs, reverse=True) and slope <= -0.3
    report(
        "C8 NCE decay diagnostic", ok,
        f"medians {['%.2e' % d for d in devs]}, slope {slope:.2f}, "
        f"epsilon {epsilon:.2f}", 120, c.elapsed,
    )


def test_criterion_9_determinism_and_formats(tmp_path):
    with Clock() as c:
        data = tmp_path / "data"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "dim = 8\nepochs = 2\nbatch_size = 32\nneighbors = 3\n"
            "dropout = 0.5\nreasoning_negatives = 3\nalignment_negatives = 4\n"
            "time_intervals = 2\nwarmup_epochs_before_generation = 1\n"
            "split_train_steps = 7\nsplit_val_steps = 1\nsplit_test_steps = 2\n"
        )

        def cli(*args):
            res = subprocess.run(
                [sys.executable, "-m", "tkgdistill.cli", *map(str, args)],
                capture_output=True, text=True,
            )
            assert res.returncode == 0, res.stderr
            return res

        cli("synth", "--entities", "20", "--relations", "4", "--steps", "10",
            "--train-steps", "7", "--events-per-step", "6", "--coverage",
            "0.25", "--seed", "3", "--out", data)
        outs = []  # two seeded trainings; eval ranks with 1 and with 4 threads
        for threads, name in ((1, "run1"), (4, "run4")):
            out = tmp_path / name
            cli("train", "--config", cfg, "--source", data / "source.tsv",
                "--target", data / "target.tsv", "--align",
                data / "alignment.tsv", "--seed", "5", "--out", out)
            cli("eval", "--checkpoint", out / "checkpoint.mpkd", "--history",
                data / "target.tsv", "--test", data / "target.tsv",
                "--neighbors", "3", "--threads", str(threads),
                "--out", out / "eval")
            outs.append(out)
        ckpt_same = (outs[0] / "checkpoint.mpkd").read_bytes() == (
            outs[1] / "checkpoint.mpkd"
        ).read_bytes()
        metrics_same = (outs[0] / "eval" / "metrics.json").read_bytes() == (
            outs[1] / "eval" / "metrics.json"
        ).read_bytes()

        # save -> load -> save byte stability
        from tkgdistill.checkpoint import load_checkpoint, save_checkpoint

        loaded = load_checkpoint(outs[0] / "checkpoint.mpkd")
        again = tmp_path / "again.mpkd"
        save_checkpoint(loaded, again)
        resave_same = again.read_bytes() == (
            outs[0] / "checkpoint.mpkd"
        ).read_bytes()
    report(
        "C9 determinism and formats", ckpt_same and metrics_same and resave_same,
        f"rerun checkpoint={ckpt_same} eval threads 1 vs 4 metrics={metrics_same} "
        f"resave={resave_same}", 300, c.elapsed,
    )


def test_criterion_10_metric_arithmetic():
    with Clock() as c:
        mrr, hits = metrics_from_ranks([1, 2, 4])
        ok = abs(mrr - 0.5833333333333334) <= 1e-9 and hits == 1.0
        mrr2, hits2 = metrics_from_ranks([3, 15])
        ok = ok and hits2 == 0.5 and abs(mrr2 - (1 / 3 + 1 / 15) / 2) <= 1e-12
    report("C10 metric arithmetic", ok, f"MRR([1,2,4]) = {mrr:.9f}", 5, c.elapsed)
