import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from tkgdistill import cli, evaluation, experiments
from tkgdistill.alignment import init_align_params
from tkgdistill.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from tkgdistill.encoder import init_network_params
from tkgdistill.tkg import TemporalKG, Vocabulary


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tkgdistill.cli", *map(str, args)],
        capture_output=True, text=True,
    )


SYNTH_FLAGS = [
    "synth", "--entities", "24", "--relations", "4", "--steps", "10",
    "--train-steps", "7", "--events-per-step", "6", "--coverage", "0.25",
    "--seed", "7",
]

TRAIN_CFG = (
    "dim = 8\nepochs = 2\nbatch_size = 32\nneighbors = 3\ndropout = 0.0\n"
    "reasoning_negatives = 3\nalignment_negatives = 4\ntime_intervals = 2\n"
    "warmup_epochs_before_generation = 1\nsplit_train_steps = 7\n"
    "split_val_steps = 1\nsplit_test_steps = 2\npatience = 5\n"
)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    res = run_cli(*SYNTH_FLAGS, "--out", out)
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "cfg.ini"
    cfg.write_text(TRAIN_CFG)
    res = run_cli(
        "train", "--config", cfg, "--source", synth_dir / "source.tsv",
        "--target", synth_dir / "target.tsv", "--align",
        synth_dir / "alignment.tsv", "--seed", "1", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    return out


class TestSynth:
    def test_writes_expected_files(self, synth_dir):
        for name in ("source.tsv", "target.tsv", "alignment.tsv", "manifest.json"):
            assert (synth_dir / name).exists()

    def test_coverage_line_count(self, synth_dir):
        lines = (synth_dir / "alignment.tsv").read_text().strip().splitlines()
        assert len(lines) == 6  # 25% of 24 entities

    def test_deterministic_manifest(self, tmp_path, synth_dir):
        out2 = tmp_path / "again"
        res = run_cli(*SYNTH_FLAGS, "--out", out2)
        assert res.returncode == 0
        assert (out2 / "manifest.json").read_bytes() == (
            synth_dir / "manifest.json"
        ).read_bytes()

    @pytest.mark.parametrize("argv", [
        ("synth", "--seed", "-1"), ("experiment", "nce-decay", "--seed", "-2"),
    ], ids=["synth", "experiment"])
    def test_negative_seed_rejected(self, tmp_path, argv):
        out = tmp_path / "out"
        res = run_cli(*argv, "--out", out)
        assert res.returncode == 2
        assert f"argument --seed: must be >= 0, got {argv[-1]}" in res.stderr
        assert not out.exists()


class TestTrain:
    def test_outputs(self, train_dir):
        assert (train_dir / "checkpoint.mpkd").exists()
        assert (train_dir / "checkpoint.mpkd.json").exists()
        log = (train_dir / "log.tsv").read_text().splitlines()
        assert log[0].split("\t") == [
            "epoch", "phase", "loss", "val_mrr", "pseudo_count",
            "transferred_count",
        ]
        assert len(log) > 1
        audit = (train_dir / "pseudo_audit.tsv").read_text().splitlines()
        assert audit[0].split("\t") == ["round", "source", "target", "similarity"]

    def test_manifest_digests_every_output(self, train_dir):
        manifest = json.loads((train_dir / "manifest.json").read_text())
        written = ("checkpoint.mpkd", "checkpoint.mpkd.json", "log.tsv",
                   "pseudo_audit.tsv")
        assert manifest["files"] == {
            name: hashlib.sha256((train_dir / name).read_bytes()).hexdigest()
            for name in written
        }

    def test_ablation_flag_yields_zero_pseudo(self, tmp_path, synth_dir):
        out = tmp_path / "pure"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TRAIN_CFG)
        res = run_cli(
            "train", "--config", cfg, "--source", synth_dir / "source.tsv",
            "--target", synth_dir / "target.tsv", "--align",
            synth_dir / "alignment.tsv", "--ablation", "pure_training",
            "--seed", "1", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        rows = (out / "log.tsv").read_text().splitlines()[1:]
        assert all(row.split("\t")[4:] == ["0", "0"] for row in rows)
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["pseudo_fraction_start"] == config["pseudo_fraction_end"] == 0.0
        assert config["no_event_transfer"] is True

    def test_threads_flag_rejected(self, tmp_path, synth_dir):
        res = run_cli(
            "train", "--threads", "1", "--source", synth_dir / "source.tsv",
            "--target", synth_dir / "target.tsv", "--align",
            synth_dir / "alignment.tsv", "--out", tmp_path / "out",
        )
        assert res.returncode == 2
        assert "unrecognized arguments: --threads 1" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc = cli.main([
            "train", "--source", str(tmp_path / "source.tsv"),
            "--target", str(tmp_path / "target.tsv"),
            "--align", str(tmp_path / "alignment.tsv"),
            "--seed", "-1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_seeded_reruns_identical_checkpoints(self, tmp_path, synth_dir, train_dir):
        out2 = tmp_path / "rerun"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TRAIN_CFG)
        res = run_cli(
            "train", "--config", cfg, "--source", synth_dir / "source.tsv",
            "--target", synth_dir / "target.tsv", "--align",
            synth_dir / "alignment.tsv", "--seed", "1", "--out", out2,
        )
        assert res.returncode == 0, res.stderr
        assert (out2 / "checkpoint.mpkd").read_bytes() == (
            train_dir / "checkpoint.mpkd"
        ).read_bytes()


class TestLoadBilingual:
    def test_eventless_aligned_entity_is_in_the_built_graph(self, tmp_path, monkeypatch):
        for name, text in (("source", "s0\tr\ts1\t0\n"), ("target", "t0\tr\tt1\t1\n"),
                           ("align", "s0\tt0\ns1\tt9\n")):
            (tmp_path / f"{name}.tsv").write_text(text)
        built = {}  # id of each graph -> its vocabulary size at construction
        init = TemporalKG.__init__

        def spy(self, entities, *rest):
            init(self, entities, *rest)
            built[id(self)] = len(entities)

        monkeypatch.setattr(TemporalKG, "__init__", spy)
        args = argparse.Namespace(**{n: tmp_path / f"{n}.tsv"
                                     for n in ("source", "target", "align")})
        source, target, alignments = cli._load_bilingual(args, 4)
        assert target.entities.symbols() == ["t0", "t1", "t9"]
        assert alignments.pairs[1].target_entity == 2
        for kg in (source, target):
            assert built[id(kg)] == len(kg.entities)
            assert kg.entities.frozen and kg.relations.frozen
            with pytest.raises(KeyError, match="frozen"):
                kg.entities.add("later")


class TestEval:
    def test_metrics_document(self, tmp_path, synth_dir, train_dir):
        out = tmp_path / "eval"
        res = run_cli(
            "eval", "--checkpoint", train_dir / "checkpoint.mpkd",
            "--history", synth_dir / "target.tsv",
            "--test", synth_dir / "target.tsv",
            "--neighbors", "3", "--per-step", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc) == {
            "mrr", "hits10", "query_count", "per_step", "config_digest", "seed"
        }
        assert (out / "per_step.csv").read_text().startswith("time,mrr,hits10")

    @pytest.mark.parametrize("flag, value", [
        ("--neighbors", "0"), ("--neighbors", "-1"), ("--threads", "0"),
        ("--threads", "-2"),
    ])
    def test_counts_below_one_rejected(self, tmp_path, synth_dir, train_dir,
                                       flag, value):
        out = tmp_path / "eval"
        res = run_cli(
            "eval", "--checkpoint", train_dir / "checkpoint.mpkd",
            "--history", synth_dir / "target.tsv",
            "--test", synth_dir / "target.tsv", flag, value, "--out", out,
        )
        assert res.returncode == 2
        assert f"argument {flag}: must be at least 1, got {value}" in res.stderr
        assert not out.exists()

    def test_threads_default_and_serial_run(
        self, tmp_path, synth_dir, train_dir, monkeypatch
    ):
        def argv(name, *extra):
            return [
                "eval", "--checkpoint", str(train_dir / "checkpoint.mpkd"),
                "--history", str(synth_dir / "target.tsv"),
                "--test", str(synth_dir / "target.tsv"), "--neighbors", "3",
                *extra, "--out", str(tmp_path / name),
            ]

        # the parser builds where os has no sched_getaffinity (not Linux)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli.build_parser().parse_args(argv("x")).threads == 2
        monkeypatch.setattr(evaluation, "usable_cores", lambda: 2)
        monkeypatch.setattr(evaluation, "WORKER_MIN_CELLS", 0)
        rank = evaluation.ranks_of
        idents = {"serial": set(), "default": set()}

        for name, extra in (("serial", ("--threads", "1")), ("default", ())):
            def spy(*args, name=name):
                idents[name].add(threading.get_ident())
                return rank(*args)

            monkeypatch.setattr(evaluation, "ranks_of", spy)
            assert cli.main(argv(name, *extra)) == 0
        main = {threading.get_ident()}
        assert idents["serial"] == main and idents["default"] - main
        assert ((tmp_path / "default" / "metrics.json").read_bytes()
                == (tmp_path / "serial" / "metrics.json").read_bytes())

    def test_one_neighbor(self, tmp_path, synth_dir, train_dir):
        out = tmp_path / "eval"
        res = run_cli(
            "eval", "--checkpoint", train_dir / "checkpoint.mpkd",
            "--history", synth_dir / "target.tsv",
            "--test", synth_dir / "target.tsv", "--neighbors", "1", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        assert json.loads((out / "metrics.json").read_text())["query_count"] > 0

    def test_unknown_symbol_rejected_by_frozen_vocabulary(
        self, tmp_path, synth_dir, train_dir
    ):
        test = tmp_path / "test.tsv"
        first = (synth_dir / "target.tsv").read_text().splitlines()[0]
        test.write_text(f"{first}\nnot-an-entity\t0\t0\t9\n")
        res = run_cli(
            "eval", "--checkpoint", train_dir / "checkpoint.mpkd",
            "--history", synth_dir / "target.tsv", "--test", test,
            "--out", tmp_path / "eval",
        )
        assert res.returncode == 1
        assert (f"{test}:2: unknown symbol 'not-an-entity' (vocabulary is frozen)"
                in res.stderr)

    def test_corrupted_magic_fails_cleanly(self, tmp_path, train_dir):
        bad = tmp_path / "bad.mpkd"
        data = bytearray((train_dir / "checkpoint.mpkd").read_bytes())
        data[:5] = b"WRONG"
        bad.write_bytes(bytes(data))
        (tmp_path / "bad.mpkd.json").write_text(
            (train_dir / "checkpoint.mpkd.json").read_text()
        )
        res = run_cli(
            "eval", "--checkpoint", bad, "--history", bad, "--test", bad,
            "--out", tmp_path / "x",
        )
        assert res.returncode == 1
        assert "magic" in res.stderr


class TestExperimentCommand:
    def test_unknown_name_rejected(self, tmp_path):
        res = run_cli("experiment", "spaghetti", "--out", tmp_path)
        assert res.returncode != 0

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "0"), ("--seeds", "-1"), ("--epochs", "0"),
    ])
    def test_counts_below_one_rejected(self, tmp_path, flag, value):
        out = tmp_path / "out"
        res = run_cli("experiment", "nce-decay", flag, value, "--out", out)
        assert res.returncode == 2
        assert f"argument {flag}: must be at least 1, got {value}" in res.stderr
        assert not out.exists()

    def test_nce_decay_rows(self, tmp_path):
        res = run_cli(
            "experiment", "nce-decay", "--N", "8,32,64", "--out", tmp_path
        )
        assert res.returncode == 0, res.stderr
        rows = (tmp_path / "nce_decay.csv").read_text().splitlines()
        assert rows[0] == "x,variant,seed,value"
        assert len(rows) == 4
        summary = json.loads((tmp_path / "nce_decay_summary.json").read_text())
        assert "slope" in summary and "epsilon" in summary


    @pytest.mark.parametrize("name, flag, values, bad", [
        ("noise", "--ratios", "0.1,0.2", "noise values"),
        ("pseudo-ratio", "--fractions", "0.4,0", "pseudo_fraction values"),
    ])
    def test_sweep_values_must_start_at_zero(self, tmp_path, name, flag, values, bad):
        res = run_cli(
            "experiment", name, flag, values, "--seeds", "1", "--epochs", "1",
            "--out", tmp_path,
        )
        assert res.returncode == 1
        got = [float(v) for v in values.split(",")]
        assert f"{bad} must be ascending and start at 0, got {got}" in res.stderr
        assert list(tmp_path.iterdir()) == []  # rejected before any training

    @pytest.mark.parametrize("name, flag, values, stem, want", [
        ("noise", "--ratios", "0,0.2", "noise", [
            (0.0, "full"), (0.0, "uniform_strength"),
            (0.2, "full"), (0.2, "uniform_strength"),
        ]),
        ("pseudo-ratio", "--fractions", "0,0.4", "pseudo_ratio", [
            (0.0, "mpkd"), (0.4, "mpkd"),
            (-1.0, "ref_full_target"), (-1.0, "ref_incomplete_target"),
        ]),
    ])
    def test_sweep_rows_and_summary(self, tmp_path, name, flag, values, stem, want):
        res = run_cli(
            "experiment", name, flag, values, "--seeds", "1", "--epochs", "1",
            "--out", tmp_path,
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / f"{stem}.csv").read_text().splitlines()
        assert lines[0] == "x,variant,seed,value"
        parsed = [line.split(",") for line in lines[1:]]
        assert [(float(x), v, int(s)) for x, v, s, _ in parsed] == [
            (x, v, 0) for x, v in want
        ]
        # the value column is Hits@10; sweep rows carry MRR before it
        rows = [(float(x), v, int(s), None, float(h)) for x, v, s, h in parsed]
        summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
        if name == "noise":
            assert summary == {"drops": {"0.2": experiments.relative_drops(rows, 0.2)}}
        else:
            med = experiments.median_by_x(rows, "mpkd")
            assert summary == {"median_hits10": {str(x): m for x, m in med.items()}}


class TestCheckpointRoundTrip:
    def _make(self):
        teacher = init_network_params(5, 3, 4, seed=0)
        student = init_network_params(6, 3, 4, seed=1)
        align = init_align_params(4, seed=2)
        return Checkpoint(
            teacher, student, align,
            Vocabulary.integers(5), Vocabulary.integers(6),
            Vocabulary.integers(3), "deadbeef", 42,
        )

    def test_save_load_save_identical_bytes(self, tmp_path):
        ckpt = self._make()
        p1 = tmp_path / "a.mpkd"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        p2 = tmp_path / "b.mpkd"
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.mpkd.json").read_bytes() == (
            tmp_path / "b.mpkd.json"
        ).read_bytes()

    def test_float32_precision_round_trip(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "c.mpkd"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        want = ckpt.teacher.entity_emb.astype("<f4").astype(np.float64)
        assert np.array_equal(loaded.teacher.entity_emb, want)
        assert loaded.seed == 42 and loaded.config_digest == "deadbeef"

    def test_digest_mismatch_detected(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "d.mpkd"
        save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="digest"):
            load_checkpoint(path)

    def test_vocabularies_restored(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "e.mpkd"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.target_entities.symbols() == [str(i) for i in range(6)]
        assert len(loaded.relations) == 3
