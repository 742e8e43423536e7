"""Print digests of a run's outputs, so two checkouts can be compared bitwise.

A ``pair`` line per config and seed covers the generator alone: sha256
prefixes of the dumped source, full target and incomplete target TSVs and
of the alignment file, so a generator change shows without training.

For each seed this runs one ``experiments.run_transfer`` on the desk config
(6 epochs, generation from epoch 2), one on the paper_dims config (1 epoch)
and one on the scale5x config (1,000 entities per side, 1 epoch), the
generators and training schedules of the perfbench workloads of the same
names, and prints sha256 prefixes of the teacher, student and alignment
parameter bytes and of the MetricsReport JSON without ``config_digest``
(which changes whenever a TrainConfig field is added or removed). A
``uniform`` and a ``pure`` line per seed follow each desk line: the desk
config on the same pair under the ``uniform_strength`` and the
``pure_training`` ablation presets, the comparison arms of the
noise-robustness and the transfer-gain criteria.

An ``eval`` line per seed, after its own ``pair`` line, covers the
read-only path: the generator and untrained d=128 checkpoint of the
eval_ckpt perfbench workload, ranked by an in-process ``tkgdistill eval``,
digested as its ``metrics.json`` without ``config_digest``.

    python3 scripts/output_digest.py --seeds 0 1

The package is imported from this checkout's ``src/``, so running the same
command in two checkouts and diffing the output shows whether a change
moved any output.
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tkgdistill import cli, experiments  # noqa: E402
from tkgdistill.alignment import init_align_params  # noqa: E402
from tkgdistill.checkpoint import Checkpoint, save_checkpoint  # noqa: E402
from tkgdistill.encoder import init_network_params  # noqa: E402
from tkgdistill.tkg import (  # noqa: E402
    GeneratorConfig,
    dump_alignments,
    dump_quadruples,
    generate_synthetic_pair,
    split_by_time,
)
from tkgdistill.trainer import ABLATIONS, TrainConfig  # noqa: E402

CONFIGS = {
    "desk": (
        experiments.DESK_GENERATOR,
        replace(experiments.DESK_TRAIN, epochs=6, warmup_epochs_before_generation=2),
    ),
    "paper_dims": (
        GeneratorConfig(coverage=0.3),
        TrainConfig(epochs=1, warmup_epochs_before_generation=0),
    ),
    "scale5x": (
        replace(
            experiments.DESK_GENERATOR, source_entities=1000, target_entities=1000,
            events_per_step=125, target_background_per_step=20,
        ),
        replace(experiments.DESK_TRAIN, epochs=1, warmup_epochs_before_generation=0),
    ),
}


EVAL_GENERATOR = GeneratorConfig(
    source_entities=2000, target_entities=2000, events_per_step=200,
    target_background_per_step=280,
)
EVAL_DIM = 128


def _report_sha(report_json: str) -> str:
    doc = json.loads(report_json)
    del doc["config_digest"]
    return _sha(json.dumps(doc, sort_keys=True).encode())


def _pair_digest(pair) -> str:
    """sha256 prefixes of the pair's dumped graphs and alignment file."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        parts = {"source": pair.source, "full": pair.target_full,
                 "incomplete": pair.target_incomplete}
        for name, kg in parts.items():
            dump_quadruples(kg, work / name)
        dump_alignments(pair.alignments, pair.source.entities,
                        pair.target_full.entities, work / "align")
        return " ".join(
            f"{name} {_sha((work / name).read_bytes())}" for name in [*parts, "align"]
        )


def eval_argv(pair, seed: int, work: Path) -> list[str]:
    """Write a seeded, untrained checkpoint, the full target graph as
    history and its test span as test into ``work``; return the
    ``tkgdistill eval`` arguments that rank them into ``work / "eval"``."""
    kg = pair.target_full
    _, _, test = split_by_time(kg, TrainConfig().split())
    n_rel = len(kg.relations)
    dump_quadruples(kg, work / "history.tsv")
    dump_quadruples(test, work / "test.tsv")
    save_checkpoint(Checkpoint(
        init_network_params(len(pair.source.entities), n_rel, EVAL_DIM, seed + 1),
        init_network_params(len(kg.entities), n_rel, EVAL_DIM, seed + 2),
        init_align_params(EVAL_DIM, seed + 3),
        pair.source.entities, kg.entities, kg.relations,
        TrainConfig(dim=EVAL_DIM).digest(), seed,
    ), work / "checkpoint.mpkd")
    return [
        "eval", "--checkpoint", str(work / "checkpoint.mpkd"),
        "--history", str(work / "history.tsv"), "--test", str(work / "test.tsv"),
        "--out", str(work / "eval"),
    ]


def run_eval(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"tkgdistill eval exited with {rc}")


def _eval_digest(pair, seed: int) -> str:
    """The digest of ``tkgdistill eval`` on the ``eval_argv`` inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run_eval(eval_argv(pair, seed, work))
        return _report_sha((work / "eval" / "metrics.json").read_text(encoding="utf-8"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _params_sha(params) -> str:
    return _sha(b"".join(a.tobytes() for a in params.trainable().values()))


def _run_line(name: str, pair, cfg: TrainConfig) -> str:
    report, state = experiments.run_transfer(pair, cfg, experiments.TeacherBank())
    return (
        f"{name} seed {cfg.seed}: teacher {_params_sha(state.teacher)} "
        f"student {_params_sha(state.student)} "
        f"align {_params_sha(state.align)} "
        f"report {_report_sha(report.to_json())}"
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args()
    for name, (gen, cfg) in CONFIGS.items():
        for seed in args.seeds:
            pair = generate_synthetic_pair(gen, seed)
            print(f"pair {name} seed {seed}: {_pair_digest(pair)}", flush=True)
            print(_run_line(name, pair, replace(cfg, seed=seed)), flush=True)
            if name == "desk":
                for line, ablation in (("uniform", "uniform_strength"),
                                       ("pure", "pure_training")):
                    arm = replace(cfg, seed=seed, **ABLATIONS[ablation])
                    print(_run_line(line, pair, arm), flush=True)
    for seed in args.seeds:
        pair = generate_synthetic_pair(EVAL_GENERATOR, seed)
        print(f"pair eval seed {seed}: {_pair_digest(pair)}", flush=True)
        print(f"eval seed {seed}: metrics {_eval_digest(pair, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
