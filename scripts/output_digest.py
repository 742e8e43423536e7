"""Print digests of a run's outputs, so two checkouts can be compared bitwise.

For each seed this runs one ``experiments.run_transfer`` on the desk config
(6 epochs, generation from epoch 2), one on the paper_dims config (1 epoch)
and one on the scale5x config (1,000 entities per side, 1 epoch), the
generators and training schedules of the perfbench workloads of the same
names, and prints sha256 prefixes of the teacher, student and alignment
parameter bytes and of the MetricsReport JSON without ``config_digest``
(which changes whenever a TrainConfig field is added or removed).

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
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tkgdistill import experiments  # noqa: E402
from tkgdistill.tkg import GeneratorConfig, generate_synthetic_pair  # noqa: E402
from tkgdistill.trainer import TrainConfig  # noqa: E402

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _params_sha(params) -> str:
    return _sha(b"".join(a.tobytes() for a in params.trainable().values()))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args()
    for name, (gen, cfg) in CONFIGS.items():
        for seed in args.seeds:
            pair = generate_synthetic_pair(gen, seed)
            report, state = experiments.run_transfer(
                pair, replace(cfg, seed=seed), experiments.TeacherBank()
            )
            doc = json.loads(report.to_json())
            del doc["config_digest"]
            report_bytes = json.dumps(doc, sort_keys=True).encode()
            print(
                f"{name} seed {seed}: teacher {_params_sha(state.teacher)} "
                f"student {_params_sha(state.student)} "
                f"align {_params_sha(state.align)} report {_sha(report_bytes)}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
