"""Print the traced memory peak of each phase of a training run.

For each seed this runs one ``experiments.run_transfer`` on each config of
``scripts/output_digest.py`` (desk, paper_dims, scale5x) under
``tracemalloc`` and prints, in MB, the largest peak of each phase over its
calls: teacher pretraining, the alignment fit and the distillation channel
(the ``_alignment_terms`` calls that ask for parameter gradients only and
for the target-trajectory gradient only), ``_reasoning_terms`` (student
batches), the all-target trajectory encodes (forward and backward), the
pseudo round, event transfer and validation, then the peak of the whole
run. A phase's peak is the largest traced size while it runs, memory held
by its caller included, so the phase holding the run's peak reads the
run's peak. Next to each peak, in brackets, are the minor page faults
(``ru_minflt``) taken during all of the phase's calls, nested calls
included, as the peaks are; the run's own count ends the line, so a fault
storm shows where it lands. A phase that never ran reads ``-``.

An ``eval`` line per seed follows: the generator and untrained d = 128
checkpoint of ``scripts/output_digest.py``'s ``eval`` line, ranked by an
in-process ``tkgdistill eval``, with the peak of ``evaluate`` and of the
whole command (checkpoint and TSV loading included). The last line is the
process's ``ru_maxrss``: the largest resident set of all runs together,
inflated by tracemalloc's own records.

    python3 scripts/memory_peaks.py --seeds 0 1
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import (  # noqa: E402  (pins BLAS before numpy)
    CONFIGS,
    EVAL_GENERATOR,
    eval_argv,
    run_eval,
)

import argparse  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402

from tkgdistill import cli, experiments, trainer  # noqa: E402
from tkgdistill.tkg import generate_synthetic_pair  # noqa: E402

MB = 1e6


def _alignment_phase(kwargs) -> str:
    """The caller of an ``_alignment_terms`` call, told by what it asks for."""
    if not kwargs.get("traj_grad", True):
        return "alignment_fit"
    if not kwargs.get("param_grads", True):
        return "distill_channel"
    return "_alignment_terms"


# (label, module, attribute): the module namespace the call is looked up in;
# a callable label names the phase from the call's keyword arguments
PHASES = (
    ("teacher", experiments, "pretrain_teacher"),
    (_alignment_phase, trainer, "_alignment_terms"),
    ("_reasoning_terms", trainer, "_reasoning_terms"),
    ("trajectory_encode_fwd", trainer, "encode_trajectories_fwd"),
    ("trajectory_encode_bwd", trainer, "encode_trajectories_bwd"),
    ("pseudo_round", trainer, "_generate_pseudo_round"),
    ("transfer", trainer, "transfer_events"),
    ("validation", trainer, "evaluate"),
)
# the phase of a ``tkgdistill eval``
EVAL_PHASES = (("evaluate", cli, "evaluate"),)
# the phases a run_transfer reaches, in print order
LABELS = ("teacher", "alignment_fit", "distill_channel") + tuple(
    label for label, _, _ in PHASES[2:]
)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class PeakTracker:
    """Per-label traced peaks and minor page faults of nested calls.

    ``tracemalloc`` keeps one peak, so each call resets it on entry and on
    exit; the peak an enclosing call would have seen is carried on a stack.
    A label's faults sum over its calls.
    """

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self.faults: dict[str, int] = {}
        self._stack = [0]

    def wrap(self, label, fn):
        def traced(*args, **kwargs):
            name = label(kwargs) if callable(label) else label
            self._stack[-1] = max(self._stack[-1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            self._stack.append(0)
            faults = _minflt()
            try:
                return fn(*args, **kwargs)
            finally:
                faults = _minflt() - faults
                self.faults[name] = self.faults.get(name, 0) + faults
                peak = max(self._stack.pop(), tracemalloc.get_traced_memory()[1])
                self.peaks[name] = max(self.peaks.get(name, 0), peak)
                self._stack[-1] = max(self._stack[-1], peak)
                tracemalloc.reset_peak()

        return traced

    def total(self) -> int:
        return max(self._stack[0], tracemalloc.get_traced_memory()[1])


def traced_call(phases, fn) -> tuple[PeakTracker, int, int]:
    """The phase tracker, whole-call peak (bytes) and minor page faults of
    ``fn()`` with each of ``phases`` wrapped."""
    tracker = PeakTracker()
    originals = [(module, name, getattr(module, name)) for _, module, name in phases]
    for label, module, name in phases:
        setattr(module, name, tracker.wrap(label, getattr(module, name)))
    tracemalloc.start()
    try:
        faults = _minflt()
        fn()
        faults = _minflt() - faults
        return tracker, tracker.total(), faults
    finally:
        tracemalloc.stop()
        for module, name, original in originals:
            setattr(module, name, original)


def _line(name: str, labels, traced: tuple[PeakTracker, int, int]) -> str:
    tracker, total, faults = traced
    cells = ", ".join(
        f"{label} {tracker.peaks[label] / MB:.1f} ({tracker.faults[label]})"
        if label in tracker.peaks else f"{label} -"
        for label in labels
    )
    return f"{name} peak MB: {cells}, run {total / MB:.1f}; ru_minflt {faults}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    for config, (gen, cfg) in CONFIGS.items():
        for seed in args.seeds:
            pair = generate_synthetic_pair(gen, seed)
            traced = traced_call(PHASES, lambda: experiments.run_transfer(
                pair, replace(cfg, seed=seed), experiments.TeacherBank()))
            print(_line(f"{config} seed {seed}", LABELS, traced), flush=True)
    for seed in args.seeds:
        pair = generate_synthetic_pair(EVAL_GENERATOR, seed)
        with tempfile.TemporaryDirectory() as tmp:
            argv = eval_argv(pair, seed, Path(tmp))
            traced = traced_call(EVAL_PHASES, lambda: run_eval(argv))
        print(_line(f"eval seed {seed}", ("evaluate",), traced), flush=True)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"ru_maxrss {maxrss_kb * 1024 / MB:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
