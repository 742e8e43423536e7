#!/usr/bin/env python3
"""tkgdistill benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

Builds the workload's inputs from the seed (set-up, repeated and timed),
then repeats the workload's user operation for about ``--seconds`` seconds.
With ``--trace 0`` only the three phase boundaries of a transfer run are
timed and the end-to-end metrics are reported; with ``--trace 1`` untraced
repeats alternate with repeats that have every layer patch point active,
and the per-layer metrics are reported. Every repeat's MetricsReport JSON
must be byte-identical, and every output check must pass, or the run exits 1.

Standard output: a machine line, a full report line (every metric named in
perfbench/README.md, with units and check results), and last the result
line ``{"correct", "attempted", "failed", "metrics"}``. The report and, for
traced runs, the spans are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# set-ups before the first repeat (each repeat adds one): at least 3, and
# more while they take under SETUP_SECONDS in all, up to 20
SETUP_SECONDS = 2.0
SELF_SUM_TOLERANCE = 0.01  # traced self times must sum to run_s within 1%


class Refused(Exception):
    """The run cannot start: the environment would make its numbers invalid."""


def pin_blas() -> None:
    """Pin every BLAS pool to one thread before numpy loads, as cli.py does."""
    if "numpy" in sys.modules:
        raise Refused("numpy was imported before the BLAS thread pools were pinned")
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tkgdistill
    except ImportError as exc:
        raise Refused(f"cannot import tkgdistill from {src}: {exc}") from None
    if Path(tkgdistill.__file__).resolve().parent.parent != src:
        raise Refused(f"tkgdistill was imported from {tkgdistill.__file__}, not {src}")


def openblas_threads() -> int | None:
    """Thread count reported by each loaded OpenBLAS (None if none is found)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line
            })
    except OSError:
        return None
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def machine_block() -> dict:
    import numpy
    import scipy
    import scipy.optimize  # loads scipy's own BLAS, if it bundles one

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    threads = openblas_threads()
    if threads is not None and threads != 1:
        raise Refused(f"OpenBLAS reports {threads} threads after pinning")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "openblas_threads": threads,
    }


# --------------------------------------------------------------------------
# Metric catalogue
# --------------------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# reported on the report line, not bounded (see README.md for why)
E2E_EXTRA_UNITS = {
    "teacher_s": "s", "student_s": "s", "eval_s": "s", "eval_queries_per_s": "1/s",
    "test_mrr": "ratio", "test_hits10": "ratio", "failed_frac": "ratio",
}
SPANS = (
    "scoring.reasoning_loss_fwd", "scoring.reasoning_loss_bwd",
    "encoder.encode_many_fwd", "encoder.encode_many_bwd",
    "encoder.encode_trajectories_fwd", "encoder.encode_trajectories_bwd",
    "encoder.encode_batch_fwd",
    "alignment.alignment_loss_fwd", "alignment.alignment_loss_bwd",
    "alignment.temporal_integrate_batch_fwd",
    "distill.transfer_events", "distill.generate_pseudo_alignments",
    "distill.candidate_targets",
    "evaluation.evaluate", "evaluation.score_object_queries",
    "evaluation.EncodingCache.at",
    "tkg.neighbor_arrays", "tkg.with_quadruples", "tkg.load_quadruples",
    "tkg.generate_synthetic_pair",
    "checkpoint.load_checkpoint", "checkpoint.save_checkpoint",
    "trainer.pretrain_teacher", "trainer.train_mpkd", "numerics.adam_step",
    "experiments.run_transfer", "cli.main",
)
COUNT_UNITS = {
    "scoring.unique_rows": "count", "scoring.row_reuse": "ratio",
    "alignment.neg_block_bytes": "B",
    "distill.transfer_scanned": "count", "distill.transfer_yield": "ratio",
    "distill.top1_queries": "count", "distill.matcher_cells": "count",
    "distill.matcher_greedy_calls": "count", "distill.matcher_exact_calls": "count",
    "distill.candidate_pool": "count", "evaluation.cache_hit_ratio": "ratio",
    "checkpoint.save_bytes": "B", "checkpoint.load_bytes": "B",
}
TRACE_UNITS = {
    "trace.overhead_s": "s", "trace.unattributed_share": "ratio",
    "trace.self_sum_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    from tracer import MODULES

    units = {}
    for name in SPANS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s",
                      f"{name}.self_s": "s"})
    units.update(COUNT_UNITS)
    for m in MODULES:
        units.update({f"{m}.self_s": "s", f"{m}.entry_s": "s"})
    units.update(TRACE_UNITS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(prof) -> dict[str, float]:
    """Additive per-layer figures of one repeat (ratios are formed later)."""
    from tracer import MODULES

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = prof.calls.get(name, 0)
        out[f"{name}.s"] = prof.total.get(name, 0.0)
        out[f"{name}.self_s"] = prof.self_time.get(name, 0.0)
    mods = prof.module_self()
    for m in MODULES:
        out[f"{m}.self_s"] = mods[m]
        out[f"{m}.entry_s"] = prof.entry[m]
    out.update(prof.counters)
    out["distill.top1_queries"] = prof.child_calls(
        "distill.transfer_events", "evaluation.score_object_queries")
    out["evaluation.cache_misses"] = prof.child_calls(
        "evaluation.EncodingCache.at", "encoder.encode_batch_fwd")
    return out


def per_layer_metrics(setup_profiles, run_profiles, untraced_run_s) -> dict:
    """Median over traced repeats of each figure, set-up and operation summed."""
    def medians(profiles):
        figs = [layer_figures(p) for p in profiles]
        return {k: statistics.median(f[k] for f in figs) for k in figs[0]}

    setup, run = medians(setup_profiles), medians(run_profiles)
    fig = {k: setup[k] + run[k] for k in run}
    # a peak, not a sum
    fig["alignment.neg_block_bytes"] = run["alignment.neg_block_bytes"]
    fig["scoring.row_reuse"] = _ratio(fig["scoring.rows_consumed"],
                                      fig["scoring.unique_rows"])
    fig["distill.transfer_yield"] = _ratio(fig["distill.transfer_emitted"],
                                           fig["distill.transfer_scanned"])
    at_calls = fig["evaluation.EncodingCache.at.calls"]
    fig["evaluation.cache_hit_ratio"] = _ratio(
        at_calls - fig["evaluation.cache_misses"], at_calls)
    traced_run_s = statistics.median(p.root_s for p in run_profiles)
    fig["trace.overhead_s"] = traced_run_s - untraced_run_s
    fig["trace.self_sum_share"] = statistics.median(
        sum(p.self_time.values()) / p.root_s for p in run_profiles)
    fig["trace.unattributed_share"] = statistics.median(
        sum(p.self_time.get(n, 0.0) for n in ("experiments.run_transfer", "cli.main"))
        / p.root_s for p in run_profiles)
    return fig


def e2e_figures(rep) -> dict[str, float]:
    prof = rep.run
    if "experiments.run_transfer" in prof.total:
        run_s = prof.total["experiments.run_transfer"]
        eval_s = prof.pair_s.get(("experiments.run_transfer", "evaluation.evaluate"), 0.0)
    else:
        run_s = eval_s = prof.total["cli.main"]
    return {
        "run_s": run_s,
        "teacher_s": prof.total.get("trainer.pretrain_teacher", 0.0),
        "student_s": prof.total.get("trainer.train_mpkd", 0.0),
        "eval_s": eval_s,
        "eval_queries_per_s": _ratio(rep.outcome.queries, eval_s),
    }


def _as_number(value: float, unit: str):
    return int(round(value)) if unit in ("count", "B") else value


# --------------------------------------------------------------------------
# The run
# --------------------------------------------------------------------------


@dataclass
class Repeat:
    traced: bool
    setup_s: float
    setup: object  # RunProfile of the set-up
    run: object  # RunProfile of the operation
    outcome: object  # workloads.Outcome


def measure(workload, args, workdir: Path) -> tuple[list[float], list, list[str], int]:
    """Set up and run repeatedly for about ``args.seconds``.

    Every repeat gets freshly generated inputs, because the graphs cache
    lazily built tables that a user's single run would have to build too.
    In traced mode repeats alternate untraced, traced, untraced, ...
    Returns (extra set-up seconds, repeats, problems, attempted, patch
    points not found).
    """
    from tracer import LAYER_POINTS, PHASE_POINTS, Tracer, profile

    tracers = {False: Tracer(PHASE_POINTS), True: Tracer(LAYER_POINTS)}
    problems: list[str] = []

    def traced_call(tracer, run_id, fn, *fn_args):
        with tracer:
            tracer.begin(run_id)
            t0 = perf_counter()
            out = fn(tracer, *fn_args)
            seconds = perf_counter() - t0
        return out, seconds, profile(tracer, run_id)

    extra_setup_s: list[float] = []
    while len(extra_setup_s) < 3 or (
        len(extra_setup_s) < 20 and sum(extra_setup_s) < SETUP_SECONDS
    ):
        _, seconds, _ = traced_call(tracers[False], f"warm{len(extra_setup_s)}",
                                    workload.setup, args.seed, workdir)
        extra_setup_s.append(seconds)

    reps: list[Repeat] = []
    attempted = 0
    t_start = perf_counter()
    while True:
        use_layers = bool(args.trace) and len(reps) % 2 == 1
        tracer = tracers[use_layers]
        attempted += 1
        try:
            inputs, setup_s, setup_prof = traced_call(
                tracer, f"setup{attempted}", workload.setup, args.seed, workdir)
            outcome, _, run_prof = traced_call(
                tracer, f"run{attempted}", workload.run, inputs)
        except Exception as exc:  # reported as a failed repeat
            problems.append(f"repeat {attempted} raised {type(exc).__name__}: {exc}")
            break
        del inputs
        problems.extend(f"repeat {attempted}: {p}" for p in outcome.problems)
        reps.append(Repeat(use_layers, setup_s, setup_prof, run_prof, outcome))
        elapsed = perf_counter() - t_start
        typical = elapsed / len(reps)
        enough = len(reps) >= 2
        if enough and elapsed + typical > args.seconds:
            break
    missing = sorted({m for tracer in tracers.values() for m in tracer.missing})
    if args.trace and reps:
        tag = f"{args.workload}-seed{args.seed}-trace1"
        tracers[True].write(OUT / f"{tag}-spans.jsonl")
    return extra_setup_s, reps, problems, attempted, missing


def run_benchmark(args) -> tuple[dict, dict]:
    import resource

    from workloads import build

    workload = build(args.size)[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        extra_setup_s, reps, problems, attempted, missing = measure(
            workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for r in reps if r.outcome.problems) + (attempted - len(reps))

    digests = {hashlib.sha256(r.outcome.report_json.encode()).hexdigest()
               for r in reps}
    if len(digests) > 1:
        problems.append(
            f"MetricsReport JSON differs across {len(reps)} repeats "
            f"({len(digests)} distinct); traced and untraced repeats included")

    full: dict[str, dict] = {}
    result_metrics: dict[str, dict] = {}
    untraced = [r for r in reps if not r.traced]
    if untraced:
        report = json.loads(reps[0].outcome.report_json)
        figs = [e2e_figures(r) for r in untraced]
        e2e = {k: statistics.median(f[k] for f in figs) for k in figs[0]}
        e2e["setup_s"] = statistics.median(
            extra_setup_s + [r.setup_s for r in untraced])
        e2e["peak_rss_mb"] = peak_rss_mb
        e2e["test_mrr"] = report["mrr"]
        e2e["test_hits10"] = report["hits10"]
        e2e["failed_frac"] = failed / attempted
        units = {**E2E_UNITS, **E2E_EXTRA_UNITS}
        full.update({k: {"value": e2e[k], "unit": u} for k, u in units.items()})
        result_metrics = {k: full[k] for k in E2E_UNITS}
    traced = [r for r in reps if r.traced]
    if traced and untraced:
        layer = per_layer_metrics([r.setup for r in traced], [r.run for r in traced],
                                  e2e["run_s"])
        share = layer["trace.self_sum_share"]
        if abs(share - 1.0) > SELF_SUM_TOLERANCE:
            problems.append(
                f"traced self times sum to {share:.4f} of run_s "
                f"(allowed 1 +/- {SELF_SUM_TOLERANCE})")
        units = per_layer_units()
        layer_metrics = {k: {"value": _as_number(layer[k], u), "unit": u}
                         for k, u in units.items()}
        full.update(layer_metrics)
        result_metrics = layer_metrics
    elif args.trace:
        problems.append("no traced repeat completed")
    correct = bool(result_metrics) and not problems
    report_doc = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "size": args.size, "trace": args.trace, "repeats": len(reps),
        "traced_repeats": len(traced), "setup_repeats": len(extra_setup_s) + len(reps),
        "run_s_by_repeat": [[r.traced, r.run.root_s] for r in reps],
        "report_sha256": sorted(digests), "correct": correct, "problems": problems,
        "unpatched": missing,
        "metrics": full,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    return report_doc, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    try:
        pin_blas()
        import_package()
        machine = machine_block()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import build

    if args.workload not in build(args.size):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    report_doc, result = run_benchmark(args)
    report_doc["machine"] = machine
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(report_doc, indent=1) + "\n",
                                     encoding="utf-8")
    print(json.dumps({"machine": machine}))
    print(json.dumps({"report": report_doc}))
    for problem in report_doc["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
