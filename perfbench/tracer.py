"""Span tracer that times calls into the package's layers from outside it.

The package binds layer functions by name (``from .scoring import
reasoning_loss_fwd`` in ``trainer``), so a wrapper on the defining module
would miss those calls. Each patch point therefore names the namespace where
the function is looked up. Wrappers read only the clock and the arguments
and return values they pass through; they never draw from an RNG, so traced
outputs stay byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

PKG = "tkgdistill"


@dataclass(frozen=True)
class PatchPoint:
    namespace: str  # module (or "module.Class") whose attribute is replaced
    attr: str
    span: str  # "<defining module>.<function>"
    hook: Callable | None = None  # hook(counters, args, kwargs, result)


# --- count hooks: figures derived from arguments and return values --------


def _reasoning_rows(counters, args, kwargs, result):
    _, cache = result
    forms, negs = cache["forms"], cache["negs"]
    counters["scoring.unique_rows"] += cache["n_pairs"]
    counters["scoring.rows_consumed"] += forms.shape[0] * (2 + negs.shape[1])


def _neg_block(counters, args, kwargs, result):
    source_trajs = args[1]
    neg_factor = args[5] if len(args) > 5 else kwargs["neg_factor"]
    p, t_len, d = source_trajs.shape
    block = p * neg_factor * t_len * d * 8  # float64 (P, N, T, d), computed
    counters["alignment.neg_block_bytes"] = max(
        counters["alignment.neg_block_bytes"], block
    )


def _transfer_scan(counters, args, kwargs, result):
    source_kg, alignments = args[0], args[2]
    sources = {p.source_entity for p in alignments}
    counters["distill.transfer_scanned"] += len(sources) * len(source_kg.quadruples)
    counters["distill.transfer_emitted"] += len(result)


def _matcher(counters, args, kwargs, result):
    table, cfg = args[0], args[1]
    ns, nt = table.sim.shape
    counters["distill.matcher_cells"] += ns * nt
    if ns and nt:
        exact = max(ns, nt) <= cfg.exact_solver_cap
        counters["distill.matcher_exact_calls" if exact else
                 "distill.matcher_greedy_calls"] += 1


def _candidates(counters, args, kwargs, result):
    counters["distill.candidate_pool"] += len(result)


def _file_bytes(key: str, path_arg: int):
    def hook(counters, args, kwargs, result):
        path = os.fspath(args[path_arg])
        counters[key] += os.path.getsize(path) + os.path.getsize(path + ".json")
    return hook


COUNTERS = (
    "scoring.unique_rows", "scoring.rows_consumed", "alignment.neg_block_bytes",
    "distill.transfer_scanned", "distill.transfer_emitted",
    "distill.matcher_cells", "distill.matcher_exact_calls",
    "distill.matcher_greedy_calls", "distill.candidate_pool",
    "checkpoint.save_bytes", "checkpoint.load_bytes",
)

# The boundaries of the three user-visible phases of a transfer run; the
# untraced run patches only these, to split run_s without layer spans.
PHASE_POINTS = (
    PatchPoint("experiments", "pretrain_teacher", "trainer.pretrain_teacher"),
    PatchPoint("experiments", "train_mpkd", "trainer.train_mpkd"),
    PatchPoint("experiments", "evaluate", "evaluation.evaluate"),
)

LAYER_POINTS = PHASE_POINTS + (
    PatchPoint("cli", "load_checkpoint", "checkpoint.load_checkpoint",
               _file_bytes("checkpoint.load_bytes", 0)),
    PatchPoint("cli", "load_quadruples", "tkg.load_quadruples"),
    PatchPoint("cli", "evaluate", "evaluation.evaluate"),
    PatchPoint("trainer", "reasoning_loss_fwd", "scoring.reasoning_loss_fwd",
               _reasoning_rows),
    PatchPoint("trainer", "reasoning_loss_bwd", "scoring.reasoning_loss_bwd"),
    PatchPoint("trainer", "encode_trajectories_fwd", "encoder.encode_trajectories_fwd"),
    PatchPoint("trainer", "encode_trajectories_bwd", "encoder.encode_trajectories_bwd"),
    PatchPoint("trainer", "alignment_loss_fwd", "alignment.alignment_loss_fwd",
               _neg_block),
    PatchPoint("trainer", "alignment_loss_bwd", "alignment.alignment_loss_bwd"),
    PatchPoint("trainer", "temporal_integrate_batch_fwd",
               "alignment.temporal_integrate_batch_fwd"),
    PatchPoint("trainer", "transfer_events", "distill.transfer_events", _transfer_scan),
    PatchPoint("trainer", "generate_pseudo_alignments",
               "distill.generate_pseudo_alignments", _matcher),
    PatchPoint("trainer", "candidate_targets", "distill.candidate_targets", _candidates),
    PatchPoint("trainer", "evaluate", "evaluation.evaluate"),
    PatchPoint("trainer", "score_object_queries", "evaluation.score_object_queries"),
    PatchPoint("trainer", "adam_step", "numerics.adam_step"),
    PatchPoint("alignment", "temporal_integrate_batch_fwd",
               "alignment.temporal_integrate_batch_fwd"),
    PatchPoint("scoring", "encode_many_fwd", "encoder.encode_many_fwd"),
    PatchPoint("scoring", "encode_many_bwd", "encoder.encode_many_bwd"),
    PatchPoint("encoder", "encode_batch_fwd", "encoder.encode_batch_fwd"),
    PatchPoint("evaluation", "encode_batch_fwd", "encoder.encode_batch_fwd"),
    PatchPoint("evaluation", "score_object_queries", "evaluation.score_object_queries"),
    PatchPoint("evaluation.EncodingCache", "at", "evaluation.EncodingCache.at"),
    PatchPoint("tkg.TemporalKG", "neighbor_arrays", "tkg.neighbor_arrays"),
    PatchPoint("tkg.TemporalKG", "with_quadruples", "tkg.with_quadruples"),
)

# Called by the benchmark itself, so they are spanned at the call site.
DIRECT_SPANS = {
    "tkg.generate_synthetic_pair": None,
    "checkpoint.save_checkpoint": _file_bytes("checkpoint.save_bytes", 1),
    "experiments.run_transfer": None,
    "cli.main": None,
}

MODULES = (
    "numerics", "tkg", "encoder", "scoring", "alignment", "distill", "trainer",
    "evaluation", "experiments", "checkpoint", "cli",
)


def _resolve(namespace: str):
    """The module or class named, or None if the package no longer has it."""
    module, _, cls = namespace.partition(".")
    try:
        obj = importlib.import_module(f"{PKG}.{module}")
    except ModuleNotFoundError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Records (name, start, end, parent, run id) spans in memory.

    Use as a context manager: entering patches every point, leaving
    restores the original attributes. Points whose target no longer exists
    are skipped and listed in ``missing``, so a refactor that removes a
    function leaves its figures at 0 instead of breaking the benchmark.
    """

    def __init__(self, points=LAYER_POINTS):
        self.points = points
        self.spans: list = []
        self.stack: list[int] = []
        self.run_id = ""
        self.counters: dict[str, dict[str, int]] = {}
        self.missing: list[str] = []
        self._saved: list = []

    def __enter__(self):
        self.missing = []
        for pt in self.points:
            owner = _resolve(pt.namespace)
            if owner is None or pt.attr not in vars(owner):
                self.missing.append(f"{pt.namespace}.{pt.attr}")
                continue
            orig = vars(owner)[pt.attr]
            self._saved.append((owner, pt.attr, orig))
            setattr(owner, pt.attr, self.wrap(pt.span, orig, pt.hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    def begin(self, run_id: str) -> None:
        self.run_id = run_id
        self.counters[run_id] = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[sid] = (name, start, end, parent, self.run_id)
            if hook is not None:
                hook(self.counters[self.run_id], args, kwargs, out)
            return out
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (calls the benchmark makes)."""
        return self.wrap(name, fn, DIRECT_SPANS.get(name))(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run_id,
                }) + "\n")


# Spans that only sequence calls into the layers: the training loops and the
# two user operations. Time below them is charged to the layer they call.
ORCHESTRATION = frozenset({
    "experiments.run_transfer", "trainer.pretrain_teacher", "trainer.train_mpkd",
    "cli.main",
})


@dataclass
class RunProfile:
    """Per-name totals of one run id."""

    calls: dict[str, int]
    total: dict[str, float]
    self_time: dict[str, float]
    entry: dict[str, float]  # module -> time of the calls made into it
    counters: dict[str, int]
    pairs: dict[tuple[str, str], int]  # (parent name, child name) -> calls
    pair_s: dict[tuple[str, str], float]  # (parent name, child name) -> seconds
    root_s: float  # duration of the run's top-level span(s)

    def module_self(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, s in self.self_time.items():
            out[name.split(".")[0]] += s
        return out

    def child_calls(self, parent: str, child: str) -> int:
        return self.pairs.get((parent, child), 0)


def profile(tracer: Tracer, run_id: str) -> RunProfile:
    """Totals of one run id.

    Self time is a span's duration minus its children's. Entry time charges
    each call that an orchestration span (or the benchmark) makes into a
    layer with its whole duration, callees included, and each orchestration
    span with its self time; entry times therefore sum to ``root_s``.
    """
    mine = [(sid, sp) for sid, sp in enumerate(tracer.spans) if sp[4] == run_id]
    child_s: dict[int, float] = {}
    for _, (_, start, end, parent, _) in mine:
        if parent >= 0:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    entry = dict.fromkeys(MODULES, 0.0)
    pairs: dict[tuple[str, str], int] = {}
    pair_s: dict[tuple[str, str], float] = {}
    root_s = 0.0
    for sid, (name, start, end, parent, _) in mine:
        dur = end - start
        own = dur - child_s.get(sid, 0.0)
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + own
        parent_name = tracer.spans[parent][0] if parent >= 0 else None
        module = name.split(".")[0]
        if name in ORCHESTRATION:
            entry[module] += own
        elif parent_name is None or parent_name in ORCHESTRATION:
            entry[module] += dur
        if parent < 0:
            root_s += dur
        else:
            key = (parent_name, name)
            pairs[key] = pairs.get(key, 0) + 1
            pair_s[key] = pair_s.get(key, 0.0) + dur
    return RunProfile(
        calls, total, self_time, entry, tracer.counters[run_id], pairs, pair_s,
        root_s,
    )
