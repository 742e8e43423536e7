"""Ranking evaluation (raw MRR / Hits@10), the transfer ratio, and the
negative-count decay diagnostic for the NCE form of the training losses.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .encoder import NetworkParams, encode_batch_fwd
from .tkg import Quadruple, TemporalKG


@dataclass
class MetricsReport:
    mrr: float
    hits10: float
    query_count: int
    per_step: list[tuple[int, float, float]]
    config_digest: str = ""
    seed: int = 0

    def to_json(self) -> str:
        doc = {
            "mrr": self.mrr,
            "hits10": self.hits10,
            "query_count": self.query_count,
            "per_step": [
                {"time": t, "mrr": m, "hits10": h} for t, m, h in self.per_step
            ],
            "config_digest": self.config_digest,
            "seed": self.seed,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        doc = json.loads(text)
        return cls(
            doc["mrr"],
            doc["hits10"],
            doc["query_count"],
            [(p["time"], p["mrr"], p["hits10"]) for p in doc["per_step"]],
            doc["config_digest"],
            doc["seed"],
        )


def ranks_of(scores: np.ndarray, true_ids: np.ndarray) -> np.ndarray:
    """1-based rank of ``true_ids[i]`` in row i of ``scores``, ties broken
    by lower entity id.

    Both counts are row sums of a ``uint8`` view of the comparison, and the
    lower-id ties are counted only in rows that tie with something besides
    the true entity, so no (Q, E) id block is built.
    """
    s_true = scores[np.arange(len(true_ids)), true_ids][:, None]
    ranks = 1 + _row_counts(scores > s_true)
    for i in np.flatnonzero(_row_counts(scores == s_true) > 1):
        ranks[i] += np.count_nonzero(scores[i, : true_ids[i]] == s_true[i])
    return ranks


def _row_counts(mask: np.ndarray) -> np.ndarray:
    # an int32 accumulator sums about twice as fast as int64, and no row has
    # 2**31 candidates
    return np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32).astype(np.int64)


def metrics_from_ranks(ranks) -> tuple[float, float]:
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("empty rank list")
    return float((1.0 / ranks).mean()), float((ranks <= 10).mean())


class EncodingCache:
    """Per-time-step all-entity representations under frozen parameters,
    each with its squared row norms, the one place either is computed.

    Doubles as the causality audit point: every neighbor that feeds an
    encoding at time t must be strictly earlier, and violations are counted
    per step. ``release`` drops a step the caller is done with.
    """

    def __init__(self, params: NetworkParams, kg: TemporalKG, b: int):
        self.params = params
        self.kg = kg
        self.b = b
        self._by_time: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._violations: dict[int, int] = {}
        self.all_ids = np.arange(params.n_entities, dtype=np.int64)

    @property
    def causality_violations(self) -> int:
        return sum(self._violations.values())

    def at(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """``(h_all, h_sq)``: the (E, d) encoding at t and its (E,) squared
        row norms."""
        if t not in self._by_time:
            h, cache = encode_batch_fwd(self.params, self.kg, self.all_ids, t, self.b)
            used_times = np.where(cache["mask"], cache["tim"], -1)
            self._violations[t] = int((used_times >= t).sum())
            self._by_time[t] = h, (h * h).sum(axis=1)
        return self._by_time[t]

    def release(self, t: int) -> None:
        self._by_time.pop(t, None)


def score_object_queries(
    params: NetworkParams,
    h_all: np.ndarray,
    subj: np.ndarray,
    rel: np.ndarray,
    h_sq: np.ndarray,
    worker: Executor | None = None,
) -> np.ndarray:
    """Scores of every candidate object for queries (subj, rel, ?, t), given
    the step's encoding and its squared row norms from ``EncodingCache.at``.

    ``subj`` and ``rel`` are (Q,) for one block of queries, scored into
    (Q, E), or (k, Q) for k blocks, scored into (k, Q, E) by one product per
    block, so a block's scores are bitwise those of scoring it alone. With a
    ``worker`` executor, blocks 1 to k - 1 are scored on it while the caller
    scores block 0.
    """
    subj, rel = np.asarray(subj), np.asarray(rel)
    anchors, rels = np.atleast_2d(subj), np.atleast_2d(rel)
    scores = np.empty(
        (*anchors.shape, len(h_all)), dtype=np.result_type(h_all, params.relation_emb)
    )
    jobs = list(zip(anchors, rels, scores))
    split = 1 if worker is not None else len(jobs)
    pending = [worker.submit(_score_block, params, h_all, *job, h_sq)
               for job in jobs[split:]]
    for job in jobs[:split]:
        _score_block(params, h_all, *job, h_sq)
    for block in pending:
        block.result()
    return scores if subj.ndim == 2 else scores[0]


def _score_block(params, h_all, subj, rel, out, h_sq) -> None:
    u = h_all[subj] + params.relation_emb[rel]  # (Q, d)
    # -(|u - h_c|^2) expanded so memory stays linear in Q + E
    u_sq = (u * u).sum(axis=1)[:, None]
    # (2 (u @ h_all.T) - u_sq) - h_sq in one buffer: value for value this is
    # -((u_sq - 2 (u @ h_all.T)) + h_sq), and at most the sign of a zero differs.
    # Doubling is exact short of overflow or subnormal products, so
    # (2 u) @ h_all.T is bitwise 2 (u @ h_all.T), one (Q, E) pass fewer.
    np.matmul(2.0 * u, h_all.T, out=out)
    out -= u_sq
    out -= h_sq


# Below this many cells in a step's largest (Q, E) score block, scoring and
# ranking the backward direction on a worker thread costs more than it saves:
# on a 2-vCPU VM the worker broke even near 2e5 cells at d = 32 and d = 128,
# and the training runs' validation and test steps have 5e3-1e5.
WORKER_MIN_CELLS = 2**18


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def evaluate(
    params: NetworkParams,
    kg_history: TemporalKG,
    test_quadruples: np.ndarray | list[Quadruple],
    b: int = 8,
    config_digest: str = "",
    seed: int = 0,
    threads: int = 2,
) -> MetricsReport:
    """Raw MRR / Hits@10 over both query directions of every test quadruple
    (any (n, 4) array-like), step by step, in input order within a step.

    Representations at time t come from history strictly before t; the
    shared encoding cache audits that no later quadruple is ever touched.
    One step's encoding is alive at a time. With ``threads`` of 2 or more,
    where the process may run on 2 cores and a step's largest (Q, E) score
    block has at least ``WORKER_MIN_CELLS`` cells, one worker thread scores
    and ranks each step's backward direction while the caller does the
    forward one, so two score blocks are alive instead of one; no larger
    value starts another thread. Every encoding, and every call that scores,
    runs on the calling thread, the worker only inside those calls or
    ranking. Results are bitwise the same either way.
    """
    test = np.asarray(test_quadruples, dtype=np.int64).reshape(-1, 4)
    if len(test) == 0:
        raise ValueError("empty test set")
    cache = EncodingCache(params, kg_history, b)
    test = test[np.argsort(test[:, 3], kind="stable")]
    steps, starts = np.unique(test[:, 3], return_index=True)
    times = steps.tolist()
    by_time = dict(zip(times, np.split(test[:, :3], starts[1:])))

    def rank_step(t: int, worker: ThreadPoolExecutor | None) -> np.ndarray:
        subj, rel, obj = by_time[t].T
        h_all, h_sq = cache.at(t)
        rev = rel + params.n_relations
        ranks = np.empty(2 * len(subj), dtype=np.int64)
        if worker is None:  # one direction's (Q, E) scores alive at a time
            ranks[0::2] = ranks_of(
                score_object_queries(params, h_all, subj, rel, h_sq), obj
            )
            ranks[1::2] = ranks_of(
                score_object_queries(params, h_all, obj, rev, h_sq), subj
            )
        else:
            scores = score_object_queries(
                params, h_all, np.stack([subj, obj]), np.stack([rel, rev]), h_sq, worker
            )
            backward = worker.submit(ranks_of, scores[1], subj)
            ranks[0::2] = ranks_of(scores[0], obj)
            ranks[1::2] = backward.result()
        cache.release(t)
        return ranks

    q_max = max(len(rows) for rows in by_time.values())
    use_worker = (
        threads > 1
        and usable_cores() > 1
        and q_max * params.n_entities >= WORKER_MIN_CELLS
    )
    with ThreadPoolExecutor(max_workers=1) if use_worker else nullcontext() as worker:
        results = {t: rank_step(t, worker) for t in times}

    if cache.causality_violations:
        raise AssertionError(
            f"causality audit failed: {cache.causality_violations} accesses"
        )
    all_ranks = np.concatenate([results[t] for t in times])
    mrr, hits10 = metrics_from_ranks(all_ranks)
    per_step = []
    for t in times:
        m, h = metrics_from_ranks(results[t])
        per_step.append((t, m, h))
    return MetricsReport(
        mrr, hits10, int(all_ranks.size), per_step, config_digest, seed
    )


def transfer_ratio(model_scores, baseline_score: float) -> float:
    """Mean over source languages of model(s -> t) / baseline(t)."""
    if baseline_score <= 0:
        raise ValueError("baseline score must be positive")
    if isinstance(model_scores, dict):
        values = [model_scores[k] for k in sorted(model_scores)]
    else:
        values = list(model_scores)
    if not values:
        raise ValueError("need at least one source score")
    return float(np.mean([v / baseline_score for v in values]))


# ---------------------------------------------------------------------------
# Negative-count decay diagnostic on the NCE form of the losses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticConfig:
    negative_counts: tuple[int, ...] = (8, 32, 128, 512)
    seeds: tuple[int, ...] = tuple(range(31))
    limit_estimate_n: int = 8192

    def __post_init__(self):
        if list(self.negative_counts) != sorted(set(self.negative_counts)):
            raise ValueError("negative counts must be strictly ascending")
        if self.limit_estimate_n <= max(self.negative_counts):
            raise ValueError("limit_estimate_n must exceed every N")


@dataclass
class NCEToy:
    """Fixed score tables for the diagnostic: one row per positive, one
    column per candidate negative; ``*_pos`` holds the positive scores."""

    gt_pos: np.ndarray  # (P,)
    gt_neg: np.ndarray  # (P, E)
    ps_pos: np.ndarray  # (P_ps,)
    ps_neg: np.ndarray  # (P_ps, E)
    epsilon: float  # exact portion of correct pseudo positives


def nce_loss(
    pos: np.ndarray, neg_table: np.ndarray, n: int, rng: np.random.Generator
) -> float:
    """Softmax-with-negatives loss at unit temperature; negatives sampled
    uniformly per positive."""
    p, e = neg_table.shape
    idx = rng.integers(0, e, size=(p, n))
    neg = np.take_along_axis(neg_table, idx, axis=1)
    mx = np.maximum(pos, neg.max(axis=1))
    z = np.exp(pos - mx) + np.exp(neg - mx[:, None]).sum(axis=1)
    return float((-(pos - mx) + np.log(z)).mean())


def combined_nce(toy: NCEToy, n: int, rng: np.random.Generator) -> float:
    """Set-size weighted sum of the ground-truth and pseudo NCE terms."""
    w_gt = len(toy.gt_pos) / (len(toy.gt_pos) + len(toy.ps_pos))
    l_gt = nce_loss(toy.gt_pos, toy.gt_neg, n, rng)
    l_ps = nce_loss(toy.ps_pos, toy.ps_neg, n, rng)
    return w_gt * l_gt + (1.0 - w_gt) * l_ps


def nce_deviation_sweep(
    cfg: DiagnosticConfig, toy: NCEToy
) -> tuple[list[tuple[int, float]], float]:
    """Median |L_N - L_limit| per N (log N removed) and the fitted slope.

    The limit is estimated at ``limit_estimate_n`` and averaged over seeds.
    """
    def shifted(n: int, seed: int) -> float:
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        return combined_nce(toy, n, rng) - float(np.log(n))

    limit = float(np.mean([shifted(cfg.limit_estimate_n, s) for s in cfg.seeds]))
    rows: list[tuple[int, float]] = []
    for n in cfg.negative_counts:
        devs = [abs(shifted(n, s) - limit) for s in cfg.seeds]
        rows.append((n, float(np.median(devs))))
    logs_n = np.log([r[0] for r in rows])
    logs_d = np.log([max(r[1], 1e-300) for r in rows])
    slope = float(np.polyfit(logs_n, logs_d, 1)[0])
    return rows, slope


def build_nce_toy(
    params: NetworkParams,
    kg: TemporalKG,
    gt_quads: np.ndarray | list[Quadruple],
    ps_quads: np.ndarray | list[Quadruple],
    correct_flags: list[bool],
    b: int = 8,
) -> NCEToy:
    """Score tables from a frozen model; epsilon comes from the known flags.
    Both quadruple sets are (n, 4) array-likes."""
    cache = EncodingCache(params, kg, b)

    def tables(quads):
        rows = np.asarray(quads, dtype=np.int64).reshape(-1, 4).tolist()
        pos = np.zeros(len(rows))
        neg = np.zeros((len(rows), params.n_entities))
        for i, (s, r, o, t) in enumerate(rows):
            h_all, h_sq = cache.at(t)
            scores = score_object_queries(
                params, h_all, np.array([s]), np.array([r]), h_sq
            )[0]
            pos[i] = scores[o]
            neg[i] = scores
        return pos, neg

    gt_pos, gt_neg = tables(gt_quads)
    ps_pos, ps_neg = tables(ps_quads)
    eps = float(np.mean(correct_flags)) if correct_flags else 1.0
    return NCEToy(gt_pos, gt_neg, ps_pos, ps_neg, eps)
