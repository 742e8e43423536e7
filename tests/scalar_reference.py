"""Scalar views of the package's batched kernels, for the tests: one row of
the encoder, one ranked query, one scored quadruple, one reasoning-loss
value, one pair's mean similarity, and the one-vector softmax and cosine.

Each view calls the batched kernel it stands for, or states the same
formula for one row, so a test can check a hand-computed value or a
property on one row and hold the batched kernel to it.
"""

from __future__ import annotations

import numpy as np

from tkgdistill.encoder import (
    NetworkParams,
    encode_batch_fwd,
    encode_many_fwd,
    encode_trajectories_fwd,
    time_table,
)
from tkgdistill.evaluation import EncodingCache, score_object_queries
from tkgdistill.numerics import unit_rows
from tkgdistill.scoring import (
    reasoning_loss_fwd,
    translation_score,
)
from tkgdistill.tkg import Quadruple, TemporalKG

# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def time_encode(params: NetworkParams, delta_t: int) -> np.ndarray:
    """Row ``delta_t`` of ``time_table``; unit norm at dt = 0."""
    if delta_t < 0:
        raise ValueError("delta_t must be non-negative")
    return time_table(params, delta_t)[delta_t]


def encode_entity(
    params: NetworkParams,
    kg: TemporalKG,
    e: int,
    t: int,
    b: int = 8,
) -> np.ndarray:
    """Representation of entity ``e`` at time ``t``."""
    if not 0 <= e < params.n_entities:
        raise KeyError(f"unknown entity id {e}")
    out, _ = encode_batch_fwd(params, kg, np.array([e]), t, b)
    return out[0]


def encode_trajectory(
    params: NetworkParams,
    kg: TemporalKG,
    e: int,
    t_max: int,
    b: int = 8,
) -> np.ndarray:
    """Rows 0..t_max-1 hold the representation at times 1..t_max."""
    traj, _ = encode_trajectories_fwd(params, kg, np.array([e]), t_max, b)
    return traj[0]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def rank_of(scores: np.ndarray, true_id: int) -> int:
    """1-based rank with deterministic tie-breaking by lower entity id."""
    s_true = scores[true_id]
    higher = int((scores > s_true).sum())
    tied_lower = int((scores[:true_id] == s_true).sum())
    return 1 + higher + tied_lower


def _check_ids(params: NetworkParams, e: int, r: int) -> None:
    if not 0 <= e < params.n_entities:
        raise KeyError(f"unknown entity id {e}")
    if not 0 <= r < params.n_relations:
        raise KeyError(f"unknown relation id {r}")


def rank_query(
    params: NetworkParams,
    kg: TemporalKG,
    query: tuple,
    true_entity: int,
    b: int = 8,
    cache: EncodingCache | None = None,
) -> int:
    """Rank ``true_entity`` for one (e, r, None, t) or (None, r, e, t) query.

    Subject-side queries go through the reciprocal relation row, so both
    directions reduce to object ranking over the full vocabulary. Raw
    setting: no other true answers are filtered out.
    """
    s, r, o, t = query
    if (s is None) == (o is None):
        raise ValueError("query must leave exactly one entity slot open")
    if s is None:
        _check_ids(params, o, r)
        anchor, rel = o, r + params.n_relations
    else:
        _check_ids(params, s, r)
        anchor, rel = s, r
    if not 0 <= true_entity < params.n_entities:
        raise KeyError(f"unknown entity id {true_entity}")
    if cache is None:
        cache = EncodingCache(params, kg, b)
    h_all, h_sq = cache.at(t)
    scores = score_object_queries(
        params, h_all, np.array([anchor]), np.array([rel]), h_sq
    )
    return rank_of(scores[0], true_entity)


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------


def mean_similarity(h_source: np.ndarray, h_target: np.ndarray) -> float:
    """Average cosine correspondence over all integration time steps."""
    return float(cosine_rows_guarded(h_source, h_target).mean())


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------


def softmax_masked(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the unmasked positions; masked positions are exactly 0.

    ``mask`` is True where a position is live. Stabilized by max-subtraction
    over the live support. Raises on empty support.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape:
        raise ValueError("logits and mask must have equal shape")
    if not mask.any():
        raise ValueError("empty support: all positions masked")
    shifted = np.where(mask, logits, -np.inf)
    shifted = shifted - shifted.max()
    exps = np.where(mask, np.exp(shifted), 0.0)
    return exps / exps.sum()


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of two vectors, scaled as in ``cosine_rows_guarded``; a zero
    vector raises."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("cosine requires equal dimensions")
    if not (u.any() and v.any()):
        raise ValueError("undefined cosine: zero vector")
    return float(cosine_rows_guarded(u, v))


def cosine_rows_guarded(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cosine along the last axis with broadcasting; a zero row scores 0.

    A rectified representation can be exactly zero (dead fallback rows);
    that reads as neutral correspondence rather than an error. Each row is
    first divided by its largest absolute entry, so norms neither underflow
    into subnormals nor overflow; the cosine is invariant to that rescaling.
    """
    su = np.abs(u).max(axis=-1, keepdims=True)
    sv = np.abs(v).max(axis=-1, keepdims=True)
    uu = unit_rows(np.divide(u, su, out=np.zeros(np.shape(u)), where=su > 0))[0]
    uv = unit_rows(np.divide(v, sv, out=np.zeros(np.shape(v)), where=sv > 0))[0]
    return np.clip((uu * uv).sum(axis=-1), -1.0, 1.0)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def score_quadruple(
    params: NetworkParams,
    kg: TemporalKG,
    q: Quadruple,
    b: int = 8,
) -> float:
    if not 0 <= q.relation < params.relation_emb.shape[0]:
        raise KeyError(f"unknown relation id {q.relation}")
    reps, _ = encode_many_fwd(params, kg, [(q.subject, q.time), (q.object, q.time)], b)
    return float(translation_score(reps[0], params.relation_emb[q.relation], reps[1]))


def reasoning_loss(
    params: NetworkParams,
    kg: TemporalKG,
    batch: np.ndarray | list[Quadruple],
    negatives: int,
    margin: float,
    rng: np.random.Generator | None = None,
    b: int = 8,
    seed: int = 0,
) -> float:
    if rng is None:
        rng = np.random.default_rng(seed)
    loss, _ = reasoning_loss_fwd(params, kg, batch, negatives, margin, rng, b)
    return loss
