"""Quadruple plausibility scoring and the margin ranking loss.

The score is the negated squared translation residual between the time-aware
subject and object representations. Subject-side queries are served through
reciprocal relation rows (r + n_relations), so object corruption covers both
directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import NetworkParams, encode_many_bwd, encode_many_fwd
from .numerics import ParamDict, add_rows_at
from .tkg import Quadruple, TemporalKG


@dataclass(frozen=True)
class NegativeSamplerConfig:
    factor: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError("negative sampling factor must be >= 1")


def translation_score(h_s: np.ndarray, h_r: np.ndarray, h_o: np.ndarray):
    """-(|h_s + h_r - h_o|^2); zero iff the translation is exact."""
    diff = h_s + h_r - h_o
    return -np.sum(diff * diff, axis=-1)


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


def _build_forms(batch: list[Quadruple], params: NetworkParams) -> np.ndarray:
    """(2B, 4) array of (subject, relation-row, object, time) scoring forms:
    each quadruple as stated, then through its reciprocal relation row."""
    shift = params.n_relations
    if params.relation_emb.shape[0] < 2 * shift:
        raise ValueError("relation table has no reciprocal rows")
    rows = [(q.subject, q.relation, q.object, q.time) for q in batch]
    rows += [(q.object, q.relation + shift, q.subject, q.time) for q in batch]
    return np.asarray(rows, dtype=np.int64)


def _sample_negatives(
    true_obj: np.ndarray, n_entities: int, factor: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform negatives that never equal the corrupted form's true object.

    Resamples collisions up to 100 rounds; leftovers (possible only on tiny
    vocabularies) are dropped via the validity mask.
    """
    negs = rng.integers(0, n_entities, size=(len(true_obj), factor))
    for _ in range(100):
        clash = negs == true_obj[:, None]
        if not clash.any():
            break
        negs[clash] = rng.integers(0, n_entities, size=int(clash.sum()))
    valid = negs != true_obj[:, None]
    return negs, valid


def _intern_rows(
    forms: np.ndarray, negs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unique (entity, time) pairs the batch scores, and each slot's row.

    ``pairs`` is (k, 2) in order of first appearance over subjects, then
    objects, then negatives row by row; ``subj_rows`` (F,), ``obj_rows``
    (F,) and ``neg_rows`` (F, N) index into it.
    """
    n_forms, n_negs = negs.shape
    times = forms[:, 3]
    ents = np.concatenate([forms[:, 0], forms[:, 2], negs.reshape(-1)])
    tims = np.concatenate([times, times, np.repeat(times, n_negs)])
    keys = tims * (int(ents.max(initial=0)) + 1) + ents
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # np.unique ranks keys by value; re-rank them by first appearance
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    rows = rank[inverse.reshape(-1)]
    at = first[by_first]
    pairs = np.stack([ents[at], tims[at]], axis=1)
    return (
        pairs, rows[:n_forms], rows[n_forms:2 * n_forms],
        rows[2 * n_forms:].reshape(n_forms, n_negs),
    )


def reasoning_loss_fwd(
    params: NetworkParams,
    kg: TemporalKG,
    batch: list[Quadruple],
    neg_cfg: NegativeSamplerConfig,
    margin: float,
    rng: np.random.Generator,
    b: int = 8,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, dict]:
    """Mean hinge over the batch and its sampled negatives.

    Every quadruple contributes one form per direction; each form draws
    ``factor`` negatives replacing the object slot.
    """
    if not batch:
        raise ValueError("empty batch")
    if margin <= 0:
        raise ValueError("margin must be positive")
    forms = _build_forms(batch, params)
    negs, valid = _sample_negatives(
        forms[:, 2], params.n_entities, neg_cfg.factor, rng
    )

    pairs, subj_rows, obj_rows, neg_rows = _intern_rows(forms, negs)
    reps, enc_cache = encode_many_fwd(params, kg, pairs, b, dropout_rng)

    h_s = reps[subj_rows]
    h_o = reps[obj_rows]
    h_rel = params.relation_emb[forms[:, 1]]
    h_n = reps[neg_rows]

    f_pos = translation_score(h_s, h_rel, h_o)  # (F,)
    f_neg = translation_score(h_s[:, None], h_rel[:, None], h_n)  # (F, N)

    hinge = np.maximum(0.0, margin - f_pos[:, None] + f_neg) * valid
    kept = max(int(valid.sum()), 1)
    loss = float(hinge.sum() / kept)
    cache = {
        "forms": forms, "negs": negs, "valid": valid, "kept": kept,
        "reps": reps, "enc_cache": enc_cache,
        "subj_rows": subj_rows, "obj_rows": obj_rows, "neg_rows": neg_rows,
        "h_s": h_s, "h_o": h_o, "h_rel": h_rel, "h_n": h_n,
        "hinge": hinge, "margin": margin, "n_pairs": len(pairs),
    }
    return loss, cache


def reasoning_loss_bwd(
    cache: dict, params: NetworkParams, grads: ParamDict
) -> None:
    forms, valid = cache["forms"], cache["valid"]
    h_s, h_o, h_rel, h_n = cache["h_s"], cache["h_o"], cache["h_rel"], cache["h_n"]
    active = (cache["hinge"] > 0.0) & valid
    w = active / cache["kept"]  # (F, N)

    # d loss / d f_pos = -sum_n w, d loss / d f_neg = +w; f = -|u|^2 with
    # u = h_s + h_r - h_obj, so df/d(h_s, h_r) = -2u and df/d(h_obj) = +2u.
    u_pos = h_s + h_rel - h_o
    u_neg = h_s[:, None] + h_rel[:, None] - h_n
    g_fpos = -w.sum(axis=1)
    g_fneg = w

    g_hs = (-2.0 * g_fpos)[:, None] * u_pos
    g_ho = (2.0 * g_fpos)[:, None] * u_pos
    g_rel = g_hs.copy()
    g_hn = (2.0 * g_fneg)[..., None] * u_neg
    contrib = (-2.0 * g_fneg)[..., None] * u_neg
    g_hs += contrib.sum(axis=1)
    g_rel += contrib.sum(axis=1)

    grad_reps = np.zeros_like(cache["reps"])
    add_rows_at(
        grad_reps,
        np.concatenate(
            [cache["subj_rows"], cache["obj_rows"], cache["neg_rows"].reshape(-1)]
        ),
        np.concatenate([g_hs, g_ho, g_hn.reshape(-1, g_hn.shape[-1])]),
    )
    add_rows_at(grads["relation_emb"], forms[:, 1], g_rel)
    encode_many_bwd(grad_reps, cache["enc_cache"], params, grads)


def reasoning_loss(
    params: NetworkParams,
    kg: TemporalKG,
    batch: list[Quadruple],
    neg_cfg: NegativeSamplerConfig,
    margin: float,
    rng: np.random.Generator | None = None,
    b: int = 8,
) -> float:
    if rng is None:
        rng = np.random.default_rng(neg_cfg.seed)
    loss, _ = reasoning_loss_fwd(params, kg, batch, neg_cfg, margin, rng, b)
    return loss
