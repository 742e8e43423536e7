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
from .numerics import ParamDict, add_rows_at, narrow_keys
from .tkg import Quadruple, TemporalKG


@dataclass(frozen=True)
class NegativeSamplerConfig:
    factor: int = 10

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError("negative sampling factor must be >= 1")


def translation_score(h_s: np.ndarray, h_r: np.ndarray, h_o: np.ndarray):
    """-(|h_s + h_r - h_o|^2); zero iff the translation is exact."""
    diff = h_s + h_r - h_o
    return -np.sum(diff * diff, axis=-1)


def _build_forms(batch, params: NetworkParams) -> np.ndarray:
    """(2B, 4) array of (subject, relation-row, object, time) scoring forms:
    each quadruple as stated, then through its reciprocal relation row.
    ``batch`` is any (B, 4) array-like of quadruples."""
    shift = params.n_relations
    if params.relation_emb.shape[0] < 2 * shift:
        raise ValueError("relation table has no reciprocal rows")
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 4)
    flipped = batch[:, [2, 1, 0, 3]]
    flipped[:, 1] += shift
    return np.concatenate([batch, flipped])


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
    _, first, inverse = np.unique(
        narrow_keys(keys), return_index=True, return_inverse=True
    )
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
    batch: np.ndarray | list[Quadruple],
    neg_cfg: NegativeSamplerConfig,
    margin: float,
    rng: np.random.Generator,
    b: int = 8,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, dict]:
    """Mean hinge over the batch and its sampled negatives.

    Every quadruple of ``batch``, any (B, 4) array-like, gives one form per
    direction; each form draws ``factor`` negatives replacing the object slot.
    """
    if len(batch) == 0:
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

    f_pos = translation_score(h_s, h_rel, h_o)  # (F,)
    # the negatives' residuals fill one (F, N, d) buffer, squared in place
    u_neg = reps[neg_rows]
    np.subtract((h_s + h_rel)[:, None], u_neg, out=u_neg)
    f_neg = -np.square(u_neg, out=u_neg).sum(axis=-1)  # (F, N)
    del u_neg

    hinge = np.maximum(0.0, margin - f_pos[:, None] + f_neg) * valid
    kept = max(int(valid.sum()), 1)
    loss = float(hinge.sum() / kept)
    cache = {
        "forms": forms, "negs": negs, "valid": valid, "kept": kept,
        "reps": reps, "enc_cache": enc_cache,
        "subj_rows": subj_rows, "obj_rows": obj_rows, "neg_rows": neg_rows,
        "h_s": h_s, "h_o": h_o, "h_rel": h_rel,
        "hinge": hinge, "margin": margin, "n_pairs": len(pairs),
    }
    return loss, cache


def reasoning_loss_bwd(
    cache: dict, params: NetworkParams, grads: ParamDict
) -> None:
    forms, valid, reps = cache["forms"], cache["valid"], cache["reps"]
    h_s, h_o, h_rel = cache["h_s"], cache["h_o"], cache["h_rel"]
    active = (cache["hinge"] > 0.0) & valid
    w = active / cache["kept"]  # (F, N)
    n_forms, n_negs = w.shape

    # d loss / d f_pos = -sum_n w, d loss / d f_neg = +w; f = -|u|^2 with
    # u = h_s + h_r - h_obj, so df/d(h_s, h_r) = -2u and df/d(h_obj) = +2u.
    # The subject, object and negative rows' gradients fill one block for
    # the row scatter. Its negative rows take the gathered residuals u_neg
    # again and become g_hn = 2w u_neg in place; the subject's and the
    # relation's share, -2w u_neg summed over negatives, is -sum(g_hn).
    u_pos = h_s + h_rel - h_o
    g_fpos = -w.sum(axis=1)
    g_rows = np.empty((n_forms * (n_negs + 2), reps.shape[1]))
    g_hs, g_ho = g_rows[:n_forms], g_rows[n_forms:2 * n_forms]
    g_hn = g_rows[2 * n_forms:].reshape(n_forms, n_negs, -1)
    np.multiply((-2.0 * g_fpos)[:, None], u_pos, out=g_hs)
    np.multiply((2.0 * g_fpos)[:, None], u_pos, out=g_ho)
    g_rel = g_hs.copy()
    np.take(reps, cache["neg_rows"], axis=0, out=g_hn)
    np.subtract((h_s + h_rel)[:, None], g_hn, out=g_hn)
    g_hn *= (2.0 * w)[..., None]
    contrib = -g_hn.sum(axis=1)
    g_hs += contrib
    g_rel += contrib

    grad_reps = np.zeros_like(reps)
    add_rows_at(
        grad_reps,
        np.concatenate(
            [cache["subj_rows"], cache["obj_rows"], cache["neg_rows"].reshape(-1)]
        ),
        g_rows,
    )
    add_rows_at(grads["relation_emb"], forms[:, 1], g_rel)
    del g_rows, g_hs, g_ho, g_hn  # freed before the encoder's backward
    encode_many_bwd(grad_reps, cache["enc_cache"], params, grads)

