"""Whole-block forms of the encoder kernel and the reasoning loss, for the
tests.

The package's kernels aggregate in row slices and score the negatives in
one reused buffer; these forms gather each batch's whole ``(rows, b, d)``
neighbour block and keep the gathered ``(F, N, d)`` negatives in the loss
cache, as the package did before. The tests hold the two forms bitwise
equal: outputs, caches and every gradient.

The trajectory forms run one encoder call per step, as the package did
before one neighbour lookup and one attention pass covered every step:
the forward keeps no step's cache, and the backward rebuilds each one just
before that step's backward. ``add_rows_at`` is the weighted ``bincount``
over the flattened (row, column) cells that the package's sparse product
replaced; the reference loss scatters through it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from tkgdistill import encoder
from tkgdistill.encoder import (
    _sum_by,
    dropout_mask,
    encode_many_bwd,
    encode_many_fwd,
    time_table,
)
from tkgdistill.numerics import softmax_masked_rows, softmax_rows_backward
from tkgdistill.scoring import (
    _build_forms,
    _intern_rows,
    _sample_negatives,
    translation_score,
)


def encode_batch_fwd(params, kg, ids, t, b, dropout_rng=None):
    ids = np.asarray(ids, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    nbr, rel, tim, mask = kg.neighbor_arrays(ids, t, b)
    has_nb = mask.any(axis=1)

    h_c = params.entity_emb[ids]
    delta = (t.reshape(-1, 1) - tim) * mask
    kappa_tab = time_table(params, int(delta.max(initial=0)))

    a1, a2, a3, a4 = params.attn_a.reshape(4, -1)
    logits = (
        (h_c @ a1)[:, None]
        + (params.entity_emb @ a2)[nbr]
        + (params.relation_emb @ a3)[rel]
        + (kappa_tab @ a4)[delta]
    )
    alpha = softmax_masked_rows(logits, mask)

    agg = (alpha[:, None, :] @ params.entity_emb[nbr])[:, 0]
    agg = np.where(has_nb[:, None], agg, h_c)
    msg = agg @ params.transform_W
    if dropout_rng is not None and params.dropout_rate > 0.0:
        dmask = dropout_mask(msg.shape, params.dropout_rate, dropout_rng)
        msg = msg * dmask
    else:
        dmask = None
    out = np.maximum(msg, 0.0)
    cache = {
        "ids": ids, "nbr": nbr, "rel": rel, "tim": tim, "mask": mask,
        "delta": delta, "kappa_tab": kappa_tab, "has_nb": has_nb,
        "alpha": alpha, "agg": agg, "live": msg > 0.0, "dmask": dmask,
    }
    return out, cache


def encode_batch_bwd(grad_out, cache, params, grads) -> None:
    ids, nbr, mask, has_nb = cache["ids"], cache["nbr"], cache["mask"], cache["has_nb"]
    alpha, agg, kappa_tab = cache["alpha"], cache["agg"], cache["kappa_tab"]

    g_msg = grad_out * cache["live"]
    if cache["dmask"] is not None:
        g_msg = g_msg * cache["dmask"]
    grads["transform_W"] += agg.T @ g_msg
    g_agg = g_msg @ params.transform_W.T

    g_hc = np.where(has_nb[:, None], 0.0, g_agg)
    g_agg = np.where(has_nb[:, None], g_agg, 0.0)

    g_alpha = (params.entity_emb[nbr] @ g_agg[:, :, None])[..., 0]
    g_logits = softmax_rows_backward(alpha, g_alpha)

    a1, a2, a3, _ = params.attn_a.reshape(4, -1)
    g_row = g_logits.sum(axis=1)
    g_hc += g_row[:, None] * a1
    g_nbr = _sum_by(nbr, g_logits, params.n_entities)
    g_rel = _sum_by(cache["rel"], g_logits, params.relation_emb.shape[0])
    g_gap = _sum_by(cache["delta"], g_logits, kappa_tab.shape[0])

    ga = grads["attn_a"].reshape(4, -1)
    ga[0] += g_row @ params.entity_emb[ids]
    ga[1] += g_nbr @ params.entity_emb
    ga[2] += g_rel @ params.relation_emb
    ga[3] += g_gap @ kappa_tab
    grads["entity_emb"] += g_nbr[:, None] * a2
    grads["relation_emb"] += g_rel[:, None] * a3

    rows, slots = np.nonzero(mask)
    n = len(ids)
    ent = np.concatenate([ids, nbr[rows, slots]])
    order = np.argsort(ent, kind="stable")
    indptr = np.zeros(params.n_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(ent, minlength=params.n_entities), out=indptr[1:])
    messages = sparse.csr_array(
        (
            np.concatenate([np.ones(n), alpha[rows, slots]])[order],
            np.concatenate([np.arange(n), n + rows])[order],
            indptr,
        ),
        shape=(params.n_entities, 2 * n),
    )
    grads["entity_emb"] += messages @ np.concatenate([g_hc, g_agg])


def reasoning_loss_fwd(params, kg, batch, negatives, margin, rng, b=8, dropout_rng=None):
    forms = _build_forms(batch, params)
    negs, valid = _sample_negatives(forms[:, 2], params.n_entities, negatives, rng)
    pairs, subj_rows, obj_rows, neg_rows = _intern_rows(forms, negs)
    reps, enc_cache = encode_many_fwd(params, kg, pairs, b, dropout_rng)

    h_s = reps[subj_rows]
    h_o = reps[obj_rows]
    h_rel = params.relation_emb[forms[:, 1]]
    h_n = reps[neg_rows]

    f_pos = translation_score(h_s, h_rel, h_o)
    f_neg = translation_score(h_s[:, None], h_rel[:, None], h_n)

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


def reasoning_loss_bwd(cache, params, grads) -> None:
    forms, valid = cache["forms"], cache["valid"]
    h_s, h_o, h_rel, h_n = cache["h_s"], cache["h_o"], cache["h_rel"], cache["h_n"]
    active = (cache["hinge"] > 0.0) & valid
    w = active / cache["kept"]

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


def add_rows_at(out, idx, rows) -> None:
    n, d = out.shape
    cells = (np.asarray(idx, dtype=np.int64).reshape(-1, 1) * d + np.arange(d)).ravel()
    out += np.bincount(
        cells, weights=np.asarray(rows).reshape(-1), minlength=n * d
    ).reshape(n, d)


def encode_trajectories_fwd(params, kg, ids, t_max, b=8):
    if t_max < 1 or t_max > kg.horizon:
        raise ValueError(f"t_max must be in [1, horizon], got {t_max}")
    ids = np.asarray(ids, dtype=np.int64)
    out = np.zeros((len(ids), t_max, params.dim))
    for t in range(1, t_max + 1):
        out[:, t - 1] = encoder.encode_batch_fwd(params, kg, ids, t, b)[0]
    return out, {"kg": kg, "ids": ids, "b": b}


def encode_trajectories_bwd(grad_traj, cache, params, grads) -> None:
    kg, ids, b = cache["kg"], cache["ids"], cache["b"]
    for t_idx in range(grad_traj.shape[1]):
        _, sub = encoder.encode_batch_fwd(params, kg, ids, t_idx + 1, b)
        encoder.encode_batch_bwd(grad_traj[:, t_idx], sub, params, grads)
