"""Temporal representation network: time encoding plus attentive aggregation
over each entity's most recent neighbors.

Forward passes return caches; the matching ``*_bwd`` functions consume
(grad, cache) and accumulate into a gradient dict, keeping every gradient
analytic and checkable against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ParamDict, add_rows_at, softmax_masked_rows, softmax_rows_backward
from .tkg import TemporalKG


@dataclass
class NetworkParams:
    """All trainable arrays of one encoder.

    ``relation_emb`` holds 2R rows when reciprocal relations are enabled:
    row r + n_relations is the reverse form of relation r. ``time_freq`` is
    fixed after initialization and carries no gradient.
    """

    entity_emb: np.ndarray
    relation_emb: np.ndarray
    transform_W: np.ndarray
    attn_a: np.ndarray
    time_freq: np.ndarray
    dropout_rate: float = 0.5
    n_relations: int = 0  # base relation count, before reciprocal rows

    @property
    def dim(self) -> int:
        return self.entity_emb.shape[1]

    @property
    def n_entities(self) -> int:
        return self.entity_emb.shape[0]

    def trainable(self) -> ParamDict:
        return {
            "entity_emb": self.entity_emb,
            "relation_emb": self.relation_emb,
            "transform_W": self.transform_W,
            "attn_a": self.attn_a,
        }

    def zero_grads(self) -> ParamDict:
        return {k: np.zeros_like(v) for k, v in self.trainable().items()}

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            self.entity_emb.copy(),
            self.relation_emb.copy(),
            self.transform_W.copy(),
            self.attn_a.copy(),
            self.time_freq.copy(),
            self.dropout_rate,
            self.n_relations,
        )


def init_network_params(
    n_entities: int,
    n_relations: int,
    dim: int,
    seed: int,
    dropout_rate: float = 0.5,
    reciprocal: bool = True,
) -> NetworkParams:
    """Seeded initialization; frequencies follow a geometric ladder 10^(-4i/d)."""
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    rows = 2 * n_relations if reciprocal else n_relations
    entity_emb = rng.uniform(-bound, bound, size=(n_entities, dim))
    relation_emb = rng.uniform(-bound, bound, size=(rows, dim))
    w_bound = np.sqrt(6.0 / (2 * dim))
    transform_W = rng.uniform(-w_bound, w_bound, size=(dim, dim))
    a_bound = np.sqrt(6.0 / (4 * dim + 1))
    attn_a = rng.uniform(-a_bound, a_bound, size=4 * dim)
    time_freq = 10.0 ** (-4.0 * np.arange(dim) / dim)
    return NetworkParams(
        entity_emb, relation_emb, transform_W, attn_a, time_freq,
        dropout_rate, n_relations,
    )


def time_encode(params: NetworkParams, delta_t: int) -> np.ndarray:
    """kappa(dt)_i = sqrt(1/d) * cos(omega_i * dt); unit norm at dt = 0."""
    if delta_t < 0:
        raise ValueError("delta_t must be non-negative")
    d = params.time_freq.shape[0]
    return np.sqrt(1.0 / d) * np.cos(params.time_freq * delta_t)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate)."""
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


# ---------------------------------------------------------------------------
# Batched single-layer path: all requested (entity, time) rows in one call.
# ---------------------------------------------------------------------------


def time_table(params: NetworkParams, max_gap: int) -> np.ndarray:
    """(max_gap + 1, d) table whose row g is ``time_encode(params, g)``."""
    d = params.time_freq.shape[0]
    gaps = np.arange(max_gap + 1, dtype=np.int64)[:, None]
    return np.sqrt(1.0 / d) * np.cos(params.time_freq * gaps)


def encode_batch_fwd(
    params: NetworkParams,
    kg: TemporalKG,
    ids: np.ndarray,
    t,
    b: int,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """One aggregation layer for every entity in ``ids`` at time ``t``.

    ``t`` is one time for all rows or one time per row. Entities without
    history fall back to ReLU(h0 @ W). Attention logits score each
    (neighbor, relation, time-gap) triple against the shared attention
    vector; those three terms are looked up from per-entity, per-relation
    and per-gap tables. Weights are a masked softmax over the sampled
    neighbors. The dropout mask is drawn in one call, row by row, so rows
    sorted by time draw what one call per time group would.
    """
    ids = np.asarray(ids, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    nbr, rel, tim, mask = kg.neighbor_arrays(ids, t, b)
    has_nb = mask.any(axis=1)

    h_c = params.entity_emb[ids]  # (n, d)
    # Padded slots hold entity 0 but get exactly zero attention weight, so
    # they add nothing to ``agg`` or to any gradient; h_n stays unmasked.
    h_n = params.entity_emb[nbr]  # (n, b, d)
    delta = (t.reshape(-1, 1) - tim) * mask
    kappa_tab = time_table(params, int(delta.max(initial=0)))

    a1, a2, a3, a4 = params.attn_a.reshape(4, -1)
    logits = (
        (h_c @ a1)[:, None]
        + (params.entity_emb @ a2)[nbr]
        + (params.relation_emb @ a3)[rel]
        + (kappa_tab @ a4)[delta]
    )
    alpha = softmax_masked_rows(logits, mask)  # no-history rows come back zero

    agg = (alpha[:, None, :] @ h_n)[:, 0]
    agg = np.where(has_nb[:, None], agg, h_c)  # fallback aggregates the raw row
    msg = agg @ params.transform_W
    if dropout_rng is not None and params.dropout_rate > 0.0:
        dmask = dropout_mask(msg.shape, params.dropout_rate, dropout_rng)
        msg = msg * dmask
    else:
        dmask = None
    out = np.maximum(msg, 0.0)
    cache = {
        "ids": ids, "nbr": nbr, "rel": rel, "tim": tim, "mask": mask,
        "delta": delta, "kappa_tab": kappa_tab, "has_nb": has_nb, "h_c": h_c,
        "h_n": h_n, "alpha": alpha, "agg": agg, "msg": msg, "dmask": dmask,
    }
    return out, cache


def _sum_by(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """(n,) sums of ``weights`` grouped by table row ``idx``."""
    return np.bincount(idx.reshape(-1), weights=weights.reshape(-1), minlength=n)


def encode_batch_bwd(
    grad_out: np.ndarray, cache: dict, params: NetworkParams, grads: ParamDict
) -> None:
    """Accumulate d loss / d (entity_emb, relation_emb, transform_W, attn_a)."""
    ids, nbr, mask, has_nb = cache["ids"], cache["nbr"], cache["mask"], cache["has_nb"]
    h_c, h_n, alpha, agg = cache["h_c"], cache["h_n"], cache["alpha"], cache["agg"]
    kappa_tab = cache["kappa_tab"]

    g_msg = grad_out * (cache["msg"] > 0.0)
    if cache["dmask"] is not None:
        g_msg = g_msg * cache["dmask"]
    grads["transform_W"] += agg.T @ g_msg
    g_agg = g_msg @ params.transform_W.T

    g_hc = np.where(has_nb[:, None], 0.0, g_agg)  # fallback path
    g_agg = np.where(has_nb[:, None], g_agg, 0.0)

    g_alpha = (h_n @ g_agg[:, :, None])[..., 0]
    # zero on padded slots, where alpha is zero
    g_logits = softmax_rows_backward(alpha, g_alpha)

    # The neighbor, relation and time-gap terms are table lookups: their
    # logit gradients sum per table row. kappa depends only on frozen
    # frequencies; no gradient flows further.
    a1, a2, a3, _ = params.attn_a.reshape(4, -1)
    g_row = g_logits.sum(axis=1)
    g_hc += g_row[:, None] * a1
    g_nbr = _sum_by(nbr, g_logits, params.n_entities)
    g_rel = _sum_by(cache["rel"], g_logits, params.relation_emb.shape[0])
    g_gap = _sum_by(cache["delta"], g_logits, kappa_tab.shape[0])

    ga = grads["attn_a"].reshape(4, -1)
    ga[0] += g_row @ h_c
    ga[1] += g_nbr @ params.entity_emb
    ga[2] += g_rel @ params.relation_emb
    ga[3] += g_gap @ kappa_tab
    grads["entity_emb"] += g_nbr[:, None] * a2
    grads["relation_emb"] += g_rel[:, None] * a3

    # messages: each live neighbor slot passes alpha * g_agg to its entity
    rows, slots = np.nonzero(mask)
    add_rows_at(
        grads["entity_emb"],
        np.concatenate([ids, nbr[rows, slots]]),
        np.concatenate([g_hc, alpha[rows, slots, None] * g_agg[rows]]),
    )


# ---------------------------------------------------------------------------
# Recursive path for stacked layers; layer 0 is the raw embedding row.
# ---------------------------------------------------------------------------


def _encode_rec_fwd(params, kg, e, t, layer, b):
    if layer == 0:
        return params.entity_emb[e].copy(), {"kind": "leaf", "e": e}
    neighbors = kg.temporal_neighbors(e, t, b)
    h_c, cache_c = _encode_rec_fwd(params, kg, e, t, layer - 1, b)
    if not neighbors:
        msg = params.entity_emb[e] @ params.transform_W
        out = np.maximum(msg, 0.0)
        return out, {"kind": "fallback", "e": e, "msg": msg}
    subs, h_n, h_r, kap = [], [], [], []
    for (e_k, r_k, t_k) in neighbors:
        h_k, cache_k = _encode_rec_fwd(params, kg, e_k, t_k, layer - 1, b)
        subs.append(cache_k)
        h_n.append(h_k)
        h_r.append(params.relation_emb[r_k])
        kap.append(time_encode(params, t - t_k))
    h_n = np.stack(h_n)
    h_r = np.stack(h_r)
    kap = np.stack(kap)
    a1, a2, a3, a4 = params.attn_a.reshape(4, -1)
    logits = h_c @ a1 + h_n @ a2 + h_r @ a3 + kap @ a4
    alpha = softmax_masked_rows(logits, np.ones_like(logits, dtype=bool))
    agg = alpha @ h_n
    msg = agg @ params.transform_W
    out = np.maximum(msg, 0.0)
    cache = {
        "kind": "node", "neighbors": neighbors, "subs": subs, "cache_c": cache_c,
        "h_c": h_c, "h_n": h_n, "h_r": h_r, "alpha": alpha, "agg": agg,
        "msg": msg, "kappa": kap,
    }
    return out, cache


def _encode_rec_bwd(grad_out, cache, params, grads):
    kind = cache["kind"]
    if kind == "leaf":
        grads["entity_emb"][cache["e"]] += grad_out
        return
    if kind == "fallback":
        g_msg = grad_out * (cache["msg"] > 0.0)
        grads["transform_W"] += np.outer(params.entity_emb[cache["e"]], g_msg)
        grads["entity_emb"][cache["e"]] += g_msg @ params.transform_W.T
        return
    h_c, h_n, h_r = cache["h_c"], cache["h_n"], cache["h_r"]
    alpha, agg = cache["alpha"], cache["agg"]
    g_msg = grad_out * (cache["msg"] > 0.0)
    grads["transform_W"] += np.outer(agg, g_msg)
    g_agg = g_msg @ params.transform_W.T
    g_alpha = h_n @ g_agg
    g_hn = alpha[:, None] * g_agg[None, :]
    g_logits = softmax_rows_backward(alpha, g_alpha)
    a1, a2, a3, _ = params.attn_a.reshape(4, -1)
    g_hc = g_logits.sum() * a1
    g_hn += g_logits[:, None] * a2
    ga = grads["attn_a"].reshape(4, -1)
    ga[0] += g_logits.sum() * h_c
    ga[1] += g_logits @ h_n
    ga[2] += g_logits @ h_r
    ga[3] += g_logits @ cache["kappa"]
    for k, (e_k, r_k, t_k) in enumerate(cache["neighbors"]):
        grads["relation_emb"][r_k] += g_logits[k] * a3
        _encode_rec_bwd(g_hn[k], cache["subs"][k], params, grads)
    _encode_rec_bwd(g_hc, cache["cache_c"], params, grads)


def encode_entity(
    params: NetworkParams,
    kg: TemporalKG,
    e: int,
    t: int,
    layers: int = 1,
    b: int = 8,
) -> np.ndarray:
    """Representation of entity ``e`` at time ``t`` after ``layers`` aggregations."""
    h, _ = encode_entity_fwd(params, kg, e, t, layers, b)
    return h


def encode_entity_fwd(params, kg, e, t, layers=1, b=8):
    if not 0 <= e < params.n_entities:
        raise KeyError(f"unknown entity id {e}")
    if layers < 0:
        raise ValueError("layers must be non-negative")
    if layers == 1:
        out, cache = encode_batch_fwd(params, kg, np.array([e]), t, b)
        return out[0], {"kind": "batch1", "cache": cache}
    return _encode_rec_fwd(params, kg, e, t, layers, b)


def encode_entity_bwd(grad_out, cache, params, grads):
    if cache.get("kind") == "batch1":
        encode_batch_bwd(grad_out[None, :], cache["cache"], params, grads)
    else:
        _encode_rec_bwd(grad_out, cache, params, grads)


# ---------------------------------------------------------------------------
# Grouped encoding of many (entity, time) pairs and trajectories.
# ---------------------------------------------------------------------------


def encode_many_fwd(
    params: NetworkParams,
    kg: TemporalKG,
    pairs,
    b: int,
    layers: int = 1,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Encode unique (entity, time) pairs, given as a sequence or a (k, 2) array.

    One ``encode_batch_fwd`` call covers every pair, its rows stably sorted
    by time, so dropout draws match one call per time step in ascending order.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if layers != 1:
        out = np.zeros((len(pairs), params.dim))
        caches = []
        for i, (e, t) in enumerate(pairs.tolist()):
            h, c = encode_entity_fwd(params, kg, e, t, layers, b)
            out[i] = h
            caches.append(c)
        return out, {"mode": "rec", "caches": caches}
    order = np.argsort(pairs[:, 1], kind="stable")
    h, cache = encode_batch_fwd(
        params, kg, pairs[order, 0], pairs[order, 1], b, dropout_rng
    )
    out = np.empty_like(h)
    out[order] = h
    return out, {"mode": "batch", "order": order, "cache": cache}


def encode_many_bwd(grad_out, cache, params, grads) -> None:
    if cache["mode"] == "rec":
        for g, c in zip(grad_out, cache["caches"]):
            encode_entity_bwd(g, c, params, grads)
        return
    encode_batch_bwd(grad_out[cache["order"]], cache["cache"], params, grads)


def encode_trajectory(
    params: NetworkParams,
    kg: TemporalKG,
    e: int,
    t_max: int,
    layers: int = 1,
    b: int = 8,
) -> np.ndarray:
    """Rows 0..t_max-1 hold the representation at times 1..t_max."""
    traj, _ = encode_trajectories_fwd(params, kg, np.array([e]), t_max, layers, b)
    return traj[0]


def encode_trajectories_fwd(
    params: NetworkParams,
    kg: TemporalKG,
    ids: np.ndarray,
    t_max: int,
    layers: int = 1,
    b: int = 8,
) -> tuple[np.ndarray, dict]:
    """(n, t_max, d) trajectories over times 1..t_max for all ``ids``."""
    if t_max < 1 or t_max > kg.horizon:
        raise ValueError(f"t_max must be in [1, horizon], got {t_max}")
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    out = np.zeros((n, t_max, params.dim))
    caches = []
    for t in range(1, t_max + 1):
        if layers == 1:
            h, cache = encode_batch_fwd(params, kg, ids, t, b)
        else:
            h = np.zeros((n, params.dim))
            subs = []
            for row, e in enumerate(ids):
                hv, c = encode_entity_fwd(params, kg, int(e), t, layers, b)
                h[row] = hv
                subs.append(c)
            cache = {"mode": "rec", "caches": subs}
        out[:, t - 1] = h
        caches.append(cache)
    return out, {"caches": caches, "layers": layers}


def encode_trajectories_bwd(grad_traj, cache, params, grads) -> None:
    for t_idx, sub in enumerate(cache["caches"]):
        g = grad_traj[:, t_idx]
        if cache["layers"] == 1:
            encode_batch_bwd(g, sub, params, grads)
        else:
            for row, c in enumerate(sub["caches"]):
                encode_entity_bwd(g[row], c, params, grads)
