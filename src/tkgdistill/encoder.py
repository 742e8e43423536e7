"""Temporal representation network: time encoding plus attentive aggregation
over each entity's most recent neighbors.

Forward passes return caches; the matching ``*_bwd`` functions consume
(grad, cache) and accumulate into a gradient dict, keeping every gradient
analytic and checkable against central differences.

A cache keeps only what the backward cannot gather again: the neighbor
index arrays, attention weights, the (n, d) aggregate, the ReLU mask and
the dropout mask. The backward gathers the centre and neighbor rows of
``entity_emb`` again, which gives the forward's values because the
parameters do not change between a forward and its backward. A trajectory
of 28 steps keeps none of its steps' caches. Both its directions form the
windows and weights of all steps in one ``_attention`` pass; only the
aggregation, the (n, d) @ W product (over all steps' rows it would round
differently) and the ReLU run per step, and the backward builds a step's
aggregate again, by the same argument, just before that step's backward.

Neither direction builds one either: both gather neighbor rows one slice
of ``ceil(n / b)`` rows (at least 256) at a time, so a gathered slice is
no larger than the (n, d) arrays, and each slice runs the same per-row
matmul as a whole-block gather would, bit for bit. The (n, d) arrays are
then worked on in place: the dropout mask and the ReLU write into the
message, and the fallback rows are set and cleared where they lie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    ParamDict, narrow_keys, scatter_matrix, softmax_masked_rows, softmax_rows_backward,
)
from .tkg import TemporalKG

@dataclass
class NetworkParams:
    """All trainable arrays of one encoder.

    ``relation_emb`` holds 2R rows: row r + n_relations is the reverse
    form of relation r. ``time_freq`` is fixed after initialization and
    carries no gradient.
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
) -> NetworkParams:
    """Seeded initialization; frequencies follow a geometric ladder 10^(-4i/d)."""
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    entity_emb = rng.uniform(-bound, bound, size=(n_entities, dim))
    relation_emb = rng.uniform(-bound, bound, size=(2 * n_relations, dim))
    w_bound = np.sqrt(6.0 / (2 * dim))
    transform_W = rng.uniform(-w_bound, w_bound, size=(dim, dim))
    a_bound = np.sqrt(6.0 / (4 * dim + 1))
    attn_a = rng.uniform(-a_bound, a_bound, size=4 * dim)
    time_freq = 10.0 ** (-4.0 * np.arange(dim) / dim)
    return NetworkParams(
        entity_emb, relation_emb, transform_W, attn_a, time_freq,
        dropout_rate, n_relations,
    )


def time_table(params: NetworkParams, max_gap: int) -> np.ndarray:
    """(max_gap + 1, d) table: kappa(g)_i = sqrt(1/d) * cos(omega_i * g)."""
    d = params.time_freq.shape[0]
    gaps = np.arange(max_gap + 1, dtype=np.int64)[:, None]
    return np.sqrt(1.0 / d) * np.cos(params.time_freq * gaps)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate)."""
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


# ---------------------------------------------------------------------------
# The encoder: one aggregation layer over all requested (entity, time) rows.
# ---------------------------------------------------------------------------


def _row_slices(n: int, b: int) -> list[slice]:
    """Slices of ``ceil(n / b)`` rows, at least 256, over ``n`` rows: a
    slice's (rows, b, d) neighbor gather holds no more values than an
    (n, d) array once n >= 256 * b, and small batches take one slice."""
    step = max(-(-n // b), 256)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _attention(params, kg, ids, h_c, t, b) -> list[dict]:
    """Neighbor windows and attention weights of the rows ``ids`` (own
    embeddings ``h_c``) at each step of ``t``, (k, 1) or (k, n): one dict
    per step from one neighbor lookup and one softmax. Logits score each
    (neighbor, relation, time-gap) triple against the attention vector,
    each term looked up from a per-entity, per-relation or per-gap table.
    Each step's gap table spans its own largest gap, as a call for that
    step alone: a (gaps, d) @ (d,) product rounds with its row count.
    """
    nbr, rel, tim, mask = kg.neighbor_arrays(ids, t, b)
    delta = (t[..., None] - tim) * mask
    a1, a2, a3, a4 = params.attn_a.reshape(4, -1)
    tables = [time_table(params, int(gaps.max(initial=0))) for gaps in delta]
    logits = (
        (h_c @ a1)[:, None]
        + (params.entity_emb @ a2)[nbr]
        + (params.relation_emb @ a3)[rel]
        + np.stack([(table @ a4)[gaps] for table, gaps in zip(tables, delta)])
    )
    windows = {
        "nbr": nbr, "rel": rel, "tim": tim, "mask": mask, "delta": delta,
        "kappa_tab": tables, "has_nb": mask.any(axis=-1),
        "alpha": softmax_masked_rows(logits, mask),  # no-history rows come back zero
    }
    return [{key: value[s] for key, value in windows.items()} for s in range(len(t))]


def _messages(params, h_c, step, b) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) aggregates of one step's windows, and their messages agg @ W.
    Padded slots hold entity 0 at zero weight, so they add nothing; each
    slice of rows gathers its own neighbor rows for the same per-row matmul.
    Rows without history aggregate their own embedding."""
    agg = np.empty_like(h_c)
    for part in _row_slices(len(h_c), b):
        np.matmul(
            step["alpha"][part, None, :], params.entity_emb[step["nbr"][part]],
            out=agg[part, None, :],
        )
    np.copyto(agg, h_c, where=~step["has_nb"][:, None])
    return agg, agg @ params.transform_W


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
    history fall back to ReLU(h0 @ W). ``_attention`` takes all rows as one
    step. The dropout mask is drawn in one call, row by row, so rows sorted
    by time draw what one call per time group would.
    """
    ids = np.asarray(ids, dtype=np.int64)
    h_c = params.entity_emb[ids]  # (n, d)
    t = np.asarray(t, dtype=np.int64).reshape(1, -1)
    (step,) = _attention(params, kg, ids, h_c, t, b)
    agg, msg = _messages(params, h_c, step, b)
    if dropout_rng is not None and params.dropout_rate > 0.0:
        dmask = dropout_mask(msg.shape, params.dropout_rate, dropout_rng)
        msg *= dmask
    else:
        dmask = None
    live = msg > 0.0
    out = np.maximum(msg, 0.0, out=msg)
    cache = {"ids": ids, **step, "agg": agg, "live": live, "dmask": dmask}
    return out, cache


def _sum_by(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """(n,) sums of ``weights`` grouped by table row ``idx``."""
    return np.bincount(idx.reshape(-1), weights=weights.reshape(-1), minlength=n)


def encode_batch_bwd(
    grad_out: np.ndarray, cache: dict, params: NetworkParams, grads: ParamDict
) -> None:
    """Accumulate d loss / d (entity_emb, relation_emb, transform_W, attn_a).

    ``params`` must be the parameters of the forward that made ``cache``:
    the centre and neighbor rows are gathered from them again.
    """
    ids, nbr, mask, has_nb = cache["ids"], cache["nbr"], cache["mask"], cache["has_nb"]
    alpha, agg, kappa_tab = cache["alpha"], cache["agg"], cache["kappa_tab"]

    n = len(ids)
    g_msg = grad_out * cache["live"]
    if cache["dmask"] is not None:
        g_msg *= cache["dmask"]
    grads["transform_W"] += agg.T @ g_msg
    # the centre rows' and the aggregates' gradients share one block, which
    # the message product below reads whole
    g_both = np.empty((2 * n, agg.shape[1]))
    g_hc, g_agg = g_both[:n], g_both[n:]
    np.matmul(g_msg, params.transform_W.T, out=g_agg)
    del g_msg
    fallback = ~has_nb
    g_hc.fill(0.0)
    g_hc[fallback] = g_agg[fallback]  # fallback path
    g_agg[fallback] = 0.0

    g_alpha = np.empty(nbr.shape)
    for part in _row_slices(n, nbr.shape[1]):
        np.matmul(
            params.entity_emb[nbr[part]], g_agg[part, :, None],
            out=g_alpha[part, :, None],
        )
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
    ga[0] += g_row @ params.entity_emb[ids]
    ga[1] += g_nbr @ params.entity_emb
    ga[2] += g_rel @ params.relation_emb
    ga[3] += g_gap @ kappa_tab
    grads["entity_emb"] += g_nbr[:, None] * a2
    grads["relation_emb"] += g_rel[:, None] * a3

    # messages: each centre row takes g_hc and each live neighbor slot
    # alpha * g_agg of its row, summed per entity by one sparse product. An
    # entity's entries keep the order [centres by row, live slots by row and
    # slot], so its sum adds the same products in the same order as a
    # scatter of those rows would, and no (slots, d) block is built.
    rows, slots = np.nonzero(mask)
    messages = scatter_matrix(
        np.concatenate([ids, nbr[rows, slots]]),
        np.concatenate([np.arange(n), n + rows]),
        np.concatenate([np.ones(n), alpha[rows, slots]]),
        (params.n_entities, 2 * n),
    )
    grads["entity_emb"] += messages @ g_both


# ---------------------------------------------------------------------------
# Grouped encoding of many (entity, time) pairs and trajectories.
# ---------------------------------------------------------------------------


def encode_many_fwd(
    params: NetworkParams,
    kg: TemporalKG,
    pairs,
    b: int,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Encode unique (entity, time) pairs, given as a sequence or a (k, 2) array.

    One ``encode_batch_fwd`` call covers every pair, its rows stably sorted
    by time, so dropout draws match one call per time step in ascending order.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    order = np.argsort(narrow_keys(pairs[:, 1]), kind="stable")
    h, cache = encode_batch_fwd(
        params, kg, pairs[order, 0], pairs[order, 1], b, dropout_rng
    )
    out = np.empty_like(h)
    out[order] = h
    return out, {"order": order, "cache": cache}


def encode_many_bwd(grad_out, cache, params, grads) -> None:
    encode_batch_bwd(grad_out[cache["order"]], cache["cache"], params, grads)


def encode_trajectories_fwd(
    params: NetworkParams,
    kg: TemporalKG,
    ids: np.ndarray,
    t_max: int,
    b: int = 8,
) -> tuple[np.ndarray, dict]:
    """(n, t_max, d) trajectories over times 1..t_max for all ``ids``.

    Column t - 1 is bitwise ``encode_batch_fwd(params, kg, ids, t, b)``:
    one ``_attention`` call covers every step, and only the aggregation, the
    message product and the ReLU run per step. The cache names only the
    graph, the ids and ``b``.
    """
    if t_max < 1 or t_max > kg.horizon:
        raise ValueError(f"t_max must be in [1, horizon], got {t_max}")
    ids = np.asarray(ids, dtype=np.int64)
    h_c = params.entity_emb[ids]
    out = np.empty((len(ids), t_max, params.dim))
    times = np.arange(1, t_max + 1)[:, None]
    for s, step in enumerate(_attention(params, kg, ids, h_c, times, b)):
        np.maximum(_messages(params, h_c, step, b)[1], 0.0, out=out[:, s])
    return out, {"kg": kg, "ids": ids, "b": b}


def encode_trajectories_bwd(grad_traj, cache, params, grads) -> None:
    """Backward of ``encode_trajectories_fwd``, one step at a time.

    One ``_attention`` call builds every step's windows and weights again,
    and each step's aggregates are built again just before its backward: a
    trajectory draws no dropout, so with the forward's parameters and graph
    both are the forward's bit for bit.
    """
    kg, ids, b = cache["kg"], cache["ids"], cache["b"]
    h_c = params.entity_emb[ids]
    times = np.arange(1, grad_traj.shape[1] + 1)[:, None]
    for s, step in enumerate(_attention(params, kg, ids, h_c, times, b)):
        agg, msg = _messages(params, h_c, step, b)
        sub = {"ids": ids, **step, "agg": agg, "live": msg > 0.0, "dmask": None}
        encode_batch_bwd(grad_traj[:, s], sub, params, grads)
