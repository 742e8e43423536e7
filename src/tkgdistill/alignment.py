"""Cross-lingual alignment module: causal temporal integration of entity
trajectories, cosine correspondence, a parameter-free per-time alignment
strength, and the strength-weighted ranking loss over alignment pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    ParamDict,
    row_chunks,
    softmax_rows_backward,
    unit_rows,
    unit_rows_backward,
)


@dataclass
class AlignParams:
    """Trainable arrays: one temporal attention shared by both languages.
    The alignment strength has no parameters (see ``strength_diagonal``)."""

    temporal_WQ: np.ndarray
    temporal_WK: np.ndarray
    temporal_WV: np.ndarray

    def trainable(self) -> ParamDict:
        return {
            "temporal_WQ": self.temporal_WQ,
            "temporal_WK": self.temporal_WK,
            "temporal_WV": self.temporal_WV,
        }

    def zero_grads(self) -> ParamDict:
        return {k: np.zeros_like(v) for k, v in self.trainable().items()}

    def copy(self) -> "AlignParams":
        return AlignParams(*(v.copy() for v in self.trainable().values()))


def init_align_params(dim: int, seed: int) -> AlignParams:
    """Glorot-uniform temporal attention projections."""
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (2 * dim))
    return AlignParams(
        *(rng.uniform(-bound, bound, size=(dim, dim)) for _ in range(3))
    )


def _causal_softmax(scores: np.ndarray) -> np.ndarray:
    """Row softmax of (..., T, T) scores over key index <= query index, in
    place. Each row's diagonal is live, so no row is empty and its max is
    finite: an additive -inf mask needs no masking pass after the exp."""
    t_len = scores.shape[-1]
    scores += np.triu(np.full((t_len, t_len), -np.inf), 1)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def temporal_integrate_batch_fwd(
    ap: AlignParams, trajs: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Causally-masked self attention over (n, T, d) trajectories.

    Row t of each output depends only on trajectory rows 1..t. The cache
    holds the caller's ``trajs`` and the attention weights only; the
    backward projects q, k and v again. Rows are independent, so q and k
    are formed over ``row_chunks`` and their scores written into the
    weights, then v is formed over them and written into the output: no
    other (n, T, T) or (n, T, d) block is built.
    """
    if trajs.ndim != 3 or trajs.shape[1] == 0:
        raise ValueError("empty trajectory")
    n, t_len, d = trajs.shape
    chunks = row_chunks(n)
    beta = np.empty((n, t_len, t_len))
    for part in chunks:
        x = trajs[part]
        scores = np.matmul(
            x @ ap.temporal_WQ, (x @ ap.temporal_WK).transpose(0, 2, 1),
            out=beta[part],
        )
        scores /= np.sqrt(d)
        _causal_softmax(scores)
    out = np.empty_like(trajs)
    for part in chunks:
        np.matmul(beta[part], trajs[part] @ ap.temporal_WV, out=out[part])
    return out, {"trajs": trajs, "beta": beta}


_PROJECTIONS = ("temporal_WQ", "temporal_WK", "temporal_WV")


def temporal_integrate_batch_bwd(
    grad_out: np.ndarray,
    cache: dict,
    ap: AlignParams,
    grads: ParamDict | None = None,
    traj_grad: bool = True,
) -> np.ndarray | None:
    """Return d loss / d trajectories (None without ``traj_grad``) and, if
    ``grads`` is given, accumulate the attention-parameter grads into it.

    A caller that keeps only one of the two skips the other's products. v,
    k and q are recomputed from ``trajs`` over ``row_chunks``: the
    parameters do not change between a forward and its backward. Every
    per-row product runs one chunk at a time. The trajectory gradient alone
    needs nothing larger; with ``grads``, the score gradient and one
    projection's gradient at a time fill whole (n, T, T) and (n, T, d)
    buffers, so each parameter gradient is one tensordot over all rows.
    """
    trajs, beta = cache["trajs"], cache["beta"]
    scale = np.sqrt(trajs.shape[-1])
    chunks = row_chunks(len(trajs))
    grad_trajs = np.empty_like(trajs) if traj_grad else None

    def g_scores_at(part: slice, out=None) -> np.ndarray:
        g = np.matmul(
            grad_out[part], (trajs[part] @ ap.temporal_WV).transpose(0, 2, 1),
            out=out,
        )
        softmax_rows_backward(beta[part], g)  # d beta -> d scores
        g /= scale
        return g

    def g_proj_at(name: str, part: slice, g_scores, out=None) -> np.ndarray:
        # d loss / d (trajs @ name) over the rows of ``part``
        x = trajs[part]
        if name == "temporal_WQ":
            return np.matmul(g_scores, x @ ap.temporal_WK, out=out)
        if name == "temporal_WK":
            return np.matmul(
                g_scores.transpose(0, 2, 1), x @ ap.temporal_WQ, out=out
            )
        return np.matmul(beta[part].transpose(0, 2, 1), grad_out[part], out=out)

    def take_traj(name: str, part: slice, g_proj: np.ndarray) -> None:
        # one projection's share, summed in Q, K, V order
        term = g_proj @ getattr(ap, name).T
        if name == _PROJECTIONS[0]:
            grad_trajs[part] = term
        else:
            grad_trajs[part] += term

    if grads is None:
        if traj_grad:
            for part in chunks:
                g_scores = g_scores_at(part)
                for name in _PROJECTIONS:
                    take_traj(name, part, g_proj_at(name, part, g_scores))
        return grad_trajs

    g_scores = np.empty_like(beta)
    for part in chunks:
        g_scores_at(part, out=g_scores[part])
    g_proj = np.empty_like(trajs)
    for name in _PROJECTIONS:
        if name == "temporal_WV":
            g_scores = None  # the value gradient reads the weights instead
        for part in chunks:
            g_s = None if g_scores is None else g_scores[part]
            g_proj_at(name, part, g_s, out=g_proj[part])
            if traj_grad:
                take_traj(name, part, g_proj[part])
        grads[name] += np.tensordot(trajs, g_proj, axes=([0, 1], [0, 1]))
    return grad_trajs


def strength_diagonal(h_source: np.ndarray, h_target: np.ndarray) -> np.ndarray:
    """Per-time alignment strength: diagonal of the masked cross attention.

    ``h_source``/``h_target`` are (..., T, d) integrations; queries are the
    source rows and keys the target rows, unprojected, so the strength has
    no parameters. Row 1 has a single live entry, so the strength at t = 1
    is exactly 1.
    """
    scores = h_source @ np.swapaxes(h_target, -1, -2)
    scores /= np.sqrt(h_source.shape[-1])
    return np.diagonal(_causal_softmax(scores), axis1=-2, axis2=-1)


def sample_alignment_negatives(
    n_targets: int,
    exclusions: list[set[int]],
    neg_factor: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(P, N) negative target ids, uniform with per-pair exclusion sets.

    Collisions are resampled up to 100 times; an irreducible collision
    (tiny vocabularies) is flagged via -1.
    """
    p = len(exclusions)
    negs = rng.integers(0, n_targets, size=(p, neg_factor))
    for row, excl in enumerate(exclusions):
        if not excl:
            continue
        for col in range(neg_factor):
            attempts = 0
            while int(negs[row, col]) in excl:
                negs[row, col] = rng.integers(0, n_targets)
                attempts += 1
                if attempts >= 100:
                    negs[row, col] = -1
                    break
    return negs


def alignment_loss_fwd(
    ap: AlignParams,
    source_trajs: np.ndarray,
    h_tgt: np.ndarray,
    pair_targets: np.ndarray,
    exclusions: list[set[int]],
    neg_factor: int,
    margin: float,
    rng: np.random.Generator,
    strength_override: np.ndarray | None = None,
    *,
    u_tgt: np.ndarray,
) -> tuple[float, dict]:
    """Strength-weighted margin loss over alignment pairs.

    ``source_trajs`` is (P, T, d), one trajectory per pair (teacher side),
    integrated here; ``h_tgt`` is the caller's (n_targets, T, d) integration
    of the whole target vocabulary and ``u_tgt`` its ``unit_rows``, so
    sampled negatives can index them and one integration and one unit-row
    block serve every pair set of a step. The cache refers to ``u_tgt``
    and builds no copy of it. The strength weight is
    a constant in the gradient (detached): it scales the hinge but is not
    itself optimized, which blocks the degenerate all-zero-strength solution.
    ``strength_override`` freezes the weights explicitly (used by the
    finite-difference checks and by the uniform-strength ablation via ones);
    without it the weights are ``strength_diagonal`` of the integrations.

    Both sides are normalised to unit rows once. Each time step then scores
    every source row against every target row in one (P, n_targets) matmul,
    and only the cosines of each pair's target and negatives are kept, so
    memory is O(P * n_targets + P * N * T) and neither a (T, P, n_targets)
    nor a (P, N, T, d) block is built. A zero row scores 0.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    p = source_trajs.shape[0]
    if p == 0:
        raise ValueError("empty alignment pair set")
    h_src, cache_src = temporal_integrate_batch_fwd(ap, source_trajs)

    negs = sample_alignment_negatives(h_tgt.shape[0], exclusions, neg_factor, rng)
    valid = negs >= 0
    safe_negs = np.where(valid, negs, 0)

    u_src, n_src = unit_rows(h_src)  # (P, T, d)
    t_len = u_src.shape[1]
    rows = np.arange(p)
    g_pos = np.empty((p, t_len))
    g_neg = np.empty((p, safe_negs.shape[1], t_len))
    for t in range(t_len):
        sim = u_src[:, t] @ u_tgt[:, t].T  # (P, n_targets)
        g_pos[:, t] = sim[rows, pair_targets]
        g_neg[:, :, t] = sim[rows[:, None], safe_negs]
    del sim
    np.clip(g_pos, -1.0, 1.0, out=g_pos)
    np.clip(g_neg, -1.0, 1.0, out=g_neg)

    if strength_override is not None:
        beta = strength_override
    else:
        beta = strength_diagonal(h_src, h_tgt[pair_targets])

    hinge = np.maximum(0.0, margin - g_pos[:, None, :] + g_neg)
    hinge = hinge * valid[..., None]
    weight = 1.0 / hinge.size
    loss = float((beta[:, None, :] * hinge).sum() * weight)
    cache = {
        "cache_src": cache_src,
        "u_src": u_src, "n_src": n_src, "u_tgt": u_tgt,
        "beta": beta, "hinge": hinge, "valid": valid, "safe_negs": safe_negs,
        "pair_targets": pair_targets, "weight": weight,
    }
    return loss, cache


def alignment_loss_bwd(
    cache: dict, ap: AlignParams, grads: ParamDict | None = None,
    scale: float = 1.0, g_u_tgt: np.ndarray | None = None,
) -> np.ndarray:
    """Return d (scale * loss) / d target unit rows ``cache["u_tgt"]``,
    added into ``g_u_tgt`` if given and returned as a new array otherwise,
    and, if ``grads`` is given, accumulate the source side's share of the
    parameter gradients, times ``scale``, into it. Without ``grads`` (a
    frozen module) nothing of the source side's backward runs; the source
    trajectories belong to the frozen teacher, so their gradient is never
    computed.

    The caller carries the returned gradient through ``unit_rows_backward``
    and the target integration's backward, so gradients of several pair
    sets over one target integration are summed in one buffer first, in
    the order the sets' backwards run. Per time step,
    one weighted ``bincount`` sums the hinge gradients into a (P, n_targets)
    cosine-gradient block (duplicate negatives add up), which two matmuls
    carry to both sides' unit rows.
    """
    u_src, u_tgt = cache["u_src"], cache["u_tgt"]
    beta, hinge = cache["beta"], cache["hinge"]
    p, _, t_len = hinge.shape
    n_targets = u_tgt.shape[0]
    rows, pair_targets = np.arange(p), cache["pair_targets"]

    # hinge is already zero at the -1 (invalid) negatives
    g_hinge = beta[:, None, :] * (hinge > 0.0) * (cache["weight"] * scale)
    g_pos = g_hinge.sum(axis=1).T  # (T, P)
    cells = (rows[:, None] * n_targets + cache["safe_negs"]).ravel()
    add = g_u_tgt is not None
    if not add:
        g_u_tgt = np.empty_like(u_tgt)
    g_u_src = None if grads is None else np.empty_like(u_src)
    for t in range(t_len):
        g_sim = np.bincount(
            cells, weights=g_hinge[:, :, t].ravel(), minlength=p * n_targets
        ).reshape(p, n_targets)
        g_sim[rows, pair_targets] -= g_pos[t]
        if g_u_src is not None:
            np.matmul(g_sim, u_tgt[:, t], out=g_u_src[:, t])
        if add:
            g_u_tgt[:, t] += g_sim.T @ u_src[:, t]
        else:
            np.matmul(g_sim.T, u_src[:, t], out=g_u_tgt[:, t])
    del g_sim, g_hinge

    if g_u_src is not None:
        unit_rows_backward(g_u_src, u_src, cache["n_src"])
        temporal_integrate_batch_bwd(
            g_u_src, cache["cache_src"], ap, grads, traj_grad=False
        )
    return g_u_tgt
