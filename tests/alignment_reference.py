"""Scalar views of the batched alignment kernels, for the tests: one
trajectory's integration, one cosine correspondence, one strength value,
and the loss and its gradients on raw target trajectories; and whole-block
forms of the integration and the unit rows.
"""

from __future__ import annotations

import numpy as np

from tkgdistill.alignment import (
    AlignParams,
    _causal_softmax,
    alignment_loss_bwd,
    alignment_loss_fwd,
    strength_diagonal,
    temporal_integrate_batch_bwd,
    temporal_integrate_batch_fwd,
)
from tkgdistill.numerics import softmax_rows_backward, unit_rows, unit_rows_backward


def temporal_integrate(ap: AlignParams, traj: np.ndarray) -> np.ndarray:
    """Integrate one (T, d) trajectory; row t summarizes history up to t."""
    out, _ = temporal_integrate_batch_fwd(ap, traj[None])
    return out[0]


def correspondence(h_source: np.ndarray, h_target: np.ndarray, t: int) -> float:
    """Cosine of the two integrations at time step ``t`` (1-based)."""
    if not 1 <= t <= min(h_source.shape[0], h_target.shape[0]):
        raise ValueError(f"time step {t} outside both integrations")
    u, v = h_source[t - 1], h_target[t - 1]
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("undefined cosine: zero vector")
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


def alignment_strength(h_source: np.ndarray, h_target: np.ndarray, t: int) -> float:
    """Strength for one pair at 1-based time ``t``; lies in (0, 1]."""
    t_len = h_source.shape[0]
    if not 1 <= t <= t_len:
        raise ValueError(f"time step {t} outside integration of length {t_len}")
    return float(strength_diagonal(h_source, h_target)[t - 1])


def alignment_step(ap: AlignParams, source_trajs, target_trajs, *args, **kwargs):
    """``alignment_loss_fwd`` on raw target trajectories, integrated here as
    the trainer integrates them. Returns the loss, the loss cache and
    ``backward(grads)``, which accumulates the parameter gradients into
    ``grads`` and returns the gradient with respect to ``target_trajs``."""
    h_tgt, tgt_cache = temporal_integrate_batch_fwd(ap, target_trajs)
    u_tgt, n_tgt = unit_rows(h_tgt)
    loss, cache = alignment_loss_fwd(
        ap, source_trajs, h_tgt, *args, u_tgt=u_tgt, **kwargs
    )

    def backward(grads):
        g_u = alignment_loss_bwd(cache, ap, grads)
        g_h = unit_rows_backward(g_u, u_tgt, n_tgt)
        return temporal_integrate_batch_bwd(g_h, tgt_cache, ap, grads)

    return loss, cache, backward


def alignment_loss(*args, **kwargs) -> float:
    """``alignment_step``'s loss alone."""
    return alignment_step(*args, **kwargs)[0]


# Whole-block forms of the integration and the unit rows, as the package
# computed them before it worked over row chunks; the tests hold the two
# forms bitwise equal.


def integrate_whole_fwd(ap: AlignParams, trajs: np.ndarray):
    d = trajs.shape[-1]
    q = trajs @ ap.temporal_WQ
    k = trajs @ ap.temporal_WK
    scores = q @ k.transpose(0, 2, 1)
    scores /= np.sqrt(d)
    beta = _causal_softmax(scores)
    out = beta @ (trajs @ ap.temporal_WV)
    return out, {"trajs": trajs, "beta": beta}


def integrate_whole_bwd(grad_out, cache, ap: AlignParams, grads, traj_grad=True):
    trajs, beta = cache["trajs"], cache["beta"]
    d = trajs.shape[-1]
    grad_trajs = None

    def take(name, g_proj):
        nonlocal grad_trajs
        grads[name] += np.tensordot(trajs, g_proj, axes=([0, 1], [0, 1]))
        if traj_grad:
            term = g_proj @ getattr(ap, name).T
            grad_trajs = term if grad_trajs is None else np.add(
                grad_trajs, term, out=grad_trajs
            )

    g_scores = grad_out @ (trajs @ ap.temporal_WV).transpose(0, 2, 1)
    softmax_rows_backward(beta, g_scores)
    g_scores /= np.sqrt(d)
    take("temporal_WQ", g_scores @ (trajs @ ap.temporal_WK))
    take("temporal_WK", g_scores.transpose(0, 2, 1) @ (trajs @ ap.temporal_WQ))
    take("temporal_WV", beta.transpose(0, 2, 1) @ grad_out)
    return grad_trajs


def unit_rows_whole(h: np.ndarray):
    norms = np.linalg.norm(h, axis=-1, keepdims=True)
    return np.divide(h, norms, out=np.zeros_like(h), where=norms > 0), norms


def unit_rows_backward_whole(g_u, u, norms):
    g_u -= (g_u * u).sum(axis=-1, keepdims=True) * u
    live = norms > 0
    np.divide(g_u, norms, out=g_u, where=live)
    np.copyto(g_u, 0.0, where=~live)
    return g_u
