"""Scalar views of the batched alignment kernels, for the tests: one
trajectory's integration, one cosine correspondence, one strength value,
and the loss and its gradients on raw target trajectories.
"""

from __future__ import annotations

import numpy as np

from tkgdistill.alignment import (
    AlignParams,
    alignment_loss_bwd,
    alignment_loss_fwd,
    strength_diagonal,
    temporal_integrate_batch_bwd,
    temporal_integrate_batch_fwd,
)
from tkgdistill.numerics import unit_rows_backward


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


def alignment_strength(
    ap: AlignParams, h_source: np.ndarray, h_target: np.ndarray, t: int
) -> float:
    """Strength for one pair at 1-based time ``t``; lies in (0, 1]."""
    t_len = h_source.shape[0]
    if not 1 <= t <= t_len:
        raise ValueError(f"time step {t} outside integration of length {t_len}")
    return float(strength_diagonal(ap, h_source, h_target)[t - 1])


def alignment_step(ap: AlignParams, source_trajs, target_trajs, *args, **kwargs):
    """``alignment_loss_fwd`` on raw target trajectories, integrated here as
    the trainer integrates them. Returns the loss, the loss cache and
    ``backward(grads)``, which accumulates the parameter gradients into
    ``grads`` and returns the gradient with respect to ``target_trajs``."""
    h_tgt, tgt_cache = temporal_integrate_batch_fwd(ap, target_trajs)
    loss, cache = alignment_loss_fwd(ap, source_trajs, h_tgt, *args, **kwargs)

    def backward(grads):
        g_u = alignment_loss_bwd(cache, ap, grads)
        g_h = unit_rows_backward(g_u, cache["u_tgt"], cache["n_tgt"])
        return temporal_integrate_batch_bwd(g_h, tgt_cache, ap, grads)

    return loss, cache, backward


def alignment_loss(*args, **kwargs) -> float:
    """``alignment_step``'s loss alone."""
    return alignment_step(*args, **kwargs)[0]
