"""Scalar views of the batched alignment kernels, for the tests: one
trajectory's integration, one cosine correspondence, one strength value and
the loss without its cache.
"""

from __future__ import annotations

import numpy as np

from tkgdistill.alignment import (
    AlignParams,
    alignment_loss_fwd,
    strength_diagonal,
    temporal_integrate_batch_fwd,
)


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


def alignment_loss(*args, **kwargs) -> float:
    """``alignment_loss_fwd`` without its cache."""
    loss, _ = alignment_loss_fwd(*args, **kwargs)
    return loss
