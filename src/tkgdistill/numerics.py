"""Dense numerical core: masked softmax, row scatters, cosine, Adam,
finite-difference checks.

All arithmetic is float64. Parameter collections are plain ``dict[str, np.ndarray]``
so the optimizer and the gradient checker stay agnostic of model structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ParamDict = dict[str, np.ndarray]


def assert_finite(x: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {what}")
    return x


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


def softmax_masked_rows(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise masked softmax for arrays of shape (..., k).

    Rows with empty support come back all-zero; callers that need a
    distribution on every row must handle such rows themselves.
    """
    mask = np.asarray(mask, dtype=bool)
    neg = np.where(mask, logits, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    # rows with no live entries have mx == -inf; keep them quiet
    mx = np.where(np.isfinite(mx), mx, 0.0)
    exps = np.where(mask, np.exp(neg - mx), 0.0)
    denom = exps.sum(axis=-1, keepdims=True)
    return np.divide(exps, denom, out=np.zeros_like(exps), where=denom > 0)


def softmax_rows_backward(alpha: np.ndarray, grad_alpha: np.ndarray) -> np.ndarray:
    """d loss / d logits for a row-wise softmax with weights ``alpha``."""
    inner = (alpha * grad_alpha).sum(axis=-1, keepdims=True)
    return alpha * (grad_alpha - inner)


def add_rows_at(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``out[idx[i]] += rows[i]`` for every i, summing duplicate indices.

    ``np.add.at`` semantics through one weighted ``np.bincount`` over the
    flattened (row, column) cells; each cell's sum is formed apart from
    ``out`` and then added, so results can differ from ``np.add.at`` in the
    last bits.
    """
    n, d = out.shape
    cells = (np.asarray(idx, dtype=np.int64).reshape(-1, 1) * d + np.arange(d)).ravel()
    out += np.bincount(
        cells, weights=np.asarray(rows).reshape(-1), minlength=n * d
    ).reshape(n, d)


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


def unit_rows(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``h`` scaled to unit length along the last axis, and their norms.

    ``norms`` keeps the last axis as 1; a zero row stays zero. Unlike in
    ``cosine_rows_guarded``, the norm is unscaled: this is on the training hot
    path, where rows sit far from the subnormal range.
    """
    norms = np.linalg.norm(h, axis=-1, keepdims=True)
    return np.divide(h, norms, out=np.zeros_like(h), where=norms > 0), norms


def unit_rows_backward(
    g_u: np.ndarray, u: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """d loss / d h from d loss / d u for ``u, norms = unit_rows(h)``.

    The gradient is ``g_u`` minus its component along ``u``, divided by the
    norm; zero rows get zero gradient.
    """
    g_h = g_u - (g_u * u).sum(axis=-1, keepdims=True) * u
    return np.divide(g_h, norms, out=np.zeros_like(g_h), where=norms > 0)


@dataclass
class GradCheckReport:
    """Outcome of ``grad_check``.

    ``refined`` lists ``(name, index, step)`` for every coordinate that missed
    at the requested step and passed at the smaller ``step`` named, with its
    stencil clear of any kink.
    """

    max_abs_err: float
    max_rel_err: float
    worst_index: tuple[str, int]
    passed: bool
    refined: list[tuple[str, int, float]] = field(default_factory=list)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = (
            f"grad_check {status}: abs={self.max_abs_err:.3e} "
            f"rel={self.max_rel_err:.3e} worst={self.worst_index}"
        )
        if self.refined:
            out += " refined=" + ", ".join(
                f"{n}[{i}]@{h:.0e}" for n, i, h in self.refined
            )
        return out


# Smallest step a missed coordinate is retried at. A one-sided difference
# carries roundoff of about eps * |loss| / h, ~2e-8 for a unit-scale loss at
# h = 1e-8, far below the 1e-5 tolerances the suite checks with.
_MIN_STEP = 1e-8


def _fd_errors(analytic: float, numeric: float) -> tuple[float, float]:
    abs_err = abs(analytic - numeric)
    return abs_err, abs_err / max(abs(analytic), abs(numeric), 1.0)


def grad_check(
    loss_and_grad,
    params: ParamDict,
    step: float = 1e-5,
    tol: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central differences, coordinate-wise.

    ``loss_and_grad(params) -> (loss, grads)`` must be pure and deterministic
    for fixed parameters (freeze any sampling before calling). ``grads`` may
    be a zero-argument callable returning the dict: it is called once, at
    the base point before any perturbation, so the perturbed evaluations can
    skip backward work. A
    coordinate passes when max(abs_err, rel_err) <= tol, where rel_err is
    floored by max(|analytic|, |numeric|, 1).

    Kinks: a hinge or ReLU argument within ``step`` of zero puts the central
    difference across a slope change, so it no longer estimates the
    derivative. A coordinate that misses at ``step`` is therefore retried at
    step/10, step/100, ... down to ``_MIN_STEP``. It passes at the first such
    step h where both hold within ``tol``: the forward and backward one-sided
    differences agree (the stencil [x - h, x + h] is clear of the kink), and
    the analytic gradient matches the central difference at h. Such
    coordinates are listed in ``report.refined`` with h, and the errors at h
    enter the report. A coordinate that passes at no step fails with its
    errors at ``step``. At a point exactly on a kink the one-sided slopes
    differ at every h, so only a gradient matching the central difference at
    ``step`` itself (the mean of the two slopes) passes there.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base_loss, grads = loss_and_grad(params)
    if not np.isfinite(base_loss):
        raise FloatingPointError("non-finite loss at base point")
    if callable(grads):
        grads = grads()

    n_refine = int(np.floor(np.log10(step / _MIN_STEP) + 1e-9))
    refine_steps = [step / 10.0**k for k in range(1, n_refine + 1)]
    max_abs = 0.0
    max_rel = 0.0
    worst = ("", -1)
    passed = True
    refined: list[tuple[str, int, float]] = []
    for name in sorted(params):
        p = params[name]
        g = np.asarray(grads[name], dtype=np.float64).reshape(-1)
        flat = p.reshape(-1)

        def losses_at(i: int, h: float) -> tuple[float, float]:
            orig = flat[i]
            flat[i] = orig + h
            lo_hi = loss_and_grad(params)[0]
            flat[i] = orig - h
            lo_lo = loss_and_grad(params)[0]
            flat[i] = orig
            if not (np.isfinite(lo_hi) and np.isfinite(lo_lo)):
                raise FloatingPointError(f"non-finite loss perturbing {name}[{i}]")
            return lo_hi, lo_lo

        for i in range(flat.size):
            lo_hi, lo_lo = losses_at(i, step)
            abs_err, rel_err = _fd_errors(g[i], (lo_hi - lo_lo) / (2.0 * step))
            if max(abs_err, rel_err) > tol:
                for h in refine_steps:
                    lo_hi, lo_lo = losses_at(i, h)
                    forward = (lo_hi - base_loss) / h
                    backward = (base_loss - lo_lo) / h
                    errs = _fd_errors(g[i], (lo_hi - lo_lo) / (2.0 * h))
                    clear = max(_fd_errors(forward, backward)) <= tol
                    if clear and max(errs) <= tol:
                        abs_err, rel_err = errs
                        refined.append((name, i, h))
                        break
            err = max(abs_err, rel_err)
            if err > max(max_abs, max_rel):
                worst = (name, i)
            max_abs = max(max_abs, abs_err)
            max_rel = max(max_rel, rel_err)
            if err > tol:
                passed = False
    return GradCheckReport(max_abs, max_rel, worst, passed, refined)


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: ParamDict = field(default_factory=dict)
    v: ParamDict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def like(cls, params: ParamDict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )


def adam_step(
    params: ParamDict,
    grads: ParamDict,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place on ``params``."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"shape mismatch for {name}: {g.shape} vs {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
