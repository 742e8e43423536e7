"""Dense numerical core: masked softmax, row scatters and their sort keys,
unit rows, Adam, finite-difference checks, and the process's malloc thresholds.

All arithmetic is float64. Parameter collections are plain ``dict[str, np.ndarray]``
so the optimizer and the gradient checker stay agnostic of model structure.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

ParamDict = dict[str, np.ndarray]


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    glibc maps every block above its mmap threshold (128 KiB at start) and
    raises that threshold, with the trim threshold at twice it, only when a
    mapped block larger than it is freed. A training step whose largest
    temporaries are a few MB would leave the thresholds low: those
    temporaries are mapped anew and the heap top is trimmed on every call,
    and each first touch of their pages faults. 32 MiB is glibc's cap on the
    dynamic threshold and 64 MiB the trim threshold its rule pairs with it.
    Where libc has no ``mallopt``, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 * 2**20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()


def softmax_masked_rows(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise masked softmax for arrays of shape (..., k).

    Rows with empty support come back all-zero; callers that need a
    distribution on every row must handle such rows themselves. Every step
    after the first works in place in the one output array.
    """
    out = np.where(np.asarray(mask, dtype=bool), logits, -np.inf)
    mx = out.max(axis=-1, keepdims=True)
    # rows with no live entries have mx == -inf; keep them quiet
    mx[~np.isfinite(mx)] = 0.0
    out -= mx
    np.exp(out, out=out)  # exp(-inf) = 0 at masked entries
    denom = out.sum(axis=-1, keepdims=True)
    return np.divide(out, denom, out=out, where=denom > 0)


def softmax_rows_backward(alpha: np.ndarray, grad_alpha: np.ndarray) -> np.ndarray:
    """d loss / d logits for a row-wise softmax with weights ``alpha``,
    written over ``grad_alpha`` and returned."""
    inner = (alpha * grad_alpha).sum(axis=-1, keepdims=True)
    grad_alpha -= inner
    grad_alpha *= alpha
    return grad_alpha


def narrow_keys(keys: np.ndarray) -> np.ndarray:
    """Non-negative integer ``keys`` in the narrowest unsigned dtype that holds
    them: same order, and numpy's stable sort (``np.unique``'s, when it gives
    indices) is then a linear radix sort for keys below 2**16."""
    keys = np.asarray(keys)
    return keys.astype(np.min_scalar_type(int(keys.max(initial=0))), copy=False)


def scatter_matrix(idx, cols, data, shape: tuple[int, int]) -> sparse.csr_array:
    """CSR matrix with entry ``(idx[i], cols[i]) = data[i]``, each row's
    entries in the order of i: a product with it sums each row's terms from
    zero in that order, as a weighted ``np.bincount`` over ``idx`` would."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=shape[0]), out=indptr[1:])
    order = np.argsort(narrow_keys(idx), kind="stable")
    return sparse.csr_array((data[order], cols[order], indptr), shape=shape)


def add_rows_at(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``out[idx[i]] += rows[i]`` for every i, summing duplicate indices.

    ``np.add.at`` semantics through one ``scatter_matrix`` product, with no
    per-cell index: each cell's sum is formed in index order, bit for bit as
    a weighted ``np.bincount`` over the (row, column) cells forms it, and
    then added to ``out``, so results can differ from ``np.add.at`` in the
    last bits.
    """
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    m = idx.size
    out += scatter_matrix(idx, np.arange(m), np.ones(m), (len(out), m)) @ rows


# leading rows per chunk of a per-row temporary: the unit rows' norms and
# products here, the temporal integration's projections and scores
CHUNK_ROWS = 64


def row_chunks(n: int) -> list[slice]:
    """Slices of ``CHUNK_ROWS`` leading rows over ``n`` rows, the last short."""
    return [slice(lo, lo + CHUNK_ROWS) for lo in range(0, n, CHUNK_ROWS)]


def unit_rows(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``h`` scaled to unit length along the last axis, and their norms.

    ``norms`` keeps the last axis as 1; a zero row stays zero. The norm is
    unscaled: this is on the training hot path, where rows sit far from the
    subnormal range. The norms are taken
    over ``row_chunks``, so their squares never fill an array of ``h``'s
    size; each row's norm is the same bit for bit.
    """
    rows = np.atleast_2d(h)
    norms = np.empty(rows.shape[:-1] + (1,))
    for part in row_chunks(len(rows)):
        norms[part] = np.linalg.norm(rows[part], axis=-1, keepdims=True)
    norms = norms.reshape(h.shape[:-1] + (1,))
    return np.divide(h, norms, out=np.zeros_like(h), where=norms > 0), norms


def unit_rows_backward(
    g_u: np.ndarray, u: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """d loss / d h from d loss / d u for ``u, norms = unit_rows(h)``,
    written over ``g_u`` and returned.

    The gradient is ``g_u`` minus its component along ``u``, divided by the
    norm; zero rows get zero gradient. The component is removed over
    ``row_chunks``, as ``unit_rows`` takes its norms.
    """
    g_rows, u_rows = np.atleast_2d(g_u), np.atleast_2d(u)
    for part in row_chunks(len(g_rows)):
        g, v = g_rows[part], u_rows[part]
        g -= (g * v).sum(axis=-1, keepdims=True) * v
    live = norms > 0
    np.divide(g_u, norms, out=g_u, where=live)
    np.copyto(g_u, 0.0, where=~live)
    return g_u


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
