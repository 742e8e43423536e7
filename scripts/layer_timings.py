"""Print one median wall time per hot layer of the package, at stated shapes.

Each layer runs once to warm up and then ``--repeats`` times; the line
gives the median in milliseconds with the shape it ran at. The inputs are
the perfbench workloads' generators and dims, as ``scripts/output_digest.py``
states them, built from ``--seed``:

- ``reasoning_fwd`` / ``reasoning_bwd``: one teacher batch of 256 source
  quadruples on the desk config (d = 32, 8 negatives, b = 6, dropout 0.1)
  and on paper_dims (d = 128, 10 negatives, b = 8, dropout 0.5);
- ``trajectory_fwd`` / ``trajectory_bwd``: all target entities over the
  28 training steps, at desk (200 entities) and scale5x (1,000), d = 32,
  b = 6;
- ``neighbor_arrays``: the windows of those desk trajectories, every
  (entity, step) row in one call;
- ``add_rows_at``: the reasoning backward's row scatter, 512 forms with
  their negatives into the batch's unique rows, at desk and paper dims;
- ``integration_fwd`` / ``integration_bwd``: temporal integration of the
  desk target trajectories (200 x 28, d = 32), both gradients;
- ``eval_step``: ``evaluate`` on one test step of the eval_ckpt graph
  (2,000 entities, d = 128, b = 8), on the calling thread.

BLAS is pinned to one thread before numpy loads, and the package is
imported from this checkout's ``src/``.

    python3 scripts/layer_timings.py --repeats 30
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import (  # noqa: E402  (pins BLAS before numpy)
    CONFIGS,
    EVAL_DIM,
    EVAL_GENERATOR,
)

import argparse  # noqa: E402
import time  # noqa: E402
from itertools import chain  # noqa: E402

import numpy as np  # noqa: E402

from tkgdistill.alignment import (  # noqa: E402
    init_align_params,
    temporal_integrate_batch_bwd,
    temporal_integrate_batch_fwd,
)
from tkgdistill.encoder import (  # noqa: E402
    encode_trajectories_bwd,
    encode_trajectories_fwd,
    init_network_params,
)
from tkgdistill.evaluation import evaluate  # noqa: E402
from tkgdistill.numerics import add_rows_at  # noqa: E402
from tkgdistill.scoring import (  # noqa: E402
    reasoning_loss_bwd,
    reasoning_loss_fwd,
)
from tkgdistill.tkg import generate_synthetic_pair, split_by_time  # noqa: E402
from tkgdistill.trainer import TrainConfig  # noqa: E402


def _median_ms(fn, repeats: int, setup=None) -> float:
    """Median of ``repeats`` timed calls of ``fn(setup())`` after one warm-up;
    ``setup`` runs outside the timed part."""
    setup = setup or (lambda: None)
    fn(setup())
    times = []
    for _ in range(repeats):
        arg = setup()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def _reasoning(name, gen, cfg, seed, repeats):
    kg = generate_synthetic_pair(gen, seed).source
    params = init_network_params(
        len(kg.entities), len(kg.relations), cfg.dim, seed, cfg.dropout
    )
    batch = kg.events[np.random.default_rng(seed).permutation(len(kg.events))[:256]]

    def fwd(_=None):
        return reasoning_loss_fwd(
            params, kg, batch, cfg.reasoning_negatives, cfg.margin_reasoning,
            np.random.default_rng(seed), cfg.neighbors, np.random.default_rng(seed),
        )[1]

    shape = (f"{name}: B=256 N={cfg.reasoning_negatives} d={cfg.dim} "
             f"b={cfg.neighbors}")
    yield "reasoning_fwd", shape, _median_ms(fwd, repeats)
    yield "reasoning_bwd", shape, _median_ms(
        lambda cache: reasoning_loss_bwd(cache, params, params.zero_grads()),
        repeats, fwd,
    )
    # the backward's row scatter, at the shape the loss gives it
    cache = fwd()
    idx = np.concatenate(
        [cache["subj_rows"], cache["obj_rows"], cache["neg_rows"].reshape(-1)]
    )
    rows = np.random.default_rng(seed).normal(size=(len(idx), cfg.dim))
    out = np.zeros((cache["n_pairs"], cfg.dim))
    yield "add_rows_at", (
        f"{name}: {len(idx)} rows into {cache['n_pairs']} x {cfg.dim}"
    ), _median_ms(lambda _: add_rows_at(out, idx, rows), repeats)


def _trajectories(name, gen, seed, repeats, t_max=28, dim=32, b=6):
    kg = generate_synthetic_pair(gen, seed).target_incomplete
    n = len(kg.entities)
    params = init_network_params(n, len(kg.relations), dim, seed, 0.0)
    ids = np.arange(n)
    grad = np.random.default_rng(seed).normal(size=(n, t_max, dim))
    shape = f"{name}: {n} x {t_max} d={dim} b={b}"
    yield "trajectory_fwd", shape, _median_ms(
        lambda _: encode_trajectories_fwd(params, kg, ids, t_max, b), repeats
    )
    yield "trajectory_bwd", shape, _median_ms(
        lambda cache: encode_trajectories_bwd(grad, cache, params, params.zero_grads()),
        repeats, lambda: encode_trajectories_fwd(params, kg, ids, t_max, b)[1],
    )
    if name != "desk":
        return
    rows, times = np.tile(ids, t_max), np.repeat(np.arange(1, t_max + 1), n)
    yield "neighbor_arrays", f"{name}: {n * t_max} rows b={b}", _median_ms(
        lambda _: kg.neighbor_arrays(rows, times, b), repeats
    )
    trajs = encode_trajectories_fwd(params, kg, ids, t_max, b)[0]
    align = init_align_params(dim, seed)
    shape = f"{name}: {n} x {t_max} d={dim}"
    yield "integration_fwd", shape, _median_ms(
        lambda _: temporal_integrate_batch_fwd(align, trajs), repeats
    )
    yield "integration_bwd", shape, _median_ms(
        lambda cache: temporal_integrate_batch_bwd(
            grad, cache, align, align.zero_grads()
        ),
        repeats, lambda: temporal_integrate_batch_fwd(align, trajs)[1],
    )


def _eval_step(seed, repeats):
    kg = generate_synthetic_pair(EVAL_GENERATOR, seed).target_full
    _, _, test = split_by_time(kg, TrainConfig().split())
    step = test.events[test.events[:, 3] == test.events[:, 3].min()]
    params = init_network_params(len(kg.entities), len(kg.relations), EVAL_DIM, seed)
    yield "eval_step", (
        f"eval_ckpt: {len(kg.entities)} entities, {len(step)} quadruples "
        f"d={EVAL_DIM} b=8"
    ), _median_ms(lambda _: evaluate(params, kg, step, 8, threads=1), repeats)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    seed, repeats = args.seed, args.repeats
    desk_gen, desk_cfg = CONFIGS["desk"]
    paper_gen, paper_cfg = CONFIGS["paper_dims"]
    scale_gen, _ = CONFIGS["scale5x"]
    layers = chain(
        _reasoning("desk", desk_gen, desk_cfg, seed, repeats),
        _reasoning("paper_dims", paper_gen, paper_cfg, seed, repeats),
        _trajectories("desk", desk_gen, seed, repeats),
        _trajectories("scale5x", scale_gen, seed, repeats),
        _eval_step(seed, repeats),
    )
    for name, shape, ms in layers:
        print(f"{name:<16} {ms:9.3f} ms  {shape}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
