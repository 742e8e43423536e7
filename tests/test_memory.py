"""Memory held by the encoder's and the alignment step's caches, by one
reasoning step, by whole training runs and by evaluation, and the page
faults of repeated steps.

The encoder's backward gathers embedding rows again instead of keeping the
forward's copies, so a cache holds index arrays, attention weights, the
aggregate and a ReLU mask: nothing with b * d values per row. A trajectory
keeps no step's cache at all: its backward rebuilds each one. Both
directions gather neighbour rows one row slice at a time, and the reasoning
loss scores its negatives in one buffer it does not keep. The alignment
loss scores one time step at a time, so no (T, P, n_targets) block is built,
and temporal integration caches only its input and attention weights and
forms its per-row temporaries over 64-row chunks, as the unit rows do. An
alignment step integrates and normalises the targets once and runs only the
backward its caller keeps. Evaluation holds one test step's encoding at a
time, and a second thread adds only the backward direction's score block.
"""

import functools
import platform
import resource
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from alignment_reference import alignment_step
from tkgdistill import evaluation, experiments
from tkgdistill.alignment import init_align_params, temporal_integrate_batch_fwd
from tkgdistill.encoder import encode_trajectories_fwd, init_network_params
from tkgdistill.evaluation import evaluate
from tkgdistill.scoring import (
    reasoning_loss_bwd,
    reasoning_loss_fwd,
)
from tkgdistill.tkg import (
    GeneratorConfig,
    Quadruple,
    TemporalKG,
    Vocabulary,
    generate_synthetic_pair,
)
from tkgdistill.trainer import TrainConfig

MB = 2**20


def _arrays(cache: dict):
    return [v for v in cache.values() if isinstance(v, np.ndarray)]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_cache_holds_no_gathered_rows():
    # paper dims: 200 target entities, 28 training steps, d = 128, b = 8;
    # the backward rebuilds each step's cache, so the forward keeps none:
    # its cache names the graph, the ids and b, and holds no per-step array
    kg = generate_synthetic_pair(GeneratorConfig(coverage=0.3), 0).target_incomplete
    n, t_max, d, b = len(kg.entities), 28, 128, 8
    params = init_network_params(n, len(kg.relations), d, seed=0)
    ids = np.arange(n)
    traj, cache = encode_trajectories_fwd(params, kg, ids, t_max, b)
    assert traj.shape == (n, t_max, d)
    assert cache.keys() == {"kg", "ids", "b"}
    assert cache["kg"] is kg and cache["b"] == b
    assert np.array_equal(cache["ids"], ids)
    assert [a.size for a in _arrays(cache)] == [n]


RUN_CONFIGS = {
    "paper_dims": (
        GeneratorConfig(coverage=0.3),
        replace(TrainConfig(epochs=1, warmup_epochs_before_generation=0), seed=0),
    ),
    "scale5x": (
        replace(
            experiments.DESK_GENERATOR, source_entities=1000, target_entities=1000,
            events_per_step=125, target_background_per_step=20,
        ),
        replace(
            experiments.DESK_TRAIN, epochs=1, warmup_epochs_before_generation=0,
            seed=0,
        ),
    ),
}


@functools.cache
def _run_peak(config: str) -> int:
    """Traced peak of one seed-0 ``run_transfer`` (1 epoch) of a config,
    measured once for all the bounds on it."""
    gen, cfg = RUN_CONFIGS[config]
    pair = generate_synthetic_pair(gen, 0)
    return _traced_peak(
        lambda: experiments.run_transfer(pair, cfg, experiments.TeacherBank())
    )


def test_paper_dims_run_peak_is_bounded():
    """The traced peak of one paper_dims ``run_transfer`` (1 epoch); it sits
    in the distillation channel, not in kept encoder or alignment caches,
    and teacher pretraining stays below it."""
    peak = _run_peak("paper_dims")
    assert peak < 150 * MB, peak / MB


def test_paper_dims_run_peak_with_sliced_reasoning_steps():
    """A reasoning step builds no (rows, b, d) neighbour block and keeps no
    (F, N, d) negatives, so teacher pretraining no longer holds the run's
    peak; it did at 66 MiB."""
    peak = _run_peak("paper_dims")
    assert peak < 60 * MB, peak / MB


def test_paper_dims_run_peak_without_gathered_message_blocks():
    """The encoder's backward sums its messages through a sparse product and
    gathers neighbour rows in chunks, so teacher pretraining builds no
    (slots, d) block; it held the peak at 88 MiB while it did."""
    peak = _run_peak("paper_dims")
    assert peak < 80 * MB, peak / MB


def test_alignment_step_peak_at_scale5x_shape():
    # P=100 pairs, 1,000 targets, T=28, d=32, N=32: the (T, P, n_targets)
    # similarity block alone would take 22.4 MB, and its gradient as much
    p, n_targets, t_len, d = 100, 1000, 28, 32
    rng = np.random.default_rng(0)
    ap = init_align_params(d, seed=1)
    src = rng.normal(size=(p, t_len, d))
    tgt = rng.normal(size=(n_targets, t_len, d))
    pair_targets = rng.integers(0, n_targets, size=p)
    excl = [{int(i)} for i in pair_targets]

    def step():
        _, _, backward = alignment_step(
            ap, src, tgt, pair_targets, excl, 32, 0.5, np.random.default_rng(2)
        )
        backward(ap.zero_grads())

    peak = _traced_peak(step)
    assert peak < 80 * MB, peak / MB


def test_integration_cache_holds_no_projections():
    n, t_len, d = 50, 28, 32
    trajs = np.random.default_rng(0).normal(size=(n, t_len, d))
    _, cache = temporal_integrate_batch_fwd(init_align_params(d, seed=1), trajs)
    assert cache["trajs"] is trajs
    for arr in _arrays(cache):
        assert arr is trajs or arr.size < n * t_len * d, arr.shape


def test_scale5x_run_peak_is_bounded():
    """The traced peak of one scale5x-config ``run_transfer`` (1 epoch); the
    alignment step held it while it built (T, P, n_targets) blocks."""
    peak = _run_peak("scale5x")
    assert peak < 130 * MB, peak / MB


def test_scale5x_run_peak_with_chunked_channel_backward():
    """The distillation channel's trajectory-only integration backward runs
    over row chunks; it held the peak at 70 MiB over all 1,000 rows."""
    peak = _run_peak("scale5x")
    assert peak < 64 * MB, peak / MB


def test_scale5x_run_peak_with_rebuilt_trajectory_caches():
    """The trajectory backward rebuilds each step's encoder cache instead of
    keeping 28, and the integration and unit rows work over 64-row chunks;
    the distillation channel held the peak at 60.9 MiB while they did not."""
    peak = _run_peak("scale5x")
    assert peak < 48 * MB, peak / MB


def test_paper_dims_run_peak_with_rebuilt_trajectory_caches():
    """As for scale5x: the distillation channel held the paper_dims peak at
    54.4 MiB while it kept 28 per-step encoder caches and whole-vocabulary
    integration temporaries."""
    peak = _run_peak("paper_dims")
    assert peak < 50 * MB, peak / MB


def test_scale5x_run_peak_with_one_target_integration():
    """The alignment step integrates the targets once, frees them and their
    unit rows before that integration's backward, and runs only the
    backward its caller keeps; it held the peak at 95 MiB when every call
    ran the whole backward."""
    peak = _run_peak("scale5x")
    assert peak < 80 * MB, peak / MB


@functools.cache
def _teacher_step_setup():
    """The paper_dims teacher's set-up (d = 128, b = 8, 10 negatives,
    dropout 0.5) and one shuffled batch of 256 source events."""
    cfg = TrainConfig()
    kg = generate_synthetic_pair(GeneratorConfig(coverage=0.3), 0).source
    params = init_network_params(
        len(kg.entities), len(kg.relations), cfg.dim, seed=1, dropout_rate=cfg.dropout
    )
    quads = list(kg.quadruples)
    order = np.random.default_rng(2).permutation(len(quads))[: cfg.batch_size]
    return cfg, kg, params, [quads[i] for i in order]


def _teacher_step(seed: int = 0) -> dict:
    cfg, kg, params, batch = _teacher_step_setup()
    _, cache = reasoning_loss_fwd(
        params, kg, batch, cfg.reasoning_negatives,
        cfg.margin_reasoning, np.random.default_rng(seed), cfg.neighbors,
        np.random.default_rng(seed + 1),
    )
    grads = params.zero_grads()
    reasoning_loss_bwd(cache, params, grads)
    return cache


def test_paper_dims_teacher_step_peak():
    """One teacher step, forward and backward, above the forward's start:
    about 3,900 encoded rows, whose whole (rows, b, d) neighbour block and
    kept (F, N, d) negatives took it to 65 MiB."""
    _teacher_step_setup()
    peak = _traced_peak(_teacher_step)
    assert peak < 48 * MB, peak / MB


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_repeated_teacher_steps_reuse_heap_pages():
    """With the malloc thresholds pinned at import, a step's temporaries
    reuse heap pages that earlier steps touched instead of being mapped,
    unmapped or trimmed anew. After a warm-up the median step takes almost
    no minor faults; unpinned, every step took 4,000-9,000. A step now and
    then still grows the heap by a few MB, hence the median."""
    for seed in range(4):
        _teacher_step(seed)
    faults = []
    for seed in range(4, 9):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _teacher_step(seed)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert np.median(faults) < 200, faults


@functools.cache
def _eval_setup():
    """A 2,000-entity graph with 30 steps of history, a d = 128 model and
    eight test steps of 200 quadruples each."""
    n_ent, n_rel, per_step = 2000, 10, 200
    rng = np.random.default_rng(0)
    quads = [
        Quadruple(int(s), int(r), int(o), t)
        for t in range(38)
        for s, r, o in zip(rng.integers(0, n_ent, per_step),
                           rng.integers(0, n_rel, per_step),
                           rng.integers(0, n_ent, per_step))
    ]
    kg = TemporalKG(Vocabulary.integers(n_ent), Vocabulary.integers(n_rel), quads, 38)
    params = init_network_params(n_ent, n_rel, 128, seed=1)
    return kg, params, quads[30 * per_step:]


@pytest.mark.parametrize("threads", [1, 2])
def test_eval_peak_does_not_grow_with_the_test_span(threads):
    """``evaluate`` encodes, ranks and releases one step at a time, so the
    traced peak over eight test steps stays within one step's encoding
    (2,000 x 128 float64, 2 MB) of the peak over two; keeping every step's
    encoding until the end held about 12 MB more."""
    kg, params, test = _eval_setup()
    two_steps = [q for q in test if q.time < 32]
    peaks = [
        _traced_peak(lambda quads=quads: evaluate(params, kg, quads, threads=threads))
        for quads in (two_steps, test)
    ]
    assert peaks[1] - peaks[0] < 2 * MB, [p / MB for p in peaks]


def test_eval_second_thread_adds_at_most_one_score_block(monkeypatch):
    """With 2 threads a worker scores and ranks each step's backward
    direction while the caller does the forward one: the traced peak grows
    by at most one (Q_max, E) float64 block (200 x 2,000, 3.2 MB) plus 1 MB.
    Workers that each encoded and ranked a step of their own held two steps
    at once."""
    monkeypatch.setattr(evaluation, "usable_cores", lambda: 2)
    rank, idents = evaluation.ranks_of, set()

    def spy(*args):
        idents.add(threading.get_ident())
        return rank(*args)

    monkeypatch.setattr(evaluation, "ranks_of", spy)
    kg, params, test = _eval_setup()
    q_max = max(np.unique([q.time for q in test], return_counts=True)[1])
    peaks = {
        n: _traced_peak(lambda n=n: evaluate(params, kg, test, threads=n))
        for n in (1, 2)
    }
    assert idents - {threading.get_ident()}  # the 2-thread run used a worker
    block = int(q_max) * params.n_entities * 8
    assert peaks[2] <= peaks[1] + block + MB, {n: p / MB for n, p in peaks.items()}
