"""Memory held by the encoder's caches and by one training run.

The encoder's backward gathers embedding rows again instead of keeping the
forward's copies, so a cache holds index arrays, attention weights, the
aggregate and a ReLU mask: nothing with b * d values per row.
"""

import tracemalloc
from dataclasses import replace

import numpy as np

from tkgdistill import experiments
from tkgdistill.encoder import encode_trajectories_fwd, init_network_params
from tkgdistill.tkg import GeneratorConfig, generate_synthetic_pair
from tkgdistill.trainer import TrainConfig

MB = 2**20


def _arrays(cache: dict):
    return [v for v in cache.values() if isinstance(v, np.ndarray)]


def test_trajectory_cache_holds_no_gathered_rows():
    # paper dims: 200 target entities, 28 training steps, d = 128, b = 8
    kg = generate_synthetic_pair(GeneratorConfig(coverage=0.3), 0).target_incomplete
    n, t_max, d, b = len(kg.entities), 28, 128, 8
    params = init_network_params(n, len(kg.relations), d, seed=0)
    traj, cache = encode_trajectories_fwd(params, kg, np.arange(n), t_max, b)
    assert traj.shape == (n, t_max, d)
    assert len(cache["caches"]) == t_max
    for step in cache["caches"]:
        for arr in _arrays(step):
            assert arr.size < n * b * d, arr.shape
    held = sum(a.nbytes for step in cache["caches"] for a in _arrays(step))
    # the gathered (n, b, d) neighbour blocks alone would be 45.9 MB
    assert held < 16 * MB, held / MB


def test_paper_dims_run_peak_is_bounded():
    """The traced peak of one paper_dims ``run_transfer`` (1 epoch); it sits
    in the alignment loss's backward, not in kept encoder caches."""
    pair = generate_synthetic_pair(GeneratorConfig(coverage=0.3), 0)
    cfg = replace(TrainConfig(epochs=1, warmup_epochs_before_generation=0), seed=0)
    tracemalloc.start()
    try:
        experiments.run_transfer(pair, cfg, experiments.TeacherBank())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150 * MB, peak / MB
