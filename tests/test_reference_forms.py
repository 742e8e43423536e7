"""The sliced encoder kernel and the buffered reasoning loss against their
whole-block forms (``reasoning_reference``): outputs, caches and every
gradient are bitwise equal at shapes with more rows than one slice, with
dropout on, padded neighbor slots and rows without history. The
trajectories, one neighbour lookup and one attention pass for all steps,
match one encoder call per step, outputs and gradients, and ``add_rows_at``
matches the weighted ``bincount`` it replaced.
"""

import numpy as np
import pytest

import reasoning_reference as ref
from conftest import random_kg
from tkgdistill.encoder import (
    _row_slices,
    encode_batch_bwd,
    encode_batch_fwd,
    encode_trajectories_bwd,
    encode_trajectories_fwd,
    init_network_params,
)
from tkgdistill.numerics import add_rows_at
from tkgdistill.scoring import (
    NegativeSamplerConfig,
    reasoning_loss_bwd,
    reasoning_loss_fwd,
)
from tkgdistill.tkg import Quadruple, TemporalKG, Vocabulary


def _kg_and_params(seed: int, d: int = 16):
    kg = random_kg(
        np.random.default_rng(seed), n_entities=120, n_relations=4, horizon=12,
        n_events=500,
    )
    params = init_network_params(120, 4, d, seed=seed + 1, dropout_rate=0.3)
    return kg, params


def _assert_caches_equal(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, dict):
            _assert_caches_equal(got[key], value)
        elif isinstance(value, np.ndarray):
            assert np.array_equal(got[key], value), key
        else:
            assert got[key] == value, key


def _assert_grads_equal(got: dict, want: dict):
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def test_row_slices_cover_rows_in_order():
    assert _row_slices(100, 8) == [slice(0, 256)]
    parts = _row_slices(3900, 8)
    assert [p.start for p in parts] == list(range(0, 3900, 488))
    assert parts[-1].stop >= 3900


@pytest.mark.parametrize("seed", [0, 1])
def test_encoder_kernel_matches_whole_block_form(seed):
    kg, params = _kg_and_params(seed)
    rng = np.random.default_rng(seed)
    n, b = 700, 6
    ids = rng.integers(0, params.n_entities, size=n)
    times = rng.integers(0, kg.horizon, size=n)  # t = 0 rows have no history
    assert len(_row_slices(n, b)) > 1

    out, cache = encode_batch_fwd(params, kg, ids, times, b, np.random.default_rng(7))
    want, want_cache = ref.encode_batch_fwd(
        params, kg, ids, times, b, np.random.default_rng(7)
    )
    assert (~cache["has_nb"]).any() and (~cache["mask"][cache["has_nb"]]).any()
    assert cache["dmask"] is not None
    assert np.array_equal(out, want)
    _assert_caches_equal(cache, want_cache)

    grad_out = rng.normal(size=out.shape)
    grads, want_grads = params.zero_grads(), params.zero_grads()
    encode_batch_bwd(grad_out, cache, params, grads)
    ref.encode_batch_bwd(grad_out, want_cache, params, want_grads)
    _assert_grads_equal(grads, want_grads)


@pytest.mark.parametrize("seed", [0, 1])
def test_reasoning_loss_matches_whole_block_form(seed):
    kg, params = _kg_and_params(seed)
    batch = list(kg.quadruples)[:80]
    neg = NegativeSamplerConfig(factor=5)

    def run(fwd, bwd):
        loss, cache = fwd(
            params, kg, batch, neg, 1.0, np.random.default_rng(seed), 6,
            np.random.default_rng(seed + 10),
        )
        grads = params.zero_grads()
        bwd(cache, params, grads)
        return loss, cache, grads

    loss, cache, grads = run(reasoning_loss_fwd, reasoning_loss_bwd)
    want_loss, want_cache, want_grads = run(ref.reasoning_loss_fwd, ref.reasoning_loss_bwd)
    assert cache["n_pairs"] > 256
    assert loss == want_loss
    assert np.array_equal(want_cache.pop("h_n"), cache["reps"][cache["neg_rows"]])
    _assert_caches_equal(cache, want_cache)
    _assert_grads_equal(grads, want_grads)


def _assert_trajectory_matches_per_step_loop(params, kg, ids, t_max, b, seed=0):
    traj, cache = encode_trajectories_fwd(params, kg, ids, t_max, b)
    want, want_cache = ref.encode_trajectories_fwd(params, kg, ids, t_max, b)
    assert np.array_equal(traj, want)
    _assert_caches_equal(cache, want_cache)

    grad_traj = np.random.default_rng(seed).normal(size=traj.shape)
    grads, want_grads = params.zero_grads(), params.zero_grads()
    encode_trajectories_bwd(grad_traj, cache, params, grads)
    ref.encode_trajectories_bwd(grad_traj, want_cache, params, want_grads)
    _assert_grads_equal(grads, want_grads)


@pytest.mark.parametrize("seed", [0, 1])
def test_trajectory_one_window_pass_matches_per_step_loop(seed):
    kg, params = _kg_and_params(seed)
    ids = np.arange(params.n_entities)
    t_max, b = kg.horizon, 6
    # early steps have rows without history, and most rows pad some slots
    first = encode_batch_fwd(params, kg, ids, 1, b)[1]
    assert (~first["has_nb"]).any() and (~first["mask"][first["has_nb"]]).any()
    _assert_trajectory_matches_per_step_loop(params, kg, ids, t_max, b, seed)


def _toy():
    kg = random_kg(np.random.default_rng(0))
    return kg, init_network_params(len(kg.entities), len(kg.relations), 6, seed=1)


def _history_free():
    # entity 0 has no event at all; entities 1 and 2 meet only at t = 1
    kg = TemporalKG(
        Vocabulary.integers(3), Vocabulary.integers(1), [Quadruple(1, 0, 2, 1)], 6
    )
    return kg, init_network_params(3, 1, 4, seed=5)


# graph and parameters, ids (None: every entity), t_max and b; the toy
# graph's horizon is 8 and it has 25 events, the larger graph's horizon 12
TRAJECTORY_CASES = {
    "toy": (_toy, [2, 0, 2, 6, 5], 8, 4),  # a repeated row keeps its own slots
    "one_row": (_toy, [2], 8, 4),  # a 1-row step's product differs from k rows'
    "history_free": (_history_free, None, 5, 3),
    "t_max_1": (lambda: _kg_and_params(3), None, 1, 6),
    "t_max_horizon": (lambda: _kg_and_params(3), None, 12, 6),
    "b_above_every_history": (_toy, None, 8, 60),
}


@pytest.mark.parametrize("case", TRAJECTORY_CASES)
def test_trajectory_edge_cases_match_per_step_loop(case):
    build, ids, t_max, b = TRAJECTORY_CASES[case]
    kg, params = build()
    ids = np.arange(params.n_entities) if ids is None else np.array(ids)
    _assert_trajectory_matches_per_step_loop(params, kg, ids, t_max, b)


def test_add_rows_at_matches_bincount_form_on_heavy_duplicates():
    rng = np.random.default_rng(4)
    for n, d, m in [(9, 5, 400), (3452, 32, 5120), (40, 128, 6144)]:
        out0 = rng.normal(size=(n, d))
        idx = rng.integers(0, max(n // 8, 1), size=m)  # most rows untouched
        rows = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-8, 9, size=(m, 1))
        rows[rng.random(rows.shape) < 0.2] = -0.0
        got, want = out0.copy(), out0.copy()
        add_rows_at(got, idx, rows)
        ref.add_rows_at(want, idx, rows)
        # bit for bit, the sign of every zero included
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
