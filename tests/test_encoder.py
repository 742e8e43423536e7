import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgdistill.encoder import (
    encode_batch_bwd,
    encode_batch_fwd,
    encode_entity,
    encode_entity_bwd,
    encode_entity_fwd,
    encode_many_bwd,
    encode_many_fwd,
    encode_trajectory,
    init_network_params,
    time_encode,
)
from tkgdistill.numerics import grad_check, softmax_masked_rows
from tkgdistill.tkg import Quadruple, TemporalKG, Vocabulary

from conftest import random_kg


class TestTimeEncode:
    def test_zero_delta_unit_norm(self, toy_params):
        kappa = time_encode(toy_params, 0)
        d = toy_params.dim
        assert np.allclose(kappa, np.sqrt(1.0 / d))
        assert np.linalg.norm(kappa) == pytest.approx(1.0)

    def test_one_dim_closed_form(self):
        params = init_network_params(2, 1, 1, seed=0)
        params.time_freq[:] = np.pi
        assert time_encode(params, 1)[0] == pytest.approx(-1.0)

    def test_deterministic(self, toy_params):
        assert np.array_equal(time_encode(toy_params, 4), time_encode(toy_params, 4))

    def test_negative_delta_rejected(self, toy_params):
        with pytest.raises(ValueError):
            time_encode(toy_params, -1)


class TestEncodeEntity:
    def test_layer_zero_is_embedding_row(self, toy_params, toy_kg):
        out = encode_entity(toy_params, toy_kg, 3, 5, layers=0)
        assert np.array_equal(out, toy_params.entity_emb[3])

    def test_single_neighbor_alpha_one(self):
        kg = TemporalKG(
            Vocabulary.integers(3), Vocabulary.integers(1),
            [Quadruple(0, 0, 1, 2)], 6,
        )
        params = init_network_params(3, 1, 4, seed=2, dropout_rate=0.0)
        out = encode_entity(params, kg, 0, 4, layers=1, b=4)
        want = np.maximum(params.entity_emb[1] @ params.transform_W, 0.0)
        assert np.allclose(out, want, atol=1e-12)

    def test_two_neighbor_mean_with_identity_weights(self):
        # zero attention vector gives alpha = 1/2; identity transform keeps
        # the neighbor mean; twist: hand-computed 2x2 arithmetic
        kg = TemporalKG(
            Vocabulary.integers(3), Vocabulary.integers(1),
            [Quadruple(0, 0, 1, 1), Quadruple(0, 0, 2, 2)], 5,
        )
        params = init_network_params(3, 1, 2, seed=3, dropout_rate=0.0)
        params.transform_W[:] = np.eye(2)
        params.attn_a[:] = 0.0
        params.entity_emb[1] = [1.0, -2.0]
        params.entity_emb[2] = [3.0, -4.0]
        out = encode_entity(params, kg, 0, 4, layers=1, b=4)
        assert np.allclose(out, [2.0, 0.0], atol=1e-12)  # relu of (2, -3)

    def test_empty_neighborhood_fallback(self, toy_params, toy_kg):
        out = encode_entity(toy_params, toy_kg, 0, 0, layers=1, b=4)
        want = np.maximum(toy_params.entity_emb[0] @ toy_params.transform_W, 0.0)
        assert np.allclose(out, want, atol=1e-12)

    def test_unknown_entity_raises(self, toy_params, toy_kg):
        with pytest.raises(KeyError):
            encode_entity(toy_params, toy_kg, 99, 3)

    def test_attention_weights_sum_to_one(self, toy_params, toy_kg):
        out, cache = encode_batch_fwd(
            toy_params, toy_kg, np.arange(len(toy_kg.entities)), 6, b=4
        )
        sums = cache["alpha"].sum(axis=1)
        has_nb = cache["has_nb"]
        assert np.allclose(sums[has_nb], 1.0, atol=1e-12)
        assert (cache["alpha"] >= 0).all()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_causality_to_future_edits(self, seed):
        rng = np.random.default_rng(seed)
        kg = random_kg(rng, n_entities=6, horizon=8, n_events=20)
        params = init_network_params(6, 3, 4, seed=seed % 100, dropout_rate=0.0)
        t = int(rng.integers(1, 8))
        e = int(rng.integers(6))
        base = encode_entity(params, kg, e, t, layers=1, b=4)
        extra = list(kg.quadruples) + [
            Quadruple(e, 0, (e + 1) % 6, tt) for tt in range(t, kg.horizon)
        ]
        edited = kg.with_quadruples(extra)
        after = encode_entity(params, edited, e, t, layers=1, b=4)
        assert np.array_equal(base, after)

    def test_permutation_invariance(self):
        # same events in shuffled storage order: adjacency total order fixes
        # the neighbor list, so outputs agree to float determinism
        rng = np.random.default_rng(8)
        quads = [
            Quadruple(0, int(rng.integers(2)), 1 + int(rng.integers(4)), t)
            for t in range(6)
        ]
        kg1 = TemporalKG(Vocabulary.integers(6), Vocabulary.integers(2), quads, 8)
        kg2 = TemporalKG(
            Vocabulary.integers(6), Vocabulary.integers(2), quads[::-1], 8
        )
        params = init_network_params(6, 2, 4, seed=4, dropout_rate=0.0)
        a = encode_entity(params, kg1, 0, 7, layers=1, b=8)
        b = encode_entity(params, kg2, 0, 7, layers=1, b=8)
        assert np.allclose(a, b, atol=1e-12)


class TestEncoderGradients:
    def _check(self, seed, layers):
        rng = np.random.default_rng(seed)
        kg = random_kg(rng, n_entities=6, horizon=8, n_events=22)
        params = init_network_params(6, 3, 5, seed=seed, dropout_rate=0.0)
        head = rng.normal(size=5)

        def lg(p):
            h, cache = encode_entity_fwd(params, kg, 2, 6, layers, b=3)
            grads = params.zero_grads()
            encode_entity_bwd(head, cache, params, grads)
            return float(head @ h), grads

        return grad_check(lg, params.trainable(), step=1e-5, tol=1e-5)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_single_layer(self, seed):
        assert self._check(seed, layers=1).passed

    @pytest.mark.parametrize("seed", [4, 5])
    def test_two_layers(self, seed):
        assert self._check(seed, layers=2).passed

    def test_batched_gradient(self):
        rng = np.random.default_rng(9)
        kg = random_kg(rng, n_entities=7, horizon=8, n_events=25)
        params = init_network_params(7, 3, 5, seed=9, dropout_rate=0.0)
        ids = np.array([0, 2, 5])
        head = rng.normal(size=(3, 5))

        def lg(p):
            out, cache = encode_batch_fwd(params, kg, ids, 6, b=3)
            grads = params.zero_grads()
            encode_batch_bwd(head, cache, params, grads)
            return float((head * out).sum()), grads

        assert grad_check(lg, params.trainable(), 1e-5, 1e-5).passed


# Rows computed in different batch compositions may round differently, since
# BLAS need not sum a row the same way for every batch shape. Each output
# entry sums at most d + b products of order-one factors, so two float64
# evaluations agree within (d + b) * eps of the result's scale. Fixed from
# the dtype here, before any measurement.
def _assert_float64_close(got, want, n_terms):
    bound = 2.0 * n_terms * np.finfo(np.float64).eps * max(np.abs(want).max(), 1.0)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= bound


def _rows_and_times(seed, kg, n):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, len(kg.entities), n)
    ts = rng.integers(0, kg.horizon + 1, n)  # the horizon itself included
    return ids, ts


class TestPerRowTimes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_stacked_per_time_calls(self, seed):
        kg = random_kg(np.random.default_rng(seed), n_entities=9, horizon=10, n_events=40)
        params = init_network_params(9, 3, 8, seed=seed, dropout_rate=0.5)
        ids, ts = _rows_and_times(seed, kg, 60)
        order = np.argsort(ts, kind="stable")
        ids, ts = ids[order], ts[order]
        out, cache = encode_batch_fwd(
            params, kg, ids, ts, 3, np.random.default_rng(seed)
        )
        ref_rng = np.random.default_rng(seed)
        for t in np.unique(ts):
            sel = ts == t
            want, ref = encode_batch_fwd(params, kg, ids[sel], int(t), 3, ref_rng)
            assert np.array_equal(cache["dmask"][sel], ref["dmask"])
            for key in ("nbr", "rel", "tim", "mask", "delta"):
                assert np.array_equal(cache[key][sel], ref[key])
            _assert_float64_close(cache["alpha"][sel], ref["alpha"], 8 + 3)
            _assert_float64_close(out[sel], want, 8 + 3)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_encode_many_matches_per_time_group_loop(self, seed):
        """One call over unsorted pairs against one call per time step, in
        ascending time, each group in pair order (the dropout stream's order)."""
        kg = random_kg(np.random.default_rng(seed), n_entities=9, horizon=10, n_events=40)
        params = init_network_params(9, 3, 8, seed=seed, dropout_rate=0.5)
        ids, ts = _rows_and_times(seed, kg, 50)
        pairs = list(zip(ids.tolist(), ts.tolist()))
        out, cache = encode_many_fwd(params, kg, pairs, 3, 1, np.random.default_rng(seed))

        ref_rng = np.random.default_rng(seed)
        grad_out = np.random.default_rng(seed + 1).normal(size=out.shape)
        grads, ref_grads = params.zero_grads(), params.zero_grads()
        encode_many_bwd(grad_out, cache, params, grads)
        for t in sorted(set(ts.tolist())):
            idx = [i for i, (_, ti) in enumerate(pairs) if ti == t]
            want, ref = encode_batch_fwd(params, kg, ids[idx], t, 3, ref_rng)
            _assert_float64_close(out[idx], want, 8 + 3)
            encode_batch_bwd(grad_out[idx], ref, params, ref_grads)
        # a gradient entry sums a few (d + b)-term products over every row
        for name in grads:
            _assert_float64_close(grads[name], ref_grads[name], 4 * (8 + 3) * len(pairs))

    def test_lookup_logits_match_dense_blocks(self):
        """The per-entity, per-relation and per-gap lookups against the
        (n, b, d) neighbor, relation and time-encoding blocks they replace."""
        kg = random_kg(np.random.default_rng(5), n_entities=9, horizon=10, n_events=40)
        params = init_network_params(9, 3, 8, seed=5, dropout_rate=0.0)
        ids, ts = _rows_and_times(5, kg, 40)
        _, cache = encode_batch_fwd(params, kg, ids, ts, 4)
        nbr, rel, mask, delta = cache["nbr"], cache["rel"], cache["mask"], cache["delta"]
        d = params.dim
        kappa = np.sqrt(1.0 / d) * np.cos(params.time_freq * delta[..., None])
        assert np.array_equal(cache["kappa_tab"][delta], kappa)
        h_n = params.entity_emb[nbr] * mask[..., None]
        h_r = params.relation_emb[rel] * mask[..., None]
        a1, a2, a3, a4 = np.split(params.attn_a, 4)
        logits = (
            (params.entity_emb[ids] @ a1)[:, None] + h_n @ a2 + h_r @ a3 + kappa @ a4
        )
        _assert_float64_close(cache["alpha"], softmax_masked_rows(logits, mask), 4 * d)
        assert np.array_equal(cache["alpha"] == 0.0, ~mask)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_gradient_with_per_row_times_and_dropout(self, seed):
        rng = np.random.default_rng(seed)
        kg = random_kg(rng, n_entities=7, horizon=8, n_events=25)
        params = init_network_params(7, 3, 5, seed=seed, dropout_rate=0.3)
        ids = np.array([0, 2, 5, 2, 6, 1])
        ts = np.array([1, 3, 3, 6, 8, 8])
        head = rng.normal(size=(len(ids), 5))

        def lg(p):
            out, cache = encode_batch_fwd(
                params, kg, ids, ts, 3, np.random.default_rng(seed)
            )
            grads = params.zero_grads()
            encode_batch_bwd(head, cache, params, grads)
            return float((head * out).sum()), grads

        report = grad_check(lg, params.trainable(), 1e-5, 1e-5)
        assert report.passed, str(report)


class TestTrajectory:
    def test_single_step(self, toy_params, toy_kg):
        traj = encode_trajectory(toy_params, toy_kg, 1, 1)
        assert traj.shape == (1, toy_params.dim)

    def test_matches_elementwise_calls(self, toy_params, toy_kg):
        traj = encode_trajectory(toy_params, toy_kg, 2, 5, layers=1, b=4)
        for t in range(1, 6):
            one = encode_entity(toy_params, toy_kg, 2, t, layers=1, b=4)
            assert np.array_equal(traj[t - 1], one)

    def test_history_free_entity_constant_fallback(self):
        kg = TemporalKG(
            Vocabulary.integers(3), Vocabulary.integers(1),
            [Quadruple(1, 0, 2, 0)], 6,
        )
        params = init_network_params(3, 1, 4, seed=5, dropout_rate=0.0)
        traj = encode_trajectory(params, kg, 0, 5)
        want = np.maximum(params.entity_emb[0] @ params.transform_W, 0.0)
        for row in traj:
            assert np.allclose(row, want, atol=1e-15)

    def test_horizon_guard(self, toy_params, toy_kg):
        with pytest.raises(ValueError):
            encode_trajectory(toy_params, toy_kg, 0, toy_kg.horizon + 1)


class TestDropout:
    def test_training_path_scales_and_zeroes(self, toy_kg):
        params = init_network_params(7, 3, 16, seed=6, dropout_rate=0.5)
        rng = np.random.default_rng(0)
        out, cache = encode_batch_fwd(params, toy_kg, np.arange(7), 6, 4, rng)
        assert cache["dmask"] is not None
        assert set(np.unique(cache["dmask"])) <= {0.0, 2.0}

    def test_eval_path_has_no_mask(self, toy_params, toy_kg):
        _, cache = encode_batch_fwd(toy_params, toy_kg, np.arange(3), 6, 4)
        assert cache["dmask"] is None

    def test_same_stream_reproduces(self, toy_kg):
        params = init_network_params(7, 3, 8, seed=7, dropout_rate=0.5)
        a, _ = encode_batch_fwd(
            params, toy_kg, np.arange(7), 5, 4, np.random.default_rng(42)
        )
        b, _ = encode_batch_fwd(
            params, toy_kg, np.arange(7), 5, 4, np.random.default_rng(42)
        )
        assert np.array_equal(a, b)
