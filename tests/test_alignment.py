import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignment_reference import (
    alignment_loss,
    alignment_step,
    alignment_strength,
    correspondence,
    integrate_whole_bwd,
    integrate_whole_fwd,
    temporal_integrate,
)
from tkgdistill.alignment import (
    _causal_softmax,
    init_align_params,
    strength_diagonal,
    temporal_integrate_batch_bwd,
    temporal_integrate_batch_fwd,
)
from scalar_reference import softmax_masked
from tkgdistill.numerics import CHUNK_ROWS, grad_check


def small_traj(rng, n, t_len, d, scale=0.7):
    return rng.normal(size=(n, t_len, d)) * scale


class TestTemporalIntegrate:
    def test_length_one_is_value_projection(self):
        ap = init_align_params(3, seed=0)
        traj = np.array([[0.3, -0.2, 0.9]])
        out = temporal_integrate(ap, traj)
        assert np.allclose(out[0], traj[0] @ ap.temporal_WV, atol=1e-12)

    def test_future_edits_do_not_leak(self):
        ap = init_align_params(4, seed=1)
        rng = np.random.default_rng(2)
        traj = rng.normal(size=(6, 4))
        base = temporal_integrate(ap, traj)
        edited = traj.copy()
        edited[4:] += 10.0
        after = temporal_integrate(ap, edited)
        assert np.allclose(base[:4], after[:4], atol=1e-15)

    def test_hand_computed_two_step(self):
        # identity projections, length-2 trajectory: row 2 mixes the two
        # inputs by the masked softmax of their scaled dot products
        d = 2
        ap = init_align_params(d, seed=3)
        ap.temporal_WQ[:] = np.eye(d)
        ap.temporal_WK[:] = np.eye(d)
        ap.temporal_WV[:] = np.eye(d)
        traj = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = temporal_integrate(ap, traj)
        logits = np.array([0.0, 1.0 / np.sqrt(d)])  # row 2: <t2, t1>, <t2, t2>
        w = softmax_masked(logits, np.array([True, True]))
        expected_row2 = w[0] * traj[0] + w[1] * traj[1]
        assert np.allclose(out[0], traj[0], atol=1e-12)
        assert np.allclose(out[1], expected_row2, atol=1e-12)

    def test_empty_trajectory_raises(self):
        ap = init_align_params(3, seed=4)
        with pytest.raises(ValueError):
            temporal_integrate(ap, np.zeros((0, 3)))

    @given(st.integers(0, 2**31 - 1), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_causality_property(self, seed, t_len):
        rng = np.random.default_rng(seed)
        ap = init_align_params(3, seed=seed % 17)
        traj = rng.normal(size=(t_len, 3))
        cut = int(rng.integers(1, t_len))
        base = temporal_integrate(ap, traj)
        noisy = traj.copy()
        noisy[cut:] = rng.normal(size=(t_len - cut, 3)) * 5
        after = temporal_integrate(ap, noisy)
        assert np.allclose(base[:cut], after[:cut], atol=1e-12)

    def test_rows_are_distributions(self):
        ap = init_align_params(4, seed=5)
        rng = np.random.default_rng(6)
        _, cache = temporal_integrate_batch_fwd(ap, rng.normal(size=(3, 5, 4)))
        beta = cache["beta"]
        assert np.allclose(beta.sum(axis=-1), 1.0, atol=1e-12)
        assert (beta >= 0).all()
        # strictly upper-triangular entries are exactly zero
        for i in range(5):
            for j in range(i + 1, 5):
                assert (beta[:, i, j] == 0).all()

    def test_trajectory_only_backward_in_chunks_is_bitwise(self):
        # more rows than two chunks, the last one short; the path that also
        # takes parameter gradients fills its buffers in the same chunks
        ap = init_align_params(8, seed=2)
        rng = np.random.default_rng(3)
        trajs = rng.normal(size=(2 * CHUNK_ROWS + 37, 6, 8))
        _, cache = temporal_integrate_batch_fwd(ap, trajs)
        grad_out = rng.normal(size=trajs.shape)
        chunked = temporal_integrate_batch_bwd(grad_out, cache, ap)
        whole = temporal_integrate_batch_bwd(grad_out, cache, ap, ap.zero_grads())
        assert np.array_equal(chunked, whole)
        _, whole_cache = integrate_whole_fwd(ap, trajs)
        want = integrate_whole_bwd(grad_out, whole_cache, ap, ap.zero_grads())
        assert np.array_equal(chunked, want)

    def test_forward_in_chunks_is_bitwise(self):
        ap = init_align_params(8, seed=2)
        trajs = np.random.default_rng(4).normal(size=(2 * CHUNK_ROWS + 37, 6, 8))
        out, cache = temporal_integrate_batch_fwd(ap, trajs)
        want, want_cache = integrate_whole_fwd(ap, trajs)
        assert np.array_equal(out, want)
        assert np.array_equal(cache["beta"], want_cache["beta"])
        assert cache["trajs"] is trajs

    @pytest.mark.parametrize("traj_grad", [False, True])
    def test_parameter_backward_in_chunks_is_bitwise(self, traj_grad):
        # the parameter gradients sum over every row in one tensordot per
        # projection, so they match the whole-block form bit for bit
        ap = init_align_params(8, seed=2)
        rng = np.random.default_rng(5)
        trajs = rng.normal(size=(2 * CHUNK_ROWS + 37, 6, 8))
        grad_out = rng.normal(size=trajs.shape)
        _, cache = temporal_integrate_batch_fwd(ap, trajs)
        grads, want_grads = ap.zero_grads(), ap.zero_grads()
        got = temporal_integrate_batch_bwd(grad_out, cache, ap, grads, traj_grad)
        want = integrate_whole_bwd(grad_out, cache, ap, want_grads, traj_grad)
        for name in want_grads:
            assert np.array_equal(grads[name], want_grads[name]), name
        if traj_grad:
            assert np.array_equal(got, want)
        else:
            assert got is None and want is None


class TestCorrespondence:
    def test_identical_integrations(self):
        h = np.random.default_rng(0).normal(size=(4, 3))
        assert correspondence(h, h, 2) == pytest.approx(1.0)

    def test_negated(self):
        h = np.random.default_rng(1).normal(size=(4, 3))
        assert correspondence(h, -h, 3) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        assert correspondence(3.0 * a, b, 1) == pytest.approx(correspondence(a, b, 1))

    def test_zero_vector_raises(self):
        h = np.ones((3, 2))
        z = np.zeros((3, 2))
        with pytest.raises(ValueError, match="undefined cosine"):
            correspondence(h, z, 1)

    def test_out_of_range_step(self):
        h = np.ones((3, 2))
        with pytest.raises(ValueError):
            correspondence(h, h, 4)


class TestStrength:
    def test_first_step_is_one(self):
        rng = np.random.default_rng(8)
        hs, ht = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        assert alignment_strength(hs, ht, 1) == pytest.approx(1.0)

    def test_equal_logits_give_half(self):
        hs = np.array([[1.0, 0.0], [1.0, 0.0]])
        ht = np.array([[1.0, 0.0], [1.0, 0.0]])  # both keys score identically
        assert alignment_strength(hs, ht, 2) == pytest.approx(0.5)

    def test_matches_bruteforce_row_softmax(self):
        rng = np.random.default_rng(11)
        hs, ht = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        got = alignment_strength(hs, ht, 3)
        logits = np.array([hs[2] @ ht[i] for i in range(3)]) / np.sqrt(3)
        want = softmax_masked(logits, np.ones(3, dtype=bool))[2]
        assert got == pytest.approx(want, rel=1e-12)
        # the earlier form projected both sides through identity matrices;
        # skipping those products leaves every strength bit unchanged
        eye = np.eye(3)
        scores = (hs @ eye) @ np.swapaxes(ht @ eye, -1, -2)
        scores /= np.sqrt(3)
        retired = np.diagonal(_causal_softmax(scores), axis1=-2, axis2=-1)
        assert np.array_equal(strength_diagonal(hs, ht), retired)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        hs, ht = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        beta = strength_diagonal(hs, ht)
        assert (beta > 0).all() and (beta <= 1.0 + 1e-12).all()


def _loss_setup(seed, n_pairs=3, n_targets=6, t_len=4, d=5):
    rng = np.random.default_rng(seed)
    ap = init_align_params(d, seed=seed + 1)
    src = small_traj(rng, n_pairs, t_len, d)
    tgt = small_traj(rng, n_targets, t_len, d)
    pair_targets = np.arange(n_pairs)
    excl = [{int(i)} for i in pair_targets]
    return ap, src, tgt, pair_targets, excl


def _case_setup(case, seed):
    """(ap, src, tgt, pair_targets, excl, neg_factor) for one loss case.

    ``dead_negative``: target 5 has an all-zero trajectory, so its
    integration is zero, and it is drawn as a negative. ``duplicate_negatives``:
    6 negatives from a 4-target vocabulary repeat targets within a row.
    ``irreducible_exclusion``: row 0 excludes every target, so its negatives
    are -1.
    """
    if case == "duplicate_negatives":
        return (*_loss_setup(seed, n_targets=4), 6)
    ap, src, tgt, pair_targets, excl = _loss_setup(seed)
    if case == "dead_negative":
        tgt[5] = 0.0
    elif case == "irreducible_exclusion":
        excl[0] = set(range(tgt.shape[0]))
    return ap, src, tgt, pair_targets, excl, 3


def _assert_case_reached(case, cache):
    negs, valid = cache["safe_negs"], cache["valid"]
    if case == "dead_negative":
        assert (negs[valid] == 5).any()
    elif case == "duplicate_negatives":
        assert any(len(set(row)) < len(row) for row in negs.tolist())
    elif case == "irreducible_exclusion":
        assert not valid[0].any() and valid[1:].all()


EDGE_CASES = ["dead_negative", "duplicate_negatives", "irreducible_exclusion"]


class TestAlignmentLoss:
    def test_inactive_hinge_zero(self):
        ap, src, _, pair_targets, excl = _loss_setup(0)
        # targets identical to integrated sources: g(pos) = 1 everywhere;
        # margin tiny so hinge shuts off unless a negative also hits 1
        h_src, _ = temporal_integrate_batch_fwd(ap, src)
        loss, _, _ = alignment_step(
            ap, src, src, np.arange(3), excl, 2, 1e-9,
            np.random.default_rng(0), strength_override=np.ones((3, 4)),
        )
        assert loss >= 0.0

    def test_linear_in_uniform_strength_rescale(self):
        ap, src, tgt, pair_targets, excl = _loss_setup(1)
        rng_args = dict(neg_factor=3, margin=0.5)
        base = alignment_loss(
            ap, src, tgt, pair_targets, excl, 3, 0.5,
            np.random.default_rng(5),
            strength_override=np.full((3, 4), 1.0),
        )
        halved = alignment_loss(
            ap, src, tgt, pair_targets, excl, 3, 0.5,
            np.random.default_rng(5),
            strength_override=np.full((3, 4), 0.5),
        )
        assert halved == pytest.approx(0.5 * base, rel=1e-12)

    def test_single_pair_beta_half_margin(self):
        # one pair, one live time step, forced g(pos) == g(neg): the hinge is
        # exactly the margin, scaled by the 0.5 strength
        d = 3
        ap = init_align_params(d, seed=2)
        traj = np.ones((1, 1, d))
        tgt = np.ones((2, 1, d))
        loss = alignment_loss(
            ap, traj, tgt, np.array([0]), [set()], 1, 0.4,
            np.random.default_rng(0),
            strength_override=np.array([[0.5]]),
        )
        assert loss == pytest.approx(0.2, rel=1e-12)

    def test_empty_pairs_raise(self):
        ap, src, tgt, _, _ = _loss_setup(3)
        with pytest.raises(ValueError):
            alignment_loss(
                ap, src[:0], tgt, np.array([], dtype=int), [], 2, 0.5,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("case", ["plain"] + EDGE_CASES)
    def test_matches_bruteforce_recomputation(self, case):
        ap, src, tgt, pair_targets, excl, n_neg = _case_setup(case, 4)
        rng = np.random.default_rng(7)
        loss, cache, _ = alignment_step(
            ap, src, tgt, pair_targets, excl, n_neg, 0.5, rng
        )
        _assert_case_reached(case, cache)
        h_src, _ = temporal_integrate_batch_fwd(ap, src)
        h_tgt, _ = temporal_integrate_batch_fwd(ap, tgt)

        def cos(a, b, t):  # a dead (zero) row scores 0
            return correspondence(a, b, t) if b[t - 1].any() else 0.0

        beta, negs, valid = cache["beta"], cache["safe_negs"], cache["valid"]
        total = 0.0
        p, n, t_len = cache["hinge"].shape
        for i in range(p):
            for j in range(n):
                for t in range(1, t_len + 1):
                    if not valid[i, j]:
                        continue
                    g_pos = cos(h_src[i], h_tgt[pair_targets[i]], t)
                    g_neg = cos(h_src[i], h_tgt[negs[i, j]], t)
                    total += beta[i, t - 1] * max(0.0, 0.5 - g_pos + g_neg)
        assert loss == pytest.approx(total / (p * n * t_len), rel=1e-10)

    def test_memory_bounded_at_paper_operating_point(self):
        # d=128, 50 negatives, batch 256, T=28: a gathered (P, N, T, d)
        # negative block alone would take 367 MB
        p, n_targets, t_len, d = 256, 200, 28, 128
        rng = np.random.default_rng(0)
        ap = init_align_params(d, seed=1)
        src = small_traj(rng, p, t_len, d)
        tgt = small_traj(rng, n_targets, t_len, d)
        pair_targets = rng.integers(0, n_targets, size=p)
        excl = [{int(i)} for i in pair_targets]
        tracemalloc.start()
        try:
            _, _, backward = alignment_step(
                ap, src, tgt, pair_targets, excl, 50, 0.5,
                np.random.default_rng(2),
            )
            backward(ap.zero_grads())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20

    def test_negative_exclusions_respected(self):
        ap, src, tgt, pair_targets, _ = _loss_setup(5, n_targets=8)
        excl = [{0, 1, 2}, {3, 4}, {5}]
        _, cache, _ = alignment_step(
            ap, src, tgt, pair_targets, excl, 4, 0.5, np.random.default_rng(1)
        )
        negs, valid = cache["safe_negs"], cache["valid"]
        for row, banned in enumerate(excl):
            assert not any(int(e) in banned for e in negs[row][valid[row]])


class TestAlignmentGradients:
    @pytest.mark.parametrize(
        "case, seed",
        [pytest.param("plain", 0, id="0"), pytest.param("plain", 1, id="1")]
        + [pytest.param(case, 0, id=case) for case in EDGE_CASES],
    )
    def test_phi_gradient(self, case, seed):
        ap, src, tgt, pair_targets, excl, n_neg = _case_setup(case, seed)
        h_src, _ = temporal_integrate_batch_fwd(ap, src)
        h_tgt, _ = temporal_integrate_batch_fwd(ap, tgt)
        beta0 = strength_diagonal(h_src, h_tgt[pair_targets])

        def fwd():
            return alignment_step(
                ap, src, tgt, pair_targets, excl, n_neg, 0.5003,
                np.random.default_rng(42), strength_override=beta0,
            )

        _, cache, backward = fwd()
        _assert_case_reached(case, cache)
        g_tgt = backward(ap.zero_grads())
        if case == "dead_negative":  # a zero row gets zero gradient
            assert not g_tgt[5].any()

        def lg(p):
            loss, _, backward = fwd()
            grads = ap.zero_grads()
            backward(grads)
            return loss, grads

        assert grad_check(lg, ap.trainable(), 1e-5, 1e-5).passed

    def test_target_trajectory_gradient(self):
        ap, src, tgt, pair_targets, excl = _loss_setup(7)
        h_src, _ = temporal_integrate_batch_fwd(ap, src)
        h_tgt, _ = temporal_integrate_batch_fwd(ap, tgt)
        beta0 = strength_diagonal(h_src, h_tgt[pair_targets])
        box = {"tgt": tgt}

        def lg(p):
            loss, _, backward = alignment_step(
                ap, src, p["tgt"], pair_targets, excl, 3, 0.5003,
                np.random.default_rng(42), strength_override=beta0,
            )
            g_tgt = backward(ap.zero_grads())
            return loss, {"tgt": g_tgt}

        assert grad_check(lg, box, 1e-5, 1e-5).passed
