import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tkgdistill.numerics import (
    AdamState,
    adam_step,
    add_rows_at,
    cosine,
    cosine_rows_guarded,
    grad_check,
    softmax_masked,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestSoftmaxMasked:
    def test_single_live_element(self):
        out = softmax_masked([5.0], [True])
        assert out.tolist() == [1.0]

    def test_symmetry_with_masked_tail(self):
        out = softmax_masked([0.0, 0.0, 0.0], [True, True, False])
        assert np.allclose(out, [0.5, 0.5, 0.0], atol=1e-15)
        assert out[2] == 0.0

    def test_two_element_closed_form(self):
        out = softmax_masked([1.0, 2.0], [True, True])
        e = np.e
        assert np.allclose(out, [1 / (1 + e), e / (1 + e)], atol=1e-12)

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="empty support"):
            softmax_masked([1.0, 2.0], [False, False])

    @given(st.lists(finite_floats, min_size=1, max_size=12), st.data())
    @settings(max_examples=200)
    def test_distribution_over_support(self, logits, data):
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(logits), max_size=len(logits))
        )
        if not any(mask):
            mask[0] = True
        out = softmax_masked(logits, mask)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert (out >= 0).all()
        assert all(out[i] == 0.0 for i in range(len(mask)) if not mask[i])

    @given(
        st.lists(finite_floats, min_size=2, max_size=10),
        st.floats(min_value=-30, max_value=30, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_shift_invariance(self, logits, shift):
        mask = [True] * len(logits)
        a = softmax_masked(logits, mask)
        b = softmax_masked([x + shift for x in logits], mask)
        assert np.allclose(a, b, atol=1e-12)


class TestCosine:
    def test_identity(self):
        assert cosine([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_antiparallel_scale_invariant(self):
        assert cosine([1, 0], [-2, 0]) == pytest.approx(-1.0)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError, match="undefined cosine"):
            cosine([0.0, 0.0], [1.0, 1.0])

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=0.01, max_value=100),
    )
    @settings(max_examples=200)
    # u . u is subnormal here; an unscaled norm loses digits (error 2.8e-12)
    @example(u=[0.0, 3.944130112988549e-157], a=2.0, b=1.0)
    def test_positive_scale_invariance(self, u, a, b):
        u = np.asarray(u)
        v = u[::-1].copy() + 0.5
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            return
        assert abs(cosine(a * u, b * v) - cosine(u, v)) <= 1e-12
        assert -1.0 <= cosine(u, v) <= 1.0

    def test_rows_guarded_scales_tiny_rows_and_zeroes_dead_ones(self):
        # u . u is subnormal; an unscaled norm loses digits (error 2.8e-12)
        u = np.array([0.0, 3.944130112988549e-157])
        v = u[::-1] + 0.5
        rows_u = np.stack([u, np.zeros(2)])
        got = cosine_rows_guarded(2.0 * rows_u, np.stack([v, v]))
        assert abs(got[0] - cosine_rows_guarded(u, v)) <= 1e-12
        assert got[1] == 0.0


class TestGradCheck:
    def test_quadratic_passes(self):
        params = {"x": np.array([1.0, -2.0])}

        def lg(p):
            return float((p["x"] ** 2).sum()), {"x": 2 * p["x"]}

        report = grad_check(lg, params, step=1e-6, tol=1e-8)
        assert report.passed
        assert report.max_rel_err <= 1e-8

    def test_lazy_gradient_called_once_at_base_point(self):
        params = {"x": np.array([1.0, -2.0])}
        seen = []

        def lg(p):
            x = p["x"].copy()

            def grads():
                seen.append(x)
                return {"x": 2 * x}

            return float((x**2).sum()), grads

        report = grad_check(lg, params, step=1e-6, tol=1e-8)
        assert report.passed
        assert len(seen) == 1 and np.array_equal(seen[0], [1.0, -2.0])

    def test_wrong_gradient_fails(self):
        params = {"x": np.array([1.0, -2.0])}

        def lg(p):
            return float((p["x"] ** 2).sum()), {"x": 4 * p["x"]}  # off by x2

        assert not grad_check(lg, params, step=1e-6, tol=1e-8).passed

    def test_nonfinite_loss_reports_coordinate(self):
        params = {"x": np.array([0.0])}

        def lg(p):
            v = p["x"][0]
            with np.errstate(divide="ignore"):
                return float(np.log(v)), {"x": np.array([1.0])}

        with pytest.raises(FloatingPointError):
            grad_check(lg, params, step=1e-6, tol=1e-8)

    @staticmethod
    def _hinge_check(kink_gap, slope):
        """grad_check of max(0, x - c) at x = 0.5, c = x - kink_gap, with
        ``slope`` as the analytic gradient, at step 1e-5 and tol 1e-5."""

        def lg(p):
            return max(0.0, p["x"][0] - (0.5 - kink_gap)), {"x": np.array([slope])}

        return grad_check(lg, {"x": np.array([0.5])}, step=1e-5, tol=1e-5)

    def test_hinge_near_kink_refined_and_passes(self):
        # the kink 3.6e-6 from x lies inside the 1e-5 stencil
        report = self._hinge_check(3.6e-6, 1.0)
        assert report.passed
        assert [(n, i) for n, i, _ in report.refined] == [("x", 0)]
        assert report.refined[0][2] < 3.6e-6
        assert report.max_abs_err <= 1e-5

    @pytest.mark.parametrize(
        "kink_gap, slope",
        [
            (3.6e-6, 1.1),  # 10% off on the smooth side
            # at h = 1e-6 the central difference is 0.55, but that stencil
            # straddles the kink 1e-7 away, so it must not be trusted
            (1e-7, 0.55),
            (0.0, 0.0),  # exactly on the kink: the one-sided slopes never agree
            (0.0, 1.0),
        ],
    )
    def test_hinge_wrong_gradient_near_kink_fails(self, kink_gap, slope):
        report = self._hinge_check(kink_gap, slope)
        assert not report.passed
        assert report.refined == []

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            grad_check(lambda p: (0.0, {}), {}, step=0.0)


class TestAddRowsAt:
    @staticmethod
    def _reference(out, idx, rows):
        want = out.copy()
        np.add.at(want, idx, rows)
        return want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_add_at_on_duplicate_indices(self, seed):
        rng = np.random.default_rng(seed)
        n, d, m = 9, 5, 400
        out0 = rng.normal(size=(n, d))
        idx = rng.integers(0, n - 2, size=m)  # heavy duplicates, two rows untouched
        rows = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
        # Both sum each cell's k terms in float64, in different orders; each
        # stays within k * eps of the absolute sum, so they differ by at most
        # twice that. The bound is fixed here, from the dtype, not measured.
        mult = np.bincount(idx, minlength=n)[:, None]
        abs_sum = self._reference(np.abs(out0), idx, np.abs(rows))
        bound = 2.0 * (mult + 1) * np.finfo(np.float64).eps * abs_sum
        got = out0.copy()
        add_rows_at(got, idx, rows)
        want = self._reference(out0, idx, rows)
        assert np.all(np.abs(got - want) <= bound)
        assert np.array_equal(got[n - 2:], out0[n - 2:])

    def test_exact_on_integers_and_unique_indices(self):
        out = np.arange(12.0).reshape(4, 3)
        idx = np.array([2, 0, 2, 2])
        rows = np.arange(12.0).reshape(4, 3)
        want = self._reference(out, idx, rows)
        add_rows_at(out, idx, rows)
        assert np.array_equal(out, want)
        out = np.zeros((4, 3))
        add_rows_at(out, np.array([3, 1]), rows[:2])
        assert np.array_equal(out, self._reference(np.zeros((4, 3)), [3, 1], rows[:2]))

    def test_empty_index_is_no_op(self):
        out = np.ones((3, 2))
        add_rows_at(out, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
        assert np.array_equal(out, np.ones((3, 2)))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, 2.0])}
        state = AdamState.like(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(params["w"], [1.0, 2.0])

    def test_first_step_magnitude_is_lr(self):
        params = {"w": np.array([0.0])}
        state = AdamState.like(params)
        adam_step(params, {"w": np.array([1.0])}, state, lr=0.01)
        # bias correction makes the first step ~lr regardless of magnitude
        assert params["w"][0] == pytest.approx(-0.01, rel=1e-6)

    def test_converges_on_scalar_quadratic(self):
        params = {"w": np.array([0.0])}
        state = AdamState.like(params)
        for _ in range(100):
            grad = {"w": 2 * (params["w"] - 3.0)}
            adam_step(params, grad, state, lr=0.1)
        assert abs(params["w"][0] - 3.0) < 0.5

    def test_shape_mismatch_raises(self):
        params = {"w": np.zeros(2)}
        state = AdamState.like(params)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            params = {"w": np.array([1.0, -1.0])}
            state = AdamState.like(params)
            for i in range(10):
                adam_step(params, {"w": np.array([0.3, -0.7]) * (i + 1)}, state, 0.05)
            runs.append(params["w"].copy())
        assert np.array_equal(runs[0], runs[1])
