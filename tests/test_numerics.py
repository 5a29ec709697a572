import numpy as np
import pytest

from maneuverkit.numerics import (
    finite_diff_grad,
    l2_normalize,
    make_rng,
    softmax,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros(5)), np.full(5, 0.2), atol=1e-15)

    def test_shift_invariance(self):
        rng = make_rng(0)
        for _ in range(50):
            v = rng.uniform(-1e3, 1e3, size=7)
            c = rng.uniform(-50, 50)
            assert np.max(np.abs(softmax(v) - softmax(v + c))) <= 1e-12

    def test_known_values(self):
        np.testing.assert_allclose(
            softmax([1.0, 2.0, 3.0]),
            [0.09003057, 0.24472847, 0.66524096],
            atol=1e-8,
        )

    def test_sums_to_one_for_large_inputs(self):
        rng = make_rng(1)
        for _ in range(100):
            v = rng.uniform(-1e3, 1e3, size=int(rng.integers(1, 12)))
            assert abs(softmax(v).sum() - 1.0) <= 1e-12

    def test_entries_positive_in_representable_range(self):
        # exp underflows to exactly 0.0 below about -745 in float64, so
        # strict positivity only holds while the spread stays representable.
        rng = make_rng(2)
        for _ in range(100):
            v = rng.uniform(-350.0, 350.0, size=6)
            assert np.all(softmax(v) > 0)

    def test_last_axis_rows_match_single_vectors(self):
        m = make_rng(3).uniform(-50.0, 50.0, size=(20, 7))
        np.testing.assert_array_equal(softmax(m), np.array([softmax(row) for row in m]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda p: float(np.sum(p * p)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        grad = finite_diff_grad(lambda p: 3.5, np.array([0.3, -0.7, 2.0]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_product(self):
        grad = finite_diff_grad(lambda p: float(p[0] * p[1]), np.array([3.0, 5.0]))
        np.testing.assert_allclose(grad, [5.0, 3.0], atol=1e-8)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda p: float("nan"), np.zeros(1))


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(123456789).standard_normal(10_000)
        b = make_rng(123456789).standard_normal(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(10)
        b = make_rng(2).standard_normal(10)
        assert not np.array_equal(a, b)


def test_l2_normalize():
    v = l2_normalize(np.array([3.0, 4.0]))
    np.testing.assert_allclose(v, [0.6, 0.8])
    np.testing.assert_array_equal(l2_normalize(np.zeros(4)), np.zeros(4))
