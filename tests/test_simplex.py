import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce.errors import LceError, NumericalError
from lce.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

from oracles import envelope_minimum, hull_membership, solve_lp_exact


def test_basic_minimum():
    # min x0 + x1 st x0 + x1 = 1 -> 1; sanity of objective and solution
    res = solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_prefers_cheaper_vertex():
    # min 3a + 1b st a + b = 2 -> put all mass on b
    res = solve_lp([3.0, 1.0], [[1.0, 1.0]], [2.0])
    assert res.objective == pytest.approx(2.0, abs=1e-12)
    assert res.x == pytest.approx([0.0, 2.0], abs=1e-12)


def test_infeasible():
    # x >= 0 with x0 + x1 = -1 is infeasible
    res = solve_lp([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert res.status == INFEASIBLE


def test_unbounded():
    # min -x with only a redundant 0 = 0 row
    res = solve_lp([-1.0], [[0.0]], [0.0])
    assert res.status == UNBOUNDED


def test_negative_rhs_handled():
    res = solve_lp([1.0, 0.0], [[-1.0, 1.0]], [-2.0])  # -a + b = -2
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-12)


def test_exact_mode_agrees():
    c = [1.0, 2.0, 0.5]
    A = [[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]
    b = [1.0, 0.5]
    rf = solve_lp(c, A, b)
    rx = solve_lp_exact(c, A, b)
    assert rf.status == rx.status == OPTIMAL
    assert rf.objective == pytest.approx(rx.objective, abs=1e-12)


def test_iteration_cap_raises_numerical_error():
    # phase 1 needs two pivots to drive both artificials out of the basis
    with pytest.raises(NumericalError):
        solve_lp([1.0, 2.0, 0.5], [[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]], [1.0, 0.5], max_iter=1)
    assert issubclass(NumericalError, LceError) and issubclass(NumericalError, ArithmeticError)


def test_hull_membership_square():
    square = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    assert hull_membership(square, [0.5, 0.5])
    assert hull_membership(square, [1.0, 1.0])  # vertex counts
    assert hull_membership(square, [0.0, 0.7])  # edge counts
    assert not hull_membership(square, [1.2, 0.5])
    assert not hull_membership(square, [-0.01, 0.5])


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 7), st.integers(0, 10_000))
def test_hull_membership_accepts_random_convex_combinations(npts, seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-5, 6, size=(npts, 2)).astype(float)
    lam = rng.random(npts)
    lam /= lam.sum()
    z = lam @ pts
    assert hull_membership(pts, z)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_membership_rejects_outside_bounding_box(seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-4, 5, size=(5, 3)).astype(float)
    z = pts.max(axis=0) + 1.5
    assert not hull_membership(pts, z)


def test_envelope_minimum_matches_hand_value():
    # lifted points on a parabola: envelope at 0 from {-1, +1} is the average
    pts = np.array([[-1.0], [1.0], [3.0]])
    vals = np.array([1.0, 1.0, 9.0])
    feasible, mn = envelope_minimum(pts, vals, np.array([0.0]))
    assert feasible
    assert mn == pytest.approx(1.0, abs=1e-12)


def test_envelope_minimum_infeasible_outside_hull():
    pts = np.array([[0.0], [1.0]])
    feasible, mn = envelope_minimum(pts, np.array([0.0, 0.0]), np.array([5.0]))
    assert not feasible and mn is None


def test_envelope_exact_mode():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    vals = np.array([0.0, 4.0, 4.0])
    ok_f, mn_f = envelope_minimum(pts, vals, np.array([1.0, 1.0]))
    ok_x, mn_x = envelope_minimum(pts, vals, np.array([1.0, 1.0]), exact=True)
    assert ok_f and ok_x
    assert mn_f == pytest.approx(mn_x, abs=1e-12) == pytest.approx(4.0)
