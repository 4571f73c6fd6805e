import numpy as np
import pytest
from scipy.linalg import null_space

from spanforge.errors import InconsistentSystem, SolverFailure, ZeroConstraint
from spanforge.linalg import (
    in_span,
    min_norm_solve,
    min_quadratic_on_hyperplane,
    svd,
)

RNG = np.random.default_rng(1234)


def test_svd_reconstructs_random():
    for shape in [(3, 3), (5, 2), (2, 5), (1, 4)]:
        a = RNG.standard_normal(shape)
        dec = svd(a)
        assert np.allclose((dec.u * dec.sigma) @ dec.vt, a, atol=1e-12)
        assert dec.rank == min(shape)


def test_svd_detects_rank_deficiency():
    u = RNG.standard_normal((5, 2))
    v = RNG.standard_normal((2, 4))
    dec = svd(u @ v)
    assert dec.rank == 2


def test_svd_zero_matrix():
    dec = svd(np.zeros((3, 2)))
    assert dec.rank == 0
    assert np.allclose((dec.u * dec.sigma) @ dec.vt, 0.0)


def test_svd_rejects_nonfinite():
    with pytest.raises(SolverFailure):
        svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("full", [False, True])
def test_svd_retries_with_gesvd_when_gesdd_fails(monkeypatch, full):
    """gesdd failing to converge on a finite matrix hands it to gesvd, which
    gives the same rank and singular values."""
    a = RNG.standard_normal((6, 4)) @ np.diag([1e6, 1.0, 1e-3, 0.0])
    expected = svd(a, full_matrices=full)
    gesdd, calls = np.linalg.svd, []

    def fails_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return gesdd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_once)
    dec = svd(a, full_matrices=full)
    assert len(calls) == 1  # the retry does not go through numpy
    assert dec.rank == expected.rank == 3
    assert dec.sigma == pytest.approx(expected.sigma, rel=1e-12)
    assert dec.u.shape == expected.u.shape and dec.vt.shape == expected.vt.shape
    assert np.allclose((dec.u[:, :4] * dec.sigma) @ dec.vt[:4], a, atol=1e-8)


def test_min_norm_solve_matches_pinv():
    for shape in [(4, 4), (3, 5), (5, 3)]:
        a = RNG.standard_normal(shape)
        x0 = RNG.standard_normal(shape[1])
        b = a @ x0
        w = min_norm_solve(a, b)
        assert np.allclose(a @ w, b, atol=1e-9)
        # independent oracle: Moore-Penrose applied to the right side
        assert np.allclose(w, np.linalg.pinv(a) @ b, atol=1e-9)


def test_min_norm_solve_is_minimal():
    a = RNG.standard_normal((2, 4))
    b = a @ RNG.standard_normal(4)
    w = min_norm_solve(a, b)
    null = null_space(a)
    # minimal-norm solutions are orthogonal to the nullspace
    assert np.allclose(null.T @ w, 0.0, atol=1e-9)
    for _ in range(10):
        other = w + null @ RNG.standard_normal(null.shape[1])
        assert np.linalg.norm(w) <= np.linalg.norm(other) + 1e-12


def test_min_norm_solve_inconsistent_raises():
    a = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InconsistentSystem):
        min_norm_solve(a, b)


def test_min_norm_solve_no_columns():
    w = min_norm_solve(np.zeros((3, 0)), np.zeros(3))
    assert w.shape == (0,)
    with pytest.raises(InconsistentSystem):
        min_norm_solve(np.zeros((3, 0)), np.array([1.0, 0.0, 0.0]))


def test_in_span_accepts_vector_in_span():
    s = RNG.standard_normal((4, 2))
    t = s @ RNG.standard_normal(2)
    _, resid, decision = in_span(s, t)
    assert decision == 1
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(t)


def test_in_span_residual_is_orthogonal():
    s = RNG.standard_normal((5, 3))
    t = RNG.standard_normal(5)
    dec, u, decision = in_span(s, t)
    assert decision == 0 and dec.rank == 3
    assert np.allclose(s.T @ u, 0.0, atol=1e-9)
    # t - u lies in the span
    resid = (t - u) - s @ np.linalg.lstsq(s, t - u, rcond=None)[0]
    assert np.linalg.norm(resid) <= 1e-9


def test_in_span_empty_span():
    t = np.array([1.0, 2.0])
    dec, resid, decision = in_span(np.zeros((2, 0)), t)
    assert dec.rank == 0 and decision == 0
    assert np.allclose(resid, t)


@pytest.mark.parametrize("full_matrices", [False, True])
def test_in_span_decides_on_each_side_of_tolerance(full_matrices):
    """Target [1, eps] against the span of e_1: accepted exactly when
    eps <= tol * |t|, here tol * sqrt(1 + eps^2) with tol 0.1."""
    s = np.array([[1.0], [0.0]])
    for eps, expected in ((0.0999, 1), (0.1004, 1), (0.1006, 0), (0.2, 0)):
        dec, resid, decision = in_span(s, [1.0, eps], 0.1, full_matrices)
        assert decision == expected, eps
        assert np.allclose(resid, [0.0, eps])
        assert dec.u.shape == ((2, 2) if full_matrices else (2, 1))


def _brute_hyperplane_min(b, c):
    """Lagrange oracle: minimize ||B y||^2 over <c, y> = 1 by eliminating the
    constraint with an affine parametrization and solving the normal
    equations directly."""
    c = np.asarray(c, dtype=float)
    y0 = c / (c @ c)
    basis = null_space(c.reshape(1, -1))
    if basis.shape[1]:
        z = np.linalg.lstsq(b @ basis, -b @ y0, rcond=None)[0]
        y = y0 + basis @ z
    else:
        y = y0
    return float(y @ (b.T @ (b @ y))), y


def test_min_quadratic_full_rank_matches_oracle():
    for _ in range(20):
        b = RNG.standard_normal((6, 4))
        c = RNG.standard_normal(4)
        value, y = min_quadratic_on_hyperplane(b, c)
        ref_value, _ = _brute_hyperplane_min(b, c)
        assert value == pytest.approx(ref_value, abs=1e-9, rel=1e-9)
        assert c @ y == pytest.approx(1.0, abs=1e-9)
        assert float(np.sum((b @ y) ** 2)) == pytest.approx(value, abs=1e-9, rel=1e-9)


def test_min_quadratic_nullspace_gives_zero():
    # second column never touched by B, so the minimum is exactly zero
    b = np.array([[1.0, 0.0], [2.0, 0.0]])
    c = np.array([1.0, 1.0])
    value, y = min_quadratic_on_hyperplane(b, c)
    assert value == 0.0
    assert c @ y == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(b @ y) <= 1e-9


def test_min_quadratic_singular_but_constrained():
    # B has a nullspace, but it is orthogonal to c: positive minimum remains
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    c = np.array([1.0, 0.0])
    value, y = min_quadratic_on_hyperplane(b, c)
    ref_value, _ = _brute_hyperplane_min(b, c)
    assert value == pytest.approx(ref_value, abs=1e-12)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert c @ y == pytest.approx(1.0, abs=1e-12)


def test_min_quadratic_zero_constraint_raises():
    with pytest.raises(ZeroConstraint):
        min_quadratic_on_hyperplane(np.eye(2), np.zeros(2))


def test_min_quadratic_random_singular_cases():
    for _ in range(20):
        left = RNG.standard_normal((5, 2))
        right = RNG.standard_normal((2, 4))
        b = left @ right  # rank 2 of 4 columns
        c = RNG.standard_normal(4)
        value, y = min_quadratic_on_hyperplane(b, c)
        ref_value, _ = _brute_hyperplane_min(b, c)
        assert value == pytest.approx(ref_value, abs=1e-8, rel=1e-8)
        assert c @ y == pytest.approx(1.0, abs=1e-9)
