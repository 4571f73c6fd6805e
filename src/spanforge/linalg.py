"""Tolerance-aware linear algebra kernel.

Everything downstream (program evaluation, witness optimization, compilation
checks) goes through these wrappers so that rank decisions and consistency
checks use one tolerance convention: a singular value counts as nonzero when
it exceeds ``tol`` times the largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSystem, SolverFailure, ZeroConstraint

# Relative singular-value cutoff used everywhere unless overridden per call.
DEFAULT_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce to a float64 2-D array without copying when possible."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def input_matrix(a, shape: tuple[int, int] | None = None) -> np.ndarray:
    """A queried input matrix as float64: 2-D, of ``shape`` when given, with
    every entry a finite number; errors name the first bad entry [i][j]."""
    try:
        mat = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(_not_a_matrix(a)) from None
    if mat.ndim != 2:
        raise ValueError(f"input matrix must be 2-D, got shape {mat.shape}")
    if shape is not None and mat.shape != shape:
        raise ValueError(f"input matrix has shape {mat.shape}, expected {shape}")
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise ValueError(f"input matrix entry [{i}][{j}] is not finite: {mat[i, j]}")
    return mat


def _not_a_matrix(a) -> str:
    """Why numpy could not read ``a`` as a numeric matrix."""
    if not isinstance(a, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in a):
        return "input matrix must be an array of rows"
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            try:
                float(x)
            except (TypeError, ValueError):
                return f"input matrix entry [{i}][{j}] is not a number: {x!r}"
    return "input matrix rows differ in length"


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SvdResult:
    """SVD ``M = u @ diag(sigma) @ vt`` with a numerical rank attached.

    Thin unless computed with ``full_matrices=True``, in which case ``u`` and
    ``vt`` are complete orthonormal bases (square).
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray
    rank: int


def svd(m, tol: float = DEFAULT_TOL, full_matrices: bool = False) -> SvdResult:
    """SVD of ``m``; rank = number of sigma_i > tol * sigma_1.

    Thin by default; ``full_matrices=True`` also returns the complete left and
    right bases, e.g. ``u[:, rank:]`` spans the orthogonal complement of the
    column span.  Empty matrices (zero rows or columns) are legal and yield
    rank 0.
    """
    a = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix") from exc
    rank = numerical_rank_from_sigma(s, tol)
    return SvdResult(u=u, sigma=s, vt=vt, rank=rank)


def numerical_rank_from_sigma(sigma: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    if sigma.size == 0:
        return 0
    return int(np.count_nonzero(sigma > tol * sigma[0]))


def min_norm_solve(m, b, tol: float = DEFAULT_TOL, dec: SvdResult | None = None) -> np.ndarray:
    """Minimum-2-norm solution of ``m @ w = b``.

    Raises InconsistentSystem when the residual exceeds
    ``tol * (sigma_1 * |w| + |b|)``.  A matrix with zero columns is consistent
    only with b = 0 (the solution is the empty vector).  ``dec`` is an SVD of
    ``m`` (thin or full) already computed with the same ``tol``; without it
    ``m`` is factored here.
    """
    a = as_matrix(m)
    rhs = as_vector(b)
    if a.shape[0] != rhs.shape[0]:
        raise ValueError(f"matrix has {a.shape[0]} rows but rhs has {rhs.shape[0]} entries")
    if dec is None:
        dec = svd(a, tol)
    sig = dec.sigma[: dec.rank]
    w = dec.vt[: dec.rank].T @ ((dec.u[:, : dec.rank].T @ rhs) / sig) if dec.rank else np.zeros(a.shape[1])
    residual = np.linalg.norm(a @ w - rhs)
    scale = dec.sigma[0] * np.linalg.norm(w) + np.linalg.norm(rhs) if dec.sigma.size else np.linalg.norm(rhs)
    if residual > tol * scale:
        raise InconsistentSystem(
            f"system is inconsistent: residual {residual:.3e} exceeds tol*scale {tol * scale:.3e}"
        )
    return w


def nullspace_basis(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of ``m``."""
    a = as_matrix(m)
    if a.shape[1] == 0:
        return np.zeros((0, 0))
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    dec = svd(a, tol, full_matrices=True)
    return dec.vt[dec.rank :].T


def project_complement(s, t, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Component of ``t`` orthogonal to the column span of ``s``."""
    a = as_matrix(s)
    vec = as_vector(t)
    if a.shape[0] != vec.shape[0]:
        raise ValueError(f"span matrix has {a.shape[0]} rows but vector has {vec.shape[0]}")
    dec = svd(a, tol)
    basis = dec.u[:, : dec.rank]
    return vec - basis @ (basis.T @ vec)


def min_quadratic_on_hyperplane(b, c, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Minimize ``|B y|^2`` subject to ``<c, y> = 1``.

    Closed form via G = B^T B: a null vector z of G with <c, z> != 0 gives
    value 0 at y = z / <c, z>; otherwise c lies in the row space of B and the
    optimum is 1 / <c, G^+ c> at y = G^+ c / <c, G^+ c>.

    Returns (value, y).  Raises ZeroConstraint when c is numerically zero.
    """
    mat = as_matrix(b)
    con = as_vector(c)
    if mat.shape[1] != con.shape[0]:
        raise ValueError(f"B has {mat.shape[1]} columns but c has {con.shape[0]} entries")
    cnorm = np.linalg.norm(con)
    if cnorm == 0.0:
        raise ZeroConstraint("constraint vector c is zero; the hyperplane <c,y>=1 is empty")
    # One thin SVD of B: its leading right singular vectors V_r span the row
    # space, so c - V_r^T (V_r c) is the null-space component of c for every
    # shape of B.
    dec = svd(mat, tol)
    vr = dec.vt[: dec.rank]
    proj = vr @ con
    z = con - vr.T @ proj
    if np.linalg.norm(z) > tol * cnorm:
        return 0.0, z / float(con @ z)
    # G^+ c computed off the SVD of B to avoid squaring the condition number.
    gpc = vr.T @ (proj / dec.sigma[: dec.rank] ** 2)
    denom = float(con @ gpc)
    if denom <= 0.0:
        raise ZeroConstraint(
            f"constraint vector has no usable component ({denom:.3e}); c is numerically zero relative to B"
        )
    return 1.0 / denom, gpc / denom
