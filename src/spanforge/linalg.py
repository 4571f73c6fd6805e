"""Tolerance-aware linear algebra kernel.

Everything downstream (program evaluation, witness optimization, compilation
checks) goes through these wrappers so that rank decisions and consistency
checks use one tolerance convention: a singular value counts as nonzero when
it exceeds ``tol`` times the largest singular value.
"""

from __future__ import annotations

import sys
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
    a squared norm that is a finite float (``check_norm``); errors name the
    bad entry [i][j]."""
    try:
        mat = np.asarray(a, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(_not_a_matrix(a)) from None
    if mat.ndim != 2:
        raise ValueError(f"input matrix must be 2-D, got shape {mat.shape}")
    check_numbers(a, lambda i, j: f"input matrix entry [{i}][{j}]")
    if shape is not None and mat.shape != shape:
        raise ValueError(f"input matrix has shape {mat.shape}, expected {shape}")
    check_norm(mat, lambda i, j: f"input matrix entry [{i}][{j}]")
    return mat


def _not_a_matrix(a) -> str:
    """Why numpy could not read ``a`` as a numeric matrix."""
    if not isinstance(a, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in a):
        return "input matrix must be an array of rows"
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            try:
                float(x)
            except OverflowError:
                return f"input matrix entry [{i}][{j}] is too large for a float"
            except (TypeError, ValueError):
                return f"input matrix entry [{i}][{j}] is not a number: {x!r}"
    return "input matrix rows differ in length"


def check_numbers(v, name, index: tuple = ()) -> None:
    """numpy reads JSON's true and false as 1 and 0, null as nan, and a
    numeric string as its number; in a list, or in lists nested in it, each
    is refused, the first named as ``name(*index)``.  Arrays pass as they are.
    A list is scanned by the types of its entries, in C, and walked only
    where that finds a nested list or a non-number."""
    if not isinstance(v, (list, tuple)) or set(map(type, v)).isdisjoint((bool, str, type(None), list, tuple)):
        return
    for i, x in enumerate(v):
        if isinstance(x, (bool, str)) or x is None:
            raise ValueError(f"{name(*index, i)} is not a number: {x!r}")
        check_numbers(x, name, (*index, i))


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    return a


def check_norm(a: np.ndarray, name) -> None:
    """Require the squared norm of ``a``, over all its entries, to be a finite
    float.  Then no entry is infinite or NaN, and no singular value of ``a``
    (at most that norm) overflows, nor does its square.  Otherwise the error
    names the first nonfinite entry, or if there is none the largest, as
    ``name(*index)``."""
    flat = a.ravel(order="K")
    with np.errstate(over="ignore"):
        if np.isfinite(flat @ flat):
            return
    bad = ~np.isfinite(a)
    if bad.any():
        index = tuple(np.argwhere(bad)[0])
        raise ValueError(f"{name(*index)} is not finite: {a[index]}")
    index = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    raise ValueError(f"{name(*index)} is too large: {a[index]} (the sum of the squared entries overflows a float)")


def finite_vector(v, name: str, size: int | None = None) -> np.ndarray:
    """``v`` as a 1-D float64 vector whose squared norm is a finite float, of
    ``size`` entries when given; errors name the field ``name``, and an entry
    as ``name[i]`` (``check_norm``)."""
    try:
        vec = as_vector(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    check_numbers(v, lambda i: f"{name}[{i}]")
    if size is not None and vec.shape[0] != size:
        raise ValueError(f"{name} has {vec.shape[0]} entries, expected {size}")
    check_norm(vec, lambda i: f"{name}[{i}]")
    return vec


def int_field(value, name: str) -> int:
    """A JSON integer (not a boolean); errors name the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def float_field(value, name: str) -> float:
    """A finite JSON number (not a boolean); errors name the field ``name``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def tol_field(value, name: str) -> float:
    """A relative tolerance: a finite number in [0, 1); errors name ``name``."""
    tol = float_field(value, name)
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {value!r}")
    return tol


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
    rank 0.  numpy factors by LAPACK gesdd, which fails to converge on some
    finite matrices (columns scaled far apart); those are factored once more
    by the slower gesvd before ``SolverFailure`` is raised.
    """
    a = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        failure = SolverFailure(f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix")
        if not np.isfinite(a).all():
            raise failure from exc
        # imported here, not at module level: loading scipy.linalg takes about
        # as long as importing the whole CLI, and only this retry needs it
        from scipy.linalg import svd as gesvd

        try:
            u, s, vt = gesvd(a, full_matrices=full_matrices, lapack_driver="gesvd", check_finite=False)
        except np.linalg.LinAlgError:
            raise failure from exc
    rank = int(np.count_nonzero(s > tol * s[0])) if s.size else 0
    return SvdResult(u=u, sigma=s, vt=vt, rank=rank)


def in_span(m, t, tol: float = DEFAULT_TOL, full_matrices: bool = False) -> tuple[SvdResult, np.ndarray, int]:
    """Whether ``t`` lies in the column span of ``m``: the one acceptance rule.

    Returns the SVD of ``m`` (``full_matrices`` as in ``svd``), the component
    of ``t`` orthogonal to the span of ``u[:, :rank]``, and the decision
    ``|residual| <= tol * |t|`` as 0 or 1.
    """
    a = as_matrix(m)
    vec = as_vector(t)
    if a.shape[0] != vec.shape[0]:
        raise ValueError(f"span matrix has {a.shape[0]} rows but vector has {vec.shape[0]}")
    dec = svd(a, tol, full_matrices)
    basis = dec.u[:, : dec.rank]
    resid = vec - basis @ (basis.T @ vec)
    return dec, resid, int(np.linalg.norm(resid) <= tol * np.linalg.norm(vec))


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


def min_quadratic_on_hyperplane(b, c, tol: float = DEFAULT_TOL,
                                dec: SvdResult | None = None) -> tuple[float, np.ndarray]:
    """Minimize ``|B y|^2`` subject to ``<c, y> = 1``.

    Closed form via G = B^T B: where B's rank at ``tol`` is below its column
    count, a null vector z of G with <c, z> != 0 gives value 0 at y = z / <c,
    z>; otherwise the optimum is 1 / <c, G^+ c> at y = G^+ c / <c, G^+ c>.
    ``dec`` is a thin SVD of ``b`` already computed with the same ``tol``;
    without it ``b`` is factored here.

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
    if dec is None:
        dec = svd(mat, tol)
    vr = dec.vt[: dec.rank]
    proj = vr @ con
    z = con - vr.T @ proj
    if dec.rank < mat.shape[1] and np.linalg.norm(z) > tol * cnorm:  # at full column rank z is rounding
        return 0.0, z / float(con @ z)
    # G^+ c computed off the SVD of B to avoid squaring the condition number.
    gpc = vr.T @ (proj / dec.sigma[: dec.rank] ** 2)
    denom = float(con @ gpc)
    if denom <= 0.0:
        raise ZeroConstraint(
            f"constraint vector has no usable component ({denom:.3e}); c is numerically zero relative to B"
        )
    return 1.0 / denom, gpc / denom
