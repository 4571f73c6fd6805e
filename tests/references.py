"""Scalar and dense references that only the tests use.

The fixed-point grid and its codes one entry at a time, against which the
compiler's table encoder (``CompiledProgram.encode``/``decode``) is checked;
the canonical sparse descriptions of a dense matrix; the dense Gaussian
sampler with its c(A) statistic, against which the bidiagonal draws are
checked; and the rank-test instances, the threshold-function reduction and
the promise columns of the Grover/Deutsch-Jozsa program, on which the
program families are checked.
"""

from dataclasses import dataclass

import numpy as np

from spanforge.linalg import DEFAULT_TOL, as_matrix
from spanforge.lowlevel import normalize_bits
from spanforge.programs import build_rank_program


def grid_values(k: int) -> list[float]:
    """All representable values at precision k, ascending: level L stands
    for L 2^-k - 1."""
    return [level * 2.0**-k - 1.0 for level in range(2 ** (k + 1))]


def level_digits(level: int, k: int) -> list[int]:
    """The k + 1 fixed-point digits of a grid level, most significant first:
    digit a weighs 2^-a in the value."""
    return [(level >> (k - a)) & 1 for a in range(k + 1)]


def digits_value(digits) -> float:
    """The value sum_a digits[a] 2^-a - 1 that fixed-point digits stand for."""
    return sum(b * 2.0**-a for a, b in enumerate(digits)) - 1.0


def index_bits(c: int, width: int) -> list[int]:
    """The ``width`` little-endian bits of the index c: bit i weighs 2^i."""
    return [(c >> i) & 1 for i in range(width)]


def bits_index(bits) -> int:
    """The index that little-endian bits stand for."""
    return sum(b << i for i, b in enumerate(bits))


def padded(used, size: int, budget: int) -> list[int]:
    """``used`` indices plus the first unused ones below ``size``, ``budget``
    in all, sorted."""
    used = [int(i) for i in used]
    return sorted(used + [i for i in range(size) if i not in used][: budget - len(used)])


def sparse_columns_from_dense(a: np.ndarray, k_nnz: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per-column (row, value) payload slots of ``a``, padded with zero
    entries on the first rows the column leaves zero."""
    return tuple(tuple((i, float(a[i, j])) for i in padded(np.flatnonzero(a[:, j]), a.shape[0], k_nnz))
                 for j in range(a.shape[1]))


def row_lists_from_dense(a: np.ndarray, l_nnz: int) -> tuple[tuple[int, ...], ...]:
    """Per-row lists of the columns where ``a`` is nonzero, padded with the
    first columns the row leaves zero."""
    return tuple(tuple(padded(np.flatnonzero(a[i]), a.shape[1], l_nnz)) for i in range(a.shape[0]))


def gaussian(rng: np.random.Generator, size: int, n: int, m: int) -> np.ndarray:
    """``size`` standard Gaussian n x m matrices, as one array."""
    return rng.standard_normal((size, n, m))


def batched_c(a: np.ndarray) -> np.ndarray:
    """c(A) per dense matrix of a batch, from its singular values."""
    sigma = np.linalg.svd(a, compute_uv=False)
    return np.sqrt(np.mean(1.0 / sigma**2, axis=1))


@dataclass(frozen=True)
class RankInstance:
    """An n x m matrix with entries in [-1, 1], a rank threshold r, and a
    promised bound L on the reciprocal-singular-value mean c_r for positive
    instances."""

    matrix: np.ndarray
    r: int
    L: float

    def __post_init__(self):
        a = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", a)
        n = a.shape[0]
        if not 0 <= self.r <= n:
            raise ValueError(f"rank threshold {self.r} outside [0, {n}]")
        if a.size and np.abs(a).max() > 1.0 + 1e-12:
            raise ValueError("matrix entries must lie in [-1, 1]")
        if self.L <= 0:
            raise ValueError(f"promised bound L must be positive, got {self.L}")


def rank_decision(instance: RankInstance, rng: np.random.Generator, tol: float = DEFAULT_TOL) -> int:
    """Evaluate a fresh program sample on the instance matrix."""
    n, m = instance.matrix.shape
    return build_rank_program(n, m, instance.r, rng).evaluate(instance.matrix, tol)


def threshold_matrix(x) -> np.ndarray:
    """diag(x) for a bit-string x; rank equals the Hamming weight."""
    bits = normalize_bits(x, len(x))
    return np.diag(np.array(bits, dtype=float))


def grover_dj_columns(n: int) -> list[np.ndarray]:
    """The promise column family: the all-ones column first, then every
    balanced +-1 column in lexicographic sign order."""
    if n <= 0 or n % 2:
        raise ValueError(f"n must be positive and even, got {n}")
    cols = [np.ones(n)]
    for mask in range(1 << n):
        signs = np.array([1.0 if (mask >> i) & 1 else -1.0 for i in range(n)])
        if signs.sum() == 0.0:
            cols.append(signs)
    return cols
