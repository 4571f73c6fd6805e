"""Scalar and dense references that only the tests use.

The fixed-point grid and its codes one entry at a time, against which the
compiler's table encoder (``CompiledProgram.encode``/``decode``) is checked;
the canonical sparse descriptions of a dense matrix; and the dense Gaussian
sampler with its c(A) statistic, against which the bidiagonal draws are
checked.
"""

import numpy as np


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
