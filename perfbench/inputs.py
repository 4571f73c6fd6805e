"""Seeded input matrices for the compiled-program workloads.

Every matrix is grid-valued at precision k (entries are multiples of 2^-k in
[-1, 1 - 2^-k]), so quantization leaves it unchanged and the intended label
survives compilation.  Accepted inputs have rank >= r; rejected inputs have
rank exactly r - 1.  A naive rank-(r-1) float matrix would not do: rounding
it to the grid makes it full rank, and the workload would silently turn
all-positive.  Sparse inputs keep at most k_nnz nonzeros per column and
l_nnz per row.  Only numpy is used here; spanforge sees the results.
"""

from __future__ import annotations

import numpy as np


def grid_matrix(n: int, m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(-(2**k), 2**k, size=(n, m)) / 2.0**k


def on_grid(a: np.ndarray, k: int) -> bool:
    scaled = a * 2.0**k
    return bool(np.all(scaled == np.round(scaled)) and a.min() >= -1.0 and a.max() <= 1.0 - 2.0**-k)


def _rank(a: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(a))


def dense_accepted(n: int, r: int, k: int, rng) -> np.ndarray:
    while True:
        a = grid_matrix(n, n, k, rng)
        if _rank(a) >= r:
            return a


def dense_rejected(n: int, r: int, k: int, rng) -> np.ndarray:
    """Rank exactly r-1: r-1 basis columns with entries in {-3/4..3/4} step
    1/4, the rest combinations of two basis columns with coefficients in
    {-1/2, 0, 1/2}.  All entries stay multiples of 1/8 within [-3/4, 3/4]."""
    if k < 3:
        raise ValueError("rejected dense inputs need precision k >= 3")
    s = r - 1
    while True:
        basis = rng.integers(-3, 4, size=(n, s)) / 4.0
        if _rank(basis) == s:
            break
    cols = [basis[:, i] for i in range(s)]
    for _ in range(n - s):
        i, j = rng.integers(0, s, size=2)
        c1, c2 = rng.choice([-0.5, 0.0, 0.5], size=2)
        cols.append(c1 * basis[:, i] + c2 * basis[:, j])
    a = np.column_stack(cols)[:, rng.permutation(n)]
    return a


def _nonzero_values(count: int, k: int, rng, quarter: bool = False) -> np.ndarray:
    if quarter:  # multiples of 1/4 in [-3/4, 3/4], so halves stay on the grid
        vals = np.array([-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])
    else:
        levels = np.arange(-(2**k), 2**k)
        vals = levels[levels != 0] / 2.0**k
    return rng.choice(vals, size=count)


def sparse_accepted(n: int, r: int, k: int, nnz: int, rng) -> np.ndarray:
    """Union of `nnz` random permutation patterns (<= nnz per row and
    column), nonzero grid values, rank >= r."""
    while True:
        a = np.zeros((n, n))
        for _ in range(nnz):
            a[np.arange(n), rng.permutation(n)] = _nonzero_values(n, k, rng)
        if _rank(a) >= r:
            return a


def sparse_rejected(n: int, r: int, k: int, nnz: int, rng) -> np.ndarray:
    """Rank exactly r-1: r-1 columns with disjoint row supports of size
    1..nnz, plus up to nnz-1 half-scaled copies of them (a copied row gains
    one entry per copy, so rows stay within nnz)."""
    s = r - 1
    if s < 1 or s > n:
        raise ValueError(f"need 1 <= r-1 <= n, got r={r}, n={n}")
    while True:
        sizes = rng.integers(1, nnz + 1, size=s)
        if sizes.sum() <= n:
            break
    rows = rng.permutation(n)
    cols = rng.permutation(n)
    a = np.zeros((n, n))
    start = 0
    for t in range(s):
        support = rows[start : start + sizes[t]]
        start += sizes[t]
        a[support, cols[t]] = _nonzero_values(len(support), k, rng, quarter=True)
    spare = list(cols[s:])
    for _ in range(int(rng.integers(0, min(nnz - 1, len(spare)) + 1))):
        src = cols[int(rng.integers(0, s))]
        a[:, spare.pop()] = 0.5 * a[:, src]
    return a


def labelled_inputs(mode: str, n: int, r: int, k: int, nnz: int, count: int, rng):
    """`count` accepted and `count` rejected inputs, alternating, each as
    (matrix, expected decision)."""
    out = []
    for _ in range(count):
        if mode == "dense":
            out.append((dense_accepted(n, r, k, rng), 1))
            out.append((dense_rejected(n, r, k, rng), 0))
        else:
            out.append((sparse_accepted(n, r, k, nnz, rng), 1))
            out.append((sparse_rejected(n, r, k, nnz, rng), 0))
    for a, label in out:
        if not on_grid(a, k):
            raise AssertionError("generator produced an off-grid entry")
        if (label == 1) != (_rank(a) >= r):
            raise AssertionError("generator produced a matrix with the wrong rank")
        if mode == "sparse" and (
            np.count_nonzero(a, axis=0).max() > nnz or np.count_nonzero(a, axis=1).max() > nnz
        ):
            raise AssertionError("generator exceeded the sparsity budget")
    return out
