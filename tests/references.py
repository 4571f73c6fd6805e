"""Scalar and dense references that only the tests use.

The fixed-point grid and its codes one entry at a time, against which the
compiler's table encoder (``CompiledProgram.encode``/``decode``) is checked;
the canonical sparse descriptions of a dense matrix; the dense Gaussian
sampler with its c(A) statistic, against which the bidiagonal draws are
checked, and the 40-digit smallest singular value of a bidiagonal draw,
against which ``Bidiagonal.sigma_min`` is; the rank-test instances, the
threshold-function reduction and the promise columns of the
Grover/Deutsch-Jozsa program, on which the program families are checked;
the peel's pivot gather, its ``stands`` bounds and its ``extend`` sweep as
they were before its bookkeeping was rewritten, against which ``Peel`` is
checked bit for bit; and the high-level witness as two SVDs gave it,
against which the one SVD of ``HighLevelProgram._decide`` is checked.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from spanforge.linalg import DEFAULT_TOL, as_matrix, in_span, input_matrix, min_norm_solve
from spanforge.lowlevel import WitnessReport, normalize_bits
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


def sigma_min_reference(d, e) -> float:
    """The smallest singular value of the lower-bidiagonal B with diagonal
    ``d`` and subdiagonal ``e``, rounded to a double from 40 digits: a
    bisection on the Sturm count of B^T B - x I, the negative pivots of its
    L D L^T factorization, in ``decimal`` arithmetic.  The entries are exact
    doubles, so 40 digits hold their squares exactly and the pivots' rounding
    is far below a double's ulp.  B is singular exactly when a d[i] is 0."""
    if not all(d):
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        q = [Decimal(float(v)) ** 2 for v in d]
        eps = [Decimal(float(v)) ** 2 for v in e] + [Decimal(0)]

        def below(x):  # eigenvalues of B^T B below x
            count, t = 0, q[0] - x
            for i in range(len(q)):
                pivot = t + eps[i]
                count += pivot < 0
                if i + 1 < len(q):
                    t = q[i + 1] * t / (pivot or Decimal("1e-100")) - x
            return count

        # a diagonal entry of B^T B is a Rayleigh quotient, so at least lambda_1
        lo, hi = Decimal(0), min(a + b for a, b in zip(q, eps))
        while hi - lo > lo * Decimal("1e-25"):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) else (mid, hi)
        return float(((lo + hi) / 2).sqrt())


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


# ---------------------------------------------------------------------------
# the peel's pivot gather, bounds and sweep, verbatim from before its rewrite


def _runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``lo[i], ..., hi[i] - 1``, one run after another, with
    the run i each belongs to."""
    owner = np.repeat(np.arange(lo.size), hi - lo)
    start = np.cumsum(hi - lo) - (hi - lo)  # where each run begins in the result
    return np.arange(owner.size) - start[owner] + lo[owner], owner


def _column_runs(cols: np.ndarray, which: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the entries of the columns ``which`` are in ``cols``, sorted
    column indices (below ``size``) of an entry list: one column after
    another, with the index in ``which`` each entry belongs to."""
    count = np.bincount(cols, minlength=size)
    lo = (np.cumsum(count) - count)[which]
    return _runs(lo, lo + count[which])


def reference_pivots(peel):
    """The pivots in the order of D: their rows and columns, the entries
    of their columns (rows, values, and the pivot each belongs to), the
    pivot entries, and per round the (first pivot, end, first entry, end)
    spans."""
    rows = np.concatenate([r for r, _ in peel.rounds])
    cols = np.concatenate([c for _, c in peel.rounds])
    by_col, at, values = peel.nonzeros
    pick, owner = _column_runs(by_col, cols, peel.cols.size)  # owner: entry -> its pivot, in order
    at, values = at[pick], values[pick]
    starts = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=cols.size))])  # pivot -> its first entry
    pivot = values[at == rows[owner]]
    ends = np.cumsum([0] + [len(c) for _, c in peel.rounds]).tolist()
    spans = [(a, b, int(starts[a]), int(starts[b])) for a, b in zip(ends, ends[1:])]
    return rows, cols, at, values, owner, pivot, starts, spans


def _norm_bound(col_sums: np.ndarray, row_sums: np.ndarray) -> float:
    """``sqrt(|.|_1 |.|_inf)``, a bound on the 2-norm of a nonnegative matrix,
    from its column and row sums."""
    return float(np.sqrt(col_sums.max(initial=0.0)) * np.sqrt(row_sums.max(initial=0.0)))


def reference_bounds(peel) -> tuple[float, float, float, float]:
    """``Peel.stands``' xi, kappa, grow and shrink of a peel with rounds."""
    rows, cols, at, values, owner, pivot, starts, spans = reference_pivots(peel)
    size, pivot = np.abs(values), np.abs(pivot)
    xi = _norm_bound(np.bincount(owner, size), np.bincount(at, size))
    dim = peel.matrix.shape[0]
    y, pushed = np.empty(cols.size), np.zeros(dim)  # M y = 1, forward
    for a, b, e, f in spans:
        y[a:b] = (1.0 + pushed[rows[a:b]]) / pivot[a:b]
        pushed += np.bincount(at[e:f], size[e:f] * y[owner[e:f]], dim)
    z = np.zeros(dim)  # M^T z = 1, backward
    for a, b, e, f in reversed(spans):
        z[rows[a:b]] = (1.0 + np.bincount(owner[e:f] - a, size[e:f] * z[at[e:f]], b - a)) / pivot[a:b]
    kappa = _norm_bound(y, z)
    grow = shrink = 1.0
    if peel.merges:
        down, up, into = np.ones(peel.cols.size), np.ones(peel.cols.size), np.zeros(peel.cols.size)
        for js, ks, ms in reversed(peel.merges):
            down[ks] = 1.0 + np.abs(ms) * down[js]
        for js, ks, ms in peel.merges:
            np.add.at(up, js, np.abs(ms) * up[ks])
            np.add.at(into, js, np.abs(ms))
        grow, shrink = _norm_bound(down, up), 1.0 + float(np.sqrt(into.max()))
    return xi, kappa, grow, shrink


def reference_extend(peel, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Peel.extend``: the swept basis N of the complement of the span of
    the peeled matrix, as (row, column, value) entries sorted by row, then
    column."""
    kept, cols = np.nonzero(basis)
    width, zero = basis.shape[1] + len(peel.zero), np.asarray(peel.zero, dtype=np.intp)
    rows = np.concatenate([np.flatnonzero(peel.rows)[kept], zero])
    values = np.concatenate([basis[kept, cols], np.ones(zero.size)])
    cols = np.concatenate([cols, np.arange(basis.shape[1], width)])
    if peel.rounds:
        # every row gets its entries at once, so they stay contiguous: row
        # r's are start[r], ..., start[r] + count[r] - 1
        count = np.bincount(rows, minlength=peel.matrix.shape[0])
        start, first = np.zeros_like(count), np.flatnonzero(np.diff(rows, prepend=-1))
        start[rows[first]] = first
        pivot_rows, _, at, col_values, owner, pivot, _, spans = reference_pivots(peel)
        for a, b, e, f in reversed(spans):
            lo = start[at[e:f]]
            met, entry = _runs(lo, lo + count[at[e:f]])
            entry += e  # the entries of N on the row of each entry of the round's pivot columns
            keys, slot = np.unique((owner[entry] - a) * width + cols[met], return_inverse=True)
            sums = np.bincount(slot, col_values[entry] * values[met], keys.size)
            pivots, filled = a + keys // width, pivot_rows[a:b]
            count[filled] = np.bincount(pivots - a, minlength=b - a)
            start[filled] = rows.size + np.cumsum(count[filled]) - count[filled]
            rows = np.concatenate([rows, pivot_rows[pivots]])
            cols = np.concatenate([cols, keys % width])
            values = np.concatenate([values, -sums / pivot[pivots]])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], values[order]


def reference_highlevel_witness(program, a, tol: float | None = None) -> WitnessReport:
    """``HighLevelProgram.witness`` as two SVDs gave it: the decision from
    an SVD of [A, F], then, on acceptance, the minimum-norm solution of
    QA w = Q target from a second SVD, Q = I - F F^T.  Each SVD sets its own
    rank, so near the tolerance the solve can refuse what the decision
    accepted; away from it both witnesses agree with the one-SVD path."""
    tol = program.tol if tol is None else tol
    mat = input_matrix(a, (program.space_dim, program.num_inputs))
    _, resid, decision = in_span(np.hstack([mat, program.free_basis]), program.target, tol)
    if decision:
        q = np.eye(program.space_dim) - program.free_basis @ program.free_basis.T
        w = min_norm_solve(q @ mat, q @ program.target, tol)
        return WitnessReport(decision=1, size=float(w @ w), witness=w)
    unorm2 = float(resid @ resid)
    return WitnessReport(decision=0, size=1.0 / unorm2, witness=resid / unorm2)
