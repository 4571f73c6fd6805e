"""Low-level span programs over Boolean variables.

A program holds a target vector, free vectors that are always available, and
labeled vectors that become available when their variable takes their value.
The program accepts an input exactly when the target lies in the span of the
available vectors.  Input variables are numbered from 1, matching the JSON
wire format; bit strings are indexed ``x[var - 1]``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import NoNegativeWitness, NoPositiveWitness, ZeroConstraint
from .linalg import (
    DEFAULT_TOL,
    SvdResult,
    as_vector,
    check_norm,
    check_numbers,
    finite_vector,
    in_span,
    int_field,
    min_norm_solve,
    min_quadratic_on_hyperplane,
    svd,
    tol_field,
)


def _frozen(a) -> np.ndarray:
    """A read-only float copy of ``a``."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _stack(vectors: list, dim: int, name) -> np.ndarray:
    """``vectors`` as the columns of a new ``dim x N`` array.  When
    they do not stack, they are checked one by one and the first bad one is
    named by ``name(j)``; otherwise only their booleans, nulls and strings
    are (``check_numbers``), and finiteness is left to the check of the
    whole store."""
    if not vectors:
        return np.empty((dim, 0))
    try:
        rows = np.array(vectors, dtype=float)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows.shape != (len(vectors), dim):
        rows = np.array([finite_vector(vec, name(j), dim) for j, vec in enumerate(vectors)])
    else:
        check_numbers(vectors, lambda j, i: f"{name(j)}[{i}]")
    return rows.T


# Largest dense matrix, in float64 entries (128 MiB), made of sparse columns
# (``_dense``) or built by ``lowerbound-suite``.
MAX_DENSE_ENTRIES = 2**24


def _check_dense(rows: int, cols: int):
    """Raise, naming the size, for a dense ``rows x cols`` matrix past
    ``MAX_DENSE_ENTRIES``."""
    if rows * cols > MAX_DENSE_ENTRIES:
        raise ValueError(f"a dense {rows} x {cols} matrix is past the cap of {MAX_DENSE_ENTRIES} entries")


def _dense(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A read-only ``shape`` matrix of ``values`` on (``rows``, ``cols``),
    zero elsewhere; past ``MAX_DENSE_ENTRIES`` it raises."""
    _check_dense(*shape)
    out = np.zeros(shape)
    out[rows, cols] = values
    out.setflags(write=False)
    return out


class Columns:
    """A read-only ``dim x count`` matrix as compressed sparse columns (Davis,
    *Direct Methods for Sparse Linear Systems*, SIAM 2006, ch. 2): column j
    holds the values ``data[indptr[j]:indptr[j + 1]]`` on the rows
    ``indices[indptr[j]:indptr[j + 1]]``, ascending.  ``entries`` is its
    (column, row, value) entry list, ``cols`` the column of each entry."""

    def __init__(self, shape: tuple[int, int], cols: np.ndarray, rows: np.ndarray, values: np.ndarray):
        """From the nonzeros, sorted by column, then row."""
        self.shape, self.entries, self.cols, self.indices, self.data = shape, (cols, rows, values), cols, rows, values
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=shape[1]))])
        for a in (self.indptr, cols, rows, values):
            a.setflags(write=False)

    @classmethod
    def of(cls, matrix: np.ndarray) -> "Columns":
        """The nonzeros of a dense ``matrix``."""
        cols, rows = np.nonzero(matrix.T)
        return cls(matrix.shape, cols, rows, matrix[rows, cols])

    def select(self, mask: np.ndarray) -> "Columns":
        """The columns where ``mask`` is True."""
        at = mask[self.cols]
        return Columns((self.shape[0], np.count_nonzero(mask)), (np.cumsum(mask) - 1)[self.cols[at]],
                       self.indices[at], self.data[at])

    def toarray(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Columns ``start`` to ``stop - 1`` (the last when None), dense and
        read-only (``_dense``)."""
        stop = self.shape[1] if stop is None else stop
        lo, hi = self.indptr[start], self.indptr[stop]
        return _dense((self.shape[0], stop - start), self.indices[lo:hi], self.cols[lo:hi] - start, self.data[lo:hi])


def _runs(lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The positions ``lo[i], ..., lo[i] + length[i] - 1``, one run after
    another; ``np.arange(lo.size).repeat(length)`` is the run of each."""
    ends = length.cumsum()
    # a run's first position, less where it begins in the result
    return np.arange(ends[-1] if ends.size else 0) + (lo + length - ends).repeat(length)


def _sorted_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``keys`` sorted, stably: the order, the sorted keys, the group (run of equal
    keys) of each and where each group starts, as ``np.unique`` finds them."""
    order = keys.argsort(kind="stable")
    keys, head = keys[order], np.empty(keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return order, keys, head.cumsum() - 1, head.nonzero()[0]


def _column_runs(cols: np.ndarray, which: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the entries of the columns ``which`` are in ``cols``, sorted
    column indices (below ``size``) of an entry list: one column after
    another, with the index in ``which`` each entry belongs to."""
    count = np.bincount(cols, minlength=size)
    return _runs((count.cumsum() - count)[which], count[which]), np.arange(which.size).repeat(count[which])


def bit_array(x, num_vars: int) -> np.ndarray:
    """Accept '101', b'101', or a sequence of values equal to 0 or 1; a string
    holds only the characters 0 and 1.  The bits as an integer array.  Errors
    name the length, or the position (1-based) of the first bad bit.

    A string, or a flat sequence numpy reads as booleans, integers or floats,
    is checked in one numpy step; anything else (objects, complex numbers,
    nested or mixed sequences) one bit at a time, by ``b in (0, 1)``."""
    if isinstance(x, (bytes, bytearray)):
        x = x.decode("ascii")
    bits = x if isinstance(x, np.ndarray) and x.ndim == 1 else tuple(x)
    if len(bits) != num_vars:
        raise ValueError(f"input has {len(bits)} bits but the program has {num_vars} variables")
    if isinstance(x, str):
        if set(bits) <= {"0", "1"}:
            return np.frombuffer(x.encode("ascii"), dtype=np.uint8).astype(np.intp) - ord("0")
    else:
        try:
            values = np.asarray(bits)
        except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
            values = np.empty(0, dtype=object)
        if values.ndim == 1 and values.dtype.kind in "biuf":
            ok = (values == 0) | (values == 1)
            if ok.all():
                return values.astype(np.intp)
            bits = bits[: int(np.argmin(ok)) + 1]  # the loop below names the first bad bit
    allowed = ("0", "1") if isinstance(x, str) else (0, 1)
    for i, b in enumerate(bits):
        if b not in allowed:
            raise ValueError(f"input bit {i + 1} must be 0 or 1, got {b!r}")
    return np.array([int(b) for b in bits], dtype=np.intp)


def normalize_bits(x, num_vars: int) -> tuple[int, ...]:
    """``bit_array`` as a tuple of ints."""
    return tuple(bit_array(x, num_vars).tolist())


@dataclass(frozen=True)
class LabeledVector:
    """Input vector available when variable ``var`` (1-based) equals ``val``."""

    vec: np.ndarray
    var: int
    val: int

    def __post_init__(self):
        object.__setattr__(self, "vec", _frozen(as_vector(self.vec)))


@dataclass(frozen=True)
class WitnessReport:
    decision: int
    size: float
    witness: np.ndarray


# Available matrices with fewer entries are factored without a peel (on
# compiled programs, with one BLAS thread, a peeled decision is 1.75x slower
# at 30 x 31 to 46 x 42 and 1.3x at 45 x 46 to 52 x 53, breaks even near
# 52 x 55, and is 12-60% faster from 55 x 58 on); the split stays where it was,
# since it decides which queries peel, and with that their results' last bits.
PEEL_MIN_CELLS = 4096

class Peel:
    """The coordinates of one input removed before factoring.

    ``Peel.of`` runs elimination on the nonzeros of the available columns
    ``matrix``, a ``Columns`` (Davis, *Direct Methods for Sparse Linear
    Systems*, SIAM 2006), in rounds until nothing changes.  Its pivots are
    rows where ``target`` is 0, of two kinds:

    - a dead end: a kept row with exactly one kept column nonzero, paired
      with that column;
    - a doubleton: a kept row r with exactly two kept columns j and k
      nonzero (the doubleton equation of LP presolve; Andersen and
      Andersen, *Math. Programming* 71, 1995), with ``|A[r, k]| >= |A[r,
      j]|``.  Column k is merged into column j, ``a_j <- a_j - m a_k`` with
      ``m = A[r, j] / A[r, k]``, which leaves row r a dead end of column k
      (threshold pivoting: ``|m| <= 1``).

    Each round is a few cheap numpy steps, no set operation, over the
    nonzeros of the merged matrix, one (column, row, value) entry list sorted
    by column, in which a kept column is nonzero on kept rows only: one
    ``bincount`` of the kept columns' entries gives every row its degree, a
    second, weighted by column, a dead end its column.  A dead-end round takes
    every dead end, but the first of them, in row order, takes each column.
    A doubleton round takes its rows in order, and a row waits for a later
    round when a row the round took before it pivots on j or on k, or merges
    into k (two rows may merge into one column); only a row on a contested
    column, one row's k that another row uses too, can.  So no column a round
    pivots on is nonzero on another row of the round, its merges reach none
    of them, and they commute.  They are applied in row order, each entry of
    ``a_k`` but the one on row r subtracted from ``a_j``, grouped with the
    entry it updates by one stable sort; the updates of one
    entry run in turn (``np.subtract.accumulate``), entries that cancel
    exactly leave the list, and an entry an update makes nonzero enters its
    column behind those already there.  So a column keeps its entries in the
    order they entered it, the store's own by row, and ``stands`` and
    ``extend`` sum them in that order.

    Dead-end rounds run until none is left, then one doubleton round runs,
    and so on until neither finds anything.  The kept rows where the target
    is 0 and no kept column is nonzero go last (``zero``).  ``rounds`` lists
    the pivots of each round as (rows, cols) index arrays, doubleton rounds
    included, in order; ``merges`` the (j, k, m) arrays of each doubleton
    round.  ``nonzeros`` is the entry list the rounds leave, each pivot
    column's entries as they were when it went; ``rows`` and ``cols`` mask
    what is kept (``kept``, from ``of``), and ``block`` and ``target`` are
    what is factored, the block written densely from the kept columns'
    entries (``_dense``, so past ``MAX_DENSE_ENTRIES`` it raises).
    ``Peel(matrix, target)`` peels nothing and factors ``matrix`` whole.
    ``whole`` is the target on every row.

    The peel is exact.  Each merge is an invertible column operation, so
    the merged matrix is ``A C`` for a unit triangular C with span(A C) =
    span(A); C^-1 is I plus m at (k, j) for each merge.  A pivot row is 0 on
    every column kept when it goes (merges only combine kept columns), so
    with the pivots first, in the order of their rounds, ``A C = [[D, 0],
    [F, K]]`` with D lower triangular, and the kept block K (with its zero
    rows) is exactly the Schur complement.  The target is 0 on the pivot
    rows, so ``t`` lies in the span of ``matrix`` exactly when ``t_K`` lies
    in the span of K.  The complement of that span is null(K^T) (the zero
    rows' unit vectors included), fixed on the pivot rows by their pivot
    columns (``extend``).  Every solution of ``A C y = t``, and every vector
    of its null space, is 0 on the pivot columns, and C maps them onto those
    of ``matrix`` (``lift``).  Whether the block also keeps the tolerance
    decision of one SVD of ``matrix`` is checked after it is factored
    (``stands``).
    """

    def __init__(self, matrix: Columns, target: np.ndarray, rounds=(), zero=(), nonzeros=None, merges=(), kept=None):
        self.matrix, self.whole = matrix, target
        self.nonzeros = matrix.entries if nonzeros is None else nonzeros
        self.rounds, self.zero, self.merges = tuple(rounds), list(zero), tuple(merges)
        self.rows, self.cols = kept or (np.ones(matrix.shape[0], dtype=bool), np.ones(matrix.shape[1], dtype=bool))
        cols, rows, values = self.nonzeros
        at = self.cols[cols]  # a kept column is nonzero on kept rows only
        self.block = _dense((np.count_nonzero(self.rows), np.count_nonzero(self.cols)),
                            (self.rows.cumsum() - 1)[rows[at]], (self.cols.cumsum() - 1)[cols[at]], values[at])
        self.target = target[self.rows]

    @classmethod
    def of(cls, matrix: Columns, target: np.ndarray) -> "Peel":
        """The peel of ``matrix``, in rounds over its entry list."""
        cols, rows, values = matrix.entries
        dim, count = matrix.shape
        open_rows, row_kept, col_kept = target == 0, np.ones(dim, dtype=bool), np.ones(count, dtype=bool)
        rounds, merges = [], []
        while True:
            live = col_kept[cols]  # a kept column is nonzero on kept rows only
            live_rows = rows[live]
            degree = np.bincount(live_rows, minlength=dim)
            ends = (open_rows & (degree == 1)).nonzero()[0]
            if ends.size:  # dead ends: the first of them, in row order, takes each column
                col = np.bincount(live_rows, cols[live], dim)[ends].astype(np.intp)  # a dead end's one kept column
                first = np.full(count, dim)
                np.minimum.at(first, col, ends)
                took = first[col] == ends
                r, k = ends[took], col[took]
                rounds.append((r, k))
                row_kept[r], col_kept[k] = False, False
                continue
            at = (live & (open_rows & (degree == 2))[rows]).nonzero()[0]
            if not at.size:
                break
            at = at[rows[at].argsort(kind="stable")]
            a, b = at[0::2], at[1::2]  # the two entries of each doubleton row, by column
            later = np.abs(values[b]) >= np.abs(values[a])  # k, the column of the larger entry
            at_j, at_k = np.where(later, a, b), np.where(later, b, a)
            j, k = cols[at_j], cols[at_k]
            # only a row on a contested column, one row's k that another row uses too, can wait
            hot = (np.bincount(np.concatenate([j, k]))[k] > 1) | (np.bincount(k, minlength=count)[j] > 0)
            pivoted, merged, take, taken = set(), set(), ~hot, []
            for t, jt, kt in zip(hot.nonzero()[0].tolist(), j[hot].tolist(), k[hot].tolist()):
                if jt not in pivoted and kt not in pivoted and kt not in merged:
                    pivoted.add(kt)
                    merged.add(jt)
                    taken.append(t)
            take[taken] = True
            at_j, at_k = at_j[take], at_k[take]
            r, j, k, m = rows[at_k], cols[at_j], cols[at_k], values[at_j] / values[at_k]
            rounds.append((r, k))
            merges.append((j, k, m))
            row_kept[r], col_kept[k] = False, False
            # a_j <- a_j - m a_k, merge by merge in row order, except on row r
            src, owner = _column_runs(cols, k, count)
            keep = rows[src] != r[owner]
            src, owner = src[keep], owner[keep]
            into = np.bincount(j, minlength=count)[cols] > 0
            old = (into & row_kept[rows]).nonzero()[0]
            # per entry of a_j, by (column, row), from 0: minus its old value, then each of its updates
            order, keys, entry, start = _sorted_groups(np.concatenate([cols[old] * dim + rows[old],
                                                                       j[owner] * dim + rows[src]]))
            step = np.arange(1, keys.size + 1) - start[entry]
            steps = np.zeros((start.size, step.max(initial=0) + 1))
            steps[entry, step] = np.concatenate([-values[old], m[owner] * values[src]])[order]
            steps = np.subtract.accumulate(steps, axis=1)  # each entry after each of its updates, in turn
            # an entry enters its column, behind those already there, when an update makes it nonzero: it
            # goes by the last such update, or, never emptied, by where it was
            born = (steps[entry, step - 1] == 0.0) & (steps[entry, step] != 0.0)  # an old value too, at its place
            place = order[start]
            np.maximum.at(place, entry[born], order[born])
            now = (steps[:, -1] != 0.0).nonzero()[0]  # exact cancellations leave the list
            now = now[place[now].argsort()]
            into, keys = ~into, keys[start[now]]
            cols = np.concatenate([cols[into], keys // dim])
            rows = np.concatenate([rows[into], keys % dim])
            values = np.concatenate([values[into], steps[now, -1]])
            order = cols.argsort(kind="stable")
            cols, rows, values = cols[order], rows[order], values[order]
        zero = (open_rows & row_kept & (degree == 0)).nonzero()[0]
        row_kept[zero] = False
        return cls(matrix, target, rounds, zero.tolist(), (cols, rows, values), merges, (row_kept, col_kept))

    @cached_property
    def _pivots(self):
        """The pivots in the order of D: their rows and columns, the entries
        of their columns (rows, values, and the pivot each belongs to), the
        pivot entries, and per round the (first pivot, end, first entry, end)
        spans."""
        rows = np.concatenate([r for r, _ in self.rounds])
        cols = np.concatenate([c for _, c in self.rounds])
        by_col, at, values = self.nonzeros
        pick, owner = _column_runs(by_col, cols, self.cols.size)  # owner: entry -> its pivot, in order
        at, values = at[pick], values[pick]
        starts = np.concatenate([[0], np.bincount(owner, minlength=cols.size).cumsum()])  # pivot -> its first entry
        pivot = values[at == rows[owner]]
        ends = [0, *accumulate(len(c) for _, c in self.rounds)]
        spans = [(a, b, int(starts[a]), int(starts[b])) for a, b in zip(ends, ends[1:])]
        return rows, cols, at, values, owner, pivot, starts, spans

    def stands(self, dec: SvdResult, resid: float, tol: float) -> bool:
        """Whether one SVD of ``matrix`` would decide as the block did, with
        ``dec`` the block's SVD and ``resid`` its residual norm.

        First for the merged matrix ``A C``.  That SVD counts rank against
        ``tol`` times its largest singular value, which is at most
        ``hypot(s_1, xi)``: ``s_1`` is the block's and ``xi`` bounds the norm
        of the pivot columns by ``sqrt(|.|_1 |.|_inf)``.  The pivot block D
        is lower triangular, so |D^-1| <= M^-1 entrywise for its comparison
        matrix M (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2nd ed., 2002, ch. 8), and one sweep each way bounds ``|D^-1|`` by
        ``kappa``.  With K_r the block's rank-r part, ``[[D, 0], [F, K_r]]``
        has rank r + q for q pivots and a generalized inverse of norm at most
        ``1/s_r + kappa (1 + xi/s_r)``, and it differs from ``A C`` by the
        largest singular value ``s_{r+1}`` that the block's rank leaves out.

        Then for ``matrix`` itself, through C: ``|C| <= (I - |C^-1 - I|)^-1``
        entrywise (C^-1 is unit triangular), so one sweep each way over the
        multipliers bounds |C| by ``grow``, and |C^-1| <= ``shrink`` = 1 +
        sqrt(the largest sum of |m| merged into one column), since each
        column goes as k at most once and ``|m| <= 1``.  Both are 1 without
        merges.  Multiplied by C^-1, the rank-(r + q) matrix has its
        smallest nonzero singular value divided by at most ``grow`` and
        differs from ``matrix`` by at most ``shrink s_{r+1}``; so the r + q
        singular values of ``matrix`` it carries are at least ``floor``, the
        reciprocal of ``grow`` times that norm, minus ``shrink s_{r+1}``.
        The peel stands when ``floor`` clears the cutoff (its bound above
        times ``shrink``), the rest stay under the cutoff (``grow shrink
        s_{r+1} <= tol s_1``), and the residual stays on its side of ``tol
        |t|`` (``t`` the whole target) both when the pivot columns pull it
        down to ``resid / hypot(1, xi kappa)`` and when the left-out part
        moves it by ``|t| shrink s_{r+1} / floor``.  Each product of norms
        under a square root is taken as a product of square roots, which
        stays finite on every store whose sum of squares does.
        """
        if not self.rounds:  # zero rows alone move neither the span nor the residual
            return True
        xi, kappa, grow, shrink = self.bounds()
        sigma, r = dec.sigma, dec.rank
        s_1 = sigma[0] if sigma.size else 0.0
        s_r, s_next = (sigma[r - 1] if r else np.inf), (sigma[r] if r < sigma.size else 0.0)
        cutoff = tol * shrink * np.hypot(s_1, xi)
        floor = 1.0 / (grow * (1.0 / s_r + kappa * (1.0 + xi / s_r))) - shrink * s_next
        if not floor > cutoff or grow * shrink * s_next > tol * s_1:
            return False
        norm = math.sqrt(self.whole @ self.whole)  # as np.linalg.norm
        bound, shift = tol * norm, norm * shrink * s_next / floor
        if resid <= tol * math.sqrt(self.target @ self.target):  # the block accepts
            return resid + shift <= bound
        return resid / np.hypot(1.0, xi * kappa) - shift > bound

    def bounds(self) -> tuple[float, float, float, float]:
        """``stands``' bounds of a peel with rounds: ``xi`` on the norm of the
        pivot columns, ``kappa`` on |D^-1|, ``grow`` on |C|, ``shrink`` on |C^-1|."""
        rows, _, at, values, owner, pivot, _, spans = self._pivots
        size, pivot = np.abs(values), np.abs(pivot)
        xi = _norm_bound(np.bincount(owner, size), np.bincount(at, size))
        dim = self.matrix.shape[0]
        # M y = 1 forward and M^T z = 1 backward, round by round; where nothing
        # is pushed yet, on the first round of each, the sweep leaves 1 / pivot
        y, z, pushed = 1.0 / pivot, np.zeros(dim), np.zeros(dim)
        z[rows[spans[-1][0] :]] = y[spans[-1][0] :]
        for (_, _, e, f), (a, b, _, _) in zip(spans, spans[1:]):
            pushed += np.bincount(at[e:f], size[e:f] * y[owner[e:f]], dim)
            y[a:b] = (1.0 + pushed[rows[a:b]]) / pivot[a:b]
        for a, b, e, f in reversed(spans[:-1]):
            z[rows[a:b]] = (1.0 + np.bincount(owner[e:f], size[e:f] * z[at[e:f]], b)[a:]) / pivot[a:b]
        kappa = _norm_bound(y, z)
        grow = shrink = 1.0
        if self.merges:
            sizes = [np.abs(ms) for _, _, ms in self.merges]
            down, up = np.ones(self.cols.size), np.ones(self.cols.size)
            for (js, ks, _), m in zip(reversed(self.merges), reversed(sizes)):
                down[ks] = 1.0 + m * down[js]
            for (js, ks, _), m in zip(self.merges, sizes):
                np.add.at(up, js, m * up[ks])
            into = np.bincount(np.concatenate([js for js, _, _ in self.merges]), np.concatenate(sizes), self.cols.size)
            grow, shrink = _norm_bound(down, up), 1.0 + math.sqrt(into.max())
        return xi, kappa, grow, shrink

    def extend(self, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A basis N of the complement of the span of ``matrix``, as its
        (row, column, value) entries sorted by row, then column, from
        ``basis``, an orthonormal basis of the complement of the kept block's
        span on the kept rows: N_0, ``basis``'s columns, then N_z, one column
        per zero row, whose unit vector it adds.  Where nothing peeled, N is
        ``basis`` itself.  Sweeping the rounds from last to first, each pivot
        column's orthogonality fixes N at its pivot row: each entry of the
        column meets the entries of N on its row, and their products, summed
        per pivot and column of N in the column's order, divided by the
        pivot, are N's entries on the pivot row.  N is not orthonormal; it
        has full column rank, since its columns, restricted to the kept and
        zero rows, are orthonormal.  N_z is nonzero only on zero and pivot
        rows, where the target is 0, so it is exactly orthogonal to the
        target (``LowLevelProgram._project``)."""
        kept, cols = np.nonzero(basis)
        width, zero = basis.shape[1] + len(self.zero), np.asarray(self.zero, dtype=np.intp)
        rows = np.concatenate([np.flatnonzero(self.rows)[kept], zero])
        values = np.concatenate([basis[kept, cols], np.ones(zero.size)])
        cols = np.concatenate([cols, np.arange(basis.shape[1], width)])
        if self.rounds:
            # every row gets its entries at once, so they stay contiguous: row
            # r's are start[r], ..., start[r] + count[r] - 1
            count, start = np.bincount(rows, minlength=self.matrix.shape[0]), np.full(self.matrix.shape[0], rows.size)
            np.minimum.at(start, rows, np.arange(rows.size))
            pivot_rows, _, at, col_values, owner, pivot, _, spans = self._pivots
            for a, b, e, f in reversed(spans):
                length = count[at[e:f]]  # the entries of N on the row of each entry of the round's pivot columns
                met = _runs(start[at[e:f]], length)
                order, keys, group, first = _sorted_groups(owner[e:f].repeat(length) * width + cols[met])
                sums = np.bincount(group, (col_values[e:f].repeat(length) * values[met])[order])
                keys = keys[first]
                pivots, filled = keys // width, pivot_rows[a:b]
                filling = np.bincount(pivots - a, minlength=b - a)
                count[filled], start[filled] = filling, rows.size + filling.cumsum() - filling
                rows = np.concatenate([rows, pivot_rows[pivots]])
                cols = np.concatenate([cols, keys % width])
                values = np.concatenate([values, -sums / pivot[pivots]])
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], values[order]

    def lift(self, w: np.ndarray, null: np.ndarray) -> np.ndarray:
        """The minimum-norm solution of ``matrix @ x = whole`` on the rank
        the block kept, from ``w``, the block's, and ``null``, an orthonormal
        basis of the block's null space: both are 0 on the pivot columns of
        the merged matrix.  Then C, one merge at a time from last to first
        (``x_k <- x_k - m x_j``), carries both to the columns of ``matrix``;
        a thin QR of the null space and one projection leave the solution of
        least norm."""
        if not self.merges:
            x = np.zeros(self.cols.size)
            x[self.cols] = w
            return x
        both = np.zeros((self.cols.size, 1 + null.shape[1]))
        both[self.cols, 0], both[self.cols, 1:] = w, null
        live = self.cols.copy()  # in the end all but the dead-end columns no merge pivots on
        for js, ks, ms in reversed(self.merges):
            both[ks] -= ms[:, None] * both[js]
            live[ks] = True
        x = both[:, 0]
        if null.shape[1]:
            q = np.linalg.qr(both[live, 1:])[0]
            x[live] -= q @ (q.T @ x[live])
        return x


def _norm_bound(col_sums: np.ndarray, row_sums: np.ndarray) -> float:
    """``sqrt(|.|_1 |.|_inf)``, a bound on the 2-norm of a nonnegative matrix,
    from its column and row sums."""
    return math.sqrt(col_sums.max(initial=0.0)) * math.sqrt(row_sums.max(initial=0.0))


def _cg(apply, rhs: np.ndarray, rtol: float, steps: int) -> np.ndarray:
    """Conjugate gradients (Hestenes and Stiefel, 1952) on ``apply(x) = rhs``
    from 0, for at most ``steps`` steps, to a residual within ``rtol |rhs|``."""
    x, s = np.zeros_like(rhs), rhs.copy()
    p, gamma = s.copy(), float(s @ s)
    stop = rtol * rtol * gamma
    while gamma > stop and steps > 0:
        q = apply(p)
        curve = float(p @ q)
        if not curve > 0.0:
            break
        x += gamma / curve * p
        s -= gamma / curve * q
        gamma, old = float(s @ s), gamma
        p = s + gamma / old * p
        steps -= 1
    return x


class LowLevelProgram:
    """Span program over ``num_vars`` Boolean variables.

    Every input vector is stored once, as a column of one read-only
    ``dim x N`` ``Columns``, the store (free vectors, then labeled ones), with
    the labeled vectors' variables and values in two integer arrays.
    ``free`` and ``labeled`` accept any 1-D sequences, stacked and converted
    into the store in one step; ``labeled`` entries may be
    ``LabeledVector``s or ``(vec, var, val)`` tuples.  Read back, ``free[i]``
    and ``labeled[i].vec`` are read-only dense columns, made on first read.
    """

    def __init__(self, dim: int, num_vars: int, target, free=(), labeled=(), tol: float = DEFAULT_TOL):
        labels = [(lv.vec, lv.var, lv.val) if isinstance(lv, LabeledVector) else tuple(lv) for lv in labeled]
        self._adopt(dim, num_vars, target, [*free, *(vec for vec, _, _ in labels)], len(free),
                    [var for _, var, _ in labels], [val for _, _, val in labels], tol)

    @classmethod
    def from_store(cls, num_vars: int, target, store: Columns, num_free: int, var, val,
                   tol: float = DEFAULT_TOL) -> "LowLevelProgram":
        """A program on a built ``dim x N`` store whose first ``num_free``
        columns are the free vectors; ``var``/``val`` label the rest.  The
        arrays are adopted, not copied, and made read-only."""
        prog = cls.__new__(cls)
        prog._adopt(store.shape[0], num_vars, target, store, num_free, var, val, tol)
        return prog

    def _adopt(self, dim, num_vars, target, columns, num_free, var, val, tol):
        """The one check of a program, on its store as a whole; ``columns``
        is the store, or the list of vectors to stack and convert into it.
        The check runs over the store's ``data``, by column, then row, as a
        dense pass would.  Errors name the field as the JSON form does."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        target = _frozen(finite_vector(target, "target", dim))
        if not np.linalg.norm(target) > 0.0:
            raise ValueError("target vector must be nonzero")

        def name(j):
            return f"free[{j}]" if j < num_free else f"labeled[{j - num_free}].vec"

        if not isinstance(columns, Columns):
            columns = Columns.of(_stack(columns, dim, name))
        check_norm(columns.data, lambda e: f"{name(columns.cols[e])}[{columns.indices[e]}]")
        try:
            var, val = np.asarray(var, dtype=np.intp), np.asarray(val, dtype=np.intp)
        except OverflowError:  # past int64, so out of range: kept to be named below
            var, val = np.asarray(var, dtype=object), np.asarray(val, dtype=object)
        for key, labels, bad, why in (("var", var, (var < 1) | (var > num_vars), f"outside 1..{num_vars}"),
                                      ("val", val, (val != 0) & (val != 1), "must be 0 or 1")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"labeled[{i}].{key}={labels[i]} {why}")
        var, val = var.astype(np.intp, copy=False), val.astype(np.intp, copy=False)
        for a in (var, val):
            a.setflags(write=False)
        vars(self).update(dim=dim, num_vars=num_vars, target=target, tol=tol,
                          store=columns, num_free=num_free, var=var, val=val)

    def __setattr__(self, name, value):
        raise AttributeError(f"LowLevelProgram is immutable; cannot set {name}")

    @cached_property
    def free(self) -> tuple[np.ndarray, ...]:
        return tuple(self.store.toarray(0, self.num_free).T)

    @cached_property
    def labeled(self) -> tuple[LabeledVector, ...]:
        return tuple(LabeledVector(vec, var, val) for vec, var, val in
                     zip(self.store.toarray(self.num_free).T, self.var.tolist(), self.val.tolist()))

    @cached_property
    @np.errstate(all="ignore")  # a store near the float maximum can overflow ``hi``, as in ``_project``
    def _store_sums(self) -> tuple[np.ndarray, np.ndarray, float, int]:
        """The store's entries per row (``store_product``); its absolute values, their
        ``_norm_bound`` ``hi`` and the most entries in a column (``_project``)."""
        s_cols, s_rows, s_values = self.store.entries
        size_s, count = np.abs(s_values), np.bincount(s_rows, minlength=self.dim)
        hi = _norm_bound(np.bincount(s_cols, size_s, self.store.shape[1]), np.bincount(s_rows, size_s, self.dim))
        return count, size_s, hi, np.diff(self.store.indptr).max()

    # -- queries ---------------------------------------------------------

    def available_mask(self, x) -> np.ndarray:
        """Which columns of the store are available on input ``x``: the free
        vectors, and the labeled ones whose variable takes their value."""
        bits = bit_array(x, self.num_vars)
        mask = np.ones(self.store.shape[1], dtype=bool)
        mask[self.num_free :] = bits[self.var - 1] == self.val
        return mask

    def available_vectors(self, x) -> Columns:
        """The store's columns available on input ``x`` (``available_mask``)."""
        return self.store.select(self.available_mask(x))

    def _join(self, rows, cols, values, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Each store entry met with the entries on its row of the ``dim x
        width`` matrix N, given as (row, column, value) entries sorted by
        row: per pair the key ``store column * width + column of N`` and the
        product, in the order of the store's entries."""
        s_cols, s_rows, s_values = self.store.entries
        met, entry = _column_runs(rows, s_rows, self.dim)
        return s_cols[entry] * width + cols[met], s_values[entry] * values[met]

    def store_product(self, basis: np.ndarray) -> np.ndarray:
        """``S^T N``, dense, for the store S and a dense ``dim x width`` N;
        past ``MAX_DENSE_ENTRIES`` it raises.  Where the nonzero products of
        store entries with N number no more than the result's entries or the
        store nonzeros, each column of N is gathered at the store's rows and
        one ``bincount`` sums its products; otherwise blocks of store
        columns, each made dense with no more entries than that, multiply N.
        So it holds about as many numbers as the result or the store, however
        dense N is."""
        count, width = self.store.shape[1], basis.shape[1]
        _check_dense(count, width)
        s_cols, s_rows, s_values = self.store.entries
        budget, out = max(count * width, s_cols.size), np.empty((count, width))
        if np.count_nonzero(basis, axis=1) @ self._store_sums[0] <= budget:
            for j, col in enumerate(basis.T):
                out[:, j] = np.bincount(s_cols, s_values * col[s_rows], count)
            return out
        step, ptr = max(1, budget // self.dim), self.store.indptr
        for a in range(0, count, step):
            b = min(a + step, count)
            block = _dense((b - a, self.dim), s_cols[ptr[a] : ptr[b]] - a, s_rows[ptr[a] : ptr[b]],
                           s_values[ptr[a] : ptr[b]])
            out[a:b] = block @ basis
        return out

    def evaluate(self, x, tol: float | None = None) -> int:
        return self._decide(x, self.tol if tol is None else tol)[2]

    def positive_witness(self, x, tol: float | None = None) -> WitnessReport:
        return self._solve(x, tol, side=1)

    def negative_witness(self, x, tol: float | None = None) -> WitnessReport:
        return self._solve(x, tol, side=0)

    def witness(self, x, tol: float | None = None) -> WitnessReport:
        return self._solve(x, tol, side=None)

    def _decide(self, x, tol: float) -> tuple[Peel, SvdResult, int]:
        """The peel of the available columns of ``x``, the SVD of its kept
        block and the decision.

        The peel drops the dead ends and merges the doubletons; only the kept
        block is factored, and both witness sides come from its one SVD.
        Unless the peel stands (the block decides as one SVD of all available
        columns would), the available columns are factored whole instead, as
        they are when they have fewer than ``PEEL_MIN_CELLS`` entries.  The
        block factored is made dense, and past ``MAX_DENSE_ENTRIES`` the
        query is refused, naming its size.
        Complete left singular vectors are computed when the block has fewer
        columns than rows, so ``u[:, rank:]`` is an orthonormal basis of the
        complement of the block's span, which ``Peel.extend`` sweeps into a
        basis, not orthonormal, of the space negative witnesses live in
        (``_negative``); complete right ones when doubletons
        merged, so ``vt[rank:]`` spans the block's null space, which
        ``Peel.lift`` needs.  The thin factors are already complete otherwise.
        """
        avail = self.available_vectors(x)
        rows, cols = avail.shape
        peel = Peel(avail, self.target) if rows * cols < PEEL_MIN_CELLS else Peel.of(avail, self.target)
        while True:
            rows, cols = peel.block.shape
            dec, resid, decision = in_span(peel.block, peel.target, tol,
                                           full_matrices=cols < rows or bool(peel.merges))
            if peel.stands(dec, math.sqrt(resid @ resid), tol):  # as np.linalg.norm
                return peel, dec, decision
            peel = Peel(avail, self.target)

    def _solve(self, x, tol: float | None, side: int | None) -> WitnessReport:
        """Decide ``x`` and build the witness of ``side`` (None: the side the
        decision gives) from the decision's one SVD."""
        tol = self.tol if tol is None else tol
        peel, dec, decision = self._decide(x, tol)
        if side == 1 and not decision:
            raise NoPositiveWitness(f"program rejects input {x!r}; no positive witness")
        if side == 0 and decision:
            raise NoNegativeWitness(f"program accepts input {x!r}; no negative witness")
        if decision:
            w = peel.lift(min_norm_solve(peel.block, peel.target, tol, dec), dec.vt[dec.rank :].T)
            return WitnessReport(decision=1, size=float(w @ w), witness=w)
        return self._negative(peel, dec, tol)

    def _negative(self, peel: Peel, dec: SvdResult, tol: float) -> WitnessReport:
        """The negative witness of a rejected input, from its peel and the SVD
        of the kept block: ``w'`` in the complement of the available span
        with ``<w', t> = 1`` and the least ``|S^T w'|^2``.  Where the peel took
        rounds or found zero rows, on the swept basis projected off its
        zero-row directions (``_project``), where that is certified;
        otherwise on an orthonormal basis of the complement, a thin QR of the
        swept basis where there is one, and its ``store_product``."""
        nbasis = dec.u[:, dec.rank :]
        if not nbasis.shape[1]:  # N^T t is 0: a block of full row rank rejects by rounding alone
            raise ZeroConstraint(f"no negative witness at tol {tol:g}: the input is rejected by rounding alone")
        if peel.rounds or peel.zero:
            rows, cols, values = basis = peel.extend(nbasis)
            width = nbasis.shape[1] + len(peel.zero)
            if (rep := self._project(basis, nbasis.shape[1], width, tol)) is not None:
                return rep
            nbasis = _dense((self.dim, width), rows, cols, values)
            if peel.rounds:  # the zero rows alone keep it orthonormal
                nbasis = np.linalg.qr(nbasis)[0]
        size, y = min_quadratic_on_hyperplane(self.store_product(nbasis), nbasis.T @ self.target, tol)
        return WitnessReport(decision=0, size=float(size), witness=nbasis @ y)

    @np.errstate(all="ignore")  # a store near the float maximum can overflow: then nothing is certified
    def _project(self, basis, k: int, width: int, tol: float) -> WitnessReport | None:
        """The negative witness on the swept basis N = [N_0, N_z] (entries from
        ``Peel.extend``): N_0 its first ``k`` columns, N_z one per zero row.
        The witness is N y for the y of least |B y|^2, B = S^T N for the store
        S, with <N^T t, y> = 1.  N_z is orthogonal to t, so its coordinates are
        free: the optimum is the k-column problem of c_0 = N_0^T t and R = B_0
        - B_z Z, B_0 projected off span(B_z) by the least-squares Z, and the
        witness is N_0 y_0 - N_z Z y_0.  B_0 is ``store_product(N_0)``, B_z an
        entry list of ``_join``'s sums; Z solves B_z^T B_z Z = B_z^T B_0 by
        conjugate gradients (Bjorck, *Numerical Methods for Least Squares
        Problems*, SIAM 1996, sec. 7.4), two ``bincount``s a step.

        The result is certified a posteriori, or None; norms of nonnegative
        matrices are ``_norm_bound``s.  M = 2 diag(B_z^T B_z) - |B_z|^T |B_z|
        is a symmetric Z-matrix below the comparison matrix of B_z^T B_z (Horn
        and Johnson, *Topics in Matrix Analysis*, 1991, sec. 2.5), so for any d
        > 0, here from a few steps on M d = 1, the least ``(M d)_i / d_i``,
        less rounding, is a^2 <= sigma_min(B_z)^2.  F = B_z^T R, the zero-row
        part of the dual residual B^T B y - size c, puts R within |F| / a of
        the exact projection, inside span(B_z): with b = sigma_k(R) - |F| / a,
        the size is at least the exact one and at most 1 + (|F| / ab)^2 times
        it, and Z within |F| / a^2 of the exact Z*, which moves the witness by
        at most |N| |F| |y_0| / a^2.  Rounding moves the size, to first order,
        by at most eps m (|S|^T |N| |y| / sqrt(size) + |t|^T |N| |y|) relative,
        |y| = (|y_0|, |Z| |y_0|) and m the most terms in a sum of B, of B_z Z
        and of c_0, plus k for the SVD of R.  The QR path keeps the rank
        ``width`` at ``tol``, its null-space test failing, where ``tol > 3
        width eps`` and ``lo - rho > tol (hi + rho)``: S^T Q, for Q an
        orthonormal basis of span(N), has singular values from ``lo`` = min(a,
        b) / sqrt(1 + zeta + zeta^2) / |N|, zeta >= |Z*|, to ``hi`` = |S|, and
        ``rho = eps |N| |S|`` models its rounding (span(Q) turns by about eps
        cond(N)).  Certified, the size and the witness are within 1e-10.
        """
        eps, count, q = np.finfo(float).eps, self.store.shape[1], width - k
        rows, cols, values = basis
        head = cols < k
        n_0 = _dense((self.dim, k), rows[head], cols[head], values[head])
        r_hat, c_0 = self.store_product(n_0), n_0.T @ self.target  # B_0, then R
        a, z, f, m_z = np.inf, np.zeros((q, k)), 0.0, 0
        if q:
            keys, products = self._join(rows[~head], cols[~head] - k, values[~head], q)
            keys, slot = np.unique(keys, return_inverse=True)
            at, j, v = keys // q, keys % q, np.bincount(slot, products, keys.size)  # B_z
            size_v, gram, m_z = np.abs(v), np.bincount(j, v * v, q), np.bincount(at).max(initial=0)

            def times(x, transpose=False, entries=v):  # B_z x or B_z^T x, or |B_z|'s with entries=size_v
                into, at_x, size = (j, at, q) if transpose else (at, j, count)
                return np.bincount(into, entries * x[at_x], size)

            def spread(d):  # |B_z|^T |B_z| d
                return times(times(d, False, size_v), True, size_v)

            d = _cg(lambda d: 2.0 * gram * d - spread(d), np.ones(q), 0.5 / np.sqrt(q), 2 * q)  # M d = 1
            up, down = 2.0 * gram * d, spread(d)
            mu = np.min((up - down - eps * v.size * (up + down)) / d) if (d > 0.0).all() else 0.0
            if not mu > 0.0:
                return None
            a = np.sqrt(mu)
            z = np.column_stack([_cg(lambda p: np.bincount(j, v * np.bincount(at, v * p[j], count)[at], q),
                                     times(b_0, True), 1e-14, 2 * q) for b_0 in r_hat.T])  # times(times(p), True)
            r_hat = r_hat - np.column_stack([times(col) for col in z.T])
            f = np.linalg.norm([times(col, True) for col in r_hat.T])
        small = svd(r_hat, tol)
        size, y_0 = min_quadratic_on_hyperplane(r_hat, c_0, tol, small)
        b = small.sigma[k - 1] - f / a if small.rank == k else 0.0
        if not (b > 0.0 and size > 0.0):
            return None
        witness = np.bincount(rows, values * np.concatenate([y_0, -(z @ y_0)])[cols], self.dim)
        s_cols, s_rows, _ = self.store.entries
        (_, size_s, hi, longest), size_n = self._store_sums, np.abs(values)
        n_norm = _norm_bound(np.bincount(cols, size_n, width), np.bincount(rows, size_n, self.dim))
        zeta = np.linalg.norm(z) + f / a**2
        lo, rho = min(a, b) / np.sqrt(1.0 + zeta + zeta**2) / n_norm, eps * n_norm * hi
        reach = np.bincount(rows, size_n * np.concatenate([np.abs(y_0), np.abs(z) @ np.abs(y_0)])[cols], self.dim)
        moved = np.linalg.norm(np.bincount(s_cols, size_s * reach[s_rows], count)) / np.sqrt(size)
        terms = longest + m_z + np.count_nonzero(self.target) + k
        size_err = (f / (a * b)) ** 2 + eps * terms * (moved + np.abs(self.target) @ reach)
        witness_err = n_norm * f * np.linalg.norm(y_0) / (a * a * np.linalg.norm(witness))
        if tol > 3 * width * eps and lo - rho > tol * (hi + rho) and size_err <= 1e-10 and witness_err <= 1e-10:
            return WitnessReport(decision=0, size=float(size), witness=witness)
        return None

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        nf = self.num_free
        return {
            "dim": self.dim,
            "num_vars": self.num_vars,
            "target": self.target.tolist(),
            "free": self.store.toarray(0, nf).T.tolist(),
            "labeled": [
                {"vec": vec, "var": var, "val": val}
                for vec, var, val in zip(self.store.toarray(nf).T.tolist(), self.var.tolist(), self.val.tolist())
            ],
            "tol": self.tol,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "LowLevelProgram":
        """Vectors go from the parsed lists straight into the store, without
        intermediate per-vector arrays; errors name the field."""
        if not isinstance(data, dict):
            raise ValueError("program JSON must be an object")
        for key in ("dim", "num_vars", "target"):
            if key not in data:
                raise ValueError(f"program JSON is missing field '{key}'")
        free = data.get("free", [])
        entries = data.get("labeled", [])
        for key, value in (("free", free), ("labeled", entries)):
            if not isinstance(value, list):
                raise ValueError(f"program JSON field '{key}' must be a list")
        vectors, var, val = list(free), [], []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"labeled[{i}] must be an object with fields 'vec', 'var' and 'val'")
            for key in ("vec", "var", "val"):
                if key not in entry:
                    raise ValueError(f"labeled[{i}] is missing field '{key}'")
            vectors.append(entry["vec"])
            var.append(int_field(entry["var"], f"labeled[{i}].var"))
            val.append(int_field(entry["val"], f"labeled[{i}].val"))
        prog = cls.__new__(cls)
        prog._adopt(int_field(data["dim"], "dim"), int_field(data["num_vars"], "num_vars"), data["target"], vectors,
                    len(free), var, val, tol_field(data.get("tol", DEFAULT_TOL), "tol"))
        return prog

    @classmethod
    def from_json(cls, text: str) -> "LowLevelProgram":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class DomainWitnessSizes:
    """Worst-case witness sizes over a finite input family."""

    wsize_0: float
    wsize_1: float
    combined: float
    per_input: tuple[tuple[str, int, float], ...] = field(repr=False, default=())


def fold_witness_sizes(reports) -> DomainWitnessSizes:
    """Max positive / max negative witness sizes and their geometric mean
    over ``(key, WitnessReport)`` pairs; an empty side contributes 0."""
    w0 = 0.0
    w1 = 0.0
    rows = []
    for key, rep in reports:
        if rep.decision:
            w1 = max(w1, rep.size)
        else:
            w0 = max(w0, rep.size)
        rows.append((key, rep.decision, rep.size))
    return DomainWitnessSizes(wsize_0=w0, wsize_1=w1, combined=float(np.sqrt(w0 * w1)), per_input=tuple(rows))


def wsize_over_domain(program: LowLevelProgram, domain) -> DomainWitnessSizes:
    """Witness sizes over ``domain``, an iterable of bit strings."""
    inputs = (normalize_bits(x, program.num_vars) for x in domain)
    return fold_witness_sizes(("".join(map(str, bits)), program.witness(bits)) for bits in inputs)
