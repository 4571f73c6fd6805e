"""Low-level span programs over Boolean variables.

A program holds a target vector, free vectors that are always available, and
labeled vectors that become available when their variable takes their value.
The program accepts an input exactly when the target lies in the span of the
available vectors.  Input variables are numbered from 1, matching the JSON
wire format; bit strings are indexed ``x[var - 1]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import NoNegativeWitness, NoPositiveWitness
from .linalg import (
    DEFAULT_TOL,
    SvdResult,
    as_vector,
    check_norm,
    finite_vector,
    in_span,
    int_field,
    min_norm_solve,
    min_quadratic_on_hyperplane,
    tol_field,
)


def _frozen(a) -> np.ndarray:
    """Read-only float array.  A read-only array whose memory owner is also
    read-only (such as a column of a program's store) is kept as it is;
    anything else is copied."""
    out = np.asarray(a, dtype=float)
    owner = out if out.base is None else out.base
    if out.flags.writeable or not isinstance(owner, np.ndarray) or owner.flags.writeable:
        out = np.array(out)
        out.setflags(write=False)
    return out


def _stack(vectors: list, dim: int, name) -> np.ndarray:
    """``vectors`` as the columns of a new read-only ``dim x N`` array.  When
    they do not stack, they are checked one by one and the first bad one is
    named by ``name(j)``; otherwise finiteness is left to the check of the
    whole store."""
    if not vectors:
        return np.empty((dim, 0))
    try:
        rows = np.array(vectors, dtype=float)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows.shape != (len(vectors), dim):
        rows = np.array([finite_vector(vec, name(j), dim) for j, vec in enumerate(vectors)])
    rows.setflags(write=False)
    return rows.T


def column_rows(matrix: np.ndarray) -> list[list[int]]:
    """For each column of ``matrix``, the rows where it is nonzero."""
    return rows_by_column(*np.nonzero(matrix.T != 0), matrix.shape[1])


def rows_by_column(cols: np.ndarray, rows: np.ndarray, count: int) -> list[list[int]]:
    """The rows of (column, row) pairs sorted by column, then row, split into
    the ``count`` columns."""
    bounds = np.searchsorted(cols, np.arange(count + 1)).tolist()
    rows = rows.tolist()
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def column_entries(matrix: np.ndarray, pattern=None) -> list[dict[int, float]]:
    """For each column of ``matrix``, a map from the rows where it is nonzero
    to its entries; ``pattern`` is its ``column_rows`` when given."""
    pattern = column_rows(matrix) if pattern is None else pattern
    lengths = [len(rows) for rows in pattern]
    at = np.fromiter(chain.from_iterable(pattern), np.intp, sum(lengths))
    values = iter(matrix[at, np.repeat(np.arange(len(pattern)), lengths)].tolist())
    return [dict(zip(rows, values)) for rows in pattern]  # zip stops at the end of rows, before reading values


def normalize_bits(x, num_vars: int) -> tuple[int, ...]:
    """Accept '101', b'101', or a sequence of values equal to 0 or 1; a string
    holds only the characters 0 and 1.  Errors name the length, or the
    position (1-based) of the first bad bit."""
    if isinstance(x, (bytes, bytearray)):
        x = x.decode("ascii")
    bits = tuple(x)
    if len(bits) != num_vars:
        raise ValueError(f"input has {len(bits)} bits but the program has {num_vars} variables")
    allowed = ("0", "1") if isinstance(x, str) else (0, 1)
    for i, b in enumerate(bits):
        if b not in allowed:
            raise ValueError(f"input bit {i + 1} must be 0 or 1, got {b!r}")
    return tuple(map(int, bits))


@dataclass(frozen=True)
class LabeledVector:
    """Input vector available when variable ``var`` (1-based) equals ``val``."""

    vec: np.ndarray
    var: int
    val: int

    def __post_init__(self):
        object.__setattr__(self, "vec", _frozen(as_vector(self.vec)))


@dataclass(frozen=True)
class AvailableColumns:
    """Available vectors for one input.

    ``mask`` selects the available columns of the program's store (free
    vectors first, then labeled ones).
    """

    matrix: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class WitnessReport:
    decision: int
    size: float
    witness: np.ndarray


# Available matrices with fewer entries are factored without a peel: there
# one SVD costs less than the peel's bookkeeping (on compiled programs, with
# one BLAS thread, a peeled decision is about 40% slower at 45 x 46 to
# 52 x 52 and 6% slower at 60 x 55 to 60 x 61, breaks even near 65 x 66 to
# 68 x 69 and is 30-60% faster from 84 x 76 on).
PEEL_MIN_CELLS = 4096


class _Elimination:
    """A peel in progress on the merged matrix.  ``columns[j]`` maps each row
    where column j is nonzero to its entry, dropped rows included; a column
    is copied before its first merge, so the maps handed in are only read.
    ``lines[i]`` is the set of kept columns nonzero on kept row i.  The next
    rounds look at the rows where the target is 0 that were left with one
    kept column (``ends``) or two (``twos``) since they last looked."""

    def __init__(self, columns: list[dict], open_rows: list[bool]):
        self.columns, self.open, self.copied = list(columns), open_rows, set()
        self.lines = lines = [set() for _ in open_rows]
        for j, col in enumerate(columns):
            for i in col:
                lines[i].add(j)
        self.row_kept = [True] * len(open_rows)
        self.ends = {i for i, line in enumerate(lines) if len(line) == 1 and open_rows[i]}
        self.twos = {i for i, line in enumerate(lines) if len(line) == 2 and open_rows[i]}

    def _moved(self, i: int, line: set) -> None:
        """Kept row i lost or gained a kept column, leaving ``line``."""
        if self.open[i]:
            if len(line) == 1:
                self.ends.add(i)
            elif len(line) == 2:
                self.twos.add(i)

    def drop(self, i: int, j: int) -> None:
        self.row_kept[i] = False
        lines, kept = self.lines, self.row_kept
        for k in self.columns[j]:
            if kept[k]:
                line = lines[k]
                line.discard(j)
                if len(line) <= 2:
                    self._moved(k, line)

    def dead_ends(self) -> tuple[list[int], list[int]]:
        """One round of dead ends: every kept row where the target is 0 with
        exactly one kept column pairs with it, unless an earlier row of the
        round took it, and both are dropped.  Returns the rows and their
        columns."""
        pivots = {}  # column -> its row
        for i in sorted(self.ends):
            if self.row_kept[i] and len(self.lines[i]) == 1:
                pivots.setdefault(next(iter(self.lines[i])), i)
        self.ends = set()
        for j, i in pivots.items():
            self.drop(i, j)
        return list(pivots.values()), list(pivots)

    def doubletons(self) -> tuple[list[int], list[int], list[int], list[float]]:
        """One round of doubletons: every kept row r where the target
        is 0 with exactly two kept columns pivots on k, the column of its
        larger entry (the later one on a tie), and merges it into the other,
        j: ``a_j <- a_j - m a_k`` with ``m = A[r, j] / A[r, k]``, so ``|m| <=
        1`` and row r is left a dead end of column k; both are dropped.  A row
        waits for a later round when an earlier row of this one pivots on j
        or on k, or merges into k.  So no column a round pivots on is nonzero
        on another row of the round, its merges reach none of them, and they
        commute.  Returns the rows, j, k and m."""
        pivoted, merged, waiting, pivots = set(), set(), set(), []
        for r in sorted(self.twos):
            line = self.lines[r]
            if len(line) != 2 or not self.row_kept[r]:
                continue
            a, b = line
            if a > b:
                a, b = b, a
            j, k = (a, b) if abs(self.columns[b][r]) >= abs(self.columns[a][r]) else (b, a)
            if j in pivoted or k in pivoted or k in merged:
                waiting.add(r)
                continue
            pivoted.add(k)
            merged.add(j)
            pivots.append((r, j, k, self.columns[j][r] / self.columns[k][r]))
        self.twos = waiting
        for r, j, k, m in pivots:
            self.merge(r, j, k, m)
            self.drop(r, k)
        return tuple(map(list, zip(*pivots))) if pivots else ([], [], [], [])

    def merge(self, r: int, j: int, k: int, m: float) -> None:
        """``a_j <- a_j - m a_k``, with the entry at row r set to 0 and exact
        cancellations dropped from the pattern."""
        if j not in self.copied:
            self.columns[j] = dict(self.columns[j])
            self.copied.add(j)
        col = self.columns[j]
        del col[r]
        self.lines[r].discard(j)
        for i, v in self.columns[k].items():
            if i == r:
                continue
            had, new = i in col, col.get(i, 0.0) - m * v
            if new:
                col[i] = new
            elif had:
                del col[i]
            if had != bool(new) and self.row_kept[i]:  # fill, or an exact cancellation
                line = self.lines[i]
                if new:
                    line.add(j)
                else:
                    line.discard(j)
                self._moved(i, line)


class Peel:
    """The coordinates of one input removed before factoring.

    ``Peel.of`` runs elimination on the nonzero pattern of the available
    columns ``matrix`` (Davis, *Direct Methods for Sparse Linear Systems*,
    SIAM 2006), in rounds until nothing changes.  Its pivots are rows where
    ``target`` is 0, of two kinds:

    - a dead end: a kept row with exactly one kept column nonzero, paired
      with that column;
    - a doubleton: a kept row r with exactly two kept columns j and k
      nonzero (the doubleton equation of LP presolve; Andersen and
      Andersen, *Math. Programming* 71, 1995), with ``|A[r, k]| >= |A[r,
      j]|``.  Column k is merged into column j, ``a_j <- a_j - m a_k`` with
      ``m = A[r, j] / A[r, k]``, which leaves row r a dead end of column k
      (threshold pivoting: ``|m| <= 1``).

    A round of one kind takes every such row unless an earlier row of the
    round took one of its columns, and drops its pairs; dead-end rounds run
    until none is left, then one doubleton round runs, and so on until
    neither finds anything.  The kept rows where the target is 0 and no kept
    column is nonzero go last (``zero``).  ``rounds`` lists the pivots of
    each round as (rows, cols) index lists, doubleton rounds included, in
    order; ``merges`` the (j, k, m) arrays of each doubleton round.
    ``columns[j]`` maps each row where column j of the merged matrix is
    nonzero to its entry, ``rows`` and ``cols`` mask what is kept, and
    ``block`` and ``target`` are what is factored: ``matrix`` and
    ``target`` themselves when nothing peels.  ``whole`` is the target on
    every row.

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

    def __init__(self, matrix: np.ndarray, target: np.ndarray, rounds=(), zero=(), columns=(), merges=()):
        self.matrix, self.whole, self.columns = matrix, target, columns
        self.rounds, self.zero, self.merges = tuple(rounds), list(zero), tuple(merges)
        self.rows, self.cols = np.ones(matrix.shape[0], dtype=bool), np.ones(matrix.shape[1], dtype=bool)
        self.rows[[i for rows, _ in self.rounds for i in rows] + self.zero] = False
        self.cols[[j for _, cols in self.rounds for j in cols]] = False
        if self.rows.all() and self.cols.all():
            self.block, self.target = matrix, target
            return
        self.block, self.target = matrix[np.ix_(self.rows, self.cols)], target[self.rows]
        merged = sorted({j for js, _, _ in self.merges for j in js.tolist()})
        merged = [j for j in merged if self.cols[j]]
        if merged:  # kept columns that differ from ``matrix``, written from their entries
            at, values, lengths = self._entries(merged)
            pos, keep = np.cumsum(self.cols)[merged] - 1, self.rows[at]
            self.block[:, pos] = 0.0
            self.block[(np.cumsum(self.rows) - 1)[at[keep]], np.repeat(pos, lengths)[keep]] = values[keep]

    @classmethod
    def of(cls, matrix: np.ndarray, target: np.ndarray, columns=None) -> "Peel":
        """The peel of ``matrix``; ``columns`` (``column_entries`` of it) is
        computed when not given, and then only when some row where the
        target is 0 has at most two nonzeros."""
        open_rows = target == 0
        if columns is None:
            if not (open_rows & (np.count_nonzero(matrix, axis=1) <= 2)).any():
                return cls(matrix, target)
            columns = column_entries(matrix)
        state = _Elimination(columns, open_rows.tolist())
        rounds, merges = [], []
        while True:
            rows, cols = state.dead_ends()
            if rows:
                rounds.append((rows, cols))
                continue
            rows, js, ks, ms = state.doubletons()
            if not rows:
                break
            rounds.append((rows, ks))
            merges.append((np.array(js, dtype=np.intp), np.array(ks, dtype=np.intp), np.array(ms)))
        zero = [i for i, (kept, line, is_open) in enumerate(zip(state.row_kept, state.lines, state.open))
                if kept and is_open and not line]
        return cls(matrix, target, rounds, zero, state.columns, merges)

    def _entries(self, cols) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The entries of columns ``cols`` of the merged matrix, one column
        after another: their rows, their values and how many each has."""
        columns = [self.columns[j] for j in cols]
        lengths = [len(col) for col in columns]
        total = sum(lengths)
        at = np.fromiter(chain.from_iterable(columns), np.intp, total)
        values = np.fromiter(chain.from_iterable([col.values() for col in columns]), float, total)
        return at, values, lengths

    @cached_property
    def _pivots(self):
        """The pivots in the order of D: their rows and columns, the entries
        of their columns (rows, values, and the pivot each belongs to), the
        pivot entries, and per round the (first pivot, end, first entry, end)
        spans."""
        rows = np.concatenate([r for r, _ in self.rounds])
        cols = np.concatenate([c for _, c in self.rounds])
        at, values, lengths = self._entries(cols.tolist())
        owner = np.repeat(np.arange(cols.size), lengths)  # entry -> its pivot, in order
        pivot = values[at == rows[owner]]
        starts = np.cumsum([0] + lengths).tolist()  # pivot -> its first entry
        ends = np.cumsum([0] + [len(c) for _, c in self.rounds]).tolist()
        spans = [(a, b, starts[a], starts[b]) for a, b in zip(ends, ends[1:])]
        return rows, cols, at, values, owner, pivot, np.array(starts), spans

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
        rows, cols, at, values, owner, pivot, starts, spans = self._pivots
        size, pivot = np.abs(values), np.abs(pivot)
        xi = float(np.sqrt(np.bincount(owner, size).max()) * np.sqrt(np.bincount(at, size).max()))
        dim = self.matrix.shape[0]
        y, pushed = np.empty(cols.size), np.zeros(dim)  # M y = 1, forward
        for a, b, e, f in spans:
            y[a:b] = (1.0 + pushed[rows[a:b]]) / pivot[a:b]
            pushed += np.bincount(at[e:f], size[e:f] * y[owner[e:f]], dim)
        z = np.zeros(dim)  # M^T z = 1, backward
        for a, b, e, f in reversed(spans):
            z[rows[a:b]] = (1.0 + np.bincount(owner[e:f] - a, size[e:f] * z[at[e:f]], b - a)) / pivot[a:b]
        kappa = float(np.sqrt(y.max()) * np.sqrt(z.max()))
        grow = shrink = 1.0
        if self.merges:
            down, up, into = np.ones(self.cols.size), np.ones(self.cols.size), np.zeros(self.cols.size)
            for js, ks, ms in reversed(self.merges):
                down[ks] = 1.0 + np.abs(ms) * down[js]
            for js, ks, ms in self.merges:
                np.add.at(up, js, np.abs(ms) * up[ks])
                np.add.at(into, js, np.abs(ms))
            grow, shrink = float(np.sqrt(down.max()) * np.sqrt(up.max())), 1.0 + float(np.sqrt(into.max()))
        sigma, r = dec.sigma, dec.rank
        s_1 = sigma[0] if sigma.size else 0.0
        s_r, s_next = (sigma[r - 1] if r else np.inf), (sigma[r] if r < sigma.size else 0.0)
        cutoff = tol * shrink * np.hypot(s_1, xi)
        floor = 1.0 / (grow * (1.0 / s_r + kappa * (1.0 + xi / s_r))) - shrink * s_next
        if not floor > cutoff or grow * shrink * s_next > tol * s_1:
            return False
        norm = np.linalg.norm(self.whole)
        bound, shift = tol * norm, norm * shrink * s_next / floor
        if resid <= tol * np.linalg.norm(self.target):  # the block accepts
            return resid + shift <= bound
        return resid / np.hypot(1.0, xi * kappa) - shift > bound

    def extend(self, basis: np.ndarray) -> np.ndarray:
        """An orthonormal basis of the complement of the span of ``matrix``,
        from ``basis``, one of the complement of the kept block's span on the
        kept rows.  The zero rows add their unit vectors.  Sweeping the
        rounds from last to first, each pivot column's orthogonality fixes
        the basis at its pivot row, one division per pivot over the column's
        nonzeros; a thin QR makes the result orthonormal again."""
        if self.block is self.matrix:
            return basis
        full = np.zeros((self.matrix.shape[0], basis.shape[1] + len(self.zero)))
        full[self.rows, : basis.shape[1]] = basis
        full[self.zero, basis.shape[1] :] = np.eye(len(self.zero))
        if not self.rounds:
            return full
        rows, _, at, values, _, pivot, starts, spans = self._pivots
        for a, b, e, f in reversed(spans):
            sums = np.add.reduceat(values[e:f, None] * full[at[e:f]], starts[a:b] - e)
            full[rows[a:b]] = -sums / pivot[a:b, None]
        return np.linalg.qr(full)[0]

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


class LowLevelProgram:
    """Span program over ``num_vars`` Boolean variables.

    Every input vector is stored once, as a column of one read-only
    ``dim x N`` matrix (free vectors, then labeled ones), with the labeled
    vectors' variables and values in two integer arrays.  ``free`` and
    ``labeled`` accept any 1-D sequences, stacked into the store in one
    step; ``labeled`` entries may be ``LabeledVector``s or ``(vec, var, val)``
    tuples.  Read back, ``free[i]`` and ``labeled[i].vec`` are read-only views
    of the store's columns, made on first read.
    """

    def __init__(self, dim: int, num_vars: int, target, free=(), labeled=(), tol: float = DEFAULT_TOL):
        labels = [(lv.vec, lv.var, lv.val) if isinstance(lv, LabeledVector) else tuple(lv) for lv in labeled]
        self._adopt(dim, num_vars, target, [*free, *(vec for vec, _, _ in labels)], len(free),
                    [var for _, var, _ in labels], [val for _, _, val in labels], tol)

    @classmethod
    def from_store(cls, num_vars: int, target, store: np.ndarray, num_free: int, var, val,
                   tol: float = DEFAULT_TOL, pattern=None) -> "LowLevelProgram":
        """A program on a built ``dim x N`` store whose first ``num_free``
        columns are the free vectors; ``var``/``val`` label the rest.  The
        arrays are adopted, not copied, and made read-only.  ``pattern``, when
        given, is ``column_rows(store)`` as its builder recorded it."""
        prog = cls.__new__(cls)
        prog._adopt(store.shape[0], num_vars, target, store, num_free, var, val, tol)
        if pattern is not None:
            vars(prog)["_pattern"] = pattern
        return prog

    def _adopt(self, dim, num_vars, target, columns, num_free, var, val, tol):
        """The one check of a program, on its store as a whole; ``columns``
        is the store, or the list of vectors to stack into it.  Errors name
        the field as the JSON form does."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        target = _frozen(finite_vector(target, "target", dim))
        if not np.linalg.norm(target) > 0.0:
            raise ValueError("target vector must be nonzero")

        def name(j):
            return f"free[{j}]" if j < num_free else f"labeled[{j - num_free}].vec"

        store = columns if isinstance(columns, np.ndarray) else _stack(columns, dim, name)
        check_norm(store.T, lambda j, i: f"{name(j)}[{i}]")
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
        for a in (store, var, val):
            a.setflags(write=False)
        vars(self).update(dim=dim, num_vars=num_vars, target=target, tol=tol,
                          _columns=store, num_free=num_free, var=var, val=val)

    def __setattr__(self, name, value):
        raise AttributeError(f"LowLevelProgram is immutable; cannot set {name}")

    @cached_property
    def free(self) -> tuple[np.ndarray, ...]:
        return tuple(self._columns[:, j] for j in range(self.num_free))

    @cached_property
    def _pattern(self) -> list[list[int]]:
        """``column_rows`` of the store, unless its builder handed it over."""
        return column_rows(self._columns)

    @cached_property
    def _entries(self) -> list[dict[int, float]]:
        """``column_entries`` of the store, read by every peel."""
        return column_entries(self._columns, self._pattern)

    @cached_property
    def labeled(self) -> tuple[LabeledVector, ...]:
        nf = self.num_free
        return tuple(LabeledVector(self._columns[:, nf + i], var, val)
                     for i, (var, val) in enumerate(zip(self.var.tolist(), self.val.tolist())))

    # -- queries ---------------------------------------------------------

    def available_mask(self, x) -> np.ndarray:
        """Which columns of the store are available on input ``x``: the free
        vectors, and the labeled ones whose variable takes their value."""
        bits = np.array(normalize_bits(x, self.num_vars), dtype=np.intp)
        mask = np.ones(self._columns.shape[1], dtype=bool)
        mask[self.num_free :] = bits[self.var - 1] == self.val
        return mask

    def available_vectors(self, x) -> AvailableColumns:
        mask = self.available_mask(x)
        matrix = self._columns[:, mask]
        matrix.setflags(write=False)
        return AvailableColumns(matrix=matrix, mask=mask)

    def all_vectors(self) -> np.ndarray:
        """All input vectors (free then labeled) as columns of the read-only
        store; negative sizes are squared norms of this matrix transposed
        times the witness."""
        return self._columns

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
        they are when they have fewer than ``PEEL_MIN_CELLS`` entries.
        Complete left singular vectors are computed when the block has fewer
        columns than rows, so ``u[:, rank:]`` is an orthonormal basis of the
        complement of the block's span, which ``Peel.extend`` turns into the
        space negative witnesses live in; complete right ones when doubletons
        merged, so ``vt[rank:]`` spans the block's null space, which
        ``Peel.lift`` needs.  The thin factors are already complete otherwise.
        """
        avail = self.available_vectors(x)
        if avail.matrix.size < PEEL_MIN_CELLS:
            peel = Peel(avail.matrix, self.target)
        else:
            entries = self._entries
            peel = Peel.of(avail.matrix, self.target, [entries[j] for j in np.flatnonzero(avail.mask).tolist()])
        while True:
            rows, cols = peel.block.shape
            dec, resid, decision = in_span(peel.block, peel.target, tol,
                                           full_matrices=cols < rows or bool(peel.merges))
            if peel.stands(dec, float(np.linalg.norm(resid)), tol):
                return peel, dec, decision
            peel = Peel(avail.matrix, self.target)

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
        # Restrict to the orthogonal complement of the available span, then
        # minimize the quadratic over the hyperplane <w', t> = 1.
        nbasis = peel.extend(dec.u[:, dec.rank :])
        c = nbasis.T @ self.target
        b = self._columns.T @ nbasis
        size, y = min_quadratic_on_hyperplane(b, c, tol)
        return WitnessReport(decision=0, size=float(size), witness=nbasis @ y)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        nf = self.num_free
        return {
            "dim": self.dim,
            "num_vars": self.num_vars,
            "target": self.target.tolist(),
            "free": self._columns[:, :nf].T.tolist(),
            "labeled": [
                {"vec": vec, "var": var, "val": val}
                for vec, var, val in zip(self._columns[:, nf:].T.tolist(), self.var.tolist(), self.val.tolist())
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


def wsize_over_domain(program: LowLevelProgram, domain, tol: float | None = None) -> DomainWitnessSizes:
    """Witness sizes over ``domain``, an iterable of bit strings."""
    inputs = (normalize_bits(x, program.num_vars) for x in domain)
    return fold_witness_sizes(("".join(map(str, bits)), program.witness(bits, tol)) for bits in inputs)
