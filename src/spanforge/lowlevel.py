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
    cols, rows = np.nonzero(matrix.T != 0)
    bounds = np.searchsorted(cols, np.arange(matrix.shape[1] + 1)).tolist()
    rows = rows.tolist()
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def normalize_bits(x, num_vars: int) -> tuple[int, ...]:
    """Accept '101', b'101', or an int sequence; validate length and values."""
    if isinstance(x, (bytes, bytearray)):
        x = x.decode("ascii")
    if isinstance(x, str):
        bits = tuple(int(ch) for ch in x)
    else:
        bits = tuple(int(v) for v in x)
    if len(bits) != num_vars:
        raise ValueError(f"input has {len(bits)} bits but the program has {num_vars} variables")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"input bits must be 0/1, got {bits}")
    return bits


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
    """Available vectors for one input, with per-column provenance.

    ``mask`` selects the available columns of the program's store (free
    vectors first, then labeled ones); ``num_free`` is the number of free
    vectors.  ``provenance[k]`` is ("free", i) or ("labeled", i) giving the
    index of column k in the program's free / labeled lists.
    """

    matrix: np.ndarray
    mask: np.ndarray
    num_free: int

    @property
    def provenance(self) -> tuple[tuple[str, int], ...]:
        nf = self.num_free
        return tuple(
            ("free", int(j)) if j < nf else ("labeled", int(j - nf)) for j in np.flatnonzero(self.mask)
        )


@dataclass(frozen=True)
class WitnessReport:
    decision: int
    size: float
    witness: np.ndarray


# Available matrices with fewer entries are factored without a peel: there
# one SVD costs less than the peel's bookkeeping (on compiled sparse
# programs, a peeled decision breaks even near 60 x 50 and 84 x 77).
PEEL_MIN_CELLS = 4096


class _Side:
    """One side of a peel's nonzero pattern: ``lines[i]`` lists the entries
    of line i (the columns of a row, or the rows of a column), with which
    lines are kept, how many kept entries each has, and which lines lost one
    since their side last took pivots."""

    def __init__(self, lines: list[list[int]]):
        self.lines, self.kept = lines, [True] * len(lines)
        self.degree = [len(entries) for entries in lines]
        self.touched = set(range(len(lines)))

    def pivots(self, other: "_Side", eligible=None) -> tuple[list[int], list[int]]:
        """One round of degree-1 pivots: every touched kept line with exactly
        one kept entry (and ``eligible``, when given) pairs with that entry,
        unless an earlier line of the round took it, and both are dropped.
        Returns the pivot lines and their entries."""
        pivots = {}  # entry -> its line
        for i in sorted(self.touched):
            if self.kept[i] and self.degree[i] == 1 and (eligible is None or eligible[i]):
                pivots.setdefault(next(j for j in self.lines[i] if other.kept[j]), i)
        self.touched = set()
        for j, i in pivots.items():
            self.kept[i] = other.kept[j] = False
            for k in other.lines[j]:
                self.degree[k] -= 1
            for k in self.lines[i]:
                other.degree[k] -= 1
            self.touched.update(other.lines[j])
            other.touched.update(self.lines[i])
        return list(pivots.values()), list(pivots)


class Peel:
    """The degree-1 coordinates of one input, removed before factoring.

    ``Peel.of`` runs degree-1 elimination on the nonzero pattern of the
    available columns ``matrix`` (Davis, *Direct Methods for Sparse Linear
    Systems*, SIAM 2006), in rounds until nothing changes.  Its pivots come
    in two kinds, one the transpose of the other:

    - a dead end: a kept row where ``target`` is 0 and exactly one kept
      column is nonzero, paired with that column;
    - a singleton: a kept column with exactly one nonzero among the kept
      rows (a column singleton of LP presolve; Andersen and Andersen,
      *Math. Programming* 71, 1995), paired with that row.

    A round of each kind takes every such line, pairs it with its one entry
    unless an earlier line of the round took it, and drops both; the kinds
    alternate.  The kept rows where the target is 0 and no kept column is
    nonzero go last (``zero``).  ``rounds`` and ``singletons`` list the
    pivots of each round of either kind as (rows, cols) index lists,
    ``pattern[j]`` the rows where column j is nonzero (``column_rows``),
    ``rows`` and ``cols`` mask what is kept, and ``block`` and ``target`` are
    what is factored: ``matrix`` and ``target`` themselves when nothing peels.
    ``whole`` is the target on every row.

    The peel is exact.  Order the pivots as the dead ends in the order of
    their rounds, then the singletons in the reverse order: a dead-end row is
    zero on every column kept when it goes, and a singleton column on every
    row kept when it goes, so the pivot block D is lower triangular.  With
    the pivots first, ``matrix = [[D, E], [F, K]]``, where E is zero on the
    dead-end rows and F on the singleton columns, so ``F D^-1 E = 0`` and the
    kept block K (with its zero rows) is exactly the Schur complement.  The
    target is 0 on the dead-end rows, so ``F D^-1 t_P = 0`` and ``t`` lies in
    the span of ``matrix`` exactly when ``t_K`` lies in the span of K.  The
    complement of that span is null(K^T) (the zero rows' unit vectors
    included), 0 on singleton rows and fixed on dead-end rows by their pivot
    columns (``extend``).  Every solution of ``matrix @ w = t`` is 0 on the
    dead-end columns and fixed on the singleton columns by their rows; the
    null space of ``matrix`` is null(K) extended by ``-D^-1 E`` (``lift``).
    Whether the block also keeps the tolerance decision of one SVD of
    ``matrix`` is checked after it is factored (``stands``).
    """

    def __init__(self, matrix: np.ndarray, target: np.ndarray, rounds=(), singletons=(), zero=(), pattern=()):
        self.matrix, self.whole, self.pattern = matrix, target, pattern
        self.rounds, self.singletons, self.zero = tuple(rounds), tuple(singletons), list(zero)
        self.rows, self.cols = np.ones(matrix.shape[0], dtype=bool), np.ones(matrix.shape[1], dtype=bool)
        for rows, cols in self.rounds + self.singletons:
            self.rows[rows] = self.cols[cols] = False
        self.rows[self.zero] = False
        if self.rows.all() and self.cols.all():
            self.block, self.target = matrix, target
        else:
            self.block, self.target = matrix[np.ix_(self.rows, self.cols)], target[self.rows]

    @classmethod
    def of(cls, matrix: np.ndarray, target: np.ndarray, pattern=None) -> "Peel":
        """The peel of ``matrix``; ``pattern`` is computed from it when not
        given.  Unless some column has exactly one nonzero or some row where
        the target is 0 has at most one, nothing is read in Python."""
        open_rows = target == 0
        degrees = np.count_nonzero(matrix, axis=0) if pattern is None else [len(rows) for rows in pattern]
        if 1 not in degrees and not (open_rows & (np.count_nonzero(matrix, axis=1) <= 1)).any():
            return cls(matrix, target)
        pattern = column_rows(matrix) if pattern is None else pattern
        row_cols = [[] for _ in range(matrix.shape[0])]
        for j, col in enumerate(pattern):
            for i in col:
                row_cols[i].append(j)
        rows, cols, open_rows = _Side(row_cols), _Side(pattern), open_rows.tolist()
        rounds, singletons = [], []
        while rows.touched or cols.touched:
            dead_rows, dead_cols = rows.pivots(cols, open_rows)
            if dead_rows:
                rounds.append((dead_rows, dead_cols))
            single_cols, single_rows = cols.pivots(rows)
            if single_cols:
                singletons.append((single_rows, single_cols))
        zero = [i for i, (kept, degree, is_open) in enumerate(zip(rows.kept, rows.degree, open_rows))
                if kept and is_open and not degree]
        return cls(matrix, target, rounds, singletons, zero, pattern)

    def stands(self, dec: SvdResult, resid: float, tol: float) -> bool:
        """Whether one SVD of ``matrix`` would decide as the block did, with
        ``dec`` the block's SVD and ``resid`` its residual norm.

        That SVD counts rank against ``tol`` times its largest singular value,
        which is at most ``sqrt(s_1^2 + xi^2 + eta^2)``: ``s_1`` is the
        block's, ``xi`` bounds the norm of the pivot columns and ``eta`` that
        of E (the singleton rows on the kept columns), each by
        ``sqrt(|.|_1 |.|_inf)``.  In the order of the class docstring the
        pivot block D is lower triangular, so |D^-1| <= M^-1 entrywise for its
        comparison matrix M (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2nd ed., 2002, ch. 8), and one sweep each way bounds
        ``|D^-1|`` by ``kappa``.  With K_r the block's rank-r part,
        ``[[D, E], [F, K_r]]`` has rank r + q for q pivots and a generalized
        inverse of norm at most ``1/s_r + kappa (1 + (xi + eta + kappa xi
        eta)/s_r)``, and it differs from ``matrix`` by the largest singular
        value ``s_{r+1}`` that the block's rank leaves out.  So the r + q
        singular values of ``matrix`` it carries are at least ``floor``, the
        reciprocal of that norm minus ``s_{r+1}``.  The peel stands when
        ``floor`` clears the cutoff, and the residual stays on its side of
        ``tol |t|`` (``t`` the whole target) both when the pivot columns pull
        it down to ``resid / hypot(1, xi kappa)`` and when the left-out part
        moves it by ``|t| s_{r+1} / floor``.
        """
        order = [*self.rounds, *reversed(self.singletons)]
        if not order:  # zero rows alone move neither the span nor the residual
            return True
        rows = np.concatenate([r for r, _ in order])
        cols = np.concatenate([c for _, c in order])
        lengths = [len(self.pattern[j]) for j in cols.tolist()]
        at = np.fromiter(chain.from_iterable(self.pattern[j] for j in cols.tolist()), np.intp, sum(lengths))
        owner = np.repeat(np.arange(cols.size), lengths)  # entry -> its pivot, in order
        size, pivot = np.abs(self.matrix[at, cols[owner]]), np.abs(self.matrix[rows, cols])
        xi = float(np.sqrt(np.bincount(owner, size).max() * np.bincount(at, size).max()))
        starts = np.cumsum([0] + lengths).tolist()  # pivot -> its first entry
        ends = np.cumsum([0] + [len(c) for _, c in order]).tolist()
        edge = np.abs(self.matrix[np.ix_(rows[ends[len(self.rounds)] :], self.cols)])  # E on the singleton rows
        eta = float(np.sqrt(edge.sum(0).max() * edge.sum(1).max())) if edge.size else 0.0
        spans = [(a, b, starts[a], starts[b]) for a, b in zip(ends, ends[1:])]  # pivots and entries of each round
        dim = self.matrix.shape[0]
        y, pushed = np.empty(cols.size), np.zeros(dim)  # M y = 1, forward
        for a, b, e, f in spans:
            y[a:b] = (1.0 + pushed[rows[a:b]]) / pivot[a:b]
            pushed += np.bincount(at[e:f], size[e:f] * y[owner[e:f]], dim)
        z = np.zeros(dim)  # M^T z = 1, backward
        for a, b, e, f in reversed(spans):
            z[rows[a:b]] = (1.0 + np.bincount(owner[e:f] - a, size[e:f] * z[at[e:f]], b - a)) / pivot[a:b]
        kappa = float(np.sqrt(y.max() * z.max()))
        sigma, r = dec.sigma, dec.rank
        s_r, s_next = (sigma[r - 1] if r else np.inf), (sigma[r] if r < sigma.size else 0.0)
        cutoff = tol * np.sqrt((sigma[0] if sigma.size else 0.0) ** 2 + xi**2 + eta**2)
        floor = 1.0 / (1.0 / s_r + kappa * (1.0 + (xi + eta + kappa * xi * eta) / s_r)) - s_next
        if not floor > cutoff:
            return False
        norm = np.linalg.norm(self.whole)
        bound, shift = tol * norm, norm * s_next / floor
        if resid <= tol * np.linalg.norm(self.target):  # the block accepts
            return resid + shift <= bound
        return resid / np.hypot(1.0, xi * kappa) - shift > bound

    def extend(self, basis: np.ndarray) -> np.ndarray:
        """An orthonormal basis of the complement of the span of ``matrix``,
        from ``basis``, one of the complement of the kept block's span on the
        kept rows.  The zero rows add their unit vectors and the singleton
        rows stay 0.  Sweeping the dead-end rounds from last to first, each
        pivot column's orthogonality fixes the basis at its pivot row, one
        division per pivot; a thin QR makes the result orthonormal again."""
        if self.block is self.matrix:
            return basis
        full = np.zeros((self.matrix.shape[0], basis.shape[1] + len(self.zero)))
        full[self.rows, : basis.shape[1]] = basis
        full[self.zero, basis.shape[1] :] = np.eye(len(self.zero))
        for rows, cols in reversed(self.rounds):
            full[rows] = -(self.matrix[:, cols].T @ full) / self.matrix[rows, cols][:, None]
        return np.linalg.qr(full)[0] if self.rounds else full

    def lift(self, w: np.ndarray, null: np.ndarray) -> np.ndarray:
        """The minimum-norm solution of ``matrix @ x = whole`` on the rank
        the block kept, from ``w``, the block's, and ``null``, an orthonormal
        basis of the block's null space: the mirror of ``extend``.  Dead-end
        columns are 0.  Sweeping the singleton rounds from last to first,
        each singleton row fixes its pivot column, one division per pivot,
        in ``w`` and in ``null``, which then spans the null space of
        ``[[D, E], [F, K_r]]``; a thin QR of it and one projection leave the
        solution of least norm."""
        if not self.singletons:
            x = np.zeros(self.cols.size)
            x[self.cols] = w
            return x
        both = np.zeros((self.cols.size, 1 + null.shape[1]))
        both[self.cols, 0], both[self.cols, 1:] = w, null
        live = self.cols.copy()  # all but the dead-end columns
        for rows, cols in reversed(self.singletons):
            step = self.matrix[rows] @ both
            step[:, 0] -= self.whole[rows]
            both[cols] = -step / self.matrix[rows, cols][:, None]
            live[cols] = True
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
                   tol: float = DEFAULT_TOL) -> "LowLevelProgram":
        """A program on a built ``dim x N`` store whose first ``num_free``
        columns are the free vectors; ``var``/``val`` label the rest.  The
        arrays are adopted, not copied, and made read-only."""
        prog = cls.__new__(cls)
        prog._adopt(store.shape[0], num_vars, target, store, num_free, var, val, tol)
        return prog

    def _adopt(self, dim, num_vars, target, columns, num_free, var, val, tol, prefix=""):
        """The one check of a program, on its store as a whole; ``columns``
        is the store, or the list of vectors to stack into it.  Errors name
        the field as the JSON form does, with ``prefix`` in front."""
        if dim < 1:
            raise ValueError(f"{prefix}dim must be >= 1, got {dim}")
        if num_vars < 0:
            raise ValueError(f"{prefix}num_vars must be >= 0, got {num_vars}")
        target = _frozen(finite_vector(target, prefix + "target", dim))
        if not np.linalg.norm(target) > 0.0:
            raise ValueError(f"{prefix}target vector must be nonzero")

        def name(j):
            return f"{prefix}free[{j}]" if j < num_free else f"{prefix}labeled[{j - num_free}].vec"

        store = columns if isinstance(columns, np.ndarray) else _stack(columns, dim, name)
        finite = np.isfinite(store)
        if not finite.all():
            j, i = np.argwhere(~finite.T)[0]
            raise ValueError(f"{name(j)}[{i}] is not finite: {store[i, j]}")
        try:
            var, val = np.asarray(var, dtype=np.intp), np.asarray(val, dtype=np.intp)
        except OverflowError:  # past int64, so out of range: kept to be named below
            var, val = np.asarray(var, dtype=object), np.asarray(val, dtype=object)
        for key, labels, bad, why in (("var", var, (var < 1) | (var > num_vars), f"outside 1..{num_vars}"),
                                      ("val", val, (val != 0) & (val != 1), "must be 0 or 1")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{prefix}labeled[{i}].{key}={labels[i]} {why}")
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
        """``column_rows`` of the store, read by every peel."""
        return column_rows(self._columns)

    @cached_property
    def labeled(self) -> tuple[LabeledVector, ...]:
        nf = self.num_free
        return tuple(LabeledVector(self._columns[:, nf + i], var, val)
                     for i, (var, val) in enumerate(zip(self.var.tolist(), self.val.tolist())))

    # -- queries ---------------------------------------------------------

    def available_vectors(self, x) -> AvailableColumns:
        bits = np.array(normalize_bits(x, self.num_vars), dtype=np.intp)
        nf = self.num_free
        mask = np.ones(self._columns.shape[1], dtype=bool)
        mask[nf:] = bits[self.var - 1] == self.val
        matrix = self._columns[:, mask]
        matrix.setflags(write=False)
        return AvailableColumns(matrix=matrix, mask=mask, num_free=nf)

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

        The peel drops the degree-1 coordinates; only the kept block is
        factored, and both witness sides come from its one SVD.  Unless the
        peel stands (the block decides as one SVD of all available columns
        would), the available columns are factored whole instead, as they are
        when they have fewer than ``PEEL_MIN_CELLS`` entries.  Complete left
        singular vectors are computed when the block has fewer columns than
        rows, so ``u[:, rank:]`` is an orthonormal basis of the complement of
        the block's span, which ``Peel.extend`` turns into the space negative
        witnesses live in; complete right ones when singletons peeled, so
        ``vt[rank:]`` spans the block's null space, which ``Peel.lift``
        needs.  The thin factors are already complete otherwise.
        """
        avail = self.available_vectors(x)
        if avail.matrix.size < PEEL_MIN_CELLS:
            peel = Peel(avail.matrix, self.target)
        else:
            pattern = self._pattern
            peel = Peel.of(avail.matrix, self.target, [pattern[j] for j in np.flatnonzero(avail.mask).tolist()])
        while True:
            rows, cols = peel.block.shape
            dec, resid, decision = in_span(peel.block, peel.target, tol,
                                           full_matrices=cols < rows or bool(peel.singletons))
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
    def from_json_dict(cls, data: dict, prefix: str = "") -> "LowLevelProgram":
        """Vectors go from the parsed lists straight into the store, without
        intermediate per-vector arrays; errors name the field with ``prefix``
        in front."""
        if not isinstance(data, dict):
            raise ValueError(f"{prefix.rstrip('.') or 'program JSON'} must be an object")
        for key in ("dim", "num_vars", "target"):
            if key not in data:
                raise ValueError(f"program JSON is missing field '{prefix}{key}'")
        free = data.get("free", [])
        entries = data.get("labeled", [])
        for key, value in (("free", free), ("labeled", entries)):
            if not isinstance(value, list):
                raise ValueError(f"program JSON field '{prefix}{key}' must be a list")
        vectors, var, val = list(free), [], []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"{prefix}labeled[{i}] must be an object with fields 'vec', 'var' and 'val'")
            for key in ("vec", "var", "val"):
                if key not in entry:
                    raise ValueError(f"{prefix}labeled[{i}] is missing field '{key}'")
            vectors.append(entry["vec"])
            var.append(int_field(entry["var"], f"{prefix}labeled[{i}].var"))
            val.append(int_field(entry["val"], f"{prefix}labeled[{i}].val"))
        prog = cls.__new__(cls)
        prog._adopt(int_field(data["dim"], prefix + "dim"), int_field(data["num_vars"], prefix + "num_vars"),
                    data["target"], vectors, len(free), var, val,
                    tol_field(data.get("tol", DEFAULT_TOL), prefix + "tol"), prefix)
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
