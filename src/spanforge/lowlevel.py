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


class Peel:
    """The dead-end coordinates of one input, removed before factoring.

    ``Peel.of`` runs degree-1 elimination on the nonzero pattern of the
    available columns ``matrix`` (Davis, *Direct Methods for Sparse Linear
    Systems*, SIAM 2006), repeated in rounds until nothing changes: each
    round takes every kept row where ``target`` is 0 and exactly one kept
    column is nonzero, pairs each such column with the first of those rows
    (its pivot) and drops both.  ``rounds`` lists the pivots of each round as
    (rows, cols) index lists, ``pattern[j]`` the rows where column j is
    nonzero (``column_rows``), ``rows`` and ``cols`` mask what is kept, and
    ``block`` and ``target`` are what is factored: ``matrix`` and ``target``
    themselves when nothing peels.

    The peel is exact.  A pivot row is zero on the kept columns and on the
    pivot columns of its own and later rounds, except its own pivot.  So
    every solution of ``matrix @ w = target`` is 0 on the pivot columns and
    solves the kept block on the rest; and a vector orthogonal to every
    available column is fixed on the pivot rows by its kept rows
    (``extend``).  Whether the block also keeps the tolerance decision of
    one SVD of ``matrix`` is checked after it is factored (``stands``).
    """

    def __init__(self, matrix: np.ndarray, target: np.ndarray, rounds=(), pattern=()):
        self.matrix, self.rounds, self.pattern = matrix, tuple(rounds), pattern
        self.rows, self.cols = np.ones(matrix.shape[0], dtype=bool), np.ones(matrix.shape[1], dtype=bool)
        for rows, cols in self.rounds:
            self.rows[rows] = self.cols[cols] = False
        self.block, self.target = (matrix[:, self.cols][self.rows], target[self.rows]) if rounds else (matrix, target)

    @classmethod
    def of(cls, matrix: np.ndarray, target: np.ndarray, pattern=None) -> "Peel":
        """The peel of ``matrix``; ``pattern`` is computed from it when not
        given.  Unless some row is a dead end, nothing is read in Python."""
        open_rows = target == 0  # kept rows where the target is 0
        if not (open_rows & (np.count_nonzero(matrix, axis=1) == 1)).any():
            return cls(matrix, target)
        pattern = column_rows(matrix) if pattern is None else pattern
        row_cols = [[] for _ in range(matrix.shape[0])]
        for j, col in enumerate(pattern):
            for i in col:
                row_cols[i].append(j)
        degree, open_rows, cols = [len(js) for js in row_cols], open_rows.tolist(), [True] * matrix.shape[1]
        dead = [i for i, d in enumerate(degree) if d == 1 and open_rows[i]]
        rounds = []
        while dead:
            pivots = {}  # column -> its pivot row
            for i in dead:
                pivots.setdefault(next(j for j in row_cols[i] if cols[j]), i)
            touched = set()
            for j, i in pivots.items():
                cols[j] = open_rows[i] = False
                touched.update(pattern[j])
                for k in pattern[j]:
                    degree[k] -= 1
            rounds.append((list(pivots.values()), list(pivots)))
            dead = sorted(i for i in touched if degree[i] == 1 and open_rows[i])
        return cls(matrix, target, rounds, pattern)

    def stands(self, dec: SvdResult, resid: float, tol: float) -> bool:
        """Whether one SVD of ``matrix`` would decide as the block did, with
        ``dec`` the block's SVD and ``resid`` its residual norm.

        That SVD counts rank against ``tol`` times its largest singular value,
        which is at most ``hypot(s_1, xi)``: ``s_1`` is the block's and ``xi``
        bounds the norm of the dropped columns by ``sqrt(|.|_1 |.|_inf)``.  In
        the order of the rounds the pivot block D (pivot rows by pivot
        columns) is lower triangular, so |D^-1| <= M^-1 entrywise for its
        comparison matrix M (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2nd ed., 2002, ch. 8), and one sweep over the rounds each
        way bounds ``|D^-1|`` by ``kappa``.  The r + q singular values of
        ``matrix`` that the block's rank-r part and the q pivots carry are at
        least ``floor = 1 / (1/s_r + kappa (1 + xi/s_r)) - s_{r+1}``, where
        ``s_{r+1}`` is the largest singular value the block's rank leaves
        out.  The peel stands when ``floor`` clears the cutoff (``s_r`` then
        clears it too), and the residual stays on its side of ``tol |t|``
        both when the pivot columns pull it down to ``resid / hypot(1, xi
        kappa)`` and when the left-out part moves it by ``|t| s_{r+1} /
        floor``.
        """
        if not self.rounds:
            return True
        rows = np.concatenate([r for r, _ in self.rounds])
        cols = np.concatenate([c for _, c in self.rounds])
        lengths = [len(self.pattern[j]) for j in cols.tolist()]
        at = np.fromiter(chain.from_iterable(self.pattern[j] for j in cols.tolist()), np.intp, sum(lengths))
        owner = np.repeat(np.arange(cols.size), lengths)  # entry -> its pivot, in round order
        size, pivot = np.abs(self.matrix[at, cols[owner]]), np.abs(self.matrix[rows, cols])
        xi = float(np.sqrt(np.bincount(owner, size).max() * np.bincount(at, size).max()))
        starts = np.cumsum([0] + lengths).tolist()  # pivot -> its first entry
        ends = np.cumsum([0] + [len(c) for _, c in self.rounds]).tolist()
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
        cutoff = tol * np.hypot(sigma[0] if sigma.size else 0.0, xi)
        floor = 1.0 / (1.0 / s_r + kappa * (1.0 + xi / s_r)) - s_next
        if floor <= cutoff:
            return False
        bound = tol * np.linalg.norm(self.target)
        shift = np.linalg.norm(self.target) * s_next / floor
        if resid <= bound:
            return resid + shift <= bound
        return resid / np.hypot(1.0, xi * kappa) - shift > bound

    def extend(self, basis: np.ndarray) -> np.ndarray:
        """An orthonormal basis of the complement of the span of ``matrix``,
        from ``basis``, one of the complement of the kept block's span on the
        kept rows.  Sweeping the rounds from last to first, each pivot
        column's orthogonality fixes the basis at its pivot row, one division
        per pivot; a thin QR makes the result orthonormal again."""
        if not self.rounds:
            return basis
        full = np.zeros((self.matrix.shape[0], basis.shape[1]))
        full[self.rows] = basis
        for rows, cols in reversed(self.rounds):
            full[rows] = -(self.matrix[:, cols].T @ full) / self.matrix[rows, cols][:, None]
        return np.linalg.qr(full)[0]


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

        The peel drops the dead-end coordinates; only the kept block is
        factored, and both witness sides come from its one SVD.  Unless the
        peel stands (the block decides as one SVD of all available columns
        would), the available columns are factored whole instead, as they are
        when they have fewer than ``PEEL_MIN_CELLS`` entries.  Complete left
        singular vectors are computed when the block has fewer columns than
        rows (the thin ones are already complete otherwise), so ``u[:, rank:]``
        is an orthonormal basis of the complement of the block's span, which
        ``Peel.extend`` turns into the space negative witnesses live in.
        """
        avail = self.available_vectors(x)
        if avail.matrix.size < PEEL_MIN_CELLS:
            peel = Peel(avail.matrix, self.target)
        else:
            pattern = self._pattern
            peel = Peel.of(avail.matrix, self.target, [pattern[j] for j in np.flatnonzero(avail.mask).tolist()])
        while True:
            rows, cols = peel.block.shape
            dec, resid, decision = in_span(peel.block, peel.target, tol, full_matrices=cols < rows)
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
            # pivot columns carry 0 in every positive witness
            w = np.zeros(peel.cols.size)
            w[peel.cols] = min_norm_solve(peel.block, peel.target, tol, dec)
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
