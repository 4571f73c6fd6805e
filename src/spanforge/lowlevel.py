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
    except (TypeError, ValueError):
        rows = None
    if rows is None or rows.shape != (len(vectors), dim):
        rows = np.array([finite_vector(vec, name(j), dim) for j, vec in enumerate(vectors)])
    rows.setflags(write=False)
    return rows.T


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
    columns: AvailableColumns | None = None


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

    def _decide(self, x, tol: float) -> tuple[AvailableColumns, SvdResult, int]:
        """Available columns of ``x``, their SVD and the decision.

        Complete left singular vectors are computed when there are fewer
        columns than ``dim`` (the thin ones are already complete otherwise),
        so ``u[:, rank:]`` is an orthonormal basis of the complement of the
        available span, the space negative witnesses live in.
        """
        avail = self.available_vectors(x)
        dec, _, decision = in_span(avail.matrix, self.target, tol, full_matrices=avail.matrix.shape[1] < self.dim)
        return avail, dec, decision

    def _solve(self, x, tol: float | None, side: int | None) -> WitnessReport:
        """Decide ``x`` and build the witness of ``side`` (None: the side the
        decision gives) from the decision's one SVD."""
        tol = self.tol if tol is None else tol
        avail, dec, decision = self._decide(x, tol)
        if side == 1 and not decision:
            raise NoPositiveWitness(f"program rejects input {x!r}; no positive witness")
        if side == 0 and decision:
            raise NoNegativeWitness(f"program accepts input {x!r}; no negative witness")
        if decision:
            w = min_norm_solve(avail.matrix, self.target, tol, dec)
            return WitnessReport(decision=1, size=float(w @ w), witness=w, columns=avail)
        # Restrict to the orthogonal complement of the available span, then
        # minimize the quadratic over the hyperplane <w', t> = 1.
        nbasis = dec.u[:, dec.rank :]
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
