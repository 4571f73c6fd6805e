"""Compilation of high-level programs into Boolean-variable programs.

A compiled program queries only bits: fixed-point digits of matrix entries
plus, in the sparse modes, binary row/column indices.  Three modes:

* ``dense``       -- one vector-loading gadget per input column, digits only.
* ``sparse_cols`` -- per column, a small payload block plus routing trees that
                     steer each payload slot to its target row.
* ``sparse``      -- column payloads routed into per-column scratch spaces,
                     then per-row routing trees (driven by row adjacency
                     lists) move mass into the target space.

The vector-loading gadget for one payload slot uses working coordinates
f_a and labeled vectors b * 2^(-a/2) e - f_a per digit, plus one free vector
sum_a 2^(-a/2) f_a - sum e tying the digits together; the only combinations
that reach the target space load exactly the decoded values.  A routing tree
on n leaves is a truncated binary tree addressed little-endian by the index
bits; the available edges telescope to (selected leaf - root).  Trees with a
single leaf degenerate to one free connector vector.

One builder emits every mode, and the program it emits is a function of the
source program and the encoder parameters alone.  So a compiled file holds
just those, ``source`` and ``encoder``, and loading one runs the builder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .encoding import FixedPointCode, IntegerCode, check_precision, encode_int, encode_real, index_bit_width
from .errors import SparseFormatError
from .highlevel import HighLevelProgram, read_source, source_json, wsize_over_inputs
from .linalg import input_matrix, int_field
from .lowlevel import DomainWitnessSizes, LowLevelProgram, wsize_over_domain

MODES = ("dense", "sparse_cols", "sparse")


def _half_power(a: int) -> float:
    return 2.0 ** (-a / 2.0)


# ---------------------------------------------------------------------------
# allocation


class IndexAllocator:
    """Hands out contiguous 0-based index ranges in a stable order."""

    def __init__(self):
        self.next_free = 0

    def claim(self, size: int) -> range:
        self.next_free += size
        return range(self.next_free - size, self.next_free)


class ProgramBuilder:
    """Writes gadget vectors straight into the columns of a program's store,
    allocated up front from the (dim, num_vars, free, labeled) counts of the
    program to emit: free vectors first, then labeled ones."""

    def __init__(self, sizes: tuple[int, int, int, int]):
        dim, _, free, labeled = self.sizes = sizes
        self.coords = IndexAllocator()
        self.variables = IndexAllocator()
        self.target = np.zeros(dim)
        self.store = np.zeros((dim, free + labeled), order="F")
        self.var = np.zeros(labeled, dtype=np.intp)
        self.val = np.zeros(labeled, dtype=np.intp)
        self.pattern = [[] for _ in range(free + labeled)]  # column -> its nonzero rows
        self.num_free = self.num_labeled = 0

    def _write(self, j: int, entries: dict[int, float]) -> None:
        for c, x in entries.items():
            self.store[c, j] = x
        self.pattern[j] = sorted(c for c, x in entries.items() if x)

    def add_free(self, entries: dict[int, float]) -> int:
        self._write(self.num_free, entries)
        self.num_free += 1
        return self.num_free - 1

    def add_labeled(self, entries: dict[int, float], var0: int, val: int) -> int:
        i = self.num_labeled
        self._write(self.sizes[2] + i, entries)
        self.var[i], self.val[i] = var0 + 1, val
        self.num_labeled += 1
        return i

    def build(self, tol: float) -> LowLevelProgram:
        emitted = (self.coords.next_free, self.variables.next_free, self.num_free, self.num_labeled)
        if emitted != self.sizes:
            raise RuntimeError(f"emitted (dim, num_vars, free, labeled) = {emitted}, the closed form gives {self.sizes}")
        return LowLevelProgram.from_store(self.sizes[1], self.target, self.store, self.num_free, self.var, self.val,
                                          tol, self.pattern)


# ---------------------------------------------------------------------------
# gadget records


@dataclass(frozen=True)
class LoaderRecord:
    """Vector-loading gadget: one payload slot per pivot coordinate."""

    name: str
    column: int  # 1-based input column this loader feeds
    pivots: tuple[int, ...]
    precision: int
    digit_vars: tuple[tuple[int, ...], ...]  # [slot][bit] -> 0-based var id
    working: tuple[tuple[int, ...], ...]  # [slot][bit] -> coordinate
    free_index: int
    labeled_start: int

    def digit_labeled_index(self, slot: int, a: int, b: int) -> int:
        return self.labeled_start + (slot * (self.precision + 1) + a) * 2 + b


@dataclass(frozen=True)
class RouteRecord:
    """Routing tree: index bits steer the root coordinate to one leaf.

    role="col" routes payload slot ``slot`` of column ``owner``; role="row"
    is the reversed direction, list position ``slot`` of row ``owner``
    (mass flows from the selected leaf into the root).
    """

    name: str
    role: str  # "col" | "row"
    owner: int  # 1-based column (col routes) or row (row routes)
    slot: int  # 1-based payload slot / list position
    root: int
    leaves: tuple[int, ...]
    bit_vars: tuple[int, ...]
    interior: tuple[tuple[int, int, int], ...]  # (level, index, coord)
    edges: tuple[tuple[int, int, int, int], ...]  # (level, bit, index, labeled index)
    free_index: int | None  # single-leaf connector

    @property
    def width(self) -> int:
        return len(self.bit_vars)

    def reachable_leaf(self, a: int, l: int, selected: int) -> int | None:
        """Leaf index reached from node (a, l) along available edges, or None
        when the walk hits a truncated branch."""
        idx = l
        for level in range(a, self.width):
            idx = ((selected >> level) & 1) * (1 << level) + idx
            if idx >= len(self.leaves):
                return None
        return idx

    def path_edges(self, selected: int) -> list[tuple[int, int, int]]:
        """(level, bit, index) edges from the root to the selected leaf."""
        return [(a, (selected >> a) & 1, selected % (1 << a)) for a in range(self.width)]


def emit_vector_loading(
    builder: ProgramBuilder,
    name: str,
    column: int,
    pivots: tuple[int, ...],
    var_block: range,
    precision: int,
) -> LoaderRecord:
    """Emit digit vectors and the tying free vector for one loaded column."""
    slots = len(pivots)
    work = builder.coords.claim(slots * (precision + 1))
    digit_vars = []
    working = []
    labeled_start = builder.num_labeled
    free_entries: dict[int, float] = {}
    for i in range(slots):
        row_vars = []
        row_coords = []
        for a in range(precision + 1):
            var0 = var_block[i * (precision + 1) + a]
            coord = work[i * (precision + 1) + a]
            row_vars.append(var0)
            row_coords.append(coord)
            for b in (0, 1):
                entries = {coord: -1.0}
                if b:
                    entries[pivots[i]] = _half_power(a)
                builder.add_labeled(entries, var0, b)
            free_entries[coord] = _half_power(a)
        digit_vars.append(tuple(row_vars))
        working.append(tuple(row_coords))
    for p in pivots:
        free_entries[p] = free_entries.get(p, 0.0) - 1.0
    free_index = builder.add_free(free_entries)
    return LoaderRecord(
        name=name,
        column=column,
        pivots=tuple(pivots),
        precision=precision,
        digit_vars=tuple(digit_vars),
        working=tuple(working),
        free_index=free_index,
        labeled_start=labeled_start,
    )


def emit_route_tree(
    builder: ProgramBuilder,
    name: str,
    role: str,
    owner: int,
    slot: int,
    root: int,
    leaves: tuple[int, ...],
    var_block: range,
) -> RouteRecord:
    """Emit the truncated binary routing tree between root and leaves.

    Nodes at level a are kept when their index is below the leaf count, so
    every emitted branch leads to a real leaf.  A single leaf needs no bits:
    the route collapses to the free vector (leaf - root).
    """
    n_leaves = len(leaves)
    width = index_bit_width(n_leaves)
    if width == 0:
        free_index = builder.add_free({leaves[0]: 1.0, root: -1.0})
        return RouteRecord(
            name=name, role=role, owner=owner, slot=slot, root=root, leaves=tuple(leaves),
            bit_vars=(), interior=(), edges=(), free_index=free_index,
        )
    interior = []
    node_of: dict[tuple[int, int], int] = {(0, 0): root}
    for a in range(1, width):
        for l in range(min(1 << a, n_leaves)):
            coord = builder.coords.claim(1)[0]
            interior.append((a, l, coord))
            node_of[(a, l)] = coord
    for l in range(n_leaves):
        node_of[(width, l)] = leaves[l]
    edges = []
    for a in range(width):
        for l in range(min(1 << a, n_leaves)):
            for b in (0, 1):
                child = b * (1 << a) + l
                if child >= n_leaves:
                    continue
                entries = {node_of[(a + 1, child)]: 1.0, node_of[(a, l)]: -1.0}
                idx = builder.add_labeled(entries, var_block[a], b)
                edges.append((a, b, l, idx))
    return RouteRecord(
        name=name, role=role, owner=owner, slot=slot, root=root, leaves=tuple(leaves),
        bit_vars=tuple(var_block[a] for a in range(width)),
        interior=tuple(interior), edges=tuple(edges), free_index=None,
    )


# ---------------------------------------------------------------------------
# canonical sparse descriptions


def sparse_columns_from_dense(a: np.ndarray, k_nnz: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per-column (row, value) payload slots, padded with zero entries."""
    n, m = a.shape
    return validate_sparse_columns([[(i, a[i, j]) for i in np.flatnonzero(a[:, j])] for j in range(m)], n, m, k_nnz)


def row_lists_from_dense(a: np.ndarray, l_nnz: int) -> tuple[tuple[int, ...], ...]:
    """Per-row lists of column indices covering every nonzero, padded."""
    n, m = a.shape
    return validate_row_lists([np.flatnonzero(a[i, :]) for i in range(n)], n, m, l_nnz)


def validate_sparse_columns(entries, n: int, m: int, k_nnz: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    if len(entries) != m:
        raise SparseFormatError(f"expected {m} column payloads, got {len(entries)}")
    canon = []
    for j, slots in enumerate(entries):
        slots = [(int(r), float(v)) for r, v in slots]
        if len(slots) > k_nnz:
            raise SparseFormatError(f"column {j + 1} has {len(slots)} entries, the payload holds {k_nnz}")
        rows = [r for r, _ in slots]
        if len(set(rows)) != len(rows):
            raise SparseFormatError(f"column {j + 1} repeats a row index in its payload")
        for r, v in slots:
            if not 0 <= r < n:
                raise SparseFormatError(f"column {j + 1} addresses row {r}, outside [0, {n})")
            if not np.isfinite(v):
                raise SparseFormatError(f"column {j + 1} payload value at row {r} is not finite: {v}")
        for i in range(n):
            if len(slots) == k_nnz:
                break
            if i not in rows:
                slots.append((i, 0.0))
        slots.sort(key=lambda rv: rv[0])
        canon.append(tuple(slots))
    return tuple(canon)


def validate_row_lists(lists, n: int, m: int, l_nnz: int) -> tuple[tuple[int, ...], ...]:
    if len(lists) != n:
        raise SparseFormatError(f"expected {n} row lists, got {len(lists)}")
    canon = []
    for i, cols in enumerate(lists):
        cols = [int(c) for c in cols]
        if len(cols) > l_nnz:
            raise SparseFormatError(f"row {i + 1} lists {len(cols)} columns, the row list holds {l_nnz}")
        for c in cols:
            if not 0 <= c < m:
                raise SparseFormatError(f"row {i + 1} lists column {c}, outside [0, {m})")
        listed = set(cols)
        for j in range(m):
            if len(cols) == l_nnz:
                break
            if j not in listed:
                cols.append(j)
                listed.add(j)
        cols.sort()
        canon.append(tuple(cols))
    return tuple(canon)


# ---------------------------------------------------------------------------
# compiled program


@dataclass(frozen=True)
class CompiledLayout:
    mode: str  # "dense" | "sparse_cols" | "sparse"
    n: int
    m: int
    precision: int
    k_nnz: int | None
    l_nnz: int | None
    num_vars: int
    hl_free: tuple[int, ...]  # program free indices carrying the source free basis
    scratch: tuple[range, ...]  # W_j per column, sparse mode only
    loaders: tuple[LoaderRecord, ...]  # loaders[j - 1] feeds column j
    routes: tuple[RouteRecord, ...]  # column routes, then row routes by row


@dataclass(frozen=True)
class LiftedWitness:
    bits: tuple[int, ...]
    coefficients: np.ndarray | None  # positive side: per available column
    vector: np.ndarray | None  # negative side: point in the compiled space
    size: float


class CompiledProgram:
    """A low-level program plus the encoder bookkeeping that produced it."""

    def __init__(self, program: LowLevelProgram, layout: CompiledLayout):
        self.program = program
        self.layout = layout

    # -- encoding ------------------------------------------------------

    def _canonical(self, source):
        """Normalize an input to (col_entries, row_lists); dense matrices are
        converted, sparse descriptions validated and padded."""
        lay = self.layout
        if lay.mode == "dense":
            return input_matrix(source, (lay.n, lay.m)), None
        if isinstance(source, dict):
            if "columns" not in source:
                raise SparseFormatError("sparse input dict is missing field 'columns'")
            cols = validate_sparse_columns(source["columns"], lay.n, lay.m, lay.k_nnz)
            if lay.mode == "sparse":
                if "rows" not in source:
                    raise SparseFormatError("sparse mode needs a 'rows' adjacency list")
                rows = validate_row_lists(source["rows"], lay.n, lay.m, lay.l_nnz)
                _check_consistency(cols, rows)
            else:
                rows = None
            return cols, rows
        if _looks_dense(source):
            a = input_matrix(source, (lay.n, lay.m))
            cols = sparse_columns_from_dense(a, lay.k_nnz)
            rows = row_lists_from_dense(a, lay.l_nnz) if lay.mode == "sparse" else None
            return cols, rows
        if lay.mode == "sparse":
            raise SparseFormatError("sparse mode needs a 'rows' adjacency list alongside 'columns'")
        cols = validate_sparse_columns(source, lay.n, lay.m, lay.k_nnz)
        return cols, None

    def encode(self, source) -> tuple[int, ...]:
        """Bits for one input, positionally aligned with program variables."""
        lay = self.layout
        bits = [0] * lay.num_vars
        cols, rows = self._canonical(source)
        if lay.mode == "dense":
            for rec in lay.loaders:
                for i in range(lay.n):
                    code = encode_real(float(cols[i, rec.column - 1]), lay.precision)
                    for a, b in enumerate(code.bits):
                        bits[rec.digit_vars[i][a]] = b
            return tuple(bits)
        for rec in lay.loaders:
            for i, (_, value) in enumerate(cols[rec.column - 1]):
                code = encode_real(value, lay.precision)
                for a, b in enumerate(code.bits):
                    bits[rec.digit_vars[i][a]] = b
        for rec in lay.routes:
            if rec.role == "col":
                sel = cols[rec.owner - 1][rec.slot - 1][0]
            else:
                sel = rows[rec.owner - 1][rec.slot - 1]
            code = encode_int(sel, len(rec.leaves))
            for a, b in enumerate(code.bits):
                bits[rec.bit_vars[a]] = b
        return tuple(bits)

    def decode(self, bits) -> np.ndarray:
        """Matrix a compiled input stands for, honoring the routing semantics:
        a column whose nonzero payload cannot reach the target space (index
        out of range, or row list never mentioning it) contributes nothing."""
        lay = self.layout
        bits = tuple(int(b) for b in bits)
        if len(bits) != lay.num_vars:
            raise ValueError(f"expected {lay.num_vars} bits, got {len(bits)}")
        out = np.zeros((lay.n, lay.m))
        if lay.mode == "dense":
            for rec in lay.loaders:
                for i in range(lay.n):
                    out[i, rec.column - 1] = _read_real(bits, rec.digit_vars[i], lay.precision)
            return out
        listed = [set() for _ in range(lay.n)] if lay.mode == "sparse" else None
        for rec in lay.routes:
            if rec.role == "row" and (sel := _read_index(bits, rec)) < len(rec.leaves):
                listed[rec.owner - 1].add(sel)
        route_of = {(r.owner, r.slot): r for r in lay.routes if r.role == "col"}
        for rec in lay.loaders:
            j = rec.column
            slots = []
            usable = True
            for i in range(lay.k_nnz):
                value = _read_real(bits, rec.digit_vars[i], lay.precision)
                sel = _read_index(bits, route_of[(j, i + 1)])
                # a nonzero routed out of range, or into an unlisted row
                if value != 0.0 and (sel >= lay.n or listed is not None and (j - 1) not in listed[sel]):
                    usable = False
                    break
                slots.append((sel, value))
            if usable:
                for sel, value in slots:
                    if sel < lay.n:
                        out[sel, j - 1] += value
        return out

    def quantize(self, source) -> np.ndarray:
        return self.decode(self.encode(source))

    # -- embedded source program data: V is the first n coordinates ----

    def source_target(self) -> np.ndarray:
        return self.program.target[: self.layout.n]

    def source_free_basis(self) -> np.ndarray:
        # the source free vectors are the program's first free vectors
        return np.ascontiguousarray(self.program.all_vectors()[: self.layout.n, : len(self.layout.hl_free)])

    # -- witness lifting ------------------------------------------------

    def _lift_inputs(self, source, w, side: int):
        """Bits of ``source``, its canonical columns and rows, the matrix the
        bits stand for, and the high-level witness ``w`` of ``side``, solved
        for on that matrix when None."""
        lay = self.layout
        bits = self.encode(source)
        aq = self.decode(bits)
        if w is None:
            hl = HighLevelProgram(space_dim=lay.n, num_inputs=lay.m, target=self.source_target(),
                                  free_basis=self.source_free_basis(), tol=self.program.tol)
            w = (hl.positive_witness if side else hl.negative_witness)(aq).witness
        return (bits, *self._canonical(source), aq, np.asarray(w, dtype=float))

    def lift_positive(self, source, w: np.ndarray | None = None) -> LiftedWitness:
        """Turn a high-level positive witness into compiled coefficients.

        Digit vectors of loader j carry gamma_j * 2^(-a/2), its free vector
        gamma_j, each routing edge on a selected path the routed mass, and
        the carried free-basis columns the residual coefficients.
        """
        lay = self.layout
        bits, cols, rows, aq, w = self._lift_inputs(source, w, side=1)
        t, fbasis = self.source_target(), self.source_free_basis()
        resid = t - aq @ w
        phi = fbasis.T @ resid
        if np.linalg.norm(resid - fbasis @ phi) > 1e-6 * (1.0 + np.linalg.norm(t)):
            raise ValueError("w is not a valid positive witness for the quantized input")
        # coefficients of every column of the store, written gadget by gadget;
        # the available ones are kept
        mask, nf = self.program.available_mask(bits), self.program.num_free
        full = np.zeros(mask.size)
        full[list(lay.hl_free)] = phi
        for rec in lay.loaders:
            gamma = w[rec.column - 1]
            full[rec.free_index] = gamma
            scale = np.array([_half_power(a) for a in range(rec.precision + 1) for _ in (0, 1)] * len(rec.pivots))
            full[nf + rec.labeled_start : nf + rec.labeled_start + scale.size] = gamma * scale
        # mass arriving at each row-route root from its selected column; a
        # column listed twice in one row carries it on its first route only
        seen = set()
        for rec in lay.routes:
            if rec.role == "col":
                sel = cols[rec.owner - 1][rec.slot - 1][0]
                value = _read_real(bits, lay.loaders[rec.owner - 1].digit_vars[rec.slot - 1], lay.precision)
                mass = w[rec.owner - 1] * value
            else:
                sel = rows[rec.owner - 1][rec.slot - 1]
                first = (rec.owner, sel) not in seen
                seen.add((rec.owner, sel))
                mass = -float(w[sel] * aq[rec.owner - 1, sel]) if first else -0.0
            if rec.free_index is not None:
                full[rec.free_index] = mass
            for a, b, l, idx in rec.edges:
                if l == sel % (1 << a) and b == (sel >> a) & 1:
                    full[nf + idx] = mass
        coeffs = full[mask]
        return LiftedWitness(bits=bits, coefficients=coeffs, vector=None, size=float(coeffs @ coeffs))

    def lift_negative(self, source, wprime: np.ndarray | None = None) -> LiftedWitness:
        """Extend a high-level negative witness across the compiled space.

        Scratch coordinates adopt the value of the leaf their routing chain
        reaches; row-scratch coordinates of unlisted columns, and interiors
        cut off by tree truncation, are set to zero.
        """
        lay = self.layout
        bits, cols, rows, _, wprime = self._lift_inputs(source, wprime, side=0)
        wt = np.zeros(self.program.dim)
        wt[: lay.n] = wprime
        # row-scratch values: listed columns copy the row value
        for j, blk in enumerate(lay.scratch):
            for i in range(lay.n):
                wt[blk[i]] = wprime[i] if j in rows[i] else 0.0
        # interiors and roots take their reachable-leaf value
        for rec in lay.routes:
            if rec.role == "col":
                sel = cols[rec.owner - 1][rec.slot - 1][0]
            else:
                sel = rows[rec.owner - 1][rec.slot - 1]
            for a, l, coord in rec.interior:
                leaf = rec.reachable_leaf(a, l, sel)
                wt[coord] = wt[rec.leaves[leaf]] if leaf is not None else 0.0
            if rec.role == "col":
                leaf = rec.reachable_leaf(0, 0, sel)
                wt[rec.root] = wt[rec.leaves[leaf]] if leaf is not None else 0.0
        for rec in lay.loaders:
            for i in range(len(rec.pivots)):
                pivot_val = wt[rec.pivots[i]]
                for a in range(rec.precision + 1):
                    wt[rec.working[i][a]] = bits[rec.digit_vars[i][a]] * _half_power(a) * pivot_val
        size = float(np.sum((self.program.all_vectors().T @ wt) ** 2))
        return LiftedWitness(bits=bits, coefficients=None, vector=wt, size=size)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        lay = self.layout
        return {
            "source": source_json(lay.n, lay.m, self.source_target(), self.source_free_basis(), self.program.tol),
            "encoder": {"mode": lay.mode, "k": lay.precision, "k_nnz": lay.k_nnz, "l_nnz": lay.l_nnz},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CompiledProgram":
        """Run the builder on the stored source and encoder parameters; the
        source's free basis is not orthonormalized again, so the build repeats
        the one that wrote the file.  Older files go through ``_load_legacy``."""
        if not isinstance(data, dict):
            raise ValueError("compiled program JSON must be an object")
        if "encoder" not in data:
            raise ValueError("compiled program JSON is missing field 'encoder'")
        if not isinstance(data["encoder"], dict):
            raise ValueError("compiled program field 'encoder' must be an object")
        if "program" in data:
            return _load_legacy(data)
        if "source" not in data:
            raise ValueError("compiled program JSON is missing field 'source'")
        n, m, target, free_basis, tol = read_source(data["source"], "source.")
        dim_names = ("source.space_dim", "source.num_inputs")
        k, k_nnz, l_nnz, _ = _encoder_params(data["encoder"], n, m, free_basis.shape[1], dim_names)
        return _build(target, free_basis, tol, m, k, k_nnz, l_nnz)

    @classmethod
    def from_json(cls, text: str) -> "CompiledProgram":
        return cls.from_json_dict(json.loads(text))


def _looks_dense(source) -> bool:
    """Array-likes whose innermost elements are scalars are dense matrices;
    lists of (row, value) pairs are explicit sparse payloads."""
    if isinstance(source, np.ndarray):
        return True
    if isinstance(source, (list, tuple)) and source:
        head = source[0]
        if isinstance(head, (list, tuple, np.ndarray)) and len(head):
            return np.isscalar(head[0]) or isinstance(head[0], (int, float, np.generic))
    return False


def _read_real(bits, var_ids, precision: int) -> float:
    return FixedPointCode(precision=precision, bits=tuple(bits[v] for v in var_ids)).value


def _read_index(bits, rec: RouteRecord) -> int:
    return IntegerCode(width=rec.width, bits=tuple(bits[v] for v in rec.bit_vars)).value


def _encoder_params(enc: dict, n: int, m: int, num_hl: int, dim_names: tuple[str, str]):
    """(k, k_nnz, l_nnz) of a stored encoder block, and the sizes they compile
    to, each checked by name for a source on ``n`` coordinates with ``m``
    input columns and ``num_hl`` free-basis vectors (``n`` and ``m`` named by
    ``dim_names``); a budget the mode does not have is None."""
    mode = enc.get("mode")
    if mode not in MODES:
        raise ValueError(f"encoder.mode must be one of {', '.join(MODES)}, got {mode!r}")
    k = int_field(enc.get("k"), "encoder.k")
    k_nnz, l_nnz = (None if enc.get(key) is None else int_field(enc[key], f"encoder.{key}") for key in ("k_nnz", "l_nnz"))
    # dense mode has neither budget, sparse_cols k_nnz only, sparse both
    if [k_nnz is not None, l_nnz is not None] != [MODES.index(mode) >= 1, MODES.index(mode) >= 2]:
        raise ValueError(f"encoder.mode={mode!r} disagrees with encoder.k_nnz={k_nnz}, encoder.l_nnz={l_nnz}")
    sizes = _check_params(n, m, k, k_nnz, l_nnz, num_hl, (*dim_names, "encoder.k", "encoder.k_nnz", "encoder.l_nnz"))
    return k, k_nnz, l_nnz, sizes


# Largest store, dim x vectors float64 entries (128 MiB), that one build may
# allocate.  The encoder parameters of a compiled file are a few bytes that
# can ask for a store of any size; the largest program the tests and the
# benchmark compile (sparse, n = m = 8, k = 3, both budgets 3) has 420,480.
MAX_STORE_ENTRIES = 2**24


def _check_params(n: int, m: int, precision: int, k_nnz: int | None, l_nnz: int | None, num_hl: int,
                  names=("space_dim", "num_inputs", "precision", "k_nnz", "l_nnz")) -> tuple[int, int, int, int]:
    """Check the build parameters, each error naming its field in ``names``,
    and return the (dim, num_vars, free, labeled) counts of the program they
    compile to; a store past ``MAX_STORE_ENTRIES`` is rejected."""
    check_precision(precision, names[2])
    for name, value, top in zip(names[3:], (k_nnz, l_nnz), (n, m)):
        if value is not None and not 1 <= value <= top:
            raise ValueError(f"{name} must be within [1, {top}], got {value}")
    sizes = _layout_sizes(n, m, precision, k_nnz, l_nnz, num_hl)
    if sizes[0] * (sizes[2] + sizes[3]) > MAX_STORE_ENTRIES:
        given = ", ".join(f"{name}={value}" for name, value in zip(names, (n, m, precision, k_nnz, l_nnz))
                          if value is not None)
        raise ValueError(
            f"{given} compile to a {sizes[0]} x {sizes[2] + sizes[3]} store, past the cap of {MAX_STORE_ENTRIES} entries"
        )
    return sizes


def _layout_sizes(n: int, m: int, precision: int, k_nnz: int | None, l_nnz: int | None,
                  num_hl: int) -> tuple[int, int, int, int]:
    """(dim, num_vars, free, labeled) counts of the program ``_build`` emits,
    in closed form.  A routing tree on L >= 2 leaves with w index bits has
    full levels 1..w-1 (2^w - 2 interior nodes) and one edge into each node
    under the root; on one leaf it is a single free connector."""
    slots = n if k_nnz is None else k_nnz
    digits = m * slots * (precision + 1)  # loader working coordinates and bits
    dim, num_vars, free, labeled = n + digits, digits, num_hl + m, 2 * digits
    if k_nnz is not None:
        dim += m * k_nnz + (m * n if l_nnz is not None else 0)
    for trees, leaves in ((m * (k_nnz or 0), n), (n * (l_nnz or 0), m)):
        if trees:
            width = index_bit_width(leaves)
            interior = 2**width - 2 if width else 0
            dim += trees * interior
            num_vars += trees * width
            free += trees * (width == 0)
            labeled += trees * (interior + leaves if width else 0)
    return dim, num_vars, free, labeled


def _load_legacy(data: dict) -> CompiledProgram:
    """Load a file that stores the compiled ``program``, with ``n``, ``m`` and
    the variable roles in ``encoder`` (and maybe an ignored ``layout``).  The
    source target is the ``V`` block of the target, the source free basis the
    leading free vectors with no entry past ``V`` (every gadget free vector
    touches a coordinate outside it); the file must equal their recompile,
    whose sizes are checked against the stored ones before it is built."""
    stored = LowLevelProgram.from_json_dict(data["program"], "program.")
    enc = data["encoder"]
    n, m = int_field(enc.get("n"), "encoder.n"), int_field(enc.get("m"), "encoder.m")
    if not (1 <= n <= stored.dim and m >= 0):
        raise ValueError(f"need 1 <= encoder.n <= program.dim={stored.dim} and encoder.m >= 0, got {n} and {m}")
    store, nf = stored.all_vectors(), stored.num_free
    reach_out = store[n:, :nf].any(axis=0)
    num_hl = int(np.argmax(reach_out)) if reach_out.any() else nf
    k, k_nnz, l_nnz, sizes = _encoder_params(enc, n, m, num_hl, ("encoder.n", "encoder.m"))
    have = (stored.dim, stored.num_vars, nf, store.shape[1] - nf)
    for name, want, got in zip(("dim", "num_vars", "free", "labeled"), sizes, have):
        if want != got:
            count = "" if name in ("dim", "num_vars") else " vectors"
            raise ValueError(f"program.{name} has {got}{count}, its encoder parameters compile to {want}")
    comp = _build(stored.target[:n], store[:n, :num_hl], stored.tol, m, k, k_nnz, l_nnz)
    encoder = {**comp.to_json_dict()["encoder"], "n": n, "m": m, "variables": _variable_roles(comp.layout)}
    path = _first_difference(enc, encoder, "encoder") or _program_difference(stored, comp.program)
    if path is not None:
        raise ValueError(f"compiled program field '{path}' differs from what its encoder parameters compile to")
    return comp


def _variable_roles(lay: CompiledLayout) -> list[dict]:
    """One entry per variable, by number, saying which gadget bit it is."""
    roles = []
    for rec in lay.loaders:
        for i in range(len(rec.pivots)):
            for a, var0 in enumerate(rec.digit_vars[i]):
                roles.append({"var": var0 + 1, "role": "digit", "column": rec.column, "slot": i + 1, "bit": a})
    for rec in lay.routes:
        role, key = ("col_index", "column") if rec.role == "col" else ("row_index", "row")
        for a, var0 in enumerate(rec.bit_vars):
            roles.append({"var": var0 + 1, "role": role, key: rec.owner, "slot": rec.slot, "bit": a})
    return sorted(roles, key=lambda d: d["var"])


def _first_difference(got, want, path: str) -> str | None:
    """Path, such as ``encoder.variables[2].slot``, of the first place where
    the JSON trees ``got`` and ``want``, found at ``path``, differ (``...``
    stands in for a missing key); None when they are equal."""
    if got == want:
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        pairs = [(f"{path}.{key}", got.get(key, ...), want.get(key, ...)) for key in {**want, **got}]
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        pairs = [(f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    else:
        return path
    return next(filter(None, (_first_difference(g, w, sub) for sub, g, w in pairs)), path)


def _program_difference(got: LowLevelProgram, want: LowLevelProgram) -> str | None:
    """Path, such as ``program.labeled[3]``, of the first vector or field in
    which two programs of the same sizes differ; None when they are equal."""
    if got.tol != want.tol:
        return "program.tol"
    if not np.array_equal(got.target, want.target):
        return "program.target"
    nf = want.num_free
    differs = (got.all_vectors() != want.all_vectors()).any(axis=0)
    differs[nf:] |= (got.var != want.var) | (got.val != want.val)
    if not differs.any():
        return None
    j = int(np.argmax(differs))
    return f"program.free[{j}]" if j < nf else f"program.labeled[{j - nf}]"


def _check_consistency(cols, rows) -> None:
    """Every nonzero payload entry must be reachable through its row list."""
    for j, slots in enumerate(cols):
        for r, v in slots:
            if v != 0.0 and j not in rows[r]:
                raise SparseFormatError(
                    f"column {j + 1} has a nonzero in row {r + 1} but row {r + 1}'s list omits it"
                )


# ---------------------------------------------------------------------------
# compile modes


def _build(target, free_basis, tol: float, m: int, precision: int,
           k_nnz: int | None = None, l_nnz: int | None = None) -> CompiledProgram:
    """The construction behind every mode, claiming blocks in one order.

    V holds the target and the source free basis.  Loaders then fill the
    pivots of column j: V itself in dense mode (no ``k_nnz``), otherwise a
    payload block U_j of ``k_nnz`` slots.  Column routes send each payload
    slot to a leaf of V, or with a row stage (``l_nnz``) of a per-column
    scratch block W_j, from which per-row routes pull listed entries into V.
    """
    n = len(target)
    mode = MODES[(k_nnz is not None) + (l_nnz is not None)]  # one mode per budget given
    b = ProgramBuilder(_check_params(n, m, precision, k_nnz, l_nnz, free_basis.shape[1]))
    v = b.coords.claim(n)
    b.target[:n] = target  # V is the first n coordinates
    hl_free = tuple(
        b.add_free({v[i]: float(free_basis[i, c]) for i in range(n)}) for c in range(free_basis.shape[1])
    )
    payload, scratch = [v] * m, []
    if k_nnz is not None:
        payload = []
        for j in range(1, m + 1):
            payload.append(b.coords.claim(k_nnz))
            if l_nnz is not None:
                scratch.append(b.coords.claim(n))
    loaders = []
    for j, pivots in enumerate(payload, 1):
        vb = b.variables.claim(len(pivots) * (precision + 1))
        loaders.append(
            emit_vector_loading(b, name=f"L{j}", column=j, pivots=tuple(pivots), var_block=vb, precision=precision)
        )
    routes = []  # dense mode has no payload slots and no row lists
    for j in range(1, m + 1):
        for i in range(1, (k_nnz or 0) + 1):
            vb = b.variables.claim(index_bit_width(n))
            routes.append(
                emit_route_tree(
                    b, name=f"D[{i},{j}]", role="col", owner=j, slot=i, root=payload[j - 1][i - 1],
                    leaves=tuple(scratch[j - 1] if scratch else v), var_block=vb,
                )
            )
    for i in range(1, n + 1):
        for jj in range(1, (l_nnz or 0) + 1):
            vb = b.variables.claim(index_bit_width(m))
            routes.append(
                emit_route_tree(
                    b, name=f"M[{i},{jj}]", role="row", owner=i, slot=jj,
                    root=v[i - 1], leaves=tuple(w[i - 1] for w in scratch), var_block=vb,
                )
            )
    layout = CompiledLayout(
        mode=mode, n=n, m=m, precision=precision, k_nnz=k_nnz, l_nnz=l_nnz,
        num_vars=b.variables.next_free, hl_free=hl_free,
        scratch=tuple(scratch), loaders=tuple(loaders), routes=tuple(routes),
    )
    return CompiledProgram(program=b.build(tol), layout=layout)


def compile_dense(program: HighLevelProgram, precision: int) -> CompiledProgram:
    """One vector-loading gadget per input column; digits are the only bits."""
    return _build(program.target, program.free_basis, program.tol, program.num_inputs, precision)


def compile_sparse(
    program: HighLevelProgram, k_nnz: int, precision: int, l_nnz: int | None = None
) -> CompiledProgram:
    """Column payloads of ``k_nnz`` slots, each steered to its row by a
    routing tree.  Without ``l_nnz`` (mode ``sparse_cols``) the trees end in
    the target space; with it (mode ``sparse``) they end in per-column
    scratch rows, and row adjacency lists of ``l_nnz`` columns pull listed
    entries into the target space through reversed routing trees."""
    return _build(program.target, program.free_basis, program.tol, program.num_inputs, precision, k_nnz, l_nnz)


# ---------------------------------------------------------------------------
# overhead measurement


@dataclass(frozen=True)
class OverheadReport:
    ratio: float
    source: DomainWitnessSizes
    compiled: DomainWitnessSizes


def measure_overhead(program: HighLevelProgram, compiled: CompiledProgram, inputs) -> OverheadReport:
    """Combined witness size of the compiled program over a family of inputs,
    relative to the source program on the same (quantized) family.

    The family must contain at least one accepted and one rejected input so
    both worst-case sides are meaningful.
    """
    mats = [compiled.quantize(a) for a in inputs]
    src = wsize_over_inputs(program, mats)
    if src.combined == 0.0:
        raise ValueError("input family must contain both accepted and rejected instances")
    bit_domain = [compiled.encode(a) for a in inputs]
    comp = wsize_over_domain(compiled.program, bit_domain)
    return OverheadReport(ratio=comp.combined / src.combined, source=src, compiled=comp)
