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

One builder emits every mode.  A compiled file holds ``program`` and
``encoder`` only; loading recompiles them and rejects a file that differs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .encoding import FixedPointCode, IntegerCode, encode_int, encode_real, index_bit_width
from .errors import SparseFormatError
from .highlevel import HighLevelProgram, wsize_over_inputs
from .linalg import input_matrix
from .lowlevel import DomainWitnessSizes, LowLevelProgram, wsize_over_domain

MODES = ("dense", "sparse_cols", "sparse")
SQRT_HALF_POWERS = {a: 2.0 ** (-a / 2.0) for a in range(64)}


def _half_power(a: int) -> float:
    return SQRT_HALF_POWERS.get(a) or 2.0 ** (-a / 2.0)


# ---------------------------------------------------------------------------
# allocation


@dataclass(frozen=True)
class Block:
    name: str
    start: int
    size: int

    @property
    def stop(self) -> int:
        return self.start + self.size

    def coords(self) -> range:
        return range(self.start, self.stop)

    def __getitem__(self, offset: int) -> int:
        if not 0 <= offset < self.size:
            raise IndexError(f"offset {offset} outside block '{self.name}' of size {self.size}")
        return self.start + offset


class IndexAllocator:
    """Hands out contiguous 0-based index blocks in a stable order, at most
    ``limit`` indices when a limit is given."""

    def __init__(self, limit: int | None = None, field: str = ""):
        self.next_free = 0
        self.blocks: list[Block] = []
        self.limit = limit
        self.field = field

    def claim(self, name: str, size: int) -> Block:
        if size < 0:
            raise ValueError(f"cannot claim negative size {size}")
        if self.limit is not None and self.next_free + size > self.limit:
            raise ValueError(f"encoder parameters need more than {self.field}={self.limit}")
        blk = Block(name=name, start=self.next_free, size=size)
        self.next_free += size
        self.blocks.append(blk)
        return blk


class ProgramBuilder:
    """Accumulates sparse vectors against two allocators, then densifies.

    With ``stored`` the build may not outgrow that program: more coordinates,
    variables, free or labeled vectors than it has raise ``ValueError``.
    """

    def __init__(self, stored: LowLevelProgram | None = None):
        self.stored = stored
        self.coords = IndexAllocator(None if stored is None else stored.dim, "program.dim")
        self.variables = IndexAllocator(None if stored is None else stored.num_vars, "program.num_vars")
        self._target: dict[int, float] = {}
        self._free: list[dict[int, float]] = []
        self._labeled: list[tuple[dict[int, float], int, int]] = []

    def _check_room(self, field: str, used: int) -> None:
        if self.stored is not None and used >= len(getattr(self.stored, field)):
            raise ValueError(f"encoder parameters need more than the {used} vectors of program.{field}")

    def set_target(self, entries: dict[int, float]) -> None:
        self._target = dict(entries)

    def add_free(self, entries: dict[int, float]) -> int:
        self._check_room("free", len(self._free))
        self._free.append(dict(entries))
        return len(self._free) - 1

    def add_labeled(self, entries: dict[int, float], var0: int, val: int) -> int:
        self._check_room("labeled", len(self._labeled))
        self._labeled.append((dict(entries), var0, val))
        return len(self._labeled) - 1

    def _dense(self, entries: dict[int, float], dim: int) -> np.ndarray:
        v = np.zeros(dim)
        for c, x in entries.items():
            v[c] = x
        return v

    def build(self, tol: float) -> LowLevelProgram:
        """The program, densified; with ``stored``, that program itself once it
        is checked equal, else ``ValueError`` naming the first differing field."""
        dim = self.coords.next_free
        if self.stored is not None:
            labeled = [(e, var0 + 1, val) for e, var0, val in self._labeled]
            field = self.stored.first_difference(dim, self.variables.next_free, tol, self._target, self._free, labeled)
            if field:
                raise ValueError(f"compiled program field 'program.{field}' differs from what its encoder parameters compile to")
            return self.stored
        return LowLevelProgram(
            dim=dim,
            num_vars=self.variables.next_free,
            target=self._dense(self._target, dim),
            free=tuple(self._dense(e, dim) for e in self._free),
            labeled=tuple((self._dense(e, dim), var0 + 1, val) for e, var0, val in self._labeled),
            tol=tol,
        )


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
    var_block: Block,
    precision: int,
) -> LoaderRecord:
    """Emit digit vectors and the tying free vector for one loaded column."""
    slots = len(pivots)
    if var_block.size != slots * (precision + 1):
        raise ValueError(
            f"variable block '{var_block.name}' has {var_block.size} bits, "
            f"expected {slots * (precision + 1)}"
        )
    work = builder.coords.claim(f"{name}.f", slots * (precision + 1))
    digit_vars = []
    working = []
    labeled_start = len(builder._labeled)
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
    var_block: Block,
) -> RouteRecord:
    """Emit the truncated binary routing tree between root and leaves.

    Nodes at level a are kept when their index is below the leaf count, so
    every emitted branch leads to a real leaf.  A single leaf needs no bits:
    the route collapses to the free vector (leaf - root).
    """
    n_leaves = len(leaves)
    width = index_bit_width(n_leaves)
    if var_block.size != width:
        raise ValueError(f"variable block '{var_block.name}' has {var_block.size} bits, expected {width}")
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
            coord = builder.coords.claim(f"{name}.t[{a},{l}]", 1)[0]
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
    out = []
    for j in range(m):
        nz = [int(i) for i in np.flatnonzero(a[:, j])]
        if len(nz) > k_nnz:
            raise SparseFormatError(f"column {j + 1} has {len(nz)} nonzeros, payload holds {k_nnz}")
        rows = sorted(nz)
        for i in range(n):
            if len(rows) == k_nnz:
                break
            if i not in nz:
                rows.append(i)
        rows.sort()
        out.append(tuple((i, float(a[i, j])) for i in rows))
    return tuple(out)


def row_lists_from_dense(a: np.ndarray, l_nnz: int) -> tuple[tuple[int, ...], ...]:
    """Per-row lists of column indices covering every nonzero, padded."""
    n, m = a.shape
    out = []
    for i in range(n):
        nz = [int(j) for j in np.flatnonzero(a[i, :])]
        if len(nz) > l_nnz:
            raise SparseFormatError(f"row {i + 1} has {len(nz)} nonzeros, the row list holds {l_nnz}")
        cols = sorted(nz)
        for j in range(m):
            if len(cols) == l_nnz:
                break
            if j not in nz:
                cols.append(j)
        cols.sort()
        out.append(tuple(cols))
    return tuple(out)


def validate_sparse_columns(entries, n: int, m: int, k_nnz: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    if len(entries) != m:
        raise SparseFormatError(f"expected {m} column payloads, got {len(entries)}")
    canon = []
    for j, slots in enumerate(entries):
        slots = [(int(r), float(v)) for r, v in slots]
        if len(slots) > k_nnz:
            raise SparseFormatError(f"column {j + 1} supplies {len(slots)} slots, payload holds {k_nnz}")
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
            raise SparseFormatError(f"row {i + 1} lists {len(cols)} columns, the list holds {l_nnz}")
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
    coord_blocks: tuple[Block, ...]
    num_vars: int
    hl_free: tuple[int, ...]  # program free indices carrying the source free basis
    scratch: tuple[Block, ...]  # W_j per column, sparse mode only
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
        if lay.mode == "sparse":
            _check_consistency(cols, rows)
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

    # -- embedded source program data ----------------------------------

    @property
    def target_block(self) -> Block:
        return self.layout.coord_blocks[0]

    def source_target(self) -> np.ndarray:
        v = self.target_block
        return self.program.target[v.start : v.stop]

    def source_free_basis(self) -> np.ndarray:
        v = self.target_block
        cols = [self.program.free[i][v.start : v.stop] for i in self.layout.hl_free]
        return np.column_stack(cols) if cols else np.zeros((self.layout.n, 0))

    # -- witness lifting ------------------------------------------------

    def lift_positive(self, source, w: np.ndarray | None = None) -> LiftedWitness:
        """Turn a high-level positive witness into compiled coefficients.

        Digit vectors of loader j carry gamma_j * 2^(-a/2), its free vector
        gamma_j, each routing edge on a selected path the routed mass, and
        the carried free-basis columns the residual coefficients.
        """
        lay = self.layout
        bits = self.encode(source)
        cols, rows = self._canonical(source)
        aq = self.decode(bits)
        t = self.source_target()
        fbasis = self.source_free_basis()
        if w is None:
            hl = HighLevelProgram(
                space_dim=lay.n, num_inputs=lay.m, target=t, free_basis=fbasis, tol=self.program.tol
            )
            w = hl.positive_witness(aq).witness
        w = np.asarray(w, dtype=float)
        resid = t - aq @ w
        phi = fbasis.T @ resid
        if np.linalg.norm(resid - fbasis @ phi) > 1e-6 * (1.0 + np.linalg.norm(t)):
            raise ValueError("w is not a valid positive witness for the quantized input")
        quant_cols = None
        if lay.mode != "dense":
            quant_cols = [
                [(sel, _read_real(bits, rec.digit_vars[i], lay.precision))
                 for i, (sel, _) in enumerate(cols[rec.column - 1])]
                for rec in lay.loaders
            ]
        avail = self.program.available_vectors(bits)
        nf = avail.num_free
        columns = np.flatnonzero(avail.mask)
        coeffs = np.zeros(columns.size)
        free_owner, labeled_owner = self._ownership()
        # mass arriving at each row-route root from its selected column; a
        # column listed twice in one row carries it on its first route only
        row_route_mass: dict[str, float] = {}
        seen = set()
        for rec in lay.routes:
            if rec.role == "row":
                sel = rows[rec.owner - 1][rec.slot - 1]
                first = (rec.owner, sel) not in seen
                seen.add((rec.owner, sel))
                row_route_mass[rec.name] = float(w[sel] * aq[rec.owner - 1, sel]) if first else 0.0
        for k, j in enumerate(columns):
            is_free = j < nf
            owner = free_owner[j] if is_free else labeled_owner[j - nf]
            if owner[0] == "hl":
                coeffs[k] = phi[owner[1]]
            elif owner[0] == "loader":
                rec = owner[1]
                gamma = w[rec.column - 1]
                if is_free:
                    coeffs[k] = gamma
                else:
                    _, _, slot, a, b = owner
                    coeffs[k] = gamma * _half_power(a)
            else:  # route
                rec = owner[1]
                if rec.role == "col":
                    slots = quant_cols[rec.owner - 1]
                    sel, value = slots[rec.slot - 1]
                    mass = w[rec.owner - 1] * value
                else:
                    sel = rows[rec.owner - 1][rec.slot - 1]
                    mass = -row_route_mass[rec.name]
                if is_free:
                    coeffs[k] = mass
                else:
                    _, _, a, b, l = owner
                    on_path = l == sel % (1 << a) and b == (sel >> a) & 1
                    coeffs[k] = mass if on_path else 0.0
        return LiftedWitness(bits=bits, coefficients=coeffs, vector=None, size=float(coeffs @ coeffs))

    def lift_negative(self, source, wprime: np.ndarray | None = None) -> LiftedWitness:
        """Extend a high-level negative witness across the compiled space.

        Scratch coordinates adopt the value of the leaf their routing chain
        reaches; row-scratch coordinates of unlisted columns, and interiors
        cut off by tree truncation, are set to zero.
        """
        lay = self.layout
        bits = self.encode(source)
        cols, rows = self._canonical(source)
        aq = self.decode(bits)
        t = self.source_target()
        fbasis = self.source_free_basis()
        if wprime is None:
            hl = HighLevelProgram(
                space_dim=lay.n, num_inputs=lay.m, target=t, free_basis=fbasis, tol=self.program.tol
            )
            wprime = hl.negative_witness(aq).witness
        wprime = np.asarray(wprime, dtype=float)
        wt = np.zeros(self.program.dim)
        vblock = self.target_block
        wt[vblock.start : vblock.stop] = wprime
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

    def _ownership(self):
        """Per free / labeled vector index, which gadget emitted it."""
        free_owner: dict[int, tuple] = {}
        labeled_owner: dict[int, tuple] = {}
        for col, fi in enumerate(self.layout.hl_free):
            free_owner[fi] = ("hl", col)
        for rec in self.layout.loaders:
            free_owner[rec.free_index] = ("loader", rec)
            for i in range(len(rec.pivots)):
                for a in range(rec.precision + 1):
                    for b in (0, 1):
                        labeled_owner[rec.digit_labeled_index(i, a, b)] = ("loader", rec, i, a, b)
        for rec in self.layout.routes:
            if rec.free_index is not None:
                free_owner[rec.free_index] = ("route", rec)
            for a, b, l, idx in rec.edges:
                labeled_owner[idx] = ("route", rec, a, b, l)
        return free_owner, labeled_owner

    # -- serialization --------------------------------------------------

    def encoder_descriptor(self) -> dict:
        lay = self.layout
        variables = []
        for rec in lay.loaders:
            for i in range(len(rec.pivots)):
                for a, var0 in enumerate(rec.digit_vars[i]):
                    variables.append(
                        {"var": var0 + 1, "role": "digit", "column": rec.column, "slot": i + 1, "bit": a}
                    )
        for rec in lay.routes:
            role = "col_index" if rec.role == "col" else "row_index"
            for a, var0 in enumerate(rec.bit_vars):
                key = "column" if rec.role == "col" else "row"
                variables.append({"var": var0 + 1, "role": role, key: rec.owner, "slot": rec.slot, "bit": a})
        variables.sort(key=lambda d: d["var"])
        return {
            "mode": lay.mode,
            "n": lay.n,
            "m": lay.m,
            "k": lay.precision,
            "k_nnz": lay.k_nnz,
            "l_nnz": lay.l_nnz,
            "variables": variables,
        }

    def to_json_dict(self) -> dict:
        return {"program": self.program.to_json_dict(), "encoder": self.encoder_descriptor()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CompiledProgram":
        """Recompile the stored program's source data with the encoder
        parameters and require the stored ``program`` and ``encoder`` to equal
        the result; a ``layout`` key, as older files carry, is ignored.  The
        source target is the ``V`` block of the target, and the source free
        basis the leading free vectors with no entry past ``V``: every gadget
        free vector touches a coordinate outside it."""
        if not isinstance(data, dict):
            raise ValueError("compiled program JSON must be an object")
        for key in ("program", "encoder"):
            if key not in data:
                raise ValueError(f"compiled program JSON is missing field '{key}'")
        stored = LowLevelProgram.from_json_dict(data["program"])
        enc = data["encoder"]
        n, m, precision, k_nnz, l_nnz = _encoder_params(enc, stored)
        store = stored.all_vectors()
        reach_out = store[n:, : len(stored.free)].any(axis=0)
        num_hl = int(np.argmax(reach_out)) if reach_out.any() else len(stored.free)
        comp = _build(stored.target[:n], store[:n, :num_hl], stored.tol, m, precision, k_nnz, l_nnz, stored)
        _check_descriptor(enc, comp.encoder_descriptor())
        return comp

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


def _encoder_params(enc, program: LowLevelProgram) -> list:
    """[n, m, k, k_nnz, l_nnz] of a stored encoder block (None where the mode
    has no such parameter), checked against the stored program before
    anything is compiled from them."""
    if not isinstance(enc, dict):
        raise ValueError("compiled program field 'encoder' must be an object")
    if enc.get("mode") not in MODES:
        raise ValueError(f"encoder.mode must be one of {', '.join(MODES)}, got {enc.get('mode')!r}")
    params = [None] * 5  # dense mode has neither budget, sparse_cols no l_nnz
    for i, key in enumerate(("n", "m", "k", "k_nnz", "l_nnz")[: MODES.index(enc["mode"]) + 3]):
        params[i] = enc.get(key)
        if isinstance(params[i], bool) or not isinstance(params[i], int):
            raise ValueError(f"encoder.{key} must be an integer, got {params[i]!r}")
    n, m, k = params[:3]
    if not 1 <= n <= program.dim:
        raise ValueError(f"encoder.n={n} outside [1, program.dim={program.dim}]")
    if m < 0 or k < 0 or m * (k + 1) > program.num_vars:
        raise ValueError(f"encoder.m={m}, encoder.k={k}: need 0 <= m*(k+1) <= program.num_vars={program.num_vars}")
    return params


def _check_descriptor(stored, rebuilt: dict) -> None:
    """Raise ``ValueError`` naming the first encoder field in which ``stored`` differs."""
    for key in [*rebuilt, *(k for k in stored if k not in rebuilt)]:
        got, want = stored.get(key), rebuilt.get(key)
        if key not in stored or got != want:
            if key == "variables" and isinstance(got, list):
                i = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
                key = f"variables[{i}]"
            raise ValueError(f"compiled program field 'encoder.{key}' differs from what its encoder parameters compile to")


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
           k_nnz: int | None = None, l_nnz: int | None = None,
           stored: LowLevelProgram | None = None) -> CompiledProgram:
    """The construction behind every mode, claiming blocks in one order.

    V holds the target and the source free basis.  Loaders then fill the
    pivots of column j: V itself in dense mode (no ``k_nnz``), otherwise a
    payload block U_j of ``k_nnz`` slots.  Column routes send each payload
    slot to a leaf of V, or with a row stage (``l_nnz``) of a per-column
    scratch block W_j, from which per-row routes pull listed entries into V.
    With ``stored`` the build is capped at that program's size and checked
    against it instead of densified.
    """
    n = len(target)
    mode = MODES[(k_nnz is not None) + (l_nnz is not None)]  # one mode per budget given
    if precision < 0:
        raise ValueError(f"precision must be at least 0, got {precision}")
    if k_nnz is not None and not 1 <= k_nnz <= n:
        raise ValueError(f"k_nnz must be within [1, {n}], got {k_nnz}")
    if l_nnz is not None and not 1 <= l_nnz <= m:
        raise ValueError(f"l_nnz must be within [1, {m}], got {l_nnz}")
    b = ProgramBuilder(stored)
    v = b.coords.claim("V", n)
    b.set_target({v[i]: float(target[i]) for i in range(n)})
    hl_free = tuple(
        b.add_free({v[i]: float(free_basis[i, c]) for i in range(n)}) for c in range(free_basis.shape[1])
    )
    payload, scratch = [v] * m, []
    if k_nnz is not None:
        payload = []
        for j in range(1, m + 1):
            payload.append(b.coords.claim(f"U{j}", k_nnz))
            if l_nnz is not None:
                scratch.append(b.coords.claim(f"W{j}", n))
    loaders = []
    for j, pivots in enumerate(payload, 1):
        vb = b.variables.claim(f"x[{j}]", pivots.size * (precision + 1))
        loaders.append(
            emit_vector_loading(b, name=f"L{j}", column=j, pivots=tuple(pivots.coords()), var_block=vb, precision=precision)
        )
    routes = []  # dense mode has no payload slots and no row lists
    for j in range(1, m + 1):
        for i in range(1, (k_nnz or 0) + 1):
            vb = b.variables.claim(f"c[{i},{j}]", index_bit_width(n))
            routes.append(
                emit_route_tree(
                    b, name=f"D[{i},{j}]", role="col", owner=j, slot=i, root=payload[j - 1][i - 1],
                    leaves=tuple((scratch[j - 1] if scratch else v).coords()), var_block=vb,
                )
            )
    for i in range(1, n + 1):
        for jj in range(1, (l_nnz or 0) + 1):
            vb = b.variables.claim(f"d[{i},{jj}]", index_bit_width(m))
            routes.append(
                emit_route_tree(
                    b, name=f"M[{i},{jj}]", role="row", owner=i, slot=jj,
                    root=v[i - 1], leaves=tuple(w[i - 1] for w in scratch), var_block=vb,
                )
            )
    layout = CompiledLayout(
        mode=mode, n=n, m=m, precision=precision, k_nnz=k_nnz, l_nnz=l_nnz,
        coord_blocks=tuple(b.coords.blocks), num_vars=b.variables.next_free, hl_free=hl_free,
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
