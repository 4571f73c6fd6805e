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
from functools import cached_property

import numpy as np

from .encoding import check_precision, grid_levels, index_bit_width
from .errors import SparseFormatError
from .highlevel import HighLevelProgram, read_source, source_json, wsize_over_inputs
from .linalg import input_matrix, int_field
from .lowlevel import DomainWitnessSizes, LowLevelProgram, normalize_bits, wsize_over_domain

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


def emit_vector_loading(
    builder: ProgramBuilder,
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
            role=role, owner=owner, slot=slot, root=root, leaves=tuple(leaves),
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
        role=role, owner=owner, slot=slot, root=root, leaves=tuple(leaves),
        bit_vars=tuple(var_block[a] for a in range(width)),
        interior=tuple(interior), edges=tuple(edges), free_index=None,
    )


# ---------------------------------------------------------------------------
# canonical sparse descriptions


def _slots(nonzero: np.ndarray, budget: int, message: str) -> np.ndarray:
    """Per column of the boolean pattern ``nonzero``, its nonzero rows plus
    the first rows it leaves zero, ``budget`` in all and ascending.  The first
    column past the budget raises ``message`` with its number and count."""
    count = nonzero.sum(axis=0)
    if (over := count > budget).any():
        j = int(np.argmax(over))
        raise SparseFormatError(message.format(j + 1, count[j]))
    pad = ~nonzero & (np.cumsum(~nonzero, axis=0) <= budget - count)
    return np.nonzero((nonzero | pad).T)[1].reshape(nonzero.shape[1], budget)


def _payload_rows(a: np.ndarray, k_nnz: int) -> np.ndarray:
    return _slots(a != 0, k_nnz, f"column {{}} has {{}} entries, the payload holds {k_nnz}")


def _row_lists(a: np.ndarray, l_nnz: int) -> np.ndarray:
    return _slots((a != 0).T, l_nnz, f"row {{}} lists {{}} columns, the row list holds {l_nnz}")


def _listed(lists: np.ndarray, m: int) -> np.ndarray:
    """(n, m) booleans, row i lists column j; selections past m list nothing."""
    out = np.zeros((len(lists), m + 1), dtype=bool)
    out[np.arange(len(lists))[:, None], np.minimum(lists, m)] = True
    return out[:, :m]


def sparse_columns_from_dense(a: np.ndarray, k_nnz: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per-column (row, value) payload slots, padded with zero entries."""
    return tuple(tuple((i, float(a[i, j])) for i in rows) for j, rows in enumerate(_payload_rows(a, k_nnz).tolist()))


def row_lists_from_dense(a: np.ndarray, l_nnz: int) -> tuple[tuple[int, ...], ...]:
    """Per-row lists of column indices covering every nonzero, padded."""
    return tuple(map(tuple, _row_lists(a, l_nnz).tolist()))


def validate_sparse_columns(entries, n: int, m: int, k_nnz: int) -> tuple[np.ndarray, np.ndarray]:
    """(slot rows, values), each (m, k_nnz), of explicit column payloads:
    every column padded with zero entries on its first unused rows, in row
    order."""
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
        canon += sorted(slots + [(i, 0.0) for i in range(n) if i not in rows][: k_nnz - len(slots)])
    canon = np.array(canon, dtype=float).reshape(m, k_nnz, 2)
    return canon[..., 0].astype(np.intp), canon[..., 1]


def validate_row_lists(lists, n: int, m: int, l_nnz: int) -> np.ndarray:
    """(n, l_nnz) column lists of the rows, each padded with its first
    unlisted columns and sorted."""
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
        canon.append(sorted(cols + [j for j in range(m) if j not in cols][: l_nnz - len(cols)]))
    return np.array(canon, dtype=np.intp).reshape(n, l_nnz)


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


class _Routes:
    """Index tables of the routing trees of one role, shaped (owners, slots,
    ...).  The trees of a role share their leaf count, so they share the level
    and child node of each edge, and the level and index of each node."""

    def __init__(self, recs, owners: int, slots: int, roots: bool):
        def table(rows):
            return np.array(rows, dtype=np.intp).reshape(owners, slots, len(rows[0]) if rows else 0)

        # a program without input columns has no routes, and empty tables
        head = recs[0] if recs else RouteRecord("", 0, 0, 0, (), (), (), (), None)
        self.bits = table([r.bit_vars for r in recs])
        self.leaves = table([r.leaves for r in recs])
        self.free = table([[r.free_index] for r in recs])[..., 0] if head.free_index is not None else None
        self.edges = table([[idx for *_, idx in r.edges] for r in recs])
        self.edge_level, self.edge_child = np.array(
            [(a, b << a | l) for a, b, l, _ in head.edges], dtype=np.intp).reshape(-1, 2).T
        # column routes give their root the selected leaf's value too, as node (0, 0)
        nodes = [((0, 0, r.root),) * roots + r.interior for r in (head, *recs)]
        self.nodes = table([[c for *_, c in ns] for ns in nodes[1:]])
        self.node_level, self.node_index = np.array([(a, l) for a, l, _ in nodes[0]], dtype=np.intp).reshape(-1, 2).T

    def carry(self, full: np.ndarray, nf: int, sel: np.ndarray, mass: np.ndarray) -> None:
        """Put each route's ``mass`` on its free connector, or on the edges of
        the path to its selected leaf, in the coefficients ``full``."""
        if self.free is not None:
            full[self.free] = mass
            return
        on_path = self.edge_child == sel[..., None] % (2 << self.edge_level)
        full[nf + self.edges[on_path]] = np.broadcast_to(mass[..., None], on_path.shape)[on_path]

    def spread(self, wt: np.ndarray, sel: np.ndarray) -> None:
        """Give each node of ``wt`` the value of the leaf its available edges
        reach, or 0 where the walk hits a truncated branch."""
        leaf = self.node_index + sel[..., None] - sel[..., None] % (1 << self.node_level)
        reach = leaf < self.leaves.shape[-1]
        held = np.take_along_axis(self.leaves, np.where(reach, leaf, 0), axis=-1)
        wt[self.nodes] = np.where(reach, wt[held], 0.0)


class _Tables:
    """Integer index tables of a layout, read once from its gadget records:
    per (column, slot, digit), per (column, slot), and per route role."""

    def __init__(self, lay: CompiledLayout):
        k, slots = lay.precision, lay.k_nnz or lay.n
        shape = (lay.m, slots, k + 1)
        self.digits = np.array([r.digit_vars for r in lay.loaders], dtype=np.intp).reshape(shape)
        self.working = np.array([r.working for r in lay.loaders], dtype=np.intp).reshape(shape)
        self.pivots = np.array([r.pivots for r in lay.loaders], dtype=np.intp).reshape(shape[:2])
        self.half = np.array([_half_power(a) for a in range(k + 1)])
        self.loader_free = np.array([r.free_index for r in lay.loaders], dtype=np.intp)
        # a loader's labeled vectors run by slot, then digit, then value 0 and 1
        self.loader_labeled = (np.array([r.labeled_start for r in lay.loaders], dtype=np.intp)[:, None]
                               + np.arange(2 * slots * (k + 1)))
        self.digit_scale = np.tile(np.repeat(self.half, 2), slots)
        self.scratch = np.array([list(blk) for blk in lay.scratch], dtype=np.intp) if lay.scratch else None
        ncol = lay.m * (lay.k_nnz or 0)
        self.cols = _Routes(lay.routes[:ncol], lay.m, lay.k_nnz, roots=True) if lay.k_nnz else None
        self.rows = _Routes(lay.routes[ncol:], lay.n, lay.l_nnz, roots=False) if lay.l_nnz else None


class CompiledProgram:
    """A low-level program plus the encoder bookkeeping that produced it.

    Encode, decode and the lifts gather and scatter over index tables of the
    layout, built on first use: loading and evaluating a compiled file builds
    none."""

    def __init__(self, program: LowLevelProgram, layout: CompiledLayout):
        self.program = program
        self.layout = layout

    @cached_property
    def _tables(self) -> _Tables:
        return _Tables(self.layout)

    @cached_property
    def _source(self) -> HighLevelProgram:
        lay = self.layout
        return HighLevelProgram(space_dim=lay.n, num_inputs=lay.m, target=self.source_target(),
                                free_basis=self.source_free_basis(), tol=self.program.tol)

    # -- encoding ------------------------------------------------------

    def _canonical(self, source):
        """An input as (slot values and slot rows by column, column lists by
        row), None where the mode lacks one; dense mode's slots are the rows.
        Sparse descriptions are validated and padded."""
        lay = self.layout
        if lay.mode == "dense":
            return input_matrix(source, (lay.n, lay.m)).T, None, None
        if _looks_dense(source):
            a = input_matrix(source, (lay.n, lay.m))
            rows = _payload_rows(a, lay.k_nnz)
            return a[rows, np.arange(lay.m)[:, None]], rows, _row_lists(a, lay.l_nnz) if lay.l_nnz else None
        if isinstance(source, dict):
            if "columns" not in source:
                raise SparseFormatError("sparse input dict is missing field 'columns'")
            payload = source["columns"]
        elif lay.mode == "sparse":
            raise SparseFormatError("sparse mode needs a 'rows' adjacency list alongside 'columns'")
        else:
            payload = source
        rows, values = validate_sparse_columns(payload, lay.n, lay.m, lay.k_nnz)
        if lay.mode == "sparse_cols":
            return values, rows, None
        if "rows" not in source:
            raise SparseFormatError("sparse mode needs a 'rows' adjacency list")
        lists = validate_row_lists(source["rows"], lay.n, lay.m, lay.l_nnz)
        # every nonzero payload entry must be reachable through its row list
        unlisted = (values != 0.0) & ~_listed(lists, lay.m)[rows, np.arange(lay.m)[:, None]]
        if unlisted.any():
            j, slot = np.argwhere(unlisted)[0]
            r = rows[j, slot]
            raise SparseFormatError(f"column {j + 1} has a nonzero in row {r + 1} but row {r + 1}'s list omits it")
        return values, rows, lists

    def _query(self, source):
        """(grid levels, slot rows, row lists) of an input."""
        values, rows, lists = self._canonical(source)
        return grid_levels(values, self.layout.precision), rows, lists

    def _bits(self, levels, rows, lists) -> np.ndarray:
        """The bits that encode (grid levels, slot rows, row lists)."""
        tab = self._tables
        bits = np.zeros(self.layout.num_vars, dtype=np.intp)
        bits[tab.digits] = levels[..., None] >> np.arange(self.layout.precision, -1, -1) & 1
        for routes, sel in ((tab.cols, rows), (tab.rows, lists)):
            if routes is not None:
                bits[routes.bits] = sel[..., None] >> np.arange(routes.bits.shape[-1]) & 1
        return bits

    def _read(self, bits: np.ndarray):
        """(grid levels, slot rows, row lists) that ``bits`` encode."""
        tab = self._tables
        levels = bits[tab.digits] @ (1 << np.arange(self.layout.precision, -1, -1))
        return levels, *(None if r is None else bits[r.bits] @ (1 << np.arange(r.bits.shape[-1]))
                          for r in (tab.cols, tab.rows))

    def _matrix(self, levels, rows, lists) -> np.ndarray:
        """The matrix an input stands for, honoring the routing semantics: a
        column whose nonzero payload cannot reach the target space (index out
        of range, or row list never mentioning it) contributes nothing."""
        n, m = self.layout.n, self.layout.m
        values = levels * 2.0**-self.layout.precision - 1.0
        if rows is None:
            return np.ascontiguousarray(values.T)
        inside = rows < n
        at = np.minimum(rows, n - 1) * m + np.arange(m)[:, None]  # flat (row, column) of each slot
        reach = inside if lists is None else inside & _listed(lists, m).ravel()[at]
        usable = inside & ~((values != 0.0) & ~reach).any(axis=1, keepdims=True)
        return np.bincount(at[usable], values[usable], n * m).reshape(n, m)

    def encode(self, source) -> tuple[int, ...]:
        """Bits for one input, positionally aligned with program variables."""
        return tuple(self._bits(*self._query(source)).tolist())

    def decode(self, bits) -> np.ndarray:
        """Matrix a compiled input stands for (see ``_matrix``)."""
        return self._matrix(*self._read(np.array(normalize_bits(bits, self.layout.num_vars), dtype=np.intp)))

    def quantize(self, source) -> np.ndarray:
        return self._matrix(*self._query(source))

    # -- embedded source program data: V is the first n coordinates ----

    def source_target(self) -> np.ndarray:
        return self.program.target[: self.layout.n]

    def source_free_basis(self) -> np.ndarray:
        # the source free vectors are the program's first free vectors
        return np.ascontiguousarray(self.program.all_vectors()[: self.layout.n, : len(self.layout.hl_free)])

    # -- witness lifting ------------------------------------------------

    def _lift_inputs(self, source, w, side: int):
        """Bits of ``source``, its (grid levels, slot rows, row lists), the
        matrix they stand for, and the high-level witness ``w`` of ``side``,
        solved for on that matrix when None."""
        query = self._query(source)
        aq = self._matrix(*query)
        if w is None:
            w = (self._source.positive_witness if side else self._source.negative_witness)(aq).witness
        return self._bits(*query), query, aq, np.asarray(w, dtype=float)

    def lift_positive(self, source, w: np.ndarray | None = None) -> LiftedWitness:
        """Turn a high-level positive witness into compiled coefficients.

        Digit vectors of loader j carry gamma_j * 2^(-a/2), its free vector
        gamma_j, each routing edge on a selected path the routed mass, and
        the carried free-basis columns the residual coefficients.
        """
        lay, tab = self.layout, self._tables
        bits, (levels, rows, lists), aq, w = self._lift_inputs(source, w, side=1)
        t, fbasis = self.source_target(), self.source_free_basis()
        resid = t - aq @ w
        phi = fbasis.T @ resid
        if np.linalg.norm(resid - fbasis @ phi) > 1e-6 * (1.0 + np.linalg.norm(t)):
            raise ValueError("w is not a valid positive witness for the quantized input")
        # coefficients of every column of the store, written gadget by gadget;
        # the available ones are kept
        bits = tuple(bits.tolist())
        mask, nf = self.program.available_mask(bits), self.program.num_free
        full = np.zeros(mask.size)
        full[list(lay.hl_free)] = phi
        full[tab.loader_free] = w
        full[nf + tab.loader_labeled] = w[:, None] * tab.digit_scale
        if rows is not None:  # each payload slot carries its decoded entry times gamma_j
            tab.cols.carry(full, nf, rows, w[:, None] * (levels * 2.0**-lay.precision - 1.0))
        if lists is not None:
            # mass arriving at each row-route root from its selected column; a
            # column listed twice in one (sorted) row carries it on its first route only
            first = np.ones(lists.shape, dtype=bool)
            first[:, 1:] = lists[:, 1:] != lists[:, :-1]
            mass = -(w[lists] * aq[np.arange(lay.n)[:, None], lists])
            tab.rows.carry(full, nf, lists, np.where(first, mass, -0.0))
        coeffs = full[mask]
        return LiftedWitness(bits=bits, coefficients=coeffs, vector=None, size=float(coeffs @ coeffs))

    def lift_negative(self, source, wprime: np.ndarray | None = None) -> LiftedWitness:
        """Extend a high-level negative witness across the compiled space.

        Scratch coordinates adopt the value of the leaf their routing chain
        reaches; row-scratch coordinates of unlisted columns, and interiors
        cut off by tree truncation, are set to zero.
        """
        lay, tab = self.layout, self._tables
        bits, (_, rows, lists), _, wprime = self._lift_inputs(source, wprime, side=0)
        wt = np.zeros(self.program.dim)
        wt[: lay.n] = wprime
        if lists is not None:  # row-scratch values: listed columns copy the row value
            wt[tab.scratch] = np.where(_listed(lists, lay.m).T, wprime, 0.0)
        # interiors and column roots take their reachable-leaf value
        for routes, sel in ((tab.cols, rows), (tab.rows, lists)):
            if routes is not None:
                routes.spread(wt, sel)
        wt[tab.working] = bits[tab.digits] * tab.half * wt[tab.pivots][..., None]
        size = float(np.sum((self.program.all_vectors().T @ wt) ** 2))
        return LiftedWitness(bits=tuple(bits.tolist()), coefficients=None, vector=wt, size=size)

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
        the one that wrote the file."""
        if not isinstance(data, dict):
            raise ValueError("compiled program JSON must be an object")
        if "encoder" not in data:
            raise ValueError("compiled program JSON is missing field 'encoder'")
        if not isinstance(data["encoder"], dict):
            raise ValueError("compiled program field 'encoder' must be an object")
        if "source" not in data:  # as in files of earlier versions, which store the compiled 'program'
            raise ValueError("compiled program JSON is missing field 'source'; "
                             "recompile the file from its high-level program")
        n, m, target, free_basis, tol = read_source(data["source"], "source.")
        k, k_nnz, l_nnz = _encoder_params(data["encoder"], n, m, free_basis.shape[1])
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


def _encoder_params(enc: dict, n: int, m: int, num_hl: int) -> tuple[int, int | None, int | None]:
    """(k, k_nnz, l_nnz) of a stored encoder block, each checked by name, as
    is the size of the store they compile to, for a source on ``n``
    coordinates with ``m`` input columns and ``num_hl`` free-basis vectors; a
    budget the mode does not have is None."""
    mode = enc.get("mode")
    if mode not in MODES:
        raise ValueError(f"encoder.mode must be one of {', '.join(MODES)}, got {mode!r}")
    k = int_field(enc.get("k"), "encoder.k")
    k_nnz, l_nnz = (None if enc.get(key) is None else int_field(enc[key], f"encoder.{key}") for key in ("k_nnz", "l_nnz"))
    # dense mode has neither budget, sparse_cols k_nnz only, sparse both
    if [k_nnz is not None, l_nnz is not None] != [MODES.index(mode) >= 1, MODES.index(mode) >= 2]:
        raise ValueError(f"encoder.mode={mode!r} disagrees with encoder.k_nnz={k_nnz}, encoder.l_nnz={l_nnz}")
    _check_params(n, m, k, k_nnz, l_nnz, num_hl,
                  ("source.space_dim", "source.num_inputs", "encoder.k", "encoder.k_nnz", "encoder.l_nnz"))
    return k, k_nnz, l_nnz


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
        loaders.append(emit_vector_loading(b, column=j, pivots=tuple(pivots), var_block=vb, precision=precision))
    routes = []  # dense mode has no payload slots and no row lists
    for j in range(1, m + 1):
        for i in range(1, (k_nnz or 0) + 1):
            vb = b.variables.claim(index_bit_width(n))
            routes.append(emit_route_tree(b, role="col", owner=j, slot=i, root=payload[j - 1][i - 1],
                                          leaves=tuple(scratch[j - 1] if scratch else v), var_block=vb))
    for i in range(1, n + 1):
        for jj in range(1, (l_nnz or 0) + 1):
            vb = b.variables.claim(index_bit_width(m))
            routes.append(emit_route_tree(b, role="row", owner=i, slot=jj, root=v[i - 1],
                                          leaves=tuple(w[i - 1] for w in scratch), var_block=vb))
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
