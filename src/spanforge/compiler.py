"""Compilation of high-level programs into Boolean-variable programs.

A compiled program queries only bits: fixed-point digits of matrix entries
plus, in the sparse modes, binary row/column indices.  Three modes:

* ``dense``       -- one vector-loading gadget per input column, digits only.
* ``sparse_cols`` -- per column, a small payload block plus routing trees that
                     steer each payload slot to its target row.
* ``sparse``      -- column payloads routed into per-column scratch spaces,
                     then per-row routing trees (driven by row adjacency
                     lists) move mass into the target space.

``encode``, ``quantize`` and the lifts take an n x m input matrix.  In the
sparse modes a column's payload holds its nonzero rows and a row's list its
nonzero columns, each padded with the first unused indices; any other
description of an input is a bit string, which ``decode`` reads.

The vector-loading gadget for one payload slot uses working coordinates
f_a and labeled vectors b * 2^(-a/2) e - f_a per digit, plus one free vector
sum_a 2^(-a/2) f_a - sum e tying the digits together; the only combinations
that reach the target space load exactly the decoded values.  A routing tree
on n leaves is a truncated binary tree addressed little-endian by the index
bits; the available edges telescope to (selected leaf - root).  Trees with a
single leaf degenerate to one free connector vector.

One build serves every mode.  From the sizes (n, m, k, k_nnz, l_nnz, and the
source's free-basis count) it lays out the index tables that encode, decode
and the lifts run on, in closed form, then writes the column store from
them by a few scatters.  The program is a function of the source program
and the encoder parameters alone, so a compiled file holds just those,
``source`` and ``encoder``, and loading one runs the build.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoding import check_precision, grid_levels, index_bit_width
from .errors import SparseFormatError
from .highlevel import HighLevelProgram, read_source, source_json, wsize_over_inputs
from .linalg import input_matrix, int_field
from .lowlevel import Columns, DomainWitnessSizes, LowLevelProgram, WitnessReport, bit_array, wsize_over_domain

MODES = ("dense", "sparse_cols", "sparse")
# Most an entry of F^T F - I may be off for a stored free basis F.  compile
# writes the left singular vectors of an SVD, off by a few eps * n.
ORTHONORMAL_TOL = 1e-9


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
    num_hl: int  # source free-basis vectors, the program's first free vectors


COORD, VAR, FREE, LABELED = range(4)  # the kinds of index a build claims


class _Routes:
    """Index tables of the routing trees of one role, shaped (owners, slots,
    ...).  A tree numbers its nodes as a heap, node (level a, index l) at
    2^a - 1 + l: the root, its interior nodes, then its leaves.  The trees of
    a role share their leaf count, so they share the level and child node of
    each edge, and the level and index of each node."""

    def __init__(self, claim, root: np.ndarray, leaves: np.ndarray, spread_root: bool):
        owners, slots = root.shape
        count = leaves.shape[-1]
        width = index_bit_width(count)
        self.leaves = np.broadcast_to(leaves, (owners, slots, count))
        interior = claim(COORD, owners, slots, max((1 << width) - 2, 0))
        self.heap = np.concatenate([root[..., None], interior, self.leaves], axis=-1)
        self.bits = claim(VAR, owners, slots, width)
        # edge 2l + b of level a leaves node (a, l) for child b 2^a + l, kept
        # when that leads to a leaf
        level = np.repeat(np.arange(width), 2 << np.arange(width))
        at = np.arange(level.size) + 2 - (2 << level)
        child = (at & 1) << level | at >> 1
        keep = child < count
        self.edge_level, self.edge_child = level[keep], child[keep]
        self.free = claim(FREE, owners, slots) if width == 0 else None  # a single leaf's connector
        self.edges = claim(LABELED, owners, slots, int(keep.sum()))
        # column routes give their root the selected leaf's value too, as node (0, 0)
        heap_at = np.arange(0 if spread_root else 1, max((1 << width) - 1, 1))
        self.nodes = self.heap[..., heap_at]
        self.node_level = np.repeat(np.arange(width + 1), 1 << np.arange(width + 1))[heap_at]
        self.node_index = heap_at + 1 - (1 << self.node_level)

    def entries(self, nf: int) -> list:
        """(rows, store columns, values) of the connectors, leaf - root, or
        of the edges, child node - parent node."""
        if self.free is not None:
            return [(self.leaves[..., 0], self.free, 1.0), (self.heap[..., 0], self.free, -1.0)]
        a, child, edges = self.edge_level, self.edge_child, nf + self.edges
        return [(self.heap[..., (2 << a) - 1 + child], edges, 1.0),
                (self.heap[..., (1 << a) - 1 + child % (1 << a)], edges, -1.0)]

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
    """Integer index tables of a layout, laid out in closed form: per
    (column, slot, digit), per (column, slot), and per route role.  Each kind
    of index is claimed in one order.  Coordinates: V, then U_j/W_j per
    column, the loaders' working coordinates, the column-route interiors and
    the row-route interiors.  Variables: digits, column index bits, row index
    bits.  Free columns: the source basis, the loaders, the connectors.
    Labeled columns: the loaders' digit vectors, then the route edges."""

    def __init__(self, n: int, m: int, precision: int, k_nnz: int | None, l_nnz: int | None, num_hl: int):
        claimed = [0, 0, 0, 0]

        def claim(kind, *shape):
            start = claimed[kind]
            claimed[kind] += math.prod(shape)
            return np.arange(start, claimed[kind], dtype=np.intp).reshape(shape)

        slots, digits = k_nnz or n, precision + 1
        v = claim(COORD, n)
        claim(FREE, num_hl)
        # loaders fill the pivots of column j: V itself in dense mode,
        # otherwise a payload block U_j, claimed with W_j in sparse mode
        blocks = claim(COORD, m, slots + n * (l_nnz is not None)) if k_nnz else np.broadcast_to(v, (m, n))
        self.pivots, scratch = blocks[:, :slots], blocks[:, slots:]
        self.scratch = scratch if l_nnz else None
        self.working = claim(COORD, m, slots, digits)
        self.digits = claim(VAR, m, slots, digits)
        self.loader_free = claim(FREE, m)
        # a loader's labeled vectors run by slot, then digit, then value 0 and 1
        self.loader_labeled = claim(LABELED, m, 2 * slots * digits)
        self.half = np.array([2.0 ** (-a / 2.0) for a in range(digits)])
        self.digit_scale = np.tile(np.repeat(self.half, 2), slots)
        self.cols = _Routes(claim, self.pivots, scratch[:, None] if l_nnz else v, spread_root=True) if k_nnz else None
        self.rows = (_Routes(claim, np.broadcast_to(v[:, None], (n, l_nnz)), scratch.T[:, None], spread_root=False)
                     if l_nnz else None)
        self.claimed = tuple(claimed)

    def entries(self, free_basis: np.ndarray, nf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, store column, value) of every gadget entry, flat.  A loader's
        free vector is sum_a 2^(-a/2) f_a - sum e; its digit vectors are -f_a,
        plus 2^(-a/2) e for value 1."""
        labeled = nf + self.loader_labeled.reshape(*self.digits.shape, 2)
        parts = [(np.arange(len(free_basis))[:, None], np.arange(free_basis.shape[1]), free_basis),
                 (self.working, self.loader_free[:, None, None], self.half),
                 (self.pivots, self.loader_free[:, None], -1.0),
                 (self.working[..., None], labeled, -1.0),
                 (self.pivots[..., None], labeled[..., 1], self.half)]
        for routes in (self.cols, self.rows):
            if routes is not None:
                parts += routes.entries(nf)
        shaped = [np.broadcast_arrays(*part) for part in parts]
        # one column at a time, so that only one column's flat parts live at once
        return tuple(np.concatenate([part[c].ravel() for part in shaped]) for c in range(3))

    def labels(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(var, val) of the labeled columns: a digit's variable and value, or
        the index bit of an edge's level and the branch the edge takes."""
        var, val = np.zeros(count, dtype=np.intp), np.zeros(count, dtype=np.intp)
        at = self.loader_labeled.reshape(*self.digits.shape, 2)
        var[at], val[at] = self.digits[..., None] + 1, (0, 1)
        for routes in (self.cols, self.rows):
            if routes is not None:
                var[routes.edges] = routes.bits[..., routes.edge_level] + 1
                val[routes.edges] = routes.edge_child >> routes.edge_level
        return var, val


class CompiledProgram:
    """A low-level program, its layout, the index tables of the layout, which
    its build laid out (encode, decode and the lifts gather and scatter over
    them), and the source free basis it was built from, signed zeros and all,
    which the program's store, holding only nonzeros, does not keep."""

    def __init__(self, program: LowLevelProgram, layout: CompiledLayout, tables: _Tables, free_basis: np.ndarray):
        self.program = program
        self.layout = layout
        self.tables = tables
        self.free_basis = free_basis

    @cached_property
    def _source(self) -> HighLevelProgram:
        lay = self.layout
        return HighLevelProgram(space_dim=lay.n, num_inputs=lay.m, target=self.source_target(),
                                free_basis=self.free_basis, tol=self.program.tol)

    # -- encoding ------------------------------------------------------

    def _canonical(self, source):
        """An n x m input matrix as (slot values and slot rows by column,
        column lists by row), None where the mode lacks one; dense mode's
        slots are the rows.  A payload holds its column's nonzero rows and a
        row list its row's nonzero columns, each padded with the first unused
        indices."""
        lay = self.layout
        a = input_matrix(source, (lay.n, lay.m))
        if lay.mode == "dense":
            return a.T, None, None
        rows = _payload_rows(a, lay.k_nnz)
        return a[rows, np.arange(lay.m)[:, None]], rows, _row_lists(a, lay.l_nnz) if lay.l_nnz else None

    def _query(self, source):
        """(grid levels, slot rows, row lists) of an input."""
        values, rows, lists = self._canonical(source)
        return grid_levels(values, self.layout.precision), rows, lists

    def _bits(self, levels, rows, lists) -> np.ndarray:
        """The bits that encode (grid levels, slot rows, row lists)."""
        tab = self.tables
        bits = np.zeros(self.layout.num_vars, dtype=np.intp)
        bits[tab.digits] = levels[..., None] >> np.arange(self.layout.precision, -1, -1) & 1
        for routes, sel in ((tab.cols, rows), (tab.rows, lists)):
            if routes is not None:
                bits[routes.bits] = sel[..., None] >> np.arange(routes.bits.shape[-1]) & 1
        return bits

    def _read(self, bits: np.ndarray):
        """(grid levels, slot rows, row lists) that ``bits`` encode."""
        tab = self.tables
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
        return self._matrix(*self._read(bit_array(bits, self.layout.num_vars)))

    def quantize(self, source) -> np.ndarray:
        return self._matrix(*self._query(source))

    # -- embedded source program data: V is the first n coordinates ----

    def source_target(self) -> np.ndarray:
        return self.program.target[: self.layout.n]

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

    def lift_positive(self, source, w: np.ndarray | None = None) -> WitnessReport:
        """Lift a high-level positive witness: a decision-1 report of coefficients on the available columns.

        Digit vectors of loader j carry gamma_j * 2^(-a/2), its free vector
        gamma_j, each routing edge on a selected path the routed mass, and
        the carried free-basis columns the residual coefficients.
        """
        lay, tab = self.layout, self.tables
        bits, (levels, rows, lists), aq, w = self._lift_inputs(source, w, side=1)
        t, fbasis = self.source_target(), self.free_basis
        resid = t - aq @ w
        phi = fbasis.T @ resid
        # the source accepts a residual off t + F of up to tol |t|; the floor
        # 1e-6 leaves room for rounding at small tol
        if np.linalg.norm(resid - fbasis @ phi) > max(1e-6, self.program.tol) * (1.0 + np.linalg.norm(t)):
            raise ValueError("w is not a valid positive witness for the quantized input")
        # coefficients of every column of the store, written gadget by gadget;
        # the available ones are kept
        mask, nf = self.program.available_mask(bits), self.program.num_free
        full = np.zeros(mask.size)
        full[: lay.num_hl] = phi
        full[tab.loader_free] = w
        full[nf + tab.loader_labeled] = w[:, None] * tab.digit_scale
        if rows is not None:  # each payload slot carries its decoded entry times gamma_j
            tab.cols.carry(full, nf, rows, w[:, None] * (levels * 2.0**-lay.precision - 1.0))
        if lists is not None:  # mass arriving at each row-route root from its selected column
            tab.rows.carry(full, nf, lists, -(w[lists] * aq[np.arange(lay.n)[:, None], lists]))
        coeffs = full[mask]
        return WitnessReport(decision=1, size=float(coeffs @ coeffs), witness=coeffs)

    def lift_negative(self, source, wprime: np.ndarray | None = None) -> WitnessReport:
        """Lift a high-level negative witness: a decision-0 report of a vector on the compiled space.

        Scratch coordinates adopt the value of the leaf their routing chain
        reaches; row-scratch coordinates of unlisted columns, and interiors
        cut off by tree truncation, are set to zero.
        """
        lay, tab = self.layout, self.tables
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
        product = self.program.store_product(wt[:, None])[:, 0]
        return WitnessReport(decision=0, size=float(product @ product), witness=wt)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        lay = self.layout
        return {
            "source": source_json(lay.n, lay.m, self.source_target(), self.free_basis, self.program.tol),
            "encoder": {"mode": lay.mode, "k": lay.precision, "k_nnz": lay.k_nnz, "l_nnz": lay.l_nnz},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CompiledProgram":
        """Run the build on the stored source and encoder parameters; the
        source's free basis is not orthonormalized again, so the build repeats
        the one that wrote the file, and a basis that is not orthonormal is
        refused."""
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
        # compile writes orthonormal columns, which lift_positive relies on;
        # checked after the sizes, which bound this product's cost
        off = np.abs(free_basis.T @ free_basis - np.eye(free_basis.shape[1])).max(initial=0.0)
        if off > ORTHONORMAL_TOL:
            raise ValueError(f"source.free_basis is not orthonormal: F^T F is {off:.3g} off the identity "
                             f"(at most {ORTHONORMAL_TOL:g}); recompile the file from its high-level program")
        return _build(target, free_basis, tol, m, k, k_nnz, l_nnz)

    @classmethod
    def from_json(cls, text: str) -> "CompiledProgram":
        return cls.from_json_dict(json.loads(text))


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


# Most entries a store may hold: the cells the dense store of earlier
# versions could hold, so every store those built still builds (a store has
# no more entries than cells).  A build peaks at about 54 bytes per entry
# (87 MB at 1.6 million entries, sparse n = 256), about 0.9 GB at the cap.
# The encoder parameters of a compiled file are a few bytes that can ask for
# a store of any size; sparse n = m = 8 (k = 3, both budgets 3) has 1,784
# entries, n = 32 has 25,952 and n = 184 has 993,416.
MAX_STORE_ENTRIES = 2**24


def _check_params(n: int, m: int, precision: int, k_nnz: int | None, l_nnz: int | None, num_hl: int,
                  names=("space_dim", "num_inputs", "precision", "k_nnz", "l_nnz")) -> tuple[int, int, int, int]:
    """Check the build parameters, each error naming its field in ``names``,
    and return the (dim, num_vars, free, labeled, entries) counts of the
    program they compile to; past ``MAX_STORE_ENTRIES`` entries (the source
    basis, a loader's free vector on its working coordinates and pivots, -f_a
    per digit vector plus 2^(-a/2) for value 1, two per connector and edge)
    it is rejected."""
    check_precision(precision, names[2])
    for name, value, top in zip(names[3:], (k_nnz, l_nnz), (n, m)):
        if value is not None and not 1 <= value <= top:
            raise ValueError(f"{name} must be within [1, {top}], got {value}")
    dim, _, free, labeled = sizes = _layout_sizes(n, m, precision, k_nnz, l_nnz, num_hl)
    entries = (n - 2) * num_hl + m * ((k_nnz or n) - 2) + 2 * (free + labeled)
    if entries > MAX_STORE_ENTRIES:
        given = ", ".join(f"{name}={value}" for name, value in zip(names, (n, m, precision, k_nnz, l_nnz))
                          if value is not None)
        raise ValueError(f"{given} compile to a {dim} x {free + labeled} store of {entries} entries, "
                         f"past the cap of {MAX_STORE_ENTRIES}")
    return *sizes, entries


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
    """The construction behind every mode.

    V holds the target and the source free basis.  Loaders then fill the
    pivots of column j: V itself in dense mode (no ``k_nnz``), otherwise a
    payload block U_j of ``k_nnz`` slots.  Column routes send each payload
    slot to a leaf of V, or with a row stage (``l_nnz``) of a per-column
    scratch block W_j, from which per-row routes pull listed entries into V.
    The store is sized and capped before anything is allocated, and is the
    tables' nonzeros, sorted by column then row, as ``Columns``.
    """
    n, num_hl = len(target), free_basis.shape[1]
    mode = MODES[(k_nnz is not None) + (l_nnz is not None)]  # one mode per budget given
    dim, num_vars, nf, nl, _ = sizes = _check_params(n, m, precision, k_nnz, l_nnz, num_hl)
    tab = _Tables(n, m, precision, k_nnz, l_nnz, num_hl)
    rows, cols, vals = tab.entries(free_basis, nf)
    if (*tab.claimed, rows.size) != sizes:
        raise RuntimeError(f"the build claims (dim, num_vars, free, labeled, entries) = {(*tab.claimed, rows.size)}, "
                           f"the closed form gives {sizes}")
    full_target = np.zeros(dim)
    full_target[:n] = target  # V is the first n coordinates
    # one sort, by column then row; the zeros leave through its order, and
    # each sorted array replaces its source before the next is made
    order = np.lexsort((rows, cols))
    order = order[vals[order] != 0.0]
    cols = cols[order]
    rows = rows[order]
    vals = vals[order]
    del order
    store = Columns((dim, nf + nl), cols, rows, vals)
    program = LowLevelProgram.from_store(num_vars, full_target, store, nf, *tab.labels(nl), tol)
    layout = CompiledLayout(mode, n, m, precision, k_nnz, l_nnz, num_vars, num_hl)
    return CompiledProgram(program, layout, tab, free_basis)


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
