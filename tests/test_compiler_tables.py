"""Encode, decode and the witness lifts against per-entry references.

``CompiledProgram`` runs these steps as array gathers over index tables of
its layout.  The references here read and write one fixed-point or index
code at a time (``references``), and read the variables of each (column,
slot) or (row, slot) from the tables.
"""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spanforge.compiler import compile_dense, compile_sparse
from spanforge.encoding import grid_levels, index_bit_width
from spanforge.errors import SparseFormatError
from spanforge.highlevel import HighLevelProgram
from spanforge.programs import build_rank_program
from references import bits_index, digits_value, index_bits, level_digits, padded
from test_acceptance import criterion_03_programs

MODES = ("dense", "sparse_cols", "sparse")


def _compile(mode, prog, k, k_nnz=None, l_nnz=None):
    if mode == "dense":
        return compile_dense(prog, precision=k)
    return compile_sparse(prog, k_nnz=k_nnz, precision=k, l_nnz=l_nnz if mode == "sparse" else None)


# ---------------------------------------------------------------------------
# per-entry references


def reference_decode(comp, bits):
    """The matrix ``bits`` stand for, read one code at a time: a column whose
    nonzero payload is routed out of range, or into a row whose list does not
    name it, contributes nothing."""
    lay, tab = comp.layout, comp.tables
    bits = tuple(int(b) for b in bits)

    def real(j, slot):
        return digits_value([bits[v] for v in tab.digits[j, slot]])

    def index(routes, owner, slot):
        return bits_index([bits[v] for v in routes.bits[owner, slot]])

    out = np.zeros((lay.n, lay.m))
    if lay.mode == "dense":
        for j in range(lay.m):
            for i in range(lay.n):
                out[i, j] = real(j, i)
        return out
    listed = [set() for _ in range(lay.n)] if lay.mode == "sparse" else None
    for i in range(lay.n if listed is not None else 0):
        for slot in range(lay.l_nnz):
            if (sel := index(tab.rows, i, slot)) < lay.m:
                listed[i].add(sel)
    for j in range(lay.m):
        slots = []
        for slot in range(lay.k_nnz):
            value, sel = real(j, slot), index(tab.cols, j, slot)
            if value != 0.0 and (sel >= lay.n or listed is not None and j not in listed[sel]):
                break
            slots.append((sel, value))
        else:
            for sel, value in slots:
                if sel < lay.n:
                    out[sel, j] += value
    return out


def reference_encode(comp, a=None, columns=None, rows=None):
    """Bits of a dense matrix ``a`` or of explicit ``columns`` payloads (lists
    of (row, value)) and ``rows`` lists, one code at a time."""
    lay, tab = comp.layout, comp.tables
    bits = [0] * lay.num_vars

    def put(var_ids, code):
        for v, b in zip(var_ids, code, strict=True):
            bits[v] = b

    def real(x):
        return level_digits(int(grid_levels(x, lay.precision)), lay.precision)

    if lay.mode == "dense":
        for j in range(lay.m):
            for i in range(lay.n):
                put(tab.digits[j, i], real(float(a[i, j])))
        return tuple(bits)
    if columns is None:
        columns = [[(i, a[i, j]) for i in range(lay.n) if a[i, j] != 0] for j in range(lay.m)]
        rows = [[j for j in range(lay.m) if a[i, j] != 0] for i in range(lay.n)]
    for j, payload in enumerate(columns):
        values = dict(payload)
        for slot, r in enumerate(padded([r for r, _ in payload], lay.n, lay.k_nnz)):
            put(tab.digits[j, slot], real(float(values.get(r, 0.0))))
            put(tab.cols.bits[j, slot], index_bits(r, index_bit_width(lay.n)))
    for i, cols in enumerate(rows if lay.mode == "sparse" else ()):
        for slot, c in enumerate(padded(cols, lay.m, lay.l_nnz)):
            put(tab.rows.bits[i, slot], index_bits(c, index_bit_width(lay.m)))
    return tuple(bits)


PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# decode


def test_decode_matches_the_reference_on_every_assignment_of_criterion_03():
    assignments = 0
    for _, comp in criterion_03_programs():
        for assignment in range(2**comp.layout.num_vars):
            bits = tuple((assignment >> i) & 1 for i in range(comp.layout.num_vars))
            got, expected = comp.decode(bits), reference_decode(comp, bits)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (comp.layout.mode, bits)
            assignments += 1
    assert assignments == 22696


def test_decode_matches_the_reference_on_random_sparse_bit_strings():
    # most strings route some nonzero payload out of range or into a row that
    # does not list its column
    rng = np.random.default_rng(17)
    comp = compile_sparse(build_rank_program(8, 8, 4, rng), k_nnz=3, l_nnz=3, precision=3)
    unusable = 0
    for _ in range(400):
        bits = tuple(rng.integers(0, 2, comp.layout.num_vars).tolist())
        got, expected = comp.decode(bits), reference_decode(comp, bits)
        assert got.tobytes() == expected.tobytes()
        unusable += int(np.count_nonzero(expected.any(axis=0)) < comp.layout.m)
    assert unusable > 0


# ---------------------------------------------------------------------------
# encode


@functools.lru_cache(maxsize=None)
def _program(mode, n, m, k, k_nnz, l_nnz):
    rng = np.random.default_rng([n, m, k])
    prog = HighLevelProgram(space_dim=n, num_inputs=m, target=rng.standard_normal(n), free_basis=np.zeros((n, 0)))
    return _compile(mode, prog, k, k_nnz, l_nnz)


def _entries(k):
    """Grid values, exact ties between grid neighbours, values off the grid,
    values past either end that clamp, and signed zeros."""
    top = 2 ** (k + 1) - 1
    return st.one_of(
        st.integers(0, top).map(lambda level: level * 2.0**-k - 1.0),
        st.integers(-1, top).map(lambda level: (level + 0.5) * 2.0**-k - 1.0),
        st.floats(-1.0, 1.0),
        st.floats(1.0, 1e100) | st.floats(-1e100, -1.0),
        st.sampled_from([0.0, -0.0]),
    )


def _spare(draw, listed, size, budget):
    """``listed`` indices plus some unused ones, within ``budget``, shuffled."""
    spare = [i for i in range(size) if i not in listed]
    extra = draw(st.integers(0, min(len(spare), budget - len(listed))))
    return draw(st.permutations(listed + draw(st.permutations(spare))[:extra]))


@st.composite
def encoded_inputs(draw):
    """A compiled program, a matrix within its budgets, and the same matrix as
    explicit payloads and row lists, some padded with zero entries or extra
    listed columns."""
    mode = draw(st.sampled_from(MODES))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.sampled_from([0, 1, 3, 51]))
    k_nnz = draw(st.integers(1, n)) if mode != "dense" else None
    l_nnz = draw(st.integers(1, m)) if mode == "sparse" else None
    comp = _program(mode, n, m, k, k_nnz, l_nnz)
    a = np.array(draw(st.lists(_entries(k), min_size=n * m, max_size=n * m))).reshape(n, m)
    if mode == "dense":
        return comp, a, None, None
    for j in range(m):
        a[np.flatnonzero(a[:, j])[k_nnz:], j] = 0.0
    for i in range(n if l_nnz else 0):
        a[i, np.flatnonzero(a[i])[l_nnz:]] = 0.0
    columns = [[(i, float(a[i, j])) for i in _spare(draw, np.flatnonzero(a[:, j]).tolist(), n, k_nnz)]
               for j in range(m)]
    rows = [_spare(draw, np.flatnonzero(a[i]).tolist(), m, l_nnz) for i in range(n)] if l_nnz else None
    return comp, a, columns, rows


@PROPERTY_SETTINGS
@given(encoded_inputs())
def test_encode_matches_the_reference(case):
    comp, a, columns, rows = case
    bits = comp.encode(a)
    assert bits == reference_encode(comp, a)
    assert all(type(b) is int for b in bits)
    assert comp.quantize(a).tobytes() == reference_decode(comp, bits).tobytes()
    if columns is None:
        return
    # canonical row lists never repeat a column, so a row route carries each
    # listed column's mass once
    for route_bits in comp.tables.rows.bits if rows is not None else ():
        listed = [bits_index([bits[v] for v in slot]) for slot in route_bits]
        assert listed == sorted(set(listed))
    # a padded description that is not canonical is still an input, as bits
    other = reference_encode(comp, columns=columns, rows=rows)
    assert comp.decode(other).tobytes() == reference_decode(comp, other).tobytes() == comp.quantize(a).tobytes()


def test_over_budget_inputs_name_the_first_column_then_row():
    prog = HighLevelProgram(space_dim=3, num_inputs=3, target=[1.0, 0.0, 0.0], free_basis=np.zeros((3, 0)))
    comp = compile_sparse(prog, k_nnz=2, l_nnz=2, precision=1)
    column = "column 2 has 3 entries, the payload holds 2"
    row = "row 1 lists 3 columns, the row list holds 2"
    # columns 2 and 3 are over budget, and row 1 too: the first column is named
    a = np.array([[0.5, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    b = np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    for source, message in [
        (a, column),
        (b, row),
    ]:
        with pytest.raises(SparseFormatError) as err:
            comp.encode(source)
        assert str(err.value) == message
    cols_only = compile_sparse(prog, k_nnz=2, precision=1)
    with pytest.raises(SparseFormatError, match=f"^{column}$"):
        cols_only.encode(a)


@pytest.mark.parametrize("mode", ["dense", "sparse_cols"])
def test_a_program_without_input_columns_encodes_decodes_and_lifts(mode):
    prog = HighLevelProgram(space_dim=2, num_inputs=0, target=[1.0, 0.0], free_basis=[[1.0], [0.0]])
    comp = _compile(mode, prog, 1, 1)
    for a in (np.zeros((2, 0)), [[], []]):
        assert comp.encode(a) == ()
        assert comp.decode(()).shape == comp.quantize(a).shape == (2, 0)
        assert comp.lift_positive(a).size == 1.0


# ---------------------------------------------------------------------------
# lifts


def _rank_inputs(mode, n, r, rng):
    """On the grid at k = 3 and off it: a random matrix and a copy with only
    its first r - 1 columns kept, so the rank program rejects it.  Sparse
    matrices are a union of three permutation patterns."""
    out = []
    for off_grid in (False, True):
        def draw(size):
            return rng.uniform(-1.1, 1.1, size) if off_grid else rng.integers(-8, 8, size) / 8.0

        if mode == "dense":
            a = draw((n, n))
        else:
            a = np.zeros((n, n))
            for _ in range(3):
                a[np.arange(n), rng.permutation(n)] = draw(n)
        low = a.copy()
        low[:, r - 1 :] = 0.0
        out += [a, low]
    return out


# SHA-256 over (bits, coefficients or vector, size) of each lift, as
# little-endian int64 / float64 bytes and the size in float.hex().  The
# table-driven encode, decode and lifts give the bytes of the per-entry
# implementation they replaced; a negative lift's size sums |S^T w|^2 over
# the store's entry list (store_product).  The high-level witnesses lifted
# come from the one SVD of [A - F F^T A, F] (HighLevelProgram._decide).
PINNED_LIFTS = [
    ("dense", 6, "a8e10dde9ddc07f7e96027a04d25600a987cd6fed631ddc4f97499fd49e71687",
     "445592ebd758bb4e44cb1b40aa1afcc5cc947d409399297dde4d9ff7b333e9ee"),
    ("dense", 8, "722dc10db93d413555b1c1f785624c95a5f723745c7f957cd64a9f758caf890f",
     "bfc8689dfbee0619f3644f20b8121fa4053031bc74604f025bf4d6f76e3e5111"),
    ("sparse", 8, "d16ac1f52ccad4c1a3e0fd5731acdc46bd9febd1502bc8d133604e7d55143aec",
     "fbfb8526fee8ef40b45c61341bf11dcd0aeefa48353b3f76bc387898002669d0"),
]


def test_lifts_are_pinned_on_the_rank_programs():
    programs = np.random.default_rng([7, 1])
    inputs = np.random.default_rng(7)
    for mode, n, pos_digest, neg_digest in PINNED_LIFTS:
        hl = build_rank_program(n, n, n // 2, programs)
        comp = _compile(mode, hl, 3, 3, 3)
        digests, sides = {1: hashlib.sha256(), 0: hashlib.sha256()}, []
        for a in _rank_inputs(mode, n, n // 2, inputs):
            side = hl.evaluate(comp.quantize(a))
            lifted = comp.lift_positive(a) if side else comp.lift_negative(a)
            h = digests[side]
            sides.append(side)
            h.update(np.array(comp.encode(a), dtype="<i8").tobytes())
            h.update(lifted.witness.astype("<f8").tobytes())
            h.update(float(lifted.size).hex().encode())
        assert sides == [1, 0, 1, 0]
        assert (digests[1].hexdigest(), digests[0].hexdigest()) == (pos_digest, neg_digest)


@pytest.mark.parametrize("tol", [1e-4, 1e-2])
@pytest.mark.parametrize("mode", MODES)
def test_lift_positive_takes_a_witness_the_source_accepts_at_its_tol(mode, tol):
    # the target lies off span(A) + F by 0.45 tol, within tol |t|, so the
    # source accepts A and its witness leaves that residual
    t = [0.5, 0.75, 0.45 * tol]
    prog = HighLevelProgram(space_dim=3, num_inputs=1, target=t, free_basis=[[0.0], [1.0], [0.0]], tol=tol)
    comp = _compile(mode, prog, 3, 1, 1)
    a = np.array([[0.5], [0.0], [0.0]])
    assert prog.evaluate(comp.quantize(a)) == 1
    lifted, bits = comp.lift_positive(a), comp.encode(a)
    avail = comp.program.available_vectors(bits).toarray()
    residual = np.linalg.norm(avail @ lifted.witness - comp.program.target)
    assert residual == pytest.approx(0.45 * tol, rel=1e-9)
    assert comp.program.evaluate(bits) == 1
