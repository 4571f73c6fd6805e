"""Encode, decode and the witness lifts against per-entry references.

``CompiledProgram`` runs these steps as array gathers over index tables of
its layout.  The references here read and write one fixed-point or index
code at a time, through ``FixedPointCode``/``IntegerCode`` and the gadget
records, as the compiler did before the tables.
"""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spanforge.compiler import compile_dense, compile_sparse
from spanforge.encoding import FixedPointCode, IntegerCode, encode_int, encode_real
from spanforge.errors import SparseFormatError
from spanforge.highlevel import HighLevelProgram
from spanforge.programs import build_rank_program
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
    lay = comp.layout
    bits = tuple(int(b) for b in bits)

    def real(var_ids):
        return FixedPointCode(precision=lay.precision, bits=tuple(bits[v] for v in var_ids)).value

    def index(rec):
        return IntegerCode(width=rec.width, bits=tuple(bits[v] for v in rec.bit_vars)).value

    out = np.zeros((lay.n, lay.m))
    if lay.mode == "dense":
        for rec in lay.loaders:
            for i in range(lay.n):
                out[i, rec.column - 1] = real(rec.digit_vars[i])
        return out
    listed = [set() for _ in range(lay.n)] if lay.mode == "sparse" else None
    for rec in lay.routes:
        if rec.role == "row" and (sel := index(rec)) < len(rec.leaves):
            listed[rec.owner - 1].add(sel)
    route_of = {(r.owner, r.slot): r for r in lay.routes if r.role == "col"}
    for rec in lay.loaders:
        j = rec.column
        slots = []
        for i in range(lay.k_nnz):
            value, sel = real(rec.digit_vars[i]), index(route_of[(j, i + 1)])
            if value != 0.0 and (sel >= lay.n or listed is not None and (j - 1) not in listed[sel]):
                break
            slots.append((sel, value))
        else:
            for sel, value in slots:
                if sel < lay.n:
                    out[sel, j - 1] += value
    return out


def _padded(used, size, budget):
    """``used`` indices plus the first unused ones, ``budget`` in all, sorted."""
    return sorted(list(used) + [i for i in range(size) if i not in used][: budget - len(used)])


def reference_encode(comp, a=None, columns=None, rows=None):
    """Bits of a dense matrix ``a`` or of explicit ``columns`` payloads (lists
    of (row, value)) and ``rows`` lists, one code at a time."""
    lay = comp.layout
    bits = [0] * lay.num_vars

    def put(var_ids, code):
        for v, b in zip(var_ids, code.bits):
            bits[v] = b

    if lay.mode == "dense":
        for rec in lay.loaders:
            for i in range(lay.n):
                put(rec.digit_vars[i], encode_real(float(a[i, rec.column - 1]), lay.precision))
        return tuple(bits)
    if columns is None:
        columns = [[(i, a[i, j]) for i in range(lay.n) if a[i, j] != 0] for j in range(lay.m)]
        rows = [[j for j in range(lay.m) if a[i, j] != 0] for i in range(lay.n)]
    slots = []
    for payload in columns:
        values = dict(payload)
        slots.append([(r, values.get(r, 0.0)) for r in _padded([r for r, _ in payload], lay.n, lay.k_nnz)])
    lists = [_padded(cols, lay.m, lay.l_nnz) for cols in rows] if lay.mode == "sparse" else None
    for rec in lay.loaders:
        for i, (_, value) in enumerate(slots[rec.column - 1]):
            put(rec.digit_vars[i], encode_real(float(value), lay.precision))
    for rec in lay.routes:
        sel = slots[rec.owner - 1][rec.slot - 1][0] if rec.role == "col" else lists[rec.owner - 1][rec.slot - 1]
        put(rec.bit_vars, encode_int(sel, len(rec.leaves)))
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
    expected = reference_encode(comp, columns=columns, rows=rows)
    if rows is None:
        assert comp.encode(columns) == expected
        assert comp.encode({"columns": columns}) == expected
    else:
        assert comp.encode({"columns": columns, "rows": rows}) == expected


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
        ({"columns": [[], [(0, 0.5), (1, 0.5), (2, 0.5)], []], "rows": [[], [], []]}, column),
        ({"columns": [[(0, 0.5)], [(0, 0.5)], [(0, 0.5)]], "rows": [[0, 1, 2], [], []]}, row),
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
    a = np.zeros((2, 0))
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


def test_lift_positive_carries_a_column_listed_twice_once():
    # row 1's list names column 1 twice: its mass arrives on the first route
    # only, or the lifted coefficients would load the entry twice
    prog = HighLevelProgram(space_dim=2, num_inputs=2, target=[1.0, 0.0], free_basis=np.zeros((2, 0)))
    comp = compile_sparse(prog, k_nnz=1, l_nnz=2, precision=0)
    source = {"columns": [[(0, -1.0)], [(1, -1.0)]], "rows": [[0, 0], [1, 1]]}
    lifted = comp.lift_positive(source)
    avail = comp.program.available_vectors(lifted.bits).matrix
    assert np.allclose(avail @ lifted.coefficients, comp.program.target, atol=1e-12)


# SHA-256 over (bits, coefficients or vector, size) of each lift, as
# little-endian int64 / float64 bytes and the size in float.hex(), taken from
# the per-entry implementation of encode, decode and the lifts.
PINNED_LIFTS = [
    ("dense", 6, "26e9b33605cab8f3f9a9d5b2f7e30bc35790623cdf712350179ca2181fcfbe4c",
     "8d1fea02aea7e7f205d50c99d95e7d17e3b95fa7560719bb98d1dbfa4e32830e"),
    ("dense", 8, "df1c6c05f03c68df0f8bc92bd81b2ef1c3fda5207753b8eb5619146c9546d3a1",
     "19422880dc9fbce3b4ef6928a63f886c602bee74fafd96ec20ede379415dbb15"),
    ("sparse", 8, "aa07fea5ef6d29a443fe3089d9623f30cacc79f845271d9fb2735de72ffca8f5",
     "4ccdeaa809d3013947dd9c3ff66589dde5b14ce7431077dd678d0339432ecab5"),
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
            h.update(np.array(lifted.bits, dtype="<i8").tobytes())
            h.update((lifted.coefficients if side else lifted.vector).astype("<f8").tobytes())
            h.update(float(lifted.size).hex().encode())
        assert sides == [1, 0, 1, 0]
        assert (digests[1].hexdigest(), digests[0].hexdigest()) == (pos_digest, neg_digest)
