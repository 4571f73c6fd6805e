import itertools
import json

import numpy as np
import pytest

from spanforge.compiler import (
    MAX_STORE_ENTRIES,
    CompiledProgram,
    _check_params,
    _layout_sizes,
    compile_dense,
    compile_sparse,
    measure_overhead,
)
from spanforge.encoding import index_bit_width
from spanforge.errors import SparseFormatError
from spanforge.highlevel import HighLevelProgram
from spanforge.linalg import min_norm_solve
from spanforge.lowlevel import Columns, LowLevelProgram, fold_witness_sizes
from references import grid_values, row_lists_from_dense, sparse_columns_from_dense
from test_compiler_tables import reference_encode

RNG = np.random.default_rng(909)


def _hl(n, m, target=None, free=None, rng=None):
    if target is None:
        target = (rng or RNG).standard_normal(n)
    if free is None:
        free = np.zeros((n, 0))
    return HighLevelProgram(space_dim=n, num_inputs=m, target=target, free_basis=free)


def _grid_matrix(n, m, k, rng):
    vals = grid_values(k)
    return np.array(rng.choice(vals, size=(n, m)))


def _all_bits(num_vars):
    for assignment in range(2**num_vars):
        yield tuple((assignment >> i) & 1 for i in range(num_vars))


# ---------------------------------------------------------------------------
# gadget structure


def test_loader_vectors_smallest_case():
    prog = _hl(1, 1, target=[1.0])
    comp = compile_dense(prog, precision=0)
    ll = comp.program
    assert ll.dim == 2 and ll.num_vars == 1
    # coordinate 0 is the target pivot, coordinate 1 the working coord
    assert np.allclose(ll.free[0], [-1.0, 1.0])
    by_val = {val: vec for vec, _, val in ll.labeled}
    assert np.allclose(by_val[0], [0.0, -1.0])
    assert np.allclose(by_val[1], [1.0, -1.0])


def test_loader_digit_weights():
    prog = _hl(1, 1, target=[1.0])
    comp = compile_dense(prog, precision=2)
    tab = comp.tables
    for a in range(3):
        # slot 0's labeled vectors run by digit, then value 0 and 1
        vec, _, _ = comp.program.labeled[tab.loader_labeled[0, 2 * a + 1]]
        assert vec[0] == pytest.approx(2.0 ** (-a / 2.0), abs=1e-15)
        assert vec[tab.working[0, 0, a]] == -1.0
    free = comp.program.free[tab.loader_free[0]]
    assert free[0] == -1.0
    for a in range(3):
        assert free[tab.working[0, 0, a]] == pytest.approx(2.0 ** (-a / 2.0), abs=1e-15)


def test_route_tree_telescopes_to_leaf_minus_root():
    prog = _hl(4, 1, target=[1.0, 0.0, 0.0, 0.0])
    comp = compile_sparse(prog, k_nnz=1, precision=0, l_nnz=None)
    routes, root = comp.tables.cols, comp.tables.pivots[0, 0]
    assert routes.bits.shape == (1, 1, 2)
    assert routes.nodes.shape == (1, 1, 3)  # the root and two interior nodes
    assert routes.edges.shape == (1, 1, 6)
    for sel in range(4):
        total = np.zeros(comp.program.dim)
        for a in range(2):  # the edge at level a leaves node (a, sel mod 2^a) by bit a, to child sel mod 2^(a+1)
            idx = routes.edges[0, 0][(routes.edge_level == a) & (routes.edge_child == sel % (2 << a))]
            assert idx.shape == (1,)
            total += comp.program.labeled[idx[0]][0]
        expected = np.zeros(comp.program.dim)
        expected[sel] += 1.0  # leaf sel is coordinate sel of V
        expected[root] -= 1.0
        assert np.allclose(total, expected, atol=1e-15)


def test_route_tree_truncation_three_leaves():
    prog = _hl(3, 1, target=[1.0, 0.0, 0.0])
    comp = compile_sparse(prog, k_nnz=1, precision=0, l_nnz=None)
    routes, root = comp.tables.cols, comp.tables.pivots[0, 0]
    assert routes.bits.shape == (1, 1, 2)
    # node (1,1) is kept, leaf index 3 is not: 2 + 3 edges
    assert routes.edges.shape == (1, 1, 5)
    assert set(routes.edge_child[routes.edge_level == 1].tolist()) == {0, 1, 2}
    # from node (a, l) the selection's bits from level a on lead to leaf
    # l + (sel >> a << a): the root reaches leaves 0..2, and node (1, 1) leaves
    # the tree on selections 2 and 3; a node that leaves it takes the value 0
    (node11,) = routes.nodes[0, 0][(routes.node_level == 1) & (routes.node_index == 1)]
    for sel, root_value, node11_value in [(0, 1.0, 2.0), (1, 2.0, 2.0), (2, 3.0, 0.0), (3, 0.0, 0.0)]:
        wt = np.zeros(comp.program.dim)
        wt[routes.leaves[0, 0]] = [1.0, 2.0, 3.0]
        routes.spread(wt, np.array([[sel]]))
        assert (wt[root], wt[node11]) == (root_value, node11_value)


def test_route_single_leaf_degenerates_to_free_connector():
    prog = _hl(1, 1, target=[1.0])
    comp = compile_sparse(prog, k_nnz=1, precision=0, l_nnz=None)
    routes = comp.tables.cols
    assert routes.bits.shape == (1, 1, 0)
    assert routes.free is not None
    vec = comp.program.free[routes.free[0, 0]]
    assert vec[0] == 1.0 and vec[comp.tables.pivots[0, 0]] == -1.0  # leaf 0 of V, and the payload slot


def test_compile_is_deterministic():
    prog = _hl(3, 2, rng=np.random.default_rng(4))
    a = compile_sparse(prog, k_nnz=2, l_nnz=2, precision=1).to_json()
    b = compile_sparse(prog, k_nnz=2, l_nnz=2, precision=1).to_json()
    assert a == b


# ---------------------------------------------------------------------------
# encoding and decoding


def test_dense_encode_decode_roundtrip_on_grid():
    rng = np.random.default_rng(11)
    prog = _hl(3, 2, rng=rng)
    comp = compile_dense(prog, precision=2)
    for _ in range(20):
        a = _grid_matrix(3, 2, 2, rng)
        assert np.allclose(comp.quantize(a), a, atol=0)


def test_quantize_rounds_to_nearest():
    prog = _hl(2, 1, target=[1.0, 0.0])
    comp = compile_dense(prog, precision=1)
    a = np.array([[0.3], [-0.8]])
    assert np.allclose(comp.quantize(a), [[0.5], [-1.0]])


def test_sparse_cols_decode_out_of_range_zeroes_column():
    prog = _hl(3, 1, target=[1.0, 0.0, 0.0])
    comp = compile_sparse(prog, k_nnz=1, precision=0, l_nnz=None)
    lay = comp.layout
    bits = [0] * lay.num_vars
    digit, route_bits = comp.tables.digits[0, 0, 0], comp.tables.cols.bits[0, 0]
    # payload value 0 (digit bit 1 at k=0), routed out of range: harmless
    bits[digit] = 1
    bits[route_bits[0]] = 1
    bits[route_bits[1]] = 1  # selection 3 >= n = 3
    assert np.allclose(comp.decode(bits), 0.0)
    # payload value -1 (bit 0) with the same selection: column unusable
    bits[digit] = 0
    assert np.allclose(comp.decode(bits), 0.0)
    # in-range selection 2 carries the -1
    bits[route_bits[0]] = 0
    expected = np.zeros((3, 1))
    expected[2, 0] = -1.0
    assert np.allclose(comp.decode(bits), expected)


def test_decode_checks_its_bits():
    comp = compile_dense(_hl(1, 1, target=[1.0]), precision=1)
    assert np.array_equal(comp.decode([1, 0.0]), [[0.0]])
    with pytest.raises(ValueError, match="^input bit 1 must be 0 or 1, got 1.7$"):
        comp.decode([1.7, 0.2])
    with pytest.raises(ValueError, match="^input has 3 bits but the program has 2 variables$"):
        comp.decode("101")


def test_sparse_format_errors():
    a = np.array([[0.5, 0.0], [0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(SparseFormatError, match="column 1"):
        compile_sparse(_hl(3, 2, target=[1.0, 0.0, 0.0]), k_nnz=2, precision=1).encode(a)
    b = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(SparseFormatError, match="row 1"):
        compile_sparse(_hl(2, 2, target=[1.0, 0.0]), k_nnz=1, l_nnz=1, precision=1).encode(b)


def test_encode_takes_only_a_matrix():
    # (row, value) payloads and row lists describe a sparse input only as bits
    prog = _hl(2, 2, target=[1.0, 0.0])
    for comp in (compile_sparse(prog, k_nnz=1, precision=1), compile_sparse(prog, k_nnz=1, l_nnz=1, precision=1)):
        with pytest.raises(ValueError, match=r"^input matrix must be 2-D, got shape \(2, 1, 2\)$"):
            comp.encode([[(0, 0.5)], [(1, 0.5)]])
        with pytest.raises(ValueError, match="^input matrix must be an array of rows$"):
            comp.quantize({"columns": [[(0, 0.5)], [(1, 0.5)]], "rows": [[0], [1]]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_encode_rejects_nonfinite_entries(bad):
    prog = _hl(2, 2, target=[1.0, 0.0])
    a = [[0.5, 0.0], [0.0, bad]]
    for comp in (compile_dense(prog, precision=1), compile_sparse(prog, k_nnz=1, l_nnz=1, precision=1)):
        with pytest.raises(ValueError, match=r"entry \[1\]\[1\] is not finite"):
            comp.encode(a)


def test_canonical_padding_is_deterministic():
    a = np.array([[0.0, -0.5], [0.0, 0.0], [-1.0, 0.0]])
    cols = sparse_columns_from_dense(a, k_nnz=2)
    assert cols[0] == ((0, 0.0), (2, -1.0))
    assert cols[1] == ((0, -0.5), (1, 0.0))
    rows = row_lists_from_dense(a, l_nnz=2)
    assert rows == ((0, 1), (0, 1), (0, 1))
    # a dense matrix encodes as its padded description does
    comp = compile_sparse(_hl(3, 2, target=[1.0, 0.0, 0.0]), k_nnz=2, l_nnz=2, precision=1)
    assert comp.encode(a) == reference_encode(comp, columns=cols, rows=rows)


# ---------------------------------------------------------------------------
# decision equivalence, exhaustive over all assignments


@pytest.mark.parametrize("n,m,k", [(1, 1, 1), (2, 2, 1), (1, 2, 2), (2, 1, 2)])
def test_dense_equivalence_exhaustive(n, m, k):
    rng = np.random.default_rng(100 + n * 10 + m + k)
    prog = _hl(n, m, rng=rng)
    comp = compile_dense(prog, precision=k)
    mismatches = 0
    for bits in _all_bits(comp.layout.num_vars):
        if comp.program.evaluate(bits) != prog.evaluate(comp.decode(bits)):
            mismatches += 1
    assert mismatches == 0


@pytest.mark.parametrize("n,m,k_nnz,k", [(2, 1, 1, 1), (3, 1, 1, 0), (2, 2, 1, 0), (3, 2, 1, 0)])
def test_sparse_cols_equivalence_exhaustive(n, m, k_nnz, k):
    # includes n = 3 where a 2-bit index can point past the last row
    rng = np.random.default_rng(200 + n * 10 + m + k)
    prog = _hl(n, m, rng=rng)
    comp = compile_sparse(prog, k_nnz=k_nnz, precision=k, l_nnz=None)
    mismatches = 0
    for bits in _all_bits(comp.layout.num_vars):
        if comp.program.evaluate(bits) != prog.evaluate(comp.decode(bits)):
            mismatches += 1
    assert mismatches == 0


@pytest.mark.parametrize("n,m,k_nnz,l_nnz,k", [(2, 2, 1, 1, 0), (2, 3, 1, 1, 0)])
def test_sparse_equivalence_exhaustive(n, m, k_nnz, l_nnz, k):
    # m = 3 exercises row-list selections pointing past the last column
    rng = np.random.default_rng(300 + n * 10 + m)
    prog = _hl(n, m, rng=rng)
    comp = compile_sparse(prog, k_nnz=k_nnz, l_nnz=l_nnz, precision=k)
    mismatches = 0
    for bits in _all_bits(comp.layout.num_vars):
        if comp.program.evaluate(bits) != prog.evaluate(comp.decode(bits)):
            mismatches += 1
    assert mismatches == 0


def test_sparse_identity_behavior():
    prog = _hl(2, 2, target=[1.0, 1.0])
    comp = compile_sparse(prog, k_nnz=1, l_nnz=1, precision=0)
    eye_neg = -np.eye(2)
    assert comp.program.evaluate(comp.encode(eye_neg)) == 1
    assert np.allclose(comp.quantize(eye_neg), eye_neg)
    assert comp.program.evaluate(comp.encode(np.zeros((2, 2)))) == 0


# ---------------------------------------------------------------------------
# exact optimal witness sizes of compiled programs


def _dense_kappa(n, k):
    return n * (2.0 - 2.0**-k) + 1.0


def _pos_oracle(a, fbasis, t, kappas):
    scaled = a / np.sqrt(np.asarray(kappas))
    w = min_norm_solve(np.hstack([scaled, fbasis]), t)
    return float(w @ w)


@pytest.mark.parametrize("n,m,k,with_free", [(2, 2, 1, False), (3, 2, 0, False), (2, 3, 2, True)])
def test_dense_positive_optimum_closed_form(n, m, k, with_free):
    rng = np.random.default_rng(17 + n + m + k)
    fb = rng.standard_normal((n, 1)) if with_free else np.zeros((n, 0))
    found = 0
    while found < 6:
        a = _grid_matrix(n, m, k, rng)
        coeff = rng.standard_normal(m)
        t = a @ coeff
        if with_free:
            t = t + fb[:, 0] * rng.standard_normal()
        if np.linalg.norm(t) < 1e-6:
            continue
        prog = HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=fb)
        comp = compile_dense(prog, precision=k)
        rep = comp.program.positive_witness(comp.encode(a))
        expected = _pos_oracle(a, prog.free_basis, t, [_dense_kappa(n, k)] * m)
        assert rep.size == pytest.approx(expected, abs=1e-8, rel=1e-8)
        found += 1


@pytest.mark.parametrize("n,m,k", [(2, 1, 1), (3, 2, 0), (2, 2, 2)])
def test_dense_negative_optimum_closed_form(n, m, k):
    rng = np.random.default_rng(23 + n + m + k)
    found = 0
    while found < 6:
        a = _grid_matrix(n, m, k, rng)
        prog = _hl(n, m, rng=rng)
        if prog.evaluate(a):
            continue
        comp = compile_dense(prog, precision=k)
        rep = comp.program.negative_witness(comp.encode(a))
        expected = m * (2.0 - 2.0**-k) * prog.negative_witness(a).size
        assert rep.size == pytest.approx(expected, abs=1e-8, rel=1e-8)
        found += 1


def _sparse_cols_kappas(comp, a):
    lay = comp.layout
    values, _, _ = comp._canonical(a)
    width = index_bit_width(lay.n)
    route_cost = max(width, 1)
    kappas = []
    for j in range(lay.m):
        vals = values[j]
        quant = np.array([np.round((v + 1.0) * 2.0**lay.precision) for v in vals])
        qv = quant * 2.0**-lay.precision - 1.0
        kappas.append(
            lay.k_nnz * (2.0 - 2.0**-lay.precision) + 1.0 + route_cost * float(qv @ qv)
        )
    return kappas


@pytest.mark.parametrize("n,m,k_nnz,k", [(2, 2, 1, 1), (3, 2, 2, 0), (4, 2, 2, 1)])
def test_sparse_cols_positive_optimum_closed_form(n, m, k_nnz, k):
    rng = np.random.default_rng(31 + n + m + k)
    found = 0
    while found < 6:
        a = _grid_matrix(n, m, k, rng)
        # respect the per-column sparsity budget
        for j in range(m):
            nz = np.flatnonzero(a[:, j])
            for i in nz[k_nnz:]:
                a[i, j] = 0.0
        coeff = rng.standard_normal(m)
        t = a @ coeff
        if np.linalg.norm(t) < 1e-6:
            continue
        prog = HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=np.zeros((n, 0)))
        comp = compile_sparse(prog, k_nnz=k_nnz, precision=k, l_nnz=None)
        rep = comp.program.positive_witness(comp.encode(a))
        aq = comp.quantize(a)
        expected = _pos_oracle(aq, prog.free_basis, t, _sparse_cols_kappas(comp, a))
        assert rep.size == pytest.approx(expected, abs=1e-8, rel=1e-8)
        found += 1


@pytest.mark.parametrize("n,m,k_nnz,l_nnz,k", [(2, 2, 1, 2, 0), (3, 2, 2, 2, 1)])
def test_sparse_positive_optimum_closed_form(n, m, k_nnz, l_nnz, k):
    # canonical inputs force the whole routing chain, so the optimum has the
    # same weighted-column form with both route levels charged
    rng = np.random.default_rng(37 + n + m + k)
    found = 0
    while found < 6:
        a = _grid_matrix(n, m, k, rng)
        for j in range(m):
            nz = np.flatnonzero(a[:, j])
            for i in nz[k_nnz:]:
                a[i, j] = 0.0
        for i in range(n):
            nz = np.flatnonzero(a[i, :])
            for j in nz[l_nnz:]:
                a[i, j] = 0.0
        coeff = rng.standard_normal(m)
        t = a @ coeff
        if np.linalg.norm(t) < 1e-6:
            continue
        prog = HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=np.zeros((n, 0)))
        comp = compile_sparse(prog, k_nnz=k_nnz, l_nnz=l_nnz, precision=k)
        rep = comp.program.positive_witness(comp.encode(a))
        aq = comp.quantize(a)
        col_cost = max(index_bit_width(n), 1)
        row_cost = max(index_bit_width(m), 1)
        kappas = []
        for j in range(m):
            sq = float(aq[:, j] @ aq[:, j])
            kappas.append(k_nnz * (2.0 - 2.0**-k) + 1.0 + (col_cost + row_cost) * sq)
        expected = _pos_oracle(aq, prog.free_basis, t, kappas)
        assert rep.size == pytest.approx(expected, abs=1e-8, rel=1e-8)
        found += 1


def test_sparse_cols_negative_budget():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 8:
        n, m, k_nnz, k = 3, 2, 2, 1
        a = _grid_matrix(n, m, k, rng)
        for j in range(m):
            nz = np.flatnonzero(a[:, j])
            for i in nz[k_nnz:]:
                a[i, j] = 0.0
        prog = _hl(n, m, rng=rng)
        if prog.evaluate(a):
            continue
        comp = compile_sparse(prog, k_nnz=k_nnz, precision=k, l_nnz=None)
        rep = comp.program.negative_witness(comp.encode(a))
        wprime = prog.negative_witness(a).witness
        _, rows, _ = comp._canonical(a)
        loader_budget = sum(
            2.0 * wprime[c] ** 2 for j in range(m) for c in rows[j]
        )
        route_budget = m * k_nnz * (4.0 * index_bit_width(n) + 4.0) * float(wprime @ wprime)
        assert rep.size <= loader_budget + route_budget + 1e-9
        checked += 1


# ---------------------------------------------------------------------------
# witness lifting


@pytest.mark.parametrize("mode", ["dense", "sparse_cols", "sparse"])
def test_lift_positive_reaches_target(mode):
    rng = np.random.default_rng(51)
    n, m, k = 3, 2, 1
    a = _grid_matrix(n, m, k, rng)
    if mode != "dense":
        for j in range(m):
            nz = np.flatnonzero(a[:, j])
            for i in nz[2:]:
                a[i, j] = 0.0
    t = a @ np.array([0.7, -0.3])
    if np.linalg.norm(t) < 1e-6:
        t = a[:, 0] if np.linalg.norm(a[:, 0]) > 1e-6 else np.array([1.0, 0.0, 0.0])
    prog = HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=np.zeros((n, 0)))
    if mode == "dense":
        comp = compile_dense(prog, precision=k)
    elif mode == "sparse_cols":
        comp = compile_sparse(prog, k_nnz=2, precision=k, l_nnz=None)
    else:
        comp = compile_sparse(prog, k_nnz=2, l_nnz=2, precision=k)
    lifted, bits = comp.lift_positive(a), comp.encode(a)
    assert lifted.decision == 1
    avail = comp.program.available_vectors(bits)
    assert np.allclose(avail.toarray() @ lifted.witness, comp.program.target, atol=1e-9)
    opt = comp.program.positive_witness(bits).size
    assert lifted.size >= opt - 1e-9
    # the forced-structure argument makes the lift optimal
    assert lifted.size == pytest.approx(opt, abs=1e-8, rel=1e-8)


@pytest.mark.parametrize("mode", ["dense", "sparse_cols", "sparse"])
def test_lift_negative_is_valid_witness(mode):
    rng = np.random.default_rng(61)
    n, m, k = 3, 2, 1
    found = 0
    while found < 4:
        a = _grid_matrix(n, m, k, rng)
        if mode != "dense":
            for j in range(m):
                nz = np.flatnonzero(a[:, j])
                for i in nz[2:]:
                    a[i, j] = 0.0
        prog = _hl(n, m, rng=rng)
        if prog.evaluate(a):
            continue
        if mode == "dense":
            comp = compile_dense(prog, precision=k)
        elif mode == "sparse_cols":
            comp = compile_sparse(prog, k_nnz=2, precision=k, l_nnz=None)
        else:
            comp = compile_sparse(prog, k_nnz=2, l_nnz=2, precision=k)
        lifted, bits = comp.lift_negative(a), comp.encode(a)
        assert lifted.decision == 0
        avail = comp.program.available_vectors(bits)
        assert lifted.witness @ comp.program.target == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(avail.toarray().T @ lifted.witness, 0.0, atol=1e-9)
        opt = comp.program.negative_witness(bits).size
        assert lifted.size >= opt * (1.0 - 1e-9) - 1e-9
        found += 1


def test_lift_positive_accepts_supplied_witness():
    prog = _hl(2, 2, target=[1.0, 0.0])
    comp = compile_dense(prog, precision=0)
    a = np.array([[-1.0, 0.0], [0.0, -1.0]])
    w = np.array([-1.0, 0.0])
    lifted = comp.lift_positive(a, w=w)
    avail = comp.program.available_vectors(comp.encode(a))
    assert np.allclose(avail.toarray() @ lifted.witness, comp.program.target, atol=1e-12)
    with pytest.raises(ValueError, match="witness"):
        comp.lift_positive(a, w=np.array([5.0, 5.0]))


def test_lifts_fold_into_witness_sizes():
    # both lifts are WitnessReports, so the one witness fold reads them
    comp = compile_dense(_hl(2, 2, target=[1.0, 0.0]), precision=0)
    pos, neg = comp.lift_positive(-np.eye(2)), comp.lift_negative(np.zeros((2, 2)))
    assert (pos.decision, neg.decision) == (1, 0) and pos.size > 0.0 and neg.size > 0.0
    folded = fold_witness_sizes([("pos", pos), ("neg", neg)])
    assert (folded.wsize_1, folded.wsize_0) == (pos.size, neg.size)
    assert folded.per_input == (("pos", 1, pos.size), ("neg", 0, neg.size))


# ---------------------------------------------------------------------------
# serialization and overhead


@pytest.mark.parametrize("mode", ["dense", "sparse_cols", "sparse"])
def test_compiled_json_roundtrip(mode):
    rng = np.random.default_rng(71)
    prog = _hl(3, 2, rng=rng)
    if mode == "dense":
        comp = compile_dense(prog, precision=1)
    elif mode == "sparse_cols":
        comp = compile_sparse(prog, k_nnz=2, precision=1, l_nnz=None)
    else:
        comp = compile_sparse(prog, k_nnz=2, l_nnz=2, precision=1)
    back = CompiledProgram.from_json(comp.to_json())
    assert back.to_json() == comp.to_json()
    a = _grid_matrix(3, 2, 1, rng)
    if mode != "dense":
        for j in range(2):
            nz = np.flatnonzero(a[:, j])
            for i in nz[2:]:
                a[i, j] = 0.0
    assert back.encode(a) == comp.encode(a)
    assert np.allclose(back.decode(comp.encode(a)), comp.decode(comp.encode(a)))
    assert back.program.evaluate(back.encode(a)) == comp.program.evaluate(comp.encode(a))


@pytest.mark.parametrize("l_nnz", [None, 1, 2])
def test_layout_bits_cover_all_variables(l_nnz):
    # every variable is a loader digit or a route index bit, and only one
    prog = _hl(3, 2, rng=np.random.default_rng(81))
    comp = compile_sparse(prog, k_nnz=2, l_nnz=l_nnz, precision=1)
    lay, tab = comp.layout, comp.tables
    roles = {"col": tab.cols, "row": tab.rows}
    digits = tab.digits.ravel().tolist()
    index_bits = [v for routes in roles.values() if routes is not None for v in routes.bits.ravel().tolist()]
    assert sorted(digits + index_bits) == list(range(comp.program.num_vars))
    assert {role for role, routes in roles.items() if routes is not None and routes.bits.size} == (
        {"col"} if l_nnz is None else {"col", "row"})
    assert (lay.mode, lay.precision, lay.k_nnz, lay.l_nnz) == ("sparse_cols" if l_nnz is None else "sparse", 1, 2, l_nnz)


@pytest.mark.parametrize("mode", ["dense", "sparse_cols", "sparse"])
def test_layout_sizes_match_the_build(mode):
    # the closed form a build is checked against before it claims anything
    rng = np.random.default_rng(83)
    for n, m, k, nfree in [(1, 1, 0, 0), (2, 3, 1, 1), (3, 2, 2, 2), (5, 4, 1, 0), (4, 5, 0, 3), (8, 8, 3, 1)]:
        prog = _hl(n, m, free=rng.standard_normal((n, nfree)), rng=rng)
        if mode == "dense":
            comp = compile_dense(prog, precision=k)
        else:
            comp = compile_sparse(prog, k_nnz=min(2, n), precision=k, l_nnz=min(3, m) if mode == "sparse" else None)
        lay, p = comp.layout, comp.program
        sizes = _layout_sizes(n, m, k, lay.k_nnz, lay.l_nnz, nfree)
        assert sizes == (p.dim, p.num_vars, len(p.free), len(p.labeled))


@pytest.mark.parametrize("mode", ["dense", "sparse_cols", "sparse"])
def test_builder_hands_over_the_nonzero_pattern(mode):
    # zeros the build writes (here in the free basis) are left out, and a
    # compiled file rebuilds through the build too
    rng = np.random.default_rng(84)
    for n, m, k, nfree in [(2, 3, 1, 1), (3, 2, 2, 2), (4, 5, 0, 3)]:
        free = rng.standard_normal((n, nfree))
        free[0] = 0.0
        prog = _hl(n, m, free=free, rng=rng)
        if mode == "dense":
            comp = compile_dense(prog, precision=k)
        else:
            comp = compile_sparse(prog, k_nnz=min(2, n), precision=k, l_nnz=min(3, m) if mode == "sparse" else None)
        for p in (comp.program, CompiledProgram.from_json(comp.to_json()).program):
            for handed, derived in zip(p.store.entries, Columns.of(p.store.toarray()).entries):
                assert handed.tobytes() == derived.tobytes()
            count = np.bincount(p.store.cols, minlength=p.store.shape[1])
            assert p.store.indptr.tolist() == [0, *np.cumsum(count).tolist()]


def _two_vector_program(free_entry, var):
    """A program on dim 2 with one variable, one free and one labeled vector."""
    store = np.array([[1.0, 0.0], [free_entry, 1.0]], order="F")
    return LowLevelProgram.from_store(1, np.array([1.0, 0.0]), Columns.of(store), 1, np.array([var]), np.array([1]), 1e-9)


def test_builder_store_is_checked_naming_the_field(monkeypatch):
    prog = _two_vector_program(0.5, 1)
    assert (prog.evaluate("0"), prog.evaluate("1")) == (0, 1) and np.array_equal(prog.free[0], [1.0, 0.5])
    assert prog.labeled[0][1:] == (1, 1)
    with pytest.raises(ValueError, match=r"free\[0\]\[1\] is not finite: nan"):
        _two_vector_program(float("nan"), 1)
    with pytest.raises(ValueError, match=r"labeled\[0\]\.var=3 outside 1\.\.1"):
        _two_vector_program(0.5, 3)
    # counts that disagree with the closed form the store was sized from
    def one_more_coordinate(*args):
        dim, *rest = _layout_sizes(*args)
        return dim + 1, *rest

    monkeypatch.setattr("spanforge.compiler._layout_sizes", one_more_coordinate)
    with pytest.raises(RuntimeError, match="closed form"):
        compile_dense(_hl(2, 1, target=[1.0, 0.0]), precision=0)


def test_compile_past_the_store_cap_is_rejected():
    # n = m = 128 at k = 51 with both budgets 128 needs a 5,013,632 x
    # 10,027,136 store of 20,070,400 entries; n = m = 64 at k = 3 with
    # budgets 8, 266,752 entries
    past = f"precision=51.*store of 20070400 entries, past the cap of {MAX_STORE_ENTRIES}"
    with pytest.raises(ValueError, match=past):
        compile_sparse(_hl(128, 128, rng=np.random.default_rng(84)), k_nnz=128, l_nnz=128, precision=51)
    prog = _hl(64, 64, rng=np.random.default_rng(84))
    assert compile_sparse(prog, k_nnz=8, l_nnz=8, precision=3).program.store.data.size == 266752


def test_the_store_cap_counts_entries_and_takes_every_store_of_its_cells(monkeypatch):
    # the cap counts entries, and a store has no more entries than cells, so
    # every store of at most MAX_STORE_ENTRIES cells compiles: dense n = 1,100
    # with one input and a 1,000-column free basis has 7,042,200 cells and
    # 1,105,500 entries
    dim, _, free, labeled, entries = _check_params(1100, 1, 0, None, None, 1000)
    assert (dim * (free + labeled), entries) == (7042200, 1105500) and entries <= MAX_STORE_ENTRIES
    prog = _hl(3, 2, rng=np.random.default_rng(85), free=np.eye(3)[:, :1])
    size = _check_params(3, 2, 1, 2, 2, 1)[-1]
    monkeypatch.setattr("spanforge.compiler.MAX_STORE_ENTRIES", size)
    compile_sparse(prog, k_nnz=2, l_nnz=2, precision=1)  # at the cap
    monkeypatch.setattr("spanforge.compiler.MAX_STORE_ENTRIES", size - 1)
    with pytest.raises(ValueError, match=f"store of {size} entries, past the cap of {size - 1}"):
        compile_sparse(prog, k_nnz=2, l_nnz=2, precision=1)


@pytest.mark.parametrize("n", [20, 24])
def test_sparse_rank_programs_past_the_dense_store_cap_decide_as_their_source(n):
    """Sparse n = 20 (4,320 x 6,510) and n = 24 (5,280 x 8,388) have more
    store cells than a dense store could hold (2^24), and 13,220 and 17,064
    nonzeros: they compile, and decide an accepted and a rejected input as
    their source does, in ``evaluate`` and in ``witness``."""
    from spanforge.programs import build_rank_program
    from test_peel_reference import _rank_queries

    rng = np.random.default_rng(n)
    hl = build_rank_program(n, n, n // 2, rng)
    comp = compile_sparse(hl, k_nnz=3, l_nnz=3, precision=3)
    prog = comp.program
    assert prog.dim * prog.store.shape[1] > 2**24
    for a, expected in zip(_rank_queries(n, 3, 3, rng), (1, 0)):
        bits = comp.encode(a)
        assert hl.evaluate(comp.quantize(a)) == expected
        assert prog.evaluate(bits) == prog.witness(bits).decision == expected


def test_measure_overhead_closed_form_no_free_basis():
    # with no free subspace both witness sizes scale by input-independent
    # factors, so the combined ratio has a closed form
    for n, m in [(1, 1), (2, 2), (3, 2)]:
        k = 1
        t = np.zeros(n)
        t[0] = 1.0
        prog = HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=np.zeros((n, 0)))
        comp = compile_dense(prog, precision=k)
        accept = np.zeros((n, m))
        accept[0, 0] = -1.0
        reject = np.zeros((n, m))
        if n > 1:
            reject[1, 0] = -1.0
        report = measure_overhead(prog, comp, [accept, reject])
        expected = np.sqrt(m * (2.0 - 2.0**-k) * (n * (2.0 - 2.0**-k) + 1.0))
        assert report.ratio == pytest.approx(expected, abs=1e-9, rel=1e-9)
        assert report.ratio >= 1.0


def test_measure_overhead_requires_both_sides():
    prog = _hl(2, 1, target=[1.0, 0.0])
    comp = compile_dense(prog, precision=0)
    accept = np.array([[-1.0], [0.0]])
    with pytest.raises(ValueError, match="family"):
        measure_overhead(prog, comp, [accept])


def test_compile_parameter_validation():
    prog = _hl(2, 2, target=[1.0, 0.0])
    with pytest.raises(ValueError, match="k_nnz"):
        compile_sparse(prog, k_nnz=3, precision=0, l_nnz=None)
    with pytest.raises(ValueError, match="l_nnz"):
        compile_sparse(prog, k_nnz=1, l_nnz=3, precision=0)
    with pytest.raises(ValueError, match="precision"):
        compile_dense(prog, precision=-1)


def test_compiled_json_missing_fields():
    prog = _hl(2, 1, target=[1.0, 0.0])
    comp = compile_dense(prog, precision=0)
    data = json.loads(comp.to_json())
    del data["encoder"]
    with pytest.raises(ValueError, match="encoder"):
        CompiledProgram.from_json_dict(data)
