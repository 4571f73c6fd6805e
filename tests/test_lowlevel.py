import json
import warnings

import numpy as np
import pytest

from spanforge.compiler import compile_sparse
from spanforge.errors import NoNegativeWitness, NoPositiveWitness, ZeroConstraint
from spanforge.linalg import DEFAULT_TOL, in_span, min_norm_solve
from spanforge.lowlevel import (
    Columns,
    LowLevelProgram,
    Peel,
    normalize_bits,
    wsize_over_domain,
)
from spanforge.programs import build_rank_program

RNG = np.random.default_rng(77)


def _one_hot_program():
    """Target e_1 in R^2; variable 1 selects between e_1 (val 1) and e_2 (val 0)."""
    return LowLevelProgram(
        dim=2,
        num_vars=1,
        target=[1.0, 0.0],
        free=(),
        labeled=(([1.0, 0.0], 1, 1), ([0.0, 1.0], 1, 0)),
    )


def test_normalize_bits_forms():
    assert normalize_bits("101", 3) == (1, 0, 1)
    assert normalize_bits([1, 0, 1], 3) == (1, 0, 1)
    assert normalize_bits((0,), 1) == (0,)


def test_normalize_bits_errors():
    with pytest.raises(ValueError):
        normalize_bits("10", 3)
    with pytest.raises(ValueError):
        normalize_bits("102", 3)
    with pytest.raises(ValueError):
        normalize_bits([2, 0], 2)


def test_normalize_bits_accepts_only_zero_and_one():
    assert normalize_bits([True, 0.0, np.int8(1)], 3) == (1, 0, 1)
    assert normalize_bits(b"01", 2) == (0, 1)
    for x, message in [
        ([1.7, 0.2], "input bit 1 must be 0 or 1, got 1.7"),
        ([1, 0.2], "input bit 2 must be 0 or 1, got 0.2"),
        ("\uff11\u0660", "input bit 1 must be 0 or 1, got '\uff11'"),
        ("1 ", "input bit 2 must be 0 or 1, got ' '"),
        (["1", "0"], "input bit 1 must be 0 or 1, got '1'"),
        ("101", "input has 3 bits but the program has 2 variables"),
    ]:
        with pytest.raises(ValueError) as err:
            normalize_bits(x, 2)
        assert str(err.value) == message


def test_evaluate_one_hot():
    prog = _one_hot_program()
    assert prog.evaluate("1") == 1
    assert prog.evaluate("0") == 0


def test_positive_witness_counts_free_coefficients():
    # free column and labeled column both reach the 1-dim target; the
    # minimal combination splits mass across both, and both count
    prog = LowLevelProgram(
        dim=1, num_vars=1, target=[2.0], free=([1.0],), labeled=(([1.0], 1, 1),)
    )
    rep = prog.positive_witness("1")
    assert rep.decision == 1
    assert rep.size == pytest.approx(2.0, abs=1e-9)  # w = (1, 1)
    rep0 = prog.positive_witness("0")
    assert rep0.size == pytest.approx(4.0, abs=1e-9)  # free alone carries 2


def test_positive_witness_duplicate_columns_split():
    prog = LowLevelProgram(
        dim=1, num_vars=1, target=[1.0], free=(), labeled=(([1.0], 1, 1), ([1.0], 1, 1))
    )
    rep = prog.positive_witness("1")
    assert rep.size == pytest.approx(0.5, abs=1e-9)


def test_positive_witness_requires_acceptance():
    prog = _one_hot_program()
    with pytest.raises(NoPositiveWitness):
        prog.positive_witness("0")


def test_negative_witness_values():
    prog = _one_hot_program()
    rep = prog.negative_witness("0")
    assert rep.decision == 0
    assert rep.size == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(rep.witness, [1.0, 0.0], atol=1e-9)
    assert rep.witness @ prog.target == pytest.approx(1.0, abs=1e-12)


def test_negative_witness_counts_unavailable_scale():
    # unavailable labeled vector is 2 e_1, so the witness pays (2 <w',e_1>)^2
    prog = LowLevelProgram(
        dim=2, num_vars=1, target=[1.0, 0.0], free=(),
        labeled=(([2.0, 0.0], 1, 1), ([0.0, 1.0], 1, 0)),
    )
    rep = prog.negative_witness("0")
    assert rep.size == pytest.approx(4.0, abs=1e-9)


def test_negative_witness_orthogonal_to_free():
    prog = LowLevelProgram(
        dim=2, num_vars=1, target=[1.0, 0.0], free=([0.0, 1.0],),
        labeled=(([1.0, 0.0], 1, 1),),
    )
    rep = prog.negative_witness("0")
    assert np.allclose(rep.witness, [1.0, 0.0], atol=1e-9)
    assert rep.size == pytest.approx(1.0, abs=1e-9)


def test_negative_witness_requires_rejection():
    prog = _one_hot_program()
    with pytest.raises(NoNegativeWitness):
        prog.negative_witness("1")


def test_empty_available_set_rejects():
    prog = LowLevelProgram(
        dim=2, num_vars=1, target=[0.0, 3.0], free=(), labeled=(([0.0, 1.0], 1, 1),)
    )
    assert prog.evaluate("0") == 0
    rep = prog.negative_witness("0")
    # w' = t / ||t||^2; the only (unavailable) column pays <w', e_2>^2 = 1/9
    assert rep.size == pytest.approx(1.0 / 9.0, abs=1e-9)


def test_a_block_of_full_row_rank_has_no_negative_witness():
    """The kept block of an accepted input of the compiled sparse n = 8 rank
    program has full row rank, so the complement of its span is empty and
    N^T t is 0.  A rejection there (at tol 0, by rounding alone) would ask
    for a negative witness on it: ``_negative`` refuses, naming the
    tolerance."""
    comp = compile_sparse(build_rank_program(8, 8, 4, np.random.default_rng(8)), k_nnz=3, l_nnz=3, precision=3)
    prog = comp.program
    peel, dec, decision = prog._decide(comp.encode(np.eye(8) * 0.5), prog.tol)
    assert decision == 1 and peel.rounds and dec.rank == peel.block.shape[0]
    with pytest.raises(ZeroConstraint, match="no negative witness at tol 1e-09"):
        prog._negative(peel, dec, prog.tol)


def test_an_accepted_witness_does_not_hold_the_lift_work_array():
    """The accepted input of the compiled sparse n = 8 rank program peels with
    merges, so ``Peel.lift`` carries the solution and the null space through
    them in one (available columns) x (1 + nullity) array.  The report holds
    its own copy of the solution, not a view that keeps that array alive."""
    comp = compile_sparse(build_rank_program(8, 8, 4, np.random.default_rng(8)), k_nnz=3, l_nnz=3, precision=3)
    prog, bits = comp.program, comp.encode(np.eye(8) * 0.5)
    assert prog._decide(bits, prog.tol)[0].merges
    rep = prog.witness(bits)
    assert rep.decision == 1 and rep.witness.base is None and rep.witness.flags.c_contiguous


def test_witness_dispatcher_matches_sides():
    prog = _one_hot_program()
    assert prog.witness("1").decision == 1
    assert prog.witness("0").decision == 0


def _chain_program():
    """Target e_0 in R^4 (coordinates counted from 0).  The free vectors
    (1,1,0,0) and (0,1,2,0) make rows 2 and 1 a chain of dead ends; variable 1
    adds e_0 and e_3."""
    return LowLevelProgram(
        dim=4, num_vars=1, target=[1.0, 0.0, 0.0, 0.0],
        free=([1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 2.0, 0.0]),
        labeled=(([1.0, 0.0, 0.0, 0.0], 1, 1), ([0.0, 0.0, 0.0, 1.0], 1, 1)),
    )


def _rounds(peel):
    return [(list(rows), list(cols)) for rows, cols in peel.rounds]


def test_peel_drops_dead_ends_round_by_round():
    prog = _chain_program()
    avail = prog.available_vectors("1").toarray()
    cols, rows, values = Columns.of(avail).entries
    assert list(zip(cols.tolist(), rows.tolist())) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (3, 3)]
    assert values.tolist() == [1.0, 1.0, 1.0, 2.0, 1.0, 1.0]
    peel = Peel.of(Columns.of(avail), prog.target)
    # round 1: rows 2 and 3 see only columns 1 and 3; then row 1 sees only column 0
    assert _rounds(peel) == [([2, 3], [1, 3]), ([1], [0])]
    # column 2 is left alone at row 0, where the target is 1, and stays
    assert peel.rows.tolist() == [True, False, False, False] and peel.cols.tolist() == [False, False, True, False]
    assert peel.block.tolist() == [[1.0]]
    rep = prog.positive_witness("1")
    assert rep.witness == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-15)
    assert rep.size == pytest.approx(1.0, abs=1e-15)


def _singleton_chain_program():
    """Target (1, 1, 1, 0, 1).  Column 4 is nonzero only at row 4, and column
    0 only at rows 0 and 4.  Row 3 is a dead end of column 3."""
    return LowLevelProgram(
        dim=5, num_vars=0, target=[1.0, 1.0, 1.0, 0.0, 1.0],
        free=([2.0, 0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0],
              [0.0, 1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 3.0]),
    )


def test_peel_keeps_singleton_columns_in_the_block():
    """The peel pivots only on rows where the target is 0: the singleton
    columns stay in the block, and the witness is the unpeeled one."""
    prog = _singleton_chain_program()
    avail = prog.available_vectors("").toarray()
    peel = Peel.of(Columns.of(avail), prog.target)
    assert _rounds(peel) == [([3], [3])] and peel.merges == ()
    assert peel.rows.tolist() == peel.cols.tolist() == [True, True, True, False, True]
    dec, resid, decision = in_span(peel.block, peel.target, prog.tol, full_matrices=True)
    assert decision == 1 and peel.stands(dec, float(np.linalg.norm(resid)), prog.tol)
    # 2 w_0 + w_1 = 1, w_1 + w_2 = 1, w_3 = 0 and w_0 + 3 w_4 = 1, at least norm
    w = peel.lift(min_norm_solve(peel.block, peel.target, prog.tol, dec), dec.vt[dec.rank :].T)
    assert w == pytest.approx([19 / 82, 22 / 41, 19 / 41, 0.0, 21 / 82], abs=1e-15)
    assert w[3] == 0.0
    assert w == pytest.approx(np.linalg.pinv(avail) @ prog.target, abs=1e-14)


def _doubleton_chain_program():
    """Target (0, 0, 1, 1).  Row 0 is a doubleton of columns 0 and 1 (entries
    1 and 2) and row 1 one of columns 1 and 2 (entries 1 and 1), a chain; the
    merged column 0 and columns 3 and 4 stay on rows 2 and 3."""
    return LowLevelProgram(
        dim=4, num_vars=0, target=[0.0, 0.0, 1.0, 1.0],
        free=([1.0, 0.0, 1.0, 0.0], [2.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0],
              [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, -1.0]),
    )


def test_peel_merges_doubleton_rows_round_by_round():
    prog = _doubleton_chain_program()
    avail = prog.available_vectors("").toarray()
    peel = Peel.of(Columns.of(avail), prog.target)
    # round 1 pivots row 0 on column 1 (m = 1/2); row 1 shares column 1 and
    # waits.  The merge leaves column 0 at -1/2 on row 1, so round 2 pivots
    # row 1 on column 2 (m = -1/2)
    assert _rounds(peel) == [([0], [1]), ([1], [2])]
    assert [(js.tolist(), ks.tolist(), ms.tolist()) for js, ks, ms in peel.merges] == [
        ([0], [1], [0.5]), ([0], [2], [-0.5])]
    assert all(np.abs(ms).max() <= 1.0 for _, _, ms in peel.merges)
    cols, rows, values = peel.nonzeros
    assert rows[cols == 0].tolist() == [2, 3] and values[cols == 0].tolist() == [1.0, 0.5]
    assert peel.block.tolist() == [[1.0, 1.0, 1.0], [0.5, 1.0, -1.0]]
    dec, resid, decision = in_span(peel.block, peel.target, prog.tol, full_matrices=True)
    assert decision == 1 and peel.stands(dec, float(np.linalg.norm(resid)), prog.tol)
    # the least-norm solution of the four rows, carried back through both merges
    w = peel.lift(min_norm_solve(peel.block, peel.target, prog.tol, dec), dec.vt[dec.rank :].T)
    assert w == pytest.approx([6 / 17, -3 / 17, 3 / 17, 25 / 34, -3 / 34], abs=1e-15)
    assert w == pytest.approx(np.linalg.pinv(avail) @ prog.target, abs=1e-14)
    assert prog.positive_witness("").witness == pytest.approx(w, abs=1e-15)


def test_peel_extends_the_complement_over_pivot_rows():
    prog = _chain_program()
    avail = prog.available_vectors("0").toarray()
    peel = Peel.of(Columns.of(avail), prog.target)
    assert _rounds(peel) == [([2], [1]), ([1], [0])] and peel.merges == ()
    # row 3 touches no available column and its target is 0: it leaves the
    # block, and its unit vector joins the complement
    assert peel.zero == [3]
    assert peel.rows.tolist() == [True, False, False, False] and peel.block.shape == (1, 0)
    rows, cols, values = peel.extend(np.eye(1))
    basis = np.zeros((4, 2))
    basis[rows, cols] = values
    # the swept basis: orthonormal on the kept and zero rows, fixed on the
    # pivot rows by the pivot columns' orthogonality
    assert basis[[0, 3]].tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert np.allclose(avail.T @ basis, 0.0, atol=1e-15)
    # <w', t> = 1 and w' orthogonal to both free vectors fix w' = (1, -1, 1/2, s);
    # e_3 makes s = 0 optimal, and e_0 pays 1
    rep = prog.negative_witness("0")
    assert rep.witness == pytest.approx([1.0, -1.0, 0.5, 0.0], abs=1e-12)
    assert rep.size == pytest.approx(1.0, abs=1e-12)


def test_peel_keeps_a_matrix_without_dead_ends():
    m = RNG.standard_normal((3, 4))
    peel = Peel.of(Columns.of(m), np.array([1.0, 0.0, 0.0]))
    assert peel.rounds == () and peel.block.tobytes() == m.tobytes()
    rows, cols, values = peel.extend(m)
    assert rows.tolist() == np.repeat(np.arange(3), 4).tolist() and cols.tolist() == [0, 1, 2, 3] * 3
    assert values.tobytes() == m.tobytes()


def _near_float_max_program() -> LowLevelProgram:
    """A free-only 141 x 71 program whose sum of squared entries is 1e308:
    column 0 holds x on rows 1..70, and column j holds x on row 0, where the
    target is 1, and on row 70 + j.  A pivot column's 1-norm times a row's
    1-norm passes the float maximum."""
    x = float(np.sqrt(1e308 / 210))
    store = np.zeros((141, 71))
    store[1:71, 0] = store[0, 1:] = x
    store[np.arange(71, 141), np.arange(1, 71)] = x
    return LowLevelProgram(dim=141, num_vars=0, target=np.eye(141)[0], free=store.T)


def test_peel_of_a_store_near_the_float_maximum_stands_without_overflow():
    prog = _near_float_max_program()
    avail = prog.available_vectors("").toarray()
    assert in_span(avail, prog.target, prog.tol)[2] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prog.evaluate("") == prog.witness("").decision == 0
        assert prog._decide("", prog.tol)[0].block.shape == (1, 0)


@pytest.mark.parametrize("free, target, tol, decision, stands", [
    # the dead end's one entry is within the tolerance of its column, which
    # then counts as e_0
    ([[1.0, 1e-20]], [1.0, 0.0], DEFAULT_TOL, 1, False),
    ([[1.0, 0.3]], [1.0, 0.0], 0.5, 1, False),
    ([[1.0, 3.0]], [1.0, 0.0], 0.5, 0, True),
    # the dropped column sets the cutoff, which leaves e_0 out
    ([[1.0, 0.0], [0.0, 1e12]], [1.0, 0.0], DEFAULT_TOL, 0, False),
    ([[1.0, 0.0], [0.0, 3.0]], [1.0, 0.0], 0.5, 0, False),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], DEFAULT_TOL, 1, True),
    # the pivot column, nearly parallel to the kept one, leaves one
    # direction of the two above the cutoff
    ([[1e-6, 0.0], [1.0, 1e-6]], [1.0, 0.0], DEFAULT_TOL, 0, False),
    # the pivot column brings a residual of 2.8e-9 under the tolerance
    ([[1.0, 1.0 + 4e-9, 0.0], [0.0, 1.0, 0.1]], [1.0, 1.0, 0.0], DEFAULT_TOL, 1, False),
])
def test_peel_stands_only_where_it_keeps_the_decision(free, target, tol, decision, stands):
    """The decision is that of one SVD of all available columns, whose rank
    cutoff is tol times the largest singular value.  Each program peels its
    last row with its last column; where the block could decide otherwise,
    the peel does not stand."""
    prog = LowLevelProgram(dim=len(target), num_vars=0, target=target, free=free, tol=tol)
    avail = prog.available_vectors("").toarray()
    assert in_span(avail, prog.target, tol)[2] == decision
    assert prog.evaluate("") == prog.witness("").decision == decision
    peel = Peel.of(Columns.of(avail), prog.target)
    assert _rounds(peel) == [([len(target) - 1], [len(free) - 1])]
    dec, resid, block_decision = in_span(peel.block, peel.target, tol)
    assert peel.stands(dec, float(np.linalg.norm(resid)), tol) == stands
    assert block_decision == decision or not stands


@pytest.mark.parametrize("free, target, tol, decision, stands", [
    # the singleton's one entry, all that is left of the block, is within the
    # tolerance of the rest of its row
    ([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1e-20, 0.0, 0.0]], [1.0, 0.0, 0.0], DEFAULT_TOL, 0, False),
    ([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [0.3, 0.0, 0.0]], [1.0, 0.0, 0.0], 0.5, 0, False),
    ([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [3.0, 0.0, 0.0]], [1.0, 0.0, 0.0], 0.5, 1, False),
    ([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 0.0, 0.0]], [1.0, 0.0, 0.0], DEFAULT_TOL, 1, True),
    # row 0, a doubleton of the singleton column and a large entry, sets the
    # cutoff, which leaves the block out
    ([[1e12, 1.0, 1.0], [0.0, 1.0, -1.0], [1.0, 0.0, 0.0]], [0.0, 1.0, 1.0], DEFAULT_TOL, 0, False),
    ([[3.0, 1.0, 1.0], [0.0, 1.0, -1.0], [1.0, 0.0, 0.0]], [0.0, 1.0, 1.0], 0.5, 0, False),
    ([[1.0, 1.0, 1.0], [0.0, 1.0, -1.0], [1.0, 0.0, 0.0]], [0.0, 1.0, 1.0], DEFAULT_TOL, 1, True),
    # no row where the target is 0: nothing peels
    ([[1.0, 1e-6, 1e-6], [0.0, 1e-6, -1e-6], [1e-6, 0.0, 0.0]], [1.0, 1.0, 1.0], DEFAULT_TOL, 0, False),
    ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0]], [100.0, 1.0, 1.0, 0.6], 0.01, 1, False),
    ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0]], [1.0, 1.0, 1.0, 0.6], 0.01, 0, True),
])
def test_singleton_peel_stands_only_where_it_keeps_the_decision(free, target, tol, decision, stands):
    """The transposed cases: each program has a singleton column, the last
    or the first, nonzero on row 0 only.  The peel keeps it: where the target
    is 0 on rows 1 and 2, row 1 is a doubleton that merges column 1 into
    column 0 and row 2 is left a dead end of column 0; where it is 0 on row
    0, row 0 is a doubleton; elsewhere nothing peels, and ``stands`` is not
    read."""
    prog = LowLevelProgram(dim=len(target), num_vars=0, target=target, free=free, tol=tol)
    avail = prog.available_vectors("").toarray()
    assert in_span(avail, prog.target, tol)[2] == decision
    assert prog.evaluate("") == prog.witness("").decision == decision
    peel = Peel.of(Columns.of(avail), prog.target)
    dec, resid, block_decision = in_span(peel.block, peel.target, tol)
    if 0.0 not in target:
        assert peel.rounds == () and peel.zero == [] and np.array_equal(peel.block, avail)
        return
    if target[0]:
        assert _rounds(peel) == [([1], [1]), ([2], [0])]
    else:  # the column of row 0's larger entry, the later one on a tie, is merged
        assert _rounds(peel) == [([0], [0 if free[0][0] > free[2][0] else 2])]
    assert peel.stands(dec, float(np.linalg.norm(resid)), tol) == stands
    assert block_decision == decision or not stands


@pytest.mark.parametrize("free, target, tol, decision, stands", [
    # the merge leaves 1e-12 of column 0, which one SVD of both columns
    # counts under the cutoff
    ([[1.0, 1.0], [1.0, 1.0 + 1e-12]], [0.0, 1.0], DEFAULT_TOL, 0, False),
    ([[1.0, 1.0], [1.0, 1.1]], [0.0, 1.0], 0.1, 0, False),
    ([[1.0, 1.0], [1.0, 1.5]], [0.0, 1.0], DEFAULT_TOL, 1, True),
    # the pivot column sets the cutoff, which leaves the merged column out
    ([[1.0, 1.0, 0.0], [1e12, 0.0, 1.0], [0.0, 1.0, 1.0]], [0.0, 1.0, 1.0], DEFAULT_TOL, 0, False),
    ([[1.0, 1.0, 0.0], [3.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [0.0, 1.0, 1.0], 0.5, 0, False),
    ([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [0.0, 1.0, 1.0], DEFAULT_TOL, 1, True),
    # the pivot column could pull a residual of 0.015 under tol |t| = 0.0141;
    # one of 0.05 stays above it
    ([[1.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]], [0.0, 1.0, 0.015, 1.0], 0.01, 0, False),
    ([[1.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]], [0.0, 1.0, 0.05, 1.0], 0.01, 0, True),
])
def test_doubleton_peel_stands_only_where_it_keeps_the_decision(free, target, tol, decision, stands):
    """Each program merges column 1 into column 0 at row 0, the larger entry
    of the row (the later one on a tie) as the pivot."""
    prog = LowLevelProgram(dim=len(target), num_vars=0, target=target, free=free, tol=tol)
    avail = prog.available_vectors("").toarray()
    assert in_span(avail, prog.target, tol)[2] == decision
    assert prog.evaluate("") == prog.witness("").decision == decision
    peel = Peel.of(Columns.of(avail), prog.target)
    assert _rounds(peel)[0] == ([0], [1]) and [js.tolist() for js, _, _ in peel.merges] == [[0]]
    dec, resid, block_decision = in_span(peel.block, peel.target, tol)
    assert peel.stands(dec, float(np.linalg.norm(resid)), tol) == stands
    assert block_decision == decision or not stands


def _random_program(rng) -> LowLevelProgram:
    dim = int(rng.integers(1, 5))
    num_vars = int(rng.integers(1, 4))
    num_free = int(rng.integers(0, 3))
    num_labeled = int(rng.integers(1, 6))
    target = rng.standard_normal(dim)
    while np.linalg.norm(target) < 1e-6:
        target = rng.standard_normal(dim)
    free = tuple(rng.standard_normal(dim) for _ in range(num_free))
    labeled = tuple(
        (rng.standard_normal(dim), int(rng.integers(1, num_vars + 1)), int(rng.integers(0, 2)))
        for _ in range(num_labeled)
    )
    return LowLevelProgram(dim=dim, num_vars=num_vars, target=target, free=free, labeled=labeled)


def _oracle_negative_size(prog: LowLevelProgram, bits) -> float:
    """Brute-force negative optimum: parametrize the affine feasible set
    {w': <w',t>=1, w' perp available} directly and least-squares the rest.
    The particular solution is feasible to 1e-9 times ``|constraints|_F |w0|``
    (at least 1): a target near the span makes w0 large, and rounding leaves
    a residual in proportion to it."""
    avail = prog.available_vectors(bits).toarray()
    constraints = np.vstack([prog.target.reshape(1, -1), avail.T])
    rhs = np.zeros(constraints.shape[0])
    rhs[0] = 1.0
    w0, residual, *_ = np.linalg.lstsq(constraints, rhs, rcond=None)
    if np.linalg.norm(constraints @ w0 - rhs) > 1e-9 * max(1.0, np.linalg.norm(constraints) * np.linalg.norm(w0)):
        raise AssertionError("negative witness should be feasible")
    u, s, vt = np.linalg.svd(constraints)
    rank = int(np.sum(s > 1e-11 * (s[0] if len(s) else 1.0)))
    basis = vt[rank:].T
    m_all = prog.store.toarray()
    if basis.shape[1]:
        y = np.linalg.lstsq(m_all.T @ basis, -m_all.T @ w0, rcond=None)[0]
        w = w0 + basis @ y
    else:
        w = w0
    return float(np.sum((m_all.T @ w) ** 2))


def test_witness_duality_random_programs():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        prog = _random_program(rng)
        for assignment in range(2**prog.num_vars):
            bits = tuple((assignment >> i) & 1 for i in range(prog.num_vars))
            decision = prog.evaluate(bits)
            if decision:
                rep = prog.positive_witness(bits)
                avail = prog.available_vectors(bits).toarray()
                assert np.allclose(avail @ rep.witness, prog.target, atol=1e-7)
                # minimal norm against the Moore-Penrose solution
                ref = np.linalg.pinv(avail) @ prog.target
                assert rep.size == pytest.approx(float(ref @ ref), abs=1e-7, rel=1e-6)
                with pytest.raises(NoNegativeWitness):
                    prog.negative_witness(bits)
            else:
                rep = prog.negative_witness(bits)
                avail = prog.available_vectors(bits).toarray()
                assert rep.witness @ prog.target == pytest.approx(1.0, abs=1e-7)
                assert np.allclose(avail.T @ rep.witness, 0.0, atol=1e-7)
                ref = _oracle_negative_size(prog, bits)
                assert rep.size == pytest.approx(ref, abs=1e-7, rel=1e-6)
                with pytest.raises(NoPositiveWitness):
                    prog.positive_witness(bits)


def test_wsize_over_domain():
    prog = _one_hot_program()
    sizes = wsize_over_domain(prog, ["0", "1"])
    assert sizes.wsize_1 == pytest.approx(1.0, abs=1e-9)
    assert sizes.wsize_0 == pytest.approx(1.0, abs=1e-9)
    assert sizes.combined == pytest.approx(1.0, abs=1e-9)
    assert len(sizes.per_input) == 2
    decisions = {entry[0]: entry[1] for entry in sizes.per_input}
    assert decisions == {"0": 0, "1": 1}


def test_validation_rejects_bad_programs():
    with pytest.raises(ValueError, match="target vector must be nonzero"):
        LowLevelProgram(dim=2, num_vars=1, target=[0.0, 0.0], free=(), labeled=(([1.0, 0.0], 1, 1),))
    with pytest.raises(ValueError, match=r"labeled\[0\]\.var=2 outside 1\.\.1"):
        LowLevelProgram(dim=2, num_vars=1, target=[1.0, 0.0], free=(), labeled=(([1.0, 0.0], 2, 1),))
    with pytest.raises(ValueError, match=r"labeled\[0\]\.val=2 must be 0 or 1"):
        LowLevelProgram(dim=2, num_vars=1, target=[1.0, 0.0], free=(), labeled=(([1.0, 0.0], 1, 2),))
    with pytest.raises(ValueError, match="target has 1 entries, expected 2"):
        LowLevelProgram(dim=2, num_vars=1, target=[1.0], free=(), labeled=(([1.0, 0.0], 1, 1),))


def test_labeled_vector_wrapping():
    prog = _one_hot_program()
    (vec_1, var_1, val_1), (vec_0, var_0, val_0) = prog.labeled
    assert [type(x) for x in (var_1, val_1, var_0, val_0)] == [int] * 4
    assert (var_1, val_1, var_0, val_0) == (1, 1, 1, 0)
    assert vec_1.tolist() == [1.0, 0.0] and vec_0.tolist() == [0.0, 1.0]
    # views into one read-only dense array
    assert not vec_1.flags.writeable and not vec_0.flags.writeable
    assert vec_1.base is not None and vec_1.base is vec_0.base


def test_json_roundtrip():
    prog = LowLevelProgram(
        dim=3, num_vars=2, target=[1.0, 0.5, 0.0], free=([0.0, 0.0, 1.0],),
        labeled=(([1.0, 0.0, 0.0], 1, 1), ([0.0, 1.0, 0.0], 2, 0)),
    )
    back = LowLevelProgram.from_json(prog.to_json())
    assert back.dim == prog.dim
    assert back.num_vars == prog.num_vars
    assert np.allclose(back.target, prog.target)
    for x in ["00", "01", "10", "11"]:
        assert back.evaluate(x) == prog.evaluate(x)


def test_json_missing_field_messages():
    data = json.loads(_one_hot_program().to_json())
    del data["target"]
    with pytest.raises(ValueError, match="target"):
        LowLevelProgram.from_json_dict(data)
    data = json.loads(_one_hot_program().to_json())
    del data["labeled"][0]["var"]
    with pytest.raises(ValueError, match="var"):
        LowLevelProgram.from_json_dict(data)
