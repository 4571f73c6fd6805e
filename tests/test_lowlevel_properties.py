"""Property tests of low-level programs on random and near-degenerate inputs.

Programs are drawn as a seed for their Gaussian entries plus degeneracies
chosen by hypothesis: duplicated (rescaled) columns, columns scaled near the
rank tolerance, and a target in the span of some columns plus 1e-10 noise.
Every input of each program is checked.  Compiled programs, too large to
enumerate, are checked on random bit strings against one unpeeled SVD, and
on valid encodings against their lifted witnesses.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spanforge.compiler import CompiledProgram, compile_dense, compile_sparse
from spanforge.encoding import grid_values
from spanforge.errors import NoNegativeWitness, NoPositiveWitness
from spanforge.highlevel import HighLevelProgram
from spanforge.linalg import DEFAULT_TOL, in_span, min_norm_solve, min_quadratic_on_hyperplane
from spanforge.lowlevel import PEEL_MIN_CELLS, LowLevelProgram, Peel, normalize_bits
from test_lowlevel import _oracle_negative_size

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def programs(draw, near_tol: bool = True, near_span: bool = True) -> LowLevelProgram:
    dim = draw(st.integers(1, 5))
    num_vars = draw(st.integers(1, 3))
    num_free = draw(st.integers(0, 2))
    num_labeled = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ncols = num_free + num_labeled
    cols = rng.standard_normal((dim, ncols))
    if ncols > 1 and draw(st.booleans()):
        src, dst = draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2, unique=True))
        cols[:, dst] = draw(st.sampled_from([1.0, -2.0, 0.5])) * cols[:, src]
    if near_tol and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        cols[:, j] *= DEFAULT_TOL * draw(st.sampled_from([0.1, 0.5, 2.0, 10.0]))
    if near_span and draw(st.booleans()):
        subset = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=ncols, unique=True))
        target = cols[:, subset] @ rng.standard_normal(len(subset)) + 1e-10 * rng.standard_normal(dim)
    else:
        target = rng.standard_normal(dim)
    if np.linalg.norm(target) < 1e-3:
        target[0] += 1.0
    labeled = tuple(
        (cols[:, num_free + i], int(rng.integers(1, num_vars + 1)), int(rng.integers(0, 2)))
        for i in range(num_labeled)
    )
    free = tuple(cols[:, i] for i in range(num_free))
    return LowLevelProgram(dim=dim, num_vars=num_vars, target=target, free=free, labeled=labeled)


def _inputs(prog: LowLevelProgram):
    for assignment in range(2**prog.num_vars):
        yield tuple((assignment >> i) & 1 for i in range(prog.num_vars))


def _seed_available(prog: LowLevelProgram, x):
    """Reference: the available columns gathered one vector at a time."""
    bits = normalize_bits(x, prog.num_vars)
    cols, prov = [], []
    for i, v in enumerate(prog.free):
        cols.append(v)
        prov.append(("free", i))
    for i, lv in enumerate(prog.labeled):
        if bits[lv.var - 1] == lv.val:
            cols.append(lv.vec)
            prov.append(("labeled", i))
    matrix = np.column_stack(cols) if cols else np.zeros((prog.dim, 0))
    return matrix, tuple(prov)


@PROPERTY_SETTINGS
@given(programs())
def test_exactly_one_side_and_witness_agrees_with_evaluate(prog):
    for x in _inputs(prog):
        decision = prog.evaluate(x)
        rep = prog.witness(x)
        assert rep.decision == decision
        if decision:
            assert prog.positive_witness(x).size == rep.size
            with pytest.raises(NoNegativeWitness):
                prog.negative_witness(x)
        else:
            assert prog.negative_witness(x).size == rep.size
            with pytest.raises(NoPositiveWitness):
                prog.positive_witness(x)


@PROPERTY_SETTINGS
@given(st.data())
def test_sizes_match_pinv_and_negative_oracle(data):
    """Columns below the tolerance are left out: the brute-force oracle holds
    the witness orthogonal to them, the program treats them as zero.  A target
    within the tolerance of the span of all vectors has a positive negative
    optimum under the program's convention and 0 in exact arithmetic, so there
    the oracle only bounds the size from below."""
    near_span = data.draw(st.booleans())
    prog = data.draw(programs(near_tol=False, near_span=near_span))
    for x in _inputs(prog):
        rep = prog.witness(x)
        avail = prog.available_vectors(x).matrix
        if rep.decision:
            ref = np.linalg.pinv(avail, rcond=prog.tol) @ prog.target
            assert np.allclose(avail @ rep.witness, prog.target, atol=1e-7)
            assert rep.size == pytest.approx(float(ref @ ref), abs=1e-7, rel=1e-6)
            continue
        assert rep.witness @ prog.target == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(avail.T @ rep.witness, 0.0, atol=1e-7)
        oracle = _oracle_negative_size(prog, x)
        if near_span:
            assert rep.size >= oracle * (1.0 - 1e-6) - 1e-7
        else:
            assert rep.size == pytest.approx(oracle, abs=1e-7, rel=1e-6)


@PROPERTY_SETTINGS
@given(programs())
def test_available_vectors_match_column_loop(prog):
    for x in _inputs(prog):
        avail = prog.available_vectors(x)
        matrix, provenance = _seed_available(prog, x)
        assert np.array_equal(avail.matrix, matrix)
        assert avail.provenance == provenance


@st.composite
def compiled_programs(draw) -> LowLevelProgram:
    """A small compiled program, as built, reloaded from its compiled file or
    reloaded from its low-level JSON."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hl = HighLevelProgram(space_dim=n, num_inputs=m, target=rng.standard_normal(n) + 2.0,
                          free_basis=rng.standard_normal((n, draw(st.integers(0, n - 1)))))
    precision, k_nnz, l_nnz = draw(st.integers(0, 2)), draw(st.integers(1, n)), draw(st.integers(1, m))
    comp = draw(st.sampled_from([
        lambda: compile_dense(hl, precision),
        lambda: compile_sparse(hl, k_nnz=k_nnz, precision=precision),
        lambda: compile_sparse(hl, k_nnz=k_nnz, precision=precision, l_nnz=l_nnz),
    ]))()
    reload = draw(st.sampled_from([
        lambda: comp.program,
        lambda: CompiledProgram.from_json(comp.to_json()).program,
        lambda: LowLevelProgram.from_json(comp.program.to_json()),
    ]))
    return reload()


@PROPERTY_SETTINGS
@given(st.one_of(programs(), compiled_programs()))
def test_vectors_are_stored_once_and_read_only(prog):
    store = prog.all_vectors()
    vectors = list(prog.free) + [lv.vec for lv in prog.labeled]
    assert store.shape == (prog.dim, len(vectors))
    for j, vec in enumerate(vectors):
        assert np.shares_memory(vec, store)
        assert np.array_equal(vec, store[:, j])
    for arr in (store, prog.target, *vectors, prog.available_vectors(next(_inputs(prog))).matrix):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _compile(draw, hl: HighLevelProgram, n: int, m: int, precision: int):
    """``hl`` compiled in a mode drawn from the three, with budgets drawn
    within ``n`` and ``m``."""
    mode = draw(st.sampled_from(["dense", "sparse_cols", "sparse"]))
    if mode == "dense":
        return compile_dense(hl, precision)
    k_nnz = draw(st.integers(1, n))
    return compile_sparse(hl, k_nnz=k_nnz, precision=precision, l_nnz=draw(st.integers(1, m)) if mode == "sparse" else None)


def _random_source(rng, n: int, m: int) -> HighLevelProgram:
    return HighLevelProgram(space_dim=n, num_inputs=m, target=rng.standard_normal(n),
                            free_basis=rng.standard_normal((n, int(rng.integers(0, n)))))


@st.composite
def compiled_queries(draw) -> tuple[LowLevelProgram, list]:
    """A compiled program with more variables than criterion 03 enumerates
    (at most 12), and random bit strings."""
    n, m = draw(st.integers(4, 6)), draw(st.integers(4, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prog = _compile(draw, _random_source(rng, n, m), n, m, draw(st.integers(2, 3))).program
    assume(prog.num_vars > 12)
    return prog, [rng.integers(0, 2, prog.num_vars) for _ in range(4)]


def _unpeeled(prog: LowLevelProgram, bits) -> tuple[int, float, np.ndarray | None]:
    """Decision, optimal size and, when accepted, the positive witness from
    one SVD of all available columns."""
    avail = prog.available_vectors(bits).matrix
    dec, _, decision = in_span(avail, prog.target, prog.tol, full_matrices=avail.shape[1] < prog.dim)
    if decision:
        w = min_norm_solve(avail, prog.target, prog.tol, dec)
        return 1, float(w @ w), w
    nbasis = dec.u[:, dec.rank :]
    size, _ = min_quadratic_on_hyperplane(prog.all_vectors().T @ nbasis, nbasis.T @ prog.target, prog.tol)
    return 0, size, None


@PROPERTY_SETTINGS
@given(compiled_queries())
def test_peeled_witnesses_match_the_unpeeled_solver(query):
    prog, inputs = query
    for bits in inputs:
        avail = prog.available_vectors(bits).matrix
        rep = prog.witness(bits)
        decision, size, positive = _unpeeled(prog, bits)
        assert rep.decision == decision == prog.evaluate(bits)
        assert rep.size == pytest.approx(size, rel=1e-10)
        if decision:
            assert np.allclose(avail @ rep.witness, prog.target, atol=1e-9)
            # dead-end pivot columns carry no coefficient, unless a doubleton
            # merged them, and the witness is the unpeeled one, singleton and
            # doubleton pivot columns included
            peel = prog._decide(bits, prog.tol)[0]
            merged = {k for _, ks, _ in peel.merges for k in ks.tolist()}
            assert not rep.witness[[j for _, cols in peel.rounds for j in cols if j not in merged]].any()
            assert np.allclose(rep.witness, positive, rtol=1e-9, atol=1e-9)
        else:
            assert rep.witness @ prog.target == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(avail.T @ rep.witness) <= 1e-9


def _near_tolerance(prog: LowLevelProgram, rng, tol: float) -> LowLevelProgram:
    """``prog`` at ``tol`` with degree-1 and doubleton coordinates near the
    tolerance: up to three rows made dead ends (target 0, one nonzero entry),
    up to three columns made one-entry columns whose entry is 1e-3 or 1e3
    times ``tol`` times the norm of the rest of its row, four nonzero entries
    set to 1e-3 or 1e3 times ``tol`` times the norm of the rest of their
    column, two columns scaled by 1e-4, 1 or 1e4, and last up to three rows
    made doubletons (target 0, two nonzero entries) whose entries differ, up
    to sign, by a factor 1 + 1e-3 tol or 1 + 1e3 tol."""
    store, target = np.array(prog.all_vectors()), np.array(prog.target)
    ncols = store.shape[1]
    for i in rng.choice(prog.dim, size=min(prog.dim - 1, int(rng.integers(0, 4))), replace=False):
        store[i, np.arange(ncols) != rng.integers(ncols)] = target[i] = 0.0
    for j in rng.choice(ncols, size=min(ncols, int(rng.integers(0, 4))), replace=False):
        i = rng.integers(prog.dim)
        store[:, j] = 0.0
        store[i, j] = rng.choice([1e-3, 1e3]) * tol * max(np.linalg.norm(store[i]), 1.0)
    nonzero = np.argwhere(store)
    for i, j in nonzero[rng.choice(len(nonzero), size=min(len(nonzero), 4), replace=False)]:
        store[i, j] = 0.0
        store[i, j] = rng.choice([1e-3, 1e3]) * tol * max(np.linalg.norm(store[:, j]), 1.0)
    for j in rng.choice(ncols, size=min(ncols, 2), replace=False):
        store[:, j] *= rng.choice([1e-4, 1.0, 1e4])
    rows = np.flatnonzero(np.arange(prog.dim) != np.argmax(np.abs(target)))  # the largest target entry stays
    for i in rng.choice(rows, size=min(rows.size, int(rng.integers(0, 4))) if ncols > 1 else 0, replace=False):
        j, k = rng.choice(ncols, size=2, replace=False)
        store[i] = target[i] = 0.0
        store[i, j] = rng.standard_normal()
        store[i, k] = store[i, j] * rng.choice([-1.0, 1.0]) * (1.0 + rng.choice([1e-3, 1e3]) * tol)
    return LowLevelProgram.from_store(prog.num_vars, target, store, prog.num_free, prog.var, prog.val, tol)


@st.composite
def near_tolerance_queries(draw) -> tuple[LowLevelProgram, list]:
    """A Gaussian program with all its inputs, or a compiled one with random
    bit strings, given degree-1 coordinates near the tolerance."""
    if draw(st.booleans()):
        prog = draw(programs())
        inputs = list(_inputs(prog))
    else:
        prog, inputs = draw(compiled_queries())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prog = _near_tolerance(prog, rng, draw(st.sampled_from([DEFAULT_TOL, 1e-4, 0.3])))
    assume(np.linalg.norm(prog.target) > 0.0)
    return prog, inputs


@PROPERTY_SETTINGS
@given(near_tolerance_queries())
def test_peel_keeps_the_decision_near_the_tolerance(query):
    """Dead-end entries within the tolerance of their column, singleton
    entries within the tolerance of their row, and dropped columns or rows
    large enough to set the rank cutoff, leave the decision that of one SVD
    of all available columns: a peel that could decide otherwise does not
    stand."""
    prog, inputs = query
    for bits in inputs:
        avail = prog.available_vectors(bits).matrix
        decision = in_span(avail, prog.target, prog.tol)[2]
        assert prog.evaluate(bits) == prog.witness(bits).decision == decision
        # the peel itself, also where the available matrix is too small for
        # evaluate to peel
        peel = Peel.of(avail, prog.target)
        rows, cols = peel.block.shape
        dec, resid, block_decision = in_span(peel.block, peel.target, prog.tol, full_matrices=cols < rows)
        if peel.stands(dec, float(np.linalg.norm(resid)), prog.tol):
            assert block_decision == decision


def test_compiled_sparse_inputs_peel():
    """Routing and loader gadgets leave dead ends on every input: the
    factored block is smaller than the available columns both ways."""
    rng = np.random.default_rng(5)
    comp = compile_sparse(_random_source(rng, 4, 4), k_nnz=2, precision=2, l_nnz=2)
    for _ in range(4):
        a = _budgeted_grid_matrix(rng, 4, 4, 2, 2, 2)
        bits = comp.encode(a)
        avail = comp.program.available_vectors(bits).matrix
        block = Peel.of(avail, comp.program.target).block
        assert block.shape[0] < avail.shape[0] and block.shape[1] < avail.shape[1]
        # and the peel stands
        assert comp.program._decide(bits, comp.program.tol)[0].block.shape == block.shape


def test_compiled_dense_inputs_peel():
    """Loader gadgets load each digit into a coordinate of its own, which
    leaves singleton columns on every input: the factored block of a dense
    compiled program is smaller than the available columns both ways."""
    rng = np.random.default_rng(6)
    comp = compile_dense(_random_source(rng, 4, 4), precision=3)
    for _ in range(4):
        bits = comp.encode(_budgeted_grid_matrix(rng, 4, 4, 3, None, None))
        avail = comp.program.available_vectors(bits).matrix
        assert avail.size >= PEEL_MIN_CELLS
        peel = Peel.of(avail, comp.program.target)
        assert peel.singletons
        assert peel.block.shape[0] < avail.shape[0] and peel.block.shape[1] < avail.shape[1]
        # and the peel stands
        assert comp.program._decide(bits, comp.program.tol)[0].block.shape == peel.block.shape


def _budgeted_grid_matrix(rng, n: int, m: int, precision: int, k_nnz, l_nnz) -> np.ndarray:
    """A grid matrix with at most ``k_nnz`` nonzeros per column and
    ``l_nnz`` per row (None: no cap)."""
    a = rng.choice(grid_values(precision), size=(n, m))
    for cap, view in ((k_nnz, a.T), (l_nnz, a)):
        for line in view if cap is not None else ():
            line[np.flatnonzero(line)[cap:]] = 0.0
    return a


@PROPERTY_SETTINGS
@given(st.data())
def test_compiled_optimum_is_at_most_the_lifted_size(data):
    """A lift is a feasible witness of a valid encoding, so it bounds the
    compiled optimum from above."""
    n, m, precision = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    comp = _compile(data.draw, _random_source(rng, n, m), n, m, precision)
    lay = comp.layout
    a = _budgeted_grid_matrix(rng, n, m, precision, lay.k_nnz, lay.l_nnz)
    rep = comp.program.witness(comp.encode(a))
    lifted = (comp.lift_positive if rep.decision else comp.lift_negative)(a)
    assert rep.size <= lifted.size * (1.0 + 1e-9) + 1e-9


@PROPERTY_SETTINGS
@given(st.data())
def test_compiled_programs_decide_as_their_source(data):
    """On budgeted grid matrices, in every mode and past the sizes criterion
    03 enumerates, a compiled program decides the encoding as its source
    decides the quantized matrix.  Most of these available matrices have at
    least ``PEEL_MIN_CELLS`` entries, so the compiled side decides on a
    peeled block."""
    n, m, precision = data.draw(st.integers(5, 6)), data.draw(st.integers(4, 5)), data.draw(st.integers(2, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    hl = _random_source(rng, n, m)
    comp = _compile(data.draw, hl, n, m, precision)
    lay = comp.layout
    for _ in range(2):
        a = _budgeted_grid_matrix(rng, n, m, precision, lay.k_nnz, lay.l_nnz)
        bits = comp.encode(a)
        assert comp.program.evaluate(bits) == hl.evaluate(comp.quantize(a))
