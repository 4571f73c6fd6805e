"""Property tests of low-level programs on random and near-degenerate inputs.

Programs are drawn as a seed for their Gaussian entries plus degeneracies
chosen by hypothesis: duplicated (rescaled) columns, columns scaled near the
rank tolerance, and a target in the span of some columns plus 1e-10 noise.
Every input of each program is checked.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spanforge.compiler import CompiledProgram, compile_dense, compile_sparse
from spanforge.errors import NoNegativeWitness, NoPositiveWitness
from spanforge.highlevel import HighLevelProgram
from spanforge.linalg import DEFAULT_TOL
from spanforge.lowlevel import LowLevelProgram, normalize_bits
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
