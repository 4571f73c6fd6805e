"""Property tests of low-level programs on random and near-degenerate inputs.

Programs are drawn as a seed for their Gaussian entries plus degeneracies
chosen by hypothesis: duplicated (rescaled) columns, columns scaled near the
rank tolerance, and a target in the span of some columns plus 1e-10 noise.
Every input of each program is checked.  Compiled programs, too large to
enumerate, are checked on random bit strings against one unpeeled SVD, and
on valid encodings against their lifted witnesses.
"""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from spanforge.compiler import CompiledProgram, compile_dense, compile_sparse
from spanforge.errors import NoNegativeWitness, NoPositiveWitness
from spanforge.highlevel import HighLevelProgram, source_json
from spanforge.linalg import DEFAULT_TOL, in_span, min_norm_solve, min_quadratic_on_hyperplane, svd
from spanforge.lowlevel import PEEL_MIN_CELLS, Columns, LowLevelProgram, Peel, normalize_bits
from spanforge.programs import build_rank_program
from references import grid_values
from test_lowlevel import _oracle_negative_size
from test_peel_reference import _rank_queries, assert_matches_reference, assert_program_peel_matches

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
    for i, (vec, var, val) in enumerate(prog.labeled):
        if bits[var - 1] == val:
            cols.append(vec)
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


@st.composite
def near_span_programs(draw) -> tuple[bool, LowLevelProgram]:
    near_span = draw(st.booleans())
    return near_span, draw(programs(near_tol=False, near_span=near_span))


# A target 1e-10 off the span of the one vector available on input 001: the
# negative witness has norm 2.2e10, and rounding alone leaves 4e-7 in
# avail.T @ w (found at 1,000 examples)
_FAR_WITNESS = LowLevelProgram(
    dim=3, num_vars=3, target=[0.013189114868807604, -0.013857815599584357, 0.0671804111893605],
    labeled=[([0.1257302210933933, -0.1321048632913019, 0.6404226504432821], 3, 1)])


@PROPERTY_SETTINGS
@given(near_span_programs())
@example((True, _FAR_WITNESS))
def test_sizes_match_pinv_and_negative_oracle(case):
    """Columns below the tolerance are left out: the brute-force oracle holds
    the witness orthogonal to them, the program treats them as zero.  A target
    within the tolerance of the span of all vectors has a positive negative
    optimum under the program's convention and 0 in exact arithmetic, so there
    the oracle only bounds the size from below.  A witness is orthogonal to
    the available vectors up to 1e-7 times ``|avail|_F |w|`` (at least 1):
    a target near the span has a witness of large norm, and rounding leaves
    ``avail.T @ w`` in proportion to it."""
    near_span, prog = case
    for x in _inputs(prog):
        rep = prog.witness(x)
        avail = prog.available_vectors(x).toarray()
        if rep.decision:
            ref = np.linalg.pinv(avail, rcond=prog.tol) @ prog.target
            assert np.allclose(avail @ rep.witness, prog.target, atol=1e-7)
            assert rep.size == pytest.approx(float(ref @ ref), abs=1e-7, rel=1e-6)
            continue
        assert rep.witness @ prog.target == pytest.approx(1.0, abs=1e-7)
        scale = max(1.0, np.linalg.norm(avail) * np.linalg.norm(rep.witness))
        assert np.allclose(avail.T @ rep.witness, 0.0, atol=1e-7 * scale)
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
        assert np.array_equal(avail.toarray(), matrix)
        columns = [i if kind == "free" else prog.num_free + i for kind, i in provenance]
        assert np.flatnonzero(prog.available_mask(x)).tolist() == columns


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
    """One ``Columns`` holds every vector; the dense copies made of it, and
    its arrays, are read-only."""
    store = prog.store.toarray()
    vectors = list(prog.free) + [vec for vec, _, _ in prog.labeled]
    assert store.shape == prog.store.shape == (prog.dim, len(vectors))
    for j, vec in enumerate(vectors):
        assert np.array_equal(vec, store[:, j])
    avail = prog.available_vectors(next(_inputs(prog)))
    columns = [getattr(c, name) for c in (prog.store, avail) for name in ("indptr", "indices", "data", "cols")]
    for arr in (store, prog.target, *vectors, avail.toarray(), *columns):
        with pytest.raises(ValueError):
            arr[:1] = 1


@st.composite
def dense_builds(draw) -> tuple[object, np.ndarray]:
    """A program and its store as a dense build made it: a hand-written one
    with its vectors stacked (entries drawn with zeros of both signs), or a
    compiled one, in a mode drawn from the three, with its gadget triplets
    written into a dense array (its source free basis drawn with zeros)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dim, nfree, nlab = draw(st.integers(1, 5)), draw(st.integers(0, 2)), draw(st.integers(0, 4))
        entry = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3e150])
        vectors = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=nfree + nlab,
                                max_size=nfree + nlab))
        prog = LowLevelProgram(dim, 1, rng.standard_normal(dim) + 3.0, free=vectors[:nfree],
                               labeled=[(vec, 1, 1) for vec in vectors[nfree:]])
        return prog, np.array(vectors, dtype=float).reshape(nfree + nlab, dim).T
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    free = rng.standard_normal((n, draw(st.integers(0, n)))) * (rng.random((n, 1)) < 0.6)
    hl = HighLevelProgram(space_dim=n, num_inputs=m, target=rng.standard_normal(n) + 2.0, free_basis=free)
    comp = _compile(draw, hl, n, m, draw(st.integers(0, 2)))
    rows, cols, vals = comp.tables.entries(hl.free_basis, comp.program.num_free)
    dense = np.zeros(comp.program.store.shape)
    dense[rows, cols] = vals
    return comp, dense


@PROPERTY_SETTINGS
@given(dense_builds())
def test_the_column_store_is_the_dense_build_s_nonzeros(build):
    """The ``Columns`` store holds the nonzeros of the dense build,
    with its ``indptr``, and densifies back to it; ``to_json`` writes what
    the dense build wrote, except that a hand-written vector's -0.0, not a
    nonzero, is written 0.0.  A compiled file's bytes are unchanged, signed
    zeros of its source free basis included."""
    comp, dense = build
    prog = getattr(comp, "program", comp)
    for got, want in zip(prog.store.entries, Columns.of(dense).entries):
        assert got.tobytes() == want.tobytes()
    assert prog.store.indptr.tolist() == [0, *np.cumsum(np.count_nonzero(dense, axis=0)).tolist()]
    assert prog.store.toarray().tobytes() == (dense + 0.0).tobytes()
    if comp is prog:
        nf = prog.num_free
        written = {"dim": prog.dim, "num_vars": 1, "target": prog.target.tolist(),
                   "free": (dense[:, :nf].T + 0.0).tolist(),
                   "labeled": [{"vec": vec, "var": 1, "val": 1} for vec in (dense[:, nf:].T + 0.0).tolist()],
                   "tol": prog.tol}
        assert prog.to_json() == json.dumps(written, indent=2)
        return
    lay = comp.layout
    written = {"source": source_json(lay.n, lay.m, prog.target[: lay.n], dense[: lay.n, : lay.num_hl], prog.tol),
               "encoder": {"mode": lay.mode, "k": lay.precision, "k_nnz": lay.k_nnz, "l_nnz": lay.l_nnz}}
    assert comp.to_json() == json.dumps(written, indent=2)
    assert CompiledProgram.from_json(comp.to_json()).to_json() == comp.to_json()


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
    avail = prog.available_vectors(bits).toarray()
    dec, _, decision = in_span(avail, prog.target, prog.tol, full_matrices=avail.shape[1] < prog.dim)
    if decision:
        w = min_norm_solve(avail, prog.target, prog.tol, dec)
        return 1, float(w @ w), w
    nbasis = dec.u[:, dec.rank :]
    size, _ = min_quadratic_on_hyperplane(prog.store.toarray().T @ nbasis, nbasis.T @ prog.target, prog.tol)
    return 0, size, None


@PROPERTY_SETTINGS
@given(compiled_queries())
def test_peeled_witnesses_match_the_unpeeled_solver(query):
    prog, inputs = query
    for bits in inputs:
        avail = prog.available_vectors(bits).toarray()
        assert_program_peel_matches(prog, bits)
        rep = prog.witness(bits)
        decision, size, positive = _unpeeled(prog, bits)
        assert rep.decision == decision == prog.evaluate(bits)
        assert rep.size == pytest.approx(size, rel=1e-10)
        if decision:
            assert np.allclose(avail @ rep.witness, prog.target, atol=1e-9)
            # dead-end pivot columns carry no coefficient, unless a doubleton
            # merged them, and the witness is the unpeeled one, doubleton
            # pivot columns included
            peel = prog._decide(bits, prog.tol)[0]
            merged = {k for _, ks, _ in peel.merges for k in ks.tolist()}
            assert not rep.witness[[j for _, cols in peel.rounds for j in cols if j not in merged]].any()
            assert np.allclose(rep.witness, positive, rtol=1e-9, atol=1e-9)
        else:
            assert rep.witness @ prog.target == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(avail.T @ rep.witness) <= 1e-9


# ---------------------------------------------------------------------------
# the negative side against the QR path it replaced


def reference_sweep(peel: Peel, basis: np.ndarray) -> np.ndarray:
    """The swept complement basis, dense, as the QR path built it: one
    ``reduceat`` over every column of N per round (numpy sums each pivot's
    terms but its first pairwise, so it may differ from ``Peel.extend`` in
    the last digits)."""
    full = np.zeros((peel.matrix.shape[0], basis.shape[1] + len(peel.zero)))
    full[peel.rows, : basis.shape[1]] = basis
    full[peel.zero, basis.shape[1] :] = np.eye(len(peel.zero))
    rows, _, at, values, _, pivot, starts, spans = peel._pivots
    for a, b, e, f in reversed(spans):
        sums = np.add.reduceat(values[e:f, None] * full[at[e:f]], starts[a:b] - e)
        full[rows[a:b]] = -sums / pivot[a:b, None]
    return full


def _swept(peel: Peel, dec) -> np.ndarray:
    """``Peel.extend`` of the block's complement basis, dense."""
    rows, cols, values = peel.extend(dec.u[:, dec.rank :])
    swept = np.zeros((peel.matrix.shape[0], dec.u.shape[1] - dec.rank + len(peel.zero)))
    swept[rows, cols] = values
    return swept


def reference_negative(prog: LowLevelProgram, peel: Peel, dec, tol: float,
                       dense: bool = False) -> tuple[float, np.ndarray, int]:
    """The QR path's negative solve on a peel with rounds: the swept basis
    made orthonormal by a thin QR, multiplied by the store
    (``store_product``), or with ``dense`` by the dense store, and the
    quadratic on that product.  Its size, witness and the rank of the
    product."""
    nbasis = np.linalg.qr(_swept(peel, dec))[0]
    product = prog.store.toarray().T @ nbasis if dense else prog.store_product(nbasis)
    size, y = min_quadratic_on_hyperplane(product, nbasis.T @ prog.target, tol)
    return size, nbasis @ y, svd(product, tol).rank


def assert_negative_matches_reference(prog: LowLevelProgram, peel: Peel, dec, tol: float) -> bool:
    """The negative witness of a rejected, peeled input is the QR path's,
    within 1e-10 relative in size and 1e-9 in the witness, and bit for bit
    where the projection is not certified.  Returns whether it is."""
    rep = prog._negative(peel, dec, tol)
    size, w, _ = reference_negative(prog, peel, dec, tol)
    k = dec.u.shape[1] - dec.rank
    projected = prog._project(peel.extend(dec.u[:, dec.rank :]), k, k + len(peel.zero), tol)
    if projected is not None:
        assert rep.size == projected.size and rep.witness.tobytes() == projected.witness.tobytes()
    else:
        assert rep.size == size and rep.witness.tobytes() == w.tobytes()
    assert rep.size == pytest.approx(size, rel=1e-10)
    assert np.linalg.norm(rep.witness - w) <= 1e-9 * np.linalg.norm(w)
    return projected is not None


def test_rejected_compiled_sparse_rank_queries_take_the_projection():
    """Every rejected query of the compiled sparse n = 8 rank programs at
    seeds 7 and 402, and one at n = 20, is solved on the projection off the
    zero-row directions, as the QR path solves it.  At tol = 0 the
    projection is not certified, and the QR path runs."""
    rejected = 0
    for seed in (7, 402):
        rng = np.random.default_rng(seed)
        comp = compile_sparse(build_rank_program(8, 8, 4, rng), k_nnz=3, l_nnz=3, precision=3)
        prog = comp.program
        for _ in range(4):
            for a in _rank_queries(8, 3, 3, rng):
                bits = comp.encode(a)
                peel, dec, decision = prog._decide(bits, prog.tol)
                if not decision:
                    assert peel.rounds and peel.zero and assert_negative_matches_reference(prog, peel, dec, prog.tol)
                    sparse, dense = (reference_negative(prog, peel, dec, prog.tol, dense)[0] for dense in (0, 1))
                    assert sparse == pytest.approx(dense, rel=1e-13)
                    swept = reference_sweep(peel, dec.u[:, dec.rank :])
                    assert np.allclose(_swept(peel, dec), swept, rtol=1e-13, atol=1e-15)
                    rejected, last = rejected + 1, (peel, dec)
        assert not assert_negative_matches_reference(prog, *last, 0.0)
    assert rejected == 24
    comp = compile_sparse(build_rank_program(20, 20, 10, np.random.default_rng(20)), k_nnz=3, l_nnz=3, precision=3)
    peel, dec, decision = comp.program._decide(comp.encode(np.diag([0.5] * 9 + [0.0] * 11)), comp.program.tol)
    assert not decision and assert_negative_matches_reference(comp.program, peel, dec, comp.program.tol)


def _traced_peak(call):
    """``call()`` and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_dense_program_s_rejected_input_multiplies_dense_blocks_of_the_store():
    """A rejected input of a dense hand-written program (120 x 240, 60
    vectors available) takes the QR path on its dense complement basis N of
    60 columns.  Joining each of the 28,800 store entries with the 60
    entries of N on its row would hold 1.7M products (the witness peaked at
    70 MB so); ``store_product`` multiplies dense blocks of the store
    instead, and the witness peaks under 4 MB with the dense product's
    size."""
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((240, 120))
    prog = LowLevelProgram(120, 240, rng.standard_normal(120), labeled=[(v, j + 1, 1) for j, v in enumerate(vectors)])
    x = [1] * 60 + [0] * 180
    rep, peak = _traced_peak(lambda: prog.witness(x))
    peel, dec, _ = prog._decide(x, prog.tol)
    nbasis = dec.u[:, dec.rank :]
    assert rep.decision == 0 and not (peel.rounds or peel.zero) and nbasis.shape[1] == 60
    assert peak < 4e6
    product = prog.store.toarray().T @ nbasis
    np.testing.assert_allclose(prog.store_product(nbasis), product, rtol=1e-12, atol=1e-12)
    size, _ = min_quadratic_on_hyperplane(product, nbasis.T @ prog.target, prog.tol)
    assert rep.size == pytest.approx(size, rel=1e-12)


def test_the_whole_matrix_fallback_s_product_holds_about_its_result(monkeypatch):
    """Where a compiled query's peel does not stand, its available columns
    are factored whole and the QR path multiplies the store by their dense
    complement basis (41 columns on this sparse n = 8 rejected input).  The
    negative solve holds about three times the count x width product
    (twelve when every store entry met its row of N), and gives the dense
    product's size."""
    rng = np.random.default_rng([7, 8])
    comp = compile_sparse(build_rank_program(8, 8, 4, rng), k_nnz=3, l_nnz=3, precision=3)
    prog, bits = comp.program, comp.encode(list(_rank_queries(8, 3, 3, rng))[1])
    monkeypatch.setattr(Peel, "stands", lambda self, *args: not (self.rounds or self.zero))
    peel, dec, decision = prog._decide(bits, prog.tol)
    nbasis = dec.u[:, dec.rank :]
    assert decision == 0 and not (peel.rounds or peel.zero) and nbasis.shape[1] == 41
    rep, peak = _traced_peak(lambda: prog._negative(peel, dec, prog.tol))
    assert peak < 4 * prog.store.shape[1] * nbasis.shape[1] * 8
    size, _ = min_quadratic_on_hyperplane(prog.store.toarray().T @ nbasis, nbasis.T @ prog.target, prog.tol)
    assert rep.size == pytest.approx(size, rel=1e-12)


def test_every_dense_matrix_of_a_query_is_capped(monkeypatch):
    """The kept block, the available columns factored whole and the QR
    path's product are made dense under ``MAX_DENSE_ENTRIES``: past it the
    query raises, naming the size (shown on a sparse n = 8 program with the
    cap lowered)."""
    rng = np.random.default_rng([7, 8])
    comp = compile_sparse(build_rank_program(8, 8, 4, rng), k_nnz=3, l_nnz=3, precision=3)
    prog = comp.program
    accepted, rejected = (comp.encode(a) for a in list(_rank_queries(8, 3, 3, rng))[:2])
    peel, dec, _ = prog._decide(rejected, 0.0)  # at tol = 0 the QR path runs
    product = (prog.store.shape[1], dec.u.shape[1] - dec.rank + len(peel.zero))
    block = prog._decide(accepted, prog.tol)[0].block.shape
    whole = prog.available_vectors(accepted).shape
    for shape in (block, product):
        monkeypatch.setattr("spanforge.lowlevel.MAX_DENSE_ENTRIES", shape[0] * shape[1] - 1)
        with pytest.raises(ValueError, match=f"a dense {shape[0]} x {shape[1]} matrix is past the cap"):
            prog.witness(accepted) if shape is block else prog.witness(rejected, 0.0)
    monkeypatch.setattr(Peel, "stands", lambda self, *args: not (self.rounds or self.zero))
    monkeypatch.setattr("spanforge.lowlevel.MAX_DENSE_ENTRIES", whole[0] * whole[1] - 1)
    with pytest.raises(ValueError, match=f"a dense {whole[0]} x {whole[1]} matrix is past the cap"):
        prog.witness(accepted)


@st.composite
def ill_conditioned_queries(draw) -> tuple[LowLevelProgram, float]:
    """A program, at a tolerance drawn from 1e-9, 1e-4 and 0.3, whose
    available columns (its free vectors, on input 0) peel into a Gaussian
    kept block and chains of dead ends with small pivots: each pivot entry
    is 1e-1 to 1e-10 times the norm of the rest of its column, which holds
    Gaussian entries on kept rows and on the rows of later pivots.  Its
    labeled vectors, more than its rows, are Gaussian and unavailable.  The
    target lies off the block's span by ``1 + 1e-3`` times the tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([DEFAULT_TOL, 1e-4, 0.3]))
    rows, cols, pivots = draw(st.integers(3, 6)), draw(st.integers(1, 2)), draw(st.integers(2, 8))
    dim, free = rows + pivots, cols + pivots
    store = np.zeros((dim, free + dim + draw(st.integers(1, 3))))
    store[:rows, :cols] = rng.standard_normal((rows, cols))
    for p in range(pivots):
        col = store[:, cols + p]
        col[:rows] = rng.standard_normal(rows) * (rng.random(rows) < 0.7)
        later = rows + p + 1 + np.flatnonzero(rng.random(pivots - p - 1) < 0.4)
        col[later] = rng.standard_normal(later.size)
        col[rows + p] = draw(st.sampled_from([1e-1, 1e-4, 1e-7, 1e-10])) * max(np.linalg.norm(col), 1.0)
    store[:, free:] = rng.standard_normal((dim, store.shape[1] - free))
    block = store[:rows, :cols]
    inside = block @ rng.standard_normal(cols)
    off = rng.standard_normal(rows)
    off -= block @ np.linalg.lstsq(block, off, rcond=None)[0]
    ratio = tol * (1.0 + 1e-3)
    target = np.zeros(dim)
    target[:rows] = inside + off * ratio * np.linalg.norm(inside) / np.sqrt(1.0 - ratio**2) / np.linalg.norm(off)
    labels = np.ones(store.shape[1] - free, dtype=np.intp)
    return LowLevelProgram.from_store(1, target, Columns.of(store), free, labels, labels, tol), tol


@PROPERTY_SETTINGS
@given(ill_conditioned_queries())
def test_projection_stands_only_where_it_matches_the_qr_path(query):
    """Where the QR path keeps less than the full rank of the swept basis,
    or the projection misses its size by more than 1e-10 or its witness by
    more than 1e-9, the projection is not certified, and the QR path runs."""
    prog, tol = query
    avail = prog.available_vectors((0,)).toarray()
    peel = Peel.of(Columns.of(avail), prog.target)
    rows, cols = peel.block.shape
    dec, _, decision = in_span(peel.block, peel.target, tol, full_matrices=cols < rows or bool(peel.merges))
    assume(peel.rounds and not decision)
    k = dec.u.shape[1] - dec.rank
    if prog._project(peel.extend(dec.u[:, dec.rank :]), k, k + len(peel.zero), tol) is not None:
        assert reference_negative(prog, peel, dec, tol)[2] == k + len(peel.zero)
    assert_negative_matches_reference(prog, peel, dec, tol)


def _rejected_peel(prog: LowLevelProgram):
    """The peel of ``prog``'s available columns on input 0, its block's SVD
    and the swept basis's two widths, for a rejected input."""
    avail = prog.available_vectors((0,)).toarray()
    peel = Peel.of(Columns.of(avail), prog.target)
    dec, _, decision = in_span(peel.block, peel.target, prog.tol, full_matrices=True)
    assert decision == 0
    k = dec.u.shape[1] - dec.rank
    return peel, dec, k, k + len(peel.zero)


def test_projection_refuses_a_sweep_through_tiny_pivots():
    """Two dead ends in a chain, each pivot 1e-10 of its column, make the
    swept basis too ill-conditioned for the projection: the QR path runs."""
    store = np.zeros((5, 5))
    store[:, 0] = [1.0, 0.5, 0.0, 0.0, 0.0]
    store[:, 1] = [1.0, 0.0, 1.0, 1e-10, 1.0]
    store[:, 2] = [0.0, 1.0, 1.0, 0.0, 1e-10]
    store[:, 3:] = np.random.default_rng(3).standard_normal((5, 2))
    prog = LowLevelProgram.from_store(1, [1.0, 1.0, 1.0, 0.0, 0.0], Columns.of(store), 3, [1, 1], [1, 1])
    peel, dec, k, width = _rejected_peel(prog)
    assert [(r.tolist(), c.tolist()) for r, c in peel.rounds] == [([3], [1]), ([4], [2])]
    assert prog._project(peel.extend(dec.u[:, dec.rank :]), k, width, prog.tol) is None
    assert not assert_negative_matches_reference(prog, peel, dec, prog.tol)


@pytest.mark.parametrize("unavailable", [
    # parallel within 1e-9 on the zero rows
    [[1.0, 0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0, 1.0 + 1e-9]],
    # 1e-8 on zero row 4, where conjugate gradients, stopped by their
    # residual, leave Z 0.1 short
    [[1.0, 0.0, 0.0, 1.0, 0.0], [1e-9, 0.0, 0.0, 0.0, 1e-8], [1.0, 0.0, 0.0, 0.0, 0.0]],
], ids=["near-parallel", "small-direction"])
def test_projection_refuses_an_ill_conditioned_b_z(unavailable):
    """Two zero rows (3 and 4) on which the unavailable store columns make
    B_z = S^T N_z nearly singular: the projection is not certified, and the
    QR path runs."""
    free = [[1.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]]  # row 2 is a dead end
    store = np.array(free + unavailable).T
    labels = [1] * len(unavailable)
    prog = LowLevelProgram.from_store(1, [1.0, 1.0, 0.0, 0.0, 0.0], Columns.of(store), 2, labels, labels)
    peel, dec, k, width = _rejected_peel(prog)
    assert peel.rounds and peel.zero == [3, 4]
    assert prog._project(peel.extend(dec.u[:, dec.rank :]), k, width, prog.tol) is None
    assert not assert_negative_matches_reference(prog, peel, dec, prog.tol)


def test_a_store_near_the_float_maximum_overflows_the_projection_quietly():
    """The compiled sparse n = 8 rank program's store scaled by 1e100: the
    projection's sums overflow, nothing is certified, and a rejected input's
    witness is the QR path's, without a warning."""
    comp = compile_sparse(build_rank_program(8, 8, 4, np.random.default_rng(8)), k_nnz=3, l_nnz=3, precision=3)
    prog, store = comp.program, comp.program.store
    big = Columns(store.shape, store.cols.copy(), store.indices.copy(), store.data * 1e100)
    prog = LowLevelProgram.from_store(prog.num_vars, prog.target, big, prog.num_free, prog.var, prog.val, prog.tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peel, dec, decision = prog._decide(comp.encode(np.diag([0.5] * 3 + [0.0] * 5)), prog.tol)
        assert not decision and peel.rounds and not assert_negative_matches_reference(prog, peel, dec, prog.tol)


def _near_tolerance(prog: LowLevelProgram, rng, tol: float) -> LowLevelProgram:
    """``prog`` at ``tol`` with degree-1 and doubleton coordinates near the
    tolerance: up to three rows made dead ends (target 0, one nonzero entry),
    up to three columns made one-entry columns whose entry is 1e-3 or 1e3
    times ``tol`` times the norm of the rest of its row, four nonzero entries
    set to 1e-3 or 1e3 times ``tol`` times the norm of the rest of their
    column, two columns scaled by 1e-4, 1 or 1e4, and last up to three rows
    made doubletons (target 0, two nonzero entries) whose entries differ, up
    to sign, by a factor 1 + 1e-3 tol or 1 + 1e3 tol."""
    store, target = np.array(prog.store.toarray()), np.array(prog.target)
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
    return LowLevelProgram.from_store(prog.num_vars, target, Columns.of(store), prog.num_free, prog.var, prog.val,
                                      tol)


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
        avail = prog.available_vectors(bits).toarray()
        decision = in_span(avail, prog.target, prog.tol)[2]
        assert prog.evaluate(bits) == prog.witness(bits).decision == decision
        # the peel itself, also where the available matrix is too small for
        # evaluate to peel; it matches the per-pivot reference
        peel = Peel.of(Columns.of(avail), prog.target)
        assert_matches_reference(peel, avail, prog.target)
        rows, cols = peel.block.shape
        dec, resid, block_decision = in_span(peel.block, peel.target, prog.tol, full_matrices=cols < rows)
        if peel.stands(dec, float(np.linalg.norm(resid)), prog.tol):
            assert block_decision == decision
        if not decision and avail.size >= PEEL_MIN_CELLS:  # and its negative witness is the QR path's
            peel, dec, _ = prog._decide(bits, prog.tol)
            if peel.rounds:
                assert_negative_matches_reference(prog, peel, dec, prog.tol)


def test_compiled_sparse_inputs_peel():
    """Routing and loader gadgets leave dead ends on every input: the
    factored block is smaller than the available columns both ways."""
    rng = np.random.default_rng(5)
    comp = compile_sparse(_random_source(rng, 4, 4), k_nnz=2, precision=2, l_nnz=2)
    for _ in range(4):
        a = _budgeted_grid_matrix(rng, 4, 4, 2, 2, 2)
        bits = comp.encode(a)
        avail = comp.program.available_vectors(bits).toarray()
        block = Peel.of(Columns.of(avail), comp.program.target).block
        assert block.shape[0] < avail.shape[0] and block.shape[1] < avail.shape[1]
        # and the peel stands
        assert comp.program._decide(bits, comp.program.tol)[0].block.shape == block.shape


def test_compiled_dense_inputs_peel():
    """Loader and routing gadgets leave chains of dead ends and doubletons on
    every input: in each mode the factored block is at most the size of the
    source's [A, F], n rows and m + f columns for a free basis of rank f, and
    the peel stands."""
    rng = np.random.default_rng(6)
    n, m, precision = 4, 4, 3
    source = _random_source(rng, n, m)
    f = source.free_basis.shape[1]
    for comp, k_nnz, l_nnz in ((compile_dense(source, precision), None, None),
                               (compile_sparse(source, k_nnz=2, precision=precision), 2, None),
                               (compile_sparse(source, k_nnz=2, precision=precision, l_nnz=2), 2, 2)):
        prog = comp.program
        for _ in range(4):
            bits = comp.encode(_budgeted_grid_matrix(rng, n, m, precision, k_nnz, l_nnz))
            avail = prog.available_vectors(bits).toarray()
            assert avail.size >= PEEL_MIN_CELLS or k_nnz is not None  # evaluate peels every dense query
            peel = Peel.of(Columns.of(avail), prog.target)
            rows, cols = peel.block.shape
            assert rows <= n and cols <= m + f
            dec, resid, _ = in_span(peel.block, peel.target, prog.tol, full_matrices=cols < rows or bool(peel.merges))
            assert peel.stands(dec, float(np.linalg.norm(resid)), prog.tol)


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
