"""Compiled program files: they hold the ``source`` program and the
``encoder`` parameters, and loading one runs the build on them.  Files
from older versions, which store the compiled ``program`` itself, no longer
load: they exit 1 asking for a recompile."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spanforge.cli import main
from spanforge.compiler import CompiledProgram, compile_dense, compile_sparse
from spanforge.highlevel import HighLevelProgram
from spanforge.lowlevel import LowLevelProgram
from spanforge.programs import build_rank_program

MODES = ("dense", "sparse_cols", "sparse")


def _compile(mode, prog, precision, k_nnz=None, l_nnz=None):
    if mode == "dense":
        return compile_dense(prog, precision=precision)
    return compile_sparse(prog, k_nnz=k_nnz, precision=precision, l_nnz=l_nnz if mode == "sparse" else None)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _same_program(a, b):
    """Bit-for-bit equality of two low-level programs."""
    assert (a.dim, a.num_vars, a.tol) == (b.dim, b.num_vars, b.tol)
    assert np.array_equal(a.target, b.target)
    assert np.array_equal(a.store.toarray(), b.store.toarray())
    assert len(a.free) == len(b.free)
    assert [(var, val) for _, var, val in a.labeled] == [(var, val) for _, var, val in b.labeled]


def _store_digest(prog):
    """SHA-256 of a program's store, target and labels, as little-endian
    float64 / int64 bytes (the store in row-major order)."""
    h = hashlib.sha256()
    h.update(prog.store.toarray().astype("<f8").tobytes())
    h.update(prog.target.astype("<f8").tobytes())
    h.update(np.array([(var, val) for _, var, val in prog.labeled], dtype="<i8").tobytes())
    return h.hexdigest()


# SHA-256 of `to_json()` for one program per mode, then of the compiled
# program's store (`_store_digest`).  The file holds the source program
# exactly as `HighLevelProgram.to_json_dict()` writes it, plus the encoder
# parameters; the store is pure arithmetic on the source and the encoder.
PINNED = [
    ("dense", 2, 2, [0.75, -0.5], [[0.0], [1.0]], 1, None, None,
     "b5ac4f17a8418f606f1968b671305e2c10c060f4a867b1f98c154fce163e0ebe",
     "b904ae87ae06f94e44da3f2f56a4ffc98f49c588890b0092ac2dd45eb4a18ad3"),
    ("sparse_cols", 3, 2, [1.0, -0.25, 0.5], None, 1, 2, None,
     "ca9f21ba56a23a8cde8a51a2557053d792c1b380a5fd9c423855ce020de4c22f",
     "384206eeafb97fa5ca6e0b2a3292c3f23e2c1b0387abd901b390696cee2337d2"),
    ("sparse", 3, 3, [0.5, 0.0, -1.0], [[1.0], [0.0], [0.0]], 1, 2, 2,
     "5460169739daff14c14cb7a979201b2f3c0b07f290b7dae53f042b1b197caa47",
     "c9db41c1aea0121b14b072c8708c784ced68d53de7f3cd202812ba124d0be6dc"),
    # single-leaf connectors: column routes on n = 1, row routes on m = 1
    ("sparse_cols", 1, 3, [0.75], None, 2, 1, None,
     "feb1cf1a418e6e4377813461c061a2073c1e91ce513f802501a6b71eb1ab5448",
     "312caf7b6eea128167188bd5d395c11a08a3696691249e109649bf38fef22633"),
    ("sparse", 3, 1, [0.5, -0.25, 1.0], [[0.0], [1.0], [0.0]], 1, 2, 1,
     "2f902ea123dfbc07a0d2e1f1e80320a8228d1da55174dd4ffc4755040da52b63",
     "2b71910ee0aa97a80e6d23b27d63d5f25beeda0d03cd4d839292560675d7740d"),
    # truncated trees on both sides: 5 leaves per column route, 3 per row route
    ("sparse", 5, 3, [0.5, 0.0, -1.0, 0.25, 0.75], [[1.0], [0.0], [0.0], [0.0], [0.0]], 2, 2, 3,
     "30cc6c24af35f99691da7c4cd139b3e93cdd9e40bd75a74c7812a10969ec68f6",
     "815c7b92b1e20fe55e90b7557e884695af1497abe3e5cd7b50c78e872db5eefb"),
]


@pytest.mark.parametrize("mode,n,m,target,free,precision,k_nnz,l_nnz,digest,store_digest", PINNED,
                         ids=[*MODES, "sparse_cols-one-row", "sparse-one-column", "sparse-truncated"])
def test_compile_output_is_pinned(mode, n, m, target, free, precision, k_nnz, l_nnz, digest, store_digest):
    prog = HighLevelProgram(space_dim=n, num_inputs=m, target=target, free_basis=free)
    comp = _compile(mode, prog, precision, k_nnz, l_nnz)
    text = comp.to_json()
    data = json.loads(text)
    assert data["source"] == prog.to_json_dict()
    assert data["encoder"] == {"mode": mode, "k": precision, "k_nnz": k_nnz, "l_nnz": l_nnz}
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    for program in (comp.program, CompiledProgram.from_json(text).program,
                    LowLevelProgram.from_json(comp.program.to_json())):
        assert _store_digest(program) == store_digest


def test_benchmark_rank_program_store_is_pinned():
    # the sparse n = 8 rank program of the cli-roundtrip benchmark at seed 7
    prog = build_rank_program(8, 8, 4, np.random.default_rng([7, 4]))
    comp = compile_sparse(prog, k_nnz=3, l_nnz=3, precision=3)
    assert comp.program.store.shape == (480, 876)
    assert _store_digest(comp.program) == "7ba75b3fc32c23f62c3364ed3e75d735049de7cc7e917a8853e7bf24566fa03a"


def test_a_sparse_build_peaks_at_60_bytes_per_store_entry():
    # the store keeps 24 bytes per entry (row, column, value); a build that
    # holds its unsorted and its sorted triplets at once needs over 60
    prog = build_rank_program(64, 64, 32, np.random.default_rng(64))
    compile_sparse(prog, k_nnz=3, l_nnz=3, precision=3)  # warm every code path first
    tracemalloc.start()
    try:
        comp = compile_sparse(prog, k_nnz=3, l_nnz=3, precision=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store = comp.program.store
    assert store.data.size == 102_080
    assert peak <= 60 * store.data.size
    h = hashlib.sha256()
    for a in (store.indptr, store.indices, comp.program.var, comp.program.val):
        h.update(a.astype("<i8").tobytes())
    h.update(store.data.astype("<f8").tobytes())
    assert h.hexdigest() == "190d0403f09df0f90c5862a8cb49089023fecb4e9e8545dd9d977876d262da3e"


def _gadget_store(comp, free_basis):
    """The store a compiled program should hold, written one gadget vector at
    a time from its tables, with each labeled column's (var, val) checked."""
    lay, tab, prog = comp.layout, comp.tables, comp.program
    nf, digits = prog.num_free, lay.precision + 1
    store = np.zeros(prog.store.shape)
    store[: lay.n, : lay.num_hl] = free_basis
    labels = {}
    for j, s in np.ndindex(tab.pivots.shape):
        pivot, free = tab.pivots[j, s], tab.loader_free[j]
        store[pivot, free] = -1.0
        for a in range(digits):
            work = tab.working[j, s, a]
            store[work, free] = 2.0 ** (-a / 2.0)
            for b in (0, 1):
                col = tab.loader_labeled[j, (s * digits + a) * 2 + b]
                labels[col] = (tab.digits[j, s, a] + 1, b)
                store[work, nf + col] = -1.0
                if b:  # value 1 loads 2^(-a/2) at the pivot
                    store[pivot, nf + col] = 2.0 ** (-a / 2.0)
    for routes, roots in ((tab.cols, tab.pivots), (tab.rows, np.arange(lay.n)[:, None])):
        if routes is None:
            continue
        width = routes.bits.shape[-1]
        count = routes.leaves.shape[-1]
        # every edge into a node under the root, of the levels of a truncated binary tree
        assert sorted(zip(routes.edge_level.tolist(), routes.edge_child.tolist())) == [
            (a, c) for a in range(width) for c in range(min(2 << a, count))]
        assert sorted(zip(routes.node_level.tolist(), routes.node_index.tolist())) == [(0, 0)] * (
            routes is tab.cols) + [(a, l) for a in range(1, width) for l in range(1 << a)]
        for o, s in np.ndindex(routes.edges.shape[:2]):
            root, leaves = roots[o, 0 if roots.shape[1] == 1 else s], routes.leaves[o, s]
            scratch = np.arange(lay.n) if tab.scratch is None else tab.scratch[o] if routes is tab.cols else tab.scratch[:, o]
            assert np.array_equal(leaves, scratch)
            if routes.free is not None:  # a single leaf: the connector leaf - root
                assert width == 0 and routes.edges.shape[-1] == 0
                store[leaves[0], routes.free[o, s]] = 1.0
                store[root, routes.free[o, s]] = -1.0
                continue
            node = dict(zip(zip(routes.node_level.tolist(), routes.node_index.tolist()), routes.nodes[o, s]))
            assert node.setdefault((0, 0), root) == root
            node |= {(width, l): leaf for l, leaf in enumerate(leaves)}
            for e, (a, child) in enumerate(zip(routes.edge_level.tolist(), routes.edge_child.tolist())):
                col = routes.edges[o, s, e]
                labels[col] = (routes.bits[o, s, a] + 1, child >> a)
                store[node[(a + 1, child)], nf + col] = 1.0
                store[node[(a, child % (1 << a))], nf + col] = -1.0
    # V, the payload and scratch blocks, the working coordinates and the route
    # interiors share out the coordinates
    coords = [np.arange(lay.n), tab.working.ravel()] + [tab.pivots.ravel()] * (lay.k_nnz is not None)
    coords += [] if tab.scratch is None else [tab.scratch.ravel()]
    coords += [r.nodes[..., r.node_level > 0].ravel() for r in (tab.cols, tab.rows) if r is not None]
    assert sorted(np.concatenate(coords).tolist()) == list(range(prog.dim))
    assert sorted(labels) == list(range(len(prog.labeled)))
    assert [labels[i] for i in range(len(labels))] == list(zip(prog.var.tolist(), prog.val.tolist()))
    return store


@pytest.mark.parametrize("mode", MODES)
def test_every_store_column_is_its_gadget(mode):
    rng = np.random.default_rng(85)
    for n, m, precision, nfree in [(1, 1, 0, 0), (1, 3, 2, 0), (3, 1, 1, 1), (2, 2, 0, 1), (3, 2, 2, 2),
                                   (5, 3, 1, 1), (4, 5, 0, 0), (6, 4, 1, 2)]:
        for l_nnz in sorted({1, m}):
            free = rng.standard_normal((n, nfree))
            prog = HighLevelProgram(space_dim=n, num_inputs=m, target=rng.standard_normal(n), free_basis=free)
            comp = _compile(mode, prog, precision, min(2, n), l_nnz)
            expected = _gadget_store(comp, prog.free_basis)
            assert expected.tobytes() == comp.program.store.toarray().tobytes(), (mode, n, m, precision, l_nnz)


@st.composite
def compiled_programs(draw):
    mode = draw(st.sampled_from(MODES))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    free = rng.standard_normal((n, draw(st.integers(0, n - 1))))
    prog = HighLevelProgram(space_dim=n, num_inputs=m, target=rng.standard_normal(n), free_basis=free)
    comp = _compile(mode, prog, draw(st.integers(0, 2)), draw(st.integers(1, n)), draw(st.integers(1, m)))
    return comp, rng


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(compiled_programs())
def test_json_roundtrip_recompiles_to_the_same_program(case):
    comp, rng = case
    back = CompiledProgram.from_json(comp.to_json())
    _same_program(back.program, comp.program)
    assert back.to_json() == comp.to_json()
    assert back.layout == comp.layout
    for _ in range(4):
        bits = tuple(int(b) for b in rng.integers(0, 2, comp.layout.num_vars))
        assert np.array_equal(back.decode(bits), comp.decode(bits))
        assert back.program.evaluate(bits) == comp.program.evaluate(bits)
        a = comp.decode(bits)
        assert back.encode(a) == comp.encode(a)
        assert back.program.evaluate(back.encode(a)) == comp.program.evaluate(comp.encode(a))


def _rejected(tmp_path, capsys, data, field):
    with pytest.raises(ValueError, match=field.replace("[", r"\[")):
        CompiledProgram.from_json_dict(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    for cmd in ("evaluate", "witness"):
        code, _, err = _run(capsys, [cmd, "--program", str(path), "--input", "0" * 22])
        assert code == 1
        assert field in err and "Traceback" not in err


def _edit_mode(data):
    data["encoder"]["mode"] = "bogus"


def _drop_source(data):
    del data["source"]


def _short_target(data):
    data["source"]["target"].pop()


def _nonfinite_target(data):
    data["source"]["target"][1] = float("nan")


def _ragged_basis(data):
    data["source"]["free_basis"][0].pop()


def _string_dim(data):
    data["source"]["space_dim"] = "a"


def _dense_with_budgets(data):
    data["encoder"]["mode"] = "dense"


def _k_nnz_past_n(data):
    data["encoder"]["k_nnz"] = data["source"]["space_dim"] + 1


def _zero_k_nnz(data):
    data["encoder"]["k_nnz"] = 0


def _k_past_cap(data):
    data["encoder"]["k"] = 52


def _tol_of_one(data):
    data["source"]["tol"] = 1.0


@pytest.mark.parametrize(
    "edit,field",
    [(_drop_source, "source"), (_short_target, "source.target"), (_nonfinite_target, "source.target[1]"),
     (_ragged_basis, "source.free_basis[0]"), (_string_dim, "source.space_dim"), (_edit_mode, "encoder.mode"),
     (_dense_with_budgets, "encoder.mode"), (_k_nnz_past_n, "encoder.k_nnz"), (_zero_k_nnz, "encoder.k_nnz"),
     (_k_past_cap, "encoder.k"), (_tol_of_one, "source.tol")],
    ids=["no-source", "short-target", "nan-target", "ragged-basis", "string-dim", "mode", "mode-disagrees",
         "k-nnz-past-n", "k-nnz-zero", "k-past-cap", "tol-of-one"],
)
def test_edited_new_file_is_rejected_naming_the_field(tmp_path, capsys, edit, field):
    prog = HighLevelProgram(space_dim=3, num_inputs=2, target=[1.0, -0.25, 0.5], free_basis=[[0.0], [0.0], [1.0]])
    data = compile_sparse(prog, k_nnz=2, precision=1, l_nnz=2).to_json_dict()
    edit(data)
    _rejected(tmp_path, capsys, data, field)


_HUGE = {"mode": "sparse", "k": 51, "k_nnz": 8, "l_nnz": 32}
_E1 = [1.0] + [0.0] * 7


@pytest.mark.parametrize(
    "data,field",
    [({"source": {"space_dim": 8, "num_inputs": 6000, "target": _E1}, "encoder": _HUGE}, "encoder.k"),
     ({"program": {"dim": 8, "num_vars": 2000, "target": _E1}, "encoder": {**_HUGE, "n": 8, "m": 32}},
      "field 'source'; recompile")],
    ids=["new", "old-format"],
)
def test_small_file_asking_for_a_large_build_is_rejected(tmp_path, capsys, monkeypatch, data, field):
    # about 200 bytes; the first would compile to a 4,976,648 x 9,302,640
    # store of 18,641,280 entries and is rejected from its sizes, the
    # second, in the format of earlier versions, for its missing source.
    # Neither runs the build.
    assert len(json.dumps(data)) < 250

    def no_build(*args, **kwargs):
        raise AssertionError("the build ran")

    monkeypatch.setattr("spanforge.compiler._build", no_build)
    _rejected(tmp_path, capsys, data, field)
