"""Compiled program files: they hold the ``source`` program and the
``encoder`` parameters, and loading one runs the builder on them.  Files
from older versions, which store the compiled ``program`` itself, no longer
load: they exit 1 asking for a recompile."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spanforge.cli import main
from spanforge.compiler import CompiledProgram, compile_dense, compile_sparse
from spanforge.highlevel import HighLevelProgram
from spanforge.lowlevel import LowLevelProgram

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
    assert np.array_equal(a.all_vectors(), b.all_vectors())
    assert len(a.free) == len(b.free)
    assert [(lv.var, lv.val) for lv in a.labeled] == [(lv.var, lv.val) for lv in b.labeled]


def _store_digest(prog):
    """SHA-256 of a program's store, target and labels, as little-endian
    float64 / int64 bytes (the store in row-major order)."""
    h = hashlib.sha256()
    h.update(prog.all_vectors().astype("<f8").tobytes())
    h.update(prog.target.astype("<f8").tobytes())
    h.update(np.array([(lv.var, lv.val) for lv in prog.labeled], dtype="<i8").tobytes())
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
]


@pytest.mark.parametrize("mode,n,m,target,free,precision,k_nnz,l_nnz,digest,store_digest", PINNED, ids=MODES)
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
    [({"source": {"space_dim": 8, "num_inputs": 32, "target": _E1}, "encoder": _HUGE}, "encoder.k"),
     ({"program": {"dim": 8, "num_vars": 2000, "target": _E1}, "encoder": {**_HUGE, "n": 8, "m": 32}},
      "field 'source'; recompile")],
    ids=["new", "old-format"],
)
def test_small_file_asking_for_a_large_build_is_rejected(tmp_path, capsys, monkeypatch, data, field):
    # about 200 bytes; the first would compile to a 23,048 x 46,112 store
    # (7.9 GiB) and is rejected from its sizes, the second, in the format of
    # earlier versions, for its missing source.  Neither runs the builder.
    assert len(json.dumps(data)) < 250

    def no_build(*args, **kwargs):
        raise AssertionError("the builder ran")

    monkeypatch.setattr("spanforge.compiler._build", no_build)
    _rejected(tmp_path, capsys, data, field)
