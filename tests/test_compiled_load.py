"""Compiled program files: they hold ``program`` and ``encoder`` only, and
loading one recompiles its source program with its encoder parameters and
rejects the file unless the result equals what it stores."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spanforge.cli import main
from spanforge.compiler import CompiledProgram, compile_dense, compile_sparse
from spanforge.highlevel import HighLevelProgram

DATA = Path(__file__).parent / "data"
MODES = ("dense", "sparse_cols", "sparse")


def _compile(mode, prog, precision, k_nnz=None, l_nnz=None):
    if mode == "dense":
        return compile_dense(prog, precision=precision)
    return compile_sparse(prog, k_nnz=k_nnz, precision=precision, l_nnz=l_nnz if mode == "sparse" else None)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of `to_json()` for one program per mode, taken from the output of
# the three separate compile functions that preceded the shared builder,
# with the `layout` key those versions wrote removed.
PINNED = [
    ("dense", 2, 2, [0.75, -0.5], [[0.0], [1.0]], 1, None, None,
     "33267ab7d0d54c69bd0883d24efa4c9476b1210ca9e21dc8015b66688866f63c"),
    ("sparse_cols", 3, 2, [1.0, -0.25, 0.5], None, 1, 2, None,
     "4ade92554c178843d7a9ec0b0522a4fb9e7bdc1d1f910998ed9cc507d50dd302"),
    ("sparse", 3, 3, [0.5, 0.0, -1.0], [[1.0], [0.0], [0.0]], 1, 2, 2,
     "aad6098067f9f17e84bfa0e6365533cf04548de8cb937d3128e0797182f41b07"),
]


@pytest.mark.parametrize("mode,n,m,target,free,precision,k_nnz,l_nnz,digest", PINNED, ids=MODES)
def test_compile_output_is_pinned(mode, n, m, target, free, precision, k_nnz, l_nnz, digest):
    prog = HighLevelProgram(space_dim=n, num_inputs=m, target=target, free_basis=free)
    text = _compile(mode, prog, precision, k_nnz, l_nnz).to_json()
    assert "layout" not in json.loads(text)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_file_with_layout_key_loads_and_answers_the_same(tmp_path, capsys):
    # written by a version that stored the gadget layout next to the program
    old = DATA / "compiled_sparse_with_layout.json"
    data = json.loads(old.read_text())
    assert "layout" in data
    comp = CompiledProgram.from_json(old.read_text())
    del data["layout"]
    prog = HighLevelProgram(space_dim=2, num_inputs=2, target=[1.0, -0.5], free_basis=[[0.0], [1.0]])
    assert comp.to_json() == json.dumps(data, indent=2)
    assert compile_sparse(prog, k_nnz=1, precision=1, l_nnz=1).to_json() == comp.to_json()
    stripped = tmp_path / "stripped.json"
    stripped.write_text(comp.to_json() + "\n")
    for a, decision in (([[-1.0, 0.0], [0.0, 0.5]], 1), ([[0.0, 0.0], [-1.0, 0.0]], 0)):
        bits = "".join(str(b) for b in comp.encode(np.array(a)))
        for cmd in ("evaluate", "witness"):
            code, out, _ = _run(capsys, [cmd, "--program", str(old), "--input", bits])
            assert code == 0 and json.loads(out)["decision"] == decision
            assert _run(capsys, [cmd, "--program", str(stripped), "--input", bits]) == (code, out, "")


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
    assert back.to_json() == comp.to_json()
    assert back.layout == comp.layout
    for _ in range(4):
        bits = tuple(int(b) for b in rng.integers(0, 2, comp.layout.num_vars))
        assert np.array_equal(back.decode(bits), comp.decode(bits))
        assert back.program.evaluate(bits) == comp.program.evaluate(bits)
        a = comp.decode(bits)
        assert back.encode(a) == comp.encode(a)
        assert back.program.evaluate(back.encode(a)) == comp.program.evaluate(comp.encode(a))


def _edit_program_entry(data):
    data["program"]["labeled"][5]["vec"][0] += 0.25


def _scale_entry(data):
    vec = data["program"]["labeled"][4]["vec"]
    vec[next(i for i, x in enumerate(vec) if x)] *= 2.0


def _flip_label(data):
    data["program"]["labeled"][3]["val"] ^= 1


def _edit_variable(data):
    data["encoder"]["variables"][2]["slot"] += 1


def _edit_mode(data):
    data["encoder"]["mode"] = "bogus"


def _edit_n(data):
    data["encoder"]["n"] = data["program"]["dim"] + 1


def _truncate(data):
    data["program"]["labeled"].pop()


@pytest.mark.parametrize(
    "edit,field",
    [(_edit_program_entry, "program.labeled[5]"), (_scale_entry, "program.labeled[4]"),
     (_flip_label, "program.labeled[3]"), (_edit_variable, "encoder.variables[2]"),
     (_edit_mode, "encoder.mode"), (_edit_n, "encoder.n"), (_truncate, "program.labeled")],
    ids=["program-entry", "scaled-entry", "label", "encoder-variable", "mode", "n-past-dim", "truncated"],
)
def test_edited_file_is_rejected_naming_the_field(tmp_path, capsys, edit, field):
    prog = HighLevelProgram(space_dim=3, num_inputs=2, target=[1.0, -0.25, 0.5], free_basis=[[0.0], [0.0], [1.0]])
    comp = compile_sparse(prog, k_nnz=2, precision=1, l_nnz=2)
    data = comp.to_json_dict()
    edit(data)
    with pytest.raises(ValueError, match=field.replace("[", r"\[")):
        CompiledProgram.from_json_dict(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    for cmd in ("evaluate", "witness"):
        code, _, err = _run(capsys, [cmd, "--program", str(path), "--input", "0" * comp.program.num_vars])
        assert code == 1
        assert field in err and "Traceback" not in err
