import csv
import hashlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spanforge.cli import main
from spanforge.compiler import CompiledProgram, compile_sparse
from spanforge.highlevel import HighLevelProgram
from spanforge.lowlevel import LowLevelProgram
from spanforge.programs import build_rank_program
from test_lowlevel import _near_float_max_program


@pytest.fixture
def onehot_program(tmp_path):
    """Variable 1 picks e_1 (accepting) or e_2 (rejecting) against t = e_1."""
    prog = LowLevelProgram(
        dim=2,
        num_vars=1,
        target=np.array([1.0, 0.0]),
        free=np.zeros((0, 2)),
        labeled=(
            (np.array([1.0, 0.0]), 1, 1),
            (np.array([0.0, 1.0]), 1, 0),
        ),
    )
    path = tmp_path / "onehot.json"
    path.write_text(prog.to_json())
    return path


@pytest.fixture
def hl_files(tmp_path):
    prog = HighLevelProgram(
        space_dim=2,
        num_inputs=2,
        target=np.array([1.0, 0.0]),
        free_basis=np.zeros((2, 0)),
    )
    ppath = tmp_path / "hl.json"
    ppath.write_text(prog.to_json())
    accept = tmp_path / "accept.json"
    accept.write_text(json.dumps([[-1.0, 0.0], [0.0, -1.0]]))
    reject = tmp_path / "reject.json"
    reject.write_text(json.dumps([[0.0, 0.0], [-1.0, -1.0]]))
    return ppath, accept, reject


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# evaluate and witness


def test_evaluate_lowlevel(capsys, onehot_program):
    code, out, _ = _run(capsys, ["evaluate", "--program", str(onehot_program), "--input", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == 1
    assert payload["tool_version"]
    code, out, _ = _run(capsys, ["evaluate", "--program", str(onehot_program), "--input", "0"])
    assert code == 0
    assert json.loads(out)["decision"] == 0


@pytest.mark.parametrize("cmd", ["evaluate", "witness"])
@pytest.mark.parametrize("text,message", [
    ("x", "input bit 1 must be 0 or 1, got 'x'"),
    ("\u0661", "input bit 1 must be 0 or 1, got '\u0661'"),  # ARABIC-INDIC DIGIT ONE
    ("\uff11", "input bit 1 must be 0 or 1, got '\uff11'"),  # FULLWIDTH DIGIT ONE
    ("10", "input has 2 bits but the program has 1 variables"),
])
def test_bad_bit_string_names_the_bit(capsys, onehot_program, cmd, text, message):
    code, out, err = _run(capsys, [cmd, "--program", str(onehot_program), "--input", text])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_evaluate_highlevel(capsys, hl_files):
    ppath, accept, reject = hl_files
    code, out, _ = _run(capsys, ["evaluate", "--highlevel", str(ppath), "--input", str(accept)])
    assert code == 0 and json.loads(out)["decision"] == 1
    code, out, _ = _run(capsys, ["evaluate", "--highlevel", str(ppath), "--input", str(reject)])
    assert code == 0 and json.loads(out)["decision"] == 0


def test_evaluate_requires_one_program_source(capsys, onehot_program, hl_files):
    code, _, err = _run(capsys, ["evaluate", "--input", "1"])
    assert code == 1 and "exactly one" in err
    code, _, err = _run(
        capsys,
        ["evaluate", "--program", str(onehot_program), "--highlevel", str(hl_files[0]), "--input", "1"],
    )
    assert code == 1 and "exactly one" in err


@pytest.mark.parametrize("cmd", ["evaluate", "witness"])
@pytest.mark.parametrize("flag", ["--program", "--highlevel"])
def test_an_empty_program_path_names_the_file(capsys, cmd, flag):
    code, out, err = _run(capsys, [cmd, flag, "", "--input", "0"])
    assert code == 1 and out == ""
    assert "input file '' does not exist" in err


def test_witness_auto_both_sides(capsys, onehot_program):
    code, out, _ = _run(capsys, ["witness", "--program", str(onehot_program), "--input", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == 1
    assert payload["size"] == pytest.approx(1.0)
    assert payload["witness"] == [1.0]
    code, out, _ = _run(capsys, ["witness", "--program", str(onehot_program), "--input", "0"])
    payload = json.loads(out)
    assert payload["decision"] == 0
    assert payload["size"] == pytest.approx(1.0)


def test_program_without_vectors_has_a_negative_witness(capsys, tmp_path):
    # nothing is ever available, so t / |t|^2 is the witness, of size 0
    prog = LowLevelProgram(dim=2, num_vars=1, target=[3.0, 4.0])
    for rep in (prog.witness("0"), prog.negative_witness("0")):
        assert (rep.decision, rep.size, rep.witness.tolist()) == (0, 0.0, [0.12, 0.16])
    ppath = tmp_path / "no-vectors.json"
    ppath.write_text(prog.to_json())
    code, out, err = _run(capsys, ["witness", "--program", str(ppath), "--input", "0"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (payload["decision"], payload["size"], payload["witness"]) == (0, 0.0, [0.12, 0.16])


def test_witness_missing_side_is_infeasible(capsys, onehot_program):
    code, _, err = _run(
        capsys, ["witness", "--program", str(onehot_program), "--input", "0", "--side", "pos"]
    )
    assert code == 2 and "infeasible" in err
    code, _, err = _run(
        capsys, ["witness", "--program", str(onehot_program), "--input", "1", "--side", "neg"]
    )
    assert code == 2 and "infeasible" in err


def test_witness_highlevel(capsys, hl_files):
    ppath, accept, _ = hl_files
    code, out, _ = _run(
        capsys, ["witness", "--highlevel", str(ppath), "--input", str(accept), "--side", "pos"]
    )
    assert code == 0
    assert json.loads(out)["size"] == pytest.approx(1.0)


# A free space F spanning R^2, a target inside F with no input columns, and a
# column 1e-4 e_1 toward the target e_1 with a large or no part along the free
# e_0: each accepted, and witnessed, on the one SVD of [A - F F^T A, F].
FREE_SPACE_QUERIES = {
    "free-spans": ({"space_dim": 2, "num_inputs": 1, "target": [1.0, 0.0], "free_basis": [[1.0, 2.0], [3.0, -1.0]]},
                   [[[1.0], [2.0]]]),
    "target-in-free": ({"space_dim": 2, "num_inputs": 0, "target": [1.0, 1.0], "free_basis": [[1.0, 1.0]]}, [[[], []]]),
    "part-in-free": ({"space_dim": 2, "num_inputs": 1, "target": [0.0, 1.0], "free_basis": [[1.0, 0.0]]},
                     [[[1000.0], [0.0001]], [[0.0], [0.0001]]]),
}


@pytest.mark.parametrize("name", list(FREE_SPACE_QUERIES))
def test_witness_agrees_with_evaluate_where_the_free_space_decides(capsys, tmp_path, name):
    program, inputs = FREE_SPACE_QUERIES[name]
    ppath = tmp_path / "program.json"
    ppath.write_text(json.dumps(program))
    sizes = []
    for i, a in enumerate(inputs):
        apath = tmp_path / f"a{i}.json"
        apath.write_text(json.dumps(a))
        code, out, err = _run(capsys, ["evaluate", "--highlevel", str(ppath), "--input", str(apath)])
        assert (code, err, json.loads(out)["decision"]) == (0, "", 1)
        code, out, err = _run(capsys, ["witness", "--highlevel", str(ppath), "--input", str(apath)])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["decision"] == 1
        sizes.append(report["size"])
    # A counts only through its part off F: both e_1 inputs need |w|^2 = 1e8
    if name == "part-in-free":
        assert sizes[0] == pytest.approx(sizes[1], rel=1e-12, abs=0.0)
        assert sizes[1] == pytest.approx(1e8, rel=1e-12)


@pytest.fixture
def near_span_files(tmp_path):
    """Low- and high-level programs whose target sits 1% off the span of the
    available column: rejected at the default tolerance, accepted at 0.05."""
    target = np.array([1.0, 0.01])
    ll = LowLevelProgram(dim=2, num_vars=1, target=target, labeled=(([1.0, 0.0], 1, 1),))
    hl = HighLevelProgram(space_dim=2, num_inputs=1, target=target)
    ll_path = tmp_path / "near_ll.json"
    ll_path.write_text(ll.to_json())
    hl_path = tmp_path / "near_hl.json"
    hl_path.write_text(hl.to_json())
    matrix = tmp_path / "near_matrix.json"
    matrix.write_text(json.dumps([[1.0], [0.0]]))
    return (["--program", str(ll_path), "--input", "1"], ["--highlevel", str(hl_path), "--input", str(matrix)])


@pytest.mark.parametrize("source", [0, 1], ids=["program", "highlevel"])
def test_tol_flips_decision_and_evaluate_agrees_with_witness(capsys, near_span_files, source):
    args = near_span_files[source]
    for tol_args, expected in (([], 0), (["--tol", "0.05"], 1)):
        code, out, _ = _run(capsys, ["evaluate", *args, *tol_args])
        assert code == 0 and json.loads(out)["decision"] == expected
        code, out, _ = _run(capsys, ["witness", *args, *tol_args])
        assert code == 0 and json.loads(out)["decision"] == expected
    code, out, _ = _run(capsys, ["witness", *args, "--tol", "0.05", "--side", "pos"])
    assert code == 0 and json.loads(out)["size"] == pytest.approx(1.0)
    code, _, err = _run(capsys, ["witness", *args, "--side", "pos"])
    assert code == 2 and "infeasible" in err


@pytest.mark.parametrize("command,tol", [("witness", "-1"), ("evaluate", "nan"), ("evaluate", "1"), ("witness", "inf")])
@pytest.mark.parametrize("source", [0, 1], ids=["program", "highlevel"])
def test_tol_flag_outside_unit_interval_exits_1(capsys, near_span_files, source, command, tol):
    code, out, err = _run(capsys, [command, *near_span_files[source], "--tol", tol])
    assert code == 1 and out == ""
    assert "--tol must" in err


@pytest.mark.parametrize("tol", [-0.5, 1.0])
@pytest.mark.parametrize("source", [0, 1], ids=["program", "highlevel"])
def test_program_tol_outside_unit_interval_exits_1(capsys, near_span_files, source, tol):
    args = near_span_files[source]
    with open(args[1]) as fh:
        data = json.load(fh)
    with open(args[1], "w") as fh:
        json.dump({**data, "tol": tol}, fh)
    for command in ("evaluate", "witness"):
        code, out, err = _run(capsys, [command, *args])
        assert code == 1 and out == ""
        assert err.startswith("error: tol must")


# ---------------------------------------------------------------------------
# compile


def test_compile_dense_roundtrip(capsys, tmp_path, hl_files):
    ppath, accept, reject = hl_files
    out_path = tmp_path / "compiled.json"
    code, _, _ = _run(
        capsys,
        ["compile", "--highlevel", str(ppath), "--mode", "dense", "--bits", "1",
         "--out", str(out_path)],
    )
    assert code == 0
    comp = CompiledProgram.from_json(out_path.read_text())
    assert comp.layout.mode == "dense"
    bits = "".join(str(b) for b in comp.encode(np.array(json.loads(accept.read_text()))))
    code, out, _ = _run(capsys, ["evaluate", "--program", str(out_path), "--input", bits])
    assert code == 0 and json.loads(out)["decision"] == 1


def test_compile_rejects_precision_past_the_cap(capsys, tmp_path, hl_files):
    out_path = tmp_path / "compiled.json"
    argv = ["compile", "--highlevel", str(hl_files[0]), "--mode", "dense", "--out", str(out_path), "--bits"]
    code, _, err = _run(capsys, argv + ["52"])
    assert code == 1 and "precision must be within [0, 51], got 52" in err
    assert not out_path.exists()
    assert _run(capsys, argv + ["51"])[0] == 0


def test_compile_sparse_flag_validation(capsys, hl_files):
    code, _, err = _run(
        capsys, ["compile", "--highlevel", str(hl_files[0]), "--mode", "sparse_cols", "--bits", "0"]
    )
    assert code == 1 and "--k-nnz" in err
    code, _, err = _run(
        capsys,
        ["compile", "--highlevel", str(hl_files[0]), "--mode", "sparse", "--bits", "0", "--k-nnz", "1"],
    )
    assert code == 1 and "--l-nnz" in err
    # a budget the mode does not take is rejected, not ignored
    for mode, extra, flag in (("dense", ["--k-nnz", "1"], "--k-nnz"), ("dense", ["--l-nnz", "1"], "--l-nnz"),
                              ("sparse_cols", ["--k-nnz", "1", "--l-nnz", "1"], "--l-nnz")):
        code, out, err = _run(capsys, ["compile", "--highlevel", str(hl_files[0]), "--mode", mode, "--bits", "0", *extra])
        assert code == 1 and out == ""
        assert f"{flag} does not apply to mode {mode}" in err


# ---------------------------------------------------------------------------
# experiments


def _rank_args(fmt="csv"):
    return [
        "rank-experiment", "--n", "4", "--m", "4", "--r", "2",
        "--trials", "5", "--seed", "3", "--format", fmt,
    ]


def test_rank_experiment_csv(capsys):
    code, out, _ = _run(capsys, _rank_args())
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["trial", "side", "decision", "correct"]
    assert len(rows) == 11  # header + 5 trials x 2 sides
    assert all(row[3] == "1" for row in rows[1:])


def test_rank_experiment_json_envelope(capsys):
    code, out, _ = _run(capsys, _rank_args("json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "rank-experiment"
    assert "tool_version" in payload and "calibration" in payload
    assert payload["config"]["master_seed"] == 3
    assert payload["results"]["fraction_correct"] == 1.0
    assert len(payload["results"]["rows"]) == 10


def test_rank_experiment_missing_flags(capsys):
    code, _, err = _run(capsys, ["rank-experiment", "--n", "4"])
    assert code == 1
    assert "--m" in err and "--trials" in err


def test_rank_experiment_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "m": 4, "r": 2, "trials": 3, "master_seed": 9}))
    code, out, _ = _run(capsys, ["rank-experiment", "--config", str(cfg)])
    assert code == 0
    assert len(out.strip().splitlines()) == 7


def test_rank_experiment_honours_tol(capsys, tmp_path):
    # at tol 0.9 rank-deficient instances come out accepted, so rows change
    _, default, _ = _run(capsys, _rank_args())
    code, loose, _ = _run(capsys, _rank_args() + ["--tol", "0.9"])
    assert code == 0 and loose != default
    assert any(row[1] == "rank_lt_r" and row[2] == "1" for row in csv.reader(io.StringIO(loose)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "m": 4, "r": 2, "trials": 5, "master_seed": 3, "tolerance": 0.9}))
    assert _run(capsys, ["rank-experiment", "--config", str(cfg)])[1] == loose


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e155", "1e300"])
def test_rank_experiment_L_outside_its_range_exits_1(capsys, tmp_path, value):
    code, out, err = _run(capsys, _rank_args() + ["--L", value])
    assert code == 1 and out == ""
    assert "L must lie in (0, 1e154] when given" in err
    if value in ("0", "-1", "1e155", "1e300"):  # JSON has no nan or inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "m": 4, "r": 2, "trials": 3, "master_seed": 9, "L": float(value)}))
        code, out, err = _run(capsys, ["rank-experiment", "--config", str(cfg)])
        assert code == 1 and out == ""
        assert "L must lie in (0, 1e154] when given" in err


def test_rank_experiment_L_at_its_cap_is_accepted(capsys):
    # L**2 is finite; the bound, a few times that, may overflow to inf
    assert _run(capsys, _rank_args() + ["--L", "1e154"])[0] == 0


_CONFIG = {"n": 4, "m": 4, "r": 2, "trials": 3, "master_seed": 9}


@pytest.mark.parametrize(
    "config,message",
    [({**_CONFIG, "n": None}, "n must be an integer"), ({**_CONFIG, "n": "abc"}, "n must be an integer"),
     ({**_CONFIG, "n": 4.7}, "n must be an integer"), ({**_CONFIG, "tolerance": "x"}, "tolerance must be a finite number"),
     ({**_CONFIG, "tolerance": -1}, "tolerance must lie in [0, 1)"), ({**_CONFIG, "tolerance": 1}, "tolerance must lie"),
     ({**_CONFIG, "master_seed": -1}, "master_seed must be"), ([_CONFIG], "config must be an object"),
     ({**_CONFIG, "n": 3, "m": 2, "r": 3}, "error: r must lie in [1, 2], got 3\n")],
    ids=["n-null", "n-string", "n-fraction", "tolerance-string", "tolerance-negative", "tolerance-one",
         "seed-negative", "not-an-object", "r-above-m"],
)
def test_rank_experiment_config_fields_are_checked(capsys, tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = _run(capsys, ["rank-experiment", "--config", str(cfg)])
    assert code == 1 and out == ""
    assert message in err


def test_rank_experiment_r_above_m_names_r(capsys):
    # an n x m matrix has rank at most min(n, m): refused by name, before a trial draws
    code, out, err = _run(capsys, "rank-experiment --n 3 --m 2 --r 3 --trials 1 --seed 1".split())
    assert (code, out, err) == (1, "", "error: r must lie in [1, 2], got 3\n")


@pytest.mark.parametrize(
    "argv,message",
    [(_rank_args()[:-4] + ["--seed", "-1"], "--seed must"),
     (_rank_args() + ["--tol", "1.5"], "--tol must"),
     (["wishart-experiment", "--n", "3", "--m", "8", "--trials", "10", "--seed", "-1"], "--seed must"),
     (["ratio-experiment", "--n", "8", "--trials", "10", "--seed", "-1"], "--seed must"),
     (["ratio-experiment", "--n", "a,b", "--trials", "10", "--seed", "1"], "--n must"),
     *((["rank-experiment", "--config", "CONFIG", flag, value], f"drop {flag}")
       for flag, value in (("--n", "99"), ("--m", "4"), ("--r", "2"), ("--L", "2.0"), ("--trials", "3"),
                           ("--seed", "5"), ("--tol", "0.9"))),
     (["rank-experiment", "--config", "CONFIG", "--seed", "5", "--tol", "0.9", "--n", "99"], "drop --n, --seed, --tol"),
     (["wishart-experiment", "--kind", "block", "--n", "10", "--m", "99", "--trials", "10", "--seed", "4"],
      "--m does not apply to --kind block"),
     (["wishart-experiment", "--kind", "lambda-min", "--n", "10", "--m", "99", "--trials", "10", "--seed", "4"],
      "--m does not apply to --kind lambda-min")],
    ids=["rank-seed", "rank-tol", "wishart-seed", "ratio-seed", "ratio-n", "config-n", "config-m", "config-r",
         "config-L", "config-trials", "config-seed", "config-tol", "config-several", "wishart-block-m",
         "wishart-lambda-min-m"],
)
def test_experiment_flags_are_checked_by_name(capsys, tmp_path, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CONFIG))
    code, out, err = _run(capsys, [str(cfg) if arg == "CONFIG" else arg for arg in argv])
    assert code == 1 and out == ""
    assert message in err


def test_wishart_experiment_kinds(capsys):
    code, out, _ = _run(
        capsys,
        ["wishart-experiment", "--kind", "trace", "--n", "3", "--m", "8",
         "--trials", "300", "--seed", "4"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "m", "trials", "estimate", "stderr", "true_value"]
    assert float(rows[1][5]) == 0.75
    code, _, err = _run(
        capsys, ["wishart-experiment", "--kind", "trace", "--n", "3", "--trials", "10", "--seed", "4"]
    )
    assert code == 1 and "--m" in err
    code, out, _ = _run(
        capsys,
        ["wishart-experiment", "--kind", "block", "--n", "10", "--trials", "200", "--seed", "4"],
    )
    assert code == 0
    assert list(csv.reader(io.StringIO(out)))[1][1] == "8"
    code, out, _ = _run(
        capsys,
        ["wishart-experiment", "--kind", "lambda-min", "--n", "16", "--trials", "200",
         "--seed", "4", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "wishart-experiment"
    assert 0.0 <= payload["results"]["ks_stat"] <= 1.0


def test_ratio_experiment(capsys):
    code, out, _ = _run(
        capsys, ["ratio-experiment", "--n", "8,16", "--trials", "50", "--seed", "5"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    assert float(rows[1][3]) >= 1.0
    code, _, err = _run(capsys, ["ratio-experiment", "--n", ",", "--trials", "5", "--seed", "5"])
    assert code == 1 and "--n" in err


@pytest.mark.parametrize(
    "argv,flag",
    [(["wishart-experiment", "--n", "3", "--m", "8", "--trials", "0"], "--trials"),
     (["wishart-experiment", "--kind", "block", "--n", "10", "--trials", "0"], "--trials"),
     (["wishart-experiment", "--kind", "lambda-min", "--n", "0", "--trials", "10"], "--n"),
     (["ratio-experiment", "--n", "1", "--trials", "10"], "--n"),
     (["ratio-experiment", "--n", "50", "--trials", "10"], "--n"),
     (["ratio-experiment", "--n", "50,50", "--trials", "10"], "--n")],
    ids=["trace-trials", "block-trials", "lambda-min-n", "ratio-n", "ratio-one-size", "ratio-repeated-size"],
)
def test_experiment_sizes_out_of_range_exit_1(capsys, argv, flag):
    code, out, err = _run(capsys, argv + ["--seed", "1"])
    assert code == 1 and out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [("rank-experiment --n 10000000 --m 10000000 --r 1 --trials 1 --seed 1",
      "--n=10000000, --m=10000000 ask for a 10000000 x 20000000 matrix, past the cap of 16777216 entries"),
     ("rank-experiment --n 2048 --m 6145 --r 1 --trials 1 --seed 1",
      "--n=2048, --m=6145 ask for a 2048 x 8193 matrix"),
     ("wishart-experiment --kind lambda-min --n 1000000000000 --trials 1 --seed 1",
      "--n=1000000000000 asks for bidiagonal draws of 2000000000000 entries, past the cap of 16777216 entries"),
     ("wishart-experiment --kind trace --n 8388609 --m 8388611 --trials 1 --seed 1", "--n=8388609 asks"),
     ("wishart-experiment --kind block --n 8388609 --trials 1 --seed 1", "--n=8388609 asks"),
     ("ratio-experiment --n 2,1000000000000 --trials 1 --seed 1", "--n=1000000000000 asks for bidiagonal draws"),
     # a run keeps one float per trial, and the chi-square degrees of freedom m - i are floats
     (f"wishart-experiment --kind trace --n 3 --m {10**24} --trials 1 --seed 1",
      f"--m={10**24} is past 2^53, where the chi-square degrees of freedom stop being exact floats"),
     (f"wishart-experiment --kind trace --n 3 --m {2**53 + 1} --trials 1 --seed 1", f"--m={2**53 + 1} is past 2^53"),
     (f"wishart-experiment --n 3 --m 8 --trials {10**24} --seed 1",
      f"--trials={10**24} is past the cap of 16777216 trials"),
     (f"wishart-experiment --kind lambda-min --n 3 --trials {10**24} --seed 1", f"--trials={10**24} is past the cap"),
     ("wishart-experiment --kind block --n 5 --trials 16777217 --seed 1", "--trials=16777217 is past the cap"),
     (f"ratio-experiment --n 2,4 --trials {10**21} --seed 1", f"--trials={10**21} is past the cap"),
     (f"rank-experiment --n 4 --m 4 --r 2 --trials {10**24} --seed 1", f"--trials={10**24} is past the cap")],
    ids=["rank", "rank-one-past", "lambda-min", "trace", "block", "ratio", "trace-huge-m", "trace-m-one-past",
         "trace-huge-trials", "lambda-min-huge-trials", "block-trials-one-past", "ratio-huge-trials",
         "rank-huge-trials"],
)
def test_experiment_sizes_past_the_dense_cap_exit_1(capsys, monkeypatch, argv, message):
    # sized before drawing: no trial or draw runs
    def refuse(*args):
        raise AssertionError("an experiment drew past the cap")

    monkeypatch.setattr("spanforge.cli.run_rank_trials", refuse)
    monkeypatch.setattr("spanforge.randmat._draws", refuse)
    code, out, err = _run(capsys, argv.split())
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_rank_experiment_config_past_the_dense_cap_names_its_fields(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_CONFIG, "n": 10000000, "m": 10000000, "r": 1}))
    code, out, err = _run(capsys, ["rank-experiment", "--config", str(cfg)])
    assert code == 1 and out == ""
    assert err == "error: n=10000000, m=10000000 ask for a 10000000 x 20000000 matrix, past the cap of 16777216 entries\n"
    cfg.write_text(json.dumps({**_CONFIG, "trials": 10**24}))
    assert _run(capsys, ["rank-experiment", "--config", str(cfg)]) == (
        1, "", f"error: trials={10**24} is past the cap of 16777216 trials\n")


def test_sizes_at_the_dense_cap_reach_the_draws(capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise ValueError("reached the draws")

    monkeypatch.setattr("spanforge.cli.run_rank_trials", reached)
    monkeypatch.setattr("spanforge.randmat._draws", reached)
    for argv in ("rank-experiment --n 2048 --m 6144 --r 1 --trials 1 --seed 1",  # 2048 x 8192 = 2^24
                 "wishart-experiment --kind trace --n 8388608 --m 8388610 --trials 1 --seed 1",
                 "wishart-experiment --kind block --n 8388608 --trials 1 --seed 1",
                 "wishart-experiment --kind lambda-min --n 8388608 --trials 1 --seed 1",
                 "ratio-experiment --n 2,8388608 --trials 1 --seed 1",
                 f"wishart-experiment --kind trace --n 3 --m {2**53} --trials 16777216 --seed 1",
                 "rank-experiment --n 4 --m 4 --r 2 --trials 16777216 --seed 1"):
        assert _run(capsys, argv.split()) == (1, "", "error: reached the draws\n"), argv


def test_lowerbound_suite_default(capsys):
    code, out, _ = _run(capsys, ["lowerbound-suite"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 5
    by_instance = {row[1]: row for row in rows[1:]}
    assert set(by_instance) == {"with_all_ones_column", "all_balanced", "zero_input", "weight_one"}
    assert all(row[5] == "1" for row in rows[1:])
    assert float(by_instance["all_balanced"][3]) == pytest.approx(0.25)
    assert float(by_instance["weight_one"][3]) == pytest.approx(2.0)


def test_lowerbound_suite_odd_n(capsys):
    code, _, err = _run(capsys, ["lowerbound-suite", "--n", "3"])
    assert code == 1 and "even" in err


@pytest.mark.parametrize("n,m,shape", [("100000", "3", "100001 x 100001"), ("2", "10000000", "2 x 10000000")])
def test_lowerbound_suite_past_the_cap_builds_nothing(capsys, monkeypatch, n, m, shape):
    # sized in closed form: no program is built, so no matrix is allocated
    def refuse(*args):
        raise AssertionError("a lowerbound-suite program was built past the cap")

    monkeypatch.setattr("spanforge.cli.grover_dj_program", refuse)
    monkeypatch.setattr("spanforge.cli.unique_search_program", refuse)
    code, out, err = _run(capsys, ["lowerbound-suite", "--n", n, "--m", m])
    assert code == 1 and out == ""
    assert err == f"error: --n={n}, --m={m} ask for a {shape} matrix, past the cap of 16777216 entries\n"


# ---------------------------------------------------------------------------
# error handling and determinism


def test_malformed_json_names_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["evaluate", "--program", str(bad), "--input", "1"])
    assert code == 1
    assert "bad.json" in err
    missing = tmp_path / "missing.json"
    code, _, err = _run(capsys, ["evaluate", "--program", str(missing), "--input", "1"])
    assert code == 1 and "missing.json" in err


@pytest.mark.parametrize(
    "entry",
    [5, "vec", [[1.0, 0.0], 1, 1], None, {"vec": [[1.0], [0.0]], "var": 1, "val": 0},
     {"vec": ["a", 1.0], "var": 1, "val": 0}, {"vec": [{}, 1.0], "var": 1, "val": 0}],
)
def test_malformed_labeled_entry_names_field(capsys, tmp_path, onehot_program, entry):
    data = json.loads(onehot_program.read_text())
    data["labeled"][1] = entry
    bad = tmp_path / "bad_labeled.json"
    bad.write_text(json.dumps(data))
    for cmd in ("evaluate", "witness"):
        code, _, err = _run(capsys, [cmd, "--program", str(bad), "--input", "1"])
        assert code == 1
        assert "labeled[1]" in err and "Traceback" not in err


def test_rank_experiment_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(_rank_args() + ["--out", str(a)]) == 0
    assert main(_rank_args() + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_wishart_rerun_gives_the_same_bytes(tmp_path, capsys):
    argv = ["wishart-experiment", "--kind", "trace", "--n", "3", "--m", "8",
            "--trials", "2000", "--seed", "77"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of experiment stdout from the bidiagonal draws; the chunk grid
# fixes which generator draws each matrix, so any change to it, or to the
# sampler, shows up here.
PINNED_EXPERIMENTS = [
    ("wishart-experiment --kind trace --n 3 --m 8 --trials 5000 --seed 1",
     "28a3a94205ac71c34734d5e81b9d8c5b0d4fff1dc7e3650eb16b123484854e28"),
    ("wishart-experiment --kind trace --n 3 --m 300 --trials 500 --seed 9 --format json",
     "d08bcd6b52faef16fb131e102a1878390ce88b3d6defabb5aeba1a774627cc53"),
    ("wishart-experiment --kind block --n 10 --trials 3000 --seed 2 --format json",
     "31708a9ec25fe48b9172321b666cec3cf92da8c5e6d4bf79f4516e1d14a1ee4a"),
    ("wishart-experiment --kind block --n 6 --trials 5000 --seed 2",
     "51485e9409516b502ce3a1372304035507006a6abe683ec953ff703f8079f704"),
    ("wishart-experiment --kind lambda-min --n 40 --trials 3000 --seed 3",
     "ef859173fb687e927329c7866cd61b776edf5e687dfd083fa140b0f42045caed"),
    ("ratio-experiment --n 8,16,64 --trials 500 --seed 4 --format json",
     "42082aa2c26485360c8bc3ddafa5baccfdfc09a7e383fea4fc855d792daa694b"),
]


@pytest.mark.parametrize("argv,digest", PINNED_EXPERIMENTS, ids=[a.split(" --seed")[0] for a, _ in PINNED_EXPERIMENTS])
def test_experiment_output_pinned(capsys, argv, digest):
    code, out, _ = _run(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of rank-experiment stdout: trial i draws from generator i, as in
# the serial trial loop that preceded run_seeded_trials, and its witness
# sizes come from the one SVD of [A - F F^T A, F] (HighLevelProgram._decide).
PINNED_RANK = [
    ("rank-experiment --n 8 --m 8 --r 4 --trials 60 --seed 701",
     "c43619a622159eb7302a406a4028ab75935d6817a1cf7dd72a768399e449391e"),
    ("rank-experiment --n 8 --m 8 --r 4 --L 1.5 --trials 40 --seed 702 --format json",
     "35f328e121831460fa889f4e584b38f15fd0d85ec519daa46570c2b06e564dbf"),
]


@pytest.mark.parametrize("workers", ["1", "4"])
@pytest.mark.parametrize("argv,digest", PINNED_RANK, ids=["csv", "promise-json"])
def test_rank_experiment_pinned_at_any_worker_count(capsys, monkeypatch, workers, argv, digest):
    monkeypatch.setenv("SPANFORGE_THREADS", workers)
    code, out, _ = _run(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the third free vector is the target
_FLOAT_MAX_PROGRAM = {"dim": 3, "num_vars": 0, "target": [0, 1, 1],
                      "free": [[1e308, 1e308, 0], [1.5e308, -1e308, 1e308], [0, 1, 1]]}


@pytest.mark.parametrize(
    "cmd,data,message",
    [("evaluate --highlevel", {"space_dim": 2, "num_inputs": 2, "target": [float("inf"), 0]},
      "target[0] is not finite: inf"),
     ("evaluate --highlevel",
      {"space_dim": 2, "num_inputs": 2, "target": [1.0, 0.0], "free_basis": [[float("nan"), 1.0]]},
      "free_basis[0][0] is not finite: nan"),
     ("evaluate --highlevel",
      {"space_dim": 2, "num_inputs": 2, "target": [1.0, 0.0], "free_basis": [[0.0, 1.0], ["x", 1.0]]},
      "free_basis[1]: could not convert"),
     ("evaluate --program",
      {"dim": 2, "num_vars": 1, "target": [1.0, float("nan")], "labeled": [{"vec": [1, 0], "var": 1, "val": 1}]},
      "target[1] is not finite: nan"),
     ("evaluate --program",
      {"dim": 2, "num_vars": 1, "target": [1.0, 0.0], "free": [[0.0, 1.0], [float("-inf"), 0.0]]},
      "free[1][0] is not finite: -inf"),
     ("witness --program",
      {"dim": 2, "num_vars": 1, "target": [1.0, 0.0], "labeled": [{"vec": [1.0, float("nan")], "var": 1, "val": 1}]},
      "labeled[0].vec[1] is not finite: nan"),
     ("evaluate --highlevel", {"space_dim": "a", "num_inputs": 2, "target": [1.0, 0.0]},
      "space_dim must be an integer, got 'a'"),
     ("evaluate --highlevel",
      {"space_dim": 2, "num_inputs": 2, "target": [1.0, 0.0], "free_basis": [[1.0, 0], [1.0]]},
      "free_basis[1] has 1 entries, expected 2"),
     ("witness --program", {"dim": "x", "num_vars": 1, "target": [1.0, 0.0]},
      "dim must be an integer, got 'x'"),
     ("evaluate --program",
      {"dim": 2, "num_vars": 1, "target": [1.0, 0.0], "labeled": [{"vec": [1.0, 0.0], "var": 10**30, "val": 1}]},
      f"labeled[0].var={10**30} outside 1..1"),
     ("evaluate --program",
      {"dim": 2, "num_vars": 1, "target": [1.0, 0.0], "labeled": [{"vec": [1.0, 0.0], "var": 1, "val": -2**70}]},
      f"labeled[0].val={-2**70} must be 0 or 1"),
     # json reads a long integer literal as a Python int that no float can hold
     ("evaluate --program", {"dim": 2, "num_vars": 1, "target": [1.0, 0.0], "free": [[10**400, 0.0]]},
      "free[0]: int too large to convert to float"),
     ("witness --program",
      {"dim": 2, "num_vars": 1, "target": [1.0, 0.0], "labeled": [{"vec": [1.0, -10**400], "var": 1, "val": 1}]},
      "labeled[0].vec: int too large to convert to float"),
     ("evaluate --highlevel", {"space_dim": 2, "num_inputs": 2, "target": [10**400, 0.0]},
      "target: int too large to convert to float"),
     # finite entries whose sum of squares overflows, which would carry the
     # largest singular value and with it the rank cutoff to inf
     ("evaluate --program", _FLOAT_MAX_PROGRAM, "free[1][0] is too large: 1.5e+308"),
     ("witness --program", _FLOAT_MAX_PROGRAM, "free[1][0] is too large: 1.5e+308"),
     ("witness --program", {**_FLOAT_MAX_PROGRAM, "free": [[1e200, 1e200, 0], [1.5e200, -1e200, 1e200], [0, 1, 1]]},
      "free[1][0] is too large: 1.5e+200"),
     # each basis column's sum of squares is finite, that of the two is not
     ("evaluate --highlevel", {"space_dim": 2, "num_inputs": 2, "target": [1.0, 0.0],
                               "free_basis": [[1.2e154, 0.0], [1.3e154, 0.0]]},
      "free_basis[1][0] is too large: 1.3e+154"),
     ("witness --highlevel", {"space_dim": 2, "num_inputs": 2, "target": [1e200, -1e200]},
      "target[0] is too large: 1e+200")],
    ids=["hl-target-inf", "hl-free-basis-nan", "hl-free-basis-string", "ll-target-nan", "ll-free-inf",
         "ll-labeled-nan", "hl-space-dim-string", "hl-free-basis-ragged", "ll-dim-string", "ll-var-past-int64",
         "ll-val-past-int64", "ll-free-past-float", "ll-labeled-past-float", "hl-target-past-float",
         "ll-free-near-float-max", "ll-free-near-float-max-witness", "ll-free-squares-past-float",
         "hl-free-basis-squares-past-float", "hl-target-squares-past-float"],
)
def test_bad_program_entry_names_field(capsys, tmp_path, cmd, data, message):
    # json writes inf / nan as Infinity / NaN, which json.load reads back (so does 1e400, as inf)
    ppath = tmp_path / "prog.json"
    ppath.write_text(json.dumps(data))
    matrix = tmp_path / "matrix.json"
    matrix.write_text("[[1, 0], [0, 1]]")
    source = str(matrix) if "--highlevel" in cmd else "1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, cmd.split() + [str(ppath), "--input", source])
    assert code == 1 and out == ""
    assert message in err and "Traceback" not in err


def test_store_near_the_float_maximum_exits_0_quietly(capsys, tmp_path):
    ppath = tmp_path / "prog.json"
    ppath.write_text(_near_float_max_program().to_json())
    for cmd in ("evaluate", "witness"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, [cmd, "--program", str(ppath), "--input", ""])
        assert code == 0 and err == "" and json.loads(out)["decision"] == 0


@pytest.mark.parametrize("module", ["scipy", "concurrent.futures"])
def test_cli_import_leaves_scipy_unloaded(module):
    # loading scipy.linalg takes about as long as importing the CLI; only the
    # sigma_min kernel needs it.  The Monte Carlo driver is serial, so no thread pool is loaded
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, spanforge.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_rejected_compiled_witness_leaves_scipy_unloaded(tmp_path):
    """The negative side's projection and its certificate run on numpy
    alone: in a fresh interpreter, the witness of a rejected query of the
    compiled sparse n = 8 rank program loads no scipy."""
    comp = compile_sparse(build_rank_program(8, 8, 4, np.random.default_rng(7)), k_nnz=3, l_nnz=3, precision=3)
    path, out = tmp_path / "rank8.compiled.json", tmp_path / "witness.json"
    path.write_text(comp.to_json())
    bits = "".join(map(str, comp.encode(np.diag([0.5] * 3 + [0.0] * 5))))
    argv = ["witness", "--program", str(path), "--input", bits, "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, spanforge.cli; print(spanforge.cli.main({argv!r}), 'scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    assert json.loads(out.read_text())["decision"] == 0


@pytest.mark.parametrize("diagonal", [[0.5] * 3 + [0.0] * 5, [0.0] * 8], ids=["rank-3", "zero"])
def test_a_rejected_witness_at_tol_0_keeps_its_size(capsys, tmp_path, diagonal):
    """On the compiled sparse n = 8 rank program, ``witness --tol 0`` reports
    the rejected input's negative witness of the default tolerance: at full
    column rank the rounding left in the constraint is no null space."""
    comp = compile_sparse(build_rank_program(8, 8, 4, np.random.default_rng(8)), k_nnz=3, l_nnz=3, precision=3)
    path = tmp_path / "rank8.compiled.json"
    path.write_text(comp.to_json())
    bits = "".join(map(str, comp.encode(np.diag(diagonal))))
    sizes = []
    for tol in ([], ["--tol", "0"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["witness", "--program", str(path), "--input", bits, *tol])
        report = json.loads(out)
        assert code == 0 and err == "" and report["decision"] == 0
        sizes.append(report["size"])
    assert sizes[0] > 0.0 and sizes[1] == pytest.approx(sizes[0], rel=1e-9)


@pytest.mark.parametrize(
    "text,entry",
    [("[[1e400, 0], [0, 0]]", "[0][0]"),  # JSON reads 1e400 as inf
     ("[[0, 0], [0, NaN]]", "[1][1]"),
     ('[[1, "x"], [0, 0]]', "[0][1]"),
     ("[[1, 0], [0]]", "differ in length"),
     ("[1, 0]", "2-D"),
     (f"[[0, 0], [0, 1{'0' * 400}]]", "[1][1] is too large for a float"),
     ("[[1.5e308, 1e308], [1e308, -1e308]]", "[0][0] is too large: 1.5e+308")],
    ids=["inf", "nan", "string", "ragged", "vector", "past-float", "near-float-max"],
)
@pytest.mark.parametrize("cmd", ["evaluate", "witness"])
def test_bad_input_matrix_names_entry(capsys, hl_files, cmd, text, entry):
    ppath, accept, _ = hl_files
    accept.write_text(text)
    code, out, err = _run(capsys, [cmd, "--highlevel", str(ppath), "--input", str(accept)])
    assert code == 1 and out == ""
    assert entry in err and "Traceback" not in err


@pytest.mark.parametrize(
    "kind,text,message",
    [("matrix", '[["1", 0], [0, 1]]', "input matrix entry [0][0] is not a number: '1'"),
     ("matrix", "[[true, false], [false, true]]", "input matrix entry [0][0] is not a number: True"),
     ("matrix", "[[1, 0], [0, null]]", "input matrix entry [1][1] is not a number: None"),
     ("highlevel", '{"space_dim": 2, "num_inputs": 2, "target": [true, 0]}', "target[0] is not a number: True"),
     ("highlevel", '{"space_dim": 2, "num_inputs": 2, "target": [1, 0], "free_basis": [[0, "1"]]}',
      "free_basis[0][1] is not a number: '1'"),
     ("lowlevel", '{"dim": 2, "num_vars": 1, "target": [1, 0], "free": [[null, 0]]}', "free[0][0] is not a number: None"),
     ("lowlevel", '{"dim": 2, "num_vars": 1, "target": [1, 0], "labeled": [{"vec": [1, false], "var": 1, "val": 1}]}',
      "labeled[0].vec[1] is not a number: False")],
    ids=["matrix-string", "matrix-booleans", "matrix-null", "hl-target-true", "hl-basis-string", "ll-free-null",
         "ll-labeled-false"],
)
@pytest.mark.parametrize("cmd", ["evaluate", "witness"])
def test_json_values_that_are_not_numbers_exit_1(capsys, hl_files, tmp_path, kind, text, message, cmd):
    # numpy reads "1" and true as 1.0 and null as nan, so a check after
    # conversion would accept the first two and name null as a nan
    ppath, accept, _ = hl_files
    path = tmp_path / "file.json"
    path.write_text(text)
    argv = {"matrix": ["--highlevel", str(ppath), "--input", str(path)],
            "highlevel": ["--highlevel", str(path), "--input", str(accept)],
            "lowlevel": ["--program", str(path), "--input", "1"]}[kind]
    assert _run(capsys, [cmd, *argv]) == (1, "", f"error: {message}\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spanforge", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "spanforge" in proc.stdout
