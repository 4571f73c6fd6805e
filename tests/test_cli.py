import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from spanforge.cli import main
from spanforge.compiler import CompiledProgram
from spanforge.highlevel import HighLevelProgram
from spanforge.lowlevel import LabeledVector, LowLevelProgram


@pytest.fixture
def onehot_program(tmp_path):
    """Variable 1 picks e_1 (accepting) or e_2 (rejecting) against t = e_1."""
    prog = LowLevelProgram(
        dim=2,
        num_vars=1,
        target=np.array([1.0, 0.0]),
        free=np.zeros((0, 2)),
        labeled=(
            LabeledVector(vec=np.array([1.0, 0.0]), var=1, val=1),
            LabeledVector(vec=np.array([0.0, 1.0]), var=1, val=0),
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
     (["ratio-experiment", "--n", "1", "--trials", "10"], "--n")],
    ids=["trace-trials", "block-trials", "lambda-min-n", "ratio-n"],
)
def test_experiment_sizes_out_of_range_exit_1(capsys, argv, flag):
    code, out, err = _run(capsys, argv + ["--seed", "1"])
    assert code == 1 and out == ""
    assert flag in err and "Traceback" not in err


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


def test_wishart_deterministic_across_thread_counts(tmp_path, capsys, monkeypatch):
    argv = ["wishart-experiment", "--kind", "trace", "--n", "3", "--m", "8",
            "--trials", "2000", "--seed", "77"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    monkeypatch.setenv("SPANFORGE_THREADS", "1")
    assert main(argv + ["--out", str(a)]) == 0
    monkeypatch.setenv("SPANFORGE_THREADS", "4")
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spanforge", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "spanforge" in proc.stdout
