"""One parser per process: ``cli.main`` builds it on its first call and reuses
it.  Reuse must not change what any command prints or returns, and no
command line or input file, however malformed, may end in anything but exit
0, 1 or 2."""

import argparse
import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spanforge import cli
from spanforge.compiler import compile_dense
from spanforge.highlevel import HighLevelProgram
from spanforge.lowlevel import MAX_DENSE_ENTRIES

SUBCOMMANDS = ("evaluate", "witness", "compile", "rank-experiment", "wishart-experiment",
               "ratio-experiment", "lowerbound-suite")


def _run(argv):
    """(status, stdout, stderr) of one ``main`` call: the status is what
    ``main`` returned, or ``("exit", code)`` for a ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 2 x 2 high-level program accepting ``accept`` and rejecting
    ``reject``, its dense k = 1 compilation with both inputs' bit strings, a
    rank-experiment config, a directory and a missing path."""
    d = tmp_path_factory.mktemp("cli")
    hl = HighLevelProgram(space_dim=2, num_inputs=2, target=np.array([1.0, 0.0]), free_basis=np.zeros((2, 0)))
    comp = compile_dense(hl, precision=1)
    accept, reject = np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([[0.0, 0.0], [-1.0, -1.0]])
    paths = {name: d / name for name in ("hl.json", "compiled.json", "accept.json", "reject.json", "config.json")}
    paths["hl.json"].write_text(hl.to_json())
    paths["compiled.json"].write_text(comp.to_json())
    paths["accept.json"].write_text(json.dumps(accept.tolist()))
    paths["reject.json"].write_text(json.dumps(reject.tolist()))
    paths["config.json"].write_text(json.dumps({"n": 4, "m": 4, "r": 2, "trials": 2, "master_seed": 3}))
    paths["dir"], paths["missing"], paths["out"] = d, d / "missing.json", d / "out.txt"
    paths["bits"] = ["".join(map(str, comp.encode(a))) for a in (accept, reject)]
    return paths


def test_a_second_main_call_builds_no_parser(files, monkeypatch):
    assert cli.main(["lowerbound-suite", "--out", str(files["out"])]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert cli.main(["lowerbound-suite", "--out", str(files["out"])]) == 0
    assert _run(["witness", "--help"])[0] == ("exit", 0)
    assert built == []


def _parity_cases(files):
    help_ = [["--help"]] + [[sub, "--help"] for sub in SUBCOMMANDS]
    usage = [
        [],
        ["evaluate", "--program", str(files["compiled.json"])],
        ["witness", "--input", "0", "--side", "both"],
        ["compile", "--highlevel", str(files["hl.json"]), "--mode", "dense", "--bits", "one"],
        ["rank-experiment", "--n", "4", "--L"],
        ["wishart-experiment", "--kind", "trace", "--n", "3"],
        ["ratio-experiment", "--n", "2,4", "--trials", "2", "--seed", "1", "--format", "xml"],
        ["lowerbound-suite", "--n", "4", "--extra"],
    ]
    handler = [["evaluate", "--program", str(files["missing"]), "--input", "0"]]
    return ([(argv, ("exit", 0)) for argv in help_ + [["--version"]]] + [(argv, ("exit", 2)) for argv in usage]
            + [(argv, 1) for argv in handler])


def test_a_reused_parser_prints_what_a_fresh_one_prints(files, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cases = _parity_cases(files)
    reused = [(_run(argv), _run(argv)) for argv, _ in cases]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for (argv, status), (first, second) in zip(cases, reused):
        fresh = _run(argv)
        assert first == second == fresh, argv
        assert fresh[0] == status and (fresh[1] or fresh[2]), argv
    assert reused[0][0][1].startswith("usage: spanforge [-h] [--version]")
    assert reused[len(SUBCOMMANDS) + 1][0][1] == f"spanforge {cli.TOOL_VERSION}\n"


# every subcommand's options, in the order declared: option strings, type,
# choices, default, required and help.  Unlike argparse's help layout, these
# do not depend on the Python version.
PINNED_OPTIONS = {
    "evaluate": [
        (("-h", "--help"), None, None, argparse.SUPPRESS, False, "show this help message and exit"),
        (("--program",), None, None, None, False, "low-level or compiled program JSON"),
        (("--highlevel",), None, None, None, False, "high-level program JSON"),
        (("--input",), None, None, None, True, "bit string, or matrix JSON path for --highlevel"),
        (("--tol",), float, None, None, False, None),
        (("--out",), None, None, None, False, None),
        (("--format",), None, ("json",), "json", False, None),
    ],
    "witness": [
        (("-h", "--help"), None, None, argparse.SUPPRESS, False, "show this help message and exit"),
        (("--program",), None, None, None, False, None),
        (("--highlevel",), None, None, None, False, None),
        (("--input",), None, None, None, True, None),
        (("--side",), None, ("auto", "pos", "neg"), "auto", False, None),
        (("--tol",), float, None, None, False, None),
        (("--out",), None, None, None, False, None),
        (("--format",), None, ("json",), "json", False, None),
    ],
    "compile": [
        (("-h", "--help"), None, None, argparse.SUPPRESS, False, "show this help message and exit"),
        (("--highlevel",), None, None, None, True, None),
        (("--mode",), None, ("dense", "sparse_cols", "sparse"), None, True, None),
        (("--bits",), int, None, None, True, "fixed-point precision k"),
        (("--k-nnz",), int, None, None, False, "column sparsity budget"),
        (("--l-nnz",), int, None, None, False, "row sparsity budget"),
        (("--out",), None, None, None, False, None),
    ],
    "rank-experiment": [
        (("-h", "--help"), None, None, argparse.SUPPRESS, False, "show this help message and exit"),
        (("--config",), None, None, None, False, "JSON config {n,m,r,L,trials,master_seed,tolerance}"),
        (("--n",), int, None, None, False, None),
        (("--m",), int, None, None, False, None),
        (("--r",), int, None, None, False, None),
        (("--L",), float, None, None, False, None),
        (("--trials",), int, None, None, False, None),
        (("--seed",), int, None, None, False, None),
        (("--tol",), float, None, None, False, None),
        (("--out",), None, None, None, False, None),
        (("--format",), None, ("csv", "json"), "csv", False, None),
    ],
    "wishart-experiment": [
        (("-h", "--help"), None, None, argparse.SUPPRESS, False, "show this help message and exit"),
        (("--kind",), None, ("trace", "lambda-min", "block"), "trace", False, None),
        (("--n",), int, None, None, True, None),
        (("--m",), int, None, None, False, None),
        (("--trials",), int, None, None, True, None),
        (("--seed",), int, None, None, True, None),
        (("--out",), None, None, None, False, None),
        (("--format",), None, ("csv", "json"), "csv", False, None),
    ],
    "ratio-experiment": [
        (("-h", "--help"), None, None, argparse.SUPPRESS, False, "show this help message and exit"),
        (("--n",), None, None, None, True, "comma-separated sizes, e.g. 50,100,200,400"),
        (("--trials",), int, None, None, True, None),
        (("--seed",), int, None, None, True, None),
        (("--out",), None, None, None, False, None),
        (("--format",), None, ("csv", "json"), "csv", False, None),
    ],
    "lowerbound-suite": [
        (("-h", "--help"), None, None, argparse.SUPPRESS, False, "show this help message and exit"),
        (("--n",), int, None, 4, False, None),
        (("--m",), int, None, 3, False, None),
        (("--out",), None, None, None, False, None),
        (("--format",), None, ("csv", "json"), "csv", False, None),
    ],
}


def test_every_subcommand_keeps_its_options():
    def read(action):
        return (tuple(action.option_strings), action.type, tuple(action.choices) if action.choices else None,
                action.default, action.required, action.help)

    assert {name: [read(action) for action in sub._actions] for name, sub in _subparsers().items()} == PINNED_OPTIONS


# ---------------------------------------------------------------------------
# argv property

# what each file-naming option is given besides junk: its own kind of file,
# another kind, a directory or a missing path
PATHS = {"--program": ("compiled.json", "hl.json", "dir", "missing"),
         "--highlevel": ("hl.json", "compiled.json", "missing"),
         "--input": ("accept.json", "reject.json", "hl.json", "missing"),
         "--config": ("config.json", "hl.json", "dir", "missing")}
# huge integers, past every cap, go to every integer option
HUGE = st.sampled_from([str(10**18), str(10**24)])
INTS = st.integers(-2, 6).map(str) | HUGE
FLOATS = st.sampled_from(["0", "0.5", "-0.25", "1e-12", "1e300", "nan", "inf", "-inf"])
JUNK = st.sampled_from(["", "x", "-", "--", "0,1", "2,4", "3,3", "0110", "[]", "{}", "\u0661"])


def _subparsers():
    parser = cli.build_parser.__wrapped__()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _value(action, files, clean):
    """A value of the option's own kind, or, unless ``clean``, now and then
    any value or none."""
    flag = action.option_strings[0]
    if flag == "--out":  # never write outside the test's directory
        return st.sampled_from([str(files["out"])] if clean else [str(files["out"]), str(files["dir"]), "", None])
    if flag == "--trials":
        typed = st.integers(-2, 3).map(str) | HUGE
    elif action.choices:
        typed = st.sampled_from(list(action.choices))
    elif flag in PATHS:
        typed = st.sampled_from([str(files[name]) for name in PATHS[flag]] + (files["bits"] if flag == "--input" else []))
    elif action.type is int:
        typed = INTS
    elif action.type is float:
        typed = INTS | FLOATS
    else:  # ratio-experiment's comma-separated sizes
        typed = st.lists(INTS, max_size=3).map(",".join)
    if clean:
        return typed
    anything = FLOATS | JUNK if flag == "--trials" else INTS | FLOATS | JUNK
    return st.sampled_from([typed] * 6 + [anything, st.none()]).flatmap(lambda values: values)


@st.composite
def command_lines(draw, subparsers, files):
    """A subcommand with a random subset of its options in random order.  Half
    the lines give every option a value of its kind and every required
    option; the rest leave a required option out one time in eight."""
    name = draw(st.sampled_from(SUBCOMMANDS))
    clean = draw(st.booleans())
    actions = [a for a in subparsers[name]._actions if a.option_strings[0] != "-h"]
    chosen = draw(st.lists(st.sampled_from(actions), unique=True))
    chosen += [a for a in actions if a.required and a not in chosen and (clean or draw(st.integers(0, 7)))]
    argv = [name]
    for action in chosen:
        value = draw(_value(action, files, clean))
        argv += [action.option_strings[0]] + ([] if value is None else [value])
    return argv


def test_any_command_line_exits_0_1_or_2(files):
    reference = ["evaluate", "--program", str(files["compiled.json"]), "--input", files["bits"][0]]
    before = _run(reference)
    assert before[0] == 0 and json.loads(before[1])["decision"] == 1

    # once an empty --program fell through to the high-level branch
    # (TypeError), --L 1e300 overflowed the bound's L**2 (OverflowError), and
    # an empty --out printed the report and exited 0
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @example([["evaluate", "--program", "", "--input", "-"]])
    @example([["rank-experiment", "--n", "4", "--m", "4", "--r", "4", "--trials", "1", "--seed", "1", "--L", "1e300"]])
    @example([["lowerbound-suite", "--out", ""]])
    @given(st.lists(command_lines(_subparsers(), files), min_size=1, max_size=3))
    def check(sequence):
        for argv in sequence:
            code, out, err = _run(argv)
            assert code in (0, 1, 2, ("exit", 0), ("exit", 2)), (argv, code)
            assert "Traceback" not in err, argv
            empty_out = "--out" in argv and argv[argv.index("--out") + 1:][:1] == [""]
            if empty_out and code in (0, 1, 2):  # parsed, so main checked --out first
                assert (code, out) == (1, "") and "--out" in err, argv
        assert _run(reference) == before

    check()


# ---------------------------------------------------------------------------
# file property

# what a JSON file may hold in place of any value: other types, numbers numpy
# reads from non-numbers, huge integers, NaN and infinities, empty and nested
# containers
VALUES = st.sampled_from([None, True, False, "", "1", "x", 0, 1, -1, 2, 0.5, -0.0, 1e308, -1e308, 10**18, 10**24,
                          10**400, float("nan"), float("inf"), float("-inf"), [], {}, [1.0], [[1.0, 0.0]], [True],
                          ["1"]])

LOWLEVEL = {"dim": 2, "num_vars": 1, "target": [1.0, 0.0], "free": [[0.0, 0.0]],
            "labeled": [{"vec": [1.0, 0.0], "var": 1, "val": 1}, {"vec": [0.0, 1.0], "var": 1, "val": 0}],
            "tol": 1e-9}


@st.composite
def mutated(draw, doc):
    """``doc`` with one node, reached by a random walk from the root,
    replaced by a value from ``VALUES``, dropped, or joined by a sibling: an
    extra key, or a repeated or extra list entry (a ragged list)."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if parent is None:
        return draw(VALUES) if action == "replace" else doc
    if action == "replace":
        parent[key] = draw(VALUES)
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent["extra"] = draw(VALUES)
    else:
        parent.append(copy.deepcopy(node) if draw(st.booleans()) else draw(VALUES))
    return doc


def test_any_input_file_exits_0_1_or_2(files, monkeypatch):
    compiled, bits = json.loads(files["compiled.json"].read_text()), files["bits"][0]
    matrix, out = str(files["accept.json"]), ["--out", str(files["out"])]
    kinds = {  # the file's document, and the commands that read it from path F
        "highlevel": (json.loads(files["hl.json"].read_text()),
                      [["evaluate", "--highlevel", "F", "--input", matrix], ["witness", "--highlevel", "F", "--input", matrix],
                       ["compile", "--highlevel", "F", "--mode", "sparse", "--bits", "1", "--k-nnz", "1", "--l-nnz", "1"]]),
        "compiled": (compiled, [["evaluate", "--program", "F", "--input", bits], ["witness", "--program", "F", "--input", bits]]),
        "lowlevel": (LOWLEVEL, [["evaluate", "--program", "F", "--input", "1"], ["witness", "--program", "F", "--input", "1"]]),
        "matrix": (json.loads(files["accept.json"].read_text()),
                   [["evaluate", "--highlevel", str(files["hl.json"]), "--input", "F"],
                    ["witness", "--highlevel", str(files["hl.json"]), "--input", "F", "--side", "pos"]]),
        "config": (json.loads(files["config.json"].read_text()), [["rank-experiment", "--config", "F", "--format", "json"]]),
    }
    path = files["dir"] / "fuzzed.json"
    run = cli.run_rank_trials

    def run_under_the_cap(config, **kwargs):  # a count past the cap is refused before it runs
        assert config.trials <= MAX_DENSE_ENTRIES, config
        return run(config, **kwargs)

    monkeypatch.setattr(cli, "run_rank_trials", run_under_the_cap)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @example(("config", {"n": 4, "m": 4, "r": 2, "trials": MAX_DENSE_ENTRIES + 1, "master_seed": 3}))
    @example(("config", {"n": 4, "m": 4, "r": 2, "trials": 10**24, "master_seed": 3}))
    @given(st.sampled_from(sorted(kinds)).flatmap(lambda kind: st.tuples(st.just(kind), mutated(kinds[kind][0]))))
    def check(case):
        kind, doc = case
        trials = doc.get("trials") if kind == "config" and isinstance(doc, dict) else None
        counted = isinstance(trials, int) and not isinstance(trials, bool)
        # a trial count above 2 but under the cap is a long run, not a malformed file
        assume(not (counted and 2 < trials <= MAX_DENSE_ENTRIES))
        path.write_text(json.dumps(doc))
        for argv in kinds[kind][1]:
            argv = [str(path) if arg == "F" else arg for arg in argv] + out
            code, stdout, err = _run(argv)
            assert code in (0, 1, 2) and stdout == "" and "Traceback" not in err, (argv, doc, code, err)
            if counted and trials > MAX_DENSE_ENTRIES:
                assert code == 1 and "trials" in err, (doc, err)

    check()
