"""Batch command-line front end.

Subcommands: evaluate, witness, compile, rank-experiment,
wishart-experiment, ratio-experiment, lowerbound-suite.  Exit codes: 0 on
success, 1 for malformed inputs (the message names the offending field or
file), 2 for infeasible requests such as asking for a witness side that
does not exist.  Identical command lines with identical seeds produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import calibration
from .compiler import MAX_STORE_ENTRIES, CompiledProgram, compile_dense, compile_sparse
from .errors import NoNegativeWitness, NoPositiveWitness, SpanforgeError
from .highlevel import HighLevelProgram
from .linalg import DEFAULT_TOL, input_matrix, tol_field
from .lowlevel import LowLevelProgram
from .programs import (
    RankExperimentConfig,
    grover_dj_program,
    run_rank_trials,
    unique_search_input,
    unique_search_program,
)
from .randmat import (
    RngStream,
    exp_block_inverse_norm,
    exp_inverse_wishart_trace,
    exp_lambda_min_cdf,
    exp_ratio_scaling,
)
from .reports import TOOL_VERSION, render_csv, render_json, report_envelope


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"input file '{path}' does not exist")
    except json.JSONDecodeError as exc:
        raise ValueError(f"input file '{path}' is not valid JSON: {exc}")


def _load_lowlevel(path: str) -> LowLevelProgram:
    data = _read_json(path)
    if isinstance(data, dict) and "encoder" in data:
        return CompiledProgram.from_json_dict(data).program
    return LowLevelProgram.from_json_dict(data)


def _load_highlevel(path: str) -> HighLevelProgram:
    return HighLevelProgram.from_json_dict(_read_json(path))


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _witness_payload(report) -> dict:
    return {
        "decision": report.decision,
        "size": report.size,
        "witness": [float(x) for x in report.witness],
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_evaluate(args) -> int:
    if (args.program is None) == (args.highlevel is None):
        raise ValueError("exactly one of --program / --highlevel is required")
    if args.program:
        prog = _load_lowlevel(args.program)
        decision = prog.evaluate(args.input, args.tol)
        payload = {"decision": decision, "input": args.input, "num_vars": prog.num_vars}
    else:
        prog = _load_highlevel(args.highlevel)
        matrix = input_matrix(_read_json(args.input))
        decision = prog.evaluate(matrix, args.tol)
        payload = {"decision": decision, "input": args.input, "shape": list(matrix.shape)}
    _write_output(render_json({"tool_version": TOOL_VERSION, "kind": "evaluate", **payload}), args.out)
    return 0


def _cmd_witness(args) -> int:
    if (args.program is None) == (args.highlevel is None):
        raise ValueError("exactly one of --program / --highlevel is required")
    if args.program:
        prog = _load_lowlevel(args.program)
        source = args.input
    else:
        prog = _load_highlevel(args.highlevel)
        source = input_matrix(_read_json(args.input))
    solve = {"auto": prog.witness, "pos": prog.positive_witness, "neg": prog.negative_witness}[args.side]
    report = solve(source, args.tol)
    payload = {"tool_version": TOOL_VERSION, "kind": "witness", **_witness_payload(report)}
    _write_output(render_json(payload), args.out)
    return 0


def _cmd_compile(args) -> int:
    prog = _load_highlevel(args.highlevel)
    # dense mode takes neither budget, sparse_cols --k-nnz only, sparse both
    budgets = (("--k-nnz", args.k_nnz, args.mode != "dense"), ("--l-nnz", args.l_nnz, args.mode == "sparse"))
    for flag, value, used in budgets:
        if (value is not None) != used:
            raise ValueError(f"{flag} {'is required for' if used else 'does not apply to'} mode {args.mode}")
    if args.mode == "dense":
        compiled = compile_dense(prog, precision=args.bits)
    else:
        compiled = compile_sparse(prog, k_nnz=args.k_nnz, precision=args.bits, l_nnz=args.l_nnz)
    _write_output(compiled.to_json() + "\n", args.out)
    return 0


def _cmd_rank_experiment(args) -> int:
    flags = {"--n": args.n, "--m": args.m, "--r": args.r, "--L": args.L, "--trials": args.trials,
             "--seed": args.seed, "--tol": args.tol}
    if args.config:
        given = [name for name, val in flags.items() if val is not None]
        if given:
            raise ValueError(f"rank-experiment --config reads every parameter from the file; drop {', '.join(given)}")
        config = RankExperimentConfig.from_json_dict(_read_json(args.config))
    else:
        missing = [name for name in ("--n", "--m", "--r", "--trials", "--seed") if flags[name] is None]
        if missing:
            raise ValueError(f"rank-experiment needs {', '.join(missing)} (or --config)")
        config = RankExperimentConfig(
            n=args.n, m=args.m, r=args.r, L=args.L, trials=args.trials,
            master_seed=args.seed, tolerance=args.tol if args.tol is not None else DEFAULT_TOL,
        )
    summary = run_rank_trials(
        config,
        bound_constant=calibration.RANK_POSITIVE_C,
        negative_threshold=calibration.RANK_NEGATIVE_THRESHOLD,
    )
    header = [
        "trial", "side", "decision", "correct", "witness_size",
        "c_r", "L_used", "bound", "within_bound", "promise_met",
    ]
    rows = [
        [r.trial, r.side, r.decision, r.correct, r.witness_size,
         r.c_r, r.L_used, r.bound, r.within_bound, r.promise_met]
        for r in summary.rows
    ]
    results = {
        "fraction_correct": summary.fraction_correct,
        "positive_within_bound": summary.positive_within_bound,
        "negative_within_threshold": summary.negative_within_threshold,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    if args.format == "csv":
        _write_output(render_csv(header, rows), args.out)
    else:
        _write_output(
            render_json(report_envelope("rank-experiment", config.to_json_dict(), results)),
            args.out,
        )
    return 0


def _cmd_wishart_experiment(args) -> int:
    if args.kind != "trace" and args.m is not None:
        raise ValueError(f"--m does not apply to --kind {args.kind}")
    stream = RngStream(seed=args.seed)
    if args.kind == "lambda-min":
        est = exp_lambda_min_cdf(args.n, args.trials, stream)
        header = ["n", "trials", "ks_stat", "median_empirical", "median_limit"]
        row = [est.n, est.trials, est.ks_stat, est.median_empirical, est.median_limit]
    else:
        if args.kind == "block":
            est = exp_block_inverse_norm(args.n, args.trials, stream)
        elif args.m is None:
            raise ValueError("--m is required for --kind trace")
        else:
            est = exp_inverse_wishart_trace(args.n, args.m, args.trials, stream)
        header = ["n", "m" if args.kind == "trace" else "block", "trials", "estimate", "stderr", "true_value"]
        row = [est.n, est.size, est.trials, est.estimate, est.stderr, est.true_value]
    if args.format == "csv":
        _write_output(render_csv(header, [row]), args.out)
    else:
        config = {"kind": args.kind, "n": args.n, "m": args.m, "trials": args.trials, "seed": args.seed}
        _write_output(
            render_json(report_envelope("wishart-experiment", config, dict(zip(header, row)))),
            args.out,
        )
    return 0


def _cmd_ratio_experiment(args) -> int:
    try:
        n_list = [int(tok) for tok in args.n.split(",") if tok]
    except ValueError:
        raise ValueError(f"--n must list integer sizes, e.g. 50,100,200, got {args.n!r}") from None
    if not n_list:
        raise ValueError("--n must list at least one size, e.g. 50,100,200")
    result = exp_ratio_scaling(n_list, args.trials, RngStream(seed=args.seed))
    header = ["n", "trials", "median_ratio", "min_ratio", "slope"]
    rows = [[r.n, r.trials, r.median_ratio, r.min_ratio, result.slope] for r in result.rows]
    if args.format == "csv":
        _write_output(render_csv(header, rows), args.out)
    else:
        config = {"n_list": n_list, "trials": args.trials, "seed": args.seed}
        results = {"slope": result.slope, "rows": [dict(zip(header, row)) for row in rows]}
        _write_output(
            render_json(report_envelope("ratio-experiment", config, results)), args.out
        )
    return 0


def _cmd_lowerbound_suite(args) -> int:
    n, m = args.n, args.m
    if n % 2:
        raise ValueError(f"--n must be even for the promise family, got {n}")
    # the largest matrices built are the (n + 1) x (n + 1) projector of the
    # unique-search witness and the n x m promise inputs
    height, width = max((n + 1, n + 1), (n, m), key=lambda shape: shape[0] * shape[1])
    if min(n, m) > 0 and height * width > MAX_STORE_ENTRIES:
        raise ValueError(f"--n={n}, --m={m} ask for a {height} x {width} matrix, "
                         f"past the cap of {MAX_STORE_ENTRIES} entries")
    rows = []
    gd = grover_dj_program(n, m)
    ones = np.ones((n, 1))
    balanced = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    pos_input = np.column_stack([ones.ravel()] + [balanced] * (m - 1)) if m > 1 else ones
    neg_input = np.column_stack([balanced] * m)
    rep = gd.positive_witness(pos_input)
    rows.append(["grover_dj", "with_all_ones_column", rep.decision, rep.size, 1.0, rep.size <= 1.0 + 1e-9])
    rep = gd.negative_witness(neg_input)
    rows.append(["grover_dj", "all_balanced", rep.decision, rep.size, 1.0 / n, rep.size <= 1.0 / n + 1e-9])
    us = unique_search_program(n)
    rep = us.positive_witness(unique_search_input([0] * n))
    rows.append(["unique_search", "zero_input", rep.decision, rep.size, 1.0, abs(rep.size - 1.0) <= 1e-9])
    weight1 = [0] * n
    weight1[0] = 1
    rep = us.negative_witness(unique_search_input(weight1))
    rows.append(["unique_search", "weight_one", rep.decision, rep.size, 2.0, rep.size <= 2.0 + 1e-9])
    header = ["program", "instance", "decision", "size", "claimed_bound", "within_bound"]
    if args.format == "csv":
        _write_output(render_csv(header, rows), args.out)
    else:
        config = {"n": n, "m": m}
        results = {"rows": [dict(zip(header, row)) for row in rows]}
        _write_output(
            render_json(report_envelope("lowerbound-suite", config, results)), args.out
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanforge", description="Span program workbench batch front end."
    )
    parser.add_argument("--version", action="version", version=f"spanforge {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evaluate", help="evaluate a program on one input")
    pe.add_argument("--program", help="low-level or compiled program JSON")
    pe.add_argument("--highlevel", help="high-level program JSON")
    pe.add_argument("--input", required=True, help="bit string, or matrix JSON path for --highlevel")
    pe.add_argument("--tol", type=float, default=None)
    pe.add_argument("--out")
    pe.add_argument("--format", choices=["json"], default="json")
    pe.set_defaults(handler=_cmd_evaluate)

    pw = sub.add_parser("witness", help="optimal witness for one input")
    pw.add_argument("--program")
    pw.add_argument("--highlevel")
    pw.add_argument("--input", required=True)
    pw.add_argument("--side", choices=["auto", "pos", "neg"], default="auto")
    pw.add_argument("--tol", type=float, default=None)
    pw.add_argument("--out")
    pw.add_argument("--format", choices=["json"], default="json")
    pw.set_defaults(handler=_cmd_witness)

    pc = sub.add_parser("compile", help="compile a high-level program to Boolean queries")
    pc.add_argument("--highlevel", required=True)
    pc.add_argument("--mode", choices=["dense", "sparse_cols", "sparse"], required=True)
    pc.add_argument("--bits", type=int, required=True, help="fixed-point precision k")
    pc.add_argument("--k-nnz", type=int, default=None, help="column sparsity budget")
    pc.add_argument("--l-nnz", type=int, default=None, help="row sparsity budget")
    pc.add_argument("--out")
    pc.set_defaults(handler=_cmd_compile)

    pr = sub.add_parser("rank-experiment", help="seeded rank-program trial suite")
    pr.add_argument("--config", help="JSON config {n,m,r,L,trials,master_seed,tolerance}")
    pr.add_argument("--n", type=int)
    pr.add_argument("--m", type=int)
    pr.add_argument("--r", type=int)
    pr.add_argument("--L", type=float, default=None)
    pr.add_argument("--trials", type=int)
    pr.add_argument("--seed", type=int)
    pr.add_argument("--tol", type=float, default=None)
    pr.add_argument("--out")
    pr.add_argument("--format", choices=["csv", "json"], default="csv")
    pr.set_defaults(handler=_cmd_rank_experiment)

    pwish = sub.add_parser("wishart-experiment", help="Wishart Monte Carlo checks")
    pwish.add_argument("--kind", choices=["trace", "lambda-min", "block"], default="trace")
    pwish.add_argument("--n", type=int, required=True)
    pwish.add_argument("--m", type=int, default=None)
    pwish.add_argument("--trials", type=int, required=True)
    pwish.add_argument("--seed", type=int, required=True)
    pwish.add_argument("--out")
    pwish.add_argument("--format", choices=["csv", "json"], default="csv")
    pwish.set_defaults(handler=_cmd_wishart_experiment)

    prat = sub.add_parser("ratio-experiment", help="1/sigma_min vs c(A) scaling")
    prat.add_argument("--n", required=True, help="comma-separated sizes, e.g. 50,100,200,400")
    prat.add_argument("--trials", type=int, required=True)
    prat.add_argument("--seed", type=int, required=True)
    prat.add_argument("--out")
    prat.add_argument("--format", choices=["csv", "json"], default="csv")
    prat.set_defaults(handler=_cmd_ratio_experiment)

    plow = sub.add_parser("lowerbound-suite", help="exact witness sizes of the hand-built examples")
    plow.add_argument("--n", type=int, default=4)
    plow.add_argument("--m", type=int, default=3)
    plow.add_argument("--out")
    plow.add_argument("--format", choices=["csv", "json"], default="csv")
    plow.set_defaults(handler=_cmd_lowerbound_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "tol", None) is not None:
            tol_field(args.tol, "--tol")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.handler(args)
    except (NoPositiveWitness, NoNegativeWitness) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (SpanforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
