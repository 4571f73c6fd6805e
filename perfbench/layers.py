"""Per-layer metrics of a traced run.

Times (`*.s`, `*.self_s`) are totals in seconds over the traced run's fixed
work: one set-up plus the workload's `trace_passes` passes, with oracle work
excluded.  `*_per_query` / `*_per_trial` counts are per unit of the
workload (a witness query, a rank trial, a Monte Carlo draw, a CLI command)
over the traced passes.  A layer the workload bypasses reads 0.  A few
figures come from the workload itself (`Workload.layer_metrics`): witness
factorizations split by decision, and the size and density of what it
compiled.
"""

from __future__ import annotations

import inspect

LAYERS = ("linalg", "lowlevel", "highlevel", "compiler", "programs", "randmat", "reports", "cli")
CLI_SUBCOMMANDS = ("compile", "evaluate", "witness", "lowerbound-suite", "rank-experiment")
EXPERIMENTS = ("exp_lambda_min_cdf", "exp_c_bounded", "exp_ratio_scaling", "exp_inverse_wishart_trace")
COMPILERS = ("compiler.compile_dense", "compiler.compile_sparse", "compiler.compile_sparse_cols")

# (name, unit, better) -- the order and content of BENCHMARK.json's per_layer list
PER_LAYER = (
    ("linalg.calls_per_query", "count", "lower"),
    ("linalg.calls_per_pos_witness", "count", "lower"),
    ("linalg.calls_per_neg_witness", "count", "lower"),
    ("linalg.factored_cells_per_query", "count", "lower"),
    ("linalg.self_s_share", "ratio", "lower"),
    ("lowlevel.witness.self_s", "s", "lower"),
    ("lowlevel.evaluate.calls_per_query", "count", "lower"),
    ("lowlevel.available_vectors.s", "s", "lower"),
    ("lowlevel.columns_per_query", "count", "lower"),
    ("highlevel.evaluate.calls_per_trial", "count", "lower"),
    ("highlevel.witness.self_s", "s", "lower"),
    ("compiler.compile.s", "s", "lower"),
    ("compiler.encode.s", "s", "lower"),
    ("compiler.decode.s", "s", "lower"),
    ("compiler.lift.s", "s", "lower"),
    ("compiler.to_json.s", "s", "lower"),
    ("compiler.from_json.s", "s", "lower"),
    ("compiler.json_bytes", "bytes", "lower"),
    ("compiler.stored_nonzero_frac", "ratio", "higher"),
    ("compiler.program_dim", "count", "lower"),
    ("compiler.program_columns", "count", "lower"),
    ("programs.trial.s", "s", "lower"),
    ("programs.spectral_stats.s", "s", "lower"),
    ("programs.build_rank_program.s", "s", "lower"),
    ("programs.promise_resamples_per_trial", "count", "lower"),
    ("randmat.exp_lambda_min_cdf.s", "s", "lower"),
    ("randmat.exp_c_bounded.s", "s", "lower"),
    ("randmat.exp_ratio_scaling.s", "s", "lower"),
    ("randmat.exp_inverse_wishart_trace.s", "s", "lower"),
    ("randmat.draws", "count", "higher"),
    ("randmat.chunks", "count", "lower"),
    ("randmat.workers", "count", "lower"),
    ("reports.render.s", "s", "lower"),
    ("reports.bytes", "bytes", "lower"),
) + tuple(
    (f"cli.main.{sub}.s", "s", "lower") for sub in CLI_SUBCOMMANDS
) + (
    ("cli.load.s", "s", "lower"),
) + tuple(
    (f"{layer}.self_s", "s", "lower") for layer in LAYERS
) + (
    ("bench.queries", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


# -- hooks: counters read from arguments and results, keyed by span name --


def _columns(tracer, args, kwargs, result):
    """Available columns built for one input, whatever form they take."""
    mat = getattr(result, "matrix", result)
    shape = getattr(mat, "shape", None)
    if shape is not None and getattr(mat, "dtype", None) is not None and mat.dtype == bool:
        tracer.add("columns", int(mat.sum()))
    elif shape is not None and len(shape) == 2:
        tracer.add("columns", shape[1])


def _rendered(tracer, args, kwargs, result):
    tracer.add("report_bytes", len(result))


def _draws(fn_name):
    def hook(tracer, args, kwargs, result):
        import spanforge.randmat as randmat

        bound = inspect.signature(getattr(randmat, fn_name).__wrapped__).bind(*args, **kwargs)
        sizes = bound.arguments.get("n_list")
        tracer.add("draws", bound.arguments["trials"] * (len(list(sizes)) if sizes is not None else 1))

    return hook


def _chunks(tracer, args, kwargs, result):
    tracer.add("chunks", len(result))


def _rank_trials(tracer, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    tracer.add("rank_trials", config.trials)


HOOKS = {
    "lowlevel.LowLevelProgram.available_vectors": _columns,
    "reports.render_json": _rendered,
    "reports.render_csv": _rendered,
    "randmat.run_seeded_trials": _chunks,
    "programs.run_rank_trials": _rank_trials,
    **{f"randmat.{name}": _draws(name) for name in EXPERIMENTS},
}


def per_layer_metrics(workload, state, tracer, recs, wall: float, overhead: float) -> dict:
    import spanforge.randmat as randmat

    table = tracer.analyse()
    queries = sum(r[2] for r in recs)
    per_q = (lambda x: x / queries) if queries else (lambda x: 0.0)
    counts = tracer.counts
    passed = "bench.pass"
    rank_trials = counts.get((passed, "rank_trials"), 0.0)
    rank_draws = table.count("programs.random_rank_matrix", passed)
    try:
        workers = randmat.worker_count()
    except AttributeError:
        workers = 0
    m = {
        "linalg.calls_per_query": per_q(counts.get((passed, "factorizations"), 0.0)),
        "linalg.factored_cells_per_query": per_q(counts.get((passed, "factored_cells"), 0.0)),
        "linalg.calls_per_pos_witness": 0.0,
        "linalg.calls_per_neg_witness": 0.0,
        "lowlevel.witness.self_s": table.self_within("lowlevel", {"lowlevel.LowLevelProgram.witness"}),
        "lowlevel.evaluate.calls_per_query": per_q(table.count("lowlevel.LowLevelProgram.evaluate", passed)),
        "lowlevel.available_vectors.s": table.inclusive({"lowlevel.LowLevelProgram.available_vectors"}),
        "lowlevel.columns_per_query": per_q(counts.get((passed, "columns"), 0.0)),
        "highlevel.evaluate.calls_per_trial": per_q(table.count("highlevel.HighLevelProgram.evaluate", passed)),
        "highlevel.witness.self_s": table.self_within("highlevel", {
            "highlevel.HighLevelProgram.witness",
            "highlevel.HighLevelProgram.positive_witness",
            "highlevel.HighLevelProgram.negative_witness",
        }),
        "compiler.compile.s": table.inclusive(COMPILERS),
        "compiler.encode.s": table.inclusive({"compiler.CompiledProgram.encode"}),
        "compiler.decode.s": table.inclusive({"compiler.CompiledProgram.decode"}),
        "compiler.lift.s": table.inclusive({"compiler.CompiledProgram.lift_positive",
                                            "compiler.CompiledProgram.lift_negative"}),
        "compiler.to_json.s": table.inclusive({"compiler.CompiledProgram.to_json",
                                               "compiler.CompiledProgram.to_json_dict"}),
        "compiler.from_json.s": table.inclusive({"compiler.CompiledProgram.from_json",
                                                 "compiler.CompiledProgram.from_json_dict"}),
        "compiler.json_bytes": 0,
        "compiler.stored_nonzero_frac": 0.0,
        "compiler.program_dim": 0,
        "compiler.program_columns": 0,
        "programs.trial.s": table.inclusive({"programs.run_rank_trials"}),
        "programs.spectral_stats.s": table.inclusive({"randmat.spectral_stats"}),
        "programs.build_rank_program.s": table.inclusive({"programs.build_rank_program"}),
        "programs.promise_resamples_per_trial": (rank_draws - 2 * rank_trials) / rank_trials if rank_trials else 0.0,
        "randmat.draws": counts.get((passed, "draws"), 0.0),
        "randmat.chunks": counts.get((passed, "chunks"), 0.0),
        "randmat.workers": workers,
        "reports.render.s": table.inclusive({"reports.render_json", "reports.render_csv"}),
        "reports.bytes": counts.get((passed, "report_bytes"), 0.0),
        "cli.load.s": table.inclusive({"cli._load_lowlevel"}),
        "bench.queries": queries,
        "trace.overhead_frac": overhead,
    }
    for name in EXPERIMENTS:
        m[f"randmat.{name}.s"] = table.inclusive({f"randmat.{name}"})
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.{sub}.s"] = table.inclusive({f"cli.main.{sub}"})
    for layer in LAYERS:
        m[f"{layer}.self_s"] = table.layer_self(layer)
    m["linalg.self_s_share"] = m["linalg.self_s"] / wall if wall else 0.0
    m.update(workload.layer_metrics(state))
    return m
