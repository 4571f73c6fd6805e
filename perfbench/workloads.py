"""The three workloads.  Each is a closed loop with one client: the next
operation starts when the previous one returns.  A pass is a fixed list of
operations, so every pass has the same mix; a run repeats passes.

Each workload exposes
  setup(seed, tracer)  -> state      compiles and inputs, timed as set-up
  ops(state, p)        -> [Op]       the operations of pass p
  finish(state)        -> [[str]]    pooled checks after the loop
  named(state, recs)   -> {name: (value, unit)}  workload-specific figures
  layer_metrics(state) -> {name: value}  per-layer figures the workload collects
Only `Op.call` is timed; `Op.check` runs the oracles on what it returned.

spanforge is always reached through module attributes and object methods,
never through names bound here, so the tracing wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import statistics
import warnings

import numpy as np

import inputs
import oracles
from spanforge import calibration, cli, compiler, programs, randmat


class Op:
    __slots__ = ("kind", "call", "check", "queries")

    def __init__(self, kind, call, check, queries=1):
        self.kind = kind
        self.call = call  # () -> output; the timed part
        self.check = check  # (output) -> list of failure messages
        self.queries = queries  # workload units this op carries


def paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def op_seed(seed: int, counter: int) -> int:
    return seed * 1_000_003 + counter


def rank_program(n: int, r: int, rng):
    sample = programs.build_rank_program(n, n, r, rng)
    return getattr(sample, "program", sample)


def compile_program(hl, mode: str, k: int, nnz: int):
    if mode == "dense":
        return compiler.compile_dense(hl, precision=k)
    return compiler.compile_sparse(hl, k_nnz=nnz, l_nnz=nnz, precision=k)


def program_shape(progs) -> dict:
    """Dimensions and column counts of compiled low-level programs, summed."""
    dims = cols = 0
    for prog in progs:
        dims += prog.dim
        cols += len(prog.free) + len(prog.labeled)
    return {"compiler.program_dim": dims, "compiler.program_columns": cols}


def median_ms(recs, kind=None) -> float:
    vals = [r[1] for r in recs if kind is None or r[0] == kind]
    return statistics.median(vals) * 1e3 if vals else float("nan")


class Workload:
    name = ""
    min_passes = 1  # an untraced run does at least this many passes
    trace_passes = 1  # fixed work of a traced run

    def __init__(self, scale: str = "full", workdir: str | None = None):
        self.scale = scale
        self.workdir = workdir

    def warm_up(self, state, tracer) -> None:
        """Run the first operation of each kind once, unchecked."""
        seen = set()
        with paused(tracer):
            for op in self.ops(state, 0):
                if op.kind not in seen:
                    seen.add(op.kind)
                    op.call()

    def finish(self, state) -> list[list[str]]:
        return []

    def named(self, state, recs) -> dict:
        return {}

    def layer_metrics(self, state) -> dict:
        return {}


# ---------------------------------------------------------------------------


class CompiledWitness(Workload):
    name = "compiled-witness"
    # (label, mode, n, k, nnz, accepted+rejected pairs per pass)
    SIZES = {
        "full": (("dense6", "dense", 6, 3, 3, 1), ("dense8", "dense", 8, 3, 3, 2), ("sparse8", "sparse", 8, 3, 3, 2)),
        "tiny": (("dense4", "dense", 4, 3, 2, 1), ("sparse4", "sparse", 4, 3, 2, 1)),
    }
    POOL_PAIRS = {"full": 16, "tiny": 2}
    min_passes = 4
    trace_passes = 5

    def setup(self, seed, tracer=None):
        rng = np.random.default_rng([seed, 1])
        progs = []
        for label, mode, n, k, nnz, per_pass in self.SIZES[self.scale]:
            r = n // 2
            hl = rank_program(n, r, rng)
            comp = compile_program(hl, mode, k, nnz)
            with paused(tracer):
                items = []
                for a, expected in inputs.labelled_inputs(mode, n, r, k, nnz, self.POOL_PAIRS[self.scale], rng):
                    source = int(hl.evaluate(comp.quantize(a)))
                    items.append((a, expected, source))
            progs.append((label, comp, items, per_pass))
        state = {"programs": progs, "tracer": tracer, "fact": {0: [0, 0], 1: [0, 0]}}
        self.warm_up(state, tracer)
        return state

    def ops(self, state, p):
        out = []
        for label, comp, items, per_pass in state["programs"]:
            for i in range(2 * per_pass):
                a, expected, source = items[(2 * per_pass * p + i) % len(items)]
                out.append(self._op(state, label, comp, a, expected, source))
        return out

    def _op(self, state, label, comp, a, expected, source):
        tracer = state["tracer"]

        def call():
            bits = comp.encode(a)
            f0 = tracer.total("factorizations") if tracer is not None else 0
            rep = comp.program.witness(bits)
            f1 = tracer.total("factorizations") if tracer is not None else 0
            lifted = comp.lift_positive(a) if rep.decision else comp.lift_negative(a)
            return rep.decision, rep.size, lifted.size, f1 - f0

        def check(out):
            decision, size, lifted, factorizations = out
            tally = state["fact"].get(int(decision))
            if tally is not None:
                tally[0] += factorizations
                tally[1] += 1
            return oracles.decision_matches(decision, source, expected) + oracles.optimum_within_lift(size, lifted)

        return Op(label, call, check)

    def named(self, state, recs):
        busy = sum(r[1] for r in recs)
        lat = [r[1] * 1e3 for r in recs]
        out = {
            "witness_qps": (len(recs) / busy, "queries/s"),
            "witness_p50_ms": (float(np.percentile(lat, 50)), "ms"),
            "witness_p90_ms": (float(np.percentile(lat, 90)), "ms"),
            "witness_samples": (len(recs), "count"),
        }
        for label, *_ in state["programs"]:
            out[f"witness_p50_ms.{label}"] = (median_ms(recs, label), "ms")
        return out

    def layer_metrics(self, state) -> dict:
        """Factorizations inside `LowLevelProgram.witness` by decision (traced
        runs only), and the size of the compiled programs."""
        fact = state["fact"]
        return {
            "linalg.calls_per_pos_witness": fact[1][0] / fact[1][1] if fact[1][1] else 0.0,
            "linalg.calls_per_neg_witness": fact[0][0] / fact[0][1] if fact[0][1] else 0.0,
            **program_shape(comp.program for _, comp, _, _ in state["programs"]),
        }


# ---------------------------------------------------------------------------


class Spectral(Workload):
    name = "spectral"
    # kind -> size parameters; "lambda_min" runs three times per pass so that
    # p50 falls inside its latencies and p90 inside those of "c_bounded"
    SIZES = {
        "full": {"wishart_trace": (3, 8, 20000), "ratio": (400, 3), "lambda_min": (100, 200), "c_bounded": (100, 500),
                 "check_lambda_min": (100, 3000)},
        "tiny": {"wishart_trace": (3, 8, 2000), "ratio": (40, 3), "lambda_min": (20, 100), "c_bounded": (10, 1000),
                 "check_lambda_min": (100, 3000)},
    }
    ORDER = ("wishart_trace", "lambda_min", "ratio", "lambda_min", "c_bounded", "lambda_min")
    min_passes = 12  # >= 6,000 pooled c(A) draws
    trace_passes = 12

    def setup(self, seed, tracer=None):
        state = {"seed": seed, "counter": 0, "exceed": [0, 0]}
        self.warm_up(state, tracer)
        state.update(counter=0, exceed=[0, 0])
        return state

    def _stream(self, state):
        state["counter"] += 1
        return randmat.RngStream(seed=op_seed(state["seed"], state["counter"]))

    def ops(self, state, p):
        return [self._op(state, kind) for kind in self.ORDER]

    def _op(self, state, kind):
        size = self.SIZES[self.scale][kind]
        stream = self._stream(state)
        if kind == "wishart_trace":
            n, m, draws = size

            def call():
                return randmat.exp_inverse_wishart_trace(n, m, draws, stream)

            def check(est):
                return oracles.trace_estimate(est.estimate, est.stderr, est.true_value)
        elif kind == "ratio":
            n, draws = size

            def call():
                with warnings.catch_warnings():
                    # one size gives a one-point slope fit; only the ratios are used
                    warnings.simplefilter("ignore", np.exceptions.RankWarning)
                    return randmat.exp_ratio_scaling([n], draws, stream)

            def check(res):
                return [msg for row in res.rows for msg in oracles.min_ratio(row.min_ratio)]
        elif kind == "lambda_min":
            n, draws = size

            def call():
                return randmat.exp_lambda_min_cdf(n, draws, stream)

            def check(res):
                return oracles.ks_small_sample(res.ks_stat, draws)
        else:
            n, draws = size

            def call():
                return randmat.exp_c_bounded([n], draws, calibration.C_BOUNDED_DELTA, stream)

            def check(rows):
                for row in rows:
                    state["exceed"][0] += int(round(row.exceedance * row.trials))
                    state["exceed"][1] += row.trials
                return []

        return Op(kind, call, check, queries=draws)

    def finish(self, state):
        n, draws = self.SIZES[self.scale]["check_lambda_min"]
        res = randmat.exp_lambda_min_cdf(n, draws, self._stream(state))
        return [
            oracles.ks_limit(res.ks_stat),
            oracles.exceedance(state["exceed"][0], state["exceed"][1], calibration.C_BOUNDED_EPSILON),
        ]

    def named(self, state, recs):
        out = {}
        for kind, name in (("lambda_min", "mc_lambda_min_per_s"), ("c_bounded", "mc_c_bound_per_s"),
                           ("ratio", "mc_ratio_per_s"), ("wishart_trace", "mc_wishart_trace_per_s")):
            sub = [r for r in recs if r[0] == kind]
            if sub:
                out[name] = (sum(r[2] for r in sub) / sum(r[1] for r in sub), "draws/s")
        return out


# ---------------------------------------------------------------------------


class CliRoundtrip(Workload):
    name = "cli-roundtrip"
    SIZES = {"full": {"n": 8, "k": 3, "nnz": 3, "pairs": 4, "rank": ("8", "4", "4")},
             "tiny": {"n": 4, "k": 3, "nnz": 2, "pairs": 2, "rank": ("4", "2", "2")}}
    PER_PASS = {"full": (9, 7), "tiny": (2, 2)}  # evaluate, witness commands per pass
    min_passes = 2
    trace_passes = 3

    def setup(self, seed, tracer=None):
        size = self.SIZES[self.scale]
        n, k, nnz = size["n"], size["k"], size["nnz"]
        rng = np.random.default_rng([seed, 4])
        hl = rank_program(n, n // 2, rng)
        with paused(tracer):
            comp = compile_program(hl, "sparse", k, nnz)
            cases = []
            for a, expected in inputs.labelled_inputs("sparse", n, n // 2, k, nnz, size["pairs"], rng):
                bits = "".join(str(b) for b in comp.encode(a))
                source = int(hl.evaluate(comp.quantize(a)))
                lifted = (comp.lift_positive(a) if source else comp.lift_negative(a)).size
                cases.append((bits, expected, source, lifted))
        d = self.workdir
        hl_path = os.path.join(d, "highlevel.json")
        with open(hl_path, "w", encoding="utf-8") as fh:
            fh.write(hl.to_json())
        state = {
            "seed": seed, "cases": cases, "hl": hl_path, "comp": os.path.join(d, "compiled.json"),
            "digests": {}, "compiled_bytes": 0, "program": comp.program,
        }
        self.warm_up(state, tracer)
        return state

    def _path(self, state, name):
        return os.path.join(self.workdir, name)

    def ops(self, state, p):
        size = self.SIZES[self.scale]
        n_eval, n_wit = self.PER_PASS[self.scale]
        cases = state["cases"]
        out = [self._op(state, "compile", [
            "compile", "--highlevel", state["hl"], "--mode", "sparse", "--bits", str(size["k"]),
            "--k-nnz", str(size["nnz"]), "--l-nnz", str(size["nnz"]), "--out", state["comp"],
        ], state["comp"])]
        for i in range(max(n_eval, n_wit)):
            if i < n_eval:
                case = cases[(p * n_eval + i) % len(cases)]
                out.append(self._op(state, "evaluate", ["evaluate", "--program", state["comp"], "--input", case[0]],
                                    self._path(state, "evaluate.json"), case))
            if i < n_wit:
                case = cases[(p * n_wit + i) % len(cases)]
                out.append(self._op(state, "witness", ["witness", "--program", state["comp"], "--input", case[0]],
                                    self._path(state, "witness.json"), case))
        out.append(self._op(state, "lowerbound-suite", ["lowerbound-suite"], self._path(state, "lowerbound.csv")))
        n, r, trials = size["rank"]
        out.append(self._op(state, "rank-experiment", [
            "rank-experiment", "--n", n, "--m", n, "--r", r, "--trials", trials,
            "--seed", str(state["seed"]), "--format", "json",
        ], self._path(state, "rank.json")))
        return out

    def _op(self, state, kind, argv, out_path, case=None):
        full = argv if kind == "compile" else argv + ["--out", out_path]
        key = " ".join(argv)

        def call():
            return cli.main(full)

        def check(code):
            fails = oracles.exit_ok(code, key)
            if fails:
                return fails
            with open(out_path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).digest()
            fails += oracles.same_bytes(state["digests"].setdefault(key, digest), digest, key)
            if kind == "compile":
                state["compiled_bytes"] = len(data)
            elif kind in ("evaluate", "witness"):
                payload = json.loads(data)
                _, expected, source, lifted = case
                fails += oracles.decision_matches(payload["decision"], source, expected)
                if kind == "witness":
                    fails += oracles.optimum_within_lift(float(payload["size"]), lifted)
            elif kind == "lowerbound-suite":
                fails += oracles.lowerbound_rows(data.decode("utf-8"))
            else:
                fails += oracles.rank_fraction_correct(json.loads(data)["results"]["fraction_correct"])
            return fails

        return Op(kind, call, check)

    def named(self, state, recs):
        return {
            "cli_compile_s": (median_ms(recs, "compile") / 1e3, "s"),
            "cli_witness_p50_ms": (median_ms(recs, "witness"), "ms"),
            "cli_evaluate_p50_ms": (median_ms(recs, "evaluate"), "ms"),
            "compiled_json_mb": (state["compiled_bytes"] / 1e6, "MB"),
        }

    def layer_metrics(self, state):
        """Size and density of the compiled file, read after the run."""
        out = program_shape([state["program"]])
        if os.path.exists(state["comp"]):
            with open(state["comp"], "rb") as fh:
                data = fh.read()
            stored, useful = _vector_entries(json.loads(data).get("program", {}))
            out["compiler.json_bytes"] = len(data)
            out["compiler.stored_nonzero_frac"] = useful / stored if stored else 0.0
        return out


def _vector_entries(program: dict) -> tuple[int, int]:
    """(stored, nonzero) numeric entries over the target, free and labeled
    vectors, whether a vector is stored as a list or as {coord: value}."""
    vectors = [program.get("target", [])] + list(program.get("free", []))
    vectors += [entry.get("vec", []) for entry in program.get("labeled", []) if isinstance(entry, dict)]
    stored = useful = 0
    for vec in vectors:
        values = list(vec.values()) if isinstance(vec, dict) else vec
        stored += len(values)
        useful += sum(1 for x in values if x != 0)
    return stored, useful


WORKLOADS = {w.name: w for w in (CompiledWitness, Spectral, CliRoundtrip)}
