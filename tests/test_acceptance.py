"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (also repeated in the terminal
summary).  Randomized checks run under frozen seeds; statistical assertions
use the stated tolerances with their 3-sigma bands precomputed.
"""

import itertools
import math
import time

import numpy as np

from spanforge.calibration import (
    CALIBRATION_SEED,
    C_BOUNDED_DELTA,
    C_BOUNDED_EPSILON,
    RANK_POSITIVE_C,
)
from spanforge.cli import main
from spanforge.compiler import (
    compile_dense,
    compile_sparse,
    measure_overhead,
)
from spanforge.encoding import index_bit_width
from spanforge.errors import NoNegativeWitness, NoPositiveWitness
from spanforge.highlevel import HighLevelProgram
from spanforge.lowlevel import LowLevelProgram
from spanforge.programs import (
    RankExperimentConfig,
    grover_dj_program,
    run_rank_trials,
    unique_search_input,
    unique_search_program,
)
from spanforge.randmat import (
    RngStream,
    exp_block_inverse_norm,
    exp_c_bounded,
    exp_inverse_wishart_trace,
    exp_lambda_min_cdf,
    exp_ratio_scaling,
)
from references import grid_values, grover_dj_columns, sparse_columns_from_dense


def _oracle_negative_size(prog: LowLevelProgram, bits) -> float:
    avail = prog.available_vectors(bits).toarray()
    constraints = np.vstack([prog.target.reshape(1, -1), avail.T])
    rhs = np.zeros(constraints.shape[0])
    rhs[0] = 1.0
    w0 = np.linalg.lstsq(constraints, rhs, rcond=None)[0]
    if np.linalg.norm(constraints @ w0 - rhs) > 1e-9:
        raise AssertionError("negative witness should be feasible")
    _, s, vt = np.linalg.svd(constraints)
    rank = int(np.sum(s > 1e-11 * (s[0] if len(s) else 1.0)))
    basis = vt[rank:].T
    m_all = prog.store.toarray()
    if basis.shape[1]:
        y = np.linalg.lstsq(m_all.T @ basis, -m_all.T @ w0, rcond=None)[0]
        w = w0 + basis @ y
    else:
        w = w0
    return float(np.sum((m_all.T @ w) ** 2))


def _random_lowlevel(rng) -> LowLevelProgram:
    dim = int(rng.integers(1, 6))
    num_vars = int(rng.integers(1, 5))
    target = rng.standard_normal(dim)
    while np.linalg.norm(target) < 1e-6:
        target = rng.standard_normal(dim)
    free = rng.standard_normal((int(rng.integers(0, 3)), dim))
    labeled = tuple(
        (rng.standard_normal(dim), int(rng.integers(1, num_vars + 1)), int(rng.integers(0, 2)))
        for _ in range(int(rng.integers(1, 7)))
    )
    return LowLevelProgram(dim=dim, num_vars=num_vars, target=target, free=free, labeled=labeled)


def test_criterion_01_witness_duality(criterion_report):
    started = time.monotonic()
    rng = np.random.default_rng(CALIBRATION_SEED)
    programs = 1000
    inputs_checked = 0
    problems = []
    for _ in range(programs):
        prog = _random_lowlevel(rng)
        for assignment in range(2**prog.num_vars):
            bits = tuple((assignment >> i) & 1 for i in range(prog.num_vars))
            inputs_checked += 1
            decision = prog.evaluate(bits)
            rep = prog.witness(bits)
            if rep.decision != decision:
                problems.append("witness dispatcher disagrees with evaluate")
                continue
            avail = prog.available_vectors(bits).toarray()
            if decision:
                pos = prog.positive_witness(bits)
                reach = avail @ pos.witness
                scale = 1.0 + np.linalg.norm(prog.target)
                if np.linalg.norm(reach - prog.target) > 1e-7 * scale:
                    problems.append("positive witness misses the target")
                if abs(pos.size - float(pos.witness @ pos.witness)) > 1e-9 * (1.0 + pos.size):
                    problems.append("positive size is not the squared coefficient norm")
                coeffs = np.linalg.pinv(avail) @ prog.target
                oracle = float(coeffs @ coeffs)
                if abs(pos.size - oracle) > 1e-7 * (1.0 + oracle):
                    problems.append("positive size disagrees with the pinv oracle")
                try:
                    prog.negative_witness(bits)
                    problems.append("negative witness exists on an accepting input")
                except NoNegativeWitness:
                    pass
            else:
                neg = prog.negative_witness(bits)
                if abs(float(neg.witness @ prog.target) - 1.0) > 1e-7:
                    problems.append("negative witness not normalized against the target")
                if avail.size and np.max(np.abs(avail.T @ neg.witness)) > 1e-7 * (
                    1.0 + np.linalg.norm(neg.witness)
                ):
                    problems.append("negative witness not orthogonal to available vectors")
                oracle = _oracle_negative_size(prog, bits)
                if abs(neg.size - oracle) > 1e-7 * (1.0 + oracle):
                    problems.append("negative size disagrees with the brute-force oracle")
                try:
                    prog.positive_witness(bits)
                    problems.append("positive witness exists on a rejecting input")
                except NoPositiveWitness:
                    pass
    elapsed = time.monotonic() - started
    ok = not problems and elapsed < 60.0
    detail = f"{programs} programs / {inputs_checked} inputs in {elapsed:.1f}s"
    if problems:
        detail += f"; first issue: {problems[0]} ({len(problems)} total)"
    criterion_report(1, ok, detail)


def test_criterion_02_exact_lowerbound_examples(criterion_report):
    tol = 1e-9
    issues = []
    extremes = []
    for n in (2, 4, 6):
        m = 3
        prog = grover_dj_program(n, m)
        cols = grover_dj_columns(n)
        # whole promise domain: every m-tuple of promise columns
        max_pos = 0.0
        max_neg = 0.0
        for picks in itertools.product(range(len(cols)), repeat=m):
            a = np.column_stack([cols[j] for j in picks])
            if 0 in picks:
                max_pos = max(max_pos, prog.positive_witness(a).size)
            else:
                max_neg = max(max_neg, prog.negative_witness(a).size)
        extremes.append(f"n={n}: wsize_1={max_pos:.3f} wsize_0={max_neg:.4f}")
        if max_pos > 1.0 + tol:
            issues.append(f"grover n={n} positive size {max_pos} exceeds 1")
        if max_neg > 1.0 / n + tol:
            issues.append(f"grover n={n} negative size {max_neg} exceeds 1/{n}")
        single = grover_dj_program(n, 1)
        if abs(single.positive_witness(cols[0].reshape(-1, 1)).size - 1.0) > tol:
            issues.append(f"grover n={n} single-column size not 1")
    for n in (2, 3, 4):
        us = unique_search_program(n)
        if abs(us.positive_witness(unique_search_input([0] * n)).size - 1.0) > tol:
            issues.append(f"unique-search n={n} zero-input size not 1")
        for pos in range(n):
            x = [0] * n
            x[pos] = 1
            size = us.negative_witness(unique_search_input(x)).size
            if size > 2.0 + tol or abs(size - 2.0) > tol:
                issues.append(f"unique-search n={n} weight-1 size {size}")
    ok = not issues
    detail = "; ".join(extremes) + "; unique-search exact"
    criterion_report(2, ok, issues[0] if issues else detail)


CRITERION_03_FIXTURES = [
    ("dense", 1, 1, 2, None, None, 0),
    ("dense", 2, 2, 1, None, None, 0),
    ("dense", 3, 2, 0, None, None, 0),
    ("dense", 2, 3, 1, None, None, 0),
    ("dense", 3, 3, 0, None, None, 1),
    ("dense", 1, 3, 2, None, None, 0),
    ("sparse_cols", 2, 2, 1, 2, None, 0),
    ("sparse_cols", 3, 2, 1, 1, None, 0),
    ("sparse_cols", 3, 3, 0, 1, None, 0),
    ("sparse_cols", 4, 1, 2, 1, None, 0),
    ("sparse_cols", 4, 2, 0, 2, None, 1),
    ("sparse", 2, 2, 0, 1, 1, 0),
    ("sparse", 2, 3, 0, 1, 1, 0),
    ("sparse", 3, 2, 1, 1, 1, 0),
    ("sparse", 2, 2, 1, 1, 2, 0),
    ("sparse", 2, 2, 0, 2, 2, 0),
]


def criterion_03_programs():
    """(source, compiled) for each of criterion 03's fixtures, under its seed."""
    rng = np.random.default_rng(CALIBRATION_SEED + 3)
    for mode, n, m, k, k_nnz, l_nnz, f_cols in CRITERION_03_FIXTURES:
        target = rng.standard_normal(n)
        fbasis = rng.standard_normal((n, f_cols))
        prog = HighLevelProgram(space_dim=n, num_inputs=m, target=target, free_basis=fbasis)
        if mode == "dense":
            comp = compile_dense(prog, precision=k)
        elif mode == "sparse_cols":
            comp = compile_sparse(prog, k_nnz=k_nnz, precision=k, l_nnz=None)
        else:
            comp = compile_sparse(prog, k_nnz=k_nnz, l_nnz=l_nnz, precision=k)
        yield prog, comp


def test_criterion_03_compiled_equivalence_exhaustive(criterion_report):
    started = time.monotonic()
    mismatches = 0
    assignments = 0
    for prog, comp in criterion_03_programs():
        for assignment in range(2**comp.layout.num_vars):
            bits = tuple((assignment >> i) & 1 for i in range(comp.layout.num_vars))
            assignments += 1
            if comp.program.evaluate(bits) != prog.evaluate(comp.decode(bits)):
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 300.0
    criterion_report(
        3, ok,
        f"{len(CRITERION_03_FIXTURES)} fixtures / {assignments} assignments, {mismatches} mismatches, {elapsed:.1f}s",
    )


def _grid_matrix(n, m, k, rng):
    return np.array(rng.choice(grid_values(k), size=(n, m)))


def _column_capped(a, cap):
    for j in range(a.shape[1]):
        nz = np.flatnonzero(a[:, j])
        for i in nz[cap:]:
            a[i, j] = 0.0
    return a


def criterion_04_fixtures():
    """(source, compiled, matrix, accepting) for each of criterion 04's 200
    fixtures, under its seed."""
    rng = np.random.default_rng(CALIBRATION_SEED + 4)
    fixtures = 0
    while fixtures < 200:
        sparse_mode = fixtures >= 100
        accepting = fixtures % 2 == 0
        k = int(rng.integers(0, 3))
        n = int(rng.integers(1, 5)) if accepting else int(rng.integers(2, 5))
        m = int(rng.integers(1, 5)) if accepting else int(rng.integers(1, n))
        k_nnz = int(rng.integers(1, n + 1)) if sparse_mode else None
        a = _grid_matrix(n, m, k, rng)
        if sparse_mode:
            a = _column_capped(a, k_nnz)
        if accepting:
            f_cols = int(rng.integers(0, 2))
            fbasis = rng.standard_normal((n, f_cols))
            t = a @ rng.standard_normal(m)
            if f_cols:
                t = t + fbasis @ rng.standard_normal(f_cols)
            if np.linalg.norm(t) < 1e-6:
                continue
            prog = HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=fbasis)
        else:
            t = rng.standard_normal(n)
            prog = HighLevelProgram(
                space_dim=n, num_inputs=m, target=t, free_basis=np.zeros((n, 0))
            )
            if prog.evaluate(a):
                continue
        comp = (
            compile_sparse(prog, k_nnz=k_nnz, precision=k, l_nnz=None)
            if sparse_mode
            else compile_dense(prog, precision=k)
        )
        yield prog, comp, a, accepting
        fixtures += 1


def test_criterion_04_cost_budgets(criterion_report):
    tol = 1e-8
    violations = []
    worst_slack = math.inf

    def check(opt, budget, tag):
        nonlocal worst_slack
        worst_slack = min(worst_slack, budget - opt)
        if opt > budget + tol * (1.0 + budget):
            violations.append(f"{tag}: optimum {opt} exceeds budget {budget}")

    for prog, comp, a, accepting in criterion_04_fixtures():
        (n, m), k, k_nnz = a.shape, comp.layout.precision, comp.layout.k_nnz
        sparse_mode = k_nnz is not None
        bits = comp.encode(a)
        if accepting:
            w = prog.positive_witness(a).witness
            phi = prog.free_basis.T @ (prog.target - a @ w)
            opt = comp.program.positive_witness(bits).size
            if sparse_mode:
                width = max(index_bit_width(n), 1)
                budget = float(phi @ phi) + sum(
                    (2.0 * k_nnz + 1.0 + width * float(a[:, j] @ a[:, j])) * w[j] ** 2
                    for j in range(m)
                )
                tag = f"sparse_cols positive n={n} m={m} k={k} k_nnz={k_nnz}"
            else:
                budget = (2.0 * n + 1.0) * float(w @ w) + float(phi @ phi)
                tag = f"dense positive n={n} m={m} k={k}"
        else:
            neg = prog.negative_witness(a)
            wprime = neg.witness
            opt = comp.program.negative_witness(bits).size
            if sparse_mode:
                cols = sparse_columns_from_dense(a, k_nnz)
                loader_part = sum(
                    2.0 * wprime[c] ** 2 for j in range(m) for (c, _) in cols[j]
                )
                route_part = (
                    m * k_nnz * (4.0 * index_bit_width(n) + 4.0) * float(wprime @ wprime)
                )
                budget = loader_part + route_part
                tag = f"sparse_cols negative n={n} m={m} k={k} k_nnz={k_nnz}"
            else:
                budget = 2.0 * m * neg.size
                tag = f"dense negative n={n} m={m} k={k}"
        check(opt, budget, tag)
    ok = not violations
    detail = f"200 fixtures, smallest budget slack {worst_slack:.3g}"
    if violations:
        detail = violations[0]
    criterion_report(4, ok, detail)


def test_criterion_05_overhead_scaling(criterion_report):
    k = 1
    points = []
    ratios_ok = True
    for n, m in itertools.product(range(1, 5), repeat=2):
        t = np.zeros(n)
        t[0] = 1.0
        prog = HighLevelProgram(
            space_dim=n, num_inputs=m, target=t, free_basis=np.zeros((n, 0))
        )
        comp = compile_dense(prog, precision=k)
        accept = np.zeros((n, m))
        accept[0, 0] = -1.0
        reject = np.zeros((n, m))
        if n > 1:
            reject[1, 0] = -1.0
        report = measure_overhead(prog, comp, [accept, reject])
        ratios_ok = ratios_ok and report.ratio >= 1.0
        points.append((math.log(n * m), math.log(report.ratio)))
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = ratios_ok and 0.35 <= slope <= 0.65
    criterion_report(5, ok, f"log-log overhead slope {slope:.3f} over 16 grids (band [0.35, 0.65])")


def test_criterion_06_wishart_means(criterion_report):
    started = time.monotonic()
    runs = [
        exp_inverse_wishart_trace(3, 8, trials=100_000, stream=RngStream(seed=CALIBRATION_SEED)),
        exp_inverse_wishart_trace(
            5, 10, trials=100_000, stream=RngStream(seed=CALIBRATION_SEED, stream_id=1)
        ),
        exp_block_inverse_norm(
            10, trials=100_000, stream=RngStream(seed=CALIBRATION_SEED, stream_id=2)
        ),
    ]
    elapsed = time.monotonic() - started
    deviations = [abs(r.estimate - r.true_value) / r.stderr for r in runs]
    ok = all(d <= 3.0 for d in deviations) and elapsed < 120.0
    criterion_report(
        6, ok,
        "estimate deviations "
        + ", ".join(f"{d:.2f}se" for d in deviations)
        + f" (trace 0.75 / 1.25, block 8), {elapsed:.1f}s",
    )


def test_criterion_07_lambda_min_limit_law(criterion_report):
    res = exp_lambda_min_cdf(
        100, trials=10_000, stream=RngStream(seed=CALIBRATION_SEED, stream_id=3)
    )
    ok = res.ks_stat <= 0.05
    criterion_report(
        7, ok,
        f"KS {res.ks_stat:.4f} <= 0.05 at n=100, 10^4 trials "
        f"(median {res.median_empirical:.4f} vs limit {res.median_limit:.4f})",
    )


def test_criterion_08_c_bound_flat_and_ratio_slope(criterion_report):
    rows = exp_c_bounded(
        [10, 50, 100],
        trials=4000,
        delta=C_BOUNDED_DELTA,
        stream=RngStream(seed=CALIBRATION_SEED, stream_id=4),
    )
    issues = []
    for row in rows:
        if row.exceedance > C_BOUNDED_EPSILON:
            issues.append(f"exceedance {row.exceedance:.4f} above {C_BOUNDED_EPSILON:.4f} at n={row.n}")
    for a, b in itertools.combinations(rows, 2):
        band = 3.0 * math.sqrt(a.stderr**2 + b.stderr**2)
        if abs(a.exceedance - b.exceedance) > band:
            issues.append(f"exceedance drift {a.n} vs {b.n}")
    ratio = exp_ratio_scaling(
        [50, 100, 200, 400],
        trials=1000,
        stream=RngStream(seed=CALIBRATION_SEED, stream_id=5),
    )
    if not 0.4 <= ratio.slope <= 0.6:
        issues.append(f"ratio slope {ratio.slope:.3f} outside [0.4, 0.6]")
    if any(row.min_ratio < 1.0 for row in ratio.rows):
        issues.append("ratio below 1 observed")
    ok = not issues
    detail = (
        "exceedance "
        + "/".join(f"{row.exceedance:.3f}" for row in rows)
        + f" at delta={C_BOUNDED_DELTA}, ratio slope {ratio.slope:.3f}"
    )
    if issues:
        detail = issues[0]
    criterion_report(8, ok, detail)


def test_criterion_09_rank_experiment(criterion_report):
    threshold = 5.0 / 6.0 - 3.0 * math.sqrt((5.0 / 6.0) * (1.0 / 6.0) / 500.0)
    issues = []
    fractions = []
    for r in (1, 4, 8):
        cfg = RankExperimentConfig(n=8, m=8, r=r, L=None, trials=500, master_seed=701)
        summary = run_rank_trials(cfg, bound_constant=RANK_POSITIVE_C)
        fractions.append(
            (r, summary.fraction_correct, summary.positive_within_bound, summary.negative_within_threshold)
        )
        if summary.fraction_correct != 1.0:
            issues.append(f"r={r}: wrong decisions")
        if summary.positive_within_bound < threshold:
            issues.append(f"r={r}: positive bound rate {summary.positive_within_bound:.3f}")
        if summary.negative_within_threshold < threshold:
            issues.append(f"r={r}: negative threshold rate {summary.negative_within_threshold:.3f}")
    ok = not issues
    detail = ", ".join(f"r={r}: correct={c:.0%} pos={p:.2f} neg={g:.2f}" for r, c, p, g in fractions)
    detail += f" (floor {threshold:.3f})"
    if issues:
        detail = issues[0]
    criterion_report(9, ok, detail)


def test_criterion_10_cli_determinism(criterion_report, tmp_path):
    commands = {
        "rank.csv": ["rank-experiment", "--n", "5", "--m", "5", "--r", "2",
                     "--trials", "6", "--seed", "11"],
        "rank.json": ["rank-experiment", "--n", "5", "--m", "5", "--r", "2",
                      "--trials", "6", "--seed", "11", "--format", "json"],
        "wishart.csv": ["wishart-experiment", "--kind", "trace", "--n", "3", "--m", "8",
                        "--trials", "3000", "--seed", "11"],
        "ratio.csv": ["ratio-experiment", "--n", "8,16", "--trials", "100", "--seed", "11"],
        "lower.csv": ["lowerbound-suite"],
    }
    issues = []
    for name, argv in commands.items():
        first = tmp_path / f"a_{name}"
        second = tmp_path / f"b_{name}"
        if main(argv + ["--out", str(first)]) != 0:
            issues.append(f"{name}: nonzero exit")
            continue
        if main(argv + ["--out", str(second)]) != 0:
            issues.append(f"{name}: nonzero exit on rerun")
            continue
        if first.read_bytes() != second.read_bytes():
            issues.append(f"{name}: rerun differs")
    ok = not issues
    criterion_report(
        10, ok,
        issues[0] if issues else f"{len(commands)} commands byte-identical on a rerun",
    )
