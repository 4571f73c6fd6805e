"""Correctness oracles.  Each takes values the program produced (plus the
reference they must match) and returns a list of failure messages; an empty
list means the output is correct.  They compute nothing through spanforge,
so the self-test can feed them deliberately wrong values."""

from __future__ import annotations

import csv
import io
import math

# Relative slack when comparing two witness sizes computed by different
# factorizations of the same optimum.
SIZE_RTOL = 1e-6
SIZE_ATOL = 1e-9

# Per-call tail probability for the DKW band on a small-sample KS statistic.
DKW_ALPHA = 1e-6


def decision_matches(compiled: int, source: int, expected: int | None = None) -> list[str]:
    """The compiled decision equals the source program's decision on the
    quantized input (and the generator's label, when given)."""
    out = []
    if int(compiled) != int(source):
        out.append(f"compiled decision {compiled} != source decision {source} on quantize(a)")
    if expected is not None and int(source) != int(expected):
        out.append(f"source decision {source} on quantize(a) != generated label {expected}")
    return out


def optimum_within_lift(optimum: float, lifted: float) -> list[str]:
    """A lifted witness is feasible, so the optimal size cannot exceed it."""
    if not (math.isfinite(optimum) and optimum >= 0.0):
        return [f"optimal witness size {optimum!r} is not a finite non-negative number"]
    if not optimum <= lifted * (1.0 + SIZE_RTOL) + SIZE_ATOL:
        return [f"optimal witness size {optimum:.12g} exceeds lifted size {lifted:.12g}"]
    return []


def rank_fraction_correct(fraction_correct: float) -> list[str]:
    if fraction_correct != 1.0:
        return [f"rank trials fraction_correct {fraction_correct!r} != 1"]
    return []


def ks_small_sample(ks: float, draws: int, limit: float = 0.05) -> list[str]:
    """A KS statistic from `draws` samples: the limit law's allowance plus
    the Dvoretzky-Kiefer-Wolfowitz band at tail probability DKW_ALPHA."""
    band = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * draws))
    if not (math.isfinite(ks) and 0.0 <= ks <= limit + band):
        return [f"KS {ks!r} outside [0, {limit} + {band:.4f}] at {draws} draws"]
    return []


def ks_limit(ks: float, limit: float = 0.05) -> list[str]:
    if not (math.isfinite(ks) and 0.0 <= ks <= limit):
        return [f"KS {ks!r} above {limit}"]
    return []


def exceedance(exceed: int, draws: int, epsilon: float) -> list[str]:
    if draws <= 0:
        return ["no c(A) draws to rate"]
    rate = exceed / draws
    if rate > epsilon:
        return [f"c(A) exceedance {rate:.5f} above {epsilon:.5f} over {draws} draws"]
    return []


def min_ratio(value: float) -> list[str]:
    if not (math.isfinite(value) and value >= 1.0):
        return [f"(1/sigma_min)/c(A) minimum {value!r} below 1"]
    return []


def trace_estimate(estimate: float, stderr: float, true_value: float, sigmas: float = 6.0) -> list[str]:
    if not (math.isfinite(estimate) and abs(estimate - true_value) <= sigmas * stderr):
        return [f"inverse-Wishart trace {estimate!r} more than {sigmas} se from {true_value}"]
    return []


def exit_ok(code, command: str) -> list[str]:
    if code != 0:
        return [f"'{command}' exited {code!r}"]
    return []


def same_bytes(first: bytes, again: bytes, command: str) -> list[str]:
    if first != again:
        return [f"'{command}' output differs from its first run"]
    return []


def lowerbound_rows(csv_text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if not rows:
        return ["lowerbound-suite printed no rows"]
    bad = [f"{r.get('program')}/{r.get('instance')}" for r in rows if r.get("within_bound") != "1"]
    return [f"lowerbound-suite rows outside their bound: {', '.join(bad)}"] if bad else []
