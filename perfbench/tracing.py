"""In-memory span tracing of spanforge, done entirely from the benchmark side.

`Tracer.install()` replaces the public functions and methods of every
spanforge layer module with wrappers that record a span (name, start, end,
parent) per call.  Names that other modules bound at import time
(`from .linalg import svd`) are separate references that a patch on the
defining module does not reach, so every spanforge module namespace is also
scanned and each binding to a wrapped function is replaced.  NumPy (and,
when the program already imported it, SciPy) factorization routines get
counting wrappers: they add no span, only the number of factorizations and
the cells of the operand, so LAPACK time stays inside the calling layer.

`Tracer.uninstall()` restores every patched attribute.  Spans stay in memory
until `write_spans` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

# spanforge module -> layer name used in span and metric names
LAYER_OF_MODULE = {
    "spanforge.linalg": "linalg",
    "spanforge.lowlevel": "lowlevel",
    "spanforge.highlevel": "highlevel",
    "spanforge.compiler": "compiler",
    "spanforge.encoding": "compiler",
    "spanforge.programs": "programs",
    "spanforge.randmat": "randmat",
    "spanforge.reports": "reports",
    "spanforge.cli": "cli",
}

# private helpers wrapped anyway because a per-layer metric needs them
EXTRA_PRIVATE = {"spanforge.cli": ("_load_lowlevel",)}

FACTORIZATIONS = (
    "svd", "svdvals", "eig", "eigh", "eigvals", "eigvalsh", "qr", "inv", "solve",
    "lstsq", "cholesky", "pinv", "matrix_rank", "det", "slogdet",
)
SCIPY_FACTORIZATIONS = FACTORIZATIONS + (
    "eigvalsh_tridiagonal", "eigh_tridiagonal", "solve_banded", "solveh_banded",
    "solve_triangular", "lu_factor", "cho_factor", "null_space", "orth",
)


def _operand_cells(args, kwargs) -> int:
    """Entries of the first array argument (batch x rows x cols)."""
    operand = args[0] if args else next(iter(kwargs.values()), None)
    size = getattr(operand, "size", None)
    return int(size) if isinstance(size, int) else 0


class Tracer:
    """Spans and counters for one traced run.

    A span is the list [name, start, end, parent_span]; `stage` is the name
    of the innermost benchmark stage ("bench.setup" or "bench.pass"), and
    counters are keyed by (stage, counter).  While `paused()` is active the
    wrappers call straight through, so oracle work is not attributed to any
    layer.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.hook_errors: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._paused = 0

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def stage(self) -> str:
        for rec in reversed(self._stack()):
            if rec[0].startswith("bench."):
                return rec[0]
        return "none"

    def add(self, key: str, value: float = 1.0) -> None:
        if not self._paused:
            self.counts[(self.stage, key)] += value

    def total(self, key: str) -> float:
        return sum(v for (_, k), v in self.counts.items() if k == key)

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span, e.g. a stage or a pass."""
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None]
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _span_wrapper(self, name: str, fn, hook=None, name_of_call=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            rec = [name_of_call(args) if name_of_call else name, 0.0, 0.0, stack[-1] if stack else None]
            tracer.spans.append(rec)
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except Exception as exc:  # a hook must never break the run
                    tracer.hook_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def _count_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._paused:
                tracer.add("factorizations")
                tracer.add("factored_cells", _operand_cells(args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, hooks: dict | None = None) -> None:
        hooks = hooks or {}
        replaced: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for modname, layer in LAYER_OF_MODULE.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            extra = EXTRA_PRIVATE.get(modname, ())
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") and attr not in extra:
                    continue
                if inspect.isfunction(val) and val.__module__ == modname:
                    name = f"{layer}.{attr}"
                    namer = _cli_subcommand_name if name == "cli.main" else None
                    wrapper = self._span_wrapper(name, val, hooks.get(name), namer)
                    replaced[id(val)] = (val, wrapper)
                elif inspect.isclass(val) and val.__module__ == modname:
                    self._wrap_class(val, f"{layer}.{val.__name__}", hooks)
        for mod in _linalg_modules():
            names = SCIPY_FACTORIZATIONS if mod.__name__.startswith("scipy") else FACTORIZATIONS
            for attr in names:
                val = getattr(mod, attr, None)
                if callable(val) and id(val) not in replaced:
                    replaced[id(val)] = (val, self._count_wrapper(val))
        # rebind every reference held by a spanforge module or numpy/scipy.linalg
        owners = [m for n, m in list(sys.modules.items()) if n == "spanforge" or n.startswith("spanforge.")]
        owners += _linalg_modules()
        for mod in owners:
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

    def _wrap_class(self, cls: type, prefix: str, hooks: dict) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._span_wrapper(name, member.__func__, hooks.get(name)))
            elif inspect.isfunction(member):
                wrapped = self._span_wrapper(name, member, hooks.get(name))
            else:
                continue
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def analyse(self) -> "SpanTable":
        return SpanTable(self.spans)

    def write_spans(self, path) -> None:
        """One JSON object per span: id, parent id, name, start and end in
        seconds from the first span."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "parent": ids[id(parent)] if parent is not None else None,
                    "name": name,
                    "start": start - t0,
                    "end": end - t0,
                }) + "\n")


def _cli_subcommand_name(args) -> str:
    argv = args[0] if args else None
    if isinstance(argv, (list, tuple)) and argv:
        return f"cli.main.{argv[0]}"
    return "cli.main"


def _linalg_modules() -> list:
    mods = [sys.modules["numpy.linalg"]] if "numpy.linalg" in sys.modules else []
    if "scipy.linalg" in sys.modules:
        mods.append(sys.modules["scipy.linalg"])
    return mods


class SpanTable:
    """Durations, self times and ancestry of recorded spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        children: dict[int, list] = defaultdict(list)
        for rec in spans:
            if rec[3] is not None:
                children[id(rec[3])].append(rec)
        self.self_time: dict[int, float] = {}
        for rec in spans:
            self.self_time[id(rec)] = (rec[2] - rec[1]) - _covered(rec, children.get(id(rec), ()))

    @staticmethod
    def ancestors(rec):
        parent = rec[3]
        while parent is not None:
            yield parent
            parent = parent[3]

    def root_stage(self, rec) -> str:
        stage = "none"
        for anc in self.ancestors(rec):
            if anc[0].startswith("bench."):
                stage = anc[0]
        return stage

    def inclusive(self, names) -> float:
        """Total duration of spans named in `names` that are not nested in
        another span of those names."""
        names = set(names)
        total = 0.0
        for rec in self.spans:
            if rec[0] in names and not any(a[0] in names for a in self.ancestors(rec)):
                total += rec[2] - rec[1]
        return total

    def self_within(self, layer: str, roots) -> float:
        """Self time of `layer` spans that are, or sit inside, a span named
        in `roots`."""
        roots = set(roots)
        prefix = layer + "."
        total = 0.0
        for rec in self.spans:
            if rec[0].startswith(prefix) and (
                rec[0] in roots or any(a[0] in roots for a in self.ancestors(rec))
            ):
                total += self.self_time[id(rec)]
        return total

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_time[id(r)] for r in self.spans if r[0].startswith(prefix))

    def count(self, name: str, stage: str | None = None) -> int:
        return sum(
            1 for r in self.spans
            if r[0] == name and (stage is None or self.root_stage(r) == stage)
        )


def _covered(parent, kids) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    if not kids:
        return 0.0
    lo, hi = parent[1], parent[2]
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(k[1], lo), min(k[2], hi)) for k in kids):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered
