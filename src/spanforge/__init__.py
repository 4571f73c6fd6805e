"""spanforge: a workbench for span programs over the reals.

Low-level programs query Boolean variables and decide whether a target
vector lies in the span of the available columns; high-level programs query
a real matrix and decide whether the target plus a free subspace meets its
column span.  The compiler turns high-level programs into Boolean-query
form (dense digits, or sparse payloads with routing trees), with witness
lifting in both directions.  Random-matrix experiments validate the
spectral facts the constructions rely on.

The package root exports the names the README's quick tour uses; everything
else is imported from its module (``spanforge.randmat``, ...).
"""

from .compiler import compile_dense, compile_sparse, measure_overhead
from .highlevel import HighLevelProgram
from .lowlevel import LowLevelProgram
from .reports import TOOL_VERSION

__version__ = TOOL_VERSION

__all__ = [
    "HighLevelProgram",
    "LowLevelProgram",
    "compile_dense",
    "compile_sparse",
    "measure_overhead",
]
