"""High-level span programs queried on real input matrices.

The program accepts an n x m matrix A when the affine subspace target + F
meets the column span of A, F orthonormalized at construction.  One SVD of
[A - F F^T A, F] decides and gives either witness: A counts only off F.  Unlike
low-level ones, a positive witness counts only the coefficients on A's columns,
and a negative witness size is the squared norm of the witness vector itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NoNegativeWitness, NoPositiveWitness
from .linalg import (
    DEFAULT_TOL,
    SvdResult,
    as_matrix,
    check_norm,
    finite_vector,
    in_span,
    input_matrix,
    int_field,
    min_norm_solve,
    svd,
    tol_field,
)
from .lowlevel import DomainWitnessSizes, WitnessReport, _frozen, fold_witness_sizes


@dataclass(frozen=True)
class HighLevelProgram:
    space_dim: int
    num_inputs: int
    target: np.ndarray
    free_basis: np.ndarray | None = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        target, raw = _check_source(self.space_dim, self.num_inputs, self.target, self.free_basis)
        object.__setattr__(self, "target", _frozen(target))
        dec = svd(raw, self.tol)
        object.__setattr__(self, "free_basis", _frozen(dec.u[:, : dec.rank]))

    # -- queries ---------------------------------------------------------

    def _check_input(self, a) -> np.ndarray:
        return input_matrix(a, (self.space_dim, self.num_inputs))

    def _decide(self, a, tol: float) -> tuple[np.ndarray, SvdResult, np.ndarray, int]:
        """S = [A - F F^T A, F] for the checked input A, its SVD, the residual of
        the target off span(S) = span(A, F), and the decision; with F empty, S is A."""
        mat = self._check_input(a)
        span = np.hstack([mat - self.free_basis @ (self.free_basis.T @ mat), self.free_basis])
        dec, resid, decision = in_span(span, self.target, tol)
        return span, dec, resid, decision

    def evaluate(self, a, tol: float | None = None) -> int:
        return self._decide(a, self.tol if tol is None else tol)[3]

    def positive_witness(self, a, tol: float | None = None) -> WitnessReport:
        """Min |w|^2 with A w in target + F; only A-column coefficients count."""
        return self._solve(a, tol, side=1)

    def negative_witness(self, a, tol: float | None = None) -> WitnessReport:
        """Min |w'|^2 with <w', target> = 1, w' orthogonal to span A and F."""
        return self._solve(a, tol, side=0)

    def witness(self, a, tol: float | None = None) -> WitnessReport:
        return self._solve(a, tol, side=None)

    def _solve(self, a, tol: float | None, side: int | None) -> WitnessReport:
        """Decide ``a`` and build the witness of ``side`` (None: the side decided)
        from the one SVD: S x = target's least-norm A block, or the residual rescaled."""
        tol = self.tol if tol is None else tol
        span, dec, resid, decision = self._decide(a, tol)
        if side == 1 and not decision:
            raise NoPositiveWitness("program rejects this matrix; no positive witness")
        if side == 0 and decision:
            raise NoNegativeWitness("program accepts this matrix; no negative witness")
        if decision:
            w = min_norm_solve(span, self.target, tol, dec)[: self.num_inputs]
            return WitnessReport(decision=1, size=float(w @ w), witness=w)
        unorm2 = float(resid @ resid)
        return WitnessReport(decision=0, size=1.0 / unorm2, witness=resid / unorm2)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return source_json(self.space_dim, self.num_inputs, self.target, self.free_basis, self.tol)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "HighLevelProgram":
        space_dim, num_inputs, target, basis, tol = read_source(data)
        return cls(space_dim=space_dim, num_inputs=num_inputs, target=target, free_basis=basis, tol=tol)

    @classmethod
    def from_json(cls, text: str) -> "HighLevelProgram":
        return cls.from_json_dict(json.loads(text))


def _check_source(space_dim: int, num_inputs: int, target, free_basis, prefix: str = "") -> tuple[np.ndarray, np.ndarray]:
    """``target`` and ``free_basis`` (basis vectors as columns; None for none)
    as float arrays, checked against ``space_dim`` and ``num_inputs``; errors
    name the field with ``prefix`` in front."""
    if space_dim < 1:
        raise ValueError(f"{prefix}space_dim must be >= 1, got {space_dim}")
    if num_inputs < 0:
        raise ValueError(f"{prefix}num_inputs must be >= 0, got {num_inputs}")
    target = finite_vector(target, prefix + "target", space_dim)
    raw = np.zeros((space_dim, 0)) if free_basis is None else as_matrix(free_basis)
    if not np.linalg.norm(target) > 0.0:
        raise ValueError(f"{prefix}target vector must be nonzero")
    if raw.shape[0] != space_dim:
        raise ValueError(f"{prefix}free_basis has {raw.shape[0]} rows, expected {space_dim}")
    # named as in the JSON form, a list of basis columns
    check_norm(raw.T, lambda j, i: f"{prefix}free_basis[{j}][{i}]")
    return target, raw


def read_source(data, prefix: str = "") -> tuple[int, int, np.ndarray, np.ndarray, float]:
    """(space_dim, num_inputs, target, free basis, tol) of a program's JSON
    form, every field checked by name with ``prefix`` in front.  The free
    basis comes back as stored, one column per listed vector, without the
    orthonormalization ``HighLevelProgram`` applies."""
    if not isinstance(data, dict):
        raise ValueError(f"{prefix.rstrip('.') or 'program JSON'} must be an object")
    for key in ("space_dim", "num_inputs", "target"):
        if key not in data:
            raise ValueError(f"program JSON is missing field '{prefix}{key}'")
    space_dim = int_field(data["space_dim"], prefix + "space_dim")
    num_inputs = int_field(data["num_inputs"], prefix + "num_inputs")
    cols = data.get("free_basis", [])
    if not isinstance(cols, list):
        raise ValueError(f"{prefix}free_basis must be a list of columns")
    cols = [finite_vector(c, f"{prefix}free_basis[{j}]", space_dim) for j, c in enumerate(cols)]
    target, basis = _check_source(space_dim, num_inputs, data["target"], np.column_stack(cols) if cols else None, prefix)
    return space_dim, num_inputs, target, basis, tol_field(data.get("tol", DEFAULT_TOL), prefix + "tol")


def source_json(space_dim: int, num_inputs: int, target: np.ndarray, free_basis: np.ndarray, tol: float) -> dict:
    """The JSON form of a program, ``free_basis`` written column by column."""
    return {"space_dim": space_dim, "num_inputs": num_inputs, "target": target.tolist(),
            "free_basis": free_basis.T.tolist(), "tol": tol}


def wsize_over_inputs(program: HighLevelProgram, matrices) -> DomainWitnessSizes:
    """Worst-case witness sizes over a finite family of input matrices."""
    return fold_witness_sizes((str(idx), program.witness(a)) for idx, a in enumerate(matrices))
