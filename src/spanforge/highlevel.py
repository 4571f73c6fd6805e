"""High-level span programs queried on real input matrices.

The program accepts an n x m matrix A when the affine subspace target + F
meets the column span of A.  The free subspace F is orthonormalized once at
construction.  Witness conventions here are deliberately not the low-level
ones: a positive witness counts only the coefficients on A's columns, and a
negative witness size is the squared norm of the witness vector itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NoNegativeWitness, NoPositiveWitness
from .linalg import DEFAULT_TOL, as_matrix, as_vector, input_matrix, min_norm_solve, project_complement, svd
from .lowlevel import DomainWitnessSizes, WitnessReport, _frozen, fold_witness_sizes


@dataclass(frozen=True)
class HighLevelProgram:
    space_dim: int
    num_inputs: int
    target: np.ndarray
    free_basis: np.ndarray | None = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "target", _frozen(as_vector(self.target)))
        raw = np.zeros((self.space_dim, 0)) if self.free_basis is None else as_matrix(self.free_basis)
        if self.space_dim < 1:
            raise ValueError(f"space_dim must be >= 1, got {self.space_dim}")
        if self.num_inputs < 0:
            raise ValueError(f"num_inputs must be >= 0, got {self.num_inputs}")
        if self.target.shape[0] != self.space_dim:
            raise ValueError(f"target has {self.target.shape[0]} entries, expected {self.space_dim}")
        if not np.linalg.norm(self.target) > 0.0:
            raise ValueError("target vector must be nonzero")
        if raw.shape[0] != self.space_dim:
            raise ValueError(f"free_basis has {raw.shape[0]} rows, expected {self.space_dim}")
        dec = svd(raw, self.tol)
        object.__setattr__(self, "free_basis", _frozen(dec.u[:, : dec.rank]))

    # -- queries ---------------------------------------------------------

    def _check_input(self, a) -> np.ndarray:
        return input_matrix(a, (self.space_dim, self.num_inputs))

    def _free_projector(self) -> np.ndarray:
        f = self.free_basis
        return np.eye(self.space_dim) - f @ f.T

    def _decide(self, a, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
        """Checked input, residual of the target off span(A, F), decision."""
        mat = self._check_input(a)
        resid = project_complement(np.hstack([mat, self.free_basis]), self.target, tol)
        return mat, resid, int(np.linalg.norm(resid) <= tol * np.linalg.norm(self.target))

    def evaluate(self, a, tol: float | None = None) -> int:
        return self._decide(a, self.tol if tol is None else tol)[2]

    def positive_witness(self, a, tol: float | None = None) -> WitnessReport:
        """Min |w|^2 with A w in target + F; only A-column coefficients count."""
        return self._solve(a, tol, side=1)

    def negative_witness(self, a, tol: float | None = None) -> WitnessReport:
        """Min |w'|^2 with <w', target> = 1, w' orthogonal to span A and F."""
        return self._solve(a, tol, side=0)

    def witness(self, a, tol: float | None = None) -> WitnessReport:
        return self._solve(a, tol, side=None)

    def _solve(self, a, tol: float | None, side: int | None) -> WitnessReport:
        """Decide ``a`` once and build the witness of ``side`` (None: the side
        the decision gives).  The negative witness is the decision's own
        residual, rescaled."""
        tol = self.tol if tol is None else tol
        mat, resid, decision = self._decide(a, tol)
        if side == 1 and not decision:
            raise NoPositiveWitness("program rejects this matrix; no positive witness")
        if side == 0 and decision:
            raise NoNegativeWitness("program accepts this matrix; no negative witness")
        if decision:
            q = self._free_projector()
            w = min_norm_solve(q @ mat, q @ self.target, tol)
            return WitnessReport(decision=1, size=float(w @ w), witness=w)
        unorm2 = float(resid @ resid)
        return WitnessReport(decision=0, size=1.0 / unorm2, witness=resid / unorm2)

    def check_rescale_invariance(self, a, scales, tol: float | None = None) -> bool:
        """Decisions are invariant under positive rescaling of the columns."""
        mat = self._check_input(a)
        s = as_vector(scales)
        if s.shape[0] != self.num_inputs:
            raise ValueError(f"scales has {s.shape[0]} entries, expected {self.num_inputs}")
        if not np.all(s > 0):
            raise ValueError("column scales must be strictly positive")
        return self.evaluate(mat, tol) == self.evaluate(mat * s, tol)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "space_dim": self.space_dim,
            "num_inputs": self.num_inputs,
            "target": self.target.tolist(),
            "free_basis": [self.free_basis[:, j].tolist() for j in range(self.free_basis.shape[1])],
            "tol": self.tol,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "HighLevelProgram":
        if not isinstance(data, dict):
            raise ValueError("program JSON must be an object")
        for key in ("space_dim", "num_inputs", "target"):
            if key not in data:
                raise ValueError(f"program JSON is missing field '{key}'")
        cols = data.get("free_basis", [])
        basis = np.column_stack([as_vector(c) for c in cols]) if cols else None
        return cls(
            space_dim=int(data["space_dim"]),
            num_inputs=int(data["num_inputs"]),
            target=data["target"],
            free_basis=basis,
            tol=float(data.get("tol", DEFAULT_TOL)),
        )

    @classmethod
    def from_json(cls, text: str) -> "HighLevelProgram":
        return cls.from_json_dict(json.loads(text))


def wsize_over_inputs(program: HighLevelProgram, matrices, tol: float | None = None) -> DomainWitnessSizes:
    """Worst-case witness sizes over a finite family of input matrices."""
    return fold_witness_sizes((str(idx), program.witness(a, tol)) for idx, a in enumerate(matrices))
