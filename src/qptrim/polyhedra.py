"""Inequality-form polyhedra {x : Cx <= d} with LP-backed queries."""

from dataclasses import dataclass

import numpy as np

from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_solve
from .tolerances import FEAS, IMPLIED


@dataclass
class Polyhedron:
    C: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.d = np.atleast_1d(np.asarray(self.d, dtype=float))
        if self.d.shape != (self.C.shape[0],):
            raise ValueError(
                f"d has shape {self.d.shape} for {self.C.shape[0]} rows"
            )

    @property
    def n_rows(self) -> int:
        return self.C.shape[0]

    @property
    def dim(self) -> int:
        return self.C.shape[1]

    def contains(self, x) -> bool:
        """Every row holds at x to within FEAS * (1 + |d_j|)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(self.C @ x <= self.d + FEAS * (1.0 + np.abs(self.d))))

    def is_empty(self) -> bool:
        res = lp_solve(np.zeros(self.dim), self.C, self.d)
        return res.status == INFEASIBLE

    def support(self, direction):
        """max c@x over the set; +inf when unbounded in that direction."""
        direction = np.atleast_1d(np.asarray(direction, dtype=float))
        res = lp_solve(-direction, self.C, self.d)
        if res.status == UNBOUNDED:
            return np.inf
        if res.status != OPTIMAL:
            raise ValueError("support of an empty polyhedron")
        return -res.objective

    def bounding_box(self) -> np.ndarray:
        """Per-coordinate (lo, hi); raises on an unbounded direction."""
        box = np.empty((self.dim, 2))
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = 1.0
            hi = self.support(e)
            lo = -self.support(-e)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"polyhedron unbounded along coordinate {k}")
            box[k] = lo, hi
        return box

    def remove_redundant(self) -> "Polyhedron":
        """Drop every row implied by the others (one LP per row, sequential
        so duplicate rows lose exactly one copy at a time)."""
        keep = list(range(self.n_rows))
        i = 0
        while i < len(keep):
            row = keep[i]
            others = [r for r in keep if r != row]
            if not others:
                i += 1
                continue
            res = lp_solve(-self.C[row], self.C[others], self.d[others])
            if res.status == OPTIMAL and -res.objective <= self.d[row] + IMPLIED * (
                1.0 + abs(self.d[row])
            ):
                keep.pop(i)
            else:
                i += 1
        return Polyhedron(self.C[keep], self.d[keep])

    def to_dict(self) -> dict:
        return {"C": self.C.tolist(), "d": self.d.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Polyhedron":
        return cls(C=data["C"], d=data["d"])


def box(limit: float, dim: int) -> Polyhedron:
    """The box |x_i| <= limit, i = 1..dim, as a polyhedron: the rows of
    the identity, then of its negative."""
    eye = np.eye(dim)
    return Polyhedron(np.vstack([eye, -eye]), np.full(2 * dim, float(limit)))
