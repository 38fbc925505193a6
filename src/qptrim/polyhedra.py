"""Inequality-form polyhedra {x : Cx <= d} with LP-backed queries."""

from dataclasses import dataclass

import numpy as np

from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_solve
from .tolerances import IMPLIED


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

    def contains(self, x, tol: float = 1e-8) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(self.C @ x <= self.d + tol * (1.0 + np.abs(self.d))))

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


def box(limits, dim: int | None = None) -> Polyhedron:
    """Axis-aligned box as a polyhedron.

    `limits` is a scalar L (meaning |x_i| <= L, needs dim), a (lo, hi) pair
    applied to every coordinate (needs dim), or per-coordinate pairs.
    """
    if np.isscalar(limits):
        if dim is None:
            raise ValueError("dim required for scalar limits")
        arr = np.tile([-float(limits), float(limits)], (dim, 1))
    else:
        arr = np.asarray(limits, dtype=float)
        if arr.shape == (2,):
            if dim is None:
                raise ValueError("dim required for a single (lo, hi) pair")
            arr = np.tile(arr, (dim, 1))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"bad box limits shape {arr.shape}")
    n = arr.shape[0]
    eye = np.eye(n)
    return Polyhedron(np.vstack([eye, -eye]),
                      np.concatenate([arr[:, 1], -arr[:, 0]]))
