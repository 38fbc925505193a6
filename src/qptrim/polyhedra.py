"""Inequality-form polyhedra {x : Cx <= d} with LP-backed queries.

Where every d >= 0 the origin lies in the set, and a ray shot from it
can settle an LP's verdict before the LP runs: see rays_pass.
"""

from dataclasses import dataclass

import numpy as np

from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_solve
from .tolerances import FEAS, IMPLIED

# a point of the set that passes an LP's threshold by this much, relative
# to the threshold, settles the LP's verdict: far beyond the rounding of
# an LP objective or of the point itself
_PROOF_MARGIN = 1e-6


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
        """No point meets every row; with every d >= 0 the origin does,
        and no LP runs."""
        if (self.d >= 0.0).all():
            return False
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
        so duplicate rows lose exactly one copy at a time); this is the
        last step of mpc.max_invariant_set (Gilbert & Tan 1991).

        Where every d >= 0, a ray from the origin along row j's normal
        first settles rows without an LP: when row j is its unique first
        hit, with the others' nearest hit past d_j + IMPLIED (1 + |d_j|)
        by _PROOF_MARGIN (rays_pass, one C C' product), the point there
        meets every other row and breaks row j, so row j is irredundant
        among any subset of the rows and the LP would keep it. A tie
        (duplicate, zero or weakly redundant rows) falls through to the
        LP."""
        keep = list(range(self.n_rows))
        bound = self.d + IMPLIED * (1.0 + np.abs(self.d))
        proved = np.zeros(self.n_rows, dtype=bool)
        if (self.d >= 0.0).all():
            gram = self.C @ self.C.T
            cc = gram.diagonal().copy()
            np.fill_diagonal(gram, 0.0)
            proved = rays_pass(gram, self.d, cc, bound)
        i = 0
        while i < len(keep):
            row = keep[i]
            others = [r for r in keep if r != row]
            if proved[row] or not others:
                i += 1
                continue
            res = lp_solve(-self.C[row], self.C[others], self.d[others])
            if res.status == OPTIMAL and -res.objective <= bound[row]:
                keep.pop(i)
            else:
                i += 1
        return Polyhedron(self.C[keep], self.d[keep])

    def to_dict(self) -> dict:
        return {"C": self.C.tolist(), "d": self.d.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Polyhedron":
        return cls(C=data["C"], d=data["d"])


def rays_pass(gram, d, cc, bound) -> np.ndarray:
    """Which rays from the origin prove that c_j x exceeds bound[j]
    somewhere in {x : Cx <= d}, for d >= 0; gram[k, j] = C_k c_j and
    cc[j] = c_j c_j.

    t c_j lies in the set up to t_j = min d_k / gram[k, j] over the rows
    with gram[k, j] > 0 (inf when no row stops the ray). Ray j proves its
    bound passed when c_j (t_j c_j) = t_j cc[j] exceeds bound[j] by
    _PROOF_MARGIN (1 + |bound[j]|); a zero c_j proves nothing.
    """
    reach = np.full(gram.shape, np.inf)
    np.divide(d[:, None], gram, out=reach, where=gram > 0.0)
    live = cc > 0.0
    value = np.where(live, reach.min(axis=0, initial=np.inf), 0.0) * cc
    return live & (value > bound + _PROOF_MARGIN * (1.0 + np.abs(bound)))


def box(limit: float, dim: int) -> Polyhedron:
    """The box |x_i| <= limit, i = 1..dim, as a polyhedron: the rows of
    the identity, then of its negative."""
    eye = np.eye(dim)
    return Polyhedron(np.vstack([eye, -eye]), np.full(2 * dim, float(limit)))
