"""Multiparametric QP containers and basic queries.

The problem family is

    min_z  0.5 z' H z + x' F z     s.t.  G z <= S x + w

with H positive definite, so the minimizer z*(x) is unique wherever the
constraint set is nonempty. Constraint indices are 1-based everywhere in the
public surface (JSON, index sets, reported active sets); numpy rows are
0-based only internally.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .linalg import NotPositiveDefinite, cholesky
from .tolerances import ACT, rank_tol


class NonPositiveScale(Exception):
    """Row scaling requires strictly positive weights."""


class IndexSet:
    """Sorted, duplicate-free set of 1-based constraint indices, held as an
    int array."""

    __slots__ = ("_idx",)

    def __init__(self, indices=()):
        vals = [float(i) for i in indices]
        bad = [v for v in vals if not v.is_integer()]
        if bad:
            raise ValueError(f"constraint indices are integers, got {bad[0]}")
        idx = np.unique(np.array(vals, dtype=np.intp))
        if idx.size and idx[0] < 1:
            raise ValueError(f"constraint indices are 1-based, got {idx[0]}")
        self._idx = idx

    @classmethod
    def _of_sorted(cls, idx: np.ndarray) -> "IndexSet":
        """Wrap an increasing array of 1-based indices without checking it."""
        out = cls.__new__(cls)
        out._idx = idx
        return out

    @classmethod
    def full(cls, n_c: int) -> "IndexSet":
        return cls._of_sorted(np.arange(1, n_c + 1, dtype=np.intp))

    @classmethod
    def from_mask(cls, mask) -> "IndexSet":
        return cls._of_sorted(np.asarray(mask, dtype=bool).nonzero()[0] + 1)

    @property
    def indices(self) -> tuple:
        return tuple(self._idx.tolist())

    def zero_based(self) -> np.ndarray:
        return self._idx - 1

    def to_mask(self, n_c: int) -> np.ndarray:
        mask = np.zeros(n_c, dtype=bool)
        mask[self._idx - 1] = True
        return mask

    def intersection(self, other) -> "IndexSet":
        if not isinstance(other, IndexSet):
            other = IndexSet(other)
        return IndexSet._of_sorted(
            np.intersect1d(self._idx, other._idx, assume_unique=True))

    def __contains__(self, i) -> bool:
        i = int(i)
        k = int(np.searchsorted(self._idx, i))
        return k < self._idx.size and self._idx[k] == i

    def __iter__(self):
        return iter(self._idx.tolist())

    def __len__(self) -> int:
        return self._idx.size

    def __eq__(self, other) -> bool:
        if isinstance(other, IndexSet):
            return np.array_equal(self._idx, other._idx)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._idx.tobytes())

    def __repr__(self) -> str:
        return f"IndexSet({self._idx.tolist()})"


def finite_parameter(x) -> np.ndarray:
    """x as a 1-D float array; a NaN or infinite entry raises ValueError."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError(f"parameter {x.tolist()} is not finite")
    return x


@dataclass
class MpQp:
    """One mp-QP instance. Treated as immutable once constructed."""

    H: np.ndarray
    F: np.ndarray
    G: np.ndarray
    S: np.ndarray
    w: np.ndarray
    name: str | None = None

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.F = np.atleast_2d(np.asarray(self.F, dtype=float))
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.S = np.atleast_2d(np.asarray(self.S, dtype=float))
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))

    @property
    def n_z(self) -> int:
        return self.H.shape[0]

    @property
    def n_x(self) -> int:
        return self.F.shape[0]

    @property
    def n_c(self) -> int:
        return self.G.shape[0]

    def validate(self) -> list:
        """Structural diagnostics; an empty list means the instance is valid."""
        out = []
        nz, nx, nc = self.n_z, self.n_x, self.n_c
        if self.H.shape != (nz, nz):
            out.append(f"H must be square, got {self.H.shape}")
        if self.F.shape != (nx, nz):
            out.append(f"F shape {self.F.shape} does not match (n_x={nx}, n_z={nz})")
        if self.G.shape != (nc, nz):
            out.append(f"G shape {self.G.shape} does not match (n_c={nc}, n_z={nz})")
        if self.S.shape != (nc, nx):
            out.append(f"S shape {self.S.shape} does not match (n_c={nc}, n_x={nx})")
        if self.w.shape != (nc,):
            out.append(f"w shape {self.w.shape} does not match n_c={nc}")
        for label, arr in [("H", self.H), ("F", self.F), ("G", self.G), ("S", self.S), ("w", self.w)]:
            if not np.all(np.isfinite(arr)):
                out.append(f"{label} contains non-finite entries")
        if not out:
            if self.G.size:
                zero = np.flatnonzero(np.linalg.norm(self.G, axis=1) <= rank_tol(self.G))
                if zero.size:
                    out.append(f"zero rows in G: {[int(i) + 1 for i in zero]}")
            try:
                cholesky(self.H)
            except (NotPositiveDefinite, ValueError) as e:
                out.append(f"H is not positive definite: {e}")
        return out

    # -- cached factorizations and derived quantities ----------------------

    @cached_property
    def _h_cho(self):
        return cho_factor(self.H, lower=True)

    def h_solve(self, rhs) -> np.ndarray:
        """H^-1 @ rhs via the cached Cholesky factor."""
        return cho_solve(self._h_cho, np.asarray(rhs, dtype=float))

    @cached_property
    def hi_gt(self) -> np.ndarray:
        """H^-1 G' (n_z x n_c)."""
        return self.h_solve(self.G.T)

    @cached_property
    def g_lt(self) -> np.ndarray:
        """E = G L^-T with H = L L' (n_c x n_z): the rows in the
        coordinates y = L' z, in which the QP is a least-distance program
        and E E' = G H^-1 G'."""
        return solve_triangular(self._h_cho[0], self.G.T, lower=True).T

    @cached_property
    def hi_ft(self) -> np.ndarray:
        """H^-1 F' (n_z x n_x)."""
        return self.h_solve(self.F.T)

    @cached_property
    def slack_map(self) -> np.ndarray:
        """S + G H^-1 F' (n_c x n_x): b - G z0 = slack_map @ x + w at the
        unconstrained minimizer z0 = -H^-1 F' x."""
        return self.S + self.G @ self.hi_ft

    @cached_property
    def g_quads(self) -> np.ndarray:
        """Per-row curvature G_j H^-1 G_j'."""
        return np.einsum("ij,ji->i", self.G, self.hi_gt)

    @cached_property
    def g_row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.G, axis=1)

    @cached_property
    def act_band(self) -> np.ndarray:
        """Per-row activity band ACT * (1 + |w|): a row whose slack is
        this close to zero is active."""
        return ACT * (1.0 + np.abs(self.w))

    # -- queries ------------------------------------------------------------

    def parameter(self, x) -> np.ndarray:
        """x as a finite 1-D float array of length n_x; anything else
        raises ValueError naming what is wrong."""
        x = finite_parameter(x)
        if x.shape != (self.n_x,):
            raise ValueError(f"parameter has shape {x.shape}, expected ({self.n_x},)")
        return x

    def rhs(self, x) -> np.ndarray:
        """Constraint right-hand side S x + w at parameter x."""
        return self.S @ np.asarray(x, dtype=float) + self.w

    def triple(self, x, z, b) -> tuple:
        """A point's (x, G z, active mask) triple, as the removal fold reads
        it, and its slack b - G z at b = S x + w, nonnegative on the feasible
        set; a row is active when its slack is within act_band of zero."""
        gz = self.G @ z
        slack = b - gz
        return (x, gz, np.abs(slack) <= self.act_band), slack

    def active_set(self, x, z) -> IndexSet:
        """Indices whose slack magnitude is within act_band of zero."""
        return IndexSet.from_mask(self.triple(x, z, self.rhs(x))[0][2])

    def licq_holds(self, active: IndexSet) -> bool:
        """Numerical row rank of the active gradients equals their count."""
        if not len(active):
            return True
        rows = self.G[active.zero_based()]
        if rows.shape[0] > self.n_z:
            return False
        sv = np.linalg.svd(rows, compute_uv=False)
        return int(np.sum(sv > rank_tol(rows))) == rows.shape[0]

    def scaled(self, phi) -> "MpQp":
        """Row-rescaled copy: rows of (G, S, w) multiplied by positive phi."""
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        if phi.shape != (self.n_c,):
            raise ValueError(f"phi shape {phi.shape} does not match n_c={self.n_c}")
        if np.any(phi <= 0) or not np.all(np.isfinite(phi)):
            raise NonPositiveScale("row scaling weights must be positive and finite")
        return MpQp(
            self.H,
            self.F,
            phi[:, None] * self.G,
            phi[:, None] * self.S,
            phi * self.w,
            name=self.name,
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "H": self.H.tolist(),
            "F": self.F.tolist(),
            "G": self.G.tolist(),
            "S": self.S.tolist(),
            "w": self.w.tolist(),
        }
        if self.name is not None:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MpQp":
        return cls(
            H=np.array(data["H"], dtype=float),
            F=np.array(data["F"], dtype=float),
            G=np.array(data["G"], dtype=float),
            S=np.array(data["S"], dtype=float),
            w=np.array(data["w"], dtype=float),
            name=data.get("name"),
        )


@dataclass(eq=False)
class SolvedSample:
    """A solved parameter: (x_hat, z*(x_hat), active set of the full problem).
    Compared by identity, since its fields are arrays."""

    x_hat: np.ndarray
    z_star: np.ndarray
    active: IndexSet

    def __post_init__(self):
        self.x_hat = np.atleast_1d(np.asarray(self.x_hat, dtype=float))
        self.z_star = np.atleast_1d(np.asarray(self.z_star, dtype=float))
        if not isinstance(self.active, IndexSet):
            self.active = IndexSet(self.active)

    def to_dict(self) -> dict:
        return {
            "x_hat": self.x_hat.tolist(),
            "z_star": self.z_star.tolist(),
            "active": list(self.active),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolvedSample":
        return cls(data["x_hat"], data["z_star"], IndexSet(data["active"]))


def samples_to_json(samples) -> str:
    return json.dumps([s.to_dict() for s in samples])


def samples_from_json(text: str) -> list:
    return [SolvedSample.from_dict(d) for d in json.loads(text)]


def example_two_halfplanes() -> MpQp:
    """Tiny 1-D instance used across tests and demos.

    Cost z^2 + x z with constraints z <= x and z <= -x - 4. The two
    constraint gradients are identical, so their joint active set is
    degenerate; that makes it the canonical hazard case for multi-sample
    trimming.
    """
    return MpQp(
        H=[[2.0]],
        F=[[1.0]],
        G=[[1.0], [1.0]],
        S=[[1.0], [-1.0]],
        w=[0.0, -4.0],
        name="two-halfplanes",
    )
