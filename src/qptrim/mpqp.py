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
from scipy.linalg import cho_factor, cho_solve

from .linalg import NotPositiveDefinite, cholesky
from .tolerances import DEFAULT, Tolerances, rank_tol


class NonPositiveScale(Exception):
    """Row scaling requires strictly positive weights."""


class IndexSet:
    """Sorted, duplicate-free set of 1-based constraint indices."""

    __slots__ = ("_idx", "_set")

    def __init__(self, indices=(), n_c: int | None = None):
        idx = sorted({int(i) for i in indices})
        if idx and idx[0] < 1:
            raise ValueError(f"constraint indices are 1-based, got {idx[0]}")
        if n_c is not None and idx and idx[-1] > n_c:
            raise ValueError(f"index {idx[-1]} exceeds n_c={n_c}")
        self._idx = tuple(idx)
        self._set = frozenset(idx)

    @classmethod
    def full(cls, n_c: int) -> "IndexSet":
        return cls(range(1, n_c + 1))

    @classmethod
    def from_mask(cls, mask) -> "IndexSet":
        return cls(np.flatnonzero(np.asarray(mask, dtype=bool)) + 1)

    @property
    def indices(self) -> tuple:
        return self._idx

    def zero_based(self) -> np.ndarray:
        return np.asarray(self._idx, dtype=int) - 1

    def to_mask(self, n_c: int) -> np.ndarray:
        mask = np.zeros(n_c, dtype=bool)
        mask[self.zero_based()] = True
        return mask

    def union(self, other) -> "IndexSet":
        return IndexSet(self._set | set(other))

    def intersection(self, other) -> "IndexSet":
        return IndexSet(self._set & set(other))

    def difference(self, other) -> "IndexSet":
        return IndexSet(self._set - set(other))

    def complement(self, n_c: int) -> "IndexSet":
        return IndexSet(set(range(1, n_c + 1)) - self._set)

    def __contains__(self, i) -> bool:
        return int(i) in self._set

    def __iter__(self):
        return iter(self._idx)

    def __len__(self) -> int:
        return len(self._idx)

    def __eq__(self, other) -> bool:
        if isinstance(other, IndexSet):
            return self._idx == other._idx
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._idx)

    def __repr__(self) -> str:
        return f"IndexSet({list(self._idx)})"


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
    def hi_ft(self) -> np.ndarray:
        """H^-1 F' (n_z x n_x)."""
        return self.h_solve(self.F.T)

    @cached_property
    def g_quads(self) -> np.ndarray:
        """Per-row curvature G_j H^-1 G_j'."""
        return np.einsum("ij,ji->i", self.G, self.hi_gt)

    @cached_property
    def g_row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.G, axis=1)

    # -- queries ------------------------------------------------------------

    def rhs(self, x) -> np.ndarray:
        """Constraint right-hand side S x + w at parameter x."""
        return self.S @ np.asarray(x, dtype=float) + self.w

    def slacks(self, x, z) -> np.ndarray:
        """w + S x - G z; nonnegative on the feasible set."""
        return self.rhs(x) - self.G @ np.asarray(z, dtype=float)

    def active_set(self, x, z, tol: Tolerances = DEFAULT) -> IndexSet:
        """Indices whose slack magnitude is within act-tol of zero."""
        s = self.slacks(x, z)
        return IndexSet.from_mask(np.abs(s) <= tol.act * (1.0 + np.abs(self.w)))

    def licq_holds(self, active: IndexSet) -> bool:
        """Numerical row rank of the active gradients equals their count."""
        rows = self.G[active.zero_based()]
        if rows.shape[0] == 0:
            return True
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

    def objective(self, x, z) -> float:
        z = np.asarray(z, dtype=float)
        x = np.asarray(x, dtype=float)
        return float(0.5 * z @ self.H @ z + x @ self.F @ z)

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

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MpQp":
        return cls.from_dict(json.loads(text))


@dataclass
class SolvedSample:
    """A solved parameter: (x_hat, z*(x_hat), active set of the full problem)."""

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


def samples_to_json(samples, indent=None) -> str:
    return json.dumps([s.to_dict() for s in samples], indent=indent)


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
