"""Certified constraint removal from previously solved instances.

Given a solved sample (x_hat, z_star, active set) and a Lipschitz constant
kappa for the minimizer map, the minimizer at a new parameter x lies in the
closed ball of radius kappa*||x - x_hat|| around z_star. Any inactive
constraint whose half-space (at x) contains that whole ball can be dropped
without changing the solution. Folding several samples shrinks the kept set
further, but is only safe when active gradients are independent everywhere
(the two-halfplanes example shows what goes wrong otherwise), so the
multi-sample path is gated behind an explicit caller assertion.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .mpqp import IndexSet, MpQp, SolvedSample, finite_parameter


class NotInactive(Exception):
    """Removal test queried for a constraint that is active in the sample."""


class LicqViolation(Exception):
    """A sample's active gradients are dependent; multi-sample fold refused."""


@dataclass
class TrimOutcome:
    """Partition of the constraint rows after trimming at one parameter."""

    kept: IndexSet
    removed: IndexSet
    radius: float
    samples_used: int

    def to_dict(self) -> dict:
        return {
            "kept": list(self.kept.indices),
            "removed": list(self.removed.indices),
            "radius": self.radius,
            "samples_used": self.samples_used,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrimOutcome":
        return cls(
            kept=IndexSet(data["kept"]),
            removed=IndexSet(data["removed"]),
            radius=float(data["radius"]),
            samples_used=int(data["samples_used"]),
        )

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TrimOutcome":
        return cls.from_dict(json.loads(text))


def check_sample(p: MpQp, sample: SolvedSample) -> None:
    """Raise ValueError unless the sample is consistent with the problem."""
    x = np.atleast_1d(np.asarray(sample.x_hat, dtype=float))
    z = np.atleast_1d(np.asarray(sample.z_star, dtype=float))
    if x.shape != (p.n_x,) or z.shape != (p.n_z,):
        raise ValueError(
            f"sample shapes x_hat{x.shape}, z_star{z.shape} do not match "
            f"problem (n_x={p.n_x}, n_z={p.n_z})"
        )
    slack = p.slacks(x, z)
    if np.any(slack + p.feas_band < 0.0):
        bad = int(np.argmin(slack)) + 1
        raise ValueError(f"sample infeasible at row {bad}: slack {slack[bad - 1]:.3e}")
    if p.active_set(x, z) != sample.active:
        raise ValueError(
            f"sample active set {sample.active} inconsistent with slacks"
        )


def check_kappa(kappa) -> None:
    """Raise ValueError unless kappa is a finite, nonnegative constant."""
    if not 0.0 <= kappa < np.inf:     # NaN fails both comparisons
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")


def _ball_radius(kappa: float, x_hat, x) -> float:
    """Radius kappa*||x - x_hat|| of the ball that holds the minimizer at x."""
    d = x - x_hat
    return float(kappa) * math.sqrt(d.dot(d))   # np.linalg.norm, bitwise


def _kept_mask(p: MpQp, slack, radius: float, active) -> np.ndarray:
    """Rows that stay: the sample's active rows (bool mask `active`) plus
    every inactive row whose half-space at x does not contain the ball of
    `radius` around the sample minimizer, given the minimizer's slacks at
    x. Containment is radius <= slack_j / ||G_j||, equality included.
    This is the only copy of the removal test."""
    norms, zero = p.g_row_norms, p.g_zero_rows
    if zero.size:
        # degenerate 0*z rows: satisfied by every z or by none
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = slack / norms
        dist[zero] = np.where(slack[zero] >= 0.0, np.inf, -np.inf)
    else:
        dist = slack / norms
    return active | ~(radius <= dist)


def _sample_mask(p: MpQp, kappa: float, sample: SolvedSample, x) -> np.ndarray:
    """_kept_mask for a solved sample at parameter x."""
    return _kept_mask(p, p.slacks(x, sample.z_star),
                      _ball_radius(kappa, sample.x_hat, x),
                      sample.active.to_mask(p.n_c))


def removal_test(p: MpQp, kappa: float, sample: SolvedSample, x, j: int) -> bool:
    """True when inactive row j is certifiably redundant at parameter x.

    The ball of radius kappa*||x - x_hat|| around the sample minimizer must
    lie in row j's half-space at x; equality counts as contained. j is
    1-based.
    """
    if not 1 <= j <= p.n_c:
        raise ValueError(f"row index {j} out of range 1..{p.n_c}")
    if j in sample.active:
        raise NotInactive(f"row {j} is active in the sample")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return not _sample_mask(p, kappa, sample, x)[j - 1]


def trim_single(p: MpQp, kappa: float, sample: SolvedSample, x) -> TrimOutcome:
    """Safe index set from one solved sample: active rows plus every inactive
    row that fails the removal test."""
    check_kappa(kappa)
    x = finite_parameter(x)
    check_sample(p, sample)
    keep = _sample_mask(p, kappa, sample, x)
    return TrimOutcome(
        kept=IndexSet.from_mask(keep),
        removed=IndexSet.from_mask(~keep),
        radius=_ball_radius(kappa, sample.x_hat, x),
        samples_used=1,
    )


def nearest_index(points, x) -> int:
    """Row of the stacked parameters `points` closest to x in the Euclidean
    norm; ties go to the first row. A non-finite query, or one whose length
    is not the rows', raises ValueError."""
    x = finite_parameter(x)
    if x.shape != points.shape[1:]:
        raise ValueError(f"parameter has {x.size} entries, expected "
                         f"{points.shape[1]}")
    return int(np.argmin(np.linalg.norm(points - x, axis=1)))


def trim_multi(
    p: MpQp,
    kappa: float,
    samples,
    x,
    assume_licq: bool = False,
) -> TrimOutcome:
    """Sequential fold over several solved samples.

    Each pass keeps the sample's active rows (within the current set) plus
    the inactive rows it cannot certify as redundant. With zero samples
    every row is kept; with one sample, or without assume_licq, this
    reduces to trim_single on the nearest sample.
    """
    check_kappa(kappa)
    x = finite_parameter(x)
    samples = list(samples)
    if not samples:
        return TrimOutcome(
            kept=IndexSet.full(p.n_c), removed=IndexSet(), radius=0.0, samples_used=0
        )
    if len(samples) == 1:
        return trim_single(p, kappa, samples[0], x)
    if not assume_licq:
        # Folding is only proven safe under a family-wide independence
        # assumption the code cannot check, so default to the nearest sample.
        near = nearest_index(np.array([s.x_hat for s in samples]), x)
        return trim_single(p, kappa, samples[near], x)
    for k, s in enumerate(samples):
        check_sample(p, s)
        if not p.licq_holds(s.active):
            raise LicqViolation(
                f"sample {k} (x_hat={np.atleast_1d(s.x_hat).tolist()}) has "
                f"linearly dependent active rows {list(s.active.indices)}"
            )
    mask = np.ones(p.n_c, dtype=bool)
    for s in samples:
        mask &= _sample_mask(p, kappa, s, x)
    return TrimOutcome(
        kept=IndexSet.from_mask(mask),
        removed=IndexSet.from_mask(~mask),
        radius=_ball_radius(kappa, samples[-1].x_hat, x),
        samples_used=len(samples),
    )


def certify(
    p: MpQp, kappa: float, sample: SolvedSample, x, outcome: TrimOutcome
) -> bool:
    """Re-verify every removed row from scratch.

    Checks, per removed row j: the row was strictly inactive at the sample
    (the test's precondition), the ball center satisfies the row at x, and
    the boundary distance covers the ball radius. The distance check is
    written as slack >= radius*||G_j|| to stay division-free. Recomputes
    slacks rather than trusting the sample's stored active set.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    slack_here = p.slacks(x, sample.z_star)
    slack_at_sample = p.slacks(sample.x_hat, sample.z_star)
    radius = _ball_radius(kappa, sample.x_hat, x)
    ok = True
    for j in outcome.removed:
        s_j = slack_here[j - 1]
        ok = (
            ok
            and slack_at_sample[j - 1] > p.act_band[j - 1]
            and s_j >= 0.0
            and s_j >= radius * p.g_row_norms[j - 1]
        )
    return bool(ok)
