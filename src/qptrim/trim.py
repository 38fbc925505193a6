"""Certified constraint removal from previously solved instances.

Given a solved sample (x_hat, z_star, active set) and a Lipschitz constant
kappa for the minimizer map, the minimizer at a new parameter x lies in the
closed ball of radius kappa*||x - x_hat|| around z_star. Any inactive
constraint whose half-space (at x) contains that whole ball can be dropped
without changing the solution. Folding several samples shrinks the kept set
further, but is only safe when active gradients are independent everywhere
(the two-halfplanes example shows what goes wrong otherwise), so the
multi-sample path is gated behind an explicit caller assertion.

Every caller reaches the test through one fold, _kept_mask, which takes
the right-hand side S x + w at x and one (x_hat, G z*, active mask) triple
per sample, as MpQp.triple forms it. check_sample checks a sample that
enters from outside the program and returns its triple: it computes the
sample's slack once and holds it to the solver's own feasibility band.
trim_multi folds the triples of its samples and tests LICQ only when two
or more samples fold; trim_single is its one-sample call.
closedloop.simulate calls the fold directly, with the triples that
build_offline_dataset formed as it solved its samples, and checks only
the feasibility of the sample it solved itself, to the same band.
nearest_index, which picks the offline sample, sums squared distances one
coordinate at a time.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .mpqp import IndexSet, MpQp, SolvedSample, finite_parameter
from .tolerances import feas_tol


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

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def check_sample(p: MpQp, sample: SolvedSample) -> tuple:
    """Raise ValueError unless the sample is consistent with the problem;
    return its (x_hat, G z*, active mask) triple, as the fold reads it.

    The sample's slack b - G z* at b = S x_hat + w is computed once: no
    row may be violated by more than feas_tol(b), the band the solver
    allows its own points, and the rows within the activity band must be
    exactly the sample's stored active set."""
    x = np.atleast_1d(np.asarray(sample.x_hat, dtype=float))
    z = np.atleast_1d(np.asarray(sample.z_star, dtype=float))
    if x.shape != (p.n_x,) or z.shape != (p.n_z,):
        raise ValueError(
            f"sample shapes x_hat{x.shape}, z_star{z.shape} do not match "
            f"problem (n_x={p.n_x}, n_z={p.n_z})"
        )
    b = p.rhs(x)
    triple, slack = p.triple(x, z, b)
    if slack.min(initial=0.0) < -feas_tol(b):
        bad = int(np.argmin(slack)) + 1
        raise ValueError(f"sample infeasible at row {bad}: slack {slack[bad - 1]:.3e}")
    if IndexSet.from_mask(triple[2]) != sample.active:
        raise ValueError(
            f"sample active set {sample.active} inconsistent with slacks"
        )
    return triple


def check_kappa(kappa) -> None:
    """Raise ValueError unless kappa is a finite, nonnegative constant."""
    if not 0.0 <= kappa < np.inf:     # NaN fails both comparisons
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")


def _ball_radius(kappa: float, x_hat, x) -> float:
    """Radius kappa*||x - x_hat|| of the ball that holds the minimizer at x."""
    d = x - x_hat
    return float(kappa) * math.sqrt(d.dot(d))   # np.linalg.norm, bitwise


def _kept_mask(p: MpQp, kappa: float, x, b, samples) -> np.ndarray:
    """Rows that stay at parameter x, whose right-hand side S x + w is b,
    folded over the solved samples: (x_hat, G z*, active mask) triples.

    Each sample keeps its active rows plus every inactive row whose
    half-space at x does not contain the ball of radius kappa*||x - x_hat||
    around z*: containment is radius*||G_j|| <= b_j - G_j z*, equality
    included. Written without a division, it also removes a 0*z row
    exactly when the row holds. A row stays only when every sample keeps
    it; `samples` holds at least one triple. This is the only copy of the
    removal test."""
    keep = None
    for x_hat, gz, active in samples:
        radius = _ball_radius(kappa, x_hat, x)
        mask = active | ~(radius * p.g_row_norms <= b - gz)
        keep = mask if keep is None else keep & mask
    return keep


def trim_single(p: MpQp, kappa: float, sample: SolvedSample, x) -> TrimOutcome:
    """Safe index set from one solved sample: active rows plus every inactive
    row that fails the removal test."""
    return trim_multi(p, kappa, [sample], x)


def nearest_index(points, x) -> int:
    """Row of the stacked parameters `points` closest to x in the Euclidean
    norm; ties go to the first row. A non-finite query, or one whose length
    is not the rows', raises ValueError.

    The squared distances are summed one coordinate at a time, in place,
    which is fastest when `points` is column-major. Up to 7 coordinates
    this is numpy's own summation order, so the row is bitwise that of
    argmin(norm(points - x, axis=1)); from 8 on numpy sums pairwise and
    the two can round apart."""
    x = finite_parameter(x)
    if x.shape != points.shape[1:]:
        raise ValueError(f"parameter has {x.size} entries, expected "
                         f"{points.shape[1]}")
    d2 = np.zeros(len(points))
    t = np.empty_like(d2)
    for col, x_i in zip(points.T, x):
        np.subtract(col, x_i, out=t)
        t *= t
        d2 += t
    return int(np.argmin(np.sqrt(d2)))


def trim_multi(
    p: MpQp,
    kappa: float,
    samples,
    x,
    assume_licq: bool = False,
) -> TrimOutcome:
    """Sequential fold over several solved samples.

    Each sample keeps its active rows plus the inactive rows it cannot
    certify as redundant, and a row stays only when every sample keeps it.
    With zero samples every row is kept. Without assume_licq only the
    sample nearest to x folds. Two or more samples fold only when each
    one's active rows are independent (LicqViolation otherwise). The
    radius is that of the last sample folded. A bad x raises ValueError.
    """
    check_kappa(kappa)
    x = p.parameter(x)
    samples = list(samples)
    if not samples:
        return TrimOutcome(
            kept=IndexSet.full(p.n_c), removed=IndexSet(), radius=0.0, samples_used=0
        )
    if len(samples) > 1 and not assume_licq:
        # Folding is only proven safe under a family-wide independence
        # assumption the code cannot check, so default to the nearest sample.
        samples = [samples[nearest_index(np.array([s.x_hat for s in samples]), x)]]
    triples = []
    for k, s in enumerate(samples):
        triples.append(check_sample(p, s))
        if len(samples) > 1 and not p.licq_holds(s.active):
            raise LicqViolation(
                f"sample {k} (x_hat={np.atleast_1d(s.x_hat).tolist()}) has "
                f"linearly dependent active rows {list(s.active.indices)}"
            )
    mask = _kept_mask(p, kappa, x, p.rhs(x), triples)
    return TrimOutcome(
        kept=IndexSet.from_mask(mask),
        removed=IndexSet.from_mask(~mask),
        radius=_ball_radius(kappa, samples[-1].x_hat, x),
        samples_used=len(samples),
    )
