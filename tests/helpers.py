"""Shared generators for randomized tests.

Instances are built around a known strictly feasible point so feasibility is
guaranteed by construction rather than by rejection. The generic random
instance, its SPD Hessian and the feasible-parameter search are the release
gate's own generators (qptrim.verify), imported under shorter names.
"""

import numpy as np

from qptrim.mpqp import MpQp
from qptrim.verify import _feasible_shift as random_feasible_x  # noqa: F401
from qptrim.verify import _random_mpqp as random_mpqp  # noqa: F401
from qptrim.verify import _random_spd as random_spd


def random_bounded_lifted_mpqp(rng, n_x, n_z, n_c, w_lo=0.3, w_hi=1.2, min_gz=0.3):
    """Instance whose lifted constraint polyhedron {[x, z]: -S x + G z <= w}
    is bounded with the origin in its interior.

    Row normals are drawn on the unit sphere with the z-block kept away from
    zero (so G has no zero rows); boundedness is certified by the caller via
    bounding-box LPs and resampling.
    """
    n_v = n_x + n_z
    rows = np.zeros((n_c, n_v))
    for i in range(n_c):
        while True:
            u = rng.normal(size=n_v)
            u /= np.linalg.norm(u)
            if np.linalg.norm(u[n_x:]) >= min_gz:
                rows[i] = u
                break
    w = rng.uniform(w_lo, w_hi, size=n_c)
    S = -rows[:, :n_x]
    G = rows[:, n_x:]
    H = random_spd(rng, n_z)
    F = rng.normal(size=(n_x, n_z)) * 0.5
    return MpQp(H, F, G, S, w)
