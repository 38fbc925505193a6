"""Scenario generators for the bundled demo plants.

Both return plain JSON-ready dicts in the scenario layout consumed by
`mpc.scenario_from_dict`, so they can be dumped to disk and fed back
through the CLI unchanged.
"""

import numpy as np

from .polyhedra import box


def gen_double_integrator(h: float = 0.5, N: int = 5) -> dict:
    """Two-state plant (position, velocity), force input, box limits."""
    if not (h > 0 and np.isfinite(h)):
        raise ValueError(f"step h must be positive, got {h}")
    if N < 1:
        raise ValueError(f"horizon must be >= 1, got {N}")
    return {
        "name": f"double-integrator-N{N}",
        "discretize": {"Ac": [[0.0, 1.0], [0.0, 0.0]],
                       "Bc": [[0.0], [1.0]], "h": float(h)},
        "Q": np.eye(2).tolist(),
        "R": [[1.0]],
        "N": int(N),
        "X": box(5.0, dim=2).to_dict(),
        "U": box(1.0, dim=1).to_dict(),
        "terminal": "auto",
    }


def gen_oscillating_masses(n_masses: int, h: float = 0.1, N: int = 30) -> dict:
    """Chain of unit masses joined by unit springs, walls at both ends.

    State stacks positions then velocities. Actuators sit on masses 1, 3,
    5, ...; each exerts an equal and opposite force on its mass (+) and the
    right neighbour (-), and with an odd mass count the last one is a plain
    push on the last mass. Displacements are limited to +-4 and forces to
    +-0.5; velocities are left free, which is why the state constraint is a
    slab rather than a box.
    """
    if n_masses < 2:
        raise ValueError(f"need at least 2 masses, got {n_masses}")
    if not (h > 0 and np.isfinite(h)):
        raise ValueError(f"step h must be positive, got {h}")
    if N < 1:
        raise ValueError(f"horizon must be >= 1, got {N}")

    n = n_masses
    spring = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    ac = np.zeros((2 * n, 2 * n))
    ac[:n, n:] = np.eye(n)
    ac[n:, :n] = spring
    m = (n + 1) // 2
    bc = np.zeros((2 * n, m))
    for col in range(m):
        bc[n + 2 * col, col] = 1.0
        if 2 * col + 1 < n:
            bc[n + 2 * col + 1, col] = -1.0

    pos_sel = np.hstack([np.eye(n), np.zeros((n, n))])
    x_rows = np.vstack([pos_sel, -pos_sel])
    return {
        "name": f"oscillating-masses-{n}",
        "discretize": {"Ac": ac.tolist(), "Bc": bc.tolist(), "h": float(h)},
        "Q": np.eye(2 * n).tolist(),
        "R": np.eye(m).tolist(),
        "N": int(N),
        "X": {"C": x_rows.tolist(), "d": [4.0] * (2 * n)},
        "U": box(0.5, dim=m).to_dict(),
        "terminal": "auto",
    }
