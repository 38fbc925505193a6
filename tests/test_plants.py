import json

import numpy as np
import pytest

from qptrim.mpc import scenario_from_dict
from qptrim.plants import gen_double_integrator, gen_oscillating_masses
from qptrim.polyhedra import box


class TestDoubleIntegrator:
    def test_discretization(self):
        sc = scenario_from_dict(gen_double_integrator(h=0.5, N=3))
        assert np.allclose(sc.A, [[1.0, 0.5], [0.0, 1.0]])
        assert np.allclose(sc.B, [[0.125], [0.5]])
        assert sc.N == 3
        assert sc.condensed.n_z == 3

    def test_json_serializable(self):
        text = json.dumps(gen_double_integrator())
        assert "discretize" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_double_integrator(h=0.0)
        with pytest.raises(ValueError):
            gen_double_integrator(N=0)


class TestDefaultTopology:
    def test_even(self):
        bc = np.array(gen_oscillating_masses(6)["discretize"]["Bc"])
        assert bc.shape == (12, 3)
        assert np.array_equal(bc[6:], [[1, 0, 0], [-1, 0, 0],
                                       [0, 1, 0], [0, -1, 0],
                                       [0, 0, 1], [0, 0, -1]])
        assert np.all(bc[:6] == 0.0)

    def test_odd_gets_single(self):
        bc = np.array(gen_oscillating_masses(5)["discretize"]["Bc"])
        assert bc.shape == (10, 3)
        assert np.array_equal(bc[5:], [[1, 0, 0], [-1, 0, 0],
                                       [0, 1, 0], [0, -1, 0],
                                       [0, 0, 1]])
        assert np.all(bc[:5] == 0.0)


class TestOscillatingMasses:
    def test_two_mass_ode(self):
        # by hand: p1'' = -2 p1 + p2 + u, p2'' = p1 - 2 p2 - u
        data = gen_oscillating_masses(2, h=0.1, N=2)
        ac = np.array(data["discretize"]["Ac"])
        bc = np.array(data["discretize"]["Bc"])
        assert np.allclose(ac, [[0, 0, 1, 0],
                                [0, 0, 0, 1],
                                [-2, 1, 0, 0],
                                [1, -2, 0, 0]])
        assert np.allclose(bc, [[0], [0], [1], [-1]])

    def test_position_slab_not_full_box(self):
        data = gen_oscillating_masses(3)
        C = np.array(data["X"]["C"])
        assert C.shape == (6, 6)
        # velocity columns untouched
        assert np.allclose(C[:, 3:], 0.0)
        assert np.allclose(data["X"]["d"], 4.0)

    def test_six_mass_condensed_dims(self):
        data = gen_oscillating_masses(6, h=0.1, N=30)
        data["terminal"] = box(1.0, dim=12).to_dict()
        sc = scenario_from_dict(data)
        p = sc.condensed
        assert p.n_x == 12
        assert p.n_z == 90
        # 30 * (12 + 6) + 24 terminal rows, minus the 12 parameter-only
        # rows of the first position block
        assert p.n_c + sc.stripped_param_rows.n_rows == 30 * 18 + 24
        assert sc.stripped_param_rows.n_rows == 12

    def test_two_mass_auto_terminal(self):
        # single-ended actuator: the equal-and-opposite pair cannot damp
        # the symmetric mode of a 2-mass chain
        data = gen_oscillating_masses(2, h=0.1, N=3)
        data["discretize"]["Bc"] = [[0.0], [0.0], [1.0], [0.0]]
        sc = scenario_from_dict(data)
        assert sc.XN.n_rows > 4
        bb = sc.XN.bounding_box()  # raises if the set is unbounded
        assert (bb[:, 1] - bb[:, 0] > 0).all()
        assert sc.XN.contains([0.0, 0.0, 0.0, 0.0])

    def test_two_mass_opposed_pair_unstabilizable(self):
        from qptrim.mpc import NoConvergence
        data = gen_oscillating_masses(2, h=0.1, N=3)
        with pytest.raises(NoConvergence):
            scenario_from_dict(data)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gen_oscillating_masses(1)
        with pytest.raises(ValueError):
            gen_oscillating_masses(4, h=0.0)
        with pytest.raises(ValueError):
            gen_oscillating_masses(4, N=0)
