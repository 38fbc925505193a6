import numpy as np
import pytest

from qptrim.polyhedra import Polyhedron, box


def unit_box():
    return box(1.0, dim=2)


class TestMembership:
    def test_contains_interior_and_boundary(self):
        p = unit_box()
        assert p.contains([0.0, 0.0])
        assert p.contains([1.0, -1.0])
        assert not p.contains([1.1, 0.0])

    def test_violations_signs(self):
        p = unit_box()
        v = p.C @ [2.0, 0.0] - p.d
        # rows: x1<=1, x2<=1, -x1<=1, -x2<=1
        assert np.allclose(v, [1.0, -1.0, -3.0, -1.0])


class TestEmptiness:
    def test_nonempty(self):
        assert not unit_box().is_empty()

    def test_empty(self):
        p = Polyhedron([[1.0], [-1.0]], [-2.0, 1.0])  # x <= -2 and x >= -1
        assert p.is_empty()


class TestSupport:
    def test_box_support(self):
        p = unit_box()
        assert abs(p.support([1.0, 0.0]) - 1.0) < 1e-9
        assert abs(p.support([1.0, 1.0]) - 2.0) < 1e-9
        assert abs(p.support([-3.0, 0.0]) - 3.0) < 1e-9

    def test_unbounded_direction(self):
        half = Polyhedron([[1.0, 0.0]], [1.0])  # x1 <= 1 only
        assert half.support([0.0, 1.0]) == np.inf

    def test_empty_raises(self):
        p = Polyhedron([[1.0], [-1.0]], [-2.0, 1.0])
        with pytest.raises(ValueError):
            p.support([1.0])


class TestBoundingBox:
    def test_box_roundtrip(self):
        limits = np.array([[-1.0, 2.0], [0.5, 3.0]])
        eye = np.eye(2)
        bb = Polyhedron(np.vstack([eye, -eye]),
                        np.concatenate([limits[:, 1], -limits[:, 0]])).bounding_box()
        assert np.allclose(bb, limits, atol=1e-9)

    def test_simplex(self):
        # x >= 0, y >= 0, x + y <= 1
        p = Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
        bb = p.bounding_box()
        assert np.allclose(bb, [[0.0, 1.0], [0.0, 1.0]], atol=1e-9)

    def test_unbounded_raises(self):
        half = Polyhedron([[1.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match="unbounded"):
            half.bounding_box()


class TestRedundancy:
    def test_drops_slack_row(self):
        b = unit_box()
        p = Polyhedron(np.vstack([b.C, [[1.0, 0.0]]]), np.append(b.d, 5.0))
        r = p.remove_redundant()
        assert r.n_rows == 4

    def test_duplicate_rows_lose_one_copy(self):
        p = Polyhedron([[1.0], [1.0], [-1.0]], [1.0, 1.0, 1.0])
        r = p.remove_redundant()
        assert r.n_rows == 2

    def test_same_set_after_pruning(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            C = rng.standard_normal((12, 2))
            d = rng.uniform(0.5, 2.0, 12)
            p = Polyhedron(C, d)
            r = p.remove_redundant()
            assert r.n_rows <= p.n_rows
            for _ in range(50):
                x = rng.uniform(-3, 3, 2)
                assert p.contains(x) == r.contains(x)


class TestConstruction:
    def test_scalar_box(self):
        p = box(2.0, dim=3)
        assert p.n_rows == 6 and p.dim == 3
        assert p.contains([2.0, -2.0, 0.0])
        assert not p.contains([0.0, 0.0, 2.1])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Polyhedron([[1.0, 0.0]], [1.0, 2.0])

    def test_dict_roundtrip(self):
        p = unit_box()
        q = Polyhedron.from_dict(p.to_dict())
        assert np.array_equal(p.C, q.C) and np.array_equal(p.d, q.d)
