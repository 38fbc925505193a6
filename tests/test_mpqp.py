import json

import numpy as np
import pytest

from qptrim.mpqp import (
    IndexSet,
    MpQp,
    NonPositiveScale,
    SolvedSample,
    example_two_halfplanes,
    samples_from_json,
    samples_to_json,
)


class TestIndexSet:
    def test_sorted_and_deduplicated(self):
        s = IndexSet([3, 1, 2, 3, 1])
        assert s.indices == (1, 2, 3)
        assert list(s) == [1, 2, 3]
        assert len(s) == 3
        # iterable, array and mask construction agree
        for same in (IndexSet((3, 2, 1)), IndexSet({2, 3, 1}),
                     IndexSet(np.array([2, 3, 1, 2])),
                     IndexSet.from_mask([True, True, True, False]),
                     IndexSet.full(3)):
            assert same == s
            assert same.indices == (1, 2, 3)
        assert all(type(i) is int for i in s)
        assert IndexSet() == IndexSet([]) == IndexSet.from_mask([False] * 4)
        assert len(IndexSet()) == 0 and IndexSet().indices == ()

    def test_one_based_validation(self):
        with pytest.raises(ValueError):
            IndexSet([0, 1])
        with pytest.raises(ValueError):
            IndexSet(np.array([2, 0]))
        # an entry that is not an integer value is refused, not truncated
        for bad in (2.4, 1.5, float("nan"), float("inf"), np.float64(2.9)):
            with pytest.raises(ValueError, match="integers"):
                IndexSet([1, bad])
        assert IndexSet([2.0, np.float64(3.0)]) == IndexSet([2, 3])

    def test_set_operations(self):
        a, b = IndexSet([1, 2, 3]), IndexSet([3, 4])
        assert a.intersection(b) == IndexSet([3])
        assert a.intersection([4, 5]) == IndexSet()
        assert a.intersection(a) == a
        # union, difference and complement read off the masks
        ma, mb = a.to_mask(5), b.to_mask(5)
        assert IndexSet.from_mask(ma | mb) == IndexSet([1, 2, 3, 4])
        assert IndexSet.from_mask(ma & ~mb) == IndexSet([1, 2])
        assert IndexSet.from_mask(~mb) == IndexSet([1, 2, 5])
        assert IndexSet.full(3) == IndexSet([1, 2, 3])

    def test_mask_round_trip(self):
        s = IndexSet([2, 5])
        mask = s.to_mask(6)
        assert mask.tolist() == [False, True, False, False, True, False]
        assert IndexSet.from_mask(mask) == s
        assert s.zero_based().tolist() == [1, 4]

    def test_membership_and_hash(self):
        s = IndexSet([2, 4])
        assert 2 in s and 4 in s
        assert 1 not in s and 3 not in s and 5 not in s and 0 not in s
        assert np.int64(4) in s
        assert 3 not in IndexSet()
        assert s == IndexSet([4, 2]) and s != IndexSet([2])
        assert s != (2, 4)
        assert hash(s) == hash(IndexSet([4, 2]))
        assert hash(s) == hash(IndexSet.from_mask(s.to_mask(7)))
        assert len({s, IndexSet(np.array([4, 2])), IndexSet([2])}) == 2


class TestValidate:
    def test_valid_instance_is_clean(self):
        p = example_two_halfplanes()
        assert p.validate() == []
        assert (p.n_z, p.n_x, p.n_c) == (1, 1, 2)

    def test_dimension_mismatches_reported(self):
        p = MpQp(H=np.eye(2), F=np.ones((1, 2)), G=np.ones((3, 2)), S=np.ones((2, 1)), w=np.ones(3))
        msgs = " ".join(p.validate())
        assert "S shape" in msgs

    def test_zero_g_rows_reported_with_indices(self):
        p = MpQp(
            H=np.eye(2),
            F=np.ones((1, 2)),
            G=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            S=np.zeros((4, 1)),
            w=np.ones(4),
        )
        msgs = p.validate()
        assert any("zero rows in G: [2, 4]" in m for m in msgs)

    def test_non_pd_hessian_reported(self):
        p = MpQp(H=[[1.0, 2.0], [2.0, 1.0]], F=np.zeros((1, 2)), G=np.ones((1, 2)), S=np.zeros((1, 1)), w=[1.0])
        assert any("positive definite" in m for m in p.validate())

    def test_nonfinite_entries_reported(self):
        p = MpQp(H=[[np.nan]], F=[[0.0]], G=[[1.0]], S=[[0.0]], w=[1.0])
        assert any("non-finite" in m for m in p.validate())


class TestQueries:
    def test_active_set_on_known_solution(self):
        p = example_two_halfplanes()
        assert p.active_set([-1.0], [-3.0]) == IndexSet([2])
        assert p.active_set([-3.0], [-3.0]) == IndexSet([1])
        assert p.active_set([-2.0], [-2.0]) == IndexSet([1, 2])
        assert p.active_set([-1.0], [-10.0]) == IndexSet([])

    def test_licq(self):
        p = example_two_halfplanes()
        assert p.licq_holds(IndexSet([]))
        assert p.licq_holds(IndexSet([1]))
        assert p.licq_holds(IndexSet([2]))
        assert not p.licq_holds(IndexSet([1, 2]))  # identical gradients

    def test_cached_algebra(self):
        p = example_two_halfplanes()
        assert np.allclose(p.hi_ft, [[0.5]])
        assert np.allclose(p.g_quads, [0.5, 0.5])
        assert np.allclose(p.g_row_norms, [1.0, 1.0])

    def test_slacks_sign_convention(self):
        p = example_two_halfplanes()
        # at x=-1, z=-3: constraint 1 has slack 2, constraint 2 is tight
        (_, _, active), slack = p.triple([-1.0], [-3.0], p.rhs([-1.0]))
        assert np.allclose(slack, [2.0, 0.0])
        assert active.tolist() == [False, True]


class TestScaling:
    def test_rejects_bad_phi(self):
        p = example_two_halfplanes()
        with pytest.raises(NonPositiveScale):
            p.scaled([1.0, 0.0])
        with pytest.raises(NonPositiveScale):
            p.scaled([1.0, -2.0])
        with pytest.raises(ValueError):
            p.scaled([1.0])

    def test_scaling_rescales_rows(self):
        p = example_two_halfplanes()
        q = p.scaled([2.0, 3.0])
        assert np.allclose(q.G, [[2.0], [3.0]])
        assert np.allclose(q.S, [[2.0], [-3.0]])
        assert np.allclose(q.w, [0.0, -12.0])
        assert np.allclose(q.H, p.H)


class TestJson:
    def test_round_trip_is_exact_for_awkward_doubles(self):
        vals = [0.1, 1.0 / 3.0, -1e300, 5e-324, 1.2345678901234567]
        p = MpQp(
            H=[[2.0]],
            F=[[vals[0]]],
            G=[[vals[1]], [vals[2]]],
            S=[[vals[3]], [vals[4]]],
            w=[0.1 + 0.2, -4.0],
            name="awkward",
        )
        # the problem file format: what the command line reads
        q = MpQp.from_dict(json.loads(json.dumps(p.to_dict())))
        for a, b in [(p.H, q.H), (p.F, q.F), (p.G, q.G), (p.S, q.S), (p.w, q.w)]:
            assert np.array_equal(a, b)
        assert q.name == "awkward"

    def test_samples_round_trip(self):
        s = SolvedSample([-1.0], [-3.0], IndexSet([2]))
        out = samples_from_json(samples_to_json([s]))
        assert len(out) == 1
        assert np.array_equal(out[0].x_hat, s.x_hat)
        assert np.array_equal(out[0].z_star, s.z_star)
        assert out[0].active == s.active
