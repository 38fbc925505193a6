"""Release gate: one test per shipping criterion.

Each test delegates to the matching check in qptrim.verify, prints the
gate line (visible even under captured output), and asserts the result.
The checks re-derive expectations from hand-worked values, dense grids
and explicit roll-outs; budgets are enforced where the check carries one.
"""

import pytest

from qptrim import verify

CHECKS = dict(verify.CHECKS)


def _gate(label, capsys):
    res = CHECKS[label](seed=0)
    with capsys.disabled():
        print(f"\n{res.line()}")
    assert res.ok, res.line()


def test_c1_worked_example_golden(capsys):
    _gate("1", capsys)


def test_c2_zero_optimality_gap(capsys):
    _gate("2", capsys)


@pytest.mark.slow
def test_c3_lipschitz_bound_soundness(capsys):
    # Nearly parallel active rows make some pieces of the minimizer map
    # steeper than the closed form. The check probes every piece realizable
    # in each instance's box with KKT-certified pairs, on top of random
    # pairs, and the certified constants must dominate all of them.
    _gate("3", capsys)


@pytest.mark.slow
def test_c4_threshold_exactness(capsys):
    _gate("4", capsys)


def test_c5_kept_set_cardinality(capsys):
    _gate("5", capsys)


def test_c6_double_integrator_closed_loop(capsys):
    _gate("6", capsys)


def test_c7_mass_chain_benchmark(capsys):
    _gate("7", capsys)


def test_c8_condensation_rollout(capsys):
    _gate("8", capsys)


def test_underestimated_kappa_is_flagged(capsys):
    _gate("demo", capsys)
