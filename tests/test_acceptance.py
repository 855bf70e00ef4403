"""Acceptance sweep: every headline claim, one test and one verdict line each.

Runs the same criterion functions as ``omnalg reproduce`` at full
strength and the frozen seed, so `pytest` and the CLI agree.
"""

import pytest

from omnalg import reproduce

SEED = reproduce.DEFAULT_SEED


def run_criterion(cid: int) -> None:
    fn, name = reproduce.CRITERIA[cid]
    res = fn(seed=SEED)
    verdict = "PASS" if res["pass"] else "FAIL"
    print(f"criterion {cid} ({name}): {verdict}  [{res['checked']} checks]")
    assert res["pass"], f"criterion {cid} ({name}) failed: {res['details']}"


def test_criterion_1_kgroup_tables_and_dual_splice():
    run_criterion(1)


def test_criterion_2_projection_trace_class_and_residual():
    run_criterion(2)


def test_criterion_3_fixed_point_rewriting_round_trips():
    run_criterion(3)


def test_criterion_4_subalgebra_witness_families():
    run_criterion(4)


def test_criterion_5_flip_fixed_kgroups_and_flag():
    run_criterion(5)


def test_criterion_6_shift_relations_and_solenoid_covariance():
    run_criterion(6)


def test_criterion_7_dimension_growth_slope():
    run_criterion(7)


def test_criterion_8_algebra_invariant_sweep():
    run_criterion(8)


def test_criterion_9_matrix_compression_shape():
    run_criterion(9)


@pytest.mark.parametrize("criteria", [[0], [12], [1, 10]])
def test_run_all_refuses_unknown_criteria_before_any_work(criteria):
    with pytest.raises(ValueError, match="criteria run from 1 to 9"):
        reproduce.run_all(criteria=criteria)
