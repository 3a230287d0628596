"""Acceptance suite: every criterion runs at its stated (exact) tolerance
and prints one pass/fail line.  Run with `pytest -s tests/test_acceptance.py`
to see the lines; the same checks back the `orbitrr verify` subcommand.
"""

import time

from orbitrr.verify import (DEFAULT_SEED, suite_asymptotics, suite_bwb, suite_fibration,
                            suite_identity, suite_residue)


def _assert_all(results, budget=None, elapsed=None):
    for r in results:
        print(r.line())
    if budget is not None:
        print("elapsed %.1fs (budget %ds)" % (elapsed, budget))
        assert elapsed < budget
    failed = [r for r in results if not r.passed]
    assert not failed, "failed: %s" % [(r.check_id, r.detail) for r in failed]


def test_criterion_1_and_2_borel_weil_bott_and_character_constants():
    t0 = time.time()
    results = suite_bwb()
    _assert_all(results, budget=60, elapsed=time.time() - t0)


def test_criterion_3_and_4_identity_suite():
    _assert_all(suite_identity())


def test_criterion_5_fibration_end_to_end():
    t0 = time.time()
    results = suite_fibration()
    _assert_all(results, budget=30, elapsed=time.time() - t0)


def test_criterion_6_and_8_asymptotics_and_degree_bounds():
    _assert_all(suite_asymptotics())


def test_criterion_7_residue_vs_chamber_volume():
    _assert_all(suite_residue(DEFAULT_SEED))
