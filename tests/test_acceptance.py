"""Acceptance suite: every criterion runs at its stated (exact) tolerance
and prints one pass/fail line.  Run with `pytest -s tests/test_acceptance.py`
to see the lines; the same checks back the `orbitrr verify` subcommand,
and each suite's results must equal its checks in the golden
`orbitrr verify --suite all` report.
"""

import json
import time
from pathlib import Path

from orbitrr.verify import (DEFAULT_SEED, SUITES, suite_asymptotics, suite_bwb,
                            suite_fibration, suite_identity, suite_residue)

# `orbitrr verify --suite all` prints every suite's checks in SUITES order;
# each test compares its suite's results with that suite's share of them
GOLDEN = json.loads((Path(__file__).parent / "golden" / "verify_all.json").read_text())
CHECKS_PER_SUITE = {"bwb": 8, "identity": 7, "residue": 1, "fibration": 2, "asymptotics": 5}


def _golden_checks(suite):
    names = list(CHECKS_PER_SUITE)
    start = sum(CHECKS_PER_SUITE[n] for n in names[:names.index(suite)])
    return GOLDEN["checks"][start:start + CHECKS_PER_SUITE[suite]]


def _assert_all(suite, results, budget=None, elapsed=None):
    for r in results:
        print(r.line())
    if budget is not None:
        print("elapsed %.1fs (budget %ds)" % (elapsed, budget))
        assert elapsed < budget
    failed = [r for r in results if not r.passed]
    assert not failed, "failed: %s" % [(r.check_id, r.detail) for r in failed]
    assert [{"id": r.check_id, "passed": r.passed, "detail": r.detail}
            for r in results] == _golden_checks(suite)


def test_the_golden_report_holds_every_suite_once():
    assert list(CHECKS_PER_SUITE) == list(SUITES)
    assert sum(CHECKS_PER_SUITE.values()) == len(GOLDEN["checks"])
    assert GOLDEN["suite"] == "all" and GOLDEN["seed"] == DEFAULT_SEED


def test_criterion_1_and_2_borel_weil_bott_and_character_constants():
    t0 = time.time()
    results = suite_bwb()
    _assert_all("bwb", results, budget=60, elapsed=time.time() - t0)


def test_criterion_3_and_4_identity_suite():
    _assert_all("identity", suite_identity())


def test_criterion_5_fibration_end_to_end():
    t0 = time.time()
    results = suite_fibration()
    _assert_all("fibration", results, budget=30, elapsed=time.time() - t0)


def test_criterion_6_and_8_asymptotics_and_degree_bounds():
    _assert_all("asymptotics", suite_asymptotics())


def test_criterion_7_residue_vs_chamber_volume():
    _assert_all("residue", suite_residue(DEFAULT_SEED))
