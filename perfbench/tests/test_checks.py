"""Correctness checks catch corrupted responses."""

import copy

import checks

SERVED = [
    {"question": "Who?", "answer": "Ada", "evidence": "Ada wrote it.",
     "scores": {"hybrid": 0.71, "informativeness": 1.0}},
    {"question": "When?", "answer": "1843", "evidence": "In 1843.",
     "scores": {"hybrid": 0.52, "informativeness": 1.0}},
]


def test_identical_outputs_pass():
    reordered = [dict(reversed(list(p.items()))) for p in SERVED]
    assert checks.count_mismatches(SERVED, reordered) == 0


def test_corrupted_response_fails():
    corrupted = copy.deepcopy(SERVED)
    corrupted[1]["evidence"] = "In 1842."
    assert checks.count_mismatches(corrupted, SERVED) == 1
    corrupted[0]["scores"]["hybrid"] = 0.710001
    assert checks.count_mismatches(corrupted, SERVED) == 2


def test_documented_readability_tolerance_only():
    drifted = copy.deepcopy(SERVED)
    drifted[0]["scores"]["hybrid"] += 1e-15  # within the documented 1e-9
    assert checks.count_mismatches(drifted, SERVED) == 0
    assert checks.count_mismatches(drifted, SERVED, tolerant=False) == 1
    assert "scores.hybrid" in checks.first_difference(drifted[0], SERVED[0], False)
    drifted[1]["scores"]["informativeness"] += 1e-15  # no tolerance here
    assert checks.count_mismatches(drifted, SERVED) == 1


def test_missing_response_fails():
    assert checks.count_mismatches(SERVED[:1], SERVED) == 1


def test_ranking_check():
    live = [[["doc a", 3.5], ["doc b", 2.0]]]
    good = {"live": live, "rebuilt": copy.deepcopy(live), "live_docs": 10, "expected_docs": 10}
    assert checks.ranking_mismatches(good) == 0
    swapped = {**good, "rebuilt": [[["doc b", 2.0], ["doc a", 3.5]]]}
    assert checks.ranking_mismatches(swapped) == 1
    lost = {**good, "live_docs": 9}
    assert checks.ranking_mismatches(lost) == 1
