"""scripts/bench_pairs.py's summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


KEYS = {"A", "B", "ratio_B_over_A", "pair_ratio_B_over_A", "B_lower_pairs", "A_lower_pairs",
        "bound", "A_relative_spread", "unresolved", "worse_beyond_bound", "claim_met"}


def test_a_phase_that_moves_both_runs_of_a_pair_cancels_in_the_pair_ratio(bench_pairs):
    # a slow phase covers both runs of pairs 7-10 and only B's run of pairs
    # 5 and 6: B's median is 1.5 times A's, past the 0.25 bound, while 8 of
    # the 10 pairs have B equal to A
    a = [1.0] * 6 + [1.5] * 4
    b = [1.0] * 4 + [1.5] * 6
    s = bench_pairs.summarize(a, b, 0.25)
    assert set(s) == KEYS
    assert s["ratio_B_over_A"] == 1.5
    assert s["pair_ratio_B_over_A"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    # the verdicts read the medians and the pairs won, as before
    assert s["A"] == {"median": 1.0, "q1": 1.0, "q3": 1.5}
    assert s["B"] == {"median": 1.5, "q1": 1.0, "q3": 1.5}
    assert (s["B_lower_pairs"], s["A_lower_pairs"]) == (0, 2)
    assert s["A_relative_spread"] == 0.5
    assert (s["unresolved"], s["worse_beyond_bound"], s["claim_met"]) == (True, True, False)


def test_a_uniform_gain_is_the_pair_ratio_and_meets_a_claim(bench_pairs):
    a = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00]
    b = [0.5 * x for x in a]
    s = bench_pairs.summarize(a, b, 0.25)
    assert s["pair_ratio_B_over_A"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert s["ratio_B_over_A"] == 0.5
    assert s["B_lower_pairs"] == 10 and s["A_lower_pairs"] == 0
    assert (s["unresolved"], s["worse_beyond_bound"], s["claim_met"]) == (False, False, True)


def test_one_pair_is_its_own_quartiles(bench_pairs):
    s = bench_pairs.summarize([2.0], [3.0], 0.1)
    assert s["pair_ratio_B_over_A"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    assert (s["unresolved"], s["worse_beyond_bound"], s["claim_met"]) == (False, True, False)
