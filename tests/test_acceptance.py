"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from assessopt.cli import main
from assessopt.corpus import load_corpus_dir
from assessopt.gev import (
    DEFAULT_WINDOW,
    FRAUD_SCORE,
    INADMISSIBLE_SCORE,
    MATURE_PRODUCTS_MATRIX,
    MERIT_SCORES,
    RECENT_PRODUCTS_MATRIX,
    default_profiles,
    load_profiles,
    score_corpus,
    score_product,
)
from assessopt.reference import ClassThresholds, build_thresholds, classify, load_reference_dir
from assessopt.report import delta_strings
from assessopt.selection import (
    SHORTFALL_PENALTY,
    build_sets,
    error_metrics,
    exact_over_full,
    exact_over_proposed,
    optimize_exact,
    scenario1,
    scenario2,
    scenario3,
)

import support
from bruteforce import best_total_score, random_instance

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "mini_university"


def report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {number} PASS ({elapsed:.2f}s): {label}")


def test_criterion_1_matrix_fidelity():
    started = time.perf_counter()
    mature = {
        (1, 1): "A", (1, 2): "A", (1, 3): "A", (1, 4): "IR",
        (2, 1): "B", (2, 2): "B", (2, 3): "B", (2, 4): "IR",
        (3, 1): "IR", (3, 2): "C", (3, 3): "C", (3, 4): "C",
        (4, 1): "IR", (4, 2): "D", (4, 3): "D", (4, 4): "D",
    }
    recent = {
        (1, 1): "A", (1, 2): "IR", (1, 3): "IR", (1, 4): "IR",
        (2, 1): "A", (2, 2): "B", (2, 3): "C", (2, 4): "D",
        (3, 1): "A", (3, 2): "B", (3, 3): "C", (3, 4): "D",
        (4, 1): "IR", (4, 2): "IR", (4, 3): "IR", (4, 4): "D",
    }
    for key, expected in mature.items():
        assert MATURE_PRODUCTS_MATRIX.lookup(*key) == expected
    for key, expected in recent.items():
        assert RECENT_PRODUCTS_MATRIX.lookup(*key) == expected

    profile = default_profiles()[3]
    assert profile.matrix_for_year(2006).lookup(1, 3) == "A"
    assert profile.matrix_for_year(2006).lookup(4, 1) == "IR"
    assert profile.matrix_for_year(2010).lookup(2, 1) == "A"
    report(1, "all 32 published matrix cells reproduced exactly", started, 1.0)


def test_criterion_2_score_map():
    started = time.perf_counter()
    assert MERIT_SCORES == {"A": 1.0, "B": 0.8, "C": 0.5, "D": 0.0}
    assert FRAUD_SCORE == -2.0
    assert INADMISSIBLE_SCORE == -1.0
    assert SHORTFALL_PENALTY == -0.5

    lib = support.library()
    profiles = default_profiles()
    indexed_no_metric = support.product("P", citations=40)
    for gev, expected in ((5, 0.0), (6, 0.0), (9, 0.5), (1, 0.25), (2, 0.25),
                          (3, 0.25), (4, 0.25), (7, 0.25), (8, 0.25)):
        sp = score_product(indexed_no_metric, profiles[gev], lib)
        assert (sp.outcome, sp.score) == ("no-metric-fallback", expected)
    for gev in range(1, 10):
        sp = score_product(support.product("P"), profiles[gev], lib)
        assert (sp.outcome, sp.score) == ("non-indexed-fallback", 0.25)
        assert profiles[gev].ir_assumed_score == 0.5
    # an IR matrix cell resolves to the assumed peer-review score
    sp = score_product(support.product("P", citations=5, metric=3.5), profiles[3], lib)
    assert (sp.outcome, sp.score) == ("IR", 0.5)
    report(2, "grade scores, penalties and fallback scores all exact", started, 1.0)


def test_criterion_3_delta_arithmetic():
    started = time.perf_counter()
    assert delta_strings(598.9, 753.9, 791.4) == ("+25.9%", "+5.0%", "+32.2%")
    report(3, "published total-row deltas reproduced by exact string match", started, 1.0)


def test_criteria_4_and_5_oracle_equivalence_and_monotonicity():
    started = time.perf_counter()
    rng = random.Random(20260810)
    instances = 0
    while instances < 200:
        corpus, scored = random_instance(rng)
        problem = build_sets(corpus, scored)
        sets = problem.portfolios
        proposed = {r: p.proposed for r, p in sets.items()}
        full = {r: p.proposed + p.unproposed_indexed for r, p in sets.items()}

        exact_a = optimize_exact(problem, problem.pool_a, "exact-A")
        exact_c = optimize_exact(problem, problem.pool_c, "exact-C")
        assert exact_a.total_score == best_total_score(corpus, scored, proposed)
        assert exact_c.total_score == best_total_score(corpus, scored, full)

        assert exact_c.total_score >= exact_a.total_score
        assert exact_a.total_score >= scenario1(problem).total_score
        assert exact_a.total_score >= scenario2(problem).total_score
        assert exact_c.total_score >= scenario3(problem).total_score
        instances += 1
    report(4, f"optimizer equals exhaustive enumeration on {instances} instances",
           started, 60.0)
    report(5, "optimizer dominates every greedy scenario on the same instances",
           started, 60.0)


def test_criterion_6_greedy_non_monotonicity_witness():
    started = time.perf_counter()
    base = FIXTURES / "witness"
    corpus = load_corpus_dir(base)
    profiles = load_profiles(base / "profiles.json")
    library = load_reference_dir(base / "ref")
    scored = score_corpus(corpus, profiles, library, DEFAULT_WINDOW)

    s2 = scenario2(build_sets(corpus, scored))
    s3 = scenario3(build_sets(corpus, scored))
    assert s3.total_score < s2.total_score, "greedy must lose ground on the larger pool"
    assert (s2.total_score, s3.total_score) == (2.3, 1.3)

    exact_a = exact_over_proposed(build_sets(corpus, scored))
    exact_c = exact_over_full(build_sets(corpus, scored))
    assert exact_c.total_score >= exact_a.total_score
    sets = build_sets(corpus, scored).portfolios
    assert exact_a.total_score == best_total_score(
        corpus, scored, {r: p.proposed for r, p in sets.items()}
    )
    assert exact_c.total_score == best_total_score(
        corpus, scored, {r: p.proposed + p.unproposed_indexed for r, p in sets.items()}
    )
    report(6, "committed witness: greedy drops on the larger pool, optimizer does not",
           started, 1.0)


def test_criterion_7_error_taxonomy_identities():
    started = time.perf_counter()
    rng = random.Random(777)
    for _ in range(200):
        corpus, scored = random_instance(rng)
        problem = build_sets(corpus, scored)
        sets = problem.portfolios
        for e in error_metrics(problem):
            p = sets[e.researcher_id]
            declared, best = set(p.declared_pick), set(p.best_pick)
            proposed = set(p.proposed)
            unproposed = set(p.unproposed_indexed)
            assert set(e.overvalued) <= declared
            assert set(e.undervalued) <= proposed - declared
            assert set(e.omitted) <= unproposed
            assert not set(e.undervalued) & set(e.omitted)
            assert len(declared & best) + len(e.overvalued) == len(declared)
    report(7, "set-algebra identities hold on 200 randomized instances", started, 10.0)


def test_criterion_8_classification_properties():
    started = time.perf_counter()
    t = build_thresholds(range(1, 11))
    assert (t.p50, t.p60, t.p80) == (5, 6, 8)
    t = build_thresholds([7])
    assert (t.p50, t.p60, t.p80) == (7, 7, 7)
    t = build_thresholds([0, 0, 0, 0])
    assert (t.p50, t.p60, t.p80) == (0, 0, 0)

    rng = random.Random(88)
    for _ in range(1000):
        p50, p60, p80 = sorted(rng.uniform(0, 100) for _ in range(3))
        thresholds = ClassThresholds(p50=p50, p60=p60, p80=p80, n=10)
        v1, v2 = sorted((rng.uniform(0, 120), rng.uniform(0, 120)))
        assert classify(v2, thresholds) <= classify(v1, thresholds)
        value = rng.uniform(0, 120)
        cls = classify(value, thresholds)
        membership = {
            1: value > p80,
            2: p60 < value <= p80,
            3: p50 < value <= p60,
            4: value <= p50,
        }
        assert membership[cls] and sum(membership.values()) == 1
    report(8, "classification monotone and partitioning on 1000 random pairs",
           started, 5.0)


def test_criterion_9_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    base = FIXTURES / "mini_university"
    args = [
        "simulate",
        "--corpus", str(base),
        "--profiles", str(base / "profiles.json"),
        "--ref", str(base / "ref"),
        "--scenarios", "1,2,3,exact-A,exact-C",
    ]
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert main([*args, "-o", str(first)]) == 0
    assert main([*args, "-o", str(second)]) == 0
    for name in ("scored.csv", "selection.csv", "errors.csv", "report.md", "report.csv"):
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        golden = (GOLDEN / name).read_bytes()
        assert a == b, f"{name} differs between consecutive runs"
        assert a == golden, f"{name} deviates from the committed golden file"
    report(9, "two consecutive runs byte-identical and equal to committed goldens",
           started, 5.0)
