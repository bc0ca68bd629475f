"""Portfolio sets, error taxonomy, scenario engines and the exact optimizer."""

from __future__ import annotations

import csv
import itertools
import logging
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from assessopt import matching
from assessopt.corpus import BIBLIOMETRIC_UDAS, load_corpus_dir
from assessopt.gev import DEFAULT_WINDOW, load_profiles, score_corpus, write_scored
from assessopt.reference import load_reference_dir
from assessopt.selection import (
    EXACT_FULL,
    EXACT_PROPOSED,
    RUNNERS,
    SCENARIO1,
    SCENARIO2,
    SCENARIO3,
    SHORTFALL_PENALTY,
    Selection,
    build_sets,
    error_metrics,
    exact_over_full,
    exact_over_proposed,
    optimize_exact,
    scenario1,
    scenario2,
    scenario3,
    score_units,
    write_selections,
)

import support
from bruteforce import (
    best_total_score,
    canonical_assignment,
    declared_assignment,
    greedy_assignment,
    most_citations,
    random_instance,
    scored_rows,
    selection_rows,
    sized_instance,
    unpruned_exact,
)


def simple_corpus(researchers, authorship_scores, quotas=None, products_extra=None):
    """Corpus + scored map from {(rid, pid): (priority, score)}."""
    quotas = quotas or {}
    pids = sorted({pid for _, pid in authorship_scores})
    products = [support.product(pid, citations=0) for pid in pids]
    if products_extra:
        products += products_extra
    authorships = []
    scores = {}
    for (rid, pid), (priority, score) in sorted(authorship_scores.items()):
        authorships.append(support.authored(rid, pid, priority=priority))
        scores[(rid, pid)] = score
    corpus = support.corpus(
        [support.researcher(rid, quota=quotas.get(rid, 3)) for rid in researchers],
        products,
        authorships,
    )
    return corpus, support.synth_scored(corpus, scores)


# --- portfolio sets ----------------------------------------------------------

def test_declared_pick_truncates_by_priority():
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", f"P{i}"): (i, 0.5) for i in range(1, 6)},
    )
    sets = build_sets(corpus, scored).portfolios
    assert sets["R1"].declared_pick == ("P1", "P2", "P3")
    assert sets["R1"].proposed == ("P1", "P2", "P3", "P4", "P5")


def test_boycott_case():
    corpus, scored = simple_corpus(["R1"], {("R1", "P1"): (None, 0.8)})
    sets = build_sets(corpus, scored).portfolios
    assert sets["R1"].declared_pick == ()
    assert sets["R1"].best_pick == ("P1",)
    assert sets["R1"].unproposed_indexed == ("P1",)


def test_best_pick_ranks_pool_by_score():
    corpus, scored = simple_corpus(
        ["R1"],
        {
            ("R1", "P1"): (1, 0.5),
            ("R1", "P2"): (2, 0.8),
            ("R1", "P3"): (None, 1.0),
        },
        quotas={"R1": 2},
    )
    sets = build_sets(corpus, scored).portfolios
    assert sets["R1"].best_pick == ("P3", "P2")


def test_best_pick_is_maximal_even_with_penalties():
    corpus, scored = simple_corpus(["R1"], {("R1", "P1"): (1, -1.0)})
    sets = build_sets(corpus, scored).portfolios
    assert sets["R1"].best_pick == ("P1",)


def test_unproposed_non_indexed_products_are_invisible():
    plain = support.product("P2")  # no index records
    corpus = support.corpus(
        [support.researcher("R1")],
        [support.product("P1", citations=3), plain],
        [support.authored("R1", "P1", priority=1), support.authored("R1", "P2")],
    )
    scored = support.synth_scored(corpus, {("R1", "P1"): 0.8, ("R1", "P2"): 0.25})
    sets = build_sets(corpus, scored).portfolios
    assert sets["R1"].unproposed_indexed == ()
    assert sets["R1"].proposed == ("P1",)


def test_pools_hold_eligible_candidates_best_first_randomized():
    rng = random.Random(31)
    for _ in range(200):
        corpus, scored = random_instance(rng)
        problem = build_sets(corpus, scored)
        active = [rid for rid, r in sorted(corpus.researchers.items())
                  if r.quota > 0 and r.uda in BIBLIOMETRIC_UDAS]
        assert list(problem.pool_a.entries) == list(problem.pool_c.entries) == active
        assert list(problem.quota.items()) == [(rid, corpus.researchers[rid].quota)
                                               for rid in active]
        expected_pools: tuple[dict, dict] = ({}, {})
        for rid in active:
            proposed = {a.product_id for a in corpus.authorships
                        if a.researcher_id == rid and a.declared_priority is not None}
            eligible = [
                a.product_id for a in corpus.authorships
                if a.researcher_id == rid
                and (a.product_id in proposed or corpus.products[a.product_id].indexed)
                and scored[(rid, a.product_id)].score > SHORTFALL_PENALTY
            ]
            expected_c = tuple(sorted(eligible, key=lambda pid: (
                -scored[(rid, pid)].score, -most_citations(corpus.products[pid]),
                corpus.products[pid].year, pid,
            )))
            expected_a = tuple(pid for pid in expected_c if pid in proposed)
            assert problem.pool_c.entries[rid] == expected_c
            assert problem.pool_a.entries[rid] == expected_a
            expected_pools[0][rid], expected_pools[1][rid] = expected_a, expected_c
        # Every product two or more researchers hold -> its holders, by id.
        for pool, expected in zip((problem.pool_a, problem.pool_c), expected_pools):
            by_product: dict[str, list[str]] = {}
            for rid in active:
                for pid in expected[rid]:
                    by_product.setdefault(pid, []).append(rid)
            assert pool.holders == {pid: rids for pid, rids in by_product.items()
                                    if len(rids) > 1}


# --- error taxonomy ----------------------------------------------------------

def test_errors_perfect_selection():
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, 1.0), ("R1", "P2"): (2, 0.8)},
        quotas={"R1": 2},
    )
    (e,) = error_metrics(build_sets(corpus, scored))
    assert e.overvalued == e.undervalued == e.omitted == ()
    assert (e.declared_count, e.best_count) == (2, 2)


def test_errors_undervalued_within_proposed():
    # declared picks {P1, P2}; best picks {P1, P3} with P3 proposed at low priority
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, 1.0), ("R1", "P2"): (2, 0.5), ("R1", "P3"): (3, 0.8)},
        quotas={"R1": 2},
    )
    (e,) = error_metrics(build_sets(corpus, scored))
    assert e.overvalued == ("P2",)
    assert e.undervalued == ("P3",)
    assert e.omitted == ()


def test_errors_omitted_from_outside_proposed():
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, 0.5), ("R1", "P2"): (None, 1.0)},
        quotas={"R1": 1},
    )
    (e,) = error_metrics(build_sets(corpus, scored))
    assert e.overvalued == ("P1",)
    assert e.undervalued == ()
    assert e.omitted == ("P2",)


def test_errors_nil_and_inadmissible_counts():
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, -1.0), ("R1", "P2"): (2, 0.0), ("R1", "P3"): (3, 0.8)},
    )
    (e,) = error_metrics(build_sets(corpus, scored))
    assert e.inadmissible_in_declared == 1
    assert e.nil_in_declared == 1
    assert e.nil_in_best == 1  # the same three products form the best pick


def test_error_identities_randomized():
    rng = random.Random(2024)
    for _ in range(150):
        corpus, scored = random_instance(rng)
        problem = build_sets(corpus, scored)
        sets = problem.portfolios
        for e in error_metrics(problem):
            p = sets[e.researcher_id]
            declared, best = set(p.declared_pick), set(p.best_pick)
            proposed = set(p.proposed)
            assert set(e.overvalued) <= declared
            assert set(e.undervalued) <= proposed - declared
            assert set(e.omitted) <= set(p.unproposed_indexed)
            assert not set(e.undervalued) & set(e.omitted)
            assert len(declared & best) + len(e.overvalued) == len(declared)
            assert set(e.undervalued) | set(e.omitted) == best - (declared & best)


# --- scenario 1 --------------------------------------------------------------

def test_scenario1_priority_conflict():
    corpus, scored = simple_corpus(
        ["R1", "R2"],
        {
            ("R1", "PX"): (1, 1.0),
            ("R2", "PX"): (2, 1.0),
            ("R2", "PY"): (1, 0.5),
        },
        quotas={"R1": 1, "R2": 2},
    )
    problem = build_sets(corpus, scored)
    s = scenario1(problem)
    assert s.assignment == {"R1": ("PX",), "R2": ("PY",)}
    assert {rid: problem.quota[rid] - len(picks) for rid, picks in s.assignment.items()} == {
        "R1": 0, "R2": 1}
    assert s.total_score == 1.0 + 0.5 - 0.5


def test_scenario1_shortfall_penalty(tmp_path):
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, 1.0), ("R1", "P2"): (2, 0.8)},
    )
    problem = build_sets(corpus, scored)
    s = scenario1(problem)
    assert s.assignment == {"R1": ("P1", "P2")}  # quota 3: one slot empty
    assert s.total_score == 1.8 - 0.5
    # The writer fills the empty slot from the problem's quota.
    write_selections(problem, {SCENARIO1: s}, tmp_path / "selection.csv")
    assert (tmp_path / "selection.csv").read_text().splitlines()[1:] == [
        "scenario1,R1,1,P1,1", "scenario1,R1,2,P2,0.8", "scenario1,R1,3,EMPTY,-0.5"]


def test_a_selection_holds_its_picks_and_their_worth():
    """Quotas and products due are the problem's, and the caller keys each
    selection by the tag it ran under."""
    assert Selection._fields == ("assignment", "total_score", "per_uda")


def test_scenario1_equal_priority_tiebreaks():
    # equal priority: fewer remaining proposed products wins
    corpus, scored = simple_corpus(
        ["R1", "R2"],
        {
            ("R1", "PX"): (1, 1.0),
            ("R2", "PX"): (1, 1.0),
            ("R2", "PY"): (2, 0.8),
        },
        quotas={"R1": 1, "R2": 1},
    )
    s = scenario1(build_sets(corpus, scored))
    assert s.assignment["R1"] == ("PX",)
    assert s.assignment["R2"] == ("PY",)

    # fully symmetric: lexicographically smaller researcher id wins
    corpus, scored = simple_corpus(
        ["RA", "RB"],
        {("RA", "PX"): (1, 1.0), ("RB", "PX"): (1, 1.0)},
        quotas={"RA": 1, "RB": 1},
    )
    s = scenario1(build_sets(corpus, scored))
    assert s.assignment["RA"] == ("PX",)
    assert s.assignment["RB"] == ()


def test_scenario1_submits_penalized_products():
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, -1.0), ("R1", "P2"): (2, 0.8)},
        quotas={"R1": 2},
    )
    s = scenario1(build_sets(corpus, scored))
    assert s.assignment["R1"] == ("P1", "P2")
    assert s.total_score == -0.2  # exact: -1.0 + 0.8 in quantized units


def _declared_instance(rng: random.Random):
    """sized_instance with each researcher's priorities redrawn, distinct but
    with gaps, from a range so small that co-authors often declare the same
    priority, and with about a fifth of the researchers at quota 0."""
    corpus, scored = sized_instance(rng, rng.randint(1, 10), rng.randint(1, 16))
    researchers = {rid: r._replace(quota=0) if rng.random() < 0.2 else r
                   for rid, r in corpus.researchers.items()}
    priority = {}
    for rid in researchers:
        pids = [a.product_id for a in corpus.authorships
                if a.researcher_id == rid and a.declared_priority is not None]
        drawn = rng.sample(range(1, len(pids) + rng.randint(1, 6)), len(pids))
        priority.update({(rid, pid): p for pid, p in zip(pids, drawn)})
    authorships = [a._replace(declared_priority=priority.get((a.researcher_id, a.product_id)))
                   for a in corpus.authorships]
    return corpus._replace(researchers=researchers, authorships=authorships), scored


def test_scenario1_matches_its_restatement_randomized():
    rng = random.Random(20)
    for _ in range(150):
        for corpus, scored in (random_instance(rng), _declared_instance(rng),
                               sized_instance(rng, rng.randint(5, 25), rng.randint(5, 40))):
            got = scenario1(build_sets(corpus, scored)).assignment
            assert list(got.items()) == list(declared_assignment(corpus).items())


@pytest.mark.parametrize("fixture", ["mini_university", "witness"])
def test_scenario1_reads_only_the_problem_model(fixture):
    """The declared priorities are the portfolios'; the authorships are not read again."""
    root = Path(__file__).parent / "fixtures" / fixture
    corpus = load_corpus_dir(root)
    scored = score_corpus(corpus, load_profiles(root / "profiles.json"),
                          load_reference_dir(root / "ref"), DEFAULT_WINDOW)
    problem = build_sets(corpus, scored)
    bare = problem._replace(corpus=problem.corpus._replace(authorships=[]))
    assert scenario1(bare) == scenario1(problem)


# --- scenarios 2 and 3 -------------------------------------------------------

def shared_product_instance():
    """Contested 1.0 product; loser has a 0.8 alternative."""
    return simple_corpus(
        ["R1", "R2"],
        {
            ("R1", "PS"): (1, 1.0),
            ("R1", "PA"): (2, 0.8),
            ("R2", "PS"): (1, 1.0),
        },
        quotas={"R1": 1, "R2": 1},
    )


def test_scenario2_conflict_favors_weaker_alternative():
    corpus, scored = shared_product_instance()
    s = scenario2(build_sets(corpus, scored))
    assert s.assignment["R2"] == ("PS",)
    assert s.assignment["R1"] == ("PA",)
    assert s.total_score == 1.8
    # brute force over the three feasible outcomes agrees this is the best
    feasible = [1.0 + 0.8, 1.0 - 0.5, 0.8 + 1.0]  # PS->R1; PS->R1 only; PS->R2 + PA->R1
    assert s.total_score == max(feasible)


def test_scenario2_no_conflicts_reduces_to_truncation():
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, 0.5), ("R1", "P2"): (2, 1.0), ("R1", "P3"): (3, 0.8)},
        quotas={"R1": 2},
    )
    s = scenario2(build_sets(corpus, scored))
    assert set(s.assignment["R1"]) == {"P2", "P3"}
    assert s.total_score == 1.8


def test_scenario2_skips_penalized_products():
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, -1.0)},
        quotas={"R1": 1},
    )
    s = scenario2(build_sets(corpus, scored))
    assert s.assignment["R1"] == ()
    assert s.total_score == -0.5


def test_scenario2_assigns_nil_scores_over_shortfall():
    corpus, scored = simple_corpus(
        ["R1"], {("R1", "P1"): (1, 0.0)}, quotas={"R1": 1}
    )
    s = scenario2(build_sets(corpus, scored))
    assert s.assignment["R1"] == ("P1",)
    assert s.total_score == 0.0


def test_scenario3_pulls_from_unproposed():
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, 0.5), ("R1", "P2"): (None, 1.0)},
        quotas={"R1": 1},
    )
    assert scenario2(build_sets(corpus, scored)).total_score == 0.5
    s3 = scenario3(build_sets(corpus, scored))
    assert s3.assignment["R1"] == ("P2",)
    assert s3.total_score == 1.0


def test_quota_zero_researcher_excluded():
    corpus, scored = simple_corpus(
        ["R1", "R2"],
        {("R1", "P1"): (1, 1.0), ("R2", "P2"): (1, 1.0)},
        quotas={"R1": 0, "R2": 1},
    )
    problem = build_sets(corpus, scored)
    for engine in (scenario1, scenario2, scenario3, exact_over_proposed):
        s = engine(problem)
        assert "R1" not in s.assignment
        assert s.total_score == 1.0


# --- exact optimizer ---------------------------------------------------------

def test_exact_single_researcher():
    corpus, scored = simple_corpus(
        ["R1"],
        {("R1", "P1"): (1, 1.0), ("R1", "P2"): (2, 0.8)},
    )
    s = exact_over_proposed(build_sets(corpus, scored))
    assert s.total_score == 1.8 - 0.5
    assert s.assignment == {"R1": ("P1", "P2")}


def test_exact_shared_product():
    corpus, scored = shared_product_instance()
    s = exact_over_proposed(build_sets(corpus, scored))
    assert s.total_score == 1.8
    sets = build_sets(corpus, scored).portfolios
    oracle = best_total_score(corpus, scored, {r: p.proposed for r, p in sets.items()})
    assert s.total_score == oracle


def test_exact_leaves_slot_empty_over_penalized_product():
    corpus, scored = simple_corpus(
        ["R1"], {("R1", "P1"): (1, -1.0)}, quotas={"R1": 1}
    )
    s = exact_over_proposed(build_sets(corpus, scored))
    assert s.assignment["R1"] == ()
    assert s.total_score == -0.5


def test_exact_matches_oracle_randomized():
    rng = random.Random(99)
    for _ in range(60):
        corpus, scored = random_instance(rng)
        problem = build_sets(corpus, scored)
        sets = problem.portfolios
        proposed = {r: p.proposed for r, p in sets.items()}
        full = {r: p.proposed + p.unproposed_indexed for r, p in sets.items()}
        got_a = optimize_exact(problem, problem.pool_a, EXACT_PROPOSED)
        got_c = optimize_exact(problem, problem.pool_c, EXACT_FULL)
        assert got_a.total_score == best_total_score(corpus, scored, proposed)
        assert got_c.total_score == best_total_score(corpus, scored, full)


def test_exact_reports_the_canonical_optimum_randomized():
    # Seed 7 draws instances with tied optima where an order-dependent
    # solver reports a different pick set than the stated tie rule.
    rng = random.Random(7)
    for _ in range(400):
        corpus, scored = random_instance(rng)
        problem = build_sets(corpus, scored)
        for pool, tag in ((problem.pool_a, EXACT_PROPOSED), (problem.pool_c, EXACT_FULL)):
            got = optimize_exact(problem, pool, tag).assignment
            assert {rid: frozenset(p) for rid, p in got.items()} == canonical_assignment(
                corpus, scored, pool.entries
            )


def test_exact_matches_linear_sum_assignment_at_scale():
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    rng = random.Random(11)
    corpus, scored = sized_instance(rng, 240, 1600)
    problem = build_sets(corpus, scored)
    assert len(problem.quota) >= 200
    for pool, tag in ((problem.pool_a, EXACT_PROPOSED), (problem.pool_c, EXACT_FULL)):
        # One row per quota slot; a slot takes a product or its own empty column.
        slots = [rid for rid in problem.quota for _ in range(corpus.researchers[rid].quota)]
        products = sorted({pid for rid in problem.quota for pid in pool.entries[rid]})
        column = {pid: j for j, pid in enumerate(products)}
        gains = np.zeros((len(slots), len(products) + len(slots)), dtype=np.int64)
        for i, rid in enumerate(slots):
            for pid in pool.entries[rid]:
                gains[i, column[pid]] = max(0, score_units(scored[(rid, pid)].score) + 5000)
        rows, cols = linear_sum_assignment(gains, maximize=True)
        optimum = int(gains[rows, cols].sum()) - 5000 * len(slots)
        got = optimize_exact(problem, pool, tag)
        assert got.total_score == optimum / 10000
        assert got.assignment == unpruned_exact(problem, pool.entries)


def test_exact_totals_match_the_b_matching_lp_at_1000_researchers():
    """The LP over every eligible pair, unpruned: each researcher takes at most
    quota products, each product goes to at most one researcher. Bipartite, so
    its optimum is integral, and independent of prune, components and tie bits."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    problem = build_sets(*sized_instance(random.Random(1), 1000, 3000))
    shortfall = -score_units(SHORTFALL_PENALTY)  # a filled slot's gain over an empty one
    for pool, tag in ((problem.pool_a, EXACT_PROPOSED), (problem.pool_c, EXACT_FULL)):
        pairs = [(rid, pid) for rid in problem.quota for pid in pool.entries[rid]]
        row = {rid: i for i, rid in enumerate(problem.quota)}
        products = dict.fromkeys(pid for _, pid in pairs)
        column = {pid: len(row) + j for j, pid in enumerate(products)}
        gains = [score_units(problem.scored[pair].score) + shortfall for pair in pairs]
        limits = coo_matrix((np.ones(2 * len(pairs)), (
            [row[rid] for rid, _ in pairs] + [column[pid] for _, pid in pairs],
            list(range(len(pairs))) * 2)), shape=(len(row) + len(column), len(pairs)))
        lp = linprog(-np.array(gains, dtype=float), A_ub=limits.tocsr(),
                     b_ub=list(problem.quota.values()) + [1] * len(column),
                     bounds=(0, 1), method="highs")
        assert lp.status == 0
        optimum = round(-lp.fun) - shortfall * sum(problem.quota.values())
        assert optimize_exact(problem, pool, tag).total_score == optimum / 10000


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 10)))
def test_pruning_keeps_the_canonical_optimum(instance):
    seed, n_res, n_prod = instance
    corpus, scored = sized_instance(random.Random(seed), n_res, n_prod)
    problem = build_sets(corpus, scored)
    for pool, tag in ((problem.pool_a, EXACT_PROPOSED), (problem.pool_c, EXACT_FULL)):
        canonical = canonical_assignment(corpus, scored, pool.entries)
        quota = {rid: corpus.researchers[rid].quota for rid in problem.quota}
        given_holders = {pid: list(rids) for pid, rids in pool.holders.items()}
        kept, holders, _ = matching.prune(pool.entries, quota, pool.holders)
        assert pool.holders == given_holders  # prune works on its own copy
        # The holders returned are each shared product's researchers among the kept pools.
        assert holders == {pid: [rid for rid in rids if pid in kept[rid]]
                           for pid, rids in given_holders.items()}
        held = Counter(pid for pids in kept.values() for pid in pids)
        for rid in problem.quota:
            assert canonical[rid] <= set(kept[rid])
            assert kept[rid] == pool.entries[rid][: len(kept[rid])]
            # A fixpoint: no researcher keeps an entry below quota private ones.
            private = sum(held[pid] == 1 for pid in kept[rid][:-1])
            assert private < quota[rid]
        got = optimize_exact(problem, pool, tag).assignment
        assert {rid: frozenset(p) for rid, p in got.items()} == canonical


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 240)))
def test_component_solves_equal_the_global_solve(instance):
    seed, n_res, n_prod = instance
    problem = build_sets(*sized_instance(random.Random(seed), n_res, n_prod))
    for pool, tag in ((problem.pool_a, EXACT_PROPOSED), (problem.pool_c, EXACT_FULL)):
        assert optimize_exact(problem, pool, tag).assignment == unpruned_exact(
            problem, pool.entries)


def test_exact_work_stays_linear_in_pairs(caplog):
    # On this instance the unpruned global solve scans about 1,160 (pool A)
    # and 1,630 (pool C) edges per eligible pair; pruned and split, 3.5 and 7.3.
    problem = build_sets(*sized_instance(random.Random(1), 1000, 6700))
    caplog.set_level(logging.DEBUG, logger="assessopt.selection")
    exact_over_proposed(problem)
    exact_over_full(problem)
    counts = [
        re.search(r"(\d+) eligible pairs, (\d+) after .* (\d+) edge scans$", r.getMessage())
        for r in caplog.records
    ]
    assert len(counts) == 2 and all(counts)
    for match in counts:
        pairs, kept, scans = map(int, match.groups())
        assert kept < pairs
        assert scans < 50 * pairs


def _solve(weights, quota):
    owner: dict[str, str] = {}
    room = dict(quota)
    matching.solve(weights, room, owner)
    assert all(room[rid] == quota[rid] - list(owner.values()).count(rid) for rid in quota)
    return owner


def test_solve_breaks_a_tie_by_the_bits_it_is_handed():
    # Both one-to-one assignments gain 2; only the low-order tie bits differ.
    first = {("R1", "P1"): 8, ("R1", "P2"): 4, ("R2", "P1"): 2, ("R2", "P2"): 1}

    def weights(bits):
        return {rid: {pid: (1 << 4) | bits[(rid, pid)] for pid in ("P1", "P2")}
                for rid in ("R1", "R2")}

    quota = {"R1": 1, "R2": 1}
    assert _solve(weights(first), quota) == {"P1": "R1", "P2": "R2"}
    swapped = {**first, ("R1", "P1"): 4, ("R1", "P2"): 8}
    assert _solve(weights(swapped), quota) == {"P1": "R2", "P2": "R1"}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_solve_finds_the_unique_optimum_of_the_weights_it_is_handed(seed):
    rng = random.Random(seed)
    products = [f"P{j}" for j in range(rng.randint(1, 6))]
    pools = {f"R{i}": rng.sample(products, rng.randint(1, len(products)))
             for i in range(rng.randint(1, 4))}
    quota = {rid: rng.randint(1, 3) for rid in pools}
    pairs = [(rid, pid) for rid, pool in pools.items() for pid in pool]
    size = len(pairs)
    weights: dict[str, dict[str, int]] = {rid: {} for rid in pools}
    for k, (rid, pid) in enumerate(pairs):
        weights[rid][pid] = (rng.randint(1, 4) << size) | (1 << (size - 1 - k))

    # Every way to give each product to one of its holders or to nobody.
    choices = [[None, *(rid for rid in pools if pid in weights[rid])] for pid in products]
    feasible = [
        choice for choice in itertools.product(*choices)
        if all(choice.count(rid) <= quota[rid] for rid in pools)
    ]
    best = max(feasible, key=lambda choice: sum(
        weights[rid][pid] for pid, rid in zip(products, choice) if rid is not None))
    assert _solve(weights, quota) == {
        pid: rid for pid, rid in zip(products, best) if rid is not None}


def test_matching_imports_no_other_assessopt_module():
    src = str(Path(matching.__file__).parents[1])
    code = "import sys, assessopt.matching; print(sorted(m for m in sys.modules if 'assessopt' in m))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert run.stdout == "['assessopt', 'assessopt.matching']\n"


def test_selection_feasibility_randomized():
    rng = random.Random(123)
    for _ in range(80):
        corpus, scored = random_instance(rng)
        problem = build_sets(corpus, scored)
        for engine in (scenario1, scenario2, scenario3, exact_over_proposed, exact_over_full):
            s = engine(problem)
            assert list(s.assignment) == list(problem.quota)
            seen = []
            empty_slots = 0
            for rid, picked in s.assignment.items():
                quota = corpus.researchers[rid].quota
                assert len(picked) <= quota
                empty_slots += quota - len(picked)
                assert len(set(picked)) == len(picked)
                seen.extend(picked)
            assert len(seen) == len(set(seen))  # product uniqueness across researchers
            expected_units = sum(
                sum(score_units(scored[(rid, pid)].score) for pid in picked)
                for rid, picked in s.assignment.items()
            ) - 5000 * empty_slots
            assert s.total_score == expected_units / 10000
            assert sum(score_units(v) for v in s.per_uda.values()) == expected_units


def test_monotonicity_randomized():
    rng = random.Random(321)
    for _ in range(80):
        problem = build_sets(*random_instance(rng))
        exact_a = exact_over_proposed(problem).total_score
        exact_c = exact_over_full(problem).total_score
        assert exact_c >= exact_a
        assert exact_a >= scenario1(problem).total_score
        assert exact_a >= scenario2(problem).total_score
        assert exact_c >= scenario3(problem).total_score


def test_determinism():
    rng = random.Random(55)
    corpus, scored = random_instance(rng)
    for engine in (scenario1, scenario2, scenario3, exact_over_full):
        assert engine(build_sets(corpus, scored)) == engine(build_sets(corpus, scored))


# --- greedy non-monotonicity witness -----------------------------------------

def witness_instance():
    """Adding unproposed products makes the greedy strictly worse.

    W1 proposes only the shared top product and silently holds a good
    alternative; W2 proposes the shared product plus a weak alternative;
    W3's only product is W1's silent alternative. Over the proposed sets the
    shared product goes to W1 (no alternative) and everyone scores. Over the
    full pools the greedy hands the shared product to W2 (weaker
    alternative), then W1 takes W3's only product, leaving W3 short.
    """
    corpus = support.corpus(
        [support.researcher(rid, quota=1) for rid in ("W1", "W2", "W3")],
        [
            support.product("PX", citations=40, metric=2.5),
            support.product("PV", citations=25, metric=2.5),
            support.product("PW", citations=15, metric=2.5),
        ],
        [
            support.authored("W1", "PX", priority=1),
            support.authored("W1", "PV"),
            support.authored("W2", "PX", priority=1),
            support.authored("W2", "PW", priority=2),
            support.authored("W3", "PV", priority=1),
        ],
    )
    scored = support.synth_scored(corpus, {
        ("W1", "PX"): 1.0, ("W1", "PV"): 0.8,
        ("W2", "PX"): 1.0, ("W2", "PW"): 0.5,
        ("W3", "PV"): 0.8,
    })
    return corpus, scored


def test_witness_greedy_regression():
    corpus, scored = witness_instance()
    s2 = scenario2(build_sets(corpus, scored))
    s3 = scenario3(build_sets(corpus, scored))
    assert s2.total_score == 2.3
    assert s3.total_score == 1.3
    assert s3.total_score < s2.total_score  # larger pool, worse greedy outcome

    exact_a = exact_over_proposed(build_sets(corpus, scored))
    exact_c = exact_over_full(build_sets(corpus, scored))
    assert exact_c.total_score >= exact_a.total_score  # the optimizer is monotone
    sets = build_sets(corpus, scored).portfolios
    assert exact_a.total_score == best_total_score(
        corpus, scored, {r: p.proposed for r, p in sets.items()}
    )
    assert exact_c.total_score == best_total_score(
        corpus, scored, {r: p.proposed + p.unproposed_indexed for r, p in sets.items()}
    )


def _tied_instance(rng: random.Random):
    """random_instance with citations and years drawn from two values each, so
    that many products tie on the tie-break's first keys, and with some zero
    scores made -0.0, which is written as "-0"."""
    corpus, scored = random_instance(rng)
    products = {
        pid: p._replace(year=rng.choice([2006, 2007]), wos_record=p.wos_record and
                        p.wos_record._replace(citations=rng.choice([0, 5])))
        for pid, p in corpus.products.items()
    }
    scored = {pair: sp._replace(score=-0.0) if sp.score == 0 and rng.random() < 0.5 else sp
              for pair, sp in scored.items()}
    return corpus._replace(products=products), scored


def test_greedy_and_writers_match_their_restatements_randomized(tmp_path):
    rng = random.Random(16)
    for _ in range(300):
        corpus, scored = _tied_instance(rng)
        problem = build_sets(corpus, scored)
        selections = {tag: RUNNERS[tag](problem) for tag in rng.sample(list(RUNNERS), 3)}
        for tag, full in ((SCENARIO2, False), (SCENARIO3, True)):
            got = RUNNERS[tag](problem).assignment
            assert list(got.items()) == list(greedy_assignment(corpus, scored, full).items())

        write_scored(scored, tmp_path / "scored.csv")
        write_selections(problem, selections, tmp_path / "selection.csv")
        for name, rows in (("scored.csv", scored_rows(scored)), ("selection.csv", selection_rows(
                corpus, scored, {tag: s.assignment for tag, s in selections.items()}))):
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                assert list(csv.reader(fh))[1:] == rows


@pytest.mark.parametrize("seed", range(1, 6))
def test_greedy_matches_its_restatement_when_researchers_fill_up_early(seed):
    """Pools of about ten candidates against quotas of at most three: most
    researchers are full long before their pools run out, and the engines drop them."""
    corpus, scored = sized_instance(random.Random(seed), 300, 1500)
    problem = build_sets(corpus, scored)
    for tag, full, pool in ((SCENARIO2, False, problem.pool_a), (SCENARIO3, True, problem.pool_c)):
        got = RUNNERS[tag](problem).assignment
        assert sum(len(picks) == problem.quota[rid] < len(pool.entries[rid])
                   for rid, picks in got.items()) > 100
        assert list(got.items()) == list(greedy_assignment(corpus, scored, full).items())


def test_scenario3_holds_no_entry_per_pool_pair():
    """Sorting every pool entry would hold one 4-tuple per entry at once; merging
    the ranked pools holds one per researcher."""
    problem = build_sets(*sized_instance(random.Random(1), 300, 6000))
    entries = sum(map(len, problem.pool_c.entries.values()))
    assert entries > 20 * len(problem.quota)
    tracemalloc.start()
    try:
        scenario3(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < entries * sys.getsizeof(tuple(range(4)))
