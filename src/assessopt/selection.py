"""Portfolio sets, selection-error taxonomy, scenario engines, exact optimizer.

build_sets turns (corpus, scored map) into one SelectionProblem per run, and
every engine is a pure function of it. Researchers with a zero quota or an
area outside 1-9 are carried in the corpus but never take part in a
selection. Totals are computed in integer ten-thousandths of a point so
that every engine and any enumeration oracle agree exactly.

A product co-authored within the institution can enter the final selection
at most once; each unfilled slot costs half a point. The exact optimizer
prunes each pool to a fixpoint, then solves each connected component as a
bipartite b-matching by augmenting paths over researchers, and a stated tie
rule (see optimize_exact) fixes which optimum it reports.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import BIBLIOMETRIC_UDAS, Corpus, Product, format_number, number_texts, write_rows
from .errors import Log
from .gev import ScoredProduct

log = Log(__name__)

SCORE_SCALE = 10000
SHORTFALL_PENALTY = -0.5
_SHORTFALL_UNITS = SCORE_SCALE // 2

SCENARIO1 = "scenario1"
SCENARIO2 = "scenario2"
SCENARIO3 = "scenario3"
EXACT_PROPOSED = "exact-A"
EXACT_FULL = "exact-C"
SCENARIO_TAGS = (SCENARIO1, SCENARIO2, SCENARIO3, EXACT_PROPOSED, EXACT_FULL)

SELECTION_COLUMNS = {
    "scenario": str, "researcher_id": str, "slot": int, "product_id_or_EMPTY": str,
    "score_or_penalty": float,
}
ERRORS_COLUMNS = {
    "researcher_id": str, "uda": int, "inadmissible_in_D": int, "nil_in_D": int,
    "overvalued": int, "undervalued": int, "omitted": int,
}

ScoredMap = dict[tuple[str, str], ScoredProduct]


def score_units(score: float) -> int:
    return round(score * SCORE_SCALE)


def units_to_score(units: int) -> float:
    return units / SCORE_SCALE


class ResearcherPortfolio(NamedTuple):
    """One researcher's product sets.

    proposed:            products the researcher declared, in priority order
    priorities:          each proposed product's declared priority, same order
    unproposed_indexed:  indexed products they authored but did not propose
    declared_pick:       the quota-many highest-priority proposed products
    best_pick:           the quota-many best products over the whole pool,
                         by canonical score order
    """

    proposed: tuple[str, ...]
    priorities: tuple[int, ...]
    unproposed_indexed: tuple[str, ...]
    declared_pick: tuple[str, ...]
    best_pick: tuple[str, ...]


class Pool(NamedTuple):
    """One candidate pool.

    entries:  each active researcher's eligible candidates (score beats the
              empty-slot penalty), in canonical order, researchers by id
    holders:  each product that two or more researchers hold in entries ->
              those researchers, by id; a product absent from it has one holder
    """

    entries: dict[str, tuple[str, ...]]
    holders: dict[str, list[str]]


def _pool(entries: dict[str, tuple[str, ...]]) -> Pool:
    holders: dict[str, list[str]] = {}
    first: dict[str, str] = {}  # product -> its first holder
    for rid, pids in entries.items():  # researchers in id order
        for pid in pids:
            if first.setdefault(pid, rid) != rid:
                holders.setdefault(pid, [first[pid]]).append(rid)
    return Pool(entries, holders)


class SelectionProblem(NamedTuple):
    """The model every engine shares, built once per run by build_sets.

    units:       each distinct score of scored -> its integer score units
    quota:       each researcher who takes part in a selection -> its quota,
                 by id
    portfolios:  every researcher's product sets, by id
    pool_c:      candidate pool C, the proposed plus the indexed unproposed
                 products
    pool_a:      candidate pool A, the proposed products of pool C, same order
    tiebreak:    each product's rank by most citations in an index record desc,
                 year asc, id asc; the canonical order is score desc, then this rank

    Every score-driven engine (scenarios 2-3, exact-A/C) reads the pools as given.
    """

    corpus: Corpus
    scored: ScoredMap
    units: dict[float, int]
    quota: dict[str, int]
    portfolios: dict[str, ResearcherPortfolio]
    pool_a: Pool
    pool_c: Pool
    tiebreak: dict[str, int]


def _most_citations(p: Product) -> int:
    """The higher citation count of a product's index records; 0 when it has none."""
    wos, scopus = p.wos_record, p.scopus_record
    if wos is None:
        return 0 if scopus is None else scopus.citations
    return wos.citations if scopus is None else max(wos.citations, scopus.citations)


def build_sets(corpus: Corpus, scored: ScoredMap) -> SelectionProblem:
    """Build the selection problem: score units, portfolio sets and pools.

    Every authorship must already be scored under the researcher's routing,
    and the authorships be in (researcher, product) order, as Corpus holds them.
    """
    products, researchers = corpus.products, corpus.researchers
    units = {score: score_units(score) for score in {sp.score for sp in scored.values()}}
    # The tie-break order (see SelectionProblem.tiebreak) by stable sorts, last key first.
    order = sorted(products.values(), key=attrgetter("id"))
    order.sort(key=attrgetter("year"))
    order.sort(key=_most_citations, reverse=True)
    tiebreak = {p.id: i for i, p in enumerate(order)}
    by_researcher = {rid: list(auths) for rid, auths in
                     groupby(corpus.authorships, itemgetter(0))}

    portfolios: dict[str, ResearcherPortfolio] = {}
    pool_a: dict[str, tuple[str, ...]] = {}
    pool_c: dict[str, tuple[str, ...]] = {}
    for rid in sorted(researchers):
        researcher = researchers[rid]
        declared, unproposed = [], []
        for a in by_researcher.get(rid, ()):
            if a.declared_priority is not None:
                declared.append((a.declared_priority, a.product_id))
            elif products[a.product_id].indexed:
                unproposed.append(a.product_id)
        declared.sort()
        proposed = tuple([pid for _, pid in declared])
        ranked = sorted([(-units[scored[(rid, pid)].score], tiebreak[pid], pid)
                         for pid in (*proposed, *unproposed)])
        portfolios[rid] = ResearcherPortfolio(
            proposed=proposed,
            priorities=tuple([priority for priority, _ in declared]),
            unproposed_indexed=tuple(unproposed),
            declared_pick=proposed[: researcher.quota],
            best_pick=tuple([pid for _, _, pid in ranked[: researcher.quota]]),
        )
        if researcher.quota > 0 and researcher.uda in BIBLIOMETRIC_UDAS:
            pool = pool_c[rid] = tuple([pid for neg_units, _, pid in ranked
                                        if _SHORTFALL_UNITS - neg_units > 0])
            pool_a[rid] = tuple([pid for pid in pool if pid in proposed])
    return SelectionProblem(
        corpus=corpus,
        scored=scored,
        units=units,
        quota={rid: researchers[rid].quota for rid in pool_c},
        portfolios=portfolios,
        pool_a=_pool(pool_a),
        pool_c=_pool(pool_c),
        tiebreak=tiebreak,
    )


# --- error taxonomy ---------------------------------------------------------

class ResearcherErrors(NamedTuple):
    """Selection-error counts and product sets for one researcher.

    overvalued:  declared picks that are not among the best picks
    undervalued: best picks the researcher proposed at too low a priority
    omitted:     best picks the researcher did not propose at all
    """

    researcher_id: str
    uda: int
    declared_count: int
    best_count: int
    inadmissible_in_declared: int
    nil_in_declared: int
    nil_in_best: int
    overvalued: tuple[str, ...]
    undervalued: tuple[str, ...]
    omitted: tuple[str, ...]


def error_metrics(problem: SelectionProblem) -> tuple[ResearcherErrors, ...]:
    """Exact set-algebra error metrics per researcher.

    Aggregation over researchers counts authorships, so a co-authored
    product contributes once per author holding it in the relevant set.
    """
    scored, units = problem.scored, problem.units
    out = []
    for rid, p in problem.portfolios.items():
        declared = set(p.declared_pick)
        best = set(p.best_pick)
        proposed = set(p.proposed)
        overvalued = declared - best
        undervalued = best & (proposed - declared)
        omitted = best - proposed

        def nil_count(pids) -> int:
            return sum(1 for pid in pids if units[scored[(rid, pid)].score] == 0)

        out.append(ResearcherErrors(
            researcher_id=rid,
            uda=problem.corpus.researchers[rid].uda,
            declared_count=len(declared),
            best_count=len(best),
            inadmissible_in_declared=sum(
                1 for pid in declared if scored[(rid, pid)].outcome == "inadmissible"
            ),
            nil_in_declared=nil_count(declared),
            nil_in_best=nil_count(best),
            overvalued=tuple(sorted(overvalued)),
            undervalued=tuple(sorted(undervalued)),
            omitted=tuple(sorted(omitted)),
        ))
    return tuple(out)


# --- selections -------------------------------------------------------------

class Selection(NamedTuple):
    """One complete institutional submission: each active researcher's picks,
    by id, and their worth net of the empty-slot penalty, in total and per area."""

    assignment: dict[str, tuple[str, ...]]
    total_score: float
    per_uda: dict[int, float]


def _finalize(problem: SelectionProblem, assignment: dict[str, list[str]]) -> Selection:
    scored, units = problem.scored, problem.units
    per_uda_units: dict[int, int] = {}
    final_assignment: dict[str, tuple[str, ...]] = {}
    for rid, quota in problem.quota.items():
        uda = problem.corpus.researchers[rid].uda
        picked = final_assignment[rid] = tuple(assignment.get(rid, ()))
        per_uda_units[uda] = (per_uda_units.get(uda, 0) - _SHORTFALL_UNITS * (quota - len(picked))
                              + sum(units[scored[(rid, pid)].score] for pid in picked))
    return Selection(
        assignment=final_assignment,
        total_score=units_to_score(sum(per_uda_units.values())),
        per_uda={uda: units_to_score(u) for uda, u in sorted(per_uda_units.items())},
    )


def scenario1(problem: SelectionProblem) -> Selection:
    """Selection driven purely by the researchers' declared priorities.

    Proceeds in simultaneous rounds: every researcher with remaining
    capacity claims their highest-priority still-available proposed product.
    The round's contested products are settled in product-id order. Each goes
    to the claimant with the numerically smallest priority; on equal priority,
    to the claimant with fewer remaining proposed products, counted as the
    product is settled, then to the lexicographically smaller researcher id.
    Losers fall through to their next priority. Products are claimed in
    priority order regardless of score, so penalized products do get
    submitted when researchers ranked them high.
    """
    sets = problem.portfolios
    capacity = dict(problem.quota)
    consumed: set[str] = set()
    assignment: dict[str, list[str]] = {rid: [] for rid in capacity}
    while True:
        claims: dict[str, list[tuple[int, str]]] = {}  # product -> (priority, claimant)
        for rid, room in capacity.items():
            if room:
                for priority, pid in zip(sets[rid].priorities, sets[rid].proposed):
                    if pid not in consumed:
                        claims.setdefault(pid, []).append((priority, rid))
                        break
        if not claims:
            break
        for pid in sorted(claims):
            _, _, winner = min((priority, sum(q not in consumed for q in sets[rid].proposed), rid)
                               for priority, rid in claims[pid])
            assignment[winner].append(pid)
            capacity[winner] -= 1
            consumed.add(pid)
    return _finalize(problem, assignment)


def _greedy_best_score(problem: SelectionProblem, pool: Pool) -> Selection:
    """Greedy selection over one of the problem's pools, in score order.

    A product wanted by several capacity-holding researchers goes to the
    claimant whose best remaining alternative scores lower (no alternative
    ranks lowest of all); remaining ties go to the smaller researcher id.
    """
    scored, units, tiebreak = problem.scored, problem.units, problem.tiebreak
    candidates, holders = pool
    capacity = dict(problem.quota)
    consumed: set[str] = set()
    assignment: dict[str, list[str]] = {rid: [] for rid in capacity}

    def best_alternative_units(rid: str, excluding: str) -> float:
        # The pool is ranked by score, so the first free entry is the best.
        for pid in candidates[rid]:
            if pid != excluding and pid not in consumed:
                return units[scored[(rid, pid)].score]
        return float("-inf")

    # Each pool is ranked by score desc, then tie-break, so a heap of one entry per
    # researcher, its next candidate, yields the pairs in (score desc, tie-break,
    # researcher id) order. No two entries share a researcher, so i is never compared.
    heap = [(-units[scored[(rid, pids[0])].score], tiebreak[pids[0]], rid, 0)
            for rid, pids in candidates.items() if pids]
    heapify(heap)
    while heap:
        _, _, rid, i = heap[0]
        pids = candidates[rid]
        if capacity[rid] and (pid := pids[i]) not in consumed:
            claimants = [r for r in holders.get(pid, ()) if capacity[r] > 0]
            winner = min(claimants, key=lambda r: (best_alternative_units(r, pid), r), default=rid)
            assignment[winner].append(pid)
            capacity[winner] -= 1
            consumed.add(pid)
        if capacity[rid] and (i := i + 1) < len(pids):  # a full researcher takes no more
            heapreplace(heap, (-units[scored[(rid, pids[i])].score], tiebreak[pids[i]], rid, i))
        else:
            heappop(heap)
    return _finalize(problem, assignment)


def scenario2(problem: SelectionProblem) -> Selection:
    """Greedy score-driven selection restricted to the proposed products."""
    return _greedy_best_score(problem, problem.pool_a)


def scenario3(problem: SelectionProblem) -> Selection:
    """Greedy score-driven selection over the full pools (proposed plus
    indexed-but-unproposed products)."""
    return _greedy_best_score(problem, problem.pool_c)


# --- exact optimizer --------------------------------------------------------

def optimize_exact(problem: SelectionProblem, pool: Pool, tag: str) -> Selection:
    """Provably optimal selection over one of the problem's pools.

    Maximizes total score (assigned scores minus half a point per unfilled
    slot) subject to product uniqueness and per-researcher quotas. The pool is
    first pruned to a fixpoint (see matching.prune), then each connected
    component of what remains is solved on its own by successive longest
    augmenting paths, searched over researchers only.

    Tie rule: number the E pool entries (the eligible pairs) by researcher id,
    then pool order; pair k weighs (gain << E) | (1 << (E-1-k)).
    Among the maximum-total selections this reports the one whose set of
    (researcher, product) picks is lexicographically first in that order.
    A component numbers its own pairs in that same order; the bit positions
    of different components are disjoint, so the objective is separable.
    """
    from . import matching  # only a run of an exact engine loads the solver
    kept, holders, passes = matching.prune(pool.entries, problem.quota, pool.holders)
    scored, units = problem.scored, problem.units
    room = dict(problem.quota)
    owner: dict[str, str] = {}  # product -> the researcher it is assigned to
    components = largest = largest_pairs = scans = 0
    for components, members in enumerate(matching.components(kept, holders), 1):
        members.sort()  # the rule numbers pairs by researcher id, then pool order
        pairs = [(rid, pid) for rid in members for pid in kept[rid]]
        size = len(pairs)
        weights: dict[str, dict[str, int]] = {rid: {} for rid in members}
        for k, (rid, pid) in enumerate(pairs):
            gain = units[scored[(rid, pid)].score] + _SHORTFALL_UNITS
            weights[rid][pid] = (gain << size) | (1 << (size - 1 - k))
        if (len(members), size) > (largest, largest_pairs):
            largest, largest_pairs = len(members), size
        scans += matching.solve(weights, room, owner)

    # Each augmenting path assigns one more product.
    log.debug(
        "%s: %d eligible pairs, %d after %d prune passes, %d components, "
        "largest %d researchers / %d pairs, %d augmenting paths, %d edge scans",
        tag, sum(map(len, pool.entries.values())), sum(map(len, kept.values())), passes,
        components, largest, largest_pairs, len(owner), scans,
    )
    assignment: dict[str, list[str]] = {
        rid: [pid for pid in pids if owner.get(pid) == rid] for rid, pids in kept.items()
    }
    return _finalize(problem, assignment)


def exact_over_proposed(problem: SelectionProblem) -> Selection:
    return optimize_exact(problem, problem.pool_a, EXACT_PROPOSED)


def exact_over_full(problem: SelectionProblem) -> Selection:
    return optimize_exact(problem, problem.pool_c, EXACT_FULL)


RUNNERS = {
    SCENARIO1: scenario1,
    SCENARIO2: scenario2,
    SCENARIO3: scenario3,
    EXACT_PROPOSED: exact_over_proposed,
    EXACT_FULL: exact_over_full,
}


# --- CSV output -------------------------------------------------------------

def write_selections(
    problem: SelectionProblem, selections: dict[str, Selection], path: str | Path
) -> None:
    """Write the selections, keyed by tag, to one CSV in SCENARIO_TAGS order;
    each researcher's unfilled slots carry the penalty."""
    scored = problem.scored
    texts = number_texts((SHORTFALL_PENALTY, *problem.units))

    def rows():
        for tag in (tag for tag in SCENARIO_TAGS if tag in selections):
            for rid, picks in selections[tag].assignment.items():
                slots = [(pid, scored[(rid, pid)].score) for pid in picks]
                slots += [("EMPTY", SHORTFALL_PENALTY)] * (problem.quota[rid] - len(picks))
                for slot, (pid, value) in enumerate(slots, 1):
                    yield tag, rid, slot, pid, texts.get(value) or format_number(value)

    write_rows(path, SELECTION_COLUMNS, rows())


def write_errors(errors: tuple[ResearcherErrors, ...], path: str | Path) -> None:
    write_rows(path, ERRORS_COLUMNS, [
        (e.researcher_id, e.uda, e.inadmissible_in_declared, e.nil_in_declared,
         len(e.overvalued), len(e.undervalued), len(e.omitted))
        for e in errors
    ])
