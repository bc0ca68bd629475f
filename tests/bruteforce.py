"""Assignment oracles, restated orders and randomized instance generator.

The exhaustive oracles enumerate every feasible assignment (memoized over
remaining capacities, which prunes nothing from the search space, only
repeated subproblems) and are independent of the augmenting-path optimizer
they check. unpruned_exact is the optimizer's search run once over the whole
pool, with no pruning and no split into components: it checks those two steps
on instances far beyond what enumeration can reach. declared_assignment,
greedy_assignment, scored_rows and selection_rows restate the declared-priority
rule, the greedy rule and the two writers' row orders from the corpus and
scored map alone, with plain sort keys. stepwise_score restates the scoring
pipeline as three steps: a record's class over its categories, a record's
outcome, then the product's. load_corpus_by_rows restates load_corpus as one
pass of row loops that build the corpus and name its faults.
"""

from __future__ import annotations

import random
from collections import deque
from pathlib import Path

from assessopt.corpus import (
    AUTHORSHIP_COLUMNS, MAX_QUOTA, PRODUCT_COLUMNS, PRODUCT_KINDS, RESEARCHER_COLUMNS,
    SDS_AREA_BY_PREFIX, Authorship, Corpus, IndexRecord, Product, Researcher, format_number,
    read_rows,
)
from assessopt.errors import ParseError, ValidationError
from assessopt.gev import ScoredProduct
from assessopt.reference import DistributionKey

SCALE = 10000
SHORT_UNITS = SCALE // 2


def best_total_score(corpus: Corpus, scored, candidates: dict[str, tuple[str, ...]]) -> float:
    """Maximum achievable total over all feasible assignments.

    Feasible: every product sits in at most one researcher's submission,
    each researcher submits at most quota products from their candidate
    set; every unfilled slot costs half a point. All candidate products may
    be assigned, including penalized ones, so the oracle proves that
    skipping them is (or is not) optimal.
    """
    active = [
        rid for rid in sorted(corpus.researchers)
        if corpus.researchers[rid].quota > 0 and 1 <= corpus.researchers[rid].uda <= 9
    ]
    agent_index = {rid: i for i, rid in enumerate(active)}
    quotas = tuple(corpus.researchers[rid].quota for rid in active)

    product_ids = sorted({pid for rid in active for pid in candidates.get(rid, ())})
    holders: list[list[tuple[int, int]]] = []
    for pid in product_ids:
        options = []
        for rid in active:
            if pid in candidates.get(rid, ()):
                units = round(scored[(rid, pid)].score * SCALE)
                options.append((agent_index[rid], units))
        holders.append(options)

    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best_gain(idx: int, caps: tuple[int, ...]) -> int:
        if idx == len(product_ids):
            return 0
        key = (idx, caps)
        if key in memo:
            return memo[key]
        best = best_gain(idx + 1, caps)  # leave the product unassigned
        for agent, units in holders[idx]:
            if caps[agent] > 0:
                reduced = caps[:agent] + (caps[agent] - 1,) + caps[agent + 1:]
                value = units + SHORT_UNITS + best_gain(idx + 1, reduced)
                if value > best:
                    best = value
        memo[key] = best
        return best

    total_units = best_gain(0, quotas) - SHORT_UNITS * sum(quotas)
    return total_units / SCALE


def most_citations(product) -> int:
    """The higher citation count of a product's index records; 0 when it has none."""
    records = (product.wos_record, product.scopus_record)
    return max((r.citations for r in records if r is not None), default=0)


def canonical_assignment(
    corpus: Corpus, scored, candidates: dict[str, tuple[str, ...]]
) -> dict[str, frozenset[str]]:
    """The maximum-total assignment that the exact engines' tie rule names.

    Eligible pairs (score beats the shortfall penalty) are numbered by
    researcher id, then by score desc, citations desc, year asc, product id
    asc; pair k of E weighs (gain << E) | (1 << (E - 1 - k)). The picks that
    maximize the summed weight are the maximum-total selection whose pick set
    is lexicographically first in that order.
    """
    active = [
        rid for rid in sorted(corpus.researchers)
        if corpus.researchers[rid].quota > 0 and 1 <= corpus.researchers[rid].uda <= 9
    ]
    pairs = []
    for rid in active:
        eligible = []
        for pid in set(candidates.get(rid, ())):
            gain = round(scored[(rid, pid)].score * SCALE) + SHORT_UNITS
            if gain > 0:
                product = corpus.products[pid]
                eligible.append((-gain, -most_citations(product), product.year, pid))
        pairs += [(rid, pid, -neg_gain) for neg_gain, _, _, pid in sorted(eligible)]
    size = len(pairs)

    product_ids = sorted({pid for _, pid, _ in pairs})
    holders: dict[str, list[tuple[int, int]]] = {pid: [] for pid in product_ids}
    for k, (rid, pid, gain) in enumerate(pairs):
        holders[pid].append((active.index(rid), (gain << size) | (1 << (size - 1 - k))))

    memo: dict[tuple[int, tuple[int, ...]], tuple[int, int | None]] = {}

    def best(idx: int, caps: tuple[int, ...]) -> tuple[int, int | None]:
        """(best weight from product idx on, agent taking product idx or None)."""
        if idx == len(product_ids):
            return 0, None
        key = (idx, caps)
        if key not in memo:
            choice = (best(idx + 1, caps)[0], None)
            for agent, weight in holders[product_ids[idx]]:
                if caps[agent] > 0:
                    reduced = caps[:agent] + (caps[agent] - 1,) + caps[agent + 1:]
                    value = weight + best(idx + 1, reduced)[0]
                    if value > choice[0]:
                        choice = (value, agent)
            memo[key] = choice
        return memo[key]

    picks: dict[str, set[str]] = {rid: set() for rid in active}
    caps = tuple(corpus.researchers[rid].quota for rid in active)
    for idx, pid in enumerate(product_ids):
        agent = best(idx, caps)[1]
        if agent is not None:
            picks[active[agent]].add(pid)
            caps = caps[:agent] + (caps[agent] - 1,) + caps[agent + 1:]
    return {rid: frozenset(p) for rid, p in picks.items()}


def unpruned_exact(problem, candidates: dict[str, tuple[str, ...]]) -> dict[str, tuple[str, ...]]:
    """The exact engines' canonical optimum over one whole pool, as picks per
    active researcher in pool order.

    Successive longest augmenting paths, searched over researchers, with
    pair k of E weighing (gain << E) | (1 << (E - 1 - k)) in the global
    (researcher id, pool order) numbering.
    """
    active, scored = tuple(problem.quota), problem.scored
    pairs = [(rid, pid) for rid in active for pid in candidates[rid]]
    size = len(pairs)
    weights: dict[str, dict[str, int]] = {rid: {} for rid in active}
    for k, (rid, pid) in enumerate(pairs):
        gain = round(scored[(rid, pid)].score * SCALE) + SHORT_UNITS
        weights[rid][pid] = (gain << size) | (1 << (size - 1 - k))

    room = {rid: problem.corpus.researchers[rid].quota for rid in active}
    owner: dict[str, str] = {}  # product -> the researcher it is assigned to
    while True:
        best = {rid: 0 for rid in active if room[rid] > 0}
        via: dict[str, tuple[str, str]] = {}  # researcher -> (previous, product)
        queue = deque((rid, 0) for rid in best)
        end_gain, end = 0, None
        while queue:
            rid, gain = queue.popleft()
            if gain < best[rid]:
                continue  # a later entry carries this researcher's better gain
            for pid, weight in weights[rid].items():
                holder = owner.get(pid)
                if holder is None:
                    if gain + weight > end_gain:
                        end_gain, end = gain + weight, (rid, pid)
                elif holder != rid:
                    relaxed = gain + weight - weights[holder][pid]
                    if holder not in best or relaxed > best[holder]:
                        best[holder] = relaxed
                        via[holder] = (rid, pid)
                        queue.append((holder, relaxed))
        if end is None:
            break
        rid, pid = end
        while rid in via:
            owner[pid] = rid
            rid, pid = via[rid]
        owner[pid] = rid
        room[rid] -= 1
    return {rid: tuple(pid for pid in candidates[rid] if owner.get(pid) == rid) for rid in active}


def declared_assignment(corpus: Corpus) -> dict[str, tuple[str, ...]]:
    """Scenario 1: each active researcher's picks, in the order the
    declared-priority rule makes them.

    Rounds repeat until nobody claims. In a round, each active researcher
    whose picks are fewer than the quota claims the product they proposed at
    the smallest priority among those nobody has taken yet. The claimed
    products are then settled one by one, by product id: a product goes to
    the claimant who proposed it at the smallest priority, then to the one
    with the fewest proposed products still untaken at that moment, then to
    the smaller researcher id.
    """
    active = [
        rid for rid in sorted(corpus.researchers)
        if corpus.researchers[rid].quota > 0 and 1 <= corpus.researchers[rid].uda <= 9
    ]
    proposals = {rid: sorted((a.declared_priority, a.product_id) for a in corpus.authorships
                             if a.researcher_id == rid and a.declared_priority is not None)
                 for rid in active}
    taken: set[str] = set()
    picks: dict[str, list[str]] = {rid: [] for rid in active}
    while True:
        claims = []  # (product, priority, researcher)
        for rid in active:
            untaken = [(priority, pid) for priority, pid in proposals[rid] if pid not in taken]
            if len(picks[rid]) < corpus.researchers[rid].quota and untaken:
                claims.append((untaken[0][1], untaken[0][0], rid))
        if not claims:
            return {rid: tuple(p) for rid, p in picks.items()}
        for pid in sorted({pid for pid, _, _ in claims}):
            contest = [(priority, len([q for _, q in proposals[rid] if q not in taken]), rid)
                       for claimed, priority, rid in claims if claimed == pid]
            winner = min(contest)[2]
            picks[winner].append(pid)
            taken.add(pid)


def greedy_assignment(corpus: Corpus, scored, full: bool) -> dict[str, tuple[str, ...]]:
    """Scenario 2 (full False) or scenario 3 (full True): each active
    researcher's picks, in the order the greedy rule makes them.

    A researcher's candidates are the proposed products, plus under full the
    indexed unproposed ones, whose score beats the empty-slot penalty, ranked
    by score desc, citations desc, year asc, product id asc. Pairs are taken
    in that order across researchers, researcher id breaking the last tie. A
    free product goes to the claimant with capacity whose best other free
    candidate scores lowest (none at all lowest of all), then to the smaller id.
    """
    units = {pair: round(sp.score * SCALE) for pair, sp in scored.items()}
    products = corpus.products
    tiebreak = {pid: i for i, pid in enumerate(sorted(
        products, key=lambda pid: (-most_citations(products[pid]), products[pid].year, pid)))}
    active = [
        rid for rid in sorted(corpus.researchers)
        if corpus.researchers[rid].quota > 0 and 1 <= corpus.researchers[rid].uda <= 9
    ]
    candidates: dict[str, list[str]] = {}
    holders: dict[str, list[str]] = {}
    for rid in active:
        pids = [a.product_id for a in corpus.authorships if a.researcher_id == rid
                and (a.declared_priority is not None or full and products[a.product_id].indexed)]
        pids.sort(key=lambda pid: (-units[(rid, pid)], tiebreak[pid]))
        candidates[rid] = [pid for pid in pids if units[(rid, pid)] + SHORT_UNITS > 0]
        for pid in candidates[rid]:
            holders.setdefault(pid, []).append(rid)
    pairs = sorted(((rid, pid) for rid in active for pid in candidates[rid]),
                   key=lambda pair: (-units[pair], tiebreak[pair[1]], pair[0]))

    capacity = {rid: corpus.researchers[rid].quota for rid in active}
    consumed: set[str] = set()
    picks: dict[str, list[str]] = {rid: [] for rid in active}

    def best_alternative(rid: str, excluding: str) -> float:
        free = [units[(rid, pid)] for pid in candidates[rid]
                if pid != excluding and pid not in consumed]
        return max(free, default=float("-inf"))

    for rid, pid in pairs:
        if pid in consumed or capacity[rid] == 0:
            continue
        claimants = [r for r in holders[pid] if capacity[r] > 0]
        winner = min(claimants, key=lambda r: (best_alternative(r, pid), r))
        picks[winner].append(pid)
        capacity[winner] -= 1
        consumed.add(pid)
    return {rid: tuple(p) for rid, p in picks.items()}


def stepwise_score(product: Product, profile, library, window: tuple[int, int]) -> ScoredProduct:
    """One product's ScoredProduct, step by step: fraud (-2), then inadmissible
    (-1: year outside the window or kind not allowed), then forced-ir (a review
    whose WoS or Scopus journal is on the forced list), then each record the
    source policy reads scored on its own, the best score winning and the
    first record (WoS) keeping a tie; non-indexed when no record is read.

    A record's journal class is its journal's listed class, else the best class
    of its metric; with neither it falls back to no-metric. Its citation class
    is read from the doctype's distribution when the panel splits them. A class
    is the best over the record's categories, each merged by the merge map, and
    counts the cuts the value is above: 4 - #(value > p50, p60, p80). When no
    category has a distribution, the error names each missing key once, in the
    order first looked up."""
    merit = {"A": 1.0, "B": 0.8, "C": 0.5, "D": 0.0}

    def best_class(record: IndexRecord, indicator: str, value: float, doc_split: str) -> int:
        classes, missing = [], []
        for category in record.subject_categories:
            key = DistributionKey(indicator, library.merge_map.get(category, category),
                                  product.year, doc_split)
            if key in library.thresholds:
                t = library.thresholds[key]
                classes.append(4 - (value > t.p50) - (value > t.p60) - (value > t.p80))
            elif key not in missing:
                missing.append(key)
        if not classes:
            raise ValidationError(["no reference distribution for any of: "
                                   + ", ".join(map(str, missing))])
        return min(classes)

    def record_result(record: IndexRecord) -> tuple[str, float]:
        if record.journal_id in profile.ir_journal_class_list:
            ir_class = profile.ir_journal_class_list[record.journal_id]
        elif record.journal_metric is not None:
            ir_class = best_class(record, "journal-metric", record.journal_metric, "any")
        else:
            return "no-metric-fallback", profile.no_metric_score
        doc_split = "any"
        if profile.split_citation_doctype:
            doc_split = "review" if product.kind == "review" else "article"
        ic_class = best_class(record, "citations", record.citations, doc_split)
        matrix = next(m for (y0, y1), m in profile.age_bands if y0 <= product.year <= y1)
        outcome = matrix.cells[ic_class - 1][ir_class - 1]
        return outcome, profile.ir_assumed_score if outcome == "IR" else merit[outcome]

    both = [r for r in (product.wos_record, product.scopus_record) if r is not None]
    if product.fraud_flag:
        outcome, score = "fraud", -2.0
    elif not window[0] <= product.year <= window[1] or product.kind not in profile.allowed_kinds:
        outcome, score = "inadmissible", -1.0
    elif product.kind == "review" and any(r.journal_id in profile.forced_ir_journals
                                          for r in both):
        outcome, score = "forced-ir", profile.ir_assumed_score
    else:
        read = both if profile.source_policy == "best-of-both" else [product.wos_record]
        results = [record_result(r) for r in read if r is not None]
        outcome, score = max(results, key=lambda result: result[1], default=(
            "non-indexed-fallback", profile.non_indexed_score))  # max keeps the first of equals
    return ScoredProduct(profile.gev_id, outcome, score, outcome in merit)


def scored_rows(scored) -> list[list[str]]:
    """scored.csv's data rows as text: by product id, then researcher id."""
    return [
        [pid, rid, str(sp.routing_gev), sp.outcome, format_number(sp.score),
         "true" if sp.definite else "false"]
        for (rid, pid), sp in sorted(scored.items(), key=lambda item: (item[0][1], item[0][0]))
    ]


def selection_rows(corpus: Corpus, scored, assignments: dict) -> list[list[str]]:
    """selection.csv's data rows as text, from each scenario's picks by
    researcher: scenarios in engine order, then researchers as given; each
    active researcher's picks, then an EMPTY slot at -0.5 per unfilled one."""
    order = ["scenario1", "scenario2", "scenario3", "exact-A", "exact-C"]
    rows = []
    for tag in sorted(assignments, key=order.index):
        for rid, picks in assignments[tag].items():
            slots = [(pid, format_number(scored[(rid, pid)].score)) for pid in picks]
            slots += [("EMPTY", "-0.5")] * (corpus.researchers[rid].quota - len(picks))
            rows += [[tag, rid, str(slot), pid, text] for slot, (pid, text) in enumerate(slots, 1)]
    return rows


def _index_record(fields, prefix: str, file: str, line: int) -> IndexRecord:
    """The index record in a product row's four prefix_ fields, not all empty."""
    text, metric, citations, journal_id = fields
    categories = tuple(filter(None, text.split(";")))
    if not categories:
        raise ParseError(
            f"{prefix} record present but has no subject categories", file=file, line=line
        )
    if citations is None:
        raise ParseError(
            f"{prefix} record present but has no citation count", file=file, line=line
        )
    return IndexRecord(categories, citations, metric, journal_id or None)


def load_corpus_by_rows(researchers_path, products_path, authorships_path) -> Corpus:
    """load_corpus as one pass of row loops over read_rows, each loop building
    its records and naming each fault per row: the corpus, or a ParseError at
    the first unreadable row, or a ValidationError with every violation in file
    then line order."""
    researchers_path = Path(researchers_path)
    products_path = Path(products_path)
    authorships_path = Path(authorships_path)
    violations: list[str] = []

    def violation(path: Path, line: int, message: str) -> None:
        violations.append(f"{path}:{line}: {message}")

    researchers: dict[str, Researcher] = {}
    for line, row in read_rows(researchers_path, RESEARCHER_COLUMNS):
        if row[3] is None:  # an empty quota field takes the Researcher default
            row.pop()
        r = Researcher(*row)
        if not r.id:
            violation(researchers_path, line, "empty researcher id")
            continue
        if r.id in researchers:
            violation(researchers_path, line, f"duplicate researcher id {r.id!r}")
            continue
        if not 0 <= r.quota <= MAX_QUOTA:
            violation(researchers_path, line, f"quota {r.quota} outside 0..{MAX_QUOTA}")
        if not 1 <= r.uda <= 14:
            violation(researchers_path, line, f"uda {r.uda} outside 1..14")
        if r.sds:
            expected = SDS_AREA_BY_PREFIX.get(r.sds.split("/")[0])
            if expected is not None and expected != r.uda:
                violation(researchers_path, line,
                          f"sds {r.sds!r} belongs to area {expected}, not {r.uda}")
        researchers[r.id] = r

    products: dict[str, Product] = {}
    products_file = str(products_path)
    absent = ["", None, None, ""]
    for line, row in read_rows(products_path, PRODUCT_COLUMNS):
        if row[1] not in PRODUCT_KINDS:  # the product is still registered, below
            violation(products_path, line, f"unknown product kind {row[1]!r}")
        wos, scopus = row[4:8], row[8:]
        p = Product(*row[:4],
                    None if wos == absent else _index_record(wos, "wos", products_file, line),
                    None if scopus == absent
                    else _index_record(scopus, "scopus", products_file, line))
        if not p.id:
            violation(products_path, line, "empty product id")
            continue
        if p.id in products:
            violation(products_path, line, f"duplicate product id {p.id!r}")
            continue
        for label, record in (("wos", p.wos_record), ("scopus", p.scopus_record)):
            if record is None:
                continue
            if record.citations < 0:
                violation(products_path, line, f"{label} citations {record.citations} negative")
            if record.journal_metric is not None and record.journal_metric < 0:
                violation(products_path, line, f"{label} metric {record.journal_metric} negative")
        products[p.id] = p

    authorships: list[Authorship] = []
    seen_pairs: set[tuple[str, str]] = set()
    priorities: dict[str, dict[int, str]] = {}
    for line, row in read_rows(authorships_path, AUTHORSHIP_COLUMNS):
        a = Authorship(*row)
        if a.researcher_id not in researchers:
            violation(authorships_path, line, f"unknown researcher id {a.researcher_id!r}")
        if a.product_id not in products:
            violation(authorships_path, line, f"unknown product id {a.product_id!r}")
        pair = (a.researcher_id, a.product_id)
        if pair in seen_pairs:
            violation(authorships_path, line, f"duplicate authorship {pair!r}")
        seen_pairs.add(pair)
        if a.declared_priority is not None:
            if a.declared_priority < 1:
                violation(authorships_path, line, f"declared_priority {a.declared_priority} < 1")
            else:
                taken = priorities.setdefault(a.researcher_id, {})
                if a.declared_priority in taken:
                    violation(authorships_path, line,
                              f"researcher {a.researcher_id!r} already declared "
                              f"priority {a.declared_priority} on {taken[a.declared_priority]!r}")
                taken[a.declared_priority] = a.product_id
        if a.gev_override is not None and not 1 <= a.gev_override <= 9:
            violation(authorships_path, line, f"gev_override {a.gev_override} outside 1..9")
        authorships.append(a)

    if violations:
        raise ValidationError(violations)

    authorships.sort()  # the (researcher, product) pairs are unique, so no later field is compared
    return Corpus(researchers, products, authorships)


SCORE_CHOICES = [1.0, 1.0, 0.8, 0.8, 0.5, 0.5, 0.25, 0.0, -1.0, -2.0]

_OUTCOMES = {
    1.0: ("A", True), 0.8: ("B", True), 0.5: ("C", True),
    0.25: ("non-indexed-fallback", False), 0.0: ("D", True),
    -1.0: ("inadmissible", False), -2.0: ("fraud", False),
}


def random_instance(rng: random.Random) -> tuple[Corpus, dict]:
    """Small random corpus plus a synthetic scored map: up to 6 researchers
    and 10 products."""
    return sized_instance(rng, rng.randint(1, 6), rng.randint(1, 10))


def with_journal_metrics(corpus: Corpus) -> Corpus:
    """The corpus with each WoS record's journal metric set to its citations / 10,
    so that scoring reaches the matrix cells as well as the fallbacks."""
    return corpus._replace(products={pid: p._replace(wos_record=p.wos_record and (
        p.wos_record._replace(journal_metric=p.wos_record.citations / 10)))
        for pid, p in corpus.products.items()})


def sized_instance(rng: random.Random, n_res: int, n_prod: int) -> tuple[Corpus, dict]:
    """Random corpus of n_res researchers and n_prod products, with a
    synthetic scored map.

    Quotas up to 3, one to three co-authors per product, random proposal
    priorities (researchers may propose nothing at all), mixed
    indexed/non-indexed products.
    """
    researchers = [
        Researcher(id=f"R{i}", sds="", uda=rng.randint(1, 9),
                   quota=rng.choice([0, 1, 1, 2, 2, 3, 3]))
        for i in range(n_res)
    ]
    products = []
    for j in range(n_prod):
        indexed = rng.random() < 0.8
        record = IndexRecord(
            subject_categories=("CAT",), citations=rng.randint(0, 50),
        ) if indexed else None
        products.append(Product(
            id=f"P{j}", kind="journal-article", year=rng.randint(2004, 2010),
            wos_record=record,
        ))

    authorships = []
    authored_by: dict[str, list[str]] = {r.id: [] for r in researchers}
    for p in products:
        authors = rng.sample(researchers, rng.randint(1, min(3, n_res)))
        for r in authors:
            authored_by[r.id].append(p.id)

    scores: dict[tuple[str, str], float] = {}
    for r in researchers:
        pids = authored_by[r.id]
        proposes = [pid for pid in pids if rng.random() < 0.65]
        if rng.random() < 0.1:
            proposes = []  # the no-list-at-all case
        rng.shuffle(proposes)
        priority_of = {pid: rank for rank, pid in enumerate(proposes, start=1)}
        for pid in pids:
            authorships.append(Authorship(
                researcher_id=r.id, product_id=pid,
                declared_priority=priority_of.get(pid),
            ))
            scores[(r.id, pid)] = rng.choice(SCORE_CHOICES)

    corpus = Corpus(
        researchers={r.id: r for r in researchers},
        products={p.id: p for p in products},
        authorships=sorted(authorships, key=lambda a: (a.researcher_id, a.product_id)),
    )
    scored = {}
    for a in corpus.authorships:
        key = (a.researcher_id, a.product_id)
        outcome, definite = _OUTCOMES[scores[key]]
        scored[key] = ScoredProduct(
            routing_gev=corpus.researchers[a.researcher_id].uda,
            outcome=outcome, score=scores[key], definite=definite,
        )
    return corpus, scored
