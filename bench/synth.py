"""Seeded synthetic-institution generator.

Writes a corpus directory (researchers.csv, products.csv, authorships.csv),
a panel profile pack (profiles.json) and a reference directory (mergemap.csv
plus either thresholds.csv or raw worldvalues.csv). The same seed and knobs
always give byte-identical files. The generator does not import the program
under test: the program receives only the files.

The data reach every scoring branch: all nine panels (WoS-only and
split-doctype ones included), journal class lists, forced peer-review
journals, no-metric and non-indexed fallbacks, matrix IR cells, out-of-window
years, disallowed kinds, fraud, panel overrides, categories without a
reference distribution, quota-0 researchers and peer-review-only researchers
without products.

Floats are written with repr(), which round-trips exactly.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WINDOW = (2004, 2010)
AREAS = tuple(range(1, 10))
SDS_BY_AREA = {
    1: ("MAT/05", "INF/01"), 2: ("FIS/01",), 3: ("CHIM/02",), 4: ("GEO/07",),
    5: ("BIO/10",), 6: ("MED/04",), 7: ("AGR/02", "VET/01"), 8: ("ICAR/08",),
    9: ("ING-IND/10", "ING-INF/05"),
}
PEER_REVIEW_SDS = {10: "L-ANT/01", 11: "M-STO/01", 12: "IUS/01", 13: "SECS-P/01", 14: "SPS/01"}
CATEGORIES_PER_AREA = 4
JOURNALS_PER_AREA = 12
NODIST_CATEGORY = "X-NODIST"  # never has a reference distribution

ALLOWED_KINDS = ("journal-article", "review", "conference-proceeding")
DISALLOWED_KINDS = ("book", "chapter", "patent", "other")

MATURE = [["A", "A", "A", "IR"], ["B", "B", "B", "IR"], ["IR", "C", "C", "C"], ["IR", "D", "D", "D"]]
RECENT = [["A", "IR", "IR", "IR"], ["A", "B", "C", "D"], ["A", "B", "C", "D"], ["IR", "IR", "IR", "D"]]
TWO_BANDS = [{"years": [2004, 2008], "matrix": MATURE}, {"years": [2009, 2010], "matrix": RECENT}]
ONE_BAND = [{"years": [2004, 2010], "matrix": MATURE}]

# Panel rules as in the built-in pack, with the journal lists filled in so the
# class-list and forced peer-review branches are reached.
PANEL_RULES = {
    1: dict(age_bands=ONE_BAND, ir_journal_class_list={"J1-00": 1, "J1-01": 3, "J1-02": 4}),
    2: dict(age_bands=ONE_BAND),
    3: dict(),
    4: dict(split_citation_doctype=True),
    5: dict(source_policy="wos-only", split_citation_doctype=True, no_metric_score=0.0),
    6: dict(source_policy="wos-only", split_citation_doctype=True, no_metric_score=0.0),
    7: dict(age_bands=ONE_BAND, split_citation_doctype=True, forced_ir_journals=["J7-00", "J7-01"]),
    8: dict(),
    9: dict(no_metric_score=0.5, ir_journal_class_list={"J9-00": 2, "J9-01": 1}),
}


@dataclass(frozen=True)
class Knobs:
    """Size and shape of one synthetic institution.

    researchers            people on the roster (about 1% peer-review-only, without products)
    products_per_researcher mean number of products each researcher leads
    coauthor_rate          share of products with further in-house co-authors
    lab_size               researchers per lab; co-authors come from the lead's lab
    bridge_rate            share of co-authors drawn from another lab (a tenth of them from another area)
    proposal_rate          share of a researcher's products they propose, in declared priority order
    indexed_share          share of products with at least one index record
    panel_mix              relative weight of areas 1-9 on the roster (the counts follow it exactly)
    reference              "thresholds" (thresholds.csv) or "worldvalues" (raw values)
    values_per_key         raw values per distribution key when reference is "worldvalues"
    """

    researchers: int
    products_per_researcher: float = 10.0
    coauthor_rate: float = 0.3
    lab_size: int = 8
    bridge_rate: float = 0.05
    proposal_rate: float = 0.3
    indexed_share: float = 0.92
    panel_mix: tuple[float, ...] = (1.0,) * 9
    reference: str = "thresholds"
    values_per_key: int = 200


@dataclass
class Institution:
    """What the benchmark keeps in memory to check the program's outputs."""

    researchers: dict[str, tuple[int, int]] = field(default_factory=dict)  # id -> (uda, quota)
    indexed: dict[str, bool] = field(default_factory=dict)  # product id -> has a record
    authorships: list[tuple[str, str, int | None, int | None]] = field(default_factory=list)

    @property
    def active(self) -> list[str]:
        return sorted(r for r, (uda, quota) in self.researchers.items()
                      if quota > 0 and uda in AREAS)

    def pools(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """Candidate pools per active researcher: A (proposed) and C (A plus
        indexed but unproposed products)."""
        active = set(self.active)
        pool_a: dict[str, set[str]] = {r: set() for r in active}
        pool_c: dict[str, set[str]] = {r: set() for r in active}
        for rid, pid, priority, _ in self.authorships:
            if rid not in active:
                continue
            if priority is not None:
                pool_a[rid].add(pid)
                pool_c[rid].add(pid)
            elif self.indexed[pid]:
                pool_c[rid].add(pid)
        return pool_a, pool_c


def _categories(area: int) -> list[str]:
    return [f"A{area}-C{k}" for k in range(CATEGORIES_PER_AREA)]


def _group(category: str) -> str:
    """Distribution group of a category; the last two of each area are merged."""
    area, k = category.split("-C")
    return f"{area}-G23" if int(k) >= 2 else category


def _groups() -> list[str]:
    return sorted({_group(c) for a in AREAS for c in _categories(a)})


class _Distributions:
    """World value distributions per (group, year): integer citations that grow
    with age, journal metrics with three decimals."""

    def __init__(self, rng: random.Random):
        self.cite_mu = {g: rng.uniform(1.0, 2.2) for g in _groups()}
        self.metric_mu = {g: rng.uniform(0.0, 1.2) for g in _groups()}

    def citations(self, rng: random.Random, group: str, year: int, review: bool) -> int:
        age = 2011 - year
        mu = self.cite_mu[group] + 0.25 * age + (0.4 if review else 0.0)
        return int(rng.lognormvariate(mu, 1.0))

    def metric(self, rng: random.Random, group: str) -> float:
        return round(rng.lognormvariate(self.metric_mu[group], 0.6), 3)


def _nearest_rank(values: list[float], q: float) -> float:
    return values[math.ceil(q * len(values)) - 1]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def _write_reference(directory: Path, knobs: Knobs, dist: _Distributions,
                     rng: random.Random) -> None:
    """Write the merge map and the reference distributions."""
    directory.mkdir(parents=True, exist_ok=True)
    _write_csv(directory / "mergemap.csv", ["category", "category_group"],
               [(c, _group(c)) for a in AREAS for c in _categories(a) if _group(c) != c])
    keys = [(ind, g, y, split)
            for g in _groups() for y in range(WINDOW[0], WINDOW[1] + 1)
            for ind, split in (("journal-metric", "any"), ("citations", "any"),
                               ("citations", "article"), ("citations", "review"))]

    def sample(ind: str, g: str, y: int, split: str) -> float:
        if ind == "journal-metric":
            return dist.metric(rng, g)
        return dist.citations(rng, g, y, split == "review")

    if knobs.reference == "worldvalues":
        _write_csv(directory / "worldvalues.csv",
                   ["indicator", "category_group", "year", "doc_split", "value"],
                   ((*key, _fmt(sample(*key))) for key in keys
                    for _ in range(knobs.values_per_key)))
    elif knobs.reference == "thresholds":
        rows = []
        for key in keys:
            values = sorted(float(sample(*key)) for _ in range(knobs.values_per_key))
            rows.append((*key, *(repr(_nearest_rank(values, q)) for q in (0.5, 0.6, 0.8)),
                         len(values)))
        _write_csv(directory / "thresholds.csv",
                   ["indicator", "category_group", "year", "doc_split",
                    "p50", "p60", "p80", "n"], rows)
    else:
        raise ValueError(f"unknown reference form {knobs.reference!r}")


def _write_profiles(path: Path) -> None:
    profiles = []
    for gev_id in AREAS:
        rules = dict(PANEL_RULES[gev_id])
        profiles.append({
            "gev_id": gev_id,
            "name": f"Panel {gev_id}",
            "allowed_kinds": sorted(ALLOWED_KINDS),
            "source_policy": rules.pop("source_policy", "best-of-both"),
            "age_bands": rules.pop("age_bands", TWO_BANDS),
            **rules,
        })
    path.write_text(json.dumps({"profiles": profiles}, indent=2) + "\n", encoding="utf-8")


def _record(rng: random.Random, dist: _Distributions, area: int, year: int, review: bool):
    """One index record as its four CSV fields."""
    categories = [rng.choice(_categories(area))]
    if rng.random() < 0.25:
        other = area if rng.random() < 0.7 else rng.choice(AREAS)
        extra = rng.choice(_categories(other))
        if extra not in categories:
            categories.append(extra)
    if rng.random() < 0.03:
        categories.append(NODIST_CATEGORY)
    group = _group(categories[0])
    in_window = WINDOW[0] <= year <= WINDOW[1]
    cite_year = year if in_window else WINDOW[0]
    citations = dist.citations(rng, group, cite_year, review)
    metric = dist.metric(rng, group) if rng.random() < 0.9 else None
    journal = f"J{area}-{rng.randrange(JOURNALS_PER_AREA):02d}"
    return [";".join(categories), _fmt(metric), citations, journal]


def _apportion(values: tuple, weights: tuple[float, ...], total: int) -> list:
    """total draws of values in exact proportion to weights (largest
    remainders get the rest), in the order of values. Fixed counts keep the
    amount of work alike across seeds; the seed only decides who gets what."""
    shares = [w * total / sum(weights) for w in weights]
    counts = [math.floor(s) for s in shares]
    for k in sorted(range(len(shares)), key=lambda k: counts[k] - shares[k])[:total - sum(counts)]:
        counts[k] += 1
    return [value for value, n in zip(values, counts) for _ in range(n)]


def generate(directory: str | Path, knobs: Knobs, seed: int) -> Institution:
    """Write one institution under directory (corpus/, ref/, profiles.json)."""
    rng = random.Random(seed)
    root = Path(directory)
    corpus_dir = root / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    inst = Institution()
    dist = _Distributions(rng)

    # Roster: labs of lab_size researchers within each area.
    n_peer = max(1, knobs.researchers // 100)
    n_biblio = knobs.researchers - n_peer
    areas = _apportion(AREAS, knobs.panel_mix, n_biblio)
    quotas = _apportion((0, 1, 2, 3, 4, 6), (2, 4, 8, 76, 6, 4), n_biblio)
    rng.shuffle(quotas)
    rows = []
    by_area: dict[int, list[str]] = {a: [] for a in AREAS}
    for i, area in enumerate(areas):
        rid = f"R{i + 1:06d}"
        quota = quotas[i]
        inst.researchers[rid] = (area, quota)
        by_area[area].append(rid)
        rows.append((rid, rng.choice(SDS_BY_AREA[area]), area, quota))
    for j in range(n_peer):
        rid = f"R{n_biblio + j + 1:06d}"
        area = 10 + j % 5
        inst.researchers[rid] = (area, 3)
        rows.append((rid, PEER_REVIEW_SDS[area], area, 3))
    _write_csv(corpus_dir / "researchers.csv", ["id", "sds", "uda", "quota"], rows)

    lab_of: dict[str, list[str]] = {}
    for area, members in by_area.items():
        for start in range(0, len(members), knobs.lab_size):
            lab = members[start:start + knobs.lab_size]
            for rid in lab:
                lab_of[rid] = lab

    def coauthor(lead: str, area: int) -> str:
        if rng.random() < knobs.bridge_rate:
            other = area if rng.random() < 0.9 else rng.choice(AREAS)
            return rng.choice(by_area[other] or by_area[area])
        return rng.choice(lab_of[lead])

    # Products, each led by one researcher, some with in-house co-authors.
    products = []
    held: dict[str, list[str]] = {}
    mean = knobs.products_per_researcher
    sizes = tuple(range(max(1, round(mean / 2)), round(mean * 3 / 2) + 1))
    led = _apportion(sizes, (1.0,) * len(sizes), len(areas))
    rng.shuffle(led)
    for i, area in enumerate(areas):
        lead = f"R{i + 1:06d}"
        for _ in range(led[i]):
            pid = f"P{len(products) + 1:07d}"
            authors = [lead]
            if rng.random() < knobs.coauthor_rate:
                for _ in range(rng.choice((1, 1, 2, 3))):
                    other = coauthor(lead, area)
                    if other not in authors:
                        authors.append(other)
            for rid in authors:
                held.setdefault(rid, []).append(pid)
            u = rng.random()
            kind = ("journal-article" if u < 0.8 else "review" if u < 0.88
                    else "conference-proceeding" if u < 0.95 else rng.choice(DISALLOWED_KINDS))
            year = rng.randint(*WINDOW) if rng.random() > 0.03 else rng.choice((2002, 2003, 2011))
            fraud = rng.random() < 0.002
            review = kind == "review"
            wos = scopus = None
            if rng.random() < knobs.indexed_share:
                u = rng.random()
                if u < 0.85:
                    wos = _record(rng, dist, area, year, review)
                if u > 0.25:
                    scopus = _record(rng, dist, area, year, review)
            inst.indexed[pid] = wos is not None or scopus is not None
            products.append([pid, kind, year, "true" if fraud else "false",
                             *(wos or ["", "", "", ""]), *(scopus or ["", "", "", ""])])
    _write_csv(corpus_dir / "products.csv", [
        "id", "kind", "year", "fraud_flag",
        "wos_categories", "wos_metric", "wos_citations", "wos_journal_id",
        "scopus_categories", "scopus_metric", "scopus_citations", "scopus_journal_id",
    ], products)

    # Each researcher proposes a random share of their products, ranked at random.
    for rid in sorted(held):
        pids = held[rid]
        n_prop = min(len(pids), max(1, round(len(pids) * knobs.proposal_rate)))
        proposed = rng.sample(pids, n_prop)
        priority = {pid: k + 1 for k, pid in enumerate(proposed)}
        for pid in sorted(pids):
            override = rng.choice(AREAS) if rng.random() < 0.01 else None
            inst.authorships.append((rid, pid, priority.get(pid), override))
    _write_csv(corpus_dir / "authorships.csv",
               ["researcher_id", "product_id", "declared_priority", "gev_override"],
               [(r, p, _fmt(pr), _fmt(o)) for r, p, pr, o in inst.authorships])

    _write_profiles(root / "profiles.json")
    _write_reference(root / "ref", knobs, dist, rng)
    return inst
