"""Discipline-panel rule sets and the product scoring pipeline.

Each panel (GEV) is described entirely by data: classification matrices per
publication-age band, which bibliographic source(s) to use, journal class
lists, forced peer-review journal lists, and fallback scores. Scoring a
product is a pure function of (product, profile, reference library, window).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .corpus import BIBLIOMETRIC_UDAS, PRODUCT_KINDS, Corpus, Product
from .corpus import boolean, echo, format_number, write_rows
from .errors import Log, ParseError, ValidationError
from .reference import CITATIONS, JOURNAL_METRIC, ReferenceLibrary

log = Log(__name__)

DEFAULT_WINDOW = (2004, 2010)

MERIT_SCORES = {"A": 1.0, "B": 0.8, "C": 0.5, "D": 0.0}
MATRIX_OUTCOMES = ("A", "B", "C", "D", "IR")

FRAUD_SCORE = -2.0
INADMISSIBLE_SCORE = -1.0

WOS_ONLY = "wos-only"
BEST_OF_BOTH = "best-of-both"
SOURCE_POLICIES = (WOS_ONLY, BEST_OF_BOTH)

SCORED_COLUMNS = {"product_id": str, "researcher_id": str, "routing_gev": int, "outcome": str,
                  "score": float, "definite": boolean}


class ClassificationMatrix(NamedTuple):
    """16-cell grid mapping (citation class, journal class) to a merit outcome.

    Rows are citation classes 1-4, columns journal classes 1-4.
    """

    cells: tuple[tuple[str, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "ClassificationMatrix":
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise ValueError("classification matrix must be 4x4")
        for row in rows:
            for cell in row:
                if cell not in MATRIX_OUTCOMES:
                    raise ValueError(f"unknown matrix outcome {cell!r}")
        return cls(cells=tuple(tuple(row) for row in rows))

    def lookup(self, ic_class: int, ir_class: int) -> str:
        if not (1 <= ic_class <= 4 and 1 <= ir_class <= 4):
            raise ValueError(f"classes must be 1..4, got ({ic_class}, {ir_class})")
        return self.cells[ic_class - 1][ir_class - 1]


# Merit grid favouring citations for mature products: high-citation rows keep
# their grade across almost all journal classes, with peer-review routing
# where the two indicators disagree strongly.
MATURE_PRODUCTS_MATRIX = ClassificationMatrix.from_rows([
    ["A", "A", "A", "IR"],
    ["B", "B", "B", "IR"],
    ["IR", "C", "C", "C"],
    ["IR", "D", "D", "D"],
])

# Merit grid favouring journal standing for recent products, whose citation
# counts have not had time to accumulate.
RECENT_PRODUCTS_MATRIX = ClassificationMatrix.from_rows([
    ["A", "IR", "IR", "IR"],
    ["A", "B", "C", "D"],
    ["A", "B", "C", "D"],
    ["IR", "IR", "IR", "D"],
])


class GevProfile(NamedTuple):
    """Full rule set of one panel."""

    gev_id: int
    name: str
    allowed_kinds: frozenset[str]
    age_bands: tuple[tuple[tuple[int, int], ClassificationMatrix], ...]
    source_policy: str = BEST_OF_BOTH
    split_citation_doctype: bool = False
    ir_journal_class_list: Mapping[str, int] = MappingProxyType({})
    forced_ir_journals: frozenset[str] = frozenset()
    no_metric_score: float = 0.25
    non_indexed_score: float = 0.25
    ir_assumed_score: float = 0.5

    def matrix_for_year(self, year: int) -> ClassificationMatrix:
        for (y0, y1), matrix in self.age_bands:
            if y0 <= year <= y1:
                return matrix
        raise ValueError(f"year {year} outside the age bands of GEV {self.gev_id}")

    def validate(self, window: tuple[int, int] = DEFAULT_WINDOW) -> list[str]:
        """Check band coverage and score sanity against the active window."""
        problems: list[str] = []
        if not 1 <= self.gev_id <= 9:
            problems.append(f"gev_id {self.gev_id} outside 1..9")
        if self.source_policy not in SOURCE_POLICIES:
            problems.append(f"unknown source policy {self.source_policy!r}")
        for kind in sorted(self.allowed_kinds):
            if kind not in PRODUCT_KINDS:
                problems.append(f"unknown product kind {kind!r} in allowed_kinds")
        starts: list[int] = []  # the years the bands so far cover: disjoint
        ends: list[int] = []  # runs starts[i]..ends[i], in ascending order
        for (y0, y1), _ in self.age_bands:
            if y0 > y1:
                problems.append(f"age band {y0}-{y1} is reversed")
                continue
            i, j = bisect_left(ends, y0), bisect_right(starts, y1)  # runs i..j-1 meet it
            if i < j:
                problems.append(f"age band {y0}-{y1} overlaps another band")
                y0, y1 = min(y0, starts[i]), max(y1, ends[j - 1])
            starts[i:j], ends[i:j] = [y0], [y1]
        missing = [year for year in range(window[0], window[1] + 1)
                   if (i := bisect_left(ends, year)) == len(ends) or starts[i] > year]
        if missing:
            problems.append(f"age bands do not cover window years {missing}")
        for label, score in (
            ("no_metric_score", self.no_metric_score),
            ("non_indexed_score", self.non_indexed_score),
            ("ir_assumed_score", self.ir_assumed_score),
        ):
            if not -2.0 <= score <= 1.0:
                problems.append(f"{label} {score} outside [-2, 1]")
            elif round(score, 4) != score:  # selection counts ten-thousandths
                problems.append(f"{label} {score} is not a multiple of 0.0001")
        for journal, cls in self.ir_journal_class_list.items():
            if not 1 <= cls <= 4:
                problems.append(f"journal class {cls} for {journal!r} outside 1..4")
        return [f"profile {self.gev_id}: {p}" for p in problems]


class ScoredProduct(NamedTuple):
    """Outcome of scoring one product under one routing.

    outcome is one of the matrix results A/B/C/D/IR or a pipeline label:
    forced-ir, no-metric-fallback, non-indexed-fallback, inadmissible, fraud.
    definite is True only for the four graded matrix results.
    """

    routing_gev: int
    outcome: str
    score: float
    definite: bool


def scorer(profile: GevProfile, library: ReferenceLibrary,
           window: tuple[int, int] = DEFAULT_WINDOW):
    """The whole scoring pipeline under one panel's profile, as a function of the product.

    It holds the library's bound classifier, a year -> grid cache filled through
    matrix_for_year, and one ScoredProduct per outcome, which it returns. Order: fraud,
    admissibility (year inside the window, kind allowed by the panel), forced peer-review
    journals (reviews only), source selection, metric availability, then class lookup
    through the year-band matrix. Under best-of-both the higher-scoring record wins, ties
    going to the first (WoS) record. Citation counts are used exactly as recorded.
    """
    held = {outcome: ScoredProduct(profile.gev_id, outcome, score, outcome in MERIT_SCORES)
            for outcome, score in {**MERIT_SCORES, "IR": profile.ir_assumed_score,
                                   "forced-ir": profile.ir_assumed_score,
                                   "no-metric-fallback": profile.no_metric_score,
                                   "non-indexed-fallback": profile.non_indexed_score,
                                   "inadmissible": INADMISSIBLE_SCORE,
                                   "fraud": FRAUD_SCORE}.items()}
    best_class, grids, listed = library.classifier(), {}, profile.ir_journal_class_list.get

    def score(product: Product) -> ScoredProduct:
        year, kind, records = product.year, product.kind, (product.wos_record,
                                                           product.scopus_record)
        if product.fraud_flag:
            return held["fraud"]
        if not window[0] <= year <= window[1] or kind not in profile.allowed_kinds:
            return held["inadmissible"]
        # Journal-list forcing routes the product before any source is picked,
        # so it fires identically under both source policies.
        if kind == "review" and not profile.forced_ir_journals.isdisjoint(
                r.journal_id for r in records if r is not None):
            return held["forced-ir"]
        doc_split = "any"
        if profile.split_citation_doctype:
            doc_split = "review" if kind == "review" else "article"
        best = None
        for record in records[:1] if profile.source_policy == WOS_ONLY else records:
            if record is None:
                continue
            # A journal on the panel's class list takes its listed class over its metric.
            ir_class = listed(record.journal_id)
            if ir_class is None and record.journal_metric is not None:
                ir_class = best_class(JOURNAL_METRIC, record.subject_categories,
                                      record.journal_metric, year, "any")
            sp = held["no-metric-fallback"]
            if ir_class is not None:
                ic_class = best_class(CITATIONS, record.subject_categories, record.citations,
                                      year, doc_split)
                grid = grids.get(year) or grids.setdefault(year, profile.matrix_for_year(year))
                sp = held[grid.lookup(ic_class, ir_class)]
            if best is None or sp.score > best.score:
                best = sp
        return best or held["non-indexed-fallback"]
    return score


def score_product(product: Product, profile: GevProfile, library: ReferenceLibrary,
                  window: tuple[int, int] = DEFAULT_WINDOW) -> ScoredProduct:
    """scorer(profile, library, window) applied to one product."""
    return scorer(profile, library, window)(product)


def score_corpus(
    corpus: Corpus,
    profiles: dict[int, GevProfile],
    library: ReferenceLibrary,
    window: tuple[int, int],
) -> dict[tuple[str, str], ScoredProduct]:
    """Score every authorship under its routing (its panel override, else its
    researcher's area), each (product, panel) pair once, by one scorer per panel:
    equal ScoredProducts are held once.

    Raises ValidationError when a routing falls outside areas 1-9 or has no
    profile.
    """
    scored = {}
    scorers = {gev: scorer(profile, library, window) for gev, profile in profiles.items()}
    # Each bibliometric panel's score of each product it has scored, by product id.
    memos = {gev: {} for gev in scorers if gev in BIBLIOMETRIC_UDAS}
    for a in corpus.authorships:
        gev = a.gev_override
        if gev is None:
            gev = corpus.researchers[a.researcher_id].uda
        memo = memos.get(gev)
        if memo is None:
            raise ValidationError([f"no profile configured for GEV {gev}"
                                   if gev in BIBLIOMETRIC_UDAS else
                                   f"peer-review-only UDA {gev}: product {a.product_id!r} of "
                                   f"researcher {a.researcher_id!r} has no bibliometric panel"])
        sp = memo.get(a.product_id)
        if sp is None:
            sp = memo[a.product_id] = scorers[gev](corpus.products[a.product_id])
        scored[(a.researcher_id, a.product_id)] = sp
    log.info("scored %d authorships, %d distinct (product, panel) pairs",
             len(scored), sum(map(len, memos.values())))
    return scored


def score_fields(scored: dict[tuple[str, str], ScoredProduct]) -> dict[int, tuple]:
    """The last four scored.csv fields of each ScoredProduct of scored, by its id: each
    object is formatted once, and score_corpus holds equal ones once. (Equal ones may
    differ, as 0.0 == -0.0.)"""
    return {key: (str(sp.routing_gev), sp.outcome, format_number(sp.score),
                  "true" if sp.definite else "false")
            for key, sp in {id(sp): sp for sp in scored.values()}.items()}


def write_scored(scored: dict[tuple[str, str], ScoredProduct], path: str | Path) -> None:
    fields = score_fields(scored)
    # The (researcher, product) keys by product id, then researcher id, in two stable
    # sorts: each row is built only as it is written.
    keys = sorted(scored, key=itemgetter(0))
    keys.sort(key=itemgetter(1))
    write_rows(path, SCORED_COLUMNS, ((pid, rid, *fields[id(scored[rid, pid])])
                                      for rid, pid in keys))


# --- profile configuration -------------------------------------------------

DEFAULT_ALLOWED_KINDS = frozenset({"journal-article", "review", "conference-proceeding"})

UDA_NAMES = {
    1: "Mathematics and computer science",
    2: "Physics",
    3: "Chemistry",
    4: "Earth sciences",
    5: "Biology",
    6: "Medicine",
    7: "Agricultural and veterinary sciences",
    8: "Civil engineering and architecture",
    9: "Industrial and information engineering",
}

_TWO_BANDS = (((2004, 2008), MATURE_PRODUCTS_MATRIX), ((2009, 2010), RECENT_PRODUCTS_MATRIX))
_ONE_BAND = (((2004, 2010), MATURE_PRODUCTS_MATRIX),)


def default_profiles() -> dict[int, GevProfile]:
    """Built-in pack for the nine bibliometric panels over the 2004-2010 window.

    Panels 1, 2 and 7 apply a single grid to products of all ages; the life
    sciences panels (5, 6) read WoS only and give unranked-metric products a
    nil score; panels 4-7 keep separate citation distributions for articles
    and reviews; panels 1 and 9 support journal class lists (shipped empty,
    to be filled from the published panel documents); panel 7 supports a
    forced peer-review journal list for reviews. Only the Chemistry grids
    are public, so the other panels reuse them as a configurable stand-in.
    """
    variants: dict[int, dict] = {
        1: dict(age_bands=_ONE_BAND, ir_journal_class_list={}),
        2: dict(age_bands=_ONE_BAND),
        3: dict(),
        4: dict(split_citation_doctype=True),
        5: dict(source_policy=WOS_ONLY, split_citation_doctype=True, no_metric_score=0.0),
        6: dict(source_policy=WOS_ONLY, split_citation_doctype=True, no_metric_score=0.0),
        7: dict(age_bands=_ONE_BAND, split_citation_doctype=True, forced_ir_journals=frozenset()),
        8: dict(),
        9: dict(no_metric_score=0.5, ir_journal_class_list={}),
    }
    profiles = {}
    for gev_id, overrides in variants.items():
        profiles[gev_id] = GevProfile(
            gev_id=gev_id,
            name=UDA_NAMES[gev_id],
            allowed_kinds=DEFAULT_ALLOWED_KINDS,
            age_bands=overrides.pop("age_bands", _TWO_BANDS),
            **overrides,
        )
    return profiles


_JSON_TYPE_NAMES = {bool: "true or false", str: "a string", int: "an integer",
                    (int, float): "a number", list: "a list", dict: "an object"}


def _typed(value, kind, key: str):
    """value itself if it has the JSON type kind; true and false are no numbers."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise TypeError(f"{key} must be {_JSON_TYPE_NAMES[kind]}, got {echo(json.dumps(value))}")


def _strings(value, key: str) -> list[str]:
    return [_typed(item, str, f"{key}[{i}]") for i, item in enumerate(_typed(value, list, key))]


def _band(value, key: str) -> tuple[tuple[int, int], ClassificationMatrix]:
    """An object of [first, last] years and a matrix given as a list of row lists; a
    row written as one string would read as its characters."""
    band = _typed(value, dict, key)
    years = _typed(band["years"], list, "age_bands years")
    if len(years) != 2:
        raise ValueError(f"age_bands years must be [first, last], got {echo(json.dumps(years))}")
    span = _typed(years[0], int, "age_bands years"), _typed(years[1], int, "age_bands years")
    rows = _typed(band["matrix"], list, "age_bands matrix")
    return span, ClassificationMatrix.from_rows(
        [_strings(row, f"age_bands matrix[{i}]") for i, row in enumerate(rows)])


def _plain(kind):
    """Read a value of JSON type kind as it stands, and write it back the same."""
    return (lambda value, key: _typed(value, kind, key)), (lambda value: value)


_SCORE = (lambda value, key: float(_typed(value, (int, float), key))), (lambda value: value)
_STRING_SET = (lambda value, key: frozenset(_strings(value, key))), sorted

# Every key of a profiles.json entry, in the order an entry is read and written:
# key -> (read: JSON value, key -> GevProfile field, rejecting a wrong JSON type in
# _typed's words; write: field -> JSON value). Of two faults in an entry, the earlier
# key's is reported; a key not listed here is reported last. A key not in
# _REQUIRED_KEYS may be omitted for its GevProfile default; name's is "GEV <gev_id>".
_REQUIRED_KEYS = ("gev_id", "allowed_kinds", "age_bands")
_PROFILE_KEYS = {
    "gev_id": _plain(int),
    "name": _plain(str),
    "allowed_kinds": _STRING_SET,
    "source_policy": _plain(str),
    "split_citation_doctype": _plain(bool),
    "no_metric_score": _SCORE,
    "non_indexed_score": _SCORE,
    "ir_assumed_score": _SCORE,
    "age_bands": (
        lambda value, key: tuple(_band(band, f"{key}[{i}]")
                                 for i, band in enumerate(_typed(value, list, key))),
        lambda bands: [{"years": list(years), "matrix": [list(row) for row in matrix.cells]}
                       for years, matrix in bands]),
    "ir_journal_class_list": (
        lambda value, key: {journal: _typed(cls, int, f"{key}[{json.dumps(journal)}]")
                            for journal, cls in _typed(value, dict, key).items()},
        lambda classes: dict(sorted(classes.items()))),
    "forced_ir_journals": _STRING_SET,
}


def dump_profiles(profiles: dict[int, GevProfile], path: str | Path) -> None:
    payload = {"profiles": [
        {key: write(getattr(profiles[g], key)) for key, (_, write) in _PROFILE_KEYS.items()}
        for g in sorted(profiles)]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_profiles(path: str | Path) -> dict[int, GevProfile]:
    """Read a profile pack from JSON; structural problems raise ParseError."""
    path = Path(path)
    if not path.exists():
        raise ParseError("file not found", file=str(path))
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})",
            file=str(path),
        ) from None
    except (ValueError, RecursionError) as exc:  # also too deep, or an int too long
        raise ParseError(f"invalid JSON: {exc}", file=str(path)) from None

    profiles: dict[int, GevProfile] = {}
    try:
        entries = _typed(_typed(payload, dict, "top level")["profiles"], list, "profiles")
        for i, entry in enumerate(entries):
            entry = _typed(entry, dict, f"profiles[{i}]")
            fields = {key: read(entry[key], key) for key, (read, _) in _PROFILE_KEYS.items()
                      if key in entry or key in _REQUIRED_KEYS}
            unknown = [key for key in entry if key not in _PROFILE_KEYS]
            if unknown:
                raise ValueError(f"profiles[{i}] has unknown key {json.dumps(unknown[0])}")
            profile = GevProfile(**{"name": f"GEV {fields['gev_id']}", **fields})
            if profile.gev_id in profiles:
                raise ParseError(
                    f"duplicate profile for GEV {profile.gev_id}", file=str(path)
                )
            profiles[profile.gev_id] = profile
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed profile entry: {exc}", file=str(path)) from None
    return profiles


def validate_profiles(
    profiles: dict[int, GevProfile], window: tuple[int, int] = DEFAULT_WINDOW
) -> list[str]:
    problems: list[str] = []
    for gev_id in sorted(profiles):
        if profiles[gev_id].gev_id != gev_id:
            problems.append(f"profile keyed {gev_id} declares gev_id {profiles[gev_id].gev_id}")
        problems.extend(profiles[gev_id].validate(window))
    return problems
