"""Panel rule sets and the scoring pipeline."""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from assessopt.cli import main
from assessopt.corpus import PRODUCT_KINDS, IndexRecord, Product
from assessopt.errors import ParseError, ValidationError
from assessopt.gev import (
    BEST_OF_BOTH,
    DEFAULT_WINDOW,
    FRAUD_SCORE,
    INADMISSIBLE_SCORE,
    MATRIX_OUTCOMES,
    MATURE_PRODUCTS_MATRIX,
    MERIT_SCORES,
    RECENT_PRODUCTS_MATRIX,
    SOURCE_POLICIES,
    WOS_ONLY,
    ClassificationMatrix,
    GevProfile,
    default_profiles,
    dump_profiles,
    load_profiles,
    routing_for,
    score_corpus,
    score_product,
    validate_profiles,
    write_scored,
)
from assessopt.reference import ClassThresholds, DistributionKey, ReferenceLibrary
from assessopt.selection import SHORTFALL_PENALTY, build_sets

import support
from bruteforce import sized_instance, stepwise_score, with_journal_metrics

# Transcribed cell by cell from the published Chemistry grids:
# rows are citation classes 1-4, columns journal classes 1-4.
MATURE_EXPECTED = {
    (1, 1): "A", (1, 2): "A", (1, 3): "A", (1, 4): "IR",
    (2, 1): "B", (2, 2): "B", (2, 3): "B", (2, 4): "IR",
    (3, 1): "IR", (3, 2): "C", (3, 3): "C", (3, 4): "C",
    (4, 1): "IR", (4, 2): "D", (4, 3): "D", (4, 4): "D",
}
RECENT_EXPECTED = {
    (1, 1): "A", (1, 2): "IR", (1, 3): "IR", (1, 4): "IR",
    (2, 1): "A", (2, 2): "B", (2, 3): "C", (2, 4): "D",
    (3, 1): "A", (3, 2): "B", (3, 3): "C", (3, 4): "D",
    (4, 1): "IR", (4, 2): "IR", (4, 3): "IR", (4, 4): "D",
}


def test_matrix_cells_match_published_grids():
    for (ic, ir), expected in MATURE_EXPECTED.items():
        assert MATURE_PRODUCTS_MATRIX.lookup(ic, ir) == expected
    for (ic, ir), expected in RECENT_EXPECTED.items():
        assert RECENT_PRODUCTS_MATRIX.lookup(ic, ir) == expected


@pytest.mark.parametrize("ic, ir", [(0, 1), (1, 5)])
def test_matrix_lookup_rejects_classes_outside_1_4(ic, ir):
    with pytest.raises(ValueError, match=rf"^classes must be 1\.\.4, got \({ic}, {ir}\)$"):
        MATURE_PRODUCTS_MATRIX.lookup(ic, ir)


def test_score_map():
    assert MERIT_SCORES == {"A": 1.0, "B": 0.8, "C": 0.5, "D": 0.0}
    assert FRAUD_SCORE == -2.0
    assert INADMISSIBLE_SCORE == -1.0
    assert SHORTFALL_PENALTY == -0.5


def test_band_selection():
    profile = support.profile()
    assert profile.matrix_for_year(2006) is MATURE_PRODUCTS_MATRIX
    assert profile.matrix_for_year(2008) is MATURE_PRODUCTS_MATRIX
    assert profile.matrix_for_year(2009) is RECENT_PRODUCTS_MATRIX
    with pytest.raises(ValueError):
        profile.matrix_for_year(2003)


# Uniform library: citation cuts 10/20/30, metric cuts 1/2/3.
LIB = support.library()


def score(product, profile=None, gev=3):
    profile = profile or support.profile(gev_id=gev)
    return score_product(product, profile, LIB)


def test_pipeline_matrix_outcome():
    # citations 40 -> class 1, metric 1.5 -> class 3: mature grid (1,3) = A
    sp = score(support.product("P", year=2006, citations=40, metric=1.5))
    assert (sp.outcome, sp.score, sp.definite) == ("A", 1.0, True)


def test_pipeline_recent_band():
    # 2010 product: citations 25 -> class 2, metric 3.5 -> class 1: recent grid (2,1) = A
    sp = score(support.product("P", year=2010, citations=25, metric=3.5))
    assert (sp.outcome, sp.score) == ("A", 1.0)


def test_pipeline_ir_cell_scores_assumed_value():
    # citations 5 -> class 4, metric 3.5 -> class 1: mature grid (4,1) = IR
    sp = score(support.product("P", year=2006, citations=5, metric=3.5))
    assert (sp.outcome, sp.score, sp.definite) == ("IR", 0.5, False)


def test_fraud_precedes_everything():
    sp = score(support.product("P", year=1999, kind="patent", fraud=True))
    assert (sp.outcome, sp.score) == ("fraud", -2.0)


def test_inadmissible_year_and_kind():
    sp = score(support.product("P", year=2003, citations=40, metric=1.5))
    assert (sp.outcome, sp.score) == ("inadmissible", -1.0)
    sp = score(support.product("P", kind="patent"))
    assert (sp.outcome, sp.score) == ("inadmissible", -1.0)


def test_non_indexed_fallback():
    sp = score(support.product("P"))
    assert (sp.outcome, sp.score, sp.definite) == ("non-indexed-fallback", 0.25, False)


def test_no_metric_fallback_per_panel():
    product = support.product("P", citations=40)  # indexed, no journal metric
    for gev, expected in ((5, 0.0), (6, 0.0), (9, 0.5), (3, 0.25)):
        profile = default_profiles()[gev]
        sp = score_product(product, profile, LIB)
        assert (sp.outcome, sp.score) == ("no-metric-fallback", expected), gev


def test_forced_ir_journal_reviews_only():
    profile = support.profile(forced_ir_journals=frozenset({"J-LIST"}))
    review = support.product("P", kind="review", citations=40, metric=3.5, journal="J-LIST")
    sp = score_product(review, profile, LIB)
    assert (sp.outcome, sp.score) == ("forced-ir", 0.5)
    article = support.product("P", kind="journal-article", citations=40, metric=3.5,
                              journal="J-LIST")
    assert score_product(article, profile, LIB).outcome == "A"


def test_forced_ir_sees_both_records_under_any_policy():
    scopus = IndexRecord(subject_categories=("CAT-X",), citations=40,
                         journal_metric=3.5, journal_id="J-LIST")
    review = support.product("P", kind="review", citations=40, metric=3.5,
                             journal="J-OK", scopus=scopus)
    for policy in (WOS_ONLY, BEST_OF_BOTH):
        profile = support.profile(source_policy=policy,
                                  forced_ir_journals=frozenset({"J-LIST"}))
        assert score_product(review, profile, LIB).outcome == "forced-ir"


def test_journal_class_list_overrides_distribution():
    profile = support.profile(ir_journal_class_list={"J-TOP": 1})
    # no metric at all: the list still supplies the journal class
    product = support.product("P", citations=40, journal="J-TOP")
    sp = score_product(product, profile, LIB)
    assert (sp.outcome, sp.score) == ("A", 1.0)
    # metric present but journal not listed: fall back to the distribution
    product = support.product("P", citations=40, metric=1.5, journal="J-OTHER")
    assert score_product(product, profile, LIB).outcome == "A"  # (1,3) = A
    # neither metric nor listed journal: no-metric fallback
    product = support.product("P", citations=40, journal="J-OTHER")
    assert score_product(product, profile, LIB).outcome == "no-metric-fallback"


def test_best_of_both_takes_higher_score():
    scopus = IndexRecord(subject_categories=("CAT-X",), citations=40, journal_metric=2.5)
    product = support.product("P", citations=15, metric=1.5, scopus=scopus)
    # wos: (3,3) = C 0.5; scopus: (1,2) = A 1.0
    best = score_product(product, support.profile(), LIB)
    assert (best.outcome, best.score) == ("A", 1.0)
    wos_only = score_product(product, support.profile(source_policy=WOS_ONLY), LIB)
    assert (wos_only.outcome, wos_only.score) == ("C", 0.5)


def test_best_of_both_tie_keeps_wos():
    # wos: (4,1) = IR 0.5; scopus: (3,2) = C 0.5 -> tie keeps the WoS outcome
    scopus = IndexRecord(subject_categories=("CAT-X",), citations=15, journal_metric=1.5)
    product = support.product("P", citations=5, metric=3.5, scopus=scopus)
    assert score_product(product, support.profile(), LIB).outcome == "IR"


def test_doc_split_uses_review_distribution():
    lib = support.library(doc_splits=("article", "review"))
    lib.thresholds[DistributionKey("citations", "CAT-X", 2006, "review")] = (
        ClassThresholds(100, 200, 300, n=50)
    )
    profile = support.profile(split_citation_doctype=True)
    # 60 citations: article distribution -> class 1; review distribution -> class 4
    article = support.product("P", kind="journal-article", citations=60, metric=3.5)
    assert score_product(article, profile, lib).outcome == "A"  # (1,1)
    review = support.product("P", kind="review", citations=60, metric=3.5)
    assert score_product(review, profile, lib).outcome == "IR"  # (4,1)


def test_citations_used_verbatim():
    # one citation above the cut changes the class: no adjustment is applied
    just_above = score(support.product("P", citations=31, metric=3.5))
    just_at = score(support.product("P", citations=30, metric=3.5))
    assert just_above.outcome == "A"   # (1,1)
    assert just_at.outcome == "B"      # (2,1)


def test_multi_category_best_class():
    lib = ReferenceLibrary(thresholds={
        DistributionKey("citations", "X", 2006): ClassThresholds(10, 20, 30, 9),
        DistributionKey("citations", "Y", 2006): ClassThresholds(1, 2, 3, 9),
    })
    assert lib.best_class("citations", ("X", "Y"), 25, 2006, "any") == 1
    assert lib.best_class("citations", ("Y", "X"), 25, 2006, "any") == 1
    assert lib.best_class("citations", ("X",), 25, 2006, "any") == 2


def test_multi_category_skips_missing():
    lib = ReferenceLibrary(thresholds={
        DistributionKey("citations", "X", 2006): ClassThresholds(10, 20, 30, 9),
    })
    assert lib.best_class("citations", ("X", "GONE"), 15, 2006, "any") == 3
    assert lib.best_class("citations", ("GONE", "X"), 15, 2006, "any") == 3
    with pytest.raises(ValidationError) as exc:
        lib.best_class("citations", ("GONE", "ALSO-GONE"), 15, 2006, "any")
    assert str(exc.value) == ("no reference distribution for any of: "
                              "(citations, GONE, 2006, any), (citations, ALSO-GONE, 2006, any)")


def test_best_of_both_never_below_wos_only():
    rng = random.Random(7)
    wos_profile = support.profile(source_policy=WOS_ONLY)
    both_profile = support.profile(source_policy=BEST_OF_BOTH)
    for _ in range(300):
        scopus = None
        if rng.random() < 0.7:
            scopus = IndexRecord(
                subject_categories=("CAT-X",),
                citations=rng.randint(0, 50),
                journal_metric=rng.choice([None, 0.5, 1.5, 2.5, 3.5]),
            )
        product = support.product(
            "P",
            kind=rng.choice(["journal-article", "review"]),
            year=rng.randint(2004, 2010),
            citations=rng.randint(0, 50),
            metric=rng.choice([None, 0.5, 1.5, 2.5, 3.5]),
            scopus=scopus,
        )
        lo = score_product(product, wos_profile, LIB)
        hi = score_product(product, both_profile, LIB)
        assert hi.score >= lo.score


def test_outcome_score_consistency_randomized():
    rng = random.Random(11)
    profile = support.profile()
    expectations = {
        "A": 1.0, "B": 0.8, "C": 0.5, "D": 0.0,
        "IR": profile.ir_assumed_score,
        "forced-ir": profile.ir_assumed_score,
        "no-metric-fallback": profile.no_metric_score,
        "non-indexed-fallback": profile.non_indexed_score,
        "inadmissible": -1.0,
        "fraud": -2.0,
    }
    for _ in range(400):
        product = support.product(
            "P",
            kind=rng.choice(["journal-article", "review", "patent"]),
            year=rng.randint(2002, 2011),
            citations=rng.choice([None, 0, 5, 15, 25, 40]),
            metric=rng.choice([None, 0.5, 1.5, 2.5, 3.5]),
            fraud=rng.random() < 0.05,
        )
        sp = score_product(product, profile, LIB)
        assert sp.score == expectations[sp.outcome]
        assert sp.definite == (sp.outcome in ("A", "B", "C", "D"))


# Categories X, Y and Z, merged into one another or into group G. A library holds a
# distribution for every indicator, name, band year and doc split but the keys and
# names it leaves out; the cuts of a key hold for both years.
_DIST_KEYS = [(indicator, name, split) for indicator in ("citations", "journal-metric")
              for name in "XYZG" for split in ("any", "article", "review")]


@st.composite
def _libraries(draw):
    cuts = draw(st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3).map(sorted),
                         min_size=len(_DIST_KEYS), max_size=len(_DIST_KEYS)))
    absent = draw(st.sets(st.sampled_from("XYZG")))
    missing = draw(st.sets(st.tuples(st.sampled_from(_DIST_KEYS), st.sampled_from((2006, 2009))),
                           max_size=4))
    merge_map = draw(st.dictionaries(st.sampled_from("XYZ"), st.sampled_from("GY")))
    return ReferenceLibrary({
        DistributionKey(indicator, name, year, split): ClassThresholds(*c, n=9)
        for (indicator, name, split), c in zip(_DIST_KEYS, cuts) for year in (2006, 2009)
        if name not in absent and ((indicator, name, split), year) not in missing}, merge_map)


_records = st.builds(  # four in five products have each record
    lambda exists, record: record if exists else None,
    st.sampled_from((True,) * 4 + (False,)),
    st.builds(
        IndexRecord,
        subject_categories=st.lists(st.sampled_from("XYZ"), min_size=1, max_size=3).map(tuple),
        citations=st.integers(0, 10),
        journal_metric=st.sampled_from((None,) * 10 + tuple(v / 2 for v in range(21))),
        journal_id=st.sampled_from((None, "J1", "J2", "J3")),
    ),
)
_products = st.builds(  # three in four admissible: fraud, a year or a kind may exclude it
    Product, id=st.just("P"),
    kind=st.sampled_from(("journal-article", "review") * 4 + ("patent",)),
    year=st.sampled_from((2006, 2009) * 4 + (2003, 2011)),
    fraud_flag=st.sampled_from((False,) * 9 + (True,)),
    wos_record=_records, scopus_record=_records,
)
_fallback_scores = st.sampled_from((0.0, 0.5, 0.8, 1.0))  # each ties with a grade
_scoring_profiles = st.builds(
    support.profile,
    age_bands=st.sampled_from((support.TWO_BANDS, (((2004, 2010), MATURE_PRODUCTS_MATRIX),))),
    ir_journal_class_list=st.dictionaries(st.sampled_from(("J1", "J2")), st.integers(1, 4)),
    forced_ir_journals=st.frozensets(st.sampled_from(("J2", "J3"))),
    no_metric_score=_fallback_scores,
    non_indexed_score=_fallback_scores,
    ir_assumed_score=_fallback_scores,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_products, min_size=1, max_size=8), _scoring_profiles, _libraries())
def test_score_product_matches_a_stepwise_restatement(products, profile, library):
    """Each product under both source policies, with and without split doctypes."""
    for panel in [profile._replace(source_policy=policy, split_citation_doctype=split)
                  for policy in SOURCE_POLICIES for split in (False, True)]:
        for product in products:
            try:
                expected = stepwise_score(product, panel, library, DEFAULT_WINDOW)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as got:
                    score_product(product, panel, library)
                assert str(got.value) == str(exc)
            else:
                assert score_product(product, panel, library) == expected


def test_score_corpus_routing_and_peer_review_error():
    corpus = support.corpus(
        [support.researcher("R1", uda=1), support.researcher("R2", uda=12)],
        [support.product("P1", citations=40, metric=3.5)],
        [support.authored("R1", "P1", priority=1, override=3)],
    )
    profiles = {3: support.profile(gev_id=3)}
    scored = score_corpus(corpus, profiles, LIB, DEFAULT_WINDOW)
    assert scored[("R1", "P1")].routing_gev == 3

    with_authorship = support.corpus(
        [support.researcher("R2", uda=12)],
        [support.product("P1", citations=40, metric=3.5)],
        [support.authored("R2", "P1", priority=1)],
    )
    with pytest.raises(ValidationError) as exc:
        score_corpus(with_authorship, profiles, LIB, DEFAULT_WINDOW)
    assert "12" in str(exc.value)


def test_score_corpus_scores_each_product_panel_pair_once(monkeypatch):
    corpus = support.corpus(
        [support.researcher(rid) for rid in ("R1", "R2", "R3")],
        # no journal metric: panel 3 falls back to 0.25, panel 5 to 0.0
        [support.product("P1", citations=40), support.product("P2", citations=25, metric=2.5),
         support.product("P3", citations=5, metric=0.5)],
        [support.authored("R1", "P1"), support.authored("R2", "P1"),
         support.authored("R3", "P1", override=5), support.authored("R1", "P2"),
         support.authored("R3", "P2"), support.authored("R2", "P3")],
    )
    profiles = {3: support.profile(gev_id=3),
                5: support.profile(gev_id=5, source_policy=WOS_ONLY, no_metric_score=0.0)}
    unmemoised = {}
    for a in corpus.authorships:
        gev = routing_for(a, corpus.researchers[a.researcher_id])
        unmemoised[(a.researcher_id, a.product_id)] = score_product(
            corpus.products[a.product_id], profiles[gev], LIB)
    calls = []

    def counting(product, profile, *args):
        calls.append((product.id, profile.gev_id))
        return score_product(product, profile, *args)

    monkeypatch.setattr("assessopt.gev.score_product", counting)
    scored = score_corpus(corpus, profiles, LIB, DEFAULT_WINDOW)
    assert sorted(calls) == [("P1", 3), ("P1", 5), ("P2", 3), ("P3", 3)]
    assert scored == unmemoised
    assert scored[("R1", "P1")].score == 0.25 and scored[("R3", "P1")].score == 0.0


def test_the_panel_comes_from_the_profile():
    assert score_product(support.product("P"), support.profile(gev_id=5), LIB).routing_gev == 5


def test_score_corpus_reports_the_first_failing_authorship():
    corpus = support.corpus(
        [support.researcher("R1"), support.researcher("R2", uda=12),
         support.researcher("R3", uda=12)],
        [support.product("P1", citations=40, metric=3.5)],
        [support.authored(rid, "P1") for rid in ("R3", "R2", "R1")],
    )
    with pytest.raises(ValidationError) as exc:
        score_corpus(corpus, {3: support.profile(gev_id=3)}, LIB, DEFAULT_WINDOW)
    assert exc.value.violations == [
        "peer-review-only UDA 12: product 'P1' of researcher 'R2' has no bibliometric panel"
    ]


def _scored_instance():
    """sized_instance(Random(1), 1000, 3000) scored by score_corpus under nine plain
    panels; each index record's journal metric is its citations / 10, so that the
    products reach the matrix cells as well as the fallbacks."""
    corpus = with_journal_metrics(sized_instance(random.Random(1), 1000, 3000)[0])
    profiles = {gev: support.profile(gev) for gev in range(1, 10)}
    return corpus, score_corpus(corpus, profiles, support.library(("CAT",)), DEFAULT_WINDOW)


def test_score_corpus_peaks_well_below_twice_what_it_returns():
    """The memo is keyed by the product ids the corpus holds, not by a fresh (product,
    panel) tuple per pair: on these 6,014 authorships the peak inside score_corpus was
    twice what it returned with such tuples, and is about 1.5 times without them."""
    corpus, _ = sized_instance(random.Random(1), 1000, 3000)
    profiles = {gev: support.profile(gev) for gev in range(1, 10)}
    library = support.library(("CAT",))
    tracemalloc.start()
    try:
        scored = score_corpus(corpus, profiles, library, DEFAULT_WINDOW)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scored) == len(corpus.authorships) > 5_000
    assert peak < 1.6 * held


def test_equal_scores_are_held_once():
    """Of the thousands of scored authorships only a few dozen values are distinct:
    score_corpus holds each ScoredProduct once, build_sets each score's units once."""
    corpus, scored = _scored_instance()
    distinct = set(scored.values())
    assert 10 < len(distinct) < 100
    assert len({id(sp) for sp in scored.values()}) == len(distinct)
    units = build_sets(corpus, scored).units
    assert units.keys() == {sp.score for sp in distinct} and len(units) > 3


def test_write_scored_does_not_depend_on_the_order_of_the_map(tmp_path):
    _, scored = _scored_instance()
    write_scored(scored, tmp_path / "given.csv")
    items = list(scored.items())
    random.Random(2).shuffle(items)
    write_scored(dict(items), tmp_path / "shuffled.csv")
    assert (tmp_path / "given.csv").read_bytes() == (tmp_path / "shuffled.csv").read_bytes()


def test_a_negative_zero_fallback_is_written_as_minus_zero(tmp_path, capsys):
    """0.0 == -0.0, so the held-once ScoredProducts must not merge a panel's -0.0
    fallback with an equal 0.0 score."""
    root = tmp_path / "in"
    shutil.copytree(Path(__file__).parent / "fixtures" / "mini_university", root)
    pack = json.loads((root / "profiles.json").read_text(encoding="utf-8"))
    for entry in pack["profiles"]:
        entry["no_metric_score"] = -0.0
    (root / "profiles.json").write_text(json.dumps(pack), encoding="utf-8")
    assert '"no_metric_score": -0.0' in (root / "profiles.json").read_text(encoding="utf-8")
    out = tmp_path / "scored.csv"
    assert main(["score", "--corpus", str(root), "--profiles", str(root / "profiles.json"),
                 "--ref", str(root / "ref"), "-o", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    fallbacks = [row for row in rows if ",no-metric-fallback," in row]
    assert len(fallbacks) == 3
    assert all(row.endswith(",no-metric-fallback,-0,false") for row in fallbacks)
    assert any(row.endswith(",0,true") for row in rows)  # the D cells keep 0.0


def test_write_scored_builds_no_row_before_it_writes_it(tmp_path):
    """Sorting whole rows would hold one 6-tuple per authorship at once; the keys
    sort by two stable sorts and each row is built as it is written."""
    _, scored = _scored_instance()
    tracemalloc.start()
    try:
        write_scored(scored, tmp_path / "scored.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(scored) * sys.getsizeof(tuple(range(6)))


def test_default_pack_shape():
    profiles = default_profiles()
    assert sorted(profiles) == list(range(1, 10))
    assert validate_profiles(profiles) == []
    for gev in (5, 6):
        assert profiles[gev].source_policy == WOS_ONLY
        assert profiles[gev].no_metric_score == 0.0
    assert profiles[9].no_metric_score == 0.5
    for gev in (1, 2, 7):
        assert len(profiles[gev].age_bands) == 1
    for gev in (3, 4, 5, 6, 8, 9):
        assert len(profiles[gev].age_bands) == 2
    for gev in (4, 5, 6, 7):
        assert profiles[gev].split_citation_doctype


def test_profiles_json_round_trip(tmp_path):
    path = tmp_path / "profiles.json"
    profiles = default_profiles()
    dump_profiles(profiles, path)
    assert load_profiles(path) == profiles


_scores = st.floats(min_value=-2, max_value=1)
_journals = st.text(max_size=8)
_profiles = st.builds(
    GevProfile,
    gev_id=st.integers(1, 9),
    name=st.text(max_size=20),
    allowed_kinds=st.frozensets(st.sampled_from(PRODUCT_KINDS)),
    age_bands=st.lists(st.tuples(
        st.tuples(st.integers(1990, 2030), st.integers(1990, 2030)).map(sorted).map(tuple),
        st.lists(st.lists(st.sampled_from(MATRIX_OUTCOMES), min_size=4, max_size=4),
                 min_size=4, max_size=4).map(ClassificationMatrix.from_rows),
    ), max_size=3).map(tuple),
    source_policy=st.sampled_from(SOURCE_POLICIES),
    split_citation_doctype=st.booleans(),
    ir_journal_class_list=st.dictionaries(_journals, st.integers(1, 4), max_size=3),
    forced_ir_journals=st.frozensets(_journals, max_size=3),
    no_metric_score=_scores,
    non_indexed_score=_scores,
    ir_assumed_score=_scores,
)


@given(st.lists(_profiles, max_size=3, unique_by=lambda p: p.gev_id))
def test_profiles_json_round_trip_is_lossless(tmp_path_factory, profiles):
    path = tmp_path_factory.mktemp("profiles") / "profiles.json"
    pack = {p.gev_id: p for p in profiles}
    dump_profiles(pack, path)
    assert load_profiles(path) == pack


def test_profiles_json_omitted_keys_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "profiles.json"
    full = support.profile()
    dump_profiles({3: full}, path)
    (entry,) = json.loads(path.read_text(encoding="utf-8"))["profiles"]
    minimal = {key: entry[key] for key in ("gev_id", "allowed_kinds", "age_bands")}
    path.write_text(json.dumps({"profiles": [minimal]}), encoding="utf-8")
    assert load_profiles(path) == {3: GevProfile(
        gev_id=3, name="GEV 3", allowed_kinds=full.allowed_kinds, age_bands=full.age_bands,
    )}


def test_profiles_json_rejects_bad_matrix(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text(
        '{"profiles": [{"gev_id": 3, "allowed_kinds": ["review"], '
        '"age_bands": [{"years": [2004, 2010], "matrix": [["A"]]}]}]}',
        encoding="utf-8",
    )
    with pytest.raises(ParseError):
        load_profiles(path)


@pytest.mark.parametrize("key, value", [
    ("split_citation_doctype", "false"),
    ("forced_ir_journals", "J12345"),
    ("forced_ir_journals", [5]),
    ("ir_journal_class_list", [["J1", 1]]),
    ("ir_journal_class_list", {"J1": "1"}),
    ("allowed_kinds", "review"),
    ("source_policy", 5),
    ("no_metric_score", "0.5"),
    ("ir_assumed_score", True),
    ("gev_id", 3.7),
    ("name", 5),
    ("age_bands years", [2004.5, 2010]),
    ("age_bands years", [2004]),
    ("age_bands matrix", ["ABCD", "ABCD", "ABCD", "ABCD"]),
    ("age_bands matrix", "AAAA"),
    ("age_bands", {}),
    ("age_bands", "x"),
])
def test_profiles_json_rejects_wrong_json_types(tmp_path, key, value):
    path = tmp_path / "profiles.json"
    dump_profiles({3: support.profile()}, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if key.startswith("age_bands "):
        payload["profiles"][0]["age_bands"][0][key.split()[1]] = value
    else:
        payload["profiles"][0][key] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError, match=f"malformed profile entry: {key}"):
        load_profiles(path)


_BAND = {"years": [2004, 2010], "matrix": [["A"] * 4] * 4}


@pytest.mark.parametrize("pack, message", [
    ([], "top level must be an object, got []"),
    ({"profiles": {"gev_id": 3}}, 'profiles must be a list, got {"gev_id": 3}'),
    ({"profiles": [[3]]}, "profiles[0] must be an object, got [3]"),
    ({"profiles": [{"gev_id": 3, "allowed_kinds": [], "age_bands": [_BAND, [2004, 2010]]}]},
     "age_bands[1] must be an object, got [2004, 2010]"),
], ids=["top-level", "profiles", "entry", "band"])
def test_profiles_json_rejects_wrong_json_types_around_the_keys(tmp_path, pack, message):
    """The containers a pack's keys sit in are type-checked like the keys."""
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(pack), encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_profiles(path)
    assert str(caught.value) == f"{path}: malformed profile entry: {message}"


def test_a_wrong_type_message_echoes_the_start_of_a_long_value(tmp_path):
    pack = tmp_path / "pack.json"
    dump_profiles(default_profiles(), pack)
    path = tmp_path / "profiles.json"
    path.write_text('{"profiles": ' + pack.read_text(encoding="utf-8") + "}", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_profiles(path)
    message = str(caught.value).removeprefix(f"{path}: ")
    assert message.startswith('malformed profile entry: profiles must be a list, got {"profiles"')
    assert len(message) < 150 and message.endswith("...")


# One fault per key, listed in the order in which an entry is read.
_ONE_FAULT = {
    "gev_id": (3.7, "gev_id must be an integer, got 3.7"),
    "name": (5, "name must be a string, got 5"),
    "allowed_kinds": ("review", 'allowed_kinds must be a list, got "review"'),
    "source_policy": (5, "source_policy must be a string, got 5"),
    "split_citation_doctype": ("no", 'split_citation_doctype must be true or false, got "no"'),
    "no_metric_score": ("0.5", 'no_metric_score must be a number, got "0.5"'),
    "non_indexed_score": (None, "non_indexed_score must be a number, got null"),
    "ir_assumed_score": (True, "ir_assumed_score must be a number, got true"),
    "age_bands": ([{"years": [2004.5, 2010]}], "age_bands years must be an integer, got 2004.5"),
    "ir_journal_class_list": ([], "ir_journal_class_list must be an object, got []"),
    "forced_ir_journals": ("J1", 'forced_ir_journals must be a list, got "J1"'),
}
_FAULTS = [*combinations(_ONE_FAULT, 1), *combinations(_ONE_FAULT, 2)]


@pytest.mark.parametrize("keys", _FAULTS, ids=["+".join(keys) for keys in _FAULTS])
def test_of_two_faults_in_an_entry_the_first_read_is_reported(tmp_path, keys):
    """One fault reports its own message; of two, the key read first reports."""
    path = tmp_path / "profiles.json"
    dump_profiles({3: support.profile()}, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    for key in keys:
        payload["profiles"][0][key] = _ONE_FAULT[key][0]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_profiles(path)
    assert str(caught.value) == f"{path}: malformed profile entry: {_ONE_FAULT[keys[0]][1]}"


@pytest.mark.parametrize("fixture", ["mini_university", "witness"])
def test_profiles_json_load_then_dump_keeps_the_bytes(tmp_path, fixture):
    source = Path(__file__).parent / "fixtures" / fixture / "profiles.json"
    dump_profiles(load_profiles(source), tmp_path / "profiles.json")
    assert (tmp_path / "profiles.json").read_bytes() == source.read_bytes()


# SHA-256 of dump_profiles(default_profiles()): its keys, their order and its layout
DEFAULT_PACK_SHA256 = "5db50710f90d2dafae21fbfe3c86c9c572213cb617c1dab44522110c4ee029fe"


def test_default_profiles_dump_keeps_its_bytes(tmp_path):
    path = tmp_path / "profiles.json"
    dump_profiles(default_profiles(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_PACK_SHA256


def test_validate_profiles_names_a_profile_keyed_under_another_panel():
    assert validate_profiles({4: support.profile(3)}) == ["profile keyed 4 declares gev_id 3"]


def test_validate_profiles_band_coverage():
    gappy = support.profile(age_bands=(((2004, 2008), MATURE_PRODUCTS_MATRIX),))
    problems = validate_profiles({3: gappy})
    assert any("2009" in p for p in problems)
    overlapping = support.profile(age_bands=(
        ((2004, 2009), MATURE_PRODUCTS_MATRIX),
        ((2009, 2010), RECENT_PRODUCTS_MATRIX),
    ))
    assert any("overlap" in p for p in validate_profiles({3: overlapping}))


@pytest.mark.parametrize("label, score, problems", [
    ("no_metric_score", 1.5, ["profile 3: no_metric_score 1.5 outside [-2, 1]"]),
    ("non_indexed_score", -2.5, ["profile 3: non_indexed_score -2.5 outside [-2, 1]"]),
    ("ir_assumed_score", 0.12345,
     ["profile 3: ir_assumed_score 0.12345 is not a multiple of 0.0001"]),
    ("no_metric_score", -1.00001,
     ["profile 3: no_metric_score -1.00001 is not a multiple of 0.0001"]),
    ("non_indexed_score", 0.1234, []),
    ("ir_assumed_score", -2.0, []),
    ("no_metric_score", 0.1, []),
])
def test_validate_holds_fallback_scores_to_ten_thousandths_in_range(label, score, problems):
    """Selection totals count ten-thousandths of a point, so a fallback score off that
    grid would print totals other than the sum of the rows written."""
    assert support.profile(**{label: score}).validate() == problems


_spans = st.tuples(st.integers(2000, 2015), st.integers(2000, 2015))


@given(st.lists(_spans, max_size=6), _spans)
def test_band_coverage_messages_match_a_per_year_oracle(spans, window):
    """validate compares band intervals; this oracle holds every year in a set."""
    expected: list[str] = []
    covered: set[int] = set()
    for y0, y1 in spans:
        if y0 > y1:
            expected.append(f"profile 3: age band {y0}-{y1} is reversed")
            continue
        years = set(range(y0, y1 + 1))
        if covered & years:
            expected.append(f"profile 3: age band {y0}-{y1} overlaps another band")
        covered |= years
    missing = sorted(set(range(window[0], window[1] + 1)) - covered)
    if missing:
        expected.append(f"profile 3: age bands do not cover window years {missing}")
    profile = support.profile(age_bands=tuple((span, MATURE_PRODUCTS_MATRIX) for span in spans))
    assert profile.validate(window) == expected
