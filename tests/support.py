"""Shared builders for in-memory corpora, profiles and reference data."""

from __future__ import annotations

from assessopt.corpus import Authorship, Corpus, IndexRecord, Product, Researcher
from assessopt.gev import (
    MATURE_PRODUCTS_MATRIX,
    RECENT_PRODUCTS_MATRIX,
    GevProfile,
    ScoredProduct,
)
from assessopt.reference import ClassThresholds, DistributionKey, ReferenceLibrary

TWO_BANDS = (((2004, 2008), MATURE_PRODUCTS_MATRIX), ((2009, 2010), RECENT_PRODUCTS_MATRIX))


def researcher(rid: str, uda: int = 3, quota: int = 3, sds: str = "") -> Researcher:
    return Researcher(id=rid, sds=sds, uda=uda, quota=quota)


def product(
    pid: str,
    kind: str = "journal-article",
    year: int = 2006,
    citations: int | None = None,
    metric: float | None = None,
    categories: tuple[str, ...] = ("CAT-X",),
    journal: str | None = None,
    scopus: IndexRecord | None = None,
    fraud: bool = False,
) -> Product:
    wos = None
    if citations is not None:
        wos = IndexRecord(
            subject_categories=categories,
            citations=citations,
            journal_metric=metric,
            journal_id=journal,
        )
    return Product(
        id=pid, kind=kind, year=year, fraud_flag=fraud,
        wos_record=wos, scopus_record=scopus,
    )


def corpus(researchers, products, authorships) -> Corpus:
    return Corpus(
        researchers={r.id: r for r in researchers},
        products={p.id: p for p in products},
        authorships=sorted(authorships, key=lambda a: (a.researcher_id, a.product_id)),
    )


def authored(rid: str, pid: str, priority: int | None = None,
             override: int | None = None) -> Authorship:
    return Authorship(
        researcher_id=rid, product_id=pid,
        declared_priority=priority, gev_override=override,
    )


def profile(gev_id: int = 3, **overrides) -> GevProfile:
    defaults = dict(
        gev_id=gev_id,
        name=f"Panel {gev_id}",
        allowed_kinds=frozenset({"journal-article", "review", "conference-proceeding"}),
        age_bands=TWO_BANDS,
    )
    defaults.update(overrides)
    return GevProfile(**defaults)


def library(
    categories: tuple[str, ...] = ("CAT-X",),
    years: tuple[int, ...] = tuple(range(2004, 2011)),
    citation_cuts: tuple[float, float, float] = (10, 20, 30),
    metric_cuts: tuple[float, float, float] = (1, 2, 3),
    doc_splits: tuple[str, ...] = ("any",),
    merge_map: dict[str, str] | None = None,
) -> ReferenceLibrary:
    """Library with uniform thresholds for every (category, year) pair."""
    thresholds = {}
    for category in categories:
        for year in years:
            for split in doc_splits:
                thresholds[DistributionKey("citations", category, year, split)] = (
                    ClassThresholds(*citation_cuts, n=100)
                )
            thresholds[DistributionKey("journal-metric", category, year, "any")] = (
                ClassThresholds(*metric_cuts, n=100)
            )
    return ReferenceLibrary(thresholds=thresholds, merge_map=merge_map or {})


_OUTCOME_BY_SCORE = {
    1.0: ("A", True),
    0.8: ("B", True),
    0.5: ("C", True),
    0.25: ("non-indexed-fallback", False),
    0.0: ("D", True),
    -1.0: ("inadmissible", False),
    -2.0: ("fraud", False),
}


def synth_scored(corpus_, scores: dict[tuple[str, str], float], routing: int = 3):
    """Build a scored map directly from (researcher, product) -> score."""
    scored = {}
    for a in corpus_.authorships:
        key = (a.researcher_id, a.product_id)
        score = scores[key]
        outcome, definite = _OUTCOME_BY_SCORE[score]
        scored[key] = ScoredProduct(
            routing_gev=routing, outcome=outcome, score=score, definite=definite,
        )
    return scored
