"""Reference distributions mapping indicator values onto the four percentile classes.

Thresholds hold the empirical 50th/60th/80th percentiles of a world value
distribution, computed by the nearest-rank rule. A value strictly above the
80th percentile is class 1, down to class 4 at or below the median; ties at
a boundary fall into the lower (worse-numbered) class.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import format_number, number, read_rows, write_rows
from .errors import ParseError, ValidationError

JOURNAL_METRIC = "journal-metric"
CITATIONS = "citations"
INDICATORS = (JOURNAL_METRIC, CITATIONS)
DOC_SPLITS = ("any", "article", "review")

WORLDVALUE_COLUMNS = {
    "indicator": str, "category_group": str, "year": int, "doc_split": str, "value": float,
}
THRESHOLD_COLUMNS = {
    "indicator": str, "category_group": str, "year": int, "doc_split": str,
    "p50": number, "p60": number, "p80": number, "n": int,
}
MERGEMAP_COLUMNS = {"category": str, "category_group": str}


class DistributionKey(NamedTuple):
    indicator: str
    category_group: str
    year: int
    doc_split: str = "any"

    def __str__(self) -> str:
        return f"({self.indicator}, {self.category_group}, {self.year}, {self.doc_split})"


class ClassThresholds(NamedTuple):
    p50: float
    p60: float
    p80: float
    n: int


def build_thresholds(values: Iterable[float]) -> ClassThresholds:
    """Empirical percentile thresholds by the nearest-rank rule.

    The q-th percentile is the value at rank ceil(q*n) in ascending order,
    so thresholds are always actual observed values.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("cannot build thresholds from an empty value list")
    if data[0] < 0:
        raise ValueError("indicator values must be non-negative")

    def nearest_rank(q: float) -> float:
        return float(data[math.ceil(q * n) - 1])

    return ClassThresholds(
        p50=nearest_rank(0.5), p60=nearest_rank(0.6), p80=nearest_rank(0.8), n=n
    )


def classify(value: float, thresholds: ClassThresholds) -> int:
    """Map an indicator value to a class 1-4 (smaller is better)."""
    if value > thresholds.p80:
        return 1
    if value > thresholds.p60:
        return 2
    if value > thresholds.p50:
        return 3
    return 4


class ReferenceLibrary(NamedTuple):
    """Immutable-after-construction store of thresholds plus a category merge map."""

    thresholds: dict[DistributionKey, ClassThresholds]
    merge_map: Mapping[str, str] = MappingProxyType({})

    def best_class(self, indicator: str, categories: Sequence[str], value: float, year: int,
                   doc_split: str) -> int:
        """The best (numerically smallest) class of value over the distributions of the
        categories, each merged by the merge map; a plain tuple finds the equal
        DistributionKey without building one. A category without a stored distribution
        is skipped; when none resolves, the error names each key once, in the order
        first looked up."""
        best = 5  # worse than every class: no category resolved yet
        for category in categories:
            thresholds = self.thresholds.get(
                (indicator, self.merge_map.get(category, category), year, doc_split))
            if thresholds is not None and (cls := classify(value, thresholds)) < best:
                best = cls
        if best == 5:  # then every category is missing
            raise ValidationError(["no reference distribution for any of: " + ", ".join(
                map(str, dict.fromkeys(DistributionKey(
                    indicator, self.merge_map.get(c, c), year, doc_split) for c in categories)))])
        return best


def _distribution_key(fields: Sequence, file: str, line: int) -> DistributionKey:
    indicator, category_group, year, doc_split = fields
    if indicator not in INDICATORS:
        raise ParseError(f"unknown indicator {indicator!r}", file=file, line=line)
    doc_split = doc_split or "any"
    if doc_split not in DOC_SPLITS:
        raise ParseError(f"unknown doc_split {doc_split!r}", file=file, line=line)
    return DistributionKey(indicator, category_group, year, doc_split)


def load_worldvalues(path: str | Path) -> dict[DistributionKey, ClassThresholds]:
    """Read raw world values (one per row) and compute thresholds per key.

    Each key's values are held as 8-byte floats in one array, shared by the key texts
    that name the key (" 2006" and "2006", "" and "any"). A fast path reads 8 KB of text
    a step, a run of 24 lines or more of one key text at once and other lines one by one.
    At a doubt read_rows alone reads the file and names its first fault: a faulty file
    is read twice, as is one with a record on two lines or a refused value.
    """
    from .worldvalues import load  # compiled only where a worldvalues.csv is read
    return load(Path(path))


def load_thresholds(path: str | Path) -> dict[DistributionKey, ClassThresholds]:
    """Read precomputed thresholds; values are trusted but ordering is checked."""
    path = Path(path)
    thresholds: dict[DistributionKey, ClassThresholds] = {}
    for line, row in read_rows(path, THRESHOLD_COLUMNS):
        key = _distribution_key(row[:4], str(path), line)
        if key in thresholds:
            raise ParseError(f"duplicate distribution key {key}", file=str(path), line=line)
        t = ClassThresholds(*row[4:])
        if not t.p50 <= t.p60 <= t.p80:
            raise ParseError(
                f"thresholds out of order: {t.p50} / {t.p60} / {t.p80}",
                file=str(path), line=line,
            )
        if t.n < 1:
            raise ParseError(f"n must be >= 1, got {t.n}", file=str(path), line=line)
        thresholds[key] = t
    return thresholds


def load_mergemap(path: str | Path) -> dict[str, str]:
    path = Path(path)
    merge_map: dict[str, str] = {}
    for line, (category, category_group) in read_rows(path, MERGEMAP_COLUMNS):
        if category in merge_map:
            raise ParseError(f"duplicate merge-map category {category!r}",
                             file=str(path), line=line)
        merge_map[category] = category_group
    return merge_map


def load_reference_dir(directory: str | Path) -> ReferenceLibrary:
    """Assemble a library from a directory.

    Accepts worldvalues.csv (thresholds computed here), thresholds.csv
    (taken as-is), or both; a key present in both is an error. mergemap.csv
    is optional.
    """
    directory = Path(directory)
    worldvalues_path = directory / "worldvalues.csv"
    thresholds_path = directory / "thresholds.csv"
    mergemap_path = directory / "mergemap.csv"

    thresholds: dict[DistributionKey, ClassThresholds] = {}
    if worldvalues_path.exists():
        thresholds.update(load_worldvalues(worldvalues_path))
    if thresholds_path.exists():
        for key, t in load_thresholds(thresholds_path).items():
            if key in thresholds:
                raise ParseError(
                    f"distribution key {key} defined in both worldvalues.csv and thresholds.csv",
                    file=str(thresholds_path),
                )
            thresholds[key] = t
    if not thresholds:
        for path in (worldvalues_path, thresholds_path):
            if path.exists():
                raise ParseError("no data rows after the header", file=str(path))
        raise ParseError(
            "no reference data: need worldvalues.csv or thresholds.csv", file=str(directory)
        )

    merge_map = load_mergemap(mergemap_path) if mergemap_path.exists() else {}
    return ReferenceLibrary(thresholds=thresholds, merge_map=merge_map)


def write_thresholds(
    thresholds: dict[DistributionKey, ClassThresholds], path: str | Path
) -> None:
    """Write thresholds in deterministic key order."""
    write_rows(path, THRESHOLD_COLUMNS, sorted(
        (*key, *map(format_number, t)) for key, t in thresholds.items()
    ))
