"""Institutional corpus: roster, products, authorships, validation, and the CSV layer.

Every CSV the program reads goes through read_lines (read_rows reads on by rows from its first
line; a worldvalues.csv is read a block of lines at a time) or _chunks, and every one it writes
through write_rows.
read_rows yields each row as a list of its parsed fields in schema order; loaders build records
by position. Only _load_columns builds a corpus, from _chunks: where it doubts the files, the
row loops of load_corpus read them with read_rows, only to name each fault.

A corpus is the institution's data only, immutable after loading; the rules
of the exercise that judge it (its years, the kinds each panel accepts) live in
gev. Authorships are normalized to (researcher_id, product_id) order so that
save/load round-trips are exact.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager, suppress
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ParseError, ValidationError

PRODUCT_KINDS = (
    "journal-article",
    "review",
    "conference-proceeding",
    "book",
    "chapter",
    "patent",
    "other",
)

MAX_QUOTA = 6

# Disciplinary areas evaluated bibliometrically; 10-14 are peer-review only.
BIBLIOMETRIC_UDAS = frozenset(range(1, 10))

# Sector-code prefix (text before "/") -> disciplinary area, for roster cross-checks.
SDS_AREA_BY_PREFIX = {
    "MAT": 1, "INF": 1,
    "FIS": 2,
    "CHIM": 3,
    "GEO": 4,
    "BIO": 5,
    "MED": 6,
    "AGR": 7, "VET": 7,
    "ICAR": 8,
    "ING-IND": 9, "ING-INF": 9,
    "L-ANT": 10, "L-ART": 10, "L-FIL-LET": 10, "L-LIN": 10, "L-OR": 10,
    "M-DEA": 11, "M-EDF": 11, "M-FIL": 11, "M-GGR": 11, "M-PED": 11,
    "M-PSI": 11, "M-STO": 11,
    "IUS": 12,
    "SECS-P": 13, "SECS-S": 13,
    "SPS": 14,
}


class Researcher(NamedTuple):
    """Roster entry: sector code, disciplinary area, and how many products are due."""

    id: str
    sds: str
    uda: int
    quota: int = 3


class IndexRecord(NamedTuple):
    """Snapshot of one bibliographic index entry for a product."""

    subject_categories: tuple[str, ...]
    citations: int
    journal_metric: float | None = None
    journal_id: str | None = None


class Product(NamedTuple):
    id: str
    kind: str
    year: int
    fraud_flag: bool = False
    wos_record: IndexRecord | None = None
    scopus_record: IndexRecord | None = None

    @property
    def indexed(self) -> bool:
        return self.wos_record is not None or self.scopus_record is not None


class Authorship(NamedTuple):
    """Link between a researcher and a product they authored.

    declared_priority is the rank the researcher proposed the product at
    (1 = best); absent means the product was not proposed. gev_override
    routes the product to a panel other than the researcher's own area.
    """

    researcher_id: str
    product_id: str
    declared_priority: int | None = None
    gev_override: int | None = None


class Corpus(NamedTuple):
    researchers: dict[str, Researcher]
    products: dict[str, Product]
    authorships: list[Authorship]


# --- CSV layer ---------------------------------------------------------------
# A schema maps each column of a file to the parser of its fields, which returns
# the field's value or raises ValueError. str marks a text column and costs no
# call. float accepts nan and inf: a column parsed by it needs a range check.


def optional_int(text: str) -> int | None:
    return int(text) if text else None


def number(text: str) -> float:
    """A finite float: nan and inf are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def optional_number(text: str) -> float | None:
    return number(text) if text else None


def boolean(text: str) -> bool:
    token = text.strip().lower()
    if token in ("", "false", "0"):
        return False
    if token in ("true", "1"):
        return True
    raise ValueError(text)


# What each parser expects, for the message when it raises ValueError.
_EXPECTED = {int: "an integer", optional_int: "an integer", float: "a number",
             number: "a finite number", optional_number: "a finite number", boolean: "a boolean"}


def echo(text: str) -> str:
    """text as a message quotes it: its first 60 characters, with "..." when cut."""
    return text if len(text) <= 60 else text[:60] + "..."


@contextmanager
def read_lines(path: Path, schema: dict) -> Iterator[tuple[Iterator, Callable, int]]:
    """A CSV's lines after its header, line ends kept, as the file object yields them;
    with rows_from(line, lines), which yields the rows that read_rows yields from that
    line on, a csv.reader reading lines, whose first is that line; and
    csv.field_size_limit().

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped. A
    missing or empty file, a header other than the schema's columns and text that is
    not UTF-8 are ParseErrors.
    """
    file, columns, width = str(path), list(schema), len(schema)
    typed = [(i, parse) for i, parse in enumerate(schema.values()) if parse is not str]
    if not path.exists():
        raise ParseError("file not found", file=file)

    def rows_from(first: int, lines: Iterable[str]) -> Iterator[tuple[int, list]]:
        reader, offset = csv.reader(lines), first - 1
        try:
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise ParseError(f"expected {width} fields, got {len(row)}",
                                     file, offset + reader.line_num)
                for i, parse in typed:
                    try:
                        row[i] = parse(row[i])
                    except ValueError:
                        message = f"{columns[i]} is not {_EXPECTED[parse]}: {echo(repr(row[i]))}"
                        raise ParseError(message, file, offset + reader.line_num) from None
                yield offset + reader.line_num, row
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ParseError(str(exc), file, offset + reader.line_num) from None

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("empty file, header row required", file=file) from None
            except csv.Error as exc:
                raise ParseError(str(exc), file, reader.line_num) from None
            if header != columns:
                raise ParseError(f"bad header {header!r}, expected {columns!r}", file, 1)
            yield fh, rows_from, csv.field_size_limit()  # a valid header is one line
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})", file=file
        ) from None


def read_rows(path: Path, schema: dict) -> Iterator[tuple[int, list]]:
    """Yield a CSV's rows as (line, fields) pairs, one at a time, enforcing the
    schema's exact header as read_lines does. fields is a list of the parsed fields
    in schema order. Blank lines are skipped. A field its parser rejects is a
    ParseError naming the file, line and column.
    """
    with read_lines(path, schema) as (lines, rows_from, _):
        yield from rows_from(2, lines)


def write_rows(path: str | Path, schema: dict, rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV with "\\n" line ends: the schema's header, then the rows.

    None is written as an empty field. Missing parent directories are created. Rows go
    64 at a time: a chunk whose fields are all str is written as them joined by ","
    and "\\n", unless that text shows a field that csv would quote. csv writes the rest.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer, rows = csv.writer(fh, lineterminator="\n"), chain([schema], rows)
        while chunk := list(islice(rows, 64)):
            with suppress(TypeError):  # a field that is not a str, which csv formats
                text = "\n".join(map(",".join, chunk)) + "\n"
                # The joins put one "," or "\n" after each field. One more, a '"' or a "\r"
                # is in a field csv may quote, as is an empty line: a row of one empty field.
                if (sum(map(text.count, ',\n"\r')) == sum(map(len, chunk))
                        and "\n\n" not in "\n" + text):
                    fh.write(text)
                    continue
            writer.writerows(chunk)


def format_number(value: float | None) -> str:
    """The shortest text that reads back as the same number.

    None is an empty field; an integral float is written without ".0".
    """
    return "" if value is None else repr(value).removesuffix(".0")


RESEARCHER_COLUMNS = {"id": str, "sds": str, "uda": int, "quota": optional_int}
PRODUCT_COLUMNS = {
    "id": str, "kind": str, "year": int, "fraud_flag": boolean,
    "wos_categories": str, "wos_metric": optional_number,
    "wos_citations": optional_int, "wos_journal_id": str,
    "scopus_categories": str, "scopus_metric": optional_number,
    "scopus_citations": optional_int, "scopus_journal_id": str,
}
AUTHORSHIP_COLUMNS = {
    "researcher_id": str, "product_id": str,
    "declared_priority": optional_int, "gev_override": optional_int,
}


_ABSENT = ["", None, None, ""]  # a product row's four prefix_ fields without that record


def _record_fields(record: IndexRecord | None) -> tuple:
    """The four prefix_ fields of a record, as _load_columns reads them back."""
    return _ABSENT if record is None else (";".join(record.subject_categories), format_number(
        record.journal_metric), record.citations, record.journal_id)


class _Decline(ValueError):
    """A doubt of the column path, which sends load_corpus to its row loops to name the faults."""


_KINDS = dict(zip(PRODUCT_KINDS, PRODUCT_KINDS))
_RANGES = {"uda": (1, 14), "quota": (0, MAX_QUOTA), "declared_priority": (1, math.inf),
           "gev_override": (1, 9), "wos_metric": (0, math.inf), "wos_citations": (0, math.inf),
           "scopus_metric": (0, math.inf), "scopus_citations": (0, math.inf)}
_NO_RECORD = {("", None, ""): None}  # a missing record's other fields; others are a KeyError


def _chunks(path: Path, schema: dict) -> Iterator[list]:
    """A CSV's rows after its header as columns, up to 512 at a time, each distinct typed
    text parsed and range-checked once; a blank row is dropped, and another width declined."""
    typed = [(i, {}, parse, *_RANGES.get(column, (-math.inf, math.inf)))
             for i, (column, parse) in enumerate(schema.items()) if parse is not str]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(schema):
            raise _Decline
        while rows := list(islice(reader, 512)):  # faster than 2,048 rows, and less memory
            if set(map(len, rows)) - {0, len(schema)}:
                raise _Decline
            if columns := list(zip(*filter(None, rows))):
                for i, known, parse, low, high in typed:
                    for text in set(columns[i]).difference(known):
                        value = known[text] = parse(text)
                        if value is not None and not low <= value <= high:
                            raise _Decline
                    columns[i] = list(map(known.__getitem__, columns[i]))
                yield columns


def _load_columns(researchers_path: Path, products_path: Path, authorships_path: Path) -> Corpus:
    """load_corpus by columns: each rule of its row loops is a test over columns or ids."""
    researchers, products, categories, journals, rows = {}, {}, {}, {}, 0
    for ids, sds, udas, quotas in _chunks(researchers_path, RESEARCHER_COLUMNS):
        if any(SDS_AREA_BY_PREFIX.get(s.split("/")[0], u) != u for s, u in set(zip(sds, udas))):
            raise _Decline
        researchers.update(zip(ids, map(tuple.__new__, repeat(Researcher), zip(ids, sds, udas, map(
            {None: Researcher._field_defaults["quota"]}.get, quotas, quotas)))))
        rows += len(ids)
    for ids, kinds, years, flags, *texts in _chunks(products_path, PRODUCT_COLUMNS):
        categories.update((text, names) for text in set(texts[0] + texts[4]).difference(categories)
                          if (names := tuple(filter(None, text.split(";")))))
        journals.update((text, text or None)
                        for text in set(texts[3] + texts[7]).difference(journals))
        wos, scopus = ([tuple.__new__(IndexRecord, (categories[c], n, m, journals[j]))
                        if n is not None else _NO_RECORD[c, m, j]
                        for c, m, n, j in zip(*texts[i:i + 4])] for i in (0, 4))
        products.update(zip(ids, map(tuple.__new__, repeat(Product), zip(
            ids, map(_KINDS.__getitem__, kinds), years, flags, wos, scopus))))
        rows += len(ids)
    rids, pids = (dict(zip(ids, ids)) for ids in (researchers, products))  # one str per id
    authorships = list(chain.from_iterable(map(tuple.__new__, repeat(Authorship), zip(
        map(rids.__getitem__, rid), map(pids.__getitem__, pid), priorities, overrides))
        for rid, pid, priorities, overrides in _chunks(authorships_path, AUTHORSHIP_COLUMNS)))
    claims = list(filter(itemgetter(1), map(itemgetter(0, 2), authorships)))  # priorities >= 1
    if ("" in researchers or "" in products or len(researchers) + len(products) != rows
            or len(set(map(itemgetter(0, 1), authorships))) < len(authorships)
            or len(set(claims)) < len(claims)):
        raise _Decline
    authorships.sort()  # the pairs are unique, so no later field is compared
    return Corpus(researchers, products, authorships)


def load_corpus(
    researchers_path: str | Path,
    products_path: str | Path,
    authorships_path: str | Path,
) -> Corpus:
    """Load and fully validate a corpus from its three CSV files.

    Raises ParseError for unreadable input and ValidationError (with every
    violation found, each carrying file and line) for integrity failures. The row
    loops below, run where _load_columns doubts the files, only name these.
    """
    researchers_path = Path(researchers_path)
    products_path = Path(products_path)
    authorships_path = Path(authorships_path)
    with suppress(ValueError, KeyError, csv.Error, OSError):  # the row loops below name faults
        return _load_columns(researchers_path, products_path, authorships_path)
    violations: list[str] = []

    def violation(path: Path, line: int, message: str) -> None:
        # The file:line prefix is built only for a row that breaks a rule.
        violations.append(f"{path}:{line}: {message}")

    researchers: set[str] = set()
    for line, (rid, sds, uda, quota) in read_rows(researchers_path, RESEARCHER_COLUMNS):
        if not rid:
            violation(researchers_path, line, "empty researcher id")
            continue
        if rid in researchers:
            violation(researchers_path, line, f"duplicate researcher id {rid!r}")
            continue
        if quota is not None and not 0 <= quota <= MAX_QUOTA:  # empty: the default, 3
            violation(researchers_path, line, f"quota {quota} outside 0..{MAX_QUOTA}")
        if not 1 <= uda <= 14:
            violation(researchers_path, line, f"uda {uda} outside 1..14")
        if (expected := SDS_AREA_BY_PREFIX.get(sds.split("/")[0], uda)) != uda:
            violation(researchers_path, line, f"sds {sds!r} belongs to area {expected}, not {uda}")
        researchers.add(rid)

    products: set[str] = set()
    for line, row in read_rows(products_path, PRODUCT_COLUMNS):
        if row[1] not in PRODUCT_KINDS:  # the product is still registered, below
            violation(products_path, line, f"unknown product kind {row[1]!r}")
        records = [(label, row[i:i + 4]) for label, i in (("wos", 4), ("scopus", 8))
                   if row[i:i + 4] != _ABSENT]
        for label, (text, _, citations, _) in records:
            if not text.strip(";") or citations is None:
                what = "citation count" if text.strip(";") else "subject categories"
                raise ParseError(f"{label} record present but has no {what}",
                                 str(products_path), line)
        if not row[0]:
            violation(products_path, line, "empty product id")
            continue
        if row[0] in products:
            violation(products_path, line, f"duplicate product id {row[0]!r}")
            continue
        for label, (_, metric, citations, _) in records:
            if citations < 0:
                violation(products_path, line, f"{label} citations {citations} negative")
            if metric is not None and metric < 0:
                violation(products_path, line, f"{label} metric {metric} negative")
        products.add(row[0])

    seen_pairs: set[tuple[str, str]] = set()
    priorities: dict[str, dict[int, str]] = {}
    for line, (rid, pid, priority, override) in read_rows(authorships_path, AUTHORSHIP_COLUMNS):
        if rid not in researchers:
            violation(authorships_path, line, f"unknown researcher id {rid!r}")
        if pid not in products:
            violation(authorships_path, line, f"unknown product id {pid!r}")
        if (rid, pid) in seen_pairs:
            violation(authorships_path, line, f"duplicate authorship {(rid, pid)!r}")
        seen_pairs.add((rid, pid))
        if priority is not None:
            if priority < 1:
                violation(authorships_path, line, f"declared_priority {priority} < 1")
            else:
                taken = priorities.setdefault(rid, {})
                if priority in taken:
                    violation(authorships_path, line, f"researcher {rid!r} already declared "
                              f"priority {priority} on {taken[priority]!r}")
                taken[priority] = pid
        if override is not None and not 1 <= override <= 9:
            violation(authorships_path, line, f"gev_override {override} outside 1..9")

    if not violations:  # each doubt of the column path is a fault that a rule above names
        raise AssertionError(f"{researchers_path}: the column path declined a faultless corpus")
    raise ValidationError(violations)


def load_corpus_dir(directory: str | Path) -> Corpus:
    """Load a corpus from a directory holding the three conventionally named files."""
    directory = Path(directory)
    return load_corpus(
        directory / "researchers.csv",
        directory / "products.csv",
        directory / "authorships.csv",
    )


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write the corpus back to the three CSV files in deterministic order."""
    directory = Path(directory)
    # Researcher and Authorship list their fields in the order of their files' columns.
    write_rows(directory / "researchers.csv", RESEARCHER_COLUMNS,
               sorted(corpus.researchers.values()))
    write_rows(directory / "products.csv", PRODUCT_COLUMNS, [
        (p.id, p.kind, p.year, "true" if p.fraud_flag else "false",
         *_record_fields(p.wos_record), *_record_fields(p.scopus_record))
        for p in sorted(corpus.products.values())
    ])
    # The (researcher, product) pairs are unique, so no later field is compared.
    write_rows(directory / "authorships.csv", AUTHORSHIP_COLUMNS, sorted(corpus.authorships))

