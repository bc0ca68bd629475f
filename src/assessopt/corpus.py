"""Institutional corpus: roster, products, authorships, validation, and the CSV layer.

Every CSV the program reads or writes goes through read_rows (read_plain_lines and split_line
read a worldvalues.csv by lines, _chunks a corpus with no fault) and write_rows. read_rows
yields each row as a list of its parsed fields in schema order; loaders build records by position.

A corpus is the institution's data only, immutable after loading; the rules
of the exercise that judge it (its years, the kinds each panel accepts) live in
gev. Authorships are normalized to (researcher_id, product_id) order so that
save/load round-trips are exact.
"""

from __future__ import annotations

import csv
import math
from contextlib import suppress
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


def read_rows(
    path: Path, schema: dict[str, Callable[[str], object]]
) -> Iterator[tuple[int, list]]:
    """Yield a CSV's rows as (line, fields) pairs, one at a time, enforcing the
    schema's exact header. fields is a list of the parsed fields in schema order.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped, and
    so are blank lines. A field its parser rejects is a ParseError naming the file,
    line and column.
    """
    if not path.exists():
        raise ParseError("file not found", file=str(path))
    columns = list(schema)
    width = len(columns)
    typed = [(i, parse) for i, parse in enumerate(schema.values()) if parse is not str]
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("empty file, header row required", file=str(path)) from None
            if header != columns:
                raise ParseError(
                    f"bad header {header!r}, expected {columns!r}", file=str(path), line=1
                )
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise ParseError(f"expected {width} fields, got {len(row)}",
                                     file=str(path), line=reader.line_num)
                for i, parse in typed:
                    try:
                        row[i] = parse(row[i])
                    except ValueError:
                        message = f"{columns[i]} is not {_EXPECTED[parse]}: {echo(repr(row[i]))}"
                        raise ParseError(message, str(path), reader.line_num) from None
                yield reader.line_num, row
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(str(exc), file=str(path), line=reader.line_num) from None
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})", file=str(path)
        ) from None


def split_line(line: str) -> list[str]:
    """The fields that csv.reader reads in line; a quote still open at its end takes
    the rest. csv.Error, as Python 3.10 raises at a NUL, is raised as ValueError."""
    try:
        return next(csv.reader((line,)))
    except csv.Error as exc:
        raise ValueError(str(exc)) from None


class NotPlain(ParseError):
    """A file that read_plain_lines leaves to read_rows."""


def read_plain_lines(path: Path, schema: dict) -> Iterator[tuple[int, list[str]]]:
    """Yield a CSV's lines after its header, line ends kept, in batches of (number of
    the first line, lines), and raise NotPlain at the first batch that is not plain.
    A plain file has the schema's header, as split_line reads it, and no NUL (Python
    3.10's csv rejects it) or line over csv.field_size_limit(); it may hold quotes."""
    file, limit, line_no = str(path), csv.field_size_limit(), 1

    def odd(text: str) -> bool:
        return "\0" in text or len(text) > limit

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(fh, "")
            if odd(header) or split_line(header) != list(schema):
                raise NotPlain("not the expected header", file, line_no)
            line_no = 2
            while lines := fh.readlines(1 << 14):
                if odd("".join(lines)):  # the whole batch at once, then each line
                    for n, line in enumerate(lines, line_no):
                        if odd(line):
                            raise NotPlain("NUL or line over the field limit", file, n)
                yield line_no, lines
                line_no += len(lines)
    except UnicodeDecodeError:
        raise NotPlain(f"not UTF-8 text at line {line_no} or after it", file) from None
    except (OSError, ValueError):  # e.g. a missing file, or a NUL in its name
        raise NotPlain("cannot be opened or read", file) from None


def write_rows(path: str | Path, schema: dict, rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV with "\\n" line ends: the schema's header, then the rows.

    None is written as an empty field.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(schema)
        writer.writerows(rows)


def format_number(value: float | int | None) -> str:
    """The shortest text that reads back as the same number.

    None is an empty field; an integral float is written without ".0".
    """
    if value is None:
        return ""
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def number_texts(values: Iterable[float]) -> dict[float, str]:
    """format_number of each distinct value but zero, which a writer formats
    where it meets it: 0.0 and -0.0 are one key but two texts."""
    return {value: format_number(value) for value in set(values) if value}


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


def _record(fields: Sequence, prefix: str, file: str, line: int) -> IndexRecord:
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


def _record_fields(record: IndexRecord | None) -> tuple:
    """The four prefix_ fields of a record, as _record reads them back."""
    if record is None:
        return ("", "", "", "")
    return (";".join(record.subject_categories), format_number(record.journal_metric),
            record.citations, record.journal_id)


class _Decline(ValueError):
    """A doubt of the column path, which sends load_corpus to its row loops."""


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
    violation found, each carrying file and line) for integrity failures.
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
    for line, row in read_rows(products_path, PRODUCT_COLUMNS):
        if row[1] not in PRODUCT_KINDS:  # the product is still registered, below
            violation(products_path, line, f"unknown product kind {row[1]!r}")
        wos, scopus = row[4:8], row[8:]
        p = Product(*row[:4],
                    None if wos == _ABSENT else _record(wos, "wos", products_file, line),
                    None if scopus == _ABSENT else _record(scopus, "scopus", products_file, line))
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
    directory.mkdir(parents=True, exist_ok=True)
    # Researcher and Authorship list their fields in the order of their files' columns.
    write_rows(directory / "researchers.csv", RESEARCHER_COLUMNS,
               [r for _, r in sorted(corpus.researchers.items())])
    write_rows(directory / "products.csv", PRODUCT_COLUMNS, [
        (p.id, p.kind, p.year, "true" if p.fraud_flag else "false",
         *_record_fields(p.wos_record), *_record_fields(p.scopus_record))
        for _, p in sorted(corpus.products.items())
    ])
    write_rows(directory / "authorships.csv", AUTHORSHIP_COLUMNS,
               sorted(corpus.authorships, key=lambda a: a[:2]))

