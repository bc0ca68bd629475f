"""Institutional corpus: roster, products, authorships, validation, and the CSV layer.

Every CSV the program reads goes through read_lines: read_rows reads a file by rows, _chunks a
corpus file by chunks of lines, worldvalues a worldvalues.csv by runs of lines of one key.
Every CSV it writes goes through write_rows. load_corpus reads each corpus file once: it builds
the corpus from _chunks' columns, each chunk tested by _checked against the rules of _rules,
and read_rows reads a file again only to name a fault of the CSV layer.

A corpus is the institution's data only, immutable after loading; the rules
of the exercise that judge it (its years, the kinds each panel accepts) live in
gev. Authorships are normalized to (researcher_id, product_id) order so that
save/load round-trips are exact.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager, suppress
from itertools import chain, compress, dropwhile, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ParseError, ValidationError

PRODUCT_KINDS = (
    "journal-article", "review", "conference-proceeding", "book", "chapter", "patent", "other",
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
# call. float accepts nan and inf: a column parsed by it needs a range check. The
# text of a numeric field is a numeral first.


def numeral(text: str) -> str:
    """text, unless it holds a "_" or a character outside ASCII: int and float read
    "2_006", "٢" and "２００６" as 2006, 2 and 2006, which a CSV numeral is not."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


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
    """A CSV's lines after its header, line ends kept, as the file object yields them; with
    rows_from(line, lines), which yields the rows that read_rows yields from that line on, a
    csv.reader reading lines, whose first is that line; and csv.field_size_limit(). A leading
    UTF-8 byte-order mark, as spreadsheet exports write, is skipped. A missing or empty file, a
    header other than the schema's columns and text that is not UTF-8 are ParseErrors."""
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
                        row[i] = parse(row[i] if parse is boolean else numeral(row[i]))
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
    """Yield a CSV's rows as (line, fields) pairs, one at a time, enforcing the schema's exact
    header as read_lines does. fields is a list of the parsed fields in schema order. Blank
    lines are skipped. A field its parser rejects is a ParseError naming the file, line and
    column."""
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


_ABSENT = ("", None, None, "")  # a product row's four prefix_ fields without that record


def _record_fields(record: IndexRecord | None) -> tuple:
    """The four prefix_ fields of a record, as load_corpus reads them back."""
    return _ABSENT if record is None else (";".join(record.subject_categories), format_number(
        record.journal_metric), record.citations, record.journal_id)


# --- corpus rules --------------------------------------------------------------
# Each corpus file's rules, in the order a row's are checked: (columns, test, message, *how).
# test takes a chunk's fields of the columns, a list for each, and returns the values that
# break the rule, a row's value being its field of one column, else the tuple of its fields:
# a set, or a dict to the {what} of message, which is formatted with the row's fields by column
# name. how may hold "ends" (a row that breaks the rule is checked no further), "parse" (the
# first row that breaks it is a ParseError) and "unique": test then returns each row's key,
# falsy for none; a row with the key of an earlier row of the file breaks the rule, and {what}
# is the last such row's field of the rule's last column.


def _outside(low: float, high: float) -> Callable:
    return lambda values: {v for v in values if v is not None and not low <= v <= high}


def _lacking(*fields: list) -> dict:  # four empty prefix_ fields are no record
    return {r: "citation count" if r[0].strip(";") else "subject categories"
            for r in zip(*fields) if (r[2] is None or not r[0].strip(";")) and r != _ABSENT}


def _rules(researchers: dict, products: dict) -> tuple[tuple[tuple, ...], ...]:
    """The rules of the three corpus files, for a load that registers ids in the two dicts."""
    return ((
        (("id",), {""}.intersection, "empty researcher id", "ends"),
        (("id",), list, "duplicate researcher id {id!r}", "ends", "unique"),
        (("quota",), _outside(0, MAX_QUOTA), f"quota {{quota}} outside 0..{MAX_QUOTA}"),
        (("uda",), _outside(1, 14), "uda {uda} outside 1..14"),
        (("sds", "uda"), lambda *fields: {(sds, uda): area for sds, uda in zip(*fields) if (
            area := SDS_AREA_BY_PREFIX.get(sds.split("/")[0], uda)) != uda},
         "sds {sds!r} belongs to area {what}, not {uda}"),
    ), (
        (("kind",), lambda kinds: {*kinds} - {*PRODUCT_KINDS}, "unknown product kind {kind!r}"),
        *(((f"{p}_categories", f"{p}_metric", f"{p}_citations", f"{p}_journal_id"), _lacking,
           f"{p} record present but has no {{what}}", "parse") for p in ("wos", "scopus")),
        (("id",), {""}.intersection, "empty product id", "ends"),
        (("id",), list, "duplicate product id {id!r}", "ends", "unique"),
        *(((f"{p}_{field}",), _outside(0, math.inf), f"{p} {field} {{{p}_{field}}} negative")
          for p in ("wos", "scopus") for field in ("citations", "metric")),
    ), (
        (("researcher_id",), lambda ids: {*ids}.difference(researchers),
         "unknown researcher id {researcher_id!r}"),
        (("product_id",), lambda ids: {*ids}.difference(products),
         "unknown product id {product_id!r}"),
        (("researcher_id", "product_id"), lambda *fields: [*zip(*fields)],
         "duplicate authorship ({researcher_id!r}, {product_id!r})", "unique"),
        (("declared_priority",), _outside(1, math.inf),
         "declared_priority {declared_priority} < 1"),
        (("researcher_id", "declared_priority", "product_id"),
         lambda ids, ranks, _: [(rank or 0) > 0 and (rid, rank) for rid, rank in zip(ids, ranks)],
         "researcher {researcher_id!r} already declared priority {declared_priority} on "
         "{what!r}", "unique"),
        (("gev_override",), _outside(1, 9), "gev_override {gev_override} outside 1..9"),
    ))


def _checked(path: Path, schema: dict, rules: tuple, violations: list, texts: dict) -> Iterator:
    """_chunks' columns of a corpus file, texts as _chunks takes it. Before a chunk's are
    yielded, its rows' violations of rules go to violations in line and rule order, save a
    row's after a rule that ends it; the first row that breaks a "parse" rule is a ParseError."""
    keys = {}  # each "unique" rule's: {key: what the last row with the key gives}
    for columns, lines in _chunks(path, schema, texts):
        fields, faults, ended = dict(zip(schema, columns)), [], 0
        for order, (names, test, _, *how) in enumerate(rules):
            found = test(*map(fields.get, names))
            if "unique" in how:
                seen, last = keys.setdefault(order, {}), fields[names[-1]]
                new = dict(filter(itemgetter(0), zip(found, last)))
                if len(new) < sum(map(bool, found)) or not seen.keys().isdisjoint(new):
                    for k, key in compress(enumerate(found), found):
                        if key in seen:
                            faults.append((lines[k], order, k, seen[key]))
                        seen[key] = last[k]
                seen.update(new)
            elif found:
                values = zip(*map(fields.get, names)) if names[1:] else fields[names[0]]
                faults += ((lines[k], order, k, found[v] if type(found) is dict else v)
                           for k, v in enumerate(values) if v in found)
        for line, order, k, what in sorted(faults):
            if line != ended:
                _, _, message, *how = rules[order]
                message = message.format(what=what, **{n: f[k] for n, f in fields.items()})
                if "parse" in how:
                    raise ParseError(message, str(path), line)
                violations.append(f"{path}:{line}: {message}")
                ended = line if "ends" in how else 0
        yield columns


CHUNK_LINES = 512  # 2,048 loaded bench wide in 39.6 ms against 32.9, peak memory 1.8 MB higher


def _chunks(path: Path, schema: dict, texts: dict) -> Iterator[tuple[list, Sequence[int]]]:
    """A CSV's rows after its header, CHUNK_LINES lines at a time, as (columns, each row's
    line): each distinct typed text parsed once, a text of a column in texts ({column: {text:
    str}}) taken from there, and a blank row dropped. A chunk that csv would read as split at
    "," and "\\n" is split so: lines ending in "\\n", each of len(schema) fields, with no '"',
    "\\r" or NUL, in all within csv's field limit. csv reads every other chunk, on to the end
    of a record that runs past its last line. read_rows names a fault of the CSV layer (a width,
    a field its parser refuses, an error of csv, text that is not UTF-8): its rows from the
    chunk on to its ParseError are a last chunk, then the ParseError is raised."""
    typed = [(i, texts.get(column, {}), parse) for i, (column, parse) in enumerate(schema.items())
             if parse is not str or column in texts]
    width, first = len(schema), 2
    with read_lines(path, schema) as (fh, _, limit):
        with suppress(ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
            while lines := list(islice(fh, CHUNK_LINES)):
                block, count, fields, firsts = "".join(lines), len(lines), [], []
                if (block[-1] == "\n" and len(block) <= limit
                        and not any(map(block.__contains__, '"\r\0'))):
                    lines = []  # freed before the split, for less peak memory
                    # A break opens the field after it, the last one alone: every line has width
                    # fields iff all have width * count and every width-th field opens with one.
                    fields = block.replace("\n", ",\n").split(",")
                    firsts = "".join(fields[::width]).split("\n")
                if len(fields) == width * count + 1 and len(firsts) == count + 1:
                    columns = [firsts[:-1], *(fields[i::width] for i in range(1, width))]
                    numbers = range(first, first + count)
                else:  # io.StringIO yields the lines of the block as the file did
                    reader = csv.reader(chain(lines or io.StringIO(block, newline=""), fh))
                    rows, numbers = [], []
                    for row in reader:
                        if row:
                            rows.append(row)
                            numbers.append(first - 1 + reader.line_num)
                        if reader.line_num >= count:
                            break
                    if set(map(len, rows)) - {width}:
                        break
                    columns, count = [*zip(*rows)] or [()] * width, reader.line_num
                for i, known, parse in typed:
                    if new := set(columns[i]).difference(known):
                        parse in (str, boolean) or numeral("".join(new))
                        known.update(zip(new, map(parse, new)))
                    columns[i] = list(map(known.__getitem__, columns[i]))
                yield columns, numbers
                first += count
            else:
                return
    rows = []
    try:
        rows.extend(dropwhile(lambda row: row[0] < first, read_rows(path, schema)))
    except ParseError:
        if rows:  # a "parse" rule may break on one of them, before the fault
            yield [*zip(*map(itemgetter(1), rows))], [*map(itemgetter(0), rows)]
        raise
    raise AssertionError(f"{path}: read_rows found no fault in a chunk that _chunks refused")


def load_corpus(researchers_path: str | Path, products_path: str | Path,
                authorships_path: str | Path) -> Corpus:
    """Load and fully validate a corpus from its three CSV files, by the rules of _rules: a
    ParseError for unreadable input, the first in file and line order, else a ValidationError
    with every violation, each naming file and line, in file, line and rule order."""
    researchers, products, categories, texts_of, authorships, violations = {}, {}, {}, {}, [], []
    files = zip(map(Path, (researchers_path, products_path, authorships_path)),
                (RESEARCHER_COLUMNS, PRODUCT_COLUMNS, AUTHORSHIP_COLUMNS),
                _rules(researchers, products), repeat(violations))
    for ids, sds, udas, quotas in _checked(*next(files), {}):
        researchers.update(zip(ids, map(tuple.__new__, repeat(Researcher), zip(ids, sds, udas, map(
            {None: Researcher._field_defaults["quota"]}.get, quotas, quotas)))))
    researchers.pop("", None)  # an empty id registers no researcher
    for ids, kinds, years, flags, *texts in _checked(*next(files), {}):
        categories.update((text, names) for text in set(texts[0] + texts[4]).difference(categories)
                          if (names := tuple(filter(None, text.split(";")))))
        texts_of.update((text, text or None)  # one str per kind and journal id, None for ""
                        for text in set(kinds + texts[3] + texts[7]).difference(texts_of))
        wos, scopus = ([tuple.__new__(IndexRecord, (categories[c], n, m, texts_of[j]))
                        if n is not None else None  # _checked passes only whole records
                        for c, m, n, j in zip(*texts[i:i + 4])] for i in (0, 4))
        products.update(zip(ids, map(tuple.__new__, repeat(Product), zip(
            ids, map(texts_of.__getitem__, kinds), years, flags, wos, scopus))))
    products.pop("", None)
    ids = kinds = texts = wos = scopus = None  # the last chunk's texts, freed
    interned = {"researcher_id": dict(zip(researchers, researchers)),  # one str per id
                "product_id": dict(zip(products, products))}
    for columns in _checked(*next(files), interned):
        authorships += map(tuple.__new__, repeat(Authorship), zip(*columns))
    if violations:
        raise ValidationError(violations)
    authorships.sort()  # the pairs are unique, so no later field is compared
    return Corpus(researchers, products, authorships)


def load_corpus_dir(directory: str | Path) -> Corpus:
    """Load a corpus from a directory holding the three conventionally named files."""
    names = ("researchers.csv", "products.csv", "authorships.csv")
    return load_corpus(*map(Path(directory).joinpath, names))


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

