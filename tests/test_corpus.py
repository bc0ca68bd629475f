"""Corpus loading, validation and the CSV layer; admissibility of loaded products."""

from __future__ import annotations

import ast
import contextlib
import csv
import importlib
import inspect
import io
import itertools
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import assessopt
from assessopt import cli, corpus as corpus_module
from assessopt.corpus import (
    AUTHORSHIP_COLUMNS,
    PRODUCT_COLUMNS,
    PRODUCT_KINDS,
    RESEARCHER_COLUMNS,
    Authorship,
    Corpus,
    IndexRecord,
    Product,
    Researcher,
    load_corpus,
    load_corpus_dir,
    read_rows,
    save_corpus,
    write_rows,
)
from assessopt.errors import ParseError, ValidationError
from assessopt.gev import DEFAULT_WINDOW, SCORED_COLUMNS, ScoredProduct, score_product, write_scored
from assessopt.reference import (
    MERGEMAP_COLUMNS,
    THRESHOLD_COLUMNS,
    WORLDVALUE_COLUMNS,
    ClassThresholds,
    DistributionKey,
)
from assessopt.selection import (
    SCENARIO1, SELECTION_COLUMNS, build_sets, scenario1, write_selections,
)

import support
from bruteforce import load_corpus_by_rows

MINI = Path(__file__).parent / "fixtures" / "mini_university"

RESEARCHERS = """\
id,sds,uda,quota
R1,CHIM/06,3,3
R2,MAT/05,1,2
"""

PRODUCTS = """\
id,kind,year,fraud_flag,wos_categories,wos_metric,wos_citations,wos_journal_id,scopus_categories,scopus_metric,scopus_citations,scopus_journal_id
P1,journal-article,2006,false,Organic Chemistry,2.5,14,J1,,,,
P2,review,2009,false,Organic Chemistry;Applied Chemistry,3.1,40,J2,SJR Chemistry,1.2,38,SJ2
P3,book,2005,false,,,,,,,,
"""

AUTHORSHIPS = """\
researcher_id,product_id,declared_priority,gev_override
R1,P1,1,
R1,P2,2,
R2,P1,,3
R2,P3,1,
"""


def write_corpus(tmp_path, researchers=RESEARCHERS, products=PRODUCTS,
                 authorships=AUTHORSHIPS):
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "researchers.csv").write_text(researchers, encoding="utf-8")
    (tmp_path / "products.csv").write_text(products, encoding="utf-8")
    (tmp_path / "authorships.csv").write_text(authorships, encoding="utf-8")
    return tmp_path


def test_load_well_formed(tmp_path):
    corpus = load_corpus_dir(write_corpus(tmp_path))
    assert len(corpus.researchers) == 2
    assert len(corpus.products) == 3
    assert len(corpus.authorships) == 4
    p2 = corpus.products["P2"]
    assert p2.wos_record.subject_categories == ("Organic Chemistry", "Applied Chemistry")
    assert p2.scopus_record.citations == 38
    assert corpus.products["P3"].indexed is False
    priorities = {
        (a.researcher_id, a.product_id): a.declared_priority for a in corpus.authorships
    }
    assert priorities[("R2", "P1")] is None
    assert priorities[("R2", "P3")] == 1


def test_unknown_product_reference(tmp_path):
    bad = AUTHORSHIPS + "R1,P9,3,\n"
    with pytest.raises(ValidationError) as exc:
        load_corpus_dir(write_corpus(tmp_path, authorships=bad))
    message = str(exc.value)
    assert "P9" in message
    assert "authorships.csv:6" in message


def test_duplicate_declared_priority(tmp_path):
    bad = AUTHORSHIPS + "R1,P3,1,\n"
    with pytest.raises(ValidationError) as exc:
        load_corpus_dir(write_corpus(tmp_path, authorships=bad))
    assert "priority 1" in str(exc.value)


def test_duplicate_keys(tmp_path):
    with pytest.raises(ValidationError) as exc:
        load_corpus_dir(write_corpus(tmp_path, researchers=RESEARCHERS + "R1,CHIM/06,3,3\n"))
    assert "duplicate researcher id" in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        load_corpus_dir(write_corpus(
            tmp_path,
            products=PRODUCTS + "P1,journal-article,2006,false,X,,3,,,,,\n",
        ))
    assert "duplicate product id" in str(exc.value)


def test_quota_and_uda_bounds(tmp_path):
    with pytest.raises(ValidationError) as exc:
        load_corpus_dir(write_corpus(tmp_path, researchers=RESEARCHERS + "R3,CHIM/01,3,7\n"))
    assert "quota 7" in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        load_corpus_dir(write_corpus(tmp_path, researchers=RESEARCHERS + "R3,,15,3\n"))
    assert "uda 15" in str(exc.value)


def test_sds_uda_mismatch(tmp_path):
    with pytest.raises(ValidationError) as exc:
        load_corpus_dir(write_corpus(tmp_path, researchers=RESEARCHERS + "R3,CHIM/06,5,3\n"))
    assert "area 3" in str(exc.value)


def test_peer_review_area_loads(tmp_path):
    corpus = load_corpus_dir(write_corpus(tmp_path, researchers=RESEARCHERS + "R3,IUS/01,12,3\n"))
    assert corpus.researchers["R3"].uda == 12


def test_round_trip(tmp_path):
    loaded = load_corpus_dir(write_corpus(tmp_path / "in"))
    save_corpus(loaded, tmp_path / "out")
    reloaded = load_corpus_dir(tmp_path / "out")
    assert reloaded == loaded


def test_save_corpus_writes_the_fixture_bytes(tmp_path):
    save_corpus(load_corpus_dir(MINI), tmp_path)
    for name in ("researchers.csv", "products.csv", "authorships.csv"):
        assert (tmp_path / name).read_bytes() == (MINI / name).read_bytes(), name


metrics = st.none() | st.floats(min_value=0, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(metrics, metrics), min_size=1, max_size=5))
def test_round_trip_keeps_every_metric_exactly(tmp_path_factory, metric_pairs):
    products = [
        support.product(
            f"P{i}", citations=i, metric=wos,
            scopus=IndexRecord(subject_categories=("S",), citations=i, journal_metric=scopus),
        )
        for i, (wos, scopus) in enumerate(metric_pairs)
    ]
    corpus = support.corpus(
        [support.researcher("R1")],
        products,
        [support.authored("R1", p.id, priority=i + 1) for i, p in enumerate(products)],
    )
    out = tmp_path_factory.mktemp("corpus")
    save_corpus(corpus, out)
    assert load_corpus_dir(out) == corpus


def _write_selections(corpus, scored, path):
    problem = build_sets(corpus, scored)
    write_selections(problem, {SCENARIO1: scenario1(problem)}, path)


@pytest.mark.parametrize("write, schema, column", [
    (lambda corpus, scored, path: write_scored(scored, path), SCORED_COLUMNS, "score"),
    (_write_selections, SELECTION_COLUMNS, "score_or_penalty"),
], ids=["scored.csv", "selection.csv"])
def test_written_scores_read_back_exactly(tmp_path, write, schema, column):
    corpus = support.corpus(
        [support.researcher("R1", quota=1)],
        [support.product("P1")],
        [support.authored("R1", "P1", priority=1)],
    )
    # a profile's assumed score need not have a short decimal form
    scored = {("R1", "P1"): ScoredProduct(3, "IR", 1 / 3, False)}
    write(corpus, scored, tmp_path / "out.csv")
    [(_, row)] = read_rows(tmp_path / "out.csv", schema)
    assert row[list(schema).index(column)] == 1 / 3


def _csv_bytes(schema: dict, rows) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(schema)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


_PLAIN_IDS = st.sampled_from(["R000001", "P0000001", "CHIM/06", "x", "0.25"])
# ids that hold what csv quotes (",", '"', "\r", "\n") or keeps as it is (U+2028, spaces)
_ODD_IDS = st.text(st.sampled_from(["a", ",", '"', "\r", "\n", "\u2028", " "]), max_size=4)
_FIELDS = st.one_of(_PLAIN_IDS, _ODD_IDS, st.just(""), st.none(), st.integers(-3, 10**12),
                    st.sampled_from([-0.0, 0.0, 1e-05, 0.25, 1 / 3, 1e16, -2.5]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 200, 700]),
       st.lists(st.tuples(_PLAIN_IDS, _PLAIN_IDS, _PLAIN_IDS), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 699), st.one_of(
           st.lists(_FIELDS, min_size=1, max_size=4),
           st.lists(st.one_of(_PLAIN_IDS, _ODD_IDS), min_size=1, max_size=4))), max_size=4))
def test_write_rows_writes_the_bytes_of_csv_writer(tmp_path_factory, n, plain, odd):
    """Rows of plain ids, cycled to n rows (the header and 63 rows fill the first
    64-row chunk), with a few rows replaced by ones mixing ids that csv quotes, empty
    fields, None, ints and floats, or by rows of str fields alone: the chunks joined
    as text and those csv writes sit in one file, which holds the bytes csv.writer
    writes."""
    rows = [plain[i % len(plain)] for i in range(n)]
    for i, row in odd:
        if i < n:
            rows[i] = tuple(row)
    path = tmp_path_factory.mktemp("rows") / "out.csv"
    write_rows(path, {"a": str, "b": str, "c": str}, iter(rows))
    assert path.read_bytes() == _csv_bytes({"a": str, "b": str, "c": str}, rows)


@pytest.mark.parametrize("rows", [[("",)], [(None,)], [("x",), ("",), ("y",)], [()],
                                  [("x",)] * 300 + [("",)], [("x",)] * 63 + [("",), ("y",)]])
def test_write_rows_quotes_a_row_of_one_empty_field(tmp_path, rows):
    """csv writes a row of one empty field as "" (a bare line end would read as a
    blank line); the joined text would show that row as an empty line, also as the
    first line of a chunk (the header and 63 rows fill the first)."""
    write_rows(tmp_path / "out.csv", {"id": str}, rows)
    assert (tmp_path / "out.csv").read_bytes() == _csv_bytes({"id": str}, rows)
    assert b'\n""\n' in (tmp_path / "out.csv").read_bytes() or rows == [()]


@pytest.mark.parametrize("odd", [",", '"', "\r", "\n", "\r\n"])
def test_write_rows_hands_csv_only_the_chunks_that_need_it(tmp_path, monkeypatch, odd):
    """Of 700 rows of str fields after the header, only the 64-row chunk that holds an
    id with a character csv may quote goes to csv.writer; the others are written as
    joined text."""
    rows = [("R1", "P1", "0.25")] * 700
    rows[300] = ("R1", f"P{odd}1", "0.25")
    chunks, writer = [], csv.writer

    class Writer:
        def __init__(self, fh, **kwargs):
            self.writer = writer(fh, **kwargs)

        def writerows(self, chunk):
            chunks.append(len(chunk))
            self.writer.writerows(chunk)

    monkeypatch.setattr(csv, "writer", Writer)
    write_rows(tmp_path / "out.csv", {"a": str, "b": str, "c": str}, rows)
    monkeypatch.undo()
    assert chunks == [64]
    assert (tmp_path / "out.csv").read_bytes() == _csv_bytes({"a": str, "b": str, "c": str}, rows)


def test_schema_columns_are_in_record_field_order():
    """The loaders build each record from a row by position, so a schema whose
    columns were reordered would silently swap values."""
    assert tuple(RESEARCHER_COLUMNS) == Researcher._fields
    assert tuple(AUTHORSHIP_COLUMNS) == Authorship._fields
    products = list(PRODUCT_COLUMNS)
    assert tuple(products[:4]) == Product._fields[:4]
    assert Product._fields[4:] == ("wos_record", "scopus_record")
    for prefix, columns in (("wos", products[4:8]), ("scopus", products[8:])):
        # _record unpacks these four in this order
        assert columns == [f"{prefix}_{name}"
                           for name in ("categories", "metric", "citations", "journal_id")]
    assert tuple(WORLDVALUE_COLUMNS) == (*DistributionKey._fields, "value")
    thresholds = list(THRESHOLD_COLUMNS)
    assert tuple(thresholds[:4]) == DistributionKey._fields
    assert thresholds[4:] == list(ClassThresholds._fields)
    assert list(MERGEMAP_COLUMNS) == ["category", "category_group"]


def test_read_rows_skips_blank_lines_but_counts_them(tmp_path):
    path = tmp_path / "researchers.csv"
    path.write_text("id,sds,uda,quota\nR1,CHIM/06,3,2\n\n\nR2,,1,\n\n", encoding="utf-8")
    assert list(read_rows(path, RESEARCHER_COLUMNS)) == [
        (2, ["R1", "CHIM/06", 3, 2]),
        (5, ["R2", "", 1, None]),
    ]


def test_read_rows_short_row_names_its_own_line(tmp_path):
    path = tmp_path / "researchers.csv"
    path.write_text("id,sds,uda,quota\nR1,CHIM/06,3,2\n\nR2,,1\nR3,,1,2\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        list(read_rows(path, RESEARCHER_COLUMNS))
    assert exc.value.line == 4
    assert str(exc.value) == f"{path}:4: expected 4 fields, got 3"


def test_read_rows_yields_a_list_of_parsed_fields_in_schema_order(tmp_path):
    path = tmp_path / "products.csv"
    path.write_text(PRODUCTS.splitlines()[0] + "\n"
                    "P1,review,2009,true,A;B,2.5,14,J1,,,,\n", encoding="utf-8")
    [(line, fields)] = read_rows(path, PRODUCT_COLUMNS)
    assert line == 2
    assert type(fields) is list
    expected = ["P1", "review", 2009, True, "A;B", 2.5, 14, "J1", "", None, None, ""]
    assert fields == expected
    assert [type(v) for v in fields] == [type(v) for v in expected]


def test_only_the_csv_layer_imports_csv():
    package = Path(assessopt.__file__).parent
    importers = sorted(
        path.name for path in package.glob("*.py")
        if re.search(r"^\s*(import|from) csv\b", path.read_text(encoding="utf-8"), re.M)
    )
    assert importers == ["corpus.py"]


def test_src_imports_only_the_standard_library():
    # numpy and scipy are installed for the tests, so a stray import of either
    # would still run here; the package itself promises no dependencies.
    outside = []
    for path in sorted(Path(assessopt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []



def test_every_record_is_a_named_tuple_with_immutable_defaults():
    """src declares its records one way. A NamedTuple default is one object
    shared by every instance, so a dict, list or set default would leak."""
    package = Path(assessopt.__file__).parent
    records = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
        module = importlib.import_module(f"assessopt.{path.stem}")
        records += [cls for cls in vars(module).values() if isinstance(cls, type)
                    and hasattr(cls, "_field_defaults") and cls.__module__ == module.__name__]
    assert {"Corpus", "GevProfile", "ReferenceLibrary", "Selection"} <= {
        cls.__name__ for cls in records}
    for cls in records:
        for name, default in cls._field_defaults.items():
            assert not isinstance(default, (dict, list, set)), f"{cls.__name__}.{name}"


def test_the_corpus_holds_no_scoring_rule():
    """The evaluation window is a rule of scoring, and a product's panel is
    the profile that scores it."""
    assert Corpus._fields == ("researchers", "products", "authorships")
    for loader in (load_corpus, load_corpus_dir):
        assert "window" not in inspect.signature(loader).parameters, loader.__name__
    assert list(inspect.signature(score_product).parameters)[:3] == [
        "product", "profile", "library"]
    # The citation half of the canonical tie-break is stated by selection alone.
    assert not hasattr(Product, "max_citations")


def test_cli_import_loads_only_what_every_command_needs():
    """Each command is a short process that starts by importing the CLI, so
    two heavy stdlib modules stay out of its import graph, and so do logging
    (loaded only on request) and every module of the package but errors: --help
    and usage errors run nothing else. The bare interpreter is the baseline: on
    some hosts site already loads modules."""
    src = str(Path(assessopt.__file__).parent.parent)

    def modules_after(statement: str) -> set[str]:
        code = f"import sys; sys.path.insert(0, {src!r}); {statement}; print(*sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        return set(run.stdout.split())

    added = modules_after("import assessopt.cli") - modules_after("pass")
    assert "assessopt.cli" in added
    assert added & {"dataclasses", "inspect", "logging"} == set()
    assert {name for name in added if name.startswith("assessopt")} == {
        "assessopt", "assessopt.cli", "assessopt.errors"}


def test_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_corpus(
            tmp_path / "nope.csv",
            tmp_path / "products.csv",
            tmp_path / "authorships.csv",
        )


def test_malformed_year_has_line_number(tmp_path):
    bad = PRODUCTS + "P4,journal-article,soon,false,X,,3,,,,,\n"
    with pytest.raises(ParseError) as exc:
        load_corpus_dir(write_corpus(tmp_path, products=bad))
    assert exc.value.line == 5
    assert "year" in str(exc.value)


def test_bad_header(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_corpus_dir(write_corpus(tmp_path, researchers="id,quota\nR1,3\n"))
    assert "header" in str(exc.value)


def test_record_needs_categories(tmp_path):
    bad = PRODUCTS + "P4,journal-article,2006,false,,2.5,14,J9,,,,\n"
    with pytest.raises(ValidationError) as exc:
        load_corpus_dir(write_corpus(tmp_path, products=bad))
    assert exc.value.violations == [
        f"{tmp_path / 'products.csv'}:5: wos record present but has no subject categories"]


def test_unknown_kind(tmp_path):
    bad = PRODUCTS + "P4,poem,2006,false,X,,3,,,,,\n"
    with pytest.raises(ValidationError) as exc:
        load_corpus_dir(write_corpus(tmp_path, products=bad))
    assert exc.value.violations == [f"{tmp_path / 'products.csv'}:5: unknown product kind 'poem'"]


def test_admissibility(tmp_path):
    """A product is admissible when its year lies in the window and its panel
    allows its kind. Its index records are stripped, so an admissible product
    takes the non-indexed fallback."""
    corpus = load_corpus_dir(write_corpus(tmp_path))
    profile = support.profile(allowed_kinds=frozenset({"journal-article", "review"}))

    def outcome(product, window=DEFAULT_WINDOW):
        bare = product._replace(wos_record=None, scopus_record=None)
        return score_product(bare, profile, support.library(), window).outcome

    assert outcome(corpus.products["P1"]) == "non-indexed-fallback"
    assert outcome(corpus.products["P3"]) == "inadmissible"  # a book

    early = corpus.products["P1"]._replace(id="P9", year=2003)
    assert outcome(early) == "inadmissible"
    # same product inside a wider window
    assert outcome(early, (2003, 2010)) == "non-indexed-fallback"


# --- the column path against the row loops ------------------------------------


def _loaded(directory: Path) -> tuple:
    """load_corpus_dir's outcome with the order of each dict: a corpus, or the
    type and text of the error."""
    try:
        corpus = load_corpus_dir(directory)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return corpus, list(corpus.researchers), list(corpus.products)


def _by_rows(directory: Path) -> tuple:
    """What load_corpus_dir gives with load_corpus_by_rows, the row loops that
    build the corpus and name its faults in one pass, in place of load_corpus."""
    with mock.patch.object(corpus_module, "load_corpus", load_corpus_by_rows):
        return _loaded(directory)


def _with_rows_refused(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("read_rows called")

    monkeypatch.setattr(corpus_module, "read_rows", refuse)


def test_a_plain_corpus_is_read_without_the_row_reader(monkeypatch):
    expected = _by_rows(MINI)
    assert isinstance(expected[0], Corpus)
    _with_rows_refused(monkeypatch)
    assert _loaded(MINI) == expected


def test_quoted_categories_with_commas_are_read_without_the_row_reader(tmp_path, monkeypatch):
    products = PRODUCTS.replace("Organic Chemistry;Applied Chemistry",
                                '"Chemistry, Organic;Chemistry, Applied"')
    root = write_corpus(tmp_path, products=products)
    expected = _by_rows(root)
    assert expected[0].products["P2"].wos_record.subject_categories == (
        "Chemistry, Organic", "Chemistry, Applied")
    _with_rows_refused(monkeypatch)
    assert _loaded(root) == expected


# Each edits one products.csv line near the end of the first chunk, whose last is line
# CHUNK_LINES + 1: (line, the edited line's text from the line's text, whether it is valid).
_CHUNK_EDITS = {
    "quoted-comma": (510, lambda line: '"C,510"' + line[line.index(","):], True),
    "quoted-break-crossing-the-chunk": (
        513, lambda line: '"C\n513"' + line[line.index(","):], True),
    "crlf": (510, lambda line: line.replace("\n", "\r\n"), True),
    "nul-in-journal-id": (  # Python 3.10's csv refuses a NUL
        510, lambda line: line.replace(",J-", ",J\0-"), sys.version_info >= (3, 11)),
    "blank-line": (510, lambda line: "\n" + line, True),
    "short-row": (510, lambda line: line[:line.rindex(",")] + "\n", False),
    # The long row is an empty field, then the row's 12; misread by position, the line
    # break would be the journal id of line 502's Scopus record, and no field be faulty.
    "short-row-then-long-row": (
        502, lambda line: line[:line.rindex(",")] + "\n," + line, False),
    "two-rows-on-one-line": (510, lambda line: line.replace("\n", ","), False),
    "field-over-the-limit": (
        510, lambda line: line.replace(",J-", ",J" + "-" * csv.field_size_limit()), False),
}


@pytest.mark.parametrize("edit", list(_CHUNK_EDITS))
def test_csv_reads_only_the_chunk_that_may_hold_a_quoted_field(tmp_path, monkeypatch, edit):
    """mini_university with 1,100 products, its rows copied under new ids: one odd line
    near the end of the first chunk loads as the row loops load it. When the corpus is
    valid, csv.reader read the three headers and the rows of that chunk alone, a record
    that runs past its last line through to its end; the split path read the rest."""
    for name in _CORPUS_FILES:
        shutil.copy(MINI / name, tmp_path / name)
    header, *lines = (MINI / "products.csv").read_text(encoding="utf-8").splitlines(True)
    lines += [f"C{k}," + lines[k % len(lines)].partition(",")[2]
              for k in range(len(lines), 2 * corpus_module.CHUNK_LINES + 76)]
    line, change, valid = _CHUNK_EDITS[edit]
    text = lines[line - 2]
    lines[line - 2] = change(text)
    assert lines[line - 2] != text
    (tmp_path / "products.csv").write_bytes("".join([header, *lines]).encode("utf-8"))
    expected = _by_rows(tmp_path)
    rows, reader = [], csv.reader

    class Reader:
        def __init__(self, lines):
            self.reader = reader(lines)

        def __iter__(self):
            return self

        def __next__(self):
            rows.append(next(self.reader))
            return rows[-1]

        line_num = property(lambda self: self.reader.line_num)

    monkeypatch.setattr(csv, "reader", Reader)
    assert _loaded(tmp_path) == expected
    monkeypatch.undo()
    assert isinstance(expected[0], Corpus) == valid
    if valid:
        assert rows[1:3] == [list(PRODUCT_COLUMNS), next(csv.reader(lines))]
        assert len(rows) == 3 + corpus_module.CHUNK_LINES  # a blank line is a row []


def test_a_refused_chunk_that_read_rows_finds_no_fault_in_is_an_internal_error(monkeypatch):
    """read_rows only names a fault of the CSV layer: a chunk that _chunks refuses where
    read_rows finds none is a fault of the program, not a second way to load the file."""
    calls = []

    def uda(text):  # refuses the first text it parses
        calls.append(text)
        if len(calls) == 1:
            raise ValueError(text)
        return int(text)

    monkeypatch.setitem(RESEARCHER_COLUMNS, "uda", uda)
    with pytest.raises(AssertionError, match="read_rows found no fault"):
        load_corpus_dir(MINI)


def test_a_type_error_in_the_csv_layer_surfaces(monkeypatch):
    """The loader's doubts are the errors a faulty file raises; any other error is a
    fault of the program, which naming by read_rows would hide."""
    monkeypatch.setitem(RESEARCHER_COLUMNS, "uda", mock.Mock(side_effect=TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        load_corpus_dir(MINI)


def test_the_corpus_holds_one_str_per_id():
    """Each authorship's ids are the loaded researcher's and product's own str objects,
    not copies read from authorships.csv."""
    corpus = load_corpus_dir(MINI)
    researchers, products = ({id(key) for key in ids} for ids in (corpus.researchers,
                                                                 corpus.products))
    assert all(id(a.researcher_id) in researchers and id(a.product_id) in products
               for a in corpus.authorships)


@pytest.mark.parametrize("chunk_lines", [512, 3])
def test_a_corpus_whose_only_faults_break_rules_is_read_once(tmp_path, monkeypatch,
                                                             chunk_lines):
    """A fault in each file that breaks a rule, not the CSV layer: each file is opened
    once and read_rows never runs, as the rows that break a rule are named from the
    columns already parsed, in 512- and 3-line chunks."""
    for name, row in zip(_CORPUS_FILES, ["R99,,15,3", "P99,poem,2006,false,,,,,,,,", "R01,P01,,"]):
        (tmp_path / name).write_text((MINI / name).read_text(encoding="utf-8") + row + "\n",
                                     encoding="utf-8")
    expected = _by_rows(tmp_path)
    assert expected[0] is ValidationError and expected[1].count("csv:") == 3
    opened, real_open = [], open

    def counted(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(corpus_module, "CHUNK_LINES", chunk_lines)
    monkeypatch.setattr(corpus_module, "open", counted, raising=False)
    _with_rows_refused(monkeypatch)
    assert _loaded(tmp_path) == expected
    assert opened == _CORPUS_FILES


# Each fault puts one text into one field of the first data row (or of every row, for
# "*"), adds a row after the last ("row", or "copy" of the first), or replaces the
# header: (file, where, text). R1 authors P1 and P2 in every corpus drawn. Faults
# drawn together apply in turn, each field fault to the same first data row.
_FAULTS = {
    "empty-researcher-id": ("researchers", "row", ",MAT/05,1,3"),
    "duplicate-researcher-id": ("researchers", "row", "R1,,3,3"),
    # a row with a repeated id: its other faults are named too
    "duplicate-id-out-of-range": ("researchers", "row", "R1,CHIM/06,15,9"),
    "quota-above-max": ("researchers", "quota", "7"),
    "quota-negative": ("researchers", "quota", "-1"),
    "uda-above-14": ("researchers", "uda", "15"),
    "uda-zero": ("researchers", "uda", "0"),
    "uda-empty": ("researchers", "uda", ""),
    "sds-of-another-area": ("researchers", "sds", "CHIM/06"),
    "uda-not-an-integer": ("researchers", "uda", "1.0"),
    "unknown-kind": ("products", "kind", "poster"),
    "empty-product-id": ("products", "row", ",book,2006,,,,,,,,,"),
    "duplicate-product-id": ("products", "row", "P1,book,2006,,,,,,,,,"),
    "empty-id-of-unknown-kind-negative": ("products", "row", ",poster,2006,,X,-0.5,-1,,,,,"),
    "year-not-an-integer": ("products", "year", "soon"),
    "year-empty": ("products", "year", ""),
    "bad-boolean": ("products", "fraud_flag", "yes"),
    "no-categories": ("products", "wos_categories", ""),
    "only-separators": ("products", "wos_categories", ";"),
    "categories-alone": ("products", "*scopus_categories", "X"),
    "no-citations": ("products", "wos_citations", ""),
    "negative-citations": ("products", "wos_citations", "-1"),
    "citations-not-an-integer": ("products", "scopus_citations", "many"),
    "negative-metric": ("products", "wos_metric", "-0.5"),
    "nan-metric": ("products", "wos_metric", "nan"),
    "infinite-metric": ("products", "scopus_metric", "1e400"),
    "metric-not-a-number": ("products", "wos_metric", "2,5"),
    "journal-alone": ("products", "*scopus_journal_id", "J9"),
    "short-product-row": ("products", "row", "P9,book,2006"),  # wins over a record's violation
    "unknown-researcher": ("authorships", "researcher_id", "R99"),
    "unknown-product": ("authorships", "product_id", "P99"),
    "duplicate-pair": ("authorships", "copy", ""),
    "priority-zero": ("authorships", "declared_priority", "0"),
    "priority-twice": ("authorships", "*declared_priority", "1"),
    "priority-not-an-integer": ("authorships", "declared_priority", "first"),
    "override-above-9": ("authorships", "gev_override", "10"),
    "override-zero": ("authorships", "gev_override", "0"),
    "short-row": ("authorships", "row", "R1,P1,"),
    "long-row": ("researchers", "row", "R9,,1,3,extra"),
    "bad-header": ("products", "header", "id,kind,year"),
}
_SCHEMAS = {"researchers": RESEARCHER_COLUMNS, "products": PRODUCT_COLUMNS,
            "authorships": AUTHORSHIP_COLUMNS}
_AREAS = {"": 1, "MAT/05": 1, "CHIM/06": 3, "IUS/01": 12, "XYZ/1": 14}
_CATEGORIES = ["A", "A;B", ";A;", "Chemistry, Organic;Physics", 'The "Journal"', "X\nY", "Ä"]


@st.composite
def _corpus_texts(draw, *faults: str | None, quote_faulty: bool = False) -> dict[str, str]:
    """The three files of a corpus with the given faults (None adds none): quoted fields,
    with commas, quotes or line breaks, blank lines, a byte-order mark, CRLF line ends.
    With quote_faulty, each row that a fault edits or adds has every field quoted."""
    def pick(values: list):
        return draw(st.sampled_from(values))

    rows: dict[str, list[list[str]]] = {}
    rows["researchers"] = [[f"R{i}", sds, str(_AREAS[sds]), pick(["", "0", "2", "3", "6"])]
                           for i, sds in enumerate(draw(st.lists(
                               st.sampled_from(list(_AREAS)), min_size=1, max_size=4)), 1)]

    def record() -> list[str]:
        if draw(st.booleans()):
            return ["", "", "", ""]
        return [pick(_CATEGORIES), pick(["", "2.5", "0", "-0.0", "1e3"]), pick(["0", "14", " 7"]),
                pick(["", "J1", "J 2"])]

    rows["products"] = [[f"P{j}", pick(PRODUCT_KINDS), pick(["2006", "2010"]),
                         pick(["", "false", "true", "0", "1", " TRUE"]), *record(), *record()]
                        for j in range(1, draw(st.integers(2, 5)) + 1)]
    pairs = [("R1", "P1"), ("R1", "P2")] + draw(st.lists(st.tuples(
        st.sampled_from([r[0] for r in rows["researchers"]]),
        st.sampled_from([p[0] for p in rows["products"]])), max_size=6))
    pairs = sorted(set(pairs), key=pairs.index)
    ranks: dict[str, int] = {}
    rows["authorships"] = []
    for rid, pid in pairs:
        priority = ""
        if draw(st.booleans()):
            priority = str(ranks.setdefault(rid, 0) + 1)
            ranks[rid] += 1
        rows["authorships"].append([rid, pid, priority, pick(["", "1", "9"])])
    headers = {name: list(schema) for name, schema in _SCHEMAS.items()}
    faulty = {name: [] for name in _SCHEMAS}  # the rows a fault edits or adds
    for fault in filter(None, faults):
        name, where, text = _FAULTS[fault]
        if where == "row":
            rows[name].append(text.split(","))
        elif where == "copy":
            rows[name].append(list(rows[name][0]))
        elif where == "header":
            headers[name] = text.split(",")
        else:
            column = list(_SCHEMAS[name]).index(where.lstrip("*"))
            for row in rows[name] if where.startswith("*") else rows[name][:1]:
                row[column] = text
                faulty[name].append(row)
        faulty[name] += rows[name][-1:] if where in ("row", "copy") else []
    texts = {}
    for name in _SCHEMAS:
        out, end = io.StringIO(), pick(["\n", "\r\n"])
        writer = csv.writer(out, lineterminator=end,
                            quoting=pick([csv.QUOTE_MINIMAL, csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        quoted = csv.writer(out, lineterminator=end, quoting=csv.QUOTE_ALL)
        writer.writerow(headers[name])
        for row in rows[name]:
            (quoted if quote_faulty and row in faulty[name] else writer).writerow(row)
            out.write(pick(["", "", "", "\n", "\r\n\n"]))  # blank lines
        texts[name] = pick(["", "\ufeff"]) + out.getvalue()
    return texts


@pytest.mark.parametrize("fault", [None, *_FAULTS])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_column_path_loads_as_the_row_loops(tmp_path_factory, fault, data):
    """Whatever the corpus, load_corpus gives what its row loops alone give: an
    equal corpus with its dicts in the same order, or the same error. Valid
    corpora are drawn ten to an example."""
    for _ in range(1 if fault else 10):
        root = tmp_path_factory.mktemp("corpus")
        for name, text in data.draw(_corpus_texts(fault)).items():
            (root / f"{name}.csv").write_bytes(text.encode("utf-8"))
        assert _loaded(root) == _by_rows(root)


@pytest.mark.parametrize("fault", [None, *_FAULTS])
def test_the_column_path_loads_as_the_row_loops_in_3_line_chunks(tmp_path_factory, monkeypatch,
                                                                  fault):
    """As above, every drawn file read in 3-line chunks, each by the split path or by csv."""
    monkeypatch.setattr(corpus_module, "CHUNK_LINES", 3)
    test_the_column_path_loads_as_the_row_loops(tmp_path_factory, fault)


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_a_fault_in_a_chunk_that_csv_reads_is_named_as_the_row_loops_name_it(
        tmp_path_factory, monkeypatch, fault):
    """As above, in 3-line chunks, with each row that the fault edits or adds quoted, so
    that csv reads the chunk that holds it, and its rows' lines are csv's."""
    monkeypatch.setattr(corpus_module, "CHUNK_LINES", 3)
    _quoted_faults_load_as_the_row_loops(tmp_path_factory, fault)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def _quoted_faults_load_as_the_row_loops(tmp_path_factory, fault, data):
    root = tmp_path_factory.mktemp("corpus")
    for name, text in data.draw(_corpus_texts(fault, quote_faulty=True)).items():
        (root / f"{name}.csv").write_bytes(text.encode("utf-8"))
    assert _loaded(root) == _by_rows(root)


@pytest.mark.parametrize("first, second", list(itertools.combinations(_FAULTS, 2)))
@settings(max_examples=1, deadline=None)
@given(data=st.data())
def test_two_faults_are_named_as_the_row_loops_name_them(tmp_path_factory, first, second, data):
    """Every pair of faults gives what the row loops alone give: rules fire in the
    order of load_corpus_by_rows on one row, and between rows and files."""
    root = tmp_path_factory.mktemp("corpus")
    for name, text in data.draw(_corpus_texts(first, second)).items():
        (root / f"{name}.csv").write_bytes(text.encode("utf-8"))
    assert _loaded(root) == _by_rows(root)


# What an edit of a corpus file inserts at one place, or does to one whole line.
_EDITS = [",", '"', "\0", "\n", "\r\n", "\ufeff", "nan", "1e309", "9" * 5000,
          "delete line", "duplicate line"]
_CORPUS_FILES = ["researchers.csv", "products.csv", "authorships.csv"]
_VALIDATE = ["validate", "--profiles", str(MINI / "profiles.json"), "--ref", str(MINI / "ref")]


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(_CORPUS_FILES),
       edits=st.lists(st.tuples(st.sampled_from(_EDITS), st.floats(0, 1, exclude_max=True)),
                      min_size=1, max_size=3))
def test_an_edited_corpus_file_loads_or_names_its_faults(tmp_path_factory, name, edits):
    """1-3 edits of one mini_university file: a corpus loads, or a ParseError or
    ValidationError names each fault by its file, as the row loops name it; validate
    exits 0, 1 or 2 and lets no exception out."""
    root = tmp_path_factory.mktemp("fuzz")
    for other in _CORPUS_FILES:
        shutil.copy(MINI / other, root / other)
    text = (MINI / name).read_text(encoding="utf-8")
    for edit, where in edits:
        if edit in ("delete line", "duplicate line"):
            lines = text.splitlines(keepends=True)
            at = int(where * len(lines))
            lines[at:at + 1] = [] if edit == "delete line" else [lines[at]] * 2
            text = "".join(lines)
        else:
            at = int(where * len(text))
            text = text[:at] + edit + text[at:]
    (root / name).write_text(text, encoding="utf-8")
    paths = tuple(str(root / other) for other in _CORPUS_FILES)
    try:
        load_corpus_dir(root)
    except ParseError as exc:
        assert str(exc).startswith(paths)
    except ValidationError as exc:
        assert all(violation.startswith(paths) for violation in exc.violations)
    assert _loaded(root) == _by_rows(root)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([*_VALIDATE, "--corpus", str(root)]) in (0, 1, 2)


def test_an_edited_corpus_file_loads_or_names_its_faults_in_3_line_chunks(tmp_path_factory,
                                                                         monkeypatch):
    """As above, every edited file read in 3-line chunks, each by the split path or by csv."""
    monkeypatch.setattr(corpus_module, "CHUNK_LINES", 3)
    test_an_edited_corpus_file_loads_or_names_its_faults(tmp_path_factory)


# --- each rule tested once per distinct value and key ---------------------------


def _mini_with(root: Path, edits: dict[str, dict[int, str]]) -> Path:
    """mini_university at root, with lines of a file replaced ({line: text}, line 1 the
    header) or, past the last line, appended."""
    for name in _CORPUS_FILES:
        lines = (MINI / name).read_text(encoding="utf-8").splitlines(True)
        for line, text in sorted(edits.get(name, {}).items()):
            lines[line - 1:line] = [text + "\n"]
        (root / name).write_text("".join(lines), encoding="utf-8")
    return root


def _fields(name: str, line: int, **changes: str) -> str:
    """Line line of a mini_university file, with the given fields changed."""
    schema = _SCHEMAS[name.removesuffix(".csv")]
    row = (MINI / name).read_text(encoding="utf-8").splitlines()[line - 1].split(",")
    for column, text in changes.items():
        row[list(schema).index(column)] = text
    return ",".join(row)


def test_a_bad_value_in_two_chunks_is_named_in_both(tmp_path, monkeypatch):
    """In 3-line chunks, a quota and a citation count first tested in one chunk break their
    rules again in a later chunk, where they are no longer new: both rows are named."""
    root = _mini_with(tmp_path, {
        "researchers.csv": {2: _fields("researchers.csv", 2, quota="9"),
                            9: _fields("researchers.csv", 9, quota="9")},
        "products.csv": {3: _fields("products.csv", 3, wos_citations="-4"),
                         33: _fields("products.csv", 33, wos_citations="-4")}})
    monkeypatch.setattr(corpus_module, "CHUNK_LINES", 3)
    expected = _by_rows(root)
    assert expected == (ValidationError, "; ".join([
        f"{root / 'researchers.csv'}:2: quota 9 outside 0..6",
        f"{root / 'researchers.csv'}:9: quota 9 outside 0..6",
        f"{root / 'products.csv'}:3: wos citations -4 negative",
        f"{root / 'products.csv'}:33: wos citations -4 negative"]))
    assert _loaded(root) == expected


def test_a_key_first_seen_in_an_earlier_chunk_is_a_repeat(tmp_path, monkeypatch):
    """In 3-line chunks, a product id, an authorship pair and a researcher's declared
    priority repeated chunks after their first row are named as the row loops name them,
    the priority with the product of its last earlier row; the chunks after are checked
    against the keys as they stood."""
    root = _mini_with(tmp_path, {
        "products.csv": {41: _fields("products.csv", 2)},  # P01 again
        "authorships.csv": {45: "R01,P01,,", 46: "R01,P05,1,", 47: "R01,P06,1,",
                            48: "R02,P01,,", 49: "R02,P07,1,"}})
    monkeypatch.setattr(corpus_module, "CHUNK_LINES", 3)
    expected = _by_rows(root)
    products, authorships = root / "products.csv", root / "authorships.csv"
    assert expected == (ValidationError, "; ".join([
        f"{products}:41: duplicate product id 'P01'",
        f"{authorships}:45: duplicate authorship ('R01', 'P01')",
        f"{authorships}:46: researcher 'R01' already declared priority 1 on 'P01'",
        f"{authorships}:47: researcher 'R01' already declared priority 1 on 'P05'",
        f"{authorships}:49: researcher 'R02' already declared priority 1 on 'P03'"]))
    assert _loaded(root) == expected


def test_a_bad_value_first_seen_in_a_chunk_that_csv_reads(tmp_path, monkeypatch):
    """In 3-line chunks, a negative citation count first seen in a chunk that csv reads,
    as a field on one of its lines is quoted, and again in a later split chunk."""
    quoted = _fields("products.csv", 21, id='"P20"', wos_citations="-7")
    root = _mini_with(tmp_path, {"products.csv": {
        21: quoted, 30: _fields("products.csv", 30, wos_citations="-7")}})
    monkeypatch.setattr(corpus_module, "CHUNK_LINES", 3)
    expected = _by_rows(root)
    assert expected == (ValidationError, "; ".join(
        f"{root / 'products.csv'}:{line}: wos citations -7 negative" for line in (21, 30)))
    assert _loaded(root) == expected


@pytest.mark.parametrize("chunk_lines", [512, 3])
def test_each_rule_tests_each_distinct_value_once_per_file(tmp_path, monkeypatch, chunk_lines):
    """900 researchers and products with four quotas and three citation counts: the test
    of each one-column rule receives each value at most once per file."""
    (tmp_path / "researchers.csv").write_text("id,sds,uda,quota\n" + "".join(
        f"R{i},MAT/05,1,{('', '1', '2', '3')[i % 4]}\n" for i in range(900)), encoding="utf-8")
    (tmp_path / "products.csv").write_text(",".join(PRODUCT_COLUMNS) + "\n" + "".join(
        f"P{i},book,2006,false,A,,{i % 3},,B,,{i % 2 * 5},\n" for i in range(900)),
        encoding="utf-8")
    (tmp_path / "authorships.csv").write_text(
        "researcher_id,product_id,declared_priority,gev_override\n" + "".join(
            f"R{i},P{i},{i % 2 or ''},\n" for i in range(900)), encoding="utf-8")
    expected = _by_rows(tmp_path)
    assert isinstance(expected[0], Corpus)
    received, rules = {}, corpus_module._rules

    def recorded(researchers, products):
        def test(key, test):
            return lambda *fields: received.setdefault(key, []).extend(fields[0]) or test(
                *fields)

        return tuple(tuple((names, test((f, names), t), *rest) if len(names) == 1 else (
            names, t, *rest) for names, t, *rest in file) for f, file in enumerate(
            rules(researchers, products)))

    monkeypatch.setattr(corpus_module, "CHUNK_LINES", chunk_lines)
    monkeypatch.setattr(corpus_module, "_rules", recorded)
    assert _loaded(tmp_path) == expected
    for column in ("quota", "wos_citations", "scopus_citations", "declared_priority"):
        values = next(v for (_, names), v in received.items() if names == (column,))
        assert sorted(values, key=str) == sorted(set(values), key=str), column
        assert len(set(values)) <= 4, column


def test_a_fault_of_the_csv_layer_is_named_from_its_chunk_on(tmp_path, monkeypatch):
    """A year that is not an integer on the last line of products.csv, in 3-line chunks:
    csv parses the header each time a file is opened and the rows of the refused chunk
    alone, and the fault is named as the row loops name it; authorships.csv is not read."""
    root = _mini_with(tmp_path, {"products.csv": {40: _fields("products.csv", 40, year="20x6")}})
    monkeypatch.setattr(corpus_module, "CHUNK_LINES", 3)
    expected = _by_rows(root)
    assert expected == (ParseError, f"{root / 'products.csv'}:40: year is not an integer: '20x6'")
    rows, reader = [], csv.reader

    class Reader:
        def __init__(self, lines):
            self.reader = reader(lines)

        def __iter__(self):
            return self

        def __next__(self):
            rows.append([*next(self.reader)])  # before rows_from parses its fields
            return rows[-1][:]

        line_num = property(lambda self: self.reader.line_num)

    monkeypatch.setattr(csv, "reader", Reader)
    assert _loaded(root) == expected
    monkeypatch.undo()
    lines = (root / "products.csv").read_text(encoding="utf-8").splitlines()
    assert rows == [list(RESEARCHER_COLUMNS), list(PRODUCT_COLUMNS), list(PRODUCT_COLUMNS),
                    *(line.split(",") for line in lines[37:40])]


_PRODUCT_LINE = "P{},journal-article,2006,false,A,2.5,{},J1,,,,\n"


@pytest.mark.parametrize("chunk_lines", [512, 3])
@pytest.mark.parametrize("before", ["", "lacking", "open-quote"])
def test_text_that_is_not_utf8_is_named_after_the_rows_before_it(tmp_path, monkeypatch,
                                                                chunk_lines, before):
    """A byte that is not UTF-8 past the first 8 KB of products.csv, after a record with no
    citation count, or after a quoted field whose line break is read with that 8 KB: the
    load names what the row loops name, the byte's fault, which wins over the record's."""
    for name in ("researchers.csv", "authorships.csv"):
        shutil.copy(MINI / name, tmp_path / name)
    head = ",".join(PRODUCT_COLUMNS) + "\n" + "".join(
        _PRODUCT_LINE.format(i, i) for i in range(1, 140))
    if before == "lacking":
        head += _PRODUCT_LINE.format(140, "")
    if before == "open-quote":  # its second line runs past byte 8,192
        head += '"P400\n' + "x" * (8292 - len(head)) + '",journal-article,2006,false,,,,,,,,\n'
        assert head.index('"P400\n') + 6 < 8192 < len(head) - 40
    while len(head) < 8300:
        head += _PRODUCT_LINE.format(len(head), 1)
    data = head.encode("utf-8") + b"P\xe9,book,2006,false,,,,,,,,\n"
    assert 8192 < data.index(b"\xe9") < 16384
    (tmp_path / "products.csv").write_bytes(data)
    monkeypatch.setattr(corpus_module, "CHUNK_LINES", chunk_lines)
    expected = _by_rows(tmp_path)
    assert expected[0] is ParseError
    assert "not UTF-8" in expected[1]
    assert _loaded(tmp_path) == expected
