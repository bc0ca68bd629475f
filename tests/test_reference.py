"""Threshold construction, classification and library lookups."""

from __future__ import annotations

import csv
import importlib.util
import logging
import math
import sys
import tracemalloc
from contextlib import contextmanager
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from assessopt import reference, worldvalues
from assessopt.corpus import read_rows
from assessopt.errors import ParseError, ValidationError
from assessopt.gev import score_product
from assessopt.reference import (
    DOC_SPLITS,
    INDICATORS,
    ClassThresholds,
    DistributionKey,
    ReferenceLibrary,
    build_thresholds,
    classify,
    load_thresholds,
    load_worldvalues,
    write_thresholds,
)

import support


def test_nearest_rank_one_to_ten():
    t = build_thresholds(range(1, 11))
    assert (t.p50, t.p60, t.p80, t.n) == (5, 6, 8, 10)


def test_single_value():
    t = build_thresholds([7])
    assert (t.p50, t.p60, t.p80) == (7, 7, 7)


def test_constant_distribution():
    t = build_thresholds([0, 0, 0, 0])
    assert (t.p50, t.p60, t.p80) == (0, 0, 0)


def test_unsorted_input():
    assert build_thresholds([8, 1, 5, 3, 9, 2, 10, 4, 7, 6]) == build_thresholds(range(1, 11))


def test_empty_and_negative_rejected():
    with pytest.raises(ValueError):
        build_thresholds([])
    with pytest.raises(ValueError):
        build_thresholds([3, -1])


EXAMPLE = ClassThresholds(p50=10, p60=14, p80=25, n=50)


def test_classify_examples():
    assert classify(30, EXAMPLE) == 1
    assert classify(10, EXAMPLE) == 4
    assert classify(14, EXAMPLE) == 3


def test_boundary_ties_go_to_lower_class():
    assert classify(25, EXAMPLE) == 2
    assert classify(14.0001, EXAMPLE) == 2
    assert classify(9.9, EXAMPLE) == 4


def make_library():
    thresholds = {
        DistributionKey("citations", "BIOMED-G1", 2006): ClassThresholds(5, 8, 12, 30),
        DistributionKey("citations", "Physics", 2006): ClassThresholds(3, 6, 11, 40),
    }
    return ReferenceLibrary(thresholds=thresholds, merge_map={"Oncology": "BIOMED-G1"})


def test_lookup_applies_merge_map():
    lib = make_library()  # Oncology merges into BIOMED-G1: cuts 5 / 8 / 12
    assert [lib.classifier()("citations", ("Oncology",), v, 2006, "any")
            for v in (5, 5.5, 8, 8.5, 12, 12.5)] == [4, 3, 3, 2, 2, 1]


def test_lookup_direct_key():
    lib = make_library()  # Physics: cuts 3 / 6 / 11
    assert [lib.classifier()("citations", ("Physics",), v, 2006, "any")
            for v in (3, 3.5, 6, 6.5, 11, 11.5)] == [4, 3, 3, 2, 2, 1]


def test_lookup_missing_names_resolved_key():
    lib = make_library()
    with pytest.raises(ValidationError) as exc:
        lib.classifier()("citations", ("Oncology",), 5, 2007, "any")
    assert str(exc.value) == ("no reference distribution for any of: "
                              "(citations, BIOMED-G1, 2007, any)")


def test_missing_keys_are_named_once_in_the_order_first_looked_up():
    lib = support.library(categories=("KEPT",), merge_map={"A": "G", "B": "G"})
    listed = support.profile(ir_journal_class_list={"J": 1})  # no journal-metric lookup
    repeated = support.product("P", citations=5, journal="J", categories=("A", "B", "A"))
    with pytest.raises(ValidationError) as exc:
        score_product(repeated, listed, lib)
    assert str(exc.value) == ("no reference distribution for any of: "
                              "(citations, G, 2006, any)")
    mixed = support.product("P", citations=5, metric=1.5, categories=("C", "A", "C", "B", "D"))
    with pytest.raises(ValidationError) as exc:
        score_product(mixed, support.profile(), lib)
    assert str(exc.value) == ("no reference distribution for any of: "
                              "(journal-metric, C, 2006, any), (journal-metric, G, 2006, any), "
                              "(journal-metric, D, 2006, any)")


@given(
    cuts=st.lists(st.floats(min_value=0, max_value=1e6), min_size=3, max_size=3),
    v1=st.floats(min_value=0, max_value=1e6),
    v2=st.floats(min_value=0, max_value=1e6),
)
def test_classify_monotone(cuts, v1, v2):
    p50, p60, p80 = sorted(cuts)
    t = ClassThresholds(p50=p50, p60=p60, p80=p80, n=10)
    if v1 < v2:
        v1, v2 = v2, v1
    assert classify(v1, t) <= classify(v2, t)


@given(
    cuts=st.lists(st.floats(min_value=0, max_value=1e6), min_size=3, max_size=3),
    value=st.floats(min_value=0, max_value=2e6),
)
def test_classify_partitions(cuts, value):
    p50, p60, p80 = sorted(cuts)
    t = ClassThresholds(p50=p50, p60=p60, p80=p80, n=10)
    cls = classify(value, t)
    intervals = {
        1: value > p80,
        2: p60 < value <= p80,
        3: p50 < value <= p60,
        4: value <= p50,
    }
    assert cls in (1, 2, 3, 4)
    assert intervals[cls]
    assert sum(intervals.values()) == 1


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
def test_distribution_shares(values):
    t = build_thresholds(values)
    assert t.p50 <= t.p60 <= t.p80
    n = len(values)
    classes = [classify(v, t) for v in values]
    assert classes.count(1) / n <= 0.2 + 1 / n
    assert classes.count(4) / n >= 0.5 - 1 / n


WORLDVALUES = """\
indicator,category_group,year,doc_split,value
citations,Physics,2006,any,1
citations,Physics,2006,any,2
citations,Physics,2006,any,3
citations,Physics,2006,any,4
citations,Physics,2006,any,5
journal-metric,Physics,2006,any,2.5
"""


def test_worldvalues_loader(tmp_path):
    path = tmp_path / "worldvalues.csv"
    path.write_text(WORLDVALUES, encoding="utf-8")
    thresholds = load_worldvalues(path)
    t = thresholds[DistributionKey("citations", "Physics", 2006)]
    # nearest rank over [1..5]: ceil(2.5)=3rd, ceil(3)=3rd, ceil(4)=4th value
    assert (t.p50, t.p60, t.p80, t.n) == (3, 3, 4, 5)
    assert thresholds[DistributionKey("journal-metric", "Physics", 2006)].p80 == 2.5


def test_worldvalues_interleaved_keys(tmp_path):
    rows = [
        ("citations", "X", 2006, "", 4), ("journal-metric", "X", 2006, "any", 1.5),
        ("citations", "X", 2006, "any", 9), ("citations", "Y", 2007, "review", 3),
        ("journal-metric", "X", 2006, "any", 0.5), ("citations", "X", 2006, "", 1),
        ("citations", "Y", 2007, "review", 8), ("citations", "X", 2006, "any", 7),
        ("citations", "X", 2007, "any", 2), ("journal-metric", "X", " 2006", "any", 2.5),
    ]
    path = tmp_path / "worldvalues.csv"
    path.write_text("indicator,category_group,year,doc_split,value\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")
    expected: dict[DistributionKey, list[float]] = {}
    for indicator, group, year, doc_split, value in rows:
        # an empty doc_split is "any"
        expected.setdefault(DistributionKey(indicator, group, int(year), doc_split or "any"),
                            []).append(value)
    thresholds = load_worldvalues(path)
    assert thresholds == {key: build_thresholds(values) for key, values in expected.items()}
    assert thresholds[DistributionKey("citations", "X", 2006)].n == 4
    # " 2006" and "2006" are one year
    assert thresholds[DistributionKey("journal-metric", "X", 2006)].n == 3


@pytest.mark.parametrize("value", ["-1", "nan", "many"])
def test_worldvalues_earlier_fault_wins(tmp_path, value):
    path = tmp_path / "worldvalues.csv"
    path.write_text("indicator,category_group,year,doc_split,value\n"
                    "h-index,X,2006,any,3\n"
                    f"citations,X,2006,any,{value}\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_worldvalues(path)
    assert exc.value.line == 2
    assert "unknown indicator 'h-index'" in str(exc.value)


def test_worldvalues_key_fault_precedes_value_fault_on_one_line(tmp_path):
    path = tmp_path / "worldvalues.csv"
    path.write_text("indicator,category_group,year,doc_split,value\n"
                    "citations,X,2006,any,3\n"
                    "citations,X,2006,letters,-1\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_worldvalues(path)
    assert str(exc.value) == f"{path}:3: unknown doc_split 'letters'"


@pytest.mark.parametrize("rows, line, message", [
    (["citations,X,20x6,any,many"], 2, "year is not an integer: '20x6'"),
    (["h-index,X,2006,any,many"], 2, "value is not a number: 'many'"),
    (["citations,X,2006,any,1", "citations,X,20x6,any,-1"], 3, "year is not an integer: '20x6'"),
])
def test_worldvalues_fault_precedence_on_one_line(tmp_path, rows, line, message):
    """On one line a year fault comes first, then value, then the key, then range."""
    path = tmp_path / "worldvalues.csv"
    path.write_text("indicator,category_group,year,doc_split,value\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_worldvalues(path)
    assert str(exc.value) == f"{path}:{line}: {message}"


HEADER = "indicator,category_group,year,doc_split,value\n"


def _by_rows(path: Path) -> dict | str:
    """What the row reader alone gives for a worldvalues.csv: read_rows, each row's
    key and the range check of its value, to thresholds or the text of the ParseError."""
    values: dict[DistributionKey, list[float]] = {}
    try:
        for line, row in read_rows(path, reference.WORLDVALUE_COLUMNS):
            value = row.pop()
            key = reference._distribution_key(row, str(path), line)
            if not 0 <= value < math.inf:
                raise ParseError(f"value is not a finite non-negative number: {value}",
                                 str(path), line)
            values.setdefault(key, []).append(value)
    except ParseError as exc:
        return str(exc)
    return {key: build_thresholds(v) for key, v in values.items()}


@pytest.mark.parametrize("last, message", [
    ("citations,X1,2006,any,many", "value is not a number: 'many'"),
    ("citations,Y,2006,letters,1", "unknown doc_split 'letters'"),
    ("citations,X1,2006,any,1,2", "expected 5 fields, got 6"),
    (f"citations,{'X' * (csv.field_size_limit() + 1)},2006,any,1",
     f"field larger than field limit ({csv.field_size_limit()})"),
    (f"citations,X1,2006,any,{'0' * csv.field_size_limit()}1",  # a finite number
     f"field larger than field limit ({csv.field_size_limit()})"),
], ids=["value-on-a-known-key", "doc_split-on-a-new-key", "six-fields", "overlong-line",
        "long-value-on-a-known-key"])
def test_worldvalues_fault_on_the_last_of_10000_plain_lines(tmp_path, last, message):
    path = tmp_path / "worldvalues.csv"
    rows = [f"citations,X{i % 4},2006,any,{i}" for i in range(9_999)] + [last]
    path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_worldvalues(path)
    assert str(exc.value) == f"{path}:10001: {message}"


@pytest.mark.parametrize("text, sizes", [
    (HEADER + 'citations,"X, Y",2006,any,1\ncitations,X,2006,,2\ncitations,"X, Y",2006,,3\n',
     [1, 2]),
    (HEADER + 'citations,"X\nY",2006,any,1\ncitations,"X\nY",2006,any,2\n', [2]),
    ("\ufeff" + (HEADER + "citations,X,2006,any,1\ncitations,X,2006,,2\n\n\n")
     .replace("\n", "\r\n"), [2]),
    # the text before the last comma of line 2 opens a group that ends on line 3,
    # so it names no key when line 4 starts with it again
    (HEADER + 'citations,"X,2006,any,1\nY",2006,any,2\ncitations,"X,2006,any,3\nY",2006,any,4\n',
     [1, 1]),
], ids=["quoted-comma", "quoted-newline", "bom-crlf-blank-lines", "group-over-two-lines"])
def test_worldvalues_read_alike_by_lines_and_by_rows(tmp_path, text, sizes):
    path = tmp_path / "worldvalues.csv"
    path.write_bytes(text.encode("utf-8"))
    thresholds = load_worldvalues(path)
    assert thresholds == _by_rows(path)
    assert sorted(t.n for t in thresholds.values()) == sizes


def test_a_plain_file_is_read_without_the_row_reader(tmp_path, monkeypatch):
    path = tmp_path / "worldvalues.csv"
    lines = ["citations,X,2006,any,3", "journal-metric,X,2006,any,0.5", "citations,X, 2006,,1"]
    path.write_bytes(("\ufeff" + HEADER + "\n".join(lines) + "\n\n\n").replace("\n", "\r\n")
                     .encode("utf-8"))

    def refuse(*args):
        raise AssertionError("read_rows called")

    monkeypatch.setattr(worldvalues, "read_rows", refuse)
    assert load_worldvalues(path) == {
        DistributionKey("citations", "X", 2006): build_thresholds([3, 1]),
        DistributionKey("journal-metric", "X", 2006): build_thresholds([0.5]),
    }


def test_a_bench_rawref_file_is_read_without_the_row_reader(tmp_path, monkeypatch):
    """A worldvalues.csv written as bench/synth.py writes bench rawref's is taken by the
    block path: were it read again by the row reader, its load would take about 4x as long."""
    spec = importlib.util.spec_from_file_location(
        "synth", Path(__file__).parent.parent / "bench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "synth", synth)  # dataclasses look their module up
    spec.loader.exec_module(synth)
    synth.generate(tmp_path, synth.Knobs(researchers=10, reference="worldvalues",
                                         values_per_key=13), seed=1)
    path = tmp_path / "ref" / "worldvalues.csv"
    expected = _by_rows(path)

    def refuse(*args):
        raise AssertionError("read_rows called")

    monkeypatch.setattr(worldvalues, "read_rows", refuse)
    assert load_worldvalues(path) == expected


def test_a_two_line_record_late_in_the_file_is_read_as_by_rows(tmp_path, caplog):
    """A record over two lines late in the file is read by the row reader, and the
    fault after it is named by its line in the file; nothing is logged."""
    path = tmp_path / "worldvalues.csv"
    rows = [f"citations,X{i % 4},2006,any,{i}" for i in range(9_998)]
    rows.append('citations,"X2\nY",2006,any,1')  # lines 10,000 and 10,001
    path.write_text(HEADER + "\n".join(rows) + "\ncitations,X1,2006,any,many\n", encoding="utf-8")
    with caplog.at_level(logging.DEBUG, logger="assessopt"), pytest.raises(ParseError) as exc:
        load_worldvalues(path)
    assert str(exc.value) == f"{path}:10002: value is not a number: 'many'"
    assert caplog.records == []
    path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    thresholds = load_worldvalues(path)
    assert thresholds == _by_rows(path)
    assert sorted(t.n for t in thresholds.values()) == [1, 2_499, 2_499, 2_500, 2_500]


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC],
                         ids=["quoted-comma-groups", "quote-nonnumeric"])
def test_quoted_files_are_read_without_the_row_reader(tmp_path, monkeypatch, quoting):
    """Subject categories hold commas, so a real worldvalues.csv quotes them, and
    R's write.csv quotes every text, the header too: each loads by lines to the
    thresholds of the same values, as a plain file would give them."""
    groups = ["Chemistry, Physical", "Engineering, Electrical & Electronic", "Physics"]
    records = [(INDICATORS[i % 2], groups[i % 3], 2006 + i % 2, DOC_SPLITS[i % 3], i / 4)
               for i in range(3_000)]
    path = tmp_path / "worldvalues.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting)
        writer.writerow(reference.WORLDVALUE_COLUMNS)
        writer.writerows(records)
    plain: dict[DistributionKey, list[float]] = {}
    for *key, value in records:
        plain.setdefault(DistributionKey(*key), []).append(value)

    def refuse(*args):
        raise AssertionError("read_rows called")

    monkeypatch.setattr(worldvalues, "read_rows", refuse)
    assert load_worldvalues(path) == {key: build_thresholds(v) for key, v in plain.items()}


def _bad_byte_after_a_value_fault(lines_on: int) -> bytes:
    """A value fault on line 2, and a byte that is not UTF-8 lines_on lines after it."""
    plain = "".join(f"citations,X,2006,any,{i}\n" for i in range(lines_on - 1))
    return ((HEADER + "citations,X,2006,any,many\n" + plain).encode()
            + b"citations,Caf\xe9,2006,any,2\n")


@pytest.mark.parametrize("text", [
    HEADER + "".join(f"citations,X{i % 4},2006,any,{i}\n" for i in range(9_999))
    + "citations,X1,2006,any,many\n",
    HEADER + "citations,X,2006,any,1\ncitations,X,2006,any,2\n" + 'citations,X,"2006\n",any,3\n',
    HEADER + 'citations,"X\nY",2006,any,1\ncitations,"X\nY",2006,any,2\n',
], ids=["bad-value-on-the-last-of-10000-lines", "two-line-record", "quoted-newline"])
def test_refused_lines_are_read_as_by_rows(tmp_path, text):
    """A file with a line the block test refuses is read by the row reader alone."""
    path = tmp_path / "worldvalues.csv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(path) == _by_rows(path)


@pytest.mark.parametrize("name, data, what", [
    ("missing.csv", None, "cannot be opened or read"),
    ("latin1.csv", (HEADER + "citations,X,2006,any,1\ncitations,Caf\xe9,2006,any,2\n")
     .encode("latin-1"), "not UTF-8 text at line 1 or after it"),
    ("header.csv", b"indicator,category_group,year,value\n", "not the expected header"),
    ("nul.csv", (HEADER + "citations,X,2006,any,1\ncitations,X\0,2006,any,2\n").encode(),
     "NUL or line over the field limit"),
    ("nul-header.csv", (HEADER.replace("year", "ye\0ar") + "citations,X,2006,any,1\n").encode(),
     "not the expected header"),
    # the text after line 2's last comma reads as a float, but that comma is in a
    # quoted value that goes on to line 3, which alone would be a whole record
    ("comma-value.csv", (HEADER + 'citations,X,2006,any,"x,1\ncitations,"X",2006,any,2\n')
     .encode(), "not a one-line record"),
    *((f"bad-byte-{n}-on.csv", _bad_byte_after_a_value_fault(n),
       f"a bad byte {n} line(s) after a value fault") for n in (1, 5_000)),
])
def test_worldvalues_decline_is_logged_with_its_reason(tmp_path, caplog, name, data, what):
    """Files that are missing, not UTF-8, with another header, a NUL, a quoted value
    over two lines or a bad byte after a value fault log nothing, and give the row
    reader's outcome."""
    path = tmp_path / name
    if data is not None:
        path.write_bytes(data)
    with caplog.at_level(logging.DEBUG, logger="assessopt"):
        try:
            outcome = load_worldvalues(path)
        except ParseError as exc:
            outcome = str(exc)
    assert caplog.records == []
    assert outcome == _by_rows(path), what


@pytest.mark.parametrize("lines_on, message", [
    (1, ": not UTF-8 text (byte 0xe9)"),
    (400, ":2: value is not a number: 'many'"),
    (5_000, ":2: value is not a number: 'many'"),
])
def test_a_bad_byte_is_met_as_lines_are_read_one_by_one(tmp_path, lines_on, message):
    """Text is decoded 8 KB at a time as its lines are read one by one, so a bad byte
    in the block of a value fault is met first, and one in a later block (400 lines
    on is about 10 KB on) is not met at all."""
    path = tmp_path / "worldvalues.csv"
    path.write_bytes(_bad_byte_after_a_value_fault(lines_on))
    with pytest.raises(ParseError) as exc:
        load_worldvalues(path)
    assert str(exc.value) == f"{path}{message}"



# --- the fast path: load_worldvalues reads worldvalues._PIECE characters a step ----------
# A block is one such piece, completed to a line end: it ends with the line that holds its
# character P, counted from 0.

P = worldvalues._PIECE


def _plain(count: int, start: int = 0, end: str = "\n") -> list[str]:
    """count plain lines over four keys, each with its line end."""
    return [f"citations,X{i % 4},2006,any,{i}{end}" for i in range(start, start + count)]


def _run(count: int, group: str, start: int = 0, end: str = "\n") -> list[str]:
    """count lines of one key text, each with its line end."""
    return [f"citations,{group},2006,any,{i}{end}" for i in range(start, start + count)]


def _block_ends(lines: list[str]) -> list[tuple[int, int]]:
    """For each block that the lines fill past P characters, the number of lines, as the
    text reader splits them, up to its end, and the offset of its end."""
    ends, size = [(0, 0)], 0
    for count, line in enumerate(StringIO("".join(lines), newline=""), 1):
        if (size := size + len(line)) > ends[-1][1] + P:  # the line holds character P
            ends.append((count, size))
    return ends[1:]


def _to_a_block_end(body: list[str], start: int = 0,
                    line=lambda i, value: f"citations,X{i % 4},2006,any,{value}\n") -> list[str]:
    """body, then lines line(i, i) for i from start, the last value padded with zeros, that
    end where their block holds P characters: a line after them is that block's last."""
    size, goal = len("".join(body)), ([(0, 0)] + _block_ends(body))[-1][1] + P
    lines, i = [], start
    while goal - size >= 2 * len(line(i, i)) + 32:
        lines.append(line(i, i))
        size += len(lines[-1])
        i += 1
    lines.append(line(i, f"{i:0{goal - size - len(line(i, ''))}d}"))
    assert size + len(lines[-1]) == goal
    return body + lines


B = _block_ends(_plain(1_000))[0][0]  # plain lines in the first block


def _outcome(path: Path) -> dict | str:
    try:
        return load_worldvalues(path)
    except ParseError as exc:
        return str(exc)


def _quoted(i: int, value, group: str = "X", end: str = "\n") -> str:
    """A line as csv.QUOTE_ALL writes it; i, unused, is the line's number."""
    return f'"citations","{group}","2006","any","{value}"{end}'


# Each body's lines are numbered from 0, the first after the header.
_BOUNDARY_BODIES = {
    "two-line-record-over-a-block-end":
        _to_a_block_end([]) + ['citations,"X2\nY",2006,any,1\n'] + _plain(B + 5, B),
    "two-line-record-over-a-block-end-then-a-fault":
        _to_a_block_end([]) + ['citations,"X2\nY",2006,any,1\n'] + _plain(3, B)
        + ["citations,X1,2006,any,many\n"],
    "refused-line-first-in-a-block":
        _plain(B) + ['citations,X1,2006,any,"1" \n'] + _plain(B, B + 1),
    "refused-line-last-in-a-block":
        _to_a_block_end([]) + ['citations,X1,2006,any,"1" \n'] + _plain(B, B),
    "refused-lines-first-and-last-in-a-block":
        _to_a_block_end(_plain(B) + ['citations,X1,2006,any,"1" \n'], B + 1)
        + ['citations,X3,2006,any," 2"x\n'] + _plain(5, 2 * B),
    "fault-first-in-a-block": _plain(B) + ["citations,X1,2006,any,many\n"] + _plain(5, B),
    "fault-last-in-a-block": _to_a_block_end([]) + ["citations,X1,2006,any,-1\n"] + _plain(5, B),
    "unseen-key-text-at-a-block-start":
        _plain(B) + [f"citations,NEW,2006,any,{i}\n" for i in range(B + 3)] + _plain(3, B),
    "unseen-key-text-last-in-a-block-then-a-run":
        _to_a_block_end([]) + [f"journal-metric,X0,2006,,{i}\n" for i in range(B + 1)],
    "interleaved-keys-with-a-new-one-and-a-refused-line":
        [f"citations,X{i % 5},2006,any,{i}\n" for i in range(B + 3)]
        + ["citations,NEW,2006,any,1\n"] + [f"citations,X{i % 5},2006,any,{i}\n" for i in range(3)]
        + ['citations,X1,2006,any,"1" \n'] + [f"citations,{('X1', 'NEW')[i % 2]},2006,any,{i}\n"
                                              for i in range(B)],
    "blank-lines-over-a-block-end": _to_a_block_end([]) + ["\n"] * 3 + _plain(B, B),
    "blank-lines-to-the-end": _to_a_block_end([]) + ["\n"] * (B + 2),
    "crlf-and-lone-cr":
        _to_a_block_end([], line=lambda i, value: f"citations,X{i % 4},2006,any,{value}\r\n")
        + _plain(3, B, "\r") + _plain(B, B + 3, "\r\n"),
    "u2028-inside-a-field":
        _to_a_block_end([]) + [f"citations,X\u2028Y,2006,any,{i}\r\n" for i in range(B + 2)],
    "exactly-one-block": _plain(B),
    "exactly-two-blocks": _to_a_block_end(_plain(B), B) + _plain(1, 2 * B),
    "no-line-end-at-the-end": _to_a_block_end(_plain(B), B) + ["citations,X1,2006,any,7"],
    "quoted-no-line-end-at-the-end":
        _to_a_block_end([_quoted(i, i, f"X{i % 2}", "\r\n") for i in range(B)], B,
                        lambda i, value: _quoted(i, value, f"X{i % 2}", "\r\n"))
        + ['"citations","X1","2006","any","7"'],
    "quoted-refused-at-block-ends":
        _to_a_block_end([], line=_quoted)
        + ['"citations","X","2006","any","1""2"\n', '"citations","X","2006","any",3\n']
        + [_quoted(i, i, end="\r") for i in range(B)],
    # the run step: runs of one key text, of at least worldvalues._SHORT lines
    "run-over-a-block-end":
        _to_a_block_end(_run(100, "A"), line=lambda i, value: f"citations,B,2006,any,{value}\n")
        + _run(100, "B", 1_000),
    "lines-longer-than-a-block":
        [f"citations,{'L' * P},2006,any,{i}\n" for i in range(3)] + _run(40, "A"),
    "six-fields-in-a-run": _run(40, "A") + ["citations,A,2006,any,1,2\n"] + _run(40, "A", 40),
    "key-text-in-a-value-in-a-run":
        _run(40, "A") + ["citations,A,2006,any,1citations,A,2006,any,2\n"] + _run(40, "A", 40),
    "crlf-runs": _run(40, "A", end="\r\n") + _run(40, "B", end="\r\n"),
    "lone-cr-runs": _run(40, "A", end="\r") + _run(40, "B", end="\r"),
    "u2028-in-a-run": _run(40, "X\u2028Y") + _run(40, "B"),
    "quote-all-runs": [_quoted(i, i, "A") for i in range(40)] + [_quoted(i, i, "B")
                                                               for i in range(40)],
    "blank-line-in-a-run": _run(40, "A") + ["\n"] + _run(40, "A", 40) + _run(40, "B"),
    "a-run-then-another-key-then-the-run-again":
        _run(40, "A") + _run(3, "B") + _run(40, "A", 40) + _run(40, "C"),
}


# The bodies with a fault, or a line that csv must read: the row reader reads these files.
_READ_BY_ROWS = {
    "two-line-record-over-a-block-end", "two-line-record-over-a-block-end-then-a-fault",
    "refused-line-first-in-a-block", "refused-line-last-in-a-block",
    "refused-lines-first-and-last-in-a-block", "fault-first-in-a-block", "fault-last-in-a-block",
    "interleaved-keys-with-a-new-one-and-a-refused-line", "quoted-refused-at-block-ends",
    "six-fields-in-a-run", "key-text-in-a-value-in-a-run",
}
# The bodies of long runs of one key text alone: the run step reads each line of these.
_RUNS_ONLY = {"run-over-a-block-end", "lines-longer-than-a-block", "crlf-runs", "lone-cr-runs",
              "u2028-in-a-run", "quote-all-runs"}


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
@pytest.mark.parametrize("name", list(_BOUNDARY_BODIES))
def test_block_boundaries_read_as_by_rows(tmp_path, monkeypatch, bom, name):
    """Lines that csv must read, faults, unseen key texts, line ends and the end of the
    file, each at the start or end of a block, and runs of one key text, give the row
    reader's outcome; the fast path takes each file with neither a fault nor a line that csv
    must read, and the run step alone a file of long runs."""
    path = tmp_path / "worldvalues.csv"
    path.write_bytes((bom + HEADER + "".join(_BOUNDARY_BODIES[name])).encode("utf-8"))
    expected = _by_rows(path)

    def refuse(*args):
        raise AssertionError("read_rows or the per-line step called")

    if name not in _READ_BY_ROWS:
        monkeypatch.setattr(worldvalues, "read_rows", refuse)
    if name in _RUNS_ONLY:
        monkeypatch.setattr(worldvalues, "_per_line", refuse)
    assert _outcome(path) == expected


def test_the_blocks_of_the_boundary_bodies_are_the_fast_paths(tmp_path, monkeypatch):
    """The fast path ends its blocks where _block_ends, which places the boundary bodies'
    lines, says it does."""
    read_lines, ends = worldvalues.read_lines, []

    @contextmanager
    def recorded(*args):
        with read_lines(*args) as (file, rows_from, limit):
            text = []

            class Recorded:
                def read(self, size):
                    text.append(file.read(size))
                    return text[-1]

                def readline(self):
                    text.append(file.readline())
                    ends.append(len(list(StringIO("".join(text), newline=""))))
                    return text[-1]

            yield Recorded(), rows_from, limit

    monkeypatch.setattr(worldvalues, "read_lines", recorded)
    for name, body in _BOUNDARY_BODIES.items():
        if name not in _READ_BY_ROWS:
            path = tmp_path / f"{name}.csv"
            path.write_text(HEADER + "".join(body), encoding="utf-8", newline="")
            ends.clear()
            load_worldvalues(path)
            lines = len(list(StringIO("".join(body), newline="")))
            assert set(ends) - {lines} == {count for count, _ in _block_ends(body)} - {lines}, name


def _fault_then_bad_byte(fault: int, bad: int, opener: bool = False) -> bytes:
    """Plain lines numbered from 2, a byte that is not UTF-8 on line bad, and on line
    fault a value fault, or with opener a quoted field that goes on to the next line."""
    lines = [b"citations,X,2006,any,%d\n" % i for i in range(2, bad)]
    if opener:
        lines[fault - 2:fault] = [b'citations,"X\n', b'Y' * 32 + b'",2006,any,1\n']
    elif fault < bad:
        lines[fault - 2] = b"citations,X,2006,any,many\n"
    return HEADER.encode() + b"".join(lines) + b"citations,Caf\xe9,2006,any,2\n"


def test_a_bad_byte_near_a_block_or_decoder_boundary_is_met_as_by_rows(tmp_path):
    """The text decoder reads 8 KB at a time. A bad byte just after a value fault, or
    after a quoted field that goes on to the next line, with both around a block's ends
    or around the 8 KB mark, gives the outcome of reading the lines one by one: the fault
    where the bad byte is in a later 8 KB, else not UTF-8."""
    size, chunk_line = len(HEADER), 2  # chunk_line: the plain line that holds byte 8,192
    while (size := size + len(b"citations,X,2006,any,%d\n" % chunk_line)) <= 8192:
        chunk_line += 1
    # the first lines of the second and third blocks (lines are numbered from 2)
    firsts = [2 + count for count, _ in _block_ends([f"citations,X,2006,any,{i}\n"
                                                      for i in range(2, 1_000)])[:2]]
    cases = [(f, b, False) for first in firsts for f, b in (
        (first, first + 1), (first + 1, first + 2), (first - 1, first + 1))]
    cases += [(bad - gap, bad, False) for bad in range(chunk_line - 3, chunk_line + 4)
              for gap in (1, 4)]
    cases += [(bad + 1, bad, False)  # no value fault
              for bad in (firsts[0] - 1, firsts[0], firsts[0] + 1, chunk_line)]
    cases += [(fault, fault + 5, True) for fault in range(chunk_line - 3, chunk_line + 2)]
    outcomes = set()
    for fault, bad, opener in cases:
        path = tmp_path / f"wv-{fault}-{bad}-{opener}.csv"
        path.write_bytes(_fault_then_bad_byte(fault, bad, opener))
        outcome = _outcome(path)
        assert outcome == _by_rows(path), (fault, bad, opener)
        outcomes.add(outcome.split(": ", 1)[1])
    assert outcomes == {"value is not a number: 'many'", "not UTF-8 text (byte 0xe9)"}


@pytest.mark.parametrize("fault", [None, 5], ids=["no-fault", "value-fault"])
@pytest.mark.parametrize("blocks", [1, 2])
def test_a_bad_byte_just_after_whole_blocks_of_8_kb_is_met_as_by_rows(tmp_path, blocks, fault):
    """The header and blocks * B lines fill blocks * 8 KB exactly, so the text decoder
    meets a bad byte on the next line before any line of the next block is read."""
    count = blocks * B
    width, longer = divmod(blocks * 8192 - len(HEADER), count)
    width -= len("citations,X,2006,any,\n")
    lines = [b"citations,X,2006,any,%0*d\n" % (width + (i < longer), i) for i in range(count)]
    if fault is not None:
        lines[fault] = b"citations,X,2006,any,%s\n" % (b"x" * (width + (fault < longer)))
    data = HEADER.encode() + b"".join(lines)
    assert len(data) == blocks * 8192
    path = tmp_path / "worldvalues.csv"
    path.write_bytes(data + b"citations,Caf\xe9,2006,any,2\n")
    outcome = _outcome(path)
    assert outcome == _by_rows(path)
    assert outcome.split(": ", 1)[1].startswith(
        "value is not a number" if fault else "not UTF-8 text (byte 0xe9)")


@pytest.mark.parametrize("value", ['"1"', '" 2"', '"2 "', '"1e3"', '""1"', '1""', '"1""',
                                   '""1', '"1"x', '"1" ', '""', '"', '"1', '"-1"', '"nan"', "3"])
@pytest.mark.parametrize("after", [0, 1], ids=["last-in-a-block", "first-in-a-block"])
def test_a_value_not_quoted_whole_is_read_by_csv(tmp_path, value, after):
    """In a csv.QUOTE_ALL file the fast path takes a value with one quote before it and
    one after it, then only the line end; csv reads any other form, to the row reader's
    outcome."""
    lines = _to_a_block_end([], line=lambda i, value: _quoted(i, value, end="\r\n"))
    at = len(lines) + after
    lines += [_quoted(i, i, end="\r\n") for i in range(len(lines), 2 * len(lines))]
    lines[at] = f'"citations","X","2006","any",{value}\r\n'
    path = tmp_path / "worldvalues.csv"
    path.write_text('"' + HEADER.rstrip().replace(",", '","') + '"\r\n' + "".join(lines),
                    encoding="utf-8")
    assert _outcome(path) == _by_rows(path)

def test_a_quote_all_file_is_read_by_blocks(tmp_path, monkeypatch):
    """Values quoted whole, as csv.QUOTE_ALL writes them, are taken by the block test:
    csv reads only the first line of each key text, and the thresholds are those of the
    same values written plain."""
    records = [(INDICATORS[i % 2], f"G{i // 300}", 2006, DOC_SPLITS[i // 900], i / 8)
               for i in range(2_700)]
    path = tmp_path / "worldvalues.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow(reference.WORLDVALUE_COLUMNS)
        writer.writerows(records)
    plain: dict[DistributionKey, list[float]] = {}
    for *key, value in records:
        plain.setdefault(DistributionKey(*key), []).append(value)
    read_at, read_lines = [], worldvalues.read_lines

    @contextmanager
    def counted(*args):
        with read_lines(*args) as (lines, rows_from, limit):
            def rows(line, more):
                read_at.append(line)
                return rows_from(line, more)
            yield lines, rows, limit

    monkeypatch.setattr(worldvalues, "read_lines", counted)
    assert load_worldvalues(path) == {key: build_thresholds(v) for key, v in plain.items()}
    assert len(read_at) == len({(i % 2, i // 300, i // 900) for i in range(2_700)})


_FIELD = {  # each field's valid texts, then its faulty ones
    "indicator": (["citations", "journal-metric"], ["h-index"]),
    "category_group": (["X", "Y", "", " X", "X\0", "X\u2028Y", 'X"Y', '"X, Y"', '"X\nY"',
                        '"X\r\nY"'],
                       ["X, Y", "X\nY", "X\rY"]),
    "year": (["2006", "2007", " 2006"], ["20x6", ""]),
    "doc_split": (["", "any", "review"], ["letters"]),
    "value": (["1", "2.5", "0", "1_000", " 3"], ["-1", "nan", "inf", "1e400", "many", ""]),
}
_QUOTE = {False: lambda text: text, True: lambda text: '"' + text.replace('"', '""') + '"'}


@st.composite
def _worldvalues_texts(draw) -> str:
    """worldvalues.csv texts: records, some with quoted fields, faulty fields, or
    too few or too many fields, and blank lines or lines of spaces, each line with
    its own line end. Each file draws how often a field is faulty, and quoted: half
    the files have no faulty field, since only the row reader reads a faulty one. Some
    files start with enough plain records that the drawn lines come after the key
    text of P is known and in a later 8 KB block of the text decoder."""
    faults = draw(st.sampled_from([0, 0, 1, 4]))
    quote = st.sampled_from([False] * 40 + [True] * draw(st.sampled_from([0, 0, 1, 8])))
    fields = [st.sampled_from(valid * 20 + invalid * faults) for valid, invalid in _FIELD.values()]
    record = st.builds(
        lambda texts, quotes, width: ",".join(
            [_QUOTE[q](t) for t, q in zip(texts, quotes)][:width] + ["1"] * (width - 5)),
        st.tuples(*fields),
        st.lists(quote, min_size=5, max_size=5),
        st.sampled_from([5] * 40 + [4, 6] * faults),
    )
    line = st.one_of(record, record, record, st.sampled_from([""] * 8 + ["   "] * faults))
    lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
    header = ",".join(map(_QUOTE[draw(quote)], _FIELD)) + draw(st.sampled_from(
        [""] * 40 + [",n"] * faults))
    padding = "".join(f"citations,P,2006,any,{i}\n" for i in range(draw(st.sampled_from(
        [0, 0, 700, 1500]))))
    return (draw(st.sampled_from(["", "\ufeff"])) + header + "\n" + padding
            + "".join(map("".join, lines)))


@settings(max_examples=200, deadline=None)
@given(_worldvalues_texts())
def test_worldvalues_read_by_lines_as_by_rows(tmp_path_factory, text):
    """Whatever the file, load_worldvalues gives what the row reader alone gives:
    the same thresholds, or a ParseError with the same text."""
    path = tmp_path_factory.mktemp("worldvalues") / "worldvalues.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        outcome = load_worldvalues(path)
    except ParseError as exc:
        outcome = str(exc)
    assert outcome == _by_rows(path)


def _many_values(path: Path, count: int, quoted: bool) -> None:
    """count values over four keys; quoted puts the first record's year in quotes
    over two lines, so that the row reader reads the file."""
    rows = [f"citations,X{i % 4},2006,any,{i}" for i in range(count)]
    if quoted:
        rows[0] = 'citations,X0,"2006\n",any,0'
    path.write_text("indicator,category_group,year,doc_split,value\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_load_worldvalues_holds_values_as_8_byte_floats(tmp_path, quoted):
    """100,000 values held as boxed floats in lists take ~3.5 MB at peak; as
    8-byte floats in one array per key they take 0.8 MB, plus the sort of one key,
    whether the block path or the row reader reads the file."""
    path = tmp_path / "worldvalues.csv"
    _many_values(path, 100_000, quoted)
    tracemalloc.start()
    try:
        thresholds = load_worldvalues(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.n for t in thresholds.values()) == 100_000
    assert peak < 2_000_000


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_load_worldvalues_memory_does_not_grow_with_rows(tmp_path, quoted):
    """Rows are reduced to per-key value lists as they are read; no list of
    parsed rows is held. 20,000 parsed rows held at once would take several MB."""
    path = tmp_path / "worldvalues.csv"
    _many_values(path, 20_000, quoted)
    tracemalloc.start()
    try:
        thresholds = load_worldvalues(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.n for t in thresholds.values()) == 20_000
    assert peak < 3_000_000


def test_threshold_round_trip(tmp_path):
    src = tmp_path / "worldvalues.csv"
    src.write_text(WORLDVALUES, encoding="utf-8")
    thresholds = load_worldvalues(src)
    out = tmp_path / "thresholds.csv"
    write_thresholds(thresholds, out)
    assert load_thresholds(out) == thresholds


@given(st.dictionaries(
    st.builds(DistributionKey, st.sampled_from(INDICATORS), st.sampled_from(["X", "Y Z"]),
              st.integers(2004, 2010), st.sampled_from(DOC_SPLITS)),
    st.builds(
        lambda cuts, n: ClassThresholds(*sorted(cuts), n),
        st.lists(st.floats(min_value=0, allow_nan=False, allow_infinity=False),
                 min_size=3, max_size=3),
        st.integers(min_value=1, max_value=10**9),
    ),
    max_size=6,
))
def test_threshold_round_trip_is_lossless(tmp_path_factory, thresholds):
    out = tmp_path_factory.mktemp("thresholds") / "thresholds.csv"
    write_thresholds(thresholds, out)
    assert load_thresholds(out) == thresholds


def test_write_thresholds_writes_the_fixture_bytes(tmp_path):
    fixture = Path(__file__).parent / "fixtures" / "witness" / "ref" / "thresholds.csv"
    write_thresholds(load_thresholds(fixture), tmp_path / "thresholds.csv")
    assert (tmp_path / "thresholds.csv").read_bytes() == fixture.read_bytes()


def test_duplicate_threshold_key(tmp_path):
    path = tmp_path / "thresholds.csv"
    path.write_text(
        "indicator,category_group,year,doc_split,p50,p60,p80,n\n"
        "citations,X,2006,any,1,2,3,9\n"
        "citations,X,2006,any,1,2,3,9\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as exc:
        load_thresholds(path)
    assert "duplicate" in str(exc.value)


def test_threshold_ordering_checked(tmp_path):
    path = tmp_path / "thresholds.csv"
    path.write_text(
        "indicator,category_group,year,doc_split,p50,p60,p80,n\n"
        "citations,X,2006,any,5,2,3,9\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError):
        load_thresholds(path)


def test_unknown_indicator_rejected(tmp_path):
    path = tmp_path / "thresholds.csv"
    path.write_text(
        "indicator,category_group,year,doc_split,p50,p60,p80,n\n"
        "h-index,X,2006,any,1,2,3,9\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as exc:
        load_thresholds(path)
    assert "h-index" in str(exc.value)
