"""Threshold construction, classification and library lookups."""

from __future__ import annotations

import csv
import logging
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from assessopt import reference
from assessopt.corpus import IndexRecord, NotPlain
from assessopt.errors import ParseError, ValidationError
from assessopt.gev import multi_category_class
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
    lib = make_library()
    assert lib.lookup("citations", "Oncology", 2006).p80 == 12


def test_lookup_direct_key():
    assert make_library().lookup("citations", "Physics", 2006).p50 == 3


def test_lookup_missing_names_resolved_key():
    lib = make_library()
    assert lib.lookup("citations", "Oncology", 2007) is None
    record = IndexRecord(subject_categories=("Oncology",), citations=5)
    with pytest.raises(ValidationError) as exc:
        multi_category_class(record, "citations", 5, 2007, "any", lib)
    assert "BIOMED-G1" in str(exc.value)
    assert "2007" in str(exc.value)


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
    """What load_worldvalues gives when the line-by-line reader declines every
    file: thresholds, or the text of the ParseError."""
    try:
        with mock.patch.object(reference, "read_plain_lines", side_effect=NotPlain("declined")):
            return load_worldvalues(path)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("last, message", [
    ("citations,X1,2006,any,many", "value is not a number: 'many'"),
    ("citations,Y,2006,letters,1", "unknown doc_split 'letters'"),
    ("citations,X1,2006,any,1,2", "expected 5 fields, got 6"),
    (f"citations,{'X' * (csv.field_size_limit() + 1)},2006,any,1",
     f"field larger than field limit ({csv.field_size_limit()})"),
], ids=["value-on-a-known-key", "doc_split-on-a-new-key", "six-fields", "overlong-line"])
def test_worldvalues_fault_on_the_last_of_10000_plain_lines(tmp_path, last, message):
    path = tmp_path / "worldvalues.csv"
    rows = [f"citations,X{i % 4},2006,any,{i}" for i in range(9_999)] + [last]
    path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_worldvalues(path)
    assert str(exc.value) == f"{path}:10001: {message}"


@pytest.mark.parametrize("text, declined, sizes", [
    (HEADER + 'citations,"X, Y",2006,any,1\ncitations,X,2006,,2\ncitations,"X, Y",2006,,3\n',
     False, [1, 2]),
    (HEADER + 'citations,"X\nY",2006,any,1\ncitations,"X\nY",2006,any,2\n', True, [2]),
    ("\ufeff" + (HEADER + "citations,X,2006,any,1\ncitations,X,2006,,2\n\n\n")
     .replace("\n", "\r\n"),
     False, [2]),
], ids=["quoted-comma", "quoted-newline", "bom-crlf-blank-lines"])
def test_worldvalues_read_alike_by_lines_and_by_rows(tmp_path, caplog, text, declined, sizes):
    path = tmp_path / "worldvalues.csv"
    path.write_bytes(text.encode("utf-8"))
    with caplog.at_level(logging.INFO, logger="assessopt.reference"):
        thresholds = load_worldvalues(path)
    assert len(caplog.records) == declined
    assert thresholds == _by_rows(path)
    assert sorted(t.n for t in thresholds.values()) == sizes


def test_a_plain_file_is_read_without_the_row_reader(tmp_path, monkeypatch):
    path = tmp_path / "worldvalues.csv"
    lines = ["citations,X,2006,any,3", "journal-metric,X,2006,any,0.5", "citations,X, 2006,,1"]
    path.write_bytes(("\ufeff" + HEADER + "\n".join(lines) + "\n\n\n").replace("\n", "\r\n")
                     .encode("utf-8"))

    def refuse(*args):
        raise AssertionError("read_rows called")

    monkeypatch.setattr(reference, "read_rows", refuse)
    assert load_worldvalues(path) == {
        DistributionKey("citations", "X", 2006): build_thresholds([3, 1]),
        DistributionKey("journal-metric", "X", 2006): build_thresholds([0.5]),
    }


def test_a_declined_file_is_read_again_from_line_2(tmp_path, caplog):
    """A record over two lines late in the file sends the whole file to the row
    reader, once, which names the fault after it by its line in the file."""
    path = tmp_path / "worldvalues.csv"
    rows = [f"citations,X{i % 4},2006,any,{i}" for i in range(9_998)]
    rows.append('citations,"X2\nY",2006,any,1')  # lines 10,000 and 10,001
    path.write_text(HEADER + "\n".join(rows) + "\ncitations,X1,2006,any,many\n", encoding="utf-8")
    calls, read_rows = [], reference.read_rows

    def recorded(*args):
        calls.append(args)
        return read_rows(*args)

    with mock.patch.object(reference, "read_rows", recorded), \
            caplog.at_level(logging.INFO, logger="assessopt.reference"), \
            pytest.raises(ParseError) as exc:
        load_worldvalues(path)
    assert str(exc.value) == f"{path}:10002: value is not a number: 'many'"
    assert caplog.messages == [f"{path}:10000: not a one-line record; reading row by row"]
    assert calls == [(path, reference.WORLDVALUE_COLUMNS)]
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

    monkeypatch.setattr(reference, "read_rows", refuse)
    assert load_worldvalues(path) == {key: build_thresholds(v) for key, v in plain.items()}


@pytest.mark.parametrize("name, data, reason", [
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
])
def test_worldvalues_decline_is_logged_with_its_reason(tmp_path, caplog, name, data, reason):
    """Each decline names its reason, and the line where one is known; the row
    reader then reports the file as it always has."""
    path = tmp_path / name
    if data is not None:
        path.write_bytes(data)
    with caplog.at_level(logging.INFO, logger="assessopt.reference"):
        try:
            outcome = load_worldvalues(path)
        except ParseError as exc:
            outcome = str(exc)
    line = {"header.csv": ":1", "nul.csv": ":3", "nul-header.csv": ":1",
            "comma-value.csv": ":2"}.get(name, "")
    assert caplog.messages == [f"{path}{line}: {reason}; reading row by row"]
    assert outcome == _by_rows(path)


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
    its own line end. Each file draws how often a field is faulty, and quoted. Some
    files start with enough plain records that the drawn lines come in a later batch
    of the line-by-line reader, so the row reader takes over in mid-file."""
    faults = draw(st.sampled_from([0, 1, 4]))
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
    over two lines, so the row reader reads the whole file."""
    rows = [f"citations,X{i % 4},2006,any,{i}" for i in range(count)]
    if quoted:
        rows[0] = 'citations,X0,"2006\n",any,0'
    path.write_text("indicator,category_group,year,doc_split,value\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_load_worldvalues_holds_values_as_8_byte_floats(tmp_path, quoted):
    """100,000 values held as boxed floats in lists take ~3.5 MB at peak; as
    8-byte floats in one array per key they take 0.8 MB, plus the sort of one key.
    The quoted file is read by the row reader from its first line."""
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
